// The station-window cycle engine shared by the three Ultrascalars.
//
// Ultrascalar I, Ultrascalar II and the hybrid schedule alike (Sections 1,
// 4, 6): a ring of n execution stations holding consecutive instructions,
// the Figure 5 sequencing prefixes, an oldest-first ALU grant, in-order
// commit and one-cycle misprediction recovery. They differ only in how the
// register datapath delivers operands and when stations leave the ring.
// WindowEngine<Net> owns every shared phase; Net, a statically dispatched
// register-network policy, supplies the rest:
//
//   Net::kKind, kRetire         ProcessorKind and RetireRule.
//   Net::kStallSkipsFinished    A finished station ignores injected stalls.
//   Net::Stations(config)       Window size n.
//   Net::FastTierOk(config)     Event-driven delivery is exact here.
//   Net(config, fast)           Builds the datapath and register file.
//   reg(r)                      Committed register file.
//   SaveFile/RestoreFile        Register file + window pointers (checkpoint).
//   SaveDatapath/RestoreDatapath  Delivery state, live corruptions included.
//   Propagate(window)           Phase 1 delivery for the reference tiers.
//   ApplyFaults(injector)       Corrupts the delivery state.
//   Recheck()                   kChecked: rebuild from inputs, count diffs.
//   Read(window, k, i, st)      Operands of the station at position k.
//   Distance(k, kj)             Propagation distance from writer position kj
//                               (-1: the committed file); constexpr, of the
//                               form k - kj, or k + offset with no writer.
//   FreeUnit(), WriteBack(r, b, cycle)   Per-commit retirement (not kBatch).
//   Latch(window)               Batch retirement's register latch (kBatch).
//
// All three run as rings: program position k lives in station
// (head + k) % n. Ultrascalar II's head stays at 0; the hybrid's advances by
// C when a cluster deallocates. Ideal (ideal_core.cpp) is deliberately not
// built on this engine: it is the independent timing reference the
// equivalence tests compare the Ultrascalars against.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

#include "core/checkpoint_util.hpp"
#include "core/distance_book.hpp"
#include "core/exec.hpp"
#include "core/fetch.hpp"
#include "core/processor.hpp"
#include "core/station.hpp"
#include "core/telemetry_hooks.hpp"
#include "datapath/bitset.hpp"
#include "datapath/packed_resolve.hpp"
#include "datapath/scheduler.hpp"
#include "datapath/sequencing.hpp"
#include "fault/fault.hpp"

namespace ultra::core {

/// When stations leave the ring.
enum class RetireRule : std::uint8_t {
  kStation,  // Each commit frees its station (Ultrascalar I).
  kCluster,  // Committed stations free a whole cluster at a time (hybrid).
  kBatch,    // The finished batch latches and frees at once (Ultrascalar II).
};

/// True when @p st has every operand it reads.
inline bool ArgsReady(const Station& st, const datapath::ResolvedArgs& args) {
  const isa::Opcode op = st.inst().op;
  return (!isa::ReadsRs1(op) || args.arg1.ready) &&
         (!isa::ReadsRs2(op) || args.arg2.ready);
}

/// The station ring and its derived shadow state, shared by the engine and
/// the register-network policies.
struct Window {
  Window(const CoreConfig& cfg, int size, bool fast_tier)
      : config(cfg),
        n(size),
        L(cfg.num_regs),
        fast(fast_tier),
        packed(cfg.datapath_eval == DatapathEval::kPacked),
        fwd(cfg.store_forwarding),
        stations(static_cast<std::size_t>(size)),
        fault_stall(static_cast<std::size_t>(size), 0),
        args_at(static_cast<std::size_t>(size)),
        mem_window(static_cast<std::size_t>(size)) {
    if (packed) {
      for (datapath::PackedBits* p : AllMasks()) p->Assign(n);
    }
    if (fast) wmap.Assign(n, L);
  }

  /// Station of program position @p k (0 <= k <= n).
  [[nodiscard]] int Slot(int k) const { return Wrap(head + k); }
  /// Program position of station @p i.
  [[nodiscard]] int Position(int i) const {
    return i >= head ? i - head : i - head + n;
  }
  /// @p i reduced into [0, n) for 0 <= i < 2n, without a division.
  [[nodiscard]] int Wrap(int i) const { return i >= n ? i - n : i; }

  const CoreConfig& config;
  const int n;
  const int L;
  // kPacked: the Figure 5 flags, prefixes, ALU grant and the execute walk
  // run 64 stations per word op. The fast tier additionally delivers
  // operands event-driven through `wmap`, re-resolving only stale stations.
  const bool fast;
  const bool packed;
  const bool fwd;
  std::uint64_t cycle = 0;

  std::vector<Station> stations;
  int head = 0;     // Station of program position 0 (the oldest).
  int count = 0;    // Allocated positions [0, count).
  int retired = 0;  // Committed positions [0, retired) still on the ring.
  std::vector<int> fault_stall;  // Remaining injected-stall cycles.

  // Derived per-station state (never checkpointed). args_at and mem_window
  // are station-indexed; the reference tiers rebuild them every cycle.
  std::vector<datapath::ResolvedArgs> args_at;
  std::vector<MemWindowEntry> mem_window;
  datapath::PackedWriterMap wmap;  // Fast tier only.
  datapath::PackedBits valid_b, fin_b, iss_b, res_b, msub_b, ld_b, stb_b,
      cf_b, alu_like_b, needs_alu_b, argr_b, stale_b, mw_stale_b, cond_b,
      psd_b, pld_b, pcf_b, req_b, grant_b, stall_b;
  // Fast tier with metrics on: core.propagation_distance, kept from the
  // stale-set re-resolutions instead of a per-cycle sweep.
  bool track_distances = false;
  DistanceBook distances;

  /// The masks a station's occupancy sets (cleared when it leaves).
  [[nodiscard]] std::array<datapath::PackedBits*, 13> StationMasks() {
    return {
        &valid_b, &fin_b, &iss_b, &res_b, &msub_b, &ld_b, &stb_b,
        &cf_b, &alu_like_b, &needs_alu_b, &argr_b, &stale_b, &mw_stale_b};
  }
  [[nodiscard]] std::array<datapath::PackedBits*, 20> AllMasks() {
    return {
        &valid_b, &fin_b, &iss_b, &res_b, &msub_b, &ld_b, &stb_b,
        &cf_b, &alu_like_b, &needs_alu_b, &argr_b, &stale_b, &mw_stale_b,
        &cond_b, &psd_b, &pld_b, &pcf_b, &req_b, &grant_b, &stall_b};
  }

  /// Fast tier: station @p i's occupant arrives. Its operands resolve at the
  /// next phase-1 drain.
  void FillShadow(int i, const Station& st) {
    const isa::Opcode op = st.inst().op;
    valid_b.Set(i);
    if (op == isa::Opcode::kLoad) {
      ld_b.Set(i);
    } else if (op == isa::Opcode::kStore) {
      stb_b.Set(i);
    } else {
      alu_like_b.Set(i);
    }
    if (isa::IsControlFlow(op)) cf_b.Set(i);
    if (NeedsAlu(op)) needs_alu_b.Set(i);
    if (isa::WritesRd(op)) wmap.SetWriter(i, st.inst().rd);
    if (isa::ReadsRs1(op)) wmap.AddReader(i, st.inst().rs1);
    if (isa::ReadsRs2(op)) wmap.AddReader(i, st.inst().rs2);
    stale_b.Set(i);
    if (fwd) mw_stale_b.Set(i);
  }

  /// Fast tier: station @p i's occupant leaves. Runs while the station still
  /// holds its instruction (the writer/reader rows are keyed by it).
  void ClearShadow(int i, const Station& st) {
    const isa::Instruction& inst = st.inst();
    if (isa::WritesRd(inst.op)) wmap.ClearWriter(i, inst.rd);
    if (isa::ReadsRs1(inst.op)) wmap.ClearReader(i, inst.rs1);
    if (isa::ReadsRs2(inst.op)) wmap.ClearReader(i, inst.rs2);
    for (datapath::PackedBits* p : StationMasks()) p->Clear(i);
    if (track_distances) distances.Forget(i);
    args_at[static_cast<std::size_t>(i)] = datapath::ResolvedArgs{};
    if (fwd) mem_window[static_cast<std::size_t>(i)] = MemWindowEntry{};
  }

  /// Fast tier: the binding station @p j delivers for register @p r changed.
  /// Only readers between j and the next writer of r resolve against j
  /// (that writer included: a station reading and writing r reads the
  /// previous writer), so only that span goes stale.
  void MarkResultChange(int j, isa::RegId r) {
    const int nw = wmap.NearestWriterAfter(j, static_cast<int>(r), head);
    wmap.OrReadersInCyclicRange(static_cast<int>(r), Wrap(j + 1),
                                nw >= 0 ? Wrap(nw + 1) : head, stale_b);
  }
};

template <typename Net>
class WindowEngine : private Window {
  // DistanceBook keeps Net::Distance incrementally, relying on its form:
  // k - kj from a writer at position kj, k + offset from the committed file.
  static constexpr int kNoWriterOffset = Net::Distance(1, -1) - 1;
  static_assert(Net::Distance(9, 4) == 5 &&
                Net::Distance(0, -1) == kNoWriterOffset &&
                Net::Distance(9, -1) == 9 + kNoWriterOffset);

 public:
  WindowEngine(const CoreConfig& cfg, const isa::Program& program)
      : Window(cfg, Net::Stations(cfg),
               cfg.datapath_eval == DatapathEval::kPacked &&
                   cfg.fault_plan == nullptr && Net::FastTierOk(cfg)),
        net_(cfg, fast),
        program_(program),
        mem_(cfg.mem, n),
        fetch_(&program, cfg, MakePredictor(cfg, program)),
        tel_(cfg),
        injector_(cfg.fault_plan.get()),
        checker_(cfg.checker_stride),
        seq_(n),
        alu_(n),
        checked_(cfg.datapath_eval == DatapathEval::kChecked) {
    mem_.Reset(program.initial_memory());
    if (!packed) {
      for (auto* v : {&no_store_, &no_load_, &branch_ok_, &psd_, &pld_, &pcf_,
                      &alu_req_, &alu_grant_}) {
        v->resize(static_cast<std::size_t>(n));
      }
    }
    if (fast && tel_.metrics_on()) {
      track_distances = true;
      distances.Assign(n, kNoWriterOffset);
    } else if (tel_.metrics_on()) {
      last_writer_.resize(static_cast<std::size_t>(L));
    }
  }

  [[nodiscard]] RunResult Run() {
    CheckpointSession ckpt(config, Net::kKind, program_);
    std::uint64_t start_cycle = 0;
    if (ckpt.resume() != nullptr) {
      Restore(ckpt.resume()->state);
      start_cycle = ckpt.resume()->header.cycle;
    }
    const auto save = [this](persist::Encoder& e) { Save(e); };
    for (cycle = start_cycle; cycle < config.max_cycles && !done_; ++cycle) {
      if (ckpt.MaybeSave(cycle, save)) break;
      if (config.cancel && (cycle & 1023u) == 0 &&
          config.cancel->load(std::memory_order_relaxed)) {
        break;  // Abandoned run: halted stays false.
      }
      result_.cycles = cycle + 1;
      tel_.OnCycle(cycle, count - retired);
      Deliver();
      InjectFaults();
      Prefixes();
      bool batch_retired = false;
      if constexpr (Net::kRetire == RetireRule::kBatch) {
        batch_retired = RetireBatch();
      }
      DrainMemory();
      if (!batch_retired && !done_) {
        Resolve();
        GrantAlus();
        Execute();
        ForceMispredicts();
      }
      if constexpr (Net::kRetire != RetireRule::kBatch) CommitInOrder();
      Fetch();
    }

    result_.regs.resize(static_cast<std::size_t>(L));
    for (int r = 0; r < L; ++r) {
      result_.regs[static_cast<std::size_t>(r)] = net_.reg(r).value;
    }
    result_.memory = mem_.store().Snapshot();
    tel_.FinalizeFaults(result_.stats, injector_, checker_);
    tel_.FinalizeMemory(result_.stats, mem_, fetch_);
    return std::move(result_);
  }

 private:
  // --- Checkpoint: the capture point is the top of the cycle loop. ---

  void Save(persist::Encoder& e) const {
    for (const Station& st : stations) SaveStation(e, st);
    net_.SaveFile(e, *this);
    e.U64(next_seq_);
    SaveInflight(e, inflight_);
    SavePartialResult(e, result_);
    for (const int s : fault_stall) e.I32(s);
    net_.SaveDatapath(e);
    injector_.SaveState(e);
    checker_.SaveState(e);
    fetch_.SaveState(e);
    mem_.SaveState(e);
    SaveTelemetrySlots(e, config);
  }

  void Restore(const std::vector<std::uint8_t>& state) {
    persist::Decoder d(state);
    for (Station& st : stations) RestoreStation(d, st);
    net_.RestoreFile(d, *this);
    next_seq_ = d.U64();
    RestoreInflight(d, inflight_);
    RestorePartialResult(d, result_);
    for (int& s : fault_stall) s = d.I32();
    net_.RestoreDatapath(d);
    injector_.RestoreState(d);
    checker_.RestoreState(d);
    fetch_.RestoreState(d);
    mem_.RestoreState(d);
    RestoreTelemetrySlots(d, config);
    if (!d.AtEnd()) throw persist::FormatError("trailing checkpoint bytes");
    if (!packed) return;
    // Rebuild the derived shadow. Cached operands are a pure function of
    // the stations and the register file, so marking every live station
    // stale makes the first resumed cycle compute exactly the values the
    // uninterrupted run had cached, and record the same distances.
    for (int i = 0; i < n; ++i) {
      const Station& st = stations[static_cast<std::size_t>(i)];
      if (fault_stall[static_cast<std::size_t>(i)] > 0) stall_b.Set(i);
      if (!fast || !st.valid) continue;
      FillShadow(i, st);
      fin_b.SetTo(i, st.finished);
      iss_b.SetTo(i, st.issued);
      res_b.SetTo(i, st.resolved);
      msub_b.SetTo(i, st.mem_submitted);
    }
  }

  // --- Phase 1: operand delivery from end-of-last-cycle state. ---

  void Deliver() {
    if (fast) {
      if (track_distances) {
        DrainStale</*kTally=*/true>();
      } else {
        DrainStale</*kTally=*/false>();
      }
    } else if (packed) {
      ComposeMasks();
    } else {
      for (int i = 0; i < n; ++i) {
        const Station& st = stations[static_cast<std::size_t>(i)];
        const isa::Opcode op = st.valid ? st.inst().op : isa::Opcode::kNop;
        const auto idx = static_cast<std::size_t>(i);
        no_store_[idx] = op != isa::Opcode::kStore || st.finished;
        no_load_[idx] = op != isa::Opcode::kLoad || st.finished;
        branch_ok_[idx] = !isa::IsControlFlow(op) || st.resolved;
      }
    }
    if (!fast) net_.Propagate(static_cast<const Window&>(*this));
    if (tel_.metrics_on()) ObserveDistances();
  }

  /// Fast tier: re-resolves only the stations whose operand source changed
  /// since the last cycle (their own fill, a writer's result, a commit or a
  /// squash): the nearest preceding writer's binding, verbatim, or the
  /// committed file when no station before it writes the register. With
  /// @p kTally that writer also records the operand's propagation
  /// distance; a committed hybrid station (stale only after a restore)
  /// keeps driving the ring but no longer counts.
  template <bool kTally>
  void DrainStale() {
    datapath::ForEachSetBit(stale_b, [&](int i) {
      const Station& st = stations[static_cast<std::size_t>(i)];
      if (!st.valid) return;
      const isa::Instruction& inst = st.inst();
      const bool tally = kTally && (retired == 0 || Position(i) >= retired);
      const auto resolve = [&](isa::RegId r,
                               int operand) -> datapath::RegBinding {
        const int j = wmap.NearestWriterBefore(i, r, head);
        if (tally) distances.Record(i, operand, j);
        return j >= 0 ? stations[static_cast<std::size_t>(j)].result
                      : net_.reg(r);
      };
      datapath::ResolvedArgs args;
      if (isa::ReadsRs1(inst.op)) args.arg1 = resolve(inst.rs1, 0);
      if (isa::ReadsRs2(inst.op)) args.arg2 = resolve(inst.rs2, 1);
      args_at[static_cast<std::size_t>(i)] = args;
      argr_b.SetTo(i, ArgsReady(st, args));
      if (fwd) mw_stale_b.Set(i);
    });
    stale_b.ClearAll();
  }

  /// Adds this cycle's core.propagation_distance observations: the fast
  /// tier's book, or a sweep of the window on the reference tiers.
  [[gnu::noinline]] void ObserveDistances() {
    if (track_distances) {
      tel_.OnDistances(distances.Tally(head, count));
    } else {
      SweepDistances();
    }
  }

  /// Recomposes the flag masks from the stations, one word at a time.
  /// Invalid lanes stay all-zero, which makes every derived condition
  /// vacuous for them.
  void ComposeMasks() {
    std::uint64_t av = 0, af = 0, ai = 0, ar = 0, am = 0, al = 0, as = 0,
                  ac = 0, aa = 0, an = 0;
    for (int i = 0; i < n; ++i) {
      const Station& st = stations[static_cast<std::size_t>(i)];
      if (st.valid) {
        const std::uint64_t bit = 1ULL << (i & 63);
        av |= bit;
        if (st.finished) af |= bit;
        if (st.issued) ai |= bit;
        if (st.resolved) ar |= bit;
        if (st.mem_submitted) am |= bit;
        const isa::Opcode op = st.inst().op;
        if (op == isa::Opcode::kLoad) {
          al |= bit;
        } else if (op == isa::Opcode::kStore) {
          as |= bit;
        } else {
          aa |= bit;
        }
        if (isa::IsControlFlow(op)) ac |= bit;
        if (NeedsAlu(op)) an |= bit;
      }
      if ((i & 63) == 63 || i == n - 1) {
        const int w = i >> 6;
        valid_b.word(w) = av;
        fin_b.word(w) = af;
        iss_b.word(w) = ai;
        res_b.word(w) = ar;
        msub_b.word(w) = am;
        ld_b.word(w) = al;
        stb_b.word(w) = as;
        cf_b.word(w) = ac;
        alu_like_b.word(w) = aa;
        needs_alu_b.word(w) = an;
        av = af = ai = ar = am = al = as = ac = aa = an = 0;
      }
    }
  }

  /// Propagation-distance histogram of the reference tiers, and the
  /// oracle the fast tier's DistanceBook is tested against: for each
  /// operand of an uncommitted station, the positions crossed from its
  /// nearest preceding writer, found by a sweep of the window.
  void SweepDistances() {
    std::fill(last_writer_.begin(), last_writer_.end(), -1);
    CoreHistogram h;
    for (int k = 0; k < count; ++k) {
      const isa::Instruction& inst =
          stations[static_cast<std::size_t>(Slot(k))].inst();
      if (k >= retired) {
        if (isa::ReadsRs1(inst.op)) {
          h.Add(static_cast<std::uint64_t>(
              Net::Distance(k, last_writer_[inst.rs1])));
        }
        if (isa::ReadsRs2(inst.op)) {
          h.Add(static_cast<std::uint64_t>(
              Net::Distance(k, last_writer_[inst.rs2])));
        }
      }
      if (isa::WritesRd(inst.op)) last_writer_[inst.rd] = k;
    }
    tel_.OnDistances(h);
  }

  // --- Phase 1b: fault injection and self-checking, before any station
  // reads its operands this cycle. ---

  void InjectFaults() {
    if (injector_.active()) {
      injector_.BeginCycle(cycle);
      net_.ApplyFaults(injector_);
      tel_.OnFaults(cycle, injector_.pending());
      for (const fault::FaultEvent& e : injector_.pending()) {
        if (e.kind != fault::FaultKind::kStallStation) continue;
        fault_stall[static_cast<std::size_t>(e.station % n)] +=
            static_cast<int>(e.payload % 8) + 1;
        if (packed) stall_b.Set(e.station % n);
        injector_.NoteStall();
      }
    }
    if (checked_ && checker_.Due(cycle, injector_.HasHazardousPending())) {
      checker_.RecordCheck();
      tel_.OnCheckerCheck(cycle);
      // The rebuild is itself the resync, so a detected divergence costs
      // nothing extra to repair.
      const std::uint64_t mismatched = net_.Recheck();
      if (mismatched > 0) {
        checker_.RecordDivergence(cycle, mismatched);
        tel_.OnCheckerResync(cycle, mismatched);
      }
    }
  }

  /// The Figure 5 sequencing prefixes, cyclic from the oldest station. Dead
  /// stations contribute vacuously true conditions, and the oldest sees
  /// true, like the reference's k == 0 override.
  void Prefixes() {
    if (!packed) {
      seq_.AllPrecedingSatisfyInto(no_store_, head, psd_);
      seq_.AllPrecedingSatisfyInto(no_load_, head, pld_);
      seq_.AllPrecedingSatisfyInto(branch_ok_, head, pcf_);
      return;
    }
    const int pw = datapath::PackedWordCount(n);
    const auto prefix = [&](const datapath::PackedBits& kind,
                            const datapath::PackedBits& done,
                            datapath::PackedBits& out) {
      for (int w = 0; w < pw; ++w) {
        cond_b.word(w) = ~(kind.word(w) & ~done.word(w));
      }
      cond_b.word(pw - 1) &= datapath::PackedTailMask(n);
      datapath::PackedAllPrecedingSatisfyInto(cond_b, head, out);
      out.Set(head);
    };
    prefix(stb_b, fin_b, psd_b);
    prefix(ld_b, fin_b, pld_b);
    prefix(cf_b, res_b, pcf_b);
  }

  // --- Batch retirement (Ultrascalar II): once every station has finished
  // and no more instructions are on the way, "the final values are latched
  // into the register file. The stations refill ... and computation
  // resumes." ---

  bool RetireBatch() {
    bool all_finished = true;
    if (packed) {
      for (int w = 0; w < valid_b.num_words(); ++w) {
        if ((valid_b.word(w) & ~fin_b.word(w)) != 0) all_finished = false;
      }
    } else {
      for (int k = 0; k < count; ++k) {
        if (!stations[static_cast<std::size_t>(Slot(k))].finished) {
          all_finished = false;
        }
      }
    }
    if (count == 0 || !all_finished || (count != n && !fetch_.stalled())) {
      return false;
    }
    net_.Latch(static_cast<const Window&>(*this));
    const std::uint64_t committed_before = result_.committed;
    for (int k = 0; k < count && !done_; ++k) {
      const int i = Slot(k);
      Station& st = stations[static_cast<std::size_t>(i)];
      Commit(i, st);
      st.Clear();
      ++st.generation;
    }
    tel_.OnBatchRetire(cycle, result_.committed - committed_before);
    for (Station& st : stations) {  // Instructions fetched past the halt.
      if (!st.valid) continue;
      st.Clear();
      ++st.generation;
    }
    if (fast) {
      // The whole batch left at once: reset the shadow wholesale (stall_b
      // survives; the fast tier excludes fault plans anyway).
      wmap.ClearAllRows();
      for (datapath::PackedBits* p : StationMasks()) p->ClearAll();
      if (track_distances) distances.Reset();
    }
    count = 0;
    retired = 0;
    return true;
  }

  // --- Phase 2: memory responses arriving this cycle. ---

  void DrainMemory() {
    mem_.Tick();
    for (const auto& resp : mem_.DrainCompleted()) {
      const auto it = inflight_.find(resp.id);
      if (it == inflight_.end()) continue;
      const MemTag tag = it->second;
      inflight_.erase(it);
      const int i = static_cast<int>(tag.tag);
      Station& st = stations[static_cast<std::size_t>(i)];
      if (!st.valid || st.generation != tag.generation) continue;
      const bool was_finished = st.finished;
      ApplyMemResponse(st, resp, cycle);
      if (packed) fin_b.Set(i);
      if (fast) {
        // The load's binding just became ready: its readers re-resolve at
        // the next phase-1 drain, exactly when propagation would deliver it.
        if (isa::WritesRd(st.inst().op)) MarkResultChange(i, st.inst().rd);
        if (fwd) mw_stale_b.Set(i);
      }
      tel_.OnMemComplete(cycle, i, st, was_finished);
    }
  }

  // --- Phase 3a: operands, memory window and ALU grant. ---

  void Resolve() {
    if (fast) {
      // Refresh the window entries whose station or operands moved -- after
      // phase 2, so this cycle's memory completions are visible.
      if (fwd) {
        datapath::ForEachSetBit(mw_stale_b, [&](int i) {
          mem_window[static_cast<std::size_t>(i)] = MakeMemWindowEntry(
              stations[static_cast<std::size_t>(i)],
              args_at[static_cast<std::size_t>(i)]);
        });
        mw_stale_b.ClearAll();
      }
      return;
    }
    for (int k = 0; k < count; ++k) {
      const int i = Slot(k);
      const Station& st = stations[static_cast<std::size_t>(i)];
      const datapath::ResolvedArgs args =
          net_.Read(static_cast<const Window&>(*this), k, i, st);
      args_at[static_cast<std::size_t>(i)] = args;
      if (packed) argr_b.SetTo(i, ArgsReady(st, args));
      if (fwd) {
        mem_window[static_cast<std::size_t>(i)] = MakeMemWindowEntry(st, args);
      }
    }
  }

  void GrantAlus() {
    if (config.num_alus <= 0) return;
    int occupied = 0;
    if (packed) {
      for (int w = 0; w < needs_alu_b.num_words(); ++w) {
        occupied += std::popcount(needs_alu_b.word(w) & iss_b.word(w) &
                                  ~fin_b.word(w));
        req_b.word(w) = needs_alu_b.word(w) & ~iss_b.word(w) &
                        ~fin_b.word(w) & argr_b.word(w);
      }
      alu_.PackedGrantInto(req_b, std::max(0, config.num_alus - occupied),
                           head, grant_b);
      return;
    }
    for (int i = 0; i < n; ++i) {
      const Station& st = stations[static_cast<std::size_t>(i)];
      alu_req_[static_cast<std::size_t>(i)] =
          WantsAlu(st, args_at[static_cast<std::size_t>(i)]);
      if (st.valid && st.issued && !st.finished && NeedsAlu(st.inst().op)) {
        ++occupied;
      }
    }
    alu_.GrantInto(alu_req_, std::max(0, config.num_alus - occupied), head,
                   alu_grant_);
  }

  // --- Phase 3b: execute, in program order from the oldest uncommitted
  // station. ---

  void Execute() {
    const int live = count - retired;
    if (!packed) {
      for (int k = retired; k < retired + live; ++k) {
        const int i = Slot(k);
        const auto idx = static_cast<std::size_t>(i);
        if (Net::kStallSkipsFinished && stations[idx].finished) continue;
        if (fault_stall[idx] > 0) {
          --fault_stall[idx];
          continue;  // Injected stall: the station sits out this cycle.
        }
        StepContext ctx;
        ctx.prev_stores_done = k == 0 || psd_[idx] != 0;
        ctx.prev_loads_done = k == 0 || pld_[idx] != 0;
        ctx.committed_ok = k == 0 || pcf_[idx] != 0;
        ctx.alu_granted = config.num_alus == 0 || alu_grant_[idx] != 0;
        if (Step(k, i, ctx)) break;
      }
      return;
    }
    // Visit only stations whose StepStation call would act (the mask mirrors
    // its no-op predicate exactly, so skipping is identical), plus stations
    // serving an injected stall, which decrement their counters in walk
    // order. With store forwarding on, a load's gate is its disambiguation
    // decision rather than the prev-stores-done prefix, so the load term
    // drops psd (an undecidable load is visited and no-ops).
    int pos = Slot(retired);
    int processed = 0;
    while (processed < live) {
      const int w = pos >> 6;
      const int lo = pos & 63;
      const int hi = std::min({64, n - (w << 6), lo + (live - processed)});
      const std::uint64_t grant_ok =
          config.num_alus > 0 ? (grant_b.word(w) | ~needs_alu_b.word(w))
                              : ~0ULL;
      const std::uint64_t load_gate = fwd ? ~0ULL : psd_b.word(w);
      const std::uint64_t stall_gate =
          Net::kStallSkipsFinished ? ~fin_b.word(w) : ~0ULL;
      std::uint64_t cand =
          (valid_b.word(w) & ~fin_b.word(w) &
           ((alu_like_b.word(w) &
             (iss_b.word(w) | (argr_b.word(w) & grant_ok))) |
            (ld_b.word(w) & ~msub_b.word(w) & argr_b.word(w) & load_gate) |
            (stb_b.word(w) & ~msub_b.word(w) & argr_b.word(w) &
             pld_b.word(w) & psd_b.word(w) & pcf_b.word(w)))) |
          (stall_b.word(w) & valid_b.word(w) & stall_gate);
      const int cw = hi - lo;
      cand &= (cw == 64 ? ~0ULL : ((1ULL << cw) - 1)) << lo;
      while (cand != 0) {
        const int i = (w << 6) + std::countr_zero(cand);
        cand &= cand - 1;
        if (stall_b.Test(i)) {
          // Injected stall: the station sits this cycle out.
          if (--fault_stall[static_cast<std::size_t>(i)] == 0) stall_b.Clear(i);
          continue;
        }
        StepContext ctx;
        ctx.prev_stores_done = psd_b.Test(i);
        ctx.prev_loads_done = pld_b.Test(i);
        ctx.committed_ok = pcf_b.Test(i);
        ctx.alu_granted = config.num_alus == 0 || grant_b.Test(i);
        if (Step(Position(i), i, ctx)) return;
      }
      processed += cw;
      pos = (w << 6) + hi;
      if (pos >= n) pos = 0;
    }
  }

  /// Store-to-load forwarding for the load at position @p k (station @p i),
  /// whose address is known: disambiguates it against every older store.
  void Forward(int k, StepContext& ctx) const {
    const LoadForwardDecision decision = ResolveLoadForwardingMapped(
        [&](std::size_t a) -> const MemWindowEntry& {
          return mem_window[static_cast<std::size_t>(
              Slot(static_cast<int>(a)))];
        },
        static_cast<std::size_t>(k));
    ctx.load_can_proceed = decision.can_proceed;
    ctx.load_forward = decision.forward;
    ctx.forward_value = decision.value;
  }

  /// Steps the station at position @p k (station @p i); returns true when
  /// it mispredicted and squashed everything younger. Forced inline: GCC
  /// outlines it (two callers), which measured about 5% slower per cycle on
  /// Ultrascalar II's sweep_plain points.
  [[gnu::always_inline]] bool Step(int k, int i, StepContext ctx) {
    Station& st = stations[static_cast<std::size_t>(i)];
    ctx.forwarding_enabled = fwd;
    if (fwd && st.inst().op == isa::Opcode::kLoad &&
        mem_window[static_cast<std::size_t>(i)].addr_known) {
      Forward(k, ctx);
    }
    const bool was_issued = st.issued;
    const bool was_finished = st.finished;
    const datapath::RegBinding pre_result = st.result;
    const bool mispredicted =
        StepStation(st, args_at[static_cast<std::size_t>(i)], ctx,
                    config.latencies, mem_, cycle, i,
                    static_cast<std::uint64_t>(i), inflight_, result_.stats);
    tel_.OnStep(cycle, i, st, was_issued, was_finished);
    if (fast) {
      iss_b.SetTo(i, st.issued);
      fin_b.SetTo(i, st.finished);
      res_b.SetTo(i, st.resolved);
      msub_b.SetTo(i, st.mem_submitted);
      if (st.result != pre_result && isa::WritesRd(st.inst().op)) {
        MarkResultChange(i, st.inst().rd);
      }
      if (fwd) mw_stale_b.Set(i);
    }
    if (!mispredicted) return false;
    ++result_.stats.mispredictions;
    Squash(k, st.actual_next_pc, /*forced=*/false);
    return true;
  }

  /// One-cycle misprediction recovery: squash every position younger than
  /// @p k and refetch from @p pc.
  void Squash(int k, std::size_t pc, bool forced) {
    for (int m = k + 1; m < count; ++m) {
      const int vi = Slot(m);
      Station& victim = stations[static_cast<std::size_t>(vi)];
      if (!victim.valid) continue;
      ++result_.stats.squashed_instructions;
      if (forced) ++result_.stats.fault.squashes;
      tel_.OnSquash(cycle, vi, victim);
      if (fast) ClearShadow(vi, victim);
      victim.Clear();
      ++victim.generation;
    }
    count = k + 1;
    fetch_.Redirect(pc);
  }

  /// Phase 3c: forced mispredictions (fault injection) through the normal
  /// recovery machinery. A resolved control transfer replays its known
  /// successor, an unresolved one its predicted path (a wrong prediction
  /// then recovers when it resolves), anything else falls through.
  void ForceMispredicts() {
    if (!injector_.active()) return;
    for (const fault::FaultEvent& e : injector_.pending()) {
      if (e.kind != fault::FaultKind::kForceMispredict) continue;
      if (count == retired) {
        injector_.NoteMasked();
        continue;
      }
      const int k = retired + e.station % (count - retired);
      const Station& st = stations[static_cast<std::size_t>(Slot(k))];
      if (!st.valid || st.inst().op == isa::Opcode::kHalt) {
        injector_.NoteMasked();
        continue;
      }
      std::size_t redirect_pc = st.fetched.pc + 1;
      if (isa::IsControlFlow(st.inst().op)) {
        redirect_pc =
            st.resolved ? st.actual_next_pc : st.fetched.predicted_next_pc;
      }
      injector_.NoteForcedMispredict();
      Squash(k, redirect_pc, /*forced=*/true);
    }
  }

  // --- Phase 4: commit in program order. ---

  /// Records the commit of station @p i; returns true on the halt.
  bool Commit(int i, Station& st) {
    st.timing.commit_cycle = cycle;
    if (isa::IsControlFlow(st.inst().op)) {
      fetch_.NotifyOutcome(st.fetched.pc, st.actual_taken);
    }
    result_.timeline.push_back(st.timing);
    ++result_.committed;
    tel_.OnCommit(cycle, i, st);
    if (st.inst().op != isa::Opcode::kHalt) return false;
    done_ = true;
    result_.halted = true;
    return true;
  }

  void CommitInOrder() {
    bool freed = false;
    while (retired < count) {
      const int i = Slot(retired);
      Station& st = stations[static_cast<std::size_t>(i)];
      assert(st.valid && "the oldest slot is never a squash victim");
      if (!st.finished) break;
      if (isa::WritesRd(st.inst().op)) {
        assert(st.result.ready);
        net_.WriteBack(st.inst().rd, st.result, cycle);
        // A station retired at commit stops driving the ring, so the
        // readers it fed now take the committed file. A hybrid station keeps
        // driving until its cluster frees, with the same binding.
        if (Net::kRetire == RetireRule::kStation && fast) {
          MarkResultChange(i, st.inst().rd);
        }
      }
      const bool halt = Commit(i, st);
      // A committed station leaves the distance histogram; the hybrid's
      // stays on the ring until its cluster frees.
      if (track_distances) distances.Forget(i);
      if (++retired == net_.FreeUnit()) {
        Free(retired);
        freed = true;
      }
      if (halt) break;
    }
    // The new oldest station reads the committed file directly, a different
    // source than the ring resolution its cached operands used.
    if (Net::kRetire == RetireRule::kStation && fast && freed && count > 0) {
      stale_b.Set(head);
    }
  }

  /// Frees the @p k oldest stations. A station retired at commit keeps its
  /// generation; a freed cluster's stations advance theirs.
  void Free(int k) {
    for (int s = 0; s < k; ++s) {
      const int i = Slot(s);
      Station& st = stations[static_cast<std::size_t>(i)];
      // A freed cluster's writers stop driving the ring, so the readers
      // they fed now read the committed file: the same binding (it took
      // their results at commit) but a different propagation distance.
      if (Net::kRetire == RetireRule::kCluster && track_distances &&
          isa::WritesRd(st.inst().op)) {
        MarkResultChange(i, st.inst().rd);
      }
      if (fast) ClearShadow(i, st);
      st.Clear();
      if (Net::kRetire != RetireRule::kStation) ++st.generation;
    }
    head = Slot(k);
    count -= k;
    retired -= k;
  }

  // --- Phase 5: fetch into free stations. ---

  void Fetch() {
    if (done_) return;
    const int free = n - count;
    if (free == 0) ++result_.stats.window_full_cycles;
    fetch_.FetchCycle(std::min(config.EffectiveFetchWidth(), free),
                      fetch_batch_);
    if (fetch_batch_.empty() && free > 0 && count > retired &&
        !fetch_.stalled()) {
      ++result_.stats.fetch_stall_cycles;
    }
    for (const FetchedInstr& f : fetch_batch_) {
      const int slot = Slot(count);
      Station& st = stations[static_cast<std::size_t>(slot)];
      FillStation(st, f, next_seq_++, cycle);
      st.timing.station = slot;
      tel_.OnFetch(cycle, slot, st);
      if (fast) FillShadow(slot, st);
      ++count;
    }
    if (fetch_.stalled() && count == retired) {
      done_ = true;  // Ran off the end of the program without a halt.
      result_.halted = true;
    }
  }

  Net net_;
  const isa::Program& program_;
  memory::MemorySystem mem_;
  FetchEngine fetch_;
  CoreTelemetry tel_;
  fault::FaultInjector injector_;
  fault::DatapathChecker checker_;
  datapath::SequencingCspp seq_;
  datapath::AluScheduler alu_;
  const bool checked_;
  InflightMap inflight_;
  RunResult result_;
  std::uint64_t next_seq_ = 0;
  bool done_ = false;
  // Reference-tier scratch: byte-lane flags, prefixes and grants.
  std::vector<std::uint8_t> no_store_, no_load_, branch_ok_, psd_, pld_, pcf_,
      alu_req_, alu_grant_;
  std::vector<int> last_writer_;  // SweepDistances(): position per register.
  std::vector<FetchedInstr> fetch_batch_;
};

}  // namespace ultra::core

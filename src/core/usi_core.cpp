#include "core/usi_core.hpp"

#include "core/window_engine.hpp"
#include "datapath/datapath.hpp"

namespace ultra::core {

namespace {

/// H-tree levels from station @p a to the root of the smallest 4-ary
/// subtree also containing @p b.
int HTreeLevels(int a, int b) {
  int h = 0;
  while (a != b) {
    a /= 4;
    b /= 4;
    ++h;
  }
  return h;
}

/// Cycles for a value to travel from station @p from to station @p to in a
/// datapath latched every @p levels_per_stage levels (0 = single-cycle).
int PipeCycles(int from, int to, int levels_per_stage) {
  if (levels_per_stage <= 0) return 1;
  const int crossing = 2 * HTreeLevels(from, to);  // Up, then down.
  return std::max(1, (crossing + levels_per_stage - 1) / levels_per_stage);
}

/// Ultrascalar I's register network: one CSPP ring of H-trees per logical
/// register, with the committed file in the oldest station. Each commit
/// frees its station, so the ring refills continually.
class UsiNetwork {
 public:
  static constexpr ProcessorKind kKind = ProcessorKind::kUltrascalarI;
  static constexpr RetireRule kRetire = RetireRule::kStation;
  static constexpr bool kStallSkipsFinished = false;
  static int Stations(const CoreConfig& config) { return config.window_size; }
  // Pipelined delivery depends on each value's distance in cycles, which the
  // event-driven tier does not track.
  static bool FastTierOk(const CoreConfig& config) {
    return config.pipeline_levels_per_stage <= 0;
  }

  UsiNetwork(const CoreConfig& config, bool fast)
      : n_(config.window_size),
        L_(config.num_regs),
        levels_per_stage_(config.pipeline_levels_per_stage),
        incremental_(config.datapath_eval != DatapathEval::kFullRecompute),
        maintain_(incremental_ && !fast),
        dp_(n_, L_),
        dp_state_(n_, L_),
        committed_(static_cast<std::size_t>(L_)),
        committed_at_(static_cast<std::size_t>(L_), 0),
        last_writer_(static_cast<std::size_t>(L_)) {
    for (int r = 0; r < L_; ++r) {
      committed_[static_cast<std::size_t>(r)].ready = true;
      dp_state_.SetCommitted(r, committed_[static_cast<std::size_t>(r)]);
    }
    if (!incremental_) {
      outgoing_.resize(static_cast<std::size_t>(n_) * L_);
      modified_.resize(static_cast<std::size_t>(n_) * L_);
    }
    if (config.datapath_eval == DatapathEval::kChecked) {
      check_snapshot_.resize(static_cast<std::size_t>(n_) * L_);
    }
  }

  [[nodiscard]] const datapath::RegBinding& reg(int r) const {
    return committed_[static_cast<std::size_t>(r)];
  }
  [[nodiscard]] int FreeUnit() const { return 1; }

  void SaveFile(persist::Encoder& e, const Window& w) const {
    for (const auto& b : committed_) datapath::Save(e, b);
    for (const std::uint64_t c : committed_at_) e.U64(c);
    e.I32(w.head);
    e.I32(w.count);
  }
  void RestoreFile(persist::Decoder& d, Window& w) {
    for (auto& b : committed_) datapath::Restore(d, b);
    for (std::uint64_t& c : committed_at_) c = d.U64();
    w.head = d.I32();
    w.count = d.I32();
  }
  void SaveDatapath(persist::Encoder& e) const { dp_state_.SaveState(e); }
  void RestoreDatapath(persist::Decoder& d) { dp_state_.RestoreState(d); }

  void Propagate(const Window& w) {
    if (incremental_) {
      // Diff the window into the persistent state; commits already pushed
      // their register updates.
      dp_state_.SetOldest(w.head);
      for (int i = 0; i < n_; ++i) {
        const Station& st = w.stations[static_cast<std::size_t>(i)];
        const bool writes = st.valid && isa::WritesRd(st.inst().op);
        dp_state_.SetStationWrite(i, writes, writes ? st.inst().rd : 0,
                                  st.result);
      }
      dp_.PropagateIncremental(dp_state_);
      return;
    }
    std::fill(modified_.begin(), modified_.end(), 0);
    for (auto& b : outgoing_) b = datapath::RegBinding{};
    for (int r = 0; r < L_; ++r) {
      outgoing_[static_cast<std::size_t>(w.head) * L_ + r] =
          committed_[static_cast<std::size_t>(r)];
    }
    for (int i = 0; i < n_; ++i) {
      const Station& st = w.stations[static_cast<std::size_t>(i)];
      if (st.valid && isa::WritesRd(st.inst().op)) {
        const std::size_t idx = static_cast<std::size_t>(i) * L_ + st.inst().rd;
        outgoing_[idx] = st.result;
        modified_[idx] = 1;
      }
    }
    incoming_ = dp_.Propagate(outgoing_, modified_, w.head);
  }

  void ApplyFaults(fault::FaultInjector& injector) {
    injector.ApplyDatapathFaults(dp_state_);
  }

  /// Snapshots the (possibly corrupted) delivery buffer, rebuilds it from
  /// the inputs and counts the cells that differ.
  std::uint64_t Recheck() {
    for (int r = 0; r < L_; ++r) {
      for (int i = 0; i < n_; ++i) {
        check_snapshot_[static_cast<std::size_t>(r) * n_ + i] =
            dp_state_.incoming(i, r);
      }
    }
    dp_state_.MarkAllDirty();
    dp_.PropagateIncremental(dp_state_);
    std::uint64_t mismatched = 0;
    for (int r = 0; r < L_; ++r) {
      for (int i = 0; i < n_; ++i) {
        if (check_snapshot_[static_cast<std::size_t>(r) * n_ + i] !=
            dp_state_.incoming(i, r)) {
          ++mismatched;
        }
      }
    }
    return mismatched;
  }

  /// Operands of the station at position @p k: the oldest reads the
  /// committed file; the rest read the ring, or with a pipelined datapath
  /// the nearest preceding writer once its value has crossed the tree.
  datapath::ResolvedArgs Read(const Window& w, int k, int i,
                              const Station& st) {
    const bool pipelined = levels_per_stage_ > 0;
    if (pipelined && k == 0) {
      std::fill(last_writer_.begin(), last_writer_.end(), -1);
    }
    const auto read = [&](isa::RegId r) -> datapath::RegBinding {
      if (k == 0) return committed_[r];
      if (!pipelined) {
        return incremental_ ? dp_state_.incoming(i, r)
                            : incoming_[static_cast<std::size_t>(i) * L_ + r];
      }
      const int j = last_writer_[r];
      if (j >= 0) {
        const Station& src = w.stations[static_cast<std::size_t>(j)];
        if (!src.finished) return {src.result.value, false};
        const int lat = PipeCycles(j, i, levels_per_stage_);
        if (w.cycle >=
            src.timing.complete_cycle + static_cast<std::uint64_t>(lat)) {
          return src.result;
        }
        return {src.result.value, false};  // Still in flight on the tree.
      }
      // The committed file lives in the oldest station, so its value still
      // crosses the tree from there.
      const int lat = PipeCycles(w.head, i, levels_per_stage_);
      if (w.cycle >= committed_at_[r] + static_cast<std::uint64_t>(lat)) {
        return committed_[r];
      }
      return {committed_[r].value, false};
    };
    const isa::Instruction& inst = st.inst();
    datapath::ResolvedArgs args;
    if (isa::ReadsRs1(inst.op)) args.arg1 = read(inst.rs1);
    if (isa::ReadsRs2(inst.op)) args.arg2 = read(inst.rs2);
    if (pipelined && isa::WritesRd(inst.op)) last_writer_[inst.rd] = i;
    return args;
  }

  /// Ring distance from the value's source: the nearest preceding writer,
  /// or the committed file in the oldest station.
  static constexpr int Distance(int k, int kj) {
    if (k == 0) return 0;
    return kj >= 0 ? k - kj : k;
  }

  void WriteBack(isa::RegId r, const datapath::RegBinding& b,
                 std::uint64_t cycle) {
    committed_[r] = b;
    committed_at_[r] = cycle;
    if (maintain_) dp_state_.SetCommitted(r, b);
  }

 private:
  int n_;
  int L_;
  int levels_per_stage_;
  bool incremental_;
  bool maintain_;  // The incremental delivery state tracks commits.
  datapath::UltrascalarIDatapath dp_;
  datapath::UsiDatapathState dp_state_;
  std::vector<datapath::RegBinding> committed_;
  // Cycle at which each committed register last changed (pipelined reads).
  std::vector<std::uint64_t> committed_at_;
  std::vector<int> last_writer_;  // Pipelined reads: station per register.
  // Full-recompute buffers and the checked-mode snapshot.
  std::vector<datapath::RegBinding> outgoing_;
  std::vector<std::uint8_t> modified_;
  std::vector<datapath::RegBinding> incoming_;
  std::vector<datapath::RegBinding> check_snapshot_;
};

}  // namespace

RunResult UltrascalarICore::Run(const isa::Program& program) {
  return WindowEngine<UsiNetwork>(config_, program).Run();
}

}  // namespace ultra::core

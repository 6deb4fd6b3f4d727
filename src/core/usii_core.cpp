#include "core/usii_core.hpp"

#include "core/window_engine.hpp"
#include "datapath/datapath.hpp"

namespace ultra::core {

namespace {

datapath::StationRequest MakeRequest(const Station& st) {
  datapath::StationRequest req;
  if (!st.valid) return req;
  const isa::Instruction& inst = st.inst();
  req.reads1 = isa::ReadsRs1(inst.op);
  req.arg1 = inst.rs1;
  req.reads2 = isa::ReadsRs2(inst.op);
  req.arg2 = inst.rs2;
  req.writes = isa::WritesRd(inst.op);
  req.dest = inst.rd;
  req.result = st.result;
  return req;
}

/// Ultrascalar II's register network: each station requests only the
/// registers it reads, matched to the nearest preceding writer through the
/// mesh-of-trees against the edge register file. A batch machine: the ring's
/// head stays at station 0 and the whole batch latches at once.
class UsiiNetwork {
 public:
  static constexpr ProcessorKind kKind = ProcessorKind::kUltrascalarII;
  static constexpr RetireRule kRetire = RetireRule::kBatch;
  static constexpr bool kStallSkipsFinished = false;
  static int Stations(const CoreConfig& config) { return config.window_size; }
  static bool FastTierOk(const CoreConfig&) { return true; }

  UsiiNetwork(const CoreConfig& config, bool /*fast*/)
      : incremental_(config.datapath_eval != DatapathEval::kFullRecompute),
        dp_(config.window_size, config.num_regs),
        regfile_(static_cast<std::size_t>(config.num_regs)),
        requests_(static_cast<std::size_t>(config.window_size)) {
    for (auto& b : regfile_) b.ready = true;
  }

  [[nodiscard]] const datapath::RegBinding& reg(int r) const {
    return regfile_[static_cast<std::size_t>(r)];
  }

  void SaveFile(persist::Encoder& e, const Window& w) const {
    for (const auto& b : regfile_) datapath::Save(e, b);
    e.I32(w.count);
  }
  void RestoreFile(persist::Decoder& d, Window& w) {
    for (auto& b : regfile_) datapath::Restore(d, b);
    w.count = d.I32();
  }
  // The memoized propagation is reused across cycles when valid, so it is
  // machine state, not scratch: a live fault corruption can sit in `prop_`
  // until the inputs next change.
  void SaveDatapath(persist::Encoder& e) const {
    for (const auto& req : requests_) datapath::Save(e, req);
    e.Bool(prop_valid_);
    e.Bool(regfile_changed_);
    e.U32(static_cast<std::uint32_t>(prop_.args.size()));
    for (const auto& a : prop_.args) datapath::Save(e, a);
    e.U32(static_cast<std::uint32_t>(prop_.final_regs.size()));
    for (const auto& b : prop_.final_regs) datapath::Save(e, b);
  }
  void RestoreDatapath(persist::Decoder& d) {
    for (auto& req : requests_) datapath::Restore(d, req);
    prop_valid_ = d.Bool();
    regfile_changed_ = d.Bool();
    prop_.args.resize(d.U32());
    for (auto& a : prop_.args) datapath::Restore(d, a);
    prop_.final_regs.resize(d.U32());
    for (auto& b : prop_.final_regs) datapath::Restore(d, b);
  }

  void Propagate(const Window& w) {
    bool requests_changed = false;
    for (int i = 0; i < w.n; ++i) {
      const datapath::StationRequest req =
          MakeRequest(w.stations[static_cast<std::size_t>(i)]);
      if (req != requests_[static_cast<std::size_t>(i)]) {
        requests_[static_cast<std::size_t>(i)] = req;
        requests_changed = true;
      }
    }
    if (!incremental_) {
      prop_ = dp_.Propagate(regfile_, requests_);
      return;
    }
    // The propagation is a pure function of (regfile, requests): skip it
    // while neither moved (common while stations wait on long operations).
    if (!prop_valid_ || requests_changed || regfile_changed_) {
      dp_.PropagateInto(regfile_, requests_, prop_);
      prop_valid_ = true;
      regfile_changed_ = false;
    }
  }

  void ApplyFaults(fault::FaultInjector& injector) {
    injector.ApplyDatapathFaults(prop_);
  }

  /// Recomputes the propagation from the (uncorruptible) inputs and diffs it
  /// against the live one; on divergence adopts the recomputed truth.
  std::uint64_t Recheck() {
    dp_.PropagateInto(regfile_, requests_, check_prop_);
    std::uint64_t mismatched = 0;
    for (std::size_t i = 0; i < prop_.args.size(); ++i) {
      if (prop_.args[i].arg1 != check_prop_.args[i].arg1) ++mismatched;
      if (prop_.args[i].arg2 != check_prop_.args[i].arg2) ++mismatched;
    }
    for (std::size_t r = 0; r < prop_.final_regs.size(); ++r) {
      if (prop_.final_regs[r] != check_prop_.final_regs[r]) ++mismatched;
    }
    if (mismatched > 0) {
      std::swap(prop_.args, check_prop_.args);
      std::swap(prop_.final_regs, check_prop_.final_regs);
      prop_valid_ = true;
    }
    return mismatched;
  }

  datapath::ResolvedArgs Read(const Window&, int, int i, const Station&) {
    return prop_.args[static_cast<std::size_t>(i)];
  }

  /// Grid rows crossed from the nearest preceding writer, or from the
  /// register file one row above the batch.
  static constexpr int Distance(int k, int kj) {
    return kj >= 0 ? k - kj : k + 1;
  }

  /// Latches each register's final value: its last in-batch writer's result,
  /// or the incoming file value when nothing in the batch writes it.
  void Latch(const Window& w) {
    for (int r = 0; r < w.L; ++r) {
      if (!w.fast) {
        assert(prop_.final_regs[static_cast<std::size_t>(r)].ready);
        regfile_[static_cast<std::size_t>(r)] =
            prop_.final_regs[static_cast<std::size_t>(r)];
        continue;
      }
      const int j = w.wmap.HighestWriter(r);  // The head is station 0.
      if (j < 0) continue;
      assert(w.stations[static_cast<std::size_t>(j)].result.ready);
      regfile_[static_cast<std::size_t>(r)] =
          w.stations[static_cast<std::size_t>(j)].result;
    }
    regfile_changed_ = true;
  }

 private:
  bool incremental_;
  datapath::UltrascalarIIDatapath dp_;
  std::vector<datapath::RegBinding> regfile_;
  std::vector<datapath::StationRequest> requests_;
  datapath::UsiiPropagation prop_;
  bool prop_valid_ = false;  // prop_ matches the current (regfile, requests).
  bool regfile_changed_ = true;
  datapath::UsiiPropagation check_prop_;  // Checked-mode recompute target.
};

}  // namespace

RunResult UltrascalarIICore::Run(const isa::Program& program) {
  return WindowEngine<UsiiNetwork>(config_, program).Run();
}

}  // namespace ultra::core

#include "core/hybrid_core.hpp"

#include "core/window_engine.hpp"
#include "datapath/datapath.hpp"

namespace ultra::core {

namespace {

/// The hybrid's register network: clusters of C stations route operands
/// through an Ultrascalar II grid, and register values travel between
/// clusters on the Ultrascalar I CSPP ring, with the committed file at the
/// oldest cluster. Clusters are "super execution stations": committed
/// stations keep driving the ring until their whole cluster frees, and the
/// ring's head then advances by C.
class HybridNetwork {
 public:
  static constexpr ProcessorKind kKind = ProcessorKind::kHybrid;
  static constexpr RetireRule kRetire = RetireRule::kCluster;
  static constexpr bool kStallSkipsFinished = true;
  /// The window rounds down to whole clusters.
  static int Stations(const CoreConfig& config) {
    return std::max(1, config.window_size / config.cluster_size) *
           config.cluster_size;
  }
  static bool FastTierOk(const CoreConfig&) { return true; }

  HybridNetwork(const CoreConfig& config, bool fast)
      : C_(config.cluster_size),
        incremental_(config.datapath_eval != DatapathEval::kFullRecompute),
        maintain_(incremental_ && !fast),
        dp_(Stations(config), config.num_regs, C_),
        dp_state_(Stations(config), config.num_regs, C_),
        committed_(static_cast<std::size_t>(config.num_regs)),
        requests_(static_cast<std::size_t>(Stations(config))) {
    for (int r = 0; r < config.num_regs; ++r) {
      committed_[static_cast<std::size_t>(r)].ready = true;
      dp_state_.SetCommitted(r, committed_[static_cast<std::size_t>(r)]);
    }
    if (config.datapath_eval == DatapathEval::kChecked) {
      check_args_.resize(requests_.size());
    }
  }

  [[nodiscard]] const datapath::RegBinding& reg(int r) const {
    return committed_[static_cast<std::size_t>(r)];
  }
  [[nodiscard]] int FreeUnit() const { return C_; }

  void SaveFile(persist::Encoder& e, const Window& w) const {
    for (const auto& b : committed_) datapath::Save(e, b);
    e.I32(w.head / C_);  // The oldest cluster.
    e.I32(w.count);
    e.I32(w.retired);
  }
  void RestoreFile(persist::Decoder& d, Window& w) {
    for (auto& b : committed_) datapath::Restore(d, b);
    w.head = d.I32() * C_;
    w.count = d.I32();
    w.retired = d.I32();
  }
  void SaveDatapath(persist::Encoder& e) const { dp_state_.SaveState(e); }
  void RestoreDatapath(persist::Decoder& d) { dp_state_.RestoreState(d); }

  void Propagate(const Window& w) {
    for (int i = 0; i < w.n; ++i) {
      const Station& st = w.stations[static_cast<std::size_t>(i)];
      datapath::StationRequest& req = requests_[static_cast<std::size_t>(i)];
      req = datapath::StationRequest{};
      if (!st.valid) continue;
      const isa::Instruction& inst = st.inst();
      req.reads1 = isa::ReadsRs1(inst.op);
      req.arg1 = inst.rs1;
      req.reads2 = isa::ReadsRs2(inst.op);
      req.arg2 = inst.rs2;
      req.writes = isa::WritesRd(inst.op);
      req.dest = inst.rd;
      req.result = st.result;
    }
    if (!incremental_) {
      prop_ = dp_.Propagate(committed_, requests_, w.head / C_);
      return;
    }
    dp_state_.SetOldestCluster(w.head / C_);
    for (int i = 0; i < w.n; ++i) {
      dp_state_.SetStation(i, requests_[static_cast<std::size_t>(i)]);
    }
    dp_.PropagateIncremental(dp_state_);
  }

  void ApplyFaults(fault::FaultInjector& injector) {
    injector.ApplyDatapathFaults(dp_state_);
  }

  /// Snapshots the (possibly corrupted) argument buffer, rebuilds it from
  /// the inputs and counts the operands that differ.
  std::uint64_t Recheck() {
    const int n = static_cast<int>(check_args_.size());
    for (int i = 0; i < n; ++i) {
      check_args_[static_cast<std::size_t>(i)] = dp_state_.args(i);
    }
    dp_state_.MarkAllDirty();
    dp_.PropagateIncremental(dp_state_);
    std::uint64_t mismatched = 0;
    for (int i = 0; i < n; ++i) {
      const datapath::ResolvedArgs& truth = dp_state_.args(i);
      const datapath::ResolvedArgs& seen =
          check_args_[static_cast<std::size_t>(i)];
      if (seen.arg1 != truth.arg1) ++mismatched;
      if (seen.arg2 != truth.arg2) ++mismatched;
    }
    return mismatched;
  }

  datapath::ResolvedArgs Read(const Window&, int, int i, const Station&) {
    return incremental_ ? dp_state_.args(i)
                        : prop_.args[static_cast<std::size_t>(i)];
  }

  /// Positions crossed from the nearest preceding writer (committed stations
  /// still drive the ring), or from the committed file at the head cluster.
  static constexpr int Distance(int k, int kj) {
    return kj >= 0 ? k - kj : k + 1;
  }

  void WriteBack(isa::RegId r, const datapath::RegBinding& b,
                 std::uint64_t /*cycle*/) {
    committed_[r] = b;
    if (maintain_) dp_state_.SetCommitted(r, b);
  }

 private:
  int C_;
  bool incremental_;
  bool maintain_;  // The incremental delivery state tracks commits.
  datapath::HybridDatapath dp_;
  datapath::HybridDatapathState dp_state_;
  std::vector<datapath::RegBinding> committed_;
  std::vector<datapath::StationRequest> requests_;
  datapath::HybridPropagation prop_;  // Full-recompute tier only.
  std::vector<datapath::ResolvedArgs> check_args_;
};

}  // namespace

RunResult HybridCore::Run(const isa::Program& program) {
  return WindowEngine<HybridNetwork>(config_, program).Run();
}

}  // namespace ultra::core

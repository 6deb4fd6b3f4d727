// Differential tests for the bit-packed word-parallel datapath evaluation
// (CoreConfig::datapath_eval = kPacked): on every core kind the packed
// path must reproduce the full-recompute reference and the incremental
// path byte for byte — the complete RunResult, timeline included — across
// window sizes that exercise partial words, shared ALUs, real memory
// models, speculation, and squashes. Packed mode is fallback-free: fault
// plans, store forwarding, telemetry, and pipelined datapaths all run
// inside the packed cycle loops (RunStats::fallback_count must stay 0)
// and still match byte for byte. Checkpoint round-trips under packed
// evaluation must resume cycle-for-cycle identically. See docs/runtime.md,
// "Bit-packed evaluation".
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/core.hpp"
#include "fault/fault_plan.hpp"
#include "runtime/ensemble.hpp"
#include "runtime/runtime.hpp"
#include "workloads/workloads.hpp"

namespace ultra {
namespace {

using core::CoreConfig;
using core::DatapathEval;
using core::ProcessorKind;
using core::RunResult;

constexpr ProcessorKind kAllKinds[] = {
    ProcessorKind::kIdeal, ProcessorKind::kUltrascalarI,
    ProcessorKind::kUltrascalarII, ProcessorKind::kHybrid};

void ExpectSameRun(const RunResult& a, const RunResult& b) {
  ASSERT_EQ(a.halted, b.halted);
  ASSERT_EQ(a.cycles, b.cycles);
  ASSERT_EQ(a.committed, b.committed);
  ASSERT_EQ(a.regs, b.regs);
  ASSERT_EQ(a.memory, b.memory);
  ASSERT_EQ(a.stats.mispredictions, b.stats.mispredictions);
  ASSERT_EQ(a.stats.forwarded_loads, b.stats.forwarded_loads);
  ASSERT_EQ(a.stats.squashed_instructions, b.stats.squashed_instructions);
  ASSERT_EQ(a.stats.load_count, b.stats.load_count);
  ASSERT_EQ(a.stats.store_count, b.stats.store_count);
  ASSERT_EQ(a.stats.fetch_stall_cycles, b.stats.fetch_stall_cycles);
  ASSERT_EQ(a.stats.window_full_cycles, b.stats.window_full_cycles);
  ASSERT_EQ(a.stats.fault.injected, b.stats.fault.injected);
  ASSERT_EQ(a.stats.fault.squashes, b.stats.fault.squashes);
  ASSERT_EQ(a.timeline.size(), b.timeline.size());
  for (std::size_t t = 0; t < a.timeline.size(); ++t) {
    ASSERT_EQ(a.timeline[t].seq, b.timeline[t].seq) << "t=" << t;
    ASSERT_EQ(a.timeline[t].station, b.timeline[t].station) << "t=" << t;
    ASSERT_EQ(a.timeline[t].pc, b.timeline[t].pc) << "t=" << t;
    ASSERT_EQ(a.timeline[t].fetch_cycle, b.timeline[t].fetch_cycle)
        << "t=" << t;
    ASSERT_EQ(a.timeline[t].issue_cycle, b.timeline[t].issue_cycle)
        << "t=" << t;
    ASSERT_EQ(a.timeline[t].complete_cycle, b.timeline[t].complete_cycle)
        << "t=" << t;
    ASSERT_EQ(a.timeline[t].commit_cycle, b.timeline[t].commit_cycle)
        << "t=" << t;
  }
}

/// Runs @p cfg under all three evaluation paths on every core kind and
/// requires byte-identical results.
void ExpectAllEvalPathsAgree(const isa::Program& program, CoreConfig cfg) {
  for (const auto kind : kAllKinds) {
    SCOPED_TRACE(core::ProcessorKindName(kind));
    cfg.datapath_eval = DatapathEval::kFullRecompute;
    const RunResult full = core::MakeProcessor(kind, cfg)->Run(program);
    cfg.datapath_eval = DatapathEval::kIncremental;
    const RunResult incr = core::MakeProcessor(kind, cfg)->Run(program);
    cfg.datapath_eval = DatapathEval::kPacked;
    const RunResult packed = core::MakeProcessor(kind, cfg)->Run(program);
    {
      SCOPED_TRACE("incremental vs full");
      ExpectSameRun(incr, full);
    }
    {
      SCOPED_TRACE("packed vs incremental");
      ExpectSameRun(packed, incr);
    }
  }
}

// Window sizes straddling the 64-lane word boundary: sub-word, exact
// words, and partial tail words.
class PackedEvalWindows : public testing::TestWithParam<int> {};

TEST_P(PackedEvalWindows, ChainsAgreeOnAllCores) {
  CoreConfig cfg;
  cfg.window_size = GetParam();
  cfg.cluster_size = GetParam() < 8 ? GetParam() : 8;
  cfg.mem.mode = memory::MemTimingMode::kMagic;
  ExpectAllEvalPathsAgree(
      workloads::DependencyChains({.num_instructions = 600, .ilp = 4}), cfg);
}

TEST_P(PackedEvalWindows, MemoryMixAgreesOnAllCores) {
  CoreConfig cfg;
  cfg.window_size = GetParam();
  cfg.cluster_size = GetParam() < 8 ? GetParam() : 8;
  cfg.mem.mode = memory::MemTimingMode::kFatTree;
  ExpectAllEvalPathsAgree(
      workloads::RandomMix({.num_instructions = 500, .load_fraction = 0.3,
                            .store_fraction = 0.2, .memory_words = 64,
                            .seed = 11}),
      cfg);
}

INSTANTIATE_TEST_SUITE_P(Sizes, PackedEvalWindows,
                         testing::Values(7, 63, 64, 65, 100, 128, 200),
                         [](const auto& info) {
                           return "n" + std::to_string(info.param);
                         });

TEST(PackedEval, SpeculationWithSharedAlusAndPredictors) {
  const auto program = workloads::RandomForwardDag(
      {.num_blocks = 80, .block_size = 6, .seed = 5});
  for (const auto predictor :
       {core::PredictorKind::kNotTaken, core::PredictorKind::kTwoBit}) {
    SCOPED_TRACE(static_cast<int>(predictor));
    CoreConfig cfg;
    cfg.window_size = 96;
    cfg.num_alus = 3;
    cfg.predictor = predictor;
    cfg.fetch_mode = core::FetchMode::kBasicBlock;
    cfg.mem.mode = memory::MemTimingMode::kMagic;
    ExpectAllEvalPathsAgree(program, cfg);
  }
}

TEST(PackedEval, KernelsAgreeOnAllCores) {
  CoreConfig cfg;
  cfg.window_size = 72;
  cfg.mem.mode = memory::MemTimingMode::kButterfly;
  ExpectAllEvalPathsAgree(workloads::BubbleSort(9), cfg);
  ExpectAllEvalPathsAgree(workloads::DotProduct(40), cfg);
}

// Configurations that used to route around the packed loops now run
// inside them — fallback-free, still byte-identical, with the fallback
// counter pinned at zero. Fault injection is the interesting one — the
// injected events, self-checking resyncs, and fault squashes must all
// still happen under the word-parallel walk.
TEST(PackedEvalFallbackFree, FaultInjectionRunsPackedUnchanged) {
  const auto program = workloads::DependencyChains(
      {.num_instructions = 400, .ilp = 3});
  for (const auto kind : kAllKinds) {
    SCOPED_TRACE(core::ProcessorKindName(kind));
    CoreConfig cfg;
    cfg.window_size = 80;
    cfg.mem.mode = memory::MemTimingMode::kMagic;
    cfg.fault_plan = std::make_shared<const fault::FaultPlan>(
        fault::FaultPlan::Random(21, 0.05, 300));
    cfg.datapath_eval = DatapathEval::kIncremental;
    const RunResult incr = core::MakeProcessor(kind, cfg)->Run(program);
    cfg.datapath_eval = DatapathEval::kPacked;
    const RunResult packed = core::MakeProcessor(kind, cfg)->Run(program);
    ExpectSameRun(packed, incr);
    // The Ideal core models no delivery hardware to corrupt; only the
    // scalable cores take injections.
    if (kind != ProcessorKind::kIdeal) {
      EXPECT_GT(packed.stats.fault.injected, 0u);
    }
    EXPECT_EQ(packed.stats.fallback_count, 0u);
  }
}

TEST(PackedEvalFallbackFree, StoreForwardingRunsPackedUnchanged) {
  const auto program = workloads::RandomMix(
      {.num_instructions = 400, .load_fraction = 0.3, .store_fraction = 0.25,
       .memory_words = 32, .seed = 3});
  for (const auto kind : kAllKinds) {
    SCOPED_TRACE(core::ProcessorKindName(kind));
    CoreConfig cfg;
    cfg.window_size = 80;
    cfg.store_forwarding = true;
    cfg.mem.mode = memory::MemTimingMode::kBandwidthLimited;
    cfg.datapath_eval = DatapathEval::kIncremental;
    const RunResult incr = core::MakeProcessor(kind, cfg)->Run(program);
    cfg.datapath_eval = DatapathEval::kPacked;
    const RunResult packed = core::MakeProcessor(kind, cfg)->Run(program);
    ExpectSameRun(packed, incr);
    EXPECT_GT(packed.stats.forwarded_loads, 0u);
    EXPECT_EQ(packed.stats.fallback_count, 0u);
  }
}

// Pipelined register delivery is an Ultrascalar I feature; packed mode
// must model the staged delivery rather than routing around it.
TEST(PackedEvalFallbackFree, PipelinedDatapathRunsPackedUnchanged) {
  const auto program = workloads::DependencyChains(
      {.num_instructions = 400, .ilp = 3});
  CoreConfig cfg;
  cfg.window_size = 80;
  cfg.pipeline_levels_per_stage = 2;
  cfg.mem.mode = memory::MemTimingMode::kMagic;
  cfg.datapath_eval = DatapathEval::kIncremental;
  const RunResult incr =
      core::MakeProcessor(ProcessorKind::kUltrascalarI, cfg)->Run(program);
  cfg.datapath_eval = DatapathEval::kPacked;
  const RunResult packed =
      core::MakeProcessor(ProcessorKind::kUltrascalarI, cfg)->Run(program);
  ExpectSameRun(packed, incr);
  EXPECT_EQ(packed.stats.fallback_count, 0u);
}

// Checkpoint/restore under packed evaluation: save mid-run, restore, and
// require the resumed run to be indistinguishable from the uninterrupted
// packed run — which itself must match the incremental run.
TEST(PackedEvalCheckpoint, RoundTripsMatchUninterruptedRun) {
  const auto program = workloads::RandomForwardDag(
      {.num_blocks = 60, .block_size = 6, .seed = 9});
  for (const auto kind : kAllKinds) {
    SCOPED_TRACE(core::ProcessorKindName(kind));
    CoreConfig cfg;
    cfg.window_size = 96;
    cfg.predictor = core::PredictorKind::kTwoBit;
    cfg.mem.mode = memory::MemTimingMode::kMagic;
    cfg.datapath_eval = DatapathEval::kIncremental;
    const RunResult incr = core::MakeProcessor(kind, cfg)->Run(program);
    cfg.datapath_eval = DatapathEval::kPacked;
    const auto proc = core::MakeProcessor(kind, cfg);
    const RunResult packed = proc->Run(program);
    ExpectSameRun(packed, incr);
    ASSERT_TRUE(packed.halted);
    ASSERT_GT(packed.cycles, 2u);
    for (const std::uint64_t cycle :
         {std::uint64_t{1}, packed.cycles / 2, packed.cycles - 1}) {
      SCOPED_TRACE("checkpoint at cycle " + std::to_string(cycle));
      const persist::Checkpoint ckpt = proc->SaveCheckpoint(program, cycle);
      const RunResult resumed = proc->RestoreCheckpoint(program, ckpt);
      ExpectSameRun(resumed, packed);
    }
  }
}

// The hard case for fallback-free packed mode: a checkpoint taken while a
// fault plan has corruption live in the delivery buffers must restore into
// the packed loop and reproduce the faulted trajectory (divergences,
// resyncs, squashes) cycle for cycle — with zero fallbacks.
TEST(PackedEvalCheckpoint, RoundTripsUnderLiveFaultPlan) {
  const auto program = workloads::RandomMix({.num_instructions = 512});
  for (const auto kind : kAllKinds) {
    if (kind == ProcessorKind::kIdeal) continue;  // No fault injection.
    SCOPED_TRACE(core::ProcessorKindName(kind));
    CoreConfig cfg;
    cfg.window_size = 16;
    cfg.cluster_size = 4;
    cfg.mem.mode = memory::MemTimingMode::kMagic;
    cfg.datapath_eval = DatapathEval::kPacked;
    cfg.fault_plan = std::make_shared<const fault::FaultPlan>(
        fault::FaultPlan::Random(7, 0.02, 50'000));
    const auto proc = core::MakeProcessor(kind, cfg);
    const RunResult packed = proc->Run(program);
    ASSERT_TRUE(packed.halted);
    EXPECT_GT(packed.stats.fault.injected, 0u);
    EXPECT_EQ(packed.stats.fallback_count, 0u);
    for (const std::uint64_t cycle : {packed.cycles / 4, packed.cycles / 2,
                                      (3 * packed.cycles) / 4}) {
      if (cycle == 0 || cycle >= packed.cycles) continue;
      SCOPED_TRACE("checkpoint at cycle " + std::to_string(cycle));
      const persist::Checkpoint ckpt = proc->SaveCheckpoint(program, cycle);
      const RunResult resumed = proc->RestoreCheckpoint(program, ckpt);
      ExpectSameRun(resumed, packed);
      EXPECT_EQ(resumed.stats.fallback_count, 0u);
    }
  }
}

// --- Ensemble batching ------------------------------------------------------

TEST(EnsembleSchedule, GroupsByProgramContentAndElectsLockstepLeaders) {
  const auto prog_a = std::make_shared<isa::Program>(
      workloads::DependencyChains({.num_instructions = 100, .ilp = 2}));
  // Structurally identical to prog_a but a distinct object: must share a
  // group (content keying, like the functional-sim cache).
  const auto prog_a_clone = std::make_shared<isa::Program>(
      workloads::DependencyChains({.num_instructions = 100, .ilp = 2}));
  const auto prog_b = std::make_shared<isa::Program>(
      workloads::RandomMix({.num_instructions = 80, .seed = 2}));

  std::vector<runtime::SweepPoint> points(5);
  points[0].program = prog_a;
  points[1].program = prog_b;
  points[2].program = prog_a_clone;  // Same content as 0 -> same group.
  points[2].config.window_size = points[0].config.window_size;
  points[3].program = prog_a;
  points[3].config.num_regs = points[0].config.num_regs + 8;  // New group.
  points[4].program = prog_b;
  points[4].kind = ProcessorKind::kHybrid;  // Same group, not a follower.

  const auto groups = runtime::GroupByProgram(points);
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0].members, (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(groups[1].members, (std::vector<std::size_t>{1, 4}));
  EXPECT_EQ(groups[2].members, (std::vector<std::size_t>{3}));

  const auto schedule =
      runtime::BuildEnsembleSchedule(points, /*check_architectural_state=*/false);
  // Point 2 is interchangeable with point 0 (identical kind and config,
  // same program content): it follows 0. Everyone else leads themselves.
  EXPECT_EQ(schedule.leader[0], 0u);
  EXPECT_EQ(schedule.leader[1], 1u);
  EXPECT_EQ(schedule.leader[2], 0u);
  EXPECT_EQ(schedule.leader[3], 3u);
  EXPECT_EQ(schedule.leader[4], 4u);
  EXPECT_EQ(schedule.run_order,
            (std::vector<std::size_t>{0, 1, 4, 3}));  // Groups adjacent.
  // No oracle consumer -> nothing to warm.
  EXPECT_TRUE(schedule.warm_groups.empty());

  const auto warmed =
      runtime::BuildEnsembleSchedule(points, /*check_architectural_state=*/true);
  ASSERT_EQ(warmed.warm_groups.size(), 3u);
}

TEST(EnsembleSchedule, DifferentConfigsNeverFollow) {
  const auto prog = std::make_shared<isa::Program>(
      workloads::DependencyChains({.num_instructions = 100, .ilp = 2}));
  std::vector<runtime::SweepPoint> points(2);
  points[0].program = prog;
  points[1].program = prog;
  points[1].config.window_size = points[0].config.window_size * 2;
  const auto schedule = runtime::BuildEnsembleSchedule(points, false);
  EXPECT_EQ(schedule.leader[1], 1u);
  EXPECT_EQ(schedule.run_order.size(), 2u);
}

TEST(EnsembleSchedule, OrderLongestFirstIsWidestFirstAndStable) {
  const auto prog_a = std::make_shared<isa::Program>(
      workloads::DependencyChains({.num_instructions = 100, .ilp = 2}));
  const auto prog_b = std::make_shared<isa::Program>(
      workloads::RandomMix({.num_instructions = 80, .seed = 2}));
  // Submitted with windows ascending, as the paper's sweeps are.
  std::vector<runtime::SweepPoint> points;
  for (const int window : {16, 64, 256}) {
    for (const auto& prog : {prog_a, prog_b}) {
      for (int repeat = 0; repeat < 2; ++repeat) {  // Repeat 1 follows.
        runtime::SweepPoint p;
        p.program = prog;
        p.config.window_size = window;
        points.push_back(std::move(p));
      }
    }
  }
  const auto schedule = runtime::BuildEnsembleSchedule(points, false);
  ASSERT_EQ(schedule.run_order,
            (std::vector<std::size_t>{0, 4, 8, 2, 6, 10}));

  const auto order = runtime::OrderLongestFirst(points, schedule.run_order);
  // Widest first; within a window class the schedule's order (prog_a's
  // group, then prog_b's) is kept; followers 1, 3, 5, ... never appear.
  EXPECT_EQ(order, (std::vector<std::size_t>{8, 10, 4, 6, 0, 2}));
  EXPECT_EQ(runtime::OrderLongestFirst(points, schedule.run_order), order);

  // Every index of a tie keeps its relative order, whatever that order is.
  EXPECT_EQ(runtime::OrderLongestFirst(points, {7, 5, 11, 9, 3}),
            (std::vector<std::size_t>{11, 9, 7, 5, 3}));
  EXPECT_TRUE(runtime::OrderLongestFirst(points, {}).empty());

  // Long runs of ties, past the size where a sort falls back to insertion
  // sort (which is stable by accident).
  std::vector<runtime::SweepPoint> many(96);
  std::vector<std::size_t> all(many.size()), wide, narrow;
  for (std::size_t i = 0; i < many.size(); ++i) {
    many[i].config.window_size = i % 3 == 0 ? 128 : 32;
    all[i] = many.size() - 1 - i;  // Descending indices: not the identity.
  }
  for (const std::size_t i : all) {
    (many[i].config.window_size == 128 ? wide : narrow).push_back(i);
  }
  wide.insert(wide.end(), narrow.begin(), narrow.end());
  EXPECT_EQ(runtime::OrderLongestFirst(many, all), wide);
}

/// A sweep mixing repeated (interchangeable) points, distinct configs, and
/// distinct programs must export identical outcomes with batching on and
/// off, at one thread and several.
TEST(EnsembleBatching, SweepOutcomesAreIdenticalBatchedAndUnbatched) {
  const auto prog_a = std::make_shared<isa::Program>(
      workloads::DependencyChains({.num_instructions = 300, .ilp = 3}));
  const auto prog_b = std::make_shared<isa::Program>(workloads::RandomMix(
      {.num_instructions = 250, .load_fraction = 0.25, .store_fraction = 0.15,
       .memory_words = 32, .seed = 17}));

  std::vector<runtime::SweepPoint> points;
  for (const auto kind : kAllKinds) {
    for (const auto& prog : {prog_a, prog_b}) {
      for (int repeat = 0; repeat < 2; ++repeat) {  // Lockstep followers.
        runtime::SweepPoint p;
        p.kind = kind;
        p.config.window_size = 48;
        p.config.mem.mode = memory::MemTimingMode::kMagic;
        p.program = prog;
        p.workload = std::string("w") + std::to_string(points.size());
        points.push_back(std::move(p));
      }
      runtime::SweepPoint odd;  // A distinct config: must really run.
      odd.kind = kind;
      odd.config.window_size = 72;
      odd.config.mem.mode = memory::MemTimingMode::kMagic;
      odd.program = prog;
      odd.workload = std::string("w") + std::to_string(points.size());
      points.push_back(std::move(odd));
    }
  }

  const auto run = [&](bool batching, int threads) {
    runtime::SweepOptions options;
    options.num_threads = threads;
    options.check_architectural_state = true;
    options.collect_metrics = true;
    options.ensemble_batching = batching;
    return runtime::SweepRunner(options).RunWithReport(points);
  };
  const auto baseline = run(false, 1);
  for (const auto& o : baseline.outcomes) {
    ASSERT_TRUE(o.ok) << o.index << ": " << o.error;
  }
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    const auto batched = run(true, threads);
    ASSERT_EQ(batched.outcomes.size(), baseline.outcomes.size());
    for (std::size_t i = 0; i < baseline.outcomes.size(); ++i) {
      SCOPED_TRACE(i);
      const auto& a = baseline.outcomes[i];
      const auto& b = batched.outcomes[i];
      ASSERT_TRUE(b.ok) << b.error;
      ASSERT_EQ(b.index, a.index);
      ASSERT_EQ(b.kind, a.kind);
      ASSERT_EQ(b.workload, a.workload);
      ExpectSameRun(b.result, a.result);
      ASSERT_EQ(b.metrics.metrics, a.metrics.metrics);
    }
    const auto* followers =
        batched.runner_metrics.Find("sweep.ensemble_followers");
    ASSERT_NE(followers, nullptr);
    // One leader per (kind, program) pair of the repeated block: the other
    // repeat follows.
    EXPECT_EQ(followers->value, 8u);
  }
}

TEST(EnsembleBatching, FollowersAdoptFailuresOnlyFromDeterministicLeaders) {
  // A leader that fails deterministically (null program) must not be
  // copied onto followers -- null programs are never grouped, so both
  // points fail on their own and report their own error.
  std::vector<runtime::SweepPoint> points(2);
  points[0].workload = "null-a";
  points[1].workload = "null-b";
  runtime::SweepOptions options;
  options.num_threads = 1;
  const auto outcomes = runtime::SweepRunner(options).Run(points);
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_FALSE(outcomes[0].ok);
  EXPECT_FALSE(outcomes[1].ok);
  EXPECT_EQ(outcomes[0].error, outcomes[1].error);
}

}  // namespace
}  // namespace ultra

// Tests for the telemetry subsystem: registry/handle semantics, histogram
// bucket edges, the trace ring, shard-merge determinism, sweep integration
// (per-point snapshots, byte-identical exports at any thread count), the
// golden Perfetto export, and the Figure 3 issue-schedule acceptance check.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/core.hpp"
#include "core/telemetry_hooks.hpp"
#include "runtime/runtime.hpp"
#include "telemetry/telemetry.hpp"
#include "workloads/workloads.hpp"

namespace ultra {
namespace {

using telemetry::MetricKind;
using telemetry::MetricsRegistry;
using telemetry::MetricSheet;
using telemetry::PipelineTracer;
using telemetry::TraceEvent;
using telemetry::TraceEventKind;

// --- MetricsRegistry / MetricSheet ---------------------------------------

TEST(MetricsRegistry, RegistrationIsIdempotentByName) {
  MetricsRegistry reg;
  const auto a = reg.Counter("sim.widgets");
  const auto b = reg.Counter("sim.widgets");
  EXPECT_EQ(a.slot, b.slot);
  EXPECT_EQ(reg.metrics().size(), 1u);

  const std::uint64_t bounds[] = {1, 2, 4};
  const auto h1 = reg.Histogram("sim.latency", bounds);
  const auto h2 = reg.Histogram("sim.latency", bounds);
  EXPECT_EQ(h1.slot, h2.slot);
  EXPECT_EQ(reg.metrics().size(), 2u);
}

TEST(MetricsRegistry, KindMismatchThrows) {
  MetricsRegistry reg;
  reg.Counter("x");
  EXPECT_THROW(reg.Gauge("x"), std::invalid_argument);
  const std::uint64_t bounds[] = {1, 2};
  EXPECT_THROW(reg.Histogram("x", bounds), std::invalid_argument);
  reg.Histogram("h", bounds);
  const std::uint64_t other[] = {1, 3};
  EXPECT_THROW(reg.Histogram("h", other), std::invalid_argument);
  const std::uint64_t not_increasing[] = {4, 2};
  EXPECT_THROW(reg.Histogram("bad", not_increasing), std::invalid_argument);
  EXPECT_THROW(reg.Histogram("empty", {}), std::invalid_argument);
}

TEST(MetricSheet, UnboundSheetAndInvalidHandleAreNoops) {
  MetricSheet sheet;  // Never bound.
  sheet.Add(telemetry::CounterId{}, 7);
  sheet.Observe(telemetry::HistogramId{}, 7);
  EXPECT_FALSE(sheet.enabled());
  EXPECT_TRUE(sheet.Snapshot().empty());

  MetricsRegistry reg;
  const auto c = reg.Counter("c");
  sheet.Bind(&reg);
  sheet.Add(telemetry::CounterId{}, 7);  // Unregistered handle: still no-op.
  EXPECT_EQ(sheet.Value(c), 0u);
  sheet.Add(c, 3);
  EXPECT_EQ(sheet.Value(c), 3u);
}

TEST(MetricSheet, HistogramBucketEdgesAreInclusiveUpperBounds) {
  MetricsRegistry reg;
  const std::uint64_t bounds[] = {0, 10, 20};
  const auto h = reg.Histogram("h", bounds);
  MetricSheet sheet(&reg);
  // Bucket i counts v <= bounds[i] (first match); beyond the last bound is
  // the overflow bucket.
  sheet.Observe(h, 0);   // bucket 0
  sheet.Observe(h, 1);   // bucket 1
  sheet.Observe(h, 10);  // bucket 1
  sheet.Observe(h, 11);  // bucket 2
  sheet.Observe(h, 20);  // bucket 2
  sheet.Observe(h, 21);  // overflow
  const auto snap = sheet.Snapshot();
  ASSERT_EQ(snap.metrics.size(), 1u);
  const auto& m = snap.metrics[0];
  EXPECT_EQ(m.kind, MetricKind::kHistogram);
  ASSERT_EQ(m.buckets.size(), 4u);
  EXPECT_EQ(m.buckets[0], 1u);
  EXPECT_EQ(m.buckets[1], 2u);
  EXPECT_EQ(m.buckets[2], 2u);
  EXPECT_EQ(m.buckets[3], 1u);
  EXPECT_EQ(m.count, 6u);
  EXPECT_EQ(m.sum, 0u + 1 + 10 + 11 + 20 + 21);
}

// The core's O(1) bucket picker and the bulk add must bin every value the
// way Observe's linear scan does, on both sides of every bound.
TEST(MetricSheet, ObserveBinnedMatchesObserveAtEveryCoreBucketEdge) {
  MetricsRegistry reg;
  const auto h = reg.Histogram("h", core::kCoreHistogramBounds);
  MetricSheet one_by_one(&reg);
  MetricSheet binned(&reg);
  core::CoreHistogram local;
  std::vector<std::uint64_t> values = {0, 1, 2, 3, 1u << 20};
  for (const std::uint64_t b : core::kCoreHistogramBounds) {
    if (b > 0) values.push_back(b - 1);
    values.push_back(b);
    values.push_back(b + 1);
  }
  for (const std::uint64_t v : values) {
    one_by_one.Observe(h, v);
    local.Add(v);
    MetricSheet single(&reg);
    single.Observe(h, v);
    const auto snap = single.Snapshot();
    EXPECT_EQ(snap.metrics[0].buckets[static_cast<std::size_t>(
                  core::CoreHistogramBucket(v))],
              1u)
        << "v = " << v;
  }
  binned.ObserveBinned(h, local.buckets, local.sum);
  EXPECT_EQ(binned.Snapshot(), one_by_one.Snapshot());
  EXPECT_EQ(binned.Snapshot().metrics[0].count, values.size());

  // Removing what was added leaves an empty batch, which adds nothing.
  for (const std::uint64_t v : values) local.Remove(v);
  binned.ObserveBinned(h, local.buckets, local.sum);
  EXPECT_EQ(binned.Snapshot(), one_by_one.Snapshot());

  MetricSheet unbound;
  unbound.ObserveBinned(h, local.buckets, local.sum);  // A no-op.
  EXPECT_TRUE(unbound.Snapshot().empty());
}

TEST(MetricSheet, MergeSumsCountersAndHistogramsMaxesGauges) {
  MetricsRegistry reg;
  const auto c = reg.Counter("c");
  const auto g = reg.Gauge("g");
  const std::uint64_t bounds[] = {5};
  const auto h = reg.Histogram("h", bounds);

  MetricSheet a(&reg), b(&reg);
  a.Add(c, 2);
  b.Add(c, 3);
  a.SetMax(g, 10);
  b.SetMax(g, 7);
  a.Observe(h, 1);
  b.Observe(h, 9);

  MetricSheet total(&reg);
  total.MergeFrom(a);
  total.MergeFrom(b);
  const auto snap = total.Snapshot();
  EXPECT_EQ(snap.Find("c")->value, 5u);
  EXPECT_EQ(snap.Find("g")->value, 10u);
  EXPECT_EQ(snap.Find("h")->count, 2u);
  EXPECT_EQ(snap.Find("h")->sum, 10u);
  EXPECT_EQ(snap.Find("h")->buckets[0], 1u);
  EXPECT_EQ(snap.Find("h")->buckets[1], 1u);
}

TEST(MetricSheet, ShardMergeIsDeterministicAcrossMergeGrouping) {
  // Merging {a, b, c} one by one or via an intermediate must give the same
  // snapshot -- the property SweepRunner relies on when it folds per-point
  // shards in submission order.
  MetricsRegistry reg;
  const auto c = reg.Counter("c");
  const auto g = reg.Gauge("g");
  MetricSheet s1(&reg), s2(&reg), s3(&reg);
  s1.Add(c, 1);
  s2.Add(c, 10);
  s3.Add(c, 100);
  s1.SetMax(g, 5);
  s2.SetMax(g, 50);
  s3.SetMax(g, 25);

  MetricSheet flat(&reg);
  flat.MergeFrom(s1);
  flat.MergeFrom(s2);
  flat.MergeFrom(s3);

  MetricSheet nested(&reg), inner(&reg);
  inner.MergeFrom(s2);
  inner.MergeFrom(s3);
  nested.MergeFrom(s1);
  nested.MergeFrom(inner);

  EXPECT_EQ(flat.Snapshot(), nested.Snapshot());
}

// --- PipelineTracer ------------------------------------------------------

TraceEvent MakeEvent(TraceEventKind kind, std::uint64_t cycle,
                     std::int32_t station, std::uint64_t seq) {
  TraceEvent e;
  e.kind = kind;
  e.cycle = cycle;
  e.station = station;
  e.seq = seq;
  return e;
}

TEST(PipelineTracer, RingWrapsOverwritingOldest) {
  PipelineTracer tracer({.capacity = 4});
  for (std::uint64_t i = 0; i < 10; ++i) {
    tracer.Record(MakeEvent(TraceEventKind::kFetch, i, 0, i));
  }
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.dropped(), 6u);
  EXPECT_EQ(tracer.filtered(), 0u);
  const auto events = tracer.Events();
  ASSERT_EQ(events.size(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].cycle, 6 + i);  // Oldest -> newest, latest four.
  }
  tracer.Clear();
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(PipelineTracer, CycleAndStationFiltersReject) {
  PipelineTracer tracer({.capacity = 16,
                         .cycle_begin = 10,
                         .cycle_end = 20,
                         .station_begin = 2,
                         .station_end = 4});
  tracer.Record(MakeEvent(TraceEventKind::kFetch, 9, 2, 0));    // Cycle low.
  tracer.Record(MakeEvent(TraceEventKind::kFetch, 20, 2, 0));   // Cycle high.
  tracer.Record(MakeEvent(TraceEventKind::kFetch, 15, 1, 0));   // Station low.
  tracer.Record(MakeEvent(TraceEventKind::kFetch, 15, 4, 0));   // Station high.
  tracer.Record(MakeEvent(TraceEventKind::kFetch, 15, 3, 0));   // Accepted.
  tracer.Record(MakeEvent(TraceEventKind::kCheckerCheck, 15, -1, 0));  // Core.
  EXPECT_EQ(tracer.size(), 2u);
  EXPECT_EQ(tracer.filtered(), 4u);
}

TEST(CollectInstrSpans, PairsEventsIntoLifetimes) {
  // Events arrive in cycle order, as a core emits them.
  std::vector<TraceEvent> events;
  events.push_back(MakeEvent(TraceEventKind::kFetch, 0, 1, 7));
  events.push_back(MakeEvent(TraceEventKind::kFetch, 1, 2, 8));
  events.push_back(MakeEvent(TraceEventKind::kIssue, 2, 1, 7));
  events.push_back(MakeEvent(TraceEventKind::kFetch, 2, 3, 9));  // In flight.
  events.push_back(MakeEvent(TraceEventKind::kSquash, 3, 2, 8));
  events.push_back(MakeEvent(TraceEventKind::kComplete, 4, 1, 7));
  events.push_back(MakeEvent(TraceEventKind::kCommit, 5, 1, 7));
  const auto spans = telemetry::CollectInstrSpans(events);
  ASSERT_EQ(spans.size(), 3u);
  // Terminated spans first, in terminating-event order.
  EXPECT_EQ(spans[0].seq, 8u);
  EXPECT_TRUE(spans[0].squashed);
  EXPECT_EQ(spans[0].end_cycle, 3u);
  EXPECT_EQ(spans[1].seq, 7u);
  EXPECT_TRUE(spans[1].retired);
  EXPECT_TRUE(spans[1].issued);
  EXPECT_EQ(spans[1].issue_cycle, 2u);
  EXPECT_EQ(spans[1].complete_cycle, 4u);
  EXPECT_EQ(spans[1].end_cycle, 5u);
  // Unterminated spans appended afterwards.
  EXPECT_EQ(spans[2].seq, 9u);
  EXPECT_FALSE(spans[2].retired);
  EXPECT_FALSE(spans[2].squashed);
}

// --- Perfetto export -----------------------------------------------------

TEST(Perfetto, GoldenExportOfHandBuiltEvents) {
  std::vector<TraceEvent> events;
  TraceEvent fetch = MakeEvent(TraceEventKind::kFetch, 0, 2, 5);
  fetch.pc = 3;
  fetch.op = 7;
  events.push_back(fetch);
  events.push_back(MakeEvent(TraceEventKind::kIssue, 1, 2, 5));
  events.push_back(MakeEvent(TraceEventKind::kComplete, 2, 2, 5));
  events.push_back(MakeEvent(TraceEventKind::kCommit, 3, 2, 5));
  TraceEvent resync = MakeEvent(TraceEventKind::kCheckerResync, 2, -1, 0);
  resync.payload = 4;
  events.push_back(resync);

  std::ostringstream os;
  telemetry::WritePerfettoTrace(os, events, {.process_name = "golden"});
  const std::string expected =
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
      "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\","
      "\"args\":{\"name\":\"golden\"}},\n"
      "{\"ph\":\"M\",\"pid\":1,\"tid\":2,\"name\":\"thread_name\","
      "\"args\":{\"name\":\"station 2\"}},\n"
      "{\"ph\":\"M\",\"pid\":1,\"tid\":1000000,\"name\":\"thread_name\","
      "\"args\":{\"name\":\"core\"}},\n"
      "{\"ph\":\"X\",\"pid\":1,\"tid\":2,\"ts\":0,\"dur\":4,"
      "\"name\":\"op7 seq=5\",\"cat\":\"instruction\","
      "\"args\":{\"seq\":5,\"pc\":3,\"issue\":1,\"complete\":2,\"end\":3}},\n"
      "{\"ph\":\"X\",\"pid\":1,\"tid\":2,\"ts\":1,\"dur\":2,"
      "\"name\":\"exec\",\"cat\":\"exec\",\"args\":{\"seq\":5}},\n"
      "{\"ph\":\"i\",\"pid\":1,\"tid\":1000000,\"ts\":2,\"s\":\"t\","
      "\"name\":\"checker_resync\",\"args\":{\"payload\":4}}\n"
      "]}\n";
  EXPECT_EQ(os.str(), expected);
}

// --- Core integration ----------------------------------------------------

TEST(CoreTelemetry, MetricsSnapshotCoversAllCores) {
  const auto program = workloads::DependencyChains(
      {.num_instructions = 128, .ilp = 4, .use_long_ops = true});
  for (const auto kind :
       {core::ProcessorKind::kIdeal, core::ProcessorKind::kUltrascalarI,
        core::ProcessorKind::kUltrascalarII, core::ProcessorKind::kHybrid}) {
    telemetry::RunTelemetry telem;
    core::CoreConfig cfg;
    cfg.window_size = 16;
    cfg.cluster_size = 4;
    cfg.mem.mode = memory::MemTimingMode::kMagic;
    cfg.telemetry = &telem;
    const auto result = core::MakeProcessor(kind, cfg)->Run(program);
    ASSERT_TRUE(result.halted);
    const auto snap = telem.Snapshot();
    SCOPED_TRACE(std::string(core::ProcessorKindName(kind)));
    const auto* occ = snap.Find("core.window_occupancy");
    ASSERT_NE(occ, nullptr);
    EXPECT_EQ(occ->count, result.cycles);
    const auto* lat = snap.Find("core.issue_to_commit_cycles");
    ASSERT_NE(lat, nullptr);
    EXPECT_EQ(lat->count, result.committed);
    EXPECT_GE(lat->sum, result.committed);  // Every commit is >= 1 cycle
                                            // after issue... except halt.
    ASSERT_NE(snap.Find("fault.injected"), nullptr);
    EXPECT_EQ(snap.Find("fault.injected")->value, 0u);
    if (kind != core::ProcessorKind::kIdeal) {
      const auto* dist = snap.Find("core.propagation_distance");
      ASSERT_NE(dist, nullptr);
      EXPECT_GT(dist->count, 0u);
    }
  }
}

TEST(CoreTelemetry, TraceAndTimelineAgreeOnCommits) {
  const auto program = workloads::Fibonacci(8);
  PipelineTracer tracer({.capacity = std::size_t{1} << 16});
  telemetry::RunTelemetry telem;
  telem.tracer = &tracer;
  telem.metrics_enabled = false;
  core::CoreConfig cfg;
  cfg.window_size = 16;
  cfg.mem.mode = memory::MemTimingMode::kMagic;
  cfg.telemetry = &telem;
  const auto result =
      core::MakeProcessor(core::ProcessorKind::kUltrascalarI, cfg)
          ->Run(program);
  ASSERT_TRUE(result.halted);

  std::vector<telemetry::InstrSpan> retired;
  for (const auto& sp : telemetry::CollectInstrSpans(tracer.Events())) {
    if (sp.retired) retired.push_back(sp);
  }
  ASSERT_EQ(retired.size(), result.timeline.size());
  for (std::size_t i = 0; i < retired.size(); ++i) {
    EXPECT_EQ(retired[i].seq, result.timeline[i].seq);
    EXPECT_EQ(retired[i].station, result.timeline[i].station);
    EXPECT_EQ(retired[i].fetch_cycle, result.timeline[i].fetch_cycle);
    EXPECT_EQ(retired[i].issue_cycle, result.timeline[i].issue_cycle);
    EXPECT_EQ(retired[i].end_cycle, result.timeline[i].commit_cycle);
  }
}

TEST(CoreTelemetry, Figure3IssueScheduleMatchesThePaper) {
  // Acceptance check from the paper's Figure 3: on a large-window
  // Ultrascalar I, the example program's issue cycles relative to the first
  // issue are {0, 10, 0, 11, 0, 3, 0, 1} (div = 10 cycles, mul = 3,
  // add = 1).
  const auto program = workloads::Figure3Example();
  PipelineTracer tracer;
  telemetry::RunTelemetry telem;
  telem.tracer = &tracer;
  core::CoreConfig cfg;
  cfg.window_size = 64;
  cfg.predictor = core::PredictorKind::kBtfn;
  cfg.mem.mode = memory::MemTimingMode::kMagic;
  cfg.telemetry = &telem;
  const auto result =
      core::MakeProcessor(core::ProcessorKind::kUltrascalarI, cfg)
          ->Run(program);
  ASSERT_TRUE(result.halted);

  std::vector<telemetry::InstrSpan> retired;
  for (const auto& sp : telemetry::CollectInstrSpans(tracer.Events())) {
    if (sp.retired) retired.push_back(sp);
  }
  const std::vector<std::uint64_t> expected = {0, 10, 0, 11, 0, 3, 0, 1};
  ASSERT_GE(retired.size(), expected.size());
  const std::uint64_t base = retired[0].issue_cycle;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_TRUE(retired[i].issued);
    EXPECT_EQ(retired[i].issue_cycle - base, expected[i])
        << "instruction " << i;
  }
}

// Packed evaluation folds the telemetry hooks into the word-parallel walk
// instead of falling back to the incremental loop; the full metric sheet
// (every counter, gauge, and histogram bucket) must come out identical to
// the incremental and full-recompute runs' on the paper's Figure 3
// schedule.
TEST(CoreTelemetry, PackedMetricSheetMatchesIncrementalOnFigure3) {
  const auto program = workloads::Figure3Example();
  const auto run = [&](core::ProcessorKind kind, core::DatapathEval eval) {
    telemetry::RunTelemetry telem;
    core::CoreConfig cfg;
    cfg.window_size = 64;
    cfg.predictor = core::PredictorKind::kBtfn;
    cfg.mem.mode = memory::MemTimingMode::kMagic;
    cfg.datapath_eval = eval;
    cfg.telemetry = &telem;
    const auto result = core::MakeProcessor(kind, cfg)->Run(program);
    EXPECT_TRUE(result.halted);
    EXPECT_EQ(result.stats.fallback_count, 0u);
    return telem.Snapshot();
  };
  for (const auto kind :
       {core::ProcessorKind::kIdeal, core::ProcessorKind::kUltrascalarI,
        core::ProcessorKind::kUltrascalarII, core::ProcessorKind::kHybrid}) {
    SCOPED_TRACE(std::string(core::ProcessorKindName(kind)));
    const auto incr = run(kind, core::DatapathEval::kIncremental);
    const auto packed = run(kind, core::DatapathEval::kPacked);
    EXPECT_EQ(packed, incr);
    EXPECT_EQ(run(kind, core::DatapathEval::kFullRecompute), incr);
  }
}

// The fast packed tier keeps core.propagation_distance from its stale-set
// re-resolutions instead of sweeping the window every cycle; the reference
// tiers keep the sweep. The whole sheet must agree across the three tiers
// on squash-heavy, memory, dependency-chain and icache-bound programs, at
// every window size and at both cluster sizes of the hybrid.
struct TierCore {
  const char* name;
  core::ProcessorKind kind;
  int cluster_size;
};

void PrintTo(const TierCore& c, std::ostream* os) { *os << c.name; }

constexpr TierCore kTierCores[] = {
    {"USI", core::ProcessorKind::kUltrascalarI, 8},
    {"USII", core::ProcessorKind::kUltrascalarII, 8},
    {"Hybrid4", core::ProcessorKind::kHybrid, 4},
    {"Hybrid16", core::ProcessorKind::kHybrid, 16},
};

struct TierWorkload {
  const char* name;
};

// Prints the name, not the pointer, so the ctest names stay fixed.
void PrintTo(const TierWorkload& w, std::ostream* os) { *os << w.name; }

constexpr TierWorkload kTierWorkloads[] = {
    {"BranchStorm"}, {"RandomMix"}, {"DependencyChains"}, {"CodeFootprint"}};

isa::Program TierProgram(std::string_view name) {
  if (name == "BranchStorm") return workloads::BranchStorm(120);
  if (name == "RandomMix") {
    return workloads::RandomMix({.num_instructions = 2000, .seed = 5});
  }
  if (name == "DependencyChains") {
    return workloads::DependencyChains(
        {.num_instructions = 2000, .ilp = 3, .use_long_ops = true, .seed = 4});
  }
  return workloads::CodeFootprint({.body_instructions = 160, .iterations = 4});
}

core::CoreConfig TierConfig(const TierCore& c, int window,
                            std::string_view program) {
  core::CoreConfig cfg;
  cfg.window_size = window;
  cfg.cluster_size = std::min(c.cluster_size, window);  // C <= n.
  cfg.mem.mode = memory::MemTimingMode::kMagic;
  if (program == "CodeFootprint") {
    cfg.mem.hierarchy.l1i = {.enabled = true, .sets = 4, .ways = 2,
                             .block_bytes = 32, .hit_latency = 1,
                             .miss_latency = 6};
  }
  return cfg;
}

class MetricSheetTiers
    : public testing::TestWithParam<std::tuple<TierCore, int, TierWorkload>> {
};

TEST_P(MetricSheetTiers, AgreeAcrossEvalTiers) {
  const auto [c, window, workload] = GetParam();
  const std::string_view name = workload.name;
  const isa::Program program = TierProgram(name);
  const auto run = [&](core::DatapathEval eval) {
    telemetry::RunTelemetry telem;
    core::CoreConfig cfg = TierConfig(c, window, name);
    cfg.datapath_eval = eval;
    cfg.telemetry = &telem;
    const auto result = core::MakeProcessor(c.kind, cfg)->Run(program);
    EXPECT_TRUE(result.halted);
    return telem.Snapshot();
  };
  const auto packed = run(core::DatapathEval::kPacked);
  const auto* dist = packed.Find("core.propagation_distance");
  ASSERT_NE(dist, nullptr);
  EXPECT_GT(dist->count, 0u);
  EXPECT_EQ(packed, run(core::DatapathEval::kIncremental));
  EXPECT_EQ(packed, run(core::DatapathEval::kFullRecompute));
}

INSTANTIATE_TEST_SUITE_P(
    Battery, MetricSheetTiers,
    testing::Combine(testing::ValuesIn(kTierCores),
                     testing::Values(8, 64, 256, 1024),
                     testing::ValuesIn(kTierWorkloads)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param).name) + "_n" +
             std::to_string(std::get<1>(info.param)) + "_" +
             std::get<2>(info.param).name;
    });

// The fast tier rebuilds its distance bookkeeping from the stations on
// resume (nothing of it is checkpointed); a run resumed mid-way must end
// with the sheet of the uninterrupted run.
TEST(CoreTelemetry, PackedMetricSheetSurvivesMidRunCheckpoint) {
  for (const TierCore& c : kTierCores) {
    for (const char* name : {"BranchStorm", "RandomMix"}) {
      SCOPED_TRACE(std::string(c.name) + " " + name);
      const isa::Program program = TierProgram(name);
      core::CoreConfig cfg = TierConfig(c, 64, name);
      cfg.datapath_eval = core::DatapathEval::kPacked;

      telemetry::RunTelemetry whole;
      cfg.telemetry = &whole;
      const auto proc = core::MakeProcessor(c.kind, cfg);
      const auto base = proc->Run(program);
      ASSERT_TRUE(base.halted);

      telemetry::RunTelemetry first_half;
      cfg.telemetry = &first_half;
      const auto ckpt = core::MakeProcessor(c.kind, cfg)->SaveCheckpoint(
          program, base.cycles / 2);
      telemetry::RunTelemetry second_half;
      cfg.telemetry = &second_half;
      const auto resumed =
          core::MakeProcessor(c.kind, cfg)->RestoreCheckpoint(program, ckpt);
      EXPECT_EQ(resumed.cycles, base.cycles);
      EXPECT_EQ(second_half.Snapshot(), whole.Snapshot());
    }
  }
}

// --- Sweep integration ---------------------------------------------------

std::vector<runtime::SweepPoint> MetricsGrid() {
  const auto fib =
      std::make_shared<const isa::Program>(workloads::Fibonacci(10));
  std::vector<runtime::SweepPoint> points;
  for (const auto kind :
       {core::ProcessorKind::kIdeal, core::ProcessorKind::kUltrascalarI,
        core::ProcessorKind::kUltrascalarII, core::ProcessorKind::kHybrid}) {
    for (const int window : {8, 32}) {
      runtime::SweepPoint p;
      p.kind = kind;
      p.config.window_size = window;
      p.config.cluster_size = 4;
      p.config.mem.mode = memory::MemTimingMode::kMagic;
      p.program = fib;
      p.workload = "fib(10)";
      points.push_back(std::move(p));
    }
  }
  return points;
}

TEST(SweepTelemetry, SnapshotsAndExportsAreIdenticalAtAnyThreadCount) {
  const auto points = MetricsGrid();
  const auto one =
      runtime::SweepRunner({.num_threads = 1, .collect_metrics = true})
          .Run(points);
  const auto eight =
      runtime::SweepRunner({.num_threads = 8, .collect_metrics = true})
          .Run(points);
  ASSERT_EQ(one.size(), eight.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    ASSERT_TRUE(one[i].ok) << one[i].error;
    EXPECT_FALSE(one[i].metrics.empty());
    EXPECT_EQ(one[i].metrics, eight[i].metrics) << "point " << i;
  }
  std::ostringstream csv1, csv8, json1, json8;
  runtime::WriteCsv(csv1, one);
  runtime::WriteCsv(csv8, eight);
  runtime::WriteJson(json1, one);
  runtime::WriteJson(json8, eight);
  EXPECT_EQ(csv1.str(), csv8.str());
  EXPECT_EQ(json1.str(), json8.str());
  // The metric sections actually made it into the artifacts.
  EXPECT_NE(csv1.str().find("# metrics index=0"), std::string::npos);
  EXPECT_NE(csv1.str().find("core.window_occupancy"), std::string::npos);
  EXPECT_NE(json1.str().find("\"metrics\": ["), std::string::npos);
  EXPECT_NE(json1.str().find("core.issue_to_commit_cycles"),
            std::string::npos);
}

TEST(SweepTelemetry, DisabledCollectionKeepsLegacyExportShape) {
  const auto points = MetricsGrid();
  const auto outcomes = runtime::SweepRunner({.num_threads = 2}).Run(points);
  for (const auto& o : outcomes) EXPECT_TRUE(o.metrics.empty());
  std::ostringstream csv, json;
  runtime::WriteCsv(csv, outcomes);
  runtime::WriteJson(json, outcomes);
  EXPECT_EQ(csv.str().find("# metrics"), std::string::npos);
  EXPECT_EQ(json.str().find("\"metrics\""), std::string::npos);
}

TEST(SweepTelemetry, RunnerMetricsCountAttemptsAndWallTimes) {
  const auto points = MetricsGrid();
  const auto report =
      runtime::SweepRunner({.num_threads = 2}).RunWithReport(points);
  ASSERT_EQ(report.outcomes.size(), points.size());
  const auto* attempts = report.runner_metrics.Find("sweep.attempts");
  ASSERT_NE(attempts, nullptr);
  EXPECT_EQ(attempts->value, points.size());  // Every point: one attempt.
  EXPECT_EQ(report.runner_metrics.Find("sweep.failed_points")->value, 0u);
  EXPECT_EQ(report.runner_metrics.Find("sweep.retries")->value, 0u);
  const auto* wall = report.runner_metrics.Find("sweep.point_wall_time_us");
  ASSERT_NE(wall, nullptr);
  EXPECT_EQ(wall->count, points.size());
  // The functional-sim cache is untouched: no oracle predictor and no
  // architectural checks in this sweep.
  ASSERT_NE(report.runner_metrics.Find("fnsim_cache.hits"), nullptr);
}

}  // namespace
}  // namespace ultra

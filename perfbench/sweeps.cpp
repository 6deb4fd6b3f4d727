// The two in-process sweep workloads: sweep_plain and sweep_fault_telemetry.
//
// A round runs every sweep of the workload once through SweepRunner (and,
// for sweep_plain, exports the outcomes through runtime/sweep_io). Rounds
// repeat until the measuring time is used up; throughput is the median over
// rounds. The traced run adds direct Processor::Run probes that attribute
// host time per core and configuration, and a memory-system replay.
#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <map>
#include <set>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "core/functional_sim_cache.hpp"
#include "fault/fault_plan.hpp"
#include "isa/alu.hpp"
#include "isa/opcode.hpp"
#include "memory/backing_store.hpp"
#include "memory/memory_system.hpp"
#include "runtime/sweep_io.hpp"
#include "telemetry/telemetry.hpp"
#include "workloads/generators.hpp"

namespace perfbench {

namespace {

using ultra::core::FunctionalSimCache;
using ultra::runtime::SweepOptions;
using ultra::runtime::SweepOutcome;
using ultra::runtime::SweepReport;
using ultra::runtime::SweepRunner;

constexpr int kSetupRepeats = 30;
constexpr int kProbeRepeats = 3;

int SweepThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1u, 4u));
}

struct Sweep {
  std::string name;
  std::vector<BenchPoint> bench;
  std::vector<ultra::runtime::SweepPoint> points;  // PointsOf(bench).
  SweepOptions options;
};

Sweep MakeSweep(std::string name, const std::vector<BenchPoint>& bench,
                SweepOptions options) {
  return {std::move(name), bench, PointsOf(bench), std::move(options)};
}

/// What one round measured.
struct Round {
  double wall = 0.0;        // Sweeps plus export.
  double sweep_wall = 0.0;  // Sweeps only.
  double export_wall = 0.0;
  double points = 0.0;
  double cycles = 0.0;
  double point_wall_sum = 0.0;
  std::vector<double> point_wall_ms;
  std::uint64_t export_bytes = 0;
  std::vector<std::vector<SweepOutcome>> outcomes;  // One per sweep.
  ultra::telemetry::MetricsSnapshot runner_metrics;
};

/// Runs every sweep once, then writes the first sweep's CSV and JSON
/// exports when @p exports names them.
Round RunRound(const std::vector<Sweep>& sweeps,
               const ultra::runtime::SweepCli* exports, Tracer& tracer,
               int parent) {
  Round r;
  for (const Sweep& sweep : sweeps) {
    Span span(tracer, "runtime.SweepRunner.RunWithReport", parent);
    SweepReport report =
        SweepRunner(sweep.options).RunWithReport(sweep.points);
    r.sweep_wall += span.Stop();
    r.runner_metrics.MergeFrom(report.runner_metrics);
    for (const SweepOutcome& o : report.outcomes) {
      r.points += 1;
      r.cycles += static_cast<double>(o.result.cycles);
      r.point_wall_sum += o.wall_seconds;
      r.point_wall_ms.push_back(o.wall_seconds * 1e3);
    }
    r.outcomes.push_back(std::move(report.outcomes));
  }
  if (exports != nullptr) {
    Span span(tracer, "runtime.ExportOutcomes", parent);
    if (!ultra::runtime::ExportOutcomes(*exports, r.outcomes.front())) {
      throw std::runtime_error("sweep export failed");
    }
    r.export_wall = span.Stop();
    r.export_bytes = std::filesystem::file_size(exports->csv_path) +
                     std::filesystem::file_size(exports->json_path);
  }
  r.wall = r.sweep_wall + r.export_wall;
  return r;
}

/// Checks every outcome of @p round and counts it in @p result. From the
/// second round on, each result must also repeat the first round's digest
/// bit for bit (the simulator is deterministic).
void CheckRound(const std::vector<Sweep>& sweeps, const Round& round,
                const DigestTable* digests,
                std::vector<std::uint64_t>& first_digests, Result& result) {
  const bool first = first_digests.empty();
  std::size_t k = 0;
  for (std::size_t s = 0; s < sweeps.size(); ++s) {
    for (std::size_t i = 0; i < sweeps[s].bench.size(); ++i, ++k) {
      const SweepOutcome& o = round.outcomes[s][i];
      ++result.attempted;
      std::string err = CheckOutcome(sweeps[s].bench[i], o, digests);
      const std::uint64_t d = DigestRunResult(o.result);
      if (first) {
        first_digests.push_back(d);
      } else if (err.empty() && d != first_digests[k]) {
        err = o.workload + ": result differs from the first round";
      }
      if (!err.empty()) result.Fail(1, sweeps[s].name + ": " + err);
    }
  }
}

/// The architectural load/store address stream of @p program, rebuilt from
/// the functional reference's dynamic PC trace.
struct MemOp {
  bool store = false;
  ultra::isa::Word addr = 0;
  ultra::isa::Word value = 0;
};
std::vector<MemOp> MemoryStream(const ultra::isa::Program& program,
                                int num_regs) {
  namespace isa = ultra::isa;
  const auto fn = FunctionalSimCache::Global().Get(program, num_regs);
  std::vector<isa::Word> regs(static_cast<std::size_t>(num_regs), 0);
  ultra::memory::BackingStore mem;
  mem.Load(program.initial_memory());
  std::vector<MemOp> ops;
  for (const std::size_t pc : fn->trace) {
    const isa::Instruction& inst = program.at(pc);
    const isa::Word a = isa::ReadsRs1(inst.op) ? regs[inst.rs1] : 0;
    const isa::Word b = isa::ReadsRs2(inst.op) ? regs[inst.rs2] : 0;
    switch (isa::ClassOf(inst.op)) {
      case isa::OpClass::kIntSimple:
      case isa::OpClass::kIntMul:
      case isa::OpClass::kIntDiv:
        regs[inst.rd] = isa::AluResult(inst, a, b);
        break;
      case isa::OpClass::kLoad: {
        const isa::Word addr = isa::EffectiveAddress(inst, a);
        regs[inst.rd] = mem.ReadWord(addr);
        ops.push_back({false, addr, 0});
        break;
      }
      case isa::OpClass::kStore: {
        const isa::Word addr = isa::EffectiveAddress(inst, a);
        mem.WriteWord(addr, b);
        ops.push_back({true, addr, b});
        break;
      }
      default:
        break;
    }
  }
  return ops;
}

/// Replays @p ops through a MemorySystem, submitting up to four per cycle
/// from rotating leaves. Returns the number of completions drained.
std::size_t ReplayMemory(const ultra::memory::MemoryConfig& config,
                         int leaves, const ultra::isa::Program& program,
                         const std::vector<MemOp>& ops) {
  ultra::memory::MemorySystem ms(config, leaves);
  ms.Reset(program.initial_memory());
  std::size_t next = 0;
  std::size_t done = 0;
  for (std::uint64_t cycle = 0; done < ops.size() && cycle < 100'000'000;
       ++cycle) {
    for (int k = 0; k < 4 && next < ops.size(); ++k, ++next) {
      const MemOp& op = ops[next];
      const int leaf =
          static_cast<int>(next % static_cast<std::size_t>(leaves));
      if (op.store) {
        ms.SubmitStore(leaf, op.addr, op.value);
      } else {
        ms.SubmitLoad(leaf, op.addr);
      }
    }
    ms.Tick();
    done += ms.DrainCompleted().size();
  }
  return done;
}

/// Host time per simulated cycle of one probe group.
struct GroupTime {
  double ns = 0.0;
  double cycles = 0.0;
  [[nodiscard]] double NsPerCycle() const {
    return cycles > 0 ? ns / cycles : 0.0;
  }
};

/// Runs @p bp directly through Processor::Run kProbeRepeats times (single
/// threaded, inside core.Processor.Run spans) and adds the median host
/// time to @p group. @p metrics attaches a live telemetry sink, as
/// SweepOptions::collect_metrics does.
void ProbePoint(const ultra::runtime::SweepPoint& point, bool metrics,
                Tracer& tracer, int parent, GroupTime& group) {
  std::vector<double> seconds;
  std::uint64_t cycles = 0;
  for (int rep = 0; rep < kProbeRepeats; ++rep) {
    ultra::core::CoreConfig config = point.config;
    ultra::telemetry::RunTelemetry telemetry;
    if (metrics) config.telemetry = &telemetry;
    Span span(tracer, "core.Processor.Run", parent);
    const auto result =
        ultra::core::MakeProcessor(point.kind, config)->Run(*point.program);
    seconds.push_back(span.Stop());
    cycles = result.cycles;
  }
  group.ns += Median(seconds) * 1e9;
  group.cycles += static_cast<double>(cycles);
}

/// What the setup repetitions measured, plus the inputs of the last one.
template <typename Inputs>
struct Setups {
  Inputs inputs;
  std::vector<double> setup_s;
  std::vector<double> generate_s;
  std::vector<double> oracle_s;
};

/// Setup shared by both sweep workloads: builds the inputs kSetupRepeats
/// times, each time clearing the oracle cache and warming it again for
/// every distinct program that @p all_points lists.
template <typename Inputs, typename Build, typename AllPoints>
Setups<Inputs> Setup(Build build, AllPoints all_points, Tracer& tracer) {
  Setups<Inputs> out;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    Span setup(tracer, "bench.setup");
    FunctionalSimCache::Global().Clear();
    out.inputs = build(setup.id());
    double oracle = 0.0;
    std::set<const ultra::isa::Program*> warmed;
    for (const BenchPoint* bp : all_points(out.inputs)) {
      if (!warmed.insert(bp->point.program.get()).second) continue;
      Span warm(tracer, "runtime.FunctionalSimCache.Get", setup.id());
      (void)FunctionalSimCache::Global().Get(*bp->point.program,
                                             bp->point.config.num_regs);
      oracle += warm.Stop();
    }
    out.setup_s.push_back(setup.Stop());
    out.generate_s.push_back(out.inputs.generate_seconds);
    out.oracle_s.push_back(oracle);
  }
  return out;
}

/// Measures rounds for @p seconds (at least three) or, when @p count > 0,
/// exactly @p count rounds, checking each round after it ran.
std::vector<Round> MeasureRounds(const std::vector<Sweep>& sweeps,
                                 const ultra::runtime::SweepCli* exports,
                                 double seconds, std::size_t count,
                                 const DigestTable* digests, Tracer& tracer,
                                 const char* span_name, Result& result) {
  Span measure(tracer, span_name);
  std::vector<std::uint64_t> first_digests;
  std::vector<Round> rounds;
  const auto start = Clock::now();
  while (count > 0 ? rounds.size() < count
                   : rounds.size() < 3 || SecondsSince(start) < seconds) {
    rounds.push_back(RunRound(sweeps, exports, tracer, measure.id()));
    Span check(tracer, "bench.check", measure.id());
    CheckRound(sweeps, rounds.back(), digests, first_digests, result);
    // Only the first round's outcomes are kept for the per-layer counters.
    if (rounds.size() > 1) rounds.back().outcomes.clear();
  }
  return rounds;
}

/// Tracing overhead: the traced rounds' wall time minus that of the same
/// number of rounds run again, untraced, with the same checks.
void SetTraceOverhead(Result& result, const std::vector<Sweep>& sweeps,
                      const ultra::runtime::SweepCli* exports,
                      const DigestTable* digests,
                      const std::vector<Round>& rounds, Tracer& tracer) {
  Span span(tracer, "bench.untraced_baseline");
  Tracer off(false);
  Result scratch;
  double traced = 0.0;
  double untraced = 0.0;
  for (const Round& r : rounds) traced += r.wall;
  for (const Round& r : MeasureRounds(sweeps, exports, 0, rounds.size(),
                                      digests, off, "", scratch)) {
    untraced += r.wall;
  }
  result.Set("trace.overhead_s", traced - untraced, "s");
  std::printf("traced rounds %.6f s, untraced rounds %.6f s\n", traced,
              untraced);
}

void SetEndToEnd(Result& result, const std::vector<double>& setup_s,
                 const std::vector<Round>& rounds) {
  std::vector<double> pps;
  std::vector<double> cps;
  std::vector<double> latency;
  for (const Round& r : rounds) {
    pps.push_back(r.points / r.wall);
    cps.push_back(r.cycles / r.wall);
    latency.insert(latency.end(), r.point_wall_ms.begin(),
                   r.point_wall_ms.end());
  }
  result.Set("setup_s", Median(setup_s), "s");
  result.Set("points_per_s", Median(pps), "1/s");
  result.Set("sim_cycles_per_s", Median(cps), "1/s");
  result.Set("peak_rss_mb", PeakRssMb(), "MB");
  result.Set("ok_frac",
             1.0 - static_cast<double>(result.failed) /
                       static_cast<double>(result.attempted),
             "fraction");
  result.Set("request_latency_ms_p50", Percentile(latency, 50), "ms");
  result.Set("request_latency_ms_p99", Percentile(latency, 99), "ms");
  std::printf("rounds %zu, points per round %.0f, point latency samples %zu\n",
              rounds.size(), rounds.front().points, latency.size());
}

std::uint64_t Counter(const ultra::telemetry::MetricsSnapshot& s,
                      std::string_view name) {
  const auto* m = s.Find(name);
  return m == nullptr ? 0 : m->value;
}

/// Per-layer metrics every sweep workload reports from its rounds.
template <typename Inputs>
void SetRuntimeLayer(Result& result, const Setups<Inputs>& setups,
                     const std::vector<Round>& rounds, int threads) {
  result.Set("workloads.generate_s", Median(setups.generate_s), "s");
  result.Set("runtime.oracle_s", Median(setups.oracle_s), "s");
  std::vector<double> efficiency;
  std::vector<double> wall_ms;
  for (const Round& r : rounds) {
    efficiency.push_back(r.point_wall_sum / (threads * r.sweep_wall));
    wall_ms.insert(wall_ms.end(), r.point_wall_ms.begin(),
                   r.point_wall_ms.end());
  }
  result.Set("runtime.parallel_efficiency", Median(efficiency), "fraction");
  result.Set("runtime.point_wall_ms_p50", Percentile(wall_ms, 50), "ms");
  result.Set("runtime.point_wall_ms_p99", Percentile(wall_ms, 99), "ms");
  // Counts from the first round, which every later round repeats.
  const auto& rm = rounds.front().runner_metrics;
  result.Set("runtime.fnsim_cache.hits",
             static_cast<double>(Counter(rm, "fnsim_cache.hits")), "count");
  result.Set("runtime.fnsim_cache.misses",
             static_cast<double>(Counter(rm, "fnsim_cache.misses")), "count");
  result.Set("runtime.attempts",
             static_cast<double>(Counter(rm, "sweep.attempts")), "count");
  result.Set("runtime.retries",
             static_cast<double>(Counter(rm, "sweep.retries")), "count");
}

/// The known kChecked defect (README.md), run once outside the measurement:
/// the minimal reproduction on UltrascalarII at n = 256 and checker strides
/// 1, 32 and 64, through the runner's oracle check. The fault sweep leaves
/// this configuration out, so it does not count in attempted or failed;
/// each run prints the outcome and the traced run reports the number of
/// reproduction points that fail the oracle.
void ProbeKnownDefect(Tracer& tracer, Result& result) {
  Span span(tracer, "bench.probe.known_defect");
  namespace fault = ultra::fault;
  constexpr std::array<fault::FaultKind, 1> kMispredict = {
      fault::FaultKind::kForceMispredict};
  const auto program = std::make_shared<const ultra::isa::Program>(
      ultra::workloads::RandomMix({.num_instructions = 8192}));
  const auto plan = std::make_shared<const fault::FaultPlan>(
      fault::FaultPlan::Random(17, 0.01, 200000, kMispredict));
  std::vector<ultra::runtime::SweepPoint> points;
  for (const int stride : {1, 32, 64}) {
    ultra::runtime::SweepPoint p;
    p.kind = ultra::core::ProcessorKind::kUltrascalarII;
    p.config.window_size = 256;
    p.config.datapath_eval = ultra::core::DatapathEval::kChecked;
    p.config.checker_stride = stride;
    p.config.fault_plan = plan;
    p.program = program;
    p.workload = "known_defect/stride" + std::to_string(stride);
    points.push_back(std::move(p));
  }
  SweepOptions options;
  options.num_threads = static_cast<int>(points.size());
  options.check_architectural_state = true;
  int fails = 0;
  for (const SweepOutcome& o : SweepRunner(options).Run(points)) {
    if (!o.ok) ++fails;
    std::printf("known defect probe: %s UltrascalarII n256 kChecked: %s\n",
                o.workload.c_str(),
                o.ok ? "matches the oracle" : o.error.c_str());
  }
  result.Set("fault.known_defect_fails", fails, "count");
}

}  // namespace

void SetCoreCounters(
    Result& result,
    const std::vector<std::vector<SweepOutcome>>& outcome_sets) {
  double cycles = 0, committed = 0, squashed = 0, mispredictions = 0,
         window_full = 0, fetch_stall = 0, fallback = 0;
  for (const auto& outcomes : outcome_sets) {
    for (const SweepOutcome& o : outcomes) {
      const auto& s = o.result.stats;
      cycles += static_cast<double>(o.result.cycles);
      committed += static_cast<double>(o.result.committed);
      squashed += static_cast<double>(s.squashed_instructions);
      mispredictions += static_cast<double>(s.mispredictions);
      window_full += static_cast<double>(s.window_full_cycles);
      fetch_stall += static_cast<double>(s.fetch_stall_cycles);
      fallback += static_cast<double>(s.fallback_count);
    }
  }
  result.Set("core.sim_cycles", cycles, "count");
  result.Set("core.committed", committed, "count");
  result.Set("core.squashed_instructions", squashed, "count");
  result.Set("core.mispredictions", mispredictions, "count");
  result.Set("core.window_full_cycles", window_full, "count");
  result.Set("core.fetch_stall_cycles", fetch_stall, "count");
  result.Set("core.fallback_count", fallback, "count");
}

Result RunSweepPlain(const Options& options, Tracer& tracer) {
  Result result;
  const int threads = SweepThreads();
  const auto setups = Setup<PlainInputs>(
      [&](int parent) {
        return MakePlainInputs(options.seed, tracer, parent);
      },
      [](const PlainInputs& in) {
        std::vector<const BenchPoint*> out;
        for (const BenchPoint& bp : in.points) out.push_back(&bp);
        return out;
      },
      tracer);
  const PlainInputs& inputs = setups.inputs;

  SweepOptions sweep_options;
  sweep_options.num_threads = threads;
  sweep_options.check_architectural_state = true;
  const std::vector<Sweep> sweeps{
      MakeSweep("plain", inputs.points, sweep_options)};
  ultra::runtime::SweepCli exports;
  exports.csv_path = options.run_dir + "/plain.sweep.csv";
  exports.json_path = options.run_dir + "/plain.sweep.json";

  const std::vector<Round> rounds =
      MeasureRounds(sweeps, &exports, options.seconds, 0, nullptr, tracer,
                    "bench.measure", result);
  SetEndToEnd(result, setups.setup_s, rounds);
  if (!options.trace) return result;

  SetTraceOverhead(result, sweeps, &exports, nullptr, rounds, tracer);
  SetRuntimeLayer(result, setups, rounds, threads);
  SetCoreCounters(result, rounds.front().outcomes);
  std::vector<double> export_ms;
  for (const Round& r : rounds) export_ms.push_back(r.export_wall * 1e3);
  result.Set("runtime.export_ms", Median(export_ms), "ms");
  result.Set("persist.export_bytes",
             static_cast<double>(rounds.front().export_bytes), "bytes");

  // Memory counters over the whole grid (only the memory family enables
  // the hierarchy, so these are that family's counts).
  ultra::core::MemHierarchyCounters m;
  for (const SweepOutcome& o : rounds.front().outcomes.front()) {
    const auto& h = o.result.stats.mem_hierarchy;
    m.l1d_hits += h.l1d_hits;
    m.l1d_misses += h.l1d_misses;
    m.l2_hits += h.l2_hits;
    m.l2_misses += h.l2_misses;
    m.icache_hits += h.icache_hits;
    m.icache_misses += h.icache_misses;
    m.icache_stall_cycles += h.icache_stall_cycles;
    m.prefetch_issued += h.prefetch_issued;
    m.prefetch_useful += h.prefetch_useful;
  }
  const auto rate = [](std::uint64_t misses, std::uint64_t hits) {
    return misses + hits == 0 ? 0.0
                              : static_cast<double>(misses) /
                                    static_cast<double>(misses + hits);
  };
  result.Set("memory.l1d_miss_rate", rate(m.l1d_misses, m.l1d_hits),
             "fraction");
  result.Set("memory.l2_miss_rate", rate(m.l2_misses, m.l2_hits), "fraction");
  result.Set("memory.icache_miss_rate", rate(m.icache_misses, m.icache_hits),
             "fraction");
  result.Set("memory.prefetch_useful_frac",
             m.prefetch_issued == 0
                 ? 0.0
                 : static_cast<double>(m.prefetch_useful) /
                       static_cast<double>(m.prefetch_issued),
             "fraction");
  result.Set("memory.icache_stall_cycles",
             static_cast<double>(m.icache_stall_cycles), "count");

  // Core probe: every grid point, single threaded, per kind.
  std::map<std::string, GroupTime> groups;
  {
    Span probe(tracer, "bench.probe.core");
    for (const BenchPoint& bp : inputs.points) {
      ProbePoint(bp.point, false, tracer, probe.id(), groups[bp.group]);
    }
  }
  for (const char* kind :
       {"Ideal", "UltrascalarI", "UltrascalarII", "Hybrid"}) {
    result.Set(std::string("core.") + kind + ".ns_per_cycle",
               groups[kind].NsPerCycle(), "ns");
  }
  for (const char* kind : {"UltrascalarI", "UltrascalarII", "Hybrid"}) {
    result.Set(std::string("datapath.") + kind + ".excess_ns_per_cycle",
               groups[kind].NsPerCycle() - groups["Ideal"].NsPerCycle(), "ns");
  }

  // Memory probe: the strided program's load/store stream replayed through
  // the memory system the memory family configures.
  {
    Span probe(tracer, "bench.probe.memory");
    const auto it = std::find_if(
        inputs.points.begin(), inputs.points.end(),
        [](const BenchPoint& bp) { return bp.point.workload == "stride"; });
    const auto& point = it->point;
    const std::vector<MemOp> ops =
        MemoryStream(*point.program, point.config.num_regs);
    std::vector<double> seconds;
    for (int rep = 0; rep < 5; ++rep) {
      Span replay(tracer, "memory.MemorySystem.replay", probe.id());
      const std::size_t done = ReplayMemory(point.config.mem, 256,
                                            *point.program, ops);
      seconds.push_back(replay.Stop());
      if (done != ops.size()) {
        result.Fail(0, "memory replay completed " + std::to_string(done) +
                           " of " + std::to_string(ops.size()) +
                           " accesses");
      }
    }
    result.Set("memory.ns_per_access",
               Median(seconds) * 1e9 / static_cast<double>(ops.size()), "ns");
  }
  result.unmeasured.push_back(
      {"fault.", "this workload runs no fault plans"});
  result.unmeasured.push_back(
      {"telemetry.", "this workload runs with metrics off"});
  result.unmeasured.push_back(
      {"core.UltrascalarI.pipelined", "no pipelined points on this workload"});
  result.unmeasured.push_back(
      {"core.", "no fault-plan or metrics-on points on this workload"});
  // The service and persist layers, which the sweep itself bypasses, are
  // measured here so that a traced run of this workload covers every layer.
  MeasureServiceLayers(options, tracer, result);
  return result;
}

Result RunSweepFaultTelemetry(const Options& options, Tracer& tracer) {
  Result result;
  const int threads = SweepThreads();
  const DigestTable digests =
      DigestTable::Load(options.data_dir + "/digests.txt");
  const auto setups = Setup<FaultTelemetryInputs>(
      [&](int parent) {
        return MakeFaultTelemetryInputs(options.seed, tracer, parent);
      },
      [](const FaultTelemetryInputs& in) {
        std::vector<const BenchPoint*> out;
        for (const auto* set : {&in.metrics_points, &in.checked_points,
                                &in.packed_fault_points}) {
          for (const BenchPoint& bp : *set) out.push_back(&bp);
        }
        return out;
      },
      tracer);
  const FaultTelemetryInputs& inputs = setups.inputs;

  // The fault sweep is two runner calls: faulted packed points diverge
  // from the oracle by design, so they run without the runner's oracle
  // check and CheckOutcome compares their stored digests instead.
  SweepOptions checked;
  checked.num_threads = threads;
  checked.check_architectural_state = true;
  SweepOptions metrics = checked;
  metrics.collect_metrics = true;
  SweepOptions packed;
  packed.num_threads = threads;
  const std::vector<Sweep> sweeps{
      MakeSweep("metrics", inputs.metrics_points, metrics),
      MakeSweep("faults", inputs.checked_points, checked),
      MakeSweep("faults", inputs.packed_fault_points, packed)};

  const std::vector<Round> rounds =
      MeasureRounds(sweeps, nullptr, options.seconds, 0, &digests, tracer,
                    "bench.measure", result);
  SetEndToEnd(result, setups.setup_s, rounds);
  ProbeKnownDefect(tracer, result);
  if (!options.trace) return result;

  SetTraceOverhead(result, sweeps, nullptr, &digests, rounds, tracer);
  SetRuntimeLayer(result, setups, rounds, threads);
  SetCoreCounters(result, rounds.front().outcomes);

  ultra::core::FaultCounters f;
  for (const auto& outcomes : rounds.front().outcomes) {
    for (const SweepOutcome& o : outcomes) {
      f.injected += o.result.stats.fault.injected;
      f.divergences += o.result.stats.fault.divergences;
      f.resyncs += o.result.stats.fault.resyncs;
      f.squashes += o.result.stats.fault.squashes;
    }
  }
  result.Set("fault.injected", static_cast<double>(f.injected), "count");
  result.Set("fault.divergences", static_cast<double>(f.divergences),
             "count");
  result.Set("fault.resyncs", static_cast<double>(f.resyncs), "count");
  result.Set("fault.squashes", static_cast<double>(f.squashes), "count");

  // Core probe: each slow configuration and the same point without it.
  std::map<std::string, GroupTime> on;
  std::map<std::string, GroupTime> off;
  {
    Span probe(tracer, "bench.probe.core");
    for (const BenchPoint& bp : inputs.metrics_points) {
      ProbePoint(bp.point, true, tracer, probe.id(), on[bp.group]);
      ProbePoint(bp.point, false, tracer, probe.id(), off[bp.group]);
    }
    for (const BenchPoint& bp : inputs.packed_fault_points) {
      ProbePoint(bp.point, false, tracer, probe.id(), on[bp.group]);
      auto clean = bp.point;
      clean.config.fault_plan = nullptr;
      ProbePoint(clean, false, tracer, probe.id(), off[bp.group]);
    }
    for (const BenchPoint& bp : inputs.checked_points) {
      if (bp.point.config.pipeline_levels_per_stage == 0) continue;
      ProbePoint(bp.point, false, tracer, probe.id(), on[bp.group]);
      auto flat = bp.point;
      flat.config.pipeline_levels_per_stage = 0;
      ProbePoint(flat, false, tracer, probe.id(), off[bp.group]);
    }
  }
  const auto ratio = [&](std::initializer_list<std::string> names) {
    GroupTime a, b;
    for (const std::string& n : names) {
      a.ns += on[n].ns;
      a.cycles += on[n].cycles;
      b.ns += off[n].ns;
      b.cycles += off[n].cycles;
    }
    return a.NsPerCycle() / b.NsPerCycle();
  };
  for (const char* kind : {"UltrascalarI", "UltrascalarII", "Hybrid"}) {
    const std::string g = std::string(kind) + ".fault_plan";
    result.Set("core." + g + ".ns_per_cycle", on[g].NsPerCycle(), "ns");
  }
  for (const char* kind :
       {"Ideal", "UltrascalarI", "UltrascalarII", "Hybrid"}) {
    const std::string g = std::string(kind) + ".metrics";
    result.Set("core." + g + ".ns_per_cycle", on[g].NsPerCycle(), "ns");
  }
  result.Set("core.UltrascalarI.pipelined.ns_per_cycle",
             on["UltrascalarI.pipelined"].NsPerCycle(), "ns");
  result.Set("core.UltrascalarI.pipelined_slowdown_x",
             ratio({"UltrascalarI.pipelined"}), "x");
  result.Set("fault.slowdown_x",
             ratio({"UltrascalarI.fault_plan", "UltrascalarII.fault_plan",
                    "Hybrid.fault_plan"}),
             "x");
  result.Set("telemetry.metrics_slowdown_x",
             ratio({"Ideal.metrics", "UltrascalarI.metrics",
                    "UltrascalarII.metrics", "Hybrid.metrics"}),
             "x");
  result.unmeasured.push_back(
      {"core.", "plain configurations are measured on sweep_plain"});
  result.unmeasured.push_back(
      {"datapath.", "plain configurations are measured on sweep_plain"});
  result.unmeasured.push_back(
      {"memory.", "this workload runs over kMagic memory with no hierarchy"});
  result.unmeasured.push_back(
      {"runtime.export_ms", "this workload writes no export"});
  result.unmeasured.push_back(
      {"persist.", "sweeps run without a journal or export here"});
  result.unmeasured.push_back(
      {"service.", "the service layer is bypassed by in-process sweeps"});
  return result;
}

}  // namespace perfbench

// The benchmark's inputs: programs, configurations and fault plans, all
// derived from the seed. Sizes are fixed; the seed changes only program
// contents and fault schedules, so runs with different seeds do the same
// amount of work.
#include <array>
#include <cstdio>

#include "bench.hpp"
#include "fault/fault_plan.hpp"
#include "isa/program_codec.hpp"
#include "workloads/generators.hpp"

namespace perfbench {

using ultra::core::CoreConfig;
using ultra::core::DatapathEval;
using ultra::core::ProcessorKind;
using ultra::runtime::SweepPoint;
namespace workloads = ultra::workloads;
namespace fault = ultra::fault;

std::uint64_t Mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::vector<SweepPoint> PointsOf(const std::vector<BenchPoint>& points) {
  std::vector<SweepPoint> out;
  out.reserve(points.size());
  for (const BenchPoint& bp : points) out.push_back(bp.point);
  return out;
}

namespace {

constexpr std::array<ProcessorKind, 4> kAllKinds = {
    ProcessorKind::kIdeal, ProcessorKind::kUltrascalarI,
    ProcessorKind::kUltrascalarII, ProcessorKind::kHybrid};
constexpr std::array<ProcessorKind, 3> kScalableKinds = {
    ProcessorKind::kUltrascalarI, ProcessorKind::kUltrascalarII,
    ProcessorKind::kHybrid};

std::string KindName(ProcessorKind kind) {
  return std::string(ultra::core::ProcessorKindName(kind));
}

unsigned Seed32(std::uint64_t seed, std::uint64_t salt) {
  return static_cast<unsigned>(Mix(seed, salt) & 0x7FFFFFFF);
}

// Hang watchdog of the fault sweep: five times the longest clean run of
// its programs (about 2000 cycles). Silent corruption under kPacked can
// stall a station for good; such a run stops here and its digest records
// the cut state. A kChecked run that reaches it fails the oracle check as
// not halted.
constexpr std::uint64_t kFaultMaxCycles = 10000;

// Known defect (README.md): under kChecked, forced mispredictions can
// leave a wrong register on UltrascalarII. Its checked points run the same
// plan without those events, so every operation of the workload must
// succeed; the known-defect probe runs the reproduction on every run.
std::shared_ptr<const fault::FaultPlan> WithoutForcedMispredicts(
    const fault::FaultPlan& plan) {
  std::vector<fault::FaultEvent> events;
  for (const fault::FaultEvent& e : plan.events()) {
    if (e.kind != fault::FaultKind::kForceMispredict) events.push_back(e);
  }
  return std::make_shared<const fault::FaultPlan>(std::move(events));
}

CoreConfig PackedConfig() {
  CoreConfig c;
  c.datapath_eval = DatapathEval::kPacked;
  return c;
}

struct Program {
  std::string label;
  std::shared_ptr<const ultra::isa::Program> program;
  CoreConfig config;
};

// Calls one generator inside a workloads.generate span and adds its time
// to @p seconds.
template <typename Fn>
Program Generate(Tracer& tracer, int parent, double& seconds,
                 std::string label, CoreConfig config, Fn&& generate) {
  Span span(tracer, "workloads.generate", parent);
  auto program = std::make_shared<const ultra::isa::Program>(generate());
  seconds += span.Stop();
  return {std::move(label), std::move(program), std::move(config)};
}

// The compute family over kMagic memory.
std::vector<Program> ComputeFamily(std::uint64_t seed, int instructions,
                                   Tracer& tracer, int parent,
                                   double& seconds) {
  std::vector<Program> out;
  out.push_back(
      Generate(tracer, parent, seconds, "chains", PackedConfig(), [&] {
        return workloads::DependencyChains({.num_instructions = instructions,
                                            .ilp = 16,
                                            .seed = Seed32(seed, 1)});
      }));
  out.push_back(
      Generate(tracer, parent, seconds, "mix", PackedConfig(), [&] {
        return workloads::RandomMix(
            {.num_instructions = instructions, .seed = Seed32(seed, 2)});
      }));
  return out;
}

BenchPoint MakePoint(const Program& p, ProcessorKind kind, int window,
                     std::string workload, CheckKind check,
                     std::string group) {
  BenchPoint bp;
  bp.point.kind = kind;
  bp.point.config = p.config;
  bp.point.config.window_size = window;
  bp.point.program = p.program;
  bp.point.workload = std::move(workload);
  bp.check = check;
  bp.group = std::move(group);
  return bp;
}

}  // namespace

PlainInputs MakePlainInputs(std::uint64_t seed, Tracer& tracer, int parent) {
  PlainInputs in;
  std::vector<Program> programs =
      ComputeFamily(seed, 4096, tracer, parent, in.generate_seconds);

  // Memory family: a strided stream through L1D + L2 + the stride
  // prefetcher over bandwidth-limited backing, and a loop whose body is
  // twice the size of the L1I.
  CoreConfig stride = PackedConfig();
  stride.mem.mode = ultra::memory::MemTimingMode::kBandwidthLimited;
  stride.mem.hierarchy.l1d = {.enabled = true, .sets = 32, .ways = 2,
                              .block_bytes = 32, .hit_latency = 1,
                              .miss_latency = 4};
  stride.mem.hierarchy.l2 = {.enabled = true, .sets = 128, .ways = 4,
                             .block_bytes = 32, .hit_latency = 4,
                             .miss_latency = 12};
  stride.mem.hierarchy.prefetch.depth = 4;
  programs.push_back(
      Generate(tracer, parent, in.generate_seconds, "stride", stride, [] {
        return workloads::StridedSweep({.array_words = 4096,
                                        .stride_words = 4,
                                        .passes = 2,
                                        .unroll = 4});
      }));
  CoreConfig footprint = PackedConfig();
  footprint.mem.hierarchy.l1i = {.enabled = true, .sets = 16, .ways = 2,
                                 .block_bytes = 32, .hit_latency = 1,
                                 .miss_latency = 8};
  programs.push_back(Generate(
      tracer, parent, in.generate_seconds, "footprint", footprint, [] {
        return workloads::CodeFootprint(
            {.body_instructions = 512, .iterations = 8});
      }));

  // Branch family: alternating branches defeat the static predictor, so
  // every core runs misprediction and squash recovery.
  programs.push_back(Generate(tracer, parent, in.generate_seconds, "storm",
                              PackedConfig(),
                              [] { return workloads::BranchStorm(500); }));

  for (const Program& p : programs) {
    for (const ProcessorKind kind : kAllKinds) {
      for (const int window : {64, 128, 256, 512, 1024}) {
        in.points.push_back(MakePoint(p, kind, window, p.label,
                                      CheckKind::kRunner, KindName(kind)));
      }
    }
  }
  return in;
}

FaultTelemetryInputs MakeFaultTelemetryInputs(std::uint64_t seed,
                                              Tracer& tracer, int parent) {
  FaultTelemetryInputs in;
  for (const Program& p :
       ComputeFamily(seed, 4096, tracer, parent, in.generate_seconds)) {
    for (const ProcessorKind kind : kAllKinds) {
      for (const int window : {64, 256, 1024}) {
        in.metrics_points.push_back(MakePoint(p, kind, window, p.label,
                                              CheckKind::kRunner,
                                              KindName(kind) + ".metrics"));
      }
    }
  }

  const std::uint64_t cls = seed % kDigestSeedClasses;
  const std::vector<Program> programs = ComputeFamily(
      Mix(cls, 100), 4096, tracer, parent, in.generate_seconds);
  struct Plan {
    std::string label;
    std::shared_ptr<const fault::FaultPlan> plan;
    std::shared_ptr<const fault::FaultPlan> no_mispredicts;
  };
  std::vector<Plan> plans;
  {
    Span span(tracer, "fault.FaultPlan.Random", parent);
    constexpr std::array<fault::FaultKind, 5> kAllFaultKinds = {
        fault::FaultKind::kCorruptValue, fault::FaultKind::kFlipReady,
        fault::FaultKind::kDropDelivery, fault::FaultKind::kStallStation,
        fault::FaultKind::kForceMispredict};
    const auto add = [&](std::string label, fault::FaultPlan plan) {
      plans.push_back({std::move(label),
                       std::make_shared<const fault::FaultPlan>(plan),
                       WithoutForcedMispredicts(plan)});
    };
    add("all5",
        fault::FaultPlan::Random(Mix(cls, 11), 0.01, 200000, kAllFaultKinds));
    add("default", fault::FaultPlan::Random(Mix(cls, 12), 0.01, 200000));
  }
  char cls_label[16];
  std::snprintf(cls_label, sizeof cls_label, "c%02llu",
                static_cast<unsigned long long>(cls));
  for (const Program& p : programs) {
    char fp[20];
    std::snprintf(fp, sizeof fp, "%016llx",
                  static_cast<unsigned long long>(
                      ultra::isa::FingerprintProgram(*p.program)));
    for (const Plan& plan : plans) {
      const std::string workload = p.label + "/" + plan.label;
      for (const ProcessorKind kind : kScalableKinds) {
        for (const int window : {64, 256}) {
          // Packed mode lets injected corruption reach architectural
          // state: checked against the stored reference digest.
          BenchPoint packed =
              MakePoint(p, kind, window, workload, CheckKind::kDigest,
                        KindName(kind) + ".fault_plan");
          packed.point.config.fault_plan = plan.plan;
          packed.point.config.max_cycles = kFaultMaxCycles;
          packed.digest_key = std::string(cls_label) + " " + workload + " " +
                              KindName(kind) + " n" +
                              std::to_string(window) + " " + fp;
          in.packed_fault_points.push_back(std::move(packed));
          // Checked mode detects and repairs: must match the oracle.
          BenchPoint checked =
              MakePoint(p, kind, window, workload, CheckKind::kRunner,
                        KindName(kind) + ".checked_fault");
          checked.point.config.fault_plan =
              kind == ProcessorKind::kUltrascalarII ? plan.no_mispredicts
                                                    : plan.plan;
          checked.point.config.datapath_eval = DatapathEval::kChecked;
          checked.point.config.max_cycles = kFaultMaxCycles;
          in.checked_points.push_back(std::move(checked));
        }
      }
    }
    for (const int window : {64, 256}) {
      BenchPoint piped = MakePoint(p, ProcessorKind::kUltrascalarI, window,
                                   p.label + "/pipelined", CheckKind::kRunner,
                                   "UltrascalarI.pipelined");
      piped.point.config.pipeline_levels_per_stage = 2;
      in.checked_points.push_back(std::move(piped));
    }
  }
  return in;
}

std::vector<SweepPoint> MakeServiceRequest(std::uint64_t seed,
                                           std::uint64_t index) {
  CoreConfig config = PackedConfig();
  config.window_size = 32;
  const auto mix = std::make_shared<const ultra::isa::Program>(
      workloads::RandomMix({.num_instructions = 1024,
                            .memory_words = 32,
                            .seed = Seed32(seed, 2 * index + 1000)}));
  const auto chains = std::make_shared<const ultra::isa::Program>(
      workloads::DependencyChains({.num_instructions = 1024,
                                   .ilp = 4,
                                   .seed = Seed32(seed, 2 * index + 1001)}));
  std::vector<SweepPoint> points;
  const std::string tag = "req" + std::to_string(index);
  for (const auto& [label, program] :
       {std::pair{"mix", mix}, std::pair{"chains", chains}}) {
    for (const ProcessorKind kind : kAllKinds) {
      SweepPoint p;
      p.kind = kind;
      p.config = config;
      p.program = program;
      p.workload = tag + "/" + label;
      points.push_back(std::move(p));
    }
  }
  return points;
}

}  // namespace perfbench

// The repository benchmark binary. See README.md in this directory.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --run-dir <dir> --data-dir <dir>
//
// Prints a human-readable report, then, as the last line of stdout, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. Untraced runs
// report the end-to-end metrics, traced runs the per-layer metrics. A point
// that fails a check counts in "failed" and never stops the run; the exit
// code is nonzero only when a check cannot run at all (missing reference
// digests, a service that stops answering, bad arguments).
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <string>

#include "bench.hpp"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match "end_to_end" in BENCHMARK.json.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"points_per_s", "1/s"},
    {"sim_cycles_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
    {"ok_frac", "fraction"},
    {"request_latency_ms_p50", "ms"},
    {"request_latency_ms_p99", "ms"},
};

// Must match "per_layer" in BENCHMARK.json.
constexpr MetricSpec kPerLayer[] = {
    {"workloads.generate_s", "s"},
    {"core.Ideal.ns_per_cycle", "ns"},
    {"core.UltrascalarI.ns_per_cycle", "ns"},
    {"core.UltrascalarII.ns_per_cycle", "ns"},
    {"core.Hybrid.ns_per_cycle", "ns"},
    {"core.UltrascalarI.fault_plan.ns_per_cycle", "ns"},
    {"core.UltrascalarII.fault_plan.ns_per_cycle", "ns"},
    {"core.Hybrid.fault_plan.ns_per_cycle", "ns"},
    {"core.Ideal.metrics.ns_per_cycle", "ns"},
    {"core.UltrascalarI.metrics.ns_per_cycle", "ns"},
    {"core.UltrascalarII.metrics.ns_per_cycle", "ns"},
    {"core.Hybrid.metrics.ns_per_cycle", "ns"},
    {"core.UltrascalarI.pipelined.ns_per_cycle", "ns"},
    {"core.UltrascalarI.pipelined_slowdown_x", "x"},
    {"core.sim_cycles", "count"},
    {"core.committed", "count"},
    {"core.squashed_instructions", "count"},
    {"core.mispredictions", "count"},
    {"core.window_full_cycles", "count"},
    {"core.fetch_stall_cycles", "count"},
    {"core.fallback_count", "count"},
    {"datapath.UltrascalarI.excess_ns_per_cycle", "ns"},
    {"datapath.UltrascalarII.excess_ns_per_cycle", "ns"},
    {"datapath.Hybrid.excess_ns_per_cycle", "ns"},
    {"memory.l1d_miss_rate", "fraction"},
    {"memory.l2_miss_rate", "fraction"},
    {"memory.icache_miss_rate", "fraction"},
    {"memory.prefetch_useful_frac", "fraction"},
    {"memory.icache_stall_cycles", "count"},
    {"memory.ns_per_access", "ns"},
    {"fault.injected", "count"},
    {"fault.divergences", "count"},
    {"fault.resyncs", "count"},
    {"fault.squashes", "count"},
    {"fault.slowdown_x", "x"},
    {"fault.known_defect_fails", "count"},
    {"telemetry.metrics_slowdown_x", "x"},
    {"runtime.oracle_s", "s"},
    {"runtime.export_ms", "ms"},
    {"runtime.parallel_efficiency", "fraction"},
    {"runtime.point_wall_ms_p50", "ms"},
    {"runtime.point_wall_ms_p99", "ms"},
    {"runtime.fnsim_cache.hits", "count"},
    {"runtime.fnsim_cache.misses", "count"},
    {"runtime.attempts", "count"},
    {"runtime.retries", "count"},
    {"persist.journal_append_us_p50", "us"},
    {"persist.journal_append_us_p99", "us"},
    {"persist.journal_appends", "count"},
    {"persist.run_journaled_x", "x"},
    {"persist.export_bytes", "bytes"},
    {"service.submit_ms_p50", "ms"},
    {"service.submit_ms_p99", "ms"},
    {"service.wait_ms_p50", "ms"},
    {"service.wait_ms_p99", "ms"},
    {"service.overhead_x", "x"},
    {"service.queue_depth_max", "count"},
    {"service.accepted", "count"},
    {"service.completed", "count"},
    {"service.failed", "count"},
    {"service.rejected_overload", "count"},
    {"trace.unattributed_s", "s"},
    {"trace.overhead_s", "s"},
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "sweep_plain|sweep_fault_telemetry|service_closed_loop "
               "--seed N --seconds S --trace 0|1 --run-dir DIR --data-dir "
               "DIR\n",
               why);
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options o;
  bool have[6] = {};
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        o.workload = value;
        have[0] = value == "sweep_plain" ||
                  value == "sweep_fault_telemetry" ||
                  value == "service_closed_loop";
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
        have[1] = true;
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
        have[2] = o.seconds > 0;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
        o.trace = value == "1";
        have[3] = true;
      } else if (flag == "--run-dir") {
        o.run_dir = value;
        have[4] = true;
      } else if (flag == "--data-dir") {
        o.data_dir = value;
        have[5] = true;
      } else {
        Usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::logic_error&) {
      Usage(("bad value for " + flag).c_str());
    }
  }
  for (const bool h : have) {
    if (!h) Usage("every flag is required, with a valid value");
  }
  return o;
}

void PrintJson(const Result& result,
               const std::map<std::string, Metric>& metrics,
               const MetricSpec* specs, std::size_t count) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              result.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  for (std::size_t i = 0; i < count; ++i) {
    const Metric& m = metrics.at(specs[i].name);
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  const auto run_start = Clock::now();
  Options options = ParseArgs(argc, argv);
  const std::string trace_path = options.run_dir + "/" + options.workload +
                                 "-seed" + std::to_string(options.seed) +
                                 ".trace.json";
  options.run_dir += "/" + options.workload + "-" + std::to_string(getpid());
  std::filesystem::remove_all(options.run_dir);
  std::filesystem::create_directories(options.run_dir);

  Tracer tracer(options.trace);
  Result result;
  if (options.workload == "sweep_plain") {
    result = RunSweepPlain(options, tracer);
  } else if (options.workload == "sweep_fault_telemetry") {
    result = RunSweepFaultTelemetry(options, tracer);
  } else {
    result = RunServiceClosedLoop(options, tracer);
  }
  {
    Span cleanup(tracer, "bench.cleanup");
    std::filesystem::remove_all(options.run_dir);
  }

  std::printf("workload %s seed %llu, %s run: %llu attempted, %llu failed\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? "traced" : "untraced",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  for (const std::string& f : result.failures) {
    std::printf("failure: %s\n", f.c_str());
  }

  const MetricSpec* specs = options.trace ? kPerLayer : kEndToEnd;
  const std::size_t count = options.trace ? std::size(kPerLayer)
                                          : std::size(kEndToEnd);
  if (options.trace) {
    result.Set("trace.unattributed_s",
               tracer.Summarize(SecondsSince(run_start)), "s");
    if (tracer.WriteChromeTrace(trace_path)) {
      std::printf("spans written to %s\n", trace_path.c_str());
    } else {
      std::printf("could not write spans to %s\n", trace_path.c_str());
    }
  }
  std::map<std::string, Metric> metrics;
  for (const Metric& m : result.metrics) metrics[m.name] = m;
  for (std::size_t i = 0; i < count; ++i) {
    const std::string name = specs[i].name;
    auto it = metrics.find(name);
    if (it == metrics.end()) {
      // Not on this workload's path: reported as 0 and listed with why.
      std::string why = "not measured by this workload";
      for (const auto& [prefix, reason] : result.unmeasured) {
        if (name.rfind(prefix, 0) == 0) {
          why = reason;
          break;
        }
      }
      std::printf("unmeasured: %s (%s)\n", name.c_str(), why.c_str());
      it = metrics.emplace(name, Metric{name, 0.0, specs[i].unit}).first;
    } else if (it->second.unit != specs[i].unit ||
               !std::isfinite(it->second.value)) {
      std::fprintf(stderr, "perfbench: metric %s has unit %s or value %g\n",
                   name.c_str(), it->second.unit.c_str(), it->second.value);
      return 3;
    }
    std::printf("metric %-44s %18.6f %s\n", name.c_str(), it->second.value,
                it->second.unit.c_str());
  }
  PrintJson(result, metrics, specs, count);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: a check could not run: %s\n", e.what());
    return 3;
  }
}

// Shared declarations of the repository benchmark (see README.md here).
//
// The benchmark runs one workload per process. Each workload builds its
// inputs from the seed, sets up several times (the median is setup_s),
// measures for the requested number of seconds, checks every output, and
// fills a Result with either the end-to-end metrics (untraced run) or the
// per-layer metrics (traced run).
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.hpp"
#include "core/processor.hpp"
#include "isa/program.hpp"
#include "runtime/sweep_runner.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for exports, journals, the service state dir and the
  /// span file; inside the checkout the benchmark runs from.
  std::string run_dir;
  /// The benchmark's own directory (holds digests.txt).
  std::string data_dir;
};

// ---------------------------------------------------------------------------
// Results.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::uint64_t attempted = 0;  // Points (sweeps) or request points (service).
  std::uint64_t failed = 0;     // Attempted units that failed a check.
  /// The first few failure descriptions, printed for the reader.
  std::vector<std::string> failures;
  std::vector<Metric> metrics;
  /// Per-layer metrics this workload cannot measure, with the reason.
  std::vector<std::pair<std::string, std::string>> unmeasured;

  void Set(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void Fail(std::uint64_t units, std::string what) {
    failed += units;
    if (failures.size() < 8) failures.push_back(std::move(what));
  }
};

/// Median and nearest-rank percentile of @p v (0 for an empty vector).
double Percentile(std::vector<double> v, double p);
inline double Median(std::vector<double> v) {
  return Percentile(std::move(v), 50.0);
}

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

// ---------------------------------------------------------------------------
// Spans: named intervals recorded around the benchmark's calls into each
// layer. Recording is off in untraced runs; Span objects still time their
// interval so the caller can use the duration either way.

class Tracer {
 public:
  explicit Tracer(bool enabled);

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a span and returns its id (-1 when disabled). @p parent is the
  /// id of the span that caused it, or -1 for a top-level span.
  int Begin(std::string_view name, int parent);
  void End(int id);

  /// Prints count, total and self seconds per span name plus per-layer
  /// self time, and returns the run's unattributed seconds: the run's wall
  /// time not covered by any top-level span.
  double Summarize(double run_wall_seconds) const;

  /// Writes every span as a Chrome trace_event JSON file (Perfetto UI,
  /// chrome://tracing). Returns false when the file cannot be written.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Record {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;
    int parent = -1;
    int lane = 0;  // Small per-thread index.
  };

  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Record> records_;
};

/// RAII span. seconds() is valid after the span has ended (or reads the
/// running duration before).
class Span {
 public:
  Span(Tracer& tracer, std::string_view name, int parent = -1)
      : tracer_(tracer), id_(tracer.Begin(name, parent)),
        start_(Clock::now()) {}
  ~Span() { Stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] int id() const { return id_; }
  /// Ends the span early; returns its duration in seconds.
  double Stop() {
    if (!stopped_) {
      seconds_ = SecondsSince(start_);
      tracer_.End(id_);
      stopped_ = true;
    }
    return seconds_;
  }
  [[nodiscard]] double seconds() const {
    return stopped_ ? seconds_ : SecondsSince(start_);
  }

 private:
  Tracer& tracer_;
  int id_;
  Clock::time_point start_;
  bool stopped_ = false;
  double seconds_ = 0.0;
};

// ---------------------------------------------------------------------------
// Inputs (grids.cpp).

/// 64-bit mix of a seed and a salt (SplitMix64 finalizer).
std::uint64_t Mix(std::uint64_t seed, std::uint64_t salt);

/// The sweep_fault_telemetry fault sweep draws its programs and plans from
/// seed % kDigestSeedClasses: its kPacked points are checked against the
/// digests stored for each class in digests.txt.
inline constexpr std::uint64_t kDigestSeedClasses = 32;

/// How a sweep point's result is checked.
enum class CheckKind : std::uint8_t {
  kRunner,  // SweepOptions::check_architectural_state (functional oracle).
  kDigest,  // Stored reference digest (faulted kPacked points).
};

/// A sweep point plus what the benchmark needs to check and attribute it.
struct BenchPoint {
  ultra::runtime::SweepPoint point;
  CheckKind check = CheckKind::kRunner;
  std::string digest_key;  // kDigest only.
  /// Attribution group for the traced core probe, e.g. "UltrascalarI",
  /// "UltrascalarI.fault_plan", "Ideal.metrics".
  std::string group;
};

struct PlainInputs {
  std::vector<BenchPoint> points;
  double generate_seconds = 0.0;  // Time in the workloads generators.
};
PlainInputs MakePlainInputs(std::uint64_t seed, Tracer& tracer, int parent);

struct FaultTelemetryInputs {
  /// Swept with collect_metrics on.
  std::vector<BenchPoint> metrics_points;
  /// kChecked fault-plan points and pipelined USI: oracle-checked.
  std::vector<BenchPoint> checked_points;
  /// kPacked fault-plan points: digest-checked.
  std::vector<BenchPoint> packed_fault_points;
  double generate_seconds = 0.0;
};
FaultTelemetryInputs MakeFaultTelemetryInputs(std::uint64_t seed,
                                              Tracer& tracer, int parent);

/// The ~8-point request number @p index of the service workload.
std::vector<ultra::runtime::SweepPoint> MakeServiceRequest(
    std::uint64_t seed, std::uint64_t index);

std::vector<ultra::runtime::SweepPoint> PointsOf(
    const std::vector<BenchPoint>& points);

// ---------------------------------------------------------------------------
// Checks (checks.cpp).

/// FNV-1a digest of every deterministic field of a RunResult: halt flag,
/// cycles, committed count, registers, data memory and all RunStats
/// counters. The per-instruction timeline is excluded (empty in sweeps).
std::uint64_t DigestRunResult(const ultra::core::RunResult& result);

/// Reference digests by key, loaded from digests.txt. Throws
/// std::runtime_error when the file is missing or malformed.
class DigestTable {
 public:
  static DigestTable Load(const std::string& path);
  /// Null when the key is absent.
  [[nodiscard]] const std::uint64_t* Find(const std::string& key) const;
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

 private:
  std::vector<std::pair<std::string, std::uint64_t>> entries_;  // Sorted.
};

/// Checks one outcome of @p bp. Returns "" when it passes. Every check also
/// requires RunStats::fallback_count == 0.
std::string CheckOutcome(const BenchPoint& bp,
                         const ultra::runtime::SweepOutcome& outcome,
                         const DigestTable* digests);

// ---------------------------------------------------------------------------
// Workloads.

/// Sets the core.* RunStats sums (sim cycles, committed, squashed,
/// mispredictions, window-full and fetch-stall cycles, fallback_count) over
/// every outcome of @p outcome_sets.
void SetCoreCounters(
    Result& result,
    const std::vector<std::vector<ultra::runtime::SweepOutcome>>&
        outcome_sets);

/// The service and persist layers, measured on the service_closed_loop
/// request stream with a fresh in-process SweepService: a closed loop of a
/// fixed number of requests (service.submit/wait percentiles, queue depth,
/// counters, persist.journal_appends), the service against in-process
/// RunWithReport plus export on the same requests (service.overhead_x),
/// RunJournaled against RunWithReport (persist.run_journaled_x), and
/// JournalWriter::Append latency at the service's record sizes. Request
/// failures count in @p result.
void MeasureServiceLayers(const Options& options, Tracer& tracer,
                          Result& result);

Result RunSweepPlain(const Options& options, Tracer& tracer);
Result RunSweepFaultTelemetry(const Options& options, Tracer& tracer);
Result RunServiceClosedLoop(const Options& options, Tracer& tracer);

}  // namespace perfbench

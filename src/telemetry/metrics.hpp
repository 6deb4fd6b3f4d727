// Allocation-free metrics: a MetricsRegistry of named counters, gauges, and
// fixed-bucket histograms, and MetricSheet shards of plain uint64_t slots
// that hot paths increment through pre-registered handles.
//
// Life cycle: register every metric up front (cold path; allocates), bind a
// MetricSheet to the registry, then increment through the handles. A sheet
// that is not bound -- or a handle that was never registered -- turns every
// increment into a single well-predicted branch, so instrumentation compiled
// into a cycle loop costs near nothing when telemetry is off
// (bench_telemetry_overhead gates this at <= 2% cycles/s).
//
// Thread model: a MetricsRegistry is mutated during registration and
// read-only afterwards. A MetricSheet is a single-threaded shard; concurrent
// writers each own one shard and the owner merges them in a fixed order
// (MergeFrom) once the workers are done, which keeps aggregate results
// deterministic at any thread count.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace ultra::telemetry {

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

[[nodiscard]] std::string_view MetricKindName(MetricKind kind);

/// Slot value for a handle that was never registered; every hot-path
/// operation on such a handle is a silent no-op.
inline constexpr std::uint32_t kInvalidSlot = 0xFFFF'FFFFu;

struct CounterId {
  std::uint32_t slot = kInvalidSlot;
};

struct GaugeId {
  std::uint32_t slot = kInvalidSlot;
};

/// A histogram occupies num_bounds + 3 consecutive slots:
/// [bucket 0 .. bucket B-1, overflow, count, sum]. Bucket i counts
/// observations v <= bounds[i] (first matching bound); the overflow bucket
/// counts v > bounds[B-1].
struct HistogramId {
  std::uint32_t slot = kInvalidSlot;
  std::uint32_t bounds_begin = 0;  // Offset into the registry's bounds pool.
  std::uint32_t num_bounds = 0;
};

/// One metric's value lifted out of the raw slots (see MetricsSnapshot).
struct MetricValue {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  std::uint64_t value = 0;               // Counter / gauge reading.
  std::vector<std::uint64_t> bounds;     // Histogram upper bucket edges.
  std::vector<std::uint64_t> buckets;    // bounds.size() + 1; last = overflow.
  std::uint64_t count = 0;               // Histogram observation count.
  std::uint64_t sum = 0;                 // Histogram observation sum.

  friend bool operator==(const MetricValue&, const MetricValue&) = default;
};

/// A deterministic, registration-ordered copy of a sheet's values --
/// detached from the registry, safe to move across threads and export.
struct MetricsSnapshot {
  std::vector<MetricValue> metrics;

  [[nodiscard]] bool empty() const { return metrics.empty(); }
  [[nodiscard]] const MetricValue* Find(std::string_view name) const;

  /// Element-wise aggregation by name: counters and histogram buckets sum,
  /// gauges take the maximum (high-water semantics). Metrics present only
  /// in @p other are appended in their order. Deterministic given a fixed
  /// merge order.
  void MergeFrom(const MetricsSnapshot& other);

  friend bool operator==(const MetricsSnapshot&, const MetricsSnapshot&) =
      default;
};

/// Renders @p snapshot as a "/metrics"-style plain-text surface: one
/// `name value` line per counter and gauge, and for each histogram a
/// `name_count`, a `name_sum`, and one cumulative `name_le_<bound>` line
/// per bucket (plus `name_le_inf` for the overflow bucket). Line order
/// follows the snapshot's (registration) order, so the surface is
/// deterministic and diffable.
void WriteMetricsText(std::ostream& os, const MetricsSnapshot& snapshot);

/// The metric name -> slot map. Registration is idempotent by name (the
/// existing handle is returned); re-registering a name under a different
/// kind or with different histogram bounds throws std::invalid_argument.
class MetricsRegistry {
 public:
  struct Metric {
    std::string name;
    MetricKind kind = MetricKind::kCounter;
    std::uint32_t slot = 0;
    std::uint32_t bounds_begin = 0;
    std::uint32_t num_bounds = 0;
  };

  CounterId Counter(std::string_view name);
  GaugeId Gauge(std::string_view name);
  /// @p bounds must be non-empty and strictly increasing.
  HistogramId Histogram(std::string_view name,
                        std::span<const std::uint64_t> bounds);

  [[nodiscard]] std::size_t slot_count() const { return slot_count_; }
  [[nodiscard]] const std::vector<Metric>& metrics() const { return metrics_; }
  [[nodiscard]] std::span<const std::uint64_t> bounds_pool() const {
    return bounds_;
  }

  /// Lifts @p slots (a sheet's raw array, sized slot_count()) into a
  /// registration-ordered snapshot.
  [[nodiscard]] MetricsSnapshot Snapshot(
      std::span<const std::uint64_t> slots) const;

 private:
  const Metric* Find(std::string_view name) const;

  std::vector<Metric> metrics_;
  std::vector<std::uint64_t> bounds_;  // Pooled histogram bucket edges.
  std::size_t slot_count_ = 0;
};

/// One shard of raw slot values. Unbound sheets (default state) make every
/// mutation a no-op behind one branch.
class MetricSheet {
 public:
  MetricSheet() = default;
  explicit MetricSheet(const MetricsRegistry* registry) { Bind(registry); }

  /// Attaches the sheet to @p registry (null detaches), sizing the slot
  /// array to registry->slot_count(). Rebinding to the same registry after
  /// further registrations preserves existing slot values; binding to a
  /// different registry zeroes them. Cached pointers into the registry are
  /// refreshed here, so call Bind() (or Sync()) again after late
  /// registrations and before the next hot-path write.
  void Bind(const MetricsRegistry* registry);

  /// Re-sizes against the currently bound registry (see Bind).
  void Sync() { Bind(registry_); }

  [[nodiscard]] bool enabled() const { return data_ != nullptr; }
  [[nodiscard]] const MetricsRegistry* registry() const { return registry_; }

  void Add(CounterId id, std::uint64_t delta = 1) {
    if (data_ == nullptr || id.slot == kInvalidSlot) return;
    data_[id.slot] += delta;
  }

  void Set(GaugeId id, std::uint64_t value) {
    if (data_ == nullptr || id.slot == kInvalidSlot) return;
    data_[id.slot] = value;
  }

  void SetMax(GaugeId id, std::uint64_t value) {
    if (data_ == nullptr || id.slot == kInvalidSlot) return;
    if (value > data_[id.slot]) data_[id.slot] = value;
  }

  void Observe(HistogramId id, std::uint64_t value) {
    if (data_ == nullptr || id.slot == kInvalidSlot) return;
    const std::uint64_t* bounds = bounds_data_ + id.bounds_begin;
    std::uint32_t b = 0;
    while (b < id.num_bounds && value > bounds[b]) ++b;
    std::uint64_t* h = data_ + id.slot;
    ++h[b];                        // Bucket (or overflow when b==num_bounds).
    ++h[id.num_bounds + 1];        // Count.
    h[id.num_bounds + 2] += value; // Sum.
  }

  /// Adds a batch of observations the caller has already binned:
  /// @p buckets[b] more in bucket b (num_bounds + 1 entries, the last the
  /// overflow), their total to the count, and @p sum to the sum. Equal to
  /// one Observe per observation when the caller bins as Observe does.
  void ObserveBinned(HistogramId id, std::span<const std::uint64_t> buckets,
                     std::uint64_t sum) {
    if (data_ == nullptr || id.slot == kInvalidSlot) return;
    assert(buckets.size() == id.num_bounds + 1);
    std::uint64_t* h = data_ + id.slot;
    std::uint64_t count = 0;
    for (std::uint32_t b = 0; b <= id.num_bounds; ++b) {
      h[b] += buckets[b];
      count += buckets[b];
    }
    h[id.num_bounds + 1] += count;
    h[id.num_bounds + 2] += sum;
  }

  [[nodiscard]] std::uint64_t Value(CounterId id) const {
    return (data_ != nullptr && id.slot != kInvalidSlot) ? data_[id.slot] : 0;
  }
  [[nodiscard]] std::uint64_t Value(GaugeId id) const {
    return (data_ != nullptr && id.slot != kInvalidSlot) ? data_[id.slot] : 0;
  }

  /// Zeroes every slot; binding and handles stay valid.
  void Reset();

  /// Slot-wise aggregation of another shard bound to the same registry:
  /// counter and histogram slots sum, gauge slots take the maximum. The
  /// merge order is the caller's to fix (submission order in SweepRunner),
  /// which makes the aggregate deterministic.
  void MergeFrom(const MetricSheet& other);

  [[nodiscard]] std::span<const std::uint64_t> slots() const {
    return slots_;
  }

  /// Checkpoint support: overwrites the slot array with @p values so
  /// telemetry counters resume mid-run exactly where a checkpoint left
  /// them. @p values must be sized slot_count() of the bound registry;
  /// silently ignored when the sheet is unbound (telemetry off).
  void RestoreSlots(std::span<const std::uint64_t> values);

  /// Registration-ordered copy of the current values ({} when unbound).
  [[nodiscard]] MetricsSnapshot Snapshot() const;

 private:
  const MetricsRegistry* registry_ = nullptr;
  std::vector<std::uint64_t> slots_;
  std::uint64_t* data_ = nullptr;
  const std::uint64_t* bounds_data_ = nullptr;
};

}  // namespace ultra::telemetry

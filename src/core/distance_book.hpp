// The fast tier's core.propagation_distance histogram, kept incrementally.
//
// The reference tiers measure it by sweeping the window every cycle
// (WindowEngine::SweepDistances): for each operand of an uncommitted
// station, the positions from its nearest preceding writer, or from the
// committed file when no station before it writes the register. That sweep
// costs O(n) per cycle. DistanceBook keeps the same histogram from events:
//
//  - A reader's distance to its nearest writer, k - kj, is a difference of
//    two positions, so it does not change when the head moves. It changes
//    only when the nearest writer does, and the fast tier re-resolves
//    exactly those readers (its stale set). Record() bins it there, once.
//  - A reader with no writer in the window is k + offset positions from the
//    committed file, which moves with the head. These readers are kept as
//    one station mask per source operand; Tally() counts them per bucket by
//    popcount over each power-of-two bucket's range of positions.
//
// Positions are relative to the ring's oldest station: program position k
// lives in station (head + k) % n, as in core/window_engine.hpp.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <vector>

#include "core/telemetry_hooks.hpp"
#include "datapath/bitset.hpp"

namespace ultra::core {

class DistanceBook {
 public:
  /// Sizes the book for an @p n-station ring, empty. A reader with no
  /// writer before it is @p no_writer_offset positions farther than its own
  /// position k from the committed file.
  void Assign(int n, int no_writer_offset) {
    n_ = n;
    offset_ = no_writer_offset;
    dist_.assign(2 * static_cast<std::size_t>(n), 0);
    for (datapath::PackedBits& m : no_writer_) m.Assign(n);
    with_writer_ = CoreHistogram{};
    no_writer_count_ = 0;
    no_writer_station_sum_ = 0;
  }

  /// Empties the book (Ultrascalar II's whole batch left at once).
  void Reset() { Assign(n_, offset_); }

  /// Source operand @p o (0 = rs1, 1 = rs2) of station @p i now resolves
  /// against writer station @p j, or the committed file when @p j is -1.
  void Record(int i, int o, int j) {
    Drop(i, o);
    if (j >= 0) {
      const int d = i > j ? i - j : i - j + n_;
      dist_[Index(i, o)] = d;
      with_writer_.Add(static_cast<std::uint64_t>(d));
      return;
    }
    no_writer_[static_cast<std::size_t>(o)].Set(i);
    ++no_writer_count_;
    no_writer_station_sum_ += static_cast<std::uint64_t>(i);
  }

  /// Station @p i's operands leave the histogram (commit, squash, free).
  void Forget(int i) {
    Drop(i, 0);
    Drop(i, 1);
  }

  /// The histogram of every recorded operand, for a ring whose oldest
  /// station is @p head with positions [0, @p count) allocated.
  [[nodiscard]] CoreHistogram Tally(int head, int count) const {
    CoreHistogram h = with_writer_;
    if (no_writer_count_ == 0) return h;
    // Bucket b holds distances (bounds[b-1], bounds[b]], positions
    // (bounds[b-1] - offset, bounds[b] - offset]; the walk stops once
    // every no-writer reader is binned.
    std::uint64_t left = no_writer_count_;
    int p = 0;
    for (int b = 0; b < kCoreHistogramBuckets && p < count && left > 0;
         ++b) {
      const int q =
          b + 1 < kCoreHistogramBuckets
              ? std::min(count, static_cast<int>(kCoreHistogramBounds[b]) +
                                    1 - offset_)
              : count;
      if (q <= p) continue;
      const auto in_bucket = static_cast<std::uint64_t>(
          CountStations(head + p, head + q));
      h.buckets[static_cast<std::size_t>(b)] += in_bucket;
      left -= in_bucket;
      p = q;
    }
    assert(left == 0);
    // Sum of k + offset: a reader in station i sits at i - head, plus n
    // when it wrapped below the head.
    const std::int64_t positions =
        static_cast<std::int64_t>(no_writer_station_sum_) -
        static_cast<std::int64_t>(head) *
            static_cast<std::int64_t>(no_writer_count_) +
        static_cast<std::int64_t>(n_) * CountStations(0, head);
    h.sum += static_cast<std::uint64_t>(
        positions + static_cast<std::int64_t>(offset_) *
                        static_cast<std::int64_t>(no_writer_count_));
    return h;
  }

 private:
  [[nodiscard]] static std::size_t Index(int i, int o) {
    return 2 * static_cast<std::size_t>(i) + static_cast<std::size_t>(o);
  }

  void Drop(int i, int o) {
    int& d = dist_[Index(i, o)];
    if (d > 0) {
      with_writer_.Remove(static_cast<std::uint64_t>(d));
      d = 0;
      return;
    }
    datapath::PackedBits& m = no_writer_[static_cast<std::size_t>(o)];
    if (m.Test(i)) {
      m.Clear(i);
      --no_writer_count_;
      no_writer_station_sum_ -= static_cast<std::uint64_t>(i);
    }
  }

  /// No-writer operands in the stations of the cyclic range [lo, hi),
  /// 0 <= lo <= hi <= 2n.
  [[nodiscard]] int CountStations(int lo, int hi) const {
    if (lo >= n_) return CountStations(lo - n_, hi - n_);
    if (hi > n_) return CountStations(lo, n_) + CountStations(0, hi - n_);
    return datapath::PopCountInRange(no_writer_[0], lo, hi) +
           datapath::PopCountInRange(no_writer_[1], lo, hi);
  }

  int n_ = 0;
  int offset_ = 0;
  std::vector<int> dist_;  // Per operand: distance from its writer, 0 = none.
  std::array<datapath::PackedBits, 2> no_writer_;  // Per operand.
  CoreHistogram with_writer_;
  std::uint64_t no_writer_count_ = 0;
  std::uint64_t no_writer_station_sum_ = 0;
};

}  // namespace ultra::core

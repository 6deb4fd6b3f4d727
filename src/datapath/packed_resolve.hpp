// Per-register writer/reader occupancy rows for the event-driven packed
// cores (DatapathEval::kPacked fast tier).
//
// The scalable datapaths (UsiDatapathState / UltrascalarIIDatapath /
// HybridDatapathState) answer "which value of register r arrives at station
// i?" by propagating bindings through CSPP / mesh-of-trees circuitry every
// cycle -- O(n) work even when nothing changed. PackedWriterMap stores the
// same dependence structure as L PackedBits rows over the n station slots
// (one writers row and one readers row per logical register), so the answer
// becomes a word-scan: the nearest preceding writer of r is the highest set
// bit of writers(r) below i, and "who must re-resolve when r's producer
// changes?" is a word-OR of a span of readers(r) into a stale mask. Rows are
// mutated point-wise at the cores' event sites (fill, squash, commit,
// result delivery) and never rebuilt wholesale, which is what lets the
// packed cycle loops skip the per-cycle O(n) propagation entirely.
//
// Slot indices are station indices on the ring of core/window_engine.hpp;
// cyclic program order starts at the oldest station.
#pragma once

#include <cassert>
#include <vector>

#include "datapath/bitset.hpp"

namespace ultra::datapath {

class PackedWriterMap {
 public:
  PackedWriterMap() = default;
  PackedWriterMap(int slots, int regs) { Assign(slots, regs); }

  /// Resizes to @p regs rows of @p slots lanes, all clear.
  void Assign(int slots, int regs) {
    assert(slots >= 0 && regs >= 0);
    slots_ = slots;
    writers_.assign(static_cast<std::size_t>(regs), PackedBits(slots));
    readers_.assign(static_cast<std::size_t>(regs), PackedBits(slots));
  }

  [[nodiscard]] int slots() const { return slots_; }
  [[nodiscard]] int regs() const { return static_cast<int>(writers_.size()); }

  void SetWriter(int slot, int r) { writers_[idx(r)].Set(slot); }
  void ClearWriter(int slot, int r) { writers_[idx(r)].Clear(slot); }
  void AddReader(int slot, int r) { readers_[idx(r)].Set(slot); }
  void ClearReader(int slot, int r) { readers_[idx(r)].Clear(slot); }

  [[nodiscard]] const PackedBits& writers(int r) const {
    return writers_[idx(r)];
  }
  [[nodiscard]] const PackedBits& readers(int r) const {
    return readers_[idx(r)];
  }

  /// dst |= readers(r) restricted to the cyclic slot range [lo, hi) that
  /// walks forward from @p lo with wraparound (empty when lo == hi). When a
  /// producer of r changes, only the readers between it and the *next*
  /// writer of r see a different source; marking just that span keeps the
  /// stale set proportional to the true dependence fan-out instead of every
  /// occurrence of r in the window.
  void OrReadersInCyclicRange(int r, int lo, int hi, PackedBits& dst) const {
    const PackedBits& rd = readers_[idx(r)];
    if (lo == hi) return;
    if (lo < hi) {
      PackedOrRangeInto(rd, lo, hi, dst);
    } else {
      PackedOrRangeInto(rd, lo, slots_, dst);
      PackedOrRangeInto(rd, 0, hi, dst);
    }
  }

  /// Nearest writer of @p r strictly following slot @p j in the cyclic
  /// program order that starts at @p oldest, or -1 when @p j has no younger
  /// in-flight writer of r. The affected-reader span after a producer
  /// change is (j, NearestWriterAfter(j)] -- the following writer itself is
  /// included because a station both reading and writing r resolves its
  /// read against the *previous* writer.
  [[nodiscard]] int NearestWriterAfter(int j, int r, int oldest) const {
    const PackedBits& w = writers_[idx(r)];
    if (j >= oldest) {
      const int k = LowestSetInRange(w, j + 1, slots_);
      if (k >= 0) return k;
      return LowestSetInRange(w, 0, oldest);
    }
    return LowestSetInRange(w, j + 1, oldest);
  }

  /// Nearest writer of @p r strictly preceding slot @p i in the cyclic
  /// order that starts at @p oldest (the stations preceding i are
  /// [oldest..i) walking forward with wraparound). Returns
  /// -1 when no in-flight writer precedes i -- the reader then takes the
  /// committed register file value.
  [[nodiscard]] int NearestWriterBefore(int i, int r, int oldest) const {
    const PackedBits& w = writers_[idx(r)];
    if (i == oldest) return -1;
    if (i > oldest) return HighestSetInRange(w, oldest, i);
    const int j = HighestSetInRange(w, 0, i);  // Wrapped segment, closest.
    if (j >= 0) return j;
    return HighestSetInRange(w, oldest, slots_);
  }

  /// Highest-slot writer of @p r, or -1. UltrascalarII's batch retire takes
  /// each register's final value from its last writer (its ring's oldest
  /// station is slot 0).
  [[nodiscard]] int HighestWriter(int r) const {
    const PackedBits& w = writers_[idx(r)];
    return HighestSetInRange(w, 0, slots_);
  }

  /// Clears every row (UltrascalarII resets the map wholesale at batch
  /// retire).
  void ClearAllRows() {
    for (PackedBits& w : writers_) w.ClearAll();
    for (PackedBits& rd : readers_) rd.ClearAll();
  }

 private:
  [[nodiscard]] std::size_t idx(int r) const {
    assert(r >= 0 && r < regs());
    return static_cast<std::size_t>(r);
  }

  int slots_ = 0;
  std::vector<PackedBits> writers_;
  std::vector<PackedBits> readers_;
};

}  // namespace ultra::datapath

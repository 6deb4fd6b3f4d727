// The 1-bit sequencing circuits of Figure 5.
//
// Each is a cyclic segmented parallel prefix with operator a AND b whose
// segment bit is raised by the oldest station: station i learns whether all
// stations from the oldest through i-1 satisfy a condition. The paper uses
// four instances: oldest-station computation (all preceding finished),
// store serialization (all preceding stores finished), load serialization
// (all preceding loads finished), and branch commitment (all preceding
// branches confirmed).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "datapath/bitset.hpp"
#include "datapath/usi.hpp"

namespace ultra::datapath {

class SequencingCspp {
 public:
  explicit SequencingCspp(int num_stations,
                          PrefixImpl impl = PrefixImpl::kTree)
      : n_(num_stations), impl_(impl) {}

  [[nodiscard]] int num_stations() const { return n_; }

  /// For each station i: AND of @p condition over stations oldest..i-1
  /// (cyclically). The value delivered to the oldest station itself wraps
  /// all the way around and is ignored by the oldest in the processors.
  [[nodiscard]] std::vector<std::uint8_t> AllPrecedingSatisfy(
      std::span<const std::uint8_t> condition, int oldest) const;

  /// AllPrecedingSatisfy into a caller-owned buffer (allocation-free).
  /// @p out may not alias @p condition.
  void AllPrecedingSatisfyInto(std::span<const std::uint8_t> condition,
                               int oldest, std::span<std::uint8_t> out) const;

  /// For each station i: OR of @p condition over stations oldest..i-1.
  /// ("Does any earlier station ..." -- used by memory renaming tests.)
  [[nodiscard]] std::vector<std::uint8_t> AnyPrecedingSatisfies(
      std::span<const std::uint8_t> condition, int oldest) const;

  /// AnyPrecedingSatisfies into a caller-owned buffer (allocation-free).
  /// @p out may not alias @p condition.
  void AnyPrecedingSatisfiesInto(std::span<const std::uint8_t> condition,
                                 int oldest,
                                 std::span<std::uint8_t> out) const;

  /// Critical-path gate depth of one evaluation.
  [[nodiscard]] int MeasureGateDepth(std::span<const std::uint8_t> condition,
                                     int oldest) const;

 private:
  int n_;
  PrefixImpl impl_;
};

/// Noncyclic variant, used by the Ideal baseline: position 0 sees true
/// (vacuously, for AND).
std::vector<std::uint8_t> AllPrecedingSatisfyAcyclic(
    std::span<const std::uint8_t> condition);

/// Acyclic variant into a caller-owned buffer (allocation-free). @p out may
/// not alias @p condition.
void AllPrecedingSatisfyAcyclicInto(std::span<const std::uint8_t> condition,
                                    std::span<std::uint8_t> out);

/// Word-parallel twins of the byte-lane circuits above: identical outputs
/// lane for lane (including the wrap-around value delivered to the oldest
/// station), evaluated 64 lanes per word op. A word whose condition lanes
/// are all satisfied costs one trailing-ones count instead of 64 scalar
/// AND steps. @p out may not alias @p condition and must match its size.
void PackedAllPrecedingSatisfyInto(const PackedBits& condition, int oldest,
                                   PackedBits& out);
void PackedAnyPrecedingSatisfiesInto(const PackedBits& condition, int oldest,
                                     PackedBits& out);

}  // namespace ultra::datapath

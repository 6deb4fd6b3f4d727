// Prioritized shared-ALU scheduler (Henry & Kuszmaul, Ultrascalar Memo 2;
// cited in Sections 1 and 7: "in the designs presented here, the ALU is
// replicated n times ... In practice, ALUs can be effectively shared ... We
// have shown how to implement efficient scheduling logic for a superscalar
// processor that shares ALUs [6]").
//
// The circuit is one more cyclic segmented parallel prefix, over integer
// counts instead of bits: every station wanting to start execution raises a
// request; the prefix sum from the oldest station ranks the requests in
// program order; a station is granted an ALU iff its rank is below the
// number of free ALUs. Oldest-first priority falls out of the prefix order.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "datapath/bitset.hpp"
#include "datapath/usi.hpp"

namespace ultra::datapath {

class AluScheduler {
 public:
  explicit AluScheduler(int num_stations,
                        PrefixImpl impl = PrefixImpl::kTree)
      : n_(num_stations), impl_(impl) {}

  [[nodiscard]] int num_stations() const { return n_; }

  /// Grants up to @p available ALUs to requesting stations, oldest first.
  /// @p requests[i] is 1 when station i is ready to begin execution this
  /// cycle. Returns grant flags.
  [[nodiscard]] std::vector<std::uint8_t> Grant(
      std::span<const std::uint8_t> requests, int available,
      int oldest) const;

  /// Grant into a caller-owned buffer (allocation-free): one rank walk from
  /// the oldest station replaces the prefix-sum vectors. @p grants may not
  /// alias @p requests.
  void GrantInto(std::span<const std::uint8_t> requests, int available,
                 int oldest, std::span<std::uint8_t> grants) const;

  /// Acyclic variant (program order = slot order, no wrap-around), used by
  /// the Ideal baseline.
  static std::vector<std::uint8_t> GrantAcyclic(
      std::span<const std::uint8_t> requests, int available);

  /// Acyclic grant into a caller-owned buffer (allocation-free). @p grants
  /// may not alias @p requests.
  static void GrantAcyclicInto(std::span<const std::uint8_t> requests,
                               int available,
                               std::span<std::uint8_t> grants);

  /// Word-parallel twin of GrantInto: identical grant lanes, but a fully
  /// grantable word costs one popcount instead of 64 rank steps, and once
  /// the free ALUs are exhausted whole words are zeroed at a time. @p grants
  /// may not alias @p requests and must match its size.
  void PackedGrantInto(const PackedBits& requests, int available, int oldest,
                       PackedBits& grants) const;

  /// Critical-path gate depth of one scheduling decision. The prefix nodes
  /// add log2(n)-bit numbers, so the depth is O(log n * log log n)-ish but
  /// measured, not assumed.
  [[nodiscard]] int MeasureGateDepth(std::span<const std::uint8_t> requests,
                                     int oldest) const;

 private:
  int n_;
  PrefixImpl impl_;
};

}  // namespace ultra::datapath

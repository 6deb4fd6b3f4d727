#include "datapath/sequencing.hpp"

#include <algorithm>
#include <cassert>

#include "circuit/circuit.hpp"

namespace ultra::datapath {

using circuit::Signal;

namespace {

std::vector<std::uint8_t> RunCyclic(std::span<const std::uint8_t> condition,
                                    int oldest, int n, bool use_or) {
  assert(condition.size() == static_cast<std::size_t>(n));
  assert(oldest >= 0 && oldest < n);
  std::vector<std::uint8_t> inputs(static_cast<std::size_t>(n));
  std::vector<std::uint8_t> segs(static_cast<std::size_t>(n), 0);
  for (int i = 0; i < n; ++i) {
    inputs[static_cast<std::size_t>(i)] =
        condition[static_cast<std::size_t>(i)] != 0;
  }
  segs[static_cast<std::size_t>(oldest)] = 1;
  const auto out =
      use_or ? circuit::CsppValues<std::uint8_t, circuit::OrOp>(inputs, segs)
             : circuit::CsppValues<std::uint8_t, circuit::AndOp>(inputs, segs);
  std::vector<std::uint8_t> result(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    result[static_cast<std::size_t>(i)] = out[static_cast<std::size_t>(i)];
  }
  return result;
}

// Allocation-free equivalent of RunCyclic: one carry walk from the oldest
// station's segment, writing each position's delivered prefix directly.
void RunCyclicInto(std::span<const std::uint8_t> condition, int oldest, int n,
                   bool use_or, std::span<std::uint8_t> out) {
  assert(condition.size() == static_cast<std::size_t>(n));
  assert(out.size() == static_cast<std::size_t>(n));
  assert(oldest >= 0 && oldest < n);
  assert(condition.empty() || out.data() != condition.data());
  std::uint8_t carry = 0;
  int i = oldest;
  for (int step = 0; step < n; ++step) {
    const bool c = condition[static_cast<std::size_t>(i)] != 0;
    if (step == 0) {
      carry = c;
    } else {
      carry = use_or ? (carry || c) : (carry && c);
    }
    i = i + 1 == n ? 0 : i + 1;
    out[static_cast<std::size_t>(i)] = carry;
  }
}

}  // namespace

std::vector<std::uint8_t> SequencingCspp::AllPrecedingSatisfy(
    std::span<const std::uint8_t> condition, int oldest) const {
  return RunCyclic(condition, oldest, n_, /*use_or=*/false);
}

void SequencingCspp::AllPrecedingSatisfyInto(
    std::span<const std::uint8_t> condition, int oldest,
    std::span<std::uint8_t> out) const {
  RunCyclicInto(condition, oldest, n_, /*use_or=*/false, out);
}

std::vector<std::uint8_t> SequencingCspp::AnyPrecedingSatisfies(
    std::span<const std::uint8_t> condition, int oldest) const {
  return RunCyclic(condition, oldest, n_, /*use_or=*/true);
}

void SequencingCspp::AnyPrecedingSatisfiesInto(
    std::span<const std::uint8_t> condition, int oldest,
    std::span<std::uint8_t> out) const {
  RunCyclicInto(condition, oldest, n_, /*use_or=*/true, out);
}

int SequencingCspp::MeasureGateDepth(std::span<const std::uint8_t> condition,
                                     int oldest) const {
  assert(condition.size() == static_cast<std::size_t>(n_));
  std::vector<Signal<bool>> inputs(static_cast<std::size_t>(n_));
  std::vector<Signal<bool>> segs(static_cast<std::size_t>(n_));
  for (int i = 0; i < n_; ++i) {
    inputs[static_cast<std::size_t>(i)] = {
        condition[static_cast<std::size_t>(i)] != 0, 0};
    segs[static_cast<std::size_t>(i)] = {i == oldest, 0};
  }
  const auto out =
      impl_ == PrefixImpl::kRing
          ? circuit::CsppRingEvaluate<bool, circuit::AndOp>(inputs, segs)
          : circuit::CsppTreeEvaluate<bool, circuit::AndOp>(inputs, segs);
  int worst = 0;
  for (const auto& s : out) worst = std::max(worst, s.depth);
  return worst;
}

namespace {

/// Shared walk for the packed cyclic prefixes: visits the n lanes in cyclic
/// order starting at @p oldest -- the rest of the oldest's word, the whole
/// words after it, the whole words before it, then the oldest's word below
/// the oldest -- delivering the exclusive prefix to every lane. The lane
/// delivered to the oldest itself is the full wrap-around reduction, exactly
/// as RunCyclicInto computes it.
template <bool kUseOr>
void PackedRunCyclicInto(const PackedBits& condition, int oldest,
                         PackedBits& out) {
  const int n = condition.size();
  assert(out.size() == n);
  assert(oldest >= 0 && oldest < n);
  assert(&out != &condition);
  bool carry = !kUseOr;  // AND identity = true, OR identity = false.
  const auto chunk = [&](int w, int lo, int hi) {
    if constexpr (kUseOr) {
      packed_internal::PrefixOrRange(condition.word(w), lo, hi, carry,
                                     out.word(w));
    } else {
      packed_internal::PrefixAndRange(condition.word(w), lo, hi, carry,
                                      out.word(w));
    }
  };
  const int nw = condition.num_words();
  const int w0 = oldest >> 6;
  const int lo0 = oldest & 63;
  const auto word_end = [n](int w) { return std::min(64, n - (w << 6)); };
  chunk(w0, lo0, word_end(w0));
  for (int w = w0 + 1; w < nw; ++w) chunk(w, 0, word_end(w));
  for (int w = 0; w < w0; ++w) chunk(w, 0, 64);  // Never the tail word.
  if (lo0 > 0) chunk(w0, 0, lo0);
  out.SetTo(oldest, carry);  // Full wrap-around reduction.
}

}  // namespace

void PackedAllPrecedingSatisfyInto(const PackedBits& condition, int oldest,
                                   PackedBits& out) {
  PackedRunCyclicInto</*kUseOr=*/false>(condition, oldest, out);
}

void PackedAnyPrecedingSatisfiesInto(const PackedBits& condition, int oldest,
                                     PackedBits& out) {
  PackedRunCyclicInto</*kUseOr=*/true>(condition, oldest, out);
}

std::vector<std::uint8_t> AllPrecedingSatisfyAcyclic(
    std::span<const std::uint8_t> condition) {
  std::vector<std::uint8_t> out(condition.size());
  AllPrecedingSatisfyAcyclicInto(condition, out);
  return out;
}

void AllPrecedingSatisfyAcyclicInto(std::span<const std::uint8_t> condition,
                                    std::span<std::uint8_t> out) {
  assert(out.size() == condition.size());
  assert(condition.empty() || out.data() != condition.data());
  std::uint8_t carry = 1;  // Vacuously true before position 0.
  for (std::size_t i = 0; i < condition.size(); ++i) {
    out[i] = carry;
    carry = static_cast<std::uint8_t>(carry && condition[i]);
  }
}

}  // namespace ultra::datapath

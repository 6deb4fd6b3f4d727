#include "datapath/scheduler.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include "circuit/circuit.hpp"

namespace ultra::datapath {

std::vector<std::uint8_t> AluScheduler::Grant(
    std::span<const std::uint8_t> requests, int available, int oldest) const {
  assert(requests.size() == static_cast<std::size_t>(n_));
  assert(oldest >= 0 && oldest < n_);
  std::vector<int> counts(static_cast<std::size_t>(n_));
  std::vector<std::uint8_t> segs(static_cast<std::size_t>(n_), 0);
  for (int i = 0; i < n_; ++i) {
    counts[static_cast<std::size_t>(i)] =
        requests[static_cast<std::size_t>(i)] ? 1 : 0;
  }
  segs[static_cast<std::size_t>(oldest)] = 1;
  // rank[i] = number of requesting stations from the oldest through i-1.
  const auto rank =
      circuit::CsppValues<int, circuit::AddOp>(counts, segs);
  std::vector<std::uint8_t> grants(static_cast<std::size_t>(n_), 0);
  for (int i = 0; i < n_; ++i) {
    // The oldest station's incoming value wraps around the whole ring;
    // its own rank is zero by definition.
    const int r = i == oldest ? 0 : rank[static_cast<std::size_t>(i)];
    grants[static_cast<std::size_t>(i)] =
        requests[static_cast<std::size_t>(i)] != 0 && r < available;
  }
  return grants;
}

void AluScheduler::GrantInto(std::span<const std::uint8_t> requests,
                             int available, int oldest,
                             std::span<std::uint8_t> grants) const {
  assert(requests.size() == static_cast<std::size_t>(n_));
  assert(grants.size() == static_cast<std::size_t>(n_));
  assert(oldest >= 0 && oldest < n_);
  assert(requests.empty() || grants.data() != requests.data());
  // Walking from the oldest station, the running request count IS the
  // prefix-sum rank each station would receive from the CSPP (the oldest's
  // own rank is zero by definition).
  int rank = 0;
  int i = oldest;
  for (int step = 0; step < n_; ++step) {
    const bool req = requests[static_cast<std::size_t>(i)] != 0;
    grants[static_cast<std::size_t>(i)] = req && rank < available;
    if (req) ++rank;
    i = i + 1 == n_ ? 0 : i + 1;
  }
}

std::vector<std::uint8_t> AluScheduler::GrantAcyclic(
    std::span<const std::uint8_t> requests, int available) {
  std::vector<std::uint8_t> grants(requests.size(), 0);
  GrantAcyclicInto(requests, available, grants);
  return grants;
}

void AluScheduler::GrantAcyclicInto(std::span<const std::uint8_t> requests,
                                    int available,
                                    std::span<std::uint8_t> grants) {
  assert(grants.size() == requests.size());
  assert(requests.empty() || grants.data() != requests.data());
  int rank = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    grants[i] = 0;
    if (requests[i] != 0) {
      grants[i] = rank < available;
      ++rank;
    }
  }
}

namespace {

/// Grants the lowest @p remaining set lanes of @p requests_chunk (already
/// shifted to lane 0) and returns the grant word; assumes
/// popcount(requests_chunk) > remaining.
std::uint64_t LowestSetBits(std::uint64_t requests_chunk, int remaining) {
  std::uint64_t grants = 0;
  for (int k = 0; k < remaining; ++k) {
    grants |= requests_chunk & (~requests_chunk + 1);
    requests_chunk &= requests_chunk - 1;
  }
  return grants;
}

/// One word-aligned chunk of the oldest-first grant walk: lanes [lo, hi) of
/// @p requests word @p rw. Fully grantable chunks cost one popcount;
/// exhausted chunks clear their lanes wholesale.
void GrantRange(std::uint64_t rw, int lo, int hi, int available, int& rank,
                std::uint64_t& grants_word) {
  const int width = hi - lo;
  const std::uint64_t width_mask =
      width == 64 ? ~0ULL : ((1ULL << width) - 1);
  const std::uint64_t req = (rw >> lo) & width_mask;
  const int remaining = available - rank;
  std::uint64_t g;
  if (remaining <= 0) {
    g = 0;
  } else if (std::popcount(req) <= remaining) {
    g = req;
  } else {
    g = LowestSetBits(req, remaining);
  }
  grants_word = (grants_word & ~(width_mask << lo)) | (g << lo);
  rank += std::popcount(req);
}

}  // namespace

void AluScheduler::PackedGrantInto(const PackedBits& requests, int available,
                                   int oldest, PackedBits& grants) const {
  const int n = n_;
  assert(requests.size() == n && grants.size() == n);
  assert(oldest >= 0 && oldest < n);
  assert(&grants != &requests);
  int rank = 0;
  int pos = oldest;
  int processed = 0;
  while (processed < n) {
    const int w = pos >> 6;
    const int lo = pos & 63;
    int hi = std::min(64, n - (w << 6));
    hi = std::min(hi, lo + (n - processed));
    GrantRange(requests.word(w), lo, hi, available, rank, grants.word(w));
    processed += hi - lo;
    pos = (w << 6) + hi;
    if (pos >= n) pos = 0;
  }
}

int AluScheduler::MeasureGateDepth(std::span<const std::uint8_t> requests,
                                   int oldest) const {
  assert(requests.size() == static_cast<std::size_t>(n_));
  std::vector<circuit::Signal<int>> inputs(static_cast<std::size_t>(n_));
  std::vector<circuit::Signal<bool>> segs(static_cast<std::size_t>(n_));
  for (int i = 0; i < n_; ++i) {
    inputs[static_cast<std::size_t>(i)] = {
        requests[static_cast<std::size_t>(i)] ? 1 : 0, 0};
    segs[static_cast<std::size_t>(i)] = {i == oldest, 0};
  }
  const auto out =
      impl_ == PrefixImpl::kRing
          ? circuit::CsppRingEvaluate<int, circuit::AddOp>(inputs, segs)
          : circuit::CsppTreeEvaluate<int, circuit::AddOp>(inputs, segs);
  int worst = 0;
  for (const auto& s : out) {
    worst = std::max(worst, s.depth);
  }
  // Comparing the rank against the free-ALU count costs one comparator over
  // log2(n)-bit numbers.
  return worst + circuit::ComparatorDepth(circuit::CeilLog2(n_ + 1));
}

}  // namespace ultra::datapath

// Writes digests.txt: the reference RunResult digest of every faulted
// kPacked point of sweep_fault_telemetry, for every seed class. The
// reference is the incremental evaluation path, which packed mode must
// match byte for byte under fault plans.
//
//   perfbench_digests > perfbench/digests.txt
#include <algorithm>
#include <cstdio>

#include "bench.hpp"

int main() {
  using namespace perfbench;
  Tracer off(false);
  std::vector<std::pair<std::string, std::uint64_t>> lines;
  for (std::uint64_t cls = 0; cls < kDigestSeedClasses; ++cls) {
    const FaultTelemetryInputs in = MakeFaultTelemetryInputs(cls, off, -1);
    std::vector<BenchPoint> digest_points = in.packed_fault_points;
    for (BenchPoint& bp : digest_points) {
      bp.point.config.datapath_eval = ultra::core::DatapathEval::kIncremental;
    }
    ultra::runtime::SweepOptions options;
    options.num_threads = 4;
    const auto outcomes =
        ultra::runtime::SweepRunner(options).Run(PointsOf(digest_points));
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      if (!outcomes[i].ok) {
        std::fprintf(stderr, "%s: %s\n", digest_points[i].digest_key.c_str(),
                     outcomes[i].error.c_str());
        return 1;
      }
      lines.emplace_back(digest_points[i].digest_key,
                         DigestRunResult(outcomes[i].result));
    }
  }
  std::sort(lines.begin(), lines.end());
  std::printf(
      "# Reference digests of the faulted kPacked points of "
      "sweep_fault_telemetry,\n# from the incremental evaluation path. "
      "Regenerate with perfbench_digests.\n");
  for (const auto& [key, digest] : lines) {
    std::printf("%s = %016llx\n", key.c_str(),
                static_cast<unsigned long long>(digest));
  }
  return 0;
}

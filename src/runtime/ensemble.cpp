#include "runtime/ensemble.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "core/config_codec.hpp"
#include "isa/program_codec.hpp"

namespace ultra::runtime {

std::vector<EnsembleGroup> GroupByProgram(
    const std::vector<SweepPoint>& points) {
  std::vector<EnsembleGroup> groups;
  // (fingerprint, num_regs) -> position in groups. An ordered map keyed by
  // value, but groups are *emitted* in first-member order, so the result
  // does not depend on map iteration.
  std::map<std::pair<std::uint64_t, int>, std::size_t> by_key;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const SweepPoint& p = points[i];
    if (!p.program) {
      // Null programs fail individually in the runner; never batch them.
      groups.push_back(EnsembleGroup{0, p.config.num_regs, {i}});
      continue;
    }
    const std::pair<std::uint64_t, int> key{isa::FingerprintProgram(*p.program),
                                            p.config.num_regs};
    const auto it = by_key.find(key);
    if (it == by_key.end()) {
      by_key.emplace(key, groups.size());
      groups.push_back(EnsembleGroup{key.first, key.second, {i}});
    } else {
      groups[it->second].members.push_back(i);
    }
  }
  return groups;
}

bool PointsInterchangeable(const SweepPoint& a, const SweepPoint& b) {
  return a.kind == b.kind &&
         a.config.fault_plan == b.config.fault_plan &&
         a.config.telemetry == nullptr && b.config.telemetry == nullptr &&
         a.config.checkpoint == nullptr && b.config.checkpoint == nullptr &&
         a.config.cancel == nullptr && b.config.cancel == nullptr &&
         core::FingerprintConfig(a.config) == core::FingerprintConfig(b.config);
}

EnsembleSchedule BuildEnsembleSchedule(const std::vector<SweepPoint>& points,
                                       bool check_architectural_state) {
  EnsembleSchedule schedule;
  schedule.groups = GroupByProgram(points);
  schedule.leader.resize(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) schedule.leader[i] = i;

  for (std::size_t g = 0; g < schedule.groups.size(); ++g) {
    const EnsembleGroup& group = schedule.groups[g];
    bool wants_oracle = false;
    // Leaders elected so far within this group, in submission order. The
    // scan is quadratic in distinct configurations per group, which sweeps
    // keep small; the fingerprint comparison makes each probe cheap.
    std::vector<std::size_t> leaders;
    for (const std::size_t i : group.members) {
      const SweepPoint& p = points[i];
      if (check_architectural_state ||
          p.config.predictor == core::PredictorKind::kOracle) {
        wants_oracle = true;
      }
      bool matched = false;
      for (const std::size_t j : leaders) {
        if (PointsInterchangeable(points[j], p)) {
          schedule.leader[i] = j;
          matched = true;
          break;
        }
      }
      if (!matched) {
        leaders.push_back(i);
        schedule.run_order.push_back(i);
      }
    }
    if (wants_oracle && points[group.members.front()].program) {
      schedule.warm_groups.push_back(g);
    }
  }
  return schedule;
}

std::vector<std::size_t> OrderLongestFirst(const std::vector<SweepPoint>& points,
                                           std::vector<std::size_t> order) {
  std::stable_sort(order.begin(), order.end(),
                   [&points](std::size_t a, std::size_t b) {
                     return points[a].config.window_size >
                            points[b].config.window_size;
                   });
  return order;
}

}  // namespace ultra::runtime

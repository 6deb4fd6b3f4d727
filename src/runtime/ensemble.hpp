// Ensemble batching for sweeps: grouping same-program points so shared
// work is paid once per program instead of once per point.
//
// A sweep is typically (few programs) x (many configurations). Points that
// share a program also share every program-derived artifact: the functional
// pre-run (oracle predictor outcome tables, architectural-state expecta-
// tions) and the decoded instruction stream itself. Ensemble batching
// exploits that structure in three deterministic steps:
//
//   1. Group points by program content (and register-file size, which is
//      part of the functional-oracle key).
//   2. Warm the functional oracle once per group before the members run,
//      and list each group's members adjacently. The runner then orders
//      the work widest window first (OrderLongestFirst), so a group stays
//      adjacent only within one window-size class.
//   3. Within a group, members that are *identical points* (same processor
//      kind and semantically identical configuration) form a lockstep
//      sub-ensemble: the simulation is deterministic, so every lane of the
//      sub-ensemble produces byte-identical results and only the leader
//      actually runs. Followers adopt the leader's result.
//
// None of this changes any outcome: exports are byte-identical with
// batching on or off (see SweepOptions::ensemble_batching). Only wall-clock
// and the runner's operational metrics differ.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "runtime/sweep_runner.hpp"

namespace ultra::runtime {

/// One same-program group of sweep points, in submission order.
struct EnsembleGroup {
  std::uint64_t program_fingerprint = 0;
  int num_regs = 0;
  /// Submission indices of the member points, ascending.
  std::vector<std::size_t> members;
};

/// Partitions @p points into same-program groups, keyed by program content
/// (isa::FingerprintProgram) plus the register-file size. Groups are ordered
/// by their first member's submission index; members stay ascending. Points
/// with a null program each form their own group (they fail in the runner
/// with a per-point error, and must not batch with anything).
[[nodiscard]] std::vector<EnsembleGroup> GroupByProgram(
    const std::vector<SweepPoint>& points);

/// True when @p a and @p b are interchangeable simulation points: same
/// processor kind, semantically identical configuration (FingerprintConfig),
/// the same fault plan (pointer identity -- plans are injected state), and
/// no caller-attached telemetry/checkpoint/cancel hooks, which would
/// observe the runs individually. Both points must already share a program
/// (callers only ask within a group). Workload labels may differ: they are
/// per-outcome metadata, not simulation inputs.
[[nodiscard]] bool PointsInterchangeable(const SweepPoint& a,
                                         const SweepPoint& b);

/// The batched execution plan for one sweep.
struct EnsembleSchedule {
  /// The same-program groups, in first-member order (see GroupByProgram).
  std::vector<EnsembleGroup> groups;
  /// Submission indices to actually simulate, same-program groups adjacent.
  /// Contains every group leader and every non-duplicate member.
  std::vector<std::size_t> run_order;
  /// leader[i] == i for points that run; leader[i] == j (j < i) marks point
  /// i as a lockstep follower of leader j, adopting j's result.
  std::vector<std::size_t> leader;
  /// Indices into groups of the groups whose members consult the
  /// functional oracle and should be pre-warmed.
  std::vector<std::size_t> warm_groups;
};

/// Builds the execution plan: groups by program, elects the first of each
/// set of interchangeable points as its lockstep leader, and lists the
/// groups whose members consult the functional oracle (an oracle branch
/// predictor, or @p check_architectural_state) for pre-warming. Entirely
/// deterministic: depends only on the points and the flag, never on
/// scheduling.
[[nodiscard]] EnsembleSchedule BuildEnsembleSchedule(
    const std::vector<SweepPoint>& points, bool check_architectural_state);

/// Returns @p order (submission indices into @p points) stably sorted by
/// window size, widest first. A point's cost grows about linearly with its
/// window, so handing out the widest points first keeps a sweep from ending
/// on one long point while the other workers sit idle. Ties keep their
/// order in @p order, so same-program groups stay adjacent within each
/// window-size class. Depends only on the points, never on scheduling, and
/// changes no outcome: the runner writes outcomes by submission index.
[[nodiscard]] std::vector<std::size_t> OrderLongestFirst(
    const std::vector<SweepPoint>& points, std::vector<std::size_t> order);

}  // namespace ultra::runtime

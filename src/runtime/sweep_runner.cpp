#include "runtime/sweep_runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>

#include "core/env.hpp"
#include "core/functional_sim_cache.hpp"
#include "persist/journal.hpp"
#include "runtime/ensemble.hpp"
#include "runtime/repro_bundle.hpp"
#include "runtime/sweep_journal.hpp"
#include "telemetry/telemetry.hpp"

namespace ultra::runtime {

int DefaultThreadCount() {
  if (const auto n = core::ParseEnvInt("ULTRA_SWEEP_THREADS", 1, 4096)) {
    return static_cast<int>(*n);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

namespace {

std::string SummarizeFailures(
    const std::vector<ParallelForError::Failure>& failures) {
  std::ostringstream os;
  os << failures.size() << " iteration" << (failures.size() == 1 ? "" : "s")
     << " failed:";
  const std::size_t shown = std::min<std::size_t>(failures.size(), 3);
  for (std::size_t i = 0; i < shown; ++i) {
    os << " [" << failures[i].index;
    if (!failures[i].context.empty()) os << ' ' << failures[i].context;
    os << "] " << failures[i].message << ';';
  }
  if (failures.size() > shown) {
    os << " ... (" << failures.size() - shown << " more)";
  }
  return os.str();
}

}  // namespace

ParallelForError::ParallelForError(std::vector<Failure> failures)
    : std::runtime_error(SummarizeFailures(failures)),
      failures_(std::move(failures)) {}

void ParallelFor(int num_threads, std::size_t count,
                 const std::function<void(std::size_t)>& body) {
  ParallelFor(num_threads, count, body, nullptr);
}

void ParallelFor(int num_threads, std::size_t count,
                 const std::function<void(std::size_t)>& body,
                 const std::function<std::string(std::size_t)>& describe) {
  if (num_threads <= 0) num_threads = DefaultThreadCount();
  if (count == 0) return;

  // The label is computed only on the failure path: describe may allocate,
  // and the happy path should not pay for it.
  const auto context_of = [&describe](std::size_t i) -> std::string {
    if (!describe) return {};
    try {
      return describe(i);
    } catch (...) {
      return {};  // A broken describe must not mask the real failure.
    }
  };
  std::vector<ParallelForError::Failure> failures;
  const auto run_one = [&body, &context_of](std::size_t i)
      -> std::optional<ParallelForError::Failure> {
    try {
      body(i);
      return std::nullopt;
    } catch (const std::exception& e) {
      return ParallelForError::Failure{i, e.what(), context_of(i)};
    } catch (...) {
      return ParallelForError::Failure{i, "unknown error", context_of(i)};
    }
  };

  if (num_threads == 1 || count == 1) {
    for (std::size_t i = 0; i < count; ++i) {
      if (auto f = run_one(i)) failures.push_back(std::move(*f));
    }
  } else {
    std::atomic<std::size_t> next{0};
    std::mutex failures_mu;
    const auto worker = [&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= count) return;
        if (auto f = run_one(i)) {
          std::lock_guard<std::mutex> lock(failures_mu);
          failures.push_back(std::move(*f));
        }
      }
    };
    const std::size_t spawn =
        std::min<std::size_t>(static_cast<std::size_t>(num_threads), count);
    std::vector<std::thread> threads;
    threads.reserve(spawn);
    for (std::size_t t = 0; t < spawn; ++t) threads.emplace_back(worker);
    for (auto& th : threads) th.join();
  }

  if (!failures.empty()) {
    // Completion order is nondeterministic; index order is not.
    std::sort(failures.begin(), failures.end(),
              [](const auto& a, const auto& b) { return a.index < b.index; });
    throw ParallelForError(std::move(failures));
  }
}

namespace {

/// Compares a cycle-level run against the shared functional oracle.
/// Returns an empty string on agreement.
std::string CheckArchitecturalState(const SweepPoint& point,
                                    const core::RunResult& result) {
  const auto fn = core::FunctionalSimCache::Global().Get(
      *point.program, point.config.num_regs);
  if (!fn->halted) return {};  // No terminating reference to compare to.
  if (!result.halted) {
    return "processor hit max_cycles but the functional reference halts";
  }
  std::ostringstream err;
  if (result.committed != fn->instructions) {
    err << "committed " << result.committed << " instructions, expected "
        << fn->instructions;
    return err.str();
  }
  for (std::size_t r = 0; r < fn->regs.size(); ++r) {
    if (result.regs.at(r) != fn->regs[r]) {
      err << "r" << r << " = " << result.regs.at(r) << ", expected "
          << fn->regs[r];
      return err.str();
    }
  }
  if (result.memory != fn->memory.Snapshot()) {
    return "final data memory differs from the functional reference";
  }
  return {};
}

/// Deterministic per-(point, attempt) jitter in [0.5, 1.5): a SplitMix-style
/// hash, not a global RNG, so the sweep's behavior is reproducible and
/// independent of scheduling.
double BackoffJitter(std::size_t index, int attempt) {
  std::uint64_t h = (static_cast<std::uint64_t>(index) + 1) *
                    0x9E3779B97F4A7C15ULL;
  h ^= static_cast<std::uint64_t>(attempt) * 0xBF58476D1CE4E5B9ULL;
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDULL;
  h ^= h >> 33;
  return 0.5 + static_cast<double>(h >> 11) * 0x1.0p-53;
}

std::int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Per-point watchdog slot: the worker arms deadline_ns before a run and
/// disarms it after; the watchdog thread raises cancel once the armed
/// deadline passes.
struct PointWatch {
  std::atomic<bool> cancel{false};
  std::atomic<std::int64_t> deadline_ns{0};  // 0 = disarmed.
};

/// Bucket edges for sweep.point_wall_time_us: decades from 100us to 1min.
constexpr std::uint64_t kWallTimeBoundsUs[] = {
    100, 1'000, 10'000, 100'000, 1'000'000, 10'000'000, 60'000'000};

/// Pre-registered handles for the runner's own metrics. Registration
/// happens on the calling thread before the workers start; each worker
/// then writes its own per-point shard, so no slot is ever contended.
struct RunnerMetrics {
  telemetry::MetricsRegistry registry;
  telemetry::CounterId attempts = registry.Counter("sweep.attempts");
  telemetry::CounterId retries = registry.Counter("sweep.retries");
  telemetry::CounterId deadline_exceeded =
      registry.Counter("sweep.deadline_exceeded");
  telemetry::CounterId cancelled_points =
      registry.Counter("sweep.cancelled_points");
  telemetry::CounterId failed_points = registry.Counter("sweep.failed_points");
  telemetry::CounterId backoff_wait_us =
      registry.Counter("sweep.backoff_wait_us");
  telemetry::CounterId oracle_prewarms =
      registry.Counter("sweep.oracle_prewarms");
  telemetry::CounterId ensemble_followers =
      registry.Counter("sweep.ensemble_followers");
  telemetry::HistogramId point_wall_time_us =
      registry.Histogram("sweep.point_wall_time_us", kWallTimeBoundsUs);
  telemetry::CounterId cache_hits = registry.Counter("fnsim_cache.hits");
  telemetry::CounterId cache_misses = registry.Counter("fnsim_cache.misses");
  telemetry::CounterId cache_evictions =
      registry.Counter("fnsim_cache.evictions");
};

}  // namespace

std::vector<const SweepOutcome*> Quarantine(
    const std::vector<SweepOutcome>& outcomes) {
  std::vector<const SweepOutcome*> bad;
  for (const SweepOutcome& o : outcomes) {
    if (!o.ok) bad.push_back(&o);
  }
  return bad;
}

SweepRunner::SweepRunner(SweepOptions options)
    : options_(options),
      num_threads_(options.num_threads > 0 ? options.num_threads
                                           : DefaultThreadCount()) {}

std::vector<SweepOutcome> SweepRunner::Run(
    const std::vector<SweepPoint>& points) const {
  return RunWithReport(points).outcomes;
}

SweepReport SweepRunner::RunWithReport(
    const std::vector<SweepPoint>& points) const {
  return RunImpl(points, nullptr, nullptr);
}

SweepReport SweepRunner::RunJournaled(const std::vector<SweepPoint>& points,
                                      const std::string& journal_path) const {
  persist::JournalWriter journal(journal_path, /*truncate=*/true);
  journal.Append(kJournalRecHeader,
                 EncodeJournalHeader(FingerprintSweep(points, options_),
                                     points.size()));
  return RunImpl(points, &journal, nullptr);
}

SweepReport SweepRunner::Resume(const std::vector<SweepPoint>& points,
                                const std::string& journal_path) const {
  const SweepJournalContents contents = ReadSweepJournal(journal_path);
  if (!contents.has_header) {
    // Missing, empty, or torn-before-the-header journal: nothing to trust,
    // start a fresh journaled sweep.
    return RunJournaled(points, journal_path);
  }
  if (contents.sweep_fingerprint != FingerprintSweep(points, options_) ||
      contents.point_count != points.size()) {
    throw std::runtime_error(
        "sweep journal '" + journal_path +
        "' was written for a different sweep (fingerprint mismatch); "
        "refusing to mix results");
  }
  std::unordered_map<std::size_t, SweepOutcome> completed;
  for (const SweepOutcome& o : contents.outcomes) {
    if (o.index < points.size()) completed.insert_or_assign(o.index, o);
  }
  // Reclaim a torn or corrupt tail before reopening for append: O_APPEND
  // would land new records after the garbage, and readers (which stop at
  // the first bad frame) would never see them — silently orphaned work.
  persist::RepairJournal(journal_path);
  persist::JournalWriter journal(journal_path, /*truncate=*/false);
  return RunImpl(points, &journal, &completed);
}

SweepReport SweepRunner::RunImpl(
    const std::vector<SweepPoint>& points, persist::JournalWriter* journal,
    const std::unordered_map<std::size_t, SweepOutcome>* completed) const {
  SweepReport report;
  std::vector<SweepOutcome>& outcomes = report.outcomes;
  outcomes.resize(points.size());
  const double deadline_s = options_.point_deadline_seconds;
  const int max_attempts = std::max(1, options_.max_attempts);

  // Runner metrics: handles are registered here (cold path, calling
  // thread); every point gets its own shard so workers never share a slot,
  // and the shards merge in submission order after the join.
  RunnerMetrics rm;
  std::vector<telemetry::MetricSheet> shards(points.size());
  const core::FunctionalSimCache::Stats cache_before =
      core::FunctionalSimCache::Global().stats();

  // Deadline watchdog: one background thread scans the armed slots. The
  // cores poll CoreConfig::cancel every 1024 cycles, so enforcement is
  // cooperative (a few microseconds of slack, never a torn simulation).
  // The same thread fans a sweep-level cancel (SweepOptions::cancel, raised
  // by a cancelled service request or a draining daemon) into every
  // per-point slot, so one flag cooperatively stops the whole sweep.
  const std::atomic<bool>* sweep_cancel = options_.cancel;
  const bool watched = deadline_s > 0 || sweep_cancel != nullptr;
  std::vector<PointWatch> watch(watched ? points.size() : 0);
  std::atomic<bool> watchdog_stop{false};
  std::thread watchdog;
  if (watched && !points.empty()) {
    watchdog = std::thread([&] {
      while (!watchdog_stop.load(std::memory_order_acquire)) {
        const bool cancel_all =
            sweep_cancel != nullptr &&
            sweep_cancel->load(std::memory_order_acquire);
        const std::int64_t now = SteadyNowNs();
        for (PointWatch& w : watch) {
          const std::int64_t d = w.deadline_ns.load(std::memory_order_acquire);
          if (cancel_all || (d != 0 && now >= d)) {
            w.cancel.store(true, std::memory_order_release);
          }
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });
  }

  std::mutex journal_mu;
  const auto body = [&](std::size_t i) {
    const SweepPoint& point = points[i];
    SweepOutcome& out = outcomes[i];
    if (completed != nullptr) {
      const auto it = completed->find(i);
      if (it != completed->end()) {
        // Restored from the journal: identical exported fields, no re-run,
        // no re-journal. The config is re-attached from the point (the
        // journal omits it; the sweep fingerprint proved it matches).
        out = it->second;
        out.config = point.config;
        return;
      }
    }
    out.index = i;
    out.kind = point.kind;
    out.workload = point.workload;
    out.config = point.config;
    telemetry::MetricSheet& shard = shards[i];
    shard.Bind(&rm.registry);
    PointWatch* w = watched ? &watch[i] : nullptr;
    const auto sweep_cancelled = [&] {
      return sweep_cancel != nullptr &&
             sweep_cancel->load(std::memory_order_acquire);
    };
    const auto sweep_draining = [&] {
      return options_.drain != nullptr &&
             options_.drain->load(std::memory_order_acquire);
    };
    const bool want_bundle = !options_.bundle_dir.empty();
    const bool want_ckpt = want_bundle && options_.checkpoint_every > 0;
    std::optional<persist::Checkpoint> last_ckpt;
    const auto start = std::chrono::steady_clock::now();
    for (int attempt = 1; attempt <= max_attempts; ++attempt) {
      if (sweep_cancelled() || sweep_draining()) {
        // Cancelled, or draining before the point's first attempt began:
        // don't spend simulation time on work nobody will read. (A retry
        // under drain is also skipped — the point already failed once and
        // a draining sweep owes it nothing.)
        out.ok = false;
        out.cancelled = true;
        out.error = "cancelled";
        break;
      }
      out.attempts = attempt;
      out.deadline_exceeded = false;
      out.cancelled = false;
      std::string err;
      bool retryable = true;
      try {
        if (!point.program) throw std::invalid_argument("null program");
        core::CoreConfig cfg = point.config;
        // A fresh sink per attempt: a retried attempt must not inherit the
        // failed attempt's counts, and the simulation is single-threaded,
        // so the sink never crosses a thread.
        telemetry::RunTelemetry rt;
        if (options_.collect_metrics) cfg.telemetry = &rt;
        // Periodic in-memory checkpoints so a failing attempt's bundle can
        // carry the state nearest the failure. Reset per attempt: the
        // bundle documents the *last* (failing) attempt.
        persist::CheckpointControl ckpt_ctl;
        if (want_ckpt) {
          last_ckpt.reset();
          ckpt_ctl.save_every = options_.checkpoint_every;
          ckpt_ctl.sink = [&last_ckpt](persist::Checkpoint&& c) {
            last_ckpt = std::move(c);
          };
          cfg.checkpoint = &ckpt_ctl;
        }
        if (w) {
          w->cancel.store(false, std::memory_order_release);
          cfg.cancel = &w->cancel;
          if (deadline_s > 0) {
            w->deadline_ns.store(
                SteadyNowNs() + static_cast<std::int64_t>(deadline_s * 1e9),
                std::memory_order_release);
          }
        }
        auto proc = core::MakeProcessor(point.kind, cfg);
        out.result = proc->Run(*point.program);
        if (options_.collect_metrics) out.metrics = rt.Snapshot();
        if (w) w->deadline_ns.store(0, std::memory_order_release);
        if (w && !out.result.halted &&
            w->cancel.load(std::memory_order_acquire)) {
          if (sweep_cancelled()) {
            // Sweep-level cancel, not this point's deadline: the partial
            // run is abandoned and will be redone if the sweep resumes.
            out.cancelled = true;
            err = "cancelled";
            retryable = false;
          } else {
            out.deadline_exceeded = true;
            std::ostringstream os;
            os << "deadline exceeded (" << deadline_s << "s) after "
               << out.result.cycles << " cycles";
            err = os.str();
          }
        } else if (options_.check_architectural_state) {
          err = CheckArchitecturalState(point, out.result);
          retryable = err.empty();  // An oracle mismatch is deterministic.
        }
      } catch (const std::invalid_argument& e) {
        err = e.what();
        retryable = false;  // Rejected configs fail identically every time.
      } catch (const std::exception& e) {
        err = e.what();
        if (err.empty()) err = "unknown error";
      } catch (...) {
        err = "unknown error";
      }
      if (w) w->deadline_ns.store(0, std::memory_order_release);
      if (out.deadline_exceeded) shard.Add(rm.deadline_exceeded);
      if (err.empty()) {
        out.ok = true;
        out.error.clear();
        break;
      }
      out.ok = false;
      out.error = err;
      out.attempt_errors.push_back(std::move(err));
      if (!retryable || attempt == max_attempts) break;
      const double delay = options_.retry_backoff_seconds *
                           static_cast<double>(1 << (attempt - 1)) *
                           BackoffJitter(i, attempt);
      if (delay > 0) {
        shard.Add(rm.backoff_wait_us,
                  static_cast<std::uint64_t>(delay * 1e6));
        std::this_thread::sleep_for(std::chrono::duration<double>(delay));
      }
    }
    out.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    if (out.cancelled) shard.Add(rm.cancelled_points);
    shard.Add(rm.attempts, static_cast<std::uint64_t>(out.attempts));
    if (out.attempts > 1) {
      shard.Add(rm.retries, static_cast<std::uint64_t>(out.attempts - 1));
    }
    if (!out.ok) shard.Add(rm.failed_points);
    shard.Observe(rm.point_wall_time_us,
                  static_cast<std::uint64_t>(out.wall_seconds * 1e6));
    if (!out.ok && want_bundle && point.program) {
      // Best-effort: a full disk or unwritable bundle_dir must not turn a
      // recorded failure into a sweep abort.
      try {
        WriteReproBundle(options_.bundle_dir, point, out,
                         last_ckpt ? &*last_ckpt : nullptr);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "repro bundle for point %zu failed: %s\n", i,
                     e.what());
      }
    }
    if (journal != nullptr && !out.cancelled) {
      // Journal failures DO propagate (via ParallelForError after the
      // loop): a resume contract against a silently un-written journal
      // would be worse than a loud error. Cancelled points are never
      // journaled: recording them would make a resumed sweep keep the
      // cancellation instead of running the point for real.
      persist::Encoder e;
      EncodeOutcome(e, out);
      const std::lock_guard<std::mutex> lock(journal_mu);
      journal->Append(kJournalRecOutcome, e.bytes());
    }
  };
  const auto describe = [&points](std::size_t i) {
    return points[i].workload + " (" +
           std::string(core::ProcessorKindName(points[i].kind)) + ")";
  };

  // Ensemble batching (runtime/ensemble.hpp): group same-program points,
  // warm the functional oracle once per group, and elect lockstep leaders
  // among interchangeable points. Outcomes are byte-identical with batching
  // on or off; with it off every point leads itself.
  EnsembleSchedule schedule;
  if (options_.ensemble_batching && points.size() > 1) {
    schedule =
        BuildEnsembleSchedule(points, options_.check_architectural_state);
  } else {
    schedule.leader.resize(points.size());
    schedule.run_order.reserve(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
      schedule.leader[i] = i;
      schedule.run_order.push_back(i);
    }
  }
  const auto restored = [&completed](std::size_t i) {
    return completed != nullptr && completed->count(i) != 0;
  };
  std::size_t prewarms = 0;
  if (!schedule.warm_groups.empty()) {
    std::vector<std::size_t> warm;  // Submission index of each warm target.
    for (const std::size_t g : schedule.warm_groups) {
      const EnsembleGroup& group = schedule.groups[g];
      const bool any_to_run =
          std::any_of(group.members.begin(), group.members.end(),
                      [&](std::size_t i) { return !restored(i); });
      if (any_to_run) warm.push_back(group.members.front());
    }
    prewarms = warm.size();
    ParallelFor(num_threads_, warm.size(), [&](std::size_t k) {
      const SweepPoint& p = points[warm[k]];
      try {
        core::FunctionalSimCache::Global().Get(*p.program, p.config.num_regs);
      } catch (...) {
        // Best-effort: the owning point reports the real error when it runs.
      }
    });
  }

  // Followers restored from the journal must restore through body (it
  // copies the journaled outcome); followers that are not restored are
  // filled in from their leader after the join. Batched or not, points are
  // handed out widest window first, so the sweep does not end with the
  // other workers idle behind a late n=1024 point.
  std::vector<std::size_t> run_list = schedule.run_order;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (schedule.leader[i] != i && restored(i)) run_list.push_back(i);
  }
  run_list = OrderLongestFirst(points, std::move(run_list));

  const auto run_indices = [&](const std::vector<std::size_t>& indices) {
    try {
      ParallelFor(
          num_threads_, indices.size(),
          [&](std::size_t j) { body(indices[j]); },
          [&](std::size_t j) { return describe(indices[j]); });
    } catch (const ParallelForError& e) {
      // ParallelFor numbers failures by run-list position; callers index
      // `points` by submission index.
      std::vector<ParallelForError::Failure> failures = e.failures();
      for (ParallelForError::Failure& f : failures) f.index = indices[f.index];
      std::sort(failures.begin(), failures.end(),
                [](const auto& a, const auto& b) { return a.index < b.index; });
      throw ParallelForError(std::move(failures));
    }
  };
  try {
    run_indices(run_list);

    // Lockstep followers: the simulation is deterministic, so a follower of
    // a successful leader adopts its result outright. A failed leader may
    // have failed transiently (deadline, exception), so its followers run
    // for real rather than inheriting a failure they might not reproduce.
    std::vector<std::size_t> rerun;
    for (std::size_t i = 0; i < points.size(); ++i) {
      const std::size_t lead = schedule.leader[i];
      if (lead == i || restored(i)) continue;
      const SweepOutcome& leader_out = outcomes[lead];
      if (!leader_out.ok) {
        rerun.push_back(i);
        continue;
      }
      SweepOutcome& out = outcomes[i];
      out = leader_out;
      out.index = i;
      out.workload = points[i].workload;
      out.config = points[i].config;
      out.wall_seconds = 0.0;  // Informational; the follower did not run.
      telemetry::MetricSheet& shard = shards[i];
      shard.Bind(&rm.registry);
      shard.Add(rm.ensemble_followers);
      if (journal != nullptr) {
        persist::Encoder e;
        EncodeOutcome(e, out);
        const std::lock_guard<std::mutex> lock(journal_mu);
        journal->Append(kJournalRecOutcome, e.bytes());
      }
    }
    run_indices(rerun);
  } catch (...) {
    // Journal I/O failures surface as ParallelForError; the watchdog must
    // still be torn down before the exception leaves this frame.
    watchdog_stop.store(true, std::memory_order_release);
    if (watchdog.joinable()) watchdog.join();
    throw;
  }

  watchdog_stop.store(true, std::memory_order_release);
  if (watchdog.joinable()) watchdog.join();

  // Aggregate the per-point shards in submission order, then fold in the
  // process-wide functional-sim cache delta observed across this sweep.
  telemetry::MetricSheet total(&rm.registry);
  for (const telemetry::MetricSheet& shard : shards) total.MergeFrom(shard);
  total.Add(rm.oracle_prewarms, prewarms);
  const core::FunctionalSimCache::Stats cache_after =
      core::FunctionalSimCache::Global().stats();
  total.Add(rm.cache_hits, cache_after.hits - cache_before.hits);
  total.Add(rm.cache_misses, cache_after.misses - cache_before.misses);
  total.Add(rm.cache_evictions,
            cache_after.evictions - cache_before.evictions);
  report.runner_metrics = total.Snapshot();
  return report;
}

}  // namespace ultra::runtime

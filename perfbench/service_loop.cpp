// service_closed_loop: an in-process SweepService on a unix socket, driven
// by kClients closed-loop clients. Each client submits one ~8-point request,
// waits for its CSV, checks it, and only then sends the next request.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <map>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "core/functional_sim_cache.hpp"
#include "persist/journal.hpp"
#include "runtime/sweep_io.hpp"
#include "runtime/sweep_journal.hpp"
#include "service/client.hpp"
#include "service/sweep_service.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using ultra::runtime::SweepOutcome;
using ultra::runtime::SweepPoint;
using ultra::runtime::SweepRunner;
using ultra::service::SweepClient;
using ultra::service::SweepService;

constexpr int kClients = 2;
constexpr int kRunnerThreads = 2;
constexpr int kSetupRepeats = 40;
/// The measured loop is cut into this many equal windows; throughput and
/// latency percentiles are the median over windows, so a burst of host
/// I/O or scheduling noise in one window does not move the result.
constexpr int kWindows = 5;
/// Requests whose CSV is compared byte for byte with an in-process run.
constexpr std::uint64_t kVerifyRequests = 16;
/// MeasureServiceLayers: closed-loop requests, overhead-probe requests and
/// journal appends.
constexpr std::uint64_t kLayerRequests = 256;
constexpr std::uint64_t kProbeRequests = 32;
constexpr int kJournalProbeAppends = 1000;
/// Request index ranges, so no two requests of one run are identical.
constexpr std::uint64_t kBaselineIndexBase = 1ULL << 32;
constexpr std::uint64_t kLayerIndexBase = 2ULL << 32;
constexpr std::uint64_t kProbeIndexBase = 3ULL << 32;

ultra::service::ServiceOptions ServiceOptionsFor(const std::string& dir) {
  ultra::service::ServiceOptions o;
  o.socket_path = dir + "/svc.sock";
  o.state_dir = dir + "/state";
  o.sweep.num_threads = kRunnerThreads;
  o.sweep.check_architectural_state = true;
  return o;
}

/// A started service and its connected clients.
struct Daemon {
  std::unique_ptr<SweepService> service;
  std::vector<SweepClient> clients;
};

Daemon StartDaemon(const std::string& dir, int clients, Tracer& tracer,
                   int parent) {
  fs::remove_all(dir);
  fs::create_directories(dir + "/state");
  Daemon d;
  d.service = std::make_unique<SweepService>(ServiceOptionsFor(dir));
  {
    Span span(tracer, "service.SweepService.Start", parent);
    d.service->Start();
  }
  for (int c = 0; c < clients; ++c) {
    Span span(tracer, "service.SweepClient.connect", parent);
    d.clients.emplace_back(d.service->options().socket_path);
  }
  return d;
}

void StopDaemon(Daemon& d, Tracer& tracer, int parent) {
  d.clients.clear();
  Span span(tracer, "service.SweepService.Stop", parent);
  d.service->Stop(/*drain=*/false);
  d.service.reset();
}

/// Column values of one CSV line (quoted fields may hold commas).
std::vector<std::string> SplitCsv(const std::string& line) {
  std::vector<std::string> out(1);
  bool quoted = false;
  for (const char c : line) {
    if (c == '"') {
      quoted = !quoted;
    } else if (c == ',' && !quoted) {
      out.emplace_back();
    } else {
      out.back().push_back(c);
    }
  }
  return out;
}

/// Rows of a sweep CSV (header excluded) and their summed cycles. Returns
/// "" when every row is ok and there are @p expected rows.
std::string InspectCsv(const std::string& csv, std::size_t expected,
                       double& cycles) {
  std::istringstream in(csv);
  std::string line;
  if (!std::getline(in, line)) return "empty CSV";
  const std::vector<std::string> header = SplitCsv(line);
  const auto col = [&](const char* name) {
    return static_cast<std::size_t>(
        std::find(header.begin(), header.end(), name) - header.begin());
  };
  const std::size_t ok_col = col("ok");
  const std::size_t cycles_col = col("cycles");
  std::size_t rows = 0;
  while (std::getline(in, line) && !line.empty() && line[0] != '#') {
    const std::vector<std::string> f = SplitCsv(line);
    if (f.size() != header.size()) return "malformed CSV row: " + line;
    if (f[ok_col] != "1") return "CSV row not ok: " + line;
    cycles += std::stod(f[cycles_col]);
    ++rows;
  }
  return rows == expected ? std::string()
                          : "CSV has " + std::to_string(rows) + " rows";
}

/// What a closed loop observed.
struct LoopStats {
  std::mutex mu;
  std::vector<double> latency_ms;
  std::vector<double> submit_ms;
  std::vector<double> wait_ms;
  std::vector<double> csv_bytes;
  std::vector<double> done_at;  // Seconds since the loop started.
  std::vector<double> done_points;
  std::vector<double> done_cycles;
  double points = 0.0;
  double cycles = 0.0;
  std::uint64_t requests = 0;
  std::uint64_t queue_depth_max = 0;
  std::map<std::uint64_t, std::string> csv_sample;  // By request index.
  double wall = 0.0;
};

/// Runs the closed loop on @p clients until @p seconds have passed, or,
/// when @p budget > 0, until @p budget requests have been issued. Request
/// indices start at @p first_index.
void RunClosedLoop(std::vector<SweepClient>& clients, std::uint64_t seed,
                   std::uint64_t first_index, double seconds,
                   std::uint64_t budget, Tracer& tracer, int parent,
                   Result& result, LoopStats& stats) {
  std::atomic<std::uint64_t> next{first_index};
  std::mutex error_mu;
  std::exception_ptr error;
  const auto start = Clock::now();
  const auto client_loop = [&](SweepClient& client) {
    try {
      for (;;) {
        if (budget == 0 && SecondsSince(start) >= seconds) break;
        const std::uint64_t index = next.fetch_add(1);
        if (budget > 0 && index >= first_index + budget) break;
        ultra::service::SubmitRequest request;
        request.points = MakeServiceRequest(seed, index);
        request.tag = "req" + std::to_string(index);
        request.csv_name = "r" + std::to_string(index) + ".csv";
        const std::size_t n = request.points.size();

        const auto t0 = Clock::now();
        Span submit(tracer, "service.SweepClient.Submit", parent);
        const ultra::service::SubmitReply reply = client.Submit(request);
        const double submit_s = submit.Stop();
        if (reply.status != ultra::service::AdmitStatus::kAccepted) {
          std::lock_guard<std::mutex> lk(stats.mu);
          result.attempted += n;
          result.Fail(n, request.tag + " refused: " + reply.message);
          continue;
        }
        Span wait(tracer, "service.SweepClient.Wait", parent);
        const ultra::service::WaitReply done =
            client.Wait({.request_id = reply.request_id, .want_csv = true});
        const double wait_s = wait.Stop();
        const double latency_s = SecondsSince(t0);

        double cycles = 0.0;
        std::string err;
        if (done.state != ultra::service::RequestState::kDone) {
          err = "state " +
                std::string(ultra::service::RequestStateName(done.state)) +
                ": " + done.message;
        } else if (done.failed_points != 0 || done.ok_points != n) {
          err = std::to_string(done.failed_points) + " points failed";
        } else {
          err = InspectCsv(done.csv_text, n, cycles);
        }
        std::lock_guard<std::mutex> lk(stats.mu);
        result.attempted += n;
        if (!err.empty()) {
          result.Fail(n, request.tag + ": " + err);
          continue;
        }
        ++stats.requests;
        stats.points += static_cast<double>(n);
        stats.cycles += cycles;
        stats.latency_ms.push_back(latency_s * 1e3);
        stats.done_at.push_back(SecondsSince(start));
        stats.done_points.push_back(static_cast<double>(n));
        stats.done_cycles.push_back(cycles);
        stats.submit_ms.push_back(submit_s * 1e3);
        stats.wait_ms.push_back(wait_s * 1e3);
        stats.csv_bytes.push_back(static_cast<double>(done.csv_text.size()));
        stats.queue_depth_max =
            std::max<std::uint64_t>(stats.queue_depth_max, reply.queue_depth);
        if (index < first_index + kVerifyRequests) {
          stats.csv_sample[index] = done.csv_text;
        }
      }
    } catch (...) {
      std::lock_guard<std::mutex> lk(error_mu);
      if (!error) error = std::current_exception();
    }
  };
  std::vector<std::thread> threads;
  for (SweepClient& client : clients) {
    threads.emplace_back(client_loop, std::ref(client));
  }
  for (std::thread& t : threads) t.join();
  stats.wall = SecondsSince(start);
  if (error) std::rethrow_exception(error);
}

ultra::runtime::SweepOptions InProcessOptions() {
  return ServiceOptionsFor("").sweep;
}

/// The value of counter @p name in a /metrics-style text surface.
double StatusCounter(const std::string& text, const std::string& name) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(name + " ", 0) == 0) {
      return std::stod(line.substr(name.size() + 1));
    }
  }
  return 0.0;
}

std::string RenderCsv(const std::vector<SweepOutcome>& outcomes) {
  std::ostringstream os;
  ultra::runtime::WriteCsv(os, outcomes);
  return os.str();
}

}  // namespace

void MeasureServiceLayers(const Options& options, Tracer& tracer,
                          Result& result) {
  Span layers(tracer, "bench.probe.service");
  Daemon daemon = StartDaemon(options.run_dir + "/service-layers", kClients,
                              tracer, layers.id());
  LoopStats loop;
  RunClosedLoop(daemon.clients, options.seed, kLayerIndexBase, 0,
                kLayerRequests, tracer, layers.id(), result, loop);
  result.Set("service.submit_ms_p50", Percentile(loop.submit_ms, 50), "ms");
  result.Set("service.submit_ms_p99", Percentile(loop.submit_ms, 99), "ms");
  result.Set("service.wait_ms_p50", Percentile(loop.wait_ms, 50), "ms");
  result.Set("service.wait_ms_p99", Percentile(loop.wait_ms, 99), "ms");
  result.Set("service.queue_depth_max",
             static_cast<double>(loop.queue_depth_max), "count");
  const SweepService::Counters counters = daemon.service->counters();
  result.Set("service.accepted", static_cast<double>(counters.accepted),
             "count");
  result.Set("service.completed", static_cast<double>(counters.completed),
             "count");
  result.Set("service.failed", static_cast<double>(counters.failed), "count");
  result.Set("service.rejected_overload",
             static_cast<double>(counters.rejected_overload), "count");
  {
    // The request journal holds the admission and done records; each
    // completed request also appended a point-journal header and one record
    // per point before the service unlinked that journal.
    const auto scan = ultra::persist::ScanJournal(
        daemon.service->options().state_dir + "/requests.journal");
    result.Set("persist.journal_appends",
               static_cast<double>(scan.records.size()) +
                   static_cast<double>(counters.completed) +
                   loop.points,
               "count");
  }

  // kProbeRequests fresh requests, each pass from a cold oracle cache:
  // in-process RunWithReport plus export, in-process RunJournaled, and the
  // service with one client.
  std::vector<std::vector<SweepPoint>> probe;
  for (std::uint64_t i = 0; i < kProbeRequests; ++i) {
    probe.push_back(MakeServiceRequest(options.seed, kProbeIndexBase + i));
  }
  auto& cache = ultra::core::FunctionalSimCache::Global();
  const SweepRunner runner(InProcessOptions());
  ultra::runtime::SweepCli exports;
  exports.csv_path = options.run_dir + "/probe.sweep.csv";
  exports.json_path = options.run_dir + "/probe.sweep.json";
  double run_wall = 0.0;     // RunWithReport.
  double export_wall = 0.0;  // ExportOutcomes of the same outcomes.
  double journaled_wall = 0.0;
  double service_wall = 0.0;
  SweepOutcome sample;  // For the outcome record size below.
  cache.Clear();
  for (const auto& points : probe) {
    Span run(tracer, "runtime.SweepRunner.RunWithReport", layers.id());
    const auto outcomes = runner.RunWithReport(points).outcomes;
    run_wall += run.Stop();
    Span exp(tracer, "runtime.ExportOutcomes", layers.id());
    if (!ultra::runtime::ExportOutcomes(exports, outcomes)) {
      throw std::runtime_error("probe export failed");
    }
    export_wall += exp.Stop();
    sample = outcomes.front();
  }
  cache.Clear();
  for (const auto& points : probe) {
    Span run(tracer, "runtime.SweepRunner.RunJournaled", layers.id());
    (void)runner.RunJournaled(points, options.run_dir + "/probe.journal");
    journaled_wall += run.Stop();
  }
  cache.Clear();
  for (std::uint64_t i = 0; i < kProbeRequests; ++i) {
    ultra::service::SubmitRequest request;
    request.points = probe[i];
    request.csv_name = "p" + std::to_string(i) + ".csv";
    Span req(tracer, "service.request", layers.id());
    const auto reply = daemon.clients.front().Submit(request);
    const auto done = daemon.clients.front().Wait(
        {.request_id = reply.request_id, .want_csv = true});
    service_wall += req.Stop();
    if (done.state != ultra::service::RequestState::kDone) {
      throw std::runtime_error("overhead probe request did not complete");
    }
  }
  result.Set("service.overhead_x", service_wall / (run_wall + export_wall),
             "x");
  result.Set("persist.run_journaled_x", journaled_wall / run_wall, "x");

  // Journal appends at the service's record sizes: a request admission
  // record and a point outcome record, alternately.
  ultra::persist::Encoder submit_record;
  ultra::service::SubmitRequest request;
  request.points = probe.front();
  ultra::service::EncodeSubmitRequest(submit_record, request);
  ultra::persist::Encoder outcome_record;
  ultra::runtime::EncodeOutcome(outcome_record, sample);
  ultra::persist::JournalWriter writer(options.run_dir + "/append.journal",
                                       /*truncate=*/true);
  std::vector<double> append_us;
  for (int i = 0; i < kJournalProbeAppends; ++i) {
    const auto& bytes = (i % 2 == 0 ? submit_record : outcome_record).bytes();
    Span append(tracer, "persist.JournalWriter.Append", layers.id());
    writer.Append(2, bytes);
    append_us.push_back(append.Stop() * 1e6);
  }
  result.Set("persist.journal_append_us_p50", Percentile(append_us, 50),
             "us");
  result.Set("persist.journal_append_us_p99", Percentile(append_us, 99),
             "us");
  StopDaemon(daemon, tracer, layers.id());
}

Result RunServiceClosedLoop(const Options& options, Tracer& tracer) {
  Result result;
  const std::string dir = options.run_dir + "/service";

  // Setup: service Start plus client connects, from an empty state dir.
  std::vector<double> setup_s;
  Daemon daemon;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    if (daemon.service) {
      Span stop(tracer, "bench.teardown");
      StopDaemon(daemon, tracer, stop.id());
    }
    Span setup(tracer, "bench.setup");
    daemon = StartDaemon(dir, kClients, tracer, setup.id());
    setup_s.push_back(setup.Stop());
  }

  LoopStats loop;
  {
    Span measure(tracer, "bench.measure");
    RunClosedLoop(daemon.clients, options.seed, 0, options.seconds, 0, tracer,
                  measure.id(), result, loop);
  }

  // Byte-identity of the service's exports with in-process runs of the same
  // requests. The in-process runs also give the runtime layer's per-point
  // numbers and the core counters.
  std::vector<SweepOutcome> verified;
  std::vector<double> point_wall_ms;
  std::vector<double> export_ms;
  double point_wall_sum = 0.0;
  double sweep_wall = 0.0;
  {
    Span check(tracer, "bench.check");
    const SweepRunner runner(InProcessOptions());
    ultra::runtime::SweepCli exports;
    exports.csv_path = options.run_dir + "/verify.sweep.csv";
    exports.json_path = options.run_dir + "/verify.sweep.json";
    for (const auto& [index, csv] : loop.csv_sample) {
      const std::vector<SweepPoint> points =
          MakeServiceRequest(options.seed, index);
      Span run(tracer, "runtime.SweepRunner.RunWithReport", check.id());
      const std::vector<SweepOutcome> outcomes =
          runner.RunWithReport(points).outcomes;
      sweep_wall += run.Stop();
      Span exp(tracer, "runtime.ExportOutcomes", check.id());
      if (!ultra::runtime::ExportOutcomes(exports, outcomes)) {
        throw std::runtime_error("verification export failed");
      }
      export_ms.push_back(exp.Stop() * 1e3);
      const bool fallback = std::any_of(
          outcomes.begin(), outcomes.end(), [](const SweepOutcome& o) {
            return o.result.stats.fallback_count != 0;
          });
      if (RenderCsv(outcomes) != csv || fallback) {
        result.Fail(points.size(),
                    "req" + std::to_string(index) +
                        (fallback ? ": fallback_count != 0"
                                  : ": service CSV differs from an "
                                    "in-process run"));
      }
      for (const SweepOutcome& o : outcomes) {
        point_wall_ms.push_back(o.wall_seconds * 1e3);
        point_wall_sum += o.wall_seconds;
      }
      verified.insert(verified.end(), outcomes.begin(), outcomes.end());
    }
  }

  // Per-window throughput and latency percentiles, then their medians.
  std::vector<double> points_per_s, cycles_per_s, p50, p99;
  const double width = loop.wall / kWindows;
  for (int w = 0; w < kWindows; ++w) {
    double points = 0.0;
    double cycles = 0.0;
    std::vector<double> latency;
    for (std::size_t i = 0; i < loop.done_at.size(); ++i) {
      if (static_cast<int>(loop.done_at[i] / width) != w) continue;
      points += loop.done_points[i];
      cycles += loop.done_cycles[i];
      latency.push_back(loop.latency_ms[i]);
    }
    points_per_s.push_back(points / width);
    cycles_per_s.push_back(cycles / width);
    p50.push_back(Percentile(latency, 50));
    p99.push_back(Percentile(latency, 99));
    std::printf("window %d: %zu requests, %.1f points/s, p50 %.3f ms, "
                "p99 %.3f ms\n",
                w, latency.size(), points / width, p50.back(), p99.back());
  }
  result.Set("setup_s", Median(setup_s), "s");
  result.Set("points_per_s", Median(points_per_s), "1/s");
  result.Set("sim_cycles_per_s", Median(cycles_per_s), "1/s");
  result.Set("peak_rss_mb", PeakRssMb(), "MB");
  result.Set("ok_frac",
             1.0 - static_cast<double>(result.failed) /
                       static_cast<double>(std::max<std::uint64_t>(
                           result.attempted, 1)),
             "fraction");
  result.Set("request_latency_ms_p50", Median(p50), "ms");
  result.Set("request_latency_ms_p99", Median(p99), "ms");
  std::printf("requests %llu in %.3f s with %d clients, latency samples %zu\n",
              static_cast<unsigned long long>(loop.requests), loop.wall,
              kClients, loop.latency_ms.size());
  if (!options.trace) return result;

  result.Set("runtime.export_ms", Median(export_ms), "ms");
  result.Set("runtime.parallel_efficiency",
             point_wall_sum / (kRunnerThreads * sweep_wall), "fraction");
  result.Set("runtime.point_wall_ms_p50", Percentile(point_wall_ms, 50), "ms");
  result.Set("runtime.point_wall_ms_p99", Percentile(point_wall_ms, 99), "ms");
  {
    // The service's cumulative runner counters, from its status surface.
    Span collect(tracer, "bench.collect");
    const std::string text = daemon.service->MetricsText();
    for (const auto& [metric, name] :
         {std::pair{"runtime.fnsim_cache.hits", "fnsim_cache.hits"},
          std::pair{"runtime.fnsim_cache.misses", "fnsim_cache.misses"},
          std::pair{"runtime.attempts", "sweep.attempts"},
          std::pair{"runtime.retries", "sweep.retries"}}) {
      result.Set(metric, StatusCounter(text, name), "count");
    }
  }
  result.Set("persist.export_bytes", Median(loop.csv_bytes), "bytes");
  SetCoreCounters(result, {verified});

  // Tracing overhead: the same number of requests again, untraced.
  {
    Span baseline(tracer, "bench.untraced_baseline");
    Tracer off(false);
    Result scratch;
    LoopStats untraced;
    RunClosedLoop(daemon.clients, options.seed, kBaselineIndexBase, 0,
                  loop.requests, off, -1, scratch, untraced);
    result.Set("trace.overhead_s", loop.wall - untraced.wall, "s");
    std::printf("traced loop %.6f s, untraced loop %.6f s (%llu requests)\n",
                loop.wall, untraced.wall,
                static_cast<unsigned long long>(untraced.requests));
  }
  {
    Span stop(tracer, "bench.teardown");
    StopDaemon(daemon, tracer, stop.id());
  }
  MeasureServiceLayers(options, tracer, result);

  result.unmeasured.push_back(
      {"workloads.", "requests are generated inside the client loop"});
  result.unmeasured.push_back(
      {"core.", "per-core host time is measured on the sweep workloads"});
  result.unmeasured.push_back(
      {"datapath.", "per-core host time is measured on the sweep workloads"});
  result.unmeasured.push_back(
      {"memory.", "requests run over kMagic memory with no hierarchy"});
  result.unmeasured.push_back({"fault.", "requests carry no fault plans"});
  result.unmeasured.push_back({"telemetry.", "requests run with metrics off"});
  result.unmeasured.push_back(
      {"runtime.oracle_s", "measured on the sweep workloads"});
  return result;
}

}  // namespace perfbench

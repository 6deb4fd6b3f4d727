// Span recording, self-time accounting and the Chrome trace writer.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>

#include "bench.hpp"

namespace perfbench {

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  // Nearest rank: the smallest value with at least p% of samples <= it.
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

namespace {

int ThreadLane() {
  static std::atomic<int> next{0};
  thread_local const int lane = next.fetch_add(1);
  return lane;
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

// Layer of a span: the text before the first '.'.
std::string LayerOf(const std::string& name) {
  return name.substr(0, name.find('.'));
}

}  // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

int Tracer::Begin(std::string_view name, int parent) {
  if (!enabled_) return -1;
  const std::int64_t now =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           origin_)
          .count();
  const int lane = ThreadLane();
  std::lock_guard<std::mutex> lk(mu_);
  records_.push_back({std::string(name), now, -1, parent, lane});
  return static_cast<int>(records_.size()) - 1;
}

void Tracer::End(int id) {
  if (id < 0) return;
  const std::int64_t now =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           origin_)
          .count();
  std::lock_guard<std::mutex> lk(mu_);
  records_[static_cast<std::size_t>(id)].end_ns = now;
}

double Tracer::Summarize(double run_wall_seconds) const {
  std::lock_guard<std::mutex> lk(mu_);
  const std::size_t n = records_.size();
  // Children by parent, to subtract the union of their intervals (children
  // on other threads may overlap each other) from the parent's duration.
  std::vector<std::vector<std::size_t>> children(n);
  for (std::size_t i = 0; i < n; ++i) {
    const int p = records_[i].parent;
    if (p >= 0) children[static_cast<std::size_t>(p)].push_back(i);
  }
  struct Row {
    std::uint64_t count = 0;
    double total = 0.0;
    double self = 0.0;
  };
  std::map<std::string, Row> by_name;
  std::map<std::string, double> self_by_layer;
  double top_level = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const Record& r = records_[i];
    if (r.end_ns < 0) continue;
    const double dur = static_cast<double>(r.end_ns - r.start_ns) * 1e-9;
    std::vector<std::pair<std::int64_t, std::int64_t>> iv;
    for (const std::size_t c : children[i]) {
      const Record& k = records_[c];
      if (k.end_ns < 0) continue;
      iv.emplace_back(std::max(k.start_ns, r.start_ns),
                      std::min(k.end_ns, r.end_ns));
    }
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t reach = r.start_ns;
    for (const auto& [a, b] : iv) {
      const std::int64_t lo = std::max(a, reach);
      if (b > lo) {
        covered += b - lo;
        reach = b;
      }
    }
    const double self = dur - static_cast<double>(covered) * 1e-9;
    Row& row = by_name[r.name];
    ++row.count;
    row.total += dur;
    row.self += self;
    self_by_layer[LayerOf(r.name)] += self;
    if (r.parent < 0) top_level += dur;
  }
  std::printf("spans: %-44s %8s %12s %12s\n", "name", "count", "total_s",
              "self_s");
  for (const auto& [name, row] : by_name) {
    std::printf("spans: %-44s %8llu %12.6f %12.6f\n", name.c_str(),
                static_cast<unsigned long long>(row.count), row.total,
                row.self);
  }
  for (const auto& [layer, self] : self_by_layer) {
    std::printf("layer self time: %-16s %12.6f s\n", layer.c_str(), self);
  }
  const double unattributed = run_wall_seconds - top_level;
  std::printf("run wall %.6f s, top-level spans %.6f s, unattributed %.6f s\n",
              run_wall_seconds, top_level, unattributed);
  return unattributed;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::ofstream os(path, std::ios::trunc);
  if (!os) return false;
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  int max_lane = 0;
  for (const Record& r : records_) {
    if (r.end_ns < 0) continue;
    max_lane = std::max(max_lane, r.lane);
    os << (first ? "" : ",\n") << "{\"name\": \"" << JsonEscape(r.name)
       << "\", \"cat\": \"" << JsonEscape(LayerOf(r.name))
       << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << r.lane
       << ", \"ts\": " << static_cast<double>(r.start_ns) / 1e3
       << ", \"dur\": " << static_cast<double>(r.end_ns - r.start_ns) / 1e3
       << "}";
    first = false;
  }
  for (int lane = 0; lane <= max_lane; ++lane) {
    os << (first ? "" : ",\n")
       << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": "
       << lane << ", \"args\": {\"name\": \""
       << (lane == 0 ? "benchmark" : "worker " + std::to_string(lane))
       << "\"}}";
    first = false;
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

}  // namespace perfbench

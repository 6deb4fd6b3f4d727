// Output checks: stored reference digests and the fallback-free contract of
// the packed evaluator, on top of the runner's functional-oracle check.
#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "bench.hpp"
#include "persist/serial.hpp"

namespace perfbench {

std::uint64_t DigestRunResult(const ultra::core::RunResult& r) {
  ultra::persist::Encoder e;
  e.Bool(r.halted);
  e.U64(r.cycles);
  e.U64(r.committed);
  e.U64(r.regs.size());
  for (const auto w : r.regs) e.U64(w);
  e.U64(r.memory.size());
  for (const auto& [addr, word] : r.memory) {
    e.U64(addr);
    e.U64(word);
  }
  const ultra::core::RunStats& s = r.stats;
  for (const std::uint64_t v :
       {s.mispredictions, s.forwarded_loads, s.squashed_instructions,
        s.load_count, s.store_count, s.fetch_stall_cycles,
        s.window_full_cycles, s.fallback_count, s.fault.injected,
        s.fault.checks, s.fault.divergences, s.fault.resyncs,
        s.fault.squashes}) {
    e.U64(v);
  }
  const ultra::core::MemHierarchyCounters& m = s.mem_hierarchy;
  for (const std::uint64_t v :
       {m.l1d_hits, m.l1d_misses, m.l1d_writebacks, m.l2_hits, m.l2_misses,
        m.l2_writebacks, m.icache_hits, m.icache_misses,
        m.icache_stall_cycles, m.prefetch_issued, m.prefetch_fills,
        m.prefetch_useful}) {
    e.U64(v);
  }
  return ultra::persist::Fnv1a64(e.bytes());
}

DigestTable DigestTable::Load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open digest table " + path);
  DigestTable table;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    // "<key> = <16 hex digits>"; the key itself contains spaces.
    const std::size_t eq = line.rfind(" = ");
    if (eq == std::string::npos || line.size() - eq - 3 != 16) {
      throw std::runtime_error("malformed digest line: " + line);
    }
    table.entries_.emplace_back(
        line.substr(0, eq), std::stoull(line.substr(eq + 3), nullptr, 16));
  }
  std::sort(table.entries_.begin(), table.entries_.end());
  if (table.entries_.empty()) {
    throw std::runtime_error("digest table " + path + " is empty");
  }
  return table;
}

const std::uint64_t* DigestTable::Find(const std::string& key) const {
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), key,
      [](const auto& entry, const std::string& k) { return entry.first < k; });
  return it != entries_.end() && it->first == key ? &it->second : nullptr;
}

std::string CheckOutcome(const BenchPoint& bp,
                         const ultra::runtime::SweepOutcome& outcome,
                         const DigestTable* digests) {
  const std::string where = bp.point.workload + " " +
                            std::string(ultra::core::ProcessorKindName(
                                bp.point.kind)) +
                            " n" + std::to_string(bp.point.config.window_size);
  if (!outcome.ok) return where + ": " + outcome.error;
  if (outcome.result.stats.fallback_count != 0) {
    return where + ": fallback_count " +
           std::to_string(outcome.result.stats.fallback_count);
  }
  switch (bp.check) {
    case CheckKind::kRunner:
      return {};
    case CheckKind::kDigest: {
      const std::uint64_t* want = digests->Find(bp.digest_key);
      if (want == nullptr) {
        throw std::runtime_error("no stored digest for " + bp.digest_key);
      }
      return *want == DigestRunResult(outcome.result)
                 ? std::string()
                 : where + ": result digest differs from the reference";
    }
  }
  return {};
}

}  // namespace perfbench

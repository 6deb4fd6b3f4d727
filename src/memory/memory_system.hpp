// The full memory subsystem seen by a processor core.
//
// Ties together the backing store, the interleaved banked cache, the M(n)
// bandwidth limit, and (optionally) the fat-tree interconnect. Three timing
// modes:
//
//  * kMagic            -- fixed latency, unlimited bandwidth. Used by the
//                         ILP-equivalence experiments, where every core must
//                         observe identical memory timing.
//  * kBandwidthLimited -- the chip accepts at most floor(M(n)) memory
//                         operations per cycle (the paper's M(n) knob);
//                         accepted operations access the interleaved cache.
//  * kFatTree          -- requests additionally traverse the fat-tree
//                         network level by level, queuing at thin links.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <unordered_map>
#include <vector>

#include "memory/backing_store.hpp"
#include "memory/bandwidth.hpp"
#include "persist/serial.hpp"
#include "memory/cache.hpp"
#include "memory/butterfly.hpp"
#include "memory/fat_tree.hpp"
#include "memory/hierarchy.hpp"

namespace ultra::memory {

enum class MemTimingMode : std::uint8_t {
  kMagic,
  kBandwidthLimited,
  kFatTree,
  kButterfly,  // Section 2's alternative interconnect.
};

struct MemoryConfig {
  MemTimingMode mode = MemTimingMode::kMagic;
  int magic_load_latency = 2;   // Cycles, kMagic mode.
  int magic_store_latency = 1;  // Cycles, kMagic mode.
  CacheConfig cache;
  BandwidthRegime regime = BandwidthRegime::kLinear;
  double bandwidth_scale = 1.0;

  /// Distributed per-cluster caches (Section 7: "One way to reduce the
  /// bandwidth requirements may be to use a cache distributed among the
  /// clusters"). 0 = off; k > 0 groups every k fat-tree leaves behind a
  /// small local cache: load hits complete locally without consuming tree
  /// bandwidth; stores write through and invalidate every local copy.
  int cluster_cache_leaves = 0;
  int cluster_cache_words = 64;
  int cluster_cache_hit_latency = 1;

  /// Optional multi-level cache hierarchy (L1I/L1D/L2 + stride prefetcher)
  /// layered in front of whichever backing tier `mode` selects. L1D/L2 hits
  /// complete locally without consuming backing bandwidth; full misses pay
  /// the per-level latencies and then enter the backing tier as usual.
  /// Mutually exclusive with cluster caches (CoreConfig::Validate enforces
  /// this); the L1I level lives in core::FetchEngine, not here.
  HierarchyConfig hierarchy;
};

struct MemResponse {
  std::uint64_t id = 0;
  bool is_store = false;
  isa::Word value = 0;  // Loaded value (loads only).
};

struct ClusterCacheStats {
  std::uint64_t local_hits = 0;
  std::uint64_t local_misses = 0;
  std::uint64_t invalidations = 0;
};

class MemorySystem {
 public:
  /// @p num_leaves is the issue width n (stations at the fat-tree leaves).
  MemorySystem(const MemoryConfig& config, int num_leaves);

  /// Resets architectural memory to @p image and clears all in-flight state.
  void Reset(const std::map<isa::Word, isa::Word>& image);

  /// Submits a load/store issued by station @p leaf. The architectural
  /// effect of a store happens immediately (cores submit stores only once
  /// the Figure 5 serialization circuits allow them, so program order is
  /// already enforced); the returned id completes when the timing model says
  /// the operation has finished.
  std::uint64_t SubmitLoad(int leaf, isa::Word addr);
  std::uint64_t SubmitStore(int leaf, isa::Word addr, isa::Word value);

  /// Advances one cycle.
  void Tick();

  /// Operations that completed during the last Tick.
  std::vector<MemResponse> DrainCompleted();

  /// Architectural state inspection (for correctness checks).
  [[nodiscard]] isa::Word ReadWord(isa::Word addr) const {
    return store_.ReadWord(addr);
  }
  [[nodiscard]] BackingStore& store() { return store_; }
  [[nodiscard]] const CacheStats& cache_stats() const {
    return cache_->stats();
  }
  [[nodiscard]] const MemoryConfig& config() const { return config_; }
  [[nodiscard]] int accepted_per_cycle() const { return ops_per_cycle_; }
  [[nodiscard]] const ClusterCacheStats& cluster_cache_stats() const {
    return cluster_stats_;
  }
  /// Hierarchy telemetry (null when the level is disabled).
  [[nodiscard]] const CacheLevelStats* l1d_stats() const {
    return l1d_ ? &l1d_->stats() : nullptr;
  }
  [[nodiscard]] const CacheLevelStats* l2_stats() const {
    return l2_ ? &l2_->stats() : nullptr;
  }
  [[nodiscard]] std::uint64_t prefetch_issued() const {
    return prefetch_issued_;
  }

  /// Checkpoint support: the full timing + architectural state — backing
  /// store, cache lines, network queues, and every in-flight request —
  /// written deterministically (hash maps in sorted key order). Restore
  /// requires a MemorySystem constructed with the same config/leaf count.
  void SaveState(persist::Encoder& e) const;
  void RestoreState(persist::Decoder& d);

 private:
  struct Request {
    std::uint64_t id = 0;
    int leaf = 0;
    bool is_store = false;
    isa::Word addr = 0;
    isa::Word loaded_value = 0;  // Loads: captured at architectural access.
  };

  MemoryConfig config_;
  int num_leaves_;
  int ops_per_cycle_;
  BandwidthProfile profile_;
  BackingStore store_;
  std::unique_ptr<InterleavedCache> cache_;
  std::unique_ptr<FatTreeNetwork> network_;
  std::unique_ptr<ButterflyNetwork> butterfly_;
  std::unique_ptr<CacheLevelModel> l1d_;
  std::unique_ptr<CacheLevelModel> l2_;
  std::unique_ptr<StridePrefetcher> prefetcher_;

  std::uint64_t next_id_ = 1;
  std::uint64_t now_ = 0;
  std::queue<Request> admission_queue_;           // Waiting for bandwidth.
  std::queue<Request> root_retry_queue_;          // Cache bank conflicts.
  std::vector<std::pair<std::uint64_t, Request>> pending_downs_;
  std::map<std::uint64_t, std::vector<MemResponse>> completions_;  // By cycle.
  std::unordered_map<std::uint64_t, Request> in_network_;
  std::vector<MemResponse> completed_;

  /// Hierarchy misses waiting out their L1/L2 lookup latency before they
  /// enter the backing tier, and prefetched blocks waiting to fill L1/L2.
  std::vector<std::pair<std::uint64_t, Request>> hier_pending_;
  std::vector<std::pair<std::uint64_t, isa::Word>> prefetch_fills_;
  std::vector<isa::Word> prefetch_scratch_;
  std::uint64_t prefetch_issued_ = 0;

  /// Per-cluster local caches (tiny fully-associative word caches with LRU
  /// eviction), indexed by leaf / cluster_cache_leaves.
  std::vector<std::vector<isa::Word>> cluster_caches_;
  ClusterCacheStats cluster_stats_;

  std::uint64_t Submit(int leaf, bool is_store, isa::Word addr,
                       isa::Word value);
  /// Hands @p req to whichever backing tier `mode` selects (the pre-
  /// hierarchy Submit switch).
  void DispatchToBacking(const Request& req);
  /// Hierarchy lookup for @p req. Returns true when the request completed
  /// (or was queued for deferred backing dispatch) inside the hierarchy.
  bool SubmitToHierarchy(const Request& req);
  void SchedulePrefetches(isa::Word addr);
  void CompleteAt(std::uint64_t cycle, const Request& req);
  void ServiceAtCache(const Request& req, int extra_delay_before_response);
  [[nodiscard]] int ClusterOf(int leaf) const;
  [[nodiscard]] int ButterflyPort(isa::Word addr) const;
  bool ClusterCacheLookup(int cluster, isa::Word addr);
  void ClusterCacheInsert(int cluster, isa::Word addr);
  void ClusterCacheInvalidate(isa::Word addr);
};

}  // namespace ultra::memory

// The FactorService pattern cache: structure hash -> cached Refactorizer.
//
// A cached plan is a live refactor::Refactorizer — permutations, filled
// pattern, level plan, replay task list, and device-resident structure
// buffers — built by one full factorization and able to re-run any
// same-pattern matrix through the numeric phase alone. The cache maps a
// structure hash to such plans, confirming every hit with a full pattern
// comparison (the hash only routes; see structure_hash.hpp), and bounds
// the *simulated device memory* the resident plans pin:
//
//   sum over cached entries of Refactorizer::device_footprint_bytes()
//       <= memory_budget_bytes
//
// maintained by LRU eviction. Insertion evicts least-recently-used plans
// until the newcomer's exact footprint fits; admission-time pressure
// relief (evict_for) uses a symbolic *estimate* before the real footprint
// exists, so a cold build starts with headroom instead of discovering
// pressure mid-allocation. Entries are handed out as shared_ptr: eviction
// unlinks an entry and releases its budget immediately, while a worker
// mid-replay keeps the object alive until it finishes — the simulated
// analogue of freeing device memory after the last kernel using it
// retires.
//
// Thread safety: the index (map, recency, budget, stats) is guarded by
// one mutex; each entry carries its own mutex serializing engine use,
// because refactorize() mutates the cached skeleton in place.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "matrix/csr.hpp"
#include "refactor/refactor.hpp"

namespace e2elu::service {

struct PatternCacheOptions {
  /// Simulated device bytes all cached plans may pin together. Defaults
  /// generously; services size it to their device spec.
  std::size_t memory_budget_bytes = 4ull << 30;
  /// Structure-hash override (tests force collisions through this to
  /// exercise the full-comparison fallback). Null = structure_hash().
  std::function<std::uint64_t(const Csr&)> hash_fn;
};

struct PatternCacheStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  /// Hash matched but the full pattern comparison rejected reuse — the
  /// collision fallback fired.
  std::uint64_t collisions = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  /// A plan too large for the whole budget was dropped instead of cached.
  std::uint64_t uncacheable = 0;
  std::size_t resident_bytes = 0;
  std::size_t entries = 0;
};

class PatternCache {
 public:
  /// One cached plan. `engine` replays same-pattern matrices; `pattern`
  /// (values cleared) confirms hash hits; `mutex` serializes engine use.
  struct Entry {
    std::uint64_t hash = 0;
    Csr pattern;
    std::unique_ptr<refactor::Refactorizer> engine;
    std::size_t footprint_bytes = 0;
    std::mutex mutex;
    /// Written by lookup() under the index mutex, read by replaying
    /// workers under the entry mutex — hence atomic (relaxed: a count for
    /// reporting, ordering nothing).
    std::atomic<std::uint64_t> hits{0};
    std::uint64_t last_use = 0;  ///< recency sequence (larger = newer)
  };
  using EntryPtr = std::shared_ptr<Entry>;

  explicit PatternCache(PatternCacheOptions options = {});

  std::uint64_t hash_of(const Csr& a) const;

  /// The entry whose pattern equals a's, with recency bumped — or null.
  /// Hash matches whose full comparison fails count as collisions and do
  /// not hit.
  EntryPtr lookup(const Csr& a);

  /// Caches a freshly built plan under a's structure, evicting LRU
  /// entries until its exact footprint fits the budget. Returns null —
  /// with the engine destroyed — when the plan exceeds the whole budget
  /// (the job that built it already has its result; the plan is simply
  /// not retained). If an equal structure raced in meanwhile, the
  /// incumbent wins and the new engine is dropped.
  EntryPtr insert(const Csr& a, std::unique_ptr<refactor::Refactorizer> engine);

  /// Admission-time pressure relief: evicts LRU entries until `bytes`
  /// fits in the budget headroom (no-op when it already does). Returns
  /// the number of entries evicted.
  std::size_t evict_for(std::size_t bytes);

  /// Evicts the single least-recently-used entry. False when empty — the
  /// caller's recovery loop then has nothing left to release.
  bool evict_lru();

  /// Unlinks a specific entry (no-op if already evicted). Used when a
  /// replay leaves an engine in an unusable state — a failed mid-rebuild
  /// fallback must not stay reachable for the next same-pattern job.
  void remove(const EntryPtr& entry);

  /// Re-reads an entry's footprint after a stability fallback rebuilt its
  /// engine (same pattern, so the size rarely moves — but exactness is
  /// the point of the signal). Budget accounting follows.
  void refresh_footprint(Entry& entry);

  /// Pre-build device-bytes estimate for a structure: the skeleton and
  /// replay list scale with fill, which is unknown before the symbolic
  /// phase, so this charges a fill-growth multiple of nnz. Used only to
  /// pre-clear headroom; accounting always uses exact footprints.
  static std::size_t estimate_footprint(const Csr& a);

  PatternCacheStats stats() const;
  std::size_t resident_bytes() const;
  std::size_t memory_budget_bytes() const {
    return options_.memory_budget_bytes;
  }

 private:
  /// Unlinks the LRU entry; index mutex held. False when empty.
  bool evict_lru_locked();
  void publish_metrics_locked();

  PatternCacheOptions options_;
  mutable std::mutex mutex_;
  /// Hash -> entries (a vector, because distinct patterns may share a
  /// hash — forced in tests, tolerated in production).
  std::unordered_map<std::uint64_t, std::vector<EntryPtr>> index_;
  std::uint64_t use_seq_ = 0;
  PatternCacheStats stats_;
};

}  // namespace e2elu::service

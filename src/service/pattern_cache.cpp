#include "service/pattern_cache.hpp"

#include <algorithm>
#include <utility>

#include "service/structure_hash.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace e2elu::service {

PatternCache::PatternCache(PatternCacheOptions options)
    : options_(std::move(options)) {}

std::uint64_t PatternCache::hash_of(const Csr& a) const {
  return options_.hash_fn ? options_.hash_fn(a) : structure_hash(a);
}

PatternCache::EntryPtr PatternCache::lookup(const Csr& a) {
  const std::uint64_t h = hash_of(a);
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.lookups;
  const auto it = index_.find(h);
  if (it != index_.end()) {
    for (const EntryPtr& entry : it->second) {
      // The hash routes; the full pattern comparison decides. A plan must
      // never replay a structurally different matrix, so a colliding hash
      // falls through to a miss instead of a wrong reuse.
      if (same_structure(a, entry->pattern)) {
        ++stats_.hits;
        entry->hits.fetch_add(1, std::memory_order_relaxed);
        entry->last_use = ++use_seq_;
        return entry;
      }
      ++stats_.collisions;
      trace::MetricsRegistry::global()
          .counter("service.cache.collisions")
          .add(1);
    }
  }
  ++stats_.misses;
  return nullptr;
}

PatternCache::EntryPtr PatternCache::insert(
    const Csr& a, std::unique_ptr<refactor::Refactorizer> engine) {
  auto entry = std::make_shared<Entry>();
  entry->hash = hash_of(a);
  entry->pattern = a;
  entry->pattern.values.clear();
  entry->pattern.values.shrink_to_fit();
  entry->footprint_bytes = engine->device_footprint_bytes();
  entry->engine = std::move(engine);

  std::lock_guard<std::mutex> lock(mutex_);
  // A racing worker may have cached the same structure while this plan
  // was being built; the incumbent keeps its warm recency and this
  // duplicate is dropped (its builder already took the result).
  for (const EntryPtr& existing : index_[entry->hash]) {
    if (same_structure(entry->pattern, existing->pattern)) return existing;
  }
  if (entry->footprint_bytes > options_.memory_budget_bytes) {
    ++stats_.uncacheable;
    trace::MetricsRegistry::global()
        .counter("service.cache.uncacheable")
        .add(1);
    return nullptr;
  }
  while (stats_.resident_bytes + entry->footprint_bytes >
         options_.memory_budget_bytes) {
    // Cannot fail: the newcomer fits an empty budget (checked above), so
    // resident_bytes > 0 implies at least one evictable entry.
    evict_lru_locked();
  }
  entry->last_use = ++use_seq_;
  index_[entry->hash].push_back(entry);
  stats_.resident_bytes += entry->footprint_bytes;
  ++stats_.entries;
  ++stats_.insertions;
  publish_metrics_locked();
  return entry;
}

std::size_t PatternCache::evict_for(std::size_t bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (bytes > options_.memory_budget_bytes) {
    // Even an empty cache cannot host it; clearing everything would be
    // pure loss. The plan will run and be dropped (uncacheable).
    return 0;
  }
  std::size_t evicted = 0;
  while (stats_.resident_bytes + bytes > options_.memory_budget_bytes &&
         evict_lru_locked()) {
    ++evicted;
  }
  return evicted;
}

bool PatternCache::evict_lru() {
  std::lock_guard<std::mutex> lock(mutex_);
  return evict_lru_locked();
}

bool PatternCache::evict_lru_locked() {
  std::vector<EntryPtr>* chain = nullptr;
  std::size_t pos = 0;
  std::uint64_t oldest = 0;
  bool found = false;
  for (auto& [hash, entries] : index_) {
    for (std::size_t i = 0; i < entries.size(); ++i) {
      if (!found || entries[i]->last_use < oldest) {
        found = true;
        oldest = entries[i]->last_use;
        chain = &entries;
        pos = i;
      }
    }
  }
  if (!found) return false;
  const EntryPtr victim = (*chain)[pos];
  TRACE_SPAN("service.cache.evict",
             {{"bytes", static_cast<std::int64_t>(victim->footprint_bytes)},
              {"hits", static_cast<std::int64_t>(
                           victim->hits.load(std::memory_order_relaxed))}});
  chain->erase(chain->begin() + static_cast<std::ptrdiff_t>(pos));
  if (chain->empty()) index_.erase(victim->hash);
  stats_.resident_bytes -= victim->footprint_bytes;
  --stats_.entries;
  ++stats_.evictions;
  trace::MetricsRegistry::global().counter("service.cache.evictions").add(1);
  publish_metrics_locked();
  // A worker mid-replay on the victim still holds its shared_ptr; the
  // plan's simulated device memory is released when the last such
  // reference drops — eviction only unlinks and un-accounts it.
  return true;
}

void PatternCache::remove(const EntryPtr& entry) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(entry->hash);
  if (it == index_.end()) return;
  const auto pos = std::find(it->second.begin(), it->second.end(), entry);
  if (pos == it->second.end()) return;
  it->second.erase(pos);
  if (it->second.empty()) index_.erase(it);
  stats_.resident_bytes -= entry->footprint_bytes;
  --stats_.entries;
  ++stats_.evictions;
  trace::MetricsRegistry::global().counter("service.cache.evictions").add(1);
  publish_metrics_locked();
}

void PatternCache::refresh_footprint(Entry& entry) {
  const std::size_t now = entry.engine->device_footprint_bytes();
  std::lock_guard<std::mutex> lock(mutex_);
  stats_.resident_bytes += now;
  stats_.resident_bytes -= entry.footprint_bytes;
  entry.footprint_bytes = now;
  publish_metrics_locked();
}

std::size_t PatternCache::estimate_footprint(const Csr& a) {
  // Skeleton: fill_nnz values + indices in two orientations + position
  // map; replay list: ~flops/8 task words. Short of running the symbolic
  // phase there is no exact number, so charge a 4x fill growth over nnz
  // across ~40 bytes per filled entry — deliberately on the high side, so
  // pre-eviction clears enough and insert() rarely has to evict again.
  const std::size_t nnz = static_cast<std::size_t>(a.nnz());
  const std::size_t n = static_cast<std::size_t>(a.n);
  return 4 * nnz * 40 + n * 24;
}

PatternCacheStats PatternCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::size_t PatternCache::resident_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_.resident_bytes;
}

void PatternCache::publish_metrics_locked() {
  auto& registry = trace::MetricsRegistry::global();
  registry.gauge("service.cache.resident_bytes")
      .set(static_cast<double>(stats_.resident_bytes));
  registry.gauge("service.cache.entries")
      .set(static_cast<double>(stats_.entries));
}

}  // namespace e2elu::service

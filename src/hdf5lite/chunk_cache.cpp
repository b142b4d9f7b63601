#include "hdf5lite/chunk_cache.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "obs/metrics.hpp"

namespace tunio::h5 {

namespace {

/// Cached registry handles (see PfsMetrics for the pattern rationale).
struct CacheMetrics {
  obs::Counter& hits;
  obs::Counter& misses;
  obs::Counter& bypasses;
  obs::Counter& evictions;
  obs::Counter& dirty_evictions;

  static CacheMetrics& get() {
    static CacheMetrics* metrics = [] {
      obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
      return new CacheMetrics{
          registry.counter("h5.chunk_cache.hits"),
          registry.counter("h5.chunk_cache.misses"),
          registry.counter("h5.chunk_cache.bypasses"),
          registry.counter("h5.chunk_cache.evictions"),
          registry.counter("h5.chunk_cache.dirty_evictions"),
      };
    }();
    return *metrics;
  }
};

}  // namespace

ChunkCache::ChunkCache(ChunkCacheProps props, Bytes chunk_bytes)
    : props_(props), chunk_bytes_(chunk_bytes) {
  TUNIO_CHECK_MSG(chunk_bytes_ > 0, "chunk size must be positive");
  const auto by_bytes =
      static_cast<std::size_t>(props_.rdcc_nbytes / chunk_bytes_);
  max_resident_ = std::min<std::size_t>(by_bytes, props_.rdcc_nslots);
  // Size the pool and index up front for HDF5's default slot count, so a
  // touch never pays for growth; a larger cache grows on demand.
  const std::size_t upfront =
      std::min<std::size_t>(max_resident_, ChunkCacheProps{}.rdcc_nslots);
  nodes_.reserve(upfront);
  index_.reserve(upfront + 1);  // a miss inserts before the victim leaves
}

ChunkCache::~ChunkCache() {
  CacheMetrics& metrics = CacheMetrics::get();
  metrics.hits.add(stats_.hits);
  metrics.misses.add(stats_.misses);
  metrics.bypasses.add(stats_.bypasses);
  metrics.evictions.add(stats_.evictions);
  metrics.dirty_evictions.add(stats_.dirty_evictions);
}

bool ChunkCache::resident(const ChunkKey& key) const {
  return index_.find(key) != nullptr;
}

void ChunkCache::unlink(std::uint32_t node) {
  Node& n = nodes_[node];
  (n.prev == kNil ? head_ : nodes_[n.prev].next) = n.next;
  (n.next == kNil ? tail_ : nodes_[n.next].prev) = n.prev;
}

void ChunkCache::push_front(std::uint32_t node) {
  Node& n = nodes_[node];
  n.prev = kNil;
  n.next = head_;
  (head_ == kNil ? tail_ : nodes_[head_].prev) = node;
  head_ = node;
}

void ChunkCache::touch(const ChunkKey& key, bool write,
                       CacheOutcome& outcome) {
  // On a miss the new chunk takes a fresh pool node, or the LRU victim's.
  const bool full = nodes_.size() == max_resident_;
  const auto node = full ? tail_ : static_cast<std::uint32_t>(nodes_.size());
  const auto [found, inserted] = index_.try_emplace(key, node);
  if (!inserted) {
    ++stats_.hits;
    outcome.hit = true;
    nodes_[*found].dirty |= write;
    if (*found != head_) {
      unlink(*found);
      push_front(*found);
    }
    return;
  }
  ++stats_.misses;
  if (full) {
    const Node& victim = nodes_[node];
    ++stats_.evictions;
    if (victim.dirty) {
      ++stats_.dirty_evictions;
      outcome.evicted_dirty = victim.key;
    }
    index_.erase(victim.key);
    unlink(node);
  } else {
    nodes_.emplace_back();
  }
  nodes_[node].key = key;
  nodes_[node].dirty = write;
  push_front(node);
}

CacheOutcome ChunkCache::touch_write(const ChunkKey& key, Bytes covered_bytes,
                                     bool chunk_was_allocated) {
  CacheOutcome outcome;
  // A partial write to a chunk that exists on disk but not in the cache
  // must read it first; a chunk too big for the cache is written directly.
  const bool partial = chunk_was_allocated && covered_bytes < chunk_bytes_;
  if (max_resident_ == 0) {
    ++stats_.bypasses;
    outcome.bypass = true;
    outcome.needs_preread = partial;
    return outcome;
  }
  touch(key, /*write=*/true, outcome);
  outcome.needs_preread = partial && !outcome.hit;
  return outcome;
}

CacheOutcome ChunkCache::touch_read(const ChunkKey& key) {
  CacheOutcome outcome;
  if (max_resident_ == 0) {
    ++stats_.bypasses;
    outcome.bypass = true;
    return outcome;
  }
  touch(key, /*write=*/false, outcome);
  return outcome;
}

std::vector<ChunkKey> ChunkCache::flush_dirty() {
  std::vector<ChunkKey> dirty;
  for (Node& node : nodes_) {
    if (node.dirty) {
      dirty.push_back(node.key);
      node.dirty = false;
    }
  }
  std::sort(dirty.begin(), dirty.end(), [](const ChunkKey& a, const ChunkKey& b) {
    return a.rank != b.rank ? a.rank < b.rank : a.chunk < b.chunk;
  });
  return dirty;
}

}  // namespace tunio::h5

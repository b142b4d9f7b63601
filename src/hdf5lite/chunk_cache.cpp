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

const ChunkEntry* ChunkTable::find(std::uint64_t chunk) const {
  const std::uint64_t page = chunk >> kPageBits;
  const Page* found = page == memo_page_ ? memo_ : nullptr;
  if (found == nullptr) {
    Page* const* indexed = index_.find(page);
    if (indexed == nullptr) return nullptr;
    found = *indexed;
  }
  return &found->entries[chunk & (kPageSize - 1)];
}

ChunkTable::Page& ChunkTable::page_for(std::uint64_t page) {
  const auto [slot, inserted] = index_.try_emplace(page, nullptr);
  if (inserted) {
    pages_.push_back(std::make_unique<Page>());
    *slot = pages_.back().get();
  }
  return **slot;
}

ChunkCache::ChunkCache(ChunkCacheProps props, Bytes chunk_bytes)
    : props_(props), chunk_bytes_(chunk_bytes) {
  TUNIO_CHECK_MSG(chunk_bytes_ > 0, "chunk size must be positive");
  const auto by_bytes =
      static_cast<std::size_t>(props_.rdcc_nbytes / chunk_bytes_);
  max_resident_ = std::min<std::size_t>(by_bytes, props_.rdcc_nslots);
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
  const ChunkEntry* entry = table_.find(key.chunk);
  for (std::uint32_t n = entry ? entry->resident : kNoNode; n != kNoNode;
       n = nodes_[n].chain) {
    if (nodes_[n].key.rank == key.rank) return true;
  }
  return false;
}

void ChunkCache::unlink(std::uint32_t node) {
  Node& n = nodes_[node];
  (n.prev == kNoNode ? head_ : nodes_[n.prev].next) = n.next;
  (n.next == kNoNode ? tail_ : nodes_[n.next].prev) = n.prev;
}

void ChunkCache::push_front(std::uint32_t node) {
  Node& n = nodes_[node];
  n.prev = kNoNode;
  n.next = head_;
  (head_ == kNoNode ? tail_ : nodes_[head_].prev) = node;
  head_ = node;
}

void ChunkCache::unchain(std::uint32_t node) {
  std::uint32_t* link = &nodes_[node].entry->resident;
  while (*link != node) link = &nodes_[*link].chain;
  *link = nodes_[node].chain;
}

void ChunkCache::touch(const ChunkKey& key, ChunkEntry& entry, bool write,
                       CacheOutcome& outcome) {
  for (std::uint32_t n = entry.resident; n != kNoNode; n = nodes_[n].chain) {
    if (nodes_[n].key.rank != key.rank) continue;
    ++stats_.hits;
    outcome.hit = true;
    nodes_[n].dirty |= write;
    if (n != head_) {
      unlink(n);
      push_front(n);
    }
    return;
  }
  ++stats_.misses;
  // The new chunk takes a fresh pool node, or the LRU victim's.
  std::uint32_t node = tail_;
  if (nodes_.size() == max_resident_) {
    const Node& victim = nodes_[node];
    ++stats_.evictions;
    if (victim.dirty) {
      ++stats_.dirty_evictions;
      outcome.evicted_dirty = victim.key;
      outcome.evicted_entry = victim.entry;
    }
    unchain(node);
    unlink(node);
  } else {
    node = static_cast<std::uint32_t>(nodes_.size());
    nodes_.emplace_back();
  }
  Node& n = nodes_[node];
  n.key = key;
  n.entry = &entry;
  n.chain = entry.resident;
  n.dirty = write;
  entry.resident = node;
  push_front(node);
}

CacheOutcome ChunkCache::touch_write(const ChunkKey& key, ChunkEntry& entry,
                                     Bytes covered_bytes,
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
  touch(key, entry, /*write=*/true, outcome);
  outcome.needs_preread = partial && !outcome.hit;
  return outcome;
}

CacheOutcome ChunkCache::touch_read(const ChunkKey& key, ChunkEntry& entry) {
  CacheOutcome outcome;
  if (max_resident_ == 0) {
    ++stats_.bypasses;
    outcome.bypass = true;
    return outcome;
  }
  touch(key, entry, /*write=*/false, outcome);
  return outcome;
}

std::vector<std::uint32_t> ChunkCache::take_dirty() {
  std::vector<std::uint32_t> dirty;
  unsigned max_rank = 0;
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    Node& node = nodes_[i];
    if (!node.dirty) continue;
    node.dirty = false;
    dirty.push_back(i);
    max_rank = std::max(max_rank, node.key.rank);
  }
  if (max_rank >= dirty.size() + 4096) {
    // Sparse ranks: too many buckets for a counting sort.
    std::sort(dirty.begin(), dirty.end(),
              [this](std::uint32_t a, std::uint32_t b) {
                const ChunkKey& x = nodes_[a].key;
                const ChunkKey& y = nodes_[b].key;
                return x.rank != y.rank ? x.rank < y.rank : x.chunk < y.chunk;
              });
    return dirty;
  }
  // Ranks are dense: a counting sort by rank, then a sort of each rank's
  // chunk ids where they are not in order already.
  std::vector<std::uint32_t> rank_ends(std::size_t{max_rank} + 1, 0);
  for (const std::uint32_t i : dirty) ++rank_ends[nodes_[i].key.rank];
  std::uint32_t begin = 0;
  for (std::uint32_t& end : rank_ends) {
    begin += end;
    end = begin - end;  // start of the bucket, for now
  }
  std::vector<std::uint32_t> sorted(dirty.size());
  for (const std::uint32_t i : dirty) {
    sorted[rank_ends[nodes_[i].key.rank]++] = i;
  }
  const auto by_chunk = [this](std::uint32_t a, std::uint32_t b) {
    return nodes_[a].key.chunk < nodes_[b].key.chunk;
  };
  begin = 0;
  for (const std::uint32_t end : rank_ends) {
    const auto first = sorted.begin() + begin;
    const auto last = sorted.begin() + end;
    if (!std::is_sorted(first, last, by_chunk)) {
      std::sort(first, last, by_chunk);
    }
    begin = end;
  }
  return sorted;
}

std::vector<ChunkKey> ChunkCache::flush_dirty() {
  std::vector<ChunkKey> dirty;
  flush_dirty([&dirty](const ChunkKey& key, ChunkEntry&) {
    dirty.push_back(key);
  });
  return dirty;
}

}  // namespace tunio::h5

// LRU chunk cache simulation (HDF5's rdcc).
//
// HDF5 stages chunked-dataset raw data in a per-dataset cache of
// `rdcc_nbytes`; whole chunks are evicted (and written back when dirty)
// under LRU. The cache turns repeated partial-chunk accesses into a
// single chunk-sized write at eviction — exactly the behaviour the
// `chunk_cache` tuning parameter controls. A chunk larger than the cache
// bypasses it entirely, which is HDF5's real behaviour and the main
// performance cliff this parameter creates.
//
// The cache tracks *which* chunk of *which rank* is resident; the caller
// translates evictions into simulated I/O. Its state is flat: a node pool
// of at most `max_resident_` entries, an LRU list linked by pool index,
// and an open-addressed index, so a touch allocates nothing.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/units.hpp"
#include "hdf5lite/flat_map.hpp"
#include "hdf5lite/properties.hpp"

namespace tunio::h5 {

/// Identity of a cached chunk: owning rank and chunk index.
struct ChunkKey {
  unsigned rank = 0;
  std::uint64_t chunk = 0;

  bool operator==(const ChunkKey&) const = default;
};

/// Mixes both fields: every rank touches the same chunk ids, so a hash
/// that leaves the rank out of the low bits piles them onto one slot.
struct ChunkKeyHash {
  std::uint64_t operator()(const ChunkKey& k) const {
    return mix64(k.chunk + 0x9E3779B97F4A7C15ull * k.rank);
  }
};

/// Outcome of touching a chunk in the cache.
struct CacheOutcome {
  bool hit = false;          ///< chunk was already resident
  bool bypass = false;       ///< chunk can't fit; caller does direct I/O
  bool needs_preread = false;///< partial access to a non-resident chunk
  /// Dirty chunk to write back. Only a miss on a full cache evicts, and
  /// then exactly one chunk.
  std::optional<ChunkKey> evicted_dirty;
};

struct ChunkCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t bypasses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t dirty_evictions = 0;
};

class ChunkCache {
 public:
  ChunkCache(ChunkCacheProps props, Bytes chunk_bytes);
  /// Flushes accumulated stats into the global metrics registry
  /// (`h5.chunk_cache.*` series).
  ~ChunkCache();

  /// Touches `key` for a write covering `covered_bytes` of the chunk
  /// (`chunk_was_allocated` says whether the chunk already exists on disk,
  /// which decides if a partial miss needs a pre-read).
  CacheOutcome touch_write(const ChunkKey& key, Bytes covered_bytes,
                           bool chunk_was_allocated);

  /// Touches `key` for a read.
  CacheOutcome touch_read(const ChunkKey& key);

  /// Marks every resident chunk clean and returns the ones that were
  /// dirty, ordered by (rank, chunk) (flush at dataset close).
  std::vector<ChunkKey> flush_dirty();

  bool resident(const ChunkKey& key) const;
  std::size_t resident_chunks() const { return nodes_.size(); }
  Bytes capacity() const { return props_.rdcc_nbytes; }
  Bytes chunk_bytes() const { return chunk_bytes_; }
  const ChunkCacheStats& stats() const { return stats_; }

 private:
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  /// A resident chunk; `prev`/`next` link the LRU list by pool index.
  struct Node {
    ChunkKey key;
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
    bool dirty = false;
  };

  /// Makes `key` the most recent chunk: a hit, or a miss that inserts it
  /// (evicting the LRU chunk when full). A write marks it dirty.
  void touch(const ChunkKey& key, bool write, CacheOutcome& outcome);
  void unlink(std::uint32_t node);
  void push_front(std::uint32_t node);

  ChunkCacheProps props_;
  Bytes chunk_bytes_;
  std::size_t max_resident_;  ///< min(nbytes/chunk, nslots)
  std::vector<Node> nodes_;   ///< pool; grows to max_resident_ at most
  std::uint32_t head_ = kNil; ///< most recent
  std::uint32_t tail_ = kNil; ///< least recent: the next victim
  FlatMap<ChunkKey, std::uint32_t, ChunkKeyHash> index_;  ///< key -> node
  ChunkCacheStats stats_;
};

}  // namespace tunio::h5

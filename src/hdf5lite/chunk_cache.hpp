// LRU chunk cache simulation (HDF5's rdcc) and the chunk table it shares
// with its dataset.
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
// translates evictions into simulated I/O. All per-chunk state lives in
// one `ChunkTable` entry: the chunk's file offset and the head of a chain
// of its resident cache nodes (one per rank). A touch finds the entry once
// and walks that chain; each node points back at its entry, so an eviction
// unchains its victim without a lookup. The nodes sit in a pool of at most
// `max_resident_` entries with an LRU list linked by pool index, so a
// touch allocates nothing once the pool and the table pages exist.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/units.hpp"
#include "hdf5lite/flat_map.hpp"
#include "hdf5lite/properties.hpp"

namespace tunio::h5 {

/// Pool index meaning "no cache node".
inline constexpr std::uint32_t kNoNode = ~std::uint32_t{0};

/// One chunk's row in its dataset's chunk table.
struct ChunkEntry {
  static constexpr Bytes kUnallocated = ~Bytes{0};

  Bytes offset = kUnallocated;      ///< file offset, once the chunk has space
  std::uint32_t resident = kNoNode; ///< first cache node holding the chunk

  bool allocated() const { return offset != kUnallocated; }
};

/// Chunk id -> entry, in fixed pages of `kPageSize` ids allocated on first
/// touch and found through a `FlatMap` keyed by page number. The last page
/// used is memoised: consecutive chunk ids share a page, so a run of
/// touches pays one map probe per page. A sparse declaration (2^50 chunks)
/// costs only the pages it touches. Entries never move.
class ChunkTable {
 public:
  static constexpr unsigned kPageBits = 6;
  static constexpr std::uint64_t kPageSize = std::uint64_t{1} << kPageBits;

  /// The chunk's entry, creating its page on first touch.
  ChunkEntry& at(std::uint64_t chunk) {
    const std::uint64_t page = chunk >> kPageBits;
    if (page != memo_page_) {
      memo_ = &page_for(page);
      memo_page_ = page;
    }
    return memo_->entries[chunk & (kPageSize - 1)];
  }

  /// The chunk's entry, or nullptr when no id of its page was touched.
  const ChunkEntry* find(std::uint64_t chunk) const;

  std::size_t pages() const { return pages_.size(); }

 private:
  struct Page {
    std::array<ChunkEntry, kPageSize> entries;
  };

  Page& page_for(std::uint64_t page);

  FlatMap<std::uint64_t, Page*> index_;  ///< page number -> page
  std::vector<std::unique_ptr<Page>> pages_;
  std::uint64_t memo_page_ = ~std::uint64_t{0};  ///< no page number is ~0
  Page* memo_ = nullptr;
};

/// Identity of a cached chunk: owning rank and chunk index.
struct ChunkKey {
  unsigned rank = 0;
  std::uint64_t chunk = 0;

  bool operator==(const ChunkKey&) const = default;
};

/// Outcome of touching a chunk in the cache.
struct CacheOutcome {
  bool hit = false;          ///< chunk was already resident
  bool bypass = false;       ///< chunk can't fit; caller does direct I/O
  bool needs_preread = false;///< partial access to a non-resident chunk
  /// Dirty chunk to write back, and its table entry. Only a miss on a full
  /// cache evicts, and then exactly one chunk.
  std::optional<ChunkKey> evicted_dirty;
  ChunkEntry* evicted_entry = nullptr;
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
  /// Sizes nothing up front: the pool and the table grow on first touch.
  ChunkCache(ChunkCacheProps props, Bytes chunk_bytes);
  /// Flushes accumulated stats into the global metrics registry
  /// (`h5.chunk_cache.*` series).
  ~ChunkCache();

  /// The dataset's chunk table: file offsets and residency per chunk.
  ChunkTable& table() { return table_; }
  const ChunkTable& table() const { return table_; }

  /// Touches `key` (whose entry in `table()` is `entry`) for a write
  /// covering `covered_bytes` of the chunk (`chunk_was_allocated` says
  /// whether the chunk already exists on disk, which decides if a partial
  /// miss needs a pre-read).
  CacheOutcome touch_write(const ChunkKey& key, ChunkEntry& entry,
                           Bytes covered_bytes, bool chunk_was_allocated);
  /// Touches `key` (whose entry in `table()` is `entry`) for a read.
  CacheOutcome touch_read(const ChunkKey& key, ChunkEntry& entry);

  /// The same, finding the entry first.
  CacheOutcome touch_write(const ChunkKey& key, Bytes covered_bytes,
                           bool chunk_was_allocated) {
    return touch_write(key, table_.at(key.chunk), covered_bytes,
                       chunk_was_allocated);
  }
  CacheOutcome touch_read(const ChunkKey& key) {
    return touch_read(key, table_.at(key.chunk));
  }

  /// Marks every resident chunk clean and calls `write_back(key, entry)`
  /// on each one that was dirty, ordered by (rank, chunk) (flush at
  /// dataset close). `write_back` must not touch the cache.
  template <class WriteBack>
  void flush_dirty(WriteBack&& write_back) {
    for (const std::uint32_t node : take_dirty()) {
      write_back(nodes_[node].key, *nodes_[node].entry);
    }
  }
  /// The same, returning the dirty keys.
  std::vector<ChunkKey> flush_dirty();

  bool resident(const ChunkKey& key) const;
  std::size_t resident_chunks() const { return nodes_.size(); }
  Bytes capacity() const { return props_.rdcc_nbytes; }
  Bytes chunk_bytes() const { return chunk_bytes_; }
  const ChunkCacheStats& stats() const { return stats_; }

 private:
  /// A resident chunk; `prev`/`next` link the LRU list by pool index and
  /// `chain` links the other nodes resident for the same chunk.
  struct Node {
    ChunkKey key;
    ChunkEntry* entry = nullptr;
    std::uint32_t prev = kNoNode;
    std::uint32_t next = kNoNode;
    std::uint32_t chain = kNoNode;
    bool dirty = false;
  };

  /// Makes `key` the most recent chunk: a hit, or a miss that inserts it
  /// (evicting the LRU chunk when full). A write marks it dirty.
  void touch(const ChunkKey& key, ChunkEntry& entry, bool write,
             CacheOutcome& outcome);
  void unlink(std::uint32_t node);
  void push_front(std::uint32_t node);
  /// Removes `node` from its entry's chain of resident nodes.
  void unchain(std::uint32_t node);
  /// Marks every dirty node clean; returns them in (rank, chunk) order.
  std::vector<std::uint32_t> take_dirty();

  ChunkCacheProps props_;
  Bytes chunk_bytes_;
  std::size_t max_resident_;  ///< min(nbytes/chunk, nslots)
  ChunkTable table_;
  std::vector<Node> nodes_;   ///< pool; grows to max_resident_ at most
  std::uint32_t head_ = kNoNode; ///< most recent
  std::uint32_t tail_ = kNoNode; ///< least recent: the next victim
  ChunkCacheStats stats_;
};

}  // namespace tunio::h5

// Tests for the HDF5-like library: chunk cache, metadata manager,
// dataset layouts, sieve buffering, property effects.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <list>
#include <map>
#include <random>
#include <set>

#include "common/error.hpp"
#include "hdf5lite/chunk_cache.hpp"
#include "hdf5lite/file.hpp"
#include "hdf5lite/metadata.hpp"

namespace tunio::h5 {
namespace {

// --- ChunkCache ----------------------------------------------------------

TEST(ChunkCache, HitsAndMisses) {
  ChunkCacheProps props;
  props.rdcc_nbytes = 4 * MiB;
  ChunkCache cache(props, 1 * MiB);
  auto first = cache.touch_write({0, 0}, 1 * MiB, false);
  EXPECT_FALSE(first.hit);
  auto second = cache.touch_write({0, 0}, 1 * MiB, true);
  EXPECT_TRUE(second.hit);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(ChunkCache, LruEvictionOrder) {
  ChunkCacheProps props;
  props.rdcc_nbytes = 2 * MiB;  // two 1 MiB chunks fit
  ChunkCache cache(props, 1 * MiB);
  cache.touch_write({0, 0}, 1 * MiB, false);
  cache.touch_write({0, 1}, 1 * MiB, false);
  // Touch chunk 0 again so chunk 1 is LRU.
  cache.touch_write({0, 0}, 1 * MiB, true);
  auto outcome = cache.touch_write({0, 2}, 1 * MiB, false);
  ASSERT_TRUE(outcome.evicted_dirty.has_value());
  EXPECT_EQ(outcome.evicted_dirty->chunk, 1u);  // LRU victim
  EXPECT_TRUE(cache.resident({0, 0}));
  EXPECT_FALSE(cache.resident({0, 1}));
}

TEST(ChunkCache, BypassWhenChunkLargerThanCache) {
  ChunkCacheProps props;
  props.rdcc_nbytes = 512 * KiB;
  ChunkCache cache(props, 1 * MiB);  // chunk can't fit
  auto outcome = cache.touch_write({0, 0}, 256 * KiB, true);
  EXPECT_TRUE(outcome.bypass);
  EXPECT_TRUE(outcome.needs_preread);  // partial write of an existing chunk
  auto full = cache.touch_write({0, 1}, 1 * MiB, true);
  EXPECT_TRUE(full.bypass);
  EXPECT_FALSE(full.needs_preread);  // full overwrite: no pre-read
  EXPECT_EQ(cache.stats().bypasses, 2u);
}

TEST(ChunkCache, PartialMissOfExistingChunkNeedsPreread) {
  ChunkCacheProps props;
  props.rdcc_nbytes = 8 * MiB;
  ChunkCache cache(props, 1 * MiB);
  auto fresh = cache.touch_write({0, 0}, 4 * KiB, /*allocated=*/false);
  EXPECT_FALSE(fresh.needs_preread);  // chunk doesn't exist on disk yet
  auto existing = cache.touch_write({1, 1}, 4 * KiB, /*allocated=*/true);
  EXPECT_TRUE(existing.needs_preread);
}

TEST(ChunkCache, NslotsLimitsResidency) {
  ChunkCacheProps props;
  props.rdcc_nbytes = 100 * MiB;
  props.rdcc_nslots = 2;
  ChunkCache cache(props, 1 * MiB);
  cache.touch_write({0, 0}, 1 * MiB, false);
  cache.touch_write({0, 1}, 1 * MiB, false);
  cache.touch_write({0, 2}, 1 * MiB, false);
  EXPECT_EQ(cache.resident_chunks(), 2u);
}

TEST(ChunkCache, FlushDirtyReturnsAllDirtyOnce) {
  ChunkCacheProps props;
  props.rdcc_nbytes = 8 * MiB;
  ChunkCache cache(props, 1 * MiB);
  cache.touch_write({0, 0}, 1 * MiB, false);
  cache.touch_write({0, 1}, 1 * MiB, false);
  cache.touch_read({0, 2});
  auto dirty = cache.flush_dirty();
  EXPECT_EQ(dirty.size(), 2u);  // the read-only chunk is clean
  EXPECT_TRUE(cache.flush_dirty().empty());  // idempotent
}

TEST(ChunkCache, PerRankKeysAreDistinct) {
  ChunkCacheProps props;
  props.rdcc_nbytes = 8 * MiB;
  ChunkCache cache(props, 1 * MiB);
  cache.touch_write({0, 7}, 1 * MiB, false);
  auto other_rank = cache.touch_write({1, 7}, 1 * MiB, false);
  EXPECT_FALSE(other_rank.hit);  // same chunk index, different rank
}

// --- FlatMap ---------------------------------------------------------------

// Random inserts and lookups against std::map, growing from empty. Keys
// differ only above bit 40, so every one lands in the same low bits
// before mixing.
TEST(FlatMap, MatchesStdMapThroughGrowth) {
  FlatMap<std::uint64_t, std::uint64_t> flat;
  std::map<std::uint64_t, std::uint64_t> model;
  std::mt19937_64 rng(0xF1A7);
  for (int step = 0; step < 50000; ++step) {
    const std::uint64_t key = (rng() % 3000) << 40;
    const std::uint64_t* found = flat.find(key);
    const auto it = model.find(key);
    ASSERT_EQ(found != nullptr, it != model.end()) << "step " << step;
    if (found != nullptr) {
      ASSERT_EQ(*found, it->second);
    }
    if (rng() % 3 != 0) {
      const auto [value, inserted] = flat.try_emplace(key, step);
      ASSERT_EQ(inserted, found == nullptr);
      if (inserted) model.emplace(key, step);
      ASSERT_EQ(*value, model.at(key));
    }
  }
  for (const auto& [key, value] : model) {
    ASSERT_NE(flat.find(key), nullptr);
    EXPECT_EQ(*flat.find(key), value);
  }
  EXPECT_EQ(flat.find(std::uint64_t{1}), nullptr);
}

// --- ChunkTable ------------------------------------------------------------

TEST(ChunkTable, FirstAndLastIdOfAPageShareItsPage) {
  ChunkTable table;
  constexpr std::uint64_t kPage = ChunkTable::kPageSize;
  for (const std::uint64_t first :
       {std::uint64_t{0}, 5 * kPage, (std::uint64_t{1} << 49) - kPage}) {
    SCOPED_TRACE("page starting at " + std::to_string(first));
    const std::size_t pages = table.pages();
    ChunkEntry& head = table.at(first);
    ChunkEntry& tail = table.at(first + kPage - 1);
    EXPECT_EQ(table.pages(), pages + 1);
    EXPECT_EQ(&tail - &head, static_cast<std::ptrdiff_t>(kPage - 1));
    EXPECT_FALSE(head.allocated());
    EXPECT_EQ(head.resident, kNoNode);
    head.offset = first + 1;
    tail.offset = first + 2;
    // The next id opens the next page; the entries stay where they were.
    table.at(first + kPage).offset = 7;
    EXPECT_EQ(table.pages(), pages + 2);
    EXPECT_EQ(table.find(first), &head);
    EXPECT_EQ(table.find(first + kPage - 1)->offset, first + 2);
    EXPECT_EQ(&table.at(first), &head);
  }
}

TEST(ChunkTable, MissOnAnAbsentPage) {
  ChunkTable table;
  EXPECT_EQ(table.find(0), nullptr);
  table.at(ChunkTable::kPageSize + 3).offset = 42;
  EXPECT_EQ(table.find(ChunkTable::kPageSize - 1), nullptr);
  EXPECT_EQ(table.find(2 * ChunkTable::kPageSize), nullptr);
  EXPECT_EQ(table.find(~std::uint64_t{0}), nullptr);
  // A present page answers for ids never touched: unallocated entries.
  ASSERT_NE(table.find(ChunkTable::kPageSize), nullptr);
  EXPECT_FALSE(table.find(ChunkTable::kPageSize)->allocated());
  EXPECT_EQ(table.find(ChunkTable::kPageSize + 3)->offset, 42u);
  EXPECT_EQ(table.pages(), 1u);
}

// Dirty chunks come back in (rank, chunk) order whatever order they were
// touched in, for dense ranks (bucketed) and for ranks too sparse to
// bucket (compared).
TEST(ChunkCache, FlushDirtyOrdersByRankThenChunk) {
  for (const unsigned stride : {1u, 1u << 28}) {
    SCOPED_TRACE("rank stride " + std::to_string(stride));
    ChunkCacheProps props;
    props.rdcc_nbytes = 64 * MiB;
    ChunkCache cache(props, 1 * MiB);
    std::vector<ChunkKey> want;
    for (unsigned r = 0; r < 4; ++r) {
      for (std::uint64_t c = 0; c < 5; ++c) {
        want.push_back({r * stride, c * 64 + r});
      }
    }
    std::vector<ChunkKey> order = want;
    std::mt19937_64 rng(stride);
    std::shuffle(order.begin(), order.end(), rng);
    for (const ChunkKey& key : order) cache.touch_write(key, 1 * MiB, false);
    cache.touch_read({2 * stride, 999});  // clean: not flushed
    EXPECT_EQ(cache.flush_dirty(), want);
    EXPECT_TRUE(cache.flush_dirty().empty());
  }
}

// The list-and-map LRU that ChunkCache's flat pool replaced: the oracle of
// the differential test below.
class ReferenceLru {
 public:
  struct Outcome {
    bool hit = false;
    bool bypass = false;
    bool needs_preread = false;
    std::vector<ChunkKey> evicted_dirty;
  };

  ReferenceLru(ChunkCacheProps props, Bytes chunk_bytes)
      : chunk_bytes_(chunk_bytes),
        max_resident_(std::min<std::size_t>(props.rdcc_nbytes / chunk_bytes,
                                            props.rdcc_nslots)) {}

  Outcome touch(const ChunkKey& key, bool write, Bytes covered,
                bool allocated) {
    Outcome out;
    const bool partial = write && allocated && covered < chunk_bytes_;
    if (max_resident_ == 0) {
      ++stats.bypasses;
      out.bypass = true;
      out.needs_preread = partial;
      return out;
    }
    if (auto it = entries_.find(key); it != entries_.end()) {
      ++stats.hits;
      out.hit = true;
      it->second.dirty |= write;
      lru_.splice(lru_.begin(), lru_, it->second.pos);
      return out;
    }
    ++stats.misses;
    out.needs_preread = partial;
    while (entries_.size() >= max_resident_) {
      const ChunkKey victim = lru_.back();
      lru_.pop_back();
      ++stats.evictions;
      if (entries_.at(victim).dirty) {
        ++stats.dirty_evictions;
        out.evicted_dirty.push_back(victim);
      }
      entries_.erase(victim);
    }
    lru_.push_front(key);
    entries_[key] = Entry{lru_.begin(), write};
    return out;
  }

  /// Dirty chunks in (rank, chunk) order: the map's own order.
  std::vector<ChunkKey> flush_dirty() {
    std::vector<ChunkKey> dirty;
    for (auto& [key, entry] : entries_) {
      if (entry.dirty) dirty.push_back(key);
      entry.dirty = false;
    }
    return dirty;
  }

  std::vector<ChunkKey> keys() const {
    return std::vector<ChunkKey>(lru_.begin(), lru_.end());
  }
  std::size_t size() const { return entries_.size(); }

  ChunkCacheStats stats;

 private:
  struct Entry {
    std::list<ChunkKey>::iterator pos;
    bool dirty = false;
  };
  struct KeyLess {
    bool operator()(const ChunkKey& a, const ChunkKey& b) const {
      return a.rank != b.rank ? a.rank < b.rank : a.chunk < b.chunk;
    }
  };

  Bytes chunk_bytes_;
  std::size_t max_resident_;
  std::list<ChunkKey> lru_;  ///< front = most recent
  std::map<ChunkKey, Entry, KeyLess> entries_;
};

void expect_same_stats(const ChunkCacheStats& a, const ChunkCacheStats& b) {
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.bypasses, b.bypasses);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(a.dirty_evictions, b.dirty_evictions);
}

// Seeded random traces of reads, writes and flushes from 128 ranks that
// share chunk ids (the pattern a hash without the rank in its low bits
// piles onto one slot), at the residency limits 0, 1, 2 and 521.
TEST(ChunkCache, MatchesReferenceLruOnRandomTraces) {
  constexpr Bytes kChunk = 4 * KiB;
  for (const std::size_t limit : {0u, 1u, 2u, 521u}) {
    SCOPED_TRACE("max resident " + std::to_string(limit));
    ChunkCacheProps props;
    props.rdcc_nbytes = (limit == 521 ? 1024 : limit) * kChunk;
    props.rdcc_nslots = 521;
    ChunkCache cache(props, kChunk);
    ReferenceLru model(props, kChunk);
    std::mt19937_64 rng(0xC4C4E + limit);
    ChunkKey key;
    for (int step = 0; step < 20000; ++step) {
      if (rng() % 500 == 0) {
        ASSERT_EQ(cache.flush_dirty(), model.flush_dirty());
        continue;
      }
      if (rng() % 4 != 0) {  // else re-touch the previous key
        key.rank = static_cast<unsigned>(rng() % 128);
        key.chunk = rng() % 8 + (rng() % 2 == 0 ? 0 : std::uint64_t{1} << 40);
      }
      const bool write = rng() % 3 != 0;
      const Bytes covered = rng() % 2 == 0 ? kChunk : kChunk / 2;
      const bool allocated = rng() % 2 == 0;
      const CacheOutcome got = write
                                   ? cache.touch_write(key, covered, allocated)
                                   : cache.touch_read(key);
      const ReferenceLru::Outcome want =
          model.touch(key, write, covered, allocated);
      ASSERT_EQ(got.hit, want.hit) << "step " << step;
      ASSERT_EQ(got.bypass, want.bypass) << "step " << step;
      ASSERT_EQ(got.needs_preread, want.needs_preread) << "step " << step;
      ASSERT_LE(want.evicted_dirty.size(), 1u);
      ASSERT_EQ(got.evicted_dirty.has_value(), !want.evicted_dirty.empty());
      if (got.evicted_dirty) {
        ASSERT_EQ(*got.evicted_dirty, want.evicted_dirty.front());
        ASSERT_FALSE(cache.resident(*got.evicted_dirty));
      }
      expect_same_stats(cache.stats(), model.stats);
      ASSERT_EQ(cache.resident_chunks(), model.size());
      ASSERT_EQ(cache.resident(key), limit > 0);
      if (step % 97 == 0) {
        for (const ChunkKey& k : model.keys()) ASSERT_TRUE(cache.resident(k));
      }
    }
    EXPECT_EQ(cache.flush_dirty(), model.flush_dirty());
  }
}

// --- MetadataManager ------------------------------------------------------

TEST(MetadataManager, RawAllocationHonorsAlignment) {
  mpisim::MpiSim mpi(4);
  pfs::PfsSimulator fs;
  fs.create_file("/f", 0.0);
  FileAccessProps fapl;
  fapl.alignment = 1 * MiB;
  fapl.alignment_threshold = 64 * KiB;
  MetadataManager meta(mpi, fs, "/f", fapl);
  const Bytes tiny = meta.alloc_raw(1 * KiB);  // below threshold: packed
  EXPECT_NE(tiny % (1 * MiB), 0u);             // sits right after the sb
  const Bytes big = meta.alloc_raw(2 * MiB);   // above threshold: aligned
  EXPECT_EQ(big % (1 * MiB), 0u);
  const Bytes next = meta.alloc_raw(1 * MiB);  // still aligned (eoa moved)
  EXPECT_EQ(next % (1 * MiB), 0u);
}

TEST(MetadataManager, MetaBlockAggregationReducesBlocks) {
  mpisim::MpiSim mpi(4);
  pfs::PfsSimulator fs;
  fs.create_file("/f", 0.0);
  FileAccessProps small;
  small.meta_block_size = 2 * KiB;
  FileAccessProps large;
  large.meta_block_size = 64 * KiB;
  MetadataManager meta_small(mpi, fs, "/f", small);
  MetadataManager meta_large(mpi, fs, "/f", large);
  for (int i = 0; i < 64; ++i) {
    meta_small.alloc_meta(1 * KiB);
    meta_large.alloc_meta(1 * KiB);
  }
  EXPECT_GT(meta_small.stats().meta_blocks, meta_large.stats().meta_blocks);
}

TEST(MetadataManager, EagerVsCollectiveMetadataWrites) {
  mpisim::MpiSim mpi(4);
  pfs::PfsSimulator fs;
  fs.create_file("/f", 0.0);
  FileAccessProps eager;  // coll_metadata_write = false
  MetadataManager meta_eager(mpi, fs, "/f", eager);
  for (int i = 0; i < 10; ++i) meta_eager.meta_update(256);
  EXPECT_EQ(meta_eager.stats().meta_writes, 10u);  // one write per update

  FileAccessProps coll;
  coll.coll_metadata_write = true;
  MetadataManager meta_coll(mpi, fs, "/f", coll);
  for (int i = 0; i < 10; ++i) meta_coll.meta_update(256);
  EXPECT_EQ(meta_coll.stats().meta_writes, 0u);  // staged
  meta_coll.flush();
  EXPECT_EQ(meta_coll.stats().meta_writes, 1u);  // one aggregated write
  EXPECT_EQ(meta_coll.stats().meta_bytes_written, 2560u);
}

TEST(MetadataManager, CollectiveLookupAvoidsMdsStorm) {
  FileAccessProps storm;  // coll_metadata_ops = false
  FileAccessProps coll;
  coll.coll_metadata_ops = true;

  auto misses_mds_ops = [](const FileAccessProps& fapl) {
    mpisim::MpiSim mpi(32);
    pfs::PfsSimulator fs;
    fs.create_file("/f", 0.0);
    FileAccessProps tiny_cache = fapl;
    tiny_cache.mdc_nbytes = 0;  // force misses
    MetadataManager meta(mpi, fs, "/f", tiny_cache);
    meta.meta_update(64 * KiB);  // build a working set
    const auto before = fs.counters().metadata_ops;
    for (int i = 0; i < 8; ++i) meta.meta_lookup(512);
    return fs.counters().metadata_ops - before;
  };
  EXPECT_GT(misses_mds_ops(storm), misses_mds_ops(coll));
}

TEST(MetadataManager, MdcCacheAbsorbsLookups) {
  mpisim::MpiSim mpi(8);
  pfs::PfsSimulator fs;
  fs.create_file("/f", 0.0);
  FileAccessProps big_cache;
  big_cache.mdc_nbytes = 64 * MiB;
  MetadataManager meta(mpi, fs, "/f", big_cache);
  meta.meta_update(1 * KiB);
  for (int i = 0; i < 100; ++i) meta.meta_lookup(512);
  // Working set fits: nearly all lookups hit.
  EXPECT_GT(meta.stats().mdc_hits, 90u);
}

// --- Dataset / File -------------------------------------------------------

struct Stack {
  mpisim::MpiSim mpi{8};
  pfs::PfsSimulator fs;
};

std::vector<Selection> slabs(unsigned ranks, std::uint64_t per_rank,
                             std::uint64_t base = 0) {
  std::vector<Selection> sels;
  for (unsigned r = 0; r < ranks; ++r) {
    sels.push_back({r, base + r * per_rank, per_rank});
  }
  return sels;
}

TEST(H5File, CreateDatasetAndWrite) {
  Stack s;
  File file(s.mpi, s.fs, "/f.h5", FileAccessProps{}, mpiio::Hints{});
  Dataset& ds = file.create_dataset("x", 4, 1 << 20);
  EXPECT_FALSE(ds.chunked());
  ds.write(slabs(8, 1 << 17), TransferProps{true});
  EXPECT_EQ(ds.stats().h5_writes, 8u);
  EXPECT_EQ(ds.stats().bytes_written, (1u << 20) * 4u);
  file.close();
  EXPECT_GT(s.fs.counters().bytes_written, (1u << 20) * 4u - 1);
}

TEST(H5File, DuplicateDatasetRejected) {
  Stack s;
  File file(s.mpi, s.fs, "/f.h5", FileAccessProps{}, mpiio::Hints{});
  file.create_dataset("x", 4, 100);
  EXPECT_THROW(file.create_dataset("x", 4, 100), Error);
  EXPECT_TRUE(file.has_dataset("x"));
  EXPECT_FALSE(file.has_dataset("y"));
  EXPECT_THROW(file.dataset("y"), Error);
}

TEST(H5File, OutOfBoundsSelectionRejected) {
  Stack s;
  File file(s.mpi, s.fs, "/f.h5", FileAccessProps{}, mpiio::Hints{});
  Dataset& ds = file.create_dataset("x", 4, 100);
  std::vector<Selection> bad{{0, 90, 20}};
  EXPECT_THROW(ds.write(bad, TransferProps{}), Error);
  EXPECT_THROW(ds.read(bad, TransferProps{}), Error);
}

TEST(H5Dataset, ChunkedWritesThroughCache) {
  Stack s;
  ChunkCacheProps cache;
  cache.rdcc_nbytes = 64 * MiB;  // everything stays cached
  File file(s.mpi, s.fs, "/f.h5", FileAccessProps{}, mpiio::Hints{});
  DatasetCreateProps dcpl;
  dcpl.chunk_elements = 1 << 15;  // 128 KiB chunks of 4-byte elems
  Dataset& ds = file.create_dataset("c", 4, 1 << 20, dcpl, cache);
  EXPECT_TRUE(ds.chunked());
  const Bytes raw_before = s.fs.counters().bytes_written;
  ds.write(slabs(8, 1 << 17), TransferProps{true});
  // Raw data sits in the cache until flush; only metadata has hit disk.
  const Bytes mid = s.fs.counters().bytes_written - raw_before;
  EXPECT_LT(mid, 1 * MiB);
  ds.flush();
  const Bytes after = s.fs.counters().bytes_written - raw_before;
  EXPECT_GE(after, (1u << 20) * 4u);
}

// A chunked dataset may declare far more chunks than it ever touches
// (2^50 one-element chunks here). The chunk index holds touched chunks
// only: an index sized by the declared extent would throw or exhaust
// memory, and the two chunks keep the offsets first-touch order gives.
TEST(H5Dataset, HugeSparseChunkedDatasetIndexesTouchedChunksOnly) {
  Stack s;
  File file(s.mpi, s.fs, "/f.h5", FileAccessProps{}, mpiio::Hints{});
  DatasetCreateProps dcpl;
  dcpl.chunk_elements = 1;
  const std::uint64_t far = std::uint64_t{1} << 49;
  Dataset& ds = file.create_dataset("sparse", 4, std::uint64_t{1} << 50, dcpl,
                                    ChunkCacheProps{});
  ds.write({{0, 0, 1}, {1, far, 1}}, TransferProps{});
  ds.flush();
  EXPECT_EQ(ds.chunk_offset(0), std::optional<Bytes>(6144));
  EXPECT_EQ(ds.chunk_offset(far), std::optional<Bytes>(6148));
  EXPECT_EQ(ds.chunk_offset(1), std::nullopt);
  file.close();
}

TEST(H5Dataset, TinyCacheCausesEvictionTraffic) {
  auto dirty_evictions = [](Bytes cache_bytes) {
    Stack s;
    ChunkCacheProps cache;
    cache.rdcc_nbytes = cache_bytes;
    File file(s.mpi, s.fs, "/f.h5", FileAccessProps{}, mpiio::Hints{});
    DatasetCreateProps dcpl;
    dcpl.chunk_elements = 1 << 18;  // 1 MiB chunks
    Dataset& ds = file.create_dataset("c", 4, 1 << 23, dcpl, cache);
    ds.write(slabs(8, 1 << 20), TransferProps{true});
    return ds.cache_stats()->dirty_evictions;
  };
  EXPECT_GT(dirty_evictions(1 * MiB), dirty_evictions(64 * MiB));
}

TEST(H5Dataset, ContiguousSieveCoalescesSmallWrites) {
  auto sieve_flushes = [](Bytes sieve) {
    Stack s;
    FileAccessProps fapl;
    fapl.sieve_buf_size = sieve;
    File file(s.mpi, s.fs, "/f.h5", fapl, mpiio::Hints{});
    Dataset& ds = file.create_dataset("x", 4, 1 << 20);
    // Rank 0 writes 64 sequential 1 KiB pieces (256 elements each).
    for (std::uint64_t i = 0; i < 64; ++i) {
      std::vector<Selection> one{{0, i * 256, 256}};
      ds.write(one, TransferProps{false});
    }
    ds.flush();
    return ds.stats().sieve_flushes;
  };
  // A big sieve buffer absorbs everything into few flushes.
  EXPECT_LT(sieve_flushes(1 * MiB), sieve_flushes(4 * KiB));
}

TEST(H5Dataset, SieveReadAheadServesSequentialReads) {
  Stack s;
  FileAccessProps fapl;
  fapl.sieve_buf_size = 256 * KiB;
  File file(s.mpi, s.fs, "/f.h5", fapl, mpiio::Hints{});
  Dataset& ds = file.create_dataset("x", 4, 1 << 20);
  ds.write(slabs(1, 1 << 20), TransferProps{false});
  ds.flush();
  const auto reads_before = s.fs.counters().reads;
  // 16 small sequential reads within one sieve window.
  for (std::uint64_t i = 0; i < 16; ++i) {
    std::vector<Selection> one{{0, i * 256, 256}};
    ds.read(one, TransferProps{false});
  }
  // Far fewer PFS reads than application reads.
  EXPECT_LT(s.fs.counters().reads - reads_before, 16u);
}

TEST(H5Dataset, ChunkReadMissFetchesWholeChunk) {
  Stack s;
  ChunkCacheProps cache;
  cache.rdcc_nbytes = 16 * MiB;
  File file(s.mpi, s.fs, "/f.h5", FileAccessProps{}, mpiio::Hints{});
  DatasetCreateProps dcpl;
  dcpl.chunk_elements = 1 << 18;
  Dataset& ds = file.create_dataset("c", 4, 1 << 21, dcpl, cache);
  ds.write(slabs(2, 1 << 20), TransferProps{true});
  ds.flush();
  const Bytes read_before = s.fs.counters().bytes_read;
  // Rank 1 reads a chunk it never wrote: its cache misses and the whole
  // chunk is fetched for a 64-byte read. (Rank 0 would hit its cache.)
  std::vector<Selection> small{{1, 0, 16}};
  ds.read(small, TransferProps{false});
  EXPECT_GE(s.fs.counters().bytes_read - read_before, 1 * MiB);
  // A second small read of the same chunk hits the cache: no more I/O.
  const Bytes read_mid = s.fs.counters().bytes_read;
  std::vector<Selection> small2{{1, 32, 16}};
  ds.read(small2, TransferProps{false});
  EXPECT_EQ(s.fs.counters().bytes_read, read_mid);
}

TEST(H5File, CloseFlushesEverythingAndIsIdempotent) {
  Stack s;
  ChunkCacheProps cache;
  cache.rdcc_nbytes = 64 * MiB;
  {
    File file(s.mpi, s.fs, "/f.h5", FileAccessProps{}, mpiio::Hints{});
    DatasetCreateProps dcpl;
    dcpl.chunk_elements = 1 << 16;
    Dataset& ds = file.create_dataset("c", 4, 1 << 19, dcpl, cache);
    ds.write(slabs(4, 1 << 17), TransferProps{true});
    file.close();
    file.close();  // no-op
    EXPECT_THROW(file.create_dataset("late", 4, 10), Error);
  }
  // All raw bytes on disk after close (destructor also safe).
  EXPECT_GE(s.fs.counters().bytes_written, (1u << 19) * 4u);
}

TEST(H5File, CollectiveMetadataWriteReducesMetaWriteOps) {
  auto meta_writes = [](bool coll) {
    Stack s;
    FileAccessProps fapl;
    fapl.coll_metadata_write = coll;
    File file(s.mpi, s.fs, "/f.h5", fapl, mpiio::Hints{});
    for (int d = 0; d < 12; ++d) {
      std::string name = "d";
      name += std::to_string(d);
      file.create_dataset(name, 8, 4096);
    }
    file.close();
    return file.meta().stats().meta_writes;
  };
  EXPECT_LT(meta_writes(true), meta_writes(false));
}

/// One FNV-1a step over the eight bytes of `v`.
void fnv_add(std::uint64_t& hash, std::uint64_t v) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (v >> (8 * byte)) & 0xFF;
    hash *= 0x100000001B3ull;
  }
}

/// FNV-1a over everything a chunked data path leaves behind: every rank
/// clock, the pfs counters and OST busy times, the dataset and cache
/// stats, and the file offset of every chunk the trace touched.
std::uint64_t chunked_state_hash(const mpisim::MpiSim& mpi,
                                 const pfs::PfsSimulator& fs,
                                 const Dataset& ds,
                                 const std::set<std::uint64_t>& touched) {
  std::uint64_t hash = 0xCBF29CE484222325ull;
  for (unsigned r = 0; r < mpi.size(); ++r) {
    fnv_add(hash, std::bit_cast<std::uint64_t>(mpi.clock(r)));
  }
  const pfs::PfsCounters& c = fs.counters();
  for (const std::uint64_t v : {c.reads, c.writes, c.bytes_read,
                                c.bytes_written, c.metadata_ops, c.rmw_bytes,
                                c.read_sizes.largest, c.write_sizes.largest}) {
    fnv_add(hash, v);
  }
  for (const std::uint64_t v : c.read_sizes.counts) fnv_add(hash, v);
  for (const std::uint64_t v : c.write_sizes.counts) fnv_add(hash, v);
  for (const SimSeconds busy : fs.ost_busy_times()) {
    fnv_add(hash, std::bit_cast<std::uint64_t>(busy));
  }
  const DatasetStats& d = ds.stats();
  for (const std::uint64_t v : {d.h5_writes, d.h5_reads, d.bytes_written,
                                d.bytes_read, d.chunk_prereads,
                                d.sieve_flushes}) {
    fnv_add(hash, v);
  }
  const ChunkCacheStats& cs = *ds.cache_stats();
  for (const std::uint64_t v : {cs.hits, cs.misses, cs.bypasses, cs.evictions,
                                cs.dirty_evictions}) {
    fnv_add(hash, v);
  }
  for (const std::uint64_t chunk : touched) {
    const std::optional<Bytes> offset = ds.chunk_offset(chunk);
    fnv_add(hash, chunk);
    fnv_add(hash, offset.value_or(~Bytes{0}));
  }
  return hash;
}

/// Runs a seeded random trace of chunked writes, reads and flushes from 16
/// ranks on 4-element chunks: whole-chunk, partial and multi-chunk
/// selections, chunk ids on and across 64-id boundaries, ids near 2^49,
/// one hot chunk id that every rank shares, collective and independent
/// transfers. Returns the hash of the state it leaves.
std::uint64_t run_chunked_trace(std::size_t max_resident, std::uint64_t seed) {
  constexpr std::uint64_t kChunkElems = 4;
  constexpr Bytes kElemSize = 8;
  constexpr Bytes kChunkBytes = kChunkElems * kElemSize;
  mpisim::MpiSim mpi(16);
  pfs::PfsSimulator fs;
  FileAccessProps fapl;
  fapl.alignment = seed % 2 == 0 ? 1 : 64;
  fapl.mdc_nbytes = seed % 3 == 0 ? 2 * MiB : 4 * KiB;
  File file(mpi, fs, "/pin.h5", fapl, mpiio::Hints{});
  ChunkCacheProps cache;
  cache.rdcc_nbytes = (max_resident == 521 ? 1024 : max_resident) * kChunkBytes;
  cache.rdcc_nslots = 521;
  DatasetCreateProps dcpl;
  dcpl.chunk_elements = kChunkElems;
  Dataset& ds = file.create_dataset("pinned", kElemSize,
                                    std::uint64_t{1} << 52, dcpl, cache);
  std::mt19937_64 rng(seed);
  const std::uint64_t far = std::uint64_t{1} << 49;
  const std::uint64_t kHot = 77;
  std::set<std::uint64_t> touched;
  for (int op = 0; op < 1000; ++op) {
    if (rng() % 40 == 0) {
      ds.flush();
      continue;
    }
    std::vector<Selection> sels;
    const unsigned ranks = 1 + static_cast<unsigned>(rng() % 8);
    for (unsigned i = 0; i < ranks; ++i) {
      Selection sel;
      sel.rank = static_cast<unsigned>(rng() % 16);
      std::uint64_t chunk = 0;
      switch (rng() % 4) {
        case 0: chunk = kHot; break;
        case 1: chunk = far - 70 + rng() % 140; break;
        case 2: chunk = 64 * (1 + rng() % 3) - 2 + rng() % 4; break;
        default: chunk = rng() % 300; break;
      }
      const std::uint64_t within = rng() % 2 == 0 ? 0 : rng() % kChunkElems;
      sel.start_element = chunk * kChunkElems + within;
      switch (rng() % 3) {
        case 0: sel.count = kChunkElems - within; break;
        case 1: sel.count = 1 + rng() % (kChunkElems - 1); break;
        default: sel.count = 1 + rng() % (3 * kChunkElems); break;
      }
      const std::uint64_t last = sel.start_element + sel.count - 1;
      for (std::uint64_t c = chunk; c <= last / kChunkElems; ++c) {
        touched.insert(c);
      }
      sels.push_back(sel);
    }
    const TransferProps dxpl{rng() % 2 == 0};
    if (rng() % 3 == 0) {
      ds.read(sels, dxpl);
    } else {
      ds.write(sels, dxpl);
    }
  }
  ds.flush();
  const std::uint64_t hash = chunked_state_hash(mpi, fs, ds, touched);
  file.close();
  return hash;
}

// Pins the whole chunked data path: the hashes were recorded with the
// hashed (rank, chunk) cache index and chunk-offset map, so any table
// behind them must reproduce every clock, counter and offset bit for bit.
TEST(H5Dataset, SeededChunkedTracesArePinned) {
  struct Pin {
    std::size_t max_resident;
    std::uint64_t seed;
    std::uint64_t hash;
  };
  const Pin pins[] = {
      {0, 1, 0xf98516512020aa59ull},   {0, 2, 0x107b45a8db31fbf1ull},
      {0, 3, 0xa879bc569875dbd8ull},   {1, 1, 0x29443a1e4800f1d8ull},
      {1, 2, 0x496b7e9baa391eddull},   {1, 3, 0xe12bb6ef8cf0ca9aull},
      {2, 1, 0x0785709ba507beceull},   {2, 2, 0xa95da23507f674a2ull},
      {2, 3, 0x3f6825ed964bebc3ull},   {521, 1, 0xbf822b8f23d6990bull},
      {521, 2, 0x9b4097bf104618d7ull}, {521, 3, 0x41c7efca777326bdull},
  };
  for (const Pin& pin : pins) {
    EXPECT_EQ(run_chunked_trace(pin.max_resident, pin.seed), pin.hash)
        << "max resident " << pin.max_resident << ", seed " << pin.seed;
  }
}

/// Property: whatever the chunk/cache geometry, closing the file lands at
/// least the full payload on the PFS (no lost raw data).
class ChunkGeometryProperty
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, Bytes>> {};

TEST_P(ChunkGeometryProperty, PayloadConservedThroughCache) {
  const auto [chunk_elems, cache_bytes] = GetParam();
  Stack s;
  ChunkCacheProps cache;
  cache.rdcc_nbytes = cache_bytes;
  File file(s.mpi, s.fs, "/f.h5", FileAccessProps{}, mpiio::Hints{});
  DatasetCreateProps dcpl;
  dcpl.chunk_elements = chunk_elems;
  const std::uint64_t per_rank = 1 << 17;
  Dataset& ds =
      file.create_dataset("c", 4, per_rank * s.mpi.size(), dcpl, cache);
  ds.write(slabs(s.mpi.size(), per_rank), TransferProps{true});
  file.close();
  EXPECT_GE(s.fs.counters().bytes_written,
            per_rank * s.mpi.size() * 4);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ChunkGeometryProperty,
    ::testing::Combine(::testing::Values(std::uint64_t{1} << 12,
                                         std::uint64_t{1} << 15,
                                         std::uint64_t{1} << 18),
                       ::testing::Values(Bytes{1 * MiB}, Bytes{16 * MiB},
                                         Bytes{256 * MiB})));

}  // namespace
}  // namespace tunio::h5

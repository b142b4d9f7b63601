// Tests for the HDF5-like library: chunk cache, metadata manager,
// dataset layouts, sieve buffering, property effects.
#include <gtest/gtest.h>

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
  ASSERT_EQ(outcome.evicted_dirty.size(), 1u);
  EXPECT_EQ(outcome.evicted_dirty[0].chunk, 1u);  // LRU victim
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

// Tests for the Lustre-like PFS simulator: stripe layout math, cost-model
// behaviour, contention, tiers, and counters.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "pfs/layout.hpp"
#include "pfs/pfs.hpp"

namespace tunio::pfs {
namespace {

TEST(StripeLayout, SingleStripeIsIdentity) {
  StripeLayout layout(1 * MiB, 1, 0, 8);
  const auto pieces = layout.split(0, 10 * MiB);
  ASSERT_EQ(pieces.size(), 1u);  // coalesced: all on the same OST
  EXPECT_EQ(pieces[0].ost, 0u);
  EXPECT_EQ(pieces[0].object_offset, 0u);
  EXPECT_EQ(pieces[0].length, 10 * MiB);
}

TEST(StripeLayout, RoundRobinAcrossOsts) {
  StripeLayout layout(1 * MiB, 4, 0, 8);
  EXPECT_EQ(layout.ost_for(0), 0u);
  EXPECT_EQ(layout.ost_for(1 * MiB), 1u);
  EXPECT_EQ(layout.ost_for(3 * MiB), 3u);
  EXPECT_EQ(layout.ost_for(4 * MiB), 0u);  // wraps
}

TEST(StripeLayout, OstOffsetShiftsPlacement) {
  StripeLayout layout(1 * MiB, 4, 6, 8);
  EXPECT_EQ(layout.ost_for(0), 6u);
  EXPECT_EQ(layout.ost_for(1 * MiB), 7u);
  EXPECT_EQ(layout.ost_for(2 * MiB), 0u);  // wraps the pool
}

TEST(StripeLayout, ObjectOffsets) {
  StripeLayout layout(1 * MiB, 2, 0, 8);
  // File offset 2 MiB = second stripe round on OST 0 -> object offset 1MiB.
  EXPECT_EQ(layout.object_offset_for(2 * MiB), 1 * MiB);
  EXPECT_EQ(layout.object_offset_for(2 * MiB + 123), 1 * MiB + 123);
}

TEST(StripeLayout, StripeCountClampedToPool) {
  StripeLayout layout(1 * MiB, 64, 0, 4);
  EXPECT_EQ(layout.stripe_count(), 4u);
}

TEST(StripeLayout, RejectsBadArgs) {
  EXPECT_THROW(StripeLayout(0, 1, 0, 4), Error);
  EXPECT_THROW(StripeLayout(1 * MiB, 0, 0, 4), Error);
  EXPECT_THROW(StripeLayout(1 * MiB, 1, 0, 0), Error);
}

/// Property: splitting any extent yields pieces that exactly tile it.
class SplitProperty
    : public ::testing::TestWithParam<std::tuple<Bytes, unsigned>> {};

TEST_P(SplitProperty, PiecesTileTheExtent) {
  const auto [stripe_size, stripe_count] = GetParam();
  StripeLayout layout(stripe_size, stripe_count, 1, 16);
  Rng rng(99);
  for (int i = 0; i < 100; ++i) {
    const Bytes offset = static_cast<Bytes>(rng.uniform_int(0, 64 * MiB));
    const Bytes length = static_cast<Bytes>(rng.uniform_int(1, 16 * MiB));
    const auto pieces = layout.split(offset, length);
    ASSERT_FALSE(pieces.empty());
    Bytes covered = 0;
    Bytes cursor = offset;
    for (const auto& piece : pieces) {
      EXPECT_EQ(piece.file_offset, cursor);
      EXPECT_EQ(piece.ost, layout.ost_for(piece.file_offset));
      EXPECT_EQ(piece.object_offset,
                layout.object_offset_for(piece.file_offset));
      covered += piece.length;
      cursor += piece.length;
    }
    EXPECT_EQ(covered, length);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, SplitProperty,
    ::testing::Values(std::make_tuple(Bytes{64 * KiB}, 1u),
                      std::make_tuple(Bytes{1 * MiB}, 2u),
                      std::make_tuple(Bytes{1 * MiB}, 8u),
                      std::make_tuple(Bytes{4 * MiB}, 16u),
                      std::make_tuple(Bytes{16 * MiB}, 3u)));

TEST(PfsSimulator, CreateOpenRemove) {
  PfsSimulator fs;
  EXPECT_FALSE(fs.find_file("/a").has_value());
  fs.create_file("/a", 0.0);
  EXPECT_TRUE(fs.find_file("/a").has_value());
  EXPECT_NO_THROW(fs.open_file("/a", 0.0));
  fs.remove("/a", 0.0);
  EXPECT_FALSE(fs.find_file("/a").has_value());
  EXPECT_THROW(fs.open_file("/a", 0.0), Error);
}

TEST(PfsSimulator, WriteAdvancesTimeAndSize) {
  PfsSimulator fs;
  const FileHandle f = fs.create_file("/f", 0.0).handle;
  const SimSeconds done = fs.write(f, 1.0, 0, 8 * MiB);
  EXPECT_GT(done, 1.0);
  EXPECT_EQ(fs.file_size(f), 8 * MiB);
  EXPECT_EQ(fs.counters().writes, 1u);
  EXPECT_EQ(fs.counters().bytes_written, 8 * MiB);
}

TEST(PfsSimulator, WiderStripingIsFasterForLargeWrites) {
  PfsProfile profile;
  PfsSimulator fs(profile);
  CreateOptions narrow;
  narrow.stripe_count = 1;
  CreateOptions wide;
  wide.stripe_count = 16;
  const FileHandle narrow_file = fs.create_file("/narrow", 0.0, narrow).handle;
  const SimSeconds narrow_done = fs.write(narrow_file, 0.0, 0, 256 * MiB);
  fs.quiesce();
  const FileHandle wide_file = fs.create_file("/wide", 0.0, wide).handle;
  const SimSeconds wide_done = fs.write(wide_file, 0.0, 0, 256 * MiB);
  EXPECT_LT(wide_done, narrow_done);
}

TEST(PfsSimulator, UnalignedWritePaysRmw) {
  PfsSimulator fs;
  const FileHandle aligned = fs.create_file("/aligned", 0.0).handle;
  const FileHandle unaligned = fs.create_file("/unaligned", 0.0).handle;
  // Aligned full-block write: no RMW bytes.
  fs.write(aligned, 0.0, 0, 1 * MiB);
  EXPECT_EQ(fs.counters().rmw_bytes, 0u);
  // A non-sequential partial-block write must pre-read.
  fs.write(unaligned, 0.0, 512 * KiB, 4 * KiB);
  EXPECT_GT(fs.counters().rmw_bytes, 0u);
}

TEST(PfsSimulator, SequentialAppendsSkipRmw) {
  PfsSimulator fs;
  const FileHandle log = fs.create_file("/log", 0.0).handle;
  SimSeconds t = fs.write(log, 0.0, 0, 512);
  const Bytes before = fs.counters().rmw_bytes;
  for (int i = 1; i < 50; ++i) {
    t = fs.write(log, t, i * 512ull, 512);
  }
  // Streaming appends are absorbed by the page-cache model: no pre-reads.
  EXPECT_EQ(fs.counters().rmw_bytes, before);
}

TEST(PfsSimulator, ContentionSerializesOnOneOst) {
  PfsProfile profile;
  PfsSimulator fs(profile);
  CreateOptions one;
  one.stripe_count = 1;
  const FileHandle hot = fs.create_file("/hot", 0.0, one).handle;
  // Two writes "issued at the same time" to the same OST must serialize.
  const SimSeconds first = fs.write(hot, 0.0, 0, 64 * MiB);
  const SimSeconds second = fs.write(hot, 0.0, 64 * MiB, 64 * MiB);
  EXPECT_GT(second, first);
}

TEST(PfsSimulator, MemoryTierBypassesOsts) {
  PfsSimulator fs;
  CreateOptions mem;
  mem.tier = Tier::kMemory;
  const FileHandle shm = fs.create_file("/shm/f", 0.0, mem).handle;
  EXPECT_EQ(fs.file_tier(shm), Tier::kMemory);
  const SimSeconds done = fs.write(shm, 0.0, 0, 64 * MiB);
  // Memory tier leaves OST timelines untouched.
  for (const SimSeconds busy : fs.ost_busy_times()) {
    EXPECT_DOUBLE_EQ(busy, 0.0);
  }
  // And it is much faster than a single-stripe disk write of this size.
  CreateOptions one_stripe;
  one_stripe.stripe_count = 1;
  const FileHandle disk = fs.create_file("/disk/f", 0.0, one_stripe).handle;
  const SimSeconds disk_done = fs.write(disk, 0.0, 0, 64 * MiB);
  EXPECT_LT(done, disk_done);
}

TEST(PfsSimulator, ReadCountersAndMissingFile) {
  PfsSimulator fs;
  const FileHandle r = fs.create_file("/r", 0.0).handle;
  fs.write(r, 0.0, 0, 1 * MiB);
  fs.read(r, 10.0, 0, 1 * MiB);
  EXPECT_EQ(fs.counters().reads, 1u);
  EXPECT_EQ(fs.counters().bytes_read, 1 * MiB);
  // A missing file yields no handle, and a handle never issued reads
  // nothing.
  EXPECT_THROW(fs.open_file("/missing", 0.0), Error);
  EXPECT_THROW(fs.read(r + 1, 0.0, 0, 1), Error);
}

TEST(PfsSimulator, MetadataOpsContend) {
  PfsSimulator fs;
  const SimSeconds first = fs.metadata_op(0.0);
  const SimSeconds second = fs.metadata_op(0.0);
  EXPECT_GT(second, first);  // serialized on the MDS
  EXPECT_EQ(fs.counters().metadata_ops, 2u);
}

TEST(PfsSimulator, ResetClearsEverything) {
  PfsSimulator fs;
  const FileHandle x = fs.create_file("/x", 0.0).handle;
  fs.write(x, 0.0, 0, 1 * MiB);
  fs.reset();
  EXPECT_FALSE(fs.find_file("/x").has_value());
  EXPECT_EQ(fs.counters().writes, 0u);
  EXPECT_EQ(fs.counters().metadata_ops, 0u);
}

TEST(PfsSimulator, QuiesceKeepsFilesAndCounters) {
  PfsSimulator fs;
  const FileHandle x = fs.create_file("/x", 0.0).handle;
  fs.write(x, 0.0, 0, 1 * MiB);
  const auto writes_before = fs.counters().writes;
  fs.quiesce();
  EXPECT_TRUE(fs.find_file("/x").has_value());
  EXPECT_EQ(fs.counters().writes, writes_before);
  // Timelines rewound: a new op starts from t=0 contention-free.
  const SimSeconds done = fs.metadata_op(0.0);
  EXPECT_NEAR(done, fs.profile().mds.op_latency, 1e-12);
}

TEST(SizeHistogram, BucketsAndLabels) {
  SizeHistogram h;
  h.record(100);            // <4K
  h.record(8 * KiB);        // 4K-64K
  h.record(100 * KiB);      // 64K-1M
  h.record(2 * MiB);        // 1M-16M
  h.record(64 * MiB);       // >=16M
  h.record(64 * MiB);
  EXPECT_EQ(h.counts[0], 1u);
  EXPECT_EQ(h.counts[1], 1u);
  EXPECT_EQ(h.counts[2], 1u);
  EXPECT_EQ(h.counts[3], 1u);
  EXPECT_EQ(h.counts[4], 2u);
  EXPECT_EQ(h.total(), 6u);
  EXPECT_STREQ(SizeHistogram::label(0), "<4K");
  EXPECT_STREQ(SizeHistogram::label(4), ">=16M");
  SizeHistogram other = h;
  h -= other;
  EXPECT_EQ(h.total(), 0u);
}

TEST(PfsSimulator, CountersRecordAccessSizes) {
  PfsSimulator fs;
  const FileHandle h = fs.create_file("/h", 0.0).handle;
  fs.write(h, 0.0, 0, 512);
  fs.write(h, 0.0, 512, 8 * MiB);
  fs.read(h, 1.0, 0, 32 * KiB);
  EXPECT_EQ(fs.counters().write_sizes.counts[0], 1u);
  EXPECT_EQ(fs.counters().write_sizes.counts[3], 1u);
  EXPECT_EQ(fs.counters().read_sizes.counts[1], 1u);
  EXPECT_EQ(fs.counters().write_sizes.total(), 2u);
}

TEST(PfsSimulator, TeardownFlushReportsLargestWrite) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  registry.reset();
  {
    PfsSimulator fs;
    const FileHandle m = fs.create_file("/m", 0.0).handle;
    fs.write(m, 0.0, 0, 3 * MiB);
    fs.write(m, 0.0, 3 * MiB, 512);
    fs.write(m, 0.0, 4 * MiB, 40 * KiB);
  }
  const obs::MetricsSnapshot snap = registry.snapshot();
  const obs::MetricsSnapshot::HistogramValue* writes =
      snap.histogram("pfs.write_size_bytes");
  ASSERT_NE(writes, nullptr);
  EXPECT_EQ(writes->count, 3u);
  EXPECT_DOUBLE_EQ(writes->max, static_cast<double>(3 * MiB));
}

TEST(PfsSimulator, RoundRobinOstPlacementSpreadsFiles) {
  PfsSimulator fs;
  CreateOptions one;
  one.stripe_count = 1;
  const FileHandle a = fs.create_file("/a", 0.0, one).handle;
  const FileHandle b = fs.create_file("/b", 0.0, one).handle;
  EXPECT_NE(fs.file_layout(a).ost_offset(), fs.file_layout(b).ost_offset());
}

/// Property: time to write N bytes is monotone non-decreasing in N.
class PfsMonotoneProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(PfsMonotoneProperty, WriteTimeMonotoneInSize) {
  const unsigned stripes = GetParam();
  SimSeconds previous = 0.0;
  for (Bytes size = 1 * MiB; size <= 64 * MiB; size *= 2) {
    PfsSimulator fs;
    CreateOptions opts;
    opts.stripe_count = stripes;
    const FileHandle m = fs.create_file("/m", 0.0, opts).handle;
    const SimSeconds done = fs.write(m, 0.0, 0, size);
    EXPECT_GE(done, previous);
    previous = done;
  }
}

INSTANTIATE_TEST_SUITE_P(StripeCounts, PfsMonotoneProperty,
                         ::testing::Values(1u, 2u, 8u, 32u, 64u));

TEST(StripeLayout, VisitorMatchesSplit) {
  StripeLayout layout(1 * MiB, 4, 2, 8);
  const Bytes offset = 512 * KiB;
  const Bytes length = 13 * MiB + 777;
  const auto pieces = layout.split(offset, length);
  std::vector<StripeExtent> visited;
  layout.for_each_extent(offset, length, [&](const StripeExtent& piece) {
    visited.push_back(piece);
  });
  ASSERT_EQ(visited.size(), pieces.size());
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    EXPECT_EQ(visited[i].ost, pieces[i].ost);
    EXPECT_EQ(visited[i].object_offset, pieces[i].object_offset);
    EXPECT_EQ(visited[i].file_offset, pieces[i].file_offset);
    EXPECT_EQ(visited[i].length, pieces[i].length);
  }
}

TEST(PfsSimulator, OpenedHandleMatchesCreatedHandle) {
  // A handle resolved again by open_file addresses the same file as the
  // one create_file returned: same data-path timing, size and counters.
  PfsSimulator by_open;
  PfsSimulator by_create;
  const OpenResult created_first = by_open.create_file("/h", 0.0);
  const OpenResult reopened = by_open.open_file("/h", 0.0);
  EXPECT_EQ(reopened.handle, created_first.handle);
  const OpenResult created = by_create.create_file("/h", 0.0);
  for (int i = 0; i < 4; ++i) {
    const Bytes offset = static_cast<Bytes>(i) * 3 * MiB;
    const SimSeconds a =
        by_open.write(reopened.handle, 1.0 + i, offset, 3 * MiB);
    const SimSeconds b =
        by_create.write(created.handle, 1.0 + i, offset, 3 * MiB);
    EXPECT_EQ(a, b);
  }
  EXPECT_EQ(by_open.read(reopened.handle, 10.0, 1 * MiB, 4 * MiB),
            by_create.read(created.handle, 10.0, 1 * MiB, 4 * MiB));
  EXPECT_EQ(by_open.file_size(reopened.handle),
            by_create.file_size(created.handle));
  EXPECT_EQ(by_open.counters().bytes_written,
            by_create.counters().bytes_written);
}

TEST(PfsSimulator, FindFileChargesNoMetadataOp) {
  PfsSimulator fs;
  EXPECT_FALSE(fs.find_file("/q").has_value());
  const OpenResult opened = fs.create_file("/q", 0.0);
  const std::uint64_t metadata_ops = fs.counters().metadata_ops;
  const std::optional<FileHandle> found = fs.find_file("/q");
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, opened.handle);
  EXPECT_EQ(fs.counters().metadata_ops, metadata_ops);
}

TEST(PfsSimulator, CreateOnExistingPathTruncates) {
  PfsSimulator fs;
  const OpenResult first = fs.create_file("/t", 0.0);
  fs.write(first.handle, 0.0, 0, 4 * MiB);
  EXPECT_EQ(fs.file_size(*fs.find_file("/t")), 4 * MiB);
  const OpenResult again = fs.create_file("/t", 1.0);
  EXPECT_EQ(again.handle, first.handle);  // slot reused
  EXPECT_EQ(fs.file_size(*fs.find_file("/t")), 0u);
}

TEST(PfsSimulator, RemovedFileStaysUsableThroughHandle) {
  // POSIX unlinked-descriptor semantics: remove() drops the name, not the
  // open file.
  PfsSimulator fs;
  const OpenResult opened = fs.create_file("/u", 0.0);
  fs.write(opened.handle, 0.0, 0, 1 * MiB);
  fs.remove("/u", 1.0);
  EXPECT_FALSE(fs.find_file("/u").has_value());
  EXPECT_NO_THROW(fs.write(opened.handle, 2.0, 1 * MiB, 1 * MiB));
  EXPECT_EQ(fs.file_size(opened.handle), 2 * MiB);
}

TEST(PfsSimulator, HandleSequentialDetectionSurvivesQuiesce) {
  // Two appends: the second is sequential and skips the RMW penalty. After
  // quiesce() the OST history is wiped, so the same append pays it again.
  PfsSimulator fs;
  CreateOptions opts;
  opts.stripe_count = 1;
  const OpenResult opened = fs.create_file("/s", 0.0, opts);
  const Bytes odd = 1 * MiB + 4096;  // not stripe-aligned at the tail
  fs.write(opened.handle, 0.0, 0, odd);
  const SimSeconds warm_start = 100.0;
  const SimSeconds warm = fs.write(opened.handle, warm_start, odd, odd);
  fs.quiesce();
  const SimSeconds cold = fs.write(opened.handle, warm_start, odd, odd);
  EXPECT_GT(cold, warm);
}

}  // namespace
}  // namespace tunio::pfs

// Tests for the Lustre-like PFS simulator: stripe layout math, cost-model
// behaviour, contention, tiers, and counters, plus a differential test of
// the simulator's striped data path against a per-extent reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/timeline.hpp"
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

TEST(PfsSimulator, RejectsInvalidOstProfile) {
  // The striped data path relies on every OST service time being finite
  // and non-negative.
  PfsProfile zero_bandwidth;
  zero_bandwidth.ost.stream_bandwidth = 0.0;
  EXPECT_THROW(PfsSimulator{zero_bandwidth}, Error);
  PfsProfile zero_block;
  zero_block.ost.rmw_block = 0;
  EXPECT_THROW(PfsSimulator{zero_block}, Error);
  PfsProfile negative_seek;
  negative_seek.ost.seek_latency = -1e-3;
  EXPECT_THROW(PfsSimulator{negative_seek}, Error);
}

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

/// The per-extent model that `PfsSimulator::serve_pieces` replaced, kept
/// as its oracle: each request is decomposed by
/// `StripeLayout::split` and every extent is serviced on its own, with its
/// own service time, drain and RMW arithmetic. File placement follows
/// `create_file` (round-robin start OST, advanced by the requested count).
class ReferencePfs {
 public:
  explicit ReferencePfs(const PfsProfile& profile)
      : profile_(profile),
        osts_(profile.num_osts),
        network_(profile.network.aggregate_bandwidth,
                 profile.network.message_latency) {}

  std::size_t create(Bytes stripe_size, unsigned stripe_count) {
    files_.push_back({StripeLayout(stripe_size, stripe_count,
                                   next_ost_offset_, profile_.num_osts),
                      std::vector<Bytes>(profile_.num_osts, kNever)});
    next_ost_offset_ = (next_ost_offset_ + stripe_count) % profile_.num_osts;
    ++counters_.metadata_ops;
    return files_.size() - 1;
  }

  const StripeLayout& layout(std::size_t file) const {
    return files_[file].layout;
  }

  SimSeconds request(std::size_t index, SimSeconds start, Bytes offset,
                     Bytes length, bool is_write) {
    if (is_write) {
      ++counters_.writes;
      counters_.bytes_written += length;
      counters_.write_sizes.record(length);
    } else {
      ++counters_.reads;
      counters_.bytes_read += length;
      counters_.read_sizes.record(length);
    }
    File& file = files_[index];
    SimSeconds done = start;
    for (const StripeExtent& extent : file.layout.split(offset, length)) {
      done = std::max(done, service_extent(file, extent, start, is_write));
    }
    return done;
  }

  void quiesce() {
    for (ResourceTimeline& ost : osts_) ost.reset();
    network_.reset();
    for (File& file : files_) {
      std::fill(file.last_end.begin(), file.last_end.end(), kNever);
    }
  }

  const PfsCounters& counters() const { return counters_; }

  std::vector<SimSeconds> ost_busy_times() const {
    std::vector<SimSeconds> busy;
    for (const ResourceTimeline& ost : osts_) busy.push_back(ost.busy_time());
    return busy;
  }

 private:
  static constexpr Bytes kNever = ~Bytes{0};

  struct File {
    StripeLayout layout;
    std::vector<Bytes> last_end;  ///< per absolute OST id
  };

  SimSeconds service_extent(File& file, const StripeExtent& extent,
                            SimSeconds start, bool is_write) {
    ResourceTimeline& ost = osts_[extent.ost];
    const OstProfile& prof = profile_.ost;
    Bytes& last_end = file.last_end[extent.ost];
    const bool sequential = last_end == extent.object_offset;
    last_end = extent.object_offset + extent.length;

    SimSeconds service = prof.request_overhead +
                         static_cast<double>(extent.length) /
                             prof.stream_bandwidth;
    if (!sequential) service += prof.seek_latency;

    if (is_write && !sequential) {
      const Bytes block = prof.rmw_block;
      const Bytes head_pad = extent.object_offset % block;
      const Bytes tail_end = (extent.object_offset + extent.length) % block;
      Bytes pre_read = 0;
      if (head_pad != 0) pre_read += head_pad;
      if (tail_end != 0 && extent.length + head_pad > tail_end) {
        pre_read += block - tail_end;
      }
      if (extent.length + pre_read < block && pre_read > 0) {
        pre_read = std::min<Bytes>(pre_read, block);
      }
      if (pre_read > 0) {
        service += prof.rmw_read_factor *
                   static_cast<double>(pre_read) / prof.stream_bandwidth;
        counters_.rmw_bytes += pre_read;
      }
    }

    if (is_write) {
      const SimSeconds arrived = network_.transfer(start, extent.length);
      return ost.acquire(arrived, service).end;
    }
    const SimSeconds served = ost.acquire(start, service).end;
    return network_.transfer(served, extent.length);
  }

  PfsProfile profile_;
  std::vector<ResourceTimeline> osts_;
  SharedChannel network_;
  std::vector<File> files_;
  PfsCounters counters_;
  unsigned next_ost_offset_ = 0;
};

void expect_same_histogram(const SizeHistogram& sim,
                           const SizeHistogram& ref) {
  EXPECT_EQ(sim.counts, ref.counts);
  EXPECT_EQ(sim.largest, ref.largest);
}

void expect_same_state(const PfsSimulator& sim, const ReferencePfs& ref) {
  const PfsCounters& a = sim.counters();
  const PfsCounters& b = ref.counters();
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_EQ(a.writes, b.writes);
  EXPECT_EQ(a.bytes_read, b.bytes_read);
  EXPECT_EQ(a.bytes_written, b.bytes_written);
  EXPECT_EQ(a.metadata_ops, b.metadata_ops);
  EXPECT_EQ(a.rmw_bytes, b.rmw_bytes);
  expect_same_histogram(a.read_sizes, b.read_sizes);
  expect_same_histogram(a.write_sizes, b.write_sizes);
  // Bit for bit: EXPECT_EQ compares doubles with ==.
  EXPECT_EQ(sim.ost_busy_times(), ref.ost_busy_times());
}

/// Parameter: OST pool size and RMW block of the profile under test.
class PfsDifferential
    : public ::testing::TestWithParam<std::tuple<unsigned, Bytes>> {};

/// Seeded random request sequences over many files: stripe units from
/// 64 KiB to 16 MiB plus odd sizes, stripe counts 1, 2, 7, 64 and more
/// than the pool (clamped), start OSTs that wrap the pool, sequential
/// streams (the whole-stripe fast path), unaligned and zero-length
/// requests, reads and writes, and quiesce() between batches. Every
/// completion time, counter and OST busy time must equal the per-extent
/// reference's bit for bit.
TEST_P(PfsDifferential, MatchesPerExtentReference) {
  PfsProfile profile;
  std::tie(profile.num_osts, profile.ost.rmw_block) = GetParam();
  const std::vector<Bytes> units = {64 * KiB, 1 * MiB,         4 * MiB,
                                    16 * MiB, 65537,           3 * MiB + 123,
                                    1000,     1 * MiB + 4096};
  const std::vector<unsigned> counts = {1, 2, 7, 64, 100};

  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    Rng rng(seed);
    PfsSimulator sim(profile);
    ReferencePfs ref(profile);
    std::vector<FileHandle> handles;
    std::vector<Bytes> cursors;  // per-file streaming position
    for (int f = 0; f < 12; ++f) {
      CreateOptions options;
      options.stripe_size = rng.choice(units);
      options.stripe_count = rng.choice(counts);
      handles.push_back(
          sim.create_file("/f" + std::to_string(f), 0.0, options).handle);
      const std::size_t index =
          ref.create(*options.stripe_size, *options.stripe_count);
      ASSERT_EQ(sim.file_layout(handles.back()).ost_offset(),
                ref.layout(index).ost_offset());
      ASSERT_EQ(sim.file_layout(handles.back()).stripe_count(),
                ref.layout(index).stripe_count());
      cursors.push_back(0);
    }

    SimSeconds clock = 0.0;
    for (int batch = 0; batch < 6; ++batch) {
      for (int i = 0; i < 300; ++i) {
        const std::size_t f = rng.index(handles.size());
        const StripeLayout& layout = ref.layout(f);
        const Bytes unit = layout.stripe_size();
        const Bytes span = unit * layout.stripe_count();
        Bytes offset = 0;
        Bytes length = 0;
        switch (rng.uniform_int(0, 4)) {
          case 0:  // stream on from where this file's last request ended
            offset = cursors[f];
            length = static_cast<Bytes>(rng.uniform_int(1, 3)) * span;
            break;
          case 1:  // whole stripes from a stripe boundary
            offset = static_cast<Bytes>(rng.uniform_int(0, 40)) * unit;
            length = static_cast<Bytes>(rng.uniform_int(1, 70)) * unit;
            break;
          case 2:  // unaligned anywhere
            offset = static_cast<Bytes>(rng.uniform_int(0, 40 * span));
            length = static_cast<Bytes>(rng.uniform_int(1, 3 * span));
            break;
          case 3:  // small, possibly inside one device block
            offset = static_cast<Bytes>(rng.uniform_int(0, 8 * span));
            length = static_cast<Bytes>(rng.uniform_int(1, 8 * KiB));
            break;
          default:  // zero-length: services nothing
            offset = static_cast<Bytes>(rng.uniform_int(0, 8 * span));
            length = 0;
            break;
        }
        cursors[f] = offset + length;
        const bool is_write = rng.chance(0.7);
        // Start at the running clock (queues form) or at a random earlier
        // time (requests find idle resources).
        const SimSeconds start =
            rng.chance(0.5) ? clock : rng.uniform(0.0, clock + 1e-3);
        const SimSeconds expected =
            ref.request(f, start, offset, length, is_write);
        const SimSeconds got =
            is_write ? sim.write(handles[f], start, offset, length)
                     : sim.read(handles[f], start, offset, length);
        ASSERT_EQ(got, expected)
            << "request " << i << " of batch " << batch << ": file " << f
            << (is_write ? " write " : " read ") << offset << "+" << length;
        // Sometimes the caller waits for its request before the next one.
        if (rng.chance(0.3)) clock = std::max(clock, got);
      }
      expect_same_state(sim, ref);
      sim.quiesce();
      ref.quiesce();
      clock = 0.0;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Profiles, PfsDifferential,
    ::testing::Values(std::make_tuple(64u, Bytes{1 * MiB}),  // the default
                      std::make_tuple(13u, Bytes{192 * KiB}),
                      std::make_tuple(5u, Bytes{1000})));

}  // namespace
}  // namespace tunio::pfs

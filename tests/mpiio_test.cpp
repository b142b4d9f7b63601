// Tests for the MPI-IO middleware: independent vs two-phase collective
// paths, hint handling, request coalescing.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "mpiio/mpiio.hpp"

namespace tunio::mpiio {
namespace {

std::vector<Request> slab_requests(unsigned ranks, Bytes per_rank) {
  std::vector<Request> reqs;
  for (unsigned r = 0; r < ranks; ++r) {
    reqs.push_back({r, r * per_rank, per_rank});
  }
  return reqs;
}

TEST(MpiIoFile, OpenCreatesAndSynchronizes) {
  mpisim::MpiSim mpi(8);
  pfs::PfsSimulator fs;
  mpi.compute(3, 2.0);
  MpiIoFile file(mpi, fs, "/f", Hints{});
  EXPECT_TRUE(fs.find_file("/f").has_value());
  // Open is collective: all ranks leave together, past the laggard.
  EXPECT_DOUBLE_EQ(mpi.min_clock(), mpi.max_clock());
  EXPECT_GE(mpi.min_clock(), 2.0);
}

TEST(MpiIoFile, OpenExistingDoesNotTruncateLayout) {
  mpisim::MpiSim mpi(4);
  pfs::PfsSimulator fs;
  pfs::CreateOptions wide;
  wide.stripe_count = 8;
  const pfs::FileHandle pre = fs.create_file("/pre", 0.0, wide).handle;
  MpiIoFile file(mpi, fs, "/pre", Hints{});
  EXPECT_EQ(fs.file_layout(pre).stripe_count(), 8u);
}

TEST(MpiIoFile, IndependentWriteAdvancesOnlyThatRank) {
  mpisim::MpiSim mpi(4);
  pfs::PfsSimulator fs;
  MpiIoFile file(mpi, fs, "/f", Hints{});
  const SimSeconds before = mpi.clock(1);
  file.write_at(2, 0, 4 * MiB);
  EXPECT_GT(mpi.clock(2), before);
  EXPECT_DOUBLE_EQ(mpi.clock(1), before);
  EXPECT_EQ(file.counters().independent_writes, 1u);
}

TEST(MpiIoFile, ZeroLengthOpsAreFree) {
  mpisim::MpiSim mpi(2);
  pfs::PfsSimulator fs;
  MpiIoFile file(mpi, fs, "/f", Hints{});
  const SimSeconds before = mpi.clock(0);
  file.write_at(0, 0, 0);
  file.read_at(0, 0, 0);
  EXPECT_DOUBLE_EQ(mpi.clock(0), before);
  EXPECT_EQ(file.counters().independent_writes, 0u);
}

TEST(MpiIoFile, CollectiveEnableUsesTwoPhase) {
  mpisim::MpiSim mpi(16);
  pfs::PfsSimulator fs;
  Hints hints;
  hints.collective = CollectiveMode::kEnable;
  hints.cb_nodes = 4;
  MpiIoFile file(mpi, fs, "/f", hints);
  file.write_at_all(slab_requests(16, 256 * KiB));
  EXPECT_EQ(file.counters().collective_writes, 1u);
  EXPECT_GT(file.counters().aggregator_ops, 0u);
  EXPECT_GT(file.counters().shuffle_bytes, 0u);
  // All ranks synchronized after the collective call.
  EXPECT_DOUBLE_EQ(mpi.min_clock(), mpi.max_clock());
}

TEST(MpiIoFile, CollectiveDisableGoesIndependent) {
  mpisim::MpiSim mpi(16);
  pfs::PfsSimulator fs;
  Hints hints;
  hints.collective = CollectiveMode::kDisable;
  MpiIoFile file(mpi, fs, "/f", hints);
  file.write_at_all(slab_requests(16, 256 * KiB));
  EXPECT_EQ(file.counters().aggregator_ops, 0u);
  EXPECT_EQ(file.counters().shuffle_bytes, 0u);
  EXPECT_EQ(fs.counters().writes, 16u);  // one PFS write per rank
}

TEST(MpiIoFile, AutoModePicksCollectiveForSmallInterleaved) {
  mpisim::MpiSim mpi(32);
  pfs::PfsSimulator fs;
  Hints hints;  // kAuto
  MpiIoFile file(mpi, fs, "/f", hints);
  file.write_at_all(slab_requests(32, 64 * KiB));  // small pieces
  EXPECT_GT(file.counters().aggregator_ops, 0u);
}

TEST(MpiIoFile, AutoModePicksIndependentForLargeContiguous) {
  mpisim::MpiSim mpi(8);
  pfs::PfsSimulator fs;
  Hints hints;  // kAuto
  MpiIoFile file(mpi, fs, "/f", hints);
  file.write_at_all(slab_requests(8, 64 * MiB));  // huge per-rank slabs
  EXPECT_EQ(file.counters().aggregator_ops, 0u);
}

TEST(MpiIoFile, CollectiveBuffersBytesConserved) {
  mpisim::MpiSim mpi(16);
  pfs::PfsSimulator fs;
  Hints hints;
  hints.collective = CollectiveMode::kEnable;
  hints.cb_nodes = 4;
  MpiIoFile file(mpi, fs, "/f", hints);
  const Bytes per_rank = 512 * KiB;
  file.write_at_all(slab_requests(16, per_rank));
  EXPECT_EQ(fs.counters().bytes_written, 16 * per_rank);
}

TEST(MpiIoFile, MoreAggregatorsSpeedUpSmallWrites) {
  auto run_with = [](unsigned cb_nodes) {
    mpisim::MpiSim mpi(64);
    pfs::PfsSimulator fs;
    Hints hints;
    hints.collective = CollectiveMode::kEnable;
    hints.cb_nodes = cb_nodes;
    pfs::CreateOptions wide;
    wide.stripe_count = 16;
    MpiIoFile file(mpi, fs, "/f", hints, wide);
    file.write_at_all(slab_requests(64, 1 * MiB));
    return mpi.max_clock();
  };
  EXPECT_LT(run_with(16), run_with(1));
}

TEST(MpiIoFile, CollectiveReadMirrorsWrite) {
  mpisim::MpiSim mpi(8);
  pfs::PfsSimulator fs;
  Hints hints;
  hints.collective = CollectiveMode::kEnable;
  hints.cb_nodes = 2;
  MpiIoFile file(mpi, fs, "/f", hints);
  file.write_at_all(slab_requests(8, 256 * KiB));
  const Bytes written = fs.counters().bytes_written;
  file.read_at_all(slab_requests(8, 256 * KiB));
  EXPECT_EQ(file.counters().collective_reads, 1u);
  EXPECT_EQ(fs.counters().bytes_read, written);
}

TEST(MpiIoFile, OverlappingRequestsCoalesce) {
  mpisim::MpiSim mpi(4);
  pfs::PfsSimulator fs;
  Hints hints;
  hints.collective = CollectiveMode::kEnable;
  hints.cb_nodes = 1;
  MpiIoFile file(mpi, fs, "/f", hints);
  // Two ranks write the same extent; the aggregator writes it once per
  // coalesced run, so PFS bytes < sum of request bytes.
  std::vector<Request> reqs{{0, 0, 1 * MiB}, {1, 0, 1 * MiB}};
  file.write_at_all(reqs);
  EXPECT_EQ(fs.counters().bytes_written, 1 * MiB);
}

TEST(MpiIoFile, CloseIsIdempotentAndBlocksIo) {
  mpisim::MpiSim mpi(2);
  pfs::PfsSimulator fs;
  MpiIoFile file(mpi, fs, "/f", Hints{});
  file.close();
  file.close();
  EXPECT_THROW(file.write_at(0, 0, 1), Error);
  EXPECT_THROW(file.read_at(0, 0, 1), Error);
}

TEST(MpiIoFile, EmptyCollectiveIsCheap) {
  mpisim::MpiSim mpi(4);
  pfs::PfsSimulator fs;
  Hints hints;
  hints.collective = CollectiveMode::kEnable;
  MpiIoFile file(mpi, fs, "/f", hints);
  std::vector<Request> empty{{0, 0, 0}, {1, 0, 0}};
  file.write_at_all(empty);
  EXPECT_EQ(fs.counters().bytes_written, 0u);
}

TEST(MpiIoFile, RejectsBadHints) {
  mpisim::MpiSim mpi(2);
  pfs::PfsSimulator fs;
  Hints bad;
  bad.cb_nodes = 0;
  EXPECT_THROW(MpiIoFile(mpi, fs, "/f", bad), Error);
  Hints bad2;
  bad2.cb_buffer_size = 0;
  EXPECT_THROW(MpiIoFile(mpi, fs, "/g", bad2), Error);
}

/// Property: collective writes conserve bytes for any (ranks, size) combo.
class TwoPhaseProperty
    : public ::testing::TestWithParam<std::tuple<unsigned, Bytes>> {};

TEST_P(TwoPhaseProperty, BytesConserved) {
  const auto [ranks, per_rank] = GetParam();
  mpisim::MpiSim mpi(ranks);
  pfs::PfsSimulator fs;
  Hints hints;
  hints.collective = CollectiveMode::kEnable;
  hints.cb_nodes = std::min(8u, ranks);
  MpiIoFile file(mpi, fs, "/f", hints);
  file.write_at_all(slab_requests(ranks, per_rank));
  EXPECT_EQ(fs.counters().bytes_written,
            static_cast<Bytes>(ranks) * per_rank);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TwoPhaseProperty,
    ::testing::Combine(::testing::Values(1u, 3u, 16u, 64u),
                       ::testing::Values(Bytes{4 * KiB}, Bytes{1 * MiB},
                                         Bytes{3 * MiB + 17})));

}  // namespace
}  // namespace tunio::mpiio

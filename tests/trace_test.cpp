// Tests for run metering and the perf objective.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "trace/meter.hpp"
#include "trace/report.hpp"

namespace tunio::trace {
namespace {

TEST(PerfObjective, Formula) {
  // perf = (1-α)·BW_r + α·BW_w
  EXPECT_DOUBLE_EQ(perf_objective(100.0, 200.0, 1.0), 200.0);
  EXPECT_DOUBLE_EQ(perf_objective(100.0, 200.0, 0.0), 100.0);
  EXPECT_DOUBLE_EQ(perf_objective(100.0, 200.0, 0.5), 150.0);
}

TEST(RunMeter, WriteOnlyRun) {
  mpisim::MpiSim mpi(4);
  pfs::PfsSimulator fs;
  const pfs::FileHandle f = fs.create_file("/f", 0.0).handle;
  RunMeter meter(mpi, fs);
  meter.begin();
  meter.phase_begin(Phase::kWrite);
  const SimSeconds done = fs.write(f, 0.0, 0, 100 * MiB);
  for (unsigned r = 0; r < mpi.size(); ++r) mpi.set_clock(r, done);
  const PerfResult result = meter.end();
  EXPECT_DOUBLE_EQ(result.alpha, 1.0);
  EXPECT_GT(result.bw_write_mbps, 0.0);
  EXPECT_DOUBLE_EQ(result.bw_read_mbps, 0.0);
  EXPECT_DOUBLE_EQ(result.perf_mbps, result.bw_write_mbps);
  EXPECT_EQ(result.counters.bytes_written, 100 * MiB);
  EXPECT_GT(result.counters.write_time, 0.0);
  EXPECT_DOUBLE_EQ(result.counters.read_time, 0.0);
}

TEST(RunMeter, MixedPhasesSplitTime) {
  mpisim::MpiSim mpi(2);
  pfs::PfsSimulator fs;
  const pfs::FileHandle f = fs.create_file("/f", 0.0).handle;
  RunMeter meter(mpi, fs);
  meter.begin();

  meter.phase_begin(Phase::kOther);
  mpi.compute(0, 5.0);
  mpi.barrier();

  meter.phase_begin(Phase::kWrite);
  SimSeconds t = fs.write(f, mpi.max_clock(), 0, 10 * MiB);
  for (unsigned r = 0; r < 2; ++r) mpi.set_clock(r, t);

  meter.phase_begin(Phase::kRead);
  t = fs.read(f, mpi.max_clock(), 0, 10 * MiB);
  for (unsigned r = 0; r < 2; ++r) mpi.set_clock(r, t);

  const PerfResult result = meter.end();
  EXPECT_GT(result.counters.other_time, 4.9);
  EXPECT_GT(result.counters.write_time, 0.0);
  EXPECT_GT(result.counters.read_time, 0.0);
  EXPECT_NEAR(result.alpha, 0.5, 1e-9);
  EXPECT_GT(result.perf_mbps, 0.0);
  EXPECT_NEAR(result.counters.elapsed,
              result.counters.other_time + result.counters.write_time +
                  result.counters.read_time,
              1e-9);
}

TEST(RunMeter, UnphasedRunFallsBackToWholeRunBandwidth) {
  mpisim::MpiSim mpi(2);
  pfs::PfsSimulator fs;
  const pfs::FileHandle f = fs.create_file("/f", 0.0).handle;
  RunMeter meter(mpi, fs);
  meter.begin();
  const SimSeconds done = fs.write(f, 0.0, 0, 10 * MiB);
  for (unsigned r = 0; r < 2; ++r) mpi.set_clock(r, done);
  const PerfResult result = meter.end();
  EXPECT_GT(result.bw_write_mbps, 0.0);
  EXPECT_DOUBLE_EQ(result.perf_mbps, result.bw_write_mbps);
}

TEST(RunMeter, UnphasedBandwidthUsesIoWindowNotElapsed) {
  mpisim::MpiSim mpi(2);
  pfs::PfsSimulator fs;
  const pfs::FileHandle f = fs.create_file("/f", 0.0).handle;
  RunMeter meter(mpi, fs);
  meter.begin();
  mpi.compute(0, 100.0);  // long unphased compute before the I/O
  const SimSeconds start = mpi.max_clock();
  const SimSeconds done = fs.write(f, start, 0, 10 * MiB);
  for (unsigned r = 0; r < 2; ++r) mpi.set_clock(r, done);
  const PerfResult result = meter.end();
  // The observer-collected window excludes the compute prefix, so the
  // reported bandwidth is the I/O-window rate, far above the diluted
  // whole-run-elapsed rate the old fallback would have reported.
  const double elapsed_bw =
      to_mbps(static_cast<double>(10 * MiB) / result.counters.elapsed);
  const double window_bw =
      to_mbps(static_cast<double>(10 * MiB) / (done - start));
  EXPECT_NEAR(result.bw_write_mbps, window_bw, window_bw * 1e-9);
  EXPECT_GT(result.bw_write_mbps, 2.0 * elapsed_bw);
}

TEST(RunMeter, OnlyCountsItsOwnWindow) {
  mpisim::MpiSim mpi(2);
  pfs::PfsSimulator fs;
  const pfs::FileHandle f = fs.create_file("/f", 0.0).handle;
  fs.write(f, 0.0, 0, 50 * MiB);  // before metering
  RunMeter meter(mpi, fs);
  meter.begin();
  meter.phase_begin(Phase::kWrite);
  const SimSeconds done = fs.write(f, 100.0, 50 * MiB, 1 * MiB);
  for (unsigned r = 0; r < 2; ++r) mpi.set_clock(r, done);
  const PerfResult result = meter.end();
  EXPECT_EQ(result.counters.bytes_written, 1 * MiB);  // delta only
}

TEST(RunMeter, MisuseThrows) {
  mpisim::MpiSim mpi(2);
  pfs::PfsSimulator fs;
  RunMeter meter(mpi, fs);
  EXPECT_THROW(meter.end(), Error);
  EXPECT_THROW(meter.phase_begin(Phase::kWrite), Error);
  meter.begin();
  EXPECT_THROW(meter.begin(), Error);
}

TEST(RunMeter, ZeroIoRunHasZeroPerf) {
  mpisim::MpiSim mpi(2);
  pfs::PfsSimulator fs;
  RunMeter meter(mpi, fs);
  meter.begin();
  mpi.compute(0, 1.0);
  const PerfResult result = meter.end();
  EXPECT_DOUBLE_EQ(result.perf_mbps, 0.0);
  EXPECT_DOUBLE_EQ(result.alpha, 0.0);
}

TEST(Report, RendersCountersAndHistograms) {
  mpisim::MpiSim mpi(2);
  pfs::PfsSimulator fs;
  const pfs::FileHandle f = fs.create_file("/f", 0.0).handle;
  RunMeter meter(mpi, fs);
  meter.begin();
  meter.phase_begin(Phase::kWrite);
  SimSeconds t = fs.write(f, 0.0, 0, 8 * MiB);
  t = fs.write(f, t, 8 * MiB, 512);
  for (unsigned r = 0; r < 2; ++r) mpi.set_clock(r, t);
  const PerfResult result = meter.end();

  EXPECT_EQ(result.counters.write_sizes.counts[0], 1u);  // the 512 B write
  EXPECT_EQ(result.counters.write_sizes.counts[3], 1u);  // the 8 MiB write

  const std::string text = report(result);
  EXPECT_NE(text.find("writes:         2 ops"), std::string::npos);
  EXPECT_NE(text.find("perf objective:"), std::string::npos);
  EXPECT_NE(text.find("<4K:1"), std::string::npos);
  EXPECT_NE(text.find("1M-16M:1"), std::string::npos);
}

TEST(Report, HistogramLineFormat) {
  pfs::SizeHistogram h;
  h.record(1);
  h.record(20 * MiB);
  EXPECT_EQ(histogram_line(h), "<4K:1  4K-64K:0  64K-1M:0  1M-16M:0  >=16M:1");
}

}  // namespace
}  // namespace tunio::trace

// Tests for the application workloads: each runs on the stack, produces
// sane metering, honors RunOptions (compute and log stripping), and
// matches its mini-C twin.
#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "config/stack_settings.hpp"
#include "discovery/discovery.hpp"
#include "interp/interp.hpp"
#include "minic/parser.hpp"
#include "workloads/sources.hpp"
#include "workloads/workload.hpp"

namespace tunio::wl {
namespace {

RunResult run(const Workload& workload, const RunOptions& options = {},
              unsigned ranks = 32) {
  mpisim::MpiSim mpi(ranks);
  pfs::PfsSimulator fs;
  return workload.run(mpi, fs, cfg::default_settings(), options);
}

// Small parameterizations keep the suite fast.
VpicParams small_vpic() {
  VpicParams p;
  p.particles_per_rank = 1 << 14;
  return p;
}
FlashParams small_flash() {
  FlashParams p;
  p.blocks_per_rank = 4;
  p.checkpoint_datasets = 4;
  p.plotfile_datasets = 2;
  return p;
}
HaccParams small_hacc() {
  HaccParams p;
  p.particles_per_rank = 1 << 15;
  return p;
}
MacsioParams small_macsio() {
  MacsioParams p;
  p.num_dumps = 4;
  p.bytes_per_rank_per_dump = 2 * MiB;
  p.log_writes_per_dump = 8;
  return p;
}
BdcatsParams small_bdcats() {
  BdcatsParams p;
  p.particles_per_rank = 1 << 15;
  p.clustering_rounds = 2;
  p.result_bytes_per_rank = 16 * KiB;
  return p;
}

TEST(Workloads, VpicWritesEightVariables) {
  auto vpic = make_vpic(small_vpic());
  const RunResult result = run(*vpic);
  EXPECT_EQ(vpic->name(), "VPIC-IO");
  // 7 vars * 4B + 1 var * 8B = 36 bytes/particle/step, 2 steps, 32 ranks.
  const Bytes payload = 2ull * 32 * (1 << 14) * 36;
  EXPECT_GE(result.perf.counters.bytes_written, payload);
  EXPECT_LE(result.perf.counters.bytes_written, payload + 256 * KiB);
  EXPECT_NEAR(result.perf.alpha, 1.0, 1e-9);
  EXPECT_GT(result.perf.perf_mbps, 0.0);
}

TEST(Workloads, FlashIsMetadataHeavy) {
  auto flash = make_flash(small_flash());
  const RunResult result = run(*flash);
  auto hacc = make_hacc(small_hacc());
  const RunResult hacc_result = run(*hacc);
  // FLASH touches far more metadata per payload byte than HACC.
  const double flash_meta_rate =
      static_cast<double>(result.perf.counters.metadata_ops) /
      static_cast<double>(result.perf.counters.bytes_written);
  const double hacc_meta_rate =
      static_cast<double>(hacc_result.perf.counters.metadata_ops) /
      static_cast<double>(hacc_result.perf.counters.bytes_written);
  EXPECT_GT(flash_meta_rate, hacc_meta_rate);
}

TEST(Workloads, HaccWritesNineVariables) {
  auto hacc = make_hacc(small_hacc());
  const RunResult result = run(*hacc);
  // 7*4 + 8 + 2 = 38 bytes per particle.
  const Bytes payload = 32ull * (1 << 15) * 38;
  EXPECT_GE(result.perf.counters.bytes_written, payload);
  EXPECT_LE(result.perf.counters.bytes_written, payload + 256 * KiB);
}

TEST(Workloads, MacsioLogWritesAreOptional) {
  auto macsio = make_macsio(small_macsio());
  RunOptions with_logs;
  RunOptions without_logs;
  without_logs.include_log_writes = false;
  const RunResult logged = run(*macsio, with_logs);
  const RunResult clean = run(*macsio, without_logs);
  EXPECT_GT(logged.perf.counters.write_ops, clean.perf.counters.write_ops);
  // Log bytes are negligible next to the payload.
  EXPECT_NEAR(static_cast<double>(logged.perf.counters.bytes_written),
              static_cast<double>(clean.perf.counters.bytes_written),
              static_cast<double>(logged.perf.counters.bytes_written) * 0.01);
}

TEST(Workloads, BdcatsIsReadDominated) {
  auto bdcats = make_bdcats(small_bdcats());
  const RunResult result = run(*bdcats);
  EXPECT_LT(result.perf.alpha, 0.2);
  EXPECT_GT(result.perf.counters.bytes_read,
            result.perf.counters.bytes_written * 5);
  EXPECT_GT(result.perf.bw_read_mbps, 0.0);
}

TEST(Workloads, ComputeScaleZeroShrinksRuntimeNotBandwidth) {
  auto macsio = make_macsio(small_macsio());
  RunOptions full;
  RunOptions kernel;
  kernel.compute_scale = 0.0;
  const RunResult full_run = run(*macsio, full);
  const RunResult kernel_run = run(*macsio, kernel);
  // The I/O kernel runs much faster...
  EXPECT_LT(kernel_run.sim_seconds, full_run.sim_seconds * 0.5);
  // ...but measures (nearly) the same write bandwidth.
  EXPECT_NEAR(kernel_run.perf.perf_mbps, full_run.perf.perf_mbps,
              full_run.perf.perf_mbps * 0.15);
}

TEST(Workloads, TunedConfigurationBeatsDefaults) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  cfg::Configuration tuned_config = space.default_configuration();
  tuned_config.set_index(space.index_of("striping_factor"), 5);  // 32
  tuned_config.set_index(space.index_of("cb_nodes"), 4);         // 16
  tuned_config.set_index(space.index_of("romio_collective"), 1); // enable
  tuned_config.set_index(space.index_of("chunk_cache"), 5);      // 32 MiB
  const cfg::StackSettings tuned = cfg::resolve(tuned_config);

  // Paper-scale workloads: tuning only pays off once dumps are large
  // enough to be bandwidth-bound (simulation cost scales with op count,
  // not bytes, so full-size runs are still cheap).
  for (const auto& factory :
       {make_vpic(), make_flash(), make_hacc(), make_macsio(),
        make_bdcats()}) {
    mpisim::MpiSim mpi_a(32);
    pfs::PfsSimulator fs_a;
    const RunResult defaults =
        factory->run(mpi_a, fs_a, cfg::default_settings(), {});
    mpisim::MpiSim mpi_b(32);
    pfs::PfsSimulator fs_b;
    const RunResult better = factory->run(mpi_b, fs_b, tuned, {});
    EXPECT_GT(better.perf.perf_mbps, defaults.perf.perf_mbps)
        << factory->name();
  }
}

TEST(Workloads, MiniCTwinsMatchNativePayloads) {
  // The mini-C VPIC writes the same bytes as the native driver
  // (same particles, variables, element sizes, timesteps).
  mpisim::MpiSim mpi(8);
  pfs::PfsSimulator fs;
  const auto interp_result = interp::execute(
      minic::parse(sources::vpic()), mpi, fs, cfg::default_settings(), {});
  VpicParams params;  // defaults match the source constants
  auto native = make_vpic(params);
  mpisim::MpiSim mpi2(8);
  pfs::PfsSimulator fs2;
  const RunResult native_result =
      native->run(mpi2, fs2, cfg::default_settings(), {});
  // Payload identical up to the log writes the mini-C version makes.
  EXPECT_NEAR(
      static_cast<double>(interp_result.perf.counters.bytes_written),
      static_cast<double>(native_result.perf.counters.bytes_written),
      static_cast<double>(native_result.perf.counters.bytes_written) * 0.01);
}

/// Property: every workload's measured alpha (fraction of data written
/// over total transferred) is close to its design alpha across rank
/// counts.
class AlphaProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(AlphaProperty, MeasuredAlphaTracksDesign) {
  const unsigned ranks = GetParam();
  const std::pair<std::unique_ptr<Workload>, double> designs[] = {
      {make_vpic(small_vpic()), 1.0},
      {make_hacc(small_hacc()), 1.0},
      {make_macsio(small_macsio()), 1.0},
  };
  for (const auto& [workload, design_alpha] : designs) {
    mpisim::MpiSim mpi(ranks);
    pfs::PfsSimulator fs;
    const RunResult result =
        workload->run(mpi, fs, cfg::default_settings(), {});
    EXPECT_NEAR(result.perf.alpha, design_alpha, 0.1)
        << workload->name() << " at " << ranks << " ranks";
  }
}

INSTANTIATE_TEST_SUITE_P(RankCounts, AlphaProperty,
                         ::testing::Values(4u, 16u, 64u));

}  // namespace
}  // namespace tunio::wl

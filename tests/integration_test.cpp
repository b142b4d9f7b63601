// Integration tests across modules: source → kernel → tuning → applied
// configuration, pipeline variants, XML config injection.
#include <gtest/gtest.h>

#include "config/xml.hpp"
#include "core/pipeline.hpp"
#include "core/roti.hpp"
#include "core/tunio.hpp"
#include "discovery/discovery.hpp"
#include "interp/interp.hpp"
#include "minic/parser.hpp"
#include "tuner/objective.hpp"
#include "tuners/tuner.hpp"
#include "workloads/sources.hpp"
#include "workloads/workload.hpp"

namespace tunio {
namespace {

tuner::TestbedOptions small_testbed() {
  tuner::TestbedOptions tb;
  tb.num_ranks = 16;
  tb.runs_per_eval = 1;
  return tb;
}

TEST(Integration, DiscoverThenTuneKernelTransfersToFullApp) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();

  // 1. Reduce MACSio to its I/O kernel.
  const auto kernel = discovery::discover_io(wl::sources::macsio_vpic(), {});

  // 2. Tune the kernel (cheap evaluations).
  auto kernel_objective =
      tuner::make_kernel_objective(kernel.kernel, small_testbed());
  tuner::GaOptions ga;
  ga.max_generations = 8;
  ga.population = 8;
  tuner::GeneticTuner tuner_run(space, *kernel_objective, ga);
  const tuner::TuningResult tuned =
      tuners::drive(tuner_run, *kernel_objective).tuning;
  ASSERT_TRUE(tuned.best_config.has_value());

  // 3. The kernel-tuned configuration speeds up the *full* application.
  const minic::Program full = minic::parse(wl::sources::macsio_vpic());
  auto run_full = [&](const cfg::Configuration& config) {
    mpisim::MpiSim mpi(16);
    pfs::PfsSimulator fs;
    return interp::execute(full, mpi, fs, cfg::resolve(config), {})
        .perf.perf_mbps;
  };
  const double default_perf = run_full(space.default_configuration());
  const double tuned_perf = run_full(*tuned.best_config);
  EXPECT_GT(tuned_perf, default_perf);
}

TEST(Integration, KernelEvaluationIsCheaperSameObjective) {
  const auto kernel = discovery::discover_io(wl::sources::macsio_vpic(), {});
  const minic::Program full = minic::parse(wl::sources::macsio_vpic());
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  const cfg::StackSettings settings =
      cfg::resolve(space.default_configuration());

  mpisim::MpiSim mpi_full(16);
  pfs::PfsSimulator fs_full;
  const auto full_run =
      interp::execute(full, mpi_full, fs_full, settings, {});
  mpisim::MpiSim mpi_kernel(16);
  pfs::PfsSimulator fs_kernel;
  const auto kernel_run =
      interp::execute(kernel.kernel, mpi_kernel, fs_kernel, settings, {});

  // The evaluation is far cheaper (compute stripped)...
  EXPECT_LT(kernel_run.sim_seconds, full_run.sim_seconds * 0.5);
  // ...while the measured objective matches within a few percent.
  EXPECT_NEAR(kernel_run.perf.perf_mbps, full_run.perf.perf_mbps,
              full_run.perf.perf_mbps * 0.10);
}

TEST(Integration, LoopReducedKernelPredictsFullMetrics) {
  discovery::DiscoveryOptions options;
  options.loop_reduction = 0.01;
  const auto reduced =
      discovery::discover_io(wl::sources::macsio_vpic(), options);
  const minic::Program full = minic::parse(wl::sources::macsio_vpic());
  const cfg::StackSettings settings = cfg::default_settings();

  mpisim::MpiSim mpi_full(16);
  pfs::PfsSimulator fs_full;
  const auto full_run = interp::execute(full, mpi_full, fs_full, settings, {});
  mpisim::MpiSim mpi_red(16);
  pfs::PfsSimulator fs_red;
  const auto reduced_run =
      interp::execute(reduced.kernel, mpi_red, fs_red, settings, {});

  // Bytes-written prediction is within a few percent of the real app
  // (Fig. 8c: 0.19% error for the reduced kernel; logging bytes differ).
  const double full_bytes =
      static_cast<double>(full_run.perf.counters.bytes_written);
  EXPECT_NEAR(reduced_run.predicted_bytes_written, full_bytes,
              full_bytes * 0.05);
  // And it runs dramatically faster than even the plain kernel.
  EXPECT_LT(reduced_run.sim_seconds, full_run.sim_seconds * 0.05);
}

TEST(Integration, PathSwitchedKernelTouchesNoOsts) {
  discovery::DiscoveryOptions options;
  options.path_switching = true;
  const auto switched =
      discovery::discover_io(wl::sources::macsio_vpic(), options);
  mpisim::MpiSim mpi(16);
  pfs::PfsSimulator fs;
  interp::execute(switched.kernel, mpi, fs, cfg::default_settings(), {});
  for (const SimSeconds busy : fs.ost_busy_times()) {
    EXPECT_DOUBLE_EQ(busy, 0.0);
  }
}

TEST(Integration, XmlConfigDrivesTheStack) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  // A hand-written H5Tuner-style override file.
  const std::string xml = R"(
    <Parameters>
      <High_Level_IO_Library>
        <chunk_cache>33554432</chunk_cache>
      </High_Level_IO_Library>
      <Middleware_Layer>
        <cb_nodes>16</cb_nodes>
        <romio_collective>1</romio_collective>
      </Middleware_Layer>
      <Parallel_File_System>
        <striping_factor>32</striping_factor>
      </Parallel_File_System>
    </Parameters>)";
  const cfg::Configuration config = cfg::from_xml(space, xml);

  // Paper-scale HACC (1 Mi particles/rank): large enough that striping
  // and aggregation dominate over per-request latency.
  auto hacc = wl::make_hacc();
  mpisim::MpiSim mpi_a(16);
  pfs::PfsSimulator fs_a;
  const auto defaults = hacc->run(mpi_a, fs_a, cfg::default_settings(), {});
  mpisim::MpiSim mpi_b(16);
  pfs::PfsSimulator fs_b;
  const auto tuned = hacc->run(mpi_b, fs_b, cfg::resolve(config), {});
  EXPECT_GT(tuned.perf.perf_mbps, defaults.perf.perf_mbps * 1.5);
}

TEST(Integration, PipelineVariantsOrderAsExpected) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  wl::HaccParams params;
  params.particles_per_rank = 1 << 15;
  wl::RunOptions kernel_opts;
  kernel_opts.compute_scale = 0.0;

  tuner::GaOptions ga;
  ga.max_generations = 12;
  ga.population = 8;

  auto fresh_objective = [&] {
    return tuner::make_workload_objective(
        std::shared_ptr<const wl::Workload>(wl::make_hacc(params)),
        small_testbed(), kernel_opts);
  };

  auto full = fresh_objective();
  const auto no_stop = core::run_pipeline(
      space, *full, nullptr, {"NoStop", false, core::StopPolicy::kNone}, ga);

  auto heur = fresh_objective();
  const auto heuristic = core::run_pipeline(
      space, *heur, nullptr, {"Heuristic", false, core::StopPolicy::kHeuristic},
      ga);

  // The heuristic cannot run longer than the full budget, nor spend more.
  EXPECT_LE(heuristic.result.generations_run, no_stop.result.generations_run);
  EXPECT_LE(heuristic.result.total_seconds, no_stop.result.total_seconds);
  // Both improve on the defaults.
  EXPECT_GT(no_stop.result.best_perf, no_stop.result.initial_perf);
  EXPECT_GT(heuristic.result.best_perf, heuristic.result.initial_perf);
  // RoTI is computable on both.
  EXPECT_GT(core::final_roti(heuristic.result), 0.0);
}

TEST(Integration, MaxPerfVariantNeedsNoTunio) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  wl::HaccParams params;
  params.particles_per_rank = 1 << 15;
  wl::RunOptions kernel_opts;
  kernel_opts.compute_scale = 0.0;
  auto objective = tuner::make_workload_objective(
      std::shared_ptr<const wl::Workload>(wl::make_hacc(params)),
      small_testbed(), kernel_opts);
  tuner::GaOptions ga;
  ga.max_generations = 12;
  ga.population = 8;
  core::PipelineVariant variant{"MaxPerf", false, core::StopPolicy::kMaxPerf};
  variant.max_perf_target = 1.0;  // trivially reached
  const auto run = core::run_pipeline(space, *objective, nullptr, variant, ga);
  EXPECT_TRUE(run.result.early_stopped);
  EXPECT_EQ(run.result.generations_run, 1u);
}

TEST(Integration, TunioVariantRequiresTunioInstance) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  wl::HaccParams params;
  params.particles_per_rank = 1 << 15;
  auto objective = tuner::make_workload_objective(
      std::shared_ptr<const wl::Workload>(wl::make_hacc(params)),
      small_testbed());
  EXPECT_THROW(core::run_pipeline(space, *objective, nullptr,
                                  {"TunIO", true, core::StopPolicy::kTunio}),
               Error);
}

}  // namespace
}  // namespace tunio

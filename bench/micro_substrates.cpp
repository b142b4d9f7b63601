// Micro-benchmarks (google-benchmark) of the simulation substrates and
// AI components: per-operation cost of the PFS model, the HDF5lite write
// path, mini-C parsing/discovery, NN inference, and one GA generation.
//
// These measure the *simulator's own* throughput (how many simulated
// operations per wall-clock second), which bounds how large a tuning
// experiment the harness can run.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common.hpp"
#include "config/stack_settings.hpp"
#include "discovery/discovery.hpp"
#include "hdf5lite/file.hpp"
#include "minic/parser.hpp"
#include "nn/dense_net.hpp"
#include "obs/metrics.hpp"
#include "pfs/pfs.hpp"
#include "rl/q_agent.hpp"
#include "tuner/objective.hpp"
#include "tuners/genetic_tuner.hpp"
#include "tuners/tuner.hpp"
#include "workloads/sources.hpp"
#include "workloads/workload.hpp"

using namespace tunio;

static void BM_PfsWrite(benchmark::State& state) {
  pfs::PfsSimulator fs;
  pfs::CreateOptions opts;
  opts.stripe_count = static_cast<unsigned>(state.range(0));
  const pfs::FileHandle handle = fs.create_file("/bench", 0.0, opts).handle;
  Bytes offset = 0;
  SimSeconds t = 0.0;
  for (auto _ : state) {
    t = fs.write(handle, t, offset, 1 * MiB);
    offset += 1 * MiB;
    benchmark::DoNotOptimize(t);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PfsWrite)->Arg(1)->Arg(8)->Arg(64);

static void BM_StripeSplit(benchmark::State& state) {
  pfs::StripeLayout layout(1 * MiB, 16, 0, 64);
  Bytes offset = 12345;
  for (auto _ : state) {
    auto pieces = layout.split(offset, 17 * MiB);
    benchmark::DoNotOptimize(pieces);
    offset += 7919;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StripeSplit);

static void BM_H5ChunkedWrite(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    mpisim::MpiSim mpi(32);
    pfs::PfsSimulator fs;
    h5::File file(mpi, fs, "/f.h5", h5::FileAccessProps{}, mpiio::Hints{});
    h5::DatasetCreateProps dcpl;
    dcpl.chunk_elements = 1 << 15;
    h5::ChunkCacheProps cache;
    cache.rdcc_nbytes = static_cast<Bytes>(state.range(0)) * MiB;
    h5::Dataset& ds =
        file.create_dataset("x", 4, (1u << 17) * 32, dcpl, cache);
    std::vector<h5::Selection> sels;
    for (unsigned r = 0; r < 32; ++r) {
      sels.push_back({r, r * (1u << 17), 1u << 17});
    }
    state.ResumeTiming();
    ds.write(sels, h5::TransferProps{true});
    ds.flush();
  }
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_H5ChunkedWrite)->Arg(1)->Arg(64);

static void BM_MinicParse(benchmark::State& state) {
  const std::string source = wl::sources::macsio_vpic();
  for (auto _ : state) {
    auto program = minic::parse(source);
    benchmark::DoNotOptimize(program);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MinicParse);

static void BM_Discovery(benchmark::State& state) {
  const std::string source = wl::sources::macsio_vpic();
  for (auto _ : state) {
    auto kernel = discovery::discover_io(source, {});
    benchmark::DoNotOptimize(kernel);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Discovery);

static void BM_WorkloadEvaluation(benchmark::State& state) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  tuner::TestbedOptions tb;
  tb.num_ranks = 128;
  tb.runs_per_eval = 1;
  wl::RunOptions kernel;
  kernel.compute_scale = 0.0;
  auto objective = tuner::make_workload_objective(
      std::shared_ptr<const wl::Workload>(wl::make_hacc()), tb, kernel);
  const cfg::Configuration config = space.default_configuration();
  for (auto _ : state) {
    auto eval = objective->evaluate(config);
    benchmark::DoNotOptimize(eval);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WorkloadEvaluation);

static void BM_NnForward(benchmark::State& state) {
  Rng rng(1);
  nn::DenseNet net({14, 24, 24, 12}, rng);
  const std::vector<double> input(14, 0.5);
  for (auto _ : state) {
    const auto& out = net.forward(input);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NnForward);

static void BM_QAgentLearn(benchmark::State& state) {
  rl::QAgent agent(5, 2, Rng(2));
  Rng rng(3);
  for (int i = 0; i < 256; ++i) {
    agent.observe({rng.uniform(), rng.uniform(), 0, 0, 0},
                  rng.index(2), rng.uniform(), {0, 0, 0, 0, 0}, i % 7 == 0);
  }
  for (auto _ : state) {
    agent.learn(1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QAgentLearn);

static void BM_GaGeneration(benchmark::State& state) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  tuner::TestbedOptions tb;
  tb.num_ranks = 32;
  tb.runs_per_eval = 1;
  wl::HaccParams params;
  params.particles_per_rank = 1 << 16;
  wl::RunOptions kernel;
  kernel.compute_scale = 0.0;
  for (auto _ : state) {
    auto objective = tuner::make_workload_objective(
        std::shared_ptr<const wl::Workload>(wl::make_hacc(params)), tb,
        kernel);
    tuner::GaOptions ga;
    ga.population = 8;
    ga.max_generations = 1;
    tuner::GeneticTuner tuner(space, *objective, ga);
    auto result = tuners::drive(tuner, *objective);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * 8);  // evaluations
}
BENCHMARK(BM_GaGeneration);

// Custom main replacing benchmark_main: routes every micro-benchmark's
// per-iteration timing into the shared bench harness so `--json` writes
// a BENCH_micro_substrates.json report alongside the figure benches'.
namespace {

/// Console output as usual, plus one harness value() per benchmark run.
class HarnessReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    benchmark::ConsoleReporter::ReportRuns(reports);
    for (const Run& run : reports) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      std::string name = run.benchmark_name();
      std::replace(name.begin(), name.end(), '/', '_');
      // Wall-clock micro timings vary across runners: never gated.
      bench::value(name + "_ns", run.GetAdjustedRealTime(), "ns",
                   /*gate=*/false, bench::Direction::kLowerIsBetter);
      const auto items = run.counters.find("items_per_second");
      if (items != run.counters.end()) {
        bench::value(name + "_items_per_sec", items->second.value, "items/s");
      }
    }
  }
};

/// Deterministic anchor for the perf gate (gated reports need at least
/// one machine-independent value): the simulated completion time of a
/// fixed striped write pattern. Catches accidental cost-model changes.
double simulated_anchor_seconds() {
  pfs::PfsSimulator fs;
  pfs::CreateOptions opts;
  opts.stripe_count = 8;
  const pfs::FileHandle handle = fs.create_file("/anchor", 0.0, opts).handle;
  SimSeconds t = 0.0;
  for (unsigned i = 0; i < 64; ++i) {
    t = fs.write(handle, t, static_cast<Bytes>(i) * MiB, 1 * MiB);
  }
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  tunio::bench::init(argc, argv, "micro_substrates");
  // Strip the harness's --json flag before google-benchmark parses the
  // command line (it rejects flags it does not recognize).
  std::vector<char*> bm_args;
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--json", 0) == 0) continue;
    bm_args.push_back(argv[i]);
  }
  int bm_argc = static_cast<int>(bm_args.size());
  benchmark::Initialize(&bm_argc, bm_args.data());
  if (benchmark::ReportUnrecognizedArguments(bm_argc, bm_args.data())) {
    return tunio::bench::finish(1);
  }
  HarnessReporter reporter;
  const std::size_t ran = benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  // The benchmarks' work counters scale with however many iterations the
  // library chose on this host. Count only the fixed anchor below, so the
  // report's non-zero metrics are the same on every host and under every
  // filter (zeroed instruments are those some benchmark created).
  obs::MetricsRegistry::global().reset();
  tunio::bench::value("benchmarks_run", static_cast<double>(ran), "count");
  tunio::bench::value("sim_anchor_write_seconds", simulated_anchor_seconds(),
                      "s", /*gate=*/true,
                      tunio::bench::Direction::kLowerIsBetter);
  return tunio::bench::finish(ran > 0 ? 0 : 1);
}

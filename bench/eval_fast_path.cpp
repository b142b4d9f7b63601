// Evaluation fast path: record-once/replay-many op traces vs. the seed
// interpret path, plus the allocation-free PFS hot path.
//
// The tuner evaluates the same kernel hundreds of times under different
// stack settings. The seed evaluated by interpreting the kernel
// `runs_per_eval` (3) times per evaluation; the fast path records the
// settings-independent op stream once and replays it straight through
// hdf5lite -> mpiio -> mpisim -> pfs — one replayed simulation per
// evaluation, bit-identical results. The gated metric is the latency
// *ratio* between the two (ratios of timings taken on the same machine
// are stable across runners; absolute rates are not).
//
// The gated comparison runs on a small 8-rank testbed, the regime where
// per-evaluation latency is interpreter-bound — at paper scale (128
// ranks) the simulated collectives dominate both paths equally, which
// the ungated `papertb_*` values document.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "common/rng.hpp"
#include "discovery/discovery.hpp"
#include "interp/interp.hpp"
#include "mpisim/mpisim.hpp"
#include "pfs/pfs.hpp"
#include "workloads/sources.hpp"

namespace tunio::bench {
namespace {

using Clock = std::chrono::steady_clock;

/// Keeps a computed result alive without the optimizer proving it dead.
volatile double keep_sink = 0.0;
inline void keep(double v) { keep_sink = v; }

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Deterministic spread of configurations, the shape a GA generation
/// explores.
std::vector<cfg::Configuration> varied_configs(const cfg::ConfigSpace& space,
                                               std::size_t count) {
  Rng rng(0x5EED);
  std::vector<cfg::Configuration> configs;
  configs.push_back(space.default_configuration());
  while (configs.size() < count) {
    cfg::Configuration config = space.default_configuration();
    for (std::size_t p = 0; p < space.num_parameters(); ++p) {
      config.set_index(p, rng.index(space.parameter(p).domain.size()));
    }
    configs.push_back(config);
  }
  return configs;
}

tuner::TestbedOptions latency_testbed(unsigned ranks, tuner::ReplayMode mode) {
  tuner::TestbedOptions tb = paper_testbed();
  tb.num_ranks = ranks;
  tb.replay = mode;
  return tb;
}

/// The seed's evaluation loop, reproduced verbatim: resolve the
/// settings, seed the per-genome noise stream, and run `runs_per_eval`
/// full interpreted simulations on fresh simulated testbeds, averaging
/// the noised measurements.
double time_seed_path(const minic::Program& kernel,
                      const std::vector<cfg::Configuration>& configs,
                      unsigned ranks, unsigned rounds) {
  const tuner::TestbedOptions tb = paper_testbed();
  const auto start = Clock::now();
  for (unsigned round = 0; round < rounds; ++round) {
    for (const cfg::Configuration& config : configs) {
      const cfg::StackSettings settings = cfg::resolve(config);
      Rng rng(derive_stream(tb.seed, hash_indices(config.indices())));
      double perf_sum = 0.0;
      for (unsigned run = 0; run < tb.runs_per_eval; ++run) {
        mpisim::MpiSim mpi(ranks);
        pfs::PfsSimulator fs;
        const interp::InterpResult r =
            interp::execute(kernel, mpi, fs, settings);
        const double noisy =
            r.perf.perf_mbps * (1.0 + rng.normal(0.0, tb.measurement_noise));
        perf_sum += std::max(0.0, noisy);
      }
      keep(perf_sum / tb.runs_per_eval);
    }
  }
  return seconds_since(start);
}

/// This PR's evaluation: the real objective in the given replay mode
/// (kAuto = record once, verify once, replay from then on).
double time_objective_path(const minic::Program& kernel,
                           tuner::ReplayMode mode,
                           const std::vector<cfg::Configuration>& configs,
                           unsigned ranks, unsigned rounds) {
  auto objective =
      tuner::make_kernel_objective(kernel, latency_testbed(ranks, mode));
  // Warm-up pass: in kAuto mode this records (eval 1) and verifies
  // (eval 2), so the timed region measures the steady replay state.
  for (const cfg::Configuration& config : configs) {
    keep(objective->evaluate(config).perf_mbps);
  }
  const auto start = Clock::now();
  for (unsigned round = 0; round < rounds; ++round) {
    for (const cfg::Configuration& config : configs) {
      keep(objective->evaluate(config).perf_mbps);
    }
  }
  return seconds_since(start);
}

/// The fast-path objective must reproduce the interpreted objective's
/// evaluations bit-for-bit across the config spread.
bool results_identical(const minic::Program& kernel,
                       const std::vector<cfg::Configuration>& configs,
                       unsigned ranks) {
  auto interpreted = tuner::make_kernel_objective(
      kernel, latency_testbed(ranks, tuner::ReplayMode::kOff));
  auto replayed = tuner::make_kernel_objective(
      kernel, latency_testbed(ranks, tuner::ReplayMode::kAuto));
  for (unsigned pass = 0; pass < 2; ++pass) {
    for (const cfg::Configuration& config : configs) {
      const tuner::Evaluation a = interpreted->evaluate(config);
      const tuner::Evaluation b = replayed->evaluate(config);
      if (a.perf_mbps != b.perf_mbps || a.eval_seconds != b.eval_seconds) {
        return false;
      }
    }
  }
  return true;
}

struct SourceResult {
  double seed_wall = 0.0;    // seed semantics: 3 interpreted sims/eval
  double interp_wall = 0.0;  // single-sim averaging, interpreted
  double replay_wall = 0.0;  // single-sim averaging, replayed
  bool identical = true;
};

SourceResult run_source(const std::string& name, const std::string& source,
                        const std::vector<cfg::Configuration>& configs,
                        unsigned ranks, unsigned rounds, unsigned reps) {
  discovery::DiscoveryOptions opts;
  opts.loop_reduction = 0.01;
  opts.path_switching = true;
  const discovery::KernelResult kernel = discovery::discover_io(source, opts);

  // Best-of-`reps` latency per mode (the standard latency-bench guard
  // against scheduler noise), interleaved so drift hits all modes alike.
  SourceResult r;
  r.seed_wall = r.interp_wall = r.replay_wall = 1e300;
  for (unsigned rep = 0; rep < reps; ++rep) {
    r.seed_wall = std::min(
        r.seed_wall, time_seed_path(kernel.kernel, configs, ranks, rounds));
    r.interp_wall =
        std::min(r.interp_wall,
                 time_objective_path(kernel.kernel, tuner::ReplayMode::kOff,
                                     configs, ranks, rounds));
    r.replay_wall =
        std::min(r.replay_wall,
                 time_objective_path(kernel.kernel, tuner::ReplayMode::kAuto,
                                     configs, ranks, rounds));
  }
  r.identical = results_identical(kernel.kernel, configs, ranks);

  const double evals = static_cast<double>(configs.size()) * rounds;
  std::printf(
      "  %-10s seed %7.1f us/eval   interp-once %6.1f us/eval   "
      "replay %6.1f us/eval   speedup %5.2fx   bit-identical: %s\n",
      name.c_str(), 1e6 * r.seed_wall / evals, 1e6 * r.interp_wall / evals,
      1e6 * r.replay_wall / evals, r.seed_wall / r.replay_wall,
      r.identical ? "yes" : "NO — BUG");
  return r;
}

/// Wall-clock of strided 1 MiB writes through the handle API, the
/// simulator's hot path.
void pfs_write_throughput() {
  section("allocation-free PFS hot path: handle writes");
  constexpr unsigned kOps = 1000000;
  pfs::CreateOptions opts;
  opts.stripe_count = 8;

  pfs::PfsSimulator fs;
  const pfs::FileHandle handle = fs.create_file("/bench", 0.0, opts).handle;
  const auto start = Clock::now();
  SimSeconds t = 0.0;
  Bytes offset = 0;
  for (unsigned i = 0; i < kOps; ++i) {
    t = fs.write(handle, t, offset, 1 * MiB);
    offset += 1 * MiB;
  }
  const double wall = seconds_since(start);
  keep(t);

  std::printf("  handle API: %12.0f simulated writes/s\n", kOps / wall);
  value("pfs_handle_writes_per_sec", kOps / wall, "ops/s");
}

int run(int argc, char** argv) {
  init(argc, argv, "eval_fast_path");
  banner("eval_fast_path",
         "record-once/replay-many evaluation vs. the seed interpret path",
         "n/a (implementation optimization): target >= 5x single-eval "
         "latency on the discovery kernels, bit-identical results");

  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  constexpr unsigned kRanks = 8;
  constexpr unsigned kPaperRanks = 128;
  constexpr std::size_t kConfigs = 8;
  constexpr unsigned kRounds = 150;
  constexpr unsigned kPaperRounds = 15;
  constexpr unsigned kReps = 3;
  const std::vector<cfg::Configuration> configs =
      varied_configs(space, kConfigs);

  section("discovered kernels (loop reduction 1%, path switching on), "
          "8-rank latency testbed");
  const std::vector<std::pair<std::string, std::string>> sources = {
      {"VPIC-IO", wl::sources::vpic()},
      {"FLASH-IO", wl::sources::flash()},
      {"HACC-IO", wl::sources::hacc()},
      {"MACSio", wl::sources::macsio_vpic()},
      {"BD-CATS", wl::sources::bdcats()},
  };

  double log_speedup_sum = 0.0;
  double log_sim_speedup_sum = 0.0;
  bool identical = true;
  for (const auto& [name, source] : sources) {
    const SourceResult r =
        run_source(name, source, configs, kRanks, kRounds, kReps);
    log_speedup_sum += std::log(r.seed_wall / r.replay_wall);
    log_sim_speedup_sum += std::log(r.interp_wall / r.replay_wall);
    identical = identical && r.identical;
    value("speedup_x_" + name, r.seed_wall / r.replay_wall, "x");
  }
  const double n = static_cast<double>(sources.size());
  const double speedup_geomean = std::exp(log_speedup_sum / n);
  const double sim_speedup_geomean = std::exp(log_sim_speedup_sum / n);

  section("paper-scale testbed (128 ranks): collectives dominate both paths");
  double log_paper_sum = 0.0;
  for (const auto& [name, source] : sources) {
    const SourceResult r =
        run_source(name, source, configs, kPaperRanks, kPaperRounds, kReps);
    log_paper_sum += std::log(r.seed_wall / r.replay_wall);
    identical = identical && r.identical;
  }
  const double paper_geomean = std::exp(log_paper_sum / n);

  pfs_write_throughput();

  section("acceptance");
  summary("single-eval speedup (geomean, 8-rank testbed)",
          std::to_string(speedup_geomean) + "x", ">= 5x");
  summary("replayed results bit-identical", identical ? "yes" : "no",
          "required");

  // Wall-clock ratios on the same machine are stable; absolute rates are
  // not, so only the ratio and the correctness bit are gated.
  value("replay_speedup_x_geomean", speedup_geomean, "x", /*gate=*/true);
  value("replay_vs_interp_once_x_geomean", sim_speedup_geomean, "x");
  value("papertb_speedup_x_geomean", paper_geomean, "x");
  value("results_identical", identical ? 1.0 : 0.0, "bool", /*gate=*/true);

  const bool ok = identical && speedup_geomean >= 5.0;
  return finish(ok ? 0 : 1);
}

}  // namespace
}  // namespace tunio::bench

int main(int argc, char** argv) { return tunio::bench::run(argc, argv); }

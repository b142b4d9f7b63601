// Service throughput: wall-clock speedup of the parallel evaluation
// engine on one GA generation, with bit-identical results.
//
// Two regimes:
//   * CPU-bound — evaluations are pure simulator computation, so the
//     speedup ceiling is the number of physical cores;
//   * launch-latency-bound — each evaluation also waits on a (real)
//     job-launch delay, the regime a production tuning service lives in
//     (srun spin-up, queue wait, remote testbed round-trips). Here the
//     pool overlaps the waits and the speedup approaches the worker
//     count on any machine.
// In both regimes the parallel batch must reproduce the serial batch
// bit-for-bit — same perfs, same simulated budget — because every
// evaluation draws from a per-genome RNG stream.
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "common.hpp"
#include "common/rng.hpp"
#include "service/eval_engine.hpp"

namespace tunio::bench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Adds a real launch delay to every evaluation (the simulated budget
/// already bills `launch_overhead_seconds`; this spends the wall-clock
/// analogue, compressed to milliseconds).
class LaunchLatencyObjective final : public tuner::Objective {
 public:
  LaunchLatencyObjective(tuner::Objective& inner,
                         std::chrono::milliseconds delay)
      : inner_(inner), delay_(delay) {}
  std::string name() const override { return inner_.name(); }
  tuner::Evaluation evaluate(const cfg::Configuration& config) override {
    std::this_thread::sleep_for(delay_);
    return inner_.evaluate(config);
  }
  bool concurrent_safe() const override { return inner_.concurrent_safe(); }
  // Forwarded so the engine runs the inner objective's replay record and
  // verify on the batch's calling thread, as for the objective itself.
  tuner::ReplayGate replay_gate() const override {
    return inner_.replay_gate();
  }
  std::uint64_t evaluations() const override { return inner_.evaluations(); }

 private:
  tuner::Objective& inner_;
  std::chrono::milliseconds delay_;
};

std::vector<cfg::Configuration> one_generation(const cfg::ConfigSpace& space,
                                               unsigned population) {
  // The same shape GeneticTuner uses for generation 0: defaults plus
  // mutated explorers.
  Rng rng(0xBEEF);
  std::vector<cfg::Configuration> configs;
  configs.push_back(space.default_configuration());
  while (configs.size() < population) {
    cfg::Configuration config = space.default_configuration();
    for (std::size_t p = 0; p < space.num_parameters(); ++p) {
      if (rng.chance(0.35)) {
        config.set_index(p, rng.index(space.parameter(p).domain.size()));
      }
    }
    configs.push_back(config);
  }
  return configs;
}

struct RegimeResult {
  double serial_wall = 0.0;
  double parallel_wall = 0.0;
  bool identical = true;
  double serial_budget = 0.0;
  double parallel_budget = 0.0;
};

RegimeResult run_regime(tuner::Objective& serial_objective,
                        tuner::Objective& parallel_objective,
                        const std::vector<cfg::Configuration>& configs,
                        unsigned workers) {
  RegimeResult out;

  auto start = Clock::now();
  const std::vector<tuner::Evaluation> serial =
      serial_objective.evaluate_batch(configs);
  out.serial_wall = seconds_since(start);

  service::EvalEngine engine(service::EngineOptions{workers});
  start = Clock::now();
  const std::vector<tuner::Evaluation> parallel =
      engine.evaluate_batch(parallel_objective, configs);
  out.parallel_wall = seconds_since(start);

  for (std::size_t i = 0; i < configs.size(); ++i) {
    out.serial_budget += serial[i].eval_seconds;
    out.parallel_budget += parallel[i].eval_seconds;
    if (serial[i].perf_mbps != parallel[i].perf_mbps ||
        serial[i].eval_seconds != parallel[i].eval_seconds) {
      out.identical = false;
    }
  }
  return out;
}

void report(const std::string& regime, const RegimeResult& r) {
  section(regime);
  std::printf("  serial:    %8.3f s wall,  %10.1f s simulated budget\n",
              r.serial_wall, r.serial_budget);
  std::printf("  8 workers: %8.3f s wall,  %10.1f s simulated budget\n",
              r.parallel_wall, r.parallel_budget);
  std::printf("  speedup:   %8.2fx wall-clock\n",
              r.parallel_wall > 0 ? r.serial_wall / r.parallel_wall : 0.0);
  std::printf("  results bit-identical to serial: %s\n",
              r.identical ? "yes" : "NO — BUG");
  std::printf("  simulated budgets identical:     %s\n",
              r.serial_budget == r.parallel_budget ? "yes" : "NO — BUG");
}

int run(int argc, char** argv) {
  init(argc, argv, "service_throughput");
  banner("service_throughput",
         "parallel evaluation engine vs. serial generation scoring",
         "n/a (service extension): target >= 3x on a 16-individual "
         "generation with 8 workers");

  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  constexpr unsigned kPopulation = 16;
  constexpr unsigned kWorkers = 8;
  const std::vector<cfg::Configuration> generation =
      one_generation(space, kPopulation);
  std::printf("testbed: %u-individual generation, %u workers, %u cores\n",
              kPopulation, kWorkers, std::thread::hardware_concurrency());

  // CPU-bound regime: a small HACC kernel, all simulator computation.
  wl::HaccParams params;
  params.particles_per_rank = 1u << 20;
  wl::RunOptions kernel;
  kernel.compute_scale = 0.0;
  auto workload = std::shared_ptr<const wl::Workload>(wl::make_hacc(params));
  tuner::TestbedOptions tb = paper_testbed();
  auto serial_cpu = tuner::make_workload_objective(workload, tb, kernel);
  auto parallel_cpu = tuner::make_workload_objective(workload, tb, kernel);
  const RegimeResult cpu =
      run_regime(*serial_cpu, *parallel_cpu, generation, kWorkers);
  report("CPU-bound (speedup ceiling = physical cores)", cpu);

  // Launch-latency regime: 40 ms real wait per evaluation, standing in
  // for the 30 s of simulated launch overhead every evaluation bills.
  auto serial_inner = tuner::make_workload_objective(workload, tb, kernel);
  auto parallel_inner = tuner::make_workload_objective(workload, tb, kernel);
  LaunchLatencyObjective serial_lat(*serial_inner,
                                    std::chrono::milliseconds(40));
  LaunchLatencyObjective parallel_lat(*parallel_inner,
                                      std::chrono::milliseconds(40));
  // Each objective records and verifies its replay trace first, untimed
  // like its construction: the engine runs those two evaluations on the
  // batch's calling thread, one after the other, so a timed first batch
  // would add two serial launch delays that no later generation pays.
  const auto bootstrap_start = Clock::now();
  for (tuner::Objective* inner : {serial_inner.get(), parallel_inner.get()}) {
    while (inner->evaluations() < 2) {
      inner->evaluate(space.default_configuration());
    }
  }
  std::printf("replay bootstrap (record + verify, untimed): %.3f s\n",
              seconds_since(bootstrap_start));
  const RegimeResult lat =
      run_regime(serial_lat, parallel_lat, generation, kWorkers);
  report("launch-latency-bound (the service regime)", lat);

  section("acceptance");
  const double speedup =
      lat.parallel_wall > 0 ? lat.serial_wall / lat.parallel_wall : 0.0;
  summary("wall-clock speedup (latency-bound)",
          std::to_string(speedup) + "x", ">= 3x");
  summary("identical results & budgets",
          (cpu.identical && lat.identical &&
           cpu.serial_budget == cpu.parallel_budget &&
           lat.serial_budget == lat.parallel_budget)
              ? "yes"
              : "no",
          "required");
  const bool ok = speedup >= 3.0 && cpu.identical && lat.identical;

  value("latency_speedup_x", speedup, "x", /*gate=*/true);
  value("latency_evals_per_sec",
        lat.parallel_wall > 0 ? kPopulation / lat.parallel_wall : 0.0,
        "evals/s", /*gate=*/true);
  value("cpu_speedup_x",
        cpu.parallel_wall > 0 ? cpu.serial_wall / cpu.parallel_wall : 0.0,
        "x");
  value("results_identical",
        (cpu.identical && lat.identical) ? 1.0 : 0.0, "bool", /*gate=*/true);
  return finish(ok ? 0 : 1);
}

}  // namespace
}  // namespace tunio::bench

int main(int argc, char** argv) { return tunio::bench::run(argc, argv); }

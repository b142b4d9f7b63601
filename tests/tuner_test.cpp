// Tests for the genetic tuning pipeline: objectives, GA invariants,
// subset masking, stopping policies.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "minic/parser.hpp"
#include "tuner/objective.hpp"
#include "tuner/stoppers.hpp"
#include "tuners/genetic_tuner.hpp"
#include "tuners/tuner.hpp"
#include "workloads/sources.hpp"
#include "workloads/workload.hpp"

namespace tunio::tuner {
namespace {

TestbedOptions small_testbed() {
  TestbedOptions tb;
  tb.num_ranks = 16;
  tb.runs_per_eval = 2;
  return tb;
}

std::unique_ptr<Objective> hacc_objective(TestbedOptions tb) {
  wl::HaccParams params;
  params.particles_per_rank = 1 << 15;
  wl::RunOptions kernel;
  kernel.compute_scale = 0.0;
  return make_workload_objective(
      std::shared_ptr<const wl::Workload>(wl::make_hacc(params)), tb, kernel);
}

/// A synthetic objective with a known optimum (no stack involved):
/// rewards striping_factor near 32 and collective metadata on.
class SyntheticObjective final : public Objective {
 public:
  explicit SyntheticObjective(const cfg::ConfigSpace& space) : space_(space) {}
  std::string name() const override { return "synthetic"; }
  Evaluation evaluate(const cfg::Configuration& config) override {
    ++evals_;
    const double stripes =
        static_cast<double>(config.value("striping_factor"));
    const double stripe_score = 100.0 - std::abs(stripes - 32.0);
    const double meta_score =
        10.0 * static_cast<double>(config.value("coll_metadata_write"));
    Evaluation eval;
    eval.perf_mbps = stripe_score + meta_score;
    eval.eval_seconds = 30.0;
    return eval;
  }
  std::uint64_t evaluations() const override { return evals_; }

 private:
  const cfg::ConfigSpace& space_;
  std::uint64_t evals_ = 0;
};

TEST(WorkloadObjective, EvaluatesAndBillsTime) {
  auto objective = hacc_objective(small_testbed());
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  const Evaluation eval = objective->evaluate(space.default_configuration());
  EXPECT_GT(eval.perf_mbps, 0.0);
  EXPECT_GT(eval.eval_seconds, 0.0);
  EXPECT_EQ(objective->evaluations(), 1u);
}

TEST(WorkloadObjective, NoiseIsPerGenomeDeterministicAndBounded) {
  TestbedOptions tb = small_testbed();
  tb.measurement_noise = 0.02;
  auto objective = hacc_objective(tb);
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  // Measurement noise comes from a stream derived from (testbed seed,
  // genome), so re-evaluating the same configuration reproduces the
  // measurement exactly — the property that makes concurrent batch
  // evaluation and cross-session result caching bit-faithful.
  const double a = objective->evaluate(space.default_configuration()).perf_mbps;
  const double b = objective->evaluate(space.default_configuration()).perf_mbps;
  EXPECT_EQ(a, b);
  // A different testbed seed draws different (but bounded) noise.
  TestbedOptions reseeded = tb;
  reseeded.seed = tb.seed + 1;
  auto other = hacc_objective(reseeded);
  const double c = other->evaluate(space.default_configuration()).perf_mbps;
  EXPECT_NE(a, c);             // noisy
  EXPECT_NEAR(a, c, a * 0.2);  // but close
}

TEST(WorkloadObjective, SingleSimulationAveragingMatchesManualComputation) {
  // evaluate() runs the deterministic simulation once and derives the
  // `runs_per_eval` volatility samples from that single measurement. The
  // reported average must match recomputing those samples by hand from a
  // noise-free single-run evaluation — proving the averaged result is
  // bit-identical to simulating every run.
  TestbedOptions raw = small_testbed();
  raw.runs_per_eval = 1;
  auto raw_objective = hacc_objective(raw);
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  const cfg::Configuration config = space.default_configuration();
  const Evaluation single = raw_objective->evaluate(config);
  // detail carries the raw (un-noised) metering of the simulated run.
  const double base_perf = single.detail.perf_mbps;
  const SimSeconds base_seconds =
      single.eval_seconds - kLaunchOverheadSeconds;

  TestbedOptions tb = small_testbed();
  tb.runs_per_eval = 3;
  tb.measurement_noise = 0.02;
  auto objective = hacc_objective(tb);
  const Evaluation eval = objective->evaluate(config);

  Rng rng(derive_stream(tb.seed, hash_indices(config.indices())));
  double perf_sum = 0.0;
  double seconds_sum = 0.0;
  for (unsigned run = 0; run < tb.runs_per_eval; ++run) {
    const double noisy =
        base_perf * (1.0 + rng.normal(0.0, tb.measurement_noise));
    perf_sum += std::max(0.0, noisy);
    seconds_sum += base_seconds;
  }
  EXPECT_EQ(eval.perf_mbps, perf_sum / tb.runs_per_eval);
  EXPECT_EQ(eval.eval_seconds,
            seconds_sum / tb.runs_per_eval + kLaunchOverheadSeconds);
}

TEST(WorkloadObjective, BatchMatchesSerialEvaluation) {
  auto serial = hacc_objective(small_testbed());
  auto batched = hacc_objective(small_testbed());
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  std::vector<cfg::Configuration> configs;
  for (std::size_t p = 0; p < 6; ++p) {
    cfg::Configuration config = space.default_configuration();
    config.set_index(p, space.parameter(p).domain.size() - 1);
    configs.push_back(config);
  }
  const std::vector<Evaluation> batch = batched->evaluate_batch(configs);
  ASSERT_EQ(batch.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const Evaluation one = serial->evaluate(configs[i]);
    EXPECT_EQ(batch[i].perf_mbps, one.perf_mbps) << "config " << i;
    EXPECT_EQ(batch[i].eval_seconds, one.eval_seconds) << "config " << i;
  }
  EXPECT_EQ(batched->evaluations(), configs.size());
}

TEST(KernelObjective, RunsMiniCPrograms) {
  const minic::Program program = minic::parse(wl::sources::hacc());
  auto objective = make_kernel_objective(program, small_testbed());
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  const Evaluation eval = objective->evaluate(space.default_configuration());
  EXPECT_GT(eval.perf_mbps, 0.0);
  EXPECT_GT(eval.detail.counters.bytes_written, 0u);
}

TEST(GeneticTuner, FindsSyntheticOptimum) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  SyntheticObjective objective(space);
  GaOptions ga;
  ga.max_generations = 30;
  ga.seed = 11;
  GeneticTuner tuner(space, objective, ga);
  const TuningResult result = tuners::drive(tuner, objective).tuning;
  ASSERT_TRUE(result.best_config.has_value());
  EXPECT_EQ(result.best_config->value("striping_factor"), 32u);
  EXPECT_EQ(result.best_config->value("coll_metadata_write"), 1u);
  EXPECT_NEAR(result.best_perf, 110.0, 1e-9);
}

TEST(GeneticTuner, BestPerfIsMonotone) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  SyntheticObjective objective(space);
  GaOptions ga;
  ga.max_generations = 20;
  GeneticTuner tuner(space, objective, ga);
  const TuningResult result = tuners::drive(tuner, objective).tuning;
  double prev = -1.0;
  for (const GenerationStats& gen : result.history) {
    EXPECT_GE(gen.best_perf, prev);  // elitism: never regresses
    prev = gen.best_perf;
  }
  EXPECT_EQ(result.generations_run, 20u);
  EXPECT_FALSE(result.early_stopped);
}

TEST(GeneticTuner, CumulativeTimeIsMonotone) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  SyntheticObjective objective(space);
  GaOptions ga;
  ga.max_generations = 10;
  GeneticTuner tuner(space, objective, ga);
  const TuningResult result = tuners::drive(tuner, objective).tuning;
  double prev = 0.0;
  for (const GenerationStats& gen : result.history) {
    EXPECT_GE(gen.cumulative_seconds, prev);
    prev = gen.cumulative_seconds;
  }
  EXPECT_DOUBLE_EQ(result.total_seconds, prev);
}

TEST(GeneticTuner, CachingAvoidsReEvaluatingElites) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  SyntheticObjective objective(space);
  GaOptions ga;
  ga.max_generations = 15;
  ga.cache_evaluations = true;
  GeneticTuner tuner(space, objective, ga);
  tuners::drive(tuner, objective);
  // Without caching this would be pop*gens = 240 evaluations.
  EXPECT_LT(objective.evaluations(), 240u);
}

TEST(GeneticTuner, CacheHitsDoNotAdvanceTheBudget) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  SyntheticObjective objective(space);
  GaOptions ga;
  ga.max_generations = 15;
  ga.cache_evaluations = true;
  GeneticTuner tuner(space, objective, ga);
  const TuningResult result = tuners::drive(tuner, objective).tuning;
  // The fitness cache stores the full Evaluation, and hits bill zero
  // seconds: every simulated second in the budget corresponds to exactly
  // one fresh evaluation (SyntheticObjective charges a flat 30 s).
  EXPECT_DOUBLE_EQ(result.total_seconds,
                   30.0 * static_cast<double>(objective.evaluations()));
}

TEST(GeneticTuner, InitialPerfComesFromDefaults) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  SyntheticObjective objective(space);
  GaOptions ga;
  ga.max_generations = 3;
  GeneticTuner tuner(space, objective, ga);
  const TuningResult result = tuners::drive(tuner, objective).tuning;
  // default: striping 1, coll_meta_write 0 -> 100 - 31 = 69.
  EXPECT_NEAR(result.initial_perf, 69.0, 1e-9);
}

TEST(GeneticTuner, SubsetMaskFreezesOtherGenes) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  SyntheticObjective objective(space);
  GaOptions ga;
  ga.max_generations = 25;
  ga.seed = 2;
  GeneticTuner tuner(space, objective, ga);
  // Only allow tuning the (useless) sieve buffer: striping can never
  // improve beyond what generation 0 stumbled on.
  const std::size_t sieve = space.index_of("sieve_buf_size");
  tuner.set_subset_provider(
      [sieve](unsigned, const TuningResult&) {
        return std::vector<std::size_t>{sieve};
      });
  const TuningResult masked = tuners::drive(tuner, objective).tuning;

  GeneticTuner free_tuner(space, objective, ga);
  const TuningResult free_run = tuners::drive(free_tuner, objective).tuning;
  EXPECT_GT(free_run.best_perf, masked.best_perf);
}

/// Every perf is below -1 (a negated cost, say). The first observation
/// still sets the search's best, so the subset mask has an elite to
/// freeze genes at.
class NegativeObjective final : public Objective {
 public:
  std::string name() const override { return "negative"; }
  Evaluation evaluate(const cfg::Configuration& config) override {
    ++evals_;
    Evaluation eval;
    eval.perf_mbps = -10.0 - static_cast<double>(config.indices()[0]);
    eval.eval_seconds = 30.0;
    return eval;
  }
  std::uint64_t evaluations() const override { return evals_; }

 private:
  std::uint64_t evals_ = 0;
};

TEST(GeneticTuner, SubsetMaskBreedsWhenEveryPerfIsNegative) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  NegativeObjective objective;
  GaOptions ga;
  ga.population = 8;
  ga.max_generations = 4;
  GeneticTuner tuner(space, objective, ga);
  tuner.set_subset_provider([](unsigned, const TuningResult&) {
    return std::vector<std::size_t>{0, 1};
  });
  const TuningResult result = tuners::drive(tuner, objective).tuning;
  EXPECT_EQ(result.generations_run, 4u);
  ASSERT_TRUE(result.best_config.has_value());
  EXPECT_LT(result.best_perf, -1.0);
}

TEST(GeneticTuner, StopperTerminatesRun) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  SyntheticObjective objective(space);
  GaOptions ga;
  ga.max_generations = 50;
  GeneticTuner tuner(space, objective, ga);
  tuners::DriveOptions options;
  options.stopper = [](unsigned generation, const TuningResult&) {
    return generation >= 7;
  };
  const TuningResult result = tuners::drive(tuner, objective, options).tuning;
  EXPECT_TRUE(result.early_stopped);
  EXPECT_EQ(result.generations_run, 8u);
}

TEST(GeneticTuner, RejectsBadOptions) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  SyntheticObjective objective(space);
  GaOptions tiny;
  tiny.population = 2;
  EXPECT_THROW(GeneticTuner(space, objective, tiny), Error);
  GaOptions elitist;
  elitist.population = 8;
  elitist.elitism = 8;
  EXPECT_THROW(GeneticTuner(space, objective, elitist), Error);
}

TEST(HeuristicStopper, FiresAfterStagnationWindow) {
  auto stopper = make_heuristic_stopper(0.05, 5);
  TuningResult progress;
  progress.initial_perf = 100.0;
  // Rising phase: no stop.
  for (unsigned g = 0; g < 6; ++g) {
    GenerationStats stats;
    stats.generation = g;
    stats.best_perf = 100.0 + 20.0 * g;
    progress.history.push_back(stats);
    progress.best_perf = stats.best_perf;
    EXPECT_FALSE(stopper(g, progress)) << "generation " << g;
  }
  // Flat phase: stops after the 5-iteration window.
  for (unsigned g = 6; g < 12; ++g) {
    GenerationStats stats;
    stats.generation = g;
    stats.best_perf = 200.0;
    progress.history.push_back(stats);
    progress.best_perf = 200.0;
    const bool stop = stopper(g, progress);
    if (g >= 10) {
      EXPECT_TRUE(stop) << "generation " << g;
      break;
    }
  }
}

TEST(HeuristicStopper, SlowGrowthBelowThresholdStops) {
  auto stopper = make_heuristic_stopper(0.05, 5);
  TuningResult progress;
  for (unsigned g = 0; g < 12; ++g) {
    GenerationStats stats;
    stats.generation = g;
    stats.best_perf = 100.0 * (1.0 + 0.001 * g);  // 0.1% per generation
    progress.history.push_back(stats);
    progress.best_perf = stats.best_perf;
    if (g > 5) {
      EXPECT_TRUE(stopper(g, progress));
      return;
    }
  }
  FAIL() << "should have stopped";
}

TEST(MaxPerformanceStopper, StopsAtTarget) {
  auto stopper = make_max_performance_stopper(150.0);
  TuningResult progress;
  progress.best_perf = 149.0;
  EXPECT_FALSE(stopper(3, progress));
  progress.best_perf = 150.0;
  EXPECT_TRUE(stopper(4, progress));
}

TEST(NoStopper, NeverStops) {
  auto stopper = make_no_stopper();
  TuningResult progress;
  progress.best_perf = 1e9;
  EXPECT_FALSE(stopper(1000, progress));
}

/// Property: across seeds, the GA on the real stack never loses to the
/// default configuration, and tuning time grows with generations.
class GaSeedProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GaSeedProperty, BeatsDefaultsOnRealStack) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  auto objective = hacc_objective(small_testbed());
  GaOptions ga;
  ga.max_generations = 8;
  ga.population = 8;
  ga.seed = GetParam();
  GeneticTuner tuner(space, *objective, ga);
  const TuningResult result = tuners::drive(tuner, *objective).tuning;
  EXPECT_GE(result.best_perf, result.initial_perf);
  EXPECT_GT(result.total_seconds, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GaSeedProperty,
                         ::testing::Values(1u, 7u, 42u, 1234u));

}  // namespace
}  // namespace tunio::tuner

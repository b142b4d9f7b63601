// Tests for the pluggable tuner backends: drive() and its callers (the
// pipeline, interactive sessions, the tuning server) against the GA
// reference loop, BO/rule search quality and determinism, the registry,
// the drive() harness, and backend selection in the pipeline and the
// tuning service.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "core/pipeline.hpp"
#include "core/session.hpp"
#include "core/tunio.hpp"
#include "obs/metrics.hpp"
#include "reference_loop.hpp"
#include "service/service_objective.hpp"
#include "service/tuning_server.hpp"
#include "tuner/stoppers.hpp"
#include "tuners/bo_tuner.hpp"
#include "tuners/ga_adapter.hpp"
#include "tuners/random_tuner.hpp"
#include "tuners/registry.hpp"
#include "tuners/rule_tuner.hpp"
#include "workloads/workload.hpp"

namespace tunio::tuners {
namespace {

tuner::TestbedOptions small_testbed(std::uint64_t seed = 0xC0FFEE) {
  tuner::TestbedOptions tb;
  tb.num_ranks = 16;
  tb.runs_per_eval = 2;
  tb.seed = seed;
  return tb;
}

wl::RunOptions kernel_options() {
  wl::RunOptions options;
  options.compute_scale = 0.0;
  return options;
}

/// Small-size objectives over all five seed workloads.
std::unique_ptr<tuner::Objective> workload_objective(const std::string& which,
                                                     std::uint64_t seed) {
  std::unique_ptr<wl::Workload> workload;
  if (which == "hacc") {
    wl::HaccParams p;
    p.particles_per_rank = 1 << 15;
    workload = wl::make_hacc(p);
  } else if (which == "flash") {
    wl::FlashParams p;
    p.blocks_per_rank = 4;
    workload = wl::make_flash(p);
  } else if (which == "vpic") {
    wl::VpicParams p;
    p.particles_per_rank = 1 << 14;
    workload = wl::make_vpic(p);
  } else if (which == "macsio") {
    wl::MacsioParams p;
    p.num_dumps = 2;
    workload = wl::make_macsio(p);
  } else {
    wl::BdcatsParams p;
    p.particles_per_rank = 1 << 14;
    workload = wl::make_bdcats(p);
  }
  return tuner::make_workload_objective(
      std::shared_ptr<const wl::Workload>(std::move(workload)),
      small_testbed(seed), kernel_options());
}

/// Synthetic separable objective with a known optimum: rewards
/// striping_factor near 32 and collective metadata writes. Cheap, so
/// search-quality tests can afford hundreds of evaluations.
class SyntheticObjective : public tuner::Objective {
 public:
  std::string name() const override { return "synthetic"; }
  tuner::Evaluation evaluate(const cfg::Configuration& config) override {
    ++evals_;
    const double stripes =
        static_cast<double>(config.value("striping_factor"));
    const double stripe_score = 100.0 - std::abs(stripes - 32.0);
    const double meta_score =
        10.0 * static_cast<double>(config.value("coll_metadata_write"));
    tuner::Evaluation eval;
    eval.perf_mbps = stripe_score + meta_score;
    eval.eval_seconds = 30.0;
    return eval;
  }
  std::uint64_t evaluations() const override { return evals_; }

 private:
  std::uint64_t evals_ = 0;
};

tuner::GaOptions small_ga(std::uint64_t seed = 0x5EED) {
  tuner::GaOptions ga;
  ga.population = 8;
  ga.max_generations = 6;
  ga.seed = seed;
  return ga;
}

void expect_identical_results(const tuner::TuningResult& a,
                              const tuner::TuningResult& b) {
  EXPECT_EQ(a.initial_perf, b.initial_perf);
  EXPECT_EQ(a.best_perf, b.best_perf);
  EXPECT_EQ(a.total_seconds, b.total_seconds);
  EXPECT_EQ(a.generations_run, b.generations_run);
  EXPECT_EQ(a.early_stopped, b.early_stopped);
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_EQ(a.history[i].generation_best_perf,
              b.history[i].generation_best_perf);
    EXPECT_EQ(a.history[i].best_perf, b.history[i].best_perf);
    EXPECT_EQ(a.history[i].cumulative_seconds,
              b.history[i].cumulative_seconds);
    EXPECT_EQ(a.history[i].subset, b.history[i].subset);
  }
  ASSERT_EQ(a.best_config.has_value(), b.best_config.has_value());
  if (a.best_config.has_value()) {
    EXPECT_EQ(a.best_config->indices(), b.best_config->indices());
  }
}

// --- GA backend against the reference loop --------------------------------

TEST(GaAdapter, BitIdenticalToRunOnAllSeedWorkloads) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  for (const std::string which :
       {"hacc", "flash", "vpic", "macsio", "bdcats"}) {
    // Fresh objectives with the same testbed seed: evaluations are
    // deterministic in (seed, genome), so both searches see the same
    // landscape.
    auto reference_objective = workload_objective(which, 42);
    tuner::GeneticTuner reference(space, *reference_objective, small_ga());
    const tuner::TuningResult expected =
        reference_loop(reference, *reference_objective);

    auto driven_objective = workload_objective(which, 42);
    GaTunerAdapter adapter(space, *driven_objective, small_ga());
    const DriveResult driven = drive(adapter, *driven_objective);

    SCOPED_TRACE(which);
    expect_identical_results(expected, driven.tuning);
  }
}

/// The heuristic stopper, also logging the iteration index it is given.
tuner::Stopper logged_heuristic_stopper(std::vector<unsigned>& log) {
  return [&log, stopper = tuner::make_heuristic_stopper()](
             unsigned generation, const tuner::TuningResult& progress) {
    log.push_back(generation);
    return stopper(generation, progress);
  };
}

TEST(GaAdapter, BitIdenticalUnderStopper) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  tuner::GaOptions ga = small_ga(0xABC);
  ga.max_generations = 12;
  bool any_stopped = false;
  for (const std::string which :
       {"hacc", "flash", "vpic", "macsio", "bdcats"}) {
    std::vector<unsigned> expected_calls;
    auto reference_objective = workload_objective(which, 7);
    tuner::GeneticTuner reference(space, *reference_objective, ga);
    const tuner::TuningResult expected =
        reference_loop(reference, *reference_objective,
                       logged_heuristic_stopper(expected_calls));

    std::vector<unsigned> driven_calls;
    auto driven_objective = workload_objective(which, 7);
    GaTunerAdapter adapter(space, *driven_objective, ga);
    DriveOptions options;
    options.stopper = logged_heuristic_stopper(driven_calls);
    const DriveResult driven = drive(adapter, *driven_objective, options);

    SCOPED_TRACE(which);
    expect_identical_results(expected, driven.tuning);
    EXPECT_EQ(expected_calls, driven_calls);
    any_stopped = any_stopped || expected.early_stopped;
  }
  EXPECT_TRUE(any_stopped);  // the stopper path was exercised
}

TEST(GaAdapter, RunMatchesManualSteppingLoop) {
  // The registry-built GA, the one the pipeline and the tuning server
  // run, matches the GA stepped by hand.
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  auto a = workload_objective("vpic", 3);
  tuner::GeneticTuner stepped(space, *a, small_ga());
  const tuner::TuningResult expected = reference_loop(stepped, *a);

  auto b = workload_objective("vpic", 3);
  const std::unique_ptr<Tuner> ga =
      make_tuner("ga", space, *b, spec_from_ga(small_ga()));
  expect_identical_results(expected, drive(*ga, *b).tuning);
}

// --- golden TuningResult pins ---------------------------------------------

/// FNV-1a over the bit patterns of every `TuningResult` field. The
/// reference loop above drives the same GA as `drive()`, so it cannot
/// see a change in the bookkeeping both share; these pins can.
class ResultHash {
 public:
  void add(const tuner::TuningResult& r) {
    add_double(r.initial_perf);
    add_double(r.best_perf);
    add_double(r.total_seconds);
    add_bits(r.generations_run);
    add_bits(r.early_stopped ? 1 : 0);
    add_bits(r.history.size());
    for (const tuner::GenerationStats& s : r.history) {
      add_bits(s.generation);
      add_double(s.generation_best_perf);
      add_double(s.best_perf);
      add_double(s.cumulative_seconds);
      add_bits(s.subset.size());
      for (std::size_t p : s.subset) add_bits(p);
    }
    add_bits(r.best_config.has_value() ? 1 : 0);
    if (r.best_config.has_value()) {
      for (std::size_t i : r.best_config->indices()) add_bits(i);
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  void add_double(double d) { add_bits(std::bit_cast<std::uint64_t>(d)); }
  void add_bits(std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (v >> (8 * byte)) & 0xFF;
      hash_ *= 0x100000001B3ull;
    }
  }
  std::uint64_t hash_ = 0xCBF29CE484222325ull;
};

/// Drives one tuner per seed workload, each on a fresh objective.
template <typename MakeTuner>
std::vector<tuner::TuningResult> drive_seed_workloads(
    MakeTuner make, const DriveOptions& options = {}) {
  std::vector<tuner::TuningResult> results;
  for (const std::string which :
       {"hacc", "flash", "vpic", "macsio", "bdcats"}) {
    auto objective = workload_objective(which, 31);
    const std::unique_ptr<Tuner> tuner = make(*objective);
    results.push_back(drive(*tuner, *objective, options).tuning);
  }
  return results;
}

std::uint64_t hash_results(const std::vector<tuner::TuningResult>& results) {
  ResultHash hash;
  for (const tuner::TuningResult& result : results) hash.add(result);
  return hash.value();
}

TEST(GoldenResults, TuningResultsArePinnedForEveryBackend) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  auto ga_with = [&](tuner::GaOptions ga,
                     tuner::SubsetProvider subsets = nullptr) {
    return [&space, ga, subsets](tuner::Objective& objective) {
      auto tuner = std::make_unique<GaTunerAdapter>(space, objective, ga);
      if (subsets) tuner->set_subset_provider(subsets);
      return std::unique_ptr<Tuner>(std::move(tuner));
    };
  };
  auto backend = [&](const std::string& name) {
    return [&space, name](tuner::Objective& objective) {
      TunerSpec spec;
      spec.seed = 0x601D;
      spec.batch = 6;
      spec.max_iterations = 5;
      return make_tuner(name, space, objective, spec);
    };
  };

  tuner::GaOptions no_cache = small_ga();
  no_cache.cache_evaluations = false;
  // All genes free in generation 0, then a rotating pair plus a fixed one.
  const tuner::SubsetProvider rotating = [](unsigned generation,
                                            const tuner::TuningResult&) {
    if (generation == 0) return std::vector<std::size_t>{};
    return std::vector<std::size_t>{generation % 12, (generation + 5) % 12, 7};
  };
  tuner::GaOptions stopped = small_ga(0xABC);
  stopped.max_generations = 12;
  DriveOptions with_stopper;
  with_stopper.stopper = tuner::make_heuristic_stopper();
  DriveOptions capped;
  capped.max_iterations = 5;

  const std::vector<tuner::TuningResult> subset_runs =
      drive_seed_workloads(ga_with(small_ga(0x5B5E7), rotating));
  const std::vector<tuner::TuningResult> stopped_runs =
      drive_seed_workloads(ga_with(stopped), with_stopper);
  // The hooks under test were exercised.
  EXPECT_EQ(subset_runs.front().history.at(1).subset.size(), 3u);
  EXPECT_TRUE(std::any_of(stopped_runs.begin(), stopped_runs.end(),
                          [](const tuner::TuningResult& r) {
                            return r.early_stopped;
                          }));

  const std::vector<std::pair<std::string, std::uint64_t>> actual = {
      {"ga cache on", hash_results(drive_seed_workloads(ga_with(small_ga())))},
      {"ga cache off", hash_results(drive_seed_workloads(ga_with(no_cache)))},
      {"ga subsets", hash_results(subset_runs)},
      {"ga stopper", hash_results(stopped_runs)},
      {"bo", hash_results(drive_seed_workloads(backend("bo"), capped))},
      {"rule", hash_results(drive_seed_workloads(backend("rule"), capped))},
      {"random",
       hash_results(drive_seed_workloads(backend("random"), capped))},
  };
  // Recorded while the GA still kept its own iteration bookkeeping: the
  // move onto `TunerBase` must not change a single bit of any result.
  const std::vector<std::uint64_t> pinned = {
      0x1fa2ba6027dbc065ull,  // ga cache on
      0xd963196f34c56868ull,  // ga cache off
      0x3a50d004a2b4f92cull,  // ga subsets
      0x62b70746e8e02b56ull,  // ga stopper
      0xb7f7292c02a27973ull,  // bo
      0xeea8bdbf863bc6fbull,  // rule
      0x249e84c6d62132a8ull,  // random
  };
  ASSERT_EQ(actual.size(), pinned.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].second, pinned[i])
        << actual[i].first << ": 0x" << std::hex << actual[i].second;
  }
}

// --- search quality ------------------------------------------------------

/// Fresh evaluations spent until `run` first reached `target` (the max
/// possible count if it never did).
std::uint64_t evals_to_reach(const DriveResult& run, double target) {
  for (std::size_t i = 0; i < run.tuning.history.size(); ++i) {
    if (run.tuning.history[i].best_perf >= target) return run.evaluations[i];
  }
  return run.fresh_evaluations + 1;
}

TEST(BoTuner, MoreSampleEfficientThanRandomOnSyntheticObjective) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  // One seed is a coin flip (random search can get lucky on a smooth
  // landscape); aggregate evals-to-optimum over several seeds is what
  // the surrogate must actually win. Deterministic: fixed seed set.
  std::uint64_t bo_total = 0;
  std::uint64_t random_total = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    TunerSpec spec;
    spec.seed = seed;
    spec.batch = 8;
    spec.max_iterations = 8;

    SyntheticObjective bo_objective;
    auto bo = make_tuner("bo", space, bo_objective, spec);
    const DriveResult bo_run = drive(*bo, bo_objective);
    bo_total += evals_to_reach(bo_run, 110.0);
    EXPECT_GT(bo_run.tuning.best_perf, 105.0) << "seed " << seed;

    SyntheticObjective random_objective;
    auto random = make_tuner("random", space, random_objective, spec);
    const DriveResult random_run = drive(*random, random_objective);
    random_total += evals_to_reach(random_run, 110.0);
  }
  EXPECT_LT(bo_total, random_total);
}

TEST(BoTuner, DeterministicAcrossIdenticalDrives) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  BoOptions options;
  options.max_iterations = 5;

  SyntheticObjective a_objective;
  BoTuner a(space, options);
  const DriveResult run_a = drive(a, a_objective);

  SyntheticObjective b_objective;
  BoTuner b(space, options);
  const DriveResult run_b = drive(b, b_objective);

  expect_identical_results(run_a.tuning, run_b.tuning);
  EXPECT_EQ(run_a.fresh_evaluations, run_b.fresh_evaluations);
}

TEST(BoTuner, WarmupLeadsWithSeedConfiguration) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  BoOptions options;
  std::vector<std::size_t> seed(space.num_parameters(), 0);
  seed[0] = 1;
  options.seed_indices = seed;
  BoTuner bo(space, options);
  const std::vector<cfg::Configuration> warmup = bo.propose();
  ASSERT_FALSE(warmup.empty());
  EXPECT_EQ(warmup.front().indices(), seed);
}

TEST(RuleTuner, HintedParameterIsSweptFirst) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  RuleOptions options;
  options.hints = {{"striping_factor", 1.0}};
  RuleTuner rule(space, options);
  ASSERT_FALSE(rule.sweep_order().empty());
  EXPECT_EQ(rule.sweep_order().front(), space.index_of("striping_factor"));
}

TEST(RuleTuner, ConvergesToSyntheticOptimumAndStops) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  RuleOptions options;
  options.hints = {{"striping_factor", 1.0}, {"coll_metadata_write", 0.5}};
  SyntheticObjective objective;
  RuleTuner rule(space, options);
  const DriveResult run = drive(rule, objective);

  // Coordinate descent on a separable objective finds the exact optimum
  // and then stops on its own (a full pass without improvement).
  EXPECT_DOUBLE_EQ(run.tuning.best_perf, 110.0);
  EXPECT_TRUE(rule.done());
  ASSERT_TRUE(run.tuning.best_config.has_value());
  EXPECT_EQ(run.tuning.best_config->value("striping_factor"), 32u);
  EXPECT_EQ(run.tuning.best_config->value("coll_metadata_write"), 1u);
}

TEST(RuleTuner, DeterministicAndNeverRepeatsAnEvaluation) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  SyntheticObjective a_objective;
  RuleTuner a(space, {});
  const DriveResult run_a = drive(a, a_objective);

  SyntheticObjective b_objective;
  RuleTuner b(space, {});
  const DriveResult run_b = drive(b, b_objective);

  expect_identical_results(run_a.tuning, run_b.tuning);
  // The sweep dedups against every genome already evaluated.
  EXPECT_EQ(run_a.fresh_evaluations, a_objective.evaluations());
}

// --- registry ------------------------------------------------------------

TEST(Registry, BuildsEveryRegisteredBackend) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  SyntheticObjective objective;
  for (const std::string& name : backend_names()) {
    EXPECT_TRUE(is_backend(name));
    auto tuner = make_tuner(name, space, objective, {});
    ASSERT_NE(tuner, nullptr);
    EXPECT_EQ(tuner->name(), name);
    EXPECT_FALSE(tuner->done());
  }
  EXPECT_FALSE(is_backend("simulated-annealing"));
  EXPECT_THROW(make_tuner("simulated-annealing", space, objective, {}),
               InvalidArgument);
}

// --- drive() harness -----------------------------------------------------

TEST(Driver, BudgetStopsAtIterationBoundary) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  SyntheticObjective objective;
  RandomOptions options;
  options.batch = 4;
  options.max_iterations = 100;
  RandomTuner random(space, options);
  DriveOptions drive_options;
  // Each batch bills 4 * 30s; the budget covers exactly 3 iterations.
  drive_options.budget_seconds = 3 * 4 * 30.0;
  const DriveResult run = drive(random, objective, drive_options);
  EXPECT_EQ(run.tuning.generations_run, 3u);
  EXPECT_FALSE(run.tuning.early_stopped);  // budget, not stopper
  EXPECT_EQ(run.fresh_evaluations, 12u);
  ASSERT_EQ(run.evaluations.size(), 3u);
  EXPECT_EQ(run.evaluations.back(), 12u);
}

TEST(Driver, StopperTerminatesAndMarksEarlyStopped) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  SyntheticObjective objective;
  RandomTuner random(space, {});
  DriveOptions drive_options;
  drive_options.stopper = [](unsigned generation, const tuner::TuningResult&) {
    return generation >= 1;
  };
  const DriveResult run = drive(random, objective, drive_options);
  EXPECT_EQ(run.tuning.generations_run, 2u);
  EXPECT_TRUE(run.tuning.early_stopped);
  EXPECT_TRUE(random.done());
}

TEST(Driver, MaxIterationsCapsTheBackendHorizon) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  SyntheticObjective objective;
  RandomTuner random(space, {});  // backend horizon: 50 iterations
  DriveOptions drive_options;
  drive_options.max_iterations = 4;
  const DriveResult run = drive(random, objective, drive_options);
  EXPECT_EQ(run.tuning.generations_run, 4u);
  EXPECT_FALSE(run.tuning.early_stopped);
}

TEST(Driver, SurfacesReplayGateVerdictAndReason) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  DriveOptions drive_options;
  drive_options.max_iterations = 1;
  {
    // Custom objectives carry no invariance evidence: ineligible, with
    // the default explanation.
    SyntheticObjective objective;
    RandomTuner random(space, {});
    const DriveResult run = drive(random, objective, drive_options);
    EXPECT_FALSE(run.replay_eligible);
    EXPECT_FALSE(run.replay_gate_reason.empty());
  }
  {
    // A settings-invariant kernel objective is eligible, and the reason
    // says why the gate admitted it.
    auto objective = workload_objective("vpic", 0xAB);
    RandomTuner random(space, {});
    const DriveResult run = drive(random, *objective, drive_options);
    EXPECT_TRUE(run.replay_eligible) << run.replay_gate_reason;
    EXPECT_FALSE(run.replay_gate_reason.empty());
  }
}

TEST(Driver, ReportsInitialPerfFromFirstConfiguration) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  SyntheticObjective objective;
  RandomTuner random(space, {});
  DriveOptions drive_options;
  drive_options.max_iterations = 2;
  const DriveResult run = drive(random, objective, drive_options);
  // The first configuration of the first batch is the stack defaults.
  SyntheticObjective probe;
  const double default_perf =
      probe.evaluate(space.default_configuration()).perf_mbps;
  EXPECT_DOUBLE_EQ(run.tuning.initial_perf, default_perf);
}

/// A cost to minimise, reported as its negation, so every perf is below
/// -1. Keeps every evaluation it served.
class NegatedCostObjective final : public tuner::Objective {
 public:
  std::string name() const override { return "negated-cost"; }
  tuner::Evaluation evaluate(const cfg::Configuration& config) override {
    const double stripes =
        static_cast<double>(config.value("striping_factor"));
    tuner::Evaluation eval;
    eval.perf_mbps = -(10.0 + std::abs(stripes - 32.0));
    eval.eval_seconds = 30.0;
    served.emplace_back(config, eval.perf_mbps);
    return eval;
  }
  std::uint64_t evaluations() const override { return served.size(); }

  std::vector<std::pair<cfg::Configuration, double>> served;
};

TEST(Driver, ReportsTrueBestWhenEveryPerfIsBelowMinusOne) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  NegatedCostObjective objective;
  RandomTuner random(space, {});
  DriveOptions options;
  options.max_iterations = 3;
  const DriveResult run = drive(random, objective, options);

  ASSERT_FALSE(objective.served.empty());
  auto best = objective.served.front();
  for (const auto& served : objective.served) {
    if (served.second > best.second) best = served;
  }
  EXPECT_LT(best.second, -1.0);
  EXPECT_EQ(run.tuning.best_perf, best.second);
  ASSERT_TRUE(run.tuning.best_config.has_value());
  EXPECT_EQ(run.tuning.best_config->indices(), best.first.indices());
  EXPECT_EQ(run.tuning.initial_perf, objective.served.front().second);
  ASSERT_EQ(run.tuning.history.size(), 3u);
  for (const tuner::GenerationStats& stats : run.tuning.history) {
    EXPECT_LT(stats.generation_best_perf, -1.0);
    EXPECT_LE(stats.generation_best_perf, stats.best_perf);
  }
  EXPECT_EQ(run.tuning.history.back().best_perf, best.second);
}

/// `tuner.eval.batches` / `tuner.eval.requested` count what the search
/// asked for: one batch per iteration and every proposed configuration,
/// whether or not the objective layers below split or cache the work.
void expect_drive_counts_batches(const std::string& backend,
                                 tuner::Objective& objective) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  const std::uint64_t batches0 = registry.counter("tuner.eval.batches").value();
  const std::uint64_t requested0 =
      registry.counter("tuner.eval.requested").value();
  auto tuner = make_tuner(backend, space, objective, {});
  DriveOptions options;
  options.max_iterations = 3;
  const DriveResult run = drive(*tuner, objective, options);
  ASSERT_EQ(run.evaluations.size(), run.tuning.generations_run);
  EXPECT_EQ(registry.counter("tuner.eval.batches").value() - batches0,
            run.tuning.generations_run);
  EXPECT_EQ(registry.counter("tuner.eval.requested").value() - requested0,
            run.fresh_evaluations);
}

TEST(Driver, CountsEachBatchOnceForEveryBackend) {
  for (const std::string& backend : backend_names()) {
    SCOPED_TRACE(backend);
    {
      SyntheticObjective plain;
      expect_drive_counts_batches(backend, plain);
    }
    {
      // The inner objective is not concurrent_safe, so the engine falls
      // back to the inner objective's own evaluate_batch: a nested batch
      // that must not be counted again.
      SyntheticObjective inner;
      service::EvalEngine engine(service::EngineOptions{2});
      service::ResultCache cache;
      service::ServiceObjective objective(inner, engine, cache,
                                          /*fingerprint=*/11);
      expect_drive_counts_batches(backend, objective);
      EXPECT_EQ(inner.evaluations(), objective.cache_misses());
    }
  }
}

// --- pipeline / service integration -------------------------------------

TEST(PipelineBackend, RuleBackendRunsThroughRunPipeline) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  auto objective = workload_objective("hacc", 11);
  core::PipelineVariant variant{"rule-backend"};
  variant.backend = "rule";
  variant.hints = {{"striping_factor", 1.0}};
  const core::PipelineRun run = core::run_pipeline(
      space, *objective, nullptr, variant, small_ga());
  EXPECT_EQ(run.backend, "rule");
  EXPECT_GT(run.result.best_perf, 0.0);
  EXPECT_GE(run.result.best_perf, run.result.initial_perf);
}

TEST(PipelineBackend, GaBackendMatchesHistoricalDefaultPath) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  auto a = workload_objective("flash", 13);
  const core::PipelineRun legacy = core::run_pipeline(
      space, *a, nullptr, {"legacy", false, core::StopPolicy::kNone},
      small_ga());

  auto b = workload_objective("flash", 13);
  core::PipelineVariant variant{"explicit-ga"};
  variant.backend = "ga";
  const core::PipelineRun selected =
      core::run_pipeline(space, *b, nullptr, variant, small_ga());

  EXPECT_EQ(selected.backend, "ga");
  expect_identical_results(legacy.result, selected.result);
}

// --- callers of drive() against the reference loop -------------------------

TEST(PipelineBackend, TunioVariantMatchesReferenceLoop) {
  // Impact-first subsets and RL stopping, wired into the reference loop
  // by `TunIO::attach` on an identically constructed TunIO.
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  tuner::GaOptions ga = small_ga(0x71);
  ga.max_generations = 12;

  auto a = workload_objective("flash", 17);
  core::TunIO reference_tunio(space);
  tuner::GeneticTuner reference(space, *a, ga);
  const DriveOptions hooks = reference_tunio.attach(reference);
  const tuner::TuningResult expected =
      reference_loop(reference, *a, hooks.stopper);

  auto b = workload_objective("flash", 17);
  core::TunIO tunio(space);
  const core::PipelineRun run = core::run_pipeline(
      space, *b, &tunio, {"tunio", true, core::StopPolicy::kTunio}, ga);

  EXPECT_EQ(run.backend, "ga");
  expect_identical_results(expected, run.result);
  EXPECT_EQ(run.result.history.front().subset.size(), space.num_parameters());
}

TEST(InteractiveSession, TwoStepsMatchReferenceLoop) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  const tuner::GaOptions ga = small_ga(0x5E55);
  const unsigned generations[2] = {3, 4};

  auto a = workload_objective("vpic", 23);
  core::TunIO reference_tunio(space);
  std::vector<tuner::TuningResult> expected;
  std::optional<cfg::Configuration> best;
  double best_perf = 0.0;
  for (unsigned step = 0; step < 2; ++step) {
    // What a session step does: decorrelate the seed, resume from the
    // best configuration so far.
    tuner::GaOptions options = ga;
    options.max_generations = generations[step];
    options.seed = ga.seed + 0x9E37'79B9u * (step + 1);
    if (step > 0) options.seed_indices = best->indices();
    tuner::GeneticTuner reference(space, *a, options);
    const DriveOptions hooks = reference_tunio.attach(reference);
    expected.push_back(reference_loop(reference, *a, hooks.stopper));
    if (expected.back().best_perf > best_perf) {
      best_perf = expected.back().best_perf;
      best = expected.back().best_config;
    }
  }

  auto b = workload_objective("vpic", 23);
  core::TunIO tunio(space);
  core::InteractiveSession session(tunio, *b, ga);
  for (unsigned step = 0; step < 2; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    expect_identical_results(expected[step], session.step(generations[step]));
  }
  EXPECT_EQ(session.best_configuration().indices(), best->indices());
}

TEST(TuningServer, ResumedGaJobMatchesReferenceLoop) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  const tuner::GaOptions first_ga = small_ga(0x1);
  tuner::GaOptions resume_ga = small_ga(0x2);

  // Reference: the same two searches over a private engine and cache,
  // under one fingerprint, so the resumed search hits the first one's
  // entries exactly as it does in the server.
  service::EvalEngine engine(service::EngineOptions{2});
  service::ResultCache cache;
  std::vector<tuner::TuningResult> expected;
  for (int job = 0; job < 2; ++job) {
    auto inner = workload_objective("hacc", 29);
    service::ServiceObjective objective(*inner, engine, cache,
                                        /*fingerprint=*/5);
    tuner::GaOptions options = first_ga;
    if (job == 1) {
      options = resume_ga;
      options.seed_indices = expected.front().best_config->indices();
    }
    tuner::GeneticTuner reference(space, objective, options);
    expected.push_back(reference_loop(reference, objective));
  }

  service::ServerOptions server_options;
  server_options.engine.workers = 2;
  service::TuningServer server(space, server_options);
  service::JobSpec first;
  first.name = "first";
  first.objective = workload_objective("hacc", 29);
  first.fingerprint = 5;
  first.ga = first_ga;
  const service::JobId first_id = server.submit(first);
  expect_identical_results(expected[0], server.wait(first_id));

  service::JobSpec resume = first;
  resume.name = "resume";
  resume.objective = workload_objective("hacc", 29);
  resume.ga = resume_ga;
  resume.ga.seed_indices = server.progress(first_id).best_indices;
  expect_identical_results(expected[1], server.wait(server.submit(resume)));
}

TEST(TuningServer, RunsNonGaBackendJobs) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  service::TuningServer server(space);

  service::JobSpec spec;
  spec.name = "bo-job";
  spec.backend = "bo";
  spec.objective = std::make_shared<SyntheticObjective>();
  spec.ga = small_ga();
  const service::JobId id = server.submit(spec);
  const tuner::TuningResult result = server.wait(id);

  EXPECT_GT(result.best_perf, 0.0);
  EXPECT_EQ(result.generations_run, small_ga().max_generations);
  const service::JobProgress progress = server.progress(id);
  EXPECT_EQ(progress.backend, "bo");
  EXPECT_EQ(progress.state, service::JobState::kDone);
  EXPECT_GT(progress.best_perf, 0.0);
}

TEST(TuningServer, RejectsUnknownBackend) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  service::TuningServer server(space);
  service::JobSpec spec;
  spec.name = "bogus";
  spec.backend = "hillclimb";
  spec.objective = std::make_shared<SyntheticObjective>();
  EXPECT_THROW(server.submit(spec), Error);
}

/// Synthetic objective slowed by a wall-clock sleep per evaluation, to
/// make the cancellation race testable (the same trick service_test
/// uses).
class SlowSyntheticObjective final : public SyntheticObjective {
 public:
  tuner::Evaluation evaluate(const cfg::Configuration& config) override {
    std::this_thread::sleep_for(std::chrono::microseconds(2000));
    return SyntheticObjective::evaluate(config);
  }
};

TEST(TuningServer, CancelsNonGaBackendJobAtIterationBoundary) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  service::ServerOptions server_options;
  server_options.max_concurrent_jobs = 1;
  service::TuningServer server(space, server_options);

  service::JobSpec spec;
  spec.name = "cancel-me";
  spec.backend = "random";
  spec.objective = std::make_shared<SlowSyntheticObjective>();
  spec.ga = small_ga();
  spec.ga.max_generations = 10'000;  // far more than we allow to run
  const service::JobId id = server.submit(spec);
  while (server.progress(id).generations_done < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Cooperative cancel: takes effect at the next iteration boundary.
  EXPECT_TRUE(server.cancel(id));
  const tuner::TuningResult partial = server.wait(id);
  const service::JobProgress progress = server.progress(id);
  EXPECT_EQ(progress.state, service::JobState::kCancelled);
  EXPECT_GE(partial.generations_run, 1u);
  EXPECT_LT(partial.generations_run, 10'000u);
}

}  // namespace
}  // namespace tunio::tuners

// Tests for the TunIO core: RoTI, Early Stopping, Smart Configuration
// Generation, the Table-I facade.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "core/early_stopping.hpp"
#include "core/roti.hpp"
#include "core/smart_config.hpp"
#include "config/xml.hpp"
#include "core/session.hpp"
#include "core/tunio.hpp"
#include "tuner/objective.hpp"
#include "tuners/tuner.hpp"
#include "workloads/workload.hpp"

namespace tunio::core {
namespace {

tuner::TuningResult synthetic_result() {
  tuner::TuningResult result;
  result.initial_perf = 100.0;
  double best = 100.0;
  double seconds = 0.0;
  for (unsigned g = 0; g < 10; ++g) {
    best += 50.0;
    seconds += 60.0;  // one minute per generation
    tuner::GenerationStats stats;
    stats.generation = g;
    stats.best_perf = best;
    stats.cumulative_seconds = seconds;
    result.history.push_back(stats);
  }
  result.best_perf = best;
  result.total_seconds = seconds;
  result.generations_run = 10;
  return result;
}

TEST(Roti, CurveMatchesDefinition) {
  const tuner::TuningResult result = synthetic_result();
  const auto curve = roti_curve(result);
  ASSERT_EQ(curve.size(), 10u);
  // Generation g: best = 100 + 50(g+1), minutes = g+1.
  for (unsigned g = 0; g < 10; ++g) {
    EXPECT_NEAR(curve[g].roti, 50.0 * (g + 1) / (g + 1.0), 1e-9);
    EXPECT_NEAR(curve[g].minutes, g + 1.0, 1e-9);
  }
  EXPECT_NEAR(final_roti(result), 50.0, 1e-9);
}

TEST(Roti, PeakFindsMaximum) {
  tuner::TuningResult result = synthetic_result();
  // A big jump at generation 1, flat afterwards: RoTI peaks there.
  const double bests[10] = {150, 500, 510, 510, 510, 510, 510, 510, 510, 510};
  for (unsigned g = 0; g < 10; ++g) {
    result.history[g].best_perf = bests[g];
  }
  const RotiPoint peak = peak_roti(result);
  EXPECT_EQ(peak.generation, 1u);
  EXPECT_NEAR(peak.roti, (500.0 - 100.0) / 2.0, 1e-9);
}

TEST(Roti, EmptyHistoryIsZero) {
  tuner::TuningResult result;
  EXPECT_DOUBLE_EQ(final_roti(result), 0.0);
  EXPECT_DOUBLE_EQ(peak_roti(result).roti, 0.0);
}

TEST(EarlyStopping, OfflineTrainingConverges) {
  EarlyStoppingOptions options;
  options.episodes_per_epoch = 32;
  options.min_epochs = 12;
  options.max_epochs = 30;
  EarlyStopping stopper(options);
  EXPECT_FALSE(stopper.offline_trained());
  const auto log = stopper.train_offline();
  EXPECT_TRUE(stopper.offline_trained());
  EXPECT_GE(log.size(), 12u);
  // Learning happened: late epochs beat the first epochs on average.
  const double early = (log[0] + log[1] + log[2]) / 3.0;
  const double late =
      (log[log.size() - 1] + log[log.size() - 2] + log[log.size() - 3]) / 3.0;
  EXPECT_GT(late, early * 0.8);  // at minimum, no collapse
}

TEST(EarlyStopping, NeverStopsBeforeMinIterations) {
  EarlyStoppingOptions options;
  options.min_iterations = 12;
  options.episodes_per_epoch = 16;
  options.min_epochs = 8;
  options.max_epochs = 10;
  EarlyStopping stopper(options);
  stopper.train_offline();
  stopper.reset_episode();
  for (unsigned t = 0; t < 11; ++t) {
    EXPECT_FALSE(stopper.stop(t, 1000.0)) << "iteration " << t;
  }
}

TEST(EarlyStopping, FirstQueryBeforeAnyObservationIsSafe) {
  // A cold agent (no offline training, no prior episode state) queried
  // on its very first observation must answer without tripping internal
  // invariants — and never stop inside the warmup window.
  EarlyStoppingOptions options;
  options.min_iterations = 2;
  EarlyStopping stopper(options);
  stopper.reset_episode();
  EXPECT_FALSE(stopper.stop(0, 5000.0));
}

TEST(EarlyStopping, NonFiniteBandwidthIsTreatedAsZero) {
  // Twin agents with identical seeds and training: one is fed NaN/inf
  // observations (a failed evaluation upstream), the other literal 0.0.
  // The non-finite guard must make their observation streams — and so
  // their decisions and online-learned state — indistinguishable.
  EarlyStoppingOptions options;
  options.min_iterations = 1;
  options.episodes_per_epoch = 8;
  options.min_epochs = 2;
  options.max_epochs = 3;
  EarlyStopping poisoned(options);
  EarlyStopping clean(options);
  poisoned.train_offline();
  clean.train_offline();
  poisoned.reset_episode();
  clean.reset_episode();
  for (unsigned t = 0; t < 8; ++t) {
    const double bad = t % 2 == 0 ? std::numeric_limits<double>::quiet_NaN()
                                  : std::numeric_limits<double>::infinity();
    const bool a = poisoned.stop(t, bad);
    const bool b = clean.stop(t, 0.0);
    EXPECT_EQ(a, b) << "iteration " << t;
    if (a || b) break;
  }
}

TEST(EarlyStopping, WarmupBoundaryEqualToHorizonStillDecides) {
  // min_iterations == max_iterations: the warmup window covers the
  // whole budget, so every query but the last is forced to continue and
  // the final-iteration query must still answer cleanly.
  EarlyStoppingOptions options;
  options.min_iterations = 5;
  options.max_iterations = 5;
  options.episodes_per_epoch = 8;
  options.min_epochs = 2;
  options.max_epochs = 3;
  EarlyStopping stopper(options);
  stopper.train_offline();
  stopper.reset_episode();
  for (unsigned t = 0; t + 1 < 5; ++t) {
    EXPECT_FALSE(stopper.stop(t, 1000.0 * (t + 1))) << "iteration " << t;
  }
  // The boundary query may stop or continue — it only must not trip.
  (void)stopper.stop(4, 6000.0);
}

TEST(EarlyStopping, TrainedAgentRidesRisesAndQuitsFlats) {
  EarlyStoppingOptions options;
  options.perf_normalizer_mbps = 10'000.0;  // probe curves live in [0, 1]
  EarlyStopping stopper(options);  // full default training
  stopper.train_offline();

  // A run that keeps improving to iteration 40: the agent must not stop
  // during the strong rise (iterations 10-25).
  stopper.reset_episode();
  unsigned stopped_rising = 99;
  for (unsigned t = 0; t < 50; ++t) {
    const double perf = 10000.0 * (0.08 + 0.8 * std::min(1.0, t / 40.0));
    if (stopper.stop(t, perf)) {
      stopped_rising = t;
      break;
    }
  }
  EXPECT_GT(stopped_rising, 24u);

  // A run flat from iteration 12: the agent stops well before the budget.
  stopper.reset_episode();
  unsigned stopped_flat = 99;
  for (unsigned t = 0; t < 50; ++t) {
    const double perf = 10000.0 * (0.1 + 0.5 * std::min(1.0, t / 12.0));
    if (stopper.stop(t, perf)) {
      stopped_flat = t;
      break;
    }
  }
  EXPECT_LT(stopped_flat, 30u);
}

// Word-wise FNV-1a over the bit patterns of a network's weights, biases
// and Adam moments, with subnormals hashed as zero: DenseNet flushes
// decayed moments to zero, and any other change to a trained value
// changes the hash.
std::uint64_t fingerprint(const nn::DenseNet& net,
                          std::uint64_t hash = 0xCBF29CE484222325ull) {
  net.visit_state([&hash](double value) {
    if (std::fpclassify(value) == FP_SUBNORMAL) value = 0.0;
    hash = (hash ^ std::bit_cast<std::uint64_t>(value)) * 0x100000001B3ull;
  });
  return hash;
}

std::uint64_t fingerprint(const rl::QAgent& agent) {
  return fingerprint(agent.target_network(), fingerprint(agent.network()));
}

std::size_t subnormal_count(const nn::DenseNet& net) {
  std::size_t count = 0;
  net.visit_state([&count](double value) {
    count += std::fpclassify(value) == FP_SUBNORMAL ? 1 : 0;
  });
  return count;
}

// Paper-scale HACC on 16 ranks: large contiguous writes, where striping
// dominates.
std::unique_ptr<tuner::Objective> small_hacc_objective() {
  tuner::TestbedOptions tb;
  tb.num_ranks = 16;
  tb.runs_per_eval = 1;
  wl::RunOptions kernel;
  kernel.compute_scale = 0.0;
  return tuner::make_workload_objective(
      std::shared_ptr<const wl::Workload>(wl::make_hacc()), tb, kernel);
}

// Offline training is deterministic. These hashes were taken with no
// moment flushing, so they show that flushing leaves every weight, bias
// and normal moment (target networks included) bit-identical.
TEST(TrainedNetworkPins, OfflineTrainingIsBitIdentical) {
  EarlyStopping stopper;
  stopper.train_offline();
  EXPECT_EQ(fingerprint(stopper.agent()), 538279955850068441ull);

  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  SmartConfigGen generator(space);
  auto hacc = small_hacc_objective();
  generator.train_offline({hacc.get()});
  EXPECT_EQ(fingerprint(generator.picker()), 18436343970802641828ull);
  EXPECT_EQ(fingerprint(generator.observer().network()),
            15973940978094740813ull);
}

// Adam moments behind dead ReLU units decay geometrically; left alone
// they sink into subnormals, where arithmetic is microcode-slow.
TEST(TrainedNetworkPins, NoSubnormalStateAfterOfflineAndOnlineTraining) {
  EarlyStopping stopper;
  stopper.train_offline();
  stopper.reset_episode();
  for (unsigned t = 0; t < 50; ++t) {
    if (stopper.stop(t, 10000.0 * (0.1 + 0.5 * std::min(1.0, t / 12.0)))) {
      break;
    }
  }
  EXPECT_EQ(subnormal_count(stopper.agent().network()), 0u);
  EXPECT_EQ(subnormal_count(stopper.agent().target_network()), 0u);

  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  SmartConfigGen generator(space);
  auto hacc = small_hacc_objective();
  generator.train_offline({hacc.get()});
  generator.reset_episode();
  std::vector<std::size_t> subset;
  for (int i = 0; i < 40; ++i) {
    subset = generator.subset_picker(1000.0 + 100.0 * i, subset);
  }
  EXPECT_EQ(subnormal_count(generator.picker().network()), 0u);
  EXPECT_EQ(subnormal_count(generator.picker().target_network()), 0u);
  EXPECT_EQ(subnormal_count(generator.observer().network()), 0u);
}

TEST(SmartConfigGen, OfflineTrainingRanksStripingFirst) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  SmartConfigGen generator(space);
  EXPECT_FALSE(generator.offline_trained());

  auto hacc = small_hacc_objective();
  const auto sweeps = generator.train_offline({hacc.get()});
  EXPECT_TRUE(generator.offline_trained());
  ASSERT_EQ(sweeps.size(), 1u);
  EXPECT_FALSE(sweeps[0].empty());

  // Impact scores are a distribution over parameters.
  const auto& impact = generator.impact_scores();
  double total = 0.0;
  for (double v : impact) total += v;
  EXPECT_NEAR(total, 1.0, 1e-6);
  // Striping dominates large contiguous writes on this stack.
  const auto ranking = generator.ranking();
  EXPECT_EQ(ranking.front(), space.index_of("striping_factor"));
}

TEST(SmartConfigGen, SubsetPickerReturnsValidSubsets) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  SmartConfigGen generator(space);
  generator.reset_episode();
  std::vector<std::size_t> subset;
  for (int i = 0; i < 20; ++i) {
    subset = generator.subset_picker(1000.0 + 100.0 * i, subset);
    EXPECT_FALSE(subset.empty());
    EXPECT_LE(subset.size(), space.num_parameters());
    std::set<std::size_t> unique(subset.begin(), subset.end());
    EXPECT_EQ(unique.size(), subset.size());
    for (std::size_t p : subset) EXPECT_LT(p, space.num_parameters());
  }
}

TEST(TunIO, TableOneApiShapes) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  TunIO tunio(space);

  // discover_io: source -> kernel.
  const auto kernel = tunio.discover_io(R"(
    int main()
    {
      compute(5.0);
      int f = h5fcreate("/scratch/x.h5");
      h5fclose(f);
      return 0;
    }
  )");
  EXPECT_NE(kernel.kernel_source.find("h5fcreate"), std::string::npos);
  EXPECT_EQ(kernel.kernel_source.find("compute"), std::string::npos);

  // subset_picker: perf + current set -> next set.
  const auto subset = tunio.subset_picker(500.0, {});
  EXPECT_FALSE(subset.empty());

  // stop: iteration + best perf -> stop/continue (bool). Before the
  // minimum iteration threshold it always continues.
  tunio.early_stopping().reset_episode();
  EXPECT_FALSE(tunio.stop(0, 500.0));
}

TEST(TunIO, DiscoverIoHonorsPerCallOptions) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  TunIO tunio(space);
  discovery::DiscoveryOptions options;
  options.loop_reduction = 0.1;
  const auto kernel = tunio.discover_io(R"(
    int main()
    {
      int f = h5fcreate("/scratch/x.h5");
      int ds = h5dcreate(f, "d", 4, 1000 * mpi_size());
      for (int i = 0; i < 20; i = i + 1)
      {
        h5dwrite_strided(ds, i, 50);
      }
      h5fclose(f);
      return 0;
    }
  )",
                                        options);
  EXPECT_NE(kernel.kernel_source.find("reduced_iters(20, 10)"),
            std::string::npos);
  EXPECT_EQ(kernel.loop_reduction_divisor, 10);
}

TEST(TunIO, AttachWiresHooksIntoTuner) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  TunIO tunio(space);

  tuner::TestbedOptions tb;
  tb.num_ranks = 16;
  tb.runs_per_eval = 1;
  wl::HaccParams params;
  params.particles_per_rank = 1 << 15;
  wl::RunOptions kernel;
  kernel.compute_scale = 0.0;
  auto objective = tuner::make_workload_objective(
      std::shared_ptr<const wl::Workload>(wl::make_hacc(params)), tb, kernel);

  tuner::GaOptions ga;
  ga.max_generations = 6;
  ga.population = 8;
  tuner::GeneticTuner tuning(space, *objective, ga);
  const tuners::DriveOptions options = tunio.attach(tuning);
  const tuner::TuningResult result =
      tuners::drive(tuning, *objective, options).tuning;
  EXPECT_GE(result.generations_run, 1u);
  // Generation 0 tunes the full space; later generations use subsets.
  EXPECT_EQ(result.history.front().subset.size(), space.num_parameters());
  bool saw_restricted = false;
  for (const auto& gen : result.history) {
    if (!gen.subset.empty() && gen.subset.size() < space.num_parameters()) {
      saw_restricted = true;
    }
  }
  EXPECT_TRUE(saw_restricted);
}

TEST(EarlyStopping, ExpectedProductionRunsDelayStopping) {
  // §VI future work: more expected production runs -> more patience.
  EarlyStoppingOptions eager;
  eager.episodes_per_epoch = 32;
  eager.min_epochs = 20;
  eager.max_epochs = 30;
  eager.perf_normalizer_mbps = 10'000.0;
  EarlyStoppingOptions patient = eager;
  patient.expected_production_runs = 1'000'000;

  auto stop_iteration = [](EarlyStoppingOptions options) {
    EarlyStopping stopper(options);
    stopper.train_offline();
    stopper.reset_episode();
    for (unsigned t = 0; t < 50; ++t) {
      // Flat after iteration 12.
      const double perf = 10000.0 * (0.1 + 0.5 * std::min(1.0, t / 12.0));
      if (stopper.stop(t, perf)) return t;
    }
    return 50u;
  };
  EXPECT_LE(stop_iteration(eager), stop_iteration(patient));
}

TEST(InteractiveSession, AccumulatesAcrossSteps) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  TunIO tunio(space);

  tuner::TestbedOptions tb;
  tb.num_ranks = 16;
  tb.runs_per_eval = 1;
  wl::RunOptions kernel;
  kernel.compute_scale = 0.0;
  auto objective = tuner::make_workload_objective(
      std::shared_ptr<const wl::Workload>(wl::make_hacc()), tb, kernel);

  tuner::GaOptions ga;
  ga.population = 8;
  InteractiveSession session(tunio, *objective, ga);
  EXPECT_EQ(session.steps_taken(), 0u);

  const auto first = session.step(4);
  const double after_first = session.best_perf();
  EXPECT_EQ(session.steps_taken(), 1u);
  EXPECT_GE(session.total_generations(), 1u);
  EXPECT_GT(after_first, 0.0);
  EXPECT_DOUBLE_EQ(session.initial_perf(), first.initial_perf);

  const auto second = session.step(4);
  // The second installment resumes from the first's best: its starting
  // individual scores at least near the previous best (within noise).
  EXPECT_GE(second.initial_perf, after_first * 0.9);
  // Best never regresses across installments.
  EXPECT_GE(session.best_perf(), after_first);
  EXPECT_GT(session.total_seconds(), 0.0);

  // The exported configuration is valid H5Tuner XML.
  const std::string xml = session.export_xml();
  const cfg::Configuration parsed = cfg::from_xml(space, xml);
  EXPECT_TRUE(parsed == session.best_configuration());
}

TEST(InteractiveSession, RejectsZeroGenerationStep) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  TunIO tunio(space);
  tuner::TestbedOptions tb;
  tb.num_ranks = 8;
  tb.runs_per_eval = 1;
  auto objective = tuner::make_workload_objective(
      std::shared_ptr<const wl::Workload>(wl::make_hacc()), tb);
  InteractiveSession session(tunio, *objective);
  EXPECT_THROW(session.step(0), Error);
}

}  // namespace
}  // namespace tunio::core

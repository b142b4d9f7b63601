// Tests of the benchmark's own helpers: the timing wrappers must not
// change what a search does, and the statistics the benchmark reports
// must be computed as documented.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "layers.hpp"
#include "tuners/ga_adapter.hpp"
#include "workloads/workload.hpp"

namespace perfbench {
namespace {

namespace wl = tunio::wl;

std::unique_ptr<tuner::Objective> small_hacc() {
  wl::HaccParams params;
  params.particles_per_rank = 1u << 14;
  tuner::TestbedOptions testbed;
  testbed.num_ranks = 8;
  wl::RunOptions options;
  options.compute_scale = 0.0;
  return tuner::make_workload_objective(
      std::shared_ptr<const wl::Workload>(wl::make_hacc(params)), testbed,
      options);
}

tuner::GaOptions small_ga() {
  tuner::GaOptions ga;
  ga.population = 6;
  ga.max_generations = 5;
  ga.seed = 42;
  return ga;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

TEST(TimingWrappers, GaRunMatchesBareObjective) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();

  const std::unique_ptr<tuner::Objective> bare = small_hacc();
  tuners::GaTunerAdapter bare_ga(space, *bare, small_ga());
  const tuners::DriveResult expected = tuners::drive(bare_ga, *bare);

  SpanLog log(true);
  const std::unique_ptr<tuner::Objective> inner = small_hacc();
  TimingObjective wrapped(*inner, log);
  tuners::GaTunerAdapter ga(space, wrapped, small_ga());
  TimingTuner timed(ga, log, wrapped, 0);
  const tuners::DriveResult actual = tuners::drive(timed, wrapped);
  timed.close_iteration();

  const tuner::TuningResult& a = actual.tuning;
  const tuner::TuningResult& e = expected.tuning;
  ASSERT_TRUE(a.best_config.has_value());
  ASSERT_TRUE(e.best_config.has_value());
  EXPECT_EQ(a.best_config->indices(), e.best_config->indices());
  EXPECT_TRUE(same_bits(a.best_perf, e.best_perf));
  EXPECT_TRUE(same_bits(a.initial_perf, e.initial_perf));
  EXPECT_TRUE(same_bits(a.total_seconds, e.total_seconds));
  EXPECT_EQ(a.generations_run, e.generations_run);
  ASSERT_EQ(a.history.size(), e.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_TRUE(same_bits(a.history[i].best_perf, e.history[i].best_perf));
    EXPECT_EQ(a.history[i].subset, e.history[i].subset);
  }
  EXPECT_EQ(actual.fresh_evaluations, expected.fresh_evaluations);
  EXPECT_EQ(wrapped.failed(), 0u);

  // One iteration span per generation, one evaluation span per fresh
  // evaluation, each under its iteration.
  const std::map<std::string, LayerTime> times = layer_times(log.spans());
  EXPECT_EQ(times.at("iteration").count, a.generations_run);
  EXPECT_EQ(times.at("evaluate").count, actual.fresh_evaluations);
  for (const Span& span : log.spans()) {
    if (span.name == "evaluate") {
      EXPECT_EQ(log.spans()[span.parent - 1].name, "iteration");
    }
  }
}

TEST(TimingWrappers, ForwardReplayGateAndConcurrency) {
  const std::unique_ptr<tuner::Objective> inner = small_hacc();
  SpanLog log(false);
  TimingObjective wrapped(*inner, log);
  const tuner::ReplayGate expected = inner->replay_gate();
  EXPECT_EQ(wrapped.replay_gate().eligible, expected.eligible);
  EXPECT_EQ(wrapped.replay_gate().reason, expected.reason);
  EXPECT_EQ(wrapped.concurrent_safe(), inner->concurrent_safe());

  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  wrapped.evaluate(space.default_configuration());
  EXPECT_EQ(wrapped.evaluations(), inner->evaluations());
  EXPECT_EQ(wrapped.evaluations(), 1u);
  EXPECT_TRUE(log.spans().empty());
}

TEST(Stats, PercentilesCarryTheirSampleCount) {
  std::vector<double> values;
  for (int i = 10; i >= 1; --i) values.push_back(i);
  const Percentile p50 = percentile(values, 0.5);
  EXPECT_DOUBLE_EQ(p50.value, 5.5);
  EXPECT_EQ(p50.samples, 10u);
  const Percentile p90 = percentile(values, 0.9);
  EXPECT_DOUBLE_EQ(p90.value, 9.1);
  EXPECT_EQ(p90.samples, 10u);
  EXPECT_EQ(percentile({}, 0.5).samples, 0u);
  EXPECT_DOUBLE_EQ(median({3.0}), 3.0);
}

TEST(Stats, CounterDeltasNormalizedPerEvaluation) {
  obs::MetricsRegistry registry;
  registry.counter("pfs.writes").add(5);
  const CounterWindow window(registry);
  registry.counter("pfs.writes").add(30);
  registry.counter("pfs.reads").add(7);  // created inside the window

  const std::map<std::string, std::uint64_t> deltas = window.deltas();
  EXPECT_EQ(deltas.at("pfs.writes"), 30u);
  EXPECT_EQ(deltas.at("pfs.reads"), 7u);

  const std::map<std::string, double> per_eval =
      per_evaluation(deltas, {"pfs.writes", "pfs.reads", "absent"}, 10);
  EXPECT_DOUBLE_EQ(per_eval.at("pfs.writes"), 3.0);
  EXPECT_DOUBLE_EQ(per_eval.at("pfs.reads"), 0.7);
  EXPECT_DOUBLE_EQ(per_eval.at("absent"), 0.0);
  EXPECT_DOUBLE_EQ(per_evaluation(deltas, {"pfs.writes"}, 0).at("pfs.writes"),
                   0.0);
}

TEST(Stats, SelfTimeSubtractsUnionOfOverlappingChildren) {
  const std::vector<Span> spans = {
      {"job", 1, 0, 0.0, 10.0},
      {"evaluate", 2, 1, 1.0, 4.0},
      {"evaluate", 3, 1, 2.0, 5.0},  // overlaps span 2 (two workers)
      {"evaluate", 4, 1, 8.0, 12.0},  // runs past its parent's end
  };
  const std::map<std::string, LayerTime> times = layer_times(spans);
  EXPECT_DOUBLE_EQ(times.at("job").total_s, 10.0);
  EXPECT_DOUBLE_EQ(times.at("job").self_s, 10.0 - 4.0 - 2.0);
  EXPECT_DOUBLE_EQ(times.at("evaluate").total_s, 10.0);
  EXPECT_EQ(times.at("evaluate").count, 3u);
}

}  // namespace
}  // namespace perfbench

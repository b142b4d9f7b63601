// Tests for the tuning service: parallel evaluation engine, sharded
// result cache, service objective accounting, and the tuning server.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>

#include "common/error.hpp"
#include "minic/parser.hpp"
#include "obs/metrics.hpp"
#include "service/eval_engine.hpp"
#include "service/result_cache.hpp"
#include "service/service_objective.hpp"
#include "service/tuning_server.hpp"
#include "tuner/objective.hpp"
#include "tuners/genetic_tuner.hpp"
#include "tuners/tuner.hpp"
#include "workloads/workload.hpp"

namespace tunio::service {
namespace {

using tuner::Evaluation;
using tuner::GaOptions;
using tuner::GeneticTuner;
using tuner::TuningResult;

tuner::TestbedOptions small_testbed() {
  tuner::TestbedOptions tb;
  tb.num_ranks = 16;
  tb.runs_per_eval = 2;
  return tb;
}

std::shared_ptr<tuner::Objective> hacc_objective() {
  wl::HaccParams params;
  params.particles_per_rank = 1 << 15;
  wl::RunOptions kernel;
  kernel.compute_scale = 0.0;
  return std::shared_ptr<tuner::Objective>(tuner::make_workload_objective(
      std::shared_ptr<const wl::Workload>(wl::make_hacc(params)),
      small_testbed(), kernel));
}

std::shared_ptr<tuner::Objective> flash_objective() {
  wl::FlashParams params;
  params.blocks_per_rank = 2;
  wl::RunOptions kernel;
  kernel.compute_scale = 0.0;
  return std::shared_ptr<tuner::Objective>(tuner::make_workload_objective(
      std::shared_ptr<const wl::Workload>(wl::make_flash(params)),
      small_testbed(), kernel));
}

/// Deterministic, concurrency-safe synthetic objective: perf is a pure
/// function of the genome, each evaluation bills a flat 30 s of
/// simulated time and (optionally) burns real wall-clock to make
/// cancellation races testable.
class SyntheticObjective final : public tuner::Objective {
 public:
  explicit SyntheticObjective(std::chrono::microseconds delay = {})
      : delay_(delay) {}

  std::string name() const override { return "synthetic"; }

  Evaluation evaluate(const cfg::Configuration& config) override {
    if (delay_.count() > 0) std::this_thread::sleep_for(delay_);
    evals_.fetch_add(1, std::memory_order_relaxed);
    double score = 0.0;
    for (std::size_t p = 0; p < config.size(); ++p) {
      score += static_cast<double>(config.index(p)) * (p + 1);
    }
    Evaluation eval;
    eval.perf_mbps = score;
    eval.eval_seconds = 30.0;
    return eval;
  }

  bool concurrent_safe() const override { return true; }
  std::uint64_t evaluations() const override {
    return evals_.load(std::memory_order_relaxed);
  }

 private:
  std::chrono::microseconds delay_;
  std::atomic<std::uint64_t> evals_{0};
};

std::vector<cfg::Configuration> some_configs(const cfg::ConfigSpace& space,
                                             std::size_t n) {
  std::vector<cfg::Configuration> configs;
  for (std::size_t i = 0; i < n; ++i) {
    cfg::Configuration config = space.default_configuration();
    config.set_index(i % space.num_parameters(),
                     1 + i % (space.parameter(i % space.num_parameters())
                                  .domain.size() -
                              1));
    configs.push_back(config);
  }
  return configs;
}

void expect_identical(const TuningResult& a, const TuningResult& b) {
  EXPECT_DOUBLE_EQ(a.initial_perf, b.initial_perf);
  EXPECT_DOUBLE_EQ(a.best_perf, b.best_perf);
  EXPECT_DOUBLE_EQ(a.total_seconds, b.total_seconds);
  EXPECT_EQ(a.generations_run, b.generations_run);
  EXPECT_EQ(a.early_stopped, b.early_stopped);
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t g = 0; g < a.history.size(); ++g) {
    EXPECT_DOUBLE_EQ(a.history[g].generation_best_perf,
                     b.history[g].generation_best_perf);
    EXPECT_DOUBLE_EQ(a.history[g].best_perf, b.history[g].best_perf);
    EXPECT_DOUBLE_EQ(a.history[g].cumulative_seconds,
                     b.history[g].cumulative_seconds);
    EXPECT_EQ(a.history[g].subset, b.history[g].subset);
  }
  ASSERT_TRUE(a.best_config.has_value());
  ASSERT_TRUE(b.best_config.has_value());
  EXPECT_EQ(a.best_config->indices(), b.best_config->indices());
}

TEST(EvalEngine, ParallelBatchMatchesSerial) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  const std::vector<cfg::Configuration> configs = some_configs(space, 8);
  auto serial = hacc_objective();
  const std::vector<Evaluation> expected = serial->evaluate_batch(configs);
  for (unsigned workers : {1u, 4u, 8u}) {
    EvalEngine engine(EngineOptions{workers});
    EXPECT_EQ(engine.workers(), workers);
    auto objective = hacc_objective();
    const std::vector<Evaluation> got =
        engine.evaluate_batch(*objective, configs);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].perf_mbps, expected[i].perf_mbps)
          << "workers=" << workers << " config=" << i;
      EXPECT_EQ(got[i].eval_seconds, expected[i].eval_seconds)
          << "workers=" << workers << " config=" << i;
    }
    EXPECT_EQ(objective->evaluations(), configs.size());
  }
}

TEST(EvalEngine, SharedAcrossConcurrentBatches) {
  EvalEngine engine(EngineOptions{4});
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  const std::vector<cfg::Configuration> configs = some_configs(space, 6);
  SyntheticObjective objective;
  const std::vector<Evaluation> expected =
      objective.evaluate_batch(configs);
  std::vector<std::thread> clients;
  std::vector<std::vector<Evaluation>> results(4);
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      SyntheticObjective mine;
      results[c] = engine.evaluate_batch(mine, configs);
    });
  }
  for (std::thread& t : clients) t.join();
  for (const auto& r : results) {
    ASSERT_EQ(r.size(), expected.size());
    for (std::size_t i = 0; i < r.size(); ++i) {
      EXPECT_EQ(r[i].perf_mbps, expected[i].perf_mbps);
    }
  }
}

/// A settings-invariant kernel: it writes, reads back and synchronizes, so
/// the PFS and MPI collective counters of a run depend on the striping
/// and collective-buffering settings of its configuration.
const char* kBootstrapKernel = R"(
int main() {
  int f = h5fcreate("/scratch/bootstrap.h5");
  int d = h5dcreate(f, "x", 8, 8192 * mpi_size());
  h5dwrite_all(d, 8192);
  mpi_barrier();
  h5dread_all(d, 8192);
  h5fclose(f);
  return 0;
}
)";

TEST(EvalEngine, ReplayBootstrapRunsOnTheCaller) {
  // The first batch of an eligible objective records on configs[0] and
  // verifies on configs[1], both on the calling thread; only the other six
  // are engine tasks, and they replay. Which configurations ran the stack
  // (twice, for the verify) is fixed, so the data-path counters repeat at
  // every worker count.
  const minic::Program program = minic::parse(kBootstrapKernel);
  const std::vector<cfg::Configuration> configs =
      some_configs(cfg::ConfigSpace::tunio12(), 8);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  const char* const kCounters[] = {
      "pfs.writes",     "pfs.bytes_written", "mpi.barriers",
      "mpi.allreduces", "mpi.gathers",       "mpi.broadcasts",
      "tuner.eval.replayed", "tuner.eval.interpreted"};
  auto snapshot = [&] {
    std::vector<std::uint64_t> values;
    for (const char* name : kCounters) {
      values.push_back(registry.counter(name).value());
    }
    return values;
  };

  std::vector<std::uint64_t> first_deltas;
  for (int repeat = 0; repeat < 3; ++repeat) {
    for (unsigned workers : {1u, 2u, 4u}) {
      SCOPED_TRACE("repeat " + std::to_string(repeat) + ", workers " +
                   std::to_string(workers));
      EvalEngine engine(EngineOptions{workers});
      auto objective = tuner::make_kernel_objective(program, small_testbed());
      ASSERT_TRUE(objective->replay_gate().eligible);
      const std::vector<std::uint64_t> before = snapshot();
      engine.evaluate_batch(*objective, configs);
      EXPECT_EQ(engine.tasks_completed(), 6u);
      std::vector<std::uint64_t> deltas = snapshot();
      for (std::size_t i = 0; i < deltas.size(); ++i) deltas[i] -= before[i];
      EXPECT_EQ(deltas[6], 6u);  // replayed
      EXPECT_EQ(deltas[7], 2u);  // interpreted: the record and the verify
      EXPECT_GT(deltas[0], 0u);
      EXPECT_GT(deltas[2], 0u);
      if (first_deltas.empty()) first_deltas = deltas;
      EXPECT_EQ(deltas, first_deltas);
    }
  }
}

/// Same seed + same job ⇒ identical TuningResult for pool sizes 1/4/8,
/// and identical to the plain serial tuner without any service layer.
/// The replay fast path splits the evaluations the same way too: the
/// bootstrap interprets exactly two at any worker count.
TEST(Determinism, PoolSizeDoesNotChangeTuningResult) {
  const cfg::ConfigSpace& space = cfg::ConfigSpace::tunio12();
  GaOptions ga;
  ga.population = 8;
  ga.max_generations = 6;
  ga.seed = 42;

  auto baseline_objective = hacc_objective();
  GeneticTuner baseline(space, *baseline_objective, ga);
  const tuners::DriveResult expected =
      tuners::drive(baseline, *baseline_objective);
  EXPECT_GT(expected.replayed_evals, 0u);
  EXPECT_EQ(expected.interpreted_evals, 2u);

  for (unsigned workers : {1u, 4u, 8u}) {
    EvalEngine engine(EngineOptions{workers});
    ResultCache cache;
    auto objective = hacc_objective();
    ServiceObjective service(*objective, engine, cache, /*fingerprint=*/7);
    GeneticTuner tuner(space, service, ga);
    const tuners::DriveResult result = tuners::drive(tuner, service);
    SCOPED_TRACE("workers=" + std::to_string(workers));
    expect_identical(result.tuning, expected.tuning);
    EXPECT_EQ(result.replayed_evals, expected.replayed_evals);
    EXPECT_EQ(result.interpreted_evals, expected.interpreted_evals);
  }
}

TEST(ResultCache, HitMissAndLruEviction) {
  CacheOptions options;
  options.capacity = 4;
  options.shards = 1;
  ResultCache cache(options);
  const std::vector<std::size_t> g0{0}, g1{1}, g2{2}, g3{3}, g4{4};

  EXPECT_FALSE(cache.get(1, g0).has_value());  // miss
  Evaluation eval;
  eval.perf_mbps = 10.0;
  eval.eval_seconds = 30.0;
  cache.put(1, g0, eval);
  cache.put(1, g1, eval);
  cache.put(1, g2, eval);
  cache.put(1, g3, eval);
  ASSERT_TRUE(cache.get(1, g0).has_value());  // refreshes g0's recency
  cache.put(1, g4, eval);                     // evicts g1 (LRU), not g0
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_TRUE(cache.get(1, g0).has_value());
  EXPECT_FALSE(cache.get(1, g1).has_value());

  const ResultCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.insertions, 5u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 4u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
  EXPECT_DOUBLE_EQ(stats.seconds_saved, 60.0);
}

TEST(ResultCache, FingerprintsNamespaceEntries) {
  ResultCache cache;
  const std::vector<std::size_t> genome{1, 2, 3};
  Evaluation eval;
  eval.perf_mbps = 5.0;
  cache.put(/*fingerprint=*/1, genome, eval);
  EXPECT_TRUE(cache.get(1, genome).has_value());
  EXPECT_FALSE(cache.get(2, genome).has_value());
}

TEST(ResultCache, JsonRoundTrip) {
  ResultCache cache;
  Evaluation a;
  a.perf_mbps = 123.4567890123;
  a.eval_seconds = 31.25;
  Evaluation b;
  b.perf_mbps = 0.0;
  b.eval_seconds = 1e-3;
  cache.put(11, {0, 1, 2}, a);
  cache.put(22, {5}, b);

  ResultCache copy;
  EXPECT_EQ(copy.load_json(cache.to_json()), 2u);
  auto got_a = copy.get(11, {0, 1, 2});
  ASSERT_TRUE(got_a.has_value());
  EXPECT_EQ(got_a->perf_mbps, a.perf_mbps);
  EXPECT_EQ(got_a->eval_seconds, a.eval_seconds);
  auto got_b = copy.get(22, {5});
  ASSERT_TRUE(got_b.has_value());
  EXPECT_EQ(got_b->perf_mbps, b.perf_mbps);

  ResultCache empty;
  ResultCache from_empty;
  EXPECT_EQ(from_empty.load_json(empty.to_json()), 0u);
  EXPECT_THROW(from_empty.load_json("{\"entries\":"), Error);
}

TEST(ResultCache, JsonKeepsFullWidthFingerprints) {
  // 2^63 + 1 is not a double: a fingerprint stored as a JSON number
  // would reload as 2^63 and answer for the wrong workload.
  const std::uint64_t fingerprint = (1ull << 63) + 1;
  ResultCache cache;
  Evaluation eval;
  eval.perf_mbps = 1.0;
  cache.put(fingerprint, {1}, eval);

  ResultCache copy;
  ASSERT_EQ(copy.load_json(cache.to_json()), 1u);
  EXPECT_TRUE(copy.get(fingerprint, {1}).has_value());
  EXPECT_FALSE(copy.get(1ull << 63, {1}).has_value());
}

TEST(ResultCache, TruncatedJsonLoadsNothing) {
  ResultCache cache;
  Evaluation eval;
  eval.perf_mbps = 2.0;
  cache.put(1, {1}, eval);
  cache.put(1, {2}, eval);
  const std::string json = cache.to_json();

  ResultCache copy;
  EXPECT_THROW(copy.load_json(json.substr(0, json.size() - 2)), Error);
  EXPECT_EQ(copy.size(), 0u);
}

TEST(ResultCache, JsonRejectsNegativeNonIntegerAndNonFiniteValues) {
  auto entry = [](const std::string& fingerprint, const std::string& index,
                  const std::string& perf) {
    return "{\"entries\":[{\"fingerprint\":" + fingerprint +
           ",\"genome\":[" + index + "],\"perf_mbps\":" + perf +
           ",\"eval_seconds\":1}]}";
  };
  ResultCache cache;
  EXPECT_EQ(cache.load_json(entry("\"3\"", "2", "1.5")), 1u);
  EXPECT_THROW(cache.load_json(entry("\"-1\"", "2", "1.5")), Error);
  EXPECT_THROW(cache.load_json(entry("\"1.5\"", "2", "1.5")), Error);
  EXPECT_THROW(cache.load_json(entry("\"3x\"", "2", "1.5")), Error);
  EXPECT_THROW(cache.load_json(entry("3", "2", "1.5")), Error);
  EXPECT_THROW(cache.load_json(entry("\"3\"", "-2", "1.5")), Error);
  EXPECT_THROW(cache.load_json(entry("\"3\"", "2.5", "1.5")), Error);
  EXPECT_THROW(cache.load_json(entry("\"3\"", "2", "1e400")), Error);
  EXPECT_THROW(cache.load_json(entry("\"3\"", "2", "null")), Error);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ResultCache, FilePersistence) {
  const std::string path = ::testing::TempDir() + "tunio_cache_test.json";
  {
    ResultCache cache;
    Evaluation eval;
    eval.perf_mbps = 77.0;
    eval.eval_seconds = 42.0;
    cache.put(9, {4, 4, 4}, eval);
    ASSERT_TRUE(cache.save_file(path));
  }
  ResultCache loaded;
  ASSERT_TRUE(loaded.load_file(path));
  auto hit = loaded.get(9, {4, 4, 4});
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->perf_mbps, 77.0);
  std::remove(path.c_str());
  EXPECT_FALSE(loaded.load_file(path + ".does-not-exist"));
}

TEST(ServiceObjective, CacheHitsAreFreeAndCounted) {
  EvalEngine engine(EngineOptions{1});
  ResultCache cache;
  SyntheticObjective inner;
  ServiceObjective service(inner, engine, cache, 3);
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  const cfg::Configuration config = space.default_configuration();

  const Evaluation first = service.evaluate(config);
  EXPECT_EQ(first.eval_seconds, 30.0);
  const Evaluation second = service.evaluate(config);
  EXPECT_EQ(second.perf_mbps, first.perf_mbps);
  // A hit re-runs nothing, so it bills nothing — exactly like a
  // GeneticTuner fitness-cache hit.
  EXPECT_EQ(second.eval_seconds, 0.0);
  EXPECT_EQ(inner.evaluations(), 1u);
  EXPECT_EQ(service.cache_hits(), 1u);
  EXPECT_EQ(service.cache_misses(), 1u);
}

TEST(ServiceObjective, DriveReportsTheInnerReplayGate) {
  auto inner = hacc_objective();
  ASSERT_TRUE(inner->replay_gate().eligible);
  EvalEngine engine(EngineOptions{2});
  ResultCache cache;
  ServiceObjective service(*inner, engine, cache, /*fingerprint=*/3);
  GaOptions ga;
  ga.population = 4;
  ga.max_generations = 2;
  GeneticTuner tuner(cfg::ConfigSpace::tunio12(), service, ga);
  const tuners::DriveResult result = tuners::drive(tuner, service);
  EXPECT_TRUE(result.replay_eligible);
  EXPECT_EQ(result.replay_gate_reason, inner->replay_gate().reason);
  EXPECT_GT(result.replayed_evals, 0u);
}

/// HACC-IO under its own name (so the replay gate admits it) whose first
/// run throws after a pause that lets the rest of a batch arrive. With
/// the replay fast path on, the first run is the recording one.
class FailsFirstRun final : public wl::Workload {
 public:
  explicit FailsFirstRun(std::shared_ptr<const wl::Workload> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  wl::RunResult run(mpisim::MpiSim& mpi, pfs::PfsSimulator& fs,
                    const cfg::StackSettings& settings,
                    const wl::RunOptions& options) const override {
    if (runs_.fetch_add(1) == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      throw Error("injected failure in the recording run");
    }
    return inner_->run(mpi, fs, settings, options);
  }

 private:
  std::shared_ptr<const wl::Workload> inner_;
  mutable std::atomic<unsigned> runs_{0};
};

TEST(ServiceObjective, ThrowingRecordRethrowsAndLaterEvaluationsInterpret) {
  wl::HaccParams params;
  params.particles_per_rank = 1 << 15;
  wl::RunOptions kernel;
  kernel.compute_scale = 0.0;
  const std::shared_ptr<const wl::Workload> hacc(wl::make_hacc(params));
  auto objective = tuner::make_workload_objective(
      std::make_shared<FailsFirstRun>(hacc), small_testbed(), kernel);
  ASSERT_TRUE(objective->replay_gate().eligible);
  EvalEngine engine(EngineOptions{4});
  ResultCache cache;
  ServiceObjective service(*objective, engine, cache, /*fingerprint=*/9);
  const std::vector<cfg::Configuration> configs =
      some_configs(cfg::ConfigSpace::tunio12(), 8);
  // The batch's other evaluations wait on the recording one; its failure
  // must wake them and reach the caller rather than hang the batch.
  EXPECT_THROW(service.evaluate_batch(configs), Error);

  obs::Counter& replayed =
      obs::MetricsRegistry::global().counter("tuner.eval.replayed");
  obs::Counter& interpreted =
      obs::MetricsRegistry::global().counter("tuner.eval.interpreted");
  const std::uint64_t replayed0 = replayed.value();
  const std::uint64_t interpreted0 = interpreted.value();
  const std::vector<Evaluation> later = service.evaluate_batch(configs);
  EXPECT_EQ(replayed.value() - replayed0, 0u);
  EXPECT_EQ(interpreted.value() - interpreted0, configs.size());
  const std::vector<Evaluation> expected =
      hacc_objective()->evaluate_batch(configs);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    EXPECT_EQ(later[i].perf_mbps, expected[i].perf_mbps) << "config " << i;
    EXPECT_EQ(later[i].eval_seconds, expected[i].eval_seconds);
  }
}

TEST(TuningServer, ConcurrentJobsMatchSequentialRuns) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  GaOptions ga;
  ga.population = 8;
  ga.max_generations = 5;
  ga.seed = 7;

  // Sequential ground truth: each workload tuned alone, no service.
  auto hacc_alone = hacc_objective();
  GeneticTuner hacc_tuner(space, *hacc_alone, ga);
  const TuningResult hacc_expected =
      tuners::drive(hacc_tuner, *hacc_alone).tuning;
  auto flash_alone = flash_objective();
  GeneticTuner flash_tuner(space, *flash_alone, ga);
  const TuningResult flash_expected =
      tuners::drive(flash_tuner, *flash_alone).tuning;

  ServerOptions options;
  options.max_concurrent_jobs = 2;
  options.engine.workers = 2;
  TuningServer server(space, options);

  JobSpec hacc_job;
  hacc_job.name = "hacc";
  hacc_job.objective = hacc_objective();
  hacc_job.ga = ga;
  JobSpec flash_job;
  flash_job.name = "flash";
  flash_job.objective = flash_objective();
  flash_job.ga = ga;

  const JobId hacc_id = server.submit(hacc_job);
  const JobId flash_id = server.submit(flash_job);
  const TuningResult hacc_result = server.wait(hacc_id);
  const TuningResult flash_result = server.wait(flash_id);

  expect_identical(hacc_result, hacc_expected);
  expect_identical(flash_result, flash_expected);

  EXPECT_EQ(server.progress(hacc_id).state, JobState::kDone);
  EXPECT_EQ(server.progress(flash_id).state, JobState::kDone);
  const TuningServer::ServiceStats stats = server.stats();
  EXPECT_EQ(stats.jobs_submitted, 2u);
  EXPECT_EQ(stats.jobs_completed, 2u);
  EXPECT_EQ(stats.jobs_cancelled, 0u);
}

TEST(TuningServer, RepeatJobIsAllCacheHitsAndBillsNothing) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  ServerOptions options;
  options.max_concurrent_jobs = 1;
  options.engine.workers = 2;
  TuningServer server(space, options);

  auto objective = std::make_shared<SyntheticObjective>();
  JobSpec spec;
  spec.name = "repeat-me";
  spec.objective = objective;
  spec.ga.population = 8;
  spec.ga.max_generations = 4;
  spec.ga.seed = 3;

  const TuningResult first = server.wait(server.submit(spec));
  const std::uint64_t evals_after_first = objective->evaluations();
  EXPECT_GT(evals_after_first, 0u);

  const JobId second_id = server.submit(spec);
  const TuningResult second = server.wait(second_id);

  // Same spec ⇒ same genome stream ⇒ every evaluation is a cache hit:
  // nothing re-runs and nothing is billed.
  EXPECT_EQ(objective->evaluations(), evals_after_first);
  EXPECT_DOUBLE_EQ(second.total_seconds, 0.0);
  EXPECT_DOUBLE_EQ(second.best_perf, first.best_perf);
  const JobProgress progress = server.progress(second_id);
  EXPECT_EQ(progress.cache_misses, 0u);
  EXPECT_EQ(progress.cache_hits, evals_after_first);
  EXPECT_GE(server.stats().cache.hit_rate(), 0.5);
}

TEST(TuningServer, CancellationLeavesTheSessionResumable) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  ServerOptions options;
  options.max_concurrent_jobs = 1;
  options.engine.workers = 2;
  TuningServer server(space, options);

  auto objective =
      std::make_shared<SyntheticObjective>(std::chrono::microseconds(2000));
  JobSpec spec;
  spec.name = "long-haul";
  spec.objective = objective;
  spec.ga.population = 8;
  spec.ga.max_generations = 10000;  // far more than we will allow to run
  spec.ga.seed = 5;

  const JobId id = server.submit(spec);
  while (server.progress(id).generations_done < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(server.cancel(id));
  const TuningResult partial = server.wait(id);

  const JobProgress progress = server.progress(id);
  EXPECT_EQ(progress.state, JobState::kCancelled);
  EXPECT_LT(partial.generations_run, spec.ga.max_generations);
  EXPECT_GE(partial.generations_run, 1u);
  ASSERT_TRUE(partial.best_config.has_value());
  ASSERT_TRUE(progress.best_indices.has_value());
  EXPECT_EQ(*progress.best_indices, partial.best_config->indices());

  // Resume: seed a short follow-up job with the cancelled run's best.
  JobSpec resume = spec;
  resume.ga.max_generations = 3;
  resume.ga.seed_indices = *progress.best_indices;
  const TuningResult resumed = server.wait(server.submit(resume));
  EXPECT_GE(resumed.best_perf, partial.best_perf);
  // The resumed run replays the seed genome from the shared cache.
  EXPECT_GT(server.stats().cache.hits, 0u);
}

TEST(TuningServer, CancelQueuedJobNeverRuns) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  ServerOptions options;
  options.max_concurrent_jobs = 1;
  TuningServer server(space, options);

  auto blocker =
      std::make_shared<SyntheticObjective>(std::chrono::microseconds(1000));
  JobSpec long_job;
  long_job.name = "blocker";
  long_job.objective = blocker;
  long_job.ga.population = 8;
  long_job.ga.max_generations = 200;

  auto starved = std::make_shared<SyntheticObjective>();
  JobSpec queued_job;
  queued_job.name = "queued";
  queued_job.objective = starved;
  queued_job.ga.population = 8;
  queued_job.ga.max_generations = 5;

  const JobId running = server.submit(long_job);
  const JobId queued = server.submit(queued_job);
  EXPECT_TRUE(server.cancel(queued));
  EXPECT_EQ(server.progress(queued).state, JobState::kCancelled);
  EXPECT_TRUE(server.cancel(running));
  server.wait_all();
  EXPECT_EQ(starved->evaluations(), 0u);
  EXPECT_FALSE(server.cancel(queued));  // already terminal
}

TEST(TuningServer, FailedJobReportsError) {
  class ThrowingObjective final : public tuner::Objective {
   public:
    std::string name() const override { return "throws"; }
    Evaluation evaluate(const cfg::Configuration&) override {
      throw Error("testbed exploded");
    }
    std::uint64_t evaluations() const override { return 0; }
  };

  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  TuningServer server(space);
  JobSpec spec;
  spec.name = "doomed";
  spec.objective = std::make_shared<ThrowingObjective>();
  spec.ga.population = 8;
  spec.ga.max_generations = 2;
  const JobId id = server.submit(spec);
  EXPECT_THROW(server.wait(id), Error);
  const JobProgress progress = server.progress(id);
  EXPECT_EQ(progress.state, JobState::kFailed);
  EXPECT_NE(progress.error.find("testbed exploded"), std::string::npos);
  EXPECT_EQ(server.stats().jobs_failed, 1u);
}

}  // namespace
}  // namespace tunio::service

#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <thread>

#include "analysis/lint.hpp"
#include "core/tunio.hpp"
#include "service/tuning_server.hpp"
#include "tuners/ga_adapter.hpp"
#include "tuners/registry.hpp"
#include "workloads/sources.hpp"
#include "workloads/workload.hpp"

namespace perfbench {

namespace {

namespace analysis = tunio::analysis;
namespace core = tunio::core;
namespace minic = tunio::minic;
namespace service = tunio::service;
namespace wl = tunio::wl;
using tunio::KiB;
using tunio::MiB;

// Service job budgets in evaluations of the default configuration, as in
// bench/tuner_tournament: the simulated cost of an evaluation varies with
// the configuration, so a job bills the same simulated budget whichever
// configurations it visits.
constexpr double kBdcatsAllowance = 40.0;
constexpr double kBdcatsResumeAllowance = 16.0;

// BO iterations (of 8 proposals) per hacc_bo session.
constexpr unsigned kHaccIterations = 6;

// Stripe units of each workload's sessions, as indices into the paper's
// domain (64 KiB .. 16 MiB). A HACC or BD-CATS evaluation costs host time
// in proportion to 1 / stripe unit (every request splits into one extent
// per stripe): 200 ms at 64 KiB, 1 ms at 16 MiB. Left free, the stripe
// units a search happens to visit set a job's host time, which then varied
// by up to half from seed to seed; one session per pinned unit fixes the
// mix of that work.
const std::vector<std::size_t> kHaccStripeUnits = {0, 1, 2, 3, 4, 5, 6, 7, 8};
const std::vector<std::size_t> kBdcatsStripeUnits = {3, 4, 5};

/// Independent seed streams per use, all driven by the benchmark seed.
std::uint64_t derive(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t x = seed * 0x9E3779B97F4A7C15ull + salt;
  x ^= x >> 31;
  x *= 0xBF58476D1CE4E5B9ull;
  return x ^ (x >> 29);
}

/// The paper's 4-node / 128-rank testbed, 3 runs per evaluation.
tuner::TestbedOptions paper_testbed(std::uint64_t seed) {
  tuner::TestbedOptions tb;
  tb.num_ranks = 128;
  tb.runs_per_eval = 3;
  tb.measurement_noise = 0.02;
  tb.seed = seed;
  return tb;
}

wl::RunOptions kernel_options() {
  wl::RunOptions options;
  options.compute_scale = 0.0;
  options.include_log_writes = false;
  return options;
}

// Paper-scale application parameters, the same values as the figure
// benches use; kept here so that the benchmark's inputs do not change with
// bench/.
wl::HaccParams paper_hacc() {
  wl::HaccParams p;
  p.particles_per_rank = 1ull << 25;
  p.compute_seconds_per_step = 30.0;
  return p;
}

wl::FlashParams paper_flash() {
  wl::FlashParams p;
  p.blocks_per_rank = 16;
  p.checkpoint_datasets = 12;
  p.block_bytes = 384 * KiB;
  p.compute_seconds_per_step = 20.0;
  return p;
}

wl::VpicParams paper_vpic() {
  wl::VpicParams p;
  p.particles_per_rank = 1ull << 23;
  p.timesteps = 2;
  p.compute_seconds_per_step = 25.0;
  return p;
}

wl::BdcatsParams paper_bdcats() {
  wl::BdcatsParams p;
  p.particles_per_rank = 1ull << 26;
  p.variables = 3;
  p.clustering_rounds = 4;
  p.compute_seconds_per_round = 45.0;
  p.result_bytes_per_rank = 1 * MiB;
  return p;
}

tuner::GaOptions paper_ga(std::uint64_t seed) {
  tuner::GaOptions ga;
  ga.population = 16;
  ga.max_generations = 50;
  ga.seed = seed;
  return ga;
}

std::unique_ptr<tuner::Objective> workload_objective(
    std::unique_ptr<wl::Workload> workload, tuner::TestbedOptions testbed,
    wl::RunOptions options) {
  return tuner::make_workload_objective(
      std::shared_ptr<const wl::Workload>(std::move(workload)), testbed,
      options);
}

double total_s(const std::map<std::string, LayerTime>& times,
               const std::string& name) {
  const auto it = times.find(name);
  return it == times.end() ? 0.0 : it->second.total_s;
}

double self_s(const std::map<std::string, LayerTime>& times,
              const std::string& name) {
  const auto it = times.find(name);
  return it == times.end() ? 0.0 : it->second.self_s;
}

double count_of(const std::map<std::string, LayerTime>& times,
                const std::string& name) {
  const auto it = times.find(name);
  return it == times.end() ? 0.0 : static_cast<double>(it->second.count);
}

std::uint64_t delta(const std::map<std::string, std::uint64_t>& deltas,
                    const std::string& name) {
  const auto it = deltas.find(name);
  return it == deltas.end() ? 0 : it->second;
}

/// Record and verify time of the replay fast path, summed over the
/// objectives of a job. Evaluations are grouped by their root span (one
/// root per objective); the first evaluation of a group records, and the
/// first one started after it ended verifies — the objective's own state
/// machine.
std::pair<double, double> record_verify_ms(const std::vector<Span>& spans) {
  auto root_of = [&spans](const Span& span) {
    std::uint64_t id = span.id;
    while (spans[id - 1].parent != 0) id = spans[id - 1].parent;
    return id;
  };
  std::map<std::uint64_t, std::vector<const Span*>> groups;
  for (const Span& span : spans) {
    if (span.name == "evaluate" && span.end_s >= 0.0) {
      groups[root_of(span)].push_back(&span);
    }
  }
  double record_ms = 0.0, verify_ms = 0.0;
  for (auto& [root, evals] : groups) {
    std::sort(evals.begin(), evals.end(), [](const Span* a, const Span* b) {
      return a->start_s < b->start_s;
    });
    const Span* record = evals.front();
    record_ms += (record->end_s - record->start_s) * 1e3;
    for (const Span* eval : evals) {
      if (eval->start_s >= record->end_s) {
        verify_ms += (eval->end_s - eval->start_s) * 1e3;
        break;
      }
    }
  }
  return {record_ms, verify_ms};
}

/// Per-layer metrics every job reports: objective, replay, data path and
/// search strategy, from the job's spans and counter deltas.
std::map<std::string, double> job_layers(const std::vector<Span>& spans,
                                         const JobResult& job,
                                         bool replay_eligible) {
  const std::map<std::string, LayerTime> times = layer_times(spans);
  std::vector<double> eval_ms;
  for (const Span& span : spans) {
    if (span.name == "evaluate" && span.end_s >= 0.0) {
      eval_ms.push_back((span.end_s - span.start_s) * 1e3);
    }
  }
  const double evals = static_cast<double>(job.fresh_evals);
  const double proposals = static_cast<double>(
      delta(job.counters, "tuner.eval.requested") +
      delta(job.counters, "tuner.fitness_cache_hits"));
  const double eval_s = total_s(times, "evaluate");
  const double rl_s = total_s(times, "rl.stop") +
                      total_s(times, "rl.subset_picker");
  const double strategy_s = self_s(times, "propose") + self_s(times, "observe");

  std::map<std::string, double> out;
  out["tuner.evals"] = evals;
  out["tuner.proposals"] = proposals;
  out["tuner.fresh_ratio"] = proposals > 0.0 ? evals / proposals : 0.0;
  out["tuner.eval_s"] = eval_s;
  out["tuner.eval_share"] = eval_s / job.wall_s;
  const Percentile p50 = percentile(eval_ms, 0.5);
  out["tuner.eval_ms_p50"] = p50.value;
  out["tuner.eval_ms_p90"] = percentile(eval_ms, 0.9).value;
  out["tuner.eval_ms_samples"] = static_cast<double>(p50.samples);

  out["replay.replayed"] =
      static_cast<double>(delta(job.counters, "tuner.eval.replayed"));
  out["replay.interpreted"] =
      static_cast<double>(delta(job.counters, "tuner.eval.interpreted"));
  if (replay_eligible) {
    const auto [record_ms, verify_ms] = record_verify_ms(spans);
    out["replay.record_ms"] = record_ms;
    out["replay.verify_ms"] = verify_ms;
  }

  std::vector<std::string> counters;
  for (const auto& [counter, metric] : data_path_counters()) {
    counters.push_back(counter);
  }
  const std::map<std::string, double> per_eval =
      per_evaluation(job.counters, counters, job.fresh_evals);
  for (const auto& [counter, metric] : data_path_counters()) {
    out[metric] = per_eval.at(counter);
  }

  out["tuners.strategy_s"] = strategy_s;
  out["tuners.strategy_share"] = strategy_s / job.wall_s;
  out["tuners.iterations"] = count_of(times, "iteration");
  out["rl.decide_ms"] = rl_s * 1e3;
  out["rl.decisions"] =
      count_of(times, "rl.stop") + count_of(times, "rl.subset_picker");
  return out;
}

std::vector<std::size_t> all_parameters(const cfg::ConfigSpace& space) {
  std::vector<std::size_t> all(space.num_parameters());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  return all;
}

/// The paper's space with each parameter of `pins` pinned to one value
/// (an index into its domain).
cfg::ConfigSpace pinned_space(const std::map<std::string, std::size_t>& pins) {
  std::vector<cfg::Parameter> params = cfg::ConfigSpace::tunio12().parameters();
  for (cfg::Parameter& param : params) {
    const auto pin = pins.find(param.name);
    if (pin == pins.end()) continue;
    param.domain = {param.domain.at(pin->second)};
    param.default_index = 0;
  }
  return cfg::ConfigSpace(std::move(params));
}

/// The paper's space with one parameter pinned, once per entry of `values`.
std::vector<cfg::ConfigSpace> pinned_spaces(
    const std::string& parameter, const std::vector<std::size_t>& values) {
  std::vector<cfg::ConfigSpace> out;
  for (const std::size_t index : values) {
    out.push_back(pinned_space({{parameter, index}}));
  }
  return out;
}

tuner::TestbedOptions replay_off(tuner::TestbedOptions testbed) {
  testbed.replay = tuner::ReplayMode::kOff;
  return testbed;
}

/// Adds one tuning job's outcome to a benchmark job's totals.
void add_tuning(JobResult& job, const std::string& name,
                const tuner::TuningResult& result,
                const cfg::ConfigSpace& space,
                const tuner::TestbedOptions& testbed) {
  job.sim_seconds += result.total_seconds;
  if (result.best_config) {
    job.bests.push_back({name, result.best_config->indices(),
                         result.best_perf, &space, testbed});
  }
  double sum = 0.0;
  for (const BestConfig& best : job.bests) sum += best.perf_mbps;
  job.tuned_mbps = sum / static_cast<double>(job.bests.size());
}

// --- flash_tunio ------------------------------------------------------------

/// The paper's whole pipeline on FLASH-IO: offline training, I/O kernel
/// discovery and linting, then a GA with impact-first subsets and RL
/// early stopping on the discovered kernel at 128 ranks.
class FlashTunio final : public Workload {
 public:
  explicit FlashTunio(std::uint64_t seed)
      : testbed_(paper_testbed(derive(seed, 1))), ga_(flash_ga(seed)) {}

  void setup(SpanLog& log) override {
    ScopedSpan setup(log, "setup");
    // The offline phase is the same for every application, so its
    // sweeps and RL training keep their fixed seeds.
    tuner::TestbedOptions sweep_tb = paper_testbed(0xAB);
    sweep_tb.runs_per_eval = 1;
    auto vpic = workload_objective(wl::make_vpic(paper_vpic()), sweep_tb,
                                   kernel_options());
    auto flash = workload_objective(wl::make_flash(paper_flash()), sweep_tb,
                                    kernel_options());
    auto hacc = workload_objective(wl::make_hacc(paper_hacc()), sweep_tb,
                                   kernel_options());
    TimingObjective vpic_t(*vpic, log), flash_t(*flash, log),
        hacc_t(*hacc, log);

    tunio_ = std::make_unique<core::TunIO>(space_);
    {
      ScopedSpan span(log, "setup.smart_config", setup.id());
      vpic_t.set_parent(span.id());
      flash_t.set_parent(span.id());
      hacc_t.set_parent(span.id());
      tunio_->smart_config().train_offline({&vpic_t, &flash_t, &hacc_t});
    }
    {
      ScopedSpan span(log, "setup.early_stopping", setup.id());
      train_epochs_ = tunio_->early_stopping().train_offline().size();
    }
    const std::string source = wl::sources::flash();
    {
      ScopedSpan span(log, "setup.discover_io", setup.id());
      kernel_ = std::make_shared<const minic::Program>(
          tunio_->discover_io(source).kernel);
    }
    {
      ScopedSpan span(log, "setup.lint", setup.id());
      tunio_->apply_lint_hints(tunio_->lint_source(source));
    }
    {
      // Building the kernel objective runs the replay gate's static
      // analysis of the kernel.
      ScopedSpan span(log, "setup.objective", setup.id());
      objective_ = tuner::make_kernel_objective(*kernel_, testbed_);
    }
  }

  std::map<std::string, double> setup_layers(
      const std::vector<Span>& spans) const override {
    const std::map<std::string, LayerTime> times = layer_times(spans);
    std::map<std::string, double> out;
    out["rl.train_s"] = self_s(times, "setup.smart_config") +
                        total_s(times, "setup.early_stopping");
    out["rl.train_epochs"] = static_cast<double>(train_epochs_);
    out["core.sweep_s"] = total_s(times, "evaluate");
    out["core.sweep_evals"] = count_of(times, "evaluate");
    out["discovery.discover_ms"] = total_s(times, "setup.discover_io") * 1e3;
    out["analysis.lint_ms"] = total_s(times, "setup.lint") * 1e3;
    out["replay.gate_ms"] = total_s(times, "setup.objective") * 1e3;
    return out;
  }

  JobResult run_job(SpanLog& log) override {
    JobResult job;
    const CounterWindow window;
    const Clock::time_point start = Clock::now();
    bool replay_eligible = false;
    {
      ScopedSpan job_span(log, "job");
      // The RL agents keep learning online; each job starts from the
      // trained state, as a fresh `TunIO::attach` would.
      core::TunIO agent(*tunio_);
      agent.smart_config().reset_episode();
      agent.early_stopping().reset_episode();
      std::unique_ptr<tuner::Objective> inner =
          objective_ ? std::move(objective_)
                     : tuner::make_kernel_objective(*kernel_, testbed_);
      TimingObjective objective(*inner, log);
      tuners::GaTunerAdapter ga(search_space_, objective, ga_);
      TimingTuner tuner(ga, log, objective, job_span.id());
      // The same hooks `TunIO::attach` wires into a GeneticTuner.
      ga.set_subset_provider([&](unsigned generation,
                                 const tuner::TuningResult& progress) {
        ScopedSpan span(log, "rl.subset_picker", tuner.active_span());
        if (generation == 0 || progress.history.empty()) {
          return all_parameters(search_space_);
        }
        const tuner::GenerationStats& last = progress.history.back();
        return agent.subset_picker(last.best_perf, last.subset);
      });
      tuners::DriveOptions options;
      options.stopper = [&](unsigned generation,
                            const tuner::TuningResult& progress) {
        ScopedSpan span(log, "rl.stop", tuner.active_span());
        return agent.stop(generation, progress.best_perf);
      };
      const tuners::DriveResult result =
          tuners::drive(tuner, objective, options);
      tuner.close_iteration();
      job.fresh_evals = result.fresh_evaluations;
      job.failed = objective.failed();
      add_tuning(job, "ga", result.tuning, search_space_, testbed_);
      replay_eligible = result.replay_eligible;
    }
    job.wall_s = seconds_since(start);
    job.counters = window.deltas();
    job.attempted = job.fresh_evals + 1;
    if (log.enabled()) {
      job.layers = job_layers(log.spans(), job, replay_eligible);
      job.layers["tuner.ga_self_s"] =
          job.wall_s - job.layers["tuner.eval_s"] -
          job.layers["rl.decide_ms"] / 1e3;
    }
    return job;
  }

  std::unique_ptr<tuner::Objective> reference_objective(
      const BestConfig& best) const override {
    return tuner::make_kernel_objective(*kernel_, replay_off(best.testbed));
  }

 private:
  static tuner::GaOptions flash_ga(std::uint64_t seed) {
    tuner::GaOptions ga = paper_ga(derive(seed, 2));
    // Every individual is evaluated, elites included: evaluation is
    // deterministic per genome, so the search is the same as with the
    // fitness cache, but a job's work no longer depends on how often the
    // population repeats a genome (350-460 fresh evaluations otherwise).
    ga.cache_evaluations = false;
    return ga;
  }

  const cfg::ConfigSpace space_ = cfg::ConfigSpace::tunio12();
  /// The GA's space: the paper's, with both collective-metadata switches
  /// pinned to 1 and the stripe unit to its 1 MiB default.
  /// With either switch at 0, an evaluation bills about twice the
  /// simulated seconds (coll_metadata_write 100-158 s, coll_metadata_ops
  /// ~64 s, against ~32 s), so how often a seed's GA visited 0 set the
  /// budget the job billed: 28% spread across ten seeds with the first
  /// free; with only the second free, two seeds in ten kept 0 in a third
  /// of their population and billed 605-617 minutes against 451-461.
  /// With the stripe unit free, one seed in ten found 64 KiB stripes
  /// (6762 MB/s, against 3722-4077 MB/s for the other nine); two such
  /// seeds in ten would spread tuned_mbps by about 17%.
  const cfg::ConfigSpace search_space_ = pinned_space(
      {{"coll_metadata_write", 1}, {"coll_metadata_ops", 1},
       {"striping_unit", 4}});
  const tuner::TestbedOptions testbed_;
  const tuner::GaOptions ga_;
  std::unique_ptr<core::TunIO> tunio_;
  std::shared_ptr<const minic::Program> kernel_;
  /// Built by `setup` and used by the next job; later jobs build their own.
  std::unique_ptr<tuner::Objective> objective_;
  std::size_t train_epochs_ = 0;
};

// --- hacc_bo ----------------------------------------------------------------

/// The paper-scale native HACC-IO kernel tuned by batched BO through
/// `tuners::drive`. One benchmark job is one BO session per stripe unit of
/// `kHaccStripeUnits`, each tuning the other eleven parameters with its own
/// testbed and BO seed for a fixed number of iterations. (A budget in
/// default-configuration evaluations let each session's evaluation count
/// follow the simulated cost of what it visited: job time then spread 18%
/// across ten seeds, against 8% with the iteration count fixed.)
class HaccBo final : public Workload {
 public:
  explicit HaccBo(std::uint64_t seed)
      : spaces_(pinned_spaces("striping_unit", kHaccStripeUnits)) {
    for (std::uint64_t k = 0; k < spaces_.size(); ++k) {
      session_seeds_.push_back(derive(seed, 2 + k));
    }
  }

  void setup(SpanLog& log) override {
    ScopedSpan setup(log, "setup");
    // Building an objective runs the replay gate's static analysis of the
    // HACC source.
    ScopedSpan span(log, "setup.objective", setup.id());
    objectives_.clear();
    for (std::size_t k = 0; k < spaces_.size(); ++k) {
      objectives_.push_back(make_objective(testbed_for(k)));
    }
  }

  std::map<std::string, double> setup_layers(
      const std::vector<Span>& spans) const override {
    return {{"replay.gate_ms",
             total_s(layer_times(spans), "setup.objective") * 1e3}};
  }

  JobResult run_job(SpanLog& log) override {
    JobResult job;
    const CounterWindow window;
    const Clock::time_point start = Clock::now();
    // `setup` built the next job's objectives; later jobs build their own.
    std::vector<std::unique_ptr<tuner::Objective>> inners =
        std::move(objectives_);
    objectives_.clear();
    bool replay_eligible = false;
    for (std::size_t k = 0; k < spaces_.size(); ++k) {
      ScopedSpan job_span(log, "job");
      const tuner::TestbedOptions testbed = testbed_for(k);
      if (inners.size() <= k) inners.push_back(make_objective(testbed));
      TimingObjective objective(*inners[k], log);
      tuners::TunerSpec spec;
      spec.seed = derive(session_seeds_[k], 1);
      spec.batch = 8;
      spec.max_iterations = kHaccIterations;
      const std::unique_ptr<tuners::Tuner> bo =
          tuners::make_tuner("bo", spaces_[k], objective, spec);
      TimingTuner tuner(*bo, log, objective, job_span.id());
      const tuners::DriveResult result = tuners::drive(tuner, objective);
      tuner.close_iteration();
      job.fresh_evals += result.fresh_evaluations;
      job.failed += objective.failed();
      add_tuning(job, "bo", result.tuning, spaces_[k], testbed);
      replay_eligible = result.replay_eligible;
    }
    job.wall_s = seconds_since(start);
    job.counters = window.deltas();
    job.attempted = job.fresh_evals + spaces_.size();
    if (log.enabled()) {
      job.layers = job_layers(log.spans(), job, replay_eligible);
    }
    return job;
  }

  std::unique_ptr<tuner::Objective> reference_objective(
      const BestConfig& best) const override {
    return make_objective(replay_off(best.testbed));
  }

 private:
  tuner::TestbedOptions testbed_for(std::size_t session) const {
    return paper_testbed(derive(session_seeds_[session], 0));
  }

  static std::unique_ptr<tuner::Objective> make_objective(
      const tuner::TestbedOptions& testbed) {
    return workload_objective(wl::make_hacc(paper_hacc()), testbed,
                              kernel_options());
  }

  const std::vector<cfg::ConfigSpace> spaces_;
  std::vector<std::uint64_t> session_seeds_;
  std::vector<std::unique_ptr<tuner::Objective>> objectives_;
};

// --- bdcats_service ---------------------------------------------------------

/// The full BD-CATS application through a `TuningServer` with two engine
/// workers: a GA job and a rule job run concurrently under distinct
/// cache fingerprints, then a GA job resumed from the first one's best
/// shares its fingerprint. One benchmark job is one such session per
/// stripe unit of `kBdcatsStripeUnits`, each on a fresh server with its
/// own job and testbed seeds.
class BdcatsService final : public Workload {
 public:
  explicit BdcatsService(std::uint64_t seed)
      : spaces_(pinned_spaces("striping_unit", kBdcatsStripeUnits)) {
    for (std::uint64_t k = 0; k < spaces_.size(); ++k) {
      session_seeds_.push_back(derive(seed, 2 + k));
    }
  }

  void setup(SpanLog& log) override {
    ScopedSpan setup(log, "setup");
    hints_ = analysis::lint_source(wl::sources::bdcats()).tuning_hints();
    // Budget calibration, one default evaluation per session's space.
    default_seconds_.clear();
    for (std::size_t k = 0; k < spaces_.size(); ++k) {
      default_seconds_.push_back(
          make_objective(testbed_for(k))
              ->evaluate(spaces_[k].default_configuration())
              .eval_seconds);
    }
  }

  JobResult run_job(SpanLog& log) override {
    JobResult job;
    const CounterWindow window;
    std::map<std::string, double> turnaround_s;
    Session session;
    for (std::size_t k = 0; k < spaces_.size(); ++k) {
      session = run_session(log, k, job);
      job.wall_s += session.makespan_s;
      for (const auto& [name, seconds] : session.turnaround_s) {
        turnaround_s[name] += seconds;
      }
    }
    job.counters = window.deltas();
    job.attempted = job.fresh_evals + 3 * spaces_.size();

    if (log.enabled()) {
      job.layers = job_layers(log.spans(), job, session.replay_eligible);
      const double hits =
          static_cast<double>(delta(job.counters, "service.cache.hits"));
      const double misses =
          static_cast<double>(delta(job.counters, "service.cache.misses"));
      job.layers["service.cache_hits"] = hits;
      job.layers["service.cache_misses"] = misses;
      job.layers["service.cache_hit_ratio"] =
          hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
      job.layers["service.engine_tasks"] =
          static_cast<double>(delta(job.counters, "service.engine.tasks"));
      job.layers["service.engine_busy_share"] =
          job.layers["tuner.eval_s"] / (session.workers * job.wall_s);
      for (const auto& [name, seconds] : turnaround_s) {
        job.layers["service.job_turnaround_s." + name] =
            seconds / static_cast<double>(spaces_.size());
      }
    }
    return job;
  }

  std::vector<std::string> deterministic_counters() const override {
    // The replay fast path simulates its verification evaluation twice,
    // and which configuration gets verified depends on how the engine
    // interleaves the concurrent jobs; so do the replay split and the
    // data-path counters. The service's own counts must still repeat.
    return {"tuner.eval.requested", "tuner.fitness_cache_hits",
            "service.cache.hits", "service.cache.misses"};
  }

  std::unique_ptr<tuner::Objective> reference_objective(
      const BestConfig& best) const override {
    return make_objective(replay_off(best.testbed));
  }

 private:
  /// What one server session reports beyond the job's totals.
  struct Session {
    double makespan_s = 0.0;  ///< first submit to the last job's end
    unsigned workers = 0;
    bool replay_eligible = false;
    std::map<std::string, double> turnaround_s;  ///< by job name
  };

  /// Runs session `session`, adding its evaluations and bests to `out`.
  Session run_session(SpanLog& log, std::size_t session, JobResult& out) {
    const cfg::ConfigSpace& space = spaces_[session];
    const std::uint64_t seed = session_seeds_[session];
    struct Job {
      std::string name;
      std::unique_ptr<tuner::Objective> inner;
      std::shared_ptr<TimingObjective> objective;
      std::uint64_t span = 0;
      std::atomic<std::uint64_t> iteration{0};
      service::JobId id = 0;
      Clock::time_point submitted;
      double turnaround_s = 0.0;
      std::thread waiter;
      tuner::TuningResult result;
      bool failed = false;
    };
    Job jobs[3];
    const char* names[3] = {"ga", "rule", "resume"};
    const tuner::TestbedOptions testbed = testbed_for(session);
    for (int i = 0; i < 3; ++i) {
      jobs[i].name = names[i];
      jobs[i].inner = make_objective(testbed);
      jobs[i].objective =
          std::make_shared<TimingObjective>(*jobs[i].inner, log);
    }

    service::ServerOptions server_options;
    server_options.max_concurrent_jobs = 2;
    server_options.engine.workers = 2;
    server_options.cache.capacity = 1u << 16;  // no eviction: hits repeat
    service::TuningServer server(space, server_options);
    // Joins the waiters while the server they wait on is alive, also when
    // a submit throws.
    struct JoinWaiters {
      Job* jobs;
      ~JoinWaiters() {
        for (int i = 0; i < 3; ++i) {
          if (jobs[i].waiter.joinable()) jobs[i].waiter.join();
        }
      }
    } join_waiters{jobs};

    auto spec_for = [&](Job& job, double allowance, std::uint64_t job_seed) {
      service::JobSpec spec;
      spec.name = job.name;
      spec.objective = job.objective;
      spec.ga = paper_ga(job_seed);
      spec.ga.max_generations = 1000;  // the budget stops first
      spec.hints = hints_;
      const double budget = allowance * default_seconds_[session];
      // Budget stop plus the iteration boundary: the server calls the
      // stopper after every generation.
      spec.stopper = [&log, &job, budget](unsigned,
                                          const tuner::TuningResult& so_far) {
        log.close(job.iteration.exchange(0));
        const bool stop = so_far.total_seconds >= budget;
        if (!stop) {
          job.iteration = log.open("iteration", job.span);
          job.objective->set_parent(job.iteration);
        }
        return stop;
      };
      return spec;
    };
    auto submit = [&](Job& job, service::JobSpec spec) {
      job.span = log.open("job." + job.name, 0);
      job.iteration = log.open("iteration", job.span);
      job.objective->set_parent(job.iteration);
      job.submitted = Clock::now();
      job.id = server.submit(std::move(spec));
      job.waiter = std::thread([&server, &log, &job] {
        try {
          job.result = server.wait(job.id);
        } catch (const std::exception&) {
          job.failed = true;
        }
        job.turnaround_s = seconds_since(job.submitted);
        log.close(job.iteration.exchange(0));
        log.close(job.span);
      });
    };

    service::JobSpec ga = spec_for(jobs[0], kBdcatsAllowance, derive(seed, 1));
    ga.fingerprint = 1;
    service::JobSpec rule =
        spec_for(jobs[1], kBdcatsAllowance, derive(seed, 2));
    rule.backend = "rule";
    rule.fingerprint = 2;
    const Clock::time_point start = Clock::now();
    submit(jobs[0], std::move(ga));
    submit(jobs[1], std::move(rule));
    jobs[0].waiter.join();
    // Resumed from the first job's best, under its fingerprint: the
    // first job's cache entries are complete, so its hits repeat.
    service::JobSpec resume =
        spec_for(jobs[2], kBdcatsResumeAllowance, derive(seed, 3));
    resume.fingerprint = 1;
    resume.ga.seed_indices = server.progress(jobs[0].id).best_indices;
    submit(jobs[2], std::move(resume));
    jobs[1].waiter.join();
    jobs[2].waiter.join();

    Session result;
    result.makespan_s = seconds_since(start);
    result.workers = server.stats().workers;
    result.replay_eligible = jobs[0].objective->replay_gate().eligible;
    for (Job& job : jobs) {
      const bool done = !job.failed && server.progress(job.id).state ==
                                           service::JobState::kDone;
      out.failed += job.objective->failed() + (done ? 0 : 1);
      out.fresh_evals += job.objective->evaluations();
      add_tuning(out, job.name, job.result, space, testbed);
      result.turnaround_s[job.name] = job.turnaround_s;
    }
    return result;
  }

  tuner::TestbedOptions testbed_for(std::size_t session) const {
    return paper_testbed(derive(session_seeds_[session], 0));
  }

  static std::unique_ptr<tuner::Objective> make_objective(
      const tuner::TestbedOptions& testbed) {
    return workload_objective(wl::make_bdcats(paper_bdcats()), testbed,
                              wl::RunOptions{});
  }

  const std::vector<cfg::ConfigSpace> spaces_;
  std::vector<std::uint64_t> session_seeds_;
  std::vector<std::pair<std::string, double>> hints_;
  std::vector<double> default_seconds_;
};

}  // namespace

std::map<std::string, double> Workload::setup_layers(
    const std::vector<Span>&) const {
  return {};
}

std::vector<std::string> Workload::deterministic_counters() const {
  std::vector<std::string> out;
  for (const auto& [counter, metric] : data_path_counters()) {
    out.push_back(counter);
  }
  for (const char* name :
       {"tuner.eval.requested", "tuner.eval.replayed", "tuner.eval.interpreted",
        "tuner.fitness_cache_hits"}) {
    out.push_back(name);
  }
  return out;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "flash_tunio") return std::make_unique<FlashTunio>(seed);
  if (name == "hacc_bo") return std::make_unique<HaccBo>(seed);
  if (name == "bdcats_service") return std::make_unique<BdcatsService>(seed);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

const std::vector<std::pair<std::string, std::string>>& data_path_counters() {
  static const std::vector<std::pair<std::string, std::string>> counters = {
      {"pfs.writes", "pfs.writes_per_eval"},
      {"pfs.bytes_written", "pfs.bytes_written_per_eval"},
      {"pfs.rmw_bytes", "pfs.rmw_bytes_per_eval"},
      {"pfs.reads", "pfs.reads_per_eval"},
      {"pfs.bytes_read", "pfs.bytes_read_per_eval"},
      {"pfs.metadata_ops", "pfs.metadata_ops_per_eval"},
      {"h5.chunk_cache.misses", "hdf5lite.chunk_misses_per_eval"},
      {"h5.chunk_cache.hits", "hdf5lite.chunk_hits_per_eval"},
      {"h5.chunk_cache.evictions", "hdf5lite.chunk_evictions_per_eval"},
      {"h5.chunk_cache.bypasses", "hdf5lite.chunk_bypasses_per_eval"},
      {"mpi.barriers", "mpisim.barriers_per_eval"},
      {"mpi.collective_bytes", "mpisim.collective_bytes_per_eval"},
  };
  return counters;
}

}  // namespace perfbench

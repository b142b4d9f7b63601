#include "tuner/objective.hpp"

#include <atomic>
#include <bit>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "common/rng.hpp"
#include "minic/parser.hpp"
#include "obs/metrics.hpp"
#include "replay/invariance.hpp"
#include "replay/optrace.hpp"
#include "replay/recorder.hpp"
#include "replay/replayer.hpp"
#include "workloads/sources.hpp"

namespace tunio::tuner {

std::vector<Evaluation> Objective::evaluate_batch(
    const std::vector<cfg::Configuration>& configs) {
  std::vector<Evaluation> results;
  results.reserve(configs.size());
  for (const cfg::Configuration& config : configs) {
    results.push_back(evaluate(config));
  }
  return results;
}

namespace {

/// Shared run-averaging logic for both objective flavors.
///
/// Concurrency-safe by construction: every evaluation provisions its own
/// simulated testbed (fresh MpiSim/PfsSimulator per run) and draws its
/// measurement noise from an RNG stream derived from the testbed seed and
/// the genome alone. Results therefore depend only on (seed, config) —
/// never on call order, interleaving, or which thread ran the evaluation.
class ObjectiveBase : public Objective {
 public:
  ObjectiveBase(TestbedOptions testbed, ReplayGate gate)
      : testbed_(testbed),
        gate_(testbed.replay == ReplayMode::kOff
                  ? ReplayGate{false, "replay switched off"}
                  : std::move(gate)) {}

  ReplayGate replay_gate() const override { return gate_; }

  Evaluation evaluate(const cfg::Configuration& config) override {
    const std::shared_ptr<const GenomeInputs> in = genome_inputs(config);
    // The simulation is deterministic in (seed, config): run the stack
    // once and let the `runs_per_eval` volatility samples below perturb
    // that single measurement. Bit-identical to simulating every run.
    const RunOutcome out = run_via_fast_path(in->settings);
    Evaluation eval;
    double perf_sum = 0.0;
    double seconds_sum = 0.0;
    for (const double factor : in->noise_factors) {
      // Platform volatility: multiplicative measurement noise.
      perf_sum += std::max(0.0, out.perf_mbps * factor);
      seconds_sum += out.seconds;
    }
    eval.detail = out.detail;
    eval.perf_mbps = perf_sum / testbed_.runs_per_eval;
    // Only one run's time is billed to the budget (see header comment),
    // plus the fixed per-evaluation launch overhead.
    eval.eval_seconds =
        seconds_sum / testbed_.runs_per_eval + kLaunchOverheadSeconds;
    evaluations_.fetch_add(1, std::memory_order_relaxed);
    static obs::Histogram* perf_hist =
        &obs::MetricsRegistry::global().histogram(
            "tuner.eval.perf_mbps", {100.0, 1000.0, 5000.0, 20000.0});
    perf_hist->observe(eval.perf_mbps, name());
    return eval;
  }

  bool concurrent_safe() const override { return true; }

  std::uint64_t evaluations() const override {
    return evaluations_.load(std::memory_order_relaxed);
  }

 protected:
  struct RunOutcome {
    double perf_mbps;
    SimSeconds seconds;
    trace::PerfResult detail;
  };
  /// Must be safe to call concurrently: the stack objects are per-call,
  /// so implementations may only read shared state.
  virtual RunOutcome run_once(mpisim::MpiSim& mpi, pfs::PfsSimulator& fs,
                              const cfg::StackSettings& settings) = 0;

  TestbedOptions testbed_;
  std::atomic<std::uint64_t> evaluations_ = 0;

 private:
  // --- record-once/replay-many fast path ---------------------------------
  //
  // State machine (all transitions under mutex_):
  //
  //   kIdle --record--> kRecorded --verify--> kVerified (replay from here on)
  //     --invalid trace / mismatch / throw--> kDisabled (interpret forever)
  //
  // The evaluation that records or verifies holds mutex_ for its whole
  // run, so every other evaluation waits for it. A waiter therefore only
  // ever waits on a run already in progress on another thread, so a
  // shared engine cannot deadlock, and an eligible objective interprets
  // exactly two evaluations however many threads call it. The evaluation
  // engine runs those two on the batch's caller, so its workers only wait
  // here when several callers share one objective. Replay is only used
  // after it was proven to produce the same bits as interpretation.

  enum class FastState { kIdle, kRecorded, kVerified, kDisabled };

  /// Everything an evaluation derives from the configuration alone: the
  /// resolved stack settings and the noise factors `1 + N(0, sigma)`,
  /// drawn from the per-genome stream (see class comment). Both depend
  /// only on (testbed seed, genome), and recomputing them — mt19937_64
  /// seeding above all — dominates the per-evaluation overhead once the
  /// simulation itself is replayed, so they are memoized per genome.
  struct GenomeInputs {
    std::vector<std::size_t> indices;  ///< guards against hash collisions
    cfg::StackSettings settings;
    std::vector<double> noise_factors;
  };

  std::shared_ptr<const GenomeInputs> genome_inputs(
      const cfg::Configuration& config) {
    const std::uint64_t key = hash_indices(config.indices());
    {
      std::lock_guard<std::mutex> lock(inputs_mutex_);
      const auto it = inputs_cache_.find(key);
      if (it != inputs_cache_.end() && it->second->indices == config.indices())
        return it->second;
    }
    auto entry = std::make_shared<GenomeInputs>();
    entry->indices = config.indices();
    entry->settings = cfg::resolve(config);
    Rng rng(derive_stream(testbed_.seed, key));
    entry->noise_factors.reserve(testbed_.runs_per_eval);
    for (unsigned run = 0; run < testbed_.runs_per_eval; ++run) {
      entry->noise_factors.push_back(
          1.0 + rng.normal(0.0, testbed_.measurement_noise));
    }
    std::lock_guard<std::mutex> lock(inputs_mutex_);
    if (inputs_cache_.size() < kInputsCacheCap) inputs_cache_[key] = entry;
    return entry;
  }

  RunOutcome run_interpreted(const cfg::StackSettings& settings) {
    mpisim::MpiSim mpi(testbed_.num_ranks);
    pfs::PfsSimulator fs;
    return run_once(mpi, fs, settings);
  }

  RunOutcome run_replayed(const replay::OpTrace& trace,
                          const cfg::StackSettings& settings) {
    mpisim::MpiSim mpi(testbed_.num_ranks);
    pfs::PfsSimulator fs;
    const replay::ReplayResult r = replay::replay(trace, mpi, fs, settings);
    return {r.perf.perf_mbps, r.sim_seconds, r.perf};
  }

  static bool same_outcome(const RunOutcome& a, const RunOutcome& b) {
    return replay::bit_identical(a.detail, b.detail) &&
           std::bit_cast<std::uint64_t>(a.seconds) ==
               std::bit_cast<std::uint64_t>(b.seconds);
  }

  static void count(const char* metric) {
    obs::MetricsRegistry::global().counter(metric).add(1);
  }

  RunOutcome run_via_fast_path(const cfg::StackSettings& settings) {
    if (!gate_.eligible) {
      count("tuner.eval.interpreted");
      return run_interpreted(settings);
    }
    std::unique_lock<std::mutex> lock(mutex_);
    if (state_ == FastState::kVerified) {
      lock.unlock();  // trace_ never changes once verified
      count("tuner.eval.replayed");
      return run_replayed(trace_, settings);
    }
    count("tuner.eval.interpreted");
    if (state_ == FastState::kDisabled) {
      lock.unlock();
      return run_interpreted(settings);
    }

    // This evaluation records (kIdle) or verifies (kRecorded) with mutex_
    // held. The state reads kDisabled until the run succeeds, so a run
    // that throws leaves the fast path off.
    const FastState seen = std::exchange(state_, FastState::kDisabled);
    if (seen == FastState::kIdle) {
      replay::Recorder recorder;
      RunOutcome out;
      {
        replay::RecordScope scope(recorder);
        out = run_interpreted(settings);
      }
      if (recorder.valid()) {
        trace_ = recorder.take();
        state_ = FastState::kRecorded;
      }
      return out;
    }
    const RunOutcome out = run_interpreted(settings);
    if (same_outcome(out, run_replayed(trace_, settings))) {
      state_ = FastState::kVerified;
    } else {
      trace_ = {};
    }
    return out;
  }

  const ReplayGate gate_;
  /// Guards state_ and trace_; held for the whole record or verify run.
  std::mutex mutex_;
  /// Bounds the per-genome inputs cache; overflow just recomputes.
  static constexpr std::size_t kInputsCacheCap = 1u << 16;
  std::mutex inputs_mutex_;
  std::unordered_map<std::uint64_t, std::shared_ptr<const GenomeInputs>>
      inputs_cache_;

  FastState state_ = FastState::kIdle;
  replay::OpTrace trace_;  ///< recorded once state_ is kRecorded
};

class WorkloadObjective final : public ObjectiveBase {
 public:
  WorkloadObjective(std::shared_ptr<const wl::Workload> workload,
                    TestbedOptions testbed, wl::RunOptions run_options)
      : ObjectiveBase(testbed, gate(workload->name())),
        workload_(std::move(workload)),
        run_options_(std::move(run_options)) {}

  std::string name() const override { return workload_->name(); }

  /// A native driver qualifies for the replay fast path when its mini-C
  /// source is known and the settings-taint gate proves the op stream
  /// free of tuned_* influence. (Drivers without a registered source —
  /// custom workloads — conservatively stay on the interpreted path.)
  /// The recorded trace still comes from the driver itself; the source
  /// is only the invariance evidence.
  static ReplayGate gate(const std::string& workload_name) {
    const std::optional<std::string> source =
        wl::sources::source_for(workload_name);
    if (!source) {
      return {false, "no mini-C source registered for " + workload_name};
    }
    try {
      const replay::InvarianceReport report =
          replay::analyze_invariance(minic::parse(*source));
      return {!report.dependent, report.reason};
    } catch (const std::exception& e) {
      return {false, std::string("source analysis failed: ") + e.what()};
    }
  }

 protected:
  RunOutcome run_once(mpisim::MpiSim& mpi, pfs::PfsSimulator& fs,
                      const cfg::StackSettings& settings) override {
    const wl::RunResult result =
        workload_->run(mpi, fs, settings, run_options_);
    return {result.perf.perf_mbps, result.sim_seconds, result.perf};
  }

 private:
  std::shared_ptr<const wl::Workload> workload_;
  wl::RunOptions run_options_;
};

class KernelObjective final : public ObjectiveBase {
 public:
  KernelObjective(const minic::Program& program, TestbedOptions testbed,
                  interp::InterpOptions interp_options)
      : ObjectiveBase(testbed, gate(program)),
        program_(minic::clone(program)),
        interp_options_(std::move(interp_options)) {}

  std::string name() const override { return "minic-program"; }

  static ReplayGate gate(const minic::Program& program) {
    const replay::InvarianceReport report =
        replay::analyze_invariance(program);
    return {!report.dependent, report.reason};
  }

 protected:
  RunOutcome run_once(mpisim::MpiSim& mpi, pfs::PfsSimulator& fs,
                      const cfg::StackSettings& settings) override {
    const interp::InterpResult result =
        interp::execute(program_, mpi, fs, settings, interp_options_);
    return {result.perf.perf_mbps, result.sim_seconds, result.perf};
  }

 private:
  minic::Program program_;
  interp::InterpOptions interp_options_;
};

}  // namespace

std::unique_ptr<Objective> make_workload_objective(
    std::shared_ptr<const wl::Workload> workload, TestbedOptions testbed,
    wl::RunOptions run_options) {
  return std::make_unique<WorkloadObjective>(std::move(workload), testbed,
                                             std::move(run_options));
}

std::unique_ptr<Objective> make_kernel_objective(
    const minic::Program& program, TestbedOptions testbed,
    interp::InterpOptions interp_options) {
  return std::make_unique<KernelObjective>(program, testbed,
                                           std::move(interp_options));
}

}  // namespace tunio::tuner

// Configuration evaluation: the fitness function of the tuning pipeline.
//
// An `Objective` runs the application (or its I/O kernel) on a freshly
// provisioned simulated testbed under one configuration and reports the
// paper's `perf` plus the simulated time the evaluation cost. Following
// the paper's methodology, each evaluation averages `runs_per_eval`
// runs (3 on Cori, "to mitigate the volatility of the platform") while
// billing only a single run's time to the tuning budget ("the time cost
// of running the application is not accumulated across runs"). Since the
// simulation is deterministic in (seed, config), the stack is run once
// per evaluation and the per-run volatility samples perturb that single
// measurement — bit-identical to simulating every run, at a third of the
// cost.
//
// On top of that, objectives whose op stream provably does not depend on
// the tuned settings (checked statically, see `replay::analyze_invariance`)
// use a record-once/replay-many fast path: the first evaluation records a
// flat trace of stack operations, the second verifies that replaying it is
// bit-identical to interpreting, and every later evaluation replays the
// trace through the same op executor (`wl::OpExecutor`) — skipping the
// interpreter or workload driver entirely. The record and the verify
// each run under the objective's lock, so evaluations that arrive
// meanwhile wait for them and an eligible objective interprets exactly
// two evaluations at any worker count. `service::EvalEngine` runs those
// two on the batch's calling thread before it fans out, so under the
// engine no worker waits and the first two configurations of the first
// batch are the ones that record and verify. See src/replay.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "config/space.hpp"
#include "config/stack_settings.hpp"
#include "interp/interp.hpp"
#include "minic/ast.hpp"
#include "trace/meter.hpp"
#include "workloads/workload.hpp"

namespace tunio::tuner {

/// Result of evaluating one configuration.
struct Evaluation {
  double perf_mbps = 0.0;        ///< averaged objective
  SimSeconds eval_seconds = 0.0; ///< tuning-budget cost of this evaluation
  trace::PerfResult detail;      ///< last run's full metering
};

/// Everything known after iteration (GA generation) `generation` of a
/// search finished.
struct GenerationStats {
  unsigned generation = 0;
  double generation_best_perf = 0.0;  ///< best individual this generation
  double best_perf = 0.0;             ///< best seen so far (elitism)
  double cumulative_seconds = 0.0;    ///< tuning budget spent so far
  std::vector<std::size_t> subset;    ///< tuned parameter subset (empty=all)
};

/// What a search has produced so far; every backend reports one.
struct TuningResult {
  double initial_perf = 0.0;  ///< default configuration's perf
  std::vector<GenerationStats> history;
  std::optional<cfg::Configuration> best_config;
  double best_perf = 0.0;
  double total_seconds = 0.0;
  unsigned generations_run = 0;
  bool early_stopped = false;
};

/// Returns true to terminate tuning after this iteration.
using Stopper =
    std::function<bool(unsigned generation, const TuningResult& progress)>;

/// Controls the record/replay evaluation fast path.
enum class ReplayMode {
  /// Record on the first evaluation, verify bit-identity on the second,
  /// replay from the third on. Objectives that cannot prove their op
  /// stream settings-invariant never leave the interpreted path.
  kAuto,
  /// Never record or replay; always run the interpreter / native driver.
  /// The objective's replay gate reports it ineligible.
  kOff,
};

/// Fixed cost billed per evaluation regardless of the application's
/// runtime: job launch, srun spin-up, configuration injection. This is
/// why even a near-instant I/O kernel cannot make evaluations free.
inline constexpr SimSeconds kLaunchOverheadSeconds = 30.0;

/// Simulated testbed description (the paper's 4-node/128-process rig).
/// Objectives run it on the default `pfs::PfsProfile`.
struct TestbedOptions {
  unsigned num_ranks = 128;
  unsigned runs_per_eval = 3;
  /// Relative measurement noise per run (platform volatility).
  double measurement_noise = 0.02;
  std::uint64_t seed = 0xC0'FFEE;
  ReplayMode replay = ReplayMode::kAuto;
};

/// Verdict of the replay-eligibility gate for one objective: whether the
/// record/replay fast path may engage, and the gate's justification
/// (e.g. "no tuned_* reads", "tuned value reaches h5dwrite_all at line
/// 12", "no mini-C source registered"). Surfaced through
/// `DriveResult::replay_gate_reason` so a tuning run can explain why it
/// interpreted every evaluation.
struct ReplayGate {
  bool eligible = false;
  std::string reason;
};

class Objective {
 public:
  virtual ~Objective() = default;
  virtual std::string name() const = 0;
  virtual Evaluation evaluate(const cfg::Configuration& config) = 0;

  /// The replay-eligibility verdict for this objective. Custom
  /// objectives default to ineligible: there is no program to prove
  /// settings-invariant.
  virtual ReplayGate replay_gate() const {
    return {false, "custom objective: no static invariance evidence"};
  }

  /// Evaluates a batch of configurations; `results[i]` corresponds to
  /// `configs[i]`. The default implementation is a serial loop over
  /// `evaluate`. Overrides may run the batch concurrently (the service
  /// evaluation engine does), but must return results bit-identical to
  /// the serial path — which the built-in objectives guarantee by
  /// drawing each evaluation's noise from a per-genome RNG stream
  /// (`derive_stream(seed, hash_indices(genome))`) instead of one shared
  /// sequential stream. `tuners::drive()` is the caller, and counts each
  /// batch into `tuner.eval.batches` / `tuner.eval.requested`.
  virtual std::vector<Evaluation> evaluate_batch(
      const std::vector<cfg::Configuration>& configs);

  /// True when `evaluate` may be called from several threads at once.
  /// The built-in workload/kernel objectives qualify: every run
  /// provisions a fresh simulated testbed and the per-genome RNG streams
  /// share no state. Stateful custom objectives should leave this false;
  /// the evaluation engine then falls back to serial evaluation.
  virtual bool concurrent_safe() const { return false; }

  /// Total evaluations performed so far.
  virtual std::uint64_t evaluations() const = 0;
};

/// Evaluates a native workload driver.
std::unique_ptr<Objective> make_workload_objective(
    std::shared_ptr<const wl::Workload> workload, TestbedOptions testbed = {},
    wl::RunOptions run_options = {});

/// Evaluates a mini-C program (full application or discovered kernel)
/// through the interpreter.
std::unique_ptr<Objective> make_kernel_objective(
    const minic::Program& program, TestbedOptions testbed = {},
    interp::InterpOptions interp_options = {});

}  // namespace tunio::tuner

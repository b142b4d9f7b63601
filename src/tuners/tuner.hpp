// The pluggable tuner-backend interface.
//
// Every search in TunIO — the genetic pipeline included — runs through
// one loop, split into two halves:
//
//   * a `Tuner` proposes batches of configurations and absorbs their
//     evaluations — pure search strategy, no objective access;
//   * the `drive()` harness owns the objective, the simulated-time
//     budget and the stopping policy, and is the only place
//     `Objective::evaluate_batch` is called — so every backend composes
//     unchanged with the parallel evaluation engine, the shared result
//     cache, the record/replay fast path and the RL early stopper.
//
// Every backend derives from `TunerBase` (tuner_base.hpp), which keeps
// the iteration bookkeeping. Backends are registered by name (see
// registry.hpp): "ga" is the `GeneticTuner`, whose hooks TunIO's
// components plug into, "bo" is
// an asynchronous batched Bayesian optimizer, "rule" a deterministic
// knowledge-driven searcher seeded from linter hints and impact
// rankings, "random" the random-search control. `bench/tuner_tournament`
// races them under equal budgets.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "config/space.hpp"
#include "tuner/objective.hpp"

namespace tunio::tuners {

/// A search strategy over a `cfg::ConfigSpace`. One iteration is one
/// `propose` / `observe` round; `progress()` exposes the same
/// `TuningResult` the genetic pipeline reports, so downstream consumers
/// (RoTI curves, stoppers, benches) work across backends unchanged.
class Tuner {
 public:
  virtual ~Tuner() = default;

  /// Registry name of the backend ("ga", "bo", "rule", "random").
  virtual std::string name() const = 0;

  /// Proposes the next batch of configurations to evaluate *fresh*.
  /// Batches should be sized to keep `Objective::evaluate_batch` (and
  /// the service evaluation engine behind it) fully utilized. An empty
  /// batch is legal — the iteration still advances on `observe` (e.g. a
  /// GA generation fully satisfied from its fitness cache).
  virtual std::vector<cfg::Configuration> propose() = 0;

  /// Reports evaluations for exactly the configurations the last
  /// `propose` returned, in the same order.
  virtual void observe(const std::vector<tuner::Evaluation>& evals) = 0;

  /// Progress so far: history, best config/perf, simulated budget spent.
  virtual const tuner::TuningResult& progress() const = 0;

  /// True once the backend will propose nothing further.
  virtual bool done() const = 0;

  /// Driver notification that an external policy (budget exhaustion or
  /// a stopper) terminated the search.
  virtual void finish(bool early_stopped) = 0;
};

/// Driver policy: how long a backend may search.
struct DriveOptions {
  /// Simulated-seconds budget; the search stops at the first iteration
  /// boundary at or past it. 0 = unlimited (backend decides).
  double budget_seconds = 0.0;
  /// Hard iteration cap on top of the backend's own horizon. 0 = none.
  unsigned max_iterations = 0;
  /// Consulted after every iteration with the backend's progress; the RL
  /// early stopper and the heuristic baselines plug in here.
  tuner::Stopper stopper;
};

/// What a driven search produced, plus the replay split the tournament
/// report prints. The replay counts are deltas of the global
/// `MetricsRegistry`, so they attribute cleanly only when no other
/// evaluations run concurrently with this drive (true for benches and
/// tests); `TuningServer` reports its exact per-job cache counts from
/// `ServiceObjective`.
struct DriveResult {
  tuner::TuningResult tuning;
  /// Cumulative fresh evaluations after each iteration (parallel to
  /// `tuning.history`) — the x-axis of evals-to-target curves.
  std::vector<std::uint64_t> evaluations;
  std::uint64_t fresh_evaluations = 0;  ///< total configs sent to evaluate
  std::uint64_t replayed_evals = 0;     ///< Δ tuner.eval.replayed
  std::uint64_t interpreted_evals = 0;  ///< Δ tuner.eval.interpreted
  /// Whether the objective qualified for the record/replay fast path,
  /// and the gate's justification either way (e.g. "no tuned_* reads"
  /// vs "tuned value reaches h5dwrite_all at line 12" or "static
  /// analysis failed: ..."). Explains `replayed_evals == 0` at a glance.
  bool replay_eligible = false;
  std::string replay_gate_reason;
};

/// Runs `tuner` against `objective` until the backend is done, the
/// budget is spent, the iteration cap is hit, or the stopper fires.
DriveResult drive(Tuner& tuner, tuner::Objective& objective,
                  const DriveOptions& options = {});

}  // namespace tunio::tuners

#include "tuners/tuner.hpp"

#include "common/error.hpp"
#include "obs/metrics.hpp"

namespace tunio::tuners {

namespace {

std::uint64_t counter_value(const char* name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

}  // namespace

DriveResult drive(Tuner& tuner, tuner::Objective& objective,
                  const DriveOptions& options) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  obs::Counter& iterations =
      registry.counter("tuners." + tuner.name() + ".iterations");
  obs::Counter& proposals =
      registry.counter("tuners." + tuner.name() + ".proposals");
  // What the search requested, before the objective's result cache,
  // evaluation engine and replay path split the work up.
  obs::Counter& batches = registry.counter("tuner.eval.batches");
  obs::Counter& requested = registry.counter("tuner.eval.requested");

  const std::uint64_t replayed0 = counter_value("tuner.eval.replayed");
  const std::uint64_t interpreted0 = counter_value("tuner.eval.interpreted");

  DriveResult out;
  unsigned iteration = 0;
  while (!tuner.done()) {
    const std::vector<cfg::Configuration> batch = tuner.propose();
    proposals.add(batch.size());
    out.fresh_evaluations += batch.size();
    // Evaluated even when empty: a cache-satisfied GA generation still
    // issues its (empty) batch.
    batches.add(1);
    requested.add(batch.size());
    const std::vector<tuner::Evaluation> evals =
        objective.evaluate_batch(batch);
    tuner.observe(evals);
    iterations.add(1);
    out.evaluations.push_back(out.fresh_evaluations);

    const tuner::TuningResult& progress = tuner.progress();
    TUNIO_CHECK_MSG(progress.generations_run == iteration + 1,
                    "backend '" + tuner.name() +
                        "' did not advance its iteration count");
    if (options.stopper && options.stopper(iteration, progress)) {
      tuner.finish(/*early_stopped=*/true);
      break;
    }
    ++iteration;
    if (options.budget_seconds > 0.0 &&
        progress.total_seconds >= options.budget_seconds) {
      tuner.finish(/*early_stopped=*/false);
      break;
    }
    if (options.max_iterations > 0 && iteration >= options.max_iterations) {
      tuner.finish(/*early_stopped=*/false);
      break;
    }
  }

  out.tuning = tuner.progress();
  out.replayed_evals = counter_value("tuner.eval.replayed") - replayed0;
  out.interpreted_evals =
      counter_value("tuner.eval.interpreted") - interpreted0;
  const tuner::ReplayGate gate = objective.replay_gate();
  out.replay_eligible = gate.eligible;
  out.replay_gate_reason = gate.reason;
  return out;
}

}  // namespace tunio::tuners

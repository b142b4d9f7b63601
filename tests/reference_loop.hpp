// The GA's search loop written out by hand: propose, evaluate, observe,
// then the stopper. Tests compare `tuners::drive()` and the callers built
// on it (pipeline, interactive session, tuning server) against it, so the
// one search loop is checked against a second, independent one.
#pragma once

#include "tuners/genetic_tuner.hpp"

namespace tunio {

inline tuner::TuningResult reference_loop(tuner::GeneticTuner& ga,
                                          tuner::Objective& objective,
                                          const tuner::Stopper& stopper = {}) {
  while (!ga.done()) {
    const std::vector<cfg::Configuration> batch = ga.propose();
    ga.observe(objective.evaluate_batch(batch));
    const tuner::TuningResult& progress = ga.progress();
    if (stopper && stopper(progress.generations_run - 1, progress)) {
      ga.finish(/*early_stopped=*/true);
      break;
    }
  }
  return ga.progress();
}

}  // namespace tunio

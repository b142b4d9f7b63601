// Interactive tuning sessions (§VI future work, implemented here):
// "an interactive session feature where a configuration can be refined
// over time across a series of runs."
//
// A session wraps a TunIO instance and an objective and lets the user
// spend their tuning budget in installments: each `step(n)` runs n more
// generations of the genetic pipeline *seeded with the best
// configuration found so far*, so knowledge accumulates across steps —
// and across the TunIO agents, which keep their online learning state
// between installments. Between steps, the user can inspect or export
// the current best configuration, run production jobs with it, and come
// back for more tuning when the queue is idle.
#pragma once

#include <optional>
#include <string>

#include "core/tunio.hpp"
#include "tuner/objective.hpp"
#include "tuners/genetic_tuner.hpp"

namespace tunio::core {

class InteractiveSession {
 public:
  /// `tunio` and `objective` must outlive the session.
  InteractiveSession(TunIO& tunio, tuner::Objective& objective,
                     tuner::GaOptions ga = {});

  /// Runs up to `generations` more tuning generations (fewer if the RL
  /// stopper fires). Returns the stats of this installment.
  tuner::TuningResult step(unsigned generations);

  /// Best configuration found across all installments (defaults before
  /// the first step).
  const cfg::Configuration& best_configuration() const;
  double best_perf() const { return best_perf_; }
  double initial_perf() const { return initial_perf_; }

  /// Cumulative simulated tuning cost across installments.
  SimSeconds total_seconds() const { return total_seconds_; }
  unsigned total_generations() const { return total_generations_; }
  unsigned steps_taken() const { return steps_; }

  /// The current best configuration as H5Tuner-style XML.
  std::string export_xml() const;

 private:
  TunIO& tunio_;
  tuner::Objective& objective_;
  tuner::GaOptions ga_;
  cfg::Configuration best_config_;
  double best_perf_ = 0.0;
  double initial_perf_ = 0.0;
  bool have_initial_ = false;
  SimSeconds total_seconds_ = 0.0;
  unsigned total_generations_ = 0;
  unsigned steps_ = 0;
};

}  // namespace tunio::core

// Synthetic tuning-curve environment for offline early-stopper training.
//
// "To train the agent offline, tuning is emulated using generated log
// curves, as tuning performance follows a log curve ... The log curves
// generated for training include noise in the form of randomized shifts
// down the curve to account for tuning cases where the wrong parameter
// is chosen briefly before adjusting. ... Each simulated application has
// a log curve with different characteristics such as initial value,
// growth rate, etc." (§III-D)
//
// An episode is a tuning run: at each iteration the agent sees the best
// perf so far and decides stop/continue. The episode reward mirrors the
// paper's cost/benefit balance (RoTI): stopping collects
// (perf_best − perf_0) / t; continuing pays a small per-iteration cost.
#pragma once

#include <vector>

#include "common/rng.hpp"

namespace tunio::rl {

struct LogCurveParams {
  /// Warmup: tuning pipelines spend early iterations exploring before the
  /// log-shaped rise begins (generation-0 populations sit near the
  /// defaults). The warmup length is drawn from [0, warmup_max_fraction·T]
  /// per episode; it is what moves the RoTI-optimal stopping point away
  /// from the first iterations and deep into the run.
  double warmup_max_fraction = 0.5;
  double noise_stddev = 0.015;
  double dip_probability = 0.12;   ///< chance of a temporary downward shift
  /// Plateau windows: tuning often stalls for several iterations before a
  /// coordinated parameter change unlocks the next gain (the 10th-20th
  /// iteration plateau of the paper's Fig. 10(a)). Up to `max_plateaus`
  /// windows of 4..10 iterations hold the curve flat.
  unsigned max_plateaus = 2;
  unsigned max_iterations = 50;
};

/// One synthetic tuning run.
class LogCurveEpisode {
 public:
  LogCurveEpisode(const LogCurveParams& params, Rng& rng);

  unsigned max_iterations() const { return max_iterations_; }

  /// Best perf discovered up to and including iteration `t` (0-based).
  double best_perf_at(unsigned t) const;

  /// Raw (noisy) perf of iteration `t`.
  double perf_at(unsigned t) const;

  double initial_perf() const { return curve_.front(); }

  /// The RoTI-like return of stopping after iteration `t`:
  /// (best(t) − perf(0)) / (t + 1), scaled so episode rewards are O(1).
  double stop_return(unsigned t) const;

  /// The best achievable stop_return over the whole episode (oracle).
  double best_possible_return() const;

 private:
  std::vector<double> curve_;       ///< per-iteration perf
  std::vector<double> best_so_far_;
  unsigned max_iterations_;
};

/// Builds the early-stopper's state vector from observable quantities.
/// Layout: {t / T, best_perf, gain over last 1, last 3, last 5 iters}.
std::vector<double> early_stop_state(unsigned iteration,
                                     unsigned max_iterations,
                                     const std::vector<double>& best_history);

}  // namespace tunio::rl

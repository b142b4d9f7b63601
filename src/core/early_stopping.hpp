// The Early Stopping component (§III-D).
//
// An RL agent (NN-based Q-learning, 5-iteration reward delay) that
// "gets the iteration and the performance from the tuner as inputs and
// returns whether the tuner should stop or continue". It is trained
// offline on synthetic noisy log curves (see rl::LogCurveEpisode) until
// its average episode reward stagnates — "5% or less increase across
// five iterations" — and keeps learning online from the applications it
// is exposed to.
//
// Reward shaping: each `continue` earns the *change* in the RoTI-like
// stop-return between iterations (potential-based shaping), so total
// episode reward telescopes to the return at the chosen stop point. The
// agent therefore learns to ride the log curve while returns grow and to
// quit once they diminish — including riding out temporary plateaus,
// which is exactly where the 5%/5-iteration heuristic gives up.
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "rl/q_agent.hpp"

namespace tunio::core {

struct EarlyStoppingOptions {
  /// Normalization constant for online perf values. The paper normalizes
  /// by 1 / (BW_single × num_nodes): 4 nodes × 10 GB/s injection = the
  /// simulated testbed's achievable peak, so normalized perf lives in
  /// the same [0, ~1] range as the offline training curves.
  double perf_normalizer_mbps = 40'000.0;
  unsigned max_iterations = 50;     ///< tuning-budget horizon
  unsigned min_iterations = 10;     ///< never stop before this many
  /// §VI future work, implemented here: "include the expected number of
  /// production runs as input, to allow TunIO to continue tuning if the
  /// user knows that they expect to run the application long enough for
  /// the extra tuning to be worthwhile." 0 = off (paper behaviour).
  /// Larger values demand a wider Q(stop)-Q(continue) margin before the
  /// agent is allowed to quit.
  std::uint64_t expected_production_runs = 0;
  // Offline training schedule.
  unsigned episodes_per_epoch = 64;
  unsigned max_epochs = 120;
  unsigned min_epochs = 40;            ///< learn before judging stagnation
  std::uint64_t seed = 0xE5'701;
};

class EarlyStopping {
 public:
  explicit EarlyStopping(EarlyStoppingOptions options = {});

  /// Offline pretraining on generated log curves. Returns the per-epoch
  /// average episode rewards (the training log).
  std::vector<double> train_offline();

  /// Table I `stop`: feed the current tuning iteration and the best perf
  /// attained; returns true to stop. Keeps learning online.
  bool stop(unsigned current_iteration, double best_perf_mbps);

  /// Forgets the per-run state (call between tuning runs).
  void reset_episode();

  bool offline_trained() const { return offline_trained_; }
  const rl::QAgent& agent() const { return agent_; }

 private:
  static constexpr std::size_t kStateDim = 5;
  static constexpr std::size_t kContinue = 0;
  static constexpr std::size_t kStop = 1;

  EarlyStoppingOptions options_;
  Rng rng_;
  rl::QAgent agent_;
  bool offline_trained_ = false;

  // Online episode state.
  std::vector<double> best_history_;
  std::vector<double> last_state_;
  double last_return_ = 0.0;
};

}  // namespace tunio::core

// Smart Configuration Generation (§III-C): impact-first tuning.
//
// An RL agent that "gets the parameter subset and the best perf achieved
// during that iteration, and returns the subset of parameters to use in
// the next tuning iteration". Structure per the paper:
//
//   * a State Observer — an NN-based contextual bandit mapping the raw
//     tuning context (subset membership, normalized perf) to a state
//     observation;
//   * a Subset Picker — an NN-based Q-learning function choosing the next
//     subset from that observation. Actions are impact-ranked prefixes:
//     action k selects the k+1 highest-impact parameters, so picking a
//     subset is picking how deep down the impact ranking to tune.
//
// Reward: norm(perf) / (|subset| / |parameters|), with the paper's
// 5-iteration delay — performance gained per unit of search-space used.
//
// Offline training: "a simple parameter sweep on some representative I/O
// kernels, including VPIC, FLASH, and HACC ... After performing a sweep
// on each I/O kernel, a PCA analysis is performed on the parameters with
// respect to perf" to seed the impact ranking; the agent keeps learning
// from every application it tunes.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "config/space.hpp"
#include "rl/q_agent.hpp"
#include "rl/state_observer.hpp"
#include "tuner/objective.hpp"

namespace tunio::core {

struct SweepSample {
  std::size_t parameter;    ///< which parameter was swept
  std::size_t domain_index; ///< which value it took
  double perf_mbps;
};

class SmartConfigGen {
 public:
  explicit SmartConfigGen(const cfg::ConfigSpace& space);

  /// Offline training: parameter sweeps on representative kernels plus
  /// PCA; returns the collected sweep samples (one vector per kernel).
  std::vector<std::vector<SweepSample>> train_offline(
      const std::vector<tuner::Objective*>& kernels);

  /// Per-parameter impact scores (sum to 1); valid after train_offline.
  const std::vector<double>& impact_scores() const { return impact_; }

  /// Biases the impact ranking with static-analysis findings: each
  /// (parameter name, weight in (0, 1]) pair — e.g. the linter's
  /// LintReport::tuning_hints() — multiplies that parameter's impact by
  /// (1 + weight). Boosts persist: train_offline re-applies them after
  /// recomputing the measured impact, so a hinted parameter keeps its
  /// head start in the ranking. Unknown parameter names are ignored
  /// (hints may target layers a reduced space does not expose); repeated
  /// calls keep the strongest boost per parameter.
  void apply_hints(const std::vector<std::pair<std::string, double>>& hints);

  /// Hint boosts currently in force (one per parameter, 0 = unhinted).
  const std::vector<double>& hint_boosts() const { return hint_boost_; }

  /// Parameters sorted by descending impact.
  std::vector<std::size_t> ranking() const;

  /// Table I `subset_picker`: given the perf achieved with the current
  /// subset, returns the subset for the next iteration. Learns online.
  std::vector<std::size_t> subset_picker(
      double perf_mbps, const std::vector<std::size_t>& current_subset);

  /// Forgets per-run agent context (call between tuning runs).
  void reset_episode();

  bool offline_trained() const { return offline_trained_; }
  const rl::StateObserver& observer() const { return observer_; }
  const rl::QAgent& picker() const { return picker_; }

 private:
  std::vector<double> context_vector(const std::vector<std::size_t>& subset,
                                     double norm_perf,
                                     double norm_gain) const;
  std::vector<std::size_t> prefix_subset(std::size_t size) const;
  /// Multiplies impact_ by (1 + hint_boost_) and renormalizes.
  void boost_impact();

  const cfg::ConfigSpace& space_;
  Rng rng_;
  rl::StateObserver observer_;
  rl::QAgent picker_;
  std::vector<double> impact_;
  std::vector<double> hint_boost_;
  bool offline_trained_ = false;

  // Online episode state.
  std::vector<double> last_state_;
  std::size_t last_action_ = 0;
  double last_norm_perf_ = 0.0;
  bool has_last_ = false;
};

}  // namespace tunio::core

// NN-based Q-learning agent with delayed rewards.
//
// Both of TunIO's RL components — the Subset Picker of Smart
// Configuration Generation and the Action Decider of Early Stopping —
// are "NN-based Q-Learning function[s]" with "a 5-iteration delay on the
// reward function to avoid bias introduced by short-term gains"
// (§III-C/D). The delay is implemented here: observed transitions are
// held in a pending queue and only committed to the replay buffer once
// their (possibly re-evaluated) reward matures `reward_delay` steps
// later.
#pragma once

#include <deque>
#include <optional>

#include "common/rng.hpp"
#include "nn/dense_net.hpp"
#include "rl/replay_buffer.hpp"

namespace tunio::rl {

struct QAgentOptions {
  std::size_t hidden = 24;          ///< hidden width (two hidden layers)
  double gamma = 0.92;              ///< discount
  double epsilon = 0.25;            ///< initial exploration rate
  double epsilon_min = 0.03;
  double epsilon_decay = 0.995;     ///< per select() call
  unsigned reward_delay = 5;        ///< the paper's 5-iteration delay
};

class QAgent {
 public:
  QAgent(std::size_t state_dim, std::size_t num_actions, Rng rng,
         QAgentOptions options = {});

  std::size_t num_actions() const { return num_actions_; }

  /// ε-greedy action selection (decays ε).
  std::size_t select(const std::vector<double>& state);

  /// Greedy action (no exploration, no decay) — evaluation mode.
  std::size_t best_action(const std::vector<double>& state) const;

  /// Q-values for a state.
  std::vector<double> q_values(const std::vector<double>& state) const;

  /// Feeds one environment step. The transition's reward is *provisional*
  /// — it matures after `reward_delay` further observations, at which
  /// point the accumulated delayed reward replaces it and the transition
  /// enters replay. Terminal observations flush the queue.
  void observe(const std::vector<double>& state, std::size_t action,
               double reward, const std::vector<double>& next_state,
               bool terminal);

  /// Several gradient steps on replayed experience.
  void learn(std::size_t steps = 1);

  double epsilon() const { return epsilon_; }
  void set_epsilon(double epsilon) { epsilon_ = epsilon; }
  std::size_t replay_size() const { return replay_.size(); }

  const nn::DenseNet& network() const { return net_; }
  const nn::DenseNet& target_network() const { return target_; }

 private:
  struct Pending {
    Transition transition;
    unsigned age = 0;
  };

  void mature_pending(bool flush);

  std::size_t num_actions_;
  QAgentOptions options_;
  Rng rng_;
  nn::DenseNet net_;
  nn::DenseNet target_;
  ReplayBuffer replay_;
  std::deque<Pending> pending_;
  double epsilon_;
};

}  // namespace tunio::rl

#include "rl/q_agent.hpp"

#include <algorithm>

namespace tunio::rl {

namespace {

constexpr std::size_t kReplayCapacity = 4096;
constexpr std::size_t kBatchSize = 16;
constexpr double kTargetTau = 0.05;  ///< target-network soft update
constexpr double kLearningRate = 2e-3;

}  // namespace

QAgent::QAgent(std::size_t state_dim, std::size_t num_actions, Rng rng,
               QAgentOptions options)
    : num_actions_(num_actions),
      options_(options),
      rng_(rng),
      net_({state_dim, options.hidden, options.hidden, num_actions}, rng_,
           {kLearningRate}),
      target_({state_dim, options.hidden, options.hidden, num_actions}, rng_,
              {kLearningRate}),
      replay_(kReplayCapacity),
      epsilon_(options.epsilon) {
  TUNIO_CHECK_MSG(num_actions_ > 0, "agent needs at least one action");
  target_.copy_from(net_);
}

std::size_t QAgent::select(const std::vector<double>& state) {
  epsilon_ = std::max(options_.epsilon_min, epsilon_ * options_.epsilon_decay);
  if (rng_.chance(epsilon_)) {
    return rng_.index(num_actions_);
  }
  return best_action(state);
}

std::size_t QAgent::best_action(const std::vector<double>& state) const {
  const std::vector<double>& q = net_.forward(state);
  return static_cast<std::size_t>(
      std::max_element(q.begin(), q.end()) - q.begin());
}

std::vector<double> QAgent::q_values(const std::vector<double>& state) const {
  return net_.forward(state);
}

void QAgent::observe(const std::vector<double>& state, std::size_t action,
                     double reward, const std::vector<double>& next_state,
                     bool terminal) {
  TUNIO_CHECK_MSG(action < num_actions_, "action out of range");
  // Credit the incoming reward to every pending (not yet mature)
  // transition: an action's value is judged by the rewards that follow it
  // over the delay window, not by the instantaneous gain.
  for (Pending& pending : pending_) {
    pending.transition.reward += reward / options_.reward_delay;
    ++pending.age;
  }
  Pending fresh;
  fresh.transition.state = state;
  fresh.transition.action = action;
  fresh.transition.reward = reward / options_.reward_delay;
  fresh.transition.next_state = next_state;
  fresh.transition.terminal = terminal;
  pending_.push_back(std::move(fresh));
  mature_pending(terminal);
}

void QAgent::mature_pending(bool flush) {
  while (!pending_.empty() &&
         (flush || pending_.front().age >= options_.reward_delay)) {
    replay_.push(std::move(pending_.front().transition));
    pending_.pop_front();
  }
}

void QAgent::learn(std::size_t steps) {
  if (replay_.empty()) return;
  for (std::size_t s = 0; s < steps; ++s) {
    // Training draws nothing from rng_, so sampling each transition just
    // before it is used draws the same batch as sampling it up front.
    for (std::size_t i = 0; i < kBatchSize; ++i) {
      const Transition& t = replay_.sample(rng_);
      double target = t.reward;
      if (!t.terminal) {
        const std::vector<double>& next_q = target_.forward(t.next_state);
        target += options_.gamma *
                  *std::max_element(next_q.begin(), next_q.end());
      }
      net_.train_output(t.state, t.action, target);
    }
    target_.soft_update_from(net_, kTargetTau);
  }
}

}  // namespace tunio::rl

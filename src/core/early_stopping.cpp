#include "core/early_stopping.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "rl/log_curve_env.hpp"

namespace tunio::core {

namespace {

constexpr double kStagnationThreshold = 0.05;  ///< 5% average-reward increase
constexpr unsigned kStagnationWindow = 5;      ///< across five epochs

}  // namespace

EarlyStopping::EarlyStopping(EarlyStoppingOptions options)
    : options_(options),
      rng_(options.seed),
      agent_(kStateDim, 2, rng_.fork(), [] {
        rl::QAgentOptions q;
        q.hidden = 24;
        q.gamma = 0.95;
        q.epsilon = 0.50;
        q.epsilon_decay = 0.9995;  // keep exploring across offline epochs
        q.reward_delay = 5;  // the paper's 5-iteration delay
        return q;
      }()) {}

std::vector<double> EarlyStopping::train_offline() {
  rl::LogCurveParams curve_params;
  curve_params.max_iterations = options_.max_iterations;
  std::vector<double> epoch_rewards;
  for (unsigned epoch = 0; epoch < options_.max_epochs; ++epoch) {
    double reward_sum = 0.0;
    for (unsigned episode = 0; episode < options_.episodes_per_epoch;
         ++episode) {
      rl::LogCurveEpisode curve(curve_params, rng_);
      std::vector<double> best_history;
      double prev_return = 0.0;
      double episode_reward = 0.0;
      for (unsigned t = 0; t < curve.max_iterations(); ++t) {
        best_history.push_back(curve.best_perf_at(t));
        const std::vector<double> state = rl::early_stop_state(
            t, curve.max_iterations(), best_history);
        std::size_t action = agent_.select(state);
        if (t + 1 < options_.min_iterations) action = kContinue;
        const double now_return = curve.stop_return(t);
        // Potential-shaped reward: continuing earns the change in the
        // achievable return; stopping banks it (terminal).
        const double reward = now_return - prev_return;
        prev_return = now_return;
        episode_reward += reward;
        const bool terminal =
            action == kStop || t + 1 == curve.max_iterations();
        std::vector<double> next_state = state;
        if (!terminal) {
          std::vector<double> next_history = best_history;
          next_history.push_back(curve.best_perf_at(t + 1));
          next_state = rl::early_stop_state(t + 1, curve.max_iterations(),
                                            next_history);
        }
        agent_.observe(state, action, reward, next_state, terminal);
        if (terminal) break;
      }
      agent_.learn(4);
      reward_sum += episode_reward;
    }
    epoch_rewards.push_back(reward_sum / options_.episodes_per_epoch);

    // Stagnation check: "5% or less increase across five iterations".
    if (epoch + 1 >= options_.min_epochs &&
        epoch_rewards.size() > kStagnationWindow) {
      const double now = epoch_rewards.back();
      const double then =
          epoch_rewards[epoch_rewards.size() - 1 - kStagnationWindow];
      if (then > 0.0 && (now - then) / then <= kStagnationThreshold) {
        break;
      }
    }
  }
  offline_trained_ = true;
  agent_.set_epsilon(0.02);  // evaluation mode online, tiny exploration
  return epoch_rewards;
}

void EarlyStopping::reset_episode() {
  best_history_.clear();
  last_state_.clear();
  last_return_ = 0.0;
}

bool EarlyStopping::stop(unsigned current_iteration, double best_perf_mbps) {
  // A NaN/inf observation (a failed or degenerate evaluation upstream)
  // would poison the Q-network weights through the shaped reward;
  // treat it as zero bandwidth instead — the worst legal observation.
  if (!std::isfinite(best_perf_mbps)) best_perf_mbps = 0.0;
  const double norm = best_perf_mbps / options_.perf_normalizer_mbps;
  if (best_history_.empty()) {
    // First observation of this run.
    best_history_.push_back(norm);
  } else {
    best_history_.push_back(std::max(norm, best_history_.back()));
  }
  const std::vector<double> state = rl::early_stop_state(
      current_iteration, options_.max_iterations, best_history_);

  // Online learning: credit the previous decision with the shaped reward.
  const double now_return =
      (best_history_.back() - best_history_.front()) *
      static_cast<double>(options_.max_iterations) /
      static_cast<double>(current_iteration + 1);
  if (!last_state_.empty()) {
    agent_.observe(last_state_, kContinue, now_return - last_return_, state,
                   false);
    agent_.learn(1);
  }
  last_return_ = now_return;
  last_state_ = state;

  bool should_stop;
  if (current_iteration + 1 < options_.min_iterations) {
    should_stop = false;
  } else if (options_.expected_production_runs == 0) {
    should_stop = agent_.best_action(state) == kStop;
  } else {
    // Production-run-aware stopping: a user who will run the tuned
    // application many times can afford extra tuning, so quitting
    // requires the stop action to dominate by a margin that grows with
    // the expected run count.
    const std::vector<double> q = agent_.q_values(state);
    const double margin =
        0.003 * std::log2(1.0 + static_cast<double>(
                                    options_.expected_production_runs) /
                                    100.0);
    should_stop = q[kStop] > q[kContinue] + margin;
  }
  if (should_stop) {
    agent_.observe(state, kStop, 0.0, state, true);
    agent_.learn(1);
  }

  static obs::Counter* decisions =
      &obs::MetricsRegistry::global().counter("rl.early_stop.decisions");
  static obs::Counter* stops =
      &obs::MetricsRegistry::global().counter("rl.early_stop.stops");
  decisions->add(1);
  if (should_stop) stops->add(1);
  obs::Tracer& tracer = obs::Tracer::global();
  if (tracer.enabled()) {
    // The agent runs between generations with no clock of its own; the
    // ambient timestamp is the tuner's budget clock at the call site.
    const std::vector<double> q = agent_.q_values(state);
    tracer.instant("rl", should_stop ? "early_stop.stop" : "early_stop.continue",
                   obs::Tracer::ambient_seconds(), obs::kPidRl, /*tid=*/0,
                   {{"iteration", std::to_string(current_iteration)},
                    {"best_mbps", obs::json_number(best_perf_mbps)},
                    {"q_continue", obs::json_number(q[kContinue])},
                    {"q_stop", obs::json_number(q[kStop])}});
  }
  return should_stop;
}

}  // namespace tunio::core

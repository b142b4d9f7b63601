// Tests for the RL components: replay buffer, Q-agent (with the paper's
// 5-iteration delayed reward), contextual-bandit state observer, and the
// synthetic tuning-curve environment.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "rl/log_curve_env.hpp"
#include "rl/q_agent.hpp"
#include "rl/replay_buffer.hpp"
#include "rl/state_observer.hpp"

namespace tunio::rl {
namespace {

TEST(ReplayBuffer, RingSemantics) {
  ReplayBuffer buffer(4);
  EXPECT_TRUE(buffer.empty());
  for (int i = 0; i < 10; ++i) {
    Transition t;
    t.reward = i;
    buffer.push(std::move(t));
  }
  EXPECT_EQ(buffer.size(), 4u);  // capped
  Rng rng(1);
  for (int i = 0; i < 16; ++i) {
    EXPECT_GE(buffer.sample(rng).reward, 6.0);  // only the last four survive
  }
  EXPECT_THROW(ReplayBuffer(0), Error);
}

TEST(ReplayBuffer, SampleFromEmptyThrows) {
  ReplayBuffer buffer(4);
  Rng rng(1);
  EXPECT_THROW(buffer.sample(rng), Error);
}

TEST(QAgent, LearnsContextualBanditPreference) {
  // Two states; action 0 pays in state A, action 1 pays in state B.
  QAgentOptions options;
  options.reward_delay = 1;  // immediate for this test
  options.epsilon = 0.4;
  options.epsilon_decay = 0.999;
  QAgent agent(2, 2, Rng(17), options);
  Rng rng(5);
  const std::vector<double> state_a{1.0, 0.0};
  const std::vector<double> state_b{0.0, 1.0};
  for (int i = 0; i < 600; ++i) {
    const auto& state = rng.chance(0.5) ? state_a : state_b;
    const std::size_t action = agent.select(state);
    const bool is_a = state[0] > 0.5;
    const double reward = (is_a == (action == 0)) ? 1.0 : 0.0;
    agent.observe(state, action, reward, state, true);
    agent.learn(1);
  }
  EXPECT_EQ(agent.best_action(state_a), 0u);
  EXPECT_EQ(agent.best_action(state_b), 1u);
}

TEST(QAgent, DelayedRewardMaturesAfterWindow) {
  QAgentOptions options;
  options.reward_delay = 5;
  QAgent agent(1, 2, Rng(3), options);
  // Feed 4 observations: nothing matures yet.
  for (int i = 0; i < 4; ++i) {
    agent.observe({0.0}, 0, 1.0, {0.0}, false);
  }
  EXPECT_EQ(agent.replay_size(), 0u);
  // Two more: the earliest transitions mature.
  agent.observe({0.0}, 0, 1.0, {0.0}, false);
  agent.observe({0.0}, 0, 1.0, {0.0}, false);
  EXPECT_GT(agent.replay_size(), 0u);
}

TEST(QAgent, TerminalFlushesPending) {
  QAgentOptions options;
  options.reward_delay = 5;
  QAgent agent(1, 2, Rng(3), options);
  agent.observe({0.0}, 0, 1.0, {0.0}, false);
  agent.observe({0.0}, 1, 1.0, {0.0}, true);  // terminal
  EXPECT_EQ(agent.replay_size(), 2u);
}

TEST(QAgent, EpsilonDecays) {
  QAgentOptions options;
  options.epsilon = 0.5;
  options.epsilon_min = 0.1;
  options.epsilon_decay = 0.5;
  QAgent agent(1, 2, Rng(3), options);
  agent.select({0.0});
  EXPECT_NEAR(agent.epsilon(), 0.25, 1e-12);
  agent.select({0.0});
  agent.select({0.0});
  agent.select({0.0});
  EXPECT_NEAR(agent.epsilon(), 0.1, 1e-12);  // floor
}

TEST(QAgent, RejectsBadActions) {
  QAgent agent(1, 2, Rng(3));
  EXPECT_THROW(agent.observe({0.0}, 7, 0.0, {0.0}, false), Error);
  EXPECT_THROW(QAgent(1, 0, Rng(3)), Error);
}

TEST(StateObserver, LearnsPerfPrediction) {
  StateObserver observer(3, 4, Rng(9));
  Rng rng(10);
  for (int i = 0; i < 2000; ++i) {
    const double a = rng.uniform();
    const double b = rng.uniform();
    observer.update({a, b, 1.0}, 0.8 * a + 0.1 * b);
  }
  EXPECT_NEAR(observer.predict({1.0, 0.0, 1.0}), 0.8, 0.1);
  EXPECT_NEAR(observer.predict({0.0, 1.0, 1.0}), 0.1, 0.1);
  EXPECT_EQ(observer.observe({0.5, 0.5, 1.0}).size(), 4u);
}

TEST(LogCurveEpisode, MonotoneBestAndBounds) {
  Rng rng(33);
  LogCurveParams params;
  for (int episode = 0; episode < 20; ++episode) {
    LogCurveEpisode curve(params, rng);
    EXPECT_EQ(curve.max_iterations(), params.max_iterations);
    double prev_best = -1.0;
    for (unsigned t = 0; t < curve.max_iterations(); ++t) {
      EXPECT_GE(curve.best_perf_at(t), prev_best);
      EXPECT_GE(curve.perf_at(t), 0.0);
      EXPECT_LE(curve.perf_at(t), 2.0);
      prev_best = curve.best_perf_at(t);
    }
    EXPECT_GE(curve.best_possible_return(), curve.stop_return(0));
  }
}

TEST(LogCurveEpisode, CurvesVaryAcrossEpisodes) {
  Rng rng(34);
  LogCurveParams params;
  LogCurveEpisode a(params, rng);
  LogCurveEpisode b(params, rng);
  bool any_difference = false;
  for (unsigned t = 0; t < a.max_iterations(); ++t) {
    if (std::abs(a.perf_at(t) - b.perf_at(t)) > 1e-9) any_difference = true;
  }
  EXPECT_TRUE(any_difference);
}

TEST(LogCurveEpisode, WarmupDelaysGrowth) {
  // With full-length warmup forced off, early growth appears quickly;
  // with warmup allowed, some episodes stay flat early. Statistically
  // check the early-gain distribution differs.
  LogCurveParams no_warmup;
  no_warmup.warmup_max_fraction = 0.0;
  no_warmup.max_plateaus = 0;
  no_warmup.noise_stddev = 0.0;
  no_warmup.dip_probability = 0.0;
  LogCurveParams with_warmup = no_warmup;
  with_warmup.warmup_max_fraction = 0.6;

  Rng rng_a(35), rng_b(35);
  double early_gain_without = 0.0, early_gain_with = 0.0;
  for (int i = 0; i < 40; ++i) {
    LogCurveEpisode a(no_warmup, rng_a);
    LogCurveEpisode b(with_warmup, rng_b);
    early_gain_without += a.best_perf_at(5) - a.perf_at(0);
    early_gain_with += b.best_perf_at(5) - b.perf_at(0);
  }
  EXPECT_GT(early_gain_without, early_gain_with);
}

TEST(EarlyStopState, FeatureLayout) {
  const std::vector<double> history{0.1, 0.2, 0.3, 0.35, 0.38, 0.40};
  const auto state = early_stop_state(5, 50, history);
  ASSERT_EQ(state.size(), 5u);
  EXPECT_DOUBLE_EQ(state[0], 0.1);   // t/T
  EXPECT_DOUBLE_EQ(state[1], 0.40);  // best
  EXPECT_NEAR(state[2], 0.02, 1e-12);  // gain over last 1
  EXPECT_NEAR(state[3], 0.10, 1e-12);  // gain over last 3
  EXPECT_NEAR(state[4], 0.30, 1e-12);  // gain over last 5
  // Short histories fall back to the full-span gain.
  const auto early = early_stop_state(0, 50, {0.1});
  EXPECT_DOUBLE_EQ(early[2], 0.0);
  EXPECT_THROW(early_stop_state(0, 50, {}), Error);
}

TEST(EarlyStopState, GainsScaleWithNormalizedPerf) {
  const std::vector<double> small{0.01, 0.02, 0.04};
  std::vector<double> large;
  for (double v : small) large.push_back(v * 100.0);
  const auto a = early_stop_state(2, 50, small);
  const auto b = early_stop_state(2, 50, large);
  for (std::size_t i = 2; i < a.size(); ++i) {
    EXPECT_NEAR(a[i] * 100.0, b[i], 1e-9);
  }
}

TEST(StopReturn, RewardsEarlyEquivalentGains) {
  Rng rng(36);
  LogCurveParams params;
  params.noise_stddev = 0.0;
  params.dip_probability = 0.0;
  params.max_plateaus = 0;
  params.warmup_max_fraction = 0.0;
  LogCurveEpisode curve(params, rng);
  // Same best perf achieved earlier gives a higher return.
  const double early = curve.stop_return(10);
  const double late_gain = curve.best_perf_at(49) - curve.perf_at(0);
  const double early_gain = curve.best_perf_at(10) - curve.perf_at(0);
  if (early_gain > 0.8 * late_gain) {
    EXPECT_GT(early, curve.stop_return(49) * 0.9);
  }
}

}  // namespace
}  // namespace tunio::rl

#include "rl/log_curve_env.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace tunio::rl {

namespace {

/// perf(0), normalized.
constexpr double kInitialMin = 0.05, kInitialMax = 0.30;
constexpr double kGainMin = 0.3, kGainMax = 0.9;       ///< asymptotic gain
constexpr double kGrowthMin = 0.15, kGrowthMax = 1.2;  ///< log growth rate
constexpr double kDipDepth = 0.15;  ///< relative dip magnitude
/// Length range, in iterations, of one plateau window.
constexpr unsigned kPlateauMin = 4;
constexpr unsigned kPlateauMax = 10;

}  // namespace

LogCurveEpisode::LogCurveEpisode(const LogCurveParams& params, Rng& rng)
    : max_iterations_(params.max_iterations) {
  TUNIO_CHECK_MSG(max_iterations_ > 1, "episode needs > 1 iteration");
  const double initial = rng.uniform(kInitialMin, kInitialMax);
  const double gain = rng.uniform(kGainMin, kGainMax);
  const double growth = rng.uniform(kGrowthMin, kGrowthMax);
  const unsigned warmup = static_cast<unsigned>(rng.uniform(
      0.0, params.warmup_max_fraction * static_cast<double>(max_iterations_)));

  // Plateau windows: progress stalls, then resumes where the curve would
  // have been (a coordinated parameter change finally lands).
  std::vector<std::pair<unsigned, unsigned>> plateaus;
  const unsigned num_plateaus =
      params.max_plateaus == 0
          ? 0
          : static_cast<unsigned>(rng.uniform_int(0, params.max_plateaus));
  for (unsigned i = 0; i < num_plateaus; ++i) {
    const unsigned start = static_cast<unsigned>(
        rng.uniform_int(2, std::max(3u, max_iterations_ - 5)));
    const unsigned len = static_cast<unsigned>(
        rng.uniform_int(kPlateauMin, kPlateauMax));
    plateaus.emplace_back(start, len);
  }

  curve_.reserve(max_iterations_);
  best_so_far_.reserve(max_iterations_);
  double best = 0.0;
  int dip_remaining = 0;
  double dip_scale = 1.0;
  unsigned stalled = 0;  // iterations consumed by plateaus so far
  for (unsigned t = 0; t < max_iterations_; ++t) {
    bool in_plateau = false;
    for (const auto& [start, len] : plateaus) {
      if (t >= start && t < start + len) in_plateau = true;
    }
    if (in_plateau) ++stalled;
    const unsigned consumed = stalled + warmup;
    const double progress =
        t > consumed ? static_cast<double>(t - consumed) : 0.0;
    const double denom = std::log1p(
        growth * static_cast<double>(std::max(1u, max_iterations_ - 1 -
                                                      warmup)));
    double value = initial + gain * std::log1p(growth * progress) / denom;
    // Randomized downward shifts: the tuner briefly explores a bad
    // parameter choice before adjusting.
    if (dip_remaining == 0 && rng.chance(params.dip_probability)) {
      dip_remaining = static_cast<int>(rng.uniform_int(1, 3));
      dip_scale = 1.0 - rng.uniform(0.3, 1.0) * kDipDepth;
    }
    if (dip_remaining > 0) {
      value *= dip_scale;
      --dip_remaining;
    }
    value += rng.normal(0.0, params.noise_stddev);
    value = std::clamp(value, 0.0, 2.0);
    curve_.push_back(value);
    best = std::max(best, value);
    best_so_far_.push_back(best);
  }
}

double LogCurveEpisode::best_perf_at(unsigned t) const {
  TUNIO_CHECK_MSG(t < best_so_far_.size(), "iteration out of range");
  return best_so_far_[t];
}

double LogCurveEpisode::perf_at(unsigned t) const {
  TUNIO_CHECK_MSG(t < curve_.size(), "iteration out of range");
  return curve_[t];
}

double LogCurveEpisode::stop_return(unsigned t) const {
  TUNIO_CHECK_MSG(t < curve_.size(), "iteration out of range");
  const double gain = best_so_far_[t] - curve_.front();
  // Scale by the episode length so a full-budget run scores ~gain.
  return gain * static_cast<double>(max_iterations_) /
         static_cast<double>(t + 1);
}

double LogCurveEpisode::best_possible_return() const {
  double best = 0.0;
  for (unsigned t = 0; t < max_iterations_; ++t) {
    best = std::max(best, stop_return(t));
  }
  return best;
}

std::vector<double> early_stop_state(unsigned iteration,
                                     unsigned max_iterations,
                                     const std::vector<double>& best_history) {
  TUNIO_CHECK_MSG(!best_history.empty(), "state needs at least one sample");
  const double best = best_history.back();
  // Gains are absolute in normalized-perf units: the caller's normalizer
  // (BW_single x num_nodes, per the paper) maps every workload onto the
  // same [0, ~1] range the offline curves are drawn from.
  auto gain_over = [&](unsigned span) {
    if (best_history.size() <= span) return best - best_history.front();
    return best - best_history[best_history.size() - 1 - span];
  };
  return {
      static_cast<double>(iteration) /
          static_cast<double>(std::max(1u, max_iterations)),
      best,
      gain_over(1),
      gain_over(3),
      gain_over(5),
  };
}

}  // namespace tunio::rl

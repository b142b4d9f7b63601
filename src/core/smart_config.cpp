#include "core/smart_config.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.hpp"
#include "nn/pca.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"

namespace tunio::core {

namespace {

constexpr double kPerfNormalizerMbps = 40'000.0;  ///< BW_single x num_nodes
constexpr std::size_t kEmbeddingDim = 8;
/// Sweep granularity: at most this many values probed per parameter.
constexpr unsigned kSweepValuesPerParam = 5;
constexpr std::uint64_t kSeed = 0x5C9'001;

}  // namespace

SmartConfigGen::SmartConfigGen(const cfg::ConfigSpace& space)
    : space_(space),
      rng_(kSeed),
      observer_(space.num_parameters() + 2, kEmbeddingDim, rng_.fork()),
      picker_(kEmbeddingDim, space.num_parameters(), rng_.fork(),
              [] {
                rl::QAgentOptions q;
                q.hidden = 24;
                q.gamma = 0.9;
                q.epsilon = 0.30;
                q.epsilon_min = 0.15;  // keep probing other subset sizes
                q.reward_delay = 5;  // the paper's 5-iteration delay
                return q;
              }()),
      impact_(space.num_parameters(),
              1.0 / static_cast<double>(space.num_parameters())),
      hint_boost_(space.num_parameters(), 0.0) {}

void SmartConfigGen::apply_hints(
    const std::vector<std::pair<std::string, double>>& hints) {
  for (const auto& [name, weight] : hints) {
    if (!space_.has(name)) continue;
    const std::size_t idx = space_.index_of(name);
    hint_boost_[idx] =
        std::max(hint_boost_[idx], std::clamp(weight, 0.0, 1.0));
  }
  boost_impact();
}

void SmartConfigGen::boost_impact() {
  double total = 0.0;
  for (std::size_t i = 0; i < impact_.size(); ++i) {
    impact_[i] *= 1.0 + hint_boost_[i];
    total += impact_[i];
  }
  if (total > 0.0) {
    for (double& x : impact_) x /= total;
  }
}

std::vector<double> SmartConfigGen::context_vector(
    const std::vector<std::size_t>& subset, double norm_perf,
    double norm_gain) const {
  std::vector<double> context(space_.num_parameters() + 2, 0.0);
  for (std::size_t p : subset) {
    TUNIO_CHECK_MSG(p < space_.num_parameters(), "subset index out of range");
    context[p] = 1.0;
  }
  context[space_.num_parameters()] = norm_perf;
  context[space_.num_parameters() + 1] = norm_gain;
  return context;
}

std::vector<std::size_t> SmartConfigGen::ranking() const {
  std::vector<std::size_t> order(space_.num_parameters());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return impact_[a] > impact_[b];
  });
  return order;
}

std::vector<std::size_t> SmartConfigGen::prefix_subset(
    std::size_t size) const {
  const std::vector<std::size_t> order = ranking();
  std::vector<std::size_t> subset(
      order.begin(),
      order.begin() + std::min(size, order.size()));
  return subset;
}

std::vector<std::vector<SweepSample>> SmartConfigGen::train_offline(
    const std::vector<tuner::Objective*>& kernels) {
  TUNIO_CHECK_MSG(!kernels.empty(), "offline training needs kernels");
  std::vector<std::vector<SweepSample>> all_samples;
  const std::size_t dim = space_.num_parameters();

  // Accumulated per-parameter relative perf ranges across kernels.
  std::vector<double> range_impact(dim, 0.0);
  // PCA dataset: rows = (normalized parameter positions..., norm perf).
  std::vector<std::vector<double>> pca_rows;

  for (tuner::Objective* kernel : kernels) {
    TUNIO_CHECK(kernel != nullptr);
    std::vector<SweepSample> samples;
    const cfg::Configuration defaults = space_.default_configuration();
    const double base_perf = kernel->evaluate(defaults).perf_mbps;

    for (std::size_t p = 0; p < dim; ++p) {
      const auto& domain = space_.parameter(p).domain;
      // Probe at most kSweepValuesPerParam values, spread evenly.
      const unsigned probes = std::min<unsigned>(
          kSweepValuesPerParam, static_cast<unsigned>(domain.size()));
      double lo = base_perf, hi = base_perf;
      for (unsigned k = 0; k < probes; ++k) {
        const std::size_t index =
            probes == 1 ? 0 : k * (domain.size() - 1) / (probes - 1);
        cfg::Configuration probe = defaults;
        probe.set_index(p, index);
        const double perf = kernel->evaluate(probe).perf_mbps;
        samples.push_back({p, index, perf});
        lo = std::min(lo, perf);
        hi = std::max(hi, perf);

        std::vector<double> row(dim + 1, 0.0);
        for (std::size_t j = 0; j < dim; ++j) {
          const auto& dj = space_.parameter(j).domain;
          const std::size_t idx = j == p ? index
                                         : space_.parameter(j).default_index;
          row[j] = dj.size() > 1
                       ? static_cast<double>(idx) /
                             static_cast<double>(dj.size() - 1)
                       : 0.0;
        }
        const double norm_perf = perf / kPerfNormalizerMbps;
        row[dim] = norm_perf;
        pca_rows.push_back(std::move(row));

        // The observer learns perf prediction from every probe.
        observer_.update(context_vector({p}, norm_perf, 0.0), norm_perf);
      }
      if (base_perf > 0.0) {
        range_impact[p] += (hi - lo) / base_perf;
      }
    }
    all_samples.push_back(std::move(samples));
  }

  // "A PCA analysis is performed on the parameters with respect to perf":
  // impact of parameter i = Σ_k λ_k |w_k,i| |w_k,perf| — the strength of
  // i's co-variation with the objective across dominant components.
  const nn::PcaResult pca = nn::pca_fit(pca_rows);
  std::vector<double> pca_impact(dim, 0.0);
  for (std::size_t k = 0; k < pca.components.size(); ++k) {
    const double perf_loading = std::abs(pca.components[k][dim]);
    for (std::size_t i = 0; i < dim; ++i) {
      pca_impact[i] +=
          pca.eigenvalues[k] * std::abs(pca.components[k][i]) * perf_loading;
    }
  }

  auto normalize = [](std::vector<double>& v) {
    const double total = std::accumulate(v.begin(), v.end(), 0.0);
    if (total > 0.0) {
      for (double& x : v) x /= total;
    }
  };
  normalize(range_impact);
  normalize(pca_impact);
  for (std::size_t i = 0; i < dim; ++i) {
    impact_[i] = 0.5 * range_impact[i] + 0.5 * pca_impact[i];
  }
  normalize(impact_);
  // Static-analysis hints survive retraining: the measured impact is
  // re-biased so hinted parameters keep their head start in the ranking
  // (and in the Q-value seeding below, which follows the ranking).
  boost_impact();

  // Seed the picker's Q-values from the sweeps: the value of prefix size
  // k+1 is the impact mass it covers, discounted sub-linearly by subset
  // size — strong enough to start with small high-impact subsets, weak
  // enough for online rewards to overturn once a subset stops paying.
  const std::vector<std::size_t> order = ranking();
  for (unsigned pass = 0; pass < 30; ++pass) {
    for (std::size_t k = 0; k < dim; ++k) {
      double covered = 0.0;
      for (std::size_t j = 0; j <= k; ++j) covered += impact_[order[j]];
      const double size_fraction =
          static_cast<double>(k + 1) / static_cast<double>(dim);
      const double value = 0.5 * covered / std::sqrt(size_fraction);
      const std::vector<double> state = observer_.observe(
          context_vector(prefix_subset(k + 1), 0.5, 0.1));
      picker_.observe(state, k, value, state, true);
    }
    picker_.learn(2);
  }
  offline_trained_ = true;
  return all_samples;
}

std::vector<std::size_t> SmartConfigGen::subset_picker(
    double perf_mbps, const std::vector<std::size_t>& current_subset) {
  const double norm_perf = perf_mbps / kPerfNormalizerMbps;
  const double gain =
      has_last_ && last_norm_perf_ > 0.0
          ? std::clamp((norm_perf - last_norm_perf_) / last_norm_perf_, -1.0,
                       1.0)
          : 0.0;
  const std::vector<double> context =
      context_vector(current_subset, norm_perf, gain);
  observer_.update(context, norm_perf);
  const std::vector<double> state = observer_.observe(context);

  // Credit the previous pick. The paper's reward is norm(perf) scaled by
  // the inverse subset size (performance per unit of search space, with
  // the agent's built-in 5-iteration delay); a gain term teaches the
  // agent that a stagnating subset has stopped paying.
  if (has_last_) {
    const double size_fraction =
        current_subset.empty()
            ? 1.0
            : static_cast<double>(current_subset.size()) /
                  static_cast<double>(space_.num_parameters());
    // Stagnation drains a subset's value; fresh gains boost it.
    const double stagnation = gain <= 1e-6 ? 0.3 : 1.0;
    const double reward =
        stagnation * (0.6 * norm_perf + 0.4 * std::max(0.0, gain * 8.0)) /
        std::sqrt(size_fraction) / static_cast<double>(space_.num_parameters());
    picker_.observe(last_state_, last_action_, reward, state, false);
    picker_.learn(1);
  }
  last_norm_perf_ = norm_perf;

  const std::size_t action = picker_.select(state);
  last_state_ = state;
  last_action_ = action;
  has_last_ = true;

  static obs::Counter* picks =
      &obs::MetricsRegistry::global().counter("rl.subset_picker.decisions");
  picks->add(1);
  obs::Tracer& tracer = obs::Tracer::global();
  if (tracer.enabled()) {
    // Picker decisions live between generations; stamp them with the
    // tuner's ambient budget time (set by TunerBase::observe).
    tracer.instant("rl", "subset_pick", obs::Tracer::ambient_seconds(),
                   obs::kPidRl, /*tid=*/1,
                   {{"subset_size", std::to_string(action + 1)},
                    {"perf_mbps", obs::json_number(perf_mbps)},
                    {"gain", obs::json_number(gain)}});
  }
  return prefix_subset(action + 1);
}

void SmartConfigGen::reset_episode() {
  has_last_ = false;
  last_state_.clear();
  last_action_ = 0;
  last_norm_perf_ = 0.0;
}

}  // namespace tunio::core

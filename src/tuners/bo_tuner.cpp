#include "tuners/bo_tuner.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.hpp"

namespace tunio::tuners {

namespace {

/// Candidate pool evaluated by the acquisition per batch slot.
constexpr unsigned kCandidatePool = 160;
/// RBF length scale over the dimension-normalized squared distance.
constexpr double kLengthScale = 0.35;
/// Observation noise on the standardized scale (keeps K well-posed).
constexpr double kNugget = 1e-3;
/// Exploration margin of the expected-improvement acquisition.
constexpr double kEiXi = 0.01;
/// Surrogate fit cap: beyond this many observations, the fit keeps the
/// best quarter plus the most recent remainder (O(n^3) guard).
constexpr std::size_t kMaxObservations = 224;

/// Dense Gaussian process with an RBF kernel, fit by Cholesky
/// factorization. Sized for tuning budgets (a few hundred observations);
/// everything is plain O(n^2)/O(n^3) double math, fully deterministic.
class Gp {
 public:
  Gp(const std::vector<std::vector<double>>& xs, const std::vector<double>& ys)
      : xs_(xs) {
    const std::size_t n = xs.size();
    TUNIO_CHECK_MSG(n > 0 && ys.size() == n, "GP needs matching data");
    dims_ = xs.front().size();

    // Standardize targets so kernel amplitudes and nuggets are scale-free.
    y_mean_ = std::accumulate(ys.begin(), ys.end(), 0.0) / n;
    double var = 0.0;
    for (double y : ys) var += (y - y_mean_) * (y - y_mean_);
    y_std_ = std::sqrt(var / n);
    if (y_std_ < 1e-12) y_std_ = 1.0;

    std::vector<double> k(n * n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j <= i; ++j) {
        const double v = kernel(xs[i], xs[j]);
        k[i * n + j] = v;
        k[j * n + i] = v;
      }
    }
    // Cholesky with escalating jitter: duplicate-free data plus the
    // nugget almost always factors on the first try.
    lower_.assign(n * n, 0.0);
    double jitter = kNugget;
    for (int attempt = 0; attempt < 6; ++attempt) {
      if (cholesky(k, jitter, n)) break;
      jitter *= 10.0;
      TUNIO_CHECK_MSG(attempt + 1 < 6, "GP kernel matrix is not PD");
    }

    std::vector<double> y_standardized(n);
    for (std::size_t i = 0; i < n; ++i) {
      y_standardized[i] = (ys[i] - y_mean_) / y_std_;
    }
    alpha_ = solve(y_standardized);
  }

  /// Posterior mean (raw units) and standard deviation (raw units).
  void predict(const std::vector<double>& x, double& mean,
               double& stddev) const {
    const std::size_t n = xs_.size();
    std::vector<double> kstar(n);
    for (std::size_t i = 0; i < n; ++i) kstar[i] = kernel(x, xs_[i]);
    double mu = 0.0;
    for (std::size_t i = 0; i < n; ++i) mu += kstar[i] * alpha_[i];
    // var = k(x,x) - k*^T K^-1 k* via one triangular solve.
    const std::vector<double> v = forward_solve(kstar);
    double quad = 0.0;
    for (double value : v) quad += value * value;
    const double var = std::max(0.0, 1.0 - quad);
    mean = y_mean_ + y_std_ * mu;
    stddev = y_std_ * std::sqrt(var);
  }

 private:
  double kernel(const std::vector<double>& a,
                const std::vector<double>& b) const {
    double r2 = 0.0;
    for (std::size_t d = 0; d < dims_; ++d) {
      const double diff = a[d] - b[d];
      r2 += diff * diff;
    }
    r2 /= static_cast<double>(dims_);
    return std::exp(-r2 / (2.0 * kLengthScale * kLengthScale));
  }

  bool cholesky(const std::vector<double>& k, double jitter, std::size_t n) {
    std::fill(lower_.begin(), lower_.end(), 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j <= i; ++j) {
        double sum = k[i * n + j] + (i == j ? jitter : 0.0);
        for (std::size_t m = 0; m < j; ++m) {
          sum -= lower_[i * n + m] * lower_[j * n + m];
        }
        if (i == j) {
          if (sum <= 0.0) return false;
          lower_[i * n + i] = std::sqrt(sum);
        } else {
          lower_[i * n + j] = sum / lower_[j * n + j];
        }
      }
    }
    return true;
  }

  /// L z = b.
  std::vector<double> forward_solve(const std::vector<double>& b) const {
    const std::size_t n = xs_.size();
    std::vector<double> z(n);
    for (std::size_t i = 0; i < n; ++i) {
      double sum = b[i];
      for (std::size_t j = 0; j < i; ++j) sum -= lower_[i * n + j] * z[j];
      z[i] = sum / lower_[i * n + i];
    }
    return z;
  }

  /// K a = b (forward then backward substitution).
  std::vector<double> solve(const std::vector<double>& b) const {
    const std::size_t n = xs_.size();
    std::vector<double> z = forward_solve(b);
    std::vector<double> a(n);
    for (std::size_t ii = n; ii-- > 0;) {
      double sum = z[ii];
      for (std::size_t j = ii + 1; j < n; ++j) sum -= lower_[j * n + ii] * a[j];
      a[ii] = sum / lower_[ii * n + ii];
    }
    return a;
  }

  const std::vector<std::vector<double>>& xs_;
  std::size_t dims_ = 0;
  double y_mean_ = 0.0;
  double y_std_ = 1.0;
  std::vector<double> lower_;  ///< row-major L of K = L L^T
  std::vector<double> alpha_;  ///< K^-1 y (standardized)
};

constexpr double kSqrt2Pi = 2.50662827463100050;

double normal_pdf(double z) { return std::exp(-0.5 * z * z) / kSqrt2Pi; }

double normal_cdf(double z) { return 0.5 * std::erfc(-z / std::sqrt(2.0)); }

/// Expected improvement over `best` (maximization).
double expected_improvement(double mean, double stddev, double best,
                            double xi) {
  if (stddev < 1e-12) return std::max(0.0, mean - best - xi);
  const double z = (mean - best - xi) / stddev;
  return (mean - best - xi) * normal_cdf(z) + stddev * normal_pdf(z);
}

}  // namespace

BoTuner::BoTuner(const cfg::ConfigSpace& space, const TunerSpec& spec)
    : TunerBase("bo", space),
      batch_(spec.batch),
      max_iterations_(spec.max_iterations),
      rng_(spec.seed) {
  TUNIO_CHECK_MSG(batch_ > 0, "BO batch must be positive");
  if (spec.seed_indices.has_value()) {
    TUNIO_CHECK_MSG(spec.seed_indices->size() == space.num_parameters(),
                    "seed configuration arity mismatch");
    incumbent_ = *spec.seed_indices;
  } else {
    incumbent_ = space.default_configuration().indices();
  }
}

std::vector<double> BoTuner::encode(
    const std::vector<std::size_t>& indices) const {
  std::vector<double> x(indices.size());
  for (std::size_t p = 0; p < indices.size(); ++p) {
    const std::size_t n = space().parameter(p).domain.size();
    x[p] = n <= 1 ? 0.5
                  : static_cast<double>(indices[p]) /
                        static_cast<double>(n - 1);
  }
  return x;
}

std::vector<std::size_t> BoTuner::random_indices() {
  std::vector<std::size_t> indices(space().num_parameters());
  for (std::size_t p = 0; p < indices.size(); ++p) {
    indices[p] = rng_.index(space().parameter(p).domain.size());
  }
  return indices;
}

std::vector<std::size_t> BoTuner::mutated_incumbent() {
  // Local moves around the best genome: step one or two parameters to a
  // neighboring domain index (the domains are ordered, so +-1 index is
  // the smallest meaningful move).
  std::vector<std::size_t> indices = incumbent_;
  const unsigned moves = 1 + static_cast<unsigned>(rng_.chance(0.5));
  for (unsigned m = 0; m < moves; ++m) {
    const std::size_t p = rng_.index(indices.size());
    const std::size_t n = space().parameter(p).domain.size();
    if (n <= 1) continue;
    if (rng_.chance(0.5)) {
      indices[p] = indices[p] + 1 < n ? indices[p] + 1 : indices[p] - 1;
    } else {
      indices[p] = indices[p] > 0 ? indices[p] - 1 : indices[p] + 1;
    }
  }
  return indices;
}

std::vector<cfg::Configuration> BoTuner::next_batch() {
  std::vector<cfg::Configuration> batch;
  auto is_new = [&](const std::vector<std::size_t>& indices) {
    return std::find(seen_.begin(), seen_.end(), hash_indices(indices)) ==
           seen_.end();
  };
  auto take = [&](const std::vector<std::size_t>& indices) {
    seen_.push_back(hash_indices(indices));
    batch.emplace_back(&space(), indices);
  };

  if (iteration() == 0) {
    // Warmup design: the starting point plus seeded explorers.
    take(incumbent_);
    const unsigned warmup = std::max(batch_, 2u);
    unsigned attempts = 0;
    while (batch.size() < warmup && attempts < warmup * 20) {
      const std::vector<std::size_t> candidate = random_indices();
      if (is_new(candidate)) take(candidate);
      ++attempts;
    }
    return batch;
  }

  // Surrogate-guided batch. Pending picks are hallucinated at their
  // posterior mean ("kriging believer") so one batch spreads out instead
  // of proposing the acquisition argmax `batch` times.
  std::vector<std::vector<double>> xs = xs_;
  std::vector<double> ys = ys_;
  for (unsigned slot = 0; slot < batch_; ++slot) {
    const Gp gp(xs, ys);
    const double best = *std::max_element(ys.begin(), ys.end());

    double best_ei = -1.0;
    std::vector<std::size_t> best_candidate;
    double best_mean = 0.0;
    for (unsigned c = 0; c < kCandidatePool; ++c) {
      // Half the pool explores uniformly, half exploits locally.
      const std::vector<std::size_t> candidate =
          c % 2 == 0 ? random_indices() : mutated_incumbent();
      if (!is_new(candidate)) continue;
      double mean = 0.0;
      double stddev = 0.0;
      gp.predict(encode(candidate), mean, stddev);
      const double ei = expected_improvement(mean, stddev, best, kEiXi);
      if (ei > best_ei) {
        best_ei = ei;
        best_candidate = candidate;
        best_mean = mean;
      }
    }
    if (best_candidate.empty()) break;  // pool exhausted (tiny spaces)
    take(best_candidate);
    xs.push_back(encode(best_candidate));
    ys.push_back(best_mean);  // hallucinated outcome for the pending point
  }
  return batch;
}

void BoTuner::absorb(const std::vector<cfg::Configuration>& batch,
                     const std::vector<tuner::Evaluation>& evals) {
  for (std::size_t i = 0; i < batch.size(); ++i) {
    xs_.push_back(encode(batch[i].indices()));
    ys_.push_back(evals[i].perf_mbps);
    if (evals[i].perf_mbps >= best_perf()) {
      incumbent_ = batch[i].indices();
    }
  }
  // O(n^3) guard: keep the best quarter plus the most recent remainder.
  if (xs_.size() > kMaxObservations) {
    const std::size_t keep_best = kMaxObservations / 4;
    const std::size_t keep_recent = kMaxObservations - keep_best;
    std::vector<std::size_t> order(xs_.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return ys_[a] > ys_[b]; });
    std::vector<bool> keep(xs_.size(), false);
    for (std::size_t i = 0; i < keep_best; ++i) keep[order[i]] = true;
    for (std::size_t i = xs_.size(), kept = 0;
         i-- > 0 && kept < keep_recent;) {
      if (!keep[i]) {
        keep[i] = true;
        ++kept;
      }
    }
    std::vector<std::vector<double>> xs;
    std::vector<double> ys;
    for (std::size_t i = 0; i < xs_.size(); ++i) {
      if (keep[i]) {
        xs.push_back(std::move(xs_[i]));
        ys.push_back(ys_[i]);
      }
    }
    xs_ = std::move(xs);
    ys_ = std::move(ys);
  }
  if (iteration() + 1 >= max_iterations_) set_done();
}

}  // namespace tunio::tuners

// Asynchronous batched Bayesian optimization over the config space.
//
// In the spirit of Dorier et al.'s asynchronous BO for HPC storage
// tuning (PAPERS.md): a surrogate model over the encoded configuration
// space proposes whole batches via expected improvement, hallucinating
// the outcomes of still-pending points ("kriging believer") so the
// parallel evaluation engine behind `Objective::evaluate_batch` stays
// fully utilized instead of waiting for one point at a time.
//
// The surrogate is a Gaussian process with an RBF kernel over the
// normalized domain-index encoding (each parameter's index mapped to
// [0, 1]; the domains are ordered by construction, so neighboring
// indices are neighboring values). Observed perf is standardized before
// fitting; predictions are destandardized for the acquisition. Candidate
// points come from a seeded pool of uniform draws plus mutations of the
// incumbent, so the whole search is deterministic in (seed, objective).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "tuners/tuner_base.hpp"

namespace tunio::tuners {

struct BoOptions {
  /// Proposals per iteration (sized to the evaluation engine's width).
  unsigned batch = 8;
  /// Seeded warmup configurations (defaults + explorers) before the
  /// surrogate takes over.
  unsigned initial_design = 8;
  /// Iteration horizon (the driver's budget usually stops earlier).
  unsigned max_iterations = 50;
  std::uint64_t seed = 0xB0'5EED;
  /// Optional starting configuration (domain indices); defaults start.
  std::optional<std::vector<std::size_t>> seed_indices;
};

class BoTuner final : public TunerBase {
 public:
  BoTuner(const cfg::ConfigSpace& space, BoOptions options = {});

  /// Observations absorbed so far (for tests).
  std::size_t observations() const { return xs_.size(); }

 protected:
  std::vector<cfg::Configuration> next_batch() override;
  void absorb(const std::vector<cfg::Configuration>& batch,
              const std::vector<tuner::Evaluation>& evals) override;

 private:
  std::vector<double> encode(const std::vector<std::size_t>& indices) const;
  std::vector<std::size_t> random_indices();
  std::vector<std::size_t> mutated_incumbent();

  BoOptions options_;
  Rng rng_;
  std::vector<std::size_t> incumbent_;  ///< best genome observed
  /// Observed data set (encoded points / raw perf).
  std::vector<std::vector<double>> xs_;
  std::vector<double> ys_;
  /// Genome hashes ever proposed or observed (dedup).
  std::vector<std::uint64_t> seen_;
};

}  // namespace tunio::tuners

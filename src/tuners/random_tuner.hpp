// Seeded uniform random search — the tournament's control backend.
//
// Proposes fixed-size batches of uniform draws from the configuration
// space (the first batch leads with the starting point so
// `initial_perf` means the same thing as everywhere else). Any backend
// claiming to be "sample efficient" has to beat this on
// best-bandwidth-per-evaluation; see bench/tuner_tournament.
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "tuners/registry.hpp"
#include "tuners/tuner_base.hpp"

namespace tunio::tuners {

class RandomTuner final : public TunerBase {
 public:
  /// Reads `seed`, `batch`, `max_iterations` and `seed_indices`.
  RandomTuner(const cfg::ConfigSpace& space, const TunerSpec& spec);

 protected:
  std::vector<cfg::Configuration> next_batch() override;
  void absorb(const std::vector<cfg::Configuration>& batch,
              const std::vector<tuner::Evaluation>& evals) override;

 private:
  unsigned batch_;
  unsigned max_iterations_;
  std::vector<std::size_t> start_;  ///< leads the first batch
  Rng rng_;
};

}  // namespace tunio::tuners

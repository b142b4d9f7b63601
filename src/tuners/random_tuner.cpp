#include "tuners/random_tuner.hpp"

#include "common/error.hpp"

namespace tunio::tuners {

RandomTuner::RandomTuner(const cfg::ConfigSpace& space, const TunerSpec& spec)
    : TunerBase("random", space),
      batch_(spec.batch),
      max_iterations_(spec.max_iterations),
      start_(spec.seed_indices.value_or(
          space.default_configuration().indices())),
      rng_(spec.seed) {
  TUNIO_CHECK_MSG(batch_ > 0, "random batch must be positive");
  TUNIO_CHECK_MSG(start_.size() == space.num_parameters(),
                  "seed configuration arity mismatch");
}

std::vector<cfg::Configuration> RandomTuner::next_batch() {
  std::vector<cfg::Configuration> batch;
  if (iteration() == 0) batch.emplace_back(&space(), start_);
  while (batch.size() < batch_) {
    std::vector<std::size_t> indices(space().num_parameters());
    for (std::size_t p = 0; p < indices.size(); ++p) {
      indices[p] = rng_.index(space().parameter(p).domain.size());
    }
    batch.emplace_back(&space(), std::move(indices));
  }
  return batch;
}

void RandomTuner::absorb(const std::vector<cfg::Configuration>&,
                         const std::vector<tuner::Evaluation>&) {
  if (iteration() + 1 >= max_iterations_) set_done();
}

}  // namespace tunio::tuners

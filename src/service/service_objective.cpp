#include "service/service_objective.hpp"

namespace tunio::service {

ServiceObjective::ServiceObjective(tuner::Objective& inner, EvalEngine& engine,
                                   ResultCache& cache,
                                   std::uint64_t fingerprint)
    : inner_(inner), engine_(engine), cache_(cache), fingerprint_(fingerprint) {}

tuner::Evaluation ServiceObjective::evaluate(const cfg::Configuration& config) {
  return evaluate_batch({config}).front();
}

std::vector<tuner::Evaluation> ServiceObjective::evaluate_batch(
    const std::vector<cfg::Configuration>& configs) {
  std::vector<tuner::Evaluation> results(configs.size());

  // Satisfy what the shared cache already knows.
  std::vector<cfg::Configuration> misses;
  std::vector<std::size_t> miss_slot;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    if (auto hit = cache_.get(fingerprint_, configs[i].indices())) {
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
      hit->eval_seconds = 0.0;  // billed like a fitness-cache hit
      results[i] = *hit;
      continue;
    }
    cache_misses_.fetch_add(1, std::memory_order_relaxed);
    misses.push_back(configs[i]);
    miss_slot.push_back(i);
  }

  // Fan the fresh work out over the engine.
  const std::vector<tuner::Evaluation> fresh =
      engine_.evaluate_batch(inner_, misses);
  for (std::size_t m = 0; m < misses.size(); ++m) {
    cache_.put(fingerprint_, misses[m].indices(), fresh[m]);
    results[miss_slot[m]] = fresh[m];
  }
  return results;
}

}  // namespace tunio::service

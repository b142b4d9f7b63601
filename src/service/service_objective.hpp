// ServiceObjective: the decorator that plugs a tuning run into the
// service machinery.
//
// It wraps any `tuner::Objective` and, per batch, (1) satisfies genomes
// from the shared `ResultCache` and (2) fans the misses out over the
// `EvalEngine`. Because the built-in objectives are deterministic per
// (testbed seed, genome), a cache hit returns exactly what a re-run
// would have produced — so it is billed like `GeneticTuner`'s own
// fitness cache: `eval_seconds = 0`, nothing was re-run. The real cost
// the hit avoided is tracked in `ResultCache::Stats::seconds_saved`.
#pragma once

#include <atomic>
#include <cstdint>

#include "service/eval_engine.hpp"
#include "service/result_cache.hpp"
#include "tuner/objective.hpp"

namespace tunio::service {

class ServiceObjective final : public tuner::Objective {
 public:
  /// `inner`, `engine` and `cache` must outlive this objective.
  /// `fingerprint` is the cache namespace; it must identify the workload
  /// *and* testbed so two jobs share entries only when their evaluations
  /// are interchangeable.
  ServiceObjective(tuner::Objective& inner, EvalEngine& engine,
                   ResultCache& cache, std::uint64_t fingerprint);

  std::string name() const override { return inner_.name(); }
  /// A batch of one: same cache and engine path as `evaluate_batch`.
  tuner::Evaluation evaluate(const cfg::Configuration& config) override;
  std::vector<tuner::Evaluation> evaluate_batch(
      const std::vector<cfg::Configuration>& configs) override;
  bool concurrent_safe() const override { return inner_.concurrent_safe(); }
  tuner::ReplayGate replay_gate() const override {
    return inner_.replay_gate();
  }
  /// Fresh (non-cached) evaluations only — cache hits run nothing.
  std::uint64_t evaluations() const override { return inner_.evaluations(); }

  std::uint64_t cache_hits() const {
    return cache_hits_.load(std::memory_order_relaxed);
  }
  std::uint64_t cache_misses() const {
    return cache_misses_.load(std::memory_order_relaxed);
  }

 private:
  tuner::Objective& inner_;
  EvalEngine& engine_;
  ResultCache& cache_;
  std::uint64_t fingerprint_;
  std::atomic<std::uint64_t> cache_hits_{0};
  std::atomic<std::uint64_t> cache_misses_{0};
};

}  // namespace tunio::service

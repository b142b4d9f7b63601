// Shared bookkeeping for every backend.
//
// `TunerBase` owns everything every backend must report identically —
// the propose/observe handshake, the `TuningResult` history, best-config
// tracking, simulated-budget accounting, per-backend metrics and tracer
// spans on the tuning-budget clock — so a concrete backend only
// implements its search logic: `next_batch()` (what to try) and
// `absorb()` (what to learn).
//
// Convention: the first configuration of the first batch is the
// starting point (the stack defaults or the caller's seed), and its
// evaluation is reported as `initial_perf`.
#pragma once

#include <string>
#include <vector>

#include "config/space.hpp"
#include "tuners/tuner.hpp"

namespace tunio::tuners {

class TunerBase : public Tuner {
 public:
  TunerBase(std::string backend_name, const cfg::ConfigSpace& space);

  std::string name() const final { return name_; }
  std::vector<cfg::Configuration> propose() final;
  void observe(const std::vector<tuner::Evaluation>& evals) final;
  const tuner::TuningResult& progress() const final { return result_; }
  bool done() const final { return done_; }
  void finish(bool early_stopped) final;

 protected:
  /// The next batch of configurations to evaluate. Backends signal
  /// exhaustion with `set_done()` (an empty batch alone is not terminal).
  virtual std::vector<cfg::Configuration> next_batch() = 0;

  /// Learn from the evaluations of the batch `next_batch` returned.
  /// Called after the iteration's history entry is recorded, so
  /// `best_perf()` already reflects this batch.
  virtual void absorb(const std::vector<cfg::Configuration>& batch,
                      const std::vector<tuner::Evaluation>& evals) = 0;

  /// Best perf of the iteration, for its history entry. Default: the
  /// best of `evals`, or -1 for an empty batch. A backend that also
  /// scores configurations it did not send for evaluation (the GA's
  /// fitness-cache hits) counts them.
  virtual double iteration_best(
      const std::vector<tuner::Evaluation>& evals) const;

  /// Parameter subset the iteration tuned (empty = all), for its history
  /// entry.
  virtual std::vector<std::size_t> iteration_subset() const { return {}; }

  /// No further proposals; the driver will stop after this iteration.
  void set_done() { done_ = true; }

  /// Best perf observed so far (-1 before any observation).
  double best_perf() const { return best_perf_; }
  const cfg::ConfigSpace& space() const { return space_; }
  unsigned iteration() const { return iteration_; }

 private:
  const cfg::ConfigSpace& space_;
  std::string name_;
  tuner::TuningResult result_;
  std::vector<cfg::Configuration> pending_;
  bool pending_issued_ = false;
  bool done_ = false;
  unsigned iteration_ = 0;
  double best_perf_ = -1.0;
  double cumulative_seconds_ = 0.0;
};

}  // namespace tunio::tuners

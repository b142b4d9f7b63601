// The benchmark's three tuning jobs. Each job's work is fixed by the
// seed: the same seed gives the same evaluations, the same best
// configuration and the same work counters, whatever the host does.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "config/space.hpp"
#include "layers.hpp"
#include "tuner/objective.hpp"

namespace perfbench {

/// One tuning job's best configuration, the bandwidth the job reported
/// for it, and the space and testbed it was tuned on.
struct BestConfig {
  std::string job;
  std::vector<std::size_t> indices;
  double perf_mbps = 0.0;
  const cfg::ConfigSpace* space = nullptr;
  tuner::TestbedOptions testbed;
};

/// What one tuning job produced.
struct JobResult {
  double wall_s = 0.0;             ///< host wall time of the job
  std::uint64_t fresh_evals = 0;   ///< evaluations actually run
  std::uint64_t attempted = 0;     ///< evaluations + jobs started
  std::uint64_t failed = 0;        ///< failed evaluations + failed jobs
  double tuned_mbps = 0.0;         ///< best bandwidth found
  double sim_seconds = 0.0;        ///< simulated tuning budget billed
  std::vector<BestConfig> bests;   ///< one per tuning job
  /// Registry counter deltas taken around the job only.
  std::map<std::string, std::uint64_t> counters;
  /// Per-layer metrics (filled for traced jobs).
  std::map<std::string, double> layers;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Everything before the first tuning iteration. May be called several
  /// times; the last call's state is what jobs use.
  virtual void setup(SpanLog& log) = 0;

  /// Per-layer metrics of the last `setup`, from its spans.
  virtual std::map<std::string, double> setup_layers(
      const std::vector<Span>& spans) const;

  /// Runs one tuning job from fresh per-job state. Jobs of one process
  /// with one seed are identical in everything but host time.
  virtual JobResult run_job(SpanLog& log) = 0;

  /// A fresh objective of the job's application on `best`'s testbed with
  /// replay off: the reference the reported best is re-evaluated on.
  virtual std::unique_ptr<tuner::Objective> reference_objective(
      const BestConfig& best) const = 0;

  /// Counters that must repeat exactly from job to job.
  virtual std::vector<std::string> deterministic_counters() const;
};

/// Builds workload `name` for `seed`; throws on an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

/// Per-evaluation work counters reported as `<layer>.<counter>_per_eval`,
/// as (registry counter, metric name) pairs.
const std::vector<std::pair<std::string, std::string>>& data_path_counters();

}  // namespace perfbench

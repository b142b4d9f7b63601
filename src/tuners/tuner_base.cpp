#include "tuners/tuner_base.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"

namespace tunio::tuners {

TunerBase::TunerBase(std::string backend_name, const cfg::ConfigSpace& space)
    : space_(space), name_(std::move(backend_name)) {}

std::vector<cfg::Configuration> TunerBase::propose() {
  TUNIO_CHECK_MSG(!pending_issued_, "propose before observing the last batch");
  TUNIO_CHECK_MSG(!done_, "backend '" + name_ + "' is done");
  pending_ = next_batch();
  pending_issued_ = true;
  return pending_;
}

void TunerBase::observe(const std::vector<tuner::Evaluation>& evals) {
  TUNIO_CHECK_MSG(pending_issued_, "observe without a propose");
  TUNIO_CHECK_MSG(evals.size() == pending_.size(),
                  "evaluate_batch returned wrong arity");
  pending_issued_ = false;

  // Budget accounting sums the *simulated* cost of the evaluations —
  // never wall-clock — so a parallel engine bills exactly what a serial
  // run would.
  double billed_seconds = 0.0;
  for (std::size_t i = 0; i < evals.size(); ++i) {
    billed_seconds += evals[i].eval_seconds;
    // The first observation sets the best, whatever its sign.
    if (!result_.best_config || evals[i].perf_mbps > best_perf_) {
      best_perf_ = evals[i].perf_mbps;
      result_.best_config = pending_[i];
    }
  }
  if (iteration_ == 0 && !evals.empty()) {
    // First config of the first batch is the starting point.
    result_.initial_perf = evals.front().perf_mbps;
  }

  const double iteration_start = cumulative_seconds_;
  cumulative_seconds_ += billed_seconds;
  // Downstream RL hooks (stoppers, subset pickers) run between iterations
  // and own no clock; the ambient timestamp hands them the tuning-budget
  // time so their trace events land on the right axis.
  obs::Tracer::set_ambient_seconds(cumulative_seconds_);

  tuner::GenerationStats stats;
  stats.generation = iteration_;
  stats.generation_best_perf = iteration_best(evals);
  stats.best_perf = best_perf_;
  stats.cumulative_seconds = cumulative_seconds_;
  stats.subset = iteration_subset();
  result_.history.push_back(stats);
  result_.best_perf = best_perf_;
  result_.total_seconds = cumulative_seconds_;
  result_.generations_run = iteration_ + 1;

  obs::MetricsRegistry::global()
      .gauge("tuners." + name_ + ".best_mbps")
      .set(best_perf_);
  obs::Tracer& tracer = obs::Tracer::global();
  if (tracer.enabled()) {
    // Iterations live on the cumulative tuning-budget clock, a different
    // axis from the per-run sim clocks of the stack spans.
    tracer.span("tuner", name_ + ".iteration", iteration_start,
                cumulative_seconds_, obs::kPidTuner, /*tid=*/0,
                {{"iteration", std::to_string(iteration_)},
                 {"best_mbps", obs::json_number(best_perf_)},
                 {"iteration_best_mbps",
                  obs::json_number(stats.generation_best_perf)},
                 {"batch", std::to_string(evals.size())}});
  }

  absorb(pending_, evals);
  pending_.clear();
  ++iteration_;
}

double TunerBase::iteration_best(
    const std::vector<tuner::Evaluation>& evals) const {
  if (evals.empty()) return -1.0;
  double best = evals.front().perf_mbps;
  for (const tuner::Evaluation& eval : evals) {
    best = std::max(best, eval.perf_mbps);
  }
  return best;
}

void TunerBase::finish(bool early_stopped) {
  if (early_stopped) result_.early_stopped = true;
  done_ = true;
}

}  // namespace tunio::tuners

#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace perfbench {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

SpanLog::SpanLog(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

std::uint64_t SpanLog::open(const std::string& name, std::uint64_t parent) {
  if (!enabled_) return 0;
  const double now = seconds_since(epoch_);
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t id = spans_.size() + 1;
  spans_.push_back({name, id, parent, now, -1.0});
  return id;
}

void SpanLog::close(std::uint64_t id) {
  if (id == 0) return;
  const double now = seconds_since(epoch_);
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[id - 1].end_s = now;
}

std::vector<Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::map<std::string, LayerTime> layer_times(const std::vector<Span>& spans) {
  std::map<std::uint64_t, std::vector<std::pair<double, double>>> children;
  for (const Span& span : spans) {
    if (span.parent != 0 && span.end_s >= 0.0) {
      children[span.parent].emplace_back(span.start_s, span.end_s);
    }
  }
  std::map<std::string, LayerTime> out;
  for (const Span& span : spans) {
    if (span.end_s < 0.0) continue;
    const double duration = span.end_s - span.start_s;
    // Children of one span may overlap (evaluations on several engine
    // workers), so self time subtracts the union of their intervals.
    double covered = 0.0;
    auto it = children.find(span.id);
    if (it != children.end()) {
      std::vector<std::pair<double, double>>& kids = it->second;
      std::sort(kids.begin(), kids.end());
      double run_start = 0.0, run_end = -1.0;
      for (const auto& [kid_start, kid_end] : kids) {
        const double lo = std::max(kid_start, span.start_s);
        const double hi = std::min(kid_end, span.end_s);
        if (hi <= lo) continue;
        if (lo > run_end) {
          if (run_end > run_start) covered += run_end - run_start;
          run_start = lo;
          run_end = hi;
        } else {
          run_end = std::max(run_end, hi);
        }
      }
      if (run_end > run_start) covered += run_end - run_start;
    }
    LayerTime& layer = out[span.name];
    layer.total_s += duration;
    layer.self_s += duration - covered;
    ++layer.count;
  }
  return out;
}

Percentile percentile(std::vector<double> values, double q) {
  if (values.empty()) return {};
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return {values[lo] + frac * (values[hi] - values[lo]), values.size()};
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5).value;
}

CounterWindow::CounterWindow(const obs::MetricsRegistry& registry)
    : registry_(registry), start_(registry.snapshot()) {}

std::map<std::string, std::uint64_t> CounterWindow::deltas() const {
  std::map<std::string, std::uint64_t> out;
  for (const auto& counter : registry_.snapshot().counters) {
    out[counter.name] = counter.value - start_.counter(counter.name);
  }
  return out;
}

std::map<std::string, double> per_evaluation(
    const std::map<std::string, std::uint64_t>& deltas,
    const std::vector<std::string>& counters, std::uint64_t evaluations) {
  std::map<std::string, double> out;
  for (const std::string& name : counters) {
    const auto it = deltas.find(name);
    out[name] = it == deltas.end() || evaluations == 0
                    ? 0.0
                    : static_cast<double>(it->second) /
                          static_cast<double>(evaluations);
  }
  return out;
}

TimingObjective::TimingObjective(tuner::Objective& inner, SpanLog& log)
    : inner_(inner), log_(log) {}

tuner::Evaluation TimingObjective::evaluate(const cfg::Configuration& config) {
  ScopedSpan span(log_, "evaluate", parent_.load());
  try {
    tuner::Evaluation eval = inner_.evaluate(config);
    if (!std::isfinite(eval.perf_mbps) || eval.perf_mbps < 0.0) {
      failed_.fetch_add(1);
    }
    return eval;
  } catch (...) {
    failed_.fetch_add(1);
    throw;
  }
}

TimingTuner::TimingTuner(tuners::Tuner& inner, SpanLog& log,
                         TimingObjective& objective, std::uint64_t job_span)
    : inner_(inner), log_(log), objective_(objective), job_span_(job_span) {}

void TimingTuner::close_iteration() {
  log_.close(iteration_);
  iteration_ = 0;
}

std::vector<cfg::Configuration> TimingTuner::propose() {
  close_iteration();
  iteration_ = log_.open("iteration", job_span_);
  objective_.set_parent(iteration_);
  ScopedSpan span(log_, "propose", iteration_);
  proposing_ = span.id();
  std::vector<cfg::Configuration> batch = inner_.propose();
  proposing_ = 0;
  return batch;
}

void TimingTuner::observe(const std::vector<tuner::Evaluation>& evals) {
  ScopedSpan span(log_, "observe", iteration_);
  inner_.observe(evals);
}

}  // namespace perfbench

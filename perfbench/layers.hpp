// Layer timing for the repository benchmark, from outside the program.
//
// Everything here wraps the public interfaces of `src/` without changing
// them: a timing `tuner::Objective` around the real objective, a timing
// `tuners::Tuner` around a search backend, scoped spans around set-up
// calls and RL decisions, and counter windows over the process-wide
// `obs::MetricsRegistry`. Spans are kept in memory and turned into
// per-layer totals and self times when the run ends.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "tuner/objective.hpp"
#include "tuners/tuner.hpp"

namespace perfbench {

namespace cfg = tunio::cfg;
namespace obs = tunio::obs;
namespace tuner = tunio::tuner;
namespace tuners = tunio::tuners;

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `start`.
double seconds_since(Clock::time_point start);

/// One traced interval at a layer boundary. Times are seconds since the
/// log's epoch; `parent` is the id of the span that caused it (0 = root).
struct Span {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  double start_s = 0.0;
  double end_s = 0.0;
};

/// In-memory span recorder, safe to use from several threads. A disabled
/// log records nothing and hands out span id 0, so every wrapper costs
/// one branch when tracing is off.
class SpanLog {
 public:
  explicit SpanLog(bool enabled);

  bool enabled() const { return enabled_; }
  std::uint64_t open(const std::string& name, std::uint64_t parent);
  void close(std::uint64_t id);
  std::vector<Span> spans() const;

 private:
  const bool enabled_;
  const Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  ///< span id = index + 1
};

/// Opens a span on construction and closes it on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const std::string& name, std::uint64_t parent = 0)
      : log_(log), id_(log.open(name, parent)) {}
  ~ScopedSpan() { log_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return id_; }

 private:
  SpanLog& log_;
  std::uint64_t id_;
};

/// Host time of one span name: summed durations, summed self time (each
/// span's duration minus the union of its children's intervals) and the
/// number of spans.
struct LayerTime {
  double total_s = 0.0;
  double self_s = 0.0;
  std::uint64_t count = 0;
};

/// Per-name totals over closed spans.
std::map<std::string, LayerTime> layer_times(const std::vector<Span>& spans);

/// A percentile of a sample together with the sample count it came from.
struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;
};

/// Linear-interpolation percentile (`q` in [0, 1]); {0, 0} when empty.
Percentile percentile(std::vector<double> values, double q);

double median(std::vector<double> values);

/// Counter values of a registry at one moment; `deltas()` gives what
/// every counter gained since then. Counters created after the window
/// opened count from zero.
class CounterWindow {
 public:
  explicit CounterWindow(
      const obs::MetricsRegistry& registry = obs::MetricsRegistry::global());

  std::map<std::string, std::uint64_t> deltas() const;

 private:
  const obs::MetricsRegistry& registry_;
  obs::MetricsSnapshot start_;
};

/// `deltas[counter] / evaluations` for each named counter (0 when the
/// counter did not move or no evaluation ran).
std::map<std::string, double> per_evaluation(
    const std::map<std::string, std::uint64_t>& deltas,
    const std::vector<std::string>& counters, std::uint64_t evaluations);

/// A `tuner::Objective` that times every `evaluate` as a span named
/// "evaluate" under the current parent, and counts evaluations that
/// throw or return a non-finite or negative bandwidth. Forwards the
/// replay gate, concurrency safety and evaluation count, so the search
/// and the service engine treat it exactly like the wrapped objective.
class TimingObjective final : public tuner::Objective {
 public:
  /// `inner` and `log` must outlive this objective.
  TimingObjective(tuner::Objective& inner, SpanLog& log);

  std::string name() const override { return inner_.name(); }
  tuner::Evaluation evaluate(const cfg::Configuration& config) override;
  tuner::ReplayGate replay_gate() const override {
    return inner_.replay_gate();
  }
  bool concurrent_safe() const override { return inner_.concurrent_safe(); }
  std::uint64_t evaluations() const override { return inner_.evaluations(); }

  /// Parent span of the evaluations issued from now on.
  void set_parent(std::uint64_t span) { parent_.store(span); }

  std::uint64_t failed() const { return failed_.load(); }

 private:
  tuner::Objective& inner_;
  SpanLog& log_;
  std::atomic<std::uint64_t> parent_{0};
  std::atomic<std::uint64_t> failed_{0};
};

/// A `tuners::Tuner` that opens an "iteration" span at every `propose`
/// (closing the previous one) with "propose" and "observe" spans under
/// it, and makes the iteration the parent of the objective's
/// evaluations. Everything else is forwarded.
class TimingTuner final : public tuners::Tuner {
 public:
  /// `inner`, `log` and `objective` must outlive this tuner.
  TimingTuner(tuners::Tuner& inner, SpanLog& log, TimingObjective& objective,
              std::uint64_t job_span);
  ~TimingTuner() override { close_iteration(); }
  TimingTuner(const TimingTuner&) = delete;
  TimingTuner& operator=(const TimingTuner&) = delete;

  std::string name() const override { return inner_.name(); }
  std::vector<cfg::Configuration> propose() override;
  void observe(const std::vector<tuner::Evaluation>& evals) override;
  const tuner::TuningResult& progress() const override {
    return inner_.progress();
  }
  bool done() const override { return inner_.done(); }
  void finish(bool early_stopped) override { inner_.finish(early_stopped); }

  /// The innermost open span: "propose" while proposing, otherwise the
  /// iteration in flight (0 before the first `propose`). Hooks the
  /// search calls (subset pickers, stoppers) parent their spans here.
  std::uint64_t active_span() const {
    return proposing_ != 0 ? proposing_ : iteration_;
  }
  void close_iteration();

 private:
  tuners::Tuner& inner_;
  SpanLog& log_;
  TimingObjective& objective_;
  std::uint64_t job_span_;
  std::uint64_t iteration_ = 0;
  std::uint64_t proposing_ = 0;
};

}  // namespace perfbench

// Process-wide metrics registry: named counters, gauges and histograms
// that every layer of the stack publishes into.
//
// The paper's pipeline is driven by monitoring hooks ("such as Darshan")
// feeding the fitness function; production tuning additionally needs the
// *service* itself to be observable — how many PFS requests the fleet of
// simulated testbeds issued, what the chunk cache hit, how the shared
// result cache and evaluation engine are doing — without each component
// inventing its own stats struct and printf. The registry is that shared
// sink:
//
//   * instruments are named series ("pfs.bytes_written"), created on
//     first use and stable for the process lifetime, so call sites cache
//     a reference and updates are a relaxed atomic op — no registry lock
//     on the hot path;
//   * hot simulator loops (PFS, MPI, chunk cache) keep their existing
//     zero-cost local counters and flush the totals when the simulated
//     testbed is torn down, so per-request paths pay nothing; service
//     components (engine, cache, server) publish live per event;
//   * `snapshot()` captures every series at a point in time into a plain
//     value struct that serializes to JSON — the payload bench `--json`
//     reports and the CI perf gate consume.
//
// Histograms carry an exemplar: the label passed with the largest sample
// observed ("which objective produced the best perf"), Prometheus-style.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace tunio::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// A settable / accumulating double (time totals, utilization, depths).
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void add(double delta) {
    // CAS loop: atomic<double>::fetch_add needs C++20 library support
    // that not every deployed toolchain ships.
    double current = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(current, current + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bound histogram with count/sum/max and a max-sample exemplar.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  /// Records one sample; `exemplar` (if nonempty) labels it, and the
  /// label of the largest sample seen so far is kept.
  void observe(double value, const std::string& exemplar = {});

  /// Bulk-merges pre-bucketed counts (one per bound, plus overflow);
  /// used by simulator teardown flushes that already kept Darshan-style
  /// size buckets. `counts` must have `bounds().size() + 1` entries;
  /// `max` is the largest of the merged samples (ignored when `counts`
  /// holds none).
  void add_bucketed(const std::vector<std::uint64_t>& counts, double sum,
                    double max);

  const std::vector<double>& bounds() const { return bounds_; }

 private:
  friend class MetricsRegistry;

  void note_max(double value, const std::string& exemplar);

  std::vector<double> bounds_;
  /// counts_[i] = samples <= bounds_[i]; last entry = overflow.
  std::vector<std::atomic<std::uint64_t>> counts_;
  std::atomic<std::uint64_t> count_{0};
  Gauge sum_;
  mutable std::mutex exemplar_mutex_;
  double max_ = 0.0;
  bool has_max_ = false;
  std::string exemplar_;
};

/// Point-in-time copy of every instrument (safe to keep, serialize,
/// diff; later updates to the registry do not affect it).
struct MetricsSnapshot {
  struct CounterValue {
    std::string name;
    std::uint64_t value = 0;
  };
  struct GaugeValue {
    std::string name;
    double value = 0.0;
  };
  struct HistogramValue {
    std::string name;
    std::vector<double> bounds;
    std::vector<std::uint64_t> counts;  ///< per bound + overflow
    std::uint64_t count = 0;
    double sum = 0.0;
    double max = 0.0;
    std::string exemplar;
  };

  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;

  /// Value of a named counter/gauge; 0 when absent.
  std::uint64_t counter(const std::string& name) const;
  double gauge(const std::string& name) const;
  const HistogramValue* histogram(const std::string& name) const;

  Json to_json() const;
};

class MetricsRegistry {
 public:
  /// Returns the named instrument, creating it on first use. References
  /// stay valid for the registry's lifetime — cache them at call sites.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// `upper_bounds` applies only on first creation; later callers get
  /// the existing instrument whatever bounds they pass.
  Histogram& histogram(const std::string& name,
                       std::vector<double> upper_bounds);

  MetricsSnapshot snapshot() const;

  /// Zeroes every instrument (bench isolation between runs). Instrument
  /// identities survive — cached references remain valid.
  void reset();

  /// The process-wide registry everything publishes into by default.
  static MetricsRegistry& global();

 private:
  template <typename T>
  struct Entry {
    std::string name;
    std::unique_ptr<T> instrument;
  };

  mutable std::mutex mutex_;  ///< guards the name tables, not updates
  std::vector<Entry<Counter>> counters_;
  std::vector<Entry<Gauge>> gauges_;
  std::vector<Entry<Histogram>> histograms_;
};

/// Darshan's condensed POSIX_SIZE buckets (<4K, 64K, 1M, 16M, overflow)
/// — the bounds the PFS size histograms publish with.
std::vector<double> darshan_size_bounds();

}  // namespace tunio::obs

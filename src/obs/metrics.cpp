#include "obs/metrics.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/units.hpp"

namespace tunio::obs {

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)), counts_(bounds_.size() + 1) {
  TUNIO_CHECK_MSG(std::is_sorted(bounds_.begin(), bounds_.end()),
                  "histogram bounds must be ascending");
}

void Histogram::observe(double value, const std::string& exemplar) {
  std::size_t bucket = 0;
  while (bucket < bounds_.size() && value > bounds_[bucket]) ++bucket;
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.add(value);
  note_max(value, exemplar);
}

void Histogram::add_bucketed(const std::vector<std::uint64_t>& counts,
                             double sum, double max) {
  TUNIO_CHECK_MSG(counts.size() == counts_.size(),
                  "bucketed merge arity mismatch");
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    counts_[i].fetch_add(counts[i], std::memory_order_relaxed);
    total += counts[i];
  }
  count_.fetch_add(total, std::memory_order_relaxed);
  sum_.add(sum);
  if (total > 0) note_max(max, {});
}

void Histogram::note_max(double value, const std::string& exemplar) {
  std::lock_guard<std::mutex> lock(exemplar_mutex_);
  if (!has_max_ || value > max_) {
    max_ = value;
    has_max_ = true;
    if (!exemplar.empty()) exemplar_ = exemplar;
  }
}

std::uint64_t MetricsSnapshot::counter(const std::string& name) const {
  for (const CounterValue& c : counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

double MetricsSnapshot::gauge(const std::string& name) const {
  for (const GaugeValue& g : gauges) {
    if (g.name == name) return g.value;
  }
  return 0.0;
}

const MetricsSnapshot::HistogramValue* MetricsSnapshot::histogram(
    const std::string& name) const {
  for (const HistogramValue& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

Json MetricsSnapshot::to_json() const {
  Json counters_json = Json::object();
  for (const CounterValue& c : counters) {
    counters_json.set(c.name, Json::number(static_cast<double>(c.value)));
  }
  Json gauges_json = Json::object();
  for (const GaugeValue& g : gauges) {
    gauges_json.set(g.name, Json::number(g.value));
  }
  Json histograms_json = Json::object();
  for (const HistogramValue& h : histograms) {
    Json entry = Json::object();
    Json bounds = Json::array();
    for (double b : h.bounds) bounds.push_back(Json::number(b));
    Json counts = Json::array();
    for (std::uint64_t c : h.counts) {
      counts.push_back(Json::number(static_cast<double>(c)));
    }
    entry.set("bounds", std::move(bounds));
    entry.set("counts", std::move(counts));
    entry.set("count", Json::number(static_cast<double>(h.count)));
    entry.set("sum", Json::number(h.sum));
    entry.set("max", Json::number(h.max));
    if (!h.exemplar.empty()) entry.set("exemplar", Json::string(h.exemplar));
    histograms_json.set(h.name, std::move(entry));
  }
  Json out = Json::object();
  out.set("counters", std::move(counters_json));
  out.set("gauges", std::move(gauges_json));
  out.set("histograms", std::move(histograms_json));
  return out;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& entry : counters_) {
    if (entry.name == name) return *entry.instrument;
  }
  counters_.push_back({name, std::make_unique<Counter>()});
  return *counters_.back().instrument;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& entry : gauges_) {
    if (entry.name == name) return *entry.instrument;
  }
  gauges_.push_back({name, std::make_unique<Gauge>()});
  return *gauges_.back().instrument;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> upper_bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& entry : histograms_) {
    if (entry.name == name) return *entry.instrument;
  }
  histograms_.push_back(
      {name, std::make_unique<Histogram>(std::move(upper_bounds))});
  return *histograms_.back().instrument;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lock(mutex_);
  snap.counters.reserve(counters_.size());
  for (const auto& entry : counters_) {
    snap.counters.push_back({entry.name, entry.instrument->value()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& entry : gauges_) {
    snap.gauges.push_back({entry.name, entry.instrument->value()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& entry : histograms_) {
    const Histogram& h = *entry.instrument;
    MetricsSnapshot::HistogramValue value;
    value.name = entry.name;
    value.bounds = h.bounds_;
    value.counts.reserve(h.counts_.size());
    for (const auto& c : h.counts_) {
      value.counts.push_back(c.load(std::memory_order_relaxed));
    }
    value.count = h.count_.load(std::memory_order_relaxed);
    value.sum = h.sum_.value();
    {
      std::lock_guard<std::mutex> exemplar_lock(h.exemplar_mutex_);
      value.max = h.max_;
      value.exemplar = h.exemplar_;
    }
    snap.histograms.push_back(std::move(value));
  }
  return snap;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& entry : counters_) {
    // No atomic "reset" API on Counter by design (it is monotonic for
    // publishers); the registry owns the instruments and may rewind.
    const std::uint64_t v = entry.instrument->value();
    entry.instrument->add(0 - v);  // wraps back to zero
  }
  for (const auto& entry : gauges_) entry.instrument->set(0.0);
  for (const auto& entry : histograms_) {
    Histogram& h = *entry.instrument;
    for (auto& c : h.counts_) c.store(0, std::memory_order_relaxed);
    h.count_.store(0, std::memory_order_relaxed);
    h.sum_.set(0.0);
    std::lock_guard<std::mutex> exemplar_lock(h.exemplar_mutex_);
    h.max_ = 0.0;
    h.has_max_ = false;
    h.exemplar_.clear();
  }
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* registry = new MetricsRegistry();  // never dtor'd
  return *registry;
}

std::vector<double> darshan_size_bounds() {
  return {static_cast<double>(4 * KiB) - 1, static_cast<double>(64 * KiB) - 1,
          static_cast<double>(1 * MiB) - 1, static_cast<double>(16 * MiB) - 1};
}

}  // namespace tunio::obs

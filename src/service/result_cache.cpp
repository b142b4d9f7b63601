#include "service/result_cache.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace tunio::service {

namespace {

/// Cached registry handles (see PfsMetrics for the pattern rationale).
struct CacheMetrics {
  obs::Counter& hits;
  obs::Counter& misses;
  obs::Counter& insertions;
  obs::Counter& evictions;
  obs::Gauge& seconds_saved;

  static CacheMetrics& get() {
    static CacheMetrics* metrics = [] {
      obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
      return new CacheMetrics{
          registry.counter("service.cache.hits"),
          registry.counter("service.cache.misses"),
          registry.counter("service.cache.insertions"),
          registry.counter("service.cache.evictions"),
          registry.gauge("service.cache.seconds_saved"),
      };
    }();
    return *metrics;
  }
};

}  // namespace

std::size_t ResultCache::KeyHash::operator()(const Key& key) const {
  return static_cast<std::size_t>(
      derive_stream(key.fingerprint, hash_indices(key.genome)));
}

ResultCache::ResultCache(CacheOptions options) {
  TUNIO_CHECK_MSG(options.shards > 0, "cache needs at least one shard");
  TUNIO_CHECK_MSG(options.capacity > 0, "cache needs nonzero capacity");
  per_shard_capacity_ = std::max<std::size_t>(
      1, (options.capacity + options.shards - 1) / options.shards);
  shards_.reserve(options.shards);
  for (unsigned i = 0; i < options.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

ResultCache::Shard& ResultCache::shard_for(const Key& key) {
  return *shards_[KeyHash{}(key) % shards_.size()];
}

const ResultCache::Shard& ResultCache::shard_for(const Key& key) const {
  return *shards_[KeyHash{}(key) % shards_.size()];
}

std::optional<tuner::Evaluation> ResultCache::get(
    std::uint64_t fingerprint, const std::vector<std::size_t>& genome) {
  Key key{fingerprint, genome};
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    ++shard.misses;
    CacheMetrics::get().misses.add(1);
    return std::nullopt;
  }
  ++shard.hits;
  CacheMetrics::get().hits.add(1);
  CacheMetrics::get().seconds_saved.add(it->second->second.eval_seconds);
  shard.seconds_saved += it->second->second.eval_seconds;
  // Refresh recency.
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return it->second->second;
}

void ResultCache::put(std::uint64_t fingerprint,
                      const std::vector<std::size_t>& genome,
                      const tuner::Evaluation& eval) {
  Key key{fingerprint, genome};
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    it->second->second = eval;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  shard.lru.emplace_front(key, eval);
  shard.index.emplace(std::move(key), shard.lru.begin());
  ++shard.insertions;
  CacheMetrics::get().insertions.add(1);
  if (shard.lru.size() > per_shard_capacity_) {
    shard.index.erase(shard.lru.back().first);
    shard.lru.pop_back();
    ++shard.evictions;
    CacheMetrics::get().evictions.add(1);
  }
}

ResultCache::Stats ResultCache::stats() const {
  Stats total;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    total.hits += shard->hits;
    total.misses += shard->misses;
    total.insertions += shard->insertions;
    total.evictions += shard->evictions;
    total.entries += shard->lru.size();
    total.seconds_saved += shard->seconds_saved;
  }
  return total;
}

std::size_t ResultCache::size() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    n += shard->lru.size();
  }
  return n;
}

void ResultCache::clear() {
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    shard->lru.clear();
    shard->index.clear();
  }
}

namespace {

/// A cache entry as `load_json` reads it, validated before any insert.
struct Entry {
  std::uint64_t fingerprint = 0;
  std::vector<std::size_t> genome;
  tuner::Evaluation eval;
};

const obs::Json& field(const obs::Json& entry, const std::string& key) {
  const obs::Json* value = entry.find(key);
  TUNIO_CHECK_MSG(value != nullptr, "cache JSON: missing \"" + key + "\"");
  return *value;
}

/// Fingerprints are full 64-bit values, which a JSON number (a double)
/// cannot carry, so they travel as decimal strings.
std::uint64_t parse_fingerprint(const obs::Json& value) {
  const std::string& text = value.as_string();
  std::uint64_t out = 0;
  const auto [end, error] =
      std::from_chars(text.data(), text.data() + text.size(), out);
  TUNIO_CHECK_MSG(error == std::errc() && end == text.data() + text.size(),
                  "cache JSON: bad fingerprint \"" + text + "\"");
  return out;
}

std::size_t parse_index(const obs::Json& value) {
  const double number = value.as_number();
  // Below 2^53 every integer is exact in a double.
  TUNIO_CHECK_MSG(number >= 0.0 && number < 9007199254740992.0 &&
                      number == std::floor(number),
                  "cache JSON: bad genome index " + obs::json_number(number));
  return static_cast<std::size_t>(number);
}

}  // namespace

std::string ResultCache::to_json() const {
  obs::Json entries = obs::Json::array();
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    // Oldest first, so replaying the document into a fresh cache leaves
    // the most recently used entries freshest.
    for (auto it = shard->lru.rbegin(); it != shard->lru.rend(); ++it) {
      obs::Json genome = obs::Json::array();
      for (const std::size_t index : it->first.genome) {
        genome.push_back(obs::Json::number(static_cast<double>(index)));
      }
      obs::Json entry = obs::Json::object();
      entry.set("fingerprint",
                obs::Json::string(std::to_string(it->first.fingerprint)));
      entry.set("genome", std::move(genome));
      entry.set("perf_mbps", obs::Json::number(it->second.perf_mbps));
      entry.set("eval_seconds", obs::Json::number(it->second.eval_seconds));
      entries.push_back(std::move(entry));
    }
  }
  obs::Json doc = obs::Json::object();
  doc.set("entries", std::move(entries));
  return doc.dump();
}

std::size_t ResultCache::load_json(const std::string& json) {
  // Parse and validate the whole document first: a malformed one loads
  // nothing.
  const obs::Json doc = obs::Json::parse(json);
  std::vector<Entry> entries;
  for (const obs::Json& item : field(doc, "entries").items()) {
    Entry entry;
    entry.fingerprint = parse_fingerprint(field(item, "fingerprint"));
    for (const obs::Json& index : field(item, "genome").items()) {
      entry.genome.push_back(parse_index(index));
    }
    // `Json::parse` rejects numbers a double cannot hold, so both are
    // finite.
    entry.eval.perf_mbps = field(item, "perf_mbps").as_number();
    entry.eval.eval_seconds = field(item, "eval_seconds").as_number();
    entries.push_back(std::move(entry));
  }
  for (const Entry& entry : entries) {
    put(entry.fingerprint, entry.genome, entry.eval);
  }
  return entries.size();
}

bool ResultCache::save_file(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << to_json();
  return static_cast<bool>(out);
}

bool ResultCache::load_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  load_json(buffer.str());
  return true;
}

}  // namespace tunio::service

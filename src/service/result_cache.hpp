// Shared result cache: memoizes configuration evaluations across tuning
// sessions and clients.
//
// A tuning service sees heavy repeat traffic — elitism re-presents the
// best genomes every generation, interactive sessions resume from a
// previous best, and different clients tune the same workload — and the
// built-in objectives are deterministic per (testbed seed, genome), so
// a remembered result is exactly the result a re-run would produce.
// The cache is keyed by `(workload fingerprint, genome)`: the
// fingerprint namespaces entries per workload/testbed combination so
// unrelated jobs can share one cache without collisions.
//
// Sharded for concurrency (each shard has its own lock and LRU list),
// with hit/miss/eviction counters and optional JSON persistence. Only
// `perf_mbps` and `eval_seconds` survive a save/load round trip; the
// full per-run metering detail is in-memory only.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "tuner/objective.hpp"

namespace tunio::service {

struct CacheOptions {
  /// Total entry budget, split evenly across shards (LRU within each).
  std::size_t capacity = 4096;
  unsigned shards = 8;
};

class ResultCache {
 public:
  explicit ResultCache(CacheOptions options = {});

  /// Looks up an evaluation; counts a hit or a miss.
  std::optional<tuner::Evaluation> get(std::uint64_t fingerprint,
                                       const std::vector<std::size_t>& genome);

  /// Remembers an evaluation (refreshes LRU position on re-insert).
  void put(std::uint64_t fingerprint, const std::vector<std::size_t>& genome,
           const tuner::Evaluation& eval);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    std::size_t entries = 0;
    /// Simulated seconds the hits would have cost to re-run.
    double seconds_saved = 0.0;
    double hit_rate() const {
      const std::uint64_t total = hits + misses;
      return total == 0 ? 0.0 : static_cast<double>(hits) / total;
    }
  };
  Stats stats() const;

  std::size_t size() const;
  void clear();

  /// Serializes every entry to a JSON document.
  std::string to_json() const;
  /// Merges entries from a `to_json` document; returns how many loaded.
  /// Throws `Error` on malformed input (a negative or non-integer genome
  /// index or fingerprint, a non-finite perf or cost), loading nothing.
  std::size_t load_json(const std::string& json);
  /// File convenience wrappers; return false on I/O failure.
  bool save_file(const std::string& path) const;
  bool load_file(const std::string& path);

 private:
  struct Key {
    std::uint64_t fingerprint = 0;
    std::vector<std::size_t> genome;
    bool operator==(const Key& other) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& key) const;
  };
  struct Shard {
    mutable std::mutex mutex;
    /// Front = most recently used.
    std::list<std::pair<Key, tuner::Evaluation>> lru;
    std::unordered_map<Key, decltype(lru)::iterator, KeyHash> index;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    double seconds_saved = 0.0;
  };

  Shard& shard_for(const Key& key);
  const Shard& shard_for(const Key& key) const;

  std::size_t per_shard_capacity_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace tunio::service

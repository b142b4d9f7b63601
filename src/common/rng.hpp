// Seeded random number generation.
//
// Every stochastic component (genetic operators, RL exploration, noise in
// the device models) draws from an explicitly seeded `Rng` so that whole
// experiments are reproducible from a single seed.
//
// Thread safety: an `Rng` is NOT thread-safe — each thread (or each unit
// of work that must be order-independent) gets its own generator. For
// work items evaluated concurrently, derive an independent stream per
// item with `derive_stream(root_seed, hash_indices(item))`: the stream
// depends only on the root seed and the item itself, never on which
// worker ran it or in what order, so concurrent runs are bit-identical
// to serial ones.
#pragma once

#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "common/error.hpp"

namespace tunio {

/// SplitMix64 finalizer: scrambles a 64-bit value into a well-mixed one.
std::uint64_t mix64(std::uint64_t x);

/// Order-sensitive hash of an index vector (a tuner genome, a shard key).
std::uint64_t hash_indices(const std::vector<std::size_t>& indices);

/// Deterministic per-item seed: combines a root seed with an item hash so
/// every item gets an independent, reproducible RNG stream.
std::uint64_t derive_stream(std::uint64_t root_seed, std::uint64_t item_hash);

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x7'1010) : engine_(seed) {}

  /// Uniform double in [lo, hi).
  double uniform(double lo = 0.0, double hi = 1.0) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    TUNIO_CHECK_MSG(lo <= hi, "empty integer range");
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Uniform index in [0, n).
  std::size_t index(std::size_t n) {
    TUNIO_CHECK_MSG(n > 0, "index() over empty range");
    return static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(n) - 1));
  }

  /// Normal draw. A zero `stddev` returns `mean` (after the same engine
  /// draws); a negative or non-finite one throws. The draw is scaled
  /// exactly as `std::normal_distribution<double>(mean, stddev)` scales
  /// it, so results for `stddev > 0` are that distribution's.
  double normal(double mean = 0.0, double stddev = 1.0) {
    TUNIO_CHECK_MSG(std::isfinite(stddev) && stddev >= 0.0,
                    "normal() needs a finite, non-negative stddev");
    const double z = std::normal_distribution<double>()(engine_);
    return z * stddev + mean;
  }

  /// Bernoulli draw.
  bool chance(double p) { return uniform() < p; }

  /// Uniformly chosen element of a non-empty vector.
  template <typename T>
  const T& choice(const std::vector<T>& items) {
    TUNIO_CHECK_MSG(!items.empty(), "choice() over empty vector");
    return items[index(items.size())];
  }

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::swap(items[i - 1], items[index(i)]);
    }
  }

  /// Derives an independent child generator (stable given draw order).
  Rng fork() { return Rng(engine_()); }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace tunio

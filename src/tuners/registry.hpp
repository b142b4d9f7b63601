// Backend registry: tuner construction by name.
//
// One `TunerSpec` carries the knobs every backend understands (seed,
// batch width, iteration horizon, starting configuration) plus the
// backend-specific extras (GA options, linter hints, impact scores), so
// callers — the pipeline, the tuning service, the tournament bench —
// select a search strategy with a string and stay agnostic of its type.
// The bo, rule and random backends are constructed from the spec itself
// and read only the fields they use; the GA adapter takes `GaOptions`
// with the shared fields copied in.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "tuners/genetic_tuner.hpp"
#include "tuners/tuner.hpp"

namespace tunio::tuners {

struct TunerSpec {
  std::uint64_t seed = 0x5EED;
  /// Proposal batch width for the batched backends (bo/random; bo's
  /// warmup is max(batch, 2)). The GA's batch is its population (see
  /// `ga.population`).
  unsigned batch = 8;
  /// Backend iteration horizon; the driver's budget usually stops
  /// earlier. Applied as `max_generations` for the GA.
  unsigned max_iterations = 50;
  /// Optional starting configuration (domain indices) for every backend.
  std::optional<std::vector<std::size_t>> seed_indices;

  /// GA-specific knobs ("ga" backend). `seed`, `max_iterations` and
  /// `seed_indices` above override the matching fields.
  tuner::GaOptions ga;

  /// Knowledge inputs for the "rule" backend.
  std::vector<std::pair<std::string, double>> hints;
  std::vector<double> impact;
};

/// A spec whose shared knobs come from GA options: the GA's seed,
/// population as batch width, generation horizon and starting
/// configuration, so every backend searches under the same settings.
TunerSpec spec_from_ga(const tuner::GaOptions& ga);

/// Names accepted by `make_tuner`, in tournament order.
const std::vector<std::string>& backend_names();

bool is_backend(const std::string& name);

/// Builds backend `name` over `space`. No backend calls `objective`:
/// they reach it only through `drive()`. Throws `common::Error` on an
/// unknown name.
std::unique_ptr<Tuner> make_tuner(const std::string& name,
                                  const cfg::ConfigSpace& space,
                                  tuner::Objective& objective,
                                  const TunerSpec& spec = {});

}  // namespace tunio::tuners

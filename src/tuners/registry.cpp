#include "tuners/registry.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "tuners/bo_tuner.hpp"
#include "tuners/ga_adapter.hpp"
#include "tuners/random_tuner.hpp"
#include "tuners/rule_tuner.hpp"

namespace tunio::tuners {

TunerSpec spec_from_ga(const tuner::GaOptions& ga) {
  TunerSpec spec;
  spec.seed = ga.seed;
  spec.batch = ga.population;
  spec.max_iterations = ga.max_generations;
  spec.seed_indices = ga.seed_indices;
  spec.ga = ga;
  return spec;
}

const std::vector<std::string>& backend_names() {
  static const std::vector<std::string> kNames = {"ga", "bo", "rule",
                                                  "random"};
  return kNames;
}

bool is_backend(const std::string& name) {
  const std::vector<std::string>& names = backend_names();
  return std::find(names.begin(), names.end(), name) != names.end();
}

std::unique_ptr<Tuner> make_tuner(const std::string& name,
                                  const cfg::ConfigSpace& space,
                                  tuner::Objective& objective,
                                  const TunerSpec& spec) {
  if (name == "ga") {
    tuner::GaOptions options = spec.ga;
    options.seed = spec.seed;
    options.max_generations = spec.max_iterations;
    if (spec.seed_indices.has_value()) options.seed_indices = spec.seed_indices;
    return std::make_unique<GaTunerAdapter>(space, objective, options);
  }
  if (name == "bo") return std::make_unique<BoTuner>(space, spec);
  if (name == "rule") return std::make_unique<RuleTuner>(space, spec);
  if (name == "random") return std::make_unique<RandomTuner>(space, spec);
  throw InvalidArgument("unknown tuner backend '" + name +
                        "' (known: ga, bo, rule, random)");
}

}  // namespace tunio::tuners

// The "ga" backend under its registry-facing name.
//
// `tuner::GeneticTuner` is a `TunerBase` backend itself, so the GA needs
// no adapter: this alias is the name the backend goes by in `tuners`,
// with the GA's `(space, objective, GaOptions)` constructor and its
// `set_subset_provider` hook.
#pragma once

#include "tuners/genetic_tuner.hpp"

namespace tunio::tuners {

using GaTunerAdapter = tuner::GeneticTuner;

}  // namespace tunio::tuners

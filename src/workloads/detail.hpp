// Shared helpers for the concrete workload drivers.
#pragma once

#include "workloads/ops.hpp"
#include "workloads/workload.hpp"

namespace tunio::wl::detail {

/// Applies loop reduction to an iteration count: at least one iteration
/// survives ("whenever the loop iterations are too small to reduce ...
/// loop reduction will not be able to do anything", §IV-A).
unsigned reduce_iterations(unsigned original, double loop_scale);

/// original / reduced — the factor by which scalable metrics must be
/// multiplied to predict the full loop.
double extrapolation_factor(unsigned original, unsigned reduced);

}  // namespace tunio::wl::detail

// Shared helpers for the concrete workload drivers.
#pragma once

#include "config/stack_settings.hpp"
#include "pfs/pfs.hpp"
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

/// Lustre create options for a run (tier switch applied).
pfs::CreateOptions create_options(const cfg::StackSettings& settings,
                                  const RunOptions& options);

}  // namespace tunio::wl::detail

// Labeled tuning-pipeline variants — the configurations compared in the
// paper's evaluation (HSTuner with/without stopping, with/without the
// I/O kernel, and full TunIO).
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "core/tunio.hpp"
#include "tuner/stoppers.hpp"
#include "tuners/genetic_tuner.hpp"

namespace tunio::core {

enum class StopPolicy {
  kNone,        ///< run the full budget (HSTuner "No Stop")
  kHeuristic,   ///< 5% / 5-iteration heuristic
  kTunio,       ///< RL Early Stopping
  kMaxPerf,     ///< oracle: stop on reaching a known target perf
};

struct PipelineVariant {
  PipelineVariant() = default;
  // NOLINTNEXTLINE(google-explicit-constructor): label-only is idiomatic
  PipelineVariant(std::string label_, bool impact_first_ = false,
                  StopPolicy stop_ = StopPolicy::kNone,
                  double max_perf_target_ = 0.0)
      : label(std::move(label_)),
        impact_first(impact_first_),
        stop(stop_),
        max_perf_target(max_perf_target_) {}

  std::string label;
  bool impact_first = false;   ///< attach Smart Configuration Generation
  StopPolicy stop = StopPolicy::kNone;
  double max_perf_target = 0.0;  ///< for kMaxPerf
  /// Search backend (see tuners::backend_names), built by the tuners
  /// registry and run by `tuners::drive()`. Impact-first subset
  /// selection is a GA hook (wired by `TunIO::attach`); for the "rule"
  /// backend the impact scores are fed in as sweep priorities instead.
  std::string backend = "ga";
  /// Knowledge inputs forwarded to the "rule" backend (parameter name,
  /// weight) — e.g. `analysis::LintReport::tuning_hints()`.
  std::vector<std::pair<std::string, double>> hints;
};

struct PipelineRun {
  std::string label;
  std::string backend;  ///< backend that produced `result`
  tuner::TuningResult result;
};

/// Runs one labeled pipeline variant. `tunio` is required (and mutated:
/// its agents learn) for impact-first or kTunio variants; pass nullptr
/// for pure-baseline runs. To evaluate through the service layer, submit
/// a `service::JobSpec` to a `service::TuningServer` instead.
PipelineRun run_pipeline(const cfg::ConfigSpace& space,
                         tuner::Objective& objective, TunIO* tunio,
                         const PipelineVariant& variant,
                         tuner::GaOptions ga = {});

}  // namespace tunio::core

// TunIO: the public API (Table I of the paper).
//
//   | Function      | Input                              | Output             |
//   |---------------|------------------------------------|--------------------|
//   | stop          | current_iteration, best_perf       | stop/continue      |
//   | discover_io   | source_code, options               | I/O kernel         |
//   | subset_picker | perf, current_parameter_set        | next_parameter_set |
//
// "TunIO separates its components and provides an interface so that they
// can be used by other tuning pipelines" (§III-E). The `TunIO` class
// bundles the three components behind exactly that interface and also
// offers `attach`, which wires them into a GA search run by
// `tuners::drive()` the way the paper's reference implementation plugs
// into DEAP/HSTuner.
#pragma once

#include <memory>
#include <string>

#include "analysis/lint.hpp"
#include "core/early_stopping.hpp"
#include "core/smart_config.hpp"
#include "discovery/discovery.hpp"
#include "tuners/genetic_tuner.hpp"

namespace tunio::core {

class TunIO {
 public:
  explicit TunIO(const cfg::ConfigSpace& space);

  /// Table I `discover_io`: source code + options → I/O kernel. The
  /// one-argument form uses the default `DiscoveryOptions`.
  discovery::KernelResult discover_io(const std::string& source_code) const;
  discovery::KernelResult discover_io(
      const std::string& source_code,
      const discovery::DiscoveryOptions& options) const;

  /// Table I `subset_picker`: perf + current set → next parameter set.
  std::vector<std::size_t> subset_picker(
      double perf_mbps, const std::vector<std::size_t>& current_set) {
    return smart_config_.subset_picker(perf_mbps, current_set);
  }

  /// Table I `stop`: iteration + best perf → stop/continue (true = stop).
  bool stop(unsigned current_iteration, double best_perf_mbps) {
    return early_stopping_.stop(current_iteration, best_perf_mbps);
  }

  /// Lints `source_code` for I/O anti-patterns (`analysis::lint_source`).
  /// Parses the source directly (no normalization round-trip), so
  /// diagnostic line/column numbers refer to the original text.
  analysis::LintReport lint_source(const std::string& source_code) const;

  /// Seeds Smart Configuration Generation with a lint report's tuning
  /// hints: parameters implicated by the diagnostics get their impact
  /// boosted, moving them up the subset ranking before any measurement.
  void apply_lint_hints(const analysis::LintReport& report) {
    smart_config_.apply_hints(report.tuning_hints());
  }

  /// Offline training of both RL components. `sweep_kernels` are the
  /// representative I/O kernels (VPIC, FLASH, HACC in the paper).
  void train_offline(const std::vector<tuner::Objective*>& sweep_kernels);

  /// Wires Smart Configuration Generation into the GA backend `ga` (all
  /// parameters in generation 0, then `subset_picker`) and returns drive
  /// options whose stopper is Early Stopping. Resets per-run agent state
  /// first. Run the search with `tuners::drive(ga, objective, options)`.
  tuners::DriveOptions attach(tuner::GeneticTuner& ga);

  SmartConfigGen& smart_config() { return smart_config_; }
  EarlyStopping& early_stopping() { return early_stopping_; }
  const cfg::ConfigSpace& space() const { return space_; }

 private:
  const cfg::ConfigSpace& space_;
  SmartConfigGen smart_config_;
  EarlyStopping early_stopping_;
};

}  // namespace tunio::core

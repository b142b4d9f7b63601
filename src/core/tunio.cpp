#include "core/tunio.hpp"

namespace tunio::core {

TunIO::TunIO(const cfg::ConfigSpace& space)
    : space_(space), smart_config_(space) {}

discovery::KernelResult TunIO::discover_io(
    const std::string& source_code) const {
  return discovery::discover_io(source_code);
}

discovery::KernelResult TunIO::discover_io(
    const std::string& source_code,
    const discovery::DiscoveryOptions& options) const {
  return discovery::discover_io(source_code, options);
}

analysis::LintReport TunIO::lint_source(
    const std::string& source_code) const {
  return analysis::lint_source(source_code);
}

void TunIO::train_offline(
    const std::vector<tuner::Objective*>& sweep_kernels) {
  smart_config_.train_offline(sweep_kernels);
  early_stopping_.train_offline();
}

tuners::DriveOptions TunIO::attach(tuner::GeneticTuner& ga) {
  smart_config_.reset_episode();
  early_stopping_.reset_episode();
  ga.set_subset_provider(
      [this](unsigned generation, const tuner::TuningResult& progress) {
        // First generation: no feedback yet — tune everything once so the
        // default/random population is scored on the full space.
        if (generation == 0 || progress.history.empty()) {
          std::vector<std::size_t> all(space_.num_parameters());
          for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
          return all;
        }
        const tuner::GenerationStats& last = progress.history.back();
        return smart_config_.subset_picker(last.best_perf, last.subset);
      });
  tuners::DriveOptions options;
  options.stopper = [this](unsigned generation,
                           const tuner::TuningResult& progress) {
    return early_stopping_.stop(generation, progress.best_perf);
  };
  return options;
}

}  // namespace tunio::core

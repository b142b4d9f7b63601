#include "core/pipeline.hpp"

#include "common/error.hpp"
#include "tuners/registry.hpp"

namespace tunio::core {

namespace {

tuner::Stopper make_stopper(const PipelineVariant& variant, TunIO* tunio) {
  switch (variant.stop) {
    case StopPolicy::kNone:
      return tuner::make_no_stopper();
    case StopPolicy::kHeuristic:
      return tuner::make_heuristic_stopper();
    case StopPolicy::kMaxPerf:
      return tuner::make_max_performance_stopper(variant.max_perf_target);
    case StopPolicy::kTunio:
      tunio->early_stopping().reset_episode();
      return [tunio](unsigned generation,
                     const tuner::TuningResult& progress) {
        return tunio->early_stopping().stop(generation, progress.best_perf);
      };
  }
  throw InvalidArgument("unknown stop policy");
}

}  // namespace

PipelineRun run_pipeline(const cfg::ConfigSpace& space,
                         tuner::Objective& objective, TunIO* tunio,
                         const PipelineVariant& variant,
                         tuner::GaOptions ga) {
  const bool needs_tunio =
      variant.impact_first || variant.stop == StopPolicy::kTunio;
  TUNIO_CHECK_MSG(!needs_tunio || tunio != nullptr,
                  "variant '" + variant.label + "' needs a TunIO instance");

  PipelineRun run;
  run.label = variant.label;
  run.backend = variant.backend;

  tuners::TunerSpec spec = tuners::spec_from_ga(ga);
  spec.hints = variant.hints;
  if (variant.impact_first && tunio != nullptr) {
    spec.impact = tunio->smart_config().impact_scores();
  }
  const std::unique_ptr<tuners::Tuner> backend =
      tuners::make_tuner(variant.backend, space, objective, spec);

  // Impact-first subsets are a GA hook; the other backends take the
  // impact scores through `spec.impact` instead.
  tuners::DriveOptions drive_options;
  auto* ga_backend = dynamic_cast<tuner::GeneticTuner*>(backend.get());
  if (variant.impact_first && ga_backend != nullptr) {
    drive_options = tunio->attach(*ga_backend);
  }
  drive_options.stopper = make_stopper(variant, tunio);
  run.result = tuners::drive(*backend, objective, drive_options).tuning;
  return run;
}

}  // namespace tunio::core

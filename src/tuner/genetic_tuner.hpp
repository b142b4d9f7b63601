// The genetic tuning pipeline (HSTuner-style, built on a DEAP-like loop).
//
// "The tuning framework is built using [DEAP] ... It is used to generate
// the configuration, use the results of the configuration evaluation to
// select the next generation's parents ... The tuning pipeline employs
// elitism ... To account for [its] drawbacks, TunIO employs tournament
// selection, a technique where three individuals are chosen randomly
// from the population of an iteration/generation, and the best two are
// carried forward as parents for the next generation." (§III-A)
//
// TunIO's components attach via two hooks:
//   * SubsetProvider — Smart Configuration Generation: restricts the
//     genes that crossover/mutation may touch in a generation; frozen
//     genes keep the elite's values (impact-first search-space
//     reduction);
//   * Stopper — Early Stopping: consulted after every generation by
//     `tuners::drive()`, which runs the search (see `TunIO::attach`).
//
// The GA is the "ga" backend of `tuners::drive()`: one generation is one
// `propose`/`observe` round. Running without hooks *is* the HSTuner
// baseline.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "config/space.hpp"
#include "tuner/objective.hpp"
#include "tuners/tuner.hpp"

namespace tunio::tuner {

struct GaOptions {
  unsigned population = 16;
  double crossover_prob = 0.9;    ///< per offspring pair
  double mutation_prob = 0.12;    ///< per gene
  unsigned tournament_size = 3;   ///< pick 3, best 2 become parents
  unsigned elitism = 1;           ///< best individuals carried through
  unsigned max_generations = 50;
  std::uint64_t seed = 0x5EED;
  /// Cache fitness by genome: elite individuals are not re-run.
  bool cache_evaluations = true;
  /// Per-gene probability of deviating from the defaults in the initial
  /// population. H5Evolve-style seeding: generation 0 explores *around*
  /// the stack defaults rather than uniformly at random, so discovery
  /// effort is spread over the run instead of front-loaded.
  double init_mutation_prob = 0.08;
  /// Optional starting individual (domain indices). When set, individual
  /// 0 of generation 0 is this configuration instead of the defaults —
  /// used by interactive sessions to resume from a previous best.
  std::optional<std::vector<std::size_t>> seed_indices;
};

/// Decides the parameter subset to tune in the coming generation.
/// Receives the 0-based generation index and the progress so far.
using SubsetProvider = std::function<std::vector<std::size_t>(
    unsigned generation, const TuningResult& progress)>;

class GeneticTuner final : public tuners::Tuner {
 public:
  /// `objective` is not called: `tuners::drive()` evaluates what the GA
  /// proposes. It is taken so that every backend is built the same way
  /// (see `tuners::make_tuner`).
  GeneticTuner(const cfg::ConfigSpace& space, Objective& objective,
               GaOptions options = {});

  void set_subset_provider(SubsetProvider provider);

  std::string name() const override { return "ga"; }

  /// Breeds (or initializes) the coming generation's population, consults
  /// the subset provider, partitions the population against the fitness
  /// cache, and returns the configurations that need fresh evaluation —
  /// possibly empty when every individual is a cache hit (the generation
  /// still advances on `observe`).
  std::vector<cfg::Configuration> propose() override;

  /// Accepts evaluations for exactly the configurations the last
  /// `propose` returned (same order). Updates bests, history, metrics
  /// and the simulated budget.
  void observe(const std::vector<Evaluation>& fresh) override;

  /// Tuning progress so far (valid after the first `observe`).
  const TuningResult& progress() const override { return result_; }

  /// True once `max_generations` generations have been observed or the
  /// search was finished.
  bool done() const override { return done_; }

  /// Marks an early stop. A budget or iteration cap (`early_stopped ==
  /// false`) leaves the GA able to propose further generations.
  void finish(bool early_stopped) override;

 private:
  using Genome = std::vector<std::size_t>;

  cfg::Configuration to_config(const Genome& genome) const;
  Genome random_genome();

  /// Breeds `population_` into the next generation (elitism, tournament
  /// selection, crossover, mutation, subset masking).
  void breed();

  /// Tournament: sample `tournament_size`, return the best two.
  std::pair<const Genome*, const Genome*> tournament(
      const std::vector<Genome>& population,
      const std::vector<double>& scores);

  const cfg::ConfigSpace& space_;
  GaOptions options_;
  Rng rng_;
  SubsetProvider subset_provider_;
  /// Caches the *full* evaluation (perf and simulated cost), keyed by
  /// genome. Hits re-use the perf and bill zero seconds to the budget —
  /// the same accounting the service-layer result cache uses, so a run
  /// behaves identically whichever cache satisfies a repeat genome.
  std::map<Genome, Evaluation> fitness_cache_;

  // Stepping state.
  TuningResult result_;
  std::vector<Genome> population_;
  std::vector<double> scores_;
  Genome best_genome_;
  double best_perf_ = -1.0;
  double cumulative_seconds_ = 0.0;
  unsigned generation_ = 0;  ///< generation currently in flight
  bool initialized_ = false;
  bool done_ = false;
  bool pending_ = false;  ///< propose issued, observe outstanding
  std::vector<std::size_t> subset_;       ///< this generation's free genes
  std::vector<std::size_t> last_subset_;  ///< masks the *next* breeding
  std::vector<std::size_t> batch_slot_;   ///< population index per batch entry
};

}  // namespace tunio::tuner

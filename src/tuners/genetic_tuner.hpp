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
// `propose`/`observe` round, and `tuners::TunerBase` keeps its history,
// bests and budget as it does for every backend. Running without hooks
// *is* the HSTuner baseline.
//
// It stays in namespace `tuner`, beside `GaOptions`, because callers
// outside `src/` build it by those names; the registry calls it
// `tuners::GaTunerAdapter`.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "config/space.hpp"
#include "tuner/objective.hpp"
#include "tuners/tuner_base.hpp"

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

class GeneticTuner final : public tuners::TunerBase {
 public:
  /// `objective` is not called: `tuners::drive()` evaluates what the GA
  /// proposes. It is taken so that every backend is built the same way
  /// (see `tuners::make_tuner`).
  GeneticTuner(const cfg::ConfigSpace& space, Objective& objective,
               GaOptions options = {});

  void set_subset_provider(SubsetProvider provider);

 protected:
  /// Breeds (or initializes) the coming generation's population, consults
  /// the subset provider, partitions the population against the fitness
  /// cache, and returns the genomes that need fresh evaluation — possibly
  /// none when every individual is a cache hit (the generation still
  /// advances on `observe`).
  std::vector<cfg::Configuration> next_batch() override;

  /// Scores the population from `fresh` and the fitness cache.
  void absorb(const std::vector<cfg::Configuration>& batch,
              const std::vector<Evaluation>& fresh) override;

  /// The best of the whole population, cache hits included.
  double iteration_best(const std::vector<Evaluation>& fresh) const override;

  std::vector<std::size_t> iteration_subset() const override {
    return subset_;
  }

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

  GaOptions options_;
  Rng rng_;
  SubsetProvider subset_provider_;
  /// Caches the *full* evaluation (perf and simulated cost), keyed by
  /// genome. Hits re-use the perf and bill zero seconds to the budget —
  /// the same accounting the service-layer result cache uses, so a run
  /// behaves identically whichever cache satisfies a repeat genome.
  std::map<Genome, Evaluation> fitness_cache_;

  std::vector<Genome> population_;
  std::vector<double> scores_;
  std::vector<std::size_t> subset_;      ///< this generation's free genes
  std::vector<std::size_t> batch_slot_;  ///< population index per batch entry
};

}  // namespace tunio::tuner

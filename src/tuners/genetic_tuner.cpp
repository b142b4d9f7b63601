#include "tuners/genetic_tuner.hpp"

#include <algorithm>
#include <limits>
#include <set>

#include "common/error.hpp"
#include "obs/metrics.hpp"

namespace tunio::tuner {

namespace {

/// Cached registry handles (see PfsMetrics for the pattern rationale).
/// Iterations and proposals are counted by `tuners::drive()`.
struct GaMetrics {
  obs::Counter& cache_hits;
  obs::Gauge& budget_seconds;

  static GaMetrics& get() {
    static GaMetrics* metrics = [] {
      obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
      return new GaMetrics{
          registry.counter("tuner.fitness_cache_hits"),
          registry.gauge("tuner.budget_seconds"),
      };
    }();
    return *metrics;
  }
};

}  // namespace

GeneticTuner::GeneticTuner(const cfg::ConfigSpace& space,
                           Objective& /*objective*/, GaOptions options)
    : TunerBase("ga", space), options_(options), rng_(options.seed) {
  TUNIO_CHECK_MSG(options_.population >= 4, "population too small");
  TUNIO_CHECK_MSG(options_.tournament_size >= 2, "tournament too small");
  TUNIO_CHECK_MSG(options_.elitism < options_.population,
                  "elitism must leave room for offspring");
  if (options_.max_generations == 0) set_done();
}

void GeneticTuner::set_subset_provider(SubsetProvider provider) {
  subset_provider_ = std::move(provider);
}

cfg::Configuration GeneticTuner::to_config(const Genome& genome) const {
  return cfg::Configuration(&space(), genome);
}

GeneticTuner::Genome GeneticTuner::random_genome() {
  // Mutant of the defaults (see GaOptions::init_mutation_prob).
  Genome genome = space().default_configuration().indices();
  for (std::size_t i = 0; i < genome.size(); ++i) {
    if (rng_.chance(options_.init_mutation_prob)) {
      genome[i] = rng_.index(space().parameter(i).domain.size());
    }
  }
  return genome;
}

std::pair<const GeneticTuner::Genome*, const GeneticTuner::Genome*>
GeneticTuner::tournament(const std::vector<Genome>& population,
                         const std::vector<double>& scores) {
  // Choose `tournament_size` distinct contestants; the best two win.
  std::vector<std::size_t> contestants;
  while (contestants.size() < options_.tournament_size) {
    const std::size_t pick = rng_.index(population.size());
    if (std::find(contestants.begin(), contestants.end(), pick) ==
        contestants.end()) {
      contestants.push_back(pick);
    }
  }
  std::sort(contestants.begin(), contestants.end(),
            [&](std::size_t a, std::size_t b) { return scores[a] > scores[b]; });
  return {&population[contestants[0]], &population[contestants[1]]};
}

void GeneticTuner::breed() {
  // The mask is the subset active when the parents were scored;
  // `next_batch` asks for the new generation's subset after breeding.
  const std::vector<std::size_t>& subset = subset_;
  const std::optional<cfg::Configuration>& elite = progress().best_config;
  std::vector<Genome> next;
  next.reserve(population_.size());
  // Elitism: the best individuals survive unchanged.
  {
    std::vector<std::size_t> order(population_.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return scores_[a] > scores_[b];
    });
    for (unsigned e = 0; e < options_.elitism; ++e) {
      next.push_back(population_[order[e]]);
    }
  }
  while (next.size() < options_.population) {
    auto [parent_a, parent_b] = tournament(population_, scores_);
    Genome child_a = *parent_a;
    Genome child_b = *parent_b;
    if (rng_.chance(options_.crossover_prob)) {
      // Uniform crossover.
      for (std::size_t g = 0; g < child_a.size(); ++g) {
        if (rng_.chance(0.5)) std::swap(child_a[g], child_b[g]);
      }
    }
    // With a restricted subset, concentrate the same mutation pressure
    // on the few free genes (a masked generation should explore its
    // subspace as vigorously as a full generation explores the space).
    const double gene_mutation_prob =
        subset.empty()
            ? options_.mutation_prob
            : std::max(options_.mutation_prob,
                       std::min(0.5, options_.mutation_prob *
                                         static_cast<double>(
                                             space().num_parameters()) /
                                         static_cast<double>(subset.size())));
    auto mutate = [&](Genome& genome) {
      for (std::size_t g = 0; g < genome.size(); ++g) {
        if (rng_.chance(gene_mutation_prob)) {
          genome[g] = rng_.index(space().parameter(g).domain.size());
        }
      }
    };
    mutate(child_a);
    mutate(child_b);
    // Impact-first masking: genes outside the subset are frozen at the
    // elite's values, so the search only explores high-impact axes.
    if (!subset.empty() && elite.has_value()) {
      auto in_subset = [&](std::size_t g) {
        return std::binary_search(subset.begin(), subset.end(), g);
      };
      for (std::size_t g = 0; g < child_a.size(); ++g) {
        if (!in_subset(g)) {
          child_a[g] = elite->indices()[g];
          child_b[g] = elite->indices()[g];
        }
      }
    }
    next.push_back(std::move(child_a));
    if (next.size() < options_.population) {
      next.push_back(std::move(child_b));
    }
  }
  population_ = std::move(next);
  scores_.assign(population_.size(), 0.0);
}

std::vector<cfg::Configuration> GeneticTuner::next_batch() {
  if (iteration() == 0) {
    // Initial population: the stack defaults (or the caller's seed
    // configuration) plus mutated explorers. Individual 0 also measures
    // the starting perf reported as `initial_perf`.
    if (options_.seed_indices.has_value()) {
      TUNIO_CHECK_MSG(
          options_.seed_indices->size() == space().num_parameters(),
          "seed configuration arity mismatch");
      population_.push_back(*options_.seed_indices);
    } else {
      population_.push_back(space().default_configuration().indices());
    }
    while (population_.size() < options_.population) {
      population_.push_back(random_genome());
    }
    scores_.assign(population_.size(), 0.0);
  } else {
    breed();
  }

  // Smart Configuration Generation hook: which genes may move.
  subset_.clear();
  if (subset_provider_) {
    subset_ = subset_provider_(iteration(), progress());
    std::sort(subset_.begin(), subset_.end());
    subset_.erase(std::unique(subset_.begin(), subset_.end()), subset_.end());
    TUNIO_CHECK_MSG(
        subset_.empty() || subset_.back() < space().num_parameters(),
        "subset index out of range");
  }

  // Partition the generation into cache hits and fresh work. The fresh
  // genomes go through `evaluate_batch` as one batch, so a parallel
  // objective (the service evaluation engine) overlaps them; duplicates
  // within a generation are evaluated once when caching is on.
  std::vector<cfg::Configuration> batch;
  batch_slot_.clear();
  std::set<Genome> in_batch;
  for (std::size_t i = 0; i < population_.size(); ++i) {
    if (options_.cache_evaluations &&
        (fitness_cache_.count(population_[i]) > 0 ||
         !in_batch.insert(population_[i]).second)) {
      continue;
    }
    batch.push_back(to_config(population_[i]));
    batch_slot_.push_back(i);
  }
  return batch;
}

double GeneticTuner::iteration_best(
    const std::vector<Evaluation>& fresh) const {
  // Individuals outside the batch are fitness-cache hits or duplicates of
  // a batch entry; the cache holds the former until `absorb`. A
  // generation with no fresh evaluation is all cache hits.
  double best = fresh.empty() ? -std::numeric_limits<double>::infinity()
                              : TunerBase::iteration_best(fresh);
  for (const Genome& genome : population_) {
    const auto hit = fitness_cache_.find(genome);
    if (hit != fitness_cache_.end()) {
      best = std::max(best, hit->second.perf_mbps);
    }
  }
  return best;
}

void GeneticTuner::absorb(const std::vector<cfg::Configuration>& /*batch*/,
                          const std::vector<Evaluation>& fresh) {
  if (options_.cache_evaluations) {
    for (std::size_t b = 0; b < fresh.size(); ++b) {
      fitness_cache_.emplace(population_[batch_slot_[b]], fresh[b]);
    }
    for (std::size_t i = 0; i < population_.size(); ++i) {
      scores_[i] = fitness_cache_.at(population_[i]).perf_mbps;
    }
  } else {
    for (std::size_t b = 0; b < fresh.size(); ++b) {
      scores_[batch_slot_[b]] = fresh[b].perf_mbps;
    }
  }

  // Cache hits bill nothing: `TunerBase` billed only `fresh`.
  const std::vector<GenerationStats>& history = progress().history;
  const double spent_before =
      history.size() > 1 ? history[history.size() - 2].cumulative_seconds
                         : 0.0;
  GaMetrics::get().cache_hits.add(population_.size() - fresh.size());
  GaMetrics::get().budget_seconds.add(progress().total_seconds -
                                      spent_before);

  if (iteration() + 1 >= options_.max_generations) set_done();
}

}  // namespace tunio::tuner

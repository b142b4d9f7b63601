#include "tuner/genetic_tuner.hpp"

#include <algorithm>
#include <map>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"

namespace tunio::tuner {

namespace {

/// Cached registry handles (see PfsMetrics for the pattern rationale).
struct TunerMetrics {
  obs::Counter& generations;
  obs::Counter& evaluations;
  obs::Counter& cache_hits;
  obs::Gauge& budget_seconds;

  static TunerMetrics& get() {
    static TunerMetrics* metrics = [] {
      obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
      return new TunerMetrics{
          registry.counter("tuner.generations"),
          registry.counter("tuner.evaluations"),
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
    : space_(space), options_(options), rng_(options.seed) {
  TUNIO_CHECK_MSG(options_.population >= 4, "population too small");
  TUNIO_CHECK_MSG(options_.tournament_size >= 2, "tournament too small");
  TUNIO_CHECK_MSG(options_.elitism < options_.population,
                  "elitism must leave room for offspring");
  done_ = options_.max_generations == 0;
}

void GeneticTuner::set_subset_provider(SubsetProvider provider) {
  subset_provider_ = std::move(provider);
}

cfg::Configuration GeneticTuner::to_config(const Genome& genome) const {
  return cfg::Configuration(&space_, genome);
}

GeneticTuner::Genome GeneticTuner::random_genome() {
  // Mutant of the defaults (see GaOptions::init_mutation_prob).
  Genome genome = space_.default_configuration().indices();
  for (std::size_t i = 0; i < genome.size(); ++i) {
    if (rng_.chance(options_.init_mutation_prob)) {
      genome[i] = rng_.index(space_.parameter(i).domain.size());
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
  const std::vector<std::size_t>& subset = last_subset_;
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
                                             space_.num_parameters()) /
                                         static_cast<double>(subset.size())));
    auto mutate = [&](Genome& genome) {
      for (std::size_t g = 0; g < genome.size(); ++g) {
        if (rng_.chance(gene_mutation_prob)) {
          genome[g] = rng_.index(space_.parameter(g).domain.size());
        }
      }
    };
    mutate(child_a);
    mutate(child_b);
    // Impact-first masking: genes outside the subset are frozen at the
    // elite's values, so the search only explores high-impact axes.
    if (!subset.empty()) {
      auto in_subset = [&](std::size_t g) {
        return std::binary_search(subset.begin(), subset.end(), g);
      };
      for (std::size_t g = 0; g < child_a.size(); ++g) {
        if (!in_subset(g)) {
          child_a[g] = best_genome_[g];
          child_b[g] = best_genome_[g];
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

std::vector<cfg::Configuration> GeneticTuner::propose() {
  TUNIO_CHECK_MSG(!pending_, "propose before observing the last generation");
  TUNIO_CHECK_MSG(!done_, "tuner already ran its full budget");

  if (!initialized_) {
    // Initial population: the stack defaults (or the caller's seed
    // configuration) plus mutated explorers. Individual 0 also measures
    // the starting perf reported as `initial_perf`.
    if (options_.seed_indices.has_value()) {
      TUNIO_CHECK_MSG(options_.seed_indices->size() == space_.num_parameters(),
                      "seed configuration arity mismatch");
      population_.push_back(*options_.seed_indices);
    } else {
      population_.push_back(space_.default_configuration().indices());
    }
    while (population_.size() < options_.population) {
      population_.push_back(random_genome());
    }
    scores_.assign(population_.size(), 0.0);
    best_genome_ = population_.front();
    initialized_ = true;
  } else {
    // Breed the next generation from the observed one. The mask is the
    // subset active when those scores were produced (`last_subset_`);
    // the provider below picks the subset for the *following* breeding.
    breed();
  }

  // Smart Configuration Generation hook: which genes may move.
  subset_.clear();
  if (subset_provider_) {
    subset_ = subset_provider_(generation_, result_);
    std::sort(subset_.begin(), subset_.end());
    subset_.erase(std::unique(subset_.begin(), subset_.end()), subset_.end());
    TUNIO_CHECK_MSG(subset_.empty() || subset_.back() < space_.num_parameters(),
                    "subset index out of range");
  }

  // Partition the generation into cache hits and fresh work. The fresh
  // genomes go through `evaluate_batch` as one batch, so a parallel
  // objective (the service evaluation engine) overlaps them; duplicates
  // within a generation are evaluated once when caching is on.
  std::vector<cfg::Configuration> batch;
  batch_slot_.clear();
  std::map<Genome, std::size_t> in_batch;
  for (std::size_t i = 0; i < population_.size(); ++i) {
    if (options_.cache_evaluations) {
      if (fitness_cache_.count(population_[i]) > 0 ||
          in_batch.count(population_[i]) > 0) {
        continue;
      }
      in_batch.emplace(population_[i], batch.size());
    }
    batch.push_back(to_config(population_[i]));
    batch_slot_.push_back(i);
  }
  pending_ = true;
  return batch;
}

void GeneticTuner::observe(const std::vector<Evaluation>& fresh) {
  TUNIO_CHECK_MSG(pending_, "observe without a propose");
  TUNIO_CHECK_MSG(fresh.size() == batch_slot_.size(),
                  "evaluate_batch returned wrong arity");
  pending_ = false;

  TunerMetrics::get().evaluations.add(fresh.size());
  TunerMetrics::get().cache_hits.add(population_.size() - batch_slot_.size());

  // Budget accounting sums the *simulated* cost of the fresh evaluations
  // — never wall-clock — so a parallel engine bills exactly what a
  // serial run would. Cache hits bill zero: nothing was re-run.
  double billed_seconds = 0.0;
  for (const Evaluation& eval : fresh) billed_seconds += eval.eval_seconds;

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

  const double generation_start = cumulative_seconds_;
  cumulative_seconds_ += billed_seconds;
  // Downstream RL hooks (stoppers, subset pickers) run between
  // generations and own no clock; the ambient timestamp hands them the
  // tuning-budget time so their trace events land on the right axis.
  obs::Tracer::set_ambient_seconds(cumulative_seconds_);
  double generation_best = -1.0;
  for (std::size_t i = 0; i < population_.size(); ++i) {
    generation_best = std::max(generation_best, scores_[i]);
    if (scores_[i] > best_perf_) {
      best_perf_ = scores_[i];
      best_genome_ = population_[i];
    }
  }
  if (generation_ == 0) {
    result_.initial_perf = scores_[0];  // the default configuration
  }

  GenerationStats stats;
  stats.generation = generation_;
  stats.generation_best_perf = generation_best;
  stats.best_perf = best_perf_;
  stats.cumulative_seconds = cumulative_seconds_;
  stats.subset = subset_;
  result_.history.push_back(stats);
  result_.best_perf = best_perf_;
  result_.best_config = to_config(best_genome_);
  result_.total_seconds = cumulative_seconds_;
  result_.generations_run = generation_ + 1;

  TunerMetrics::get().generations.add(1);
  TunerMetrics::get().budget_seconds.add(cumulative_seconds_ -
                                         generation_start);
  obs::Tracer& tracer = obs::Tracer::global();
  if (tracer.enabled()) {
    // Generations live on the cumulative tuning-budget clock, a
    // different axis from the per-run sim clocks of the stack spans.
    tracer.span("tuner", "generation", generation_start, cumulative_seconds_,
                obs::kPidTuner, /*tid=*/0,
                {{"generation", std::to_string(generation_)},
                 {"best_mbps", obs::json_number(best_perf_)},
                 {"gen_best_mbps", obs::json_number(generation_best)}});
  }

  last_subset_ = subset_;
  ++generation_;
  if (generation_ >= options_.max_generations) done_ = true;
}

void GeneticTuner::finish(bool early_stopped) {
  if (!early_stopped) return;
  result_.early_stopped = true;
  done_ = true;
}

}  // namespace tunio::tuner

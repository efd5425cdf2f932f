//! A genetic algorithm using valid-neighbor mutation.
//!
//! The mutation step illustrates why the resolved `SearchSpace` matters: a
//! mutated individual is chosen among the *valid* Hamming neighbors of its
//! parent (Section 4.4), so the GA never wastes evaluations on configurations
//! that violate constraints.
//!
//! The algorithm is generational (µ+λ): each generation proposes a full
//! batch of offspring through [`TuningContext::evaluate_batch`], so the
//! engine can measure the whole generation in parallel, then parents and
//! offspring compete for the next generation's population slots.

use rand::seq::SliceRandom;
use rand::Rng;

use at_searchspace::{ConfigId, NeighborIndex, NeighborMethod};

use crate::eval::out_of_budget;
use crate::tuning::{Strategy, TuningContext};

/// A generational (µ+λ) genetic algorithm over configuration indices.
#[derive(Debug, Clone, Copy)]
pub struct GeneticAlgorithm {
    /// Population size (and offspring batch size per generation).
    pub population_size: usize,
    /// Probability of mutating an offspring to a random valid neighbor.
    pub mutation_rate: f64,
    /// Tournament size for parent selection.
    pub tournament: usize,
}

impl Default for GeneticAlgorithm {
    fn default() -> Self {
        GeneticAlgorithm {
            population_size: 16,
            mutation_rate: 0.3,
            tournament: 3,
        }
    }
}

impl GeneticAlgorithm {
    /// Single-point crossover on the encoded code rows, snapped back into
    /// the valid space through the hash index — no `Value` is ever cloned.
    /// Returns `None` when the offspring is not a valid configuration.
    fn crossover(
        &self,
        ctx: &mut TuningContext<'_>,
        parent_a: ConfigId,
        parent_b: ConfigId,
    ) -> Option<ConfigId> {
        let dims = ctx.space().num_params();
        let cut = ctx.rng().gen_range(1..dims.max(2));
        let space = ctx.space();
        let a = space.codes_of(parent_a)?;
        let b = space.codes_of(parent_b)?;
        let mut child = Vec::with_capacity(dims);
        child.extend_from_slice(&a[..cut.min(a.len())]);
        child.extend_from_slice(&b[cut.min(b.len())..]);
        space.index_of_codes(&child)
    }

    /// Tournament selection from the current population.
    fn select(&self, ctx: &mut TuningContext<'_>, population: &[(ConfigId, f64)]) -> ConfigId {
        let mut best: Option<(ConfigId, f64)> = None;
        for _ in 0..self.tournament {
            let pick = population[ctx.rng().gen_range(0..population.len())];
            if best.map(|b| pick.1 < b.1).unwrap_or(true) {
                best = Some(pick);
            }
        }
        best.expect("non-empty population").0
    }
}

impl Strategy for GeneticAlgorithm {
    fn name(&self) -> &'static str {
        "genetic-algorithm"
    }

    fn run(&self, ctx: &mut TuningContext<'_>) {
        let mut index = NeighborIndex::build(ctx.space());
        let n = ctx.space().len();
        let pop_size = self.population_size.max(2).min(n);

        // initial population: one batch of distinct random configurations
        let mut all: Vec<ConfigId> = ctx.space().ids().collect();
        all.shuffle(ctx.rng());
        let seeds = &all[..pop_size];
        let outcomes = ctx.evaluate_batch(seeds);
        let mut population: Vec<(ConfigId, f64)> = seeds
            .iter()
            .zip(&outcomes)
            .filter_map(|(&id, o)| o.runtime().map(|t| (id, t)))
            .collect();
        if out_of_budget(&outcomes) || population.len() < 2 {
            return;
        }

        while !ctx.exhausted() {
            // propose a whole generation of offspring
            let mut offspring: Vec<ConfigId> = Vec::with_capacity(pop_size);
            for _ in 0..pop_size {
                let parent_a = self.select(ctx, &population);
                let parent_b = self.select(ctx, &population);

                // crossover, falling back to a parent when the child is invalid
                let mut child = self.crossover(ctx, parent_a, parent_b).unwrap_or(parent_a);

                // mutation: jump to a random valid Hamming neighbor
                if ctx.rng().gen_bool(self.mutation_rate) {
                    let neighbor_list = index.neighbors(child, NeighborMethod::Hamming);
                    if !neighbor_list.is_empty() {
                        child = neighbor_list[ctx.rng().gen_range(0..neighbor_list.len())];
                    }
                }
                offspring.push(child);
            }

            let outcomes = ctx.evaluate_batch(&offspring);
            population.extend(
                offspring
                    .iter()
                    .zip(&outcomes)
                    .filter_map(|(&id, o)| o.runtime().map(|t| (id, t))),
            );

            // µ+λ survivor selection: best distinct individuals, ties broken
            // by id so the outcome is deterministic
            population.sort_by(|a, b| {
                a.1.partial_cmp(&b.1)
                    .expect("no NaN runtimes")
                    .then_with(|| a.0.index().cmp(&b.0.index()))
            });
            population.dedup_by_key(|p| p.0);
            population.truncate(pop_size);

            if out_of_budget(&outcomes) {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::SyntheticKernel;
    use crate::tuning::tune;
    use at_searchspace::prelude::*;
    use std::time::Duration;

    #[test]
    fn ga_improves_over_initial_population_average() {
        let spec = SearchSpaceSpec::new("s")
            .with_param(TunableParameter::pow2("x", 7))
            .with_param(TunableParameter::pow2("y", 6))
            .with_param(TunableParameter::ints("t", [1, 2, 4]))
            .with_expr("32 <= x * y <= 2048")
            .with_expr("t <= y");
        let (space, _) = build_search_space(&spec, Method::Optimized).unwrap();
        let model = SyntheticKernel::for_space(&space, 31);
        let ga = GeneticAlgorithm::default();
        let run = tune(
            &space,
            &model,
            &ga,
            Duration::from_secs(60),
            Duration::ZERO,
            77,
        );
        let initial_avg: f64 = run.evaluations[..ga.population_size.min(run.num_evaluations())]
            .iter()
            .map(|e| e.runtime_ms)
            .sum::<f64>()
            / ga.population_size.min(run.num_evaluations()) as f64;
        assert!(run.best_runtime_ms().unwrap() < initial_avg);
    }

    #[test]
    fn ga_only_evaluates_valid_configurations() {
        let spec = SearchSpaceSpec::new("s")
            .with_param(TunableParameter::pow2("x", 6))
            .with_param(TunableParameter::pow2("y", 6))
            .with_expr("x * y == 64");
        let (space, _) = build_search_space(&spec, Method::Optimized).unwrap();
        let model = SyntheticKernel::for_space(&space, 2);
        let run = tune(
            &space,
            &model,
            &GeneticAlgorithm::default(),
            Duration::from_secs(20),
            Duration::ZERO,
            8,
        );
        for e in &run.evaluations {
            assert!(space.view(e.config_index).is_some());
        }
        // the GA proposes no out-of-space ids, only possibly-duplicate ones
        assert_eq!(run.metrics.rejected, 0);
    }

    #[test]
    fn ga_proposes_whole_generations() {
        let spec = SearchSpaceSpec::new("s")
            .with_param(TunableParameter::pow2("x", 7))
            .with_param(TunableParameter::pow2("y", 6))
            .with_expr("32 <= x * y <= 2048");
        let (space, _) = build_search_space(&spec, Method::Optimized).unwrap();
        let model = SyntheticKernel::for_space(&space, 31);
        let ga = GeneticAlgorithm::default();
        let run = tune(
            &space,
            &model,
            &ga,
            Duration::from_secs(30),
            Duration::ZERO,
            77,
        );
        assert_eq!(run.metrics.largest_batch, ga.population_size);
        assert!(run.metrics.batches >= 2);
    }
}

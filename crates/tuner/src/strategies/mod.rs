//! Optimization strategies.
//!
//! The paper's end-to-end experiment uses random sampling to avoid biasing
//! the comparison towards any particular optimizer; the other strategies
//! exercise the `SearchSpace` neighbor and sampling machinery the same way
//! Kernel Tuner's optimizers do.
//!
//! All strategies drive the batched evaluation engine: population methods
//! (GA, DE, PSO) submit whole generations/swarms per call, the local
//! searches (hill climbing, ILS) submit neighbor rings, random sampling
//! submits fixed-size chunks of its shuffled order, and simulated annealing
//! — inherently sequential — submits batches of one.

mod differential_evolution;
mod genetic;
mod hill_climbing;
mod iterated_local_search;
mod particle_swarm;
mod random_sampling;
mod simulated_annealing;

pub use differential_evolution::DifferentialEvolution;
pub use genetic::GeneticAlgorithm;
pub use hill_climbing::HillClimbing;
pub use iterated_local_search::IteratedLocalSearch;
pub use particle_swarm::ParticleSwarm;
pub use random_sampling::RandomSampling;
pub use simulated_annealing::SimulatedAnnealing;

use crate::tuning::Strategy;

/// Construct a strategy by name: `random`, `genetic`, `hill-climbing`,
/// `simulated-annealing`, `differential-evolution`, `particle-swarm`,
/// `iterated-local-search`.
pub fn strategy_by_name(name: &str) -> Option<Box<dyn Strategy>> {
    match name {
        "random" | "random-sampling" => Some(Box::new(RandomSampling)),
        "genetic" | "ga" => Some(Box::new(GeneticAlgorithm::default())),
        "hill-climbing" | "greedy" => Some(Box::new(HillClimbing::default())),
        "simulated-annealing" | "sa" => Some(Box::new(SimulatedAnnealing::default())),
        "differential-evolution" | "de" => Some(Box::new(DifferentialEvolution::default())),
        "particle-swarm" | "pso" => Some(Box::new(ParticleSwarm::default())),
        "iterated-local-search" | "ils" => Some(Box::new(IteratedLocalSearch::default())),
        _ => None,
    }
}

/// The names of all built-in strategies (canonical spellings).
pub fn all_strategy_names() -> &'static [&'static str] {
    &[
        "random",
        "genetic",
        "hill-climbing",
        "simulated-annealing",
        "differential-evolution",
        "particle-swarm",
        "iterated-local-search",
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::SyntheticKernel;
    use crate::tuning::tune;
    use at_searchspace::prelude::*;
    use std::time::Duration;

    pub(crate) fn test_space() -> SearchSpace {
        let spec = SearchSpaceSpec::new("strategy-test")
            .with_param(TunableParameter::pow2("block_size_x", 8))
            .with_param(TunableParameter::pow2("block_size_y", 6))
            .with_param(TunableParameter::ints("tile", [1, 2, 4, 8]))
            .with_expr("32 <= block_size_x*block_size_y <= 1024")
            .with_expr("tile <= block_size_y");
        build_search_space(&spec, Method::Optimized).unwrap().0
    }

    #[test]
    fn strategy_by_name_resolves() {
        for name in all_strategy_names() {
            assert!(strategy_by_name(name).is_some(), "{name}");
        }
        for alias in ["ga", "greedy", "sa", "de", "pso", "ils", "random-sampling"] {
            assert!(strategy_by_name(alias).is_some(), "{alias}");
        }
        assert!(strategy_by_name("bogus").is_none());
    }

    #[test]
    fn every_strategy_finds_a_reasonable_configuration() {
        let space = test_space();
        let model = SyntheticKernel::for_space(&space, 11);
        // global optimum by exhaustive evaluation of the model
        let best_possible = space
            .iter_decoded()
            .map(|c| {
                use crate::kernel::PerformanceModel;
                model.runtime_ms(&c)
            })
            .fold(f64::INFINITY, f64::min);
        for name in all_strategy_names() {
            let strategy = strategy_by_name(name).unwrap();
            let run = tune(
                &space,
                &model,
                strategy.as_ref(),
                Duration::from_secs(60),
                Duration::ZERO,
                1234,
            );
            let best = run.best_runtime_ms().unwrap();
            assert!(
                best <= best_possible * 1.5,
                "{name}: found {best:.3} vs optimum {best_possible:.3}"
            );
            assert!(run.num_evaluations() >= 10, "{name} evaluated too little");
        }
    }

    #[test]
    fn every_strategy_is_identical_across_thread_counts() {
        use crate::eval::EvalOptions;
        use crate::tuning::tune_with_options;
        let space = test_space();
        let model = SyntheticKernel::for_space(&space, 7);
        for name in all_strategy_names() {
            let strategy = strategy_by_name(name).unwrap();
            let budget = Duration::from_secs(5);
            let serial = tune_with_options(
                &space,
                &model,
                strategy.as_ref(),
                budget,
                Duration::ZERO,
                99,
                EvalOptions::with_threads(1),
            );
            let parallel = tune_with_options(
                &space,
                &model,
                strategy.as_ref(),
                budget,
                Duration::ZERO,
                99,
                EvalOptions::with_threads(8),
            );
            assert_eq!(serial.evaluations, parallel.evaluations, "{name}");
            assert_eq!(serial.total_ms, parallel.total_ms, "{name}");
        }
    }

    #[test]
    fn strategies_stop_when_budget_exhausted() {
        let space = test_space();
        let model = SyntheticKernel::for_space(&space, 3);
        for name in all_strategy_names() {
            let strategy = strategy_by_name(name).unwrap();
            let run = tune(
                &space,
                &model,
                strategy.as_ref(),
                Duration::from_millis(500),
                Duration::ZERO,
                5,
            );
            assert!(run.total_ms <= run.budget_ms + 1e-9, "{name}");
        }
    }

    #[test]
    fn every_strategy_handles_one_and_two_configuration_spaces() {
        use crate::kernel::PerformanceModel;
        // {(4, 2)}, then {(2, 2), (4, 2)}: Hamming neighbors of each other
        for (constraint, size) in [("x * y == 8", 1), ("x * y >= 4 and y == 2", 2)] {
            let spec = SearchSpaceSpec::new("tiny")
                .with_param(TunableParameter::ints("x", [1, 2, 4]))
                .with_param(TunableParameter::ints("y", [1, 2]))
                .with_expr(constraint);
            let space = build_search_space(&spec, Method::Optimized).unwrap().0;
            assert_eq!(space.len(), size);
            let model = SyntheticKernel::for_space(&space, 5);
            let best_possible = space
                .iter_decoded()
                .map(|c| model.runtime_ms(&c))
                .fold(f64::INFINITY, f64::min);
            for name in all_strategy_names() {
                let strategy = strategy_by_name(name).unwrap();
                let run = tune(
                    &space,
                    &model,
                    strategy.as_ref(),
                    Duration::from_secs(5),
                    Duration::ZERO,
                    3,
                );
                assert!(run.num_evaluations() >= 1, "{name} on {size}");
                assert_eq!(
                    run.best_runtime_ms(),
                    Some(best_possible),
                    "{name} on {size}"
                );
            }
        }
    }
}

//! Simulated annealing over valid neighbors.

use rand::Rng;

use at_searchspace::{ConfigId, NeighborIndex, NeighborMethod};

use crate::tuning::{Strategy, TuningContext};

/// Simulated annealing: random neighbor moves accepted with a
/// temperature-dependent Metropolis criterion. The Markov chain makes each
/// proposal depend on the previous acceptance, so SA is inherently
/// sequential: it drives the batch engine with batches of one
/// ([`TuningContext::evaluate_one`]).
#[derive(Debug, Clone, Copy)]
pub struct SimulatedAnnealing {
    /// Initial temperature relative to the first measured runtime.
    pub initial_temperature: f64,
    /// Multiplicative cooling factor applied per move.
    pub cooling: f64,
    /// Neighbor definition used for proposals.
    pub neighbor_method: NeighborMethod,
}

impl Default for SimulatedAnnealing {
    fn default() -> Self {
        SimulatedAnnealing {
            initial_temperature: 0.5,
            cooling: 0.98,
            neighbor_method: NeighborMethod::Hamming,
        }
    }
}

impl Strategy for SimulatedAnnealing {
    fn name(&self) -> &'static str {
        "simulated-annealing"
    }

    fn run(&self, ctx: &mut TuningContext<'_>) {
        let mut index = NeighborIndex::build(ctx.space());
        let n = ctx.space().len();
        let mut current = ConfigId::from_index(ctx.rng().gen_range(0..n));
        let mut current_time = match ctx.evaluate_one(current).runtime() {
            Some(t) => t,
            None => return,
        };
        let mut temperature = self.initial_temperature * current_time;
        while !ctx.exhausted() {
            let neighbor_list = index.neighbors(current, self.neighbor_method);
            if neighbor_list.is_empty() {
                // isolated configuration: restart somewhere else
                current = ConfigId::from_index(ctx.rng().gen_range(0..n));
                current_time = match ctx.evaluate_one(current).runtime() {
                    Some(t) => t,
                    None => return,
                };
                continue;
            }
            let pick = neighbor_list[ctx.rng().gen_range(0..neighbor_list.len())];
            let candidate_time = match ctx.evaluate_one(pick).runtime() {
                Some(t) => t,
                None => return,
            };
            let delta = candidate_time - current_time;
            let accept = delta <= 0.0 || {
                let p = (-delta / temperature.max(1e-9)).exp();
                ctx.rng().gen_bool(p.clamp(0.0, 1.0))
            };
            if accept {
                current = pick;
                current_time = candidate_time;
            }
            temperature *= self.cooling;
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
    fn improves_over_the_initial_configuration() {
        let spec = SearchSpaceSpec::new("s")
            .with_param(TunableParameter::pow2("x", 7))
            .with_param(TunableParameter::pow2("y", 6))
            .with_expr("8 <= x * y <= 2048");
        let (space, _) = build_search_space(&spec, Method::Optimized).unwrap();
        let model = SyntheticKernel::for_space(&space, 23);
        let run = tune(
            &space,
            &model,
            &SimulatedAnnealing::default(),
            Duration::from_secs(60),
            Duration::ZERO,
            5,
        );
        assert!(run.best_runtime_ms().unwrap() <= run.evaluations[0].runtime_ms);
        assert!(run.num_evaluations() > 5);
        // SA drives the engine strictly with batches of one
        assert_eq!(run.metrics.largest_batch, 1);
    }
}

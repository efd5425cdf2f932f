//! Iterated local search (ILS).
//!
//! ILS alternates greedy local search with a perturbation step: after
//! reaching a local optimum it jumps a few random Hamming steps away and
//! restarts the descent from there, accepting the new local optimum only if
//! it improves on the incumbent. Kernel Tuner ships this as `greedy_ils`; it
//! tends to outperform plain restarts on the plateau-rich landscapes of GPU
//! tuning spaces. The descent proposes each neighbor ring as one batch, so
//! the engine can measure the ring in parallel.

use rand::Rng;

use at_searchspace::{ConfigId, NeighborIndex, NeighborMethod};

use crate::eval::out_of_budget;
use crate::tuning::{Strategy, TuningContext};

/// Iterated local search over Hamming-distance-1 neighborhoods.
#[derive(Debug, Clone, Copy)]
pub struct IteratedLocalSearch {
    /// Number of random Hamming steps applied by the perturbation.
    pub perturbation_strength: usize,
    /// Neighbor definition used for both descent and perturbation.
    pub neighbor_method: NeighborMethod,
    /// Accept a worse local optimum with this probability (a small amount of
    /// diversification keeps the walk from cycling between two basins).
    pub accept_worse_probability: f64,
}

impl Default for IteratedLocalSearch {
    fn default() -> Self {
        IteratedLocalSearch {
            perturbation_strength: 3,
            neighbor_method: NeighborMethod::Hamming,
            accept_worse_probability: 0.05,
        }
    }
}

impl IteratedLocalSearch {
    /// Greedy best-improvement descent from `start`, batching each neighbor
    /// ring. Returns the local optimum and its runtime, or `None` when the
    /// budget ran out.
    fn descend(
        &self,
        ctx: &mut TuningContext<'_>,
        index: &mut NeighborIndex<'_>,
        start: ConfigId,
        start_time: f64,
    ) -> Option<(ConfigId, f64)> {
        let mut current = start;
        let mut current_time = start_time;
        loop {
            let ring = index.neighbors(current, self.neighbor_method);
            let outcomes = ctx.evaluate_batch(ring);
            let mut best_neighbor: Option<(ConfigId, f64)> = None;
            for (&candidate, outcome) in ring.iter().zip(&outcomes) {
                if let Some(t) = outcome.runtime() {
                    if t < current_time && best_neighbor.map(|(_, bt)| t < bt).unwrap_or(true) {
                        best_neighbor = Some((candidate, t));
                    }
                }
            }
            if out_of_budget(&outcomes) {
                return None;
            }
            match best_neighbor {
                Some((next, t)) => {
                    current = next;
                    current_time = t;
                }
                None => return Some((current, current_time)),
            }
        }
    }

    /// Random walk of `perturbation_strength` neighbor steps from `from`.
    fn perturb(
        &self,
        ctx: &mut TuningContext<'_>,
        index: &mut NeighborIndex<'_>,
        from: ConfigId,
    ) -> ConfigId {
        let mut current = from;
        for _ in 0..self.perturbation_strength {
            let options = index.neighbors(current, self.neighbor_method);
            if options.is_empty() {
                break;
            }
            current = options[ctx.rng().gen_range(0..options.len())];
        }
        current
    }
}

impl Strategy for IteratedLocalSearch {
    fn name(&self) -> &'static str {
        "iterated-local-search"
    }

    fn run(&self, ctx: &mut TuningContext<'_>) {
        let mut index = NeighborIndex::build(ctx.space());
        let n = ctx.space().len();

        let start = ConfigId::from_index(ctx.rng().gen_range(0..n));
        let start_time = match ctx.evaluate_one(start).runtime() {
            Some(t) => t,
            None => return,
        };
        let mut incumbent = match self.descend(ctx, &mut index, start, start_time) {
            Some(opt) => opt,
            None => return,
        };

        while !ctx.exhausted() {
            let restart = self.perturb(ctx, &mut index, incumbent.0);
            let restart_time = match ctx.evaluate_one(restart).runtime() {
                Some(t) => t,
                None => return,
            };
            let candidate = match self.descend(ctx, &mut index, restart, restart_time) {
                Some(opt) => opt,
                None => return,
            };
            let accept = candidate.1 < incumbent.1
                || ctx
                    .rng()
                    .gen_bool(self.accept_worse_probability.clamp(0.0, 1.0));
            if accept {
                incumbent = candidate;
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

    fn space() -> SearchSpace {
        let spec = SearchSpaceSpec::new("ils")
            .with_param(TunableParameter::pow2("x", 7))
            .with_param(TunableParameter::pow2("y", 6))
            .with_param(TunableParameter::ints("w", [1, 2, 4, 8]))
            .with_expr("32 <= x * y <= 2048")
            .with_expr("w <= y");
        build_search_space(&spec, Method::Optimized).unwrap().0
    }

    #[test]
    fn ils_improves_over_its_first_evaluation() {
        let s = space();
        let k = SyntheticKernel::for_space(&s, 23);
        let run = tune(
            &s,
            &k,
            &IteratedLocalSearch::default(),
            Duration::from_secs(45),
            Duration::ZERO,
            17,
        );
        assert!(run.num_evaluations() > 1);
        assert!(run.best_runtime_ms().unwrap() <= run.evaluations[0].runtime_ms);
    }

    #[test]
    fn ils_only_evaluates_valid_configurations() {
        let s = space();
        let k = SyntheticKernel::for_space(&s, 4);
        let run = tune(
            &s,
            &k,
            &IteratedLocalSearch::default(),
            Duration::from_secs(10),
            Duration::ZERO,
            2,
        );
        for e in &run.evaluations {
            assert!(s.view(e.config_index).is_some());
        }
    }

    #[test]
    fn ils_respects_the_budget() {
        let s = space();
        let k = SyntheticKernel::for_space(&s, 4);
        let run = tune(
            &s,
            &k,
            &IteratedLocalSearch::default(),
            Duration::from_millis(700),
            Duration::ZERO,
            6,
        );
        assert!(run.total_ms <= run.budget_ms + 1e-9);
    }
}

//! End-to-end tuning integration tests (the Section 5.4 scenario): search
//! space construction feeding into budgeted tuning with simulated kernels.

use std::time::Duration;

use autotuning_searchspaces::prelude::*;
use autotuning_searchspaces::tuner::{strategy_by_name, GeneticAlgorithm, HillClimbing, TuningRun};
use autotuning_searchspaces::workloads::{
    dedispersion, gemm, performance_model_for, real_world_by_name,
};

#[test]
fn construction_time_eats_into_the_tuning_budget() {
    let (space, _) = build_search_space(&dedispersion().spec, Method::Optimized).unwrap();
    let model = performance_model_for("Dedispersion", &space, 7);
    let budget = Duration::from_secs(30);

    let fast = tune(&space, &model, &RandomSampling, budget, Duration::ZERO, 11);
    let slow = tune(
        &space,
        &model,
        &RandomSampling,
        budget,
        Duration::from_secs(25),
        11,
    );
    assert!(fast.num_evaluations() > slow.num_evaluations());
    // with the same seed, the slow run's evaluations are a prefix of the fast run's
    for (a, b) in slow.evaluations.iter().zip(fast.evaluations.iter()) {
        assert_eq!(a.config_index, b.config_index);
    }
    // and its best configuration can therefore not be better
    if let (Some(slow_best), Some(fast_best)) = (slow.best_runtime_ms(), fast.best_runtime_ms()) {
        assert!(fast_best <= slow_best);
    }
}

#[test]
fn all_strategies_only_evaluate_valid_configurations_of_gemm() {
    let (space, report) = build_search_space(&gemm().spec, Method::Optimized).unwrap();
    assert!(report.num_valid > 0);
    let model = performance_model_for("GEMM", &space, 3);
    let strategies: Vec<Box<dyn Strategy>> = vec![
        Box::new(RandomSampling),
        Box::new(GeneticAlgorithm::default()),
        Box::new(HillClimbing::default()),
    ];
    for strategy in strategies {
        let run = tune(
            &space,
            &model,
            strategy.as_ref(),
            Duration::from_secs(20),
            Duration::ZERO,
            5,
        );
        assert!(run.num_evaluations() > 0);
        for e in &run.evaluations {
            assert!(e.config_index.index() < space.len());
            assert!(e.runtime_ms > 0.0);
            assert!(e.finished_at_ms <= run.budget_ms);
        }
    }
}

#[test]
fn tuning_on_a_store_loaded_space_matches_tuning_on_the_cold_build() {
    // The production loop the ROADMAP aims at: the space is solved once,
    // persisted, and every later tuning session loads it pre-resolved. The
    // loaded space must drive the tuner identically — same ids, same
    // evaluations — and only charge the (much cheaper) load time to the
    // budget.
    let store_dir = std::env::temp_dir().join("at-tuning-e2e-store");
    let _ = std::fs::remove_dir_all(&store_dir);
    let store = SpaceStore::new(&store_dir).unwrap();
    let spec = dedispersion().spec;

    let (cold, outcome) = store.get_or_build(&spec, Method::Optimized).unwrap();
    assert!(!outcome.status.is_hit());
    let (warm, outcome) = store.get_or_build(&spec, Method::Optimized).unwrap();
    assert!(outcome.status.is_hit());

    let model = performance_model_for("Dedispersion", &cold, 7);
    let budget = Duration::from_secs(10);
    let on_cold = tune(&cold, &model, &RandomSampling, budget, Duration::ZERO, 42);
    let on_warm = tune(&warm, &model, &RandomSampling, budget, Duration::ZERO, 42);
    assert_eq!(on_cold.evaluations, on_warm.evaluations);

    // Charging the warm-load duration instead of a construction leaves
    // strictly more budget for evaluations than charging a slow build.
    let warm_loaded = tune(&warm, &model, &RandomSampling, budget, outcome.duration, 42);
    let slow_build = tune(
        &warm,
        &model,
        &RandomSampling,
        budget,
        Duration::from_secs(8),
        42,
    );
    assert!(warm_loaded.num_evaluations() >= slow_build.num_evaluations());
}

#[test]
fn tuning_on_a_zero_copy_mmap_space_matches_the_cold_build() {
    use autotuning_searchspaces::store::Load;

    let store_dir = std::env::temp_dir().join("at-tuning-e2e-mmap");
    let _ = std::fs::remove_dir_all(&store_dir);
    let store = SpaceStore::new(&store_dir).unwrap();
    let spec = dedispersion().spec;

    let (cold, _) = store.get_or_build(&spec, Method::Optimized).unwrap();
    let (mapped, outcome) = store
        .get_or_build_with_options(
            &spec,
            Method::Optimized,
            BuildOptions::default(),
            Load::Trusted,
        )
        .unwrap();
    assert!(outcome.status.is_hit());
    if cfg!(target_os = "linux") {
        assert!(mapped.is_zero_copy());
    }

    // Same ids, same evaluations: the tuner cannot tell the storages apart.
    let model = performance_model_for("Dedispersion", &cold, 7);
    let budget = Duration::from_secs(10);
    let on_cold = tune(&cold, &model, &RandomSampling, budget, Duration::ZERO, 42);
    let on_mapped = tune(&mapped, &model, &RandomSampling, budget, Duration::ZERO, 42);
    assert_eq!(on_cold.evaluations, on_mapped.evaluations);
}

#[test]
fn parallel_fanout_reproduces_the_serial_run_on_a_real_workload() {
    // The batched pipeline's core guarantee, end to end: the same workload,
    // strategy and seed produce the identical run whether evaluations fan
    // out over 1 thread or 8 — construction feeding batches feeding the
    // virtual clock, with the sharded cache in the middle.
    let (space, _) = build_search_space(&dedispersion().spec, Method::Optimized).unwrap();
    let model = performance_model_for("Dedispersion", &space, 7);
    let budget = Duration::from_secs(15);
    for strategy in [
        Box::new(RandomSampling) as Box<dyn Strategy>,
        Box::new(GeneticAlgorithm::default()),
        Box::new(HillClimbing::default()),
    ] {
        let serial = tune_with_options(
            &space,
            &model,
            strategy.as_ref(),
            budget,
            Duration::ZERO,
            21,
            EvalOptions::with_threads(1),
        );
        let parallel = tune_with_options(
            &space,
            &model,
            strategy.as_ref(),
            budget,
            Duration::ZERO,
            21,
            EvalOptions::with_threads(8),
        );
        assert_eq!(
            serial.evaluations, parallel.evaluations,
            "{}",
            serial.strategy
        );
        assert_eq!(serial.total_ms, parallel.total_ms, "{}", serial.strategy);
        assert_eq!(
            serial.metrics.cache_hits, parallel.metrics.cache_hits,
            "{}",
            serial.strategy
        );
    }
}

#[test]
fn tuning_runs_are_reproducible_per_seed() {
    let (space, _) = build_search_space(&dedispersion().spec, Method::Optimized).unwrap();
    let model = performance_model_for("Dedispersion", &space, 1);
    let a = tune(
        &space,
        &model,
        &RandomSampling,
        Duration::from_secs(10),
        Duration::ZERO,
        42,
    );
    let b = tune(
        &space,
        &model,
        &RandomSampling,
        Duration::from_secs(10),
        Duration::ZERO,
        42,
    );
    let c = tune(
        &space,
        &model,
        &RandomSampling,
        Duration::from_secs(10),
        Duration::ZERO,
        43,
    );
    assert_eq!(a.evaluations, b.evaluations);
    assert_ne!(
        a.evaluations.first().map(|e| e.config_index),
        c.evaluations.first().map(|e| e.config_index)
    );
}

/// FNV-1a-64 over a run's (config id, runtime bits) sequence, each as
/// little-endian `u64`s.
fn trajectory_digest(run: &TuningRun) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for e in &run.evaluations {
        let words = [e.config_index.index() as u64, e.runtime_ms.to_bits()];
        for byte in words.iter().flat_map(|w| w.to_le_bytes()) {
            h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn neighbor_strategy_trajectories_match_golden_values() {
    // (workload, strategy, evaluations, best id, trajectory digest), pinned
    // so that a change to how neighbors are served cannot move a run.
    #[rustfmt::skip]
    const GOLDEN: [(&str, &str, usize, usize, u64); 8] = [
        ("dedispersion", "genetic", 77, 2231, 0xc087_53f0_57b8_7c68),
        ("dedispersion", "simulated-annealing", 74, 1692, 0x20f8_1113_800b_6907),
        ("dedispersion", "hill-climbing", 75, 2523, 0x1c6a_0757_9d0f_09c3),
        ("dedispersion", "iterated-local-search", 74, 1054, 0x826f_376b_20f1_7d2d),
        ("prl-2x2", "genetic", 60, 3036, 0xc9c8_47e1_83e4_8ffb),
        ("prl-2x2", "simulated-annealing", 55, 884, 0x054d_7bfe_fd7f_4c6f),
        ("prl-2x2", "hill-climbing", 59, 2219, 0x7320_d2df_14be_a55f),
        ("prl-2x2", "iterated-local-search", 60, 3087, 0xb808_9f17_dadf_06d3),
    ];
    let got: Vec<_> = GOLDEN
        .iter()
        .map(|&(workload, strategy, ..)| {
            let spec = real_world_by_name(workload).unwrap().spec;
            let (space, _) = build_search_space(&spec, Method::Optimized).unwrap();
            let model = performance_model_for(&spec.name, &space, 7);
            let run = tune(
                &space,
                &model,
                strategy_by_name(strategy).unwrap().as_ref(),
                Duration::from_secs(10),
                Duration::ZERO,
                3,
            );
            let best = run.best_evaluation().unwrap().config_index.index();
            (
                workload,
                strategy,
                run.num_evaluations(),
                best,
                trajectory_digest(&run),
            )
        })
        .collect();
    assert_eq!(got, GOLDEN);
}

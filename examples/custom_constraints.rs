//! Using the three restriction flavours — expression strings, Rust closures
//! and pre-built specific constraints — plus the resolved-space operations
//! optimizers rely on: membership tests, valid neighbors and Latin Hypercube
//! Sampling.
//!
//! Run with: `cargo run --release --example custom_constraints`

use autotuning_searchspaces::prelude::*;
use autotuning_searchspaces::searchspace::{
    latin_hypercube_sample, neighbors, NeighborMethod, Restriction,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() {
    let spec = SearchSpaceSpec::new("custom-constraints")
        .with_param(TunableParameter::pow2("tile_x", 7))
        .with_param(TunableParameter::pow2("tile_y", 7))
        .with_param(TunableParameter::strings(
            "layout",
            &["row", "col", "tiled"],
        ))
        // 1) a Python-style expression string, parsed and decomposed at runtime
        .with_expr("16 <= tile_x * tile_y <= 1024")
        // 2) a Rust closure over named parameters (the lambda-style API)
        .with_restriction(Restriction::func(
            &["layout", "tile_x", "tile_y"],
            "tiled layout requires square tiles",
            |v| v[0].as_str() != Some("tiled") || v[1] == v[2],
        ))
        // 3) a pre-built specific constraint
        .with_restriction(Restriction::specific(
            &["tile_x", "tile_y"],
            MaxSum::new(160.0),
        ));

    let (space, report) = build_search_space(&spec, Method::Optimized).expect("construction");
    println!(
        "{} valid configurations (Cartesian {}), constructed in {:?}",
        space.len(),
        report.cartesian_size,
        report.duration
    );

    // membership and index lookups
    let config = vec![Value::Int(8), Value::Int(8), Value::str("tiled")];
    println!(
        "is (8, 8, tiled) valid? {} (index {:?})",
        space.contains(&config),
        space.index_of(&config)
    );
    let invalid = vec![Value::Int(2), Value::Int(2), Value::str("row")];
    println!("is (2, 2, row) valid? {}", space.contains(&invalid));

    // valid neighbors, as used by the genetic algorithm's mutation step: the
    // space changes one parameter at a time and looks each changed row up in
    // its membership table, so no constraint is evaluated again
    if let Some(center) = space.index_of(&config) {
        let hamming = neighbors(&space, center, NeighborMethod::Hamming);
        println!(
            "(8, 8, tiled) has {} Hamming-distance-1 valid neighbors, e.g.:",
            hamming.len()
        );
        for &id in hamming.iter().take(3) {
            println!("  {:?}", space.view(id).unwrap());
        }
    }

    // stratified initial sampling
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let samples = latin_hypercube_sample(&space, 8, &mut rng);
    println!("\nLatin Hypercube sample of the space:");
    for &id in &samples {
        println!("  {:?}", space.view(id).unwrap());
    }
}

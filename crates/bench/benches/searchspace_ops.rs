//! Criterion benchmarks of the resolved-search-space operations that
//! optimization algorithms rely on (Section 4.4): hash lookups (both the
//! value-row path and the encoded-row fast path), neighbor queries (membership
//! probes, the adjacency scan and a memo hit), sampling and the single-pass
//! arena statistics.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use at_searchspace::{
    build_search_space, latin_hypercube_sample, neighbors, sample_indices, ConfigId, Method,
    NeighborIndex, NeighborMethod,
};
use at_workloads::dedispersion;

fn bench_searchspace_ops(c: &mut Criterion) {
    let (space, _) = build_search_space(&dedispersion().spec, Method::Optimized).unwrap();
    let mid = ConfigId::from_index(space.len() / 2);
    // every timed query of the memo is a hit
    let mut index = NeighborIndex::build(&space);
    index.neighbors(mid, NeighborMethod::Hamming);
    let some_config = space.view(mid).unwrap().to_vec();
    let some_codes = space.codes_of(mid).unwrap().to_vec();

    let mut group = c.benchmark_group("searchspace_ops/dedispersion");
    group.bench_function("contains", |b| b.iter(|| space.contains(&some_config)));
    group.bench_function("index_of", |b| b.iter(|| space.index_of(&some_config)));
    group.bench_function("index_of_codes", |b| {
        b.iter(|| space.index_of_codes(&some_codes))
    });
    group.bench_function("hamming_neighbors", |b| {
        b.iter(|| neighbors(&space, mid, NeighborMethod::Hamming).len())
    });
    group.bench_function("strictly_adjacent_neighbors", |b| {
        b.iter(|| neighbors(&space, mid, NeighborMethod::StrictlyAdjacent).len())
    });
    group.bench_function("adjacent_neighbors_scan", |b| {
        b.iter(|| neighbors(&space, mid, NeighborMethod::Adjacent).len())
    });
    group.bench_function("hamming_neighbors_memo_hit", |b| {
        b.iter(|| index.neighbors(mid, NeighborMethod::Hamming).len())
    });
    group.bench_function("random_sample_100", |b| {
        b.iter(|| {
            let mut rng = ChaCha8Rng::seed_from_u64(1);
            sample_indices(&space, 100, &mut rng).len()
        })
    });
    group.bench_function("latin_hypercube_sample_32", |b| {
        b.iter(|| {
            let mut rng = ChaCha8Rng::seed_from_u64(1);
            latin_hypercube_sample(&space, 32, &mut rng).len()
        })
    });
    group.bench_function("true_bounds", |b| b.iter(|| space.true_bounds().len()));
    group.bench_function("occurring_values", |b| {
        b.iter(|| space.occurring_values().len())
    });
    group.finish();
}

criterion_group!(benches, bench_searchspace_ops);
criterion_main!(benches);

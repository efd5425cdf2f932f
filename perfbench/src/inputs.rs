//! Workload inputs generated from the run seed, and the checked-in
//! reference outputs they are checked against.

use std::collections::BTreeMap;

use at_searchspace::{Method, SearchSpaceSpec};
use at_workloads::{generate, real_world_by_name, real_world_names, synthetic_suite};

/// Seed of the synthetic pool. The pool is fixed so that its reference
/// outputs can be checked in; the run seed draws from it.
const POOL_SEED: u64 = 0x5EED_2025;

/// Number of specs in the synthetic pool: the whole §5.2.1 grid of
/// 7 target sizes x 4 dimension counts x 6 constraint counts.
const POOL_SIZE: usize = 168;

/// The methods `method-sweep` builds every spec with.
pub const SWEEP_METHODS: [Method; 4] = [
    Method::BruteForce,
    Method::Original,
    Method::Optimized,
    Method::ChainOfTrees,
];

/// A small deterministic generator (splitmix64) for seeded draws.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, salted per use so that draws of different
    /// workloads do not correlate.
    pub fn new(seed: u64, salt: u64) -> Rng {
        Rng(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Shuffle `items` in place (Fisher-Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// A named spec: `key` is its row key in the reference table.
#[derive(Clone)]
pub struct NamedSpec {
    /// Stable key (`gemm`, `syn-d3-s100000-c2`).
    pub key: String,
    /// The specification.
    pub spec: SearchSpaceSpec,
}

/// The eight real-world specs, in Table 2 order.
pub fn real_world() -> Vec<NamedSpec> {
    real_world_names()
        .iter()
        .map(|&name| NamedSpec {
            key: name.to_string(),
            spec: real_world_by_name(name).expect("listed name").spec,
        })
        .collect()
}

/// One real-world spec by its short name.
pub fn real_world_spec(name: &str) -> NamedSpec {
    NamedSpec {
        key: name.to_string(),
        spec: real_world_by_name(name)
            .unwrap_or_else(|| panic!("unknown real-world spec {name}"))
            .spec,
    }
}

/// The fixed synthetic pool, in the suite's order (size, dims, constraints).
pub fn synthetic_pool() -> Vec<NamedSpec> {
    synthetic_suite(POOL_SIZE, POOL_SEED)
        .into_iter()
        .map(|config| NamedSpec {
            key: format!(
                "syn-d{}-s{}-c{}",
                config.dimensions, config.target_cartesian_size, config.num_constraints
            ),
            spec: generate(config),
        })
        .collect()
}

/// `method-sweep`'s specs: one spec per (target size, dimensions) stratum
/// of the pool, 28 in all, its constraint count drawn once with a fixed
/// seed. The draw is fixed because a fresh draw per run seed changed the
/// work so much (configs_per_s 1.69M to 2.51M and peak_rss_mb 33 to 64 over
/// seeds 1 to 5) that no metric could stay within its bound across seeds;
/// the run seed orders the visits instead.
pub fn sweep_specs() -> Vec<NamedSpec> {
    let mut rng = Rng::new(POOL_SEED, 1);
    let mut strata: BTreeMap<(u64, usize), Vec<NamedSpec>> = BTreeMap::new();
    for (config, named) in synthetic_suite(POOL_SIZE, POOL_SEED)
        .into_iter()
        .zip(synthetic_pool())
    {
        strata
            .entry((config.target_cartesian_size, config.dimensions))
            .or_default()
            .push(named);
    }
    strata
        .into_values()
        .map(|mut members| {
            let pick = rng.below(members.len());
            members.swap_remove(pick)
        })
        .collect()
}

/// One row of the reference table: a spec's valid count and digests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    /// Number of valid configurations.
    pub valid: u64,
    /// Order-independent digest of the row set.
    pub rowset: u64,
    /// Order-dependent digest of the arena (absent for reference rows).
    pub arena: Option<u64>,
}

/// The checked-in reference table (`expected.tsv`), regenerated with
/// `perfbench --regen-expected`.
pub struct References {
    rows: BTreeMap<(String, String), Expected>,
}

/// Method column of the row holding a spec's reference output.
pub const REFERENCE: &str = "reference";

impl References {
    /// Parse the table checked in beside the sources.
    pub fn checked_in() -> References {
        References::parse(include_str!("../expected.tsv"))
    }

    fn parse(text: &str) -> References {
        let mut rows = BTreeMap::new();
        for line in text.lines() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let cols: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(cols.len(), 5, "malformed reference row: {line}");
            let hex = |s: &str| u64::from_str_radix(s, 16).expect("hex digest");
            rows.insert(
                (cols[0].to_string(), cols[1].to_string()),
                Expected {
                    valid: cols[2].parse().expect("valid count"),
                    rowset: hex(cols[3]),
                    arena: (cols[4] != "-").then(|| hex(cols[4])),
                },
            );
        }
        References { rows }
    }

    /// The reference output of spec `key` (from brute force, or from the
    /// agreement of three independent methods where brute force is out of
    /// reach).
    pub fn reference(&self, key: &str) -> Expected {
        *self
            .rows
            .get(&(key.to_string(), REFERENCE.to_string()))
            .unwrap_or_else(|| panic!("no reference output for {key}; run --regen-expected"))
    }

    /// The checked-in arena digest of spec `key` built with `method`.
    pub fn arena(&self, key: &str, method: Method) -> Option<u64> {
        self.rows
            .get(&(key.to_string(), method.label().to_string()))
            .and_then(|e| e.arena)
    }
}

//! The eight real-world search spaces of Section 5.3.
//!
//! The parameter domains and constraints are reconstructed from the paper's
//! descriptions and the public kernels they reference (the BAT benchmark
//! suite's Dedispersion / ExpDist / Hotspot, CLBlast's GEMM, MicroHH's
//! `advec_u`, and ATF's Probabilistic Record Linkage kernel). The goal is not
//! bit-exact equality with the authors' parameter files — those are part of
//! the respective projects — but structural fidelity: the same number of
//! parameters and constraints, Cartesian sizes of the same magnitude, and
//! comparable sparsity, so that the relative solver behaviour of Figure 5 and
//! Table 2 is reproduced.

use at_searchspace::{SearchSpaceSpec, TunableParameter};

/// Characteristics of a search space as reported in Table 2 of the paper,
/// used to cross-check the reconstructions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperCharacteristics {
    /// Cartesian size reported in Table 2.
    pub cartesian_size: u128,
    /// Number of valid configurations reported in Table 2.
    pub num_valid: u128,
    /// Number of tunable parameters.
    pub num_params: usize,
    /// Number of constraints.
    pub num_constraints: usize,
}

/// A named real-world workload: its specification plus the paper-reported
/// characteristics.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The search space specification.
    pub spec: SearchSpaceSpec,
    /// Table 2 values for comparison.
    pub paper: PaperCharacteristics,
    /// Whether the space is small enough to brute force in tests/benches on a
    /// laptop within seconds.
    pub brute_forceable: bool,
}

/// Dedispersion (BAT): 8 parameters, 3 constraints, ~50 % valid.
pub fn dedispersion() -> Workload {
    let spec = SearchSpaceSpec::new("Dedispersion")
        .with_param(TunableParameter::ints(
            "block_size_x",
            (1..=29).map(|i| i * 32).collect::<Vec<_>>(),
        ))
        .with_param(TunableParameter::ints("block_size_y", [1, 2, 4, 8]))
        .with_param(TunableParameter::ints("tile_size_x", [1, 2, 3, 4]))
        .with_param(TunableParameter::ints("tile_size_y", [1, 2, 3, 4]))
        .with_param(TunableParameter::ints("tile_stride_x", [0, 1]))
        .with_param(TunableParameter::ints("tile_stride_y", [0, 1]))
        .with_param(TunableParameter::ints("loop_unroll_factor_channel", [0]))
        .with_param(TunableParameter::ints("blocks_per_sm", [0]))
        // at least one thread block per 32 threads, at most 1024 threads
        .with_expr("32 <= block_size_x * block_size_y <= 1024")
        // striding only makes sense with more than one tile
        .with_expr("tile_size_x > 1 or tile_stride_x == 0")
        .with_expr("tile_size_y > 1 or tile_stride_y == 0");
    Workload {
        spec,
        paper: PaperCharacteristics {
            cartesian_size: 22_272,
            num_valid: 11_130,
            num_params: 8,
            num_constraints: 3,
        },
        brute_forceable: true,
    }
}

/// ExpDist (BAT): 10 parameters, 4 constraints, ~3 % valid.
pub fn expdist() -> Workload {
    let spec = SearchSpaceSpec::new("ExpDist")
        .with_param(TunableParameter::ints(
            "block_size_x",
            [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024],
        ))
        .with_param(TunableParameter::ints(
            "block_size_y",
            [1, 2, 4, 8, 16, 32, 64, 128],
        ))
        .with_param(TunableParameter::ints(
            "tile_size_x",
            (1..=8).collect::<Vec<_>>(),
        ))
        .with_param(TunableParameter::ints(
            "tile_size_y",
            [1, 2, 3, 4, 5, 6, 7, 8],
        ))
        .with_param(TunableParameter::ints(
            "num_blocks",
            (1..=8).map(|i| i * 64).collect::<Vec<_>>(),
        ))
        .with_param(TunableParameter::ints(
            "reduce_block_size",
            [32, 64, 128, 256, 512, 1024, 2048, 4096],
        ))
        .with_param(TunableParameter::ints(
            "loop_unroll_factor_x",
            (0..=8).collect::<Vec<_>>(),
        ))
        .with_param(TunableParameter::ints("use_shared_mem", [0, 1, 2]))
        .with_param(TunableParameter::ints("loop_unroll_factor_y", [0]))
        .with_param(TunableParameter::ints("use_column", [0]))
        .with_expr("32 <= block_size_x * block_size_y <= 1024")
        // shared memory for the tile: 8 bytes per element, two buffers
        .with_expr("block_size_x * tile_size_x * block_size_y * tile_size_y * 8 * 2 <= 49152")
        // the reduction needs enough threads to cover the partial results
        .with_expr("reduce_block_size >= num_blocks")
        // an unrolled loop must evenly divide the tile
        .with_expr("loop_unroll_factor_x == 0 or tile_size_x % loop_unroll_factor_x == 0");
    Workload {
        spec,
        paper: PaperCharacteristics {
            cartesian_size: 9_732_096,
            num_valid: 294_000,
            num_params: 10,
            num_constraints: 4,
        },
        brute_forceable: true,
    }
}

/// Hotspot (BAT): 11 parameters, 5 constraints, ~1.6 % valid.
pub fn hotspot() -> Workload {
    let mut block_size_x: Vec<i64> = vec![1, 2, 4, 8, 16];
    block_size_x.extend((1..=32).map(|i| 32 * i));
    let spec = SearchSpaceSpec::new("Hotspot")
        .with_param(TunableParameter::ints("block_size_x", block_size_x))
        .with_param(TunableParameter::ints("block_size_y", [1, 2, 4, 8, 16, 32]))
        .with_param(TunableParameter::ints("work_per_thread_x", [1, 2, 3, 4, 5]))
        .with_param(TunableParameter::ints("work_per_thread_y", [1, 2, 3, 4, 5]))
        .with_param(TunableParameter::ints(
            "temporal_tiling_factor",
            (1..=10).collect::<Vec<_>>(),
        ))
        .with_param(TunableParameter::ints(
            "loop_unroll_factor_t",
            (1..=10).collect::<Vec<_>>(),
        ))
        .with_param(TunableParameter::ints("sh_power", [0, 1]))
        .with_param(TunableParameter::ints("blocks_per_sm", [0, 1, 2, 3]))
        .with_param(TunableParameter::ints("max_tfactor", [10]))
        .with_param(TunableParameter::ints("loop_unroll_factor_x", [1]))
        .with_param(TunableParameter::ints("loop_unroll_factor_y", [1]))
        // thread block limits
        .with_expr("32 <= block_size_x * block_size_y <= 1024")
        // the temporal loop unroll factor must evenly divide the tiling factor
        .with_expr("temporal_tiling_factor % loop_unroll_factor_t == 0")
        // shared memory for the temperature field (and optionally power), 4 bytes
        .with_expr(
            "(block_size_x * work_per_thread_x + temporal_tiling_factor * 2) * \
             (block_size_y * work_per_thread_y + temporal_tiling_factor * 2) * \
             (2 + sh_power) * 4 <= 49152",
        )
        // enough parallelism per SM
        .with_expr("blocks_per_sm == 0 or block_size_x * block_size_y * blocks_per_sm <= 2048")
        // each thread's work must stay within the tile halo
        .with_expr("work_per_thread_x * work_per_thread_y <= 16");
    Workload {
        spec,
        paper: PaperCharacteristics {
            cartesian_size: 22_200_000,
            num_valid: 349_853,
            num_params: 11,
            num_constraints: 5,
        },
        brute_forceable: true,
    }
}

/// GEMM (CLBlast): 17 parameters, 8 constraints, ~17.6 % valid.
pub fn gemm() -> Workload {
    let spec = SearchSpaceSpec::new("GEMM")
        .with_param(TunableParameter::ints("MWG", [16, 32, 64, 128]))
        .with_param(TunableParameter::ints("NWG", [16, 32, 64, 128]))
        .with_param(TunableParameter::ints("KWG", [16, 32]))
        .with_param(TunableParameter::ints("MDIMC", [8, 16, 32]))
        .with_param(TunableParameter::ints("NDIMC", [8, 16, 32]))
        .with_param(TunableParameter::ints("MDIMA", [8, 16, 32]))
        .with_param(TunableParameter::ints("NDIMB", [8, 16, 32]))
        .with_param(TunableParameter::ints("KWI", [2, 8]))
        .with_param(TunableParameter::ints("VWM", [1, 2, 4, 8]))
        .with_param(TunableParameter::ints("VWN", [1, 2, 4, 8]))
        .with_param(TunableParameter::ints("STRM", [0, 1]))
        .with_param(TunableParameter::ints("STRN", [0, 1]))
        .with_param(TunableParameter::ints("SA", [0, 1]))
        .with_param(TunableParameter::ints("SB", [0, 1]))
        .with_param(TunableParameter::ints("PRECISION", [32]))
        .with_param(TunableParameter::ints("M", [4096]))
        .with_param(TunableParameter::ints("N", [4096]))
        .with_expr("KWG % KWI == 0")
        .with_expr("MWG % (MDIMC * VWM) == 0")
        .with_expr("NWG % (NDIMC * VWN) == 0")
        .with_expr("MWG % (MDIMA * VWM) == 0")
        .with_expr("NWG % (NDIMB * VWN) == 0")
        .with_expr("KWG % ((MDIMC * NDIMC) / MDIMA) == 0")
        .with_expr("KWG % ((MDIMC * NDIMC) / NDIMB) == 0")
        // local memory: A tile (KWG x MWG) and B tile (KWG x NWG), 4 bytes each,
        // only when cached in shared memory
        .with_expr("(SA * KWG * MWG + SB * KWG * NWG) * 4 <= 49152");
    Workload {
        spec,
        paper: PaperCharacteristics {
            cartesian_size: 663_552,
            num_valid: 116_928,
            num_params: 17,
            num_constraints: 8,
        },
        brute_forceable: true,
    }
}

/// MicroHH `advec_u`: 13 parameters, 8 constraints, ~11.9 % valid.
pub fn microhh() -> Workload {
    let spec = SearchSpaceSpec::new("MicroHH")
        .with_param(TunableParameter::ints("block_size_x", [1, 2, 4, 8, 16, 32, 64, 128, 256, 512]))
        .with_param(TunableParameter::ints("block_size_y", [1, 2, 4, 8, 16, 32, 64, 128, 256]))
        .with_param(TunableParameter::ints("block_size_z", [1, 2, 4]))
        .with_param(TunableParameter::ints("tile_size_x", [1, 2, 4, 8]))
        .with_param(TunableParameter::ints("tile_size_y", [1, 2, 4, 8]))
        .with_param(TunableParameter::ints("tile_size_z", [1, 2, 4]))
        .with_param(TunableParameter::ints("loop_unroll_factor_x", [1, 2, 4]))
        .with_param(TunableParameter::ints("loop_unroll_factor_y", [1, 2, 4]))
        .with_param(TunableParameter::ints("blocks_per_mp", [0, 1, 2, 3]))
        .with_param(TunableParameter::ints("use_smem", [0, 1]))
        .with_param(TunableParameter::ints("grid_div_x", [1]))
        .with_param(TunableParameter::ints("grid_div_y", [1]))
        .with_param(TunableParameter::ints("grid_div_z", [1]))
        .with_expr("32 <= block_size_x * block_size_y * block_size_z <= 1024")
        .with_expr("tile_size_x % loop_unroll_factor_x == 0")
        .with_expr("tile_size_y % loop_unroll_factor_y == 0")
        .with_expr("tile_size_x * tile_size_y * tile_size_z <= 64")
        .with_expr("use_smem == 0 or block_size_x * block_size_y * block_size_z >= 64")
        .with_expr(
            "use_smem == 0 or (block_size_x * tile_size_x + 4) * (block_size_y * tile_size_y + 4) * 8 <= 49152",
        )
        .with_expr("blocks_per_mp == 0 or block_size_x * block_size_y * block_size_z * blocks_per_mp <= 2048")
        .with_expr("block_size_x * tile_size_x <= 1024");
    Workload {
        spec,
        paper: PaperCharacteristics {
            cartesian_size: 1_166_400,
            num_valid: 138_600,
            num_params: 13,
            num_constraints: 8,
        },
        brute_forceable: true,
    }
}

/// ATF Probabilistic Record Linkage with a square input size `n x n`
/// (the paper uses 2x2, 4x4 and 8x8): 20 parameters, 14 constraints.
///
/// The PRL search space has two cache levels and a parallelization block per
/// input dimension (rows and columns). ATF declares the block-size parameters
/// as intervals `1..=n` and restricts them with divisibility constraints, so
/// the chunk sizes at each level must divide each other — which is what makes
/// the space so sparse (0.002 % valid at 8x8). The reconstruction mirrors the
/// paper's Table 2 factorization exactly: eight interval parameters with `n`
/// values, four binary switches, two three-level destination selectors and
/// six fixed result-block parameters give a Cartesian size of `144 * n^8`
/// (36 864 at 2x2, 9 437 184 at 4x4, 2 415 919 104 at 8x8).
pub fn atf_prl(input_size: u32) -> Workload {
    let n = input_size.max(2) as i64;
    let interval: Vec<i64> = (1..=n).collect();

    let paper = match input_size {
        2 => PaperCharacteristics {
            cartesian_size: 36_864,
            num_valid: 1_200,
            num_params: 20,
            num_constraints: 14,
        },
        4 => PaperCharacteristics {
            cartesian_size: 9_437_184,
            num_valid: 10_800,
            num_params: 20,
            num_constraints: 14,
        },
        _ => PaperCharacteristics {
            cartesian_size: 2_415_919_104,
            num_valid: 48_720,
            num_params: 20,
            num_constraints: 14,
        },
    };

    let spec = SearchSpaceSpec::new(format!("ATF PRL {input_size}x{input_size}"))
        // rows: work-group / work-item counts and the cache-block hierarchy
        .with_param(TunableParameter::ints("NUM_WG_R", [1, 2]))
        .with_param(TunableParameter::ints("NUM_WI_R", interval.clone()))
        .with_param(TunableParameter::ints("L1_CB_SIZE_R", interval.clone()))
        .with_param(TunableParameter::ints("L2_CB_SIZE_R", interval.clone()))
        .with_param(TunableParameter::ints("P_CB_SIZE_R", interval.clone()))
        .with_param(TunableParameter::ints("L1_CB_RES_R", [1]))
        .with_param(TunableParameter::ints("L2_CB_RES_R", [1]))
        .with_param(TunableParameter::ints("P_CB_RES_R", [1]))
        // columns
        .with_param(TunableParameter::ints("NUM_WG_C", [1, 2]))
        .with_param(TunableParameter::ints("NUM_WI_C", interval.clone()))
        .with_param(TunableParameter::ints("L1_CB_SIZE_C", interval.clone()))
        .with_param(TunableParameter::ints("L2_CB_SIZE_C", interval.clone()))
        .with_param(TunableParameter::ints("P_CB_SIZE_C", interval))
        .with_param(TunableParameter::ints("L1_CB_RES_C", [1]))
        .with_param(TunableParameter::ints("L2_CB_RES_C", [1]))
        .with_param(TunableParameter::ints("P_CB_RES_C", [1]))
        // memory/layout switches and result destination levels
        .with_param(TunableParameter::ints("CACHE_L_CB", [0, 1]))
        .with_param(TunableParameter::ints("CACHE_P_CB", [0, 1]))
        .with_param(TunableParameter::ints("G_CB_RES_DEST_LEVEL", [0, 1, 2]))
        .with_param(TunableParameter::ints("L_CB_RES_DEST_LEVEL", [0, 1, 2]))
        // row-side divisibility chain
        .with_expr(&format!("{n} % L2_CB_SIZE_R == 0"))
        .with_expr("L2_CB_SIZE_R % L1_CB_SIZE_R == 0")
        .with_expr("L1_CB_SIZE_R % P_CB_SIZE_R == 0")
        .with_expr("L1_CB_SIZE_R % NUM_WI_R == 0")
        // column-side divisibility chain
        .with_expr(&format!("{n} % L2_CB_SIZE_C == 0"))
        .with_expr("L2_CB_SIZE_C % L1_CB_SIZE_C == 0")
        .with_expr("L1_CB_SIZE_C % P_CB_SIZE_C == 0")
        .with_expr("L1_CB_SIZE_C % NUM_WI_C == 0")
        // parallelism limits
        .with_expr(&format!("NUM_WG_R * NUM_WI_R <= {n} * {n}"))
        .with_expr(&format!("NUM_WG_C * NUM_WI_C <= {n} * {n}"))
        .with_expr("NUM_WI_R * NUM_WI_C <= 1024")
        // result blocks may only be cached at or below their destination level
        .with_expr("G_CB_RES_DEST_LEVEL >= L_CB_RES_DEST_LEVEL")
        // caching the local / private cache blocks only pays off when they fit
        .with_expr(&format!(
            "CACHE_L_CB == 0 or L1_CB_SIZE_R * L1_CB_SIZE_C <= {n} * {n}"
        ))
        .with_expr(&format!(
            "CACHE_P_CB == 0 or P_CB_SIZE_R * P_CB_SIZE_C <= {n}"
        ));
    Workload {
        spec,
        paper,
        brute_forceable: input_size <= 4,
    }
}

/// All eight real-world workloads in the order of Table 2.
pub fn all_real_world() -> Vec<Workload> {
    vec![
        dedispersion(),
        expdist(),
        hotspot(),
        gemm(),
        microhh(),
        atf_prl(2),
        atf_prl(4),
        atf_prl(8),
    ]
}

/// The subset small enough to brute force quickly (used by validation tests).
pub fn brute_forceable_real_world() -> Vec<Workload> {
    all_real_world()
        .into_iter()
        .filter(|w| w.brute_forceable)
        .collect()
}

/// Look up a real-world workload by a case-insensitive short name
/// (`dedispersion`, `expdist`, `hotspot`, `gemm`, `microhh`, `prl-2x2`,
/// `prl-4x4`, `prl-8x8`).
pub fn real_world_by_name(name: &str) -> Option<Workload> {
    match name.to_ascii_lowercase().as_str() {
        "dedispersion" => Some(dedispersion()),
        "expdist" => Some(expdist()),
        "hotspot" => Some(hotspot()),
        "gemm" => Some(gemm()),
        "microhh" => Some(microhh()),
        "prl-2x2" | "atf-prl-2x2" | "prl2" => Some(atf_prl(2)),
        "prl-4x4" | "atf-prl-4x4" | "prl4" => Some(atf_prl(4)),
        "prl-8x8" | "atf-prl-8x8" | "prl8" => Some(atf_prl(8)),
        _ => None,
    }
}

/// The short names accepted by [`real_world_by_name`], in Table 2 order.
pub fn real_world_names() -> &'static [&'static str] {
    &[
        "dedispersion",
        "expdist",
        "hotspot",
        "gemm",
        "microhh",
        "prl-2x2",
        "prl-4x4",
        "prl-8x8",
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use at_searchspace::{build_search_space, Method, SpaceCharacteristics};

    #[test]
    fn structural_characteristics_match_table2() {
        for w in all_real_world() {
            assert_eq!(
                w.spec.num_params(),
                w.paper.num_params,
                "{}: parameter count",
                w.spec.name
            );
            assert_eq!(
                w.spec.num_restrictions(),
                w.paper.num_constraints,
                "{}: constraint count",
                w.spec.name
            );
        }
    }

    #[test]
    fn cartesian_sizes_are_in_the_right_ballpark() {
        for w in all_real_world() {
            let ours = w.spec.cartesian_size() as f64;
            let paper = w.paper.cartesian_size as f64;
            let ratio = ours / paper;
            assert!(
                (0.2..=5.0).contains(&ratio),
                "{}: Cartesian {} vs paper {} (ratio {ratio:.2})",
                w.spec.name,
                ours,
                paper
            );
        }
    }

    #[test]
    fn dedispersion_is_roughly_half_valid() {
        let w = dedispersion();
        let (space, report) = build_search_space(&w.spec, Method::Optimized).unwrap();
        assert!(!space.is_empty());
        let fraction = space.len() as f64 / report.cartesian_size as f64;
        assert!(
            (0.25..=0.75).contains(&fraction),
            "valid fraction {fraction}"
        );
    }

    #[test]
    fn gemm_space_is_dense_but_constrained() {
        let w = gemm();
        let (space, report) = build_search_space(&w.spec, Method::Optimized).unwrap();
        let fraction = space.len() as f64 / report.cartesian_size as f64;
        assert!(space.len() > 1000);
        assert!((0.02..=0.6).contains(&fraction), "fraction {fraction}");
    }

    #[test]
    fn microhh_space_solves() {
        let w = microhh();
        let (space, report) = build_search_space(&w.spec, Method::Optimized).unwrap();
        assert!(space.len() > 1000);
        assert!((space.len() as u128) < report.cartesian_size);
    }

    #[test]
    fn prl_spaces_are_very_sparse() {
        for size in [2u32, 4] {
            let w = atf_prl(size);
            let (space, report) = build_search_space(&w.spec, Method::Optimized).unwrap();
            assert!(!space.is_empty(), "PRL {size}x{size} empty");
            let fraction = space.len() as f64 / report.cartesian_size as f64;
            assert!(
                fraction < 0.2,
                "PRL {size}x{size} should be sparse, got {fraction}"
            );
        }
    }

    #[test]
    fn characteristics_table_can_be_computed() {
        let w = dedispersion();
        let (space, _) = build_search_space(&w.spec, Method::Optimized).unwrap();
        let c = SpaceCharacteristics::compute(&w.spec, &space);
        assert_eq!(c.num_params, 8);
        assert_eq!(c.num_constraints, 3);
        assert!(c.avg_constraint_evaluations > 0.0);
    }
}

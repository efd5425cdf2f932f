//! The tool that regenerates `expected.tsv`, the checked-in reference
//! outputs.
//!
//! A spec's reference row comes from brute force wherever the Cartesian
//! size allows, and otherwise from the agreement of three independent
//! methods (original, chain-of-trees, optimized) — never from the method
//! under test alone. Per-(spec, method) rows add the arena digest, which
//! records each method's enumeration order.

use std::fmt::Write as _;

use at_searchspace::{build_search_space, Method};

use crate::digest::space_digests;
use crate::inputs::{real_world, synthetic_pool, NamedSpec, REFERENCE, SWEEP_METHODS};

/// Largest Cartesian size the tool brute-forces.
const BRUTE_FORCE_LIMIT: u128 = 10_000_000;

fn digests(named: &NamedSpec, method: Method) -> Result<(u64, u64, u64), String> {
    let (space, _) = build_search_space(&named.spec, method)
        .map_err(|e| format!("{} with {}: {e}", named.key, method.label()))?;
    let (rowset, arena) = space_digests(&space);
    Ok((space.len() as u64, rowset, arena))
}

fn reference(named: &NamedSpec) -> Result<((u64, u64), &'static str), String> {
    if named.spec.cartesian_size() <= BRUTE_FORCE_LIMIT {
        let (valid, rowset, _) = digests(named, Method::BruteForce)?;
        return Ok(((valid, rowset), "brute-force"));
    }
    let mut agreed = None;
    for method in [Method::Original, Method::ChainOfTrees, Method::Optimized] {
        let (valid, rowset, _) = digests(named, method)?;
        match agreed {
            None => agreed = Some((valid, rowset)),
            Some(seen) if seen == (valid, rowset) => {}
            Some(_) => return Err(format!("{}: methods disagree", named.key)),
        }
    }
    Ok((agreed.expect("three methods ran"), "agreement"))
}

fn rows(out: &mut String, named: &NamedSpec, methods: &[Method]) -> Result<(), String> {
    let ((valid, rowset), source) = reference(named)?;
    writeln!(
        out,
        "{}\t{REFERENCE}\t{valid}\t{rowset:016x}\t-\t# {source}",
        named.key
    )
    .expect("write to string");
    for &method in methods {
        let (v, r, arena) = digests(named, method)?;
        if (v, r) != (valid, rowset) {
            return Err(format!(
                "{} with {} disagrees with the reference",
                named.key,
                method.label()
            ));
        }
        writeln!(
            out,
            "{}\t{}\t{v}\t{r:016x}\t{arena:016x}",
            named.key,
            method.label()
        )
        .expect("write to string");
    }
    Ok(())
}

/// Rebuild every reference row and write the table to `path`.
pub fn regenerate(path: &str) -> Result<(), String> {
    let mut out = String::from(
        "# Reference outputs of the benchmark, regenerated by `perfbench --regen-expected`.\n\
         # spec\tmethod\tvalid\trowset digest\tarena digest\n\
         # `reference` rows: from brute force, or from the agreement of original,\n\
         # chain-of-trees and optimized where brute force is out of reach.\n",
    );
    for named in real_world() {
        rows(&mut out, &named, &[Method::Optimized])?;
    }
    for named in synthetic_pool() {
        rows(&mut out, &named, &SWEEP_METHODS)?;
    }
    std::fs::write(path, out).map_err(|e| format!("{path}: {e}"))
}

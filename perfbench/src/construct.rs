//! `cold-construct` and `method-sweep`: search-space construction through
//! the library, one single-threaded build per operation.

use std::any::Any;
use std::hint::black_box;
use std::time::{Duration, Instant};

use at_check::check_spec;
use at_cot::{build_chain_from_problem, enumerate_chain_into};
use at_csp::{
    BruteForceSolver, CspResult, OptimizedSolver, OriginalBacktrackingSolver, RowSink,
    SolutionSink, Solver, Value,
};
use at_searchspace::{build_search_space, EncodingSink, Method, SearchSpace};

use crate::common::{passes, peak_rss_mb, timed, Layers, Measured, OpSample, RunOpts, SETUPS};
use crate::digest::space_digests;
use crate::inputs::{real_world, sweep_specs, NamedSpec, References, Rng, SWEEP_METHODS};
use crate::stats::{geomean, minimum, Outcome, Tally};
use crate::Traced;

/// Which of the two construction workloads.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Analyzer plus optimized build of the eight real-world specs.
    Cold,
    /// Four methods over a seeded draw of synthetic specs.
    Sweep,
}

struct Cell {
    name: String,
    spec: NamedSpec,
    method: Method,
}

fn cells(kind: Kind) -> Vec<Cell> {
    match kind {
        Kind::Cold => real_world()
            .into_iter()
            .map(|spec| Cell {
                name: spec.key.clone(),
                spec,
                method: Method::Optimized,
            })
            .collect(),
        Kind::Sweep => sweep_specs()
            .into_iter()
            .flat_map(|spec| {
                SWEEP_METHODS.iter().map(move |&method| Cell {
                    name: format!("{}/{}", spec.key, method.label()),
                    spec: spec.clone(),
                    method,
                })
            })
            .collect(),
    }
}

/// The operation a user runs: `atss construct` through library calls
/// (analyzer first on cold-construct).
fn build(kind: Kind, cell: &Cell) -> CspResult<SearchSpace> {
    if kind == Kind::Cold {
        black_box(check_spec(&cell.spec.spec));
    }
    build_search_space(&cell.spec.spec, cell.method).map(|(space, _)| space)
}

/// Compare a built space with the reference: valid count and row-set
/// digest must match. Also returns whether the arena digest differs from
/// the checked-in one (an enumeration-order change, not a failure).
fn verify(refs: &References, cell: &Cell, space: &SearchSpace) -> (Outcome, bool) {
    let expected = refs.reference(&cell.spec.key);
    let (rowset, arena) = space_digests(space);
    let params_match = space.params() == cell.spec.spec.params.as_slice();
    let outcome =
        if params_match && space.len() as u64 == expected.valid && rowset == expected.rowset {
            Outcome::Correct
        } else {
            Outcome::WrongOutput
        };
    let order_changed = refs.arena(&cell.spec.key, cell.method) != Some(arena);
    (outcome, order_changed)
}

/// Run `cold-construct` or `method-sweep`.
pub fn run(kind: Kind, opts: &RunOpts, refs: &References) -> (Measured, Option<Traced>) {
    let mut setup_s = Vec::new();
    let mut cells_opt = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        let cells = cells(kind);
        // Warm-up: one build of every spec (optimized, the cheapest method).
        let mut seen = std::collections::BTreeSet::new();
        for cell in &cells {
            if seen.insert(cell.spec.key.clone()) {
                let warm = Cell {
                    name: String::new(),
                    spec: cell.spec.clone(),
                    method: Method::Optimized,
                };
                black_box(build(kind, &warm).expect("warm-up build"));
            }
        }
        setup_s.push(start.elapsed().as_secs_f64());
        cells_opt = Some(cells);
    }
    let cells = cells_opt.expect("at least one set-up");

    let window = if opts.trace {
        opts.window / 2
    } else {
        opts.window
    };
    let mut rng = Rng::new(opts.seed, 2);
    let mut ops = Vec::new();
    let mut tally = Tally::default();
    let start = Instant::now();
    passes(&vec![1; cells.len()], &mut rng, window, |i| {
        let (built, ms) = timed(|| build(kind, &cells[i]));
        match built {
            Ok(space) => {
                let (outcome, _) = verify(refs, &cells[i], &space);
                tally.record(outcome);
                ops.push(OpSample {
                    cell: i,
                    ms,
                    configs: space.len() as u64,
                });
            }
            Err(e) => {
                eprintln!("{}: {e}", cells[i].name);
                tally.record(Outcome::Error);
            }
        }
    });
    let measured = Measured {
        setup_s,
        cells: cells.iter().map(|c| c.name.clone()).collect(),
        ops,
        wall_s: start.elapsed().as_secs_f64(),
        concurrent: false,
        peak_rss_mb: peak_rss_mb("self"),
        tally,
    };
    if kind == Kind::Sweep {
        print_scoreboard(&cells, &measured);
    }
    let traced = opts
        .trace
        .then(|| traced_phase(kind, &cells, &mut rng, window, refs, &measured));
    (measured, traced)
}

/// A forwarding sink that times the pushes into the wrapped
/// [`EncodingSink`], so the solver's self time can be separated from
/// encoding.
struct TimedSink {
    inner: EncodingSink,
    push: Duration,
}

impl RowSink for TimedSink {
    fn push_row(&mut self, row: &[Value]) -> CspResult<()> {
        let start = Instant::now();
        let result = self.inner.push_row(row);
        self.push += start.elapsed();
        result
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

impl SolutionSink for TimedSink {}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The traced operation: the same pipeline as [`build`], called layer by
/// layer with a span around each call.
fn traced_build(kind: Kind, cell: &Cell, layers: &mut Layers) -> CspResult<SearchSpace> {
    let spec = &cell.spec.spec;
    let name = cell.name.as_str();
    if kind == Kind::Cold {
        let (report, t) = timed(|| check_spec(spec));
        layers.record("check.ms", name, t);
        layers.record("check.diagnostics", name, report.diagnostics.len() as f64);
    }
    let (problem, t) = timed(|| spec.to_problem_with(cell.method.default_lowering(), false));
    let problem = problem?;
    layers.record("lower.ms", name, t);
    layers.record("lower.constraints", name, problem.num_constraints() as f64);

    let inner = EncodingSink::new(spec.name.clone(), spec.params.clone())
        .map_err(|e| at_csp::CspError::Solver(e.to_string()))?;
    let mut sink = TimedSink {
        inner,
        push: Duration::ZERO,
    };
    let label = cell.method.label();
    if cell.method == Method::ChainOfTrees {
        let (chain, t) = timed(|| build_chain_from_problem(&problem));
        layers.record("cot.build_ms", name, t);
        let (result, t) = timed(|| enumerate_chain_into(&chain, &mut sink));
        result?;
        layers.record("cot.enumerate_ms", name, t - ms(sink.push));
        layers.record("cot.checks", name, chain.constraint_checks() as f64);
    } else {
        let solver: Box<dyn Solver> = match cell.method {
            Method::BruteForce => Box::new(BruteForceSolver::new()),
            Method::Original => Box::new(OriginalBacktrackingSolver::new()),
            _ => Box::new(OptimizedSolver::new()),
        };
        let (stats, t) = timed(|| solver.solve_into(&problem, &mut sink));
        let stats = stats?;
        let self_ms = t - ms(sink.push);
        let nodes = stats.nodes.max(1) as f64;
        layers.record(&format!("solve.ms.{label}"), name, self_ms);
        layers.record(&format!("solve.nodes.{label}"), name, stats.nodes as f64);
        layers.record(
            &format!("solve.checks.{label}"),
            name,
            stats.constraint_checks as f64,
        );
        layers.record(
            &format!("solve.backtracks.{label}"),
            name,
            stats.backtracks as f64,
        );
        layers.record(
            &format!("solve.ns_per_node.{label}"),
            name,
            self_ms * 1e6 / nodes,
        );
        layers.record(
            &format!("solve.solutions_per_node.{label}"),
            name,
            stats.solutions as f64 / nodes,
        );
    }
    layers.record("encode.ms", name, ms(sink.push));
    let (space, t) = timed(|| sink.inner.finish());
    let space = space.map_err(|e| at_csp::CspError::Solver(e.to_string()))?;
    layers.record("finish.ms", name, t);
    layers.record("arena.bytes", name, (space.arena().len() * 4) as f64);
    Ok(space)
}

fn traced_phase(
    kind: Kind,
    cells: &[Cell],
    rng: &mut Rng,
    window: Duration,
    refs: &References,
    untraced: &Measured,
) -> Traced {
    let mut layers = Layers::default();
    let mut tally = Tally::default();
    let mut times = vec![Vec::new(); cells.len()];
    passes(&vec![1; cells.len()], rng, window, |i| {
        let (built, t) = timed(|| traced_build(kind, &cells[i], &mut layers));
        match built {
            Ok(space) => {
                let (outcome, order_changed) = verify(refs, &cells[i], &space);
                tally.record(outcome);
                layers.record(
                    "arena.digest_mismatches",
                    &cells[i].name,
                    f64::from(u8::from(order_changed)),
                );
                times[i].push(t);
            }
            Err(e) => {
                eprintln!("{} (traced): {e}", cells[i].name);
                tally.record(Outcome::Error);
            }
        }
    });
    let mut traced = Traced::new(layers, tally);
    traced.set_overhead(&untraced.per_cell(), &times);
    for metric in [
        "check.ms",
        "lower.ms",
        "cot.build_ms",
        "cot.enumerate_ms",
        "encode.ms",
        "finish.ms",
    ] {
        traced.per_pass(metric);
    }
    for metric in [
        "check.diagnostics",
        "lower.constraints",
        "cot.checks",
        "arena.bytes",
    ] {
        traced.count(metric);
    }
    traced.count("arena.digest_mismatches");
    for method in [Method::BruteForce, Method::Original, Method::Optimized] {
        let m = method.label();
        traced.per_pass(&format!("solve.ms.{m}"));
        for counter in ["nodes", "checks", "backtracks"] {
            traced.count(&format!("solve.{counter}.{m}"));
        }
        traced.median(&format!("solve.ns_per_node.{m}"));
        traced.median(&format!("solve.solutions_per_node.{m}"));
    }
    traced
}

/// The paper's qualitative claims over method-sweep's cells: does the
/// optimized method beat each other method on each spec? Informational
/// only; failing claims are printed as failing.
fn print_scoreboard(cells: &[Cell], measured: &Measured) {
    let per_cell = measured.per_cell();
    let mut specs: Vec<&str> = Vec::new();
    for cell in cells {
        if !specs.contains(&cell.spec.key.as_str()) {
            specs.push(&cell.spec.key);
        }
    }
    let cell_time = |key: &str, method: Method| {
        cells
            .iter()
            .position(|c| c.spec.key == key && c.method == method)
            .and_then(|i| minimum(&per_cell[i]))
    };
    let rivals = [Method::BruteForce, Method::Original, Method::ChainOfTrees];
    println!("paper claims (informational, never a gate): optimized beats each method, per spec, on fastest construction ms");
    println!(
        "  {:<24} {:>12} {:>12} {:>12} {:>14}  {:<28}",
        "spec",
        "brute-force",
        "original",
        "optimized",
        "chain-of-trees",
        "optimized beats bf/orig/cot"
    );
    let mut wins = [0usize; 3];
    let mut ratios: [Vec<f64>; 3] = Default::default();
    for key in &specs {
        let opt = cell_time(key, Method::Optimized);
        let row: Vec<Option<f64>> = rivals.iter().map(|&m| cell_time(key, m)).collect();
        let mut verdicts = Vec::new();
        for (k, rival) in row.iter().enumerate() {
            match (opt, rival) {
                (Some(o), Some(r)) => {
                    let pass = o < *r;
                    wins[k] += usize::from(pass);
                    ratios[k].push(r / o);
                    verdicts.push(if pass { "PASS" } else { "FAIL" });
                }
                _ => verdicts.push("n/a"),
            }
        }
        let fmt = |v: Option<f64>| v.map_or("n/a".to_string(), |v| format!("{v:.3}"));
        println!(
            "  {:<24} {:>12} {:>12} {:>12} {:>14}  {}",
            key,
            fmt(row[0]),
            fmt(row[1]),
            fmt(opt),
            fmt(row[2]),
            verdicts.join("/")
        );
    }
    for (k, rival) in rivals.iter().enumerate() {
        let ratio = geomean(&ratios[k]).unwrap_or(f64::NAN);
        println!(
            "  claim optimized beats {:<15} {:>3}/{:<3} specs {}   geomean {} / optimized = {ratio:.3} (base: optimized fastest ms per spec)",
            rival.label(),
            wins[k],
            specs.len(),
            if wins[k] == specs.len() { "PASS" } else { "FAIL" },
            rival.label()
        );
    }
}

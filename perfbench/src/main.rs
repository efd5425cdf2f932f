//! The benchmark of the construct -> serve -> tune pipeline.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --atss <path>
//! perfbench --regen-expected <file>
//! ```
//!
//! The first form runs one workload and prints, as its last line, one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. The second regenerates the checked-in reference outputs.
//! See `README.md` beside this crate.

mod common;
mod construct;
mod digest;
mod inputs;
mod regen;
mod serve;
mod stats;
mod tune;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use common::{host_facts, Layers, Measured, RunOpts};
use inputs::References;
use stats::{geomean, geomean_over_cells, median, minimum, tail, Tally};

/// Every workload, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = [
    "cold-construct",
    "method-sweep",
    "daemon-serve",
    "tune-warm",
];

/// The end-to-end metrics (`--trace 0`): name and unit.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("op_ms.geomean", "ms"),
    ("op_ms.p50", "ms"),
    ("op_ms.p99", "ms"),
    ("ops_per_s", "1/s"),
    ("configs_per_s", "configs/s"),
    ("peak_rss_mb", "MB"),
    ("success_frac", "ratio"),
];

/// The per-layer metrics (`--trace 1`): name and unit. A layer that does no
/// work on a workload reports 0 there.
const PER_LAYER: [(&str, &str); 52] = [
    ("check.ms", "ms"),
    ("check.diagnostics", "count"),
    ("lower.ms", "ms"),
    ("lower.constraints", "count"),
    ("solve.ms.brute-force", "ms"),
    ("solve.nodes.brute-force", "count"),
    ("solve.checks.brute-force", "count"),
    ("solve.backtracks.brute-force", "count"),
    ("solve.ns_per_node.brute-force", "ns"),
    ("solve.solutions_per_node.brute-force", "ratio"),
    ("solve.ms.original", "ms"),
    ("solve.nodes.original", "count"),
    ("solve.checks.original", "count"),
    ("solve.backtracks.original", "count"),
    ("solve.ns_per_node.original", "ns"),
    ("solve.solutions_per_node.original", "ratio"),
    ("solve.ms.optimized", "ms"),
    ("solve.nodes.optimized", "count"),
    ("solve.checks.optimized", "count"),
    ("solve.backtracks.optimized", "count"),
    ("solve.ns_per_node.optimized", "ns"),
    ("solve.solutions_per_node.optimized", "ratio"),
    ("cot.build_ms", "ms"),
    ("cot.enumerate_ms", "ms"),
    ("cot.checks", "count"),
    ("encode.ms", "ms"),
    ("finish.ms", "ms"),
    ("arena.bytes", "bytes"),
    ("arena.digest_mismatches", "count"),
    ("neighbor_index.build_ms", "ms"),
    ("store.load_ms", "ms"),
    ("store.write_ms", "ms"),
    ("store.attach_ms", "ms"),
    ("store.bytes", "bytes"),
    ("daemon.connect_ms", "ms"),
    ("daemon.resolve_hit_ms", "ms"),
    ("daemon.resolve_miss_ms", "ms"),
    ("daemon.served_warm", "count"),
    ("daemon.builds", "count"),
    ("daemon.coalesced", "count"),
    ("daemon.proto_errors", "count"),
    ("request.unattributed_ms", "ms"),
    ("tune.eval_ms", "ms"),
    ("tune.strategy_ms", "ms"),
    ("tune.evaluations", "count"),
    ("tune.batches", "count"),
    ("tune.cache_hit_ratio", "ratio"),
    ("tune.dedup_ratio", "ratio"),
    ("tune.fanout_utilization", "ratio"),
    ("tune.rejected", "count"),
    ("tune.best_runtime_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
];

/// The per-layer results of a traced phase.
pub struct Traced {
    layers: Layers,
    tally: Tally,
    metrics: BTreeMap<String, f64>,
    /// Deterministic counters that differed between repetitions of a cell.
    unstable: Vec<String>,
}

impl Traced {
    fn new(layers: Layers, tally: Tally) -> Traced {
        Traced {
            layers,
            tally,
            metrics: BTreeMap::new(),
            unstable: Vec::new(),
        }
    }

    fn set(&mut self, metric: &str, value: f64) {
        self.metrics.insert(metric.to_string(), value);
    }

    /// Report `metric` as its time in one pass over the cells.
    fn per_pass(&mut self, metric: &str) {
        let v = self.layers.per_pass(metric);
        self.set(metric, v);
    }

    /// Report `metric` as the median over all its samples.
    fn median(&mut self, metric: &str) {
        let v = self.layers.median(metric);
        self.set(metric, v);
    }

    /// Report a deterministic count summed over cells; a count that did not
    /// repeat exactly makes the run incorrect.
    fn count(&mut self, metric: &str) {
        match self.layers.count(metric) {
            Ok(v) => self.set(metric, v),
            Err(cells) => {
                self.unstable.extend(cells);
                self.set(metric, f64::NAN);
            }
        }
    }

    /// `trace.overhead_frac`: traced over untraced geometric mean of the
    /// cells' fastest operation time, minus one.
    fn set_overhead(&mut self, untraced: &[Vec<f64>], traced: &[Vec<f64>]) {
        let both: Vec<usize> = (0..traced.len())
            .filter(|&i| !traced[i].is_empty() && !untraced[i].is_empty())
            .collect();
        let t = geomean_over_cells(both.iter().map(|&i| traced[i].as_slice()), minimum);
        let u = geomean_over_cells(both.iter().map(|&i| untraced[i].as_slice()), minimum);
        let v = match (t, u) {
            (Some(t), Some(u)) => t / u - 1.0,
            _ => f64::NAN,
        };
        self.set("trace.overhead_frac", v);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    atss: PathBuf,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        map.insert(key.to_string(), value.clone());
    }
    let get = |k: &str| map.get(k).ok_or_else(|| format!("missing --{k}"));
    let number = |k: &str| -> Result<u64, String> {
        get(k)?
            .parse()
            .map_err(|_| format!("--{k} takes a whole number"))
    };
    let workload = get("workload")?.clone();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (available: {})",
            WORKLOADS.join(", ")
        ));
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    let seconds = number("seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(Args {
        workload,
        seed: number("seed")?,
        seconds,
        trace,
        atss: PathBuf::from(get("atss")?),
    })
}

/// The end-to-end metrics of an untraced phase, by their JSON names.
///
/// Each cell is summarized by [`Measured::cell_stat`]. On a closed loop of
/// requests (`concurrent`), `op_ms.p50` and `op_ms.p99` are latency
/// percentiles pooled over all requests, and throughputs are per
/// wall-clock second and per second of request time. Elsewhere the cells
/// differ by up to three orders of magnitude and have few samples each, so
/// a pooled percentile would fall between two cells and jump with the
/// sample count; there `op_ms.p50` is the median and `op_ms.p99` the
/// maximum over cells (the typical and the slowest operation), and both
/// throughputs are per second of one pass over the cells.
fn end_to_end(m: &Measured) -> BTreeMap<&'static str, f64> {
    let times: Vec<f64> = m.ops.iter().map(|o| o.ms).collect();
    let per_cell = m.per_cell();
    let stat = m.cell_stat();
    let cell_values: Vec<f64> = per_cell.iter().filter_map(|c| stat(c)).collect();
    let (p50, p99, ops_per_s, configs_per_s) = if m.concurrent {
        let configs: u64 = m.ops.iter().map(|o| o.configs).sum();
        let op_seconds = times.iter().sum::<f64>() / 1e3;
        (
            median(&times),
            tail(&times).map(|(_, v)| v),
            times.len() as f64 / m.wall_s,
            configs as f64 / op_seconds,
        )
    } else {
        let mut configs = vec![0; per_cell.len()];
        for op in &m.ops {
            configs[op.cell] = op.configs;
        }
        let pass_seconds = cell_values.iter().sum::<f64>() / 1e3;
        (
            median(&cell_values),
            cell_values.iter().copied().reduce(f64::max),
            cell_values.len() as f64 / pass_seconds,
            configs.iter().sum::<u64>() as f64 / pass_seconds,
        )
    };
    BTreeMap::from([
        ("setup_s", median(&m.setup_s).unwrap_or(f64::NAN)),
        ("op_ms.geomean", geomean(&cell_values).unwrap_or(f64::NAN)),
        ("op_ms.p50", p50.unwrap_or(f64::NAN)),
        ("op_ms.p99", p99.unwrap_or(f64::NAN)),
        ("ops_per_s", ops_per_s),
        ("configs_per_s", configs_per_s),
        ("peak_rss_mb", m.peak_rss_mb),
        ("success_frac", 1.0 - m.tally.failed_frac()),
    ])
}

/// The names the human-readable report gives the end-to-end metrics on each
/// workload: (report name, JSON name).
fn report_names(workload: &str) -> Vec<(&'static str, &'static str)> {
    let mut names = vec![("setup_s", "setup_s")];
    names.extend_from_slice(match workload {
        "cold-construct" | "method-sweep" => &[
            ("construct_ms.geomean", "op_ms.geomean"),
            ("construct_configs_per_s", "configs_per_s"),
            ("construct_ms.cell_median", "op_ms.p50"),
            ("construct_ms.slowest_cell", "op_ms.p99"),
            ("constructs_per_s", "ops_per_s"),
        ][..],
        "daemon-serve" => &[
            ("request_ms.p50", "op_ms.p50"),
            ("request_ms.p99", "op_ms.p99"),
            ("requests_per_s", "ops_per_s"),
            ("request_ms.geomean", "op_ms.geomean"),
            ("served_configs_per_s", "configs_per_s"),
        ][..],
        _ => &[
            ("session_ms.geomean", "op_ms.geomean"),
            ("session_ms.cell_median", "op_ms.p50"),
            ("session_ms.slowest_cell", "op_ms.p99"),
            ("sessions_per_s", "ops_per_s"),
            ("loaded_configs_per_s", "configs_per_s"),
        ][..],
    });
    names.extend_from_slice(&[
        ("peak_rss_mb", "peak_rss_mb"),
        ("success_frac", "success_frac"),
    ]);
    names
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

fn print_report(workload: &str, seed: u64, m: &Measured, e2e: &BTreeMap<&'static str, f64>) {
    let times: Vec<f64> = m.ops.iter().map(|o| o.ms).collect();
    println!("workload {workload}, seed {seed}: end-to-end metrics (tracing off)");
    for (name, key) in report_names(workload) {
        let samples = match key {
            "setup_s" => format!(
                "median of {} set-ups: {}",
                m.setup_s.len(),
                m.setup_s
                    .iter()
                    .map(|s| format!("{s:.3}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            ),
            "op_ms.geomean" if m.concurrent => {
                format!("{} cells' medians, {} ops", m.cells.len(), m.ops.len())
            }
            "op_ms.geomean" => format!("{} cells' fastest, {} ops", m.cells.len(), m.ops.len()),
            "op_ms.p50" | "op_ms.p99" | "ops_per_s" | "configs_per_s" if !m.concurrent => {
                format!(
                    "over {} cells' fastest of {} ops",
                    m.cells.len(),
                    m.ops.len()
                )
            }
            "op_ms.p99" => match tail(&times) {
                Some((level, _)) => format!("{} ops, p{:.1}", m.ops.len(), level * 100.0),
                None => format!("{} ops, too few for a tail", m.ops.len()),
            },
            "ops_per_s" if m.concurrent => format!("{} ops in {:.2} s wall", m.ops.len(), m.wall_s),
            _ => format!("{} ops", m.ops.len()),
        };
        println!(
            "  {:<26} {:>16.4} {:<10} ({samples}; json {key})",
            name,
            e2e[key],
            unit_of(key)
        );
    }
    println!(
        "  {:<26} {:>16.4} {:<10} ({} failed of {} attempted)",
        "failed_frac",
        m.tally.failed_frac(),
        "ratio",
        m.tally.failed,
        m.tally.attempted
    );
    if m.concurrent && !times.is_empty() {
        let mut sorted = times.clone();
        sorted.sort_by(f64::total_cmp);
        let at = |q: f64| sorted[((q * sorted.len() as f64) as usize).min(sorted.len() - 1)];
        println!(
            "  request latency ms: p50 {:.2}  p90 {:.2}  p95 {:.2}  p98 {:.2}  p99 {:.2}  p99.5 {:.2}  max {:.2}",
            at(0.5),
            at(0.9),
            at(0.95),
            at(0.98),
            at(0.99),
            at(0.995),
            sorted[sorted.len() - 1]
        );
    }
    println!(
        "  cells: {:<30} {:>6} {:>10} {:>12} {:>16}",
        "name", "n", "min_ms", "median_ms", "tail_ms"
    );
    for (name, samples) in m.cells.iter().zip(m.per_cell()) {
        let tail_text = match tail(&samples) {
            Some((level, v)) => format!("{v:.3} (p{:.0})", level * 100.0),
            None => samples
                .iter()
                .copied()
                .reduce(f64::max)
                .map_or("-".to_string(), |v| format!("{v:.3} (max)")),
        };
        let fmt = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.3}"));
        println!(
            "         {:<30} {:>6} {:>10} {:>12} {:>16}",
            name,
            samples.len(),
            fmt(minimum(&samples)),
            fmt(median(&samples)),
            tail_text
        );
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn result_line(correct: bool, tally: Tally, metrics: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

fn run(args: &Args) -> Result<String, String> {
    println!("{}", host_facts());
    let refs = References::checked_in();
    let scratch = PathBuf::from(".perfbench_work");
    let work = scratch.join(std::process::id().to_string());
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let opts = RunOpts {
        seed: args.seed,
        window: Duration::from_secs(args.seconds),
        trace: args.trace,
        atss: args.atss.clone(),
        work: work.clone(),
    };
    let result = match args.workload.as_str() {
        "cold-construct" => Ok(construct::run(construct::Kind::Cold, &opts, &refs)),
        "method-sweep" => Ok(construct::run(construct::Kind::Sweep, &opts, &refs)),
        "daemon-serve" => serve::run(&opts, &refs),
        _ => tune::run(&opts, &refs),
    };
    let _ = std::fs::remove_dir_all(&work);
    // Only succeeds once no other run is using the directory.
    let _ = std::fs::remove_dir(&scratch);
    let (measured, traced) = result?;

    let e2e = end_to_end(&measured);
    print_report(&args.workload, args.seed, &measured, &e2e);
    let mut tally = measured.tally;
    let mut correct = tally.failed == 0;
    let metrics: Vec<(&str, &str, f64)> = match &traced {
        None => END_TO_END
            .iter()
            .map(|&(name, unit)| (name, unit, e2e[name]))
            .collect(),
        Some(t) => {
            tally.merge(t.tally);
            correct = tally.failed == 0 && t.unstable.is_empty();
            for cell in &t.unstable {
                eprintln!("deterministic counter did not repeat: {cell}");
            }
            println!("per-layer metrics (traced phase; 0 = layer idle on this workload)");
            PER_LAYER
                .iter()
                .map(|&(name, unit)| {
                    let v = t.metrics.get(name).copied().unwrap_or(0.0);
                    println!("  {name:<40} {v:>16.4} {unit}");
                    (name, unit, v)
                })
                .collect()
        }
    };
    Ok(result_line(correct, tally, &metrics))
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("--regen-expected") {
        let Some(path) = raw.get(1) else {
            eprintln!("usage: perfbench --regen-expected <file>");
            return ExitCode::FAILURE;
        };
        return match regen::regenerate(path) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let outcome = parse_args(&raw).and_then(|args| run(&args));
    match outcome {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_lists_match_benchmark_json() {
        let doc: serde_json::Value =
            serde_json::from_str(include_str!("../../BENCHMARK.json")).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(|v| v.as_array())
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(|v| v.as_array())
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(|v| v.as_str()).unwrap().to_string())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let tally = Tally {
            attempted: 3,
            failed: 1,
        };
        let line = result_line(
            false,
            tally,
            &[("op_ms.p50", "ms", 1.25), ("x", "s", f64::NAN)],
        );
        let doc: serde_json::Value = serde_json::from_str(&line).unwrap();
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let p50 = doc.get("metrics").unwrap().get("op_ms.p50").unwrap();
        assert_eq!(p50.get("value").unwrap().as_f64(), Some(1.25));
        assert_eq!(p50.get("unit").unwrap().as_str(), Some("ms"));
    }

    #[test]
    fn closed_loops_pool_requests_and_other_workloads_use_cell_medians() {
        // cell 0: 100 ms ops, cell 1: 900 ms ops, cell 2: 400 ms ops
        let ops = [(0, 100.0), (1, 900.0), (0, 100.0), (1, 900.0), (2, 400.0)]
            .iter()
            .map(|&(cell, ms)| common::OpSample {
                cell,
                ms,
                configs: 10,
            })
            .collect();
        let mut m = Measured {
            setup_s: vec![1.0, 3.0, 2.0],
            cells: vec!["a".into(), "b".into(), "c".into()],
            ops,
            wall_s: 1.0,
            concurrent: true,
            peak_rss_mb: 5.0,
            tally: Tally {
                attempted: 5,
                failed: 1,
            },
        };
        let e = end_to_end(&m);
        assert_eq!(e["setup_s"], 2.0);
        assert_eq!(e["ops_per_s"], 5.0);
        // 50 configurations in 2.4 s of operation time
        assert!((e["configs_per_s"] - 50.0 / 2.4).abs() < 1e-9);
        assert_eq!(e["op_ms.p50"], 400.0);
        // five requests are too few for a tail with ten beyond
        assert!(e["op_ms.p99"].is_nan());
        assert!((e["op_ms.geomean"] - 100.0 * 36f64.powf(1.0 / 3.0)).abs() < 1e-9);
        assert!((e["success_frac"] - 0.8).abs() < 1e-12);

        // single-threaded work: each cell counts once, at its fastest
        m.ops[0].ms = 150.0;
        m.concurrent = false;
        let e = end_to_end(&m);
        assert!((e["ops_per_s"] - 3.0 / 1.4).abs() < 1e-9);
        assert!((e["configs_per_s"] - 30.0 / 1.4).abs() < 1e-9);
        assert_eq!(e["op_ms.p50"], 400.0);
        assert_eq!(e["op_ms.p99"], 900.0);
    }
}

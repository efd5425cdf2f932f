//! What every workload shares: run options, the measured operations, the
//! per-layer recorder and process facts.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::inputs::Rng;
use crate::stats::Tally;

/// Number of set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Command-line options shared by all workloads.
pub struct RunOpts {
    /// Input seed.
    pub seed: u64,
    /// Length of the measurement window.
    pub window: Duration,
    /// Run the traced phase and report per-layer metrics.
    pub trace: bool,
    /// The `atss` executable (daemon-serve only).
    pub atss: PathBuf,
    /// Scratch directory of this run, inside the checkout.
    pub work: PathBuf,
}

/// One timed operation.
#[derive(Debug, Clone, Copy)]
pub struct OpSample {
    /// Index of the operation's cell.
    pub cell: usize,
    /// Operation time in milliseconds.
    pub ms: f64,
    /// Valid configurations the operation produced or served.
    pub configs: u64,
}

/// Everything a workload measured with tracing off.
pub struct Measured {
    /// Duration of each set-up, in seconds.
    pub setup_s: Vec<f64>,
    /// Cell names, indexed by [`OpSample::cell`].
    pub cells: Vec<String>,
    /// Every completed operation.
    pub ops: Vec<OpSample>,
    /// Wall time of the measurement window, in seconds.
    pub wall_s: f64,
    /// True when operations are requests from a closed loop of concurrent
    /// clients: their latency is a distribution of interest and throughput
    /// is per wall-clock second. Otherwise operations are single-threaded,
    /// deterministic work, summarized per cell by the fastest repetition
    /// (see [`Measured::cell_stat`]).
    pub concurrent: bool,
    /// Peak resident memory of the process doing the work, in MB.
    pub peak_rss_mb: f64,
    /// Attempted and failed operations.
    pub tally: Tally,
}

impl Measured {
    /// The statistic that summarizes one cell's samples: the median request
    /// latency on a closed loop; otherwise the minimum. The hosts this runs
    /// on alternate between two speeds for seconds at a time (a build of
    /// prl-4x4 takes 46 ms or 71 ms depending on the stretch), so the median
    /// of a deterministic computation reports the mix of host states of
    /// that run; its fastest repetition reports the program.
    pub fn cell_stat(&self) -> fn(&[f64]) -> Option<f64> {
        if self.concurrent {
            crate::stats::median
        } else {
            crate::stats::minimum
        }
    }

    /// Samples of each cell, in cell order.
    pub fn per_cell(&self) -> Vec<Vec<f64>> {
        let mut cells = vec![Vec::new(); self.cells.len()];
        for op in &self.ops {
            cells[op.cell].push(op.ms);
        }
        cells
    }
}

/// Visit cells in passes until `window` is spent. A pass visits cell `i`
/// `repeats[i]` times, in a fresh seeded order; passes are always completed
/// so every cell gets the same number of samples per pass.
pub fn passes(repeats: &[usize], rng: &mut Rng, window: Duration, mut op: impl FnMut(usize)) {
    let start = Instant::now();
    while start.elapsed() < window {
        let mut order: Vec<usize> = (0..repeats.len())
            .flat_map(|i| std::iter::repeat_n(i, repeats[i]))
            .collect();
        rng.shuffle(&mut order);
        for i in order {
            op(i);
        }
    }
}

/// Run `f` and return its result with its duration in milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64() * 1e3)
}

/// Per-layer samples of the traced phase, grouped by cell.
#[derive(Default)]
pub struct Layers {
    samples: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
}

impl Layers {
    /// Record one sample of `metric` for `cell`.
    pub fn record(&mut self, metric: &str, cell: &str, value: f64) {
        self.samples
            .entry(metric.to_string())
            .or_default()
            .entry(cell.to_string())
            .or_default()
            .push(value);
    }

    fn cells(&self, metric: &str) -> impl Iterator<Item = &Vec<f64>> {
        self.samples
            .get(metric)
            .into_iter()
            .flat_map(|c| c.values())
    }

    /// Sum over cells of each cell's fastest sample: the layer's time in
    /// one pass over the cells. Zero when the layer recorded nothing.
    pub fn per_pass(&self, metric: &str) -> f64 {
        self.cells(metric)
            .filter_map(|s| crate::stats::minimum(s))
            .fold(0.0, |a, b| a + b)
    }

    /// Median over every sample of every cell.
    pub fn median(&self, metric: &str) -> f64 {
        let all: Vec<f64> = self.cells(metric).flatten().copied().collect();
        crate::stats::median(&all).unwrap_or(0.0)
    }

    /// Sum over cells of a deterministic count. Every repetition of a cell
    /// must report the same count; the names of cells that did not are
    /// returned as the error.
    pub fn count(&self, metric: &str) -> Result<f64, Vec<String>> {
        let mut sum = 0.0;
        let mut unstable = Vec::new();
        if let Some(cells) = self.samples.get(metric) {
            for (cell, values) in cells {
                if values.iter().any(|v| v.to_bits() != values[0].to_bits()) {
                    unstable.push(format!("{metric} on {cell}"));
                }
                sum += values[0];
            }
        }
        if unstable.is_empty() {
            Ok(sum)
        } else {
            Err(unstable)
        }
    }
}

/// Peak resident set size (`VmHWM`) of process `pid` in MB.
pub fn peak_rss_mb(pid: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// One line of host facts, recorded with every result.
pub fn host_facts() -> String {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(0);
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let load = std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unknown".to_string());
    format!("host: nproc={nproc} rustc=\"{rustc}\" cpu=\"{cpu}\" loadavg=\"{load}\"")
}

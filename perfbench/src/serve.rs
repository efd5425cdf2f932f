//! `daemon-serve`: fresh `atss construct --daemon` processes against one
//! resident space-server, from a closed loop of two clients.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use at_check::check_spec;
use at_daemon::DaemonClient;
use at_searchspace::{spec_from_json, spec_to_json, Method, RestrictionLowering, SearchSpaceSpec};
use at_store::{read_space_from_path, SpaceStore, SpecFingerprint, StoreWriter};

use crate::common::{peak_rss_mb, timed, Layers, Measured, OpSample, RunOpts, SETUPS};
use crate::digest::space_digests;
use crate::inputs::{real_world, synthetic_pool, Expected, NamedSpec, References, Rng};
use crate::stats::{median, Outcome, Tally};
use crate::Traced;

/// Closed-loop clients; each waits for its reply before the next request.
const CLIENTS: usize = 2;

/// One request in twenty is a miss on a never-seen spec.
const MISS_EVERY: usize = 20;

/// Misses are drawn from the pool's specs up to the 1e5 target size. A
/// miss on a larger space raised the daemon's peak memory above the
/// pre-warmed real-world spaces' own, so `peak_rss_mb` depended on which
/// misses a run happened to draw (52 to 71 MB over five seeds).
const MISS_MAX_CARTESIAN: u128 = 150_000;

/// A running `atss daemon run` child. Dropping it stops the daemon and
/// waits for the process to end.
struct DaemonProc {
    child: Child,
    socket: PathBuf,
    cache: PathBuf,
}

impl DaemonProc {
    fn start(atss: &Path, dir: &Path) -> Result<DaemonProc, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let socket = dir.join("d.sock");
        let cache = dir.join("cache");
        let child = Command::new(atss)
            .arg("daemon")
            .arg("run")
            .arg("--socket")
            .arg(&socket)
            .arg("--cache-dir")
            .arg(&cache)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", atss.display()))?;
        let daemon = DaemonProc {
            child,
            socket,
            cache,
        };
        DaemonClient::connect_with_retry(&daemon.socket, Duration::from_secs(20))
            .map_err(|e| format!("daemon did not come up: {e}"))?;
        Ok(daemon)
    }

    fn client(&self) -> Result<DaemonClient, String> {
        DaemonClient::connect(&self.socket).map_err(|e| e.to_string())
    }

    fn status(&self) -> BTreeMap<String, f64> {
        let json = self
            .client()
            .and_then(|mut c| c.status_json().map_err(|e| e.to_string()))
            .unwrap_or_default();
        let doc: serde_json::Value = serde_json::from_str(&json).unwrap_or(serde_json::Value::Null);
        ["served_warm", "builds", "coalesced", "proto_errors"]
            .iter()
            .map(|k| {
                let v = doc.get(k).and_then(|v| v.as_f64()).unwrap_or(f64::NAN);
                (k.to_string(), v)
            })
            .collect()
    }

    /// Ask the daemon to drain and exit, and wait for it.
    fn stop(mut self) -> Result<(), String> {
        let asked = self
            .client()
            .and_then(|mut c| c.shutdown().map_err(|e| e.to_string()));
        if asked.is_err() {
            let _ = self.child.kill();
        }
        let status = self.child.wait().map_err(|e| e.to_string())?;
        asked?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("daemon exited with {status}"))
        }
    }
}

impl Drop for DaemonProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One planned request.
#[derive(Clone, Copy)]
enum Request {
    /// A warm hit on real-world spec `i`.
    Hit(usize),
    /// A miss on the `m`-th never-seen synthetic spec.
    Miss(usize),
}

/// The seeded request sequence, shared by both clients.
struct Plan {
    hits: Vec<NamedSpec>,
    pool: Vec<NamedSpec>,
    miss_order: Vec<usize>,
    seed: u64,
    dir: PathBuf,
}

impl Plan {
    fn new(seed: u64, dir: &Path) -> Result<Plan, String> {
        let pool: Vec<NamedSpec> = synthetic_pool()
            .into_iter()
            .filter(|n| n.spec.cartesian_size() <= MISS_MAX_CARTESIAN)
            .collect();
        let mut miss_order: Vec<usize> = (0..pool.len()).collect();
        Rng::new(seed, 3).shuffle(&mut miss_order);
        let plan = Plan {
            hits: real_world(),
            pool,
            miss_order,
            seed,
            dir: dir.to_path_buf(),
        };
        std::fs::create_dir_all(&plan.dir).map_err(|e| e.to_string())?;
        for m in 0..plan.pool.len() {
            plan.write_miss(m)?;
        }
        Ok(plan)
    }

    fn request(&self, k: usize) -> Request {
        if k % MISS_EVERY == MISS_EVERY - 1 {
            Request::Miss(k / MISS_EVERY)
        } else {
            // A stateless seeded choice, so both clients agree on request k.
            Request::Hit(Rng::new(self.seed ^ k as u64, 4).below(self.hits.len()))
        }
    }

    /// The `m`-th miss spec: the pool in seeded order, renamed after the
    /// first round so that every miss is a spec the daemon has never seen.
    fn miss_spec(&self, m: usize) -> (String, SearchSpaceSpec) {
        let named = &self.pool[self.miss_order[m % self.pool.len()]];
        let mut spec = named.spec.clone();
        let round = m / self.pool.len();
        if round > 0 {
            spec.name = format!("{}-r{round}", spec.name);
        }
        (named.key.clone(), spec)
    }

    fn miss_path(&self, m: usize) -> PathBuf {
        self.dir.join(format!("miss-{m}.json"))
    }

    fn write_miss(&self, m: usize) -> Result<(), String> {
        let path = self.miss_path(m);
        if path.exists() {
            return Ok(());
        }
        let json = spec_to_json(&self.miss_spec(m).1).map_err(|e| e.to_string())?;
        std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))
    }

    fn expected(&self, refs: &References, request: Request) -> Expected {
        match request {
            Request::Hit(i) => refs.reference(&self.hits[i].key),
            Request::Miss(m) => refs.reference(&self.miss_spec(m).0),
        }
    }
}

/// Classify one `construct --daemon --json` process by its exit status and
/// output line. A request the daemon did not serve (the CLI fell back to
/// local construction) is an error even though the process succeeded.
pub fn classify(exit_ok: bool, stdout: &str, miss: bool, expected_valid: u64) -> (Outcome, u64) {
    if !exit_ok {
        return (Outcome::Error, 0);
    }
    let Some(line) = stdout.lines().rev().find(|l| !l.trim().is_empty()) else {
        return (Outcome::Error, 0);
    };
    let Ok(doc) = serde_json::from_str::<serde_json::Value>(line) else {
        return (Outcome::Error, 0);
    };
    let source = doc
        .get("cache_source")
        .and_then(|v| v.as_str())
        .unwrap_or("");
    let served = if miss {
        ["daemon-built", "daemon-coalesced"].contains(&source)
    } else {
        ["daemon-warm", "daemon-validated"].contains(&source)
    };
    if !served {
        return (Outcome::Error, 0);
    }
    let valid = doc.get("valid").and_then(|v| v.as_i64()).unwrap_or(-1);
    if u64::try_from(valid) == Ok(expected_valid) {
        (Outcome::Correct, expected_valid)
    } else {
        (Outcome::WrongOutput, 0)
    }
}

struct Served {
    ops: Vec<(Request, OpSample)>,
    tally: Tally,
    wall_s: f64,
}

/// The closed loop: two clients, each spawning one `atss` process per
/// request and waiting for it, until the window is spent.
fn closed_loop(
    opts: &RunOpts,
    daemon: &DaemonProc,
    plan: &Plan,
    refs: &References,
    next: &AtomicUsize,
    window: Duration,
) -> Served {
    let results = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| {
                let mut local = Vec::new();
                while start.elapsed() < window {
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    let request = plan.request(k);
                    let mut cmd = Command::new(&opts.atss);
                    cmd.arg("construct");
                    let cell = match request {
                        Request::Hit(i) => {
                            cmd.arg("--workload").arg(&plan.hits[i].key);
                            i
                        }
                        Request::Miss(m) => {
                            if let Err(e) = plan.write_miss(m) {
                                eprintln!("{e}");
                            }
                            cmd.arg("--spec").arg(plan.miss_path(m));
                            plan.hits.len()
                        }
                    };
                    cmd.arg("--daemon")
                        .arg(&daemon.socket)
                        .arg("--json")
                        .stdin(Stdio::null())
                        .stderr(Stdio::null());
                    let expected = plan.expected(refs, request).valid;
                    let (output, ms) = timed(|| cmd.output());
                    let (outcome, configs) = match output {
                        Ok(out) => classify(
                            out.status.success(),
                            &String::from_utf8_lossy(&out.stdout),
                            matches!(request, Request::Miss(_)),
                            expected,
                        ),
                        Err(_) => (Outcome::Error, 0),
                    };
                    local.push((request, outcome, OpSample { cell, ms, configs }));
                }
                results.lock().expect("results lock").extend(local);
            });
        }
    });
    let wall_s = start.elapsed().as_secs_f64();
    let mut tally = Tally::default();
    let mut ops = Vec::new();
    for (request, outcome, sample) in results.into_inner().expect("results lock") {
        tally.record(outcome);
        if outcome == Outcome::Correct {
            ops.push((request, sample));
        }
    }
    Served { ops, tally, wall_s }
}

/// Reload every entry the daemon persisted with the strict (fully
/// verifying) loader and compare it with its reference. Returns the number
/// of entries that failed.
fn verify_entries(
    cache: &Path,
    plan: &Plan,
    refs: &References,
    misses_issued: usize,
) -> Result<u64, String> {
    let mut known: BTreeMap<SpecFingerprint, Expected> = BTreeMap::new();
    for named in &plan.hits {
        let fp = SpecFingerprint::compute(&named.spec, RestrictionLowering::Optimized)
            .map_err(|e| e.to_string())?;
        known.insert(fp, refs.reference(&named.key));
    }
    for m in 0..misses_issued {
        let text = std::fs::read_to_string(plan.miss_path(m)).map_err(|e| e.to_string())?;
        let spec = spec_from_json(&text).map_err(|e| e.to_string())?;
        let fp = SpecFingerprint::compute(&spec, RestrictionLowering::Optimized)
            .map_err(|e| e.to_string())?;
        known.insert(fp, refs.reference(&plan.miss_spec(m).0));
    }
    let store = SpaceStore::new(cache).map_err(|e| e.to_string())?;
    let mut failed = 0;
    for entry in store.entries().map_err(|e| e.to_string())? {
        let ok = match (
            known.get(&entry.fingerprint),
            read_space_from_path(&entry.path),
        ) {
            (Some(expected), Ok((space, _))) => {
                let (rowset, _) = space_digests(&space);
                space.len() as u64 == expected.valid && rowset == expected.rowset
            }
            _ => false,
        };
        if !ok {
            eprintln!("served entry {} failed verification", entry.path.display());
            failed += 1;
        }
    }
    Ok(failed)
}

/// Run `daemon-serve`.
pub fn run(opts: &RunOpts, refs: &References) -> Result<(Measured, Option<Traced>), String> {
    let mut setup_s = Vec::new();
    let mut ready = None;
    for k in 0..SETUPS {
        if let Some((daemon, _)) = ready.take() {
            DaemonProc::stop(daemon)?;
        }
        let start = Instant::now();
        let dir = opts.work.join(format!("serve-{k}"));
        let plan = Plan::new(opts.seed, &dir.join("specs"))?;
        let daemon = DaemonProc::start(&opts.atss, &dir)?;
        let mut client = daemon.client()?;
        for named in &plan.hits {
            let resolved = client
                .resolve_spec(&named.spec, Method::Optimized, false, |_| {})
                .map_err(|e| format!("pre-warm {}: {e}", named.key))?;
            if resolved.rows != refs.reference(&named.key).valid {
                return Err(format!("pre-warm {} served a wrong space", named.key));
            }
        }
        setup_s.push(start.elapsed().as_secs_f64());
        ready = Some((daemon, plan));
    }
    let (daemon, plan) = ready.expect("at least one set-up");

    let window = if opts.trace {
        opts.window / 2
    } else {
        opts.window
    };
    let next = AtomicUsize::new(0);
    let served = closed_loop(opts, &daemon, &plan, refs, &next, window);
    let peak = peak_rss_mb(&daemon.child.id().to_string());
    let traced = if opts.trace {
        Some(mirror(opts, &daemon, &plan, refs, &next, window, &served)?)
    } else {
        None
    };
    let cache = daemon.cache.clone();
    daemon.stop()?;
    let issued = next.load(Ordering::Relaxed) / MISS_EVERY;
    let bad_entries = verify_entries(&cache, &plan, refs, issued)?;

    let mut tally = served.tally;
    tally.failed = (tally.failed + bad_entries).min(tally.attempted);
    let mut cells: Vec<String> = plan.hits.iter().map(|n| n.key.clone()).collect();
    cells.push("miss".to_string());
    let measured = Measured {
        setup_s,
        cells,
        ops: served.ops.iter().map(|(_, s)| *s).collect(),
        wall_s: served.wall_s,
        concurrent: true,
        peak_rss_mb: peak,
        tally,
    };
    Ok((measured, traced))
}

/// The traced phase: an in-process mirror of the CLI's request sequence
/// (parse, analyzer, connect, resolve, attach), one request at a time,
/// with a span around each layer call.
fn mirror(
    opts: &RunOpts,
    daemon: &DaemonProc,
    plan: &Plan,
    refs: &References,
    next: &AtomicUsize,
    window: Duration,
    served: &Served,
) -> Result<Traced, String> {
    let mut layers = Layers::default();
    let mut tally = Tally::default();
    let mut spans_on = Vec::new();
    let mut spans_off = Vec::new();
    let scratch = opts.work.join("written.atss");
    let start = Instant::now();
    let mut hit_count = 0usize;
    while start.elapsed() < window {
        let request = plan.request(next.fetch_add(1, Ordering::Relaxed));
        let expected = plan.expected(refs, request);
        // Hits alternate between recording spans and not, so the cost of
        // the spans themselves is measured.
        let record = match request {
            Request::Hit(_) => {
                hit_count += 1;
                hit_count.is_multiple_of(2)
            }
            Request::Miss(_) => true,
        };
        let t0 = Instant::now();
        let mut span = |metric: &str, cell: &str, t: f64| {
            if record {
                layers.record(metric, cell, t);
            }
        };
        let (cell, spec) = match request {
            Request::Hit(i) => (
                plan.hits[i].key.clone(),
                at_workloads::real_world_by_name(&plan.hits[i].key)
                    .expect("listed name")
                    .spec,
            ),
            Request::Miss(m) => {
                plan.write_miss(m)?;
                let text = std::fs::read_to_string(plan.miss_path(m)).map_err(|e| e.to_string())?;
                let spec = spec_from_json(&text).map_err(|e| e.to_string())?;
                ("miss".to_string(), spec)
            }
        };
        let (report, t) = timed(|| check_spec(&spec));
        span("check.ms", &cell, t);
        span("check.diagnostics", &cell, report.diagnostics.len() as f64);
        let (client, t) = timed(|| DaemonClient::connect(&daemon.socket));
        span("daemon.connect_ms", &cell, t);
        let (resolved, t) = timed(|| {
            client.and_then(|mut c| c.resolve_spec(&spec, Method::Optimized, false, |_| {}))
        });
        let resolve_metric = match request {
            Request::Hit(_) => "daemon.resolve_hit_ms",
            Request::Miss(_) => "daemon.resolve_miss_ms",
        };
        span(resolve_metric, &cell, t);
        let Ok(resolved) = resolved else {
            tally.record(Outcome::Error);
            continue;
        };
        let (loaded, t) = timed(|| resolved.attach());
        span("store.attach_ms", &cell, t);
        let total = t0.elapsed().as_secs_f64() * 1e3;
        let Ok(loaded) = loaded else {
            tally.record(Outcome::Error);
            continue;
        };
        let outcome = if loaded.space.len() as u64 == expected.valid {
            Outcome::Correct
        } else {
            Outcome::WrongOutput
        };
        tally.record(outcome);
        match request {
            Request::Hit(_) if record => spans_on.push(total),
            Request::Hit(_) => spans_off.push(total),
            Request::Miss(_) => {
                // The store's write path on the same space: StoreWriter
                // streaming every row, then finish.
                let (written, t) = timed(|| -> Result<u64, String> {
                    let file = std::fs::File::create(&scratch).map_err(|e| e.to_string())?;
                    let mut writer = StoreWriter::new(
                        std::io::BufWriter::new(file),
                        loaded.space.name(),
                        loaded.space.params().to_vec(),
                    )
                    .map_err(|e| e.to_string())?;
                    for row in loaded.space.iter_decoded() {
                        at_csp::RowSink::push_row(&mut writer, &row).map_err(|e| e.to_string())?;
                    }
                    let (_, summary) = writer.finish().map_err(|e| e.to_string())?;
                    Ok(summary.bytes_written)
                });
                layers.record("store.write_ms", &cell, t);
                layers.record("store.bytes", &cell, written? as f64);
            }
        }
    }
    let _ = std::fs::remove_file(&scratch);

    let mut traced = Traced::new(layers, tally);
    let status = daemon.status();
    for (key, metric) in [
        ("served_warm", "daemon.served_warm"),
        ("builds", "daemon.builds"),
        ("coalesced", "daemon.coalesced"),
        ("proto_errors", "daemon.proto_errors"),
    ] {
        traced.set(metric, status[key]);
    }
    for metric in [
        "check.ms",
        "daemon.connect_ms",
        "daemon.resolve_hit_ms",
        "daemon.resolve_miss_ms",
        "store.attach_ms",
        "store.write_ms",
        "store.bytes",
    ] {
        traced.median(metric);
    }
    traced.count("check.diagnostics");
    let on = median(&spans_on).unwrap_or(f64::NAN);
    let off = median(&spans_off).unwrap_or(f64::NAN);
    traced.set("trace.overhead_frac", on / off - 1.0);
    let untraced_hits: Vec<f64> = served
        .ops
        .iter()
        .filter(|(r, _)| matches!(r, Request::Hit(_)))
        .map(|(_, s)| s.ms)
        .collect();
    traced.set(
        "request.unattributed_ms",
        median(&untraced_hits).unwrap_or(f64::NAN) - on,
    );
    Ok(traced)
}

#[cfg(test)]
mod tests {
    use super::*;

    const HIT: &str = r#"{"schema":"atss.construct.v1","valid":2793,"cache_source":"daemon-warm"}"#;
    const BUILT: &str =
        r#"{"schema":"atss.construct.v1","valid":50,"cache_source":"daemon-built"}"#;
    const FALLBACK: &str = r#"{"schema":"atss.construct.v1","valid":2793,"cache_source":"cold"}"#;

    #[test]
    fn served_requests_with_the_right_count_are_correct() {
        assert_eq!(classify(true, HIT, false, 2793), (Outcome::Correct, 2793));
        assert_eq!(classify(true, BUILT, true, 50), (Outcome::Correct, 50));
    }

    #[test]
    fn refused_or_fallback_requests_fail() {
        // the daemon refused or was unreachable and the CLI built locally
        assert_eq!(classify(true, FALLBACK, false, 2793).0, Outcome::Error);
        // a hit where a miss was expected was not a fresh build
        assert_eq!(classify(true, HIT, true, 2793).0, Outcome::Error);
        assert_eq!(classify(false, HIT, false, 2793).0, Outcome::Error);
        assert_eq!(classify(true, "", false, 2793).0, Outcome::Error);
        assert_eq!(classify(true, "error: busy", false, 2793).0, Outcome::Error);
    }

    #[test]
    fn a_wrong_count_fails_even_when_the_call_succeeded() {
        assert_eq!(classify(true, HIT, false, 2794).0, Outcome::WrongOutput);
    }
}

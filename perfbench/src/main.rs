//! The corridor benchmark.
//!
//! ```console
//! $ python3 perfbench/run.py --workload sweep-pv --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Four seeded workloads drive the user-facing engines: `sweep-pv`
//! (`SweepEngine` with PV sizing), `mc-days` (`McEngine`), `network-day`
//! (`NetworkOptimizer` then `NetworkDayEngine`) and `serve-mix` (the
//! `serve` binary under a closed-loop client). With `--trace 0` the last
//! stdout line carries the end-to-end metrics; with `--trace 1` it
//! carries the per-layer metrics of a traced run. See
//! `perfbench/README.md` for every metric's definition.
//!
//! Every timed engine pass of a batch workload runs in a fresh child
//! process (this executable with `--child`), so the process-wide memos
//! — `energy::active_hours`, the solar weather environment and the
//! coverage cache — start cold, as they do for a CLI invocation.

mod batch;
mod calibrate;
mod gen;
mod measure;
mod serve_mix;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use batch::{Batch, Kind};
use calibrate::HostSpeed;
use measure::{median, nproc, quantile, Metric};
use trace::Trace;

const USAGE: &str = "\
usage: perfbench --workload sweep-pv|mc-days|network-day|serve-mix --seed N
                 --seconds S --trace 0|1
";

/// Set-up repetitions before each round of passes; `setup_s` is the
/// median over the run.
const SETUP_REPS: usize = 5;
/// Coordinator spawns per `serve-mix` run (each with its first request).
const SERVE_SETUP_REPS: usize = 5;

/// The per-layer metrics of a traced run, in output order.
const LAYER_METRICS: [(&str, &str); 48] = [
    ("grid.cells", "count"),
    ("grid.busy_s", "s"),
    ("energy.calls", "count"),
    ("energy.busy_s", "s"),
    ("pv.sizings", "count"),
    ("pv.busy_s", "s"),
    ("pv.cold_busy_s", "s"),
    ("pv.candidates_tried", "count"),
    ("pv.battery_hours_stepped", "count"),
    ("pv.unsolvable", "count"),
    ("pv.env_years_built", "count"),
    ("pv.useful_ratio", "ratio"),
    ("pv.wall_share", "ratio"),
    ("traffic.days", "count"),
    ("traffic.passes", "count"),
    ("traffic.busy_s", "s"),
    ("events.deploy_days", "count"),
    ("events.baseline_days", "count"),
    ("events.processed", "count"),
    ("events.per_day", "count"),
    ("events.deploy_busy_s", "s"),
    ("events.baseline_busy_s", "s"),
    ("events.power_busy_s", "s"),
    ("events.wall_share", "ratio"),
    ("fold.samples", "count"),
    ("fold.busy_s", "s"),
    ("render.rows", "count"),
    ("render.bytes", "B"),
    ("render.busy_s", "s"),
    ("network.edges", "count"),
    ("network.routes", "count"),
    ("network.sleep_decisions", "count"),
    ("network.edge_days", "count"),
    ("network.search_busy_s", "s"),
    ("network.day_busy_s", "s"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("serve.requests", "count"),
    ("serve.dispatch_p50_s", "s"),
    ("serve.stream_p50_s", "s"),
    ("serve.bytes", "B"),
    ("serve.retries", "count"),
    ("pool.workers", "count"),
    ("pool.scaling_eff", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("fail_ratio", "ratio"),
];

/// Counters that must repeat exactly for one seed; the cross-run pin
/// file holds these.
const DETERMINISTIC: [&str; 17] = [
    "grid.cells",
    "energy.calls",
    "pv.sizings",
    "pv.candidates_tried",
    "pv.unsolvable",
    "traffic.days",
    "traffic.passes",
    "events.processed",
    "fold.samples",
    "render.rows",
    "render.bytes",
    "network.edges",
    "network.routes",
    "network.sleep_decisions",
    "network.edge_days",
    "cache.hits",
    "cache.misses",
];

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    Batch(Kind),
    ServeMix,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "sweep-pv" => Some(Workload::Batch(Kind::SweepPv)),
            "mc-days" => Some(Workload::Batch(Kind::McDays)),
            "network-day" => Some(Workload::Batch(Kind::NetworkDay)),
            "serve-mix" => Some(Workload::ServeMix),
            _ => None,
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Internal: `pass` or `traced` in a child process.
    child: Option<String>,
    workers: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0,
        trace: false,
        child: None,
        workers: 1,
    };
    let mut seen = (false, false, false, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--workload" => (args.workload, seen.0) = (value, true),
            "--seed" => (args.seed, seen.1) = (number(&value)?, true),
            "--seconds" => (args.seconds, seen.2) = (number(&value)?, true),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
                seen.3 = true;
            }
            "--child" => args.child = Some(value),
            "--workers" => args.workers = number(&value)? as usize,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let complete = seen.0 && seen.1 && (args.child.is_some() || (seen.2 && seen.3));
    if !complete || args.workers == 0 {
        return Err("missing or invalid arguments".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprint!("perfbench: {error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = Workload::parse(&args.workload) else {
        eprint!("perfbench: unknown workload {}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    let outcome = match (&args.child, workload) {
        (Some(mode), Workload::Batch(kind)) => {
            return match child_main(kind, args.seed, mode, args.workers) {
                Ok(()) => ExitCode::SUCCESS,
                Err(error) => {
                    eprintln!("perfbench child: {error}");
                    ExitCode::FAILURE
                }
            };
        }
        (Some(_), Workload::ServeMix) => Err("serve-mix has no child mode".to_owned()),
        (None, Workload::Batch(kind)) if args.trace => traced_batch(kind, args.seed),
        (None, Workload::Batch(kind)) => timed_batch(kind, args.seed, args.seconds),
        (None, Workload::ServeMix) if args.trace => traced_serve(args.seed),
        (None, Workload::ServeMix) => timed_serve(args.seed, args.seconds),
    };
    match outcome {
        Ok(outcome) => {
            println!(
                "{}",
                measure::result_line(outcome.attempted, outcome.failed, &outcome.metrics)
            );
            ExitCode::SUCCESS
        }
        Err(error) => {
            eprintln!("perfbench: {error}");
            ExitCode::FAILURE
        }
    }
}

/// A run's result line content.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

// ---------------------------------------------------------------------------
// Child processes (one cold engine pass each)
// ---------------------------------------------------------------------------

fn child_main(kind: Kind, seed: u64, mode: &str, workers: usize) -> Result<(), String> {
    let batch = Batch::generate(kind, seed)?;
    let mut out = Vec::new();
    match mode {
        "pass" => {
            let pass = batch.pass(workers)?;
            let rows: Vec<String> = pass.row_s.iter().map(f64::to_string).collect();
            out.push(format!("items {}", pass.items));
            out.push(format!("rows {}", pass.rows));
            out.push(format!("bytes {}", pass.bytes));
            out.push(format!("sha256 {}", pass.sha256));
            out.push(format!("elapsed_s {}", pass.elapsed_s));
            out.push(format!("row_s {}", rows.join(" ")));
        }
        "traced" => {
            let mut trace = Trace::default();
            let traced = batch.traced(&mut trace, workers)?;
            out.extend(trace.lines());
            out.push(format!("wall_s {}", traced.wall_s));
            out.push(format!("render_sha256 {}", traced.render_sha256));
        }
        other => return Err(format!("unknown child mode {other}")),
    }
    out.push(format!("vmhwm_kib {}", measure::vmhwm_kib("self")));
    println!("{}", out.join("\n"));
    Ok(())
}

/// A child's `key value…` report.
struct ChildReport(BTreeMap<String, String>);

impl ChildReport {
    fn text(&self, key: &str) -> Result<&str, String> {
        self.0
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("child report lacks {key}"))
    }

    fn num(&self, key: &str) -> f64 {
        self.0.get(key).and_then(|v| v.parse().ok()).unwrap_or(0.0)
    }

    fn list(&self, key: &str) -> Vec<f64> {
        self.0
            .get(key)
            .map(|v| {
                v.split_whitespace()
                    .filter_map(|x| x.parse().ok())
                    .collect()
            })
            .unwrap_or_default()
    }
}

/// Runs this executable as a child and waits for its report.
fn run_child(
    kind_name: &str,
    seed: u64,
    mode: &str,
    workers: usize,
) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", kind_name, "--seed", &seed.to_string()])
        .args(["--child", mode, "--workers", &workers.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning child: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{mode} child at {workers} workers: {}",
            output.status
        ));
    }
    let text = String::from_utf8(output.stdout).map_err(|e| format!("child output: {e}"))?;
    Ok(ChildReport(
        text.lines()
            .map(|line| {
                let (key, value) = line.split_once(' ').unwrap_or((line, ""));
                (key.to_owned(), value.to_owned())
            })
            .collect(),
    ))
}

fn kind_name(kind: Kind) -> &'static str {
    match kind {
        Kind::SweepPv => "sweep-pv",
        Kind::McDays => "mc-days",
        Kind::NetworkDay => "network-day",
    }
}

/// One measured pass as the parent process keeps it.
struct PassStats {
    workers: usize,
    elapsed_s: f64,
    items_per_s: f64,
    bytes: f64,
    sha256: String,
    row_s: Vec<f64>,
    rss_kib: f64,
    /// `(items, rows, bytes, sha256)`: must match across passes.
    identity: String,
}

fn child_pass(kind: Kind, seed: u64, workers: usize) -> Result<PassStats, String> {
    let report = run_child(kind_name(kind), seed, "pass", workers)?;
    let identity = format!(
        "items={} rows={} bytes={} sha256={}",
        report.text("items")?,
        report.text("rows")?,
        report.text("bytes")?,
        report.text("sha256")?
    );
    let elapsed = report.num("elapsed_s");
    if elapsed <= 0.0 {
        return Err("child reported no elapsed time".into());
    }
    Ok(PassStats {
        workers,
        elapsed_s: elapsed,
        items_per_s: report.num("items") / elapsed,
        bytes: report.num("bytes"),
        sha256: report.text("sha256")?.to_owned(),
        row_s: report.list("row_s"),
        rss_kib: report.num("vmhwm_kib"),
        identity,
    })
}

// ---------------------------------------------------------------------------
// Batch workloads
// ---------------------------------------------------------------------------

fn timed_batch(kind: Kind, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let all = nproc();
    let mut setup = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut passes: Vec<PassStats> = Vec::new();
    let mut host = HostSpeed::default();
    alternate(seconds, &mut host, |workers, first_of_round| {
        // set-up samples spread over the run like the passes, so their
        // median sees the same host conditions
        if first_of_round {
            for _ in 0..SETUP_REPS {
                let started = Instant::now();
                std::hint::black_box(Batch::generate(kind, seed)?);
                setup.push(started.elapsed().as_secs_f64());
            }
        }
        attempted += 1;
        match child_pass(kind, seed, workers) {
            Ok(pass) => passes.push(pass),
            Err(error) => {
                eprintln!("perfbench: {error}");
                failed += 1;
            }
        }
        Ok(())
    })?;
    let Some(reference) = passes.first().map(|p| p.identity.clone()) else {
        return Err("no engine pass succeeded".into());
    };
    for pass in &passes {
        if pass.identity != reference {
            eprintln!(
                "perfbench: pass at {} workers differs: {} vs {reference}",
                pass.workers, pass.identity
            );
            failed += 1;
        }
    }
    if !pin_counters(kind_name(kind), seed, "pass", &reference)? {
        failed += 1;
    }

    let rate = |w: usize| -> Vec<f64> {
        passes
            .iter()
            .filter(|p| p.workers == w)
            .map(|p| p.items_per_s)
            .collect()
    };
    let wide: Vec<&PassStats> = passes.iter().filter(|p| p.workers == all).collect();
    let rows: Vec<f64> = wide.iter().flat_map(|p| p.row_s.iter().copied()).collect();
    let first_rows: Vec<f64> = wide
        .iter()
        .filter_map(|p| p.row_s.first().copied())
        .collect();
    let rss: Vec<f64> = wide.iter().map(|p| p.rss_kib).collect();
    eprintln!(
        "perfbench: {} passes ({} at 1 worker, {} at {all}); {} row-latency samples; {reference}",
        passes.len(),
        rate(1).len(),
        wide.len(),
        rows.len()
    );
    Ok(Outcome {
        attempted,
        failed,
        metrics: end_to_end(
            host.relative(),
            median(&rate(1)),
            median(&rate(all)),
            median(&setup),
            median(&rss) / 1024.0,
            &rows,
            &first_rows,
        ),
    })
}

/// Runs rounds of `step(workers, first_of_round)` at 1 worker and at
/// every core, flipping the order each round so drift in the host's
/// speed lands on both sides evenly, while a round of the average
/// length so far still ends within `seconds` (at least one round). The
/// host's speed is sampled before every step.
fn alternate(
    seconds: u64,
    host: &mut HostSpeed,
    mut step: impl FnMut(usize, bool) -> Result<(), String>,
) -> Result<(), String> {
    let all = nproc();
    let measuring = Instant::now();
    let deadline = measuring + Duration::from_secs(seconds);
    for round in 1u32.. {
        let order = if round % 2 == 1 { [1, all] } else { [all, 1] };
        host.sample();
        step(order[0], true)?;
        host.sample();
        step(order[1], false)?;
        let now = Instant::now();
        if now + (now - measuring) / round > deadline {
            break;
        }
    }
    Ok(())
}

/// The end-to-end metrics of a run, scaled to the reference host:
/// `speed` is the host's speed relative to it during the run (see
/// `calibrate`). The unscaled values go to stderr.
fn end_to_end(
    speed: f64,
    per_s_1w: f64,
    per_s_allw: f64,
    setup_s: f64,
    rss_mib: f64,
    latencies: &[f64],
    first_rows: &[f64],
) -> Vec<Metric> {
    let metric = |name, value, unit| Metric { name, value, unit };
    let raw = [
        metric("items_per_s_1w", per_s_1w, "items/s"),
        metric("items_per_s_allw", per_s_allw, "items/s"),
        metric("setup_s", setup_s, "s"),
        metric("peak_rss_mib", rss_mib, "MiB"),
        metric("req_latency_p50_s", quantile(latencies, 0.5), "s"),
        metric("req_latency_p90_s", quantile(latencies, 0.9), "s"),
        metric("first_row_p50_s", median(first_rows), "s"),
    ];
    let text: Vec<String> = raw
        .iter()
        .map(|m| format!("{}={}", m.name, m.value))
        .collect();
    eprintln!(
        "perfbench: host speed {speed} x reference; unscaled {}",
        text.join(" ")
    );
    raw.into_iter()
        .map(|m| match m.unit {
            "items/s" => metric(m.name, m.value / speed, m.unit),
            "s" => metric(m.name, m.value * speed, m.unit),
            _ => m,
        })
        .collect()
}

fn traced_batch(kind: Kind, seed: u64) -> Result<Outcome, String> {
    let all = nproc();
    let name = kind_name(kind);
    // two untraced passes per worker count, alternating, give the
    // scaling and overhead baselines
    let mut passes = Vec::with_capacity(4);
    for workers in [1, all, all, 1] {
        passes.push(child_pass(kind, seed, workers)?);
    }
    let attempted = passes.len() as u64 + 1;
    let mut failed = 0u64;
    let report = run_child(name, seed, "traced", all)?;
    let at = |w: usize, f: fn(&PassStats) -> f64| -> f64 {
        let v: Vec<f64> = passes.iter().filter(|p| p.workers == w).map(f).collect();
        median(&v)
    };
    let (per_s_1w, per_s_allw) = (at(1, |p| p.items_per_s), at(all, |p| p.items_per_s));
    let elapsed_1w = at(1, |p| p.elapsed_s);

    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (metric, _) in LAYER_METRICS {
        values.insert(metric, report.num(metric));
    }
    let wall = report.num("wall_s");
    let busy_events: f64 = [
        "events.deploy_busy_s",
        "events.baseline_busy_s",
        "events.power_busy_s",
    ]
    .iter()
    .map(|k| values[k])
    .sum();
    let days = values["events.deploy_days"] + values["events.baseline_days"];
    values.insert(
        "pv.useful_ratio",
        ratio(values["pv.sizings"], values["pv.candidates_tried"]),
    );
    values.insert("pv.wall_share", ratio(values["pv.busy_s"], wall));
    values.insert("events.per_day", ratio(values["events.processed"], days));
    values.insert("events.wall_share", ratio(busy_events, wall));
    values.insert("pool.workers", all as f64);
    values.insert("pool.scaling_eff", ratio(per_s_allw, all as f64 * per_s_1w));
    values.insert("trace.wall_s", wall);
    // the untraced 1-worker pass runs the same work on one thread
    values.insert("trace.overhead_ratio", wall / elapsed_1w - 1.0);

    // the traced run renders the engine's in-memory report; its bytes
    // must be the bytes both streamed passes produced
    let sha = report.text("render_sha256")?;
    for pass in &passes {
        if pass.sha256 != sha || pass.bytes != values["render.bytes"] {
            eprintln!(
                "perfbench: traced rendering ({sha}) differs from the pass at {} workers ({})",
                pass.workers, pass.identity
            );
            failed += 1;
        }
    }
    if !pin_counters(name, seed, "traced", &deterministic_text(&values))? {
        failed += 1;
    }
    values.insert("fail_ratio", ratio(failed as f64, attempted as f64));
    eprintln!("perfbench: traced {name}: {}", deterministic_text(&values));
    Ok(Outcome {
        attempted,
        failed,
        metrics: layer_metrics(&values),
    })
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn layer_metrics(values: &BTreeMap<&'static str, f64>) -> Vec<Metric> {
    LAYER_METRICS
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: values.get(name).copied().unwrap_or(0.0),
            unit,
        })
        .collect()
}

fn deterministic_text(values: &BTreeMap<&'static str, f64>) -> String {
    DETERMINISTIC
        .iter()
        .map(|k| format!("{k}={}", values.get(k).copied().unwrap_or(0.0)))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Pins a run's deterministic counts for `(workload, seed, mode)` under
/// the build directory, keyed by this executable's build time: a later
/// run of the same build and seed must reproduce them exactly. Returns
/// whether they matched (or were recorded for the first time).
fn pin_counters(workload: &str, seed: u64, mode: &str, counts: &str) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let built = std::fs::metadata(&exe)
        .and_then(|m| m.modified())
        .ok()
        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
        .map_or(0, |d| d.as_nanos());
    let dir = build_dir().join("perfbench-counters");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{workload}-{seed}-{mode}-{built}.txt"));
    match std::fs::read_to_string(&path) {
        Ok(pinned) if pinned == counts => Ok(true),
        Ok(pinned) => {
            eprintln!("perfbench: counts differ from an earlier run of this seed:\n  now  {counts}\n  then {pinned}");
            Ok(false)
        }
        Err(_) => {
            std::fs::write(&path, counts).map_err(|e| format!("{}: {e}", path.display()))?;
            Ok(true)
        }
    }
}

/// The build directory (`CARGO_TARGET_DIR`, as the launcher sets it).
fn build_dir() -> PathBuf {
    PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into()))
}

// ---------------------------------------------------------------------------
// serve-mix
// ---------------------------------------------------------------------------

/// Everything a `serve-mix` run needs before it can time anything.
struct ServeRun {
    sequence: Vec<serve_mix::Request>,
    expected: BTreeMap<String, String>,
    serve: PathBuf,
    attempted: u64,
    failed: u64,
    pass_counts: Vec<(u64, u64, u64)>,
}

impl ServeRun {
    fn new(seed: u64) -> Result<ServeRun, String> {
        let serve = serve_mix::serve_binary()?;
        let sequence = serve_mix::requests(seed);
        let mut expected = BTreeMap::new();
        let bases = sequence
            .iter()
            .map(|r| r.base.as_str())
            .chain([serve_mix::SETUP_REQUEST]);
        for base in bases {
            if !expected.contains_key(base) {
                expected.insert(base.to_owned(), serve_mix::expected_digest(base, nproc())?);
            }
        }
        Ok(ServeRun {
            sequence,
            expected,
            serve,
            attempted: 0,
            failed: 0,
            pass_counts: Vec::new(),
        })
    }

    /// Spawns a coordinator and times it through its first one-cell
    /// request: one `setup_s` sample.
    fn setup(&mut self) -> Result<(serve_mix::Coordinator, f64), String> {
        let started = Instant::now();
        let mut coordinator = serve_mix::Coordinator::spawn(&self.serve)?;
        let line = format!("{} shards=1", serve_mix::SETUP_REQUEST);
        let reply = coordinator.request(&line, &self.expected[serve_mix::SETUP_REQUEST])?;
        let elapsed = started.elapsed().as_secs_f64();
        self.attempted += 1;
        if !reply.ok {
            self.failed += 1;
        }
        Ok((coordinator, elapsed))
    }

    fn pass(
        &mut self,
        coordinator: &mut serve_mix::Coordinator,
        shards: usize,
    ) -> Result<serve_mix::PassOut, String> {
        let dir = build_dir().join(format!(
            "perfbench-cache-{}-{}",
            std::process::id(),
            self.pass_counts.len()
        ));
        let out = serve_mix::pass(coordinator, &self.sequence, &self.expected, shards, &dir)?;
        self.attempted += self.sequence.len() as u64;
        self.failed += out.failed;
        self.pass_counts.push(out.counts());
        Ok(out)
    }

    /// Shuts a coordinator down; an unclean exit counts as a failure.
    fn close(&mut self, coordinator: serve_mix::Coordinator) -> Result<(), String> {
        self.attempted += 1;
        if !coordinator.close()? {
            eprintln!("perfbench: serve exited with an error");
            self.failed += 1;
        }
        Ok(())
    }

    /// Fails the run unless every pass saw the same cache hits, misses
    /// and bytes, here and in earlier runs of this seed.
    fn check_counts(&mut self, seed: u64, mode: &str) -> Result<(), String> {
        let Some(&first) = self.pass_counts.first() else {
            return Err("no serve pass ran".into());
        };
        for &counts in &self.pass_counts {
            if counts != first {
                eprintln!("perfbench: serve pass counts differ: {counts:?} vs {first:?}");
                self.failed += 1;
            }
        }
        let text = format!(
            "cache.hits={} cache.misses={} serve.bytes={}",
            first.0, first.1, first.2
        );
        if !pin_counters("serve-mix", seed, mode, &text)? {
            self.failed += 1;
        }
        Ok(())
    }
}

fn timed_serve(seed: u64, seconds: u64) -> Result<Outcome, String> {
    let all = nproc();
    let mut run = ServeRun::new(seed)?;
    let mut host = HostSpeed::default();
    let mut setup = Vec::with_capacity(SERVE_SETUP_REPS);
    let mut coordinator = None;
    for _ in 0..SERVE_SETUP_REPS {
        host.sample();
        let (spawned, elapsed) = run.setup()?;
        setup.push(elapsed);
        if let Some(previous) = coordinator.replace(spawned) {
            run.close(previous)?;
        }
    }
    let mut coordinator = coordinator.ok_or("no coordinator")?;

    let mut passes: Vec<(usize, serve_mix::PassOut)> = Vec::new();
    alternate(seconds, &mut host, |shards, _| {
        passes.push((shards, run.pass(&mut coordinator, shards)?));
        Ok(())
    })?;
    let rss_mib = coordinator.vmhwm_kib() as f64 / 1024.0;
    run.close(coordinator)?;
    run.check_counts(seed, "pass")?;

    let rate = |w: usize| -> Vec<f64> {
        passes
            .iter()
            .filter(|(s, _)| *s == w)
            .map(|(_, p)| p.requests_per_s())
            .collect()
    };
    let wide: Vec<&serve_mix::Reply> = passes
        .iter()
        .filter(|(s, _)| *s == all)
        .flat_map(|(_, p)| &p.replies)
        .collect();
    let latencies: Vec<f64> = wide.iter().map(|r| r.latency_s).collect();
    let first_rows: Vec<f64> = wide.iter().map(|r| r.first_row_s).collect();
    let rates: Vec<String> = passes
        .iter()
        .map(|(s, p)| format!("{s}:{:.1}", p.requests_per_s()))
        .collect();
    eprintln!(
        "perfbench: {} serve passes (shards:requests/s {}); {} latency samples at {all} shards ({} beyond p90)",
        passes.len(),
        rates.join(" "),
        latencies.len(),
        latencies.len() / 10
    );
    Ok(Outcome {
        attempted: run.attempted,
        failed: run.failed,
        metrics: end_to_end(
            host.relative(),
            median(&rate(1)),
            median(&rate(all)),
            median(&setup),
            rss_mib,
            &latencies,
            &first_rows,
        ),
    })
}

fn traced_serve(seed: u64) -> Result<Outcome, String> {
    let all = nproc();
    let mut run = ServeRun::new(seed)?;
    let (mut coordinator, _) = run.setup()?;
    let one = run.pass(&mut coordinator, 1)?;
    let wide = run.pass(&mut coordinator, all)?;
    let traced = run.pass(&mut coordinator, all)?;
    let retries = coordinator.retries();
    run.close(coordinator)?;
    run.check_counts(seed, "traced")?;

    let (hits, misses, bytes) = traced.counts();
    let dispatch: Vec<f64> = traced.replies.iter().map(|r| r.dispatch_s).collect();
    let stream: Vec<f64> = traced
        .replies
        .iter()
        .map(|r| r.latency_s - r.dispatch_s)
        .collect();
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    values.insert("cache.hits", hits as f64);
    values.insert("cache.misses", misses as f64);
    values.insert(
        "cache.hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
    );
    values.insert(
        "render.rows",
        traced.replies.iter().map(|r| r.rows as f64).sum(),
    );
    values.insert("render.bytes", bytes as f64);
    values.insert("serve.requests", traced.replies.len() as f64);
    values.insert("serve.dispatch_p50_s", median(&dispatch));
    values.insert("serve.stream_p50_s", median(&stream));
    values.insert("serve.bytes", bytes as f64);
    values.insert("serve.retries", retries as f64);
    values.insert("pool.workers", all as f64);
    values.insert(
        "pool.scaling_eff",
        ratio(wide.requests_per_s(), all as f64 * one.requests_per_s()),
    );
    values.insert("trace.wall_s", traced.wall_s);
    values.insert("trace.overhead_ratio", traced.wall_s / wide.wall_s - 1.0);
    values.insert("fail_ratio", ratio(run.failed as f64, run.attempted as f64));
    eprintln!(
        "perfbench: traced serve-mix: {}",
        deterministic_text(&values)
    );
    Ok(Outcome {
        attempted: run.attempted,
        failed: run.failed,
        metrics: layer_metrics(&values),
    })
}

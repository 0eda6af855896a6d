//! The `serve-mix` workload: one closed-loop client driving one `serve`
//! coordinator through a seeded sequence of `sweep`/`mc`/`optimize`
//! requests, checking every reply against the library engines.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use corridor_core::hash::Sha256;
use corridor_core::sink::{DigestSink, RowFormat};
use corridor_sim::{
    DeploymentOptimizer, McEngine, ReplicationPlan, ScenarioGrid, SearchSpace, SweepEngine,
};

use crate::gen::Rng;

/// Requests that are not cache repeats, per pass.
const BASE_REQUESTS: usize = 100;

/// `(engine, grid, count, cached)`: the fixed composition of the base
/// requests; `cached` of them carry `cache=` and are repeated verbatim
/// later in the pass, so a pass makes 20 cache writes and 20 cache
/// reads. Only the order, the formats' placement and the `mc` seeds
/// vary with the seed, so every seed asks for the same work. The cached
/// requests are `mc` requests with distinct seeds, so no two of them
/// share a cache entry and the hits are the repeats' cells alone,
/// whatever the order. The 200-cell grid appears only where a request
/// stays cheap, so no handful of heavy requests dominates a pass.
const MIX: [(&str, &str, usize, usize); 11] = [
    ("sweep", "paper", 10, 0),
    ("sweep", "smoke-3", 10, 0),
    ("sweep", "mixed-8", 11, 0),
    ("sweep", "screening-200", 2, 0),
    ("mc", "paper", 10, 7),
    ("mc", "smoke-3", 10, 7),
    ("mc", "mixed-8", 10, 6),
    ("optimize", "paper", 10, 0),
    ("optimize", "smoke-3", 10, 0),
    ("optimize", "mixed-8", 10, 0),
    ("optimize", "screening-200", 7, 0),
];

/// The request `setup_s` times after spawning the coordinator.
pub const SETUP_REQUEST: &str = "sweep grid=paper format=csv";

/// One request of the sequence, without the per-pass `shards=` and
/// `cache=` fields.
#[derive(Clone)]
pub struct Request {
    pub base: String,
    pub cached: bool,
}

/// The seeded request sequence of one pass: the `MIX` in seeded order,
/// each cached request followed, somewhere later, by its repeat.
pub fn requests(seed: u64) -> Vec<Request> {
    let mut rng = Rng::new(seed, 4);
    let first_mc_seed = rng.next_u64() % 1_000_000;
    let mut mc_seen = 0;
    let mut base = Vec::with_capacity(BASE_REQUESTS);
    for &(engine, grid, count, cached) in &MIX {
        for k in 0..count {
            let format = if k % 2 == 0 { "csv" } else { "json" };
            let mut line = format!("{engine} grid={grid} format={format}");
            if engine == "mc" {
                line.push_str(&format!(
                    " reps={} seed={}",
                    2 + k % 5,
                    first_mc_seed + mc_seen
                ));
                mc_seen += 1;
            }
            base.push(Request {
                base: line,
                cached: k < cached,
            });
        }
    }
    rng.shuffle(&mut base);

    let mut keyed: Vec<(f64, Request)> = Vec::new();
    for (i, request) in base.into_iter().enumerate() {
        if request.cached {
            let at = rng.range(i as f64 + 0.5, BASE_REQUESTS as f64);
            keyed.push((at, request.clone()));
        }
        keyed.push((i as f64, request));
    }
    keyed.sort_by(|a, b| a.0.total_cmp(&b.0));
    keyed.into_iter().map(|(_, r)| r).collect()
}

/// The sha256 of the payload `serve` must send for `base`, computed
/// in-process through the library engine.
pub fn expected_digest(base: &str, workers: usize) -> Result<String, String> {
    let mut engine = "";
    let (mut grid, mut format, mut reps, mut seed) = ("", RowFormat::Csv, 5, 7);
    for (i, word) in base.split_whitespace().enumerate() {
        if i == 0 {
            engine = word;
            continue;
        }
        let (key, value) = word.split_once('=').ok_or("malformed field")?;
        match key {
            "grid" => grid = value,
            "format" => format = RowFormat::from_label(value).ok_or("bad format")?,
            "reps" => reps = value.parse().map_err(|_| "bad reps")?,
            "seed" => seed = value.parse().map_err(|_| "bad seed")?,
            _ => return Err(format!("unknown field {key}")),
        }
    }
    let grid = ScenarioGrid::by_name(grid).ok_or_else(|| format!("unknown grid {grid}"))?;
    let mut sink = DigestSink::new();
    match engine {
        "sweep" => SweepEngine::new()
            .workers(workers)
            .stream(&grid, format, &mut sink)
            .map(|_| ()),
        "mc" => McEngine::new()
            .workers(workers)
            .stream(
                &grid,
                &ReplicationPlan::new(reps).master_seed(seed),
                format,
                &mut sink,
            )
            .map(|_| ()),
        "optimize" => DeploymentOptimizer::new()
            .workers(workers)
            .stream(
                &grid,
                // the search space `serve` answers `optimize` with
                &SearchSpace::new().node_counts((0..=6).collect()),
                format,
                &mut sink,
            )
            .map(|_| ()),
        other => return Err(format!("unknown engine {other}")),
    }
    .map_err(|e| format!("{base}: {e}"))?;
    Ok(sink.hex())
}

/// One reply as the client saw it.
pub struct Reply {
    /// Request written → `END` read.
    pub latency_s: f64,
    /// Request written → `BEGIN` read.
    pub dispatch_s: f64,
    /// Request written → first payload row read.
    pub first_row_s: f64,
    pub bytes: u64,
    pub rows: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Whether the trailer and the payload match each other and the
    /// in-process digest.
    pub ok: bool,
}

/// A request `serve` answered with an `ERROR` line (or anything but
/// `BEGIN`): a failed reply, after which the protocol stays in step.
fn refused(line: &str, text: &str, started: Instant) -> Result<Reply, String> {
    eprintln!("perfbench: serve refused {line:?}: {}", text.trim_end());
    let latency_s = started.elapsed().as_secs_f64();
    Ok(Reply {
        latency_s,
        dispatch_s: latency_s,
        first_row_s: latency_s,
        bytes: 0,
        rows: 0,
        cache_hits: 0,
        cache_misses: 0,
        ok: false,
    })
}

/// A running `serve` coordinator with its pipes.
pub struct Coordinator {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    stderr: Option<JoinHandle<()>>,
    retries: Arc<AtomicU64>,
}

impl Coordinator {
    pub fn spawn(serve: &Path) -> Result<Coordinator, String> {
        let mut child = Command::new(serve)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", serve.display()))?;
        let stdin = child.stdin.take().ok_or("serve stdin")?;
        let stdout = BufReader::new(child.stdout.take().ok_or("serve stdout")?);
        let stderr = child.stderr.take().ok_or("serve stderr")?;
        let retries = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&retries);
        // drain stderr so the coordinator never blocks on it, counting
        // its chunk-retry diagnostics
        let stderr = std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if line.contains("retrying") {
                    counter.fetch_add(1, Ordering::Relaxed);
                }
                eprintln!("{line}");
            }
        });
        Ok(Coordinator {
            child,
            stdin: Some(stdin),
            stdout,
            stderr: Some(stderr),
            retries,
        })
    }

    /// Sends one request line and reads its reply through `END`.
    pub fn request(&mut self, line: &str, expected: &str) -> Result<Reply, String> {
        let stdin = self.stdin.as_mut().ok_or("coordinator closed")?;
        let started = Instant::now();
        writeln!(stdin, "{line}")
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("serve stdin: {e}"))?;
        let mut text = String::new();
        self.read_line(&mut text)?;
        if !text.starts_with("BEGIN ") {
            return refused(line, &text, started);
        }
        let dispatch_s = started.elapsed().as_secs_f64();
        let mut digest = Sha256::new();
        let (mut lines, mut first_row_s) = (0u64, f64::NAN);
        loop {
            text.clear();
            self.read_line(&mut text)?;
            if let Some(trailer) = text.strip_prefix("END ") {
                let latency_s = started.elapsed().as_secs_f64();
                let field = |key: &str| {
                    trailer.split_whitespace().find_map(|w| {
                        w.strip_prefix(key)
                            .and_then(|rest| rest.strip_prefix('='))
                            .map(str::to_owned)
                    })
                };
                let number = |key: &str| field(key).and_then(|v| v.parse::<u64>().ok());
                let sent = field("sha256").unwrap_or_default();
                let bytes = digest.bytes_hashed();
                let got = digest.finalize_hex();
                return Ok(Reply {
                    latency_s,
                    dispatch_s,
                    first_row_s,
                    bytes,
                    rows: number("rows").unwrap_or(0),
                    cache_hits: number("cache_hits").unwrap_or(0),
                    cache_misses: number("cache_misses").unwrap_or(0),
                    ok: sent == got && got == expected && first_row_s.is_finite(),
                });
            }
            if text.starts_with("ERROR") {
                return refused(line, &text, started);
            }
            digest.update(text.as_bytes());
            lines += 1;
            // line 1 is the CSV header or the opening JSON bracket
            if lines == 2 {
                first_row_s = started.elapsed().as_secs_f64();
            }
        }
    }

    fn read_line(&mut self, text: &mut String) -> Result<(), String> {
        match self.stdout.read_line(text) {
            Ok(0) => Err("serve closed its stdout".into()),
            Ok(_) => Ok(()),
            Err(e) => Err(format!("serve stdout: {e}")),
        }
    }

    /// Chunk retries the coordinator reported so far.
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Peak resident memory of the coordinator so far, KiB.
    pub fn vmhwm_kib(&self) -> u64 {
        crate::measure::vmhwm_kib(&self.child.id().to_string())
    }

    /// Closes stdin, waits for the coordinator to exit and for its
    /// stderr to drain; returns whether it exited cleanly (it exits
    /// with an error after any failed request).
    pub fn close(mut self) -> Result<bool, String> {
        self.stdin = None;
        let status = self.child.wait().map_err(|e| format!("serve wait: {e}"))?;
        if let Some(handle) = self.stderr.take() {
            let _ = handle.join();
        }
        Ok(status.success())
    }
}

impl Drop for Coordinator {
    fn drop(&mut self) {
        if self.stderr.is_some() {
            self.stdin = None;
            let _ = self.child.kill();
            let _ = self.child.wait();
            if let Some(handle) = self.stderr.take() {
                let _ = handle.join();
            }
        }
    }
}

/// One pass over the sequence at `shards` worker processes per request.
pub struct PassOut {
    pub wall_s: f64,
    pub replies: Vec<Reply>,
    pub failed: u64,
}

impl PassOut {
    pub fn requests_per_s(&self) -> f64 {
        self.replies.len() as f64 / self.wall_s
    }

    /// `(hits, misses, bytes)` — the pass's deterministic counts.
    pub fn counts(&self) -> (u64, u64, u64) {
        self.replies.iter().fold((0, 0, 0), |(h, m, b), r| {
            (h + r.cache_hits, m + r.cache_misses, b + r.bytes)
        })
    }
}

/// Runs the whole sequence once; cached requests share a fresh cache
/// directory under `cache_root` that is removed afterwards.
pub fn pass(
    coordinator: &mut Coordinator,
    sequence: &[Request],
    expected: &BTreeMap<String, String>,
    shards: usize,
    cache_dir: &Path,
) -> Result<PassOut, String> {
    let cache = cache_dir
        .to_str()
        .filter(|s| !s.contains(char::is_whitespace))
        .ok_or("the cache directory path must be plain text without spaces")?;
    let started = Instant::now();
    let mut replies = Vec::with_capacity(sequence.len());
    let mut failed = 0;
    for request in sequence {
        let mut line = format!("{} shards={shards}", request.base);
        if request.cached {
            line.push_str(&format!(" cache={cache}"));
        }
        let digest = expected.get(&request.base).ok_or("no expected digest")?;
        let reply = coordinator.request(&line, digest)?;
        if !reply.ok {
            eprintln!("perfbench: serve reply to {line:?} failed its digest check");
            failed += 1;
        }
        replies.push(reply);
    }
    let wall_s = started.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(cache_dir);
    Ok(PassOut {
        wall_s,
        replies,
        failed,
    })
}

/// The `serve` executable built next to this benchmark.
pub fn serve_binary() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let serve = exe.with_file_name("serve");
    if serve.is_file() {
        Ok(serve)
    } else {
        Err(format!("{} is not built", serve.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequence_is_seeded_and_repeats_follow_originals() {
        let a = requests(5);
        let b = requests(5);
        let cached: usize = MIX.iter().map(|m| m.3).sum();
        assert_eq!(a.len(), BASE_REQUESTS + cached);
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.base == y.base && x.cached == y.cached));
        for (i, r) in a.iter().enumerate().filter(|(_, r)| r.cached) {
            let copies = a.iter().filter(|o| o.cached && o.base == r.base).count();
            assert!(copies >= 2, "cached request {i} has no repeat");
        }
    }
}

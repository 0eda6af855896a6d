//! The traced run's recorder: busy time and work counts per layer,
//! recorded around calls into each layer's public functions from the
//! benchmark's own code (the program itself carries no spans).

use std::collections::BTreeMap;
use std::time::Instant;

/// Per-layer busy seconds and counters, keyed by metric name.
#[derive(Default)]
pub struct Trace {
    busy: BTreeMap<&'static str, f64>,
    counts: BTreeMap<&'static str, u64>,
}

impl Trace {
    /// Runs `f`, adding its wall time to the busy time `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        self.add_busy(name, started.elapsed().as_secs_f64());
        out
    }

    pub fn add_busy(&mut self, name: &'static str, seconds: f64) {
        *self.busy.entry(name).or_default() += seconds;
    }

    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }

    /// Every busy time and counter as `name value` lines (the child
    /// process protocol).
    pub fn lines(&self) -> Vec<String> {
        let busy = self.busy.iter().map(|(k, v)| format!("{k} {v}"));
        let counts = self.counts.iter().map(|(k, v)| format!("{k} {v}"));
        busy.chain(counts).collect()
    }
}

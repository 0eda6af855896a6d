//! Measurement plumbing: the timing row sink, order statistics, peak
//! memory and the result line.

use std::time::Instant;

use corridor_core::hash::Sha256;
use corridor_core::sink::{RowSink, SinkResult};

/// A sink that hashes every byte and stamps the arrival time of every
/// row, so one engine pass yields its digest, its byte count and the
/// latency of each row since the pass started.
pub struct ClockSink {
    start: Instant,
    digest: Sha256,
    /// Whether rows written now are stamped (off for output that is
    /// emitted only after the timed stream, like a network frontier).
    pub stamping: bool,
    /// Seconds from `start` to each stamped row.
    pub row_s: Vec<f64>,
}

impl ClockSink {
    pub fn new(start: Instant) -> Self {
        ClockSink {
            start,
            digest: Sha256::new(),
            stamping: true,
            row_s: Vec::new(),
        }
    }

    pub fn bytes(&self) -> u64 {
        self.digest.bytes_hashed()
    }

    pub fn finish_hex(self) -> (String, Vec<f64>) {
        (self.digest.finalize_hex(), self.row_s)
    }
}

impl RowSink for ClockSink {
    fn write(&mut self, chunk: &str) -> SinkResult<()> {
        self.digest.update(chunk.as_bytes());
        // a row is a newline-terminated chunk; the CSV header arrives
        // unterminated and its newline as a separate one-byte chunk
        if self.stamping && chunk.len() > 1 && chunk.ends_with('\n') {
            self.row_s.push(self.start.elapsed().as_secs_f64());
        }
        Ok(())
    }
}

/// The median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `values`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Peak resident set (`VmHWM`) of process `pid` (`"self"` for this
/// one) in KiB; 0 where `/proc` is unavailable.
pub fn vmhwm_kib(pid: &str) -> u64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix("VmHWM:")
                    .and_then(|rest| rest.split_whitespace().next())
                    .and_then(|kib| kib.parse().ok())
            })
        })
        .unwrap_or(0)
}

/// Cores the host offers this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Renders the result line (the last line of stdout): exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            // a non-finite value is not JSON; it can only come from a
            // failed run, which `correct: false` already reports
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        body.join(", ")
    )
}

/// Formats a finite `f64` as a JSON number with every digit Rust's
/// shortest round-trip rendering keeps.
fn json_number(value: f64) -> String {
    let text = format!("{value}");
    if text.contains('.') || text.contains('e') {
        text
    } else {
        format!("{text}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
    }

    #[test]
    fn result_line_shape() {
        let line = result_line(
            3,
            0,
            &[Metric {
                name: "setup_s",
                value: 2.0,
                unit: "s",
            }],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 2.0, \"unit\": \"s\"}}}"
        );
    }
}

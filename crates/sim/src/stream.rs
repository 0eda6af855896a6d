//! Execution plumbing shared by the five engines.
//!
//! Every engine entry point runs on [`rayon::stream_ordered`], through
//! one of two drivers here:
//!
//! * [`drive`] backs the `stream` / `stream_rows` methods: cells are
//!   pulled lazily via [`ScenarioGrid::cell_at`](crate::ScenarioGrid::cell_at),
//!   evaluated on a bounded window of worker threads, rendered to row
//!   strings and handed to a [`RowSink`](corridor_core::sink::RowSink) in
//!   grid order. Peak memory is `O(workers × chunk)` whatever the grid
//!   size, and the emitted bytes are identical to the in-memory writers'
//!   — the contract the streaming-equivalence tests pin with SHA-256
//!   digests.
//! * [`collect`] backs the `run` methods: the same lazy pull and ordered
//!   hand-off, but into a `Vec` with an unbounded window, since the
//!   in-memory report ([`SweepReport`](crate::SweepReport),
//!   [`McReport`](crate::McReport), [`OptimizeReport`](crate::OptimizeReport),
//!   …) holds every result anyway.
//!
//! `workers(1)` runs either driver on the calling thread.
//!
//! The optional [`ResultCache`](crate::ResultCache) short-circuits the
//! evaluation of cells whose scenario hash already has a stored row
//! pair; this module only counts the hits and misses.

use std::thread;

use corridor_core::sink::{RowFormat, SinkError};
use corridor_core::ScenarioError;

/// Why a streaming run stopped early.
#[derive(Debug)]
pub enum StreamError {
    /// A cell's parameters failed validation (or the worker
    /// configuration was rejected).
    Scenario(ScenarioError),
    /// The sink (or the caller's `emit` callback) refused a row.
    Sink(SinkError),
}

impl core::fmt::Display for StreamError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            StreamError::Scenario(e) => write!(f, "scenario error: {e}"),
            StreamError::Sink(e) => write!(f, "sink error: {e}"),
        }
    }
}

impl std::error::Error for StreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StreamError::Scenario(e) => Some(e),
            StreamError::Sink(e) => Some(e),
        }
    }
}

impl From<ScenarioError> for StreamError {
    fn from(e: ScenarioError) -> Self {
        StreamError::Scenario(e)
    }
}

impl From<SinkError> for StreamError {
    fn from(e: SinkError) -> Self {
        StreamError::Sink(e)
    }
}

/// What a completed streaming run processed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamSummary {
    /// Grid cells evaluated or served from the cache.
    pub cells: u64,
    /// Rows emitted (one per cell; an optimizer "row" is the cell's
    /// whole frontier chunk).
    pub rows: u64,
    /// Cells served from the [`ResultCache`](crate::ResultCache).
    pub cache_hits: u64,
    /// Cells computed and (when caching) stored.
    pub cache_misses: u64,
}

impl StreamSummary {
    /// Fraction of cells served from the cache (`0.0` without one).
    pub fn hit_rate(&self) -> f64 {
        if self.cells == 0 {
            return 0.0;
        }
        self.cache_hits as f64 / self.cells as f64
    }
}

/// One cell's row rendered in both formats — the unit the result cache
/// stores, so a single evaluation warms both the CSV and JSON streams.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RowPair {
    pub(crate) csv: String,
    pub(crate) json: String,
}

impl RowPair {
    pub(crate) fn get(&self, format: RowFormat) -> &str {
        match format {
            RowFormat::Csv => &self.csv,
            RowFormat::Json => &self.json,
        }
    }
}

/// The evaluated output of one work item (a chunk of one or more cells).
pub(crate) struct ChunkRows {
    pub(crate) rows: Vec<RowPair>,
    pub(crate) cache_hits: u64,
    pub(crate) cache_misses: u64,
}

/// Resolves an engine's worker setting: `Some(0)` is the usual
/// misconfiguration error, `None` means machine parallelism.
pub(crate) fn resolve_workers(workers: Option<usize>) -> Result<usize, ScenarioError> {
    match workers {
        Some(0) => Err(ScenarioError::ZeroWorkers),
        Some(n) => Ok(n),
        None => Ok(thread::available_parallelism().map_or(1, usize::from)),
    }
}

/// Drives `compute` over `items` on `workers` threads with a bounded
/// reorder window, emitting each chunk's rows in item order.
///
/// The window is `2 × workers`: enough look-ahead to keep every worker
/// busy across chunk-cost skew, small enough that an emission stall
/// (slow sink) back-pressures the computation instead of buffering the
/// whole grid.
pub(crate) fn drive<I, T>(
    workers: usize,
    items: I,
    format: RowFormat,
    compute: impl Fn(T) -> Result<ChunkRows, ScenarioError> + Sync,
    emit: &mut impl FnMut(&str) -> Result<(), StreamError>,
) -> Result<StreamSummary, StreamError>
where
    I: Iterator<Item = T> + Send,
    T: Send,
{
    let window = workers.saturating_mul(2).max(2);
    let mut summary = StreamSummary::default();
    rayon::stream_ordered(
        items,
        workers,
        window,
        compute,
        |chunk: Result<ChunkRows, ScenarioError>| -> Result<(), StreamError> {
            let chunk = chunk?;
            for pair in &chunk.rows {
                emit(pair.get(format))?;
            }
            summary.cells += chunk.rows.len() as u64;
            summary.rows += chunk.rows.len() as u64;
            summary.cache_hits += chunk.cache_hits;
            summary.cache_misses += chunk.cache_misses;
            Ok(())
        },
    )?;
    Ok(summary)
}

/// Evaluates `items` on `workers` threads and collects the results in
/// item order, stopping at the first `Err` in that order.
///
/// The window is unbounded: the caller keeps every result, so holding
/// finished items back would only idle a worker behind a slow one.
pub(crate) fn collect<I, T, R, E>(
    workers: usize,
    items: I,
    compute: impl Fn(T) -> Result<R, E> + Sync,
) -> Result<Vec<R>, E>
where
    I: Iterator<Item = T> + Send,
    T: Send,
    R: Send,
    E: Send,
{
    let mut out = Vec::new();
    rayon::stream_ordered(items, workers, usize::MAX, compute, |result| {
        out.push(result?);
        Ok(())
    })?;
    Ok(out)
}

/// Splits `range` into `chunk`-sized sub-ranges, lazily.
pub(crate) fn chunked_ranges(
    range: core::ops::Range<usize>,
    chunk: usize,
) -> impl Iterator<Item = core::ops::Range<usize>> + Send {
    debug_assert!(chunk > 0);
    let (start, end) = (range.start, range.end);
    (0..(end - start).div_ceil(chunk)).map(move |i| {
        let lo = start + i * chunk;
        lo..(lo + chunk).min(end)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_hit_rate() {
        let mut s = StreamSummary::default();
        assert_eq!(s.hit_rate(), 0.0);
        s.cells = 10;
        s.cache_hits = 4;
        assert!((s.hit_rate() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn chunked_ranges_cover_without_overlap() {
        let chunks: Vec<_> = chunked_ranges(3..20, 8).collect();
        assert_eq!(chunks, vec![3..11, 11..19, 19..20]);
        assert!(chunked_ranges(5..5, 8).next().is_none());
    }

    #[test]
    fn zero_workers_rejected_none_resolves() {
        assert_eq!(
            resolve_workers(Some(0)).unwrap_err(),
            ScenarioError::ZeroWorkers
        );
        assert_eq!(resolve_workers(Some(3)).unwrap(), 3);
        assert!(resolve_workers(None).unwrap() >= 1);
    }

    #[test]
    fn error_display_and_conversions() {
        let e: StreamError = ScenarioError::ZeroWorkers.into();
        assert!(e.to_string().contains("scenario error"));
        let e: StreamError = SinkError::Closed.into();
        assert!(e.to_string().contains("sink error"));
        assert!(std::error::Error::source(&e).is_some());
    }
}

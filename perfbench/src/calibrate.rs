//! Host speed: a fixed reference kernel timed beside every pass.
//!
//! On a shared host the speed of a core drifts by tens of percent over
//! minutes as neighbours come and go, which hides any change a commit
//! makes. The kernel is the benchmark's own code — it calls nothing in
//! the workspace — so no change to the program can move it: its rate is
//! the host's speed at that moment. A run's time metrics are scaled by
//! the host's speed relative to [`REFERENCE_RATE`], so they read as if
//! measured on the reference host throughout.

use std::collections::BinaryHeap;
use std::time::Instant;

/// Work units per kernel run (about 45 ms at the reference rate).
const UNITS: u64 = 60;

/// The kernel's rate, units per second, on the host the committed
/// baseline was measured on; time metrics are scaled to this speed.
pub const REFERENCE_RATE: f64 = 1400.0;

/// Kernel rates sampled over one run.
#[derive(Default)]
pub struct HostSpeed {
    rates: Vec<f64>,
}

impl HostSpeed {
    /// Times one kernel run now (call it while nothing else of the
    /// benchmark runs).
    pub fn sample(&mut self) {
        self.rates.push(kernel_rate());
    }

    /// How fast this host ran during the run relative to the reference
    /// host: divide a throughput by it, multiply a duration by it.
    pub fn relative(&self) -> f64 {
        crate::measure::median(&self.rates) / REFERENCE_RATE
    }
}

/// One kernel run, in units per second. A unit mixes the two kinds of
/// work the engines spend their time on: a discrete-event loop (a
/// binary heap of timed events, each pop scheduling a successor) and a
/// battery-style state sweep over an hourly year of floats.
fn kernel_rate() -> f64 {
    let started = Instant::now();
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 40) as f64 / (1u64 << 24) as f64
    };
    let hours: Vec<f64> = (0..8760).map(|_| next()).collect();
    let mut total = 0.0f64;
    for _ in 0..UNITS {
        let mut heap: BinaryHeap<(u64, u32)> = (0..64u32).map(|n| (u64::from(n), n)).collect();
        for _ in 0..12_000 {
            let Some((at, node)) = heap.pop() else { break };
            let gap = next();
            total += (1.0 + gap).ln() * f64::from(node).sqrt();
            heap.push((at.wrapping_sub(1 + (gap * 1000.0) as u64), node));
        }
        let mut charge = 0.5f64;
        for (h, sun) in hours.iter().enumerate() {
            let load = if h % 24 < 6 { 0.02 } else { 0.05 };
            charge = (charge + 0.1 * sun - load).clamp(0.0, 1.0);
            total += charge;
        }
    }
    std::hint::black_box(total);
    UNITS as f64 / started.elapsed().as_secs_f64()
}

//! Differential suite: the per-node event loops of [`CorridorSimulator`]
//! against the global-queue simulator they replaced.
//!
//! The reference below is the simulator as it ran before the per-node
//! rewrite: one binary-heap queue ([`ReferenceQueue`], the heap the
//! queue implementations before it were pinned against) holding every
//! node's events, popped in (time, kind priority, node, insertion
//! sequence) order through a verbatim copy of the old `run`/`handle`.
//! Property tests drive both simulators over random node populations
//! (duplicate, zero-length and horizon-straddling sections), unsorted
//! pass lists mixing train speeds and lengths, and every combination of
//! zero and non-zero lead, wake delay and guard, single and double
//! track, and require bit-identical node reports and event counts. On
//! top of that, smoke outputs (paper policy, instant policy, Poisson
//! day, double track) are pinned to digests captured from the heap-era
//! implementation, and the reference must reproduce them too.

use core::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt::Write as _;

use corridor_core::traffic::{PoissonTimetable, Timetable, TrackSection, Train, TrainPass};
use corridor_core::units::{Meters, MetersPerSecond, Seconds};
use corridor_events::{
    segment_nodes, CorridorSimulator, EventKind, NodeKind, NodeSpec, NodeState, SimReport,
    WakePolicy,
};
use proptest::prelude::*;
use rand::SeedableRng;

// ---------------------------------------------------------------------
// The reference queue: the pre-rewrite binary heap, kept verbatim
// (modulo names).
// ---------------------------------------------------------------------

/// One scheduled event of the global queue.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Event {
    time: Seconds,
    node: usize,
    kind: EventKind,
}

#[derive(Debug, Clone, Copy)]
struct HeapEntry {
    event: Event,
    seq: u64,
}

fn kind_rank(kind: EventKind) -> u8 {
    match kind {
        EventKind::BarrierTrip => 0,
        EventKind::WakeComplete(_) => 1,
        EventKind::TrainEnter => 2,
        EventKind::TrainExit => 3,
        EventKind::DrainExpire(_) => 4,
    }
}

impl HeapEntry {
    fn key_cmp(&self, other: &Self) -> Ordering {
        self.event
            .time
            .partial_cmp(&other.event.time)
            .expect("event times are never NaN")
            .then_with(|| kind_rank(self.event.kind).cmp(&kind_rank(other.event.kind)))
            .then_with(|| self.event.node.cmp(&other.event.node))
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.key_cmp(other) == Ordering::Equal
    }
}

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // reversed: BinaryHeap is a max-heap, we want the earliest event
        self.key_cmp(other).reverse()
    }
}

/// The pre-rewrite queue: a plain binary min-heap with an insertion
/// sequence as the final tiebreak.
#[derive(Debug, Default)]
struct ReferenceQueue {
    heap: BinaryHeap<HeapEntry>,
    next_seq: u64,
}

impl ReferenceQueue {
    fn push(&mut self, event: Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(HeapEntry { event, seq });
    }

    fn pop(&mut self) -> Option<Event> {
        self.heap.pop().map(|entry| entry.event)
    }
}

// ---------------------------------------------------------------------
// The reference simulator: the global-queue `run`/`handle`, verbatim
// apart from the trace type (`StateTrace`'s mutators are crate-private,
// so `RefTrace` repeats its arithmetic).
// ---------------------------------------------------------------------

/// `StateTrace`'s accumulation: negative durations clamp to zero.
#[derive(Debug, Clone, Copy)]
struct RefTrace {
    asleep: Seconds,
    waking: Seconds,
    active: Seconds,
    drain: Seconds,
    wakes: usize,
    uncovered: Seconds,
}

impl RefTrace {
    fn new() -> Self {
        RefTrace {
            asleep: Seconds::ZERO,
            waking: Seconds::ZERO,
            active: Seconds::ZERO,
            drain: Seconds::ZERO,
            wakes: 0,
            uncovered: Seconds::ZERO,
        }
    }

    fn add(&mut self, state: NodeState, duration: Seconds) {
        let duration = duration.max(Seconds::ZERO);
        match state {
            NodeState::Asleep => self.asleep += duration,
            NodeState::Waking => self.waking += duration,
            NodeState::Active => self.active += duration,
            NodeState::Drain => self.drain += duration,
        }
    }

    fn count_wake(&mut self) {
        self.wakes += 1;
    }

    fn add_uncovered(&mut self, duration: Seconds) {
        self.uncovered += duration.max(Seconds::ZERO);
    }
}

struct NodeRuntime {
    state: NodeState,
    state_since: Seconds,
    occupancy: u32,
    expected: u32,
    wake_seq: u64,
    drain_seq: u64,
    occupied_since: Seconds,
    trace: RefTrace,
}

/// What the reference reports: the same fields a `SimReport` exposes.
struct RefReport {
    horizon: Seconds,
    events: usize,
    passes: usize,
    nodes: Vec<(NodeKind, TrackSection, RefTrace)>,
}

struct ReferenceSimulator {
    policy: WakePolicy,
    horizon: Seconds,
}

impl ReferenceSimulator {
    fn new(policy: WakePolicy, horizon: Seconds) -> Self {
        ReferenceSimulator { policy, horizon }
    }

    fn simulate(&self, nodes: &[NodeSpec], passes: &[TrainPass]) -> RefReport {
        self.run(
            nodes,
            passes.len(),
            nodes.iter().enumerate().flat_map(|(idx, spec)| {
                passes
                    .iter()
                    .map(move |pass| (idx, spec.section().occupancy(pass)))
            }),
        )
    }

    fn simulate_double_track(
        &self,
        nodes: &[NodeSpec],
        up: &[TrainPass],
        down: &[TrainPass],
        corridor_length: Meters,
    ) -> RefReport {
        let mirrored: Vec<TrackSection> = nodes
            .iter()
            .map(|spec| {
                let s = spec.section();
                assert!(
                    s.start().value() >= 0.0 && s.end() <= corridor_length,
                    "section {s} extends beyond the corridor"
                );
                TrackSection::new(corridor_length - s.end(), corridor_length - s.start())
            })
            .collect();
        let up_occ = nodes.iter().enumerate().flat_map(|(idx, spec)| {
            up.iter()
                .map(move |pass| (idx, spec.section().occupancy(pass)))
        });
        let down_occ = mirrored
            .iter()
            .enumerate()
            .flat_map(|(idx, section)| down.iter().map(move |pass| (idx, section.occupancy(pass))));
        self.run(nodes, up.len() + down.len(), up_occ.chain(down_occ))
    }

    fn run(
        &self,
        nodes: &[NodeSpec],
        passes: usize,
        occupancies: impl Iterator<Item = (usize, (Seconds, Seconds))>,
    ) -> RefReport {
        let mut queue = ReferenceQueue::default();
        for (node, (enter, exit)) in occupancies {
            // intervals entirely outside the horizon never power the node
            if exit <= Seconds::ZERO || enter >= self.horizon || exit <= enter {
                continue;
            }
            queue.push(Event {
                time: enter - self.policy.lead(),
                node,
                kind: EventKind::BarrierTrip,
            });
            queue.push(Event {
                time: enter,
                node,
                kind: EventKind::TrainEnter,
            });
            queue.push(Event {
                time: exit,
                node,
                kind: EventKind::TrainExit,
            });
        }

        let mut runtimes: Vec<NodeRuntime> = nodes
            .iter()
            .map(|_| NodeRuntime {
                state: NodeState::Asleep,
                state_since: Seconds::ZERO,
                occupancy: 0,
                expected: 0,
                wake_seq: 0,
                drain_seq: 0,
                occupied_since: Seconds::ZERO,
                trace: RefTrace::new(),
            })
            .collect();

        let mut events = 0usize;
        while let Some(event) = queue.pop() {
            events += 1;
            self.handle(&mut runtimes[event.node], event, &mut queue);
        }

        // close every node's final state segment at the horizon
        let nodes = nodes
            .iter()
            .zip(runtimes)
            .map(|(spec, mut rt)| {
                let remaining = self.horizon - rt.state_since;
                rt.trace.add(rt.state, remaining);
                (spec.kind(), spec.section(), rt.trace)
            })
            .collect();
        RefReport {
            horizon: self.horizon,
            events,
            passes,
            nodes,
        }
    }

    fn transition(&self, rt: &mut NodeRuntime, t: Seconds, next: NodeState) {
        let clock = t.max(Seconds::ZERO).min(self.horizon);
        rt.trace.add(rt.state, clock - rt.state_since);
        if rt.state == NodeState::Asleep && next == NodeState::Waking {
            rt.trace.count_wake();
        }
        rt.state = next;
        rt.state_since = clock;
    }

    fn handle(&self, rt: &mut NodeRuntime, event: Event, queue: &mut ReferenceQueue) {
        let t = event.time;
        match event.kind {
            EventKind::BarrierTrip => {
                rt.expected += 1;
                match rt.state {
                    NodeState::Asleep => {
                        self.transition(rt, t, NodeState::Waking);
                        rt.wake_seq += 1;
                        queue.push(Event {
                            time: t + self.policy.wake_delay(),
                            node: event.node,
                            kind: EventKind::WakeComplete(rt.wake_seq),
                        });
                    }
                    NodeState::Drain => {
                        // a new train is approaching: cancel the drain
                        rt.drain_seq += 1;
                        self.transition(rt, t, NodeState::Active);
                    }
                    NodeState::Waking | NodeState::Active => {}
                }
            }
            EventKind::WakeComplete(seq) => {
                if rt.state == NodeState::Waking && seq == rt.wake_seq {
                    if rt.occupancy > 0 {
                        // the train spent the wake transition uncovered
                        rt.trace
                            .add_uncovered(t.min(self.horizon) - rt.occupied_since);
                        self.transition(rt, t, NodeState::Active);
                    } else if rt.expected > 0 {
                        // powered early (barrier lead): await the train
                        self.transition(rt, t, NodeState::Active);
                    } else {
                        // the train came and went while we were waking
                        rt.drain_seq += 1;
                        self.transition(rt, t, NodeState::Drain);
                        queue.push(Event {
                            time: t + self.policy.guard(),
                            node: event.node,
                            kind: EventKind::DrainExpire(rt.drain_seq),
                        });
                    }
                }
            }
            EventKind::TrainEnter => {
                if rt.occupancy == 0 {
                    rt.occupied_since = t.max(Seconds::ZERO).min(self.horizon);
                }
                rt.occupancy += 1;
                match rt.state {
                    NodeState::Drain => {
                        rt.drain_seq += 1;
                        self.transition(rt, t, NodeState::Active);
                    }
                    NodeState::Asleep => {
                        // defensive: a barrier always trips first (lead ≥ 0),
                        // but an unsensed train must still wake the node
                        self.transition(rt, t, NodeState::Waking);
                        rt.wake_seq += 1;
                        queue.push(Event {
                            time: t + self.policy.wake_delay(),
                            node: event.node,
                            kind: EventKind::WakeComplete(rt.wake_seq),
                        });
                    }
                    NodeState::Waking | NodeState::Active => {}
                }
            }
            EventKind::TrainExit => {
                rt.occupancy = rt.occupancy.saturating_sub(1);
                rt.expected = rt.expected.saturating_sub(1);
                if rt.occupancy == 0 {
                    match rt.state {
                        NodeState::Waking => {
                            // the whole pass fell inside the wake transition
                            rt.trace
                                .add_uncovered(t.min(self.horizon) - rt.occupied_since);
                        }
                        NodeState::Active if rt.expected == 0 => {
                            rt.drain_seq += 1;
                            self.transition(rt, t, NodeState::Drain);
                            queue.push(Event {
                                time: t + self.policy.guard(),
                                node: event.node,
                                kind: EventKind::DrainExpire(rt.drain_seq),
                            });
                        }
                        // a tripped train is still approaching: stay powered
                        _ => {}
                    }
                }
            }
            EventKind::DrainExpire(seq) => {
                if rt.state == NodeState::Drain && seq == rt.drain_seq {
                    self.transition(rt, t, NodeState::Asleep);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Bitwise comparison
// ---------------------------------------------------------------------

/// Every number a report exposes, floats as raw bits: horizon, event
/// count, pass count, then per node the kind, section bounds and every
/// trace field.
#[derive(Debug, PartialEq)]
struct Bits {
    horizon: u64,
    events: usize,
    passes: usize,
    nodes: Vec<NodeBits>,
}

#[derive(Debug, PartialEq)]
struct NodeBits {
    kind: NodeKind,
    section: (u64, u64),
    trace: TraceBits,
}

/// A trace's fields as raw bits, in digest order.
#[derive(Debug, PartialEq)]
struct TraceBits {
    asleep: u64,
    waking: u64,
    active: u64,
    drain: u64,
    powered: u64,
    wakes: usize,
    uncovered: u64,
}

fn section_bits(section: TrackSection) -> (u64, u64) {
    (
        section.start().value().to_bits(),
        section.end().value().to_bits(),
    )
}

fn report_bits(report: &SimReport) -> Bits {
    Bits {
        horizon: report.horizon().value().to_bits(),
        events: report.events_processed(),
        passes: report.passes(),
        nodes: report
            .nodes()
            .iter()
            .map(|node| {
                let t = node.trace();
                assert_eq!(t.horizon(), report.horizon());
                NodeBits {
                    kind: node.kind(),
                    section: section_bits(node.section()),
                    trace: TraceBits {
                        asleep: t.asleep().value().to_bits(),
                        waking: t.waking().value().to_bits(),
                        active: t.active().value().to_bits(),
                        drain: t.drain().value().to_bits(),
                        powered: t.powered().value().to_bits(),
                        wakes: t.wakes(),
                        uncovered: t.uncovered().value().to_bits(),
                    },
                }
            })
            .collect(),
    }
}

fn reference_bits(report: &RefReport) -> Bits {
    Bits {
        horizon: report.horizon.value().to_bits(),
        events: report.events,
        passes: report.passes,
        nodes: report
            .nodes
            .iter()
            .map(|&(kind, section, t)| NodeBits {
                kind,
                section: section_bits(section),
                trace: TraceBits {
                    asleep: t.asleep.value().to_bits(),
                    waking: t.waking.value().to_bits(),
                    active: t.active.value().to_bits(),
                    drain: t.drain.value().to_bits(),
                    // `StateTrace::powered`'s sum, in its order
                    powered: (t.waking + t.active + t.drain).value().to_bits(),
                    wakes: t.wakes,
                    uncovered: t.uncovered.value().to_bits(),
                },
            })
            .collect(),
    }
}

fn simulators(policy: WakePolicy, horizon: Seconds) -> (CorridorSimulator, ReferenceSimulator) {
    (
        CorridorSimulator::new()
            .with_policy(policy)
            .with_horizon(horizon),
        ReferenceSimulator::new(policy, horizon),
    )
}

fn assert_single_track_matches(
    policy: WakePolicy,
    horizon: Seconds,
    nodes: &[NodeSpec],
    passes: &[TrainPass],
) {
    let (sim, reference) = simulators(policy, horizon);
    assert_eq!(
        report_bits(&sim.simulate(nodes, passes)),
        reference_bits(&reference.simulate(nodes, passes)),
        "single track under {policy:?}"
    );
}

fn assert_double_track_matches(
    policy: WakePolicy,
    horizon: Seconds,
    nodes: &[NodeSpec],
    up: &[TrainPass],
    down: &[TrainPass],
    length: Meters,
) {
    let (sim, reference) = simulators(policy, horizon);
    assert_eq!(
        report_bits(&sim.simulate_double_track(nodes, up, down, length)),
        reference_bits(&reference.simulate_double_track(nodes, up, down, length)),
        "double track under {policy:?}"
    );
}

// ---------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------

/// Positions on a coarse 50 m grid (so occupancies of different trains
/// collide exactly), plus `-0.0` and arbitrary points.
fn position_strategy() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        Just(-0.0),
        (0.0..=40.0f64).prop_map(|k| k.floor() * 50.0),
        0.0..=2000.0f64,
    ]
}

/// Sections: fresh, zero-length, or a repeat of an earlier one (the
/// caller resolves repeats), encoded as (start, length, repeat-of).
fn node_population() -> impl Strategy<Value = Vec<NodeSpec>> {
    prop::collection::vec(
        (
            position_strategy(),
            prop_oneof![
                Just(0.0),
                Just(0.0),
                (0.0..=10.0f64).prop_map(|k| k.floor() * 50.0),
                0.0..=800.0f64,
            ],
            0u8..=5,
            0usize..64,
        ),
        1..9,
    )
    .prop_map(|raw| {
        let mut nodes: Vec<NodeSpec> = Vec::with_capacity(raw.len());
        for (start, length, kind, repeat) in raw {
            let kind = match kind % 3 {
                0 => NodeKind::HighPowerMast,
                1 => NodeKind::DonorRepeater,
                _ => NodeKind::ServiceRepeater,
            };
            // about half the nodes repeat an earlier node's section bit
            // for bit
            let section = if !nodes.is_empty() && repeat % 2 == 0 {
                nodes[repeat / 2 % nodes.len()].section()
            } else {
                TrackSection::new(Meters::new(start), Meters::new(start + length))
            };
            nodes.push(NodeSpec::new(kind, section));
        }
        nodes
    })
}

/// Mixed trains: paper-like and exact-arithmetic speeds and lengths,
/// including the zero-length train.
fn train_strategy() -> impl Strategy<Value = Train> {
    (
        prop_oneof![
            Just(0.0),
            Just(200.0),
            Just(400.0),
            (0.0..=8.0f64).prop_map(|k| k.floor() * 50.0),
        ],
        prop_oneof![Just(50.0), Just(25.0), Just(55.6), 20.0..=90.0f64,],
    )
        .prop_map(|(length, speed)| Train::new(Meters::new(length), MetersPerSecond::new(speed)))
}

/// Unsorted passes, origins on a coarse grid (exact ties) or anywhere,
/// negative origins and origins near the end of either horizon.
fn passes_strategy() -> impl Strategy<Value = Vec<TrainPass>> {
    prop::collection::vec(
        (
            train_strategy(),
            prop_oneof![
                Just(0.0),
                Just(-0.0),
                (-6.0..=60.0f64).prop_map(|k| k.floor() * 5.0),
                -120.0..=0.0f64,
                (3550.0..=3610.0f64).prop_map(|t| t.floor()),
                (86_350.0..=86_410.0f64).prop_map(|t| t.floor()),
                -100.0..=90_000.0f64,
            ],
        ),
        0..40,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .map(|(train, origin)| TrainPass::new(train, Seconds::new(origin)))
            .collect()
    })
}

/// Lead, wake delay and guard, each zero or not, on a grid that
/// collides with the pass grid or anywhere; wake may exceed lead.
fn policy_strategy() -> impl Strategy<Value = WakePolicy> {
    let duration = || {
        prop_oneof![
            Just(0.0),
            Just(0.0),
            Just(1.0),
            Just(5.0),
            (0.0..=4.0f64).prop_map(|k| k.floor() * 2.5),
            0.0..=12.0f64,
        ]
    };
    (duration(), duration(), duration()).prop_map(|(lead, wake, guard)| {
        WakePolicy::new(Seconds::new(lead), Seconds::new(wake), Seconds::new(guard))
    })
}

fn horizon_strategy() -> impl Strategy<Value = Seconds> {
    prop_oneof![Just(86_400.0), Just(3600.0), 100.0..=4000.0f64].prop_map(Seconds::new)
}

// ---------------------------------------------------------------------
// Simulator-level differential properties
// ---------------------------------------------------------------------

proptest! {
    /// Single track: random populations and pass lists under a random
    /// policy and horizon, plus the fixed policy corners.
    #[test]
    fn single_track_matches_the_reference(
        nodes in node_population(),
        passes in passes_strategy(),
        policy in policy_strategy(),
        horizon in horizon_strategy(),
    ) {
        for policy in [policy, WakePolicy::instant(), WakePolicy::paper_default()] {
            assert_single_track_matches(policy, horizon, &nodes, &passes);
        }
    }

    /// Double track: the same populations with an up and a down pass
    /// list over a corridor enclosing every section.
    #[test]
    fn double_track_matches_the_reference(
        nodes in node_population(),
        passes in (passes_strategy(), passes_strategy()),
        policy in policy_strategy(),
        horizon_and_slack in (horizon_strategy(), prop_oneof![Just(0.0), 0.0..=300.0f64]),
    ) {
        let (up, down) = passes;
        let (horizon, slack) = horizon_and_slack;
        let end = nodes
            .iter()
            .map(|spec| spec.section().end().value())
            .fold(0.0, f64::max);
        let length = Meters::new(end + slack);
        for policy in [policy, WakePolicy::instant(), WakePolicy::paper_default()] {
            assert_double_track_matches(policy, horizon, &nodes, &up, &down, length);
        }
    }

    /// Crowded days: many trains of one kind on a 10 s grid, so a node
    /// carries several overlapping occupancies, stale wake completions
    /// and cancelled drains at once.
    #[test]
    fn crowded_days_match_the_reference(
        nodes in node_population(),
        day in (
            train_strategy(),
            prop::collection::vec((0.0..=30.0f64).prop_map(|k| k.floor() * 10.0), 1..60),
        ),
        policy in policy_strategy(),
    ) {
        let (train, slots) = day;
        let passes: Vec<TrainPass> =
            slots.into_iter().map(|t| TrainPass::new(train, Seconds::new(t))).collect();
        for policy in [policy, WakePolicy::paper_default()] {
            assert_single_track_matches(policy, Seconds::new(200.0), &nodes, &passes);
        }
    }
}

// ---------------------------------------------------------------------
// Fixed populations from the traffic model
// ---------------------------------------------------------------------

/// Every fixed policy corner: each of lead, wake and guard zero or not,
/// with wake > lead in some.
fn policy_corners() -> Vec<WakePolicy> {
    let mut corners = Vec::new();
    for lead in [0.0, 1.0] {
        for wake in [0.0, 0.3, 2.0] {
            for guard in [0.0, 0.5] {
                corners.push(WakePolicy::new(
                    Seconds::new(lead),
                    Seconds::new(wake),
                    Seconds::new(guard),
                ));
            }
        }
    }
    corners
}

#[test]
fn horizon_clipped_passes_match_the_reference() {
    // passes straddling both horizon edges: one still in the section at
    // midnight, one entirely past the day, one entering before t = 0
    // (negative barrier-trip times via the wake lead)
    let train = Train::paper_default();
    let passes: Vec<TrainPass> = [-5.0, 0.0, 10.0, 86_390.0, 86_395.0, 90_000.0]
        .into_iter()
        .map(|t| TrainPass::new(train, Seconds::new(t)))
        .collect();
    let nodes = [
        NodeSpec::new(
            NodeKind::HighPowerMast,
            TrackSection::new(Meters::ZERO, Meters::new(500.0)),
        ),
        NodeSpec::new(
            NodeKind::ServiceRepeater,
            TrackSection::new(Meters::new(400.0), Meters::new(900.0)),
        ),
    ];
    for policy in policy_corners() {
        assert_single_track_matches(policy, Seconds::new(86_400.0), &nodes, &passes);
        assert_double_track_matches(
            policy,
            Seconds::new(86_400.0),
            &nodes,
            &passes,
            &passes,
            Meters::new(900.0),
        );
    }
}

#[test]
fn zero_length_sections_match_the_reference() {
    // a zero-length section still has a positive occupancy (train length
    // over speed), and two nodes at the same point produce full
    // timestamp collisions across all three event kinds
    let train = Train::paper_default();
    let passes: Vec<TrainPass> = (0..20)
        .map(|i| TrainPass::new(train, Seconds::new(f64::from(i) * 450.0)))
        .collect();
    let at = Meters::new(700.0);
    let nodes = [
        NodeSpec::new(NodeKind::ServiceRepeater, TrackSection::new(at, at)),
        NodeSpec::new(NodeKind::ServiceRepeater, TrackSection::new(at, at)),
        NodeSpec::new(NodeKind::HighPowerMast, TrackSection::new(Meters::ZERO, at)),
    ];
    for policy in policy_corners() {
        assert_single_track_matches(policy, Seconds::new(86_400.0), &nodes, &passes);
    }
}

// ---------------------------------------------------------------------
// End-to-end smoke digests pinned from the heap-era implementation
// ---------------------------------------------------------------------

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A digest over every float bit and counter a report exposes (the
/// sections are left out, as when the digests were captured).
fn digest(bits: &Bits) -> u64 {
    let mut s = String::new();
    let _ = write!(s, "{}|{}|{};", bits.horizon, bits.events, bits.passes);
    for node in &bits.nodes {
        let t = &node.trace;
        let _ = write!(
            s,
            "{:?}|{}|{}|{}|{}|{}|{}|{};",
            node.kind, t.asleep, t.waking, t.active, t.drain, t.powered, t.wakes, t.uncovered,
        );
    }
    fnv1a(s.as_bytes())
}

fn report_digest(report: &SimReport) -> u64 {
    digest(&report_bits(report))
}

/// Digests of the smoke simulations captured by running this exact
/// digest on the heap-era implementation. Both the simulator and the
/// reference must reproduce them bit for bit.
const PAPER_DIGEST: u64 = 0x0fd6_5c95_c119_d3d6;
const INSTANT_DIGEST: u64 = 0x9f1c_eaef_313f_5acc;
const POISSON_DIGEST: u64 = 0x75a2_3e4d_9ca9_9319;
const DOUBLE_TRACK_DIGEST: u64 = 0x3431_5226_b94f_8a58;

const DAY: Seconds = Seconds::new(86_400.0);

#[test]
fn simulate_smoke_output_is_byte_identical_to_the_heap_era() {
    let nodes = segment_nodes(10, Meters::new(2650.0), Meters::new(200.0));
    let passes = Timetable::paper_default().passes();
    let poisson_passes =
        PoissonTimetable::paper_rate().sample_passes(&mut rand::rngs::StdRng::seed_from_u64(7));

    for (policy, passes, expected) in [
        (WakePolicy::paper_default(), &passes, PAPER_DIGEST),
        (WakePolicy::instant(), &passes, INSTANT_DIGEST),
        (WakePolicy::paper_default(), &poisson_passes, POISSON_DIGEST),
    ] {
        let (sim, reference) = simulators(policy, DAY);
        assert_eq!(report_digest(&sim.simulate(&nodes, passes)), expected);
        assert_eq!(
            digest(&reference_bits(&reference.simulate(&nodes, passes))),
            expected
        );
    }
}

#[test]
fn double_track_smoke_output_is_byte_identical_to_the_heap_era() {
    let nodes = segment_nodes(10, Meters::new(2650.0), Meters::new(200.0));
    let passes = Timetable::paper_default().passes();
    let length = nodes
        .iter()
        .map(|s| s.section().end())
        .fold(Meters::ZERO, |a, b| if b > a { b } else { a });
    let base = Timetable::paper_default();
    let down = Timetable::new(
        base.trains_per_hour(),
        base.service_window(),
        base.service_start() + Seconds::new(225.0),
        base.train(),
    )
    .passes();
    let (sim, reference) = simulators(WakePolicy::paper_default(), DAY);
    let double = sim.simulate_double_track(&nodes, &passes, &down, length);
    assert_eq!(report_digest(&double), DOUBLE_TRACK_DIGEST);
    let reference = reference.simulate_double_track(&nodes, &passes, &down, length);
    assert_eq!(digest(&reference_bits(&reference)), DOUBLE_TRACK_DIGEST);
}

#[test]
fn replayed_days_are_byte_identical_to_fresh_days() {
    // simulating the same day repeatedly must keep producing the
    // heap-era digest
    let nodes = segment_nodes(10, Meters::new(2650.0), Meters::new(200.0));
    let passes = Timetable::paper_default().passes();
    let sim = CorridorSimulator::new().with_policy(WakePolicy::paper_default());
    for _ in 0..3 {
        let report = sim.simulate(&nodes, &passes);
        assert_eq!(report_digest(&report), PAPER_DIGEST);
    }
    // and a different population in between must leave nothing behind
    let other =
        PoissonTimetable::paper_rate().sample_passes(&mut rand::rngs::StdRng::seed_from_u64(7));
    assert_eq!(report_digest(&sim.simulate(&nodes, &other)), POISSON_DIGEST);
    assert_eq!(report_digest(&sim.simulate(&nodes, &passes)), PAPER_DIGEST);
}

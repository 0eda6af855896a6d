//! The discrete-event corridor simulator.

use corridor_traffic::{TrackSection, TrainPass};
use corridor_units::{Hours, Meters, Seconds};

use crate::{EventKind, NodeReport, NodeSpec, NodeState, SimReport, StateTrace, WakePolicy};

/// A static event of one node (barrier trip, train entry or exit): its
/// exact time plus the folded sort key of that time.
#[derive(Debug, Clone, Copy)]
struct Stamp {
    key: u64,
    time: Seconds,
}

impl Stamp {
    /// Ends every static stream, so each stream always has a head: no
    /// event time folds to `u64::MAX` (that would take a NaN).
    const END: Stamp = Stamp {
        key: u64::MAX,
        time: Seconds::ZERO,
    };

    fn new(time: Seconds) -> Self {
        Stamp {
            key: time_key(time),
            time,
        }
    }
}

/// The sort key of an event time: the float's bits mapped so unsigned
/// order equals float order for non-NaN times. `+ 0.0` folds `-0.0` onto
/// `+0.0`, so keys tie exactly where the float comparison ties.
fn time_key(time: Seconds) -> u64 {
    debug_assert!(!time.value().is_nan(), "event times are never NaN");
    let bits = (time.value() + 0.0).to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

/// The kinds of the barrier, entry and exit streams, in rank order.
const STATIC_KINDS: [EventKind; 3] = [
    EventKind::BarrierTrip,
    EventKind::TrainEnter,
    EventKind::TrainExit,
];

/// A scheduled wake completion or drain expiry.
#[derive(Debug, Clone, Copy)]
struct Timer {
    key: u64,
    time: Seconds,
    kind: EventKind,
}

impl Timer {
    fn order(&self) -> (u64, u8) {
        (self.key, self.kind.rank())
    }
}

/// One node's pending timers, ascending by (time key, kind rank) with
/// ties in scheduling order. A node has a handful pending at most and a
/// new timer usually fires after all of them, so the common insert is an
/// append.
#[derive(Debug, Default)]
struct TimerLane {
    pending: Vec<Timer>,
    /// First pending timer (earlier ones have fired).
    head: usize,
}

impl TimerLane {
    fn schedule(&mut self, time: Seconds, kind: EventKind) {
        let timer = Timer {
            key: time_key(time),
            time,
            kind,
        };
        let order = timer.order();
        match self.pending.last() {
            Some(last) if last.order() > order => {
                let at =
                    self.head + self.pending[self.head..].partition_point(|t| t.order() <= order);
                self.pending.insert(at, timer);
            }
            _ => self.pending.push(timer),
        }
    }

    fn front(&self) -> Option<Timer> {
        self.pending.get(self.head).copied()
    }

    /// Consumes the front timer; empties the lane once the last pending
    /// timer goes, so storage never creeps.
    fn advance(&mut self) {
        self.head += 1;
        if self.head == self.pending.len() {
            self.pending.clear();
            self.head = 0;
        }
    }
}

/// The node loop's buffers, reused by every node of one call.
#[derive(Default)]
struct NodeScratch {
    barriers: Vec<Stamp>,
    enters: Vec<Stamp>,
    exits: Vec<Stamp>,
    timers: TimerLane,
}

/// Per-node runtime state of the event loop.
struct NodeRuntime {
    state: NodeState,
    /// Clock of the last state transition, clamped into the horizon.
    state_since: Seconds,
    /// Trains currently inside the section.
    occupancy: u32,
    /// Barrier trips whose matching exit has not fired yet.
    expected: u32,
    /// Invalidates stale wake completions.
    wake_seq: u64,
    /// Invalidates stale drain expiries.
    drain_seq: u64,
    /// When occupancy last went from zero to positive.
    occupied_since: Seconds,
    trace: StateTrace,
}

impl NodeRuntime {
    fn new(horizon: Seconds) -> Self {
        NodeRuntime {
            state: NodeState::Asleep,
            state_since: Seconds::ZERO,
            occupancy: 0,
            expected: 0,
            wake_seq: 0,
            drain_seq: 0,
            occupied_since: Seconds::ZERO,
            trace: StateTrace::new(horizon),
        }
    }
}

/// Replays a day of train passes through per-node wake state machines.
///
/// Each node watches its [`TrackSection`]; the simulator replays the
/// node's barrier trips, train entries and exits on their own (no node
/// reads or schedules another node's events), runs the asleep → waking →
/// active → drain machine under a [`WakePolicy`], and integrates
/// per-state time into a [`StateTrace`] per node. The energy
/// numbers then come from the same duty-cycle arithmetic as the
/// closed-form model, so with [`WakePolicy::instant`] the two backends
/// agree to float precision on deterministic timetables.
///
/// # Examples
///
/// ```
/// use corridor_events::{segment_nodes, CorridorSimulator};
/// use corridor_traffic::Timetable;
/// use corridor_units::Meters;
///
/// let nodes = segment_nodes(10, Meters::new(2650.0), Meters::new(200.0));
/// let report = CorridorSimulator::new().simulate(&nodes, &Timetable::paper_default().passes());
/// assert_eq!(report.nodes().len(), 13);
/// // the HP mast is powered 9.66 % of the day (the paper's duty factor)
/// let duty = report.nodes()[0].trace().powered().value() / 86_400.0;
/// assert!((duty - 0.0966).abs() < 0.0002);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorridorSimulator {
    policy: WakePolicy,
    horizon: Seconds,
}

impl CorridorSimulator {
    /// A simulator with instant wake transitions over a 24 h horizon.
    pub fn new() -> Self {
        CorridorSimulator {
            policy: WakePolicy::instant(),
            horizon: Hours::DAY.seconds(),
        }
    }

    /// Sets the wake policy.
    #[must_use]
    pub fn with_policy(mut self, policy: WakePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the simulation horizon (energy is integrated over exactly
    /// this window; occupancy outside it is clipped).
    ///
    /// # Panics
    ///
    /// Panics if the horizon is not strictly positive.
    #[must_use]
    pub fn with_horizon(mut self, horizon: Seconds) -> Self {
        assert!(horizon.value() > 0.0, "horizon must be positive");
        self.horizon = horizon;
        self
    }

    /// The wake policy in effect.
    pub fn policy(&self) -> WakePolicy {
        self.policy
    }

    /// The integration horizon.
    pub fn horizon(&self) -> Seconds {
        self.horizon
    }

    /// Simulates single-track traffic: every pass sweeps the corridor in
    /// the positive direction.
    pub fn simulate(&self, nodes: &[NodeSpec], passes: &[TrainPass]) -> SimReport {
        self.run(nodes, passes, None)
    }

    /// Simulates bidirectional double-track traffic over a corridor of
    /// `corridor_length`. Up-direction passes sweep the sections as
    /// given; down-direction passes sweep the mirrored corridor (their
    /// head crosses position `corridor_length` at origin time), which is
    /// equivalent to evaluating the mirrored section `[L−end, L−start]`.
    ///
    /// # Panics
    ///
    /// Panics if a section extends beyond `[0, corridor_length]` (it
    /// could not be mirrored).
    pub fn simulate_double_track(
        &self,
        nodes: &[NodeSpec],
        up: &[TrainPass],
        down: &[TrainPass],
        corridor_length: Meters,
    ) -> SimReport {
        for spec in nodes {
            let s = spec.section();
            assert!(
                s.start().value() >= 0.0 && s.end() <= corridor_length,
                "section {s} extends beyond the corridor"
            );
        }
        self.run(nodes, up, Some((down, corridor_length)))
    }

    /// The core loop: replays each node's day on its own. A node's state
    /// machine only reads and schedules its own events, so its trace
    /// depends on its section, the policy and the horizon alone; nodes
    /// with bit-identical sections (the mast and the donors all watch
    /// `[0, isd]`) are simulated once and share the trace and event
    /// count. `down` carries the double-track passes with the corridor
    /// length their mirrored sections derive from.
    fn run(
        &self,
        nodes: &[NodeSpec],
        up: &[TrainPass],
        down: Option<(&[TrainPass], Meters)>,
    ) -> SimReport {
        let mut scratch = NodeScratch::default();
        // (section bits, trace, events) of every distinct section
        let mut simulated: Vec<((u64, u64), StateTrace, usize)> = Vec::new();
        let mut reports = Vec::with_capacity(nodes.len());
        let mut events = 0;
        for spec in nodes {
            let section = spec.section();
            let bits = (
                section.start().value().to_bits(),
                section.end().value().to_bits(),
            );
            let (trace, handled) = match simulated.iter().find(|(b, ..)| *b == bits) {
                Some(&(_, trace, handled)) => (trace, handled),
                None => {
                    let (trace, handled) = self.simulate_node(&mut scratch, section, up, down);
                    simulated.push((bits, trace, handled));
                    (trace, handled)
                }
            };
            events += handled;
            reports.push(NodeReport::new(spec.kind(), section, trace));
        }
        let passes = up.len() + down.map_or(0, |(down, _)| down.len());
        SimReport::new(reports, self.horizon, events, passes)
    }

    /// One node's day. Its barrier, entry and exit streams are each
    /// stable-sorted by time key (equal times keep push order), then
    /// merged with the node's timer lane in (time, kind rank, push order)
    /// and fed to the state machine. Static kinds (barrier, enter, exit)
    /// and timer kinds (wake, drain) never tie on (time, rank), so this
    /// must equal the order in which one queue keyed (time, rank, node,
    /// insertion) over all nodes pops this node's events — the reference
    /// in `tests/queue_differential.rs`. Returns the closed trace and the
    /// number of events handled.
    fn simulate_node(
        &self,
        scratch: &mut NodeScratch,
        section: TrackSection,
        up: &[TrainPass],
        down: Option<(&[TrainPass], Meters)>,
    ) -> (StateTrace, usize) {
        let NodeScratch {
            barriers,
            enters,
            exits,
            timers,
        } = scratch;
        barriers.clear();
        enters.clear();
        exits.clear();
        let mut stage = |section: TrackSection, passes: &[TrainPass]| {
            for pass in passes {
                let (enter, exit) = section.occupancy(pass);
                // intervals entirely outside the horizon never power the node
                if exit <= Seconds::ZERO || enter >= self.horizon || exit <= enter {
                    continue;
                }
                barriers.push(Stamp::new(enter - self.policy.lead()));
                enters.push(Stamp::new(enter));
                exits.push(Stamp::new(exit));
            }
        };
        stage(section, up);
        if let Some((down, length)) = down {
            // down passes sweep the mirrored section [L−end, L−start]
            stage(
                TrackSection::new(length - section.end(), length - section.start()),
                down,
            );
        }
        for stream in [&mut *barriers, &mut *enters, &mut *exits] {
            // stable and linear on the already-sorted streams of
            // single-train days
            stream.sort_by_key(|stamp| stamp.key);
            stream.push(Stamp::END);
        }

        let streams = [&*barriers, &*enters, &*exits];
        let mut heads = [0; 3];
        let mut rt = NodeRuntime::new(self.horizon);
        let mut handled = 0;
        loop {
            let [b, e, x] = [0, 1, 2].map(|s| streams[s][heads[s]].key);
            // the earliest static head; key ties resolve in rank order
            let src = if b <= e && b <= x {
                0
            } else if e <= x {
                1
            } else {
                2
            };
            let stamp = streams[src][heads[src]];
            let kind = STATIC_KINDS[src];
            let (time, kind) = match timers.front() {
                Some(timer) if timer.order() < (stamp.key, kind.rank()) => {
                    timers.advance();
                    (timer.time, timer.kind)
                }
                // every stream is at its end and the lane is empty again
                _ if stamp.key == u64::MAX => break,
                _ => {
                    heads[src] += 1;
                    (stamp.time, kind)
                }
            };
            handled += 1;
            self.handle(&mut rt, time, kind, timers);
        }

        // close the final state segment at the horizon
        let remaining = self.horizon - rt.state_since;
        rt.trace.add(rt.state, remaining);
        (rt.trace, handled)
    }

    /// Transitions `rt` to `next` at clock `t`, billing the elapsed
    /// segment to the outgoing state.
    fn transition(&self, rt: &mut NodeRuntime, t: Seconds, next: NodeState) {
        let clock = t.max(Seconds::ZERO).min(self.horizon);
        rt.trace.add(rt.state, clock - rt.state_since);
        if rt.state == NodeState::Asleep && next == NodeState::Waking {
            rt.trace.count_wake();
        }
        rt.state = next;
        rt.state_since = clock;
    }

    fn handle(&self, rt: &mut NodeRuntime, t: Seconds, kind: EventKind, timers: &mut TimerLane) {
        match kind {
            EventKind::BarrierTrip => {
                rt.expected += 1;
                match rt.state {
                    NodeState::Asleep => {
                        self.transition(rt, t, NodeState::Waking);
                        rt.wake_seq += 1;
                        timers.schedule(
                            t + self.policy.wake_delay(),
                            EventKind::WakeComplete(rt.wake_seq),
                        );
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
                        timers.schedule(
                            t + self.policy.guard(),
                            EventKind::DrainExpire(rt.drain_seq),
                        );
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
                        timers.schedule(
                            t + self.policy.wake_delay(),
                            EventKind::WakeComplete(rt.wake_seq),
                        );
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
                            timers.schedule(
                                t + self.policy.guard(),
                                EventKind::DrainExpire(rt.drain_seq),
                            );
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

impl Default for CorridorSimulator {
    /// Returns [`CorridorSimulator::new`].
    fn default() -> Self {
        CorridorSimulator::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{segment_nodes, NodeKind};
    use corridor_traffic::{ActivityTimeline, Timetable, Train};

    fn paper_passes() -> Vec<TrainPass> {
        Timetable::paper_default().passes()
    }

    #[test]
    fn instant_policy_reproduces_activity_timeline() {
        let nodes = segment_nodes(10, Meters::new(2650.0), Meters::new(200.0));
        let report = CorridorSimulator::new().simulate(&nodes, &paper_passes());
        for node in report.nodes() {
            let analytic = ActivityTimeline::for_section(&node.section(), &paper_passes())
                .total_active()
                .value();
            let simulated = node.trace().powered().value();
            assert!(
                (simulated - analytic).abs() < 1e-6,
                "{}: {simulated} vs {analytic}",
                node.kind()
            );
            assert_eq!(node.trace().wakes(), 152);
            assert_eq!(node.trace().uncovered(), Seconds::ZERO);
        }
    }

    #[test]
    fn lead_and_guard_extend_powered_time() {
        let nodes = segment_nodes(1, Meters::new(1250.0), Meters::new(200.0));
        let instant = CorridorSimulator::new().simulate(&nodes, &paper_passes());
        let padded = CorridorSimulator::new()
            .with_policy(WakePolicy::new(
                Seconds::new(2.0),
                Seconds::ZERO,
                Seconds::new(3.0),
            ))
            .simulate(&nodes, &paper_passes());
        // 152 passes × (2 s lead + 3 s guard) of extra powered time
        let extra = padded.nodes()[1].trace().powered().value()
            - instant.nodes()[1].trace().powered().value();
        assert!((extra - 152.0 * 5.0).abs() < 1e-6, "extra {extra}");
        assert_eq!(padded.nodes()[1].trace().uncovered(), Seconds::ZERO);
    }

    #[test]
    fn wake_delay_without_lead_leaves_uncovered_time() {
        let nodes = segment_nodes(1, Meters::new(1250.0), Meters::new(200.0));
        let report = CorridorSimulator::new()
            .with_policy(WakePolicy::new(
                Seconds::ZERO,
                Seconds::new(0.3),
                Seconds::ZERO,
            ))
            .simulate(&nodes, &paper_passes());
        let service = &report.nodes()[1];
        // 152 passes × 0.3 s of waking while the train is in the section
        assert!((service.trace().uncovered().value() - 152.0 * 0.3).abs() < 1e-6);
        assert!((service.trace().waking().value() - 152.0 * 0.3).abs() < 1e-6);
    }

    #[test]
    fn overlapping_occupancy_merges_like_the_timeline() {
        // two trains 5 s apart in a section each occupies for ~16.2 s:
        // the node must stay powered across the overlap, not double-bill
        let train = Train::paper_default();
        let passes = vec![
            TrainPass::new(train, Seconds::new(1000.0)),
            TrainPass::new(train, Seconds::new(1005.0)),
        ];
        let nodes = vec![NodeSpec::new(
            NodeKind::HighPowerMast,
            TrackSection::new(Meters::ZERO, Meters::new(500.0)),
        )];
        let report = CorridorSimulator::new().simulate(&nodes, &passes);
        let analytic = ActivityTimeline::for_section(&nodes[0].section(), &passes)
            .total_active()
            .value();
        assert!((report.nodes()[0].trace().powered().value() - analytic).abs() < 1e-9);
        // one merged powered episode, not two
        assert_eq!(report.nodes()[0].trace().wakes(), 1);
    }

    #[test]
    fn occupancy_clipped_to_horizon() {
        let train = Train::paper_default();
        // the pass exits the section after the day ends
        let passes = vec![TrainPass::new(train, Seconds::new(86_395.0))];
        let nodes = vec![NodeSpec::new(
            NodeKind::HighPowerMast,
            TrackSection::new(Meters::ZERO, Meters::new(500.0)),
        )];
        let report = CorridorSimulator::new().simulate(&nodes, &passes);
        let powered = report.nodes()[0].trace().powered().value();
        assert!((powered - 5.0).abs() < 1e-9, "powered {powered}");
        // and one entirely past the horizon contributes nothing
        let late = vec![TrainPass::new(train, Seconds::new(90_000.0))];
        let report = CorridorSimulator::new().simulate(&nodes, &late);
        assert_eq!(report.nodes()[0].trace().powered(), Seconds::ZERO);
        assert_eq!(report.nodes()[0].trace().wakes(), 0);
    }

    #[test]
    fn double_track_doubles_the_load() {
        let nodes = segment_nodes(2, Meters::new(1900.0), Meters::new(200.0));
        let up = paper_passes();
        // offset the down direction by half a headway so no occupancy
        // coincides (same-slot opposing trains would merge, not add)
        let base = Timetable::paper_default();
        let down = Timetable::new(
            base.trains_per_hour(),
            base.service_window(),
            base.service_start() + Seconds::new(225.0),
            base.train(),
        )
        .passes();
        let single = CorridorSimulator::new().simulate(&nodes, &up);
        let double =
            CorridorSimulator::new().simulate_double_track(&nodes, &up, &down, Meters::new(1900.0));
        for (s, d) in single.nodes().iter().zip(double.nodes()) {
            // twice the traffic, twice the powered time (no overlaps)
            let ratio = d.trace().powered().value() / s.trace().powered().value();
            assert!((ratio - 2.0).abs() < 1e-6, "{}: ratio {ratio}", s.kind());
        }
        assert_eq!(double.passes(), 304);
    }

    #[test]
    fn mirrored_sections_shift_entry_times_only() {
        // a single down-direction train: the node near the far end sees
        // it first
        let train = Train::paper_default();
        let down = vec![TrainPass::new(train, Seconds::new(1000.0))];
        let near = NodeSpec::new(
            NodeKind::ServiceRepeater,
            TrackSection::new(Meters::new(100.0), Meters::new(300.0)),
        );
        let far = NodeSpec::new(
            NodeKind::ServiceRepeater,
            TrackSection::new(Meters::new(1700.0), Meters::new(1900.0)),
        );
        let report = CorridorSimulator::new().simulate_double_track(
            &[near, far],
            &[],
            &down,
            Meters::new(2000.0),
        );
        // both nodes see the same occupancy duration
        let near_t = report.nodes()[0].trace().powered().value();
        let far_t = report.nodes()[1].trace().powered().value();
        assert!((near_t - far_t).abs() < 1e-9);
        assert!(near_t > 0.0);
    }

    #[test]
    fn event_count_is_reported() {
        let nodes = segment_nodes(10, Meters::new(2650.0), Meters::new(200.0));
        let report = CorridorSimulator::new().simulate(&nodes, &paper_passes());
        // 13 nodes × 152 passes × 3 static events, plus drains
        assert!(report.events_processed() >= 13 * 152 * 3);
        assert_eq!(report.passes(), 152);
        assert_eq!(report.horizon(), Seconds::new(86_400.0));
    }

    /// Every trace field, floats as raw bits.
    fn trace_bits(trace: &StateTrace) -> [u64; 7] {
        [
            trace.horizon().value().to_bits(),
            trace.asleep().value().to_bits(),
            trace.waking().value().to_bits(),
            trace.active().value().to_bits(),
            trace.drain().value().to_bits(),
            trace.uncovered().value().to_bits(),
            trace.wakes() as u64,
        ]
    }

    #[test]
    fn twin_sections_share_one_simulation() {
        let isd = Meters::new(2650.0);
        let wider = Meters::new(f64::from_bits(isd.value().to_bits() + 1));
        let base = TrackSection::new(Meters::ZERO, isd);
        let nodes = [
            NodeSpec::new(NodeKind::HighPowerMast, base),
            NodeSpec::new(NodeKind::DonorRepeater, base),
            NodeSpec::new(NodeKind::DonorRepeater, base),
            NodeSpec::new(
                NodeKind::ServiceRepeater,
                TrackSection::new(Meters::ZERO, wider),
            ),
        ];
        // a lone pass at t = 0 keeps the one-ulp wider exit visible in
        // the trace (a full day's sums would round it away)
        let passes = [TrainPass::new(Train::paper_default(), Seconds::ZERO)];
        let sim = CorridorSimulator::new().with_policy(WakePolicy::paper_default());
        let report = sim.simulate(&nodes, &passes);
        let alone = |spec: NodeSpec| sim.simulate(&[spec], &passes);
        let (base_alone, wider_alone) = (alone(nodes[0]), alone(nodes[3]));
        let bits = |report: &SimReport, i: usize| trace_bits(report.nodes()[i].trace());

        // the mast and both donors carry the one simulated trace
        for (i, spec) in nodes[..3].iter().enumerate() {
            assert_eq!(bits(&report, i), bits(&base_alone, 0));
            assert_eq!(report.nodes()[i].kind(), spec.kind());
        }
        // the wider section is simulated on its own
        assert_eq!(bits(&report, 3), bits(&wider_alone, 0));
        assert_ne!(bits(&report, 3), bits(&report, 0));
        // and every node's events are counted
        assert_eq!(
            report.events_processed(),
            3 * base_alone.events_processed() + wider_alone.events_processed()
        );
    }

    #[test]
    #[should_panic(expected = "extends beyond the corridor")]
    fn unmirrorable_section_rejected() {
        let nodes = vec![NodeSpec::new(
            NodeKind::HighPowerMast,
            TrackSection::new(Meters::ZERO, Meters::new(500.0)),
        )];
        let _ =
            CorridorSimulator::new().simulate_double_track(&nodes, &[], &[], Meters::new(400.0));
    }

    #[test]
    fn builder_accessors() {
        let sim = CorridorSimulator::new()
            .with_policy(WakePolicy::paper_default())
            .with_horizon(Seconds::new(3600.0));
        assert_eq!(sim.policy(), WakePolicy::paper_default());
        assert_eq!(sim.horizon(), Seconds::new(3600.0));
        assert_eq!(CorridorSimulator::default(), CorridorSimulator::new());
    }
}

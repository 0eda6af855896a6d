//! The event vocabulary of the per-node event loops.
//!
//! The simulator replays each node's day on its own (see
//! [`CorridorSimulator`](crate::CorridorSimulator)); every event it
//! handles is one of these kinds, ordered at equal timestamps by
//! [`EventKind::rank`].

/// What fires (or is scheduled to fire) at a node.
///
/// At equal timestamps events process in a fixed priority order —
/// barrier trips before wake completions before train entries before
/// train exits before drain expiries — so zero-latency policies (an
/// instant wake at the very second a train enters) resolve
/// deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// The photoelectric barrier up-track of the node tripped.
    BarrierTrip,
    /// A wake transition completed (tagged with the wake sequence number
    /// that scheduled it, so stale completions are ignored).
    WakeComplete(u64),
    /// A train head entered the node's coverage section.
    TrainEnter,
    /// A train tail cleared the node's coverage section.
    TrainExit,
    /// The guard interval after the last train expired (tagged with the
    /// drain sequence number that scheduled it).
    DrainExpire(u64),
}

impl EventKind {
    /// Processing priority at equal timestamps (lower first).
    pub(crate) fn rank(self) -> u8 {
        match self {
            EventKind::BarrierTrip => 0,
            EventKind::WakeComplete(_) => 1,
            EventKind::TrainEnter => 2,
            EventKind::TrainExit => 3,
            EventKind::DrainExpire(_) => 4,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_times_follow_kind_priority() {
        let mut kinds = [
            EventKind::DrainExpire(1),
            EventKind::TrainExit,
            EventKind::TrainEnter,
            EventKind::WakeComplete(1),
            EventKind::BarrierTrip,
        ];
        kinds.sort_by_key(|kind| kind.rank());
        assert_eq!(
            kinds,
            [
                EventKind::BarrierTrip,
                EventKind::WakeComplete(1),
                EventKind::TrainEnter,
                EventKind::TrainExit,
                EventKind::DrainExpire(1),
            ]
        );
    }
}

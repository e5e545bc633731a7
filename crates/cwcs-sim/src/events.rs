//! Time-ordered event queue and execution timeline of the event-driven
//! execution engine.
//!
//! The engine models a cluster-wide context switch as a discrete-event
//! simulation: each action contributes a *start* event (fired once all its
//! precedence constraints are satisfied, plus its pipeline offset) and an
//! *end* event (its releases become effective, its dependents may become
//! ready).  Between two consecutive event times the set of in-flight
//! operations — and therefore the per-node interference — is constant, which
//! is what lets the executor charge deceleration per overlapping interval
//! per node instead of over a whole pool window.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use cwcs_model::VjobId;
use cwcs_plan::Action;

/// What an [`Event`] does when it fires.
///
/// Ends order before starts at equal times so that releases become effective
/// before the actions waiting on them are considered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventKind {
    /// The action completes: its releases become effective and its dependents
    /// lose one pending dependency.
    ActionEnd,
    /// The action starts executing on the cluster.
    ActionStart,
}

/// One scheduled event: a kind, the flat index of the action it concerns and
/// the virtual time at which it fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Virtual time of the event, seconds from the start of the switch.
    pub(crate) time_secs: f64,
    /// What fires.
    pub(crate) kind: EventKind,
    /// Flat index of the action (plan order).
    pub(crate) index: usize,
}

impl Eq for Event {}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        self.time_secs
            .total_cmp(&other.time_secs)
            .then_with(|| self.kind.cmp(&other.kind))
            .then_with(|| self.index.cmp(&other.index))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A min-queue of events ordered by time, then kind (ends before starts),
/// then action index — a deterministic total order.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<std::cmp::Reverse<Event>>,
}

impl EventQueue {
    /// An empty queue.
    pub(crate) fn new() -> Self {
        EventQueue::default()
    }

    /// Schedule an event.
    pub(crate) fn push(&mut self, event: Event) {
        self.heap.push(std::cmp::Reverse(event));
    }

    /// Remove and return the earliest event.
    pub(crate) fn pop(&mut self) -> Option<Event> {
        self.heap.pop().map(|std::cmp::Reverse(e)| e)
    }

    /// Number of pending events.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no event is pending.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// Timing of one executed (or failed) action on the timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineEntry {
    /// The action.
    pub action: Action,
    /// Index of the pool the action came from in the original plan.
    pub pool_index: usize,
    /// Start time, seconds from the beginning of the switch.
    pub start_secs: f64,
    /// End time (actual duration for successes, the predicted occupied window
    /// for failures).
    pub end_secs: f64,
    /// True when the driver failed the action.
    pub failed: bool,
}

/// A vjob completion observed at an exact event time.
#[derive(Debug, Clone, PartialEq)]
pub struct VjobCompletion {
    /// The completed vjob.
    pub vjob: VjobId,
    /// Virtual time of the completion, seconds from the start of the switch.
    pub time_secs: f64,
}

/// The full timeline of a context switch: when every action ran, when every
/// vjob completed, and the resulting makespan.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ExecutionTimeline {
    /// Every action, in start order.
    pub entries: Vec<TimelineEntry>,
    /// Vjob completions observed while the switch ran, with exact times.
    pub completions: Vec<VjobCompletion>,
    /// Makespan of the switch (the last action end), seconds.
    pub duration_secs: f64,
}

impl ExecutionTimeline {
    /// Entries belonging to pool `pool_index` of the original plan.
    #[cfg(test)]
    pub(crate) fn pool_entries(&self, pool_index: usize) -> impl Iterator<Item = &TimelineEntry> {
        self.entries
            .iter()
            .filter(move |e| e.pool_index == pool_index)
    }

    /// Largest number of actions in flight at any instant — the parallelism
    /// the engine actually achieved.
    pub fn max_concurrency(&self) -> usize {
        let mut bounds: Vec<(f64, i64)> = Vec::with_capacity(self.entries.len() * 2);
        for entry in &self.entries {
            bounds.push((entry.start_secs, 1));
            bounds.push((entry.end_secs, -1));
        }
        // Ends sort before starts at equal times: back-to-back actions do not
        // count as overlapping.
        bounds.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        let mut current = 0i64;
        let mut best = 0i64;
        for (_, delta) in bounds {
            current += delta;
            best = best.max(current);
        }
        best.max(0) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwcs_model::{CpuCapacity, MemoryMib, NodeId, ResourceDemand, VmId};

    fn run(vm: u32) -> Action {
        Action::Run {
            vm: VmId(vm),
            node: NodeId(0),
            demand: ResourceDemand::new(CpuCapacity::cores(1), MemoryMib::mib(512)),
        }
    }

    #[test]
    fn queue_orders_by_time_then_kind_then_index() {
        let mut queue = EventQueue::new();
        queue.push(Event {
            time_secs: 5.0,
            kind: EventKind::ActionStart,
            index: 1,
        });
        queue.push(Event {
            time_secs: 5.0,
            kind: EventKind::ActionEnd,
            index: 2,
        });
        queue.push(Event {
            time_secs: 1.0,
            kind: EventKind::ActionStart,
            index: 0,
        });
        queue.push(Event {
            time_secs: 5.0,
            kind: EventKind::ActionStart,
            index: 0,
        });
        assert_eq!(queue.len(), 4);
        let order: Vec<(f64, EventKind, usize)> = std::iter::from_fn(|| queue.pop())
            .map(|e| (e.time_secs, e.kind, e.index))
            .collect();
        assert_eq!(
            order,
            vec![
                (1.0, EventKind::ActionStart, 0),
                (5.0, EventKind::ActionEnd, 2),
                (5.0, EventKind::ActionStart, 0),
                (5.0, EventKind::ActionStart, 1),
            ]
        );
        assert!(queue.is_empty());
    }

    #[test]
    fn max_concurrency_counts_overlaps() {
        let entry = |start: f64, end: f64| TimelineEntry {
            action: run(0),
            pool_index: 0,
            start_secs: start,
            end_secs: end,
            failed: false,
        };
        let timeline = ExecutionTimeline {
            entries: vec![entry(0.0, 10.0), entry(2.0, 5.0), entry(5.0, 12.0)],
            completions: Vec::new(),
            duration_secs: 12.0,
        };
        // [2, 5) holds two actions; at t=5 one ends exactly as another starts.
        assert_eq!(timeline.max_concurrency(), 2);
        assert_eq!(timeline.pool_entries(0).count(), 3);
        assert_eq!(ExecutionTimeline::default().max_concurrency(), 0);
    }
}

//! Virtualized jobs (vjobs): groups of VMs scheduled as a unit.
//!
//! Section 2.2 of the paper re-casts the batch-scheduler granularity from the
//! job to the *virtualized job*: a vjob is spread over one or several VMs and
//! follows the life cycle of Figure 2 (Waiting → Running ⇄ Sleeping →
//! Terminated, with Ready = Waiting ∪ Sleeping).  The decision module picks
//! states for whole vjobs; the reconfiguration planner then emits per-VM
//! actions while keeping the VMs of one vjob consistent.

use std::fmt;

use crate::error::ModelError;
use crate::vm::{VmId, VmState};
use crate::Result;

/// Identifier of a vjob, unique across the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VjobId(pub u32);

impl fmt::Display for VjobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vjob-{}", self.0)
    }
}

/// State of a vjob, mirroring the per-VM life cycle of Figure 2.
///
/// The state of a vjob is the common state of all its VMs outside of a
/// cluster-wide context switch; during the switch the VMs may transiently be
/// in different states, which is why the planner groups and pipelines the
/// suspends and resumes of a vjob (Section 4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VjobState {
    /// Submitted, never run yet.
    Waiting,
    /// All VMs running.
    Running,
    /// All VMs suspended to disk.
    Sleeping,
    /// The owner declared the job finished; all VMs are stopped.
    Terminated,
}

impl VjobState {
    /// The per-VM state corresponding to this vjob state.
    pub fn vm_state(self) -> VmState {
        match self {
            VjobState::Waiting => VmState::Waiting,
            VjobState::Running => VmState::Running,
            VjobState::Sleeping => VmState::Sleeping,
            VjobState::Terminated => VmState::Terminated,
        }
    }

    /// True when the life cycle of Figure 2 allows this transition.
    pub fn can_transition_to(self, to: VjobState) -> bool {
        self.vm_state().can_transition_to(to.vm_state())
    }
}

impl fmt::Display for VjobState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            VjobState::Waiting => "waiting",
            VjobState::Running => "running",
            VjobState::Sleeping => "sleeping",
            VjobState::Terminated => "terminated",
        };
        f.write_str(s)
    }
}

/// A virtualized job: an ordered set of VMs scheduled as one unit, with a
/// submission order and a priority used by FCFS-style decision modules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Vjob {
    /// Unique identifier.
    pub id: VjobId,
    /// Human-readable name.
    pub(crate) name: String,
    /// The VMs composing the vjob, in a stable order.
    pub vms: Vec<VmId>,
    /// Submission rank: lower means submitted earlier (FCFS queues order by
    /// this field first).
    pub submission_order: u64,
    /// Priority: higher means more important.  The sample decision module of
    /// the paper orders its queue by descending priority, then submission
    /// order.
    pub priority: u32,
    /// Current state of the vjob.
    pub state: VjobState,
}

impl Vjob {
    /// Build a waiting vjob with default priority 0.
    pub fn new(id: VjobId, vms: Vec<VmId>, submission_order: u64) -> Self {
        Vjob {
            id,
            name: format!("vjob-{}", id.0),
            vms,
            submission_order,
            priority: 0,
            state: VjobState::Waiting,
        }
    }

    /// Replace the generated name with an explicit one.
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Set the priority.
    #[cfg(test)]
    pub(crate) fn with_priority(mut self, priority: u32) -> Self {
        self.priority = priority;
        self
    }

    /// Number of VMs in the vjob.
    pub fn len(&self) -> usize {
        self.vms.len()
    }

    /// True when the vjob has no VM (degenerate, but allowed by builders).
    pub fn is_empty(&self) -> bool {
        self.vms.is_empty()
    }

    /// Apply a life-cycle transition, checking it against Figure 2.
    pub fn transition_to(&mut self, to: VjobState) -> Result<()> {
        if !self.state.can_transition_to(to) {
            return Err(ModelError::IllegalTransition {
                vm: self.vms.first().copied().unwrap_or(VmId(u32::MAX)),
                from: self.state.vm_state(),
                to: to.vm_state(),
            });
        }
        self.state = to;
        Ok(())
    }

    /// Sort key used by FCFS decision modules: descending priority, then
    /// ascending submission order, then id for determinism.
    pub fn queue_key(&self) -> (std::cmp::Reverse<u32>, u64, u32) {
        (
            std::cmp::Reverse(self.priority),
            self.submission_order,
            self.id.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vjob(id: u32, n_vms: usize) -> Vjob {
        let vms = (0..n_vms as u32).map(|i| VmId(id * 100 + i)).collect();
        Vjob::new(VjobId(id), vms, id as u64)
    }

    #[test]
    fn vjob_state_mirrors_vm_state() {
        assert_eq!(VjobState::Waiting.vm_state(), VmState::Waiting);
        assert_eq!(VjobState::Running.vm_state(), VmState::Running);
        assert_eq!(VjobState::Sleeping.vm_state(), VmState::Sleeping);
        assert_eq!(VjobState::Terminated.vm_state(), VmState::Terminated);
    }

    #[test]
    fn full_life_cycle_is_legal() {
        let mut j = vjob(1, 9);
        assert_eq!(j.state, VjobState::Waiting);
        j.transition_to(VjobState::Running).unwrap();
        j.transition_to(VjobState::Sleeping).unwrap();
        j.transition_to(VjobState::Running).unwrap();
        j.transition_to(VjobState::Terminated).unwrap();
        assert_eq!(j.state, VjobState::Terminated);
    }

    #[test]
    fn waiting_cannot_sleep_or_terminate() {
        let mut j = vjob(1, 1);
        assert!(j.transition_to(VjobState::Sleeping).is_err());
        assert!(j.transition_to(VjobState::Terminated).is_err());
        assert_eq!(
            j.state,
            VjobState::Waiting,
            "failed transition must not change state"
        );
    }

    #[test]
    fn terminated_is_final() {
        let mut j = vjob(2, 2);
        j.transition_to(VjobState::Running).unwrap();
        j.transition_to(VjobState::Terminated).unwrap();
        for target in [VjobState::Waiting, VjobState::Running, VjobState::Sleeping] {
            assert!(j.transition_to(target).is_err());
        }
    }

    #[test]
    fn queue_key_orders_by_priority_then_submission() {
        let early_low = vjob(1, 1);
        let late_low = vjob(2, 1);
        let late_high = vjob(3, 1).with_priority(5);
        let mut queue = [late_low.clone(), late_high.clone(), early_low.clone()];
        queue.sort_by_key(|j| j.queue_key());
        let ids: Vec<u32> = queue.iter().map(|j| j.id.0).collect();
        assert_eq!(ids, vec![3, 1, 2]);
    }

    #[test]
    fn vjob_membership() {
        let j = vjob(4, 3);
        assert_eq!(j.len(), 3);
        assert!(!j.is_empty());
    }

    #[test]
    fn transition_error_reports_states() {
        let mut j = vjob(5, 1);
        let err = j.transition_to(VjobState::Terminated).unwrap_err();
        match err {
            ModelError::IllegalTransition { from, to, .. } => {
                assert_eq!(from, VmState::Waiting);
                assert_eq!(to, VmState::Terminated);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }
}

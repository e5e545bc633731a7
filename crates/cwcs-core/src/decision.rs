//! The decision-module abstraction.
//!
//! "The algorithm in the decision module is responsible of computing a new
//! viable configuration which indicates the state of the vjobs for the next
//! iteration." (Section 3.2)  The administrator implements this trait to
//! express a scheduling policy; [`crate::consolidation::FcfsConsolidation`]
//! is the sample policy of the paper.
//!
//! What the rest of the pipeline takes from that configuration is a
//! [`Decision`]: the vjob states and, as the proof that they fit, a host for
//! every VM that must run — not a copy of the cluster.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use cwcs_model::{Configuration, NodeId, Vjob, VjobId, VjobState, VmId};

/// The output of a decision module: the state every vjob should have at the
/// next iteration, plus the placement the module used to prove that those
/// states fit on the cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// State requested for each vjob.
    pub vjob_states: BTreeMap<VjobId, VjobState>,
    /// A host for every VM of every vjob decided [`VjobState::Running`],
    /// viable when each VM weighs its
    /// [`packing_demand`](crate::ffd::packing_demand) (e.g. packed by
    /// First-Fit Decreasing).  The optimizer is free to pick any
    /// *equivalent* placement (same states, possibly different hosts) with a
    /// cheaper reconfiguration plan; when its search and its own repack both
    /// find nothing, it takes these hosts — so a module that leaves a running
    /// VM out gives up that last resort.
    pub proof_placement: BTreeMap<VmId, NodeId>,
}

impl Decision {
    /// True when the decision changes the state of at least one vjob.
    pub fn changes_anything(&self, vjobs: &[Vjob]) -> bool {
        vjobs.iter().any(|j| {
            self.vjob_states
                .get(&j.id)
                .map(|&s| s != j.state)
                .unwrap_or(false)
        })
    }
}

/// Errors raised by decision modules.
#[derive(Debug, Clone, PartialEq)]
pub enum DecisionError {
    /// The module references a vjob unknown to the configuration.
    UnknownVjob(VjobId),
    /// The module could not produce any viable configuration (should not
    /// happen: an empty cluster is always viable).
    NoViableConfiguration,
    /// Free-form failure.
    Other(String),
}

impl fmt::Display for DecisionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecisionError::UnknownVjob(id) => write!(f, "decision references unknown {id}"),
            DecisionError::NoViableConfiguration => {
                write!(
                    f,
                    "decision module could not produce a viable configuration"
                )
            }
            DecisionError::Other(msg) => write!(f, "decision module failed: {msg}"),
        }
    }
}

impl std::error::Error for DecisionError {}

/// A scheduling policy: decide the state of every vjob for the next
/// iteration.
pub trait DecisionModule {
    /// Compute the next states.
    ///
    /// * `current` — the configuration observed by the monitoring service
    ///   (demands refreshed);
    /// * `vjobs` — every vjob known to the system with its current state;
    /// * `completed` — vjobs whose application signalled completion since the
    ///   last iteration; the policy is expected to terminate them.
    fn decide(
        &mut self,
        current: &Configuration,
        vjobs: &[Vjob],
        completed: &BTreeSet<VjobId>,
    ) -> Result<Decision, DecisionError>;

    /// Name used in reports.
    fn name(&self) -> &str {
        "decision-module"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vjob(id: u32, state: VjobState) -> Vjob {
        let mut j = Vjob::new(VjobId(id), vec![VmId(id)], id as u64);
        // Walk the life cycle to reach the requested state.
        match state {
            VjobState::Waiting => {}
            VjobState::Running => j.transition_to(VjobState::Running).unwrap(),
            VjobState::Sleeping => {
                j.transition_to(VjobState::Running).unwrap();
                j.transition_to(VjobState::Sleeping).unwrap();
            }
            VjobState::Terminated => {
                j.transition_to(VjobState::Running).unwrap();
                j.transition_to(VjobState::Terminated).unwrap();
            }
        }
        j
    }

    #[test]
    fn changes_anything_compares_with_current_states() {
        let mut states = BTreeMap::new();
        states.insert(VjobId(0), VjobState::Running);
        states.insert(VjobId(1), VjobState::Sleeping);
        let decision = Decision {
            vjob_states: states,
            proof_placement: BTreeMap::new(),
        };
        let unchanged = vec![vjob(0, VjobState::Running), vjob(1, VjobState::Sleeping)];
        assert!(!decision.changes_anything(&unchanged));
        let changed = vec![vjob(0, VjobState::Running), vjob(1, VjobState::Running)];
        assert!(decision.changes_anything(&changed));
    }

    #[test]
    fn error_messages() {
        assert!(DecisionError::UnknownVjob(VjobId(3))
            .to_string()
            .contains("vjob-3"));
        assert!(DecisionError::NoViableConfiguration
            .to_string()
            .contains("viable"));
        assert!(DecisionError::Other("boom".into())
            .to_string()
            .contains("boom"));
    }
}

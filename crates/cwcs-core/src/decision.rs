//! The decision-module abstraction.
//!
//! "The algorithm in the decision module is responsible of computing a new
//! viable configuration which indicates the state of the vjobs for the next
//! iteration." (Section 3.2)  The administrator implements this trait to
//! express a scheduling policy; [`crate::consolidation::FcfsConsolidation`]
//! is the sample policy of the paper.
//!
//! What the rest of the pipeline takes from that configuration is a
//! [`Decision`]: the vjobs whose state changes — its [`Transition`]s — and,
//! as the proof that the decided states fit, a host for every VM that must
//! run — not a copy of the cluster.
//!
//! One rule reads a decision: **a vjob the decision does not list keeps its
//! state**.  The decided state of a vjob is the `to` of its transition, else
//! its own, so the commit, the overload check and the optimizer's split walk
//! the transitions and never look a vjob up: a quiet tick costs what it
//! changes, not the number of vjobs.  [`Decision::vjob_states`] lists the
//! same transitions by vjob id, each with its `to`; it is kept only for the
//! repo benchmark's adapter, which reads it, and nothing in this crate does.
//! The proof placement is shared, not copied: the sample module hands out
//! the host list it keeps between decides, and patches it again once the
//! decision is dropped.
//!
//! The input side follows the same rule.  The control loop is the only
//! writer of its vjob slice, so it knows which vjobs it changed since the
//! last decide and says so ([`DecisionModule::decide_changed`]): a module
//! that keeps state between decides need not compare every vjob to find
//! them.  The list is a promise about the vjob slice only; what changed in
//! the configuration a module diffs itself.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

use cwcs_model::{Configuration, NodeId, Vjob, VjobId, VjobState, VmId};

/// A vjob whose decided state differs from its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition {
    /// The vjob's position in the `vjobs` slice the decision was made for.
    pub index: usize,
    /// The vjob.
    pub vjob: VjobId,
    /// Its state when the decision was made.
    pub from: VjobState,
    /// The state the decision asks for.
    pub to: VjobState,
}

/// The output of a decision module: the vjobs whose state changes at the
/// next iteration, plus the placement the module used to prove that the
/// decided states fit on the cluster.  A vjob with no transition keeps its
/// state.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// State requested for each vjob the module lists: the sample module
    /// lists exactly its transitions, each with its `to`, so a vjob missing
    /// here keeps its own state.  Kept for the repo benchmark's adapter,
    /// which reads it: the pipeline reads [`Decision::transitions`].
    pub vjob_states: BTreeMap<VjobId, VjobState>,
    /// A host for every VM of every vjob decided [`VjobState::Running`],
    /// viable when each VM weighs its
    /// [`packing_demand`](crate::ffd::packing_demand) (e.g. packed by
    /// First-Fit Decreasing); when a VM is listed twice, its last host
    /// counts.  The optimizer is free to pick any *equivalent* placement
    /// (same states, possibly different hosts) with a cheaper
    /// reconfiguration plan; when its search and its own repack both find
    /// nothing, it takes these hosts — so a module that leaves a running VM
    /// out gives up that last resort.  Shared with the module that packed
    /// it, which keeps the list between decides: holding a decision past
    /// the next decide makes that decide copy the list before patching it.
    pub proof_placement: Arc<Vec<(VmId, NodeId)>>,
    /// The vjobs whose decided state differs from their own, by ascending
    /// index.
    transitions: Vec<Transition>,
}

impl Decision {
    /// A decision for `vjobs`: `vjob_states` the state wanted for each vjob
    /// it lists, `proof_placement` the hosts that prove them.  The
    /// transitions are derived: every vjob of `vjobs` whose listed state
    /// differs from its own.  The vjob ids of `vjobs` must be distinct.
    pub fn new(
        vjobs: &[Vjob],
        vjob_states: BTreeMap<VjobId, VjobState>,
        proof_placement: impl Into<Arc<Vec<(VmId, NodeId)>>>,
    ) -> Self {
        let transitions = vjobs
            .iter()
            .enumerate()
            .filter_map(|(index, vjob)| {
                let to = *vjob_states.get(&vjob.id)?;
                (to != vjob.state).then_some(Transition {
                    index,
                    vjob: vjob.id,
                    from: vjob.state,
                    to,
                })
            })
            .collect();
        Decision {
            vjob_states,
            proof_placement: proof_placement.into(),
            transitions,
        }
    }

    /// A decision whose module computed its transitions itself: they must be
    /// those [`Decision::new`] derives, and [`Decision::vjob_states`] lists
    /// them, O(transitions).
    pub(crate) fn with_transitions(
        proof_placement: Arc<Vec<(VmId, NodeId)>>,
        transitions: Vec<Transition>,
    ) -> Self {
        Decision {
            vjob_states: transitions.iter().map(|t| (t.vjob, t.to)).collect(),
            proof_placement,
            transitions,
        }
    }

    /// The vjobs whose decided state differs from their own, by ascending
    /// index in the `vjobs` slice the decision was made for.
    pub fn transitions(&self) -> &[Transition] {
        &self.transitions
    }

    /// True when the decision changes the state of at least one of `vjobs`
    /// — the slice it was made for, or that slice with some transitions
    /// since committed.  O(transitions).
    pub fn changes_anything(&self, vjobs: &[Vjob]) -> bool {
        let differs = |transition: &Transition| {
            vjobs
                .get(transition.index)
                .is_some_and(|vjob| vjob.state != transition.to)
        };
        self.transitions.iter().any(differs)
    }

    /// The decided states, read vjob by vjob in ascending slice order.
    pub(crate) fn decided_states(&self) -> DecidedStates<'_> {
        DecidedStates {
            pending: &self.transitions,
        }
    }
}

/// The decided state of each vjob — its transition's `to`, else its own
/// state — for vjobs read by ascending index: a merge-walk of the
/// transitions, no lookup.
pub(crate) struct DecidedStates<'a> {
    /// The transitions of the vjobs at or after the last index read.
    pending: &'a [Transition],
}

impl DecidedStates<'_> {
    /// The decided state of `vjob`, at `index` in the decision's slice;
    /// `index` may not be below the one of the previous call.
    pub(crate) fn of(&mut self, index: usize, vjob: &Vjob) -> VjobState {
        while let [first, rest @ ..] = self.pending {
            if first.index >= index {
                break;
            }
            self.pending = rest;
        }
        match self.pending {
            [first, ..] if first.index == index => first.to,
            _ => vjob.state,
        }
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
///
/// A module builds its [`Decision`] with [`Decision::new`] from the `vjobs`
/// slice it was handed, so that each transition's index names the vjob's
/// position in it.  A vjob the decision does not list keeps its state: a
/// running vjob left out stays running where it is.  The sample module
/// lists in [`Decision::vjob_states`] only its transitions, for the repo
/// benchmark's adapter; the pipeline itself reads only the transitions.
/// The control loop calls [`DecisionModule::decide_changed`], which a module
/// that keeps nothing between decides need not implement.
pub trait DecisionModule {
    /// Compute the next states.
    ///
    /// * `current` — the configuration observed by the monitoring service
    ///   (demands refreshed);
    /// * `vjobs` — every vjob known to the system with its current state,
    ///   no two with one id;
    /// * `completed` — vjobs whose application signalled completion since the
    ///   last iteration; the policy is expected to terminate them.
    fn decide(
        &mut self,
        current: &Configuration,
        vjobs: &[Vjob],
        completed: &BTreeSet<VjobId>,
    ) -> Result<Decision, DecisionError>;

    /// [`decide`](DecisionModule::decide), told which vjobs changed since
    /// the module's last decide, so that a module that keeps state between
    /// decides need not compare every vjob to find them.  It must decide
    /// exactly as `decide` does on the same inputs.
    ///
    /// `changed` lists the index of every vjob of `vjobs` whose id,
    /// priority, submission order, state, VM list or completion (whether
    /// `completed` holds it) differs from what the last decide — of either
    /// kind — read at that index.  A vjob appended to the slice since then
    /// need not be listed, and no vjob may leave the slice or move in it.
    /// An index may be listed more than once, in any order, and a vjob that
    /// did not change may be listed.  What changed in the configuration is
    /// not listed: a module diffs that itself.  A module may ignore the
    /// list: the default does, and calls `decide`.  The control loop, the
    /// only writer of its vjob slice, calls this one.
    fn decide_changed(
        &mut self,
        current: &Configuration,
        vjobs: &[Vjob],
        completed: &BTreeSet<VjobId>,
        changed: &[usize],
    ) -> Result<Decision, DecisionError> {
        let _ = changed;
        self.decide(current, vjobs, completed)
    }

    /// Drop whatever the module keeps between decides, so that the next
    /// decide computes from the configuration alone.  The control loop
    /// calls it on a full observation.  A module that keeps nothing has
    /// nothing to drop: the default does nothing.
    fn forget(&mut self) {}

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
        let unchanged = vec![vjob(0, VjobState::Running), vjob(1, VjobState::Sleeping)];
        let changed = vec![vjob(0, VjobState::Running), vjob(1, VjobState::Running)];
        let decision = Decision::new(&changed, states, Vec::new());
        assert!(!decision.changes_anything(&unchanged));
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

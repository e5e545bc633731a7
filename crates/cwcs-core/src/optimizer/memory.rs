//! What an incremental control loop keeps between two solves (see the
//! [module docs](super)): the warm-start state of the search and the version
//! of the view it was last synchronized with.  No model, no demand, no
//! capacity — every solve builds those from the configuration it is handed.

use std::collections::BTreeMap;

use cwcs_model::{Configuration, NodeId, VmId};
use cwcs_sim::monitor::ObservationDelta;

use super::PlanOptimizer;

/// Search state carried from one solve to the next by a warm-started
/// optimizer (see [`PlanOptimizer::with_warm_start`]): the previous
/// iteration's placement seeds the value ordering (each VM first tries the
/// node it was just assigned to), and `next_diversify` continues the Luby
/// restart schedule where the previous solve stopped instead of replaying
/// its prefix.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WarmStart {
    /// Host chosen for each placed VM by the previous solve.
    pub placement: BTreeMap<VmId, NodeId>,
    /// Diversification index the next solve starts from (the previous
    /// solve's [`SearchStats::final_run`](cwcs_solver::search::SearchStats::final_run)
    /// plus one).
    pub next_diversify: u64,
}

/// The persistent solver state of an incremental control loop — the two
/// things that can change what a search does or whether it may run on the
/// loop's view.  [`PlanOptimizer::optimize_incremental`] reads and writes
/// `warm`; [`PlanOptimizer::sync_memory`] stamps `view_version`.  With warm
/// start disabled (the default) `warm` stays `None` and a solve through the
/// memory is the solve [`PlanOptimizer::optimize`] runs on the same inputs.
#[derive(Debug, Clone, Default)]
pub struct SolverMemory {
    /// Version of the [`ClusterView`](cwcs_sim::monitor::ClusterView) this
    /// memory was last synchronized with.
    pub view_version: u64,
    /// Warm-start state of the previous solve (`None` until a warm-started
    /// solve completes).
    pub warm: Option<WarmStart>,
    /// Always 0: no placement model outlives its solve, so none is patched.
    /// Kept for `perf/`, which reads it, until ROADMAP item 1 drops it.
    pub model_patches: u64,
    /// Always 0, kept for `perf/` like [`SolverMemory::model_patches`].
    pub model_set_diff_patches: u64,
    /// Always 0, kept for `perf/` like [`SolverMemory::model_patches`]
    /// (every solve builds its model; nothing counts them).
    pub model_rebuilds: u64,
}

impl SolverMemory {
    /// Fresh, empty solver memory.
    pub fn new() -> Self {
        Self::default()
    }
}

impl PlanOptimizer {
    /// Synchronize the persistent solver state with one observation delta:
    /// a full delta (a resync) drops the warm state, as a resync must; an
    /// incremental one only records the view version.  Nothing is copied
    /// out of `_current`: every solve reads the configuration it is handed.
    pub fn sync_memory(
        &self,
        memory: &mut SolverMemory,
        delta: &ObservationDelta,
        _current: &Configuration,
    ) {
        if delta.full {
            memory.warm = None;
        }
        memory.view_version = delta.version;
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{cluster_with_an_arrival, decide, settled_cluster};
    use super::super::{OptimizerError, OptimizerMode};
    use super::*;
    use cwcs_model::{Vjob, VjobId, VjobState};
    use cwcs_sim::monitor::ClusterView;
    use std::time::Duration;

    fn repair_optimizer(warm_start: bool) -> PlanOptimizer {
        PlanOptimizer::with_timeout(Duration::from_secs(5))
            .with_mode(OptimizerMode::repair())
            .with_warm_start(warm_start)
    }

    fn delta(version: u64, full: bool) -> ObservationDelta {
        ObservationDelta {
            from_version: version - 1,
            version,
            time_secs: 0.0,
            full,
            vms: BTreeMap::new(),
            node_capacities: BTreeMap::new(),
            completed_vjobs: Vec::new(),
        }
    }

    #[test]
    fn warm_start_records_the_placement_and_never_rewinds_the_restart_schedule() {
        let (c, vjobs) = cluster_with_an_arrival();
        let decision = decide(&c, &vjobs);
        let view = ClusterView::new();

        // Off (the default): the memory stays cold.
        let mut memory = SolverMemory::new();
        repair_optimizer(false)
            .optimize_incremental(&mut memory, &view, &c, &decision, &vjobs)
            .unwrap();
        assert_eq!(memory.warm, None);

        // On: every must-run VM is recorded where the target hosts it.
        let optimizer = repair_optimizer(true);
        let outcome = optimizer
            .optimize_incremental(&mut memory, &view, &c, &decision, &vjobs)
            .unwrap();
        let first = memory.warm.clone().expect("a warm-started solve records");
        assert_eq!(first.placement.len(), 10);
        for (&vm, &node) in &first.placement {
            assert_eq!(outcome.target.host(vm).unwrap(), Some(node));
        }
        assert_eq!(first.next_diversify, outcome.stats.final_run + 1);
        let second = optimizer
            .optimize_incremental(&mut memory, &view, &c, &decision, &vjobs)
            .unwrap();
        let next = memory.warm.as_ref().unwrap().next_diversify;
        assert!(next >= first.next_diversify, "the schedule only advances");
        assert!(next > second.stats.final_run);
    }

    #[test]
    fn a_failed_solve_keeps_the_warm_state() {
        // Regression: the warm state used to be taken out of the memory
        // before the solve, so an `Err` left the next tick cold.
        let (c, mut vjobs) = cluster_with_an_arrival();
        let decision = decide(&c, &vjobs);
        let view = ClusterView::new();
        let optimizer = repair_optimizer(true);
        let mut memory = SolverMemory::new();
        optimizer
            .optimize_incremental(&mut memory, &view, &c, &decision, &vjobs)
            .unwrap();
        let warm = memory.warm.clone();
        assert!(warm.is_some());

        // A vjob naming a VM the configuration never heard of.
        vjobs.push(Vjob::new(VjobId(5), vec![VmId(99)], 5));
        let mut decision = decision;
        decision.vjob_states.insert(VjobId(5), VjobState::Running);
        let err = optimizer
            .optimize_incremental(&mut memory, &view, &c, &decision, &vjobs)
            .unwrap_err();
        assert_eq!(err, OptimizerError::UnknownVm(VmId(99)));
        assert_eq!(memory.warm, warm);
    }

    #[test]
    fn a_full_delta_drops_the_warm_state_an_incremental_one_keeps_it() {
        let (c, _) = settled_cluster();
        let optimizer = repair_optimizer(true);
        let warm = WarmStart {
            placement: [(VmId(0), NodeId(0))].into_iter().collect(),
            next_diversify: 3,
        };
        let mut memory = SolverMemory {
            warm: Some(warm.clone()),
            ..Default::default()
        };
        optimizer.sync_memory(&mut memory, &delta(7, false), &c);
        assert_eq!(memory.view_version, 7);
        assert_eq!(memory.warm, Some(warm));
        optimizer.sync_memory(&mut memory, &delta(8, true), &c);
        assert_eq!(memory.view_version, 8);
        assert_eq!(memory.warm, None);
    }
}

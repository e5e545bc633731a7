//! What an incremental control loop keeps between two solves (see the
//! [module docs](super)): the repair split with the configuration it was
//! computed on, its VM → vjob owner table and the room tree its halo is
//! ranked from.  No model is kept — every solve builds its own — and no
//! demand or capacity is trusted unchecked: the kept split is patched from
//! the diff between that configuration and the one the next solve is
//! handed, the owner table naming the vjobs whose VMs the diff lists (see
//! [`repair`](super::repair)).  A full observation drops it, so the next
//! solve computes from nothing.

use cwcs_model::Configuration;
use cwcs_sim::monitor::ObservationDelta;

use super::{KeptSplit, PlanOptimizer};

/// The persistent solver state of an incremental control loop.
/// [`PlanOptimizer::optimize_incremental`] reads and writes the kept split;
/// [`PlanOptimizer::sync_memory`] drops it on a full observation.  A solve
/// through the memory is the solve [`PlanOptimizer::optimize`] runs on the
/// same inputs: the kept repair split only saves the work of computing that
/// solve's split again.
#[derive(Debug, Clone, Default)]
pub struct SolverMemory {
    /// The split of the last repair that succeeded, with the configuration
    /// and the vjobs it was computed from (`None` before, after a solve
    /// that failed and after a full observation).  It is checked against
    /// the configuration each solve is handed, so no observation can make
    /// it stale; a full one drops it all the same, so that the
    /// full-resync reference rebuilds it on every tick.
    pub(super) split: Option<KeptSplit>,
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
    /// a full delta (a resync) drops the kept split, as a resync must; an
    /// incremental one changes nothing.  Nothing is copied out of
    /// `_current`: every solve reads the configuration it is handed.
    pub fn sync_memory(
        &self,
        memory: &mut SolverMemory,
        delta: &ObservationDelta,
        _current: &Configuration,
    ) {
        if delta.full {
            memory.split = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::settled_cluster;
    use super::super::OptimizerMode;
    use super::*;
    use crate::SolverConfig;

    fn delta(full: bool) -> ObservationDelta {
        ObservationDelta {
            version: 7,
            time_secs: 0.0,
            full,
            snapshot: Configuration::new(),
            vms: Vec::new(),
            node_capacities: Vec::new(),
        }
    }

    #[test]
    fn a_full_delta_drops_the_warm_state_an_incremental_one_keeps_it() {
        // The kept split is all the state the memory carries between solves.
        let (c, _) = settled_cluster();
        let optimizer = SolverConfig::default()
            .with_mode(OptimizerMode::repair())
            .build_optimizer();
        let mut memory = SolverMemory {
            split: Some(KeptSplit::default()),
            ..Default::default()
        };
        optimizer.sync_memory(&mut memory, &delta(false), &c);
        assert!(memory.split.is_some());
        // The next solve builds the split from nothing.
        optimizer.sync_memory(&mut memory, &delta(true), &c);
        assert!(memory.split.is_none());
    }
}

//! What an incremental control loop keeps between two solves (see the
//! [module docs](super)): the warm-start state of the search, and the
//! repair split with the configuration it was computed on, its VM → vjob
//! owner table and the room tree its halo is ranked from.  No model is
//! kept — every solve builds its own — and no demand or capacity is
//! trusted unchecked: the kept split is patched from the diff between that
//! configuration and the one the next solve is handed, the owner table
//! naming the vjobs whose VMs the diff lists (see
//! [`repair`](super::repair)).  A full observation drops both, so the next
//! solve computes from nothing.

use std::collections::BTreeMap;

use cwcs_model::{Configuration, NodeId, VmId};
use cwcs_sim::monitor::ObservationDelta;

use super::{KeptSplit, PlanOptimizer};

/// Search state carried from one solve to the next by a warm-started
/// optimizer (see [`SolverConfig::warm_start`](crate::SolverConfig::warm_start)): the previous
/// iteration's placement seeds the value ordering (each VM first tries the
/// node it was just assigned to), and `next_diversify` continues the Luby
/// restart schedule where the previous solve stopped instead of replaying
/// its prefix.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WarmStart {
    /// Host chosen by the previous solve for each VM it **placed**: every VM
    /// that must run in full mode and after a fallback, only the re-placed
    /// (movable) ones in a repair.  A VM the repair pinned is not listed: its
    /// warm host would be the host it runs on, which is the anchor the value
    /// ordering falls back to for a VM the map does not know.
    pub placement: BTreeMap<VmId, NodeId>,
    /// Diversification index the next solve starts from (the previous
    /// solve's [`SearchStats::final_run`](cwcs_solver::search::SearchStats::final_run)
    /// plus one).
    pub next_diversify: u64,
}

/// The persistent solver state of an incremental control loop.
/// [`PlanOptimizer::optimize_incremental`] reads and writes `warm`, what can
/// change what the next search does, and the kept split;
/// [`PlanOptimizer::sync_memory`] drops both on a full observation.  With
/// warm start disabled (the default) `warm` stays `None` and a solve through
/// the memory is the solve [`PlanOptimizer::optimize`] runs on the same
/// inputs: the kept repair split only saves the work of computing that
/// solve's split again.
#[derive(Debug, Clone, Default)]
pub struct SolverMemory {
    /// Warm-start state of the previous solve (`None` until a warm-started
    /// solve completes).
    pub warm: Option<WarmStart>,
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
    /// a full delta (a resync) drops the warm state and the kept split, as a
    /// resync must; an incremental one changes nothing.  Nothing is copied
    /// out of `_current`: every solve reads the configuration it is handed.
    pub fn sync_memory(
        &self,
        memory: &mut SolverMemory,
        delta: &ObservationDelta,
        _current: &Configuration,
    ) {
        if delta.full {
            memory.warm = None;
            memory.split = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{cluster_with_an_arrival, decide, settled_cluster};
    use super::super::{OptimizerError, OptimizerMode};
    use super::*;
    use crate::Decision;
    use crate::SolverConfig;
    use cwcs_model::{
        CpuCapacity, MemoryMib, Node, ResourceDemand, Vjob, VjobId, VjobState, Vm, VmState,
    };
    use cwcs_sim::monitor::{ClusterView, MonitoringService};
    use cwcs_sim::SimulatedCluster;
    use std::time::Duration;

    fn repair_optimizer(warm_start: bool) -> PlanOptimizer {
        SolverConfig::default()
            .with_timeout(Duration::from_secs(5))
            .with_mode(OptimizerMode::repair())
            .with_warm_start(warm_start)
            .build_optimizer()
    }

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

        // On: the two VMs the repair re-placed are recorded where the target
        // hosts them; the eight pinned ones are not (their current host is
        // the anchor the value ordering falls back to anyway).
        let optimizer = repair_optimizer(true);
        let outcome = optimizer
            .optimize_incremental(&mut memory, &view, &c, &decision, &vjobs)
            .unwrap();
        let first = memory.warm.clone().expect("a warm-started solve records");
        let placed: Vec<VmId> = first.placement.keys().copied().collect();
        assert_eq!(placed, [VmId(8), VmId(9)]);
        for (&vm, &node) in &first.placement {
            assert_eq!(outcome.target.host(vm).unwrap(), Some(node));
        }
        assert_eq!(first.next_diversify, outcome.stats.final_run + 1);
        // Full mode places every VM that must run, and records them all.
        let full = SolverConfig::default()
            .with_timeout(Duration::from_secs(5))
            .with_warm_start(true)
            .build_optimizer();
        let mut full_memory = SolverMemory::new();
        let outcome = full
            .optimize_incremental(&mut full_memory, &view, &c, &decision, &vjobs)
            .unwrap();
        let recorded = full_memory.warm.unwrap().placement;
        assert_eq!(recorded.len(), 10);
        for (&vm, &node) in &recorded {
            assert_eq!(outcome.target.host(vm).unwrap(), Some(node));
        }
        let second = optimizer
            .optimize_incremental(&mut memory, &view, &c, &decision, &vjobs)
            .unwrap();
        let next = memory.warm.as_ref().unwrap().next_diversify;
        assert!(next >= first.next_diversify, "the schedule only advances");
        assert!(next > second.stats.final_run);
    }

    #[test]
    fn the_re_placed_only_warm_map_searches_like_the_whole_one() {
        // Two memories through the same ticks: `lean` as the optimizer
        // leaves it (the VMs each solve re-placed), `whole` topped up by
        // hand after every solve with the host of every running VM — the
        // shape `WarmStart::placement` used to have.  A VM only `whole`
        // knows was pinned, so its warm host is the host it runs on: the
        // anchor `lean` falls back to.  Same targets, plans and search trees.
        let optimizer = SolverConfig::default()
            .with_timeout(Duration::from_secs(3_600))
            .with_node_limit(2_000)
            .with_mode(OptimizerMode::repair())
            .with_warm_start(true)
            .build_optimizer();
        let (mut c, mut vjobs) = settled_cluster();
        for i in 4..8 {
            c.add_node(Node::new(
                NodeId(i),
                CpuCapacity::cores(2),
                MemoryMib::gib(4),
            ))
            .unwrap();
        }
        let (mut lean, mut whole) = (SolverMemory::new(), SolverMemory::new());
        // One tick on `c`: solve through both memories, compare, top up
        // `whole`, then let the switch happen — or not, so that the next
        // tick re-places the same VMs.  Returns how many VMs were re-placed.
        let mut tick = |c: &mut Configuration, vjobs: &mut Vec<Vjob>, switch: bool| {
            let mut view = ClusterView::new();
            let mut cluster = SimulatedCluster::new(c.clone());
            view.apply(&MonitoringService::new(0.0).observe(&mut cluster));
            let decision = decide(c, vjobs);
            let a = optimizer
                .optimize_incremental(&mut lean, &view, c, &decision, vjobs)
                .unwrap();
            let b = optimizer
                .optimize_incremental(&mut whole, &view, c, &decision, vjobs)
                .unwrap();
            assert_eq!(a.target, b.target);
            assert_eq!(a.plan, b.plan);
            assert_eq!(a.stats.nodes, b.stats.nodes);
            let warm = whole.warm.as_mut().unwrap();
            for vm in a.target.vms_in_state(VmState::Running) {
                let host = a.target.host(vm).unwrap().unwrap();
                warm.placement.insert(vm, host);
            }
            let movable = a.repair.unwrap().movable_vms;
            if switch {
                *c = a.target;
                for vjob in vjobs.iter_mut() {
                    // Listed, else the vjob keeps its state.
                    let wanted = decision.vjob_states.get(&vjob.id);
                    let wanted = wanted.copied().unwrap_or(vjob.state);
                    if wanted != vjob.state {
                        vjob.transition_to(wanted).unwrap();
                    }
                }
            }
            movable
        };
        let arrive = |c: &mut Configuration, vjobs: &mut Vec<Vjob>| {
            let first = c.vm_count() as u32;
            for vm in first..first + 2 {
                c.add_vm(Vm::new(
                    VmId(vm),
                    MemoryMib::mib(1024),
                    CpuCapacity::cores(1),
                ))
                .unwrap();
            }
            let id = vjobs.len() as u32;
            vjobs.push(Vjob::new(
                VjobId(id),
                vec![VmId(first), VmId(first + 1)],
                id as u64,
            ));
        };
        let cores = |n| ResourceDemand::new(CpuCapacity::cores(n), MemoryMib::gib(4));

        // Arrivals; the second switch does not happen, so the tick after it
        // re-places the same two VMs, this time with a warm host.
        arrive(&mut c, &mut vjobs);
        assert_eq!(tick(&mut c, &mut vjobs, true), 2);
        arrive(&mut c, &mut vjobs);
        assert_eq!(tick(&mut c, &mut vjobs, false), 2);
        assert_eq!(tick(&mut c, &mut vjobs, true), 2);
        // Node 0 shrinks under its two VMs, pinned so far: they turn movable
        // (and once more, the first evacuation not having happened).
        c.set_node_capacity(NodeId(0), cores(1)).unwrap();
        assert_eq!(tick(&mut c, &mut vjobs, false), 2);
        assert_eq!(tick(&mut c, &mut vjobs, true), 2);
        // It comes back as another vjob arrives.
        c.set_node_capacity(NodeId(0), cores(2)).unwrap();
        arrive(&mut c, &mut vjobs);
        assert_eq!(tick(&mut c, &mut vjobs, true), 2);
        // A tick that solves nothing leaves `lean` with no placement at all.
        assert_eq!(tick(&mut c, &mut vjobs, true), 0);
        // The host of a VM re-placed six solves ago shrinks under it.
        let host = c.host(VmId(8)).unwrap().unwrap();
        c.set_node_capacity(host, cores(1)).unwrap();
        assert!(tick(&mut c, &mut vjobs, true) >= 1);
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
        let mut states = decision.vjob_states;
        states.insert(VjobId(5), VjobState::Running);
        let decision = Decision::new(&vjobs, states, decision.proof_placement);
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
            split: Some(KeptSplit::default()),
            ..Default::default()
        };
        optimizer.sync_memory(&mut memory, &delta(false), &c);
        assert_eq!(memory.warm, Some(warm));
        assert!(memory.split.is_some());
        // The kept split goes too: the next solve builds it from nothing.
        optimizer.sync_memory(&mut memory, &delta(true), &c);
        assert_eq!(memory.warm, None);
        assert!(memory.split.is_none());
    }
}

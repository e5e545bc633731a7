//! Repair-based partial reconfiguration (see the [module docs](super)):
//! split the VMs that must run into pinned and movable, rank the candidate
//! destination nodes, solve the sub-problem over a widening candidate set,
//! and graft the sub-solution back onto the untouched configuration.

use std::collections::{BTreeMap, BTreeSet};

use cwcs_model::{
    Configuration, Dimension, NodeId, ResourceDemand, Vjob, VmAssignment, VmId, VmState,
    NUM_RESOURCE_DIMENSIONS,
};
use cwcs_solver::search::RestartPolicy;

use super::memory::WarmStart;
use super::placement::{PlacementProblem, Solved};
use super::{OptimizedOutcome, OptimizerError, Placement, PlanOptimizer};
use crate::decision::Decision;

/// Tuning of [`OptimizerMode::Repair`](super::OptimizerMode::Repair).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepairConfig {
    /// Number of extra candidate destination nodes (beyond the nodes the
    /// movable VMs already involve) admitted into the sub-problem, ranked by
    /// free capacity after pinning.  Doubled on each widening round.
    pub halo: usize,
    /// Luby restart scale of the sub-problem search; `None` disables
    /// restarts.
    pub restart_scale: Option<u64>,
}

impl Default for RepairConfig {
    fn default() -> Self {
        RepairConfig {
            halo: 16,
            restart_scale: Some(256),
        }
    }
}

/// Statistics of one repair-mode optimization.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// VMs re-placed by the sub-problem.
    pub movable_vms: usize,
    /// VMs pinned to their current host.
    pub pinned_vms: usize,
    /// Candidate destination nodes of the (last) sub-problem.
    pub candidate_nodes: usize,
    /// Halo-widening rounds performed (0 when the first candidate set
    /// sufficed).
    pub widenings: u32,
    /// Plan cost of the grafted greedy incumbent, when one existed.
    pub incumbent_cost: Option<u64>,
    /// True when every candidate set failed and the optimizer fell back to
    /// the full First-Fit-Decreasing packing.
    pub fell_back_to_full: bool,
}

/// The VMs that must run, split for a repair.  The three `movable*` vectors
/// run in parallel.
#[derive(Default)]
struct Split {
    /// Running on a healthy node: they stay put.
    pinned: Placement,
    /// Waiting, sleeping, or on an overloaded node (its running VMs are
    /// misplaced by definition): the sub-problem re-places them.
    movable: Vec<VmId>,
    movable_demands: Vec<ResourceDemand>,
    movable_assignments: Vec<VmAssignment>,
    /// Capacity left on every node once the pinned VMs are accounted for.
    /// Not `Configuration::free`: VMs that are movable, or running but not
    /// asked to keep running, are not debited here, so this is at least what
    /// the configuration's ledger says is free and usually more.
    free: BTreeMap<NodeId, ResourceDemand>,
}

impl PlanOptimizer {
    /// Repair-based partial reconfiguration: re-place only the movable VMs
    /// over a reduced candidate node set, seed the search with a
    /// keep-current-host incumbent, and graft the sub-solution back onto
    /// the untouched configuration.
    pub(super) fn optimize_repair(
        &self,
        current: &Configuration,
        decision: &Decision,
        vjobs: &[Vjob],
        config: RepairConfig,
        overloaded: BTreeSet<NodeId>,
        warm: Option<&WarmStart>,
    ) -> Result<OptimizedOutcome, OptimizerError> {
        let must_run = Self::vms_to_run(decision, vjobs);
        if current.node_count() == 0 {
            return Err(OptimizerError::NoViablePlacement);
        }
        let split = self.split(current, &must_run, &overloaded)?;
        let mut repair = RepairStats {
            movable_vms: split.movable.len(),
            pinned_vms: split.pinned.len(),
            ..Default::default()
        };
        let price = |placement: &Placement| self.outcome(current, decision, vjobs, placement);

        // Nothing to re-place: the pinned placement is the whole solution.
        if split.movable.is_empty() {
            let mut outcome = price(&split.pinned)?;
            repair.incumbent_cost = Some(outcome.cost.total);
            outcome.repair = Some(repair);
            return Ok(outcome);
        }

        let (ranked, base) = Self::rank_halo(&split, overloaded);
        let (problem, (solved, stats, portfolio)) =
            self.widen_until_solved(&split, &ranked, base, config, warm, &mut repair);
        let mut outcome = match solved {
            Some(placement) => Self::graft(price, &split.pinned, placement, &problem, &mut repair)?,
            // Even the whole cluster did not help (the decision module
            // proved the states fit, so the fallback normally succeeds).
            None => {
                repair.fell_back_to_full = true;
                price(&Self::fallback_placement(current, decision, &must_run)?)?
            }
        };
        (outcome.stats, outcome.portfolio) = (stats, portfolio);
        outcome.repair = Some(repair);
        Ok(outcome)
    }

    /// Split the VMs that must run into pinned and movable, debiting every
    /// pinned VM from its host on the way.
    fn split(
        &self,
        current: &Configuration,
        must_run: &[VmId],
        overloaded: &BTreeSet<NodeId>,
    ) -> Result<Split, OptimizerError> {
        let mut split = Split {
            free: current.nodes().map(|n| (n.id, n.capacity())).collect(),
            ..Default::default()
        };
        for &vm in must_run {
            let (assignment, demand) = Self::vm_record(current, vm)?;
            match (assignment.state, assignment.host) {
                (VmState::Running, Some(host)) if !overloaded.contains(&host) => {
                    split.pinned.insert(vm, host);
                    let left = split.free.get_mut(&host).expect("pinned host exists");
                    *left = left.saturating_sub(&demand);
                }
                _ => {
                    split.movable.push(vm);
                    split.movable_demands.push(demand);
                    split.movable_assignments.push(assignment);
                }
            }
        }
        Ok(split)
    }

    /// Multi-resource halo ranking: rank the candidate destinations by
    /// their free capacity in the sub-problem's **scarcest** dimension —
    /// the resource whose movable demand eats the largest fraction of what
    /// the cluster has free.  A network-bound sub-problem thus pulls in
    /// NIC-rich nodes first instead of the memory-heavy picks a blended
    /// score would make.
    ///
    /// Returns every node, best candidate first — the anchors (everything
    /// the movable VMs already involve, plus the overloaded nodes
    /// themselves), then the ranked rest — and how many of them it takes to
    /// *hold* the movable VMs at all; the halo proper is slack beyond that.
    fn rank_halo(split: &Split, overloaded: BTreeSet<NodeId>) -> (Vec<NodeId>, usize) {
        let free = &split.free;
        let mut anchors = overloaded;
        for assignment in &split.movable_assignments {
            anchors.extend(assignment.host);
            anchors.extend(assignment.image);
        }

        // The per-dimension pressures `needed[d] / total_free[d]` are
        // compared cross-multiplied to stay in integers; the first
        // dimension wins ties, so a CPU/memory sub-problem ranks exactly as
        // the historical pair-based code did.
        let needed: ResourceDemand = split.movable_demands.iter().copied().sum();
        let mut total_free = [0u64; NUM_RESOURCE_DIMENSIONS];
        for v in free.values() {
            for d in Dimension::ALL {
                total_free[d.index()] += v.get(d);
            }
        }
        let mut scarcest = Dimension::ALL[0];
        for &d in &Dimension::ALL[1..] {
            let challenger =
                (needed.get(d) as u128) * (total_free[scarcest.index()].max(1) as u128);
            let incumbent = (needed.get(scarcest) as u128) * (total_free[d.index()].max(1) as u128);
            if challenger > incumbent {
                scarcest = d;
            }
        }
        // The remaining dimensions and the node id break ties
        // deterministically.
        let mut ranked_rest: Vec<NodeId> = free
            .keys()
            .copied()
            .filter(|n| !anchors.contains(n))
            .collect();
        ranked_rest.sort_by(|a, b| {
            let (fa, fb) = (&free[a], &free[b]);
            fb.get(scarcest)
                .cmp(&fa.get(scarcest))
                .then_with(|| {
                    for d in Dimension::ALL {
                        if d != scarcest {
                            let ordering = fb.get(d).cmp(&fa.get(d));
                            if ordering != std::cmp::Ordering::Equal {
                                return ordering;
                            }
                        }
                    }
                    std::cmp::Ordering::Equal
                })
                .then(a.0.cmp(&b.0))
        });

        // The halo must at least be able to *hold* the movable VMs: extend
        // the ranked list until the cumulative free capacity covers the
        // movable demand on every dimension.
        let mut acc: ResourceDemand = anchors.iter().map(|n| free[n]).sum();
        let mut base = anchors.len();
        let ranked: Vec<NodeId> = anchors.into_iter().chain(ranked_rest).collect();
        while !needed.fits_in(&acc) && base < ranked.len() {
            acc += free[&ranked[base]];
            base += 1;
        }
        (ranked, base)
    }

    /// Solve the sub-problem over the first `base + halo` nodes of `ranked`,
    /// doubling the halo each time that candidate set turns out too small,
    /// until the search finds a placement or the set is the whole cluster.
    /// Returns the last sub-problem with what its solve yielded.
    fn widen_until_solved<'a>(
        &self,
        split: &'a Split,
        ranked: &[NodeId],
        base: usize,
        config: RepairConfig,
        warm: Option<&'a WarmStart>,
        repair: &mut RepairStats,
    ) -> (PlacementProblem<'a>, Solved) {
        let mut halo = config.halo.max(1);
        loop {
            let nodes = ranked.iter().take(base + halo);
            let mut candidates: Vec<_> = nodes.map(|&n| (n, split.free[&n])).collect();
            candidates.sort_unstable_by_key(|&(node, _)| node);
            repair.candidate_nodes = candidates.len();
            let mut problem = PlacementProblem {
                vms: &split.movable,
                demands: &split.movable_demands,
                assignments: &split.movable_assignments,
                candidates,
                incumbent: None,
                restarts: config.restart_scale.map(RestartPolicy::luby),
                warm,
            };
            problem.incumbent = problem.keep_host_incumbent();
            let solved = self.solve_placement(&problem);
            if solved.0.is_some() || problem.candidates.len() >= ranked.len() {
                return (problem, solved);
            }
            repair.widenings += 1;
            halo = halo.saturating_mul(2);
        }
    }

    /// Graft the sub-solution back onto the untouched configuration, with
    /// "no worse than the incumbent" guaranteed on *plan* costs: the search
    /// objective is only an estimate (bypass migrations and suspend
    /// fallbacks can re-price an action), so when an incumbent existed and
    /// priced better once planned (`price`), it is returned instead.
    fn graft(
        price: impl Fn(&Placement) -> Result<OptimizedOutcome, OptimizerError>,
        pinned: &Placement,
        placement: Placement,
        problem: &PlacementProblem,
        repair: &mut RepairStats,
    ) -> Result<OptimizedOutcome, OptimizerError> {
        let incumbent: Option<Placement> = problem.incumbent.as_ref().map(|values| {
            let hosts = values.iter().map(|&v| problem.candidates[v as usize].0);
            problem.vms.iter().copied().zip(hosts).collect()
        });
        let same = incumbent.as_ref() == Some(&placement);
        let mut full = pinned.clone();
        full.extend(placement);
        let mut outcome = price(&full)?;
        match incumbent {
            None => {}
            Some(_) if same => repair.incumbent_cost = Some(outcome.cost.total),
            Some(incumbent) => {
                // It places the same VMs, so it overwrites the sub-solution.
                full.extend(incumbent);
                let incumbent = price(&full)?;
                repair.incumbent_cost = Some(incumbent.cost.total);
                if incumbent.cost.total < outcome.cost.total {
                    outcome = incumbent;
                }
            }
        }
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{cluster_with_an_arrival, decide, settled_cluster};
    use super::super::OptimizerMode;
    use super::*;
    use cwcs_model::{CpuCapacity, MemoryMib, Node, VjobId, VjobState, Vm};
    use std::time::Duration;

    #[test]
    fn repair_pins_well_placed_vms_and_produces_an_empty_plan() {
        let (c, vjobs) = settled_cluster();
        let decision = decide(&c, &vjobs);
        let optimizer =
            PlanOptimizer::with_timeout(Duration::from_secs(5)).with_mode(OptimizerMode::repair());
        let outcome = optimizer.optimize(&c, &decision, &vjobs).unwrap();
        assert_eq!(outcome.cost.total, 0, "nothing should move");
        assert!(outcome.plan.is_empty());
        let repair = outcome.repair.expect("repair stats in repair mode");
        assert_eq!(repair.movable_vms, 0);
        assert_eq!(repair.pinned_vms, 8);
        assert!(!repair.fell_back_to_full);
    }

    #[test]
    fn repair_boots_a_new_vjob_without_touching_the_rest() {
        // A fifth node with room, and a waiting 2-VM vjob.
        let (c, vjobs) = cluster_with_an_arrival();
        let decision = decide(&c, &vjobs);
        assert_eq!(decision.vjob_states[&VjobId(4)], VjobState::Running);

        let optimizer =
            PlanOptimizer::with_timeout(Duration::from_secs(5)).with_mode(OptimizerMode::repair());
        let outcome = optimizer.optimize(&c, &decision, &vjobs).unwrap();
        let repair = outcome.repair.expect("repair stats");
        assert_eq!(repair.movable_vms, 2, "only the new vjob is movable");
        assert_eq!(repair.pinned_vms, 8);
        assert_eq!(outcome.plan.stats().migrations, 0, "no one else moves");
        assert_eq!(outcome.plan.stats().runs, 2);
        assert!(outcome.target.is_viable());
        outcome.plan.validate(&c).unwrap();
    }

    #[test]
    fn repair_prefers_local_resume_like_full_mode() {
        let mut c = Configuration::new();
        for i in 0..3 {
            c.add_node(Node::new(
                NodeId(i),
                CpuCapacity::cores(2),
                MemoryMib::gib(4),
            ))
            .unwrap();
        }
        c.add_vm(Vm::new(
            VmId(0),
            MemoryMib::mib(1024),
            CpuCapacity::cores(1),
        ))
        .unwrap();
        c.set_assignment(VmId(0), VmAssignment::sleeping(NodeId(1)))
            .unwrap();
        let mut vjob = Vjob::new(VjobId(0), vec![VmId(0)], 0);
        vjob.transition_to(VjobState::Running).unwrap();
        vjob.transition_to(VjobState::Sleeping).unwrap();
        let vjobs = vec![vjob];
        let decision = decide(&c, &vjobs);
        let optimizer =
            PlanOptimizer::with_timeout(Duration::from_secs(5)).with_mode(OptimizerMode::repair());
        let outcome = optimizer.optimize(&c, &decision, &vjobs).unwrap();
        assert_eq!(outcome.target.host(VmId(0)).unwrap(), Some(NodeId(1)));
        assert_eq!(outcome.plan.stats().local_resumes, 1);
        assert_eq!(outcome.cost.total, 1024);
    }

    #[test]
    fn repair_evacuates_overloaded_nodes() {
        // Two busy 1-core VMs crammed on a 1-core node, a free node next to
        // it: the overloaded node's VMs are movable and one must migrate.
        let mut c = Configuration::new();
        for i in 0..2 {
            c.add_node(Node::new(
                NodeId(i),
                CpuCapacity::cores(1),
                MemoryMib::gib(4),
            ))
            .unwrap();
        }
        for i in 0..2 {
            c.add_vm(Vm::new(VmId(i), MemoryMib::mib(512), CpuCapacity::cores(1)))
                .unwrap();
            c.set_assignment(VmId(i), VmAssignment::running(NodeId(0)))
                .unwrap();
        }
        assert!(!c.is_viable());
        let mut vjob = Vjob::new(VjobId(0), vec![VmId(0), VmId(1)], 0);
        vjob.transition_to(VjobState::Running).unwrap();
        let vjobs = vec![vjob];
        let decision = decide(&c, &vjobs);
        let optimizer =
            PlanOptimizer::with_timeout(Duration::from_secs(5)).with_mode(OptimizerMode::repair());
        let outcome = optimizer.optimize(&c, &decision, &vjobs).unwrap();
        let repair = outcome.repair.expect("repair stats");
        assert_eq!(repair.movable_vms, 2, "both crammed VMs are movable");
        assert!(outcome.target.is_viable());
        assert_eq!(outcome.plan.stats().migrations, 1);
    }

    #[test]
    fn repair_halo_ranks_by_the_scarce_resource() {
        // A CPU-skewed sub-problem: the movable VM needs 4 cores but almost
        // no memory.  Four memory-rich / CPU-poor nodes surround one
        // CPU-rich node.  The old blended `mem + 10·cpu` ranking pulled the
        // memory-rich nodes into the halo first and had to widen twice
        // before reaching the only node that can host the VM; ranking by the
        // scarcest dimension (CPU here) must find it without any widening.
        let mut c = Configuration::new();
        for i in 0..4 {
            c.add_node(Node::new(
                NodeId(i),
                CpuCapacity::cores(2),
                MemoryMib::gib(64),
            ))
            .unwrap();
        }
        c.add_node(Node::new(
            NodeId(4),
            CpuCapacity::cores(8),
            MemoryMib::gib(2),
        ))
        .unwrap();
        c.add_vm(Vm::new(VmId(0), MemoryMib::mib(512), CpuCapacity::cores(4)))
            .unwrap();
        let vjobs = vec![Vjob::new(VjobId(0), vec![VmId(0)], 0)];
        let decision = decide(&c, &vjobs);
        assert_eq!(decision.vjob_states[&VjobId(0)], VjobState::Running);

        let optimizer = PlanOptimizer::with_timeout(Duration::from_secs(5)).with_mode(
            OptimizerMode::Repair(RepairConfig {
                halo: 1,
                restart_scale: Some(256),
            }),
        );
        let outcome = optimizer.optimize(&c, &decision, &vjobs).unwrap();
        let repair = outcome.repair.expect("repair stats");
        assert_eq!(repair.widenings, 0, "the CPU-rich node must rank first");
        assert!(!repair.fell_back_to_full);
        assert_eq!(outcome.target.host(VmId(0)).unwrap(), Some(NodeId(4)));
        assert!(outcome.target.is_viable());
    }

    #[test]
    fn repair_halo_ranks_by_network_when_net_scarce() {
        // The network mirror of `repair_halo_ranks_by_the_scarce_resource`:
        // a net-skewed sub-problem — the movable VM pushes 800 Mbps but
        // needs almost no CPU or memory.  Four memory-rich nodes with a
        // saturated-looking 100 Mbps of NIC headroom surround one NIC-rich
        // node.  A memory (or blended) ranking pulls the memory-rich nodes
        // into the halo first and has to widen before reaching the only
        // node with bandwidth; ranking by the scarcest dimension (network
        // here) must find it without any widening.
        use cwcs_model::NetBandwidth;
        let mut c = Configuration::new();
        for i in 0..4 {
            c.add_node(
                Node::new(NodeId(i), CpuCapacity::cores(8), MemoryMib::gib(64))
                    .with_net(NetBandwidth::mbps(100)),
            )
            .unwrap();
        }
        c.add_node(
            Node::new(NodeId(4), CpuCapacity::cores(2), MemoryMib::gib(2))
                .with_net(NetBandwidth::gbps(1)),
        )
        .unwrap();
        c.add_vm(
            Vm::new(VmId(0), MemoryMib::mib(512), CpuCapacity::percent(10))
                .with_net(NetBandwidth::mbps(800)),
        )
        .unwrap();
        let vjobs = vec![Vjob::new(VjobId(0), vec![VmId(0)], 0)];
        let decision = decide(&c, &vjobs);
        assert_eq!(decision.vjob_states[&VjobId(0)], VjobState::Running);

        let optimizer = PlanOptimizer::with_timeout(Duration::from_secs(5)).with_mode(
            OptimizerMode::Repair(RepairConfig {
                halo: 1,
                restart_scale: Some(256),
            }),
        );
        let outcome = optimizer.optimize(&c, &decision, &vjobs).unwrap();
        let repair = outcome.repair.expect("repair stats");
        assert_eq!(repair.widenings, 0, "the NIC-rich node must rank first");
        assert!(!repair.fell_back_to_full);
        assert_eq!(outcome.target.host(VmId(0)).unwrap(), Some(NodeId(4)));
        assert!(outcome.target.is_viable());
    }

    #[test]
    fn repair_cost_never_exceeds_the_incumbent() {
        let (c, vjobs) = settled_cluster();
        let decision = decide(&c, &vjobs);
        let optimizer =
            PlanOptimizer::with_timeout(Duration::from_secs(5)).with_mode(OptimizerMode::repair());
        let outcome = optimizer.optimize(&c, &decision, &vjobs).unwrap();
        let repair = outcome.repair.expect("repair stats");
        if let Some(incumbent) = repair.incumbent_cost {
            assert!(outcome.cost.total <= incumbent);
        }
    }

    #[test]
    fn repair_and_full_agree_on_a_small_overload() {
        // The overload scenario of `overload_produces_suspends...`: both
        // modes must produce a viable target implementing the same decision.
        let (c, vjobs) = settled_cluster();
        let decision = decide(&c, &vjobs);
        let full = PlanOptimizer::with_timeout(Duration::from_secs(5));
        let repair =
            PlanOptimizer::with_timeout(Duration::from_secs(5)).with_mode(OptimizerMode::repair());
        let a = full.optimize(&c, &decision, &vjobs).unwrap();
        let b = repair.optimize(&c, &decision, &vjobs).unwrap();
        assert_eq!(a.cost.total, b.cost.total, "both reach the optimum here");
        assert_eq!(a.target, b.target);
    }
}

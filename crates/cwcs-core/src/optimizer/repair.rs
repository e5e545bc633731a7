//! Repair-based partial reconfiguration (see the [module docs](super)):
//! split the VMs that must run into pinned and movable — counting the
//! pinned ones and reading what they weigh off the load ledger — rank the
//! candidate destination nodes, solve the sub-problem over a widening
//! candidate set, and graft the sub-solution back onto the untouched
//! configuration.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

use cwcs_model::{
    Configuration, Dimension, NodeId, ResourceDemand, ResourceUsage, Vjob, VjobState, VmAssignment,
    VmId, NUM_RESOURCE_DIMENSIONS,
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
/// run in parallel, in problem order (vjob order × VM order).  Only the
/// movable VMs have their records fetched; the pinned ones are counted and
/// what they weigh is read off the configuration's load ledger.
#[derive(Default)]
struct Split {
    /// How many run on a healthy node: they stay put.
    pinned: usize,
    /// Waiting, sleeping, or on an overloaded node (its running VMs are
    /// misplaced by definition): the sub-problem re-places them.
    movable: Vec<VmId>,
    movable_demands: Vec<ResourceDemand>,
    movable_assignments: Vec<VmAssignment>,
    /// Indices in `vjobs`, ascending, of the vjobs whose target can differ
    /// from today: every vjob not decided Running, and every one decided
    /// Running that owns a movable VM.  The graft visits these and no other.
    visit: Vec<usize>,
    /// Capacity the sub-problem may fill on every node, in node id order.
    /// An overloaded node offers its whole capacity (none of its VMs is
    /// pinned); a healthy one its capacity less what the ledger says it
    /// carries, once the running VMs of the vjobs *not* decided Running are
    /// given back.  So it is at least `Configuration::free`, and a running
    /// VM that belongs to no vjob is debited like any load the node carries:
    /// nothing boots onto the room it occupies.
    free: Vec<(NodeId, ResourceDemand)>,
}

impl Split {
    /// The room the sub-problem may fill on `node`: a binary search of the
    /// id-ordered table.
    fn room(&self, node: NodeId) -> ResourceDemand {
        let at = self.free.binary_search_by_key(&node, |&(id, _)| id);
        self.free[at.expect("a node of the configuration")].1
    }
}

/// Room in the scarcest dimension first, then in the others in
/// [`Dimension::ALL`] order: the key the halo is ranked by, largest first.
type RoomKey = [u64; NUM_RESOURCE_DIMENSIONS];

/// The candidate destinations, best first, ranked only as far as they are
/// read: `ranked` holds the anchors and the nodes popped so far, `rest` the
/// others as a max-heap — larger room first, then the smaller id.
struct Ranking {
    ranked: Vec<NodeId>,
    rest: BinaryHeap<(RoomKey, Reverse<NodeId>)>,
}

impl Ranking {
    /// The `n` best candidates (all of them when there are fewer), popping
    /// from the heap only what was not ranked yet.
    fn first(&mut self, n: usize) -> &[NodeId] {
        while self.ranked.len() < n {
            match self.rest.pop() {
                Some((_, Reverse(node))) => self.ranked.push(node),
                None => break,
            }
        }
        &self.ranked[..n.min(self.ranked.len())]
    }
}

impl PlanOptimizer {
    /// Repair-based partial reconfiguration: re-place only the movable VMs
    /// over a reduced candidate node set, seed the search with a
    /// keep-current-host incumbent, and graft the sub-solution back onto
    /// the untouched configuration.  Returns the outcome with the placement
    /// of the VMs it re-placed.
    pub(super) fn optimize_repair(
        &self,
        current: &Configuration,
        decision: &Decision,
        vjobs: &[Vjob],
        config: RepairConfig,
        overloaded: BTreeSet<NodeId>,
        warm: Option<&WarmStart>,
    ) -> Result<(OptimizedOutcome, Placement), OptimizerError> {
        if current.node_count() == 0 {
            return Err(OptimizerError::NoViablePlacement);
        }
        let split = Self::split(current, decision, vjobs, &overloaded)?;
        let mut repair = RepairStats {
            movable_vms: split.movable.len(),
            pinned_vms: split.pinned,
            ..Default::default()
        };
        let visit = Some(&split.visit[..]);
        let price =
            |placement: &Placement| self.outcome(current, decision, vjobs, placement, visit);

        // Nothing to re-place: every VM that must run stays where it is.
        if split.movable.is_empty() {
            let mut outcome = price(&Placement::new())?;
            repair.incumbent_cost = Some(outcome.cost.total);
            outcome.repair = Some(repair);
            return Ok((outcome, Placement::new()));
        }

        let (mut ranking, base) = Self::rank_halo(&split, overloaded);
        let (problem, (solved, stats, portfolio)) =
            self.widen_until_solved(&split, &mut ranking, base, config, warm, &mut repair);
        let (mut outcome, placement) = match solved {
            Some(placement) => Self::graft(price, placement, &problem, &mut repair)?,
            // Even the whole cluster did not help (the decision module
            // proved the states fit, so the fallback normally succeeds).
            None => {
                repair.fell_back_to_full = true;
                let must_run = Self::vms_to_run(decision, vjobs);
                let placement = Self::fallback_placement(current, decision, &must_run)?;
                let outcome = self.outcome(current, decision, vjobs, &placement, None)?;
                (outcome, placement)
            }
        };
        (outcome.stats, outcome.portfolio) = (stats, portfolio);
        outcome.repair = Some(repair);
        Ok((outcome, placement))
    }

    /// Split the VMs that must run into pinned and movable, and size the
    /// room the movable ones may fill from the load ledger.  One pass over
    /// the vjobs, merged with the decision's transitions for their decided
    /// states: an assignment lookup per VM, a record only for the movable
    /// ones and for the running VMs the decision stops; then one pass over
    /// the ledger for the room table.
    fn split(
        current: &Configuration,
        decision: &Decision,
        vjobs: &[Vjob],
        overloaded: &BTreeSet<NodeId>,
    ) -> Result<Split, OptimizerError> {
        let mut split = Split::default();
        // Per healthy node, what it carries today and will not tomorrow.
        let mut released: BTreeMap<NodeId, ResourceDemand> = BTreeMap::new();
        let mut decided = decision.decided_states();
        for (index, vjob) in vjobs.iter().enumerate() {
            let runs = decided.of(index, vjob) == VjobState::Running;
            if !runs {
                split.visit.push(index);
            }
            for &vm in &vjob.vms {
                // Only a running VM has a host.
                let host = current.assignment(vm).ok().and_then(|a| a.host);
                let healthy_host = host.filter(|host| !overloaded.contains(host));
                match (runs, healthy_host) {
                    (true, Some(_)) => split.pinned += 1,
                    (true, None) => {
                        let (assignment, demand) = Self::vm_record(current, vm)?;
                        split.movable.push(vm);
                        split.movable_demands.push(demand);
                        split.movable_assignments.push(assignment);
                        if split.visit.last() != Some(&index) {
                            split.visit.push(index);
                        }
                    }
                    (false, Some(host)) => {
                        *released.entry(host).or_default() += Self::vm_record(current, vm)?.1;
                    }
                    (false, None) => {}
                }
            }
        }
        // Sequential saturating debits of the pinned VMs, as one: the ledger
        // sums `Vm::demand`, which is what a running VM packs by.
        let room = |(node, usage): (NodeId, ResourceUsage)| {
            let mut carried = ResourceDemand::ZERO;
            if !overloaded.contains(&node) {
                let released = released.get(&node).copied().unwrap_or_default();
                carried = usage.used.saturating_sub(&released);
            }
            (node, usage.capacity.saturating_sub(&carried))
        };
        // Collected in place: the table reuses the buffer of `usages()`.
        split.free = current.usages().into_iter().map(room).collect();
        Ok(split)
    }

    /// Multi-resource halo ranking: rank the candidate destinations by
    /// their free capacity in the sub-problem's **scarcest** dimension —
    /// the resource whose movable demand eats the largest fraction of what
    /// the cluster has free.  A network-bound sub-problem thus pulls in
    /// NIC-rich nodes first instead of the memory-heavy picks a blended
    /// score would make.
    ///
    /// Returns the ranking of every node — the anchors (everything the
    /// movable VMs already involve, plus the overloaded nodes themselves),
    /// then the rest, larger room first and the smaller id on a tie — and
    /// how many of them it takes to *hold* the movable VMs at all; the halo
    /// proper is slack beyond that.  The rest is heapified, not sorted: only
    /// the nodes read so far are ranked, so a repair that reads
    /// `base + halo` of them costs O(nodes + (base + halo) · log nodes).
    fn rank_halo(split: &Split, overloaded: BTreeSet<NodeId>) -> (Ranking, usize) {
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
        for (_, room) in free {
            for d in Dimension::ALL {
                total_free[d.index()] += room.get(d);
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
        // The remaining dimensions, in `Dimension::ALL` order, and the node
        // id break ties deterministically.
        let key = |room: &ResourceDemand| {
            let mut key: RoomKey = [room.get(scarcest); NUM_RESOURCE_DIMENSIONS];
            let others = Dimension::ALL.into_iter().filter(|&d| d != scarcest);
            for (slot, d) in key[1..].iter_mut().zip(others) {
                *slot = room.get(d);
            }
            key
        };
        let rest: Vec<_> = free
            .iter()
            .filter(|(node, _)| !anchors.contains(node))
            .map(|(node, room)| (key(room), Reverse(*node)))
            .collect();
        let mut ranking = Ranking {
            ranked: anchors.iter().copied().collect(),
            rest: BinaryHeap::from(rest),
        };

        // The halo must at least be able to *hold* the movable VMs: extend
        // the ranked list until the cumulative free capacity covers the
        // movable demand on every dimension.
        let mut acc: ResourceDemand = anchors.iter().map(|&n| split.room(n)).sum();
        let mut base = anchors.len();
        while !needed.fits_in(&acc) {
            let Some(&node) = ranking.first(base + 1).get(base) else {
                break;
            };
            acc += split.room(node);
            base += 1;
        }
        (ranking, base)
    }

    /// Solve the sub-problem over the first `base + halo` nodes of the
    /// ranking, doubling the halo each time that candidate set turns out too
    /// small, until the search finds a placement or the set is the whole
    /// cluster.  Returns the last sub-problem with what its solve yielded.
    fn widen_until_solved<'a>(
        &self,
        split: &'a Split,
        ranking: &mut Ranking,
        base: usize,
        config: RepairConfig,
        warm: Option<&'a WarmStart>,
        repair: &mut RepairStats,
    ) -> (PlacementProblem<'a>, Solved) {
        let mut halo = config.halo.max(1);
        loop {
            let nodes = ranking.first(base.saturating_add(halo));
            let mut candidates: Vec<_> = nodes.iter().map(|&n| (n, split.room(n))).collect();
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
            if solved.0.is_some() || problem.candidates.len() >= split.free.len() {
                return (problem, solved);
            }
            repair.widenings += 1;
            halo = halo.saturating_mul(2);
        }
    }

    /// Price the sub-solution — the target is the untouched configuration
    /// with only the movable VMs re-placed — with "no worse than the
    /// incumbent" guaranteed on *plan* costs: the search objective is only
    /// an estimate (bypass migrations and suspend fallbacks can re-price an
    /// action), so when an incumbent existed and priced better once planned
    /// (`price`), it is returned instead.  Returns the outcome with the
    /// sub-placement it was priced from.
    fn graft(
        price: impl Fn(&Placement) -> Result<OptimizedOutcome, OptimizerError>,
        mut placement: Placement,
        problem: &PlacementProblem,
        repair: &mut RepairStats,
    ) -> Result<(OptimizedOutcome, Placement), OptimizerError> {
        let incumbent: Option<Placement> = problem.incumbent.as_ref().map(|values| {
            let hosts = values.iter().map(|&v| problem.candidates[v as usize].0);
            problem.vms.iter().copied().zip(hosts).collect()
        });
        let mut outcome = price(&placement)?;
        match incumbent {
            None => {}
            Some(incumbent) if incumbent == placement => {
                repair.incumbent_cost = Some(outcome.cost.total)
            }
            Some(incumbent) => {
                let priced = price(&incumbent)?;
                repair.incumbent_cost = Some(priced.cost.total);
                if priced.cost.total < outcome.cost.total {
                    (outcome, placement) = (priced, incumbent);
                }
            }
        }
        Ok((outcome, placement))
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{
        cluster_with_an_arrival, decide, five_second_optimizer, settled_cluster,
    };
    use super::super::OptimizerMode;
    use super::*;
    use cwcs_model::{CpuCapacity, MemoryMib, NetBandwidth, Node, SmallRng, VjobId, Vm, VmState};

    #[test]
    fn repair_pins_well_placed_vms_and_produces_an_empty_plan() {
        let (c, vjobs) = settled_cluster();
        let decision = decide(&c, &vjobs);
        let optimizer = five_second_optimizer(OptimizerMode::repair());
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

        let optimizer = five_second_optimizer(OptimizerMode::repair());
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
        let optimizer = five_second_optimizer(OptimizerMode::repair());
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
        let optimizer = five_second_optimizer(OptimizerMode::repair());
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

        let optimizer = five_second_optimizer(OptimizerMode::Repair(RepairConfig {
            halo: 1,
            restart_scale: Some(256),
        }));
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

        let optimizer = five_second_optimizer(OptimizerMode::Repair(RepairConfig {
            halo: 1,
            restart_scale: Some(256),
        }));
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
        let optimizer = five_second_optimizer(OptimizerMode::repair());
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
        let full = five_second_optimizer(OptimizerMode::Full);
        let repair = five_second_optimizer(OptimizerMode::repair());
        let a = full.optimize(&c, &decision, &vjobs).unwrap();
        let b = repair.optimize(&c, &decision, &vjobs).unwrap();
        assert_eq!(a.cost.total, b.cost.total, "both reach the optimum here");
        assert_eq!(a.target, b.target);
    }

    #[test]
    fn an_unowned_running_vm_keeps_the_room_it_occupies() {
        // Regression: a running VM that belongs to no vjob was never debited
        // by the split (only must-run VMs were), so the 2 GiB boot below was
        // sent to node 0, onto the 3 GiB the unowned VM occupies, and the
        // planner gave up (`UnresolvableDependency`), aborting the loop.
        let mut c = Configuration::new();
        for i in 0..2 {
            c.add_node(Node::new(
                NodeId(i),
                CpuCapacity::cores(4),
                MemoryMib::gib(4),
            ))
            .unwrap();
        }
        c.add_vm(Vm::new(VmId(0), MemoryMib::gib(3), CpuCapacity::cores(1)))
            .unwrap();
        c.set_assignment(VmId(0), VmAssignment::running(NodeId(0)))
            .unwrap();
        c.add_vm(Vm::new(VmId(1), MemoryMib::gib(2), CpuCapacity::cores(1)))
            .unwrap();
        let vjobs = vec![Vjob::new(VjobId(0), vec![VmId(1)], 0)];
        let decision = Decision::new(
            &vjobs,
            [(VjobId(0), VjobState::Running)].into_iter().collect(),
            vec![(VmId(1), NodeId(1))],
        );
        let optimizer = five_second_optimizer(OptimizerMode::repair());
        let outcome = optimizer.optimize(&c, &decision, &vjobs).unwrap();
        assert_eq!(outcome.target.host(VmId(1)).unwrap(), Some(NodeId(1)));
        assert_eq!(outcome.target.host(VmId(0)).unwrap(), Some(NodeId(0)));
        assert!(outcome.target.is_viable());
        outcome.plan.validate(&c).unwrap();
    }

    /// The split this module had before it read the ledger, kept as the
    /// oracle: every must-run VM's record fetched, every pinned VM debited
    /// from its host one by one.  Returns the pinned placement it built
    /// beside the split (whose `visit` it leaves empty).
    fn per_vm_debit_split(
        current: &Configuration,
        must_run: &[VmId],
        overloaded: &BTreeSet<NodeId>,
    ) -> (Placement, Split) {
        let mut pinned = Placement::new();
        let mut split = Split {
            free: current.nodes().map(|n| (n.id, n.capacity())).collect(),
            ..Default::default()
        };
        for &vm in must_run {
            let (assignment, demand) = PlanOptimizer::vm_record(current, vm).unwrap();
            match (assignment.state, assignment.host) {
                (VmState::Running, Some(host)) if !overloaded.contains(&host) => {
                    pinned.insert(vm, host);
                    let at = split.free.binary_search_by_key(&host, |&(id, _)| id);
                    let left = &mut split.free[at.expect("pinned host exists")].1;
                    *left = left.saturating_sub(&demand);
                }
                _ => {
                    split.movable.push(vm);
                    split.movable_demands.push(demand);
                    split.movable_assignments.push(assignment);
                }
            }
        }
        split.pinned = pinned.len();
        (pinned, split)
    }

    /// A random cluster with no regard for viability: 2–6 uneven nodes, 1–8
    /// vjobs of 1–4 VMs (waiting, sleeping, or running wherever the dice
    /// fall, some with a NIC demand), each decided any of the four states —
    /// or absent from the decision: a waiting vjob, or a terminated one
    /// whose VMs all still run.
    fn random_case(rng: &mut SmallRng) -> (Configuration, Vec<Vjob>, Decision) {
        let mut c = Configuration::new();
        let nodes = rng.u64_in(2, 6) as u32;
        for i in 0..nodes {
            let node = Node::new(
                NodeId(i),
                CpuCapacity::cores(rng.u32_in_inclusive(1, 4)),
                MemoryMib::gib(rng.u64_in(2, 6)),
            );
            c.add_node(node.with_net(NetBandwidth::mbps(rng.u64_in(0, 2) * 500)))
                .unwrap();
        }
        let any_node = |rng: &mut SmallRng| NodeId(rng.index(nodes as usize) as u32);
        let states = [
            VjobState::Waiting,
            VjobState::Running,
            VjobState::Sleeping,
            VjobState::Terminated,
        ];
        let (mut vjobs, mut decided, mut next_vm) = (Vec::new(), BTreeMap::new(), 0);
        for j in 0..rng.u64_in(1, 8) as u32 {
            // The vjob's own state when the decision leaves it out.
            let absent = match rng.index(6) {
                0 => Some(VjobState::Waiting),
                1 => Some(VjobState::Terminated),
                _ => None,
            };
            let terminated = absent == Some(VjobState::Terminated);
            let mut vms = Vec::new();
            for _ in 0..rng.u64_in(1, 4) {
                let vm = VmId(next_vm);
                next_vm += 1;
                let record = Vm::new(
                    vm,
                    MemoryMib::mib(256 * rng.u64_in(1, 8)),
                    CpuCapacity::percent(rng.u32_in_inclusive(0, 100)),
                );
                c.add_vm(record.with_net(NetBandwidth::mbps(rng.u64_in(0, 3) * 100)))
                    .unwrap();
                let assignment = match rng.index(4) {
                    _ if terminated => VmAssignment::running(any_node(rng)),
                    0 => VmAssignment::waiting(),
                    1 => VmAssignment::sleeping(any_node(rng)),
                    _ => VmAssignment::running(any_node(rng)),
                };
                c.set_assignment(vm, assignment).unwrap();
                vms.push(vm);
            }
            let mut vjob = Vjob::new(VjobId(j), vms, j as u64);
            if terminated {
                vjob.transition_to(VjobState::Running).unwrap();
                vjob.transition_to(VjobState::Terminated).unwrap();
            } else if absent.is_none() {
                // As likely to be decided Running as anything else.
                let state = match rng.bool_with(0.5) {
                    true => VjobState::Running,
                    false => states[rng.index(states.len())],
                };
                decided.insert(VjobId(j), state);
            }
            vjobs.push(vjob);
        }
        let decision = Decision::new(&vjobs, decided, Vec::new());
        (c, vjobs, decision)
    }

    #[test]
    fn the_ledger_split_equals_the_per_vm_debit_split() {
        let mut rng = SmallRng::seed_from_u64(0x5eed_2417);
        let (mut with_movable, mut with_released, mut saturated) = (0, 0, 0);
        let (mut with_undecided, mut with_terminated, mut skipped) = (0, 0, 0);
        for case in 0..400 {
            let (mut c, vjobs, decision) = random_case(&mut rng);
            // The overload set is the *view's*: usually the ledger's own,
            // sometimes lagging it — a node shrunk since below what it
            // carries that the view still calls healthy, or a healthy node
            // the view calls overloaded.
            let violations = c.viability_violations();
            let mut overloaded: BTreeSet<NodeId> = violations.iter().map(|&(n, _)| n).collect();
            let node = NodeId(rng.index(c.node_count()) as u32);
            match rng.index(4) {
                0 => {
                    let shrunk = ResourceDemand::new(CpuCapacity::percent(50), MemoryMib::mib(512));
                    c.set_node_capacity(node, shrunk).unwrap();
                }
                1 => {
                    overloaded.insert(node);
                }
                _ => {}
            }

            let must_run = PlanOptimizer::vms_to_run(&decision, &vjobs);
            let (pinned, oracle) = per_vm_debit_split(&c, &must_run, &overloaded);
            let split = PlanOptimizer::split(&c, &decision, &vjobs, &overloaded).unwrap();
            assert_eq!(split.movable, oracle.movable, "case {case}");
            assert_eq!(split.movable_demands, oracle.movable_demands, "case {case}");
            assert_eq!(
                split.movable_assignments, oracle.movable_assignments,
                "case {case}"
            );
            assert_eq!(split.pinned, oracle.pinned, "case {case}");
            assert_eq!(split.free, oracle.free, "case {case}");
            let movable = &split.movable;

            // The graft visits every vjob but those decided Running that
            // own no movable VM.
            let runs =
                |vjob: &Vjob| decision.vjob_states.get(&vjob.id) == Some(&VjobState::Running);
            let owns_movable = |vjob: &Vjob| vjob.vms.iter().any(|vm| movable.contains(vm));
            let visit: Vec<usize> = (0..vjobs.len())
                .filter(|&i| !runs(&vjobs[i]) || owns_movable(&vjobs[i]))
                .collect();
            assert_eq!(split.visit, visit, "case {case}");

            // The target of the sub-placement (per-VM work for the visited
            // vjobs only) is the target of the whole pinned ∪ sub-placement
            // map.
            let hosts = movable
                .iter()
                .map(|&vm| (vm, NodeId(rng.index(c.node_count()) as u32)));
            let sub: Placement = hosts.collect();
            let mut whole = pinned.clone();
            whole.extend(sub.clone());
            assert_eq!(
                PlanOptimizer::build_target(&c, &decision, &vjobs, &sub, Some(&split.visit)),
                PlanOptimizer::build_target(&c, &decision, &vjobs, &whole, None),
                "case {case}"
            );

            with_movable += usize::from(!movable.is_empty() && !pinned.is_empty());
            let still_runs = |vm: &VmId| c.state(*vm).unwrap() == VmState::Running;
            with_released += usize::from(
                vjobs
                    .iter()
                    .filter(|vjob| !runs(vjob))
                    .any(|vjob| vjob.vms.iter().any(still_runs)),
            );
            saturated += usize::from(c.nodes().any(|n| {
                !overloaded.contains(&n.id) && !c.usage(n.id).unwrap().is_within_capacity()
            }));
            let mut undecided = vjobs
                .iter()
                .filter(|vjob| !decision.vjob_states.contains_key(&vjob.id));
            with_undecided += usize::from(undecided.clone().next().is_some());
            with_terminated +=
                usize::from(undecided.any(|vjob| vjob.state == VjobState::Terminated));
            skipped += usize::from(visit.len() < vjobs.len());
        }
        // The generator reaches the regimes the equality is about.
        assert!(with_movable > 100, "{with_movable}");
        assert!(with_released > 100, "{with_released}");
        assert!(saturated > 20, "{saturated}");
        assert!(with_undecided > 100, "{with_undecided}");
        assert!(with_terminated > 50, "{with_terminated}");
        assert!(skipped > 20, "{skipped}");
    }

    /// The halo ranking this module had before it ranked lazily, kept as
    /// the oracle: every node that is not an anchor sorted by one
    /// comparator.  Returns the whole ranking, how many of its nodes it
    /// takes to hold the movable VMs, and the scarcest dimension.
    fn rank_by_full_sort(
        split: &Split,
        overloaded: &BTreeSet<NodeId>,
    ) -> (Vec<NodeId>, usize, Dimension) {
        let free: BTreeMap<NodeId, ResourceDemand> = split.free.iter().copied().collect();
        let mut anchors = overloaded.clone();
        for assignment in &split.movable_assignments {
            anchors.extend(assignment.host);
            anchors.extend(assignment.image);
        }
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
        let mut acc: ResourceDemand = anchors.iter().map(|n| free[n]).sum();
        let mut base = anchors.len();
        let ranked: Vec<NodeId> = anchors.into_iter().chain(ranked_rest).collect();
        while !needed.fits_in(&acc) && base < ranked.len() {
            acc += free[&ranked[base]];
            base += 1;
        }
        (ranked, base, scarcest)
    }

    #[test]
    fn the_lazy_ranking_equals_the_full_sort() {
        let mut rng = SmallRng::seed_from_u64(0x4a2e_1a7e);
        let mut scarcest_seen = [0; NUM_RESOURCE_DIMENSIONS];
        let mut tied = 0;
        for case in 0..400 {
            // 2–60 nodes with gaps between their ids, rooms drawn from a
            // few values (so ties are common), a NIC on about a third.
            let (mut free, mut id) = (Vec::new(), 0);
            for _ in 0..rng.u64_in(2, 61) {
                id += rng.u64_in(1, 3) as u32;
                let room = ResourceDemand::new(
                    CpuCapacity::percent(100 * rng.u32_in_inclusive(0, 3)),
                    MemoryMib::mib(1024 * rng.u64_in(0, 4)),
                );
                let nic = rng.bool_with(0.35) as u64 * 500 * rng.u64_in(1, 3);
                free.push((NodeId(id), room.with_net(NetBandwidth::mbps(nic))));
            }
            let any_node = |rng: &mut SmallRng| free[rng.index(free.len())].0;
            let mut split = Split::default();
            for _ in 0..rng.u64_in(1, 5) {
                let demand = ResourceDemand::new(
                    CpuCapacity::percent(rng.u32_in_inclusive(0, 400)),
                    MemoryMib::mib(256 * rng.u64_in(0, 16)),
                );
                let net = NetBandwidth::mbps(100 * rng.u64_in(0, 10));
                split.movable_demands.push(demand.with_net(net));
                split.movable_assignments.push(match rng.index(3) {
                    0 => VmAssignment::waiting(),
                    1 => VmAssignment::sleeping(any_node(&mut rng)),
                    _ => VmAssignment::running(any_node(&mut rng)),
                });
            }
            let overloaded: BTreeSet<NodeId> = free
                .iter()
                .map(|&(node, _)| node)
                .filter(|_| rng.bool_with(0.05))
                .collect();
            split.free = free;

            let (oracle, oracle_base, scarcest) = rank_by_full_sort(&split, &overloaded);
            let (mut ranking, base) = PlanOptimizer::rank_halo(&split, overloaded);
            assert_eq!(base, oracle_base, "case {case}");
            for n in 0..=oracle.len() + 1 {
                let prefix = &oracle[..n.min(oracle.len())];
                assert_eq!(ranking.first(n), prefix, "case {case}, first({n})");
            }

            scarcest_seen[scarcest.index()] += 1;
            let rooms: BTreeSet<_> = split.free.iter().map(|(_, room)| room.dims()).collect();
            tied += usize::from(rooms.len() < split.free.len());
        }
        // Every dimension leads the ranking somewhere, and equal rooms,
        // which only the id orders, are the rule.
        assert!(scarcest_seen.iter().all(|&n| n > 20), "{scarcest_seen:?}");
        assert!(tied > 300, "{tied}");
    }

    #[test]
    fn a_quiet_repair_ranks_and_visits_only_what_it_changes() {
        // 2 000 settled nodes, each running a 1-VM vjob and with a core
        // left, and one arriving 2-VM vjob.
        let mut c = Configuration::new();
        let mut vjobs = Vec::new();
        let vm = |id| Vm::new(VmId(id), MemoryMib::gib(1), CpuCapacity::cores(1));
        for i in 0..2000 {
            let node = Node::new(NodeId(i), CpuCapacity::cores(2), MemoryMib::gib(4));
            c.add_node(node).unwrap();
            c.add_vm(vm(i)).unwrap();
            c.set_assignment(VmId(i), VmAssignment::running(NodeId(i)))
                .unwrap();
            let mut vjob = Vjob::new(VjobId(i), vec![VmId(i)], i as u64);
            vjob.transition_to(VjobState::Running).unwrap();
            vjobs.push(vjob);
        }
        c.add_vm(vm(2000)).unwrap();
        c.add_vm(vm(2001)).unwrap();
        vjobs.push(Vjob::new(VjobId(2000), vec![VmId(2000), VmId(2001)], 2000));
        let decision = Decision::new(
            &vjobs,
            vjobs.iter().map(|j| (j.id, VjobState::Running)).collect(),
            Vec::new(),
        );

        let overloaded = BTreeSet::new();
        let split = PlanOptimizer::split(&c, &decision, &vjobs, &overloaded).unwrap();
        assert_eq!(split.visit, [2000], "only the arrival is visited");
        let (mut ranking, base) = PlanOptimizer::rank_halo(&split, overloaded);
        assert_eq!(base, 2, "two nodes with a core free hold the arrival");

        let config = RepairConfig::default();
        let optimizer = five_second_optimizer(OptimizerMode::repair());
        let mut repair = RepairStats::default();
        let (_, (solved, _, _)) =
            optimizer.widen_until_solved(&split, &mut ranking, base, config, None, &mut repair);
        assert!(solved.is_some());
        assert_eq!(repair.widenings, 0);
        assert!(
            ranking.ranked.len() <= base + config.halo,
            "{} nodes ranked",
            ranking.ranked.len()
        );
    }
}

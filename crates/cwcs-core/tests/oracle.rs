//! An exhaustive oracle for the optimizer's proofs and its bound.
//!
//! On seeded tiny instances — at most 4 nodes and 7 VMs in 3 resource
//! dimensions, running, sleeping and waiting VMs, running ones dropped on
//! random nodes so that some nodes are overloaded — every placement of the
//! VMs that must run that fits the nodes is enumerated and priced with the
//! search's own estimate (the paper's §4.3 incremental plan cost: a
//! migration and a local resume cost `Dm`, a remote resume
//! `remote_resume_factor · Dm`, a boot the run cost).  Then:
//!
//! * a full solve that reports `completed` returns a placement priced the
//!   minimum, serially and as a 2-worker race (whose winner's cost is the
//!   minimum too);
//! * a repair whose sub-problem is the whole problem — every VM that must
//!   run is movable, because every running VM sits on an overloaded node,
//!   and the candidate set is every node — and that reports `completed`
//!   has a winner priced the minimum (the graft may still swap in the
//!   incumbent when its planned cost is lower, so the race's winner is what
//!   is held to it);
//! * every solve's `root_bound` is at most the minimum;
//! * the capacity floor lifts the root bound above the capacity-blind bound
//!   (each VM's cheapest class, its anchor's class only where it fits the
//!   anchor alone) on many instances.
//!
//! The two other parts of the oracle — the repair optimum against the full
//! one, and how well the estimate ranks placements by their planned cost —
//! are not built yet.

use std::time::Duration;

use cwcs_core::{
    packing_demand, Decision, OptimizedOutcome, OptimizerMode, RepairConfig, SolverConfig,
};
use cwcs_model::{
    Configuration, CpuCapacity, MemoryMib, NetBandwidth, Node, NodeId, ResourceDemand, SmallRng,
    Vjob, VjobId, VjobState, Vm, VmAssignment, VmId, VmState,
};
use cwcs_plan::ActionCostModel;

const CASES: usize = 300;

/// One tiny instance: the configuration, its vjobs (every one decided
/// Running), and what the oracle reads of each VM that must run.
struct Instance {
    config: Configuration,
    vjobs: Vec<Vjob>,
    decision: Decision,
    vms: Vec<VmId>,
    assignments: Vec<VmAssignment>,
    demands: Vec<ResourceDemand>,
    capacities: Vec<(NodeId, ResourceDemand)>,
}

fn instance(rng: &mut SmallRng) -> Instance {
    let mut config = Configuration::new();
    let nodes = rng.u64_in(2, 5) as u32;
    for i in 0..nodes {
        let node = Node::new(
            NodeId(i),
            CpuCapacity::percent(rng.u64_in(2, 5) as u32 * 100),
            MemoryMib::gib(rng.u64_in(2, 7)),
        )
        .with_net(NetBandwidth::mbps(rng.u64_in(4, 11) * 100));
        config.add_node(node).unwrap();
    }
    let mut vjobs = Vec::new();
    let vm_count = rng.u64_in(2, 8) as u32;
    let mut next = 0;
    while next < vm_count {
        let size = (rng.u64_in(1, 4) as u32).min(vm_count - next);
        let ids: Vec<VmId> = (next..next + size).map(VmId).collect();
        next += size;
        let state = rng.index(3);
        for &id in &ids {
            let mut vm = Vm::new(
                id,
                MemoryMib::mib(rng.u64_in(1, 5) * 512),
                CpuCapacity::percent(rng.u64_in(1, 5) as u32 * 50),
            )
            .with_net(NetBandwidth::mbps(rng.u64_in(0, 4) * 100));
            let node = NodeId(rng.index(nodes as usize) as u32);
            let assignment = match state {
                0 => {
                    // A waiting VM observes no demand yet: it is packed by
                    // its reservation.
                    vm.cpu = CpuCapacity::ZERO;
                    vm.net = NetBandwidth::ZERO;
                    VmAssignment::waiting()
                }
                1 => VmAssignment::running(node),
                _ => VmAssignment::sleeping(node),
            };
            config.add_vm(vm).unwrap();
            config.set_assignment(id, assignment).unwrap();
        }
        let mut vjob = Vjob::new(VjobId(vjobs.len() as u32), ids, vjobs.len() as u64);
        if state >= 1 {
            vjob.transition_to(VjobState::Running).unwrap();
        }
        if state == 2 {
            vjob.transition_to(VjobState::Sleeping).unwrap();
        }
        vjobs.push(vjob);
    }
    let states = vjobs.iter().map(|j| (j.id, VjobState::Running)).collect();
    let decision = Decision::new(&vjobs, states, Vec::new());
    let vms: Vec<VmId> = vjobs.iter().flat_map(|j| j.vms.iter().copied()).collect();
    let assignments: Vec<VmAssignment> = vms
        .iter()
        .map(|&vm| config.assignment(vm).unwrap())
        .collect();
    let demands = std::iter::zip(&vms, &assignments)
        .map(|(&vm, a)| packing_demand(config.vm(vm).unwrap(), a.state))
        .collect();
    let capacities = config.nodes().map(|n| (n.id, n.capacity())).collect();
    Instance {
        config,
        vjobs,
        decision,
        vms,
        assignments,
        demands,
        capacities,
    }
}

impl Instance {
    /// The search's estimate of placing VM `i` on `node`.
    fn price(&self, i: usize, node: NodeId) -> i64 {
        let costs = ActionCostModel::paper();
        let assignment = &self.assignments[i];
        let dm = self.demands[i].memory.raw();
        let cost = match assignment.state {
            VmState::Running if assignment.host == Some(node) => 0,
            VmState::Running => dm,
            VmState::Sleeping if assignment.image == Some(node) => dm,
            VmState::Sleeping => costs.remote_resume_factor * dm,
            _ => costs.run_cost,
        };
        cost as i64
    }

    /// The cheapest estimate of any placement that fits every node, by
    /// enumeration (`None`: none fits).
    fn minimum(&self) -> Option<i64> {
        let mut free: Vec<ResourceDemand> = self.capacities.iter().map(|&(_, c)| c).collect();
        self.walk(0, &mut free)
    }

    fn walk(&self, i: usize, free: &mut [ResourceDemand]) -> Option<i64> {
        if i == self.vms.len() {
            return Some(0);
        }
        let mut best: Option<i64> = None;
        for (slot, &(node, _)) in self.capacities.iter().enumerate() {
            let demand = self.demands[i];
            if !demand.fits_in(&free[slot]) {
                continue;
            }
            let before = free[slot];
            free[slot] = before.saturating_sub(&demand);
            if let Some(rest) = self.walk(i + 1, free) {
                let cost = self.price(i, node) + rest;
                best = Some(best.map_or(cost, |b| b.min(cost)));
            }
            free[slot] = before;
        }
        best
    }

    /// The capacity-blind bound: each VM's cheapest class, its anchor's
    /// class counted only where the VM alone fits its anchor node.
    fn blind_bound(&self) -> i64 {
        (0..self.vms.len())
            .map(|i| {
                let fits = |node: NodeId| {
                    let capacity = self.capacities.iter().find(|&&(n, _)| n == node);
                    capacity.is_some_and(|(_, c)| self.demands[i].fits_in(c))
                };
                let a = &self.assignments[i];
                let anchor = match a.state {
                    VmState::Running => a.host,
                    VmState::Sleeping => a.image,
                    _ => None,
                };
                let elsewhere = (0..self.capacities.len() as u32)
                    .map(NodeId)
                    .filter(|&n| Some(n) != anchor)
                    .map(|n| self.price(i, n))
                    .next()
                    .unwrap_or(i64::MAX);
                match anchor.filter(|&n| fits(n)) {
                    Some(node) => self.price(i, node).min(elsewhere),
                    None => elsewhere,
                }
            })
            .sum()
    }

    /// True when a repair re-places every VM that must run: each running
    /// VM sits on an overloaded node.
    fn all_movable(&self) -> bool {
        let overloaded: Vec<NodeId> = self
            .config
            .viability_violations()
            .into_iter()
            .map(|(node, _)| node)
            .collect();
        self.assignments.iter().all(|a| match a.state {
            VmState::Running => a.host.is_some_and(|h| overloaded.contains(&h)),
            _ => true,
        })
    }

    /// The estimate of the placement `outcome` chose.
    fn priced(&self, outcome: &OptimizedOutcome) -> i64 {
        (0..self.vms.len())
            .map(|i| {
                let host = outcome.target.host(self.vms[i]).unwrap();
                self.price(i, host.expect("a VM that must run is placed"))
            })
            .sum()
    }

    fn solve(&self, mode: OptimizerMode, workers: usize) -> OptimizedOutcome {
        SolverConfig::default()
            .with_timeout(Duration::from_secs(3_600))
            .with_node_limit(200_000)
            .with_workers(workers)
            .with_mode(mode)
            .build_optimizer()
            .optimize(&self.config, &self.decision, &self.vjobs)
            .expect("a feasible instance solves")
    }
}

#[test]
fn a_proven_solve_returns_the_enumerated_minimum() {
    let mut rng = SmallRng::seed_from_u64(0x0_5AC1E);
    let (mut feasible, mut proven, mut repaired, mut lifted) = (0, 0, 0, 0);
    for case in 0..CASES {
        let instance = instance(&mut rng);
        let Some(minimum) = instance.minimum() else {
            continue;
        };
        feasible += 1;
        let root_bound = |outcome: &OptimizedOutcome, what: &str| {
            let bound = outcome.stats.root_bound.expect("a feasible root");
            assert!(
                bound <= minimum,
                "case {case}, {what}: root bound {bound} > {minimum}"
            );
            bound
        };

        let serial = instance.solve(OptimizerMode::Full, 1);
        let bound = root_bound(&serial, "full, serial");
        if serial.stats.completed {
            proven += 1;
            assert_eq!(
                instance.priced(&serial),
                minimum,
                "case {case}, full, serial"
            );
        }
        if bound > instance.blind_bound() {
            lifted += 1;
        }

        let race = instance.solve(OptimizerMode::Full, 2);
        root_bound(&race, "full, race");
        if race.stats.completed {
            let winner = race.portfolio.as_ref().and_then(|p| p.winning_worker());
            assert_eq!(
                winner.and_then(|w| w.best_cost),
                Some(minimum),
                "case {case}, full, race"
            );
            assert_eq!(instance.priced(&race), minimum, "case {case}, full, race");
        }

        if instance.all_movable() {
            let config = RepairConfig { halo: 8 };
            let repair = instance.solve(OptimizerMode::Repair(config), 2);
            let stats = repair.repair.as_ref().expect("repair stats");
            if stats.movable_vms == instance.vms.len() {
                assert_eq!(
                    stats.candidate_nodes,
                    instance.capacities.len(),
                    "case {case}"
                );
                root_bound(&repair, "repair");
                if repair.stats.completed {
                    repaired += 1;
                    let winner = repair.portfolio.as_ref().and_then(|p| p.winning_worker());
                    let best = winner.and_then(|w| w.best_cost);
                    assert_eq!(best, Some(minimum), "case {case}, repair");
                }
            }
        }
    }
    assert!(feasible > CASES / 2, "{feasible} feasible instances");
    assert!(
        proven > feasible * 9 / 10,
        "{proven} of {feasible} full solves proven"
    );
    assert!(repaired > 80, "{repaired} whole-problem repairs proven");
    assert!(
        lifted > 40,
        "the floor lifted the root bound on {lifted} instances"
    );
}

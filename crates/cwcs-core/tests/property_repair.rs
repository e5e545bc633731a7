//! Property-based tests of the repair-based partial reconfiguration
//! ([`OptimizerMode::Repair`]): over seeded randomized small scenarios
//! (≤ 20 VMs — the regime where the full solve is tractable enough to act
//! as an oracle), the repair outcome must
//!
//! * implement exactly the decided vjob states (same per-VM state as the
//!   full solve's target);
//! * keep every healthy pinned VM on its current host (the "partial" in
//!   partial reconfiguration);
//! * never cost more than the grafted greedy incumbent — the "no worse
//!   than today" contract;
//! * produce a viable target and a valid plan.
//!
//! A lockstep control-loop test then drives the same scenario to completion
//! under both modes and checks that the committed vjob states agree at every
//! iteration.
//!
//! The container has no crates.io access, so `proptest` is replaced by a
//! deterministic [`SmallRng`] driver — same seed, same cases, every run.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

use cwcs_core::{
    packing_demand, ControlLoop, ControlLoopConfig, DecisionModule, FcfsConsolidation,
    OptimizerMode, PlanOptimizer, SolverConfig,
};
use cwcs_model::{
    Configuration, CpuCapacity, MemoryMib, Node, NodeId, ResourceDemand, SmallRng, Vjob, VjobId,
    VjobState, Vm, VmAssignment, VmId, VmState,
};
use cwcs_workload::{VjobSpec, VmWorkProfile, WorkPhase};

const CASES: usize = 64;

/// A deterministic solver configuration: search-node budget instead of wall
/// clock, so full and repair solves are reproducible oracles.
fn solver(mode: OptimizerMode) -> SolverConfig {
    SolverConfig::default()
        .with_timeout(Duration::from_secs(3_600))
        .with_node_limit(20_000)
        .with_mode(mode)
}

/// The optimizer of [`solver`].
fn optimizer(mode: OptimizerMode) -> PlanOptimizer {
    solver(mode).build_optimizer()
}

/// One random scenario: 2–5 nodes, 1–5 vjobs of 1–4 VMs (≤ 20 VMs) in
/// mixed waiting / running / sleeping states, placed viably.  Returns `None`
/// when the draw does not fit (the caller redraws, mirroring proptest
/// filtering).
fn try_scenario(rng: &mut SmallRng) -> Option<(Configuration, Vec<Vjob>)> {
    let node_count = rng.u64_in(2, 5) as u32;
    let vjob_count = rng.u64_in(1, 5) as usize;
    let mut config = Configuration::new();
    for i in 0..node_count {
        config
            .add_node(Node::new(
                NodeId(i),
                CpuCapacity::cores(2),
                MemoryMib::gib(4),
            ))
            .unwrap();
    }
    let memories = [
        MemoryMib::mib(256),
        MemoryMib::mib(512),
        MemoryMib::mib(1024),
    ];
    let node_ids = config.node_ids();
    let mut free: BTreeMap<NodeId, ResourceDemand> = node_ids
        .iter()
        .map(|&n| (n, config.node(n).unwrap().capacity()))
        .collect();

    let mut vjobs = Vec::new();
    let mut next_vm = 0u32;
    for j in 0..vjob_count {
        let vm_count = rng.u64_in(1, 4) as u32;
        let memory = memories[rng.index(memories.len())];
        let state = rng.u32_in_inclusive(0, 2);
        let vm_ids: Vec<VmId> = (0..vm_count)
            .map(|_| {
                let id = VmId(next_vm);
                next_vm += 1;
                id
            })
            .collect();
        for &vm in &vm_ids {
            config
                .add_vm(Vm::new(vm, memory, CpuCapacity::cores(1)))
                .unwrap();
            match state {
                // Waiting: stays off the nodes.
                0 => {}
                // Running: first-fit from a rotated offset.
                1 => {
                    let start = rng.index(node_ids.len());
                    let demand = config.vm(vm).unwrap().demand();
                    let mut placed = false;
                    for k in 0..node_ids.len() {
                        let node = node_ids[(start + k) % node_ids.len()];
                        let available = free.get_mut(&node).unwrap();
                        if demand.fits_in(available) {
                            *available = available.saturating_sub(&demand);
                            config
                                .set_assignment(vm, VmAssignment::running(node))
                                .unwrap();
                            placed = true;
                            break;
                        }
                    }
                    if !placed {
                        return None;
                    }
                }
                // Sleeping: image parked on a random node.
                _ => {
                    let node = node_ids[rng.index(node_ids.len())];
                    config
                        .set_assignment(vm, VmAssignment::sleeping(node))
                        .unwrap();
                }
            }
        }
        let mut vjob = Vjob::new(VjobId(j as u32), vm_ids, j as u64);
        match state {
            0 => {}
            1 => vjob.transition_to(VjobState::Running).unwrap(),
            _ => {
                vjob.transition_to(VjobState::Running).unwrap();
                vjob.transition_to(VjobState::Sleeping).unwrap();
            }
        }
        vjobs.push(vjob);
    }
    Some((config, vjobs))
}

fn scenario(rng: &mut SmallRng) -> (Configuration, Vec<Vjob>) {
    loop {
        if let Some(s) = try_scenario(rng) {
            return s;
        }
    }
}

#[test]
fn repair_matches_full_states_and_honours_the_incumbent() {
    let mut rng = SmallRng::seed_from_u64(0xC0FFEE);
    let mut checked = 0;
    for _ in 0..CASES {
        let (config, vjobs) = scenario(&mut rng);
        assert!(config.vm_count() <= 20, "small-scenario regime");
        let decision = FcfsConsolidation::new()
            .decide(&config, &vjobs, &BTreeSet::new())
            .unwrap();

        // The decision is proven: its placement hosts exactly the VMs of the
        // vjobs decided Running, and written onto the scenario — every other
        // VM off the nodes — it is viable, also when each placed VM weighs
        // its packing demand (for a boot what it reserved, never less than
        // what it shows).
        // A vjob's decided state: listed, else its own.
        let decided = |j: &Vjob| decision.vjob_states.get(&j.id).copied().unwrap_or(j.state);
        let must_run = vjobs
            .iter()
            .filter(|j| decided(j) == VjobState::Running)
            .flat_map(|j| j.vms.iter().copied());
        let must_run: BTreeSet<VmId> = must_run.collect();
        let proof_placement: BTreeMap<VmId, NodeId> =
            decision.proof_placement.iter().copied().collect();
        assert!(proof_placement.keys().eq(must_run.iter()));
        let mut proof = config.clone();
        let mut budgeted: BTreeMap<NodeId, ResourceDemand> = BTreeMap::new();
        for vm in config.vm_ids() {
            let assignment = config.assignment(vm).unwrap();
            let next = match (proof_placement.get(&vm), assignment.host) {
                (Some(&node), _) => {
                    *budgeted.entry(node).or_insert(ResourceDemand::ZERO) +=
                        packing_demand(config.vm(vm).unwrap(), assignment.state);
                    VmAssignment::running(node)
                }
                (None, Some(host)) => VmAssignment::sleeping(host),
                (None, None) => assignment,
            };
            proof.set_assignment(vm, next).unwrap();
        }
        assert!(proof.is_viable(), "the proof placement must be viable");
        for (node, used) in budgeted {
            assert!(used.fits_in(&config.node(node).unwrap().capacity()));
        }

        let full = optimizer(OptimizerMode::Full)
            .optimize(&config, &decision, &vjobs)
            .unwrap();
        let repair = optimizer(OptimizerMode::repair())
            .optimize(&config, &decision, &vjobs)
            .unwrap();

        // Both targets implement the same decided vjob set: every VM ends up
        // in the same state (hosts may legitimately differ).
        for vm in config.vm_ids() {
            assert_eq!(
                full.target.state(vm).unwrap(),
                repair.target.state(vm).unwrap(),
                "VM {vm} state diverged between full and repair"
            );
        }

        // The repair target is viable and its plan executes.
        assert!(repair.target.is_viable());
        repair.plan.validate(&config).unwrap();

        // "No worse than today": the outcome never costs more than the
        // grafted greedy incumbent.
        let stats = repair.repair.as_ref().expect("repair stats");
        if let Some(incumbent) = stats.incumbent_cost {
            assert!(
                repair.cost.total <= incumbent,
                "repair cost {} exceeds its incumbent {}",
                repair.cost.total,
                incumbent
            );
        }

        // Partial reconfiguration: a VM that must keep running and sits on a
        // healthy (non-overloaded) node does not move.
        let overloaded: BTreeSet<NodeId> = config
            .viability_violations()
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        let running: Vec<VjobId> = vjobs
            .iter()
            .filter(|j| decided(j) == VjobState::Running)
            .map(|j| j.id)
            .collect();
        for vjob in vjobs.iter().filter(|j| running.contains(&j.id)) {
            for &vm in &vjob.vms {
                if config.state(vm).unwrap() == VmState::Running {
                    let host = config.host(vm).unwrap().unwrap();
                    if !overloaded.contains(&host) {
                        assert_eq!(
                            repair.target.host(vm).unwrap(),
                            Some(host),
                            "pinned VM {vm} moved"
                        );
                        checked += 1;
                    }
                }
            }
        }
    }
    assert!(checked > 0, "the generator must produce pinned VMs");
}

/// Build the control-loop specs for a scenario: every VM computes for
/// `work_secs` seconds.
fn specs_for(config: &Configuration, vjobs: &[Vjob], work_secs: f64) -> Vec<VjobSpec> {
    vjobs
        .iter()
        .map(|vjob| {
            let vms: Vec<Vm> = vjob
                .vms
                .iter()
                .map(|&vm| config.vm(vm).unwrap().clone())
                .collect();
            let profiles = vms
                .iter()
                .map(|_| VmWorkProfile::new(vec![WorkPhase::compute(work_secs)]))
                .collect();
            VjobSpec::new(vjob.clone(), vms, profiles)
        })
        .collect()
}

#[test]
fn repair_and_full_loops_decide_identically_on_small_scenarios() {
    let mut rng = SmallRng::seed_from_u64(0xBEEF);
    for _ in 0..6 {
        let (config, vjobs) = scenario(&mut rng);
        let specs = specs_for(&config, &vjobs, 90.0);
        let build = |mode: OptimizerMode| {
            let cluster = cwcs_sim::SimulatedCluster::new(config.clone());
            let loop_config = ControlLoopConfig {
                period_secs: 30.0,
                optimizer: optimizer(mode),
                max_iterations: 100,
                ..Default::default()
            };
            ControlLoop::new(cluster, &specs, FcfsConsolidation::new(), loop_config)
        };
        let mut full = build(OptimizerMode::Full);
        let mut repair = build(OptimizerMode::repair());
        for iteration in 0..100 {
            if full.all_terminated() && repair.all_terminated() {
                break;
            }
            full.iterate().unwrap();
            repair.iterate().unwrap();
            let full_states: Vec<(VjobId, VjobState)> =
                full.vjobs().iter().map(|j| (j.id, j.state)).collect();
            let repair_states: Vec<(VjobId, VjobState)> =
                repair.vjobs().iter().map(|j| (j.id, j.state)).collect();
            assert_eq!(
                full_states, repair_states,
                "decided vjob states diverged at iteration {iteration}"
            );
        }
        assert!(full.all_terminated(), "the full-mode loop completes");
        assert!(repair.all_terminated(), "the repair-mode loop completes");
    }
}

/// The shape of the repair `paper_batch` leaves unproven: 11 nodes of 2
/// processing units, nodes 3 and 4 each running seven 1-unit VMs, node 0
/// two 1.1-unit VMs (2.2 units in a 2-unit room).  The keep-host incumbent
/// moves five VMs off each of nodes 3 and 4 and one off node 0, and it is
/// optimal; the capacity floor covers node 0's 0.2-unit excess with a
/// fraction of a VM, below the one whole VM any placement moves, so the
/// floor cannot prove it and the solve searches its whole budget.
fn unprovable_scenario() -> (Configuration, Vec<Vjob>) {
    let mut config = Configuration::new();
    for i in 0..11 {
        let node = Node::new(NodeId(i), CpuCapacity::cores(2), MemoryMib::gib(8));
        config.add_node(node).unwrap();
    }
    let groups = [
        (NodeId(3), 7, 100),
        (NodeId(4), 7, 100),
        (NodeId(0), 2, 110),
    ];
    let mut vjobs = Vec::new();
    let mut next_vm = 0;
    for (j, (node, count, cpu)) in (0..).zip(groups) {
        let vms: Vec<VmId> = (next_vm..next_vm + count).map(VmId).collect();
        next_vm += count;
        for &vm in &vms {
            let record = Vm::new(vm, MemoryMib::mib(512), CpuCapacity::percent(cpu));
            config.add_vm(record).unwrap();
            config
                .set_assignment(vm, VmAssignment::running(node))
                .unwrap();
        }
        let mut vjob = Vjob::new(VjobId(j), vms, j as u64);
        vjob.transition_to(VjobState::Running).unwrap();
        vjobs.push(vjob);
    }
    (config, vjobs)
}

/// One row of the golden table, per scenario for 1 worker and for the
/// deterministic 2-worker race (FFD seed live): `(cost.total, movable_vms, candidate_nodes,
/// widenings, incumbent_cost, fell_back_to_full, nodes, failures, solutions,
/// restarts)`.
type GoldenRow = (
    u64,
    usize,
    usize,
    u32,
    Option<u64>,
    bool,
    u64,
    u64,
    u64,
    u64,
);

#[test]
fn repair_outcomes_match_the_golden_table() {
    let mut rng = SmallRng::seed_from_u64(0xC0FFEE);
    let mut rows: Vec<[GoldenRow; 2]> = Vec::new();
    let scenarios = (0..16).map(|_| scenario(&mut rng));
    for (config, vjobs) in scenarios.chain([unprovable_scenario()]) {
        let decision = FcfsConsolidation::new()
            .decide(&config, &vjobs, &BTreeSet::new())
            .unwrap();
        rows.push([1, 2].map(|workers| {
            let outcome = solver(OptimizerMode::repair())
                .with_workers(workers)
                .build_optimizer()
                .optimize(&config, &decision, &vjobs)
                .unwrap();
            let repair = outcome.repair.expect("repair stats");
            let stats = outcome.stats;
            (
                outcome.cost.total,
                repair.movable_vms,
                repair.candidate_nodes,
                repair.widenings,
                repair.incumbent_cost,
                repair.fell_back_to_full,
                stats.nodes,
                stats.failures,
                stats.solutions,
                stats.restarts,
            )
        }));
    }
    // Generated at the commit before the optimizer was split (one packer,
    // one demand source): a packer or demand slip that shifts the serial and
    // the FFD-seeded race equally still changes a row.  Row 12 is later: its
    // two-pass keep-host incumbent is the optimum, and the bound's capacity
    // floor proves it at the root.  The search counts are later too: every
    // row's incumbent costs the capacity floor, so the solve builds no model
    // and reports the one pruned root the serial search explores, racing or
    // not.  The last row, a fixed scenario, is the one that searches.
    let golden: [[GoldenRow; 2]; 17] = [
        [
            (1024, 1, 3, 0, Some(1024), false, 1, 1, 0, 0),
            (1024, 1, 3, 0, Some(1024), false, 1, 1, 0, 0),
        ],
        [
            (0, 0, 0, 0, Some(0), false, 0, 0, 0, 0),
            (0, 0, 0, 0, Some(0), false, 0, 0, 0, 0),
        ],
        [
            (512, 2, 3, 0, Some(512), false, 1, 1, 0, 0),
            (512, 2, 3, 0, Some(512), false, 1, 1, 0, 0),
        ],
        [
            (0, 4, 4, 0, Some(0), false, 1, 1, 0, 0),
            (0, 4, 4, 0, Some(0), false, 1, 1, 0, 0),
        ],
        [
            (0, 0, 0, 0, Some(0), false, 0, 0, 0, 0),
            (0, 0, 0, 0, Some(0), false, 0, 0, 0, 0),
        ],
        [
            (0, 2, 2, 0, Some(0), false, 1, 1, 0, 0),
            (0, 2, 2, 0, Some(0), false, 1, 1, 0, 0),
        ],
        [
            (1024, 2, 3, 0, Some(1024), false, 1, 1, 0, 0),
            (1024, 2, 3, 0, Some(1024), false, 1, 1, 0, 0),
        ],
        [
            (0, 6, 3, 0, Some(0), false, 1, 1, 0, 0),
            (0, 6, 3, 0, Some(0), false, 1, 1, 0, 0),
        ],
        [
            (1024, 1, 4, 0, Some(1024), false, 1, 1, 0, 0),
            (1024, 1, 4, 0, Some(1024), false, 1, 1, 0, 0),
        ],
        [
            (0, 0, 0, 0, Some(0), false, 0, 0, 0, 0),
            (0, 0, 0, 0, Some(0), false, 0, 0, 0, 0),
        ],
        [
            (1536, 3, 3, 0, Some(1536), false, 1, 1, 0, 0),
            (1536, 3, 3, 0, Some(1536), false, 1, 1, 0, 0),
        ],
        [
            (0, 1, 2, 0, Some(0), false, 1, 1, 0, 0),
            (0, 1, 2, 0, Some(0), false, 1, 1, 0, 0),
        ],
        [
            (2816, 6, 3, 0, Some(2816), false, 1, 1, 0, 0),
            (2816, 6, 3, 0, Some(2816), false, 1, 1, 0, 0),
        ],
        [
            (0, 0, 0, 0, Some(0), false, 0, 0, 0, 0),
            (0, 0, 0, 0, Some(0), false, 0, 0, 0, 0),
        ],
        [
            (0, 0, 0, 0, Some(0), false, 0, 0, 0, 0),
            (0, 0, 0, 0, Some(0), false, 0, 0, 0, 0),
        ],
        [
            (2048, 4, 3, 0, Some(2048), false, 1, 1, 0, 0),
            (2048, 4, 3, 0, Some(2048), false, 1, 1, 0, 0),
        ],
        // `unprovable_scenario`: the floor proves nothing, so both solves
        // spend their whole node budget and keep the optimal incumbent.
        [
            (5632, 16, 11, 0, Some(5632), false, 20000, 16315, 0, 0),
            (5632, 16, 11, 0, Some(5632), false, 40001, 32632, 0, 0),
        ],
    ];
    assert_eq!(rows, golden);
}

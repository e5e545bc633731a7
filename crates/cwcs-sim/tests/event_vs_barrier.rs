//! Property tests of the event-driven execution engine against the
//! pool-barrier compatibility mode: on randomized scenarios, both engines
//! must reach the identical final configuration and the event-driven switch
//! must never last longer than the barrier execution of the same plan.

use cwcs_model::rng::SmallRng;
use cwcs_model::{
    Configuration, CpuCapacity, MemoryMib, NetBandwidth, Node, NodeId, Vm, VmAssignment, VmId,
    VmState,
};
use cwcs_plan::{Planner, PlannerError, ReconfigurationPlan};
use cwcs_sim::{
    ExecutionMode, ExecutionReport, PlanExecutor, SimulatedCluster, SimulatedXenDriver,
};

/// Build a random viable source configuration.
fn random_source(rng: &mut SmallRng) -> Configuration {
    let node_count = rng.u32_in_inclusive(3, 8);
    let vm_count = rng.u32_in_inclusive(4, 16);
    let mut config = Configuration::new();
    for i in 0..node_count {
        config
            .add_node(Node::new(
                NodeId(i),
                CpuCapacity::cores(rng.u32_in_inclusive(2, 4)),
                MemoryMib::gib(4),
            ))
            .unwrap();
    }
    let memories = [512u64, 1024, 2048];
    for i in 0..vm_count {
        let memory = memories[rng.index(memories.len())];
        config
            .add_vm(Vm::new(
                VmId(i),
                MemoryMib::mib(memory),
                CpuCapacity::cores(1),
            ))
            .unwrap();
        // Random initial state, capacity-aware for running VMs.
        match rng.index(3) {
            0 => {} // stays Waiting
            1 => {
                if let Some(node) = fitting_node(&config, rng, VmId(i)) {
                    config
                        .set_assignment(VmId(i), VmAssignment::running(node))
                        .unwrap();
                }
            }
            _ => {
                let image = NodeId(rng.u32_in_inclusive(0, node_count - 1));
                config
                    .set_assignment(VmId(i), VmAssignment::sleeping(image))
                    .unwrap();
            }
        }
    }
    config
}

/// A node with room for `vm`'s demand, if any (random scan order).
fn fitting_node(config: &Configuration, rng: &mut SmallRng, vm: VmId) -> Option<NodeId> {
    let demand = config.vm(vm).unwrap().demand();
    let mut nodes = config.node_ids();
    rng.shuffle(&mut nodes);
    nodes
        .into_iter()
        .find(|&n| config.can_host(n, &demand).unwrap_or(false))
}

/// Derive a random reachable, viable target from `source`: every VM takes
/// one of the single-action transitions of the life cycle, with running
/// placements chosen capacity-aware against the target being built.
fn random_target(source: &Configuration, rng: &mut SmallRng) -> Configuration {
    let mut target = source.clone();
    for vm in source.vm_ids() {
        let assignment = source.assignment(vm).unwrap();
        match assignment.state {
            VmState::Waiting | VmState::Sleeping => {
                // Maybe boot / resume somewhere with room.
                if rng.bool_with(0.6) {
                    if let Some(node) = fitting_node(&target, rng, vm) {
                        target
                            .set_assignment(vm, VmAssignment::running(node))
                            .unwrap();
                    }
                }
            }
            VmState::Running => {
                match rng.index(4) {
                    0 => {} // keep in place
                    1 => {
                        // Migrate somewhere with room (the current host keeps
                        // the VM's demand until the move, but the target only
                        // needs to be viable, so checking `target` is enough).
                        if let Some(node) = fitting_node(&target, rng, vm) {
                            target
                                .set_assignment(vm, VmAssignment::running(node))
                                .unwrap();
                        }
                    }
                    2 => {
                        let host = assignment.host.unwrap();
                        target
                            .set_assignment(vm, VmAssignment::sleeping(host))
                            .unwrap();
                    }
                    _ => {
                        target
                            .set_assignment(vm, VmAssignment::terminated())
                            .unwrap();
                    }
                }
            }
            VmState::Terminated => {}
        }
    }
    target
}

/// Execute `plan` from `source` under both engines and hold them to the
/// contract: nothing fails, both reach the configuration `validate`
/// predicts, they execute the same actions, and the event-driven switch never
/// lasts longer than the barrier one.  Returns `(barrier, event)`.
fn execute_both(
    label: &str,
    source: &Configuration,
    plan: &ReconfigurationPlan,
) -> (ExecutionReport, ExecutionReport) {
    let predicted = plan.validate(source).unwrap();

    let mut barrier_cluster = SimulatedCluster::new(source.clone());
    let barrier = PlanExecutor::new(SimulatedXenDriver::default())
        .with_mode(ExecutionMode::PoolBarrier)
        .execute(&mut barrier_cluster, plan);
    let mut event_cluster = SimulatedCluster::new(source.clone());
    let event = PlanExecutor::new(SimulatedXenDriver::default())
        .with_mode(ExecutionMode::EventDriven)
        .execute(&mut event_cluster, plan);

    assert!(barrier.failed_actions.is_empty(), "{label}");
    assert!(event.failed_actions.is_empty(), "{label}");
    assert_eq!(
        event_cluster.configuration(),
        barrier_cluster.configuration(),
        "{label}: engines disagree on the final configuration"
    );
    assert_eq!(
        event_cluster.configuration(),
        &predicted,
        "{label}: execution disagrees with plan validation"
    );
    assert!(
        event.duration_secs <= barrier.duration_secs + 1e-6,
        "{label}: event-driven {} s exceeds barrier {} s",
        event.duration_secs,
        barrier.duration_secs
    );
    assert_eq!(
        event.executed_actions(),
        barrier.executed_actions(),
        "{label}"
    );
    (barrier, event)
}

#[test]
fn event_and_barrier_agree_on_the_final_configuration() {
    let mut planned = 0;
    let mut strictly_faster = 0;
    for seed in 0..40u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let source = random_source(&mut rng);
        let target = random_target(&source, &mut rng);
        let plan = match Planner::new().plan(&source, &target, &[]) {
            Ok(plan) => plan,
            // Rare generated instances have no pivot node for a migration
            // cycle; the planner rightly refuses them.
            Err(PlannerError::UnresolvableDependency { .. }) => continue,
            Err(e) => panic!("seed {seed}: planner failed: {e}"),
        };
        if plan.is_empty() {
            continue;
        }
        planned += 1;
        let (barrier, event) = execute_both(&format!("seed {seed}"), &source, &plan);
        if event.duration_secs < barrier.duration_secs - 1e-6 {
            strictly_faster += 1;
        }
    }
    assert!(planned >= 20, "only {planned} seeds produced a plan");
    assert!(
        strictly_faster > 0,
        "the event engine should beat the barrier on some multi-pool plan"
    );
}

#[test]
fn a_net_bound_boot_waits_for_the_suspend_that_frees_its_nic() {
    // Node 0 has CPU and memory to spare but a 1 000 Mbit/s NIC: VM0 pushes
    // 800 Mbit/s on it, so VM1 (800 Mbit/s) can only boot there once VM0 is
    // suspended.  An unrelated 2 GiB migration shares the first pool, so the
    // barrier holds the boot back longer than its one real dependency does.
    let net = NetBandwidth::mbps(800);
    let mut source = Configuration::new();
    for i in 0..3 {
        let node = Node::new(NodeId(i), CpuCapacity::cores(4), MemoryMib::gib(8));
        source
            .add_node(node.with_net(NetBandwidth::mbps(1000)))
            .unwrap();
    }
    let vm = |id: u32, mem: u64| Vm::new(VmId(id), MemoryMib::mib(mem), CpuCapacity::cores(1));
    source.add_vm(vm(0, 512).with_net(net)).unwrap();
    source.add_vm(vm(1, 512).with_net(net)).unwrap();
    source.add_vm(vm(2, 2048)).unwrap();
    source
        .set_assignment(VmId(0), VmAssignment::running(NodeId(0)))
        .unwrap();
    source
        .set_assignment(VmId(2), VmAssignment::running(NodeId(1)))
        .unwrap();
    let mut target = source.clone();
    target
        .set_assignment(VmId(0), VmAssignment::sleeping(NodeId(0)))
        .unwrap();
    target
        .set_assignment(VmId(1), VmAssignment::running(NodeId(0)))
        .unwrap();
    target
        .set_assignment(VmId(2), VmAssignment::running(NodeId(2)))
        .unwrap();

    let plan = Planner::new().plan(&source, &target, &[]).unwrap();
    assert_eq!(plan.pools().len(), 2, "only the NIC orders the boot");
    let (barrier, event) = execute_both("net-bound", &source, &plan);

    let entry_of = |report: &ExecutionReport, kind: &str| {
        let mut entries = report.timeline.entries.iter();
        entries.find(|e| e.action.kind() == kind).unwrap().clone()
    };
    let (suspend, boot) = (entry_of(&event, "suspend"), entry_of(&event, "run"));
    assert!(
        boot.start_secs >= suspend.end_secs - 1e-9,
        "the boot started at {} s, before the suspend freed the NIC at {} s",
        boot.start_secs,
        suspend.end_secs
    );
    assert!(
        boot.start_secs < entry_of(&barrier, "run").start_secs - 1e-6,
        "the boot waits for the suspend only, not for the migration beside it"
    );
}

#[test]
fn event_engine_timeline_is_consistent() {
    for seed in 40..55u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let source = random_source(&mut rng);
        let target = random_target(&source, &mut rng);
        let Ok(plan) = Planner::new().plan(&source, &target, &[]) else {
            continue;
        };
        let mut cluster = SimulatedCluster::new(source);
        let report = PlanExecutor::new(SimulatedXenDriver::default()).execute(&mut cluster, &plan);
        assert_eq!(report.timeline.entries.len(), plan.action_count());
        let mut makespan = 0.0f64;
        for entry in &report.timeline.entries {
            assert!(entry.start_secs >= -1e-9, "time never goes negative");
            assert!(entry.end_secs >= entry.start_secs - 1e-9);
            makespan = makespan.max(entry.end_secs);
        }
        assert!(
            (makespan - report.duration_secs).abs() < 1e-6,
            "seed {seed}: makespan {makespan} vs duration {}",
            report.duration_secs
        );
        // The cluster clock advanced by exactly the switch duration.
        assert!((cluster.clock_secs() - report.duration_secs).abs() < 1e-6);
    }
}

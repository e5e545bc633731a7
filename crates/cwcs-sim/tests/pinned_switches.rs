//! The execution engines pinned bit for bit.
//!
//! Seeded switches — with vjobs completing mid-switch, multi-phase work
//! profiles, a deceleration regime that changes between events, an injected
//! driver failure and an action the driver refuses — are executed under each
//! engine, and everything they compute is folded into one FNV-1a digest: the
//! full [`ExecutionTimeline`] (entries, completions, duration), the failed
//! actions, and afterwards every VM's progress and every vjob's completion
//! time, each `f64` by its bits.  The digests were taken before the event
//! engine's bookkeeping was rebuilt; a change that computes any of these
//! values by another expression, from other operands or in another order
//! changes them.

use cwcs_model::rng::SmallRng;
use cwcs_model::{
    Configuration, CpuCapacity, MemoryMib, Node, NodeId, ResourceDemand, Vjob, VjobId, Vm,
    VmAssignment, VmId, VmState,
};
use cwcs_plan::{Action, Planner, Pool, ReconfigurationPlan};
use cwcs_sim::{
    ExecutionMode, ExecutionReport, PlanExecutor, SimulatedCluster, SimulatedXenDriver,
};
use cwcs_workload::{VjobSpec, VmWorkProfile, WorkPhase};

/// A VM that stays waiting: the target of the refused suspend.
const IDLE_VM: VmId = VmId(1_000);

/// FNV-1a, 64 bits.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, value: u64) {
        self.bytes(&value.to_le_bytes());
    }

    fn f64(&mut self, value: f64) {
        self.u64(value.to_bits());
    }

    fn action(&mut self, action: &Action) {
        self.bytes(format!("{action:?}").as_bytes());
    }

    fn report(&mut self, report: &ExecutionReport) {
        let timeline = &report.timeline;
        self.u64(timeline.entries.len() as u64);
        for entry in &timeline.entries {
            self.action(&entry.action);
            self.u64(entry.pool_index as u64);
            self.f64(entry.start_secs);
            self.f64(entry.end_secs);
            self.u64(u64::from(entry.failed));
        }
        self.u64(timeline.completions.len() as u64);
        for completion in &timeline.completions {
            self.u64(u64::from(completion.vjob.0));
            self.f64(completion.time_secs);
        }
        self.f64(timeline.duration_secs);
        self.f64(report.duration_secs);
        for action in &report.failed_actions {
            self.action(action);
        }
    }
}

/// What a set of switches exercised, so the pin cannot silently go vacuous.
#[derive(Debug, Default)]
struct Coverage {
    switches: usize,
    completions_mid_switch: usize,
    injected_failures: usize,
    refusals: usize,
}

fn random_source(rng: &mut SmallRng) -> Configuration {
    let node_count = rng.u32_in_inclusive(3, 7);
    let mut config = Configuration::new();
    for i in 0..node_count {
        let node = Node::new(
            NodeId(i),
            CpuCapacity::cores(rng.u32_in_inclusive(2, 4)),
            MemoryMib::gib(4),
        );
        config.add_node(node).unwrap();
    }
    let memories = [512u64, 1024, 2048];
    for i in 0..rng.u32_in_inclusive(6, 16) {
        let memory = MemoryMib::mib(memories[rng.index(memories.len())]);
        config
            .add_vm(Vm::new(VmId(i), memory, CpuCapacity::cores(1)))
            .unwrap();
        // Mostly running, so the switch has co-hosted VMs to slow down.
        match rng.index(5) {
            0 => {}
            1 => {
                let image = NodeId(rng.index(node_count as usize) as u32);
                config
                    .set_assignment(VmId(i), VmAssignment::sleeping(image))
                    .unwrap();
            }
            _ => {
                if let Some(node) = fitting_node(&config, rng, VmId(i)) {
                    config
                        .set_assignment(VmId(i), VmAssignment::running(node))
                        .unwrap();
                }
            }
        }
    }
    let idle = Vm::new(IDLE_VM, MemoryMib::mib(512), CpuCapacity::cores(1));
    config.add_vm(idle).unwrap();
    config
}

fn fitting_node(config: &Configuration, rng: &mut SmallRng, vm: VmId) -> Option<NodeId> {
    let demand = config.vm(vm).unwrap().demand();
    let mut nodes = config.node_ids();
    rng.shuffle(&mut nodes);
    nodes
        .into_iter()
        .find(|&n| config.can_host(n, &demand).unwrap_or(false))
}

/// A reachable, viable target: each VM takes at most one life-cycle step.
fn random_target(source: &Configuration, rng: &mut SmallRng) -> Configuration {
    let mut target = source.clone();
    for vm in source.vm_ids().into_iter().filter(|&vm| vm != IDLE_VM) {
        let assignment = source.assignment(vm).unwrap();
        let next = match assignment.state {
            VmState::Waiting | VmState::Sleeping if rng.bool_with(0.6) => {
                fitting_node(&target, rng, vm).map(VmAssignment::running)
            }
            VmState::Running => match rng.index(5) {
                0 | 1 => fitting_node(&target, rng, vm).map(VmAssignment::running),
                2 => Some(VmAssignment::sleeping(assignment.host.unwrap())),
                3 if rng.bool_with(0.3) => Some(VmAssignment::terminated()),
                _ => None,
            },
            _ => None,
        };
        if let Some(next) = next {
            target.set_assignment(vm, next).unwrap();
        }
    }
    target
}

/// Group the VMs (the idle one excepted) into vjobs of one to three VMs, each
/// running a profile of one to three compute / idle phases short enough to
/// end inside a switch.
fn random_specs(config: &Configuration, rng: &mut SmallRng) -> Vec<VjobSpec> {
    let vms: Vec<VmId> = config
        .vm_ids()
        .into_iter()
        .filter(|&vm| vm != IDLE_VM)
        .collect();
    let mut specs = Vec::new();
    let mut rest = &vms[..];
    while !rest.is_empty() {
        let size = rng.u32_in_inclusive(1, 3).min(rest.len() as u32) as usize;
        let (members, tail) = rest.split_at(size);
        rest = tail;
        let vjob = Vjob::new(VjobId(specs.len() as u32), members.to_vec(), 0);
        let records = members
            .iter()
            .map(|&vm| config.vm(vm).unwrap().clone())
            .collect();
        let profiles = members
            .iter()
            .map(|_| {
                let phases = (0..rng.u32_in_inclusive(1, 3))
                    .map(|_| {
                        let secs = rng.f64_in(1.0, 45.0);
                        if rng.bool_with(0.5) {
                            WorkPhase::compute(secs)
                        } else {
                            WorkPhase::idle(secs)
                        }
                    })
                    .collect();
                VmWorkProfile::new(phases)
            })
            .collect();
        specs.push(VjobSpec::new(vjob, records, profiles));
    }
    specs
}

/// A per-node deceleration map with every factor the engines produce, plus
/// 1.0 entries and a 2.0 no operation imposes.
fn random_decelerations(
    config: &Configuration,
    rng: &mut SmallRng,
) -> std::collections::BTreeMap<NodeId, f64> {
    let mut map = std::collections::BTreeMap::new();
    for node in config.node_ids() {
        if rng.bool_with(0.4) {
            map.insert(node, [1.0, 1.3, 1.5, 2.0][rng.index(4)]);
        }
    }
    map
}

/// Insert a suspend of the waiting [`IDLE_VM`] into a random pool: the
/// driver refuses it, and later actions on its node may still draw on its
/// (phantom) release.
fn with_refusal(plan: &ReconfigurationPlan, rng: &mut SmallRng) -> ReconfigurationPlan {
    let mut pools: Vec<Pool> = plan.pools().to_vec();
    let refused = Action::Suspend {
        vm: IDLE_VM,
        node: NodeId(0),
        demand: ResourceDemand::new(CpuCapacity::cores(1), MemoryMib::mib(512)),
    };
    let at = rng.index(pools.len());
    let mut actions = pools[at].plain_actions();
    actions.insert(rng.index(actions.len() + 1), refused);
    pools[at] = Pool::from_actions(actions);
    ReconfigurationPlan::from_pools(pools)
}

/// Run the seeded scenarios under `mode` and return their digest.
fn digest_of(mode: ExecutionMode, seeds: std::ops::Range<u64>) -> (u64, Coverage) {
    let mut digest = Digest::new();
    let mut coverage = Coverage::default();
    for seed in seeds {
        let mut rng = SmallRng::seed_from_u64(0x5eed_0000 + seed);
        let source = random_source(&mut rng);
        let specs = random_specs(&source, &mut rng);
        let mut cluster = SimulatedCluster::new(source);
        for spec in &specs {
            cluster.register_vjob(spec);
        }
        // Some progress, under a regime of its own, before the first switch.
        let decelerations = random_decelerations(cluster.configuration(), &mut rng);
        cluster.advance(rng.f64_in(0.0, 8.0), &decelerations);

        for _ in 0..3 {
            let source = cluster.configuration().clone();
            let target = random_target(&source, &mut rng);
            let Ok(plan) = Planner::new().plan(&source, &target, &[]) else {
                continue;
            };
            if plan.is_empty() {
                continue;
            }
            let plan = with_refusal(&plan, &mut rng);
            let driver = SimulatedXenDriver::default();
            if rng.bool_with(0.5) {
                let actions = plan.all_actions();
                let victim = actions[rng.index(actions.len())].vm();
                driver.failure_injector().fail_next_action_on(victim);
            }
            let executor = PlanExecutor::new(driver).with_mode(mode);
            let report = executor.execute(&mut cluster, &plan);
            digest.report(&report);

            coverage.switches += 1;
            coverage.completions_mid_switch += report
                .timeline
                .completions
                .iter()
                .filter(|c| c.time_secs < report.duration_secs)
                .count();
            let failed = report.timeline.entries.iter().filter(|e| e.failed);
            for entry in failed {
                if entry.action.vm() == IDLE_VM {
                    coverage.refusals += 1;
                } else if entry.end_secs > entry.start_secs {
                    coverage.injected_failures += 1;
                }
            }

            // The control loop's own interval between two switches.
            let decelerations = random_decelerations(cluster.configuration(), &mut rng);
            cluster.advance(rng.f64_in(0.0, 10.0), &decelerations);
        }

        digest.f64(cluster.clock_secs());
        for vm in cluster.configuration().vm_ids() {
            match cluster.progress_of(vm) {
                Some(progress) => digest.f64(progress),
                None => digest.u64(u64::MAX),
            }
        }
        for spec in &specs {
            match cluster.completed_at(spec.vjob.id) {
                Some(at) => digest.f64(at),
                None => digest.u64(u64::MAX),
            }
        }
    }
    (digest.0, coverage)
}

fn assert_covered(coverage: &Coverage) {
    assert!(coverage.switches >= 100, "{coverage:?}");
    assert_eq!(coverage.refusals, coverage.switches, "{coverage:?}");
    assert!(coverage.completions_mid_switch >= 50, "{coverage:?}");
    assert!(coverage.injected_failures >= 40, "{coverage:?}");
}

#[test]
fn the_event_engine_is_pinned_bit_for_bit() {
    let (digest, coverage) = digest_of(ExecutionMode::EventDriven, 0..40);
    assert_covered(&coverage);
    assert_eq!(
        digest, 0x3512_e0bb_90d9_0820,
        "event-driven digest moved: {digest:#018x}"
    );
}

#[test]
fn the_pool_barrier_is_pinned_bit_for_bit() {
    let (digest, coverage) = digest_of(ExecutionMode::PoolBarrier, 0..40);
    assert_covered(&coverage);
    assert_eq!(
        digest, 0xacd6_271a_ded2_f653,
        "pool-barrier digest moved: {digest:#018x}"
    );
}

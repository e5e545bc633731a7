//! Property-based tests of the data model: viability accounting, life-cycle
//! legality and configuration deltas.
//!
//! Exercised over seeded randomized configurations (the container has no
//! crates.io access, so `proptest` is replaced by a deterministic
//! [`SmallRng`] driver — same seed, same cases, every run).

use cwcs_model::{
    Configuration, CpuCapacity, MemoryMib, Node, NodeId, SmallRng, Vm, VmAssignment, VmId, VmState,
};

const CASES: usize = 256;

fn arbitrary_configuration(rng: &mut SmallRng) -> Configuration {
    let nodes = rng.u64_in(1, 6) as u32;
    let vm_count = rng.u64_in(0, 12) as usize;
    let mut config = Configuration::new();
    for i in 0..nodes {
        config
            .add_node(Node::new(
                NodeId(i),
                CpuCapacity::cores(2),
                MemoryMib::gib(4),
            ))
            .unwrap();
    }
    for i in 0..vm_count {
        let memory = rng.u64_in(64, 2048);
        let cpu = rng.u64_in(0, 200) as u32;
        let vm = VmId(i as u32);
        config
            .add_vm(Vm::new(
                vm,
                MemoryMib::mib(memory),
                CpuCapacity::percent(cpu),
            ))
            .unwrap();
        let node = NodeId(rng.u64_in(0, nodes as u64) as u32);
        match rng.u64_in(0, 4) {
            0 => {}
            1 => {
                config
                    .set_assignment(vm, VmAssignment::running(node))
                    .unwrap();
            }
            2 => {
                config
                    .set_assignment(vm, VmAssignment::sleeping(node))
                    .unwrap();
            }
            _ => {
                config
                    .set_assignment(vm, VmAssignment::terminated())
                    .unwrap();
            }
        }
    }
    config
}

/// The sum of per-node usages equals the total running demand, and a
/// configuration is viable exactly when no node reports a violation.
#[test]
fn usage_accounting_is_consistent() {
    let mut rng = SmallRng::seed_from_u64(0xA1);
    for _ in 0..CASES {
        let config = arbitrary_configuration(&mut rng);
        let total = config.total_running_demand();
        let summed_cpu: u32 = config
            .usages()
            .iter()
            .map(|(_, usage)| usage.used.cpu.raw())
            .sum();
        let summed_mem: u64 = config
            .usages()
            .iter()
            .map(|(_, usage)| usage.used.memory.raw())
            .sum();
        assert_eq!(total.cpu.raw(), summed_cpu);
        assert_eq!(total.memory.raw(), summed_mem);
        assert_eq!(config.is_viable(), config.viability_violations().is_empty());
    }
}

/// The one-pass `usages()` equals the per-node `usage(n)` scans, element
/// for element.
#[test]
fn usages_equal_the_per_node_usage() {
    let mut rng = SmallRng::seed_from_u64(0xA5);
    for _ in 0..CASES {
        let config = arbitrary_configuration(&mut rng);
        let per_node: Vec<_> = config
            .node_ids()
            .into_iter()
            .map(|n| (n, config.usage(n).unwrap()))
            .collect();
        assert_eq!(config.usages(), per_node);
    }
}

/// Only running VMs contribute to node usage.
#[test]
fn non_running_vms_are_free() {
    let mut rng = SmallRng::seed_from_u64(0xA2);
    for _ in 0..CASES {
        let config = arbitrary_configuration(&mut rng);
        for vm in config.vm_ids() {
            let state = config.state(vm).unwrap();
            if state != VmState::Running {
                // The VM must not appear on any node.
                for node in config.node_ids() {
                    assert!(!config.vms_on(node).contains(&vm));
                }
            }
        }
        assert!(config.validate().is_ok());
    }
}

/// A configuration compared with itself has no delta, and the delta with a
/// modified copy mentions exactly the touched VMs.
#[test]
fn deltas_identify_exactly_the_changes() {
    let mut rng = SmallRng::seed_from_u64(0xA3);
    for _ in 0..CASES {
        let config = arbitrary_configuration(&mut rng);
        assert!(config.delta(&config.clone()).is_empty());

        let mut modified = config.clone();
        let mut expected_changes = 0;
        for vm in config.vm_ids() {
            // Terminate every running VM in the copy.
            if config.state(vm).unwrap() == VmState::Running {
                modified
                    .set_assignment(vm, VmAssignment::terminated())
                    .unwrap();
                expected_changes += 1;
            }
        }
        assert_eq!(config.delta(&modified).len(), expected_changes);
    }
}

/// Life-cycle legality: whatever sequence of assignments we try through
/// `transition`, a terminated VM never becomes anything else and a waiting VM
/// never goes straight to sleeping.
#[test]
fn transition_respects_figure_2() {
    let mut rng = SmallRng::seed_from_u64(0xA4);
    for _ in 0..CASES {
        let mut config = arbitrary_configuration(&mut rng);
        let vms = config.vm_ids();
        if vms.is_empty() {
            continue;
        }
        let nodes = config.node_ids();
        let attempts = rng.u64_in(1, 20);
        for _ in 0..attempts {
            let choice = rng.u64_in(0, 4);
            let node_sel = rng.u64_in(0, 6) as usize;
            let vm = vms[node_sel % vms.len()];
            let node = nodes[node_sel % nodes.len()];
            let before = config.state(vm).unwrap();
            let wanted = match choice {
                0 => VmAssignment::waiting(),
                1 => VmAssignment::running(node),
                2 => VmAssignment::sleeping(node),
                _ => VmAssignment::terminated(),
            };
            let result = config.transition(vm, wanted);
            let after = config.state(vm).unwrap();
            if result.is_ok() {
                assert!(before.can_transition_to(after));
            } else {
                assert_eq!(before, after, "failed transition must not change the state");
            }
            if before == VmState::Terminated {
                assert_eq!(after, VmState::Terminated);
            }
        }
    }
}

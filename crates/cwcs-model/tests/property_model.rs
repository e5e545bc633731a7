//! Property-based tests of the data model: viability accounting (the load
//! ledger against a from-scratch oracle) and life-cycle legality.
//!
//! Exercised over seeded randomized configurations (the container has no
//! crates.io access, so `proptest` is replaced by a deterministic
//! [`SmallRng`] driver — same seed, same cases, every run).

use std::collections::BTreeMap;

use cwcs_model::{
    Configuration, CpuCapacity, MemoryMib, NetBandwidth, Node, NodeId, ResourceDemand,
    ResourceUsage, SmallRng, Vm, VmAssignment, VmId, VmState,
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

/// What every node carries, summed from scratch over `vms_on` — the scan the
/// ledger replaced, kept here as the oracle it must equal.
fn oracle_usages(config: &Configuration) -> Vec<(NodeId, ResourceUsage)> {
    config
        .nodes()
        .map(|node| {
            let mut usage = ResourceUsage::empty(node.capacity());
            for vm in config.vms_on(node.id) {
                usage.add(&config.vm(vm).unwrap().demand());
            }
            (node.id, usage)
        })
        .collect()
}

/// Every accounting query agrees with the oracle, and `validate` (which
/// recomputes the ledger itself) passes.
fn assert_ledger_matches_the_oracle(config: &Configuration) {
    let oracle = oracle_usages(config);
    for &(node, usage) in &oracle {
        assert_eq!(config.usage(node).unwrap(), usage, "usage({node})");
        assert_eq!(config.free(node).unwrap(), usage.free(), "free({node})");
    }
    assert_eq!(config.usages(), oracle);
    let overloaded: Vec<_> = oracle
        .iter()
        .copied()
        .filter(|(_, usage)| !usage.is_within_capacity())
        .collect();
    assert_eq!(config.viability_violations(), overloaded);
    assert_eq!(config.is_viable(), overloaded.is_empty());
    let total: ResourceDemand = oracle.iter().map(|(_, usage)| usage.used).sum();
    assert_eq!(config.total_running_demand(), total);
    config.validate().unwrap();
}

/// `usages()` equals the from-scratch sum over `vms_on`, element for element.
#[test]
fn usages_equal_the_per_node_usage() {
    let mut rng = SmallRng::seed_from_u64(0xA5);
    for _ in 0..CASES {
        let config = arbitrary_configuration(&mut rng);
        assert_eq!(config.usages(), oracle_usages(&config));
    }
}

/// The ledger survives every mutation: after each step of a random sequence
/// of `add_vm` / `set_assignment` / `transition` / `set_vm_demand` /
/// `set_node_capacity` / `remove_vm` it equals the oracle, and at the end the
/// configuration equals one rebuilt from its final state alone — the ledger
/// is a function of the assignments, not of the path that led to them.
#[test]
fn the_ledger_follows_every_mutation() {
    let mut rng = SmallRng::seed_from_u64(0xA6);
    for _ in 0..CASES {
        let mut config = arbitrary_configuration(&mut rng);
        assert_ledger_matches_the_oracle(&config);
        let nodes = config.node_ids();
        let mut next_vm = config.vm_count() as u32;
        for _ in 0..rng.u64_in(10, 40) {
            let node = nodes[rng.index(nodes.len())];
            let vms = config.vm_ids();
            // Any VM, whatever its state: running, sleeping, waiting, terminated.
            let vm = (!vms.is_empty()).then(|| vms[rng.index(vms.len())]);
            let assignment = match rng.u64_in(0, 4) {
                0 => VmAssignment::waiting(),
                1 => VmAssignment::running(node),
                2 => VmAssignment::sleeping(node),
                _ => VmAssignment::terminated(),
            };
            let cpu = CpuCapacity::percent(rng.u64_in(0, 200) as u32);
            let net = NetBandwidth::mbps(rng.u64_in(0, 3) * 250);
            match (rng.u64_in(0, 6), vm) {
                (0, _) | (_, None) => {
                    let memory = MemoryMib::mib(rng.u64_in(64, 2048));
                    let vm = Vm::new(VmId(next_vm), memory, cpu).with_net(net);
                    config.add_vm(vm).unwrap();
                    next_vm += 1;
                }
                (1, Some(vm)) => config.set_assignment(vm, assignment).unwrap(),
                (2, Some(vm)) => {
                    let before = config.clone();
                    if config.transition(vm, assignment).is_err() {
                        assert_eq!(config, before, "a refused transition changes nothing");
                    }
                }
                (3, Some(vm)) => {
                    let record = config.vm(vm).unwrap();
                    let moved = (record.cpu, record.net) != (cpu, net);
                    assert_eq!(config.set_vm_demand(vm, cpu, net), Ok(moved));
                }
                (4, _) => {
                    let capacity =
                        ResourceDemand::new(cpu, MemoryMib::mib(rng.u64_in(0, 8192))).with_net(net);
                    config.set_node_capacity(node, capacity).unwrap();
                    assert_eq!(config.node(node).unwrap().capacity(), capacity);
                }
                (_, Some(vm)) => {
                    config.remove_vm(vm).unwrap();
                }
            }
            assert_ledger_matches_the_oracle(&config);
        }

        let mut rebuilt = Configuration::new();
        for node in config.nodes() {
            rebuilt.add_node(node.clone()).unwrap();
        }
        for vm in config.vms() {
            rebuilt.add_vm(vm.clone()).unwrap();
            rebuilt
                .set_assignment(vm.id, config.assignment(vm.id).unwrap())
                .unwrap();
        }
        assert_eq!(config.clone(), rebuilt);
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

/// What a [`Configuration`] holds, in the plain maps it used to be made of:
/// the oracle of the sharing walk below.
#[derive(Clone, Default, PartialEq)]
struct PlainModel {
    nodes: BTreeMap<NodeId, Node>,
    vms: BTreeMap<VmId, (Vm, VmAssignment)>,
}

/// Every read of `config` answers what `model` holds: lookups (hits and
/// misses), iteration order, the listings, the ledger, `validate()`.
fn assert_equals_the_model(config: &Configuration, model: &PlainModel, ids: &[u32]) {
    assert_eq!(config.vm_count(), model.vms.len());
    assert_eq!(config.node_count(), model.nodes.len());
    let (vm_ids, records): (Vec<VmId>, Vec<&Vm>) =
        model.vms.iter().map(|(&id, e)| (id, &e.0)).unzip();
    assert_eq!(config.vm_ids(), vm_ids);
    assert_eq!(config.vms().collect::<Vec<_>>(), records);
    assert_eq!(
        config.node_ids(),
        model.nodes.keys().copied().collect::<Vec<_>>()
    );
    assert_eq!(
        config.nodes().collect::<Vec<_>>(),
        model.nodes.values().collect::<Vec<_>>()
    );
    for &id in ids {
        let held = model.vms.get(&VmId(id));
        assert_eq!(config.vm(VmId(id)).ok(), held.map(|e| &e.0));
        assert_eq!(config.assignment(VmId(id)).ok(), held.map(|e| e.1));
        assert_eq!(config.node(NodeId(id)).ok(), model.nodes.get(&NodeId(id)));
    }
    for state in VmState::ALL {
        let in_state = model.vms.iter().filter(|(_, e)| e.1.state == state);
        assert_eq!(
            config.vms_in_state(state),
            in_state.map(|(&id, _)| id).collect::<Vec<_>>()
        );
    }
    let mut running = 0;
    for (&node, record) in &model.nodes {
        let mut usage = ResourceUsage::empty(record.capacity());
        for (vm, assignment) in model.vms.values() {
            if assignment.host == Some(node) {
                usage.add(&vm.demand());
                running += 1;
            }
        }
        assert_eq!(config.usage(node).unwrap(), usage, "usage({node})");
    }
    assert_eq!(config.running_count(), running);
    config.validate().unwrap();
}

/// The chunked, copy-on-write representation is invisible: through a seeded
/// walk of every mutation, over several clones kept alive and mutated in
/// their own right, each configuration answers like the plain-map model kept
/// beside it — and for every pair of live clones `==` is the models' `==`
/// and `changed_vms` / `changed_nodes` list exactly the ids a brute-force
/// comparison of the two models finds, whichever chunks the two still share.
/// Ids are dense, straddle chunk borders, and include `u32::MAX`.
#[test]
fn clones_that_share_chunks_behave_like_plain_maps() {
    let ids: Vec<u32> = (0..24)
        .chain([254, 255, 256, 257, 511, 512, 70_000, u32::MAX - 1, u32::MAX])
        .collect();
    let mut rng = SmallRng::seed_from_u64(0xA7);
    for _ in 0..48 {
        let mut live: Vec<(Configuration, PlainModel)> = vec![Default::default()];
        for step in 0..150 {
            let at = rng.index(live.len());
            let (config, model) = &mut live[at];
            let id = ids[rng.index(ids.len())];
            let (vm, node) = (VmId(id), NodeId(ids[rng.index(ids.len())]));
            let cpu = CpuCapacity::percent(rng.u64_in(0, 3) as u32 * 50);
            let net = NetBandwidth::mbps(rng.u64_in(0, 2) * 250);
            let assignment = match rng.u64_in(0, 4) {
                0 => VmAssignment::waiting(),
                1 => VmAssignment::running(node),
                2 => VmAssignment::sleeping(node),
                _ => VmAssignment::terminated(),
            };
            let node_known =
                model.nodes.contains_key(&node) || assignment.host.or(assignment.image).is_none();
            // The first steps populate; later ones mostly rewrite.
            match (
                rng.u64_in(0, if step < 30 { 3 } else { 9 }),
                model.vms.get_mut(&vm),
            ) {
                (0, _) => {
                    let record = Node::new(NodeId(id), cpu, MemoryMib::gib(4));
                    let fresh = !model.nodes.contains_key(&record.id);
                    assert_eq!(config.add_node(record.clone()).is_ok(), fresh);
                    model.nodes.entry(record.id).or_insert(record);
                }
                (1 | 2, held) => {
                    let record =
                        Vm::new(vm, MemoryMib::mib(rng.u64_in(64, 2048)), cpu).with_net(net);
                    assert_eq!(config.add_vm(record.clone()).is_ok(), held.is_none());
                    let waiting = (record, VmAssignment::waiting());
                    model.vms.entry(vm).or_insert(waiting);
                }
                (3, held) => {
                    assert_eq!(config.remove_vm(vm).ok(), held.map(|e| e.0.clone()));
                    model.vms.remove(&vm);
                }
                (4, held) => {
                    let accepted = config.set_assignment(vm, assignment).is_ok();
                    assert_eq!(accepted, held.is_some() && node_known);
                    if let (true, Some(entry)) = (accepted, held) {
                        entry.1 = assignment;
                    }
                }
                (5, held) => {
                    let legal = held
                        .as_ref()
                        .is_some_and(|e| e.1.state.can_transition_to(assignment.state));
                    let accepted = config.transition(vm, assignment).is_ok();
                    assert_eq!(accepted, legal && node_known);
                    if let (true, Some(entry)) = (accepted, held) {
                        entry.1 = assignment;
                    }
                }
                (6 | 7, held) => {
                    // Half of the observations repeat what is recorded.
                    let repeated = held.as_ref().filter(|_| rng.bool_with(0.5));
                    let (cpu, net) = repeated.map_or((cpu, net), |e| (e.0.cpu, e.0.net));
                    let moved = held.as_ref().map(|e| (e.0.cpu, e.0.net) != (cpu, net));
                    assert_eq!(config.set_vm_demand(vm, cpu, net).ok(), moved);
                    if let Some(entry) = held {
                        (entry.0.cpu, entry.0.net) = (cpu, net);
                    }
                }
                _ => {
                    let capacity =
                        ResourceDemand::new(cpu, MemoryMib::gib(rng.u64_in(1, 3))).with_net(net);
                    let held = model.nodes.get_mut(&node);
                    assert_eq!(
                        config.set_node_capacity(node, capacity).is_ok(),
                        held.is_some()
                    );
                    if let Some(record) = held {
                        (record.cpu, record.memory, record.net) =
                            (capacity.cpu, capacity.memory, capacity.net);
                    }
                }
            }
            assert_equals_the_model(config, model, &ids);

            // Keep a clone of this one alive, or let one go.
            if rng.bool_with(0.15) {
                if live.len() < 5 {
                    let copy = live[at].clone();
                    live.push(copy);
                } else {
                    live.swap_remove(rng.index(live.len()));
                }
            }
            for (a, (config_a, model_a)) in live.iter().enumerate() {
                for (config_b, model_b) in &live[a + 1..] {
                    assert_eq!(config_a == config_b, model_a == model_b);
                    let vms = model_a.vms.keys().chain(model_b.vms.keys());
                    let mut differing: Vec<VmId> = vms
                        .filter(|vm| model_a.vms.get(vm) != model_b.vms.get(vm))
                        .copied()
                        .collect();
                    differing.sort();
                    differing.dedup();
                    assert_eq!(
                        config_a.changed_vms(config_b).collect::<Vec<_>>(),
                        differing
                    );
                    assert_eq!(
                        config_b.changed_vms(config_a).collect::<Vec<_>>(),
                        differing
                    );
                    let nodes = model_a.nodes.keys().chain(model_b.nodes.keys());
                    let mut differing: Vec<NodeId> = nodes
                        .filter(|node| model_a.nodes.get(node) != model_b.nodes.get(node))
                        .copied()
                        .collect();
                    differing.sort();
                    differing.dedup();
                    assert_eq!(
                        config_a.changed_nodes(config_b).collect::<Vec<_>>(),
                        differing
                    );
                    assert_eq!(
                        config_b.changed_nodes(config_a).collect::<Vec<_>>(),
                        differing
                    );
                }
            }
        }

        // And a configuration built from a model alone — no chunk shared with
        // anything — is the same value.
        for (config, model) in &live {
            let mut rebuilt = Configuration::new();
            for node in model.nodes.values() {
                rebuilt.add_node(node.clone()).unwrap();
            }
            for (vm, assignment) in model.vms.values() {
                rebuilt.add_vm(vm.clone()).unwrap();
                rebuilt.set_assignment(vm.id, *assignment).unwrap();
            }
            assert_eq!(config, &rebuilt);
            assert_eq!(config.changed_vms(&rebuilt).count(), 0);
            assert_eq!(config.changed_nodes(&rebuilt).count(), 0);
        }
    }
}

//! Property test of the decision module's kept packing: one long-lived
//! [`FcfsConsolidation`] driven through random tick sequences must return,
//! every tick, the [`Decision`](cwcs_core::Decision) — or the error — a
//! module built for that tick alone returns for the same inputs.
//!
//! A tick draws from everything that moves a real loop's inputs: vjobs
//! arrive, complete, are committed to the state the last decision asked for
//! (Waiting → Running → Sleeping → Running → Terminated, their VMs following
//! on the proof placement), observed demands drift, priorities change, node
//! capacities change, a terminated vjob leaves the queue with its VMs, a vjob's
//! state moves without its VMs, and — rarely — a vjob names a VM the
//! configuration does not hold.  VM and node
//! ids are strided so the configuration spans several chunks.
//!
//! The container has no crates.io access, so `proptest` is replaced by a
//! deterministic [`SmallRng`] driver — same seed, same cases, every run.

use std::collections::BTreeSet;

use cwcs_core::{DecisionModule, FcfsConsolidation};
use cwcs_model::{
    Configuration, CpuCapacity, MemoryMib, NetBandwidth, Node, NodeId, ResourceDemand, SmallRng,
    Vjob, VjobId, VjobState, Vm, VmAssignment, VmId,
};

const CASES: u64 = 32;
const TICKS: usize = 60;

struct World {
    config: Configuration,
    vjobs: Vec<Vjob>,
    completed: BTreeSet<VjobId>,
    next_vm: u32,
    next_vjob: u32,
}

impl World {
    fn new(rng: &mut SmallRng) -> Self {
        let mut config = Configuration::new();
        for i in 0..rng.u64_in(2, 7) as u32 {
            let node = Node::new(NodeId(i * 100), CpuCapacity::cores(2), MemoryMib::gib(4));
            config.add_node(node).unwrap();
        }
        World {
            config,
            vjobs: Vec::new(),
            completed: BTreeSet::new(),
            next_vm: 0,
            next_vjob: 0,
        }
    }

    fn arrive(&mut self, rng: &mut SmallRng) {
        let vms: Vec<VmId> = (0..rng.u64_in(1, 4))
            .map(|_| {
                self.next_vm += rng.u64_in(1, 90) as u32;
                let memory = MemoryMib::mib(256 << rng.u64_in(0, 3));
                let cpu = CpuCapacity::percent(rng.u64_in(0, 3) as u32 * 50);
                let vm = Vm::new(VmId(self.next_vm), memory, cpu);
                self.config.add_vm(vm).unwrap();
                VmId(self.next_vm)
            })
            .collect();
        let order = self.next_vjob as u64;
        self.vjobs
            .push(Vjob::new(VjobId(self.next_vjob), vms, order));
        self.next_vjob += 1;
    }

    /// Bring `vjob` to the state the decision asked for, its VMs with it.
    fn commit(&mut self, at: usize, decision: &cwcs_core::Decision) {
        let vjob = &mut self.vjobs[at];
        let Some(&wanted) = decision.vjob_states.get(&vjob.id) else {
            return;
        };
        if wanted == vjob.state || !vjob.state.can_transition_to(wanted) {
            return;
        }
        for &vm in &vjob.vms {
            let now = self.config.assignment(vm).unwrap();
            let next = match wanted {
                VjobState::Running => VmAssignment::running(decision.proof_placement[&vm]),
                // (A vjob the last arm of the walk below marked running has
                // VMs that never ran: they stay as they are.)
                VjobState::Sleeping => now.host.map_or(now, VmAssignment::sleeping),
                VjobState::Terminated => VmAssignment::terminated(),
                VjobState::Waiting => now,
            };
            self.config.set_assignment(vm, next).unwrap();
        }
        vjob.transition_to(wanted).unwrap();
        if wanted == VjobState::Terminated {
            self.completed.remove(&vjob.id);
        }
    }
}

#[test]
fn a_long_lived_module_decides_like_a_fresh_one() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xC0 + case);
        let mut world = World::new(&mut rng);
        let mut module = FcfsConsolidation::new();
        let mut last = None;
        for tick in 0..TICKS {
            // Most vjobs follow the last decision, some lag behind.
            if let Some(Ok(decision)) = &last {
                for at in 0..world.vjobs.len() {
                    if rng.bool_with(0.8) {
                        world.commit(at, decision);
                    }
                }
            }
            for _ in 0..rng.u64_in(0, 4) {
                let vjobs = world.vjobs.len();
                let at = rng.index(vjobs.max(1));
                match (rng.u64_in(0, 9), vjobs) {
                    (0 | 1, _) | (_, 0) => world.arrive(&mut rng),
                    (2, _) if world.vjobs[at].state == VjobState::Running => {
                        world.completed.insert(world.vjobs[at].id);
                    }
                    (3, _) => {
                        let vms = &world.vjobs[at].vms;
                        let vm = vms[rng.index(vms.len())];
                        let cpu = CpuCapacity::percent(rng.u64_in(0, 4) as u32 * 50);
                        // An unknown VM (next arm) has no demand to observe.
                        let _ = world.config.set_vm_demand(vm, cpu, NetBandwidth::ZERO);
                    }
                    (4, _) => world.vjobs[at].priority = rng.u64_in(0, 3) as u32,
                    (5, _) if rng.bool_with(0.3) => {
                        let nodes = world.config.node_ids();
                        let cores = rng.u64_in(1, 4) as u32;
                        let capacity =
                            ResourceDemand::new(CpuCapacity::cores(cores), MemoryMib::gib(4));
                        let node = nodes[rng.index(nodes.len())];
                        world.config.set_node_capacity(node, capacity).unwrap();
                    }
                    (6, _) if world.vjobs[at].state == VjobState::Terminated => {
                        for vm in world.vjobs.remove(at).vms {
                            // The unknown VM of the next arm was never held.
                            let _ = world.config.remove_vm(vm);
                        }
                    }
                    (7, _) if rng.bool_with(0.1) => world.vjobs[at].vms.push(VmId(u32::MAX)),
                    // A vjob state that moves on its own, no VM with it.
                    (8, _) if world.vjobs[at].state == VjobState::Waiting => {
                        world.vjobs[at].transition_to(VjobState::Running).unwrap();
                    }
                    _ => {}
                }
            }
            let fresh =
                FcfsConsolidation::new().decide(&world.config, &world.vjobs, &world.completed);
            let kept = module.decide(&world.config, &world.vjobs, &world.completed);
            assert_eq!(kept, fresh, "case {case}, tick {tick}");
            if kept.is_err() {
                // Whoever named the unknown VM drops it again.
                for vjob in &mut world.vjobs {
                    vjob.vms.retain(|&vm| vm != VmId(u32::MAX));
                }
            }
            last = Some(kept);
        }
        world.config.validate().unwrap();
    }
}

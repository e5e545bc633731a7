//! Property test of the decision module's kept packing: one long-lived
//! [`FcfsConsolidation`] driven through random tick sequences must return,
//! every tick, the [`Decision`] — or the error — a module built for that
//! tick alone returns for the same inputs; and the transitions either module
//! lists, walking its queue, must be the ones [`Decision::new`] derives from
//! its decided states.  A second test feeds a long-lived module the list of
//! the vjobs that changed, as the control loop does
//! ([`DecisionModule::decide_changed`]), and holds it to one that walks the
//! slice and to a fresh one.
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

use std::collections::{BTreeMap, BTreeSet};

use cwcs_core::{Decision, DecisionModule, FcfsConsolidation};
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
    /// Returns whether its state moved.
    fn commit(&mut self, at: usize, decision: &Decision) -> bool {
        let proof: BTreeMap<VmId, NodeId> = decision.proof_placement.iter().copied().collect();
        let vjob = &mut self.vjobs[at];
        let Some(&wanted) = decision.vjob_states.get(&vjob.id) else {
            return false;
        };
        if wanted == vjob.state || !vjob.state.can_transition_to(wanted) {
            return false;
        }
        for &vm in &vjob.vms {
            let now = self.config.assignment(vm).unwrap();
            let next = match wanted {
                VjobState::Running => VmAssignment::running(proof[&vm]),
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
        true
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
            // Either module's transitions, found walking its queue, are the
            // ones derived from its decided states, index by index.
            for decision in [&kept, &fresh].into_iter().flatten() {
                let states = decision.vjob_states.clone();
                let derived = Decision::new(&world.vjobs, states, Vec::new());
                let (listed, derived) = (decision.transitions(), derived.transitions());
                assert_eq!(listed, derived, "case {case}, tick {tick}");
            }
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

/// Seeded streams of the list test, and ticks per stream.
const STREAMS: u64 = 8;
const STREAM_TICKS: usize = 80;

#[test]
fn a_module_told_the_changes_decides_like_one_that_walks() {
    // What the streams did, over all of them: arrivals, completions,
    // transitions left uncommitted, decides with two queued vjobs of one
    // priority, forgets and failed decides.
    let mut seen = [0; 6];
    for stream in 0..STREAMS {
        let mut rng = SmallRng::seed_from_u64(0x11_57ED + stream);
        let mut world = World::new(&mut rng);
        let mut listed = FcfsConsolidation::new();
        let mut walking = FcfsConsolidation::new();
        // The indices of the vjobs changed since the last decide, as the
        // control loop lists them: an appended vjob is not listed.
        let mut changes: Vec<usize> = Vec::new();
        let mut last: Option<Result<Decision, _>> = None;
        for tick in 0..STREAM_TICKS {
            // Most transitions are committed; the others are left as a
            // failed action leaves them, and the next decide lists them again.
            if let Some(Ok(decision)) = &last {
                for at in 0..world.vjobs.len() {
                    if !decision.vjob_states.contains_key(&world.vjobs[at].id) {
                        continue;
                    }
                    if rng.bool_with(0.7) {
                        if world.commit(at, decision) {
                            changes.push(at);
                        }
                    } else {
                        seen[2] += 1;
                    }
                }
            }
            for _ in 0..rng.u64_in(0, 5) {
                let vjobs = world.vjobs.len();
                let at = rng.index(vjobs.max(1));
                match (rng.u64_in(0, 8), vjobs) {
                    (0 | 1, _) | (_, 0) => {
                        world.arrive(&mut rng);
                        seen[0] += 1;
                    }
                    (2, _) if world.vjobs[at].state == VjobState::Running => {
                        let reported = world.completed.insert(world.vjobs[at].id);
                        changes.extend(reported.then_some(at));
                        seen[1] += usize::from(reported);
                    }
                    (3, _) => {
                        let vms = &world.vjobs[at].vms;
                        let vm = vms[rng.index(vms.len())];
                        let cpu = CpuCapacity::percent(rng.u64_in(0, 4) as u32 * 50);
                        let _ = world.config.set_vm_demand(vm, cpu, NetBandwidth::ZERO);
                    }
                    // Few priorities: equal ones are the rule.
                    (4, _) => {
                        world.vjobs[at].priority = rng.u64_in(0, 2) as u32;
                        changes.push(at);
                    }
                    (5, _) if rng.bool_with(0.3) => {
                        let nodes = world.config.node_ids();
                        let cores = rng.u64_in(1, 4) as u32;
                        let capacity =
                            ResourceDemand::new(CpuCapacity::cores(cores), MemoryMib::gib(4));
                        let node = nodes[rng.index(nodes.len())];
                        world.config.set_node_capacity(node, capacity).unwrap();
                    }
                    (6, _) if rng.bool_with(0.15) => {
                        world.vjobs[at].vms.push(VmId(u32::MAX));
                        changes.push(at);
                    }
                    (7, _) if rng.bool_with(0.25) => {
                        listed.forget();
                        seen[4] += 1;
                    }
                    _ => {}
                }
            }
            let queued = world
                .vjobs
                .iter()
                .filter(|j| j.state != VjobState::Terminated);
            let mut priorities: Vec<u32> = queued.map(|j| j.priority).collect();
            priorities.sort_unstable();
            let count = priorities.len();
            priorities.dedup();
            seen[3] += usize::from(priorities.len() < count);

            let (config, vjobs, completed) = (&world.config, &world.vjobs, &world.completed);
            let fresh = FcfsConsolidation::new().decide(config, vjobs, completed);
            let told = listed.decide_changed(config, vjobs, completed, &changes);
            changes.clear();
            let walked = walking.decide(config, vjobs, completed);
            assert_eq!(told, walked, "stream {stream}, tick {tick}");
            assert_eq!(told, fresh, "stream {stream}, tick {tick}");
            if told.is_err() {
                seen[5] += 1;
                // Whoever named the unknown VM drops it again.
                for (at, vjob) in world.vjobs.iter_mut().enumerate() {
                    if vjob.vms.contains(&VmId(u32::MAX)) {
                        vjob.vms.retain(|&vm| vm != VmId(u32::MAX));
                        changes.push(at);
                    }
                }
            }
            last = Some(told);
        }
        world.config.validate().unwrap();
    }
    // Every regime the list must cover was reached.
    assert!(seen.iter().all(|&n| n >= 10), "{seen:?}");
}

//! The allocation gate of the decision module: packing a vjob again
//! allocates nothing, and neither does a vjob that did not change.
//!
//! This binary installs a counting global allocator (which is why it is a
//! test binary of its own: the counter is per thread, and each test counts
//! its own).  On a settled 2 000-node / 2 000-vjob FCFS queue, the first test
//! counts the allocations of two decides of one long-lived
//! [`FcfsConsolidation`]: one after a VM of the vjob at queue position 1
//! changed its demand — nearly the whole queue is packed again — and one
//! after a VM of the last vjob did — one vjob is.  The two counts may differ
//! by a fixed constant only: the kept packing is flat and the first-fit
//! buffers are reused, so the per-vjob work allocates nothing, whatever the
//! number of vjobs packed again.  The second counts the decides the control
//! loop makes on a quiet tick, told the vjobs that changed
//! ([`DecisionModule::decide_changed`]): they allocate exactly as often on
//! 2 000 vjobs as on 200.
//!
//! Allocation counts are exact on any machine, which the wall-clock figures
//! of the benchmark are not.

// The one unsafe item is the allocator shim below.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};

use cwcs_core::{DecisionModule, FcfsConsolidation};
use cwcs_model::{
    Configuration, CpuCapacity, MemoryMib, NetBandwidth, Node, NodeId, Vjob, VjobId, VjobState, Vm,
    VmAssignment, VmId,
};

thread_local! {
    /// Calls to `alloc` and `realloc` on this thread since it started.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    ALLOCATIONS.with(|count| count.set(count.get() + 1));
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's contract is `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const NODES: u32 = 2_000;
const VJOBS: u32 = 2_000;

/// What packing ~2 000 vjobs again may allocate beyond packing one: a
/// handful of table growths, never one allocation per vjob (a packing that
/// copies each vjob's VM list and hosts makes about six per vjob).
const REPACK_BUDGET: u64 = 256;

fn counted<R>(work: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = work();
    (result, ALLOCATIONS.with(Cell::get) - before)
}

/// `nodes` two-core / 4 GiB nodes and a queue of `jobs` two-VM vjobs of
/// mixed demands that about fills them when there are as many, committed to
/// the states and hosts a first decide chose; `module` has decided on it
/// again since.
fn settled_queue(
    module: &mut FcfsConsolidation,
    nodes: u32,
    jobs: u32,
) -> (Configuration, Vec<Vjob>) {
    let mut config = Configuration::new();
    for node in 0..nodes {
        let record = Node::new(NodeId(node), CpuCapacity::cores(2), MemoryMib::gib(4));
        config.add_node(record).unwrap();
    }
    let mut vjobs = Vec::new();
    for job in 0..jobs {
        let vms = vec![VmId(2 * job), VmId(2 * job + 1)];
        for (k, &vm) in (0..).zip(&vms) {
            let cpu = CpuCapacity::percent(25 * ((job + k) % 7 + 1));
            let memory = MemoryMib::mib(512 * u64::from((3 * job + k) % 5 + 1));
            config.add_vm(Vm::new(vm, memory, cpu)).unwrap();
        }
        vjobs.push(Vjob::new(VjobId(job), vms, u64::from(job)));
    }
    let decision = module.decide(&config, &vjobs, &BTreeSet::new()).unwrap();
    let proof: BTreeMap<VmId, NodeId> = decision.proof_placement.iter().copied().collect();
    for vjob in &mut vjobs {
        // Listed, else the vjob keeps its state.
        let wanted = decision.vjob_states.get(&vjob.id).copied();
        if wanted.unwrap_or(vjob.state) == VjobState::Running {
            vjob.transition_to(VjobState::Running).unwrap();
            for vm in &vjob.vms {
                let host = VmAssignment::running(proof[vm]);
                config.set_assignment(*vm, host).unwrap();
            }
        }
    }
    module.decide(&config, &vjobs, &BTreeSet::new()).unwrap();
    (config, vjobs)
}

#[test]
fn packing_a_vjob_again_allocates_nothing() {
    let mut module = FcfsConsolidation::new();
    let (mut config, vjobs) = settled_queue(&mut module, NODES, VJOBS);
    let none = BTreeSet::new();
    // Turn the demand of `vm` to `percent` of a core and decide.
    let mut decide_after = |vm: VmId, percent: u32| {
        let cpu = CpuCapacity::percent(percent);
        assert!(config.set_vm_demand(vm, cpu, NetBandwidth::ZERO).unwrap());
        counted(|| module.decide(&config, &vjobs, &none).unwrap()).1
    };
    let near_head = vjobs[1].vms[0];
    let tail = vjobs[VJOBS as usize - 1].vms[1];
    // One round to let every buffer reach its size, then the counted one.
    decide_after(near_head, 5);
    decide_after(tail, 5);
    let repack_nearly_all = decide_after(near_head, 10);
    let repack_one = decide_after(tail, 10);
    assert!(
        repack_nearly_all <= repack_one + REPACK_BUDGET,
        "packing {} vjobs again allocated {repack_nearly_all} times, packing one {repack_one}",
        VJOBS - 1
    );
}

#[test]
fn a_quiet_decide_told_its_changes_allocates_the_same_on_any_queue() {
    // The decides of quiet control-loop ticks: one with nothing listed, and
    // two told of the last vjob as its completion comes and goes.
    let quiet_ticks = |jobs: u32| {
        let mut module = FcfsConsolidation::new();
        let (config, vjobs) = settled_queue(&mut module, jobs, jobs);
        let last = vjobs.len() - 1;
        let none = BTreeSet::new();
        let completed: BTreeSet<VjobId> = [vjobs[last].id].into();
        let mut decide = |completed: &BTreeSet<VjobId>, changed: &[usize]| {
            let decided = counted(|| module.decide_changed(&config, &vjobs, completed, changed));
            assert!(decided.0.is_ok());
            decided.1
        };
        // One round to let every buffer reach its size, then the counted one.
        decide(&completed, &[last]);
        decide(&none, &[last]);
        [
            decide(&none, &[]),
            decide(&completed, &[last]),
            decide(&none, &[last]),
        ]
    };
    assert_eq!(quiet_ticks(VJOBS), quiet_ticks(VJOBS / 10));
}

//! The allocation gate of the copy-on-write [`Configuration`]: sharing must
//! not silently degrade into copying.
//!
//! This binary installs a counting global allocator (which is why it is a
//! test binary of its own, with a single test: the counter is process-wide)
//! and, on the `quiet_trickle` shape of the repo benchmark — 10 000 nodes,
//! 60 000 running VMs —
//!
//! * clones the configuration, moves ten VMs of ten different chunks in the
//!   clone, lists `changed_vms` and drops the clone: a bounded number of
//!   allocations, two orders of magnitude below the ≥ 10 000 (one `String`
//!   per node record) a deep copy makes;
//! * re-observes the recorded demand of every VM while a clone shares every
//!   chunk: nothing may be allocated, because a write that changes nothing
//!   must not take a chunk of its own;
//! * writes a new demand into ten VMs of ten different chunks a clone
//!   shares: each write copies its VM chunk and its host's ledger chunk and
//!   nothing per record, because a VM record is plain data (a record that
//!   owned a `String` would cost 256 allocations per chunk copy, ≥ 2 560).
//!
//! Allocation counts are exact on any machine, which the wall-clock figures
//! of the benchmark are not.

// The one unsafe item is the allocator shim below.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use cwcs_model::{
    Configuration, CpuCapacity, MemoryMib, NetBandwidth, Node, NodeId, Vm, VmAssignment, VmId,
};

/// Calls to `alloc` and `realloc` since the process started.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's contract is `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const NODES: u32 = 10_000;
const VMS_PER_NODE: u32 = 6;

/// Allocations of clone + ten moves + `changed_vms` + drop: the four chunk
/// lists of the clone, then per move a copy of one assignments chunk and of
/// up to two ledger chunks (an `Arc` and a `Vec` each), and the result list.
const MOVES_BUDGET: u64 = 128;

/// Allocations of ten demand writes into ten VM chunks a clone shares: per
/// write a copy of the VM chunk and of the host's ledger chunk, an `Arc` and
/// a `Vec` each.
const DEMANDS_BUDGET: u64 = 10 * 2 * 2;

fn counted<R>(work: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let result = work();
    (result, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

#[test]
fn sharing_does_not_degrade_into_copying() {
    let mut config = Configuration::new();
    for node in 0..NODES {
        let record = Node::new(NodeId(node), CpuCapacity::cores(8), MemoryMib::gib(16));
        config.add_node(record).unwrap();
    }
    for vm in 0..NODES * VMS_PER_NODE {
        let record = Vm::new(VmId(vm), MemoryMib::mib(512), CpuCapacity::percent(20));
        config.add_vm(record).unwrap();
        let host = VmAssignment::running(NodeId(vm / VMS_PER_NODE));
        config.set_assignment(VmId(vm), host).unwrap();
    }

    // Ten VMs, 6 007 ids apart, each to the node 5 000 further on.
    let moved: Vec<VmId> = (0..10).map(|i| VmId(i * 6_007)).collect();
    let (changed, allocations) = counted(|| {
        let mut target = config.clone();
        for &vm in &moved {
            let host = target.host(vm).unwrap().expect("every VM runs");
            let next = VmAssignment::running(NodeId((host.0 + NODES / 2) % NODES));
            target.set_assignment(vm, next).unwrap();
        }
        target.changed_vms(&config).collect::<Vec<_>>()
    });
    assert_eq!(changed, moved);
    assert!(
        allocations <= MOVES_BUDGET,
        "a clone, ten moves and their difference allocated {allocations} times"
    );

    let observed: Vec<_> = config.vms().map(|vm| (vm.id, vm.cpu, vm.net)).collect();
    let snapshot = config.clone();
    let (_, allocations) = counted(|| {
        for &(vm, cpu, net) in &observed {
            assert_eq!(config.set_vm_demand(vm, cpu, net), Ok(false));
        }
    });
    assert_eq!(
        allocations, 0,
        "re-observing unchanged demands must leave every chunk shared"
    );
    assert_eq!(config.changed_vms(&snapshot).count(), 0);

    let (_, allocations) = counted(|| {
        for &vm in &moved {
            let moved_demand =
                config.set_vm_demand(vm, CpuCapacity::percent(30), NetBandwidth::ZERO);
            assert_eq!(moved_demand, Ok(true));
        }
    });
    assert!(
        allocations <= DEMANDS_BUDGET,
        "ten demand writes into shared chunks allocated {allocations} times"
    );
    assert_eq!(config.changed_vms(&snapshot).collect::<Vec<_>>(), moved);
}

//! A portfolio race hands its caller nothing its workers allocated.
//!
//! With glibc's per-thread arenas a block allocated on a worker and freed
//! on the caller's thread goes into the caller's cache, and the next vector
//! of that size class the caller grows from it grows inside the worker's
//! arena: a long-running control loop would keep megabytes there that its
//! own heap cannot trim, more or fewer from one run to the next.  This
//! binary installs a global allocator that tags every block with whether a
//! thread other than the test's allocated it while the gate was armed, and
//! counts the tagged blocks the test's thread frees or grows (a `realloc`
//! is an allocation plus a free here).  A deterministic 2-worker race that
//! finds a solution, the use of that solution and its drop must count
//! none.  It is a test binary of its own, with a single test: the tags are
//! process-wide.

// The one unsafe item is the allocator shim below.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use cwcs_model::SmallRng;
use cwcs_solver::constraints::MultiDimPacking;
use cwcs_solver::portfolio::{PortfolioConfig, PortfolioSearch};
use cwcs_solver::search::SearchConfig;
use cwcs_solver::{AnchoredCost, CostRow, Model, VarId};

/// Blocks are tagged only while this is set.
static ARMED: AtomicBool = AtomicBool::new(false);
/// Tagged blocks allocated so far: the workers did allocate.
static FOREIGN_ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Tagged blocks the test's thread freed.
static CROSSED: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set on the test's own thread.
    static CALLER: Cell<bool> = const { Cell::new(false) };
}

fn on_caller() -> bool {
    CALLER.try_with(Cell::get).unwrap_or(false)
}

/// Tag byte written just before the block a caller receives.
const HOME: u8 = 0;
const FOREIGN: u8 = 1;

/// Room for the tag: a block is served `pad` bytes into a larger one, so
/// its alignment holds.
fn padded(layout: Layout) -> (Layout, usize) {
    let pad = layout.align().max(16);
    let outer = Layout::from_size_align(layout.size() + pad, pad).expect("a padded layout");
    (outer, pad)
}

struct Tagging;

// SAFETY: every block comes from `System` with the padded layout and is
// handed out `pad` bytes in, which keeps the requested size and alignment;
// `dealloc` recomputes the same padding from the same layout.  `realloc` is
// the trait's default (allocate, copy, free), built on these two.
unsafe impl GlobalAlloc for Tagging {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let (outer, pad) = padded(layout);
        // SAFETY: `outer` has a non-zero size.
        let base = unsafe { System.alloc(outer) };
        if base.is_null() {
            return base;
        }
        let tag = if ARMED.load(Ordering::Relaxed) && !on_caller() {
            FOREIGN_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            FOREIGN
        } else {
            HOME
        };
        // SAFETY: `pad` ≥ 1 bytes precede the block inside `outer`.
        unsafe {
            base.add(pad - 1).write(tag);
            base.add(pad)
        }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let (outer, pad) = padded(layout);
        // SAFETY: `ptr` was handed out by `alloc` above, `pad` bytes into a
        // block of layout `outer`, with its tag just before it.
        unsafe {
            if ptr.sub(1).read() == FOREIGN && on_caller() {
                CROSSED.fetch_add(1, Ordering::Relaxed);
            }
            System.dealloc(ptr.sub(pad), outer);
        }
    }
}

#[global_allocator]
static ALLOCATOR: Tagging = Tagging;

const ITEMS: usize = 40;
const BINS: usize = 12;
const DIMS: usize = 2;

#[test]
fn a_race_frees_no_worker_allocation_on_the_callers_thread() {
    // A loose packing with anchored costs: every item fits on any bin, so
    // both workers find solutions and one of them wins.
    let mut rng = SmallRng::seed_from_u64(7);
    let sizes: Vec<Vec<u64>> = (0..DIMS)
        .map(|_| (0..ITEMS).map(|_| rng.u64_in(1, 5)).collect())
        .collect();
    let capacities = vec![vec![40; BINS]; DIMS];
    let mut model = Model::new();
    let vars: Vec<VarId> = (0..ITEMS)
        .map(|_| model.new_var(0, BINS as u32 - 1))
        .collect();
    MultiDimPacking::post(&mut model, &vars, &sizes, &capacities, DIMS);
    let rows: Vec<CostRow> = (0..ITEMS)
        .map(|i| CostRow {
            anchor: Some(rng.index(BINS) as u32),
            at_anchor: 0,
            elsewhere: sizes[0][i],
        })
        .collect();
    let objective = AnchoredCost::post(&mut model, &vars, &rows, &[], &[]);
    let config = SearchConfig {
        node_limit: Some(500),
        ..Default::default()
    };
    let race = PortfolioConfig::with_workers(2);

    CALLER.with(|caller| caller.set(true));
    ARMED.store(true, Ordering::Relaxed);
    let outcome = PortfolioSearch::new(&model, config, race).minimize(&objective);
    let best = outcome.best.as_ref().expect("the race finds a packing");
    let placed: Vec<u32> = vars.iter().map(|&var| best.value(var)).collect();
    let workers = outcome.portfolio.workers.len();
    drop(outcome);
    ARMED.store(false, Ordering::Relaxed);

    assert_eq!(placed.len(), ITEMS);
    assert_eq!(workers, 2, "the race ran on two workers");
    let foreign = FOREIGN_ALLOCATIONS.load(Ordering::Relaxed);
    assert!(
        foreign > 0,
        "the workers allocated nothing: nothing was tested"
    );
    assert_eq!(
        CROSSED.load(Ordering::Relaxed),
        0,
        "the caller freed blocks its workers allocated ({foreign} worker allocations)"
    );
}

//! The allocation gate: a steady-state search node allocates nothing.
//!
//! This binary installs a counting global allocator (which is why it is a
//! test binary of its own, with a single test: the counter is process-wide)
//! and runs a packing search shaped like the `node_failures` sub-problem of
//! the repo benchmark — 161 items, 50 bins, 3 dimensions, a seeded
//! incumbent — serially and as a deterministic 2-worker race.  The number
//! of allocations of a whole search must be bounded by a constant plus a
//! few per improving solution (the [`cwcs_solver::Solution`] it keeps),
//! **whatever the node count**: doubling the node
//! budget may not move the constant.  It is the machine-independent work
//! counter behind the solver's nodes-per-second figures, exact on any box.

// The one unsafe item is the allocator shim below.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use cwcs_model::SmallRng;
use cwcs_solver::constraints::MultiDimPacking;
use cwcs_solver::portfolio::{PortfolioConfig, PortfolioSearch};
use cwcs_solver::search::{Search, SearchConfig};
use cwcs_solver::{AnchoredCost, CostRow, Model, SearchStats, VarId};

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

/// Allocations a search may make however many nodes it explores: model and
/// configuration copies, the store, the stacks growing to their depth, and
/// for a race the threads and one of each per worker.
const C0: u64 = 256;
/// Allocations per improving solution.
const C1: u64 = 4;

const ITEMS: usize = 161;
const BINS: usize = 50;
const DIMS: usize = 3;

/// A placement-like instance: a feasible target packing (the incumbent),
/// from which three items in ten have been displaced to a random "home" bin
/// they would rather stay on (cost 0 there, their first size elsewhere) —
/// the optimizer's anchored plan-cost estimate in miniature, posted into
/// the model.
struct Instance {
    model: Model,
    objective: AnchoredCost,
    config: SearchConfig,
}

fn instance(seed: u64) -> Instance {
    let mut rng = SmallRng::seed_from_u64(seed);
    let sizes: Vec<Vec<u64>> = (0..DIMS)
        .map(|_| (0..ITEMS).map(|_| rng.u64_in(1, 9)).collect())
        .collect();
    let target: Vec<u32> = (0..ITEMS).map(|_| rng.index(BINS) as u32).collect();
    // Each bin holds exactly its target load plus a little slack.
    let mut capacities = vec![vec![0u64; BINS]; DIMS];
    for (dim_sizes, dim_caps) in sizes.iter().zip(&mut capacities) {
        for (&size, &bin) in dim_sizes.iter().zip(&target) {
            dim_caps[bin as usize] += size;
        }
        for cap in dim_caps {
            *cap += rng.u64_in(0, 8);
        }
    }
    let home: Vec<u32> = target
        .iter()
        .map(|&bin| {
            if rng.bool_with(0.3) {
                rng.index(BINS) as u32
            } else {
                bin
            }
        })
        .collect();
    let mut model = Model::new();
    let vars: Vec<VarId> = (0..ITEMS)
        .map(|_| model.new_var(0, BINS as u32 - 1))
        .collect();
    MultiDimPacking::post(&mut model, &vars, &sizes, &capacities, DIMS);
    let rows: Vec<CostRow> = (0..ITEMS)
        .map(|i| CostRow {
            anchor: Some(home[i]),
            at_anchor: 0,
            elsewhere: sizes[0][i],
        })
        .collect();
    let objective = AnchoredCost::post(&mut model, &vars, &rows, &[], &[]);
    let config = SearchConfig {
        weights: (0..ITEMS)
            .map(|i| sizes.iter().map(|s| s[i]).sum())
            .collect(),
        preferred: home.iter().map(|&bin| Some(bin)).collect(),
        incumbent: Some(target),
        ..Default::default()
    };
    Instance {
        model,
        objective,
        config,
    }
}

/// Run `search` and return its statistics with the allocations it made.
fn counted(search: impl FnOnce() -> SearchStats) -> (SearchStats, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let stats = search();
    (stats, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

#[test]
fn allocations_do_not_grow_with_the_node_count() {
    let instance = instance(42);
    let objective = instance.objective;
    let budgeted = |node_limit: u64| SearchConfig {
        node_limit: Some(node_limit),
        ..instance.config.clone()
    };
    let serial = |node_limit: u64| {
        let config = budgeted(node_limit);
        counted(|| {
            Search::new(&instance.model, config)
                .minimize(&objective)
                .stats
        })
    };
    let race = |node_limit: u64| {
        let config = budgeted(node_limit);
        let race = PortfolioConfig::with_workers(2);
        counted(|| {
            PortfolioSearch::new(&instance.model, config, race)
                .minimize(&objective)
                .stats
        })
    };
    for (name, search) in [("serial", &serial as &dyn Fn(u64) -> _), ("race", &race)] {
        let mut previous: Option<(SearchStats, u64)> = None;
        for node_limit in [2_000, 4_000] {
            let (stats, allocations) = search(node_limit);
            // The budget binds, with real failures under it …
            assert!(
                !stats.completed,
                "{name} {node_limit}: the budget must bind"
            );
            assert!(stats.nodes >= node_limit, "{name} {node_limit}: {stats:?}");
            assert!(
                stats.failures > node_limit / 4,
                "{name} {node_limit}: {stats:?}"
            );
            // … and the allocations do not know how many nodes there were.
            assert!(
                allocations <= C0 + C1 * stats.solutions,
                "{name}, {} nodes: {allocations} allocations ({stats:?})",
                stats.nodes
            );
            if let Some((before, fewer)) = previous {
                let extra = stats.solutions - before.solutions;
                assert!(
                    allocations <= fewer + C1 * extra,
                    "{name}: {} more nodes cost {} more allocations",
                    stats.nodes - before.nodes,
                    allocations - fewer
                );
            }
            println!(
                "{name}, {} nodes: {allocations} allocations ({stats:?})",
                stats.nodes
            );
            previous = Some((stats, allocations));
        }
    }
}

//! Kernel micro-bench: what one search node costs, per model shape.
//!
//! The repo benchmark (`perf/`) reports `solver.nodes_per_s` per workload,
//! but a set takes eight minutes.  This bench runs one node-budgeted,
//! deterministic, single-threaded branch & bound on the three shapes those
//! workloads solve — `stream_arrivals` (600 VMs × 91 nodes × 3 dimensions),
//! `node_failures` (161 × 50 × 3) and `paper_batch` (45 × 11 × 2) — in a few
//! seconds, and prints nodes per second and microseconds per node for each.
//! The explored `(nodes, failures)` are asserted against constants: a kernel
//! change that moves them changed the search, not just its speed, and its
//! timings are not comparable.  So is the number of propagator executions
//! under those nodes, the machine-independent half of the price: a node wakes
//! the propagators of the variables its decision changed, and a change that
//! makes it run the whole model again moves that count long before a noisy
//! wall clock shows it.
//!
//! The instances are placement-like (same construction as
//! `cwcs-solver/tests/alloc_free_search.rs`): a feasible target packing is
//! the incumbent; three items in ten have been displaced to a random home
//! bin, where they cost nothing and which the value ordering tries first.
//! The objective is the optimizer's own bound, [`AnchoredCost`] posted into
//! the model, so its updates are among the counted propagator executions.

use cwcs_bench::BenchGroup;
use cwcs_model::SmallRng;
use cwcs_solver::constraints::MultiDimPacking;
use cwcs_solver::search::{RestartPolicy, Search, SearchConfig};
use cwcs_solver::{AnchoredCost, CostRow, Model, VarId};

struct Shape {
    items: usize,
    bins: usize,
    dims: usize,
    /// Node budget of one search.
    budget: u64,
    /// The `(nodes, failures)` that budget explores.
    explored: (u64, u64),
    /// The propagator executions under them.
    propagations: u64,
}

const SHAPES: [Shape; 3] = [
    Shape {
        items: 600,
        bins: 91,
        dims: 3,
        budget: 2_000,
        explored: (2_000, 256),
        propagations: 92_124,
    },
    Shape {
        items: 161,
        bins: 50,
        dims: 3,
        budget: 4_000,
        explored: (4_000, 1_858),
        propagations: 105_630,
    },
    Shape {
        items: 45,
        bins: 11,
        dims: 2,
        budget: 20_000,
        explored: (20_000, 14_574),
        propagations: 115_950,
    },
];

fn main() {
    let mut group = BenchGroup::new("solver_kernel");
    group.sample_size(10);
    for shape in &SHAPES {
        let &Shape {
            items, bins, dims, ..
        } = shape;
        let mut rng = SmallRng::seed_from_u64(42);
        let sizes: Vec<Vec<u64>> = (0..dims)
            .map(|_| (0..items).map(|_| rng.u64_in(1, 9)).collect())
            .collect();
        let target: Vec<u32> = (0..items).map(|_| rng.index(bins) as u32).collect();
        // Each bin holds exactly its target load plus a little slack.
        let mut capacities = vec![vec![0u64; bins]; dims];
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
                    rng.index(bins) as u32
                } else {
                    bin
                }
            })
            .collect();
        let mut model = Model::new();
        let vars: Vec<VarId> = (0..items)
            .map(|_| model.new_var(0, bins as u32 - 1))
            .collect();
        MultiDimPacking::post(&mut model, &vars, &sizes, &capacities, dims);
        let config = SearchConfig {
            weights: (0..items)
                .map(|i| sizes.iter().map(|s| s[i]).sum())
                .collect(),
            preferred: home.iter().map(|&bin| Some(bin)).collect(),
            node_limit: Some(shape.budget),
            incumbent: Some(target),
            restarts: Some(RestartPolicy::luby(64)),
            ..Default::default()
        };
        // The optimizer's plan-cost estimate in miniature: free at home, the
        // first size anywhere else.
        let rows: Vec<CostRow> = (0..items)
            .map(|i| CostRow {
                anchor: Some(home[i]),
                at_anchor: 0,
                elsewhere: sizes[0][i],
            })
            .collect();
        let objective = AnchoredCost::post(&mut model, &vars, &rows);

        let id = format!("{items}x{bins}x{dims}");
        let search = || {
            Search::new(&model, config.clone())
                .minimize(&objective)
                .stats
        };
        let stats = search();
        assert_eq!(
            (stats.nodes, stats.failures),
            shape.explored,
            "{id}: the kernel explored a different tree"
        );
        assert_eq!(
            stats.propagations, shape.propagations,
            "{id}: the same tree took other propagation work"
        );
        let median = group.bench(&id, search).as_secs_f64();
        println!(
            "solver_kernel/{id}: {} nodes, {} failures, {:.1} propagations/node: \
             {:.0} nodes/s, {:.2} µs/node",
            stats.nodes,
            stats.failures,
            stats.propagations as f64 / stats.nodes as f64,
            stats.nodes as f64 / median,
            median * 1e6 / stats.nodes as f64,
        );
    }
}

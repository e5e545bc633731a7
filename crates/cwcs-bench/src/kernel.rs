//! The solver kernel's instances: one node-budgeted, deterministic,
//! single-threaded branch & bound on each of the three model shapes the
//! repo benchmark (`perf/`) solves — `stream_arrivals` (600 VMs × 91 nodes
//! × 3 dimensions), `node_failures` (161 × 50 × 3) and `paper_batch`
//! (45 × 11 × 2).
//!
//! The `solver_kernel` bench times them (nodes per second, microseconds per
//! node); the `solver_kernel` test pins the `(nodes, failures)` each budget
//! explores and the propagator executions under them, so a kernel change
//! that moves the tree, or makes a node run the whole model again, fails
//! on any machine long before a noisy wall clock shows it.
//!
//! The instances are placement-like (same construction as
//! `cwcs-solver/tests/alloc_free_search.rs`): a feasible target packing is
//! the incumbent; three items in ten have been displaced to a random home
//! bin, where they cost nothing and which the value ordering tries first.
//! The objective is the optimizer's own bound, [`AnchoredCost`] posted into
//! the model, so its updates are among the counted propagator executions.

use cwcs_model::SmallRng;
use cwcs_solver::constraints::MultiDimPacking;
use cwcs_solver::search::{RestartPolicy, Search, SearchConfig, SearchStats};
use cwcs_solver::{AnchoredCost, CostRow, Model, VarId};

/// One model shape and the node budget of its search.
#[derive(Debug, Clone, Copy)]
pub struct KernelShape {
    /// Items (VMs) to place.
    pub items: usize,
    /// Bins (nodes).
    pub bins: usize,
    /// Resource dimensions.
    pub dims: usize,
    /// Node budget of one search.
    pub budget: u64,
}

/// The three shapes, in the order `stream_arrivals`, `node_failures`,
/// `paper_batch`.
pub const KERNEL_SHAPES: [KernelShape; 3] = [
    KernelShape {
        items: 600,
        bins: 91,
        dims: 3,
        budget: 2_000,
    },
    KernelShape {
        items: 161,
        bins: 50,
        dims: 3,
        budget: 4_000,
    },
    KernelShape {
        items: 45,
        bins: 11,
        dims: 2,
        budget: 20_000,
    },
];

/// A posted model, its search settings and its objective.
pub struct KernelInstance {
    model: Model,
    config: SearchConfig,
    objective: AnchoredCost,
}

impl KernelShape {
    /// `<items>x<bins>x<dims>`.
    pub fn id(&self) -> String {
        format!("{}x{}x{}", self.items, self.bins, self.dims)
    }

    /// The shape's seeded instance.
    pub fn instance(&self) -> KernelInstance {
        let &KernelShape {
            items, bins, dims, ..
        } = self;
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
            node_limit: Some(self.budget),
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
        KernelInstance {
            model,
            config,
            objective,
        }
    }
}

impl KernelInstance {
    /// Run the budgeted search once and return its statistics.
    pub fn search(&self) -> SearchStats {
        Search::new(&self.model, self.config.clone())
            .minimize(&self.objective)
            .stats
    }
}

//! The plan-cost bound kept on the trail against the scan it replaced
//! (seeded, like `property_solver.rs`).
//!
//! [`AnchoredCost`] keeps each variable's cheapest price and their sum in
//! trailed cells and reads the sum as its bound.  The oracle here is the
//! bound the optimizer computed before: at every node, scan every variable's
//! domain for its cheapest price.  Random anchored-cost instances — anchors
//! outside the domain or absent, `at_anchor` equal to, below and above
//! `elsewhere`, all-zero rows — over 1–3 packing dimensions are searched
//! with a seeded incumbent (so the search asks for the bound at every node
//! that survives propagation) and Luby restarts, serially and as a
//! deterministic 2-worker portfolio:
//!
//! * every bound asked equals the scan;
//! * every complete assignment is priced the per-variable sum of its
//!   values' prices, and so is the best solution returned.

use std::sync::atomic::{AtomicU64, Ordering};

use cwcs_model::SmallRng;
use cwcs_solver::constraints::MultiDimPacking;
use cwcs_solver::portfolio::{PortfolioConfig, PortfolioSearch};
use cwcs_solver::search::{RestartPolicy, Search, SearchConfig, ValueSelection, VariableSelection};
use cwcs_solver::{AnchoredCost, CostRow, DomainStore, Model, Objective, VarId};

const CASES: usize = 96;

/// Price of `value` under `row`.
fn price(row: &CostRow, value: u32) -> u64 {
    if row.anchor == Some(value) {
        row.at_anchor
    } else {
        row.elsewhere
    }
}

/// The objective under test, held to the oracle on every call.
struct Checked<'a> {
    cost: AnchoredCost,
    vars: &'a [VarId],
    rows: &'a [CostRow],
    bounds: AtomicU64,
    leaves: AtomicU64,
}

impl Checked<'_> {
    /// The old bound: every domain scanned for its cheapest price.
    fn scan(&self, store: &DomainStore) -> i64 {
        let cheapest = |(row, &var): (&CostRow, &VarId)| {
            let domain = store.domain(var);
            domain.iter().map(|value| price(row, value)).min().unwrap()
        };
        self.rows.iter().zip(self.vars).map(cheapest).sum::<u64>() as i64
    }

    /// The price of a complete assignment, variable by variable.
    fn sum(&self, values: impl Fn(VarId) -> u32) -> i64 {
        let priced = |(row, &var): (&CostRow, &VarId)| price(row, values(var));
        self.rows.iter().zip(self.vars).map(priced).sum::<u64>() as i64
    }
}

impl Objective for Checked<'_> {
    fn evaluate(&self, store: &DomainStore) -> i64 {
        assert!(store.all_fixed());
        self.leaves.fetch_add(1, Ordering::Relaxed);
        let cost = self.cost.evaluate(store);
        assert_eq!(cost, self.sum(|var| store.value(var)), "a leaf's price");
        cost
    }

    fn lower_bound(&self, store: &DomainStore) -> i64 {
        self.bounds.fetch_add(1, Ordering::Relaxed);
        let bound = self.cost.lower_bound(store);
        assert_eq!(bound, self.scan(store), "a node's bound");
        bound
    }
}

/// A random anchored-cost instance: a feasible target packing (the
/// incumbent), domains that keep the target, and rows of every kind.
struct Instance {
    model: Model,
    vars: Vec<VarId>,
    rows: Vec<CostRow>,
    cost: AnchoredCost,
    config: SearchConfig,
}

fn instance(rng: &mut SmallRng) -> Instance {
    let items = rng.u64_in(3, 24) as usize;
    let bins = rng.u64_in(2, 9) as u32;
    let dims = rng.u64_in(1, 4) as usize;
    let sizes: Vec<Vec<u64>> = (0..dims)
        .map(|_| (0..items).map(|_| rng.u64_in(0, 6)).collect())
        .collect();
    let target: Vec<u32> = (0..items)
        .map(|_| rng.index(bins as usize) as u32)
        .collect();
    let mut capacities = vec![vec![0u64; bins as usize]; dims];
    for (dim_sizes, dim_caps) in sizes.iter().zip(&mut capacities) {
        for (&size, &bin) in dim_sizes.iter().zip(&target) {
            dim_caps[bin as usize] += size;
        }
        for cap in dim_caps {
            *cap += rng.u64_in(0, 5);
        }
    }
    let mut model = Model::new();
    let mut vars = Vec::new();
    let mut rows = Vec::new();
    for &keep in &target {
        // A random subset of the bins that holds the target.
        let values: Vec<u32> = (0..bins)
            .filter(|&bin| bin == keep || rng.bool_with(0.7))
            .collect();
        let anchor = match rng.index(6) {
            0 => None,
            // Outside the domain: a bin it lacks, or no bin at all.
            1 => (0..bins + 2).find(|value| !values.contains(value)),
            _ => Some(values[rng.index(values.len())]),
        };
        let elsewhere = rng.u64_in(0, 20);
        let at_anchor = match rng.index(5) {
            0 => elsewhere,
            1 => elsewhere / 2,
            2 => elsewhere + rng.u64_in(1, 20),
            _ => rng.u64_in(0, 20),
        };
        let row = match rng.index(8) {
            0 => CostRow {
                anchor,
                at_anchor: 0,
                elsewhere: 0,
            },
            _ => CostRow {
                anchor,
                at_anchor,
                elsewhere,
            },
        };
        vars.push(model.new_var_with_values(&values));
        rows.push(row);
    }
    MultiDimPacking::post(&mut model, &vars, &sizes, &capacities, dims);
    let cost = AnchoredCost::post(&mut model, &vars, &rows);
    let preferred = rows.iter().map(|row| row.anchor).collect();
    let config = SearchConfig {
        variable_selection: VariableSelection::FirstFail {
            weights: Some(
                (0..items)
                    .map(|i| sizes.iter().map(|s| s[i]).sum())
                    .collect(),
            ),
        },
        value_selection: ValueSelection::Preferred(preferred),
        node_limit: Some(rng.u64_in(50, 400)),
        incumbent: Some(target),
        restarts: Some(RestartPolicy::luby(rng.u64_in(1, 6))),
        ..Default::default()
    };
    Instance {
        model,
        vars,
        rows,
        cost,
        config,
    }
}

#[test]
fn the_trailed_bound_equals_the_full_scan_at_every_node() {
    let mut rng = SmallRng::seed_from_u64(0xB0_0D);
    let (mut nodes, mut bounds, mut leaves, mut restarts) = (0, 0, 0, 0);
    for case in 0..CASES {
        let instance = instance(&mut rng);
        let checked = Checked {
            cost: instance.cost,
            vars: &instance.vars,
            rows: &instance.rows,
            bounds: AtomicU64::new(0),
            leaves: AtomicU64::new(0),
        };
        let serial = Search::new(&instance.model, instance.config.clone()).minimize(&checked);
        let race = PortfolioConfig {
            workers: 2,
            deterministic: true,
            ..Default::default()
        };
        let raced =
            PortfolioSearch::new(&instance.model, instance.config.clone(), race).minimize(&checked);
        let outcomes = [
            ("serial", &serial.best, serial.best_cost, serial.stats),
            ("race", &raced.best, raced.best_cost, raced.stats),
        ];
        for (name, best, best_cost, stats) in outcomes {
            // The seeded incumbent is feasible, so there is always a best.
            let best = best.as_ref().expect("the incumbent is feasible");
            let priced = checked.sum(|var| best.value(var));
            assert_eq!(best_cost, Some(priced), "case {case}, {name}");
            nodes += stats.nodes;
            restarts += stats.restarts;
        }
        bounds += checked.bounds.load(Ordering::Relaxed);
        leaves += checked.leaves.load(Ordering::Relaxed);
    }
    // The searches were real: many nodes, each bound checked, leaves and
    // restarts among them.
    assert!(nodes > 100 * CASES as u64, "{nodes} nodes");
    assert!(bounds > nodes / 2, "{bounds} bounds over {nodes} nodes");
    assert!(leaves > CASES as u64, "{leaves} leaves");
    assert!(restarts > CASES as u64, "{restarts} restarts");
}

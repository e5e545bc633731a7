//! Property-based tests of the parallel portfolio search (seeded random
//! instances, like `property_solver.rs`):
//!
//! * a portfolio never returns a worse cost than the single-threaded search
//!   given the same per-run budget (worker 0 *is* that search, and the
//!   reduction takes the minimum);
//! * a 1-worker portfolio is bit-identical to the plain search in
//!   deterministic mode — same solution, same cost, same statistics;
//! * the serial search and the deterministic races reproduce a golden table
//!   of search trees, statistics included;
//! * a timed race (shared bound on) proves the exhaustive serial optimum
//!   with any worker count; a race cut by a node budget (which makes it
//!   deterministic) or by the clock keeps its incumbent.

use std::time::Duration;

use cwcs_model::SmallRng;
use cwcs_solver::constraints::BinPacking;
use cwcs_solver::portfolio::{PortfolioConfig, PortfolioSearch};
use cwcs_solver::search::{ClosureObjective, Search, SearchConfig};
use cwcs_solver::{DomainStore, Model, Objective, VarId};

const CASES: usize = 32;

/// A random placement-like instance: items packed into bins under a
/// capacity constraint, minimising a random per-(item, bin) cost table —
/// the same shape as the optimizer's move-cost objective.
struct Instance {
    model: Model,
    vars: Vec<VarId>,
    costs: Vec<Vec<i64>>,
}

fn random_instance(rng: &mut SmallRng) -> Instance {
    let items = rng.u64_in(3, 7) as usize;
    let bins = rng.u64_in(2, 4) as usize;
    let sizes: Vec<u64> = (0..items).map(|_| rng.u64_in(1, 4)).collect();
    // Capacities sized so the instance is usually feasible but not loose.
    let total: u64 = sizes.iter().sum();
    let capacities: Vec<u64> = (0..bins)
        .map(|_| rng.u64_in(total / bins as u64 + 1, total))
        .collect();
    let mut model = Model::new();
    let vars: Vec<VarId> = (0..items)
        .map(|_| model.new_var(0, bins as u32 - 1))
        .collect();
    model.post(BinPacking::new(vars.clone(), sizes, capacities));
    let costs: Vec<Vec<i64>> = (0..items)
        .map(|_| (0..bins).map(|_| rng.u64_in(0, 50) as i64).collect())
        .collect();
    Instance { model, vars, costs }
}

fn objective(instance: &Instance) -> impl Objective + Sync + '_ {
    let vars = instance.vars.clone();
    let costs = &instance.costs;
    ClosureObjective::new(
        move |store: &DomainStore| {
            vars.iter()
                .enumerate()
                .map(|(i, &v)| costs[i][store.value(v) as usize])
                .sum()
        },
        |_| 0,
    )
}

fn budgeted_config(node_limit: u64) -> SearchConfig {
    SearchConfig {
        node_limit: Some(node_limit),
        ..Default::default()
    }
}

#[test]
fn portfolio_never_costs_more_than_the_serial_search() {
    let mut rng = SmallRng::seed_from_u64(0xF0);
    for case in 0..CASES {
        let instance = random_instance(&mut rng);
        let objective = objective(&instance);
        let node_limit = rng.u64_in(5, 60);
        let serial = Search::new(&instance.model, budgeted_config(node_limit)).minimize(&objective);
        for workers in [2usize, 4] {
            let race = PortfolioConfig::with_workers(workers);
            let portfolio =
                PortfolioSearch::new(&instance.model, budgeted_config(node_limit), race)
                    .minimize(&objective);
            match (serial.best_cost, portfolio.best_cost) {
                (Some(s), Some(p)) => assert!(
                    p <= s,
                    "case {case}: {workers}-worker portfolio cost {p} beats serial {s}?"
                ),
                (Some(s), None) => {
                    panic!("case {case}: portfolio lost the serial solution of cost {s}")
                }
                // Serial found nothing within the budget: any portfolio
                // outcome (including none) is at least as good.
                (None, _) => {}
            }
        }
    }
}

#[test]
fn one_worker_portfolio_is_bit_identical_to_the_plain_search() {
    let mut rng = SmallRng::seed_from_u64(0xF1);
    for case in 0..CASES {
        let instance = random_instance(&mut rng);
        let objective = objective(&instance);
        // A preferred-value ordering and a tight budget, like the optimizer.
        let preferred: Vec<Option<u32>> = instance
            .vars
            .iter()
            .map(|_| Some(rng.u64_in(0, 1) as u32))
            .collect();
        let config = SearchConfig {
            preferred,
            node_limit: Some(rng.u64_in(5, 40)),
            ..Default::default()
        };
        let serial = Search::new(&instance.model, config.clone()).minimize(&objective);
        let race = PortfolioConfig::with_workers(1);
        let portfolio = PortfolioSearch::new(&instance.model, config, race).minimize(&objective);
        assert_eq!(serial.best_cost, portfolio.best_cost, "case {case}");
        assert_eq!(
            serial.best.as_ref().map(|s| s.values().to_vec()),
            portfolio.best.as_ref().map(|s| s.values().to_vec()),
            "case {case}: the explored tree must be identical"
        );
        let worker = &portfolio.portfolio.workers[0].stats;
        assert_eq!(serial.stats.nodes, worker.nodes, "case {case}");
        assert_eq!(serial.stats.failures, worker.failures, "case {case}");
        assert_eq!(serial.stats.solutions, worker.solutions, "case {case}");
        assert_eq!(serial.stats.completed, worker.completed, "case {case}");
        assert_eq!(
            serial.stats.incumbent_kept, worker.incumbent_kept,
            "case {case}"
        );
    }
}

/// A placement-shaped instance big enough that bound pruning and a node
/// budget both bite: items over bins, a per-(item, bin) cost table
/// and the optimizer's "cheapest still-possible bin" lower bound.
fn golden_instance(seed: u64) -> (Instance, Vec<u64>, Vec<u64>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let items = rng.u64_in(9, 13) as usize;
    let bins = rng.u64_in(4, 6) as usize;
    let sizes: Vec<u64> = (0..items).map(|_| rng.u64_in(1, 5)).collect();
    let total: u64 = sizes.iter().sum();
    let capacities: Vec<u64> = (0..bins)
        .map(|_| total / bins as u64 + rng.u64_in(2, 5))
        .collect();
    let mut model = Model::new();
    let vars: Vec<VarId> = (0..items)
        .map(|_| model.new_var(0, bins as u32 - 1))
        .collect();
    model.post(BinPacking::new(
        vars.clone(),
        sizes.clone(),
        capacities.clone(),
    ));
    let costs: Vec<Vec<i64>> = (0..items)
        .map(|_| (0..bins).map(|_| rng.u64_in(0, 40) as i64).collect())
        .collect();
    (Instance { model, vars, costs }, sizes, capacities)
}

fn golden_objective(instance: &Instance) -> impl Objective + Sync + '_ {
    let (vars, costs) = (&instance.vars, &instance.costs);
    ClosureObjective::new(
        move |store: &DomainStore| {
            vars.iter()
                .enumerate()
                .map(|(i, &v)| costs[i][store.value(v) as usize])
                .sum()
        },
        move |store: &DomainStore| {
            vars.iter()
                .enumerate()
                .map(|(i, &v)| {
                    store
                        .domain(v)
                        .iter()
                        .map(|bin| costs[i][bin as usize])
                        .min()
                        .unwrap_or(0)
                })
                .sum()
        },
    )
}

/// First-fit over the bins in the given order: a feasible (and poor)
/// assignment to seed as an incumbent, `None` when first-fit cannot pack.
fn first_fit(sizes: &[u64], capacities: &[u64], bin_order: &[usize]) -> Option<Vec<u32>> {
    let mut left = capacities.to_vec();
    sizes
        .iter()
        .map(|&size| {
            let bin = *bin_order.iter().find(|&&b| left[b] >= size)?;
            left[bin] -= size;
            Some(bin as u32)
        })
        .collect()
}

/// `(best cost, nodes, failures, solutions, completed)`.
type Fingerprint = (Option<i64>, u64, u64, u64, bool);

/// Recorded at the parent of the kernel unification (serial `dfs_bnb` and the
/// hand-mirrored `Worker::bnb`); the shared kernel must reproduce every row.
/// One row per (seed, incumbents?, search), in loop order.  The 4-worker
/// rows were taken again when the race's fourth worker, which shuffled its
/// values, became a rotated one like the others.
#[rustfmt::skip]
const GOLDEN: &[Fingerprint] = &[
    (Some(70), 150, 92, 13, false),
    (Some(70), 301, 187, 27, false),
    (Some(59), 580, 360, 53, false),
    (Some(70), 150, 92, 13, false),
    (Some(70), 297, 192, 23, false),
    (Some(59), 565, 354, 49, false),
    (Some(50), 231, 162, 15, true),
    (Some(50), 491, 346, 30, true),
    (Some(50), 942, 647, 69, true),
    (Some(50), 231, 162, 15, true),
    (Some(50), 491, 346, 31, true),
    (Some(50), 942, 647, 70, true),
    (Some(121), 150, 94, 12, false),
    (Some(121), 301, 189, 27, false),
    (Some(79), 601, 369, 59, false),
    (Some(121), 150, 94, 12, false),
    (Some(121), 301, 189, 25, false),
    (Some(79), 601, 369, 57, false),
    (Some(99), 933, 688, 33, true),
    (Some(99), 1759, 1292, 68, true),
    (Some(99), 3400, 2487, 168, true),
    (Some(99), 933, 688, 33, true),
    (Some(99), 1755, 1292, 66, true),
    (Some(99), 3396, 2487, 166, true),
];

#[test]
fn the_kernel_reproduces_the_golden_search_trees() {
    let mut rows: Vec<Fingerprint> = Vec::new();
    for seed in [0xA0u64, 0xA1, 0xA2, 0xA3] {
        let (instance, sizes, capacities) = golden_instance(seed);
        let objective = golden_objective(&instance);
        let bins: Vec<usize> = (0..capacities.len()).collect();
        let reversed: Vec<usize> = bins.iter().rev().copied().collect();
        for seeded in [false, true] {
            let config = SearchConfig {
                preferred: (0..instance.vars.len())
                    .map(|i| (i % 3 != 0).then_some((i % bins.len()) as u32))
                    .collect(),
                // Odd seeds run to exhaustion (a budget that never binds keeps the
                // races deterministic), even ones hit the budget.
                node_limit: Some(if seed % 2 == 0 { 150 } else { u64::MAX }),
                incumbent: seeded
                    .then(|| first_fit(&sizes, &capacities, &bins))
                    .flatten(),
                ..Default::default()
            };
            let serial = Search::new(&instance.model, config.clone()).minimize(&objective);
            rows.push(fingerprint(serial.best_cost, &serial.stats));
            for workers in [2usize, 4] {
                let race = PortfolioConfig {
                    workers,
                    ffd_incumbent: seeded
                        .then(|| first_fit(&sizes, &capacities, &reversed))
                        .flatten(),
                };
                let outcome = PortfolioSearch::new(&instance.model, config.clone(), race)
                    .minimize(&objective);
                rows.push(fingerprint(outcome.best_cost, &outcome.stats));
            }
        }
    }
    if rows != GOLDEN {
        for row in &rows {
            eprintln!("    {row:?},");
        }
        panic!("search trees moved: the table above is what this build computes");
    }
}

fn fingerprint(best_cost: Option<i64>, stats: &cwcs_solver::SearchStats) -> Fingerprint {
    (
        best_cost,
        stats.nodes,
        stats.failures,
        stats.solutions,
        stats.completed,
    )
}

/// Timed races — shared bound on, thread timing free — over
/// golden-shaped instances.  Without a budget every worker count proves the
/// exhaustive serial optimum (8 workers exceed the 4–6 root values: the
/// empty slices must exit, not hang).  A race cut early proves nothing and
/// keeps the seeded incumbent, whether a node budget too small to reach a
/// leaf cuts it (which makes it a deterministic race) or the clock does (a
/// zero timeout, the timed race's own anytime path).
#[test]
fn timed_races_prove_the_serial_optimum_and_stay_anytime_when_cut() {
    for seed in 0..CASES as u64 {
        let (instance, sizes, capacities) = golden_instance(0xB0 + seed);
        let objective = golden_objective(&instance);
        let bins: Vec<usize> = (0..capacities.len()).collect();
        let incumbent = first_fit(&sizes, &capacities, &bins);
        let incumbent_cost = incumbent.as_ref().map(|bins| {
            let cost = |(item, &bin): (usize, &u32)| instance.costs[item][bin as usize];
            bins.iter().enumerate().map(cost).sum::<i64>()
        });
        let serial = Search::new(&instance.model, SearchConfig::default()).minimize(&objective);
        assert!(
            serial.stats.completed,
            "seed {seed}: the reference is exhaustive"
        );
        for workers in [2usize, 4, 8] {
            let race = |node_limit: Option<u64>, timeout: Option<Duration>| {
                let config = SearchConfig {
                    node_limit,
                    timeout,
                    incumbent: incumbent.clone(),
                    ..Default::default()
                };
                PortfolioSearch::new(
                    &instance.model,
                    config,
                    PortfolioConfig::with_workers(workers),
                )
                .minimize(&objective)
            };
            let proven = race(None, None);
            assert!(proven.stats.completed, "seed {seed}, {workers} workers");
            assert_eq!(
                proven.best_cost, serial.best_cost,
                "seed {seed}, {workers} workers"
            );
            let cut = race(Some(4), None);
            assert!(!cut.stats.completed, "seed {seed}, {workers} workers");
            if let Some(incumbent_cost) = incumbent_cost {
                assert!(
                    cut.best_cost.is_some_and(|cost| cost <= incumbent_cost),
                    "seed {seed}, {workers} workers: {:?} vs incumbent {incumbent_cost}",
                    cut.best_cost
                );
            }
            let timed_out = race(None, Some(Duration::ZERO));
            assert!(
                !timed_out.stats.completed,
                "seed {seed}, {workers} workers, cut by the clock"
            );
            if let Some(incumbent_cost) = incumbent_cost {
                assert!(
                    timed_out
                        .best_cost
                        .is_some_and(|cost| cost <= incumbent_cost),
                    "seed {seed}, {workers} workers, cut by the clock: {:?} vs incumbent \
                     {incumbent_cost}",
                    timed_out.best_cost
                );
            }
        }
    }
}

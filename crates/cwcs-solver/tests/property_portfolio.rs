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
use cwcs_solver::search::{ClosureObjective, RestartPolicy, Search, SearchConfig};
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
        restarts: Some(RestartPolicy::luby(4)),
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
            restarts: Some(RestartPolicy::luby(2)),
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
        assert_eq!(serial.stats.restarts, worker.restarts, "case {case}");
        assert_eq!(serial.stats.completed, worker.completed, "case {case}");
        assert_eq!(
            serial.stats.incumbent_kept, worker.incumbent_kept,
            "case {case}"
        );
    }
}

/// A placement-shaped instance big enough that bound pruning, Luby restarts
/// and a node budget all bite: items over bins, a per-(item, bin) cost table
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

/// `(best cost, nodes, failures, solutions, restarts, final_run, completed)`.
type Fingerprint = (Option<i64>, u64, u64, u64, u64, u64, bool);

/// Recorded at the parent of the kernel unification (serial `dfs_bnb` and the
/// hand-mirrored `Worker::bnb`); the shared kernel must reproduce every row.
/// One row per (seed, restarts?, incumbents?, search), in loop order.
#[rustfmt::skip]
const GOLDEN: &[Fingerprint] = &[
    (Some(70), 150, 92, 13, 0, 0, false),
    (Some(70), 301, 187, 27, 0, 0, false),
    (Some(59), 580, 365, 51, 0, 2, false),
    (Some(70), 150, 92, 13, 0, 0, false),
    (Some(70), 297, 192, 23, 0, 0, false),
    (Some(59), 565, 359, 47, 0, 2, false),
    (Some(94), 150, 37, 8, 12, 12, false),
    (Some(83), 301, 81, 15, 25, 13, false),
    (Some(83), 601, 166, 27, 49, 14, false),
    (Some(94), 150, 37, 8, 12, 12, false),
    (Some(83), 301, 86, 13, 26, 13, false),
    (Some(83), 601, 171, 25, 50, 14, false),
    (Some(50), 231, 162, 15, 0, 0, true),
    (Some(50), 491, 346, 30, 0, 1, true),
    (Some(50), 986, 678, 71, 0, 1, true),
    (Some(50), 231, 162, 15, 0, 0, true),
    (Some(50), 491, 346, 31, 0, 1, true),
    (Some(50), 986, 678, 72, 0, 1, true),
    (Some(50), 759, 369, 18, 62, 62, true),
    (Some(50), 1698, 854, 32, 154, 93, true),
    (Some(50), 4097, 1963, 65, 339, 125, true),
    (Some(50), 759, 369, 18, 62, 62, true),
    (Some(50), 1698, 854, 33, 154, 93, true),
    (Some(50), 4097, 1963, 66, 339, 125, true),
    (Some(121), 150, 94, 12, 0, 0, false),
    (Some(121), 301, 189, 27, 0, 0, false),
    (Some(93), 601, 361, 63, 0, 0, false),
    (Some(121), 150, 94, 12, 0, 0, false),
    (Some(121), 301, 189, 25, 0, 0, false),
    (Some(93), 601, 361, 61, 0, 0, false),
    (Some(136), 150, 34, 11, 11, 11, false),
    (Some(133), 301, 83, 17, 25, 13, false),
    (Some(128), 601, 160, 33, 48, 12, false),
    (Some(136), 150, 34, 11, 11, 11, false),
    (Some(133), 301, 86, 14, 26, 13, false),
    (Some(128), 601, 168, 32, 49, 12, false),
    (Some(99), 933, 688, 33, 0, 0, true),
    (Some(99), 1759, 1292, 68, 0, 0, true),
    (Some(99), 3461, 2544, 159, 0, 0, true),
    (Some(99), 933, 688, 33, 0, 0, true),
    (Some(99), 1755, 1292, 66, 0, 0, true),
    (Some(99), 3457, 2544, 157, 0, 0, true),
    (Some(99), 2184, 1252, 34, 189, 189, true),
    (Some(99), 5756, 3286, 67, 503, 251, true),
    (Some(99), 9919, 5580, 125, 847, 188, true),
    (Some(99), 2184, 1252, 34, 189, 189, true),
    (Some(99), 5721, 3286, 64, 503, 251, true),
    (Some(99), 9916, 5580, 124, 847, 188, true),
];

#[test]
fn the_kernel_reproduces_the_golden_search_trees() {
    let mut rows: Vec<Fingerprint> = Vec::new();
    for seed in [0xA0u64, 0xA1, 0xA2, 0xA3] {
        let (instance, sizes, capacities) = golden_instance(seed);
        let objective = golden_objective(&instance);
        let bins: Vec<usize> = (0..capacities.len()).collect();
        let reversed: Vec<usize> = bins.iter().rev().copied().collect();
        for restarts in [None, Some(RestartPolicy::luby(2))] {
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
                    restarts: restarts.clone(),
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
        stats.restarts,
        stats.final_run,
        stats.completed,
    )
}

/// Timed races — shared bound on, restarts on, thread timing free — over
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
                    restarts: Some(RestartPolicy::luby(2)),
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

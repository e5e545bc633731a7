//! Parallel portfolio search: a cooperative, partitioned branch & bound
//! under one anytime budget.
//!
//! The placement solves of the paper are *anytime*: whatever the search can
//! prove inside its 5 s window is what the control loop executes.  The
//! portfolio is **partitioned**: the value choices of the *root* decision
//! are dealt round-robin across the workers, so the workers' trees are
//! disjoint and their union is exactly the serial tree, explored once
//! instead of `N` times.  Every worker runs the same branch & bound kernel
//! as the serial search (`BranchAndBound` in [`crate::search`]) over a
//! trailed store of its own — one copy of the propagated root per worker,
//! not per root value; it only dives from the root values of its slice
//! instead of from the root, undoing to its root mark in between.
//!
//! # Partition and proof
//!
//! * [`partition_root`] propagates the root store once, picks the canonical
//!   branching variable with the configured heuristics and deals its value
//!   choices round-robin by worker id — a deterministic **exact cover** of
//!   the root domain (no value lost, none duplicated).
//! * Each worker keeps its slice for the whole race: it explores the
//!   subtree under each of its root values depth-first, in canonical order,
//!   and exits when the slice is exhausted (an empty slice — more workers
//!   than root values — exits at once).  Nothing moves between workers.
//! * The search space is globally exhausted — optimality is **proven** —
//!   exactly when no worker stopped early on the deadline or the node
//!   budget.  One worker finishing its own slice proves nothing about the
//!   others'.
//!
//! # Why the shared bound stays sound
//!
//! All timed workers prune against one [`SharedBound`]: every improving
//! cost is published with a `fetch_min`, and each worker prunes against the
//! minimum of its local incumbent and the published bound.  The bound only
//! ever decreases, so pruning against a stale (larger) read is sound — the
//! pruned subtree cannot contain anything cheaper than the final bound
//! either, whichever worker's slice it belongs to.
//!
//! # Diversification
//!
//! Disjoint slices already diversify the race, and two rider roles widen it
//! further (with `N ≥ 2` workers):
//!
//! * worker 1 is **FFD-seeded**: the optimizer hands it a first-fit
//!   decreasing packing ([`PortfolioConfig::ffd_incumbent`]) as a second
//!   incumbent, so a migration-heavy but usually-feasible solution bounds
//!   the race from the start even when the "keep everything in place"
//!   incumbent is poor;
//! * the last worker (with `N ≥ 3`) is **randomized**: it orders the
//!   non-preferred values of every branching with a per-worker-seeded
//!   xorshift shuffle ([`PortfolioConfig::seed`]), the classic
//!   heavy-tail hedge;
//! * every worker keeps the Luby schedule of [`SearchConfig::restarts`],
//!   reinterpreted as **freeze-restarts**: when the failure budget fires,
//!   the worker abandons its dive, puts the *root value* of the current
//!   subtree back as the next one of its depth-first order and jumps to
//!   the furthest untouched value of its slice.  The abandoned subtree is
//!   re-explored in full later under the next (larger) Luby budget with a
//!   rotated value ordering — the same partial-progress price a serial
//!   Luby restart pays, but scoped to one root slice instead of the whole
//!   tree.
//!
//! # Deterministic reduction mode
//!
//! The shared bound makes the explored tree depend on thread timing, which
//! is incompatible with the byte-identical artifacts the bench gate and the
//! determinism suite require.  With [`PortfolioConfig::deterministic`] the
//! workers run the same loop under a fixed node budget without it, and the
//! winner is the `(cost, worker id)` minimum.  The outcome is a pure
//! function of the model and the configuration, whatever the machine or
//! the scheduling.  A 1-worker portfolio short-circuits to the plain
//! [`Search`] and is bit-identical to it, statistics included.
//!
//! # Nothing a worker allocated outlives it
//!
//! A worker hands its best solution back in a buffer the calling thread
//! allocated before the spawn, and frees everything it allocated itself
//! before it exits.  A block freed on one thread and allocated on another
//! lands in the freeing thread's cache; with glibc's per-thread arenas a
//! vector the caller then grows from such a block keeps growing inside the
//! dead worker's arena, which the caller's own heap does not trim.  Which
//! block is reused depends on the order of unrelated allocations, so a
//! long-running caller's resident memory would drift by megabytes from one
//! run to the next.

use std::collections::VecDeque;
use std::thread;
use std::time::Instant;

use crate::search::{
    BranchAndBound, Flow, Objective, Search, SearchConfig, SearchState, SearchStats, SharedBound,
    Solution, XorShift,
};
use crate::store::{DomainStore, Model, VarId};

/// Tuning of a [`PortfolioSearch`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortfolioConfig {
    /// Number of racing workers (clamped to at least 1).
    pub workers: usize,
    /// Deterministic reduction mode: no shared bound, fixed per-worker node
    /// budgets, `(cost, worker id)` winner (see the module docs).
    pub deterministic: bool,
    /// Optional second incumbent (a complete assignment, e.g. a first-fit
    /// decreasing packing) seeded into the FFD rider worker.
    pub ffd_incumbent: Option<Vec<u32>>,
    /// Seed of the randomized rider worker's value-ordering shuffle.
    pub seed: u64,
}

impl Default for PortfolioConfig {
    fn default() -> Self {
        PortfolioConfig {
            workers: 1,
            deterministic: false,
            ffd_incumbent: None,
            seed: 0x9E37_79B9_7F4A_7C15,
        }
    }
}

impl PortfolioConfig {
    /// A timed partitioned portfolio with the given worker count.
    pub fn with_workers(workers: usize) -> Self {
        PortfolioConfig {
            workers,
            ..Default::default()
        }
    }
}

/// The diversification role a worker plays in a partitioned race.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum WorkerRole {
    /// Canonical heuristics (worker 0).
    #[default]
    Canonical,
    /// Canonical heuristics with the value ordering rotated by the worker
    /// id.
    Rotated,
    /// Rotated, plus the FFD incumbent seeded as a second starting bound.
    FfdSeeded,
    /// Non-preferred values shuffled by a per-worker-seeded xorshift.
    Randomized,
}

impl WorkerRole {
    /// Short lowercase label for logs and artifacts.
    pub fn label(self) -> &'static str {
        match self {
            WorkerRole::Canonical => "canonical",
            WorkerRole::Rotated => "rotated",
            WorkerRole::FfdSeeded => "ffd",
            WorkerRole::Randomized => "random",
        }
    }
}

/// What one worker of the race did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerReport {
    /// Worker index (also its diversification offset).
    pub worker: usize,
    /// The worker's diversification role.
    pub role: WorkerRole,
    /// Statistics of the worker's own search.
    pub stats: SearchStats,
    /// Best cost the worker found locally, if any.
    pub best_cost: Option<i64>,
    /// Root values initially assigned to this worker.
    pub root_values: usize,
    /// Subtree dives this worker started: one per root value, plus one per
    /// freeze-restart.
    pub subtrees: u64,
}

/// Statistics of one portfolio race.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PortfolioStats {
    /// Per-worker reports, in worker order.
    pub workers: Vec<WorkerReport>,
    /// Index of the winning worker (`None` when no worker found a
    /// solution).  Ties are broken by the smallest worker index.
    pub winner: Option<usize>,
    /// Workers sharing the root partition.
    pub partition_workers: usize,
    /// Always 0: workers keep their slices.  Still read by
    /// `perf/src/adapter.rs:457` (the benchmark's frozen API surface, last
    /// section of perf/README.md); goes with the next `benchmark` issue.
    pub steals_total: u64,
    /// Wall-clock time of the whole race, in milliseconds.
    pub elapsed_ms: u64,
}

impl PortfolioStats {
    /// The winning worker's report, if any worker found a solution.
    pub fn winning_worker(&self) -> Option<&WorkerReport> {
        self.winner.map(|w| &self.workers[w])
    }
}

/// Result of a portfolio minimisation.
#[derive(Debug, Clone)]
pub struct PortfolioOutcome {
    /// Best solution found by any worker.
    pub best: Option<Solution>,
    /// Cost of the best solution.
    pub best_cost: Option<i64>,
    /// Aggregate statistics: node/failure/solution/restart counts summed
    /// over the workers, `completed` when the race proved optimality (no
    /// worker stopped early), `incumbent_kept` from the winning worker,
    /// `elapsed_ms` the race's wall-clock time.
    pub stats: SearchStats,
    /// The race breakdown: per-worker statistics and the winner.
    pub portfolio: PortfolioStats,
}

/// The deterministic root partition of a model: the canonical branching
/// variable and one slice of its value choices per worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RootPartition {
    /// The root branching variable (canonical heuristics).
    pub var: VarId,
    /// Value slices, one per worker: slice `k` holds the canonical values
    /// at positions `k, k + workers, k + 2·workers, …` — together an exact
    /// cover of the propagated root domain.
    pub slices: Vec<Vec<u32>>,
}

/// Compute the root partition a partitioned portfolio would use: propagate
/// the root store once, pick the branching variable with the configured
/// heuristics, order its values canonically and deal them round-robin.
///
/// Returns `None` when the root is infeasible or already fully assigned
/// (degenerate races with no tree to partition).
pub fn partition_root(
    model: &Model,
    config: &SearchConfig,
    workers: usize,
) -> Option<RootPartition> {
    let mut store = model.root_store();
    if model.propagate(&mut store, &mut 0).is_err() || store.all_fixed() {
        return None;
    }
    Some(plan_partition(config, &store, workers.max(1)))
}

fn plan_partition(config: &SearchConfig, root: &DomainStore, workers: usize) -> RootPartition {
    let var = Search::select_variable(&config.variable_selection, root);
    let mut values = Vec::new();
    let run = config.diversify;
    Search::order_values_diversified(&config.value_selection, var, root, run, &mut values);
    let mut slices = vec![Vec::new(); workers];
    for (i, value) in values.into_iter().enumerate() {
        slices[i % workers].push(value);
    }
    RootPartition { var, slices }
}

/// A parallel portfolio of cooperating branch & bound workers over one
/// [`Model`] (see the module docs for the protocol).
pub struct PortfolioSearch<'m> {
    model: &'m Model,
    base: SearchConfig,
    config: PortfolioConfig,
}

/// One worker of the race: the shared branch & bound kernel, fed the root
/// values of its slice one subtree at a time.
struct Worker<'a, O: Objective> {
    id: usize,
    role: WorkerRole,
    /// This worker's copy of the propagated root store; every subtree
    /// starts from it and is undone back to it.
    store: DomainStore,
    root_var: VarId,
    /// The root values still to explore, canonical order reversed: the back
    /// is the next value of the depth-first order, the front the furthest
    /// untouched one (where a freeze-restart jumps).
    slice: VecDeque<u32>,
    bnb: BranchAndBound<'a, O>,
}

impl<O: Objective> Worker<'_, O> {
    /// Explore the slice; the best solution comes back in `best_buffer`
    /// (allocated by the caller's thread, module docs).
    fn run(mut self, best_buffer: Vec<u32>) -> WorkerOutcome {
        let start = Instant::now();
        let root_values = self.slice.len();
        let mut subtrees = 0;
        let mut jump = false;
        let root = self.store.mark();
        self.bnb.arm_failure_budget();
        while !self.bnb.state.limits_reached() {
            let next = if std::mem::take(&mut jump) {
                self.slice.pop_front()
            } else {
                self.slice.pop_back()
            };
            let Some(value) = next else { break };
            subtrees += 1;
            let flow = if self.store.assign(self.root_var, value).is_ok() {
                self.bnb.dive(&mut self.store)
            } else {
                // An impossible root decision is an empty subtree.
                self.bnb.state.stats.failures += 1;
                Flow::Continue
            };
            self.store.undo_to(root);
            if flow == Flow::Abandon {
                // Freeze-restart: the whole subtree goes back on the slice,
                // to be re-explored in full under the next (larger) Luby
                // budget and a rotated value ordering, so nothing is lost —
                // only the partial progress of this run, exactly the price
                // a serial Luby restart pays.
                self.slice.push_back(value);
                self.bnb.next_run();
                jump = true;
            }
        }
        self.bnb.finish(start);
        WorkerOutcome {
            report: WorkerReport {
                worker: self.id,
                role: self.role,
                stats: self.bnb.state.stats,
                best_cost: self.bnb.best_cost,
                root_values,
                subtrees,
            },
            best: self
                .bnb
                .best
                .as_ref()
                .map(|best| best.copied_into(best_buffer)),
        }
    }
}

/// What one partitioned worker hands back to the reducer.
struct WorkerOutcome {
    report: WorkerReport,
    best: Option<Solution>,
}

impl<'m> PortfolioSearch<'m> {
    /// Build a portfolio over `model`.  `base` carries the heuristics and
    /// limits every worker shares (timeout, node budget, incumbent,
    /// restarts); the portfolio configuration picks the worker count, the
    /// deterministic mode and the rider seeds.
    pub fn new(model: &'m Model, base: SearchConfig, config: PortfolioConfig) -> Self {
        PortfolioSearch {
            model,
            base,
            config,
        }
    }

    /// Race the workers and reduce: the best solution found by any worker,
    /// with ties broken by the smallest worker index.
    pub fn minimize<O: Objective + Sync>(&self, objective: &O) -> PortfolioOutcome {
        let workers = self.config.workers.max(1);
        if workers == 1 {
            return self.run_serial(objective);
        }
        self.race(objective, workers)
    }

    /// 1-worker portfolio: exactly the plain search, bit-identical.
    fn run_serial<O: Objective + Sync>(&self, objective: &O) -> PortfolioOutcome {
        let start = Instant::now();
        let outcome = Search::new(self.model, self.base.clone()).minimize(objective);
        let winner = outcome.best_cost.is_some().then_some(0);
        let report = WorkerReport {
            worker: 0,
            role: WorkerRole::Canonical,
            stats: outcome.stats.clone(),
            best_cost: outcome.best_cost,
            root_values: 0,
            subtrees: 0,
        };
        PortfolioOutcome {
            best: outcome.best,
            best_cost: outcome.best_cost,
            stats: outcome.stats,
            portfolio: PortfolioStats {
                workers: vec![report],
                winner,
                partition_workers: 1,
                steals_total: 0,
                elapsed_ms: start.elapsed().as_millis() as u64,
            },
        }
    }

    /// The partitioned race (see the module docs).
    fn race<O: Objective + Sync>(&self, objective: &O, workers: usize) -> PortfolioOutcome {
        let start = Instant::now();
        let shared = (!self.config.deterministic).then(SharedBound::new);
        let mut prep_stats = SearchStats {
            nodes: 1,
            ..Default::default()
        };

        // Validate the incumbents once: propagation is deterministic, so
        // doing it N times in the workers would only burn wall-clock.
        let probe = Search::new(self.model, self.base.clone());
        let runs = &mut prep_stats.propagations;
        let mut validate = |values: &Vec<u32>| probe.validate_incumbent(values, objective, runs);
        let seed = self.base.incumbent.as_ref().and_then(&mut validate);
        let ffd = self.config.ffd_incumbent.as_ref().and_then(&mut validate);
        if let Some(shared) = &shared {
            if let Some((_, cost)) = &seed {
                shared.publish(*cost);
            }
            if let Some((_, cost)) = &ffd {
                shared.publish(*cost);
            }
        }

        // Propagate the root once; handle the degenerate races inline.
        let mut root = self.model.root_store();
        let propagated = self
            .model
            .propagate(&mut root, &mut prep_stats.propagations);
        if propagated.is_err() {
            prep_stats.failures = 1;
            return self.degenerate_outcome(start, workers, seed, prep_stats);
        }
        if root.all_fixed() {
            let cost = objective.evaluate(&root);
            let improves = seed.as_ref().map(|(_, s)| cost < *s).unwrap_or(true);
            let best = if improves {
                prep_stats.solutions = 1;
                Some((Solution::from_store(&root), cost))
            } else {
                prep_stats.incumbent_kept = true;
                seed
            };
            return self.degenerate_outcome(start, workers, best, prep_stats);
        }

        let partition = plan_partition(&self.base, &root, workers);
        let root_var = partition.var;

        let root = &root;
        let (seed, ffd) = (&seed, &ffd);
        let mut outcomes: Vec<WorkerOutcome> = thread::scope(|scope| {
            let handles: Vec<_> = partition
                .slices
                .iter()
                .enumerate()
                .map(|(id, slice)| {
                    let role = self.role_of(id, workers);
                    let mut config = self.base.clone();
                    config.shared = shared.clone();
                    let best_buffer = Vec::with_capacity(root.var_count());
                    scope.spawn(move || {
                        let shuffle = matches!(role, WorkerRole::Randomized)
                            .then(|| XorShift::new(self.config.seed ^ (id as u64) << 32));
                        // Warm-started callers offset every worker by the
                        // base diversify so successive solves continue the
                        // restart schedule; with the default of 0 this is
                        // the historical per-worker rotation.
                        let run = self.base.diversify
                            + match role {
                                WorkerRole::Randomized => 0,
                                _ => id as u64,
                            };
                        let state = SearchState::new(self.model, &config, start, shuffle, run);
                        let mut worker = Worker {
                            id,
                            role,
                            store: root.clone(),
                            root_var,
                            slice: slice.iter().rev().copied().collect(),
                            bnb: BranchAndBound::new(state, objective),
                        };
                        // Seed the incumbents: every worker starts from the
                        // caller's incumbent; the FFD rider also considers
                        // the FFD packing.
                        let bnb = &mut worker.bnb;
                        if let Some(seed) = seed {
                            bnb.seed(seed.clone());
                        }
                        if matches!(role, WorkerRole::FfdSeeded) {
                            if let Some((solution, cost)) = ffd {
                                if bnb.best_cost.map(|b| *cost < b).unwrap_or(true) {
                                    bnb.best = Some(solution.clone());
                                    bnb.best_cost = Some(*cost);
                                    bnb.state.stats.incumbent_kept = false;
                                    bnb.state.stats.solutions += 1;
                                }
                            }
                        }
                        worker.run(best_buffer)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|handle| handle.join().expect("portfolio worker panicked"))
                .collect()
        });

        // The slices cover the root domain, so the race is globally complete
        // exactly when every worker ran its own to the end (no early stop).
        let exhausted = outcomes.iter().all(|o| o.report.stats.completed);

        // The root preparation work (the incumbents' validation and one
        // node) is accounted to worker 0 so totals stay comparable with the
        // serial search.
        outcomes[0].report.stats.nodes += prep_stats.nodes;
        outcomes[0].report.stats.propagations += prep_stats.propagations;

        let winner = outcomes
            .iter()
            .filter_map(|o| o.report.best_cost.map(|cost| (cost, o.report.worker)))
            .min()
            .map(|(_, worker)| worker);
        let (best, best_cost) = match winner {
            Some(winner) => (
                outcomes[winner].best.take(),
                outcomes[winner].report.best_cost,
            ),
            None => (None, None),
        };
        let reports = outcomes.into_iter().map(|o| o.report).collect();
        self.reduce(start, workers, reports, exhausted, best, best_cost, winner)
    }

    fn role_of(&self, worker: usize, workers: usize) -> WorkerRole {
        if worker == 0 {
            WorkerRole::Canonical
        } else if worker == workers - 1 && workers >= 3 {
            WorkerRole::Randomized
        } else if worker == 1 && self.config.ffd_incumbent.is_some() {
            WorkerRole::FfdSeeded
        } else {
            WorkerRole::Rotated
        }
    }

    /// Outcome of a race that never spawned workers (infeasible or fully
    /// fixed root): worker 0 carries the preparation statistics and, when
    /// a solution exists, the result.
    fn degenerate_outcome(
        &self,
        start: Instant,
        workers: usize,
        best: Option<(Solution, i64)>,
        prep_stats: SearchStats,
    ) -> PortfolioOutcome {
        let mut reports: Vec<WorkerReport> = (0..workers)
            .map(|worker| WorkerReport {
                worker,
                role: self.role_of(worker, workers),
                stats: SearchStats {
                    completed: true,
                    ..Default::default()
                },
                ..Default::default()
            })
            .collect();
        reports[0].stats = SearchStats {
            completed: true,
            ..prep_stats
        };
        let (best, best_cost) = match best {
            Some((solution, cost)) => (Some(solution), Some(cost)),
            None => (None, None),
        };
        let winner = best_cost.map(|_| 0);
        reports[0].best_cost = best_cost;
        self.reduce(start, workers, reports, true, best, best_cost, winner)
    }

    #[allow(clippy::too_many_arguments)]
    fn reduce(
        &self,
        start: Instant,
        workers: usize,
        reports: Vec<WorkerReport>,
        exhausted: bool,
        best: Option<Solution>,
        best_cost: Option<i64>,
        winner: Option<usize>,
    ) -> PortfolioOutcome {
        let mut stats = SearchStats {
            elapsed_ms: start.elapsed().as_millis() as u64,
            completed: exhausted,
            ..Default::default()
        };
        for report in &reports {
            stats.nodes += report.stats.nodes;
            stats.failures += report.stats.failures;
            stats.propagations += report.stats.propagations;
            stats.solutions += report.stats.solutions;
            stats.restarts += report.stats.restarts;
        }
        if let Some(winner) = winner {
            stats.incumbent_kept = reports[winner].stats.incumbent_kept;
            stats.final_run = reports[winner].stats.final_run;
        }
        PortfolioOutcome {
            best,
            best_cost,
            stats,
            portfolio: PortfolioStats {
                workers: reports,
                winner,
                partition_workers: workers,
                steals_total: 0,
                elapsed_ms: start.elapsed().as_millis() as u64,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::{AllDifferent, BinPacking};
    use crate::search::{ClosureObjective, RestartPolicy};
    use crate::DomainStore;

    /// A tight packing with a non-trivial optimum (the Luby-restart test
    /// model of `search.rs`): 6 items of size 3 over 3 bins of capacity 6.
    fn packing_model() -> (Model, Vec<crate::VarId>) {
        let mut m = Model::new();
        let vars: Vec<_> = (0..6).map(|_| m.new_var(0, 2)).collect();
        m.post(BinPacking::new(vars.clone(), vec![3; 6], vec![6; 3]));
        (m, vars)
    }

    fn packing_objective(vars: Vec<crate::VarId>) -> impl Objective + Sync {
        let weight = |i: usize, v: u32| (6 - i as i64) * (2 - v as i64);
        ClosureObjective::new(
            {
                let vars = vars.clone();
                move |store: &DomainStore| {
                    vars.iter()
                        .enumerate()
                        .map(|(i, &v)| weight(i, store.value(v)))
                        .sum()
                }
            },
            {
                let vars = vars.clone();
                move |store: &DomainStore| {
                    vars.iter()
                        .enumerate()
                        .map(|(i, &v)| {
                            store
                                .domain(v)
                                .iter()
                                .map(|value| weight(i, value))
                                .min()
                                .unwrap_or(0)
                        })
                        .sum()
                }
            },
        )
    }

    #[test]
    fn partitioned_portfolio_finds_the_proven_optimum() {
        let (m, vars) = packing_model();
        let objective = packing_objective(vars);
        let config = SearchConfig {
            restarts: Some(RestartPolicy::luby(1)),
            ..Default::default()
        };
        let outcome =
            PortfolioSearch::new(&m, config, PortfolioConfig::with_workers(4)).minimize(&objective);
        assert_eq!(outcome.best_cost, Some(13));
        assert!(outcome.stats.completed, "exhaustion proves optimality");
        assert_eq!(outcome.portfolio.workers.len(), 4);
        assert_eq!(outcome.portfolio.partition_workers, 4);
        let winner = outcome.portfolio.winning_worker().expect("has a winner");
        assert_eq!(winner.best_cost, Some(13));
        let covered: usize = outcome
            .portfolio
            .workers
            .iter()
            .map(|w| w.root_values)
            .sum();
        assert_eq!(covered, 3, "the root domain is fully dealt out");
    }

    #[test]
    fn deterministic_reduction_is_reproducible() {
        let (m, vars) = packing_model();
        let objective = packing_objective(vars);
        let run = || {
            let config = SearchConfig {
                node_limit: Some(40),
                restarts: Some(RestartPolicy::luby(1)),
                ..Default::default()
            };
            let portfolio = PortfolioConfig {
                workers: 3,
                deterministic: true,
                ..Default::default()
            };
            PortfolioSearch::new(&m, config, portfolio).minimize(&objective)
        };
        let a = run();
        let b = run();
        assert_eq!(a.best_cost, b.best_cost);
        assert_eq!(a.portfolio.winner, b.portfolio.winner);
        for (wa, wb) in a.portfolio.workers.iter().zip(&b.portfolio.workers) {
            assert_eq!(wa.stats.nodes, wb.stats.nodes);
            assert_eq!(wa.stats.failures, wb.stats.failures);
            assert_eq!(wa.best_cost, wb.best_cost);
            assert_eq!(wa.subtrees, wb.subtrees);
        }
    }

    #[test]
    fn unsatisfiable_models_yield_no_winner() {
        let mut m = Model::new();
        let vars: Vec<_> = (0..3).map(|_| m.new_var(0, 1)).collect();
        m.post(AllDifferent::new(vars.clone()));
        let objective = ClosureObjective::new(|_| 0, |_| 0);
        let outcome = PortfolioSearch::new(
            &m,
            SearchConfig::default(),
            PortfolioConfig::with_workers(2),
        )
        .minimize(&objective);
        assert!(outcome.best.is_none());
        assert_eq!(outcome.portfolio.winner, None);
        assert!(outcome.stats.completed, "infeasibility is proven");
    }

    #[test]
    fn exhaustion_terminates_even_with_many_idle_workers() {
        // More workers than root values: the extra workers' slices are
        // empty and they exit at once.
        let mut m = Model::new();
        let x = m.new_var(0, 9);
        let objective =
            ClosureObjective::new(move |store: &DomainStore| store.value(x) as i64, |_| 0);
        let outcome = PortfolioSearch::new(
            &m,
            SearchConfig::default(),
            PortfolioConfig::with_workers(8),
        )
        .minimize(&objective);
        assert_eq!(outcome.best_cost, Some(0));
        assert!(outcome.stats.completed);
    }

    #[test]
    fn partition_root_is_an_exact_cover() {
        let (m, _) = packing_model();
        let partition = partition_root(&m, &SearchConfig::default(), 4).expect("partitionable");
        let mut all: Vec<u32> = partition.slices.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2], "no value lost, none duplicated");
        assert_eq!(partition.slices.len(), 4);
    }

    #[test]
    fn ffd_incumbent_bounds_the_race_from_the_start() {
        // Zero search budget: nothing is explored, so the FFD seed is the
        // only way the race can know this packing.
        let (m, vars) = packing_model();
        let objective = packing_objective(vars);
        let config = SearchConfig {
            node_limit: Some(0),
            ..Default::default()
        };
        let portfolio = PortfolioConfig {
            workers: 4,
            deterministic: true,
            // 0,0 -> bin 2; 1,1 -> bin 1; 2,2 -> bin 0: the known optimum.
            ffd_incumbent: Some(vec![2, 2, 1, 1, 0, 0]),
            ..Default::default()
        };
        let outcome = PortfolioSearch::new(&m, config, portfolio).minimize(&objective);
        assert_eq!(outcome.best_cost, Some(13));
        let ffd_worker = &outcome.portfolio.workers[1];
        assert_eq!(ffd_worker.role, WorkerRole::FfdSeeded);
        assert_eq!(ffd_worker.best_cost, Some(13));
        assert!(!outcome.stats.completed, "a zero budget proves nothing");
    }

    #[test]
    fn a_12_000_variable_dive_fits_a_worker_stack() {
        // The first leaf is as deep as the model has variables.  Depth used
        // to be recursion depth: 8 000 unconstrained variables overflowed
        // the 2 MiB stack a scoped worker thread gets — an abort, not a
        // panic.  It is heap frames now.
        const VARIABLES: u64 = 12_000;
        let mut m = Model::new();
        for _ in 0..VARIABLES {
            m.new_var(0, 1);
        }
        let config = SearchConfig {
            node_limit: Some(VARIABLES + 1),
            ..Default::default()
        };
        let objective = ClosureObjective::new(|_| 0, |_| i64::MIN);
        let portfolio = PortfolioConfig {
            workers: 2,
            deterministic: true,
            ..Default::default()
        };
        // The serial dive in a thread with a worker's stack, the race (whose
        // workers get theirs from `thread::scope`) next to it.
        let (serial, race) = thread::scope(|scope| {
            let serial = thread::Builder::new()
                .stack_size(2 << 20)
                .spawn_scoped(scope, || {
                    Search::new(&m, config.clone()).minimize(&objective)
                })
                .expect("spawning a thread");
            let race = PortfolioSearch::new(&m, config.clone(), portfolio).minimize(&objective);
            (serial.join().expect("the dive panicked"), race)
        });
        assert_eq!(serial.best_cost, Some(0));
        assert_eq!(serial.stats.nodes, VARIABLES + 1);
        assert_eq!(race.best_cost, Some(0));
    }

    #[test]
    fn partitioned_race_matches_the_serial_optimum() {
        let (m, vars) = packing_model();
        let objective = packing_objective(vars);
        let serial = Search::new(&m, SearchConfig::default()).minimize(&objective);
        for workers in [2usize, 3, 5] {
            let outcome = PortfolioSearch::new(
                &m,
                SearchConfig::default(),
                PortfolioConfig::with_workers(workers),
            )
            .minimize(&objective);
            assert_eq!(outcome.best_cost, serial.best_cost, "{workers} workers");
            assert!(outcome.stats.completed);
        }
    }
}

//! Parallel portfolio search: a cooperative, partitioned branch & bound
//! under one anytime budget.
//!
//! The placement solves of the paper are *anytime*: whatever the search can
//! prove inside its 5 s window is what the control loop executes.  The
//! portfolio is **partitioned**: the value choices of the *root* decision
//! are dealt round-robin across the workers, so the initial frontiers are
//! disjoint and the union of the workers' trees is exactly the serial tree,
//! explored once instead of `N` times.  Every worker runs the same
//! branch & bound kernel as the serial search (`BranchAndBound` in
//! [`crate::search`]); only its frontier — a deque of replayable checkpoints
//! instead of the call stack — differs.
//!
//! # Partition / steal protocol
//!
//! * [`partition_root`] propagates the root store once, picks the canonical
//!   branching variable with the configured heuristics and deals its value
//!   choices round-robin by worker id — a deterministic **exact cover** of
//!   the root domain (no value lost, none duplicated).
//! * Each worker owns a Chase–Lev deque ([`crate::deque`]) seeded with its
//!   slice, one [`SubtreeCheckpoint`] per root value.  It pops from the
//!   bottom (LIFO — its own traversal stays depth-first) and, when its
//!   deque runs low, **donates** the untried siblings of the node it is
//!   expanding as frozen checkpoints, so thieves can pick them up.
//! * An idle worker first drains its own deque, then **steals** the oldest
//!   (shallowest, largest) checkpoint from a busy victim and reconstructs
//!   the subtree by replaying the decision trail against the shared root
//!   store.
//! * A shared `pending` counter tracks checkpoints published but not yet
//!   fully explored.  The search space is globally exhausted — optimality
//!   is **proven** — exactly when `pending` reaches zero and no worker
//!   stopped early.  One worker finishing its own slice proves nothing
//!   about the others'.
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
//! Disjoint frontiers already diversify the race, and two rider roles
//! widen it further (with `N ≥ 2` workers):
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
//!   the worker abandons its dive, re-publishes the *root* of the current
//!   subtree as a single frozen checkpoint and jumps to the oldest
//!   checkpoint it owns.  The abandoned subtree is re-explored in full
//!   later under the next (larger) Luby budget with a rotated value
//!   ordering — the same partial-progress price a serial Luby restart
//!   pays, but scoped to one root slice instead of the whole tree.
//!
//! # Deterministic reduction mode
//!
//! Stealing makes the explored tree depend on thread timing, which is
//! incompatible with the byte-identical artifacts the bench gate and the
//! determinism suite require.  With [`PortfolioConfig::deterministic`] the
//! partition is static: each worker explores exactly its slice under a
//! fixed node budget with stealing and the shared bound disabled, and the
//! winner is the `(cost, worker id)` minimum.  The outcome is a pure
//! function of the model and the configuration, whatever the machine or
//! the scheduling.  A 1-worker portfolio short-circuits to the plain
//! [`Search`] and is bit-identical to it, statistics included.

use std::thread;
use std::time::Instant;

use crate::sync::{AtomicBool, AtomicU64, Ordering};

use crate::deque::{work_deque, DequeStealer, DequeWorker, Steal};
use crate::propagator::propagate_to_fixpoint;
use crate::search::{
    BranchAndBound, Flow, Frontier, Objective, Search, SearchConfig, SearchState, SearchStats,
    SharedBound, Solution, SubtreeCheckpoint, ValueSelection,
};
use crate::store::{DomainStore, Model, VarId};

/// Tuning of a [`PortfolioSearch`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortfolioConfig {
    /// Number of racing workers (clamped to at least 1).
    pub workers: usize,
    /// Deterministic reduction mode: static partition, no stealing, no
    /// shared bound, fixed per-worker node budgets, `(cost, worker id)`
    /// winner (see the module docs).
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
    /// A timed partitioned+stealing portfolio with the given worker count.
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
    /// Subtree checkpoints this worker explored (slice + own + stolen).
    pub subtrees: u64,
    /// Checkpoints stolen from other workers' deques.
    pub steals: u64,
    /// Checkpoints this worker froze and published (donations plus
    /// freeze-restarts).
    pub donated: u64,
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
    /// Total checkpoints stolen across the race.
    pub steals_total: u64,
    /// Total checkpoints frozen and published across the race.
    pub donated_total: u64,
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
    /// over the workers, `completed` when the race proved optimality (the
    /// pending counter drained with no worker stopped early), `incumbent_kept`
    /// from the winning worker, `elapsed_ms` the race's wall-clock time.
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
    if propagate_to_fixpoint(model.propagators(), &mut store).is_err() || store.all_fixed() {
        return None;
    }
    Some(plan_partition(config, &store, workers.max(1)))
}

fn plan_partition(config: &SearchConfig, root: &DomainStore, workers: usize) -> RootPartition {
    let var = Search::select_variable(&config.variable_selection, root);
    let values =
        Search::order_values_diversified(&config.value_selection, var, root, config.diversify);
    let mut slices = vec![Vec::new(); workers];
    for (i, value) in values.into_iter().enumerate() {
        slices[i % workers].push(value);
    }
    RootPartition { var, slices }
}

/// A tiny deterministic xorshift64* generator for the randomized rider —
/// the solver crate stays dependency-free.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        XorShift(seed | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Fisher–Yates shuffle.
    fn shuffle(&mut self, values: &mut [u32]) {
        for i in (1..values.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            values.swap(i, j);
        }
    }
}

/// The in-flight checkpoint counter of a partitioned race: the number of
/// subtrees published (seeded, donated or frozen) but not yet fully
/// explored.  The race has *provably* exhausted the search space exactly
/// when this reaches zero — every published subtree was explored, and any
/// subtree a worker was still exploring keeps the count positive through
/// its own entry.
///
/// # Protocol (checked by `tests/model_check.rs`)
///
/// * [`PendingCounter::publish`] increments **before** the checkpoint is
///   pushed, so no thief can explore-and-complete a checkpoint before it is
///   counted — the count conservatively over-approximates, never
///   under-approximates, the in-flight work;
/// * [`PendingCounter::retract`] undoes a publish whose push failed (the
///   checkpoint never became visible, so nobody else can have counted on
///   it);
/// * [`PendingCounter::complete`] decrements *after* the subtree is fully
///   explored, with `AcqRel` so the completed exploration happens-before
///   whoever observes the drain;
/// * [`PendingCounter::drained`] is the exit check, `Acquire` to pair with
///   `complete`.
#[derive(Debug, Default)]
pub struct PendingCounter(AtomicU64);

impl PendingCounter {
    /// A counter with nothing in flight.
    pub fn new() -> Self {
        PendingCounter(AtomicU64::new(0))
    }

    /// Count a checkpoint about to be pushed (call *before* the push).
    pub fn publish(&self) {
        // relaxed: the increment must only be atomic; the checkpoint it
        // counts is published by the deque's Release slot store, and the
        // exit edge is carried by `complete`/`drained`, not by this add.
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Undo a [`PendingCounter::publish`] whose push failed.
    pub fn retract(&self) {
        // relaxed: pairs with the failed publish — the checkpoint was never
        // visible to anyone, so there is nothing to order against.
        self.0.fetch_sub(1, Ordering::Relaxed);
    }

    /// Count a subtree as fully explored (call *after* exploring it).
    pub fn complete(&self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }

    /// True when every published checkpoint has been explored: the
    /// partitioned race may terminate.
    pub fn drained(&self) -> bool {
        self.0.load(Ordering::Acquire) == 0
    }

    /// Checkpoints still in flight (advisory, for reporting).
    pub fn outstanding(&self) -> u64 {
        // relaxed: read for statistics after the workers joined (the join
        // is the synchronization); concurrent readers get a snapshot.
        self.0.load(Ordering::Relaxed)
    }
}

/// A parallel portfolio of cooperating branch & bound workers over one
/// [`Model`] (see the module docs for the protocol).
pub struct PortfolioSearch<'m> {
    model: &'m Model,
    base: SearchConfig,
    config: PortfolioConfig,
}

/// Donate untried siblings when the own deque gets this shallow.
const DONATE_LOW_WATER: usize = 2;
/// Never donate subtrees deeper than this (bounds the thief's replay cost);
/// freeze-restarts are exempt, they mostly come back to the same worker.
const MAX_DONATE_DEPTH: usize = 96;
/// Ring capacity of each worker deque.
const RING_CAPACITY: usize = 512;
/// Lifetime checkpoint budget of each worker deque.
const ARENA_CAPACITY: usize = 8192;

/// Worker-indexed handles shared by the race.
struct SharedRace<'a> {
    model: &'a Model,
    root: &'a DomainStore,
    pending: &'a PendingCounter,
    early_stop: &'a AtomicBool,
}

/// The frontier of one partitioned worker: untried work is published as
/// replayable checkpoints on the worker's own deque.
struct DequeFrontier<'a> {
    own: DequeWorker<SubtreeCheckpoint>,
    pending: &'a PendingCounter,
    /// Donate untried siblings to thieves (off in deterministic mode).
    steal_enabled: bool,
    /// The randomized rider's value shuffler.
    rng: Option<XorShift>,
    /// Root checkpoint of the subtree currently being explored — what a
    /// freeze-restart re-publishes.
    subtree_root: Option<SubtreeCheckpoint>,
    /// Checkpoints frozen and published (donations plus freeze-restarts).
    donated: u64,
}

impl DequeFrontier<'_> {
    /// Publish a checkpoint to the own deque, bumping `pending` first so no
    /// thief can complete it before it is counted.  Returns false (and
    /// restores `pending`) when the deque is full.
    fn publish(&mut self, checkpoint: SubtreeCheckpoint) -> bool {
        self.pending.publish();
        match self.own.push(checkpoint) {
            Ok(()) => {
                self.donated += 1;
                true
            }
            Err(_) => {
                self.pending.retract();
                false
            }
        }
    }
}

impl Frontier for DequeFrontier<'_> {
    /// Freeze-restart: abandon the dive and re-publish the *root* of the
    /// current subtree as one checkpoint.  The subtree is re-explored in
    /// full later, under the next (larger) Luby budget and a rotated value
    /// ordering, so nothing is lost — only the partial progress of this
    /// run, exactly the price a serial Luby restart pays.  Publishing
    /// per-sibling checkpoints instead would flood the ring on a deep
    /// unwind and silently cancel restarts.  A full deque still cancels
    /// restarts for good — correctness never depends on freezing.
    fn abandon_run(&mut self) -> bool {
        let root = self
            .subtree_root
            .clone()
            .expect("the kernel only runs inside run_subtree");
        self.publish(root)
    }

    /// The randomized rider keeps a preferred value pinned first and
    /// shuffles the rest.
    fn reorder(&mut self, selection: &ValueSelection, var: VarId, values: &mut [u32]) {
        if let Some(rng) = &mut self.rng {
            let pinned = match selection {
                ValueSelection::Preferred(preferred) => matches!(
                    (preferred.get(var.0), values.first()),
                    (Some(Some(p)), Some(first)) if p == first
                ),
                ValueSelection::MinValue => false,
            } as usize;
            rng.shuffle(&mut values[pinned..]);
        }
    }

    /// When the own deque runs low, publish every untried sibling and dive
    /// only into the first value (plus whatever a full ring refused).
    fn donate(&mut self, trail: &mut Vec<(VarId, u32)>, var: VarId, values: &mut Vec<u32>) {
        if self.steal_enabled
            && values.len() > 1
            && trail.len() < MAX_DONATE_DEPTH
            && self.own.len() < DONATE_LOW_WATER
        {
            // Push in reverse so thieves (and the own pop) see the
            // canonical order.
            let mut refused = Vec::new();
            for &value in values[1..].iter().rev() {
                trail.push((var, value));
                let checkpoint = SubtreeCheckpoint {
                    trail: trail.clone(),
                };
                trail.pop();
                if !self.publish(checkpoint) {
                    refused.push(value);
                }
            }
            values.truncate(1);
            values.extend(refused.into_iter().rev());
        }
    }
}

/// One worker of the race: the shared branch & bound kernel over a
/// [`DequeFrontier`], plus the task loop that feeds it checkpoints.
struct Worker<'a, O: Objective> {
    id: usize,
    role: WorkerRole,
    race: &'a SharedRace<'a>,
    bnb: BranchAndBound<'a, O, DequeFrontier<'a>>,
    own_top: DequeStealer<SubtreeCheckpoint>,
    victims: Vec<DequeStealer<SubtreeCheckpoint>>,
    /// Take the oldest own checkpoint next (set after a freeze-restart).
    jump: bool,
    next_victim: usize,
    subtrees: u64,
    steals: u64,
}

impl<O: Objective> Worker<'_, O> {
    /// Explore one checkpoint: replay its trail against the shared root
    /// and dive.  The final decision of the trail is the subtree's root
    /// node; the prefix is reconstruction, not search, and counts no nodes.
    fn run_subtree(&mut self, checkpoint: SubtreeCheckpoint) -> Flow {
        self.subtrees += 1;
        let (&(var, value), prefix) = checkpoint
            .trail
            .split_last()
            .expect("checkpoints always carry at least the root decision");
        let prefix = SubtreeCheckpoint {
            trail: prefix.to_vec(),
        };
        let replayed = prefix
            .replay(self.race.root, self.race.model.propagators())
            .and_then(|mut store| store.assign(var, value).map(|_| store));
        let Ok(store) = replayed else {
            // The prefix cannot fail by determinism (it was consistent when
            // frozen); an impossible last decision is an empty subtree.
            self.bnb.state.stats.failures += 1;
            return Flow::Continue;
        };
        self.bnb.trail.clone_from(&checkpoint.trail);
        self.bnb.frontier.subtree_root = Some(checkpoint);
        self.bnb.expand(store)
    }

    /// Take the next checkpoint: own bottom first (depth-first), then the
    /// oldest own checkpoint after a freeze-restart, then steal; spin while
    /// work is still in flight elsewhere.
    fn acquire(&mut self) -> Option<SubtreeCheckpoint> {
        loop {
            if self.bnb.state.limits_reached() {
                return None;
            }
            if self.jump {
                self.jump = false;
                if let Steal::Success(checkpoint) = self.own_top.steal() {
                    return Some(checkpoint);
                }
            }
            if let Some(checkpoint) = self.bnb.frontier.own.pop() {
                return Some(checkpoint);
            }
            if !self.bnb.frontier.steal_enabled {
                return None;
            }
            let mut saw_retry = false;
            for offset in 0..self.victims.len() {
                let victim = (self.next_victim + offset) % self.victims.len();
                match self.victims[victim].steal() {
                    Steal::Success(checkpoint) => {
                        self.next_victim = victim;
                        self.steals += 1;
                        return Some(checkpoint);
                    }
                    Steal::Retry => saw_retry = true,
                    Steal::Empty => {}
                }
            }
            if !saw_retry && self.race.pending.drained() {
                return None;
            }
            thread::yield_now();
        }
    }

    fn run(mut self) -> WorkerOutcome {
        let start = Instant::now();
        self.bnb.arm_failure_budget();
        while let Some(checkpoint) = self.acquire() {
            let flow = self.run_subtree(checkpoint);
            self.race.pending.complete();
            if flow == Flow::Abandon {
                // Freeze-restart: the subtree went back on the deque; move
                // to the next Luby run and the oldest own checkpoint.
                self.bnb.next_run();
                self.jump = true;
            }
        }
        if self.bnb.state.stopped {
            // relaxed: a pure flag, read only after the workers joined.
            self.race.early_stop.store(true, Ordering::Relaxed);
        }
        self.bnb.finish(start);
        WorkerOutcome {
            report: WorkerReport {
                worker: self.id,
                role: self.role,
                stats: self.bnb.state.stats,
                best_cost: self.bnb.best_cost,
                root_values: 0, // filled by the reducer
                subtrees: self.subtrees,
                steals: self.steals,
                donated: self.bnb.frontier.donated,
            },
            best: self.bnb.best,
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
            steals: 0,
            donated: 0,
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
                donated_total: 0,
                elapsed_ms: start.elapsed().as_millis() as u64,
            },
        }
    }

    /// The partitioned race (see the module docs).
    fn race<O: Objective + Sync>(&self, objective: &O, workers: usize) -> PortfolioOutcome {
        let start = Instant::now();
        let shared = (!self.config.deterministic).then(SharedBound::new);

        // Validate the incumbents once: propagation is deterministic, so
        // doing it N times in the workers would only burn wall-clock.
        let probe = Search::new(self.model, self.base.clone());
        let seed = self
            .base
            .incumbent
            .as_ref()
            .and_then(|values| probe.validate_incumbent(values))
            .map(|store| (Solution::from_store(&store), objective.evaluate(&store)));
        let ffd = self
            .config
            .ffd_incumbent
            .as_ref()
            .and_then(|values| probe.validate_incumbent(values))
            .map(|store| (Solution::from_store(&store), objective.evaluate(&store)));
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
        let mut prep_stats = SearchStats {
            nodes: 1,
            ..Default::default()
        };
        if propagate_to_fixpoint(self.model.propagators(), &mut root).is_err() {
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

        // One deque per worker, seeded with its slice (reversed, so the
        // owner pops the canonical order; thieves and the freeze-jump
        // steal from the opposite end, the furthest untouched value).
        let pending = PendingCounter::new();
        let early_stop = AtomicBool::new(false);
        let mut owners = Vec::with_capacity(workers);
        let mut stealers = Vec::with_capacity(workers);
        for slice in &partition.slices {
            let (owner, stealer) = work_deque::<SubtreeCheckpoint>(
                RING_CAPACITY.max(slice.len() + 1),
                ARENA_CAPACITY.max(slice.len() + 1),
            );
            for &value in slice.iter().rev() {
                pending.publish();
                owner
                    .push(SubtreeCheckpoint {
                        trail: vec![(root_var, value)],
                    })
                    .unwrap_or_else(|_| unreachable!("seed slice fits the ring"));
            }
            owners.push(owner);
            stealers.push(stealer);
        }

        let race = SharedRace {
            model: self.model,
            root: &root,
            pending: &pending,
            early_stop: &early_stop,
        };
        let mut outcomes: Vec<WorkerOutcome> = thread::scope(|scope| {
            let handles: Vec<_> = owners
                .into_iter()
                .enumerate()
                .map(|(id, own)| {
                    let role = self.role_of(id, workers);
                    let mut config = self.base.clone();
                    config.shared = shared.clone();
                    let own_top = stealers[id].clone();
                    let victims: Vec<_> = (0..workers)
                        .filter(|&v| v != id)
                        .map(|v| stealers[v].clone())
                        .collect();
                    let race = &race;
                    let seed = &seed;
                    let ffd = &ffd;
                    scope.spawn(move || {
                        let frontier = DequeFrontier {
                            own,
                            pending: race.pending,
                            // Stealing makes the tree depend on thread
                            // timing: deterministic races keep their slices.
                            steal_enabled: !self.config.deterministic,
                            rng: matches!(role, WorkerRole::Randomized)
                                .then(|| XorShift::new(self.config.seed ^ (id as u64) << 32)),
                            subtree_root: None,
                            donated: 0,
                        };
                        // Warm-started callers offset every worker by the
                        // base diversify so successive solves continue the
                        // restart schedule; with the default of 0 this is
                        // the historical per-worker rotation.
                        let run = self.base.diversify
                            + match role {
                                WorkerRole::Randomized => 0,
                                _ => id as u64,
                            };
                        let mut worker = Worker {
                            id,
                            role,
                            race,
                            bnb: BranchAndBound::new(
                                SearchState::new(race.model, &config, start),
                                objective,
                                frontier,
                                run,
                            ),
                            own_top,
                            victims,
                            jump: false,
                            next_victim: (id + 1) % workers,
                            subtrees: 0,
                            steals: 0,
                        };
                        // Seed the incumbents: every worker starts from the
                        // caller's incumbent; the FFD rider also considers
                        // the FFD packing.
                        let bnb = &mut worker.bnb;
                        if let Some((solution, cost)) = seed {
                            bnb.best = Some(solution.clone());
                            bnb.best_cost = Some(*cost);
                            bnb.state.stats.incumbent_kept = true;
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
                        worker.run()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|handle| handle.join().expect("portfolio worker panicked"))
                .collect()
        });

        // The race is globally complete only when every checkpoint was
        // fully explored and nobody stopped early.
        // relaxed: the scope join above synchronized with every worker.
        let exhausted = !early_stop.load(Ordering::Relaxed) && pending.outstanding() == 0;

        for (outcome, slice) in outcomes.iter_mut().zip(&partition.slices) {
            outcome.report.root_values = slice.len();
        }
        // The root preparation work (one propagation) is accounted to
        // worker 0 so node totals stay comparable with the serial search.
        outcomes[0].report.stats.nodes += prep_stats.nodes;

        let winner = outcomes
            .iter()
            .filter_map(|o| o.report.best_cost.map(|cost| (cost, o.report.worker)))
            .min()
            .map(|(_, worker)| worker);
        let (best, best_cost) = match winner {
            Some(winner) => (
                outcomes[winner].best.clone(),
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
        let mut steals_total = 0;
        let mut donated_total = 0;
        for report in &reports {
            stats.nodes += report.stats.nodes;
            stats.failures += report.stats.failures;
            stats.solutions += report.stats.solutions;
            stats.restarts += report.stats.restarts;
            steals_total += report.steals;
            donated_total += report.donated;
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
                steals_total,
                donated_total,
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
        assert_eq!(a.portfolio.steals_total, 0, "stealing is off in det mode");
        for (wa, wb) in a.portfolio.workers.iter().zip(&b.portfolio.workers) {
            assert_eq!(wa.stats.nodes, wb.stats.nodes);
            assert_eq!(wa.stats.failures, wb.stats.failures);
            assert_eq!(wa.best_cost, wb.best_cost);
            assert_eq!(wa.donated, wb.donated);
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
        // More workers than root values: the extra workers spin on steals
        // until the pending counter drains, then every worker exits.
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
    fn partitioned_race_matches_the_serial_optimum_with_stealing() {
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

//! Depth-first search, branch & bound and the anytime behaviour of Entropy.
//!
//! The optimizer of the paper "keeps computing configurations with a reduced
//! cost until it proves that the cost of the plan is minimum or hits the
//! timeout".  [`Search::minimize`] reproduces exactly that contract: it
//! returns the best solution found within the deadline together with
//! statistics saying whether optimality was proven.
//!
//! Variable ordering is **first-fail** (smallest domain first), the
//! heuristic the paper cites (Haralick & Elliott, 1980), with per-variable
//! tie-break weights; value ordering is smallest-value-first after an
//! optional preferred value per variable, which the placement model uses to
//! try a VM's current node first so that solutions with few migrations are
//! found early.  Both heuristics are data in [`SearchConfig`].
//!
//! # One store, one loop
//!
//! There is **one** node-expansion loop (`SearchState::dive`), and it is
//! iterative.  A search owns a single [`DomainStore`]; the loop walks the
//! tree over it with an explicit stack of frames, one per branching node:
//!
//! 1. *enter* the node the store carries (its decision applied, not yet
//!    propagated): check the limits, count the node, propagate what the
//!    decision changed to fixpoint ([`Model::propagate`]), then ask the
//!    caller's visitor to prune it, to take it as a leaf, or to let it
//!    branch;
//! 2. a branching node picks its variable, writes its ordered value list
//!    into one shared buffer — fixed from then on, whatever its children do
//!    — takes a [`Mark`] of its propagated state and pushes a frame;
//! 3. the top frame hands out its next value: `undo_to` its mark, `assign`,
//!    and go to 1; a frame with no value left is popped.
//!
//! Nothing is copied to remember a choice point and nothing recurses, so a
//! steady-state node allocates nothing and the depth of a dive — as deep as
//! the model has variables — costs heap frames, not thread stack.
//! [`Search::minimize`] dives once, from the root; each worker of the
//! partitioned portfolio ([`crate::portfolio`]) dives from the root values
//! of its own slice, one after the other; [`Search::solve`] and
//! [`Search::solve_all`] run the same loop with a visitor that only collects
//! leaves.

use std::sync::atomic::{AtomicI64, Ordering};
use std::time::{Duration, Instant};

use crate::store::{DomainStore, Mark, Model, VarId};

/// State shared by the racing workers of a portfolio search (see
/// [`crate::portfolio`]): the best cost found by *any* worker, used as an
/// extra branch & bound pruning bound.
///
/// The bound only ever decreases (`publish` is a `fetch_min`), so pruning
/// against a stale read is always sound: a subtree pruned because its lower
/// bound reached an *older, larger* bound can contain no solution cheaper
/// than the final one either.  The race owns it; its scoped workers borrow
/// it.
#[derive(Debug)]
pub(crate) struct SharedBound {
    /// Best cost published so far; `i64::MAX` encodes "none yet".
    bound: AtomicI64,
}

impl SharedBound {
    /// A fresh bound with no published incumbent.
    pub(crate) fn new() -> Self {
        SharedBound {
            bound: AtomicI64::new(i64::MAX),
        }
    }

    /// The best cost published by any run, if any.
    pub(crate) fn best_cost(&self) -> Option<i64> {
        // relaxed: a stale (larger) bound only weakens pruning, never
        // soundness — the bound is monotonically decreasing (fetch_min) and
        // is a pure scalar, carrying no other data to synchronize.
        let bound = self.bound.load(Ordering::Relaxed);
        (bound != i64::MAX).then_some(bound)
    }

    /// Publish a cost; keeps the minimum of all published costs.
    pub(crate) fn publish(&self, cost: i64) {
        // relaxed: the RMW is atomic at any ordering, so the bound stays
        // the true minimum; readers tolerate staleness (see `best_cost`).
        self.bound.fetch_min(cost, Ordering::Relaxed);
    }
}

/// A complete assignment: one value per variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Solution {
    values: Vec<u32>,
}

impl Solution {
    pub(crate) fn from_store(store: &DomainStore) -> Self {
        Solution {
            values: (0..store.var_count())
                .map(|i| store.value(VarId(i)))
                .collect(),
        }
    }

    /// The same solution in `buffer`, whose allocation it keeps when it
    /// has room for every value.
    pub(crate) fn copied_into(&self, mut buffer: Vec<u32>) -> Solution {
        buffer.clear();
        buffer.extend_from_slice(&self.values);
        Solution { values: buffer }
    }

    /// Value assigned to a variable.
    pub fn value(&self, var: VarId) -> u32 {
        self.values[var.0]
    }

    /// All values in variable order.
    pub fn values(&self) -> &[u32] {
        &self.values
    }
}

impl std::ops::Index<VarId> for Solution {
    type Output = u32;
    fn index(&self, var: VarId) -> &u32 {
        &self.values[var.0]
    }
}

/// Objective for branch & bound minimisation.
///
/// The search asks both methods only of a store the model propagated to
/// its fixpoint — after [`Model::propagate`] returned `Ok` and before the
/// next decision — so an objective posted into the model as a propagator
/// may answer from the trailed cells it keeps there
/// ([`crate::AnchoredCost`] does).
pub trait Objective {
    /// Exact cost of a complete assignment, on a propagated store.
    fn evaluate(&self, store: &DomainStore) -> i64;

    /// A lower bound of the cost of any completion of a partial assignment,
    /// on a propagated store.  Must never exceed [`Objective::evaluate`] on
    /// any completion; returning `i64::MIN` disables pruning at that node.
    fn lower_bound(&self, store: &DomainStore) -> i64 {
        let _ = store;
        i64::MIN
    }
}

/// Search configuration: heuristics and limits.
///
/// Variable ordering is **first-fail** (smallest remaining domain first),
/// ties broken by [`weights`](SearchConfig::weights) (largest first), then
/// by the variable index, so that "VMs with important CPU and memory
/// requirements are treated earlier than VMs with lesser requirements" as in
/// the paper.  Value ordering tries the variable's
/// [`preferred`](SearchConfig::preferred) value first (when still in the
/// domain), then the rest in increasing order.
#[derive(Clone, Default)]
pub struct SearchConfig {
    /// First-fail tie-break weight per variable, in variable order (larger =
    /// branch earlier); a variable past the end weighs 0, so an empty
    /// vector breaks ties by index alone.
    pub weights: Vec<u64>,
    /// Preferred value per variable, in variable order: tried first while
    /// it is in the domain.  A variable past the end or with `None` has no
    /// preferred value and takes its values smallest first, so an empty
    /// vector is plain smallest-value-first.  The placement model prefers
    /// each VM's current host.
    pub preferred: Vec<Option<u32>>,
    /// Wall-clock limit; `None` means unlimited.
    pub timeout: Option<Duration>,
    /// Maximum number of explored search nodes; `None` means unlimited.
    /// A portfolio race under a node budget is deterministic (see
    /// [`crate::portfolio`]).
    pub node_limit: Option<u64>,
    /// Incumbent seeding for [`Search::minimize`]: a complete assignment
    /// (one value per variable, in variable order) installed as the first
    /// incumbent before the tree search starts.  The placement model passes
    /// the current configuration here so that "no worse than today" holds
    /// from the very first node; an infeasible incumbent is ignored.
    pub incumbent: Option<Vec<u32>>,
}

/// Statistics of one search run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Number of explored search nodes (decisions).
    pub nodes: u64,
    /// Number of failures (inconsistencies).
    pub failures: u64,
    /// Number of propagator executions, the validation of the incumbents
    /// included: the machine-independent measure of the work under the
    /// nodes.
    pub propagations: u64,
    /// Number of (improving) solutions found.
    pub solutions: u64,
    /// Always 0: the search never restarts.  Kept for `perf/`, which reads
    /// it, until ROADMAP item 1 drops it.
    pub restarts: u64,
    /// True when the returned solution is the seeded incumbent (no improving
    /// solution was found by the tree search).
    pub incumbent_kept: bool,
    /// True when the search space was exhausted within the limits, i.e. the
    /// last solution is proven optimal (for `minimize`) or the absence of
    /// further solutions is proven.
    pub completed: bool,
    /// The objective's [`Objective::lower_bound`] at the propagated root: no
    /// solution costs less.  Set by minimisation only; `None` when the root
    /// was never propagated to a fixpoint (it is infeasible, or a serial
    /// search's node budget was zero).  Every worker of a race reports the
    /// race's one root.  With the best cost it gives the solve's optimality
    /// gap.
    pub root_bound: Option<i64>,
    /// Wall-clock time spent searching, in milliseconds.
    pub elapsed_ms: u64,
}

/// Result of a minimisation: best solution, its cost, and statistics.
#[derive(Debug, Clone)]
pub struct MinimizeOutcome {
    /// Best solution found, if any.
    pub best: Option<Solution>,
    /// Cost of the best solution.
    pub best_cost: Option<i64>,
    /// Search statistics.
    pub stats: SearchStats,
}

/// A depth-first constraint search over a [`Model`].
pub struct Search<'m> {
    model: &'m Model,
    config: SearchConfig,
}

/// A branching node on the explicit stack of a dive.
struct Frame {
    var: VarId,
    /// The node's propagated state, restored before each child.
    mark: Mark,
    /// The node's value list is `values[start..end]` of the shared buffer;
    /// `next` is the child to try next.
    start: usize,
    next: usize,
    end: usize,
}

/// Nodes between two looks at the clock: a node can cost a microsecond,
/// which is what reading the time costs too.
const DEADLINE_POLL_NODES: u64 = 64;

/// What every search of this crate carries down its dive: the model,
/// the heuristics and limits, the running statistics, and the explicit
/// stack of the node-expansion loop.
pub(crate) struct SearchState<'a> {
    model: &'a Model,
    pub(crate) config: &'a SearchConfig,
    deadline: Option<Instant>,
    pub(crate) stats: SearchStats,
    pub(crate) stopped: bool,
    /// The bound a timed portfolio race shares between its workers (`None`
    /// outside timed races): an extra pruning bound fed by every worker's
    /// improving solutions.
    shared: Option<&'a SharedBound>,
    /// How far every branching's value list is rotated after its preferred
    /// value: a portfolio worker's id, 0 for the serial search.
    rotation: u64,
    /// The branching nodes of the current dive, outermost first.
    frames: Vec<Frame>,
    /// Their value lists, stacked in the same order.
    values: Vec<u32>,
}

impl<'a> SearchState<'a> {
    pub(crate) fn new(
        model: &'a Model,
        config: &'a SearchConfig,
        start: Instant,
        shared: Option<&'a SharedBound>,
        rotation: u64,
    ) -> Self {
        SearchState {
            model,
            config,
            deadline: config.timeout.map(|t| start + t),
            stats: SearchStats::default(),
            stopped: false,
            shared,
            rotation,
            frames: Vec::new(),
            values: Vec::new(),
        }
    }

    /// True (and sticky) once the deadline passed or the node budget is
    /// spent.  The budget is exact; the clock is read on the first node and
    /// every [`DEADLINE_POLL_NODES`]th after it.
    pub(crate) fn limits_reached(&mut self) -> bool {
        if self.stopped {
            return true;
        }
        if let Some(deadline) = self.deadline {
            if self.stats.nodes % DEADLINE_POLL_NODES == 0 && Instant::now() >= deadline {
                self.stopped = true;
                return true;
            }
        }
        if let Some(limit) = self.config.node_limit {
            if self.stats.nodes >= limit {
                self.stopped = true;
                return true;
            }
        }
        false
    }

    /// Explore the subtree under the node `store` carries (its decision
    /// applied, not yet propagated) depth-first, until it is exhausted or
    /// a [`Flow::Stop`] unwinds it.  `visit` sees every node that survived
    /// propagation: `Some(flow)` closes it (pruned, or a leaf taken) and
    /// `None` lets it branch.
    ///
    /// The store comes back narrowed — the caller undoes to a mark of its
    /// own, taken before the starting decision.
    pub(crate) fn dive(
        &mut self,
        store: &mut DomainStore,
        mut visit: impl FnMut(&DomainStore, &mut SearchStats) -> Option<Flow>,
    ) {
        debug_assert!(self.frames.is_empty() && self.values.is_empty());
        loop {
            if self.enter(store, &mut visit) == Flow::Stop {
                self.frames.clear();
                self.values.clear();
                return;
            }
            // The next decision: the first value the innermost frame has
            // left that its variable can still take.
            loop {
                let Some(frame) = self.frames.last_mut() else {
                    return;
                };
                store.undo_to(frame.mark);
                if frame.next == frame.end {
                    self.values.truncate(frame.start);
                    self.frames.pop();
                    continue;
                }
                let value = self.values[frame.next];
                frame.next += 1;
                if store.assign(frame.var, value).is_ok() {
                    break;
                }
                self.stats.failures += 1;
            }
        }
    }

    /// Expand one node.  [`Flow::Continue`] means the node is dealt with:
    /// closed, or pushed as a frame for its children.
    fn enter(
        &mut self,
        store: &mut DomainStore,
        visit: &mut impl FnMut(&DomainStore, &mut SearchStats) -> Option<Flow>,
    ) -> Flow {
        if self.limits_reached() {
            return Flow::Stop;
        }
        self.stats.nodes += 1;
        let propagated = self.model.propagate(store, &mut self.stats.propagations);
        if propagated.is_err() {
            self.stats.failures += 1;
            return Flow::Continue;
        }
        if let Some(flow) = visit(store, &mut self.stats) {
            return flow;
        }
        let config = self.config;
        let var = Search::select_variable(&config.weights, store);
        let start = self.values.len();
        Search::order_values(
            &config.preferred,
            var,
            store,
            self.rotation,
            &mut self.values,
        );
        self.frames.push(Frame {
            var,
            mark: store.mark(),
            start,
            next: start,
            end: self.values.len(),
        });
        Flow::Continue
    }
}

/// Control flow of a depth-first dive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Flow {
    /// Subtree done (explored, pruned or failed): continue with siblings.
    Continue,
    /// A limit fired (or a satisfaction search has what it wanted): unwind
    /// and stop the search.
    Stop,
}

/// The branch & bound kernel: one anytime minimisation over the shared
/// node-expansion loop.
pub(crate) struct BranchAndBound<'a, O: Objective> {
    pub(crate) state: SearchState<'a>,
    objective: &'a O,
    pub(crate) best: Option<Solution>,
    pub(crate) best_cost: Option<i64>,
}

impl<'a, O: Objective> BranchAndBound<'a, O> {
    pub(crate) fn new(state: SearchState<'a>, objective: &'a O) -> Self {
        BranchAndBound {
            state,
            objective,
            best: None,
            best_cost: None,
        }
    }

    /// Install a validated incumbent as the starting bound.
    pub(crate) fn seed(&mut self, (solution, cost): (Solution, i64)) {
        self.best = Some(solution);
        self.best_cost = Some(cost);
        self.state.stats.incumbent_kept = true;
    }

    /// Seal the statistics once the dive is over.
    pub(crate) fn finish(&mut self, start: Instant) {
        self.state.stats.completed = !self.state.stopped;
        self.state.stats.elapsed_ms = start.elapsed().as_millis() as u64;
    }

    /// Branch & bound over the subtree under the node `store` carries (see
    /// [`SearchState::dive`]).
    pub(crate) fn dive(&mut self, store: &mut DomainStore) {
        let BranchAndBound {
            state,
            objective,
            best,
            best_cost,
        } = self;
        let shared = state.shared;
        state.dive(store, |store, stats| {
            // The first node a minimisation propagates is its root (a race
            // sets its workers' before they dive).
            if stats.root_bound.is_none() {
                stats.root_bound = Some(objective.lower_bound(store));
            }
            // Bound: prune when the partial assignment cannot beat the
            // incumbent — the local one, or the best published by any
            // portfolio worker.
            let prune_bound = match (*best_cost, shared.and_then(SharedBound::best_cost)) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (bound, None) | (None, bound) => bound,
            };
            if let Some(current_best) = prune_bound {
                if objective.lower_bound(store) >= current_best {
                    stats.failures += 1;
                    return Some(Flow::Continue);
                }
            }
            if !store.all_fixed() {
                return None;
            }
            let cost = objective.evaluate(store);
            if best_cost.map(|b| cost < b).unwrap_or(true) {
                *best = Some(Solution::from_store(store));
                *best_cost = Some(cost);
                stats.solutions += 1;
                stats.incumbent_kept = false;
                if let Some(shared) = shared {
                    shared.publish(cost);
                }
            }
            Some(Flow::Continue)
        })
    }
}

impl<'m> Search<'m> {
    /// Build a search over `model` with the given configuration.
    pub fn new(model: &'m Model, config: SearchConfig) -> Self {
        Search { model, config }
    }

    /// Find the first solution, if any.
    pub fn solve(&self) -> Option<Solution> {
        self.solve_with_stats().0
    }

    /// Find the first solution and report statistics.
    pub(crate) fn solve_with_stats(&self) -> (Option<Solution>, SearchStats) {
        let start = Instant::now();
        let mut first: Option<Solution> = None;
        let mut stats = self.dfs(start, |store| {
            first = Some(Solution::from_store(store));
            Flow::Stop
        });
        stats.completed |= first.is_some();
        stats.elapsed_ms = start.elapsed().as_millis() as u64;
        (first, stats)
    }

    /// Enumerate up to `limit` solutions (useful in tests).
    pub fn solve_all(&self, limit: usize) -> Vec<Solution> {
        let mut solutions = Vec::new();
        self.dfs(Instant::now(), |store| {
            solutions.push(Solution::from_store(store));
            if solutions.len() >= limit {
                Flow::Stop
            } else {
                Flow::Continue
            }
        });
        solutions
    }

    /// Branch & bound minimisation of `objective`: explore the search tree,
    /// keep the best solution found, prune subtrees whose lower bound cannot
    /// improve it, and stop at the deadline.  The result is *anytime*: even
    /// when the deadline fires the best solution found so far is returned.
    ///
    /// When [`SearchConfig::incumbent`] carries a feasible assignment it is
    /// installed as the first incumbent, so the outcome can never be worse
    /// than the seed.
    pub fn minimize<O: Objective>(&self, objective: &O) -> MinimizeOutcome {
        let start = Instant::now();
        let state = SearchState::new(self.model, &self.config, start, None, 0);
        let mut bnb = BranchAndBound::new(state, objective);

        // Seed the incumbent, if the caller provided a feasible one.
        let incumbent = self.config.incumbent.as_ref();
        let runs = &mut bnb.state.stats.propagations;
        if let Some(seed) =
            incumbent.and_then(|values| self.validate_incumbent(values, objective, runs))
        {
            bnb.seed(seed);
        }

        // One dive from the root, entered unpropagated as a node of its own.
        bnb.dive(&mut self.model.root_store());
        bnb.finish(start);
        MinimizeOutcome {
            best: bnb.best,
            best_cost: bnb.best_cost,
            stats: bnb.state.stats,
        }
    }

    /// Check that an incumbent assignment is complete and consistent with
    /// every propagator; returns it with its cost when it is.  `runs`
    /// counts the propagator executions.
    pub(crate) fn validate_incumbent<O: Objective>(
        &self,
        values: &[u32],
        objective: &O,
        runs: &mut u64,
    ) -> Option<(Solution, i64)> {
        if values.len() != self.model.var_count() {
            return None;
        }
        let mut store = self.model.root_store();
        for (i, &value) in values.iter().enumerate() {
            if store.assign(VarId(i), value).is_err() {
                return None;
            }
        }
        if self.model.propagate(&mut store, runs).is_err() {
            return None;
        }
        store
            .all_fixed()
            .then(|| (Solution::from_store(&store), objective.evaluate(&store)))
    }

    /// Satisfaction search: plain depth-first enumeration in the canonical
    /// value order, `on_solution` decides whether to go on.
    fn dfs(
        &self,
        start: Instant,
        mut on_solution: impl FnMut(&DomainStore) -> Flow,
    ) -> SearchStats {
        let mut state = SearchState::new(self.model, &self.config, start, None, 0);
        state.dive(&mut self.model.root_store(), |store, stats| {
            store.all_fixed().then(|| {
                stats.solutions += 1;
                on_solution(store)
            })
        });
        state.stats.completed = !state.stopped;
        state.stats
    }

    /// First-fail: the unfixed variable with the smallest domain, the
    /// heaviest of `weights` on a size tie, then the lowest index.
    pub(crate) fn select_variable(weights: &[u64], store: &DomainStore) -> VarId {
        // Smallest (size, heaviest, index) among the variables that are not
        // fixed; the weight is only looked up on a size tie.
        let mut best: Option<(u32, std::cmp::Reverse<u64>, usize)> = None;
        for (v, &size) in store.sizes().iter().enumerate() {
            if size == 1 || best.is_some_and(|(smallest, ..)| size > smallest) {
                continue;
            }
            let weight = weights.get(v).copied().unwrap_or(0);
            let key = (size, std::cmp::Reverse(weight), v);
            if best.map_or(true, |best| key < best) {
                best = Some(key);
            }
        }
        let (.., var) = best.expect("at least one unfixed variable");
        VarId(var)
    }

    /// Append the value ordering of `var` to `values`: the preferred value
    /// (when any) first, and the remaining values in increasing order,
    /// rotated left by `rotation` so that the workers of a race branch into
    /// different subtrees first.
    pub(crate) fn order_values(
        preferred: &[Option<u32>],
        var: VarId,
        store: &DomainStore,
        rotation: u64,
        values: &mut Vec<u32>,
    ) {
        let start = values.len();
        values.extend(store.domain(var).iter());
        let values = &mut values[start..];
        let preferred = preferred.get(var.0).copied().flatten();
        let pinned = match preferred.and_then(|p| values.iter().position(|&v| v == p)) {
            Some(position) => {
                values[..=position].rotate_right(1);
                1
            }
            None => 0,
        };
        let tail = &mut values[pinned..];
        if rotation > 0 && tail.len() > 1 {
            tail.rotate_left((rotation % tail.len() as u64) as usize);
        }
    }
}

/// Convenience objective backed by closures.
pub struct ClosureObjective<E, L>
where
    E: Fn(&DomainStore) -> i64,
    L: Fn(&DomainStore) -> i64,
{
    evaluate: E,
    lower_bound: L,
}

impl<E, L> ClosureObjective<E, L>
where
    E: Fn(&DomainStore) -> i64,
    L: Fn(&DomainStore) -> i64,
{
    /// Build an objective from an evaluation closure and a lower-bound
    /// closure.
    pub fn new(evaluate: E, lower_bound: L) -> Self {
        ClosureObjective {
            evaluate,
            lower_bound,
        }
    }
}

impl<E, L> Objective for ClosureObjective<E, L>
where
    E: Fn(&DomainStore) -> i64,
    L: Fn(&DomainStore) -> i64,
{
    fn evaluate(&self, store: &DomainStore) -> i64 {
        (self.evaluate)(store)
    }

    fn lower_bound(&self, store: &DomainStore) -> i64 {
        (self.lower_bound)(store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::{AllDifferent, BinPacking, LinearLeq};
    use crate::store::Model;

    #[test]
    fn solve_finds_a_feasible_assignment() {
        let mut m = Model::new();
        let vars: Vec<_> = (0..4).map(|_| m.new_var(0, 3)).collect();
        m.post(AllDifferent::new(vars.clone()));
        let s = Search::new(&m, SearchConfig::default()).solve().unwrap();
        let mut values: Vec<u32> = vars.iter().map(|&v| s[v]).collect();
        values.sort();
        assert_eq!(values, vec![0, 1, 2, 3]);
    }

    #[test]
    fn unsatisfiable_model_returns_none() {
        let mut m = Model::new();
        let vars: Vec<_> = (0..3).map(|_| m.new_var(0, 1)).collect();
        m.post(AllDifferent::new(vars));
        assert!(Search::new(&m, SearchConfig::default()).solve().is_none());
    }

    #[test]
    fn solve_all_enumerates_every_solution() {
        // Two variables in [0,1] with no constraint: 4 solutions.
        let mut m = Model::new();
        m.new_var(0, 1);
        m.new_var(0, 1);
        let all = Search::new(&m, SearchConfig::default()).solve_all(100);
        assert_eq!(all.len(), 4);
        // Limit is respected.
        let some = Search::new(&m, SearchConfig::default()).solve_all(2);
        assert_eq!(some.len(), 2);
    }

    #[test]
    fn minimize_finds_the_optimum_and_proves_it() {
        // Minimise x + y subject to x + y >= 3 encoded as 3 - x - y <= 0
        // via LinearLeq on complemented variables is awkward; instead use
        // bin-packing to force a spread and minimise a weighted sum.
        let mut m = Model::new();
        let x = m.new_var(0, 5);
        let y = m.new_var(0, 5);
        // x + y <= 8 (loose).
        m.post(LinearLeq::sum_leq(vec![x, y], 8));
        // Objective: minimise 2x + y.
        let objective = ClosureObjective::new(
            move |store: &DomainStore| 2 * store.value(x) as i64 + store.value(y) as i64,
            move |store: &DomainStore| 2 * store.min(x) as i64 + store.min(y) as i64,
        );
        let outcome = Search::new(&m, SearchConfig::default()).minimize(&objective);
        assert_eq!(outcome.best_cost, Some(0));
        assert!(outcome.stats.completed);
        let best = outcome.best.unwrap();
        assert_eq!(best[x], 0);
        assert_eq!(best[y], 0);
    }

    #[test]
    fn minimize_respects_preferred_values() {
        // Without constraints, the preferred value should be found first and
        // never improved upon if it is already optimal for the objective.
        let mut m = Model::new();
        let x = m.new_var(0, 9);
        let objective = ClosureObjective::new(
            move |store: &DomainStore| {
                // Cost 0 when x keeps its "current placement" 7, 1 otherwise.
                if store.value(x) == 7 {
                    0
                } else {
                    1
                }
            },
            |_| 0,
        );
        let config = SearchConfig {
            preferred: vec![Some(7)],
            ..Default::default()
        };
        let outcome = Search::new(&m, config).minimize(&objective);
        assert_eq!(outcome.best_cost, Some(0));
        assert_eq!(outcome.best.unwrap()[x], 7);
        // The very first solution explored was already the optimum.
        assert_eq!(outcome.stats.solutions, 1);
    }

    #[test]
    fn first_fail_branches_on_smallest_domain() {
        let mut m = Model::new();
        let _wide = m.new_var(0, 9);
        let narrow = m.new_var(0, 1);
        let store = m.root_store();
        let chosen = Search::select_variable(&[], &store);
        assert_eq!(chosen, narrow);
    }

    #[test]
    fn first_fail_ties_break_by_weight() {
        let mut m = Model::new();
        let light = m.new_var(0, 1);
        let heavy = m.new_var(0, 1);
        let store = m.root_store();
        let chosen = Search::select_variable(&[1, 10], &store);
        assert_eq!(chosen, heavy);
        // Equal weights: the lower variable index wins.
        let chosen = Search::select_variable(&[], &store);
        assert_eq!(chosen, light);
    }

    #[test]
    fn node_limit_stops_the_search() {
        let mut m = Model::new();
        let vars: Vec<_> = (0..8).map(|_| m.new_var(0, 7)).collect();
        m.post(AllDifferent::new(vars));
        let config = SearchConfig {
            node_limit: Some(3),
            ..Default::default()
        };
        let (sol, stats) = Search::new(&m, config).solve_with_stats();
        assert!(sol.is_none());
        assert!(stats.nodes <= 4);
    }

    #[test]
    fn timeout_is_anytime_for_minimize() {
        // A big enough problem that optimality is not proven instantly, with
        // a tiny timeout: we must still get *a* solution back (or none, but
        // the run must terminate quickly) and completed == false if stopped.
        let mut m = Model::new();
        let vars: Vec<_> = (0..10).map(|_| m.new_var(0, 9)).collect();
        m.post(BinPacking::new(vars.clone(), vec![1; 10], vec![2; 10]));
        let objective = ClosureObjective::new(
            {
                let vars = vars.clone();
                move |store: &DomainStore| vars.iter().map(|&v| store.value(v) as i64).sum()
            },
            |_| i64::MIN,
        );
        let config = SearchConfig {
            timeout: Some(Duration::from_millis(50)),
            ..Default::default()
        };
        let outcome = Search::new(&m, config).minimize(&objective);
        // Either it completed very fast (tiny problem for the machine) or it
        // was cut; in both cases the call returns promptly and coherently.
        if !outcome.stats.completed {
            assert!(outcome.stats.elapsed_ms <= 5_000);
        }
        assert!(outcome.best.is_some());
    }

    #[test]
    fn incumbent_bounds_the_outcome_even_with_no_search_budget() {
        // With a zero node budget the tree search explores nothing: the
        // seeded incumbent must come back unchanged.
        let mut m = Model::new();
        let x = m.new_var(0, 9);
        let objective =
            ClosureObjective::new(move |store: &DomainStore| store.value(x) as i64, |_| 0);
        let config = SearchConfig {
            node_limit: Some(0),
            incumbent: Some(vec![3]),
            ..Default::default()
        };
        let outcome = Search::new(&m, config).minimize(&objective);
        assert_eq!(outcome.best_cost, Some(3));
        assert_eq!(outcome.best.unwrap()[x], 3);
        assert!(outcome.stats.incumbent_kept);
    }

    #[test]
    fn search_improves_on_the_incumbent_when_it_can() {
        let mut m = Model::new();
        let x = m.new_var(0, 9);
        let objective =
            ClosureObjective::new(move |store: &DomainStore| store.value(x) as i64, |_| 0);
        let config = SearchConfig {
            incumbent: Some(vec![7]),
            ..Default::default()
        };
        let outcome = Search::new(&m, config).minimize(&objective);
        assert_eq!(outcome.best_cost, Some(0));
        assert!(!outcome.stats.incumbent_kept);
        assert!(outcome.stats.completed);
    }

    #[test]
    fn infeasible_incumbents_are_ignored() {
        let mut m = Model::new();
        let vars: Vec<_> = (0..2).map(|_| m.new_var(0, 1)).collect();
        m.post(AllDifferent::new(vars.clone()));
        let objective = ClosureObjective::new(
            {
                let vars = vars.clone();
                move |store: &DomainStore| vars.iter().map(|&v| store.value(v) as i64).sum()
            },
            |_| 0,
        );
        // Violates AllDifferent; names a value outside a domain (assigning
        // it wipes the domain out); too short: each must be discarded, not
        // trusted.
        for incumbent in [vec![1, 1], vec![0, 7], vec![0]] {
            let config = SearchConfig {
                incumbent: Some(incumbent),
                ..Default::default()
            };
            let outcome = Search::new(&m, config).minimize(&objective);
            assert_eq!(outcome.best_cost, Some(1), "0 + 1 in some order");
            assert!(outcome.stats.completed);
            assert!(!outcome.stats.incumbent_kept);
        }
    }

    #[test]
    fn shared_bound_is_the_monotone_minimum_under_real_threads() {
        use std::sync::mpsc::{channel, TryRecvError};
        use std::sync::Barrier;

        const PUBLISHERS: u64 = 4;
        const COSTS: usize = 300;
        assert_eq!(SharedBound::new().best_cost(), None, "nothing published");
        let bound = SharedBound::new();
        let barrier = Barrier::new(PUBLISHERS as usize + 1);
        // Every publisher holds a sender and drops it when done: the
        // reader keeps reading until the channel disconnects.
        let (done, publishing) = channel::<()>();
        let minimum = std::thread::scope(|scope| {
            let publishers: Vec<_> = (0..PUBLISHERS)
                .map(|k| {
                    let (bound, barrier, done) = (&bound, &barrier, done.clone());
                    scope.spawn(move || {
                        let _done = done;
                        let mut rng = cwcs_model::SmallRng::seed_from_u64(0x5EED ^ k << 32);
                        let costs: Vec<i64> = (0..COSTS)
                            .map(|_| rng.u64_in(0, 1_000_000) as i64 - 500_000)
                            .collect();
                        barrier.wait();
                        for &cost in &costs {
                            bound.publish(cost);
                        }
                        costs.into_iter().min().expect("COSTS > 0")
                    })
                })
                .collect();
            drop(done);
            barrier.wait();
            let mut last = i64::MAX;
            while publishing.try_recv() != Err(TryRecvError::Disconnected) {
                if let Some(cost) = bound.best_cost() {
                    assert!(cost <= last, "the bound went up: {last} -> {cost}");
                    last = cost;
                }
            }
            publishers
                .into_iter()
                .map(|handle| handle.join().expect("publisher panicked"))
                .min()
        });
        assert_eq!(bound.best_cost(), minimum);
    }

    #[test]
    fn bin_packing_placement_end_to_end() {
        // 4 VMs of CPU demand 1 on 2 nodes of capacity 2: a perfect split.
        let mut m = Model::new();
        let vars: Vec<_> = (0..4).map(|_| m.new_var(0, 1)).collect();
        m.post(BinPacking::new(vars.clone(), vec![1; 4], vec![2, 2]));
        let s = Search::new(&m, SearchConfig::default()).solve().unwrap();
        let on_zero = vars.iter().filter(|&&v| s[v] == 0).count();
        assert_eq!(on_zero, 2);
    }
}

//! The constraint model and the domain store manipulated during search.
//!
//! A [`Model`] owns the initial domains and the posted propagators; a
//! [`DomainStore`] is the mutable state propagation and search work on.
//! A model only grows — variables are created, propagators posted — and is
//! then searched; a caller with a different problem builds a new one.
//!
//! # One arena, one trail, two kinds of entry
//!
//! The store keeps **every** domain in a single word arena — variable `v`
//! owns words `v · stride .. (v + 1) · stride`, `stride` being the word
//! count of the widest domain — with the cardinality, minimum and maximum of
//! each variable in three side arrays and the number of variables that are
//! not fixed in one counter, so [`DomainStore::all_fixed`] is O(1).  Next to
//! the domains it keeps the **cells**: plain `u64`s a propagator claimed when
//! it was posted ([`Propagator::claim_cells`]) to carry state from one call
//! to the next — a bin's committed load, say.  All of them start at 0.
//!
//! Search does not copy the store to remember a choice point.  It takes a
//! [`Mark`], lets decisions and propagation narrow the store, and calls
//! [`DomainStore::undo_to`] to come back.  The **trail** behind that is an
//! undo log with two kinds of entry, whole domains and cells: the first time
//! a variable (or a cell) changes after a mark (or after an undo), its words
//! and summary (or its value) are pushed; later changes of the same variable
//! or cell before the next mark cost nothing.  `undo_to` pops both logs back
//! to the mark's lengths and restores the open-variable count the mark
//! carries.  A failed node leaves its store wiped out; the wiped domain was
//! saved like any other change, so undoing restores it too.  Changes made
//! before the first mark are never logged — there is nothing to come back
//! to.
//!
//! # The dirty queue
//!
//! Every narrowing also notes its variable in a queue of the variables
//! narrowed since propagation last drained it (once per variable, however
//! often it changes in between): that queue is all [`Model::propagate`] has
//! to look at to know which propagators to wake.  A propagator subscribes
//! with one of two wake kinds ([`WakeOn`]), and the model keeps one
//! subscription list per kind: a popped variable wakes its
//! [`WakeOn::Narrowed`] watchers always and its [`WakeOn::Fixed`] watchers
//! only when it is fixed.  Bin packing is of the second kind, so the
//! narrowings that leave a variable open cost it nothing at all, not even
//! a call.  `undo_to` empties the queue —
//! what a failed node left there is about a state that no longer exists —
//! so a mark is to be taken where nothing is pending: on a propagated
//! store, or on one nothing was propagated on yet (which a second flag the
//! mark carries remembers, see [`Model::propagate`]).
//!
//! One store serves a whole search (or one portfolio worker): in the steady
//! state of a dive, narrowing, propagating and undoing allocate nothing.

use std::sync::Arc;

use crate::domain::{Domain, DomainRef, IntDomain};
use crate::propagator::{Inconsistency, Propagator, WakeOn};

/// Index of a decision variable inside a [`Model`] / [`DomainStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub usize);

/// A constraint model: variables (initial domains) and propagators.
/// Append-only: there is no way to change a variable or a propagator once
/// it is in, so a [`VarId`] is the position the caller created it at.
#[derive(Clone, Default)]
pub struct Model {
    domains: Vec<IntDomain>,
    propagators: Vec<Arc<dyn Propagator>>,
    /// `on_narrowed[v]`: the propagators woken by any narrowing of variable
    /// `v`, in posting order, each once …
    on_narrowed: Vec<Vec<u32>>,
    /// … and `on_fixed[v]` those woken only when `v` is fixed.
    on_fixed: Vec<Vec<u32>>,
    /// Trailed cells claimed by the propagators so far.
    cells: usize,
}

impl Model {
    /// An empty model.
    pub fn new() -> Self {
        Model::default()
    }

    /// Create a variable whose domain is `[lo, hi]` (inclusive).
    pub fn new_var(&mut self, lo: u32, hi: u32) -> VarId {
        self.push_var(IntDomain::range(lo, hi))
    }

    /// Create a variable with an explicit set of candidate values.
    pub fn new_var_with_values(&mut self, values: &[u32]) -> VarId {
        self.push_var(IntDomain::from_values(values))
    }

    fn push_var(&mut self, domain: IntDomain) -> VarId {
        self.domains.push(domain);
        self.on_narrowed.push(Vec::new());
        self.on_fixed.push(Vec::new());
        VarId(self.domains.len() - 1)
    }

    /// Post a propagator: it claims its trailed cells and is subscribed to
    /// the variables it watches, in the list of its [`WakeOn`] kind.
    ///
    /// # Panics
    /// Panics when the propagator watches a variable this model did not
    /// create.
    pub fn post<P: Propagator + 'static>(&mut self, mut propagator: P) {
        self.cells += propagator.claim_cells(self.cells);
        let index = self.propagators.len() as u32;
        let subscriptions = match propagator.wake_on() {
            WakeOn::Narrowed => &mut self.on_narrowed,
            WakeOn::Fixed => &mut self.on_fixed,
        };
        for var in propagator.watched() {
            let watchers = &mut subscriptions[var.0];
            // A variable watched twice is still woken once.
            if watchers.last() != Some(&index) {
                watchers.push(index);
            }
        }
        self.propagators.push(Arc::new(propagator));
    }

    /// Number of variables.
    pub(crate) fn var_count(&self) -> usize {
        self.domains.len()
    }

    /// Number of posted propagators.
    #[cfg(test)]
    pub(crate) fn propagator_count(&self) -> usize {
        self.propagators.len()
    }

    /// Number of trailed cells claimed so far: the next propagator posted
    /// gets its cells from this index on.
    pub fn cell_count(&self) -> usize {
        self.cells
    }

    /// Initial domain of a variable.
    #[cfg(test)]
    pub(crate) fn initial_domain(&self, var: VarId) -> &IntDomain {
        &self.domains[var.0]
    }

    /// Propagate to fixpoint: narrow `store` until no propagator can prune
    /// any further, or fail.  `runs` counts the propagator executions.
    ///
    /// On a store nothing was propagated on yet, every propagator first
    /// runs from scratch ([`Propagator::propagate`]).  From then on the only
    /// work is the dirty queue: each variable narrowed since the last call
    /// — by a decision or by a propagator — wakes the propagators watching
    /// it ([`Propagator::narrowed`]): when it is fixed, first those
    /// subscribed with [`WakeOn::Fixed`], then the [`WakeOn::Narrowed`]
    /// ones, until the queue is empty.  The propagators are monotone, so the
    /// fixpoint, and whether there is one, does not depend on the order they
    /// ran in.
    ///
    /// After an `Err` the store is meaningless until it is undone to a mark.
    pub fn propagate(&self, store: &mut DomainStore, runs: &mut u64) -> Result<(), Inconsistency> {
        if !std::mem::replace(&mut store.rooted, true) {
            for propagator in &self.propagators {
                *runs += 1;
                propagator.propagate(store)?;
            }
        }
        while let Some(var) = store.dirty.pop() {
            let var = VarId(var as usize);
            store.queued[var.0] = false;
            let fixed = store.is_fixed(var);
            let fixed_watchers = if fixed {
                &self.on_fixed[var.0][..]
            } else {
                &[]
            };
            for &watcher in fixed_watchers.iter().chain(&self.on_narrowed[var.0]) {
                *runs += 1;
                self.propagators[watcher as usize].narrowed(store, var)?;
            }
        }
        Ok(())
    }

    /// Build the root domain store: the initial domains laid out in one
    /// arena, with an empty trail.
    pub fn root_store(&self) -> DomainStore {
        let vars = self.domains.len();
        let stride = self.domains.iter().map(|d| d.words.len()).max();
        let stride = stride.unwrap_or(1);
        let mut words = vec![0u64; vars * stride];
        for (domain, slot) in self.domains.iter().zip(words.chunks_exact_mut(stride)) {
            slot[..domain.words.len()].copy_from_slice(&domain.words);
        }
        DomainStore {
            words,
            stride,
            size: self.domains.iter().map(|d| d.size).collect(),
            min: self.domains.iter().map(|d| d.min).collect(),
            max: self.domains.iter().map(|d| d.max).collect(),
            open: self.domains.iter().filter(|d| !d.is_fixed()).count(),
            cells: vec![0; self.cells],
            rooted: false,
            dirty: Vec::with_capacity(vars),
            queued: vec![false; vars],
            trail: Vec::new(),
            trail_words: Vec::new(),
            cell_trail: Vec::with_capacity(self.cells),
            saved_at: vec![0; vars],
            cell_saved_at: vec![0; self.cells],
            epoch: 0,
        }
    }
}

/// The mutable set of domains manipulated by propagation and search: a flat
/// word arena plus an undo log (see the module docs).
///
/// Two stores are equal when they hold the same domains, whatever their
/// cells, their pending queue and their undo history.
#[derive(Debug, Clone)]
pub struct DomainStore {
    /// The words of every domain, `stride` per variable.
    words: Vec<u64>,
    stride: usize,
    size: Vec<u32>,
    min: Vec<u32>,
    max: Vec<u32>,
    /// Number of variables whose domain is not a singleton.
    open: usize,
    /// The trailed cells of the propagators.
    cells: Vec<u64>,
    /// True once every propagator ran from scratch on this store.
    rooted: bool,
    /// The variables narrowed since propagation last drained the queue …
    dirty: Vec<u32>,
    /// … each once: `queued[v]` while `v` is in it.
    queued: Vec<bool>,
    /// The undo log: one entry per saved domain, oldest first …
    trail: Vec<Saved>,
    /// … the `stride` words of each entry, in the same order …
    trail_words: Vec<u64>,
    /// … and one entry per saved cell: its index and its value.
    cell_trail: Vec<(u32, u64)>,
    /// `saved_at[v] == epoch`: the domain of `v` is already on the trail
    /// since the last mark or undo and may change freely.
    saved_at: Vec<u64>,
    /// The same for cell `c`.
    cell_saved_at: Vec<u64>,
    /// Bumped by every [`DomainStore::mark`] and [`DomainStore::undo_to`].
    epoch: u64,
}

/// The summary of a domain as it was when it went on the trail.
#[derive(Debug, Clone, Copy)]
struct Saved {
    var: u32,
    size: u32,
    min: u32,
    max: u32,
}

/// A point in a store's history to come back to with
/// [`DomainStore::undo_to`].
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    /// Lengths of the domain and cell trails at the mark.
    trail: usize,
    cell_trail: usize,
    /// Open-variable count at the mark.
    open: usize,
    /// Whether the store had been propagated on at the mark.
    rooted: bool,
}

impl PartialEq for DomainStore {
    fn eq(&self, other: &Self) -> bool {
        self.stride == other.stride
            && self.words == other.words
            && self.size == other.size
            && self.min == other.min
            && self.max == other.max
    }
}

impl Eq for DomainStore {}

impl DomainStore {
    /// Domain of a variable.
    pub fn domain(&self, var: VarId) -> DomainRef<'_> {
        let v = var.0;
        Domain {
            words: &self.words[v * self.stride..(v + 1) * self.stride],
            size: self.size[v],
            min: self.min[v],
            max: self.max[v],
        }
    }

    /// Number of variables in the store.
    pub(crate) fn var_count(&self) -> usize {
        self.size.len()
    }

    /// Cardinality of every domain, in variable order.
    pub(crate) fn sizes(&self) -> &[u32] {
        &self.size
    }

    /// True when every variable is fixed.
    pub fn all_fixed(&self) -> bool {
        self.open == 0
    }

    /// True when the variable is fixed.
    pub fn is_fixed(&self, var: VarId) -> bool {
        self.size[var.0] == 1
    }

    /// Value of a fixed variable.
    ///
    /// # Panics
    /// Panics when the variable is not fixed.
    pub fn value(&self, var: VarId) -> u32 {
        assert!(self.is_fixed(var), "value() on unfixed domain");
        self.min[var.0]
    }

    /// Value of the variable if it is fixed, `None` otherwise.
    pub fn fixed_value(&self, var: VarId) -> Option<u32> {
        self.is_fixed(var).then(|| self.min[var.0])
    }

    /// Smallest candidate value.
    pub(crate) fn min(&self, var: VarId) -> u32 {
        self.domain(var).min()
    }

    /// Largest candidate value.
    pub(crate) fn max(&self, var: VarId) -> u32 {
        self.domain(var).max()
    }

    /// True when `value` is still a candidate for `var`.
    pub(crate) fn contains(&self, var: VarId, value: u32) -> bool {
        self.domain(var).contains(value)
    }

    /// Remember the current state; [`DomainStore::undo_to`] comes back to
    /// it, any number of times.
    pub fn mark(&mut self) -> Mark {
        self.epoch += 1;
        Mark {
            trail: self.trail.len(),
            cell_trail: self.cell_trail.len(),
            open: self.open,
            rooted: self.rooted,
        }
    }

    /// Restore every domain and cell to what it was at `mark` and forget
    /// the pending narrowings.  Marks taken after `mark` are dead from then
    /// on.
    pub fn undo_to(&mut self, mark: Mark) {
        let stride = self.stride;
        while self.trail.len() > mark.trail {
            let saved = self.trail.pop().expect("the trail is longer than the mark");
            let v = saved.var as usize;
            let from = self.trail.len() * stride;
            self.words[v * stride..(v + 1) * stride].copy_from_slice(&self.trail_words[from..]);
            self.trail_words.truncate(from);
            (self.size[v], self.min[v], self.max[v]) = (saved.size, saved.min, saved.max);
        }
        for (cell, value) in self.cell_trail.drain(mark.cell_trail..).rev() {
            self.cells[cell as usize] = value;
        }
        for var in self.dirty.drain(..) {
            self.queued[var as usize] = false;
        }
        self.open = mark.open;
        self.rooted = mark.rooted;
        self.epoch += 1;
    }

    /// Value of a trailed cell.
    pub fn cell(&self, cell: usize) -> u64 {
        self.cells[cell]
    }

    /// Overwrite a trailed cell; [`DomainStore::undo_to`] brings the old
    /// value back.
    pub(crate) fn set_cell(&mut self, cell: usize, value: u64) {
        if self.cell_saved_at[cell] != self.epoch {
            self.cell_saved_at[cell] = self.epoch;
            self.cell_trail.push((cell as u32, self.cells[cell]));
        }
        self.cells[cell] = value;
    }

    /// Put `var` on the dirty queue although nothing narrowed it: how a
    /// propagator running from scratch hands a variable it found fixed to
    /// its own [`Propagator::narrowed`].
    pub(crate) fn wake(&mut self, var: VarId) {
        if !std::mem::replace(&mut self.queued[var.0], true) {
            self.dirty.push(var.0 as u32);
        }
    }

    /// Narrow the domain of `var` with `op`, which the caller knows will
    /// change it: save it on the trail first (once per mark), queue the
    /// variable, keep the open count, and report a wipe-out.
    fn narrow(
        &mut self,
        var: VarId,
        op: impl FnOnce(&mut Domain<&mut [u64]>) -> bool,
    ) -> Result<bool, Inconsistency> {
        self.wake(var);
        let (v, stride) = (var.0, self.stride);
        let words = &mut self.words[v * stride..(v + 1) * stride];
        if self.saved_at[v] != self.epoch {
            self.saved_at[v] = self.epoch;
            self.trail.push(Saved {
                var: v as u32,
                size: self.size[v],
                min: self.min[v],
                max: self.max[v],
            });
            self.trail_words.extend_from_slice(words);
        }
        let mut domain = Domain {
            words,
            size: self.size[v],
            min: self.min[v],
            max: self.max[v],
        };
        let was_fixed = domain.is_fixed();
        let changed = op(&mut domain);
        (self.size[v], self.min[v], self.max[v]) = (domain.size, domain.min, domain.max);
        match (was_fixed, domain.is_fixed()) {
            (false, true) => self.open -= 1,
            (true, false) => self.open += 1,
            _ => {}
        }
        if domain.is_empty() {
            return Err(Inconsistency::wipeout(var));
        }
        Ok(changed)
    }

    /// Remove `value` from the domain of `var`.
    ///
    /// Returns `Ok(true)` when the domain changed, `Ok(false)` when the value
    /// was already absent, and `Err(Inconsistency)` when the removal empties
    /// the domain.
    pub fn remove(&mut self, var: VarId, value: u32) -> Result<bool, Inconsistency> {
        if !self.contains(var, value) {
            return Ok(false);
        }
        self.narrow(var, |d| d.remove(value))
    }

    /// Fix `var` to `value`; a value outside the domain wipes it out.
    pub fn assign(&mut self, var: VarId, value: u32) -> Result<bool, Inconsistency> {
        if self.fixed_value(var) == Some(value) {
            return Ok(false);
        }
        self.narrow(var, |d| d.assign(value))
    }

    /// Remove every value of `var` strictly below `bound`.
    pub fn remove_below(&mut self, var: VarId, bound: u32) -> Result<bool, Inconsistency> {
        if self.min[var.0] >= bound {
            return Ok(false);
        }
        self.narrow(var, |d| d.remove_below(bound))
    }

    /// Remove every value of `var` strictly above `bound`.
    pub fn remove_above(&mut self, var: VarId, bound: u32) -> Result<bool, Inconsistency> {
        if self.max[var.0] <= bound {
            return Ok(false);
        }
        self.narrow(var, |d| d.remove_above(bound))
    }

    /// Keep only the values of `var` that `keep` accepts.
    pub fn retain(
        &mut self,
        var: VarId,
        mut keep: impl FnMut(u32) -> bool,
    ) -> Result<bool, Inconsistency> {
        // Nothing goes on the trail unless some value is dropped.
        let Some(first) = self.domain(var).iter().find(|&value| !keep(value)) else {
            return Ok(false);
        };
        self.narrow(var, |d| d.retain(|value| value < first || keep(value)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_creates_variables() {
        let mut m = Model::new();
        let x = m.new_var(0, 5);
        let y = m.new_var(2, 4);
        assert_eq!(m.var_count(), 2);
        assert_eq!((x, y), (VarId(0), VarId(1)));
        assert_eq!(m.initial_domain(y).values(), vec![2, 3, 4]);
    }

    #[test]
    fn store_operations() {
        let mut m = Model::new();
        let x = m.new_var(0, 5);
        let mut s = m.root_store();
        assert!(!s.all_fixed());
        assert!(s.remove(x, 3).unwrap());
        assert!(!s.contains(x, 3));
        assert!(s.assign(x, 4).unwrap());
        assert!(s.all_fixed());
        assert_eq!(s.value(x), 4);
        assert_eq!(s.fixed_value(x), Some(4));
    }

    #[test]
    fn wipeout_is_reported() {
        let mut m = Model::new();
        let x = m.new_var(1, 1);
        let mut s = m.root_store();
        let err = s.remove(x, 1).unwrap_err();
        assert_eq!(err.variable(), Some(x));
    }

    #[test]
    fn bounds_tightening() {
        let mut m = Model::new();
        let x = m.new_var(0, 10);
        let mut s = m.root_store();
        s.remove_below(x, 3).unwrap();
        s.remove_above(x, 7).unwrap();
        assert_eq!(s.min(x), 3);
        assert_eq!(s.max(x), 7);
        assert!(s.remove_below(x, 8).is_err());
    }

    #[test]
    fn undo_restores_domains_and_the_open_count() {
        let mut m = Model::new();
        let x = m.new_var(0, 70);
        let y = m.new_var(0, 1);
        let mut s = m.root_store();
        s.remove(x, 5).unwrap(); // before any mark: never undone
        let outer = s.mark();
        s.remove_below(x, 66).unwrap();
        let inner = s.mark();
        s.assign(x, 70).unwrap();
        s.assign(y, 1).unwrap();
        assert!(s.all_fixed());
        assert!(s.assign(y, 0).is_err(), "a fixed variable cannot move");
        s.undo_to(inner);
        assert_eq!(s.domain(x).values(), vec![66, 67, 68, 69, 70]);
        assert_eq!(s.domain(y).values(), vec![0, 1]);
        assert!(!s.all_fixed());
        // A mark can be returned to any number of times.
        s.assign(y, 0).unwrap();
        s.undo_to(inner);
        assert!(!s.is_fixed(y));
        s.undo_to(outer);
        assert_eq!((s.min(x), s.max(x)), (0, 70));
        assert!(!s.contains(x, 5));
        assert_eq!(s.domain(x).size(), 70);
    }

    #[test]
    fn retain_saves_nothing_when_nothing_is_dropped() {
        let mut m = Model::new();
        let x = m.new_var(0, 9);
        let mut s = m.root_store();
        let mark = s.mark();
        assert!(!s.retain(x, |_| true).unwrap());
        assert!(s.trail.is_empty());
        assert!(s.retain(x, |v| v % 3 == 0).unwrap());
        assert_eq!(s.domain(x).values(), vec![0, 3, 6, 9]);
        assert!(s.retain(x, |_| false).is_err());
        s.undo_to(mark);
        assert_eq!(s.domain(x).size(), 10);
    }

    #[test]
    fn values_variable() {
        let mut m = Model::new();
        let x = m.new_var_with_values(&[2, 4, 8]);
        let s = m.root_store();
        assert_eq!(s.domain(x).values(), vec![2, 4, 8]);
    }
}

//! The anchored-cost objective: a sum of per-variable prices, each variable
//! with one price at its anchor value and one everywhere else, kept on the
//! trail.
//!
//! This is the shape of the paper's incremental plan-cost estimate (§4.3):
//! placing a VM costs nothing (or a local resume) on the node it already
//! occupies — its *anchor* — and one flat price on any other node.  The
//! cheapest completion of a partial assignment prices each variable at the
//! cheaper of the classes its domain still holds:
//!
//! ```text
//! term(v) = min( at_anchor  if anchor ∈ D(v),
//!                elsewhere  if D(v) ∖ {anchor} ≠ ∅ )
//! ```
//!
//! and the bound is the sum of the terms.  Either class can be the cheaper
//! one — a remote-resume factor below 1 makes `elsewhere` cheaper than the
//! anchor — and the rule above does not care which.
//!
//! # The bound lives on the trail
//!
//! [`AnchoredCost::post`] posts the objective into the model as a
//! propagator that never prunes.  It keeps each variable's term in a
//! trailed cell, and their sum in one more: the run from scratch computes
//! them all, and each narrowing of a variable afterwards re-prices that
//! variable alone and moves the sum by the difference, in O(1).  Undoing a
//! decision restores the cells with the domains.  [`Objective::lower_bound`]
//! and [`Objective::evaluate`] read the sum cell — which is why both may
//! only be asked on a store propagated by the model the objective was
//! posted to.  On a complete assignment the bound is exact: every term is
//! the price of the variable's value.
//!
//! # The capacity floor
//!
//! The terms alone are blind to capacity: a variable whose anchor bin is
//! still in its domain counts its anchor price, even when the bin cannot
//! hold every variable anchored there.  A node shrunk to a fifth keeps
//! most of its VMs at 0 ("it could stay") although most of them must
//! leave.  So `post` also takes the packing tables the model's bin-packing
//! constraints were posted with (`sizes[d][i]`, `capacities[d][b]`) and
//! computes one constant, the *floor*, once:
//!
//! ```text
//! floor = Σ_i cheapest class of row i
//!       + Σ_b max_d ⌈ fractional min-knapsack of the regrets of G_b on d ⌉
//! ```
//!
//! `G_b` holds the rows anchored at bin `b` that prefer it
//! (`at_anchor < elsewhere`); a row of `G_b` that leaves `b` pays its
//! *regret* `elsewhere − at_anchor` on top of its cheapest class.  On
//! dimension `d`, the rows of `G_b` that leave must free at least
//! `excess = Σ_{G_b} sizes[d][i] − capacities[d][b]`, so their regrets sum
//! to at least the cheapest fractional cover of `excess`: the rows by
//! ascending regret per unit of size, the last one taken in part.
//!
//! Why it is a lower bound of every solution:
//! - every row pays at least its cheapest class, whatever its value;
//! - in any solution the rows of `G_b` left on `b` fit `b` on every
//!   dimension (other rows on `b` only make more of them leave), so the
//!   ones that leave cover `excess` on each `d`, and their regrets sum to
//!   at least the fractional cover on each `d` — hence at least the largest
//!   of them;
//! - the regrets are integers, so that sum is an integer too, and at least
//!   the fractional cover rounded up;
//! - the groups are disjoint (a row has one anchor), so their extras add.
//!
//! A dimension whose packing constraint is not posted has zero sizes, so it
//! adds nothing; empty tables make the floor the plain sum of the cheapest
//! classes, which no node's sum cell is below.  The floor is a bound of the
//! whole root's completions, so it holds under every node of the tree:
//! [`Objective::lower_bound`] is the larger of the sum cell and the floor,
//! and [`Objective::evaluate`] reads the sum cell alone.  A search prunes
//! on the floor only once its best cost has reached it, and no cheaper
//! solution exists below a valid floor, so the floor never changes what a
//! search returns — it only proves it sooner.
//!
//! # A proof before any model is built
//!
//! The floor reads the cost rows and the packing tables, nothing of a
//! model, so [`capacity_floor`] computes it on its own.  A caller holding
//! an incumbent can price it with [`CostRow::price`] and compare: an
//! incumbent that costs no more than the floor is optimal — the search
//! would prune every child of its root and return it — so that caller
//! needs no model and no search at all.  [`AnchoredCost::post_with_floor`]
//! then takes the floor already computed, when the caller does build the
//! model.

use std::collections::BTreeMap;

use crate::propagator::{Inconsistency, Propagator};
use crate::search::Objective;
use crate::store::{DomainStore, Model, VarId};

/// The two prices of one variable: `at_anchor` for its anchor value (when
/// it has one), `elsewhere` for every other value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostRow {
    /// The anchor value; `None` prices every value at `elsewhere`.
    pub anchor: Option<u32>,
    /// Price of the anchor value.
    pub at_anchor: u64,
    /// Price of any other value.
    pub elsewhere: u64,
}

impl CostRow {
    /// The price of `value`: `at_anchor` when it is the anchor, else
    /// `elsewhere` — what the objective evaluates a variable fixed to it at.
    pub fn price(&self, value: u32) -> u64 {
        match self.anchor == Some(value) {
            true => self.at_anchor,
            false => self.elsewhere,
        }
    }

    /// The cheaper of the row's two classes, whatever the domain (`elsewhere`
    /// alone when it has no anchor).
    fn cheapest_class(&self) -> u64 {
        match self.anchor {
            Some(_) => self.at_anchor.min(self.elsewhere),
            None => self.elsewhere,
        }
    }

    /// The cheapest price among the values `var` can still take (its
    /// domain is not empty).
    fn cheapest(&self, store: &DomainStore, var: VarId) -> u64 {
        let has_anchor = self
            .anchor
            .is_some_and(|anchor| store.contains(var, anchor));
        let has_other = store.domain(var).size() > u32::from(has_anchor);
        match (has_anchor, has_other) {
            (true, true) => self.at_anchor.min(self.elsewhere),
            (true, false) => self.at_anchor,
            (false, _) => self.elsewhere,
        }
    }
}

/// The objective [`AnchoredCost::post`] returns: it names the trailed cell
/// that holds the sum of the terms, and carries the capacity floor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnchoredCost {
    sum: usize,
    floor: u64,
}

impl AnchoredCost {
    /// Post the sum of `rows[i]`'s price of `vars[i]` into `model` and
    /// return it as an objective.  The propagator claims one trailed cell
    /// per variable and one for the sum.  `sizes` and `capacities` are the
    /// packing tables of the model's bin-packing constraints, indexed like
    /// [`MultiDimPacking::post`](crate::constraints::MultiDimPacking::post)'s
    /// (`sizes[d][i]` of `vars[i]`, `capacities[d][b]` of value `b`); the
    /// capacity floor is computed from them (module docs).  Empty tables
    /// give a floor no sum cell is below.
    ///
    /// # Panics
    /// Panics when `vars` and `rows` differ in length, a variable is named
    /// twice, `sizes` and `capacities` differ in length or a dimension of
    /// `sizes` is not one size per variable.
    pub fn post(
        model: &mut Model,
        vars: &[VarId],
        rows: &[CostRow],
        sizes: &[Vec<u64>],
        capacities: &[Vec<u64>],
    ) -> AnchoredCost {
        assert_eq!(vars.len(), rows.len(), "one cost row per variable");
        assert_eq!(
            sizes.len(),
            capacities.len(),
            "one capacity table per size table"
        );
        assert!(
            sizes.iter().all(|dim| dim.len() == vars.len()),
            "one size per variable"
        );
        let floor = capacity_floor(rows, sizes, capacities);
        Self::post_with_floor(model, vars, rows, floor)
    }

    /// [`AnchoredCost::post`] with the capacity floor `floor` already
    /// computed by [`capacity_floor`] from the same rows and the model's
    /// packing tables.
    ///
    /// # Panics
    /// Panics when `vars` and `rows` differ in length or a variable is named
    /// twice.
    pub fn post_with_floor(
        model: &mut Model,
        vars: &[VarId],
        rows: &[CostRow],
        floor: u64,
    ) -> AnchoredCost {
        assert_eq!(vars.len(), rows.len(), "one cost row per variable");
        let width = vars.iter().map(|var| var.0 + 1).max().unwrap_or(0);
        let mut position = vec![u32::MAX; width];
        for (i, var) in vars.iter().enumerate() {
            let slot = &mut position[var.0];
            assert_eq!(*slot, u32::MAX, "x{} is priced twice", var.0);
            *slot = i as u32;
        }
        let sum = model.cell_count() + vars.len();
        model.post(CostTerms {
            vars: vars.to_vec(),
            rows: rows.to_vec(),
            position,
            terms: 0,
        });
        AnchoredCost { sum, floor }
    }
}

impl Objective for AnchoredCost {
    fn evaluate(&self, store: &DomainStore) -> i64 {
        // Every variable is fixed: the sum of the terms is exact.
        store.cell(self.sum) as i64
    }

    fn lower_bound(&self, store: &DomainStore) -> i64 {
        store.cell(self.sum).max(self.floor) as i64
    }
}

/// The capacity floor of `rows` over the packing tables `sizes[d][i]` and
/// `capacities[d][b]` (module docs): a lower bound on the cost of every
/// assignment that fits them.  Empty tables give the sum of the rows'
/// cheapest classes.
pub fn capacity_floor(rows: &[CostRow], sizes: &[Vec<u64>], capacities: &[Vec<u64>]) -> u64 {
    let cheapest: u64 = rows.iter().map(CostRow::cheapest_class).sum();
    // The rows that prefer their anchor, grouped by it.
    let mut groups: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    for (i, row) in rows.iter().enumerate() {
        if let Some(anchor) = row.anchor.filter(|_| row.at_anchor < row.elsewhere) {
            groups.entry(anchor).or_default().push(i);
        }
    }
    let mut items = Vec::new();
    let mut extra = 0;
    for (&bin, group) in &groups {
        let bin = bin as usize;
        let mut leave = 0;
        for (dim_sizes, dim_caps) in sizes.iter().zip(capacities) {
            let Some(&capacity) = dim_caps.get(bin) else {
                continue;
            };
            items.clear();
            items.extend(group.iter().map(|&i| {
                let row = &rows[i];
                (dim_sizes[i], row.elsewhere - row.at_anchor)
            }));
            leave = leave.max(fractional_cover(&mut items, capacity));
        }
        extra += leave;
    }
    cheapest + extra
}

/// The cheapest fractional cover of what `items` — `(size, regret)` pairs
/// — exceed `capacity` by, rounded up (0 when they fit): the items taken
/// by ascending regret per unit of size, the last one in part, until their
/// sizes reach the excess, and the regrets taken summed.
fn fractional_cover(items: &mut [(u64, u64)], capacity: u64) -> u64 {
    let total: u64 = items.iter().map(|&(size, _)| size).sum();
    let Some(mut excess) = total.checked_sub(capacity).filter(|&e| e > 0) else {
        return 0;
    };
    // r1 / s1 < r2 / s2, cross-multiplied.  Regrets are positive, so a
    // zero size — it frees nothing — sorts last, and the sizes before it
    // reach the excess.
    items.sort_unstable_by(|&(s1, r1), &(s2, r2)| {
        (r1 as u128 * s2 as u128).cmp(&(r2 as u128 * s1 as u128))
    });
    let mut cover = 0u64;
    for &(size, regret) in items.iter() {
        if size >= excess {
            let part = (regret as u128 * excess as u128).div_ceil(size as u128);
            return cover + part as u64;
        }
        cover += regret;
        excess -= size;
    }
    unreachable!("the sizes add up to more than the excess")
}

/// The propagator behind [`AnchoredCost`]: the term of `vars[i]` is cell
/// `terms + i`, their sum cell `terms + vars.len()`.
struct CostTerms {
    vars: Vec<VarId>,
    rows: Vec<CostRow>,
    /// `position[v]`: the index of variable `v` in `vars`.
    position: Vec<u32>,
    terms: usize,
}

impl Propagator for CostTerms {
    fn watched(&self) -> &[VarId] {
        &self.vars
    }

    fn claim_cells(&mut self, first: usize) -> usize {
        self.terms = first;
        self.vars.len() + 1
    }

    fn propagate(&self, store: &mut DomainStore) -> Result<(), Inconsistency> {
        let mut sum = 0;
        for (i, (row, &var)) in self.rows.iter().zip(&self.vars).enumerate() {
            let term = row.cheapest(store, var);
            store.set_cell(self.terms + i, term);
            sum += term;
        }
        store.set_cell(self.terms + self.vars.len(), sum);
        Ok(())
    }

    fn narrowed(&self, store: &mut DomainStore, var: VarId) -> Result<(), Inconsistency> {
        let i = self.position[var.0] as usize;
        let term = self.rows[i].cheapest(store, var);
        let was = store.cell(self.terms + i);
        if term != was {
            let sum = self.terms + self.vars.len();
            store.set_cell(self.terms + i, term);
            store.set_cell(sum, store.cell(sum) - was + term);
        }
        Ok(())
    }

    fn name(&self) -> &str {
        "anchored-cost"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_bound_follows_decisions_and_their_undoing() {
        // x: anchor 1 is free, elsewhere 5; y: anchor 2 costs 7, elsewhere
        // 3 (the anchor is the dearer class); z: no anchor, 4 anywhere.
        let mut m = Model::new();
        let vars: Vec<VarId> = (0..3).map(|_| m.new_var(0, 3)).collect();
        let row = |anchor, at_anchor, elsewhere| CostRow {
            anchor,
            at_anchor,
            elsewhere,
        };
        let rows = [row(Some(1), 0, 5), row(Some(2), 7, 3), row(None, 9, 4)];
        let cost = AnchoredCost::post(&mut m, &vars, &rows, &[], &[]);
        let mut s = m.root_store();
        m.propagate(&mut s, &mut 0).unwrap();
        assert_eq!(cost.lower_bound(&s), 3 + 4);
        let root = s.mark();
        s.remove(vars[0], 1).unwrap();
        s.retain(vars[1], |v| v == 2).unwrap();
        m.propagate(&mut s, &mut 0).unwrap();
        assert_eq!(cost.lower_bound(&s), 5 + 7 + 4);
        s.assign(vars[0], 3).unwrap();
        s.assign(vars[2], 1).unwrap();
        m.propagate(&mut s, &mut 0).unwrap();
        assert!(s.all_fixed());
        assert_eq!(cost.evaluate(&s), 5 + 7 + 4);
        s.undo_to(root);
        assert_eq!(cost.lower_bound(&s), 3 + 4);
    }
}

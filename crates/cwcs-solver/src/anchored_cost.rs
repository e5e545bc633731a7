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
/// that holds the bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnchoredCost {
    sum: usize,
}

impl AnchoredCost {
    /// Post the sum of `rows[i]`'s price of `vars[i]` into `model` and
    /// return it as an objective.  The propagator claims one trailed cell
    /// per variable and one for the sum.
    ///
    /// # Panics
    /// Panics when `vars` and `rows` differ in length, or a variable is
    /// named twice.
    pub fn post(model: &mut Model, vars: &[VarId], rows: &[CostRow]) -> AnchoredCost {
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
        AnchoredCost { sum }
    }
}

impl Objective for AnchoredCost {
    fn evaluate(&self, store: &DomainStore) -> i64 {
        // Every variable is fixed: the bound is exact.
        self.lower_bound(store)
    }

    fn lower_bound(&self, store: &DomainStore) -> i64 {
        store.cell(self.sum) as i64
    }
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
        let cost = AnchoredCost::post(&mut m, &vars, &rows);
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

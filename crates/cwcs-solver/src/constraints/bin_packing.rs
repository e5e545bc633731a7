//! Bin-packing constraint over assignment variables (Shaw, 2004).
//!
//! Each item `i` has a size and an assignment variable whose value is the
//! index of the bin it goes to; each bin has a capacity.  This is the
//! "multi-knapsack" formulation of the paper: one bin per node, one item per
//! running VM, one instance of the constraint per resource dimension (CPU and
//! memory).
//!
//! What holds at every fixpoint:
//! * no bin's *committed load* (the items already fixed to it) exceeds its
//!   capacity;
//! * no open item keeps a candidate bin whose committed load plus the item's
//!   size exceeds the capacity;
//! * the total size of all items does not exceed the total capacity, and
//!   every candidate bin exists — both settled once, on the first run.
//!
//! # Propagation follows the loads
//!
//! The committed loads live in trailed cells of the store, one per bin, so
//! they are undone with the domains and nothing is recomputed.  The run from
//! scratch makes the two one-time checks, takes from every item the bins it
//! could not even enter empty, and queues the items it finds fixed; all
//! accounting then happens in [`Propagator::narrowed`].  An item that became
//! fixed adds its size to *its* bin: that bin alone can be overloaded now,
//! and it alone has less room than before, so only it is filtered — and
//! only against the open items that fitted in the room it had and no longer
//! do in the room it has left, a contiguous run of the items sorted by
//! size.  An item that was narrowed without becoming fixed changes no load
//! and costs one test.

use crate::propagator::{Inconsistency, Propagator};
use crate::store::{DomainStore, VarId};

/// Bin-packing: `assignment[i] = b` implies item `i` occupies `sizes[i]`
/// units of bin `b`, and no bin may exceed its capacity.
#[derive(Debug, Clone)]
pub struct BinPacking {
    assignments: Vec<VarId>,
    capacities: Vec<u64>,
    /// Every item as (size, assignment variable), largest first.
    by_size: Vec<(u64, VarId)>,
    /// Total size of the items assigned by variable `v`, indexed by `v.0`.
    size_on: Vec<u64>,
    /// The committed load of bin `b` is cell `loads + b`.
    loads: usize,
}

impl BinPacking {
    /// Build a bin-packing constraint.  Posted to a model, it claims one
    /// trailed cell per bin, in bin order, for the committed loads.
    ///
    /// # Panics
    /// Panics when `assignments` and `sizes` have different lengths.
    pub fn new(assignments: Vec<VarId>, sizes: Vec<u64>, capacities: Vec<u64>) -> Self {
        assert_eq!(assignments.len(), sizes.len());
        let vars = assignments.iter().map(|var| var.0 + 1).max().unwrap_or(0);
        let mut size_on = vec![0; vars];
        for (var, size) in assignments.iter().zip(&sizes) {
            size_on[var.0] += size;
        }
        let mut by_size: Vec<(u64, VarId)> = sizes
            .iter()
            .copied()
            .zip(assignments.iter().copied())
            .collect();
        by_size.sort_by_key(|&(size, _)| std::cmp::Reverse(size));
        BinPacking {
            assignments,
            capacities,
            by_size,
            size_on,
            loads: 0,
        }
    }

    /// The room left in `bin` went from `was` down to `free`: the open items
    /// that fitted in the first and do not in the second lose the bin.  The
    /// larger ones lost it when the room came down to `was`.
    fn shrink(
        &self,
        store: &mut DomainStore,
        bin: u32,
        was: u64,
        free: u64,
    ) -> Result<(), Inconsistency> {
        let fitted = self.by_size.partition_point(|&(size, _)| size > was);
        for &(size, var) in &self.by_size[fitted..] {
            if size <= free {
                break;
            }
            if !store.is_fixed(var) {
                store.remove(var, bin)?;
            }
        }
        Ok(())
    }
}

impl Propagator for BinPacking {
    fn watched(&self) -> &[VarId] {
        &self.assignments
    }

    fn claim_cells(&mut self, first: usize) -> usize {
        self.loads = first;
        self.capacities.len()
    }

    fn propagate(&self, store: &mut DomainStore) -> Result<(), Inconsistency> {
        if self.capacities.is_empty() && !self.assignments.is_empty() {
            return Err(Inconsistency::failure(
                "bin packing infeasible: items and no bin",
            ));
        }
        let total_size: u64 = self.size_on.iter().sum();
        if total_size > self.capacities.iter().sum() {
            return Err(Inconsistency::failure(
                "bin packing infeasible: total item size exceeds total capacity",
            ));
        }
        // Candidate bins must exist …
        for &var in &self.assignments {
            store.remove_above(var, self.capacities.len() as u32 - 1)?;
        }
        // … and be large enough empty: every load is still 0.
        for (bin, &capacity) in self.capacities.iter().enumerate() {
            self.shrink(store, bin as u32, u64::MAX, capacity)?;
        }
        // The items that are fixed already are committed like any other.
        for &var in &self.assignments {
            if store.is_fixed(var) {
                store.wake(var);
            }
        }
        Ok(())
    }

    fn narrowed(&self, store: &mut DomainStore, var: VarId) -> Result<(), Inconsistency> {
        let Some(bin) = store.fixed_value(var) else {
            return Ok(());
        };
        let size = self.size_on[var.0];
        if size == 0 {
            return Ok(());
        }
        let (cell, capacity) = (self.loads + bin as usize, self.capacities[bin as usize]);
        let committed = store.cell(cell);
        let load = committed + size;
        store.set_cell(cell, load);
        if load > capacity {
            return Err(Inconsistency::Overload {
                bin,
                load,
                capacity,
            });
        }
        self.shrink(store, bin, capacity - committed, capacity - load)
    }

    fn name(&self) -> &str {
        "bin-packing"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::Model;

    fn fixpoint(m: &Model) -> Result<DomainStore, Inconsistency> {
        let mut s = m.root_store();
        m.propagate(&mut s, &mut 0)?;
        Ok(s)
    }

    #[test]
    fn committed_overload_fails() {
        let mut m = Model::new();
        let a = m.new_var(0, 0);
        let b = m.new_var(0, 0);
        m.post(BinPacking::new(vec![a, b], vec![3, 3], vec![5, 5]));
        assert!(fixpoint(&m).is_err());
    }

    #[test]
    fn full_bins_are_removed_from_candidates() {
        // Item 0 fixed to bin 0 with size 4 (capacity 5); item 1 of size 2
        // cannot go to bin 0 anymore.
        let mut m = Model::new();
        let a = m.new_var(0, 0);
        let b = m.new_var(0, 1);
        m.post(BinPacking::new(vec![a, b], vec![4, 2], vec![5, 5]));
        let s = fixpoint(&m).unwrap();
        assert_eq!(s.value(b), 1);
    }

    #[test]
    fn chain_of_forced_assignments() {
        // Three items of size 2, three bins of capacity 2: once the first two
        // are fixed the third follows.
        let mut m = Model::new();
        let a = m.new_var(0, 0);
        let b = m.new_var(1, 1);
        let c = m.new_var(0, 2);
        m.post(BinPacking::new(vec![a, b, c], vec![2, 2, 2], vec![2, 2, 2]));
        let s = fixpoint(&m).unwrap();
        assert_eq!(s.value(c), 2);
    }

    #[test]
    fn total_capacity_check_fails_early() {
        let mut m = Model::new();
        let a = m.new_var(0, 1);
        let b = m.new_var(0, 1);
        let c = m.new_var(0, 1);
        m.post(BinPacking::new(vec![a, b, c], vec![3, 3, 3], vec![4, 4]));
        assert!(fixpoint(&m).is_err());
    }

    #[test]
    fn out_of_range_bins_are_removed() {
        let mut m = Model::new();
        let a = m.new_var(0, 9);
        m.post(BinPacking::new(vec![a], vec![1], vec![1, 1, 1]));
        let s = fixpoint(&m).unwrap();
        assert_eq!(s.max(a), 2);
    }

    #[test]
    fn a_packing_with_no_bin_holds_no_item() {
        let mut m = Model::new();
        m.post(BinPacking::new(vec![], vec![], vec![]));
        assert!(fixpoint(&m).is_ok(), "nothing to pack");
        let a = m.new_var(0, 3);
        m.post(BinPacking::new(vec![a], vec![0], vec![]));
        assert!(fixpoint(&m).is_err(), "nowhere to put the item");
    }

    #[test]
    fn loads_follow_the_decisions_and_their_undoing() {
        // Bin 0 has room for the 3 and one of the 2s; cells 0 and 1 are the
        // loads.
        let mut m = Model::new();
        let vars: Vec<VarId> = (0..3).map(|_| m.new_var(0, 1)).collect();
        m.post(BinPacking::new(vars.clone(), vec![3, 2, 2], vec![5, 9]));
        let mut s = fixpoint(&m).unwrap();
        assert_eq!((s.cell(0), s.cell(1)), (0, 0));
        let root = s.mark();
        s.assign(vars[0], 0).unwrap();
        m.propagate(&mut s, &mut 0).unwrap();
        assert_eq!((s.cell(0), s.cell(1)), (3, 0));
        assert!(!s.is_fixed(vars[2]), "a 2 still fits next to the 3");
        let mut runs = 0;
        s.assign(vars[1], 0).unwrap();
        m.propagate(&mut s, &mut runs).unwrap();
        assert_eq!(s.value(vars[2]), 1, "the bin is full");
        assert_eq!((s.cell(0), s.cell(1)), (5, 2));
        assert_eq!(runs, 2, "one run per variable that changed");
        s.undo_to(root);
        assert_eq!((s.cell(0), s.cell(1)), (0, 0));
        assert_eq!(s.domain(vars[2]).size(), 2);
    }

    #[test]
    fn zero_size_items_fit_anywhere() {
        let mut m = Model::new();
        let a = m.new_var(0, 0);
        let b = m.new_var(0, 1);
        m.post(BinPacking::new(vec![a, b], vec![5, 0], vec![5, 0]));
        let s = fixpoint(&m).unwrap();
        assert_eq!(
            s.domain(b).size(),
            2,
            "a zero-size item can share a full bin"
        );
    }

    #[test]
    fn two_dimensional_packing_via_two_constraints() {
        // The paper posts one bin-packing per resource dimension over the same
        // assignment variables.  CPU dimension forces separation, memory
        // dimension is loose.
        let mut m = Model::new();
        let a = m.new_var(0, 1);
        let b = m.new_var(0, 1);
        // CPU: both need a full unit, each node has one unit.
        m.post(BinPacking::new(vec![a, b], vec![1, 1], vec![1, 1]));
        // Memory: plenty everywhere.
        m.post(BinPacking::new(
            vec![a, b],
            vec![512, 512],
            vec![4096, 4096],
        ));
        // Fix a to node 0: CPU packing forces b to node 1.
        m.post(crate::constraints::EqualConst::new(a, 0));
        let s = fixpoint(&m).unwrap();
        assert_eq!(s.value(b), 1);
    }
}

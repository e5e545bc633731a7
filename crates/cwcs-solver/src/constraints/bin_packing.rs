//! Bin-packing constraint over assignment variables (Shaw, 2004).
//!
//! Each item `i` has a size and an assignment variable whose value is the
//! index of the bin it goes to; each bin has a capacity.  This is the
//! "multi-knapsack" formulation of the paper: one bin per node, one item per
//! running VM, one instance of the constraint per resource dimension (CPU and
//! memory).
//!
//! Propagation:
//! * a bin whose *committed load* (items already fixed to it) exceeds its
//!   capacity is a failure;
//! * a candidate bin is removed from an item's domain when the committed load
//!   plus the item size exceeds the capacity;
//! * a global feasibility check fails when the total size of all items
//!   exceeds the total remaining capacity of the bins they can still go to.

use std::cell::RefCell;

use crate::propagator::{Inconsistency, PropagationResult, Propagator};
use crate::store::{DomainStore, VarId};

thread_local! {
    /// The committed-load table, one per searching thread.  A propagator is
    /// immutable and shared by every portfolio worker, so the table cannot
    /// live in it; it is overwritten at the start of every round and carries
    /// nothing from one call to the next.
    static COMMITTED: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Bin-packing: `assignment[i] = b` implies item `i` occupies `sizes[i]`
/// units of bin `b`, and no bin may exceed its capacity.
#[derive(Debug, Clone)]
pub struct BinPacking {
    assignments: Vec<VarId>,
    sizes: Vec<u64>,
    capacities: Vec<u64>,
}

impl BinPacking {
    /// Build a bin-packing constraint.
    ///
    /// # Panics
    /// Panics when `assignments` and `sizes` have different lengths.
    pub fn new(assignments: Vec<VarId>, sizes: Vec<u64>, capacities: Vec<u64>) -> Self {
        assert_eq!(assignments.len(), sizes.len());
        BinPacking {
            assignments,
            sizes,
            capacities,
        }
    }

    fn bin_count(&self) -> usize {
        self.capacities.len()
    }

    /// The propagation proper; `committed` is scratch space.
    fn prune(
        &self,
        store: &mut DomainStore,
        committed: &mut Vec<u64>,
    ) -> Result<PropagationResult, Inconsistency> {
        let n_bins = self.bin_count();
        let mut changed = false;

        // Candidate bins must exist.
        for &var in &self.assignments {
            if store.max(var) as usize >= n_bins {
                changed |= store.remove_above(var, n_bins as u32 - 1)?;
            }
        }

        loop {
            let mut progressed = false;

            // Committed load of each bin: items whose assignment is fixed.
            committed.clear();
            committed.resize(n_bins, 0);
            for (&var, &size) in self.assignments.iter().zip(&self.sizes) {
                if let Some(bin) = store.fixed_value(var) {
                    committed[bin as usize] += size;
                }
            }
            for (bin, (&load, &capacity)) in committed.iter().zip(&self.capacities).enumerate() {
                if load > capacity {
                    return Err(Inconsistency::Overload {
                        bin: bin as u32,
                        load,
                        capacity,
                    });
                }
            }

            // Remove bins that cannot take an unfixed item anymore.
            for (&var, &size) in self.assignments.iter().zip(&self.sizes) {
                if store.is_fixed(var) {
                    continue;
                }
                let fits =
                    |bin: u32| committed[bin as usize] + size <= self.capacities[bin as usize];
                if store.retain(var, fits)? {
                    progressed = true;
                    changed = true;
                }
            }

            if !progressed {
                break;
            }
        }

        // Global feasibility: total item size vs. total usable capacity.
        let total_items: u64 = self.sizes.iter().sum();
        let total_capacity: u64 = self.capacities.iter().sum();
        if total_items > total_capacity {
            return Err(Inconsistency::failure(
                "bin packing infeasible: total item size exceeds total capacity",
            ));
        }

        Ok(if changed {
            PropagationResult::Changed
        } else {
            PropagationResult::Unchanged
        })
    }
}

impl Propagator for BinPacking {
    fn propagate(&self, store: &mut DomainStore) -> Result<PropagationResult, Inconsistency> {
        COMMITTED.with_borrow_mut(|committed| self.prune(store, committed))
    }

    fn name(&self) -> &str {
        "bin-packing"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::propagator::propagate_to_fixpoint;
    use crate::store::Model;

    fn fixpoint(m: &Model) -> Result<DomainStore, Inconsistency> {
        let mut s = m.root_store();
        propagate_to_fixpoint(m.propagators(), &mut s)?;
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

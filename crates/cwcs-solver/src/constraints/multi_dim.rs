//! N-dimensional packing: one [`BinPacking`] constraint per resource
//! dimension over the same assignment variables.
//!
//! The paper's multi-knapsack formulation posts one bin-packing per resource
//! dimension (CPU and memory).  Generalizing the resource model to N
//! dimensions (network, disk, …) keeps that structure: the dimensions do not
//! interact inside a single propagator, they only share the assignment
//! variables.  This builder owns the one subtlety of the generalization —
//! **inert dimensions must not change the model**.  A dimension whose item
//! sizes are all zero can prune nothing, but posting its propagator would
//! still add fixpoint work; skipping it keeps the search on a legacy
//! 2-dimensional model bit-identical (same propagator set, same pruning,
//! same statistics) to what the historical pair-based code built.
//!
//! The first `always_dims` dimensions are posted unconditionally, whatever
//! their sizes: the legacy (CPU, memory) pair has always been posted even
//! when every demand was zero (e.g. a boot sub-problem packing idle VMs),
//! and the N-dimensional build must reproduce that model exactly.

use crate::constraints::BinPacking;
use crate::store::{Model, VarId};

/// Builder for per-dimension packing constraints.
#[derive(Debug, Clone, Copy, Default)]
pub struct MultiDimPacking;

impl MultiDimPacking {
    /// Post one [`BinPacking`] per dimension of `sizes` / `capacities` over
    /// `vars`.  `sizes[d][i]` is the size of item `i` on dimension `d`;
    /// `capacities[d][b]` the capacity of bin `b` on that dimension.
    ///
    /// Dimensions with index `< always_dims` are posted unconditionally;
    /// later dimensions are posted only when at least one item size is
    /// nonzero (an all-zero dimension is inert — see the module docs).
    /// Returns the number of constraints posted.
    ///
    /// # Panics
    /// Panics when `sizes` and `capacities` disagree on the dimension count
    /// or any dimension disagrees with `vars` on the item count.
    pub fn post(
        model: &mut Model,
        vars: &[VarId],
        sizes: &[Vec<u64>],
        capacities: &[Vec<u64>],
        always_dims: usize,
    ) -> usize {
        assert_eq!(
            sizes.len(),
            capacities.len(),
            "one capacity vector per dimension"
        );
        let mut posted = 0;
        for (dim, (dim_sizes, dim_caps)) in sizes.iter().zip(capacities).enumerate() {
            assert_eq!(dim_sizes.len(), vars.len(), "one size per item");
            if dim >= always_dims && dim_sizes.iter().all(|&s| s == 0) {
                continue;
            }
            model.post(BinPacking::new(
                vars.to_vec(),
                dim_sizes.clone(),
                dim_caps.clone(),
            ));
            posted += 1;
        }
        posted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_nonzero_dimension_constrains_the_assignment() {
        // Two items, two bins.  CPU is loose, memory is loose, but the net
        // dimension forces the items apart.
        let mut m = Model::new();
        let a = m.new_var(0, 0);
        let b = m.new_var(0, 1);
        let posted = MultiDimPacking::post(
            &mut m,
            &[a, b],
            &[
                vec![1, 1],
                vec![512, 512],
                vec![600, 600], // net: only one fits per bin
            ],
            &[vec![4, 4], vec![4096, 4096], vec![1000, 1000]],
            2,
        );
        assert_eq!(posted, 3);
        let mut s = m.root_store();
        m.propagate(&mut s, &mut 0).unwrap();
        assert_eq!(s.value(b), 1, "the NIC dimension separates the items");
    }

    #[test]
    fn inert_extra_dimensions_are_skipped() {
        let mut m = Model::new();
        let a = m.new_var(0, 1);
        let posted = MultiDimPacking::post(
            &mut m,
            &[a],
            &[vec![1], vec![512], vec![0]],
            &[vec![4, 4], vec![4096, 4096], vec![0, 0]],
            2,
        );
        assert_eq!(posted, 2, "the all-zero net dimension must not be posted");
        assert_eq!(m.propagator_count(), 2);
    }

    #[test]
    fn legacy_dimensions_are_posted_even_when_zero() {
        // A boot sub-problem packs idle VMs: every CPU size is zero, yet the
        // historical model still posted the CPU constraint.  The builder
        // must reproduce that model exactly.
        let mut m = Model::new();
        let a = m.new_var(0, 1);
        let posted = MultiDimPacking::post(
            &mut m,
            &[a],
            &[vec![0], vec![512], vec![0]],
            &[vec![4, 4], vec![4096, 4096], vec![0, 0]],
            2,
        );
        assert_eq!(posted, 2);
    }

    #[test]
    fn overcommitted_dimension_fails_propagation() {
        let mut m = Model::new();
        let a = m.new_var(0, 0);
        let b = m.new_var(0, 0);
        MultiDimPacking::post(
            &mut m,
            &[a, b],
            &[vec![0, 0], vec![100, 100], vec![700, 700]],
            &[vec![4, 4], vec![4096, 4096], vec![1000, 1000]],
            2,
        );
        let mut s = m.root_store();
        assert!(
            m.propagate(&mut s, &mut 0).is_err(),
            "both items committed to bin 0 overflow its NIC"
        );
    }

    #[test]
    #[should_panic(expected = "one capacity vector per dimension")]
    fn mismatched_dimension_counts_panic() {
        let mut m = Model::new();
        let a = m.new_var(0, 1);
        MultiDimPacking::post(&mut m, &[a], &[vec![1]], &[vec![4], vec![4096]], 2);
    }
}

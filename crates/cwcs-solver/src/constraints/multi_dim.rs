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
//!
//! # Incremental re-posting: the [`PackingSlots`] handle
//!
//! [`MultiDimPacking::post_patchable`] remembers which propagator slot each
//! posted dimension went into, so a persistent model can re-parameterize
//! its packing constraints **in place** instead of being rebuilt:
//!
//! * [`PackingSlots::resize`] swaps fresh sizes/capacities into the original
//!   slots, for the same item list (a same-shape re-solve under drifted
//!   demands) or a **different** one — the set-diff protocol of
//!   `cwcs_core::optimizer`, where departed items' variables are retired and
//!   arrivals recycle the retired slots — re-posting each dimension's
//!   [`BinPacking`] over the new item count;
//! * [`PackingSlots::dims_compatible`] is the pre-check it requires: the
//!   posted-dimension set must not change (an inertness flip — an all-zero
//!   dimension growing nonzero sizes or vice versa — adds or removes a
//!   propagator, which only a rebuild can express).  Checking it *before*
//!   mutating any variable lets a caller refuse a patch with the model
//!   untouched.
//!
//! A resized model must stay search-indistinguishable from a freshly built
//! one; `tests/property_setdiff.rs` holds `resize` to that
//! bit-identity over randomized add/remove diffs.

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
        Self::post_patchable(model, vars, sizes, capacities, always_dims)
            .slots
            .len()
    }

    /// Like [`MultiDimPacking::post`], but remember which slot each posted
    /// dimension landed in so the constraints can later be patched in place
    /// with [`PackingSlots::resize`].
    pub fn post_patchable(
        model: &mut Model,
        vars: &[VarId],
        sizes: &[Vec<u64>],
        capacities: &[Vec<u64>],
        always_dims: usize,
    ) -> PackingSlots {
        assert_eq!(
            sizes.len(),
            capacities.len(),
            "one capacity vector per dimension"
        );
        let mut slots = Vec::new();
        for (dim, (dim_sizes, dim_caps)) in sizes.iter().zip(capacities).enumerate() {
            assert_eq!(dim_sizes.len(), vars.len(), "one size per item");
            if dim >= always_dims && dim_sizes.iter().all(|&s| s == 0) {
                continue;
            }
            let slot = model.post_slot(BinPacking::new(
                vars.to_vec(),
                dim_sizes.clone(),
                dim_caps.clone(),
            ));
            slots.push((dim, slot));
        }
        PackingSlots {
            slots,
            items: vars.len(),
        }
    }
}

/// The propagator slots a [`MultiDimPacking::post_patchable`] call produced:
/// the handle for patching the packing constraints of a persistent model in
/// place instead of rebuilding the model.
#[derive(Debug, Clone)]
pub struct PackingSlots {
    /// `(dimension, propagator slot)` for every posted dimension.
    slots: Vec<(usize, usize)>,
    /// Item count the constraints were posted over.
    items: usize,
}

impl PackingSlots {
    /// Number of posted packing constraints.
    pub fn posted(&self) -> usize {
        self.slots.len()
    }

    /// Item count the constraints are currently posted over.
    pub fn items(&self) -> usize {
        self.items
    }

    /// True when re-posting over `sizes` would keep the posted-dimension
    /// set unchanged — the shape condition [`PackingSlots::resize`]
    /// requires.  A dimension whose inertness
    /// flipped (an all-zero dimension that grew nonzero sizes, or vice
    /// versa) would change which propagators exist, which only a rebuild
    /// can express.  Callers can pre-check this *before* mutating variables
    /// for a resize, so a refusal leaves the whole model untouched.
    pub fn dims_compatible(&self, sizes: &[Vec<u64>], always_dims: usize) -> bool {
        let wanted = sizes.iter().enumerate().filter_map(|(dim, dim_sizes)| {
            (dim < always_dims || dim_sizes.iter().any(|&s| s != 0)).then_some(dim)
        });
        let mut posted = self.slots.iter().map(|(dim, _)| *dim);
        for dim in wanted {
            if posted.next() != Some(dim) {
                return false;
            }
        }
        posted.next().is_none()
    }

    /// Grow or shrink the posted packing constraints to a new item set:
    /// every posted dimension is re-posted over `vars` (which may have a
    /// different length than the original item set) **into its original
    /// propagator slot**, keeping the propagator order — and therefore the
    /// fixpoint iteration order and the search trace — of the model it was
    /// first built into.  This is the constraint half of set-diff model
    /// patching: the caller retires/recycles/appends host variables, then
    /// resizes the packing terms over the live variables.
    ///
    /// Returns `false` — leaving the model untouched — when the
    /// posted-dimension set would change (see
    /// [`PackingSlots::dims_compatible`]).
    ///
    /// # Panics
    /// Panics when `sizes` and `capacities` disagree on the dimension count
    /// or any dimension disagrees with `vars` on the item count.
    pub fn resize(
        &mut self,
        model: &mut Model,
        vars: &[VarId],
        sizes: &[Vec<u64>],
        capacities: &[Vec<u64>],
        always_dims: usize,
    ) -> bool {
        assert_eq!(
            sizes.len(),
            capacities.len(),
            "one capacity vector per dimension"
        );
        for dim_sizes in sizes {
            assert_eq!(dim_sizes.len(), vars.len(), "one size per item");
        }
        if !self.dims_compatible(sizes, always_dims) {
            return false;
        }
        for &(dim, slot) in &self.slots {
            model.replace_propagator(
                slot,
                BinPacking::new(vars.to_vec(), sizes[dim].clone(), capacities[dim].clone()),
            );
        }
        self.items = vars.len();
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::propagator::propagate_to_fixpoint;

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
        propagate_to_fixpoint(m.propagators(), &mut s).unwrap();
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
        assert_eq!(m.propagators().len(), 2);
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
            propagate_to_fixpoint(m.propagators(), &mut s).is_err(),
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

    #[test]
    fn resizing_the_same_items_reparameterizes_in_place() {
        // Post with loose capacities, then resize the net dimension tighter
        // over the same items: the patched model must prune exactly like a
        // freshly built one.
        let mut m = Model::new();
        let a = m.new_var(0, 1);
        let b = m.new_var(0, 1);
        let mut slots = MultiDimPacking::post_patchable(
            &mut m,
            &[a, b],
            &[vec![1, 1], vec![512, 512], vec![600, 600]],
            &[vec![4, 4], vec![4096, 4096], vec![2000, 2000]],
            2,
        );
        assert_eq!(slots.posted(), 3);
        let before = m.propagator_count();
        assert!(slots.resize(
            &mut m,
            &[a, b],
            &[vec![1, 1], vec![512, 512], vec![600, 600]],
            &[vec![4, 4], vec![4096, 4096], vec![1000, 1000]],
            2,
        ));
        assert_eq!(m.propagator_count(), before, "resizing must not repost");
        let mut s = m.root_store();
        s.assign(a, 0).unwrap();
        propagate_to_fixpoint(m.propagators(), &mut s).unwrap();
        assert_eq!(s.value(b), 1, "the patched NIC capacity separates them");
    }

    #[test]
    fn only_a_dimension_flip_is_a_shape_change() {
        let mut m = Model::new();
        let a = m.new_var(0, 1);
        let mut slots = MultiDimPacking::post_patchable(
            &mut m,
            &[a],
            &[vec![1], vec![512], vec![0]],
            &[vec![4, 4], vec![4096, 4096], vec![0, 0]],
            2,
        );
        assert_eq!(slots.posted(), 2);
        // The inert net dimension turning live would need a new propagator:
        // the resize must refuse and leave the model untouched.
        assert!(!slots.resize(
            &mut m,
            &[a],
            &[vec![1], vec![512], vec![600]],
            &[vec![4, 4], vec![4096, 4096], vec![1000, 1000]],
            2,
        ));
        assert_eq!(m.propagator_count(), 2);
        // A different item count over the same posted dimensions is not a
        // shape change: that is the set-diff path.
        let b = m.new_var(0, 1);
        assert!(slots.resize(
            &mut m,
            &[a, b],
            &[vec![1, 1], vec![512, 512]],
            &[vec![4, 4], vec![4096, 4096]],
            2,
        ));
        assert_eq!(m.propagator_count(), 2);
    }

    #[test]
    fn resizing_grows_and_shrinks_without_reposting() {
        let mut m = Model::new();
        let a = m.new_var(0, 1);
        let mut slots = MultiDimPacking::post_patchable(
            &mut m,
            &[a],
            &[vec![1], vec![512], vec![100]],
            &[vec![4, 4], vec![4096, 4096], vec![1000, 1000]],
            2,
        );
        assert_eq!(slots.items(), 1);
        let posted = m.propagator_count();
        // Grow to two items: same slots, new item set.
        let b = m.new_var(0, 1);
        assert!(slots.resize(
            &mut m,
            &[a, b],
            &[vec![1, 1], vec![512, 512], vec![600, 600]],
            &[vec![4, 4], vec![4096, 4096], vec![1000, 1000]],
            2,
        ));
        assert_eq!(slots.items(), 2);
        assert_eq!(m.propagator_count(), posted, "resizing must not repost");
        // The grown constraints prune like a fresh post: the net dimension
        // forces the two items apart.
        let mut s = m.root_store();
        s.assign(a, 0).unwrap();
        propagate_to_fixpoint(m.propagators(), &mut s).unwrap();
        assert_eq!(s.value(b), 1);
        // Shrink back to one item.
        assert!(slots.resize(
            &mut m,
            &[b],
            &[vec![1], vec![512], vec![600]],
            &[vec![4, 4], vec![4096, 4096], vec![1000, 1000]],
            2,
        ));
        assert_eq!(slots.items(), 1);
        assert_eq!(m.propagator_count(), posted);
    }

    #[test]
    fn resizing_refuses_an_inertness_flip() {
        let mut m = Model::new();
        let a = m.new_var(0, 1);
        let mut slots = MultiDimPacking::post_patchable(
            &mut m,
            &[a],
            &[vec![1], vec![512], vec![0]],
            &[vec![4, 4], vec![4096, 4096], vec![0, 0]],
            2,
        );
        let b = m.new_var(0, 1);
        // The inert net dimension turning live needs a propagator that was
        // never posted: refuse, leaving the model and the slots untouched.
        assert!(!slots.dims_compatible(&[vec![1, 1], vec![512, 512], vec![600, 600]], 2));
        assert!(!slots.resize(
            &mut m,
            &[a, b],
            &[vec![1, 1], vec![512, 512], vec![600, 600]],
            &[vec![4, 4], vec![4096, 4096], vec![1000, 1000]],
            2,
        ));
        assert_eq!(slots.items(), 1);
        assert_eq!(m.propagator_count(), 2);
    }
}

//! The constraints used by the placement models of `cwcs-core`.
//!
//! * [`arith`] — linear inequalities (and, for tests, equality with a
//!   constant);
//! * [`all_different`] — pairwise difference (used by tests and auxiliary
//!   models);
//! * [`bin_packing`] — the bin-packing constraint of Shaw (2004) over
//!   assignment variables, the multi-knapsack formulation of the paper and
//!   the only capacity propagation the placement model posts;
//! * [`multi_dim`] — the N-dimensional packing builder: one bin-packing per
//!   resource dimension over shared assignment variables, inert dimensions
//!   skipped so legacy 2-dimensional models stay bit-identical.

pub mod all_different;
pub mod arith;
pub mod bin_packing;
pub mod multi_dim;

pub use all_different::AllDifferent;
#[cfg(test)]
pub(crate) use arith::EqualConst;
pub use arith::LinearLeq;
pub use bin_packing::BinPacking;
pub use multi_dim::MultiDimPacking;

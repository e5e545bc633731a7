//! The propagator interface and the fixpoint propagation loop.
//!
//! Propagators narrow variable domains until no propagator can prune any
//! further (a fixpoint) or some domain is wiped out (an [`Inconsistency`]).
//! The loop is intentionally simple: after any propagator reports a change,
//! the whole set is re-run.  At the scale of the paper's placement problems
//! (hundreds of variables, a handful of global constraints) this costs far
//! less than the search itself.

use crate::store::{DomainStore, VarId};

/// Raised when a propagator (or a search decision) empties a domain or
/// detects that a constraint can no longer be satisfied.
///
/// Failing is the common outcome of a search node, and nothing on the
/// search path reads the description: an inconsistency is plain `Copy` data
/// and only its `Display` renders text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inconsistency {
    /// The domain of this variable was wiped out.
    Wipeout(VarId),
    /// A constraint cannot be satisfied anymore, with a description.
    Failure(&'static str),
    /// A bin of a packing constraint is committed beyond its capacity.
    Overload {
        /// The overloaded bin.
        bin: u32,
        /// Total size of the items fixed to it.
        load: u64,
        /// Its capacity.
        capacity: u64,
    },
}

impl Inconsistency {
    /// An inconsistency caused by the wipeout of the domain of `var`.
    pub fn wipeout(var: VarId) -> Self {
        Inconsistency::Wipeout(var)
    }

    /// An inconsistency detected by a constraint, with a description.
    pub fn failure(reason: &'static str) -> Self {
        Inconsistency::Failure(reason)
    }

    /// The variable whose domain was wiped out, if any.
    pub fn variable(&self) -> Option<VarId> {
        match *self {
            Inconsistency::Wipeout(var) => Some(var),
            _ => None,
        }
    }
}

impl std::fmt::Display for Inconsistency {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("inconsistency: ")?;
        match *self {
            Inconsistency::Wipeout(var) => write!(f, "domain of x{} wiped out", var.0),
            Inconsistency::Failure(reason) => f.write_str(reason),
            Inconsistency::Overload {
                bin,
                load,
                capacity,
            } => write!(
                f,
                "bin {bin} overloaded: committed {load} > capacity {capacity}"
            ),
        }
    }
}

impl std::error::Error for Inconsistency {}

/// Outcome of one propagator run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PropagationResult {
    /// The propagator pruned at least one value.
    Changed,
    /// The propagator pruned nothing.
    Unchanged,
}

/// A constraint propagator.
///
/// Propagators are stateless (all their parameters are immutable); they read
/// and narrow the [`DomainStore`] they are given.  They must be *monotone*
/// (never re-add values) and *sound* (never remove a value that belongs to a
/// solution of the constraint).
pub trait Propagator: Send + Sync {
    /// Narrow the store.  Return whether anything changed, or an
    /// [`Inconsistency`] when the constraint cannot be satisfied anymore.
    fn propagate(&self, store: &mut DomainStore) -> Result<PropagationResult, Inconsistency>;

    /// A short name used in debugging output.
    fn name(&self) -> &str {
        "propagator"
    }
}

/// Run every propagator until none of them changes the store (fixpoint).
///
/// Returns an [`Inconsistency`] as soon as any propagator fails.
pub fn propagate_to_fixpoint(
    propagators: &[std::sync::Arc<dyn Propagator>],
    store: &mut DomainStore,
) -> Result<(), Inconsistency> {
    loop {
        let mut changed = false;
        for p in propagators {
            match p.propagate(store)? {
                PropagationResult::Changed => changed = true,
                PropagationResult::Unchanged => {}
            }
        }
        if !changed {
            return Ok(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::Model;
    use std::sync::Arc;

    /// Toy propagator enforcing x < y on bounds.
    struct LessThan {
        x: VarId,
        y: VarId,
    }

    impl Propagator for LessThan {
        fn propagate(&self, store: &mut DomainStore) -> Result<PropagationResult, Inconsistency> {
            let mut changed = false;
            // x < y  =>  x <= max(y) - 1, y >= min(x) + 1
            let y_max = store.max(self.y);
            if y_max == 0 {
                return Err(Inconsistency::failure("y must be positive"));
            }
            changed |= store.remove_above(self.x, y_max - 1)?;
            let x_min = store.min(self.x);
            changed |= store.remove_below(self.y, x_min + 1)?;
            Ok(if changed {
                PropagationResult::Changed
            } else {
                PropagationResult::Unchanged
            })
        }

        fn name(&self) -> &str {
            "less-than"
        }
    }

    #[test]
    fn fixpoint_chains_propagations() {
        // x < y < z, all in [0, 2]: forces x=0, y=1, z=2.
        let mut m = Model::new();
        let x = m.new_var(0, 2);
        let y = m.new_var(0, 2);
        let z = m.new_var(0, 2);
        let props: Vec<Arc<dyn Propagator>> = vec![
            Arc::new(LessThan { x, y }),
            Arc::new(LessThan { x: y, y: z }),
        ];
        let mut store = m.root_store();
        propagate_to_fixpoint(&props, &mut store).unwrap();
        assert_eq!(store.value(x), 0);
        assert_eq!(store.value(y), 1);
        assert_eq!(store.value(z), 2);
    }

    #[test]
    fn fixpoint_detects_inconsistency() {
        // x < y with both fixed to the same value.
        let mut m = Model::new();
        let x = m.new_var(1, 1);
        let y = m.new_var(1, 1);
        let props: Vec<Arc<dyn Propagator>> = vec![Arc::new(LessThan { x, y })];
        let mut store = m.root_store();
        assert!(propagate_to_fixpoint(&props, &mut store).is_err());
    }

    #[test]
    fn inconsistency_reports() {
        let inc = Inconsistency::wipeout(VarId(3));
        assert_eq!(inc.variable(), Some(VarId(3)));
        assert!(inc.to_string().contains("x3"));
        let inc = Inconsistency::failure("capacity exceeded");
        assert_eq!(inc.variable(), None);
        assert!(inc.to_string().contains("capacity exceeded"));
    }
}

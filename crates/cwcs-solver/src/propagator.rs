//! The propagator interface.
//!
//! Propagators narrow variable domains until no propagator can prune any
//! further (a fixpoint) or some domain is wiped out (an [`Inconsistency`]).
//! The loop that drives them is [`crate::Model::propagate`], and it is
//! event-driven: a propagator names the variables it watches, runs from
//! scratch once — on a store nothing was propagated on yet — and is woken
//! from then on only for a watched variable that was narrowed, with that
//! variable — or, for a propagator that declares [`WakeOn::Fixed`], only
//! for one that became fixed.  What a search node pays is therefore what
//! its decision changed, not the size of the model.

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

/// Which narrowings of a watched variable wake a propagator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WakeOn {
    /// Every narrowing: what [`Propagator::wake_on`] returns unless a
    /// propagator says otherwise.
    Narrowed,
    /// Only the narrowing that leaves the variable fixed.  For a propagator
    /// whose [`Propagator::narrowed`] does nothing with an open variable —
    /// bin packing, which commits an item once it has a bin.
    Fixed,
}

/// A constraint propagator.
///
/// A propagator's parameters are immutable and it is shared by every
/// portfolio worker; what it must remember from one call to the next lives
/// in trailed cells of the [`DomainStore`] it is given.  It must be
/// *monotone* (never re-add values, and prune at least as much on a narrower
/// store) and *sound* (never remove a value that belongs to a solution of
/// the constraint).
pub trait Propagator: Send + Sync {
    /// The variables whose narrowing wakes this propagator.
    fn watched(&self) -> &[VarId];

    /// Which of their narrowings wake it; read once, by
    /// [`crate::Model::post`].  Waking on fewer narrowings changes no
    /// fixpoint only when [`Propagator::narrowed`] would have done nothing
    /// with the others.
    fn wake_on(&self) -> WakeOn {
        WakeOn::Narrowed
    }

    /// Called once, by [`crate::Model::post`]: take as many trailed cells as
    /// the propagator needs, numbered from `first`, and return how many
    /// that is.  Every cell reads 0 on a store nothing was propagated on.
    fn claim_cells(&mut self, first: usize) -> usize {
        let _ = first;
        0
    }

    /// Narrow a store nothing was propagated on yet, looking at every
    /// watched variable, or return an [`Inconsistency`] when the constraint
    /// cannot be satisfied.
    fn propagate(&self, store: &mut DomainStore) -> Result<(), Inconsistency>;

    /// Narrow the store knowing that `var`, a watched variable, was narrowed
    /// since this propagator last ran (and is fixed, under
    /// [`WakeOn::Fixed`]).  A variable that became fixed is reported exactly
    /// once on the way down a branch: it cannot change again.  Starting over
    /// is always correct for a propagator that keeps nothing in cells, and
    /// is the default.
    fn narrowed(&self, store: &mut DomainStore, var: VarId) -> Result<(), Inconsistency> {
        let _ = var;
        self.propagate(store)
    }

    /// A short name used in debugging output.
    fn name(&self) -> &str {
        "propagator"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::Model;

    /// Toy propagator enforcing `vars[0] < vars[1]` on bounds.
    struct LessThan {
        vars: [VarId; 2],
    }

    impl Propagator for LessThan {
        fn watched(&self) -> &[VarId] {
            &self.vars
        }

        fn propagate(&self, store: &mut DomainStore) -> Result<(), Inconsistency> {
            let [x, y] = self.vars;
            // x < y  =>  x <= max(y) - 1, y >= min(x) + 1
            let y_max = store.max(y);
            if y_max == 0 {
                return Err(Inconsistency::failure("y must be positive"));
            }
            store.remove_above(x, y_max - 1)?;
            let x_min = store.min(x);
            store.remove_below(y, x_min + 1)?;
            Ok(())
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
        m.post(LessThan { vars: [x, y] });
        m.post(LessThan { vars: [y, z] });
        let mut store = m.root_store();
        let mut runs = 0;
        m.propagate(&mut store, &mut runs).unwrap();
        assert_eq!(store.value(x), 0);
        assert_eq!(store.value(y), 1);
        assert_eq!(store.value(z), 2);
        // Two runs from scratch narrow all three variables; x and z wake
        // their one watcher, y both.
        assert_eq!(runs, 2 + 4);
    }

    #[test]
    fn fixpoint_detects_inconsistency() {
        // x < y with both fixed to the same value.
        let mut m = Model::new();
        let x = m.new_var(1, 1);
        let y = m.new_var(1, 1);
        m.post(LessThan { vars: [x, y] });
        let mut store = m.root_store();
        assert!(m.propagate(&mut store, &mut 0).is_err());
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

//! Pairwise-difference constraint.
//!
//! The propagation is value-based: the value of every fixed variable is
//! removed from the other domains, and a pigeonhole check fails early when
//! fewer candidate values remain than variables to place.

use std::collections::BTreeSet;

use crate::propagator::{Inconsistency, Propagator};
use crate::store::{DomainStore, VarId};

/// All the given variables must take pairwise different values.
#[derive(Debug, Clone)]
pub struct AllDifferent {
    vars: Vec<VarId>,
}

impl AllDifferent {
    /// Build the constraint over the given variables.
    pub fn new(vars: Vec<VarId>) -> Self {
        AllDifferent { vars }
    }
}

impl Propagator for AllDifferent {
    fn watched(&self) -> &[VarId] {
        &self.vars
    }

    fn propagate(&self, store: &mut DomainStore) -> Result<(), Inconsistency> {
        // Value propagation from fixed variables.
        loop {
            let mut progressed = false;
            let fixed: Vec<(VarId, u32)> = self
                .vars
                .iter()
                .filter_map(|&v| store.fixed_value(v).map(|val| (v, val)))
                .collect();
            // Two variables fixed to the same value: failure.
            let mut seen = BTreeSet::new();
            for (_, val) in &fixed {
                if !seen.insert(*val) {
                    return Err(Inconsistency::failure(
                        "all-different: a value is used twice",
                    ));
                }
            }
            for &(fixed_var, val) in &fixed {
                for &other in &self.vars {
                    if other != fixed_var && store.contains(other, val) {
                        store.remove(other, val)?;
                        progressed = true;
                    }
                }
            }
            if !progressed {
                break;
            }
        }
        // Pigeonhole: the union of the domains must be at least as large as
        // the number of variables.
        let mut union = BTreeSet::new();
        for &v in &self.vars {
            union.extend(store.domain(v).iter());
        }
        if union.len() < self.vars.len() {
            return Err(Inconsistency::failure(
                "all-different: fewer values than variables",
            ));
        }
        Ok(())
    }

    fn name(&self) -> &str {
        "all-different"
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
    fn fixed_values_are_removed_from_others() {
        let mut m = Model::new();
        let x = m.new_var(1, 1);
        let y = m.new_var(1, 2);
        let z = m.new_var(1, 3);
        m.post(AllDifferent::new(vec![x, y, z]));
        let s = fixpoint(&m).unwrap();
        // x=1 forces y=2 which forces z=3.
        assert_eq!(s.value(y), 2);
        assert_eq!(s.value(z), 3);
    }

    #[test]
    fn duplicate_fixed_values_fail() {
        let mut m = Model::new();
        let x = m.new_var(2, 2);
        let y = m.new_var(2, 2);
        m.post(AllDifferent::new(vec![x, y]));
        assert!(fixpoint(&m).is_err());
    }

    #[test]
    fn pigeonhole_failure() {
        let mut m = Model::new();
        let x = m.new_var(0, 1);
        let y = m.new_var(0, 1);
        let z = m.new_var(0, 1);
        m.post(AllDifferent::new(vec![x, y, z]));
        assert!(fixpoint(&m).is_err());
    }

    #[test]
    fn no_spurious_pruning() {
        let mut m = Model::new();
        let x = m.new_var(0, 2);
        let y = m.new_var(0, 2);
        m.post(AllDifferent::new(vec![x, y]));
        let s = fixpoint(&m).unwrap();
        assert_eq!(s.domain(x).size(), 3);
        assert_eq!(s.domain(y).size(), 3);
    }
}

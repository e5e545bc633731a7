//! Arithmetic constraints: linear inequalities with non-negative
//! coefficients, and (for tests) equality with a constant.

use crate::propagator::{Inconsistency, Propagator};
use crate::store::{DomainStore, VarId};

/// `x == value`
#[cfg(test)]
#[derive(Debug, Clone)]
pub(crate) struct EqualConst {
    var: VarId,
    value: u32,
}

#[cfg(test)]
impl EqualConst {
    /// Constrain `var` to equal `value`.
    pub(crate) fn new(var: VarId, value: u32) -> Self {
        EqualConst { var, value }
    }
}

#[cfg(test)]
impl Propagator for EqualConst {
    fn watched(&self) -> &[VarId] {
        std::slice::from_ref(&self.var)
    }

    fn propagate(&self, store: &mut DomainStore) -> Result<(), Inconsistency> {
        store.assign(self.var, self.value).map(drop)
    }

    fn name(&self) -> &str {
        "equal-const"
    }
}

/// `Σ coefficient_i · x_i ≤ bound` with non-negative coefficients.
///
/// Propagation is bounds-consistent: for each variable the maximum value
/// compatible with the minimal contribution of every other variable is
/// enforced.
#[derive(Debug, Clone)]
pub struct LinearLeq {
    vars: Vec<VarId>,
    coefficients: Vec<u64>,
    bound: u64,
}

impl LinearLeq {
    /// Build the constraint `Σ coefficients[i] · vars[i] ≤ bound`.
    ///
    /// # Panics
    /// Panics when `vars` and `coefficients` have different lengths.
    pub fn new(vars: Vec<VarId>, coefficients: Vec<u64>, bound: u64) -> Self {
        assert_eq!(vars.len(), coefficients.len());
        LinearLeq {
            vars,
            coefficients,
            bound,
        }
    }

    /// `Σ x_i ≤ bound` (unit coefficients).
    #[cfg(test)]
    pub(crate) fn sum_leq(vars: Vec<VarId>, bound: u64) -> Self {
        let n = vars.len();
        LinearLeq::new(vars, vec![1; n], bound)
    }
}

impl Propagator for LinearLeq {
    fn watched(&self) -> &[VarId] {
        &self.vars
    }

    fn propagate(&self, store: &mut DomainStore) -> Result<(), Inconsistency> {
        // Minimal total contribution.
        let min_sum: u64 = self
            .vars
            .iter()
            .zip(&self.coefficients)
            .map(|(&v, &c)| c * store.min(v) as u64)
            .sum();
        if min_sum > self.bound {
            return Err(Inconsistency::failure(
                "linear sum minimum exceeds the bound",
            ));
        }
        for (&v, &c) in self.vars.iter().zip(&self.coefficients) {
            if c == 0 {
                continue;
            }
            let others = min_sum - c * store.min(v) as u64;
            let slack = self.bound - others;
            let max_allowed = (slack / c) as u32;
            if store.max(v) > max_allowed {
                store.remove_above(v, max_allowed)?;
            }
        }
        Ok(())
    }

    fn name(&self) -> &str {
        "linear-leq"
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
    fn equal_const_fixes_the_variable() {
        let mut m = Model::new();
        let x = m.new_var(0, 9);
        m.post(EqualConst::new(x, 4));
        let s = fixpoint(&m).unwrap();
        assert_eq!(s.value(x), 4);
    }

    #[test]
    fn equal_const_outside_domain_fails() {
        let mut m = Model::new();
        let x = m.new_var(0, 3);
        m.post(EqualConst::new(x, 7));
        assert!(fixpoint(&m).is_err());
    }

    #[test]
    fn linear_leq_prunes_upper_bounds() {
        // 2x + 3y <= 10 with x,y in [0,5]:
        // x <= 5, y <= 3 after propagation (with the other at its minimum 0).
        let mut m = Model::new();
        let x = m.new_var(0, 5);
        let y = m.new_var(0, 5);
        m.post(LinearLeq::new(vec![x, y], vec![2, 3], 10));
        let s = fixpoint(&m).unwrap();
        assert_eq!(s.max(x), 5);
        assert_eq!(s.max(y), 3);
    }

    #[test]
    fn linear_leq_uses_other_minimums() {
        // x + y <= 5, x >= 4 -> y <= 1
        let mut m = Model::new();
        let x = m.new_var(4, 5);
        let y = m.new_var(0, 5);
        m.post(LinearLeq::sum_leq(vec![x, y], 5));
        let s = fixpoint(&m).unwrap();
        assert_eq!(s.max(y), 1);
    }

    #[test]
    fn linear_leq_detects_infeasibility() {
        let mut m = Model::new();
        let x = m.new_var(3, 5);
        let y = m.new_var(3, 5);
        m.post(LinearLeq::sum_leq(vec![x, y], 5));
        assert!(fixpoint(&m).is_err());
    }

    #[test]
    fn zero_coefficient_variables_are_ignored() {
        let mut m = Model::new();
        let x = m.new_var(0, 9);
        let y = m.new_var(0, 9);
        m.post(LinearLeq::new(vec![x, y], vec![0, 1], 4));
        let s = fixpoint(&m).unwrap();
        assert_eq!(s.max(x), 9);
        assert_eq!(s.max(y), 4);
    }
}

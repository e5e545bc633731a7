//! Finite integer domains represented as bitsets.
//!
//! A domain holds a set of candidate values for one variable, all within
//! `[0, capacity)`.  The placement model of `cwcs-core` uses node indices as
//! values, so a capacity of a few hundred is typical; the bitset fits in a
//! handful of 64-bit words and cloning a whole domain store per search node
//! stays cheap.

/// A finite domain of `u32` values stored as a bitset, with cached bounds and
/// cardinality.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntDomain {
    words: Vec<u64>,
    size: u32,
    min: u32,
    max: u32,
}

impl IntDomain {
    /// Domain containing every value in `[lo, hi]` (inclusive).
    ///
    /// # Panics
    /// Panics when `lo > hi`.
    pub fn range(lo: u32, hi: u32) -> Self {
        assert!(lo <= hi, "empty initial domain [{lo}, {hi}]");
        let n_words = (hi as usize / 64) + 1;
        let mut words = vec![0u64; n_words];
        for v in lo..=hi {
            words[(v / 64) as usize] |= 1u64 << (v % 64);
        }
        IntDomain {
            words,
            size: hi - lo + 1,
            min: lo,
            max: hi,
        }
    }

    /// Domain containing exactly the given values.
    ///
    /// # Panics
    /// Panics when `values` is empty.
    pub fn from_values(values: &[u32]) -> Self {
        assert!(!values.is_empty(), "empty initial domain");
        let max = *values.iter().max().unwrap();
        let n_words = (max as usize / 64) + 1;
        let mut words = vec![0u64; n_words];
        let mut size = 0;
        for &v in values {
            let w = (v / 64) as usize;
            let bit = 1u64 << (v % 64);
            if words[w] & bit == 0 {
                words[w] |= bit;
                size += 1;
            }
        }
        let min = *values.iter().min().unwrap();
        IntDomain {
            words,
            size,
            min,
            max,
        }
    }

    /// Domain reduced to a single value.
    pub fn singleton(value: u32) -> Self {
        IntDomain::range(value, value)
    }

    /// Number of values still in the domain.
    pub fn size(&self) -> u32 {
        self.size
    }

    /// True when only one value remains.
    pub fn is_fixed(&self) -> bool {
        self.size == 1
    }

    /// True when no value remains (the domain has been wiped out).
    pub fn is_empty(&self) -> bool {
        self.size == 0
    }

    /// Smallest value still in the domain.
    ///
    /// # Panics
    /// Panics on an empty domain.
    pub fn min(&self) -> u32 {
        assert!(!self.is_empty(), "min() on empty domain");
        self.min
    }

    /// Largest value still in the domain.
    ///
    /// # Panics
    /// Panics on an empty domain.
    pub fn max(&self) -> u32 {
        assert!(!self.is_empty(), "max() on empty domain");
        self.max
    }

    /// The unique remaining value of a fixed domain.
    ///
    /// # Panics
    /// Panics when the domain is not fixed.
    pub fn value(&self) -> u32 {
        assert!(self.is_fixed(), "value() on unfixed domain");
        self.min
    }

    /// True when `value` is still a candidate.
    pub fn contains(&self, value: u32) -> bool {
        let w = (value / 64) as usize;
        w < self.words.len() && self.words[w] & (1u64 << (value % 64)) != 0
    }

    /// Remove `value` from the domain.  Returns `true` when the domain
    /// changed.
    pub fn remove(&mut self, value: u32) -> bool {
        if !self.contains(value) {
            return false;
        }
        let w = (value / 64) as usize;
        self.words[w] &= !(1u64 << (value % 64));
        self.size -= 1;
        if !self.is_empty() {
            if value == self.min {
                self.min = self.first_at_or_above(value + 1).unwrap();
            }
            if value == self.max {
                self.max = self.last_at_or_below(value.saturating_sub(1)).unwrap();
            }
        }
        true
    }

    /// Reduce the domain to the single value `value`.  Returns `true` when
    /// the domain changed, `false` when it was already that singleton.  If
    /// `value` is not in the domain the domain becomes empty.
    pub fn assign(&mut self, value: u32) -> bool {
        if self.is_fixed() && self.min == value {
            return false;
        }
        if !self.contains(value) {
            // wipe out
            for w in &mut self.words {
                *w = 0;
            }
            self.size = 0;
            return true;
        }
        for w in &mut self.words {
            *w = 0;
        }
        self.words[(value / 64) as usize] = 1u64 << (value % 64);
        self.size = 1;
        self.min = value;
        self.max = value;
        true
    }

    /// Remove every value strictly below `bound`.  Returns `true` when the
    /// domain changed.
    pub fn remove_below(&mut self, bound: u32) -> bool {
        let mut changed = false;
        while !self.is_empty() && self.min < bound {
            let v = self.min;
            self.remove(v);
            changed = true;
        }
        changed
    }

    /// Remove every value strictly above `bound`.  Returns `true` when the
    /// domain changed.
    pub fn remove_above(&mut self, bound: u32) -> bool {
        let mut changed = false;
        while !self.is_empty() && self.max > bound {
            let v = self.max;
            self.remove(v);
            changed = true;
        }
        changed
    }

    /// Iterate over the remaining values in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        let min = if self.is_empty() { 1 } else { self.min };
        let max = if self.is_empty() { 0 } else { self.max };
        (min..=max).filter(move |&v| self.contains(v))
    }

    /// Collect the remaining values in increasing order.
    pub fn values(&self) -> Vec<u32> {
        // Sized up front: `iter` is a filter with no lower size hint, so
        // `collect` would grow by doubling (seven `realloc`s at 236 values),
        // and propagation calls this once per variable per round.
        let mut values = Vec::with_capacity(self.size as usize);
        values.extend(self.iter());
        values
    }

    fn first_at_or_above(&self, from: u32) -> Option<u32> {
        (from..=self.words.len() as u32 * 64 - 1).find(|&v| self.contains(v))
    }

    fn last_at_or_below(&self, from: u32) -> Option<u32> {
        (0..=from).rev().find(|&v| self.contains(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_domain_basics() {
        let d = IntDomain::range(2, 5);
        assert_eq!(d.size(), 4);
        assert_eq!(d.min(), 2);
        assert_eq!(d.max(), 5);
        assert!(!d.is_fixed());
        assert!(d.contains(3));
        assert!(!d.contains(1));
        assert!(!d.contains(6));
        assert_eq!(d.values(), vec![2, 3, 4, 5]);
    }

    #[test]
    fn from_values_deduplicates() {
        let d = IntDomain::from_values(&[7, 3, 3, 90]);
        assert_eq!(d.size(), 3);
        assert_eq!(d.min(), 3);
        assert_eq!(d.max(), 90);
        assert_eq!(d.values(), vec![3, 7, 90]);
    }

    #[test]
    fn remove_updates_bounds() {
        let mut d = IntDomain::range(0, 4);
        assert!(d.remove(0));
        assert_eq!(d.min(), 1);
        assert!(d.remove(4));
        assert_eq!(d.max(), 3);
        assert!(!d.remove(0), "removing an absent value is a no-op");
        assert_eq!(d.size(), 3);
    }

    #[test]
    fn remove_middle_keeps_bounds() {
        let mut d = IntDomain::range(0, 4);
        d.remove(2);
        assert_eq!(d.min(), 0);
        assert_eq!(d.max(), 4);
        assert_eq!(d.values(), vec![0, 1, 3, 4]);
    }

    #[test]
    fn assign_and_wipeout() {
        let mut d = IntDomain::range(0, 10);
        assert!(d.assign(7));
        assert!(d.is_fixed());
        assert_eq!(d.value(), 7);
        assert!(!d.assign(7), "re-assigning the same value is a no-op");
        let mut d = IntDomain::range(0, 3);
        d.assign(9); // not in the domain: wipe out
        assert!(d.is_empty());
    }

    #[test]
    fn remove_below_and_above() {
        let mut d = IntDomain::range(0, 9);
        assert!(d.remove_below(3));
        assert!(d.remove_above(6));
        assert_eq!(d.values(), vec![3, 4, 5, 6]);
        assert!(!d.remove_below(2));
        assert!(!d.remove_above(8));
    }

    #[test]
    fn remove_everything_empties() {
        let mut d = IntDomain::range(0, 2);
        d.remove(0);
        d.remove(1);
        d.remove(2);
        assert!(d.is_empty());
        assert_eq!(d.size(), 0);
        assert_eq!(d.values(), Vec::<u32>::new());
    }

    #[test]
    fn large_values_cross_word_boundaries() {
        let d = IntDomain::range(60, 130);
        assert_eq!(d.size(), 71);
        assert!(d.contains(64));
        assert!(d.contains(127));
        assert!(d.contains(128));
        assert!(!d.contains(131));
    }

    #[test]
    fn singleton_is_fixed() {
        let d = IntDomain::singleton(5);
        assert!(d.is_fixed());
        assert_eq!(d.value(), 5);
    }

    #[test]
    #[should_panic]
    fn empty_range_panics() {
        let _ = IntDomain::range(3, 2);
    }
}

//! Finite integer domains as bitsets: one implementation over three
//! storages.
//!
//! A domain is a set of candidate values for one variable, all within
//! `[0, 64 · words)`, with its cardinality and bounds cached next to the
//! words.  The placement model of `cwcs-core` uses node indices as values,
//! so a domain is a handful of 64-bit words.
//!
//! [`Domain`] is generic over where the words live, and every operation —
//! `contains`, the word-level `iter`, `remove`, `assign`, `remove_below`,
//! `remove_above`, `retain` — is written once against that parameter:
//!
//! * [`IntDomain`] owns its words.  It is the **build-time** type: a
//!   [`crate::Model`] keeps one per variable while it is being built.
//! * [`DomainRef`] borrows the words of one variable out of the flat arena
//!   of a [`crate::DomainStore`]; it is what propagators and objectives read
//!   during search.
//! * the store's mutating operations run the same routines on a mutable
//!   borrow of the arena, after saving the old words on its trail.
//!
//! Nothing here scans values one at a time: iteration pops set bits with
//! `trailing_zeros`, bound tightening masks whole words and counts what it
//! dropped with `count_ones`, and new bounds are found by skipping zero
//! words.

use std::ops::{Deref, DerefMut};

/// A finite domain of `u32` values stored as a bitset in `W`, with cached
/// bounds and cardinality.  See the module docs for the three storages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Domain<W> {
    pub(crate) words: W,
    pub(crate) size: u32,
    pub(crate) min: u32,
    pub(crate) max: u32,
}

/// A domain that owns its words: the [`crate::Model`]'s build-time type.
pub type IntDomain = Domain<Vec<u64>>;

/// A read-only view of one variable's domain inside a
/// [`crate::DomainStore`].
pub type DomainRef<'a> = Domain<&'a [u64]>;

impl IntDomain {
    /// Domain containing every value in `[lo, hi]` (inclusive).
    ///
    /// # Panics
    /// Panics when `lo > hi`.
    pub(crate) fn range(lo: u32, hi: u32) -> Self {
        assert!(lo <= hi, "empty initial domain [{lo}, {hi}]");
        let n_words = (hi as usize / 64) + 1;
        let mut domain = Domain {
            words: vec![u64::MAX; n_words],
            size: n_words as u32 * 64,
            min: 0,
            max: n_words as u32 * 64 - 1,
        };
        domain.remove_above(hi);
        domain.remove_below(lo);
        domain
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
}

impl<W: Deref<Target = [u64]>> Domain<W> {
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
    #[cfg(test)]
    pub(crate) fn value(&self) -> u32 {
        assert!(self.is_fixed(), "value() on unfixed domain");
        self.min
    }

    /// True when `value` is still a candidate.
    pub fn contains(&self, value: u32) -> bool {
        let w = (value / 64) as usize;
        w < self.words.len() && self.words[w] & (1u64 << (value % 64)) != 0
    }

    /// Iterate over the remaining values in increasing order.
    pub fn iter(&self) -> Values<'_> {
        // Every set bit lies in the words of `min ..= max`; a wiped-out
        // domain has none anywhere.
        let (first, last) = (self.min as usize / 64, self.max as usize / 64);
        let words = if self.is_empty() {
            &[]
        } else {
            &self.words[first..=last]
        };
        let (&word, rest) = words.split_first().unwrap_or((&0, &[]));
        Values {
            rest,
            word,
            base: first as u32 * 64,
        }
    }

    /// Collect the remaining values in increasing order.
    pub fn values(&self) -> Vec<u32> {
        let mut values = Vec::with_capacity(self.size as usize);
        values.extend(self.iter());
        values
    }

    /// Smallest value at or above the start of word `from` (one must exist).
    fn first_from(&self, from: usize) -> u32 {
        let w = (from..self.words.len())
            .find(|&w| self.words[w] != 0)
            .expect("a non-empty domain has a set bit at or above its minimum");
        w as u32 * 64 + self.words[w].trailing_zeros()
    }

    /// Largest value at or below the end of word `from` (one must exist).
    fn last_upto(&self, from: usize) -> u32 {
        let w = (0..=from)
            .rev()
            .find(|&w| self.words[w] != 0)
            .expect("a non-empty domain has a set bit at or below its maximum");
        w as u32 * 64 + 63 - self.words[w].leading_zeros()
    }
}

impl<W: DerefMut<Target = [u64]>> Domain<W> {
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
                self.min = self.first_from(w);
            }
            if value == self.max {
                self.max = self.last_upto(w);
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
        let present = self.contains(value);
        self.wipe();
        if present {
            self.words[(value / 64) as usize] = 1u64 << (value % 64);
            self.size = 1;
            self.min = value;
            self.max = value;
        }
        true
    }

    /// Remove every value strictly below `bound`.  Returns `true` when the
    /// domain changed.
    pub fn remove_below(&mut self, bound: u32) -> bool {
        if self.is_empty() || self.min >= bound {
            return false;
        }
        if bound > self.max {
            self.wipe();
            return true;
        }
        // `bound <= max`: the maximum survives, so the domain stays
        // non-empty and `bound`'s word exists.
        let last = (bound / 64) as usize;
        for w in (self.min / 64) as usize..last {
            self.size -= self.words[w].count_ones();
            self.words[w] = 0;
        }
        let keep = u64::MAX << (bound % 64);
        self.size -= (self.words[last] & !keep).count_ones();
        self.words[last] &= keep;
        self.min = self.first_from(last);
        true
    }

    /// Remove every value strictly above `bound`.  Returns `true` when the
    /// domain changed.
    pub fn remove_above(&mut self, bound: u32) -> bool {
        if self.is_empty() || self.max <= bound {
            return false;
        }
        if bound < self.min {
            self.wipe();
            return true;
        }
        // `bound >= min`: the minimum survives.
        let first = (bound / 64) as usize;
        for w in first + 1..=(self.max / 64) as usize {
            self.size -= self.words[w].count_ones();
            self.words[w] = 0;
        }
        let keep = u64::MAX >> (63 - bound % 64);
        self.size -= (self.words[first] & !keep).count_ones();
        self.words[first] &= keep;
        self.max = self.last_upto(first);
        true
    }

    /// Keep only the values `keep` accepts (asked in increasing order, once
    /// each).  Returns `true` when the domain changed.
    pub fn retain(&mut self, mut keep: impl FnMut(u32) -> bool) -> bool {
        if self.is_empty() {
            return false;
        }
        let (first, last) = ((self.min / 64) as usize, (self.max / 64) as usize);
        let mut changed = false;
        for w in first..=last {
            let mut pending = self.words[w];
            let mut kept = pending;
            while pending != 0 {
                let bit = pending.trailing_zeros();
                pending &= pending - 1;
                if !keep(w as u32 * 64 + bit) {
                    kept &= !(1u64 << bit);
                }
            }
            if kept != self.words[w] {
                self.size -= (self.words[w] ^ kept).count_ones();
                self.words[w] = kept;
                changed = true;
            }
        }
        if changed && !self.is_empty() {
            self.min = self.first_from(first);
            self.max = self.last_upto(last);
        }
        changed
    }

    /// Empty the domain.  The bounds keep their last values, which still
    /// name the words that could hold a bit.
    fn wipe(&mut self) {
        if !self.is_empty() {
            self.words[(self.min / 64) as usize..=(self.max / 64) as usize].fill(0);
            self.size = 0;
        }
    }
}

/// The remaining values of a domain in increasing order: pops the set bits
/// of one word at a time.
#[derive(Debug, Clone)]
pub struct Values<'a> {
    /// Bits of the current word not yielded yet.
    word: u64,
    /// Value of bit 0 of the current word.
    base: u32,
    /// The words after the current one.
    rest: &'a [u64],
}

impl Iterator for Values<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        while self.word == 0 {
            let (&word, rest) = self.rest.split_first()?;
            (self.word, self.rest) = (word, rest);
            self.base += 64;
        }
        let bit = self.word.trailing_zeros();
        self.word &= self.word - 1;
        Some(self.base + bit)
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
    fn retain_drops_the_rejected_values_and_fixes_the_bounds() {
        let mut d = IntDomain::range(60, 130);
        assert!(d.retain(|v| v % 2 == 1 && v != 129));
        assert_eq!(d.size(), 34);
        assert_eq!((d.min(), d.max()), (61, 127));
        assert!(!d.retain(|_| true), "keeping everything changes nothing");
        assert!(d.retain(|_| false));
        assert!(d.is_empty());
    }

    #[test]
    fn singleton_is_fixed() {
        let d = IntDomain::range(5, 5);
        assert!(d.is_fixed());
        assert_eq!(d.value(), 5);
    }

    #[test]
    #[should_panic]
    fn empty_range_panics() {
        let _ = IntDomain::range(3, 2);
    }
}

//! Dense row bitmaps for vectorized predicate evaluation.
//!
//! A [`RowSet`] represents a set of row indices of one table as a dense
//! `u64`-word bitmap. It is the currency of the vectorized predicate path:
//! condition kernels produce one `RowSet` per condition, conjunctions are
//! word-wise intersections, and counting matches is a popcount — no
//! per-row branching, hashing or allocation. The violation-set algebra of
//! the denial-constraint literature (and Scorpion's row-set reasoning) maps
//! onto exactly these three operations: `and`, `or`, `and_not`.
//!
//! Every `RowSet` carries the size of its universe (the table's row
//! count). Binary operations require both
//! operands to share a universe; mixing sets of different tables (or of a
//! table before and after an insert) is a logic error and panics rather
//! than silently mis-aligning rows.
//!
//! Bits beyond the universe are kept at zero as an invariant, so
//! [`RowSet::count_ones`] and iteration never need edge masking.

use crate::table::RowId;
use std::fmt;

/// A set of row indices over a fixed universe `0..len`, stored as a dense
/// bitmap.
#[derive(Clone, PartialEq, Eq)]
pub struct RowSet {
    words: Vec<u64>,
    len: usize,
}

impl RowSet {
    /// The empty set over the universe `0..len`.
    pub fn empty(len: usize) -> RowSet {
        RowSet { words: vec![0; len.div_ceil(64)], len }
    }

    /// The full set over the universe `0..len`.
    pub fn full(len: usize) -> RowSet {
        let mut s = RowSet { words: vec![u64::MAX; len.div_ceil(64)], len };
        s.mask_tail();
        s
    }

    /// The rows `from..len` of the universe `0..len`: what an append added
    /// to a table that held `from` rows.
    ///
    /// Panics when `from > len`.
    pub fn suffix(len: usize, from: usize) -> RowSet {
        assert!(from <= len, "suffix from {from} outside universe 0..{len}");
        let mut s = RowSet::full(len);
        s.words[..from / 64].fill(0);
        if from % 64 != 0 {
            s.words[from / 64] &= u64::MAX << (from % 64);
        }
        s
    }

    /// Builds a set from row indices (indices must lie within `0..len`).
    pub fn from_indices(len: usize, indices: impl IntoIterator<Item = usize>) -> RowSet {
        let mut s = RowSet::empty(len);
        for i in indices {
            s.insert(i);
        }
        s
    }

    /// Builds a set from [`RowId`]s (ids must lie within `0..len`).
    pub fn from_rows<'a>(len: usize, rows: impl IntoIterator<Item = &'a RowId>) -> RowSet {
        RowSet::from_indices(len, rows.into_iter().map(|r| r.index()))
    }

    /// Wraps pre-built words (the kernels' word-at-a-time accumulation
    /// path). Short word vectors are zero-padded; the tail is masked.
    pub(crate) fn from_words(mut words: Vec<u64>, len: usize) -> RowSet {
        words.resize(len.div_ceil(64), 0);
        let mut s = RowSet { words, len };
        s.mask_tail();
        s
    }

    /// The raw bitmap words, row `i` at bit `i % 64` of word `i / 64` and
    /// zero beyond the universe: for the persistence layer's snapshot codec,
    /// and for consumers that fuse several set operations and a count into
    /// one pass instead of materializing each intermediate set.
    pub fn word_slice(&self) -> &[u64] {
        &self.words
    }

    /// Zeroes the bits beyond `len` in the last word (the invariant all
    /// constructors and mutators maintain).
    fn mask_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// The universe size (number of addressable rows, not set bits).
    pub fn universe(&self) -> usize {
        self.len
    }

    /// Grows the universe to `new_len` in place, preserving membership: the
    /// appended row indices `len..new_len` start absent. This is the
    /// streaming-append path's counterpart to constructing a fresh set — a
    /// table that only gained rows keeps its existing bitmaps and grows
    /// them instead of rebuilding.
    ///
    /// Panics when `new_len` would shrink the universe (a table never
    /// loses rows).
    pub fn grow(&mut self, new_len: usize) {
        assert!(
            new_len >= self.len,
            "RowSet universe cannot shrink ({} -> {new_len}): only appends grow in place",
            self.len
        );
        self.words.resize(new_len.div_ceil(64), 0);
        self.len = new_len;
    }

    /// Number of rows in the set.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when no row is in the set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Adds row `index` to the set.
    ///
    /// Panics when `index` is outside the universe.
    pub fn insert(&mut self, index: usize) {
        assert!(index < self.len, "row {index} outside universe 0..{}", self.len);
        self.words[index / 64] |= 1u64 << (index % 64);
    }

    /// Removes row `index` from the set (a no-op when absent or outside
    /// the universe).
    pub fn remove(&mut self, index: usize) {
        if index < self.len {
            self.words[index / 64] &= !(1u64 << (index % 64));
        }
    }

    /// True when row `index` is in the set (out-of-universe indices are
    /// never members).
    pub fn contains(&self, index: usize) -> bool {
        index < self.len && self.words[index / 64] & (1u64 << (index % 64)) != 0
    }

    /// True when [`RowId`] `row` is in the set.
    pub fn contains_row(&self, row: RowId) -> bool {
        self.contains(row.index())
    }

    fn check_universe(&self, other: &RowSet) {
        assert_eq!(
            self.len, other.len,
            "RowSet universes differ ({} vs {}): operands come from different tables",
            self.len, other.len
        );
    }

    /// In-place intersection.
    pub fn and_assign(&mut self, other: &RowSet) {
        self.check_universe(other);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// In-place union.
    pub fn or_assign(&mut self, other: &RowSet) {
        self.check_universe(other);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place difference (`self \ other`).
    pub fn and_not_assign(&mut self, other: &RowSet) {
        self.check_universe(other);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// Intersection.
    pub fn and(&self, other: &RowSet) -> RowSet {
        let mut out = self.clone();
        out.and_assign(other);
        out
    }

    /// Union.
    pub fn or(&self, other: &RowSet) -> RowSet {
        let mut out = self.clone();
        out.or_assign(other);
        out
    }

    /// Difference (`self \ other`).
    pub fn and_not(&self, other: &RowSet) -> RowSet {
        let mut out = self.clone();
        out.and_not_assign(other);
        out
    }

    /// In-place complement with respect to the universe `0..len`.
    pub fn complement_assign(&mut self) {
        for w in &mut self.words {
            *w = !*w;
        }
        self.mask_tail();
    }

    /// Complement with respect to the universe `0..len` — the word-level
    /// negation that backs vectorized `NOT`.
    pub fn complement(&self) -> RowSet {
        let mut out = self.clone();
        out.complement_assign();
        out
    }

    /// `|self ∩ other|` without materializing the intersection.
    pub fn intersection_count(&self, other: &RowSet) -> usize {
        self.check_universe(other);
        self.words.iter().zip(&other.words).map(|(a, b)| (a & b).count_ones() as usize).sum()
    }

    /// Iterates the set's row indices in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            let mut w = word;
            std::iter::from_fn(move || {
                if w == 0 {
                    return None;
                }
                let bit = w.trailing_zeros() as usize;
                w &= w - 1;
                Some(wi * 64 + bit)
            })
        })
    }

    /// Iterates the set as [`RowId`]s in ascending order.
    pub fn iter_rows(&self) -> impl Iterator<Item = RowId> + '_ {
        self.iter().map(RowId)
    }

    /// Materializes the set as a `Vec<RowId>` in ascending order — the
    /// bridge back to the row-list APIs.
    pub fn to_row_ids(&self) -> Vec<RowId> {
        let mut out = Vec::with_capacity(self.count_ones());
        out.extend(self.iter_rows());
        out
    }
}

impl fmt::Debug for RowSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RowSet({}/{} {{", self.count_ones(), self.len)?;
        for (n, i) in self.iter().take(16).enumerate() {
            if n > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{i}")?;
        }
        if self.count_ones() > 16 {
            f.write_str(", …")?;
        }
        f.write_str("})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_membership() {
        let s = RowSet::from_indices(130, [0, 63, 64, 129]);
        assert_eq!(s.universe(), 130);
        assert_eq!(s.count_ones(), 4);
        assert!(!s.is_empty());
        for i in [0usize, 63, 64, 129] {
            assert!(s.contains(i));
        }
        assert!(!s.contains(1));
        assert!(!s.contains(130));
        assert!(!s.contains(100_000));
        assert!(s.contains_row(RowId(64)));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 63, 64, 129]);
        assert_eq!(s.to_row_ids(), vec![RowId(0), RowId(63), RowId(64), RowId(129)]);

        assert!(RowSet::empty(10).is_empty());
        assert_eq!(RowSet::empty(0).count_ones(), 0);
        assert_eq!(RowSet::full(0).count_ones(), 0);
    }

    #[test]
    fn full_masks_the_tail_word() {
        for len in [1usize, 63, 64, 65, 128, 130] {
            let s = RowSet::full(len);
            assert_eq!(s.count_ones(), len, "len {len}");
            assert_eq!(s.iter().count(), len);
            assert!(!s.contains(len));
        }
    }

    #[test]
    fn suffix_holds_exactly_the_rows_from_its_start() {
        for (len, from) in [(0usize, 0usize), (10, 0), (10, 10), (130, 63), (130, 64), (130, 65)] {
            let s = RowSet::suffix(len, from);
            assert_eq!(s.iter().collect::<Vec<_>>(), (from..len).collect::<Vec<_>>());
            assert_eq!(s.universe(), len);
        }
    }

    #[test]
    fn algebra_matches_set_semantics() {
        let a = RowSet::from_indices(100, [1, 5, 64, 70]);
        let b = RowSet::from_indices(100, [5, 64, 99]);
        assert_eq!(a.and(&b).iter().collect::<Vec<_>>(), vec![5, 64]);
        assert_eq!(a.or(&b).iter().collect::<Vec<_>>(), vec![1, 5, 64, 70, 99]);
        assert_eq!(a.and_not(&b).iter().collect::<Vec<_>>(), vec![1, 70]);
        assert_eq!(a.intersection_count(&b), 2);
        let mut c = a.clone();
        c.or_assign(&b);
        c.and_not_assign(&a);
        assert_eq!(c.iter().collect::<Vec<_>>(), vec![99]);
    }

    #[test]
    fn complement_respects_the_universe() {
        for len in [0usize, 1, 63, 64, 65, 130] {
            let a = RowSet::from_indices(len, (0..len).filter(|i| i % 3 == 0));
            let c = a.complement();
            assert_eq!(c.count_ones(), len - a.count_ones(), "len {len}");
            for i in 0..len {
                assert_eq!(c.contains(i), !a.contains(i), "len {len} row {i}");
            }
            assert!(!c.contains(len));
            assert_eq!(c.complement(), a, "double complement, len {len}");
            assert_eq!(RowSet::empty(len).complement(), RowSet::full(len));
        }
    }

    #[test]
    #[should_panic(expected = "universes differ")]
    fn mixed_universes_panic() {
        let _ = RowSet::empty(10).and(&RowSet::empty(11));
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn out_of_universe_insert_panics() {
        RowSet::empty(10).insert(10);
    }

    #[test]
    fn grow_preserves_membership_and_tail_invariant() {
        for (len, new_len) in
            [(0usize, 5usize), (10, 64), (63, 64), (64, 65), (100, 100), (65, 130)]
        {
            let mut s = RowSet::from_indices(len, (0..len).filter(|i| i % 2 == 0));
            let before: Vec<usize> = s.iter().collect();
            s.grow(new_len);
            assert_eq!(s.universe(), new_len, "{len} -> {new_len}");
            assert_eq!(s.iter().collect::<Vec<_>>(), before, "{len} -> {new_len}");
            // New rows are absent but insertable; universes now match a
            // same-sized set (the mixing panic is gone after growth).
            if new_len > len {
                assert!(!s.contains(new_len - 1));
                s.insert(new_len - 1);
                assert!(s.contains(new_len - 1));
            }
            let _ = s.and(&RowSet::full(new_len));
            assert_eq!(s.complement().count_ones(), new_len - s.count_ones());
        }
    }

    #[test]
    #[should_panic(expected = "cannot shrink")]
    fn grow_rejects_shrinking() {
        RowSet::empty(10).grow(9);
    }

    #[test]
    fn from_rows_bridge() {
        let rows = [RowId(2), RowId(9)];
        let s = RowSet::from_rows(12, rows.iter());
        assert!(s.contains_row(RowId(2)) && s.contains_row(RowId(9)));
        assert_eq!(s.count_ones(), 2);
        let dbg = format!("{s:?}");
        assert!(dbg.contains("RowSet(2/12"), "{dbg}");
    }
}

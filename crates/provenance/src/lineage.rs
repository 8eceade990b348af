//! Fine-grained provenance (lineage): which input rows produced which
//! output group.
//!
//! For the single-block aggregate queries DBWipes supports
//! (`SELECT agg(x) FROM t WHERE p GROUP BY g`), the lineage of an output
//! row is exactly the set of input rows that passed the WHERE clause and
//! fell into that group. The paper's Preprocessor consumes this mapping to
//! compute `F`, the inputs of the user-selected suspicious outputs `S`
//! (§2.2.2); the introduction's complaint that fine-grained provenance
//! "returns all of the sensor readings (easily several thousand)" is the
//! observation that these sets are large — which the E5 experiment
//! quantifies.

use dbwipes_storage::{RowId, RowSet};

/// Fine-grained lineage for one query execution. The empty lineage
/// ([`Lineage::default`]) is what a result that records none carries.
#[derive(Debug, Clone, Default)]
pub struct Lineage {
    /// For each output group, the input rows that contributed to it.
    groups: Vec<Vec<RowId>>,
}

impl Lineage {
    /// The lineage whose output group `i` was produced by `groups[i]`.
    pub fn new(groups: Vec<Vec<RowId>>) -> Self {
        Lineage { groups }
    }

    /// The input rows of one output group (empty slice if out of range).
    pub fn inputs_of(&self, group: usize) -> &[RowId] {
        self.groups.get(group).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// The distinct input rows of a set of output groups — the paper's `F`
    /// — as one [`RowSet`] over `0..=` the largest of them (over no rows
    /// when the groups have none): what a zoom walks, and what
    /// [`Lineage::inputs_of_groups`] reads back in order.
    pub fn union_of_groups(&self, groups: &[usize]) -> RowSet {
        let lists = || groups.iter().map(|&g| self.inputs_of(g));
        let universe = lists().flatten().map(|r| r.index() + 1).max().unwrap_or(0);
        let mut union = RowSet::empty(universe);
        for row in lists().flatten() {
            union.insert(row.index());
        }
        union
    }

    /// The rows of [`Lineage::union_of_groups`] in ascending order.
    pub fn inputs_of_groups(&self, groups: &[usize]) -> Vec<RowId> {
        self.union_of_groups(groups).to_row_ids()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Lineage {
        // Group 2 is empty (a group whose rows were all NULL); row 1
        // contributes to groups 0 and 3.
        let rows = |ids: &[usize]| ids.iter().map(|&i| RowId(i)).collect();
        Lineage::new(vec![rows(&[0, 1, 2]), rows(&[3, 4]), rows(&[]), rows(&[1])])
    }

    #[test]
    fn groups_and_inputs() {
        let l = sample();
        assert_eq!(l.inputs_of(0), &[RowId(0), RowId(1), RowId(2)]);
        assert_eq!(l.inputs_of(1), &[RowId(3), RowId(4)]);
        assert!(l.inputs_of(2).is_empty());
        assert!(l.inputs_of(99).is_empty());
        assert!(Lineage::default().inputs_of(0).is_empty());
    }

    #[test]
    fn union_of_groups_is_deduplicated_and_sorted() {
        let l = sample();
        assert_eq!(l.inputs_of_groups(&[0, 2, 3]), vec![RowId(0), RowId(1), RowId(2)]);
        assert_eq!(l.inputs_of_groups(&[3, 1]), vec![RowId(1), RowId(3), RowId(4)]);
        assert!(l.inputs_of_groups(&[2, 99]).is_empty());
        assert!(Lineage::default().inputs_of_groups(&[0]).is_empty());
        assert_eq!(l.union_of_groups(&[3, 1]).universe(), 5);
        assert_eq!(l.union_of_groups(&[2]).universe(), 0);
    }
}

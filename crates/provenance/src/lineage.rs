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

/// Index of an output row (group) within a query result.
pub type GroupIdx = usize;

/// Fine-grained lineage for one query execution.
#[derive(Debug, Clone, Default)]
pub struct Lineage {
    /// For each output group, the input rows that contributed to it.
    groups: Vec<Vec<RowId>>,
    /// Name of the table the row ids refer to.
    source_table: String,
}

impl Lineage {
    /// Creates an empty lineage over the named source table.
    pub fn new(source_table: impl Into<String>) -> Self {
        Lineage { groups: Vec::new(), source_table: source_table.into() }
    }

    /// The table the recorded [`RowId`]s belong to.
    pub fn source_table(&self) -> &str {
        &self.source_table
    }

    /// Appends a new output group and returns its index.
    pub fn add_group(&mut self) -> GroupIdx {
        self.groups.push(Vec::new());
        self.groups.len() - 1
    }

    /// Records that input `row` contributed to output `group`.
    ///
    /// Panics if the group has not been added; the executor always creates
    /// groups before attributing rows to them.
    pub fn record(&mut self, group: GroupIdx, row: RowId) {
        self.groups[group].push(row);
    }

    /// Records a whole set of contributing rows for `group`.
    pub fn record_all(&mut self, group: GroupIdx, rows: impl IntoIterator<Item = RowId>) {
        self.groups[group].extend(rows);
    }

    /// Number of output groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// The input rows of one output group (empty slice if out of range).
    pub fn inputs_of(&self, group: GroupIdx) -> &[RowId] {
        self.groups.get(group).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// The distinct input rows of a set of output groups — the paper's `F`
    /// — in ascending order: every group's rows are set in one [`RowSet`]
    /// over `0..=` the largest of them, which is then read back in order.
    pub fn inputs_of_groups(&self, groups: &[GroupIdx]) -> Vec<RowId> {
        let lists = || groups.iter().map(|&g| self.inputs_of(g));
        let Some(universe) = lists().flatten().map(|r| r.index() + 1).max() else {
            return Vec::new();
        };
        let mut union = RowSet::empty(universe);
        for row in lists().flatten() {
            union.insert(row.index());
        }
        union.to_row_ids()
    }

    /// The distinct input rows across all output groups.
    pub fn all_inputs(&self) -> Vec<RowId> {
        let groups: Vec<GroupIdx> = (0..self.group_count()).collect();
        self.inputs_of_groups(&groups)
    }

    /// Total number of (group, input) attributions recorded.
    pub fn attribution_count(&self) -> usize {
        self.groups.iter().map(|g| g.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Lineage {
        let mut l = Lineage::new("sensors");
        let g0 = l.add_group();
        let g1 = l.add_group();
        let g2 = l.add_group();
        l.record_all(g0, [RowId(0), RowId(1), RowId(2)]);
        l.record(g1, RowId(3));
        l.record(g1, RowId(4));
        // group 2 intentionally empty (a group whose rows were all NULL).
        let _ = g2;
        l
    }

    #[test]
    fn groups_and_inputs() {
        let l = sample();
        assert_eq!(l.source_table(), "sensors");
        assert_eq!(l.group_count(), 3);
        assert_eq!(l.inputs_of(0), &[RowId(0), RowId(1), RowId(2)]);
        assert_eq!(l.inputs_of(1), &[RowId(3), RowId(4)]);
        assert!(l.inputs_of(2).is_empty());
        assert!(l.inputs_of(99).is_empty());
        assert_eq!(l.attribution_count(), 5);
    }

    #[test]
    fn union_of_groups_is_deduplicated_and_sorted() {
        let mut l = sample();
        l.record(2, RowId(1)); // row 1 now contributes to two groups
        let f = l.inputs_of_groups(&[0, 2]);
        assert_eq!(f, vec![RowId(0), RowId(1), RowId(2)]);
        assert_eq!(l.all_inputs(), vec![RowId(0), RowId(1), RowId(2), RowId(3), RowId(4)]);
    }
}

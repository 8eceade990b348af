//! Why-provenance answers.
//!
//! Traditional provenance systems answer "why is this output here?" with a
//! set of input tuples. DBWipes' criticism (paper §1) is that for aggregate
//! outputs that set has very low *precision*: it contains every
//! contributing tuple, not just the erroneous ones. This module provides
//! the representation of such answers that experiment E5 scores against
//! the ground truth to compare DBWipes with the traditional approaches it
//! is motivated by.

use dbwipes_storage::RowId;
use std::collections::BTreeSet;

/// The answer a provenance query returns: a set of input rows claimed to
/// explain the selected outputs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProvenanceAnswer {
    rows: BTreeSet<RowId>,
}

impl ProvenanceAnswer {
    /// Creates an answer from any collection of row ids (duplicates are
    /// collapsed).
    pub fn new(rows: impl IntoIterator<Item = RowId>) -> Self {
        ProvenanceAnswer { rows: rows.into_iter().collect() }
    }

    /// The rows in the answer, ascending.
    pub fn rows(&self) -> impl Iterator<Item = RowId> + '_ {
        self.rows.iter().copied()
    }

    /// Number of rows in the answer.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the answer contains no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// True when the answer contains `row`.
    pub fn contains(&self, row: RowId) -> bool {
        self.rows.contains(&row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn answer_deduplicates_and_sorts() {
        let a = ProvenanceAnswer::new([RowId(3), RowId(1), RowId(3)]);
        assert_eq!(a.len(), 2);
        assert!(!a.is_empty());
        assert!(a.contains(RowId(1)));
        assert!(!a.contains(RowId(2)));
        assert_eq!(a.rows().collect::<Vec<_>>(), vec![RowId(1), RowId(3)]);
        assert!(ProvenanceAnswer::new([]).is_empty());
    }
}

//! Ground-truth bookkeeping for synthetic datasets.
//!
//! The real FEC and Intel Lab datasets do not come with labels saying which
//! tuples are erroneous; the paper's authors found the anomalies by hand.
//! Because our datasets are generated, we know exactly which rows were
//! injected as errors and what predicate describes them — which is what
//! allows experiments E5/E8 to report precision and recall numbers instead
//! of anecdotes.

use dbwipes_storage::{ConjunctivePredicate, RowId, Table};
use std::collections::BTreeSet;

/// Ground truth attached to a generated dataset.
#[derive(Debug, Clone)]
pub struct GroundTruth {
    /// Rows that were injected as erroneous.
    pub error_rows: BTreeSet<RowId>,
    /// The predicate that exactly describes the injected errors, e.g.
    /// `memo LIKE '%REATTRIBUTION%'` or `sensorid IN (15, 18, 49)`.
    pub true_predicate: ConjunctivePredicate,
    /// Human-readable description of the injected anomaly.
    pub description: String,
}

impl GroundTruth {
    /// Creates a ground truth record.
    pub fn new(
        error_rows: impl IntoIterator<Item = RowId>,
        true_predicate: ConjunctivePredicate,
        description: impl Into<String>,
    ) -> Self {
        GroundTruth {
            error_rows: error_rows.into_iter().collect(),
            true_predicate,
            description: description.into(),
        }
    }

    /// Number of injected error rows.
    pub fn error_count(&self) -> usize {
        self.error_rows.len()
    }

    /// True when `row` was injected as an error.
    pub fn is_error(&self, row: RowId) -> bool {
        self.error_rows.contains(&row)
    }

    /// Precision/recall/F1 of a candidate predicate measured against the
    /// injected error rows, evaluated over the rows of `table`.
    pub fn score_predicate(
        &self,
        table: &Table,
        predicate: &ConjunctivePredicate,
    ) -> PredicateScore {
        self.score_rows(&predicate.matching_rows(table))
    }

    /// Precision/recall of an arbitrary returned row set.
    pub fn score_rows(&self, rows: &[RowId]) -> PredicateScore {
        let tp = rows.iter().filter(|r| self.error_rows.contains(r)).count();
        let precision = if rows.is_empty() { 0.0 } else { tp as f64 / rows.len() as f64 };
        let recall =
            if self.error_rows.is_empty() { 0.0 } else { tp as f64 / self.error_rows.len() as f64 };
        let f1 = if precision + recall == 0.0 {
            0.0
        } else {
            2.0 * precision * recall / (precision + recall)
        };
        PredicateScore { precision, recall, f1, matched: rows.len() }
    }
}

/// Precision / recall / F1 of a predicate or row set against ground truth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredicateScore {
    /// Fraction of matched rows that are truly erroneous.
    pub precision: f64,
    /// Fraction of truly erroneous rows that are matched.
    pub recall: f64,
    /// Harmonic mean of precision and recall.
    pub f1: f64,
    /// Number of rows matched / returned.
    pub matched: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbwipes_storage::{Condition, DataType, Schema, Value};

    fn table() -> Table {
        let schema = Schema::of(&[("id", DataType::Int), ("amount", DataType::Float)]);
        let mut t = Table::new("t", schema).unwrap();
        for i in 0..10 {
            let amount = if i < 3 { -100.0 } else { 50.0 };
            t.push_row(vec![Value::Int(i), Value::Float(amount)]).unwrap();
        }
        t
    }

    fn truth() -> GroundTruth {
        GroundTruth::new(
            (0..3).map(RowId),
            ConjunctivePredicate::new(vec![Condition::at_most("amount", 0.0)]),
            "negative amounts",
        )
    }

    #[test]
    fn basic_accessors() {
        let gt = truth();
        assert_eq!(gt.error_count(), 3);
        assert!(gt.is_error(RowId(0)));
        assert!(!gt.is_error(RowId(5)));
        assert_eq!(gt.description, "negative amounts");
    }

    #[test]
    fn scoring_the_true_predicate_is_perfect() {
        let t = table();
        let gt = truth();
        let s = gt.score_predicate(&t, &gt.true_predicate.clone());
        assert_eq!(s.precision, 1.0);
        assert_eq!(s.recall, 1.0);
        assert_eq!(s.f1, 1.0);
        assert_eq!(s.matched, 3);
    }

    #[test]
    fn scoring_an_over_broad_predicate_loses_precision() {
        let t = table();
        let gt = truth();
        let everything = ConjunctivePredicate::always_true();
        let s = gt.score_predicate(&t, &everything);
        assert!((s.precision - 0.3).abs() < 1e-12);
        assert_eq!(s.recall, 1.0);
        assert_eq!(s.matched, 10);
    }

    #[test]
    fn scoring_row_sets() {
        let gt = truth();
        let s = gt.score_rows(&[RowId(0), RowId(1), RowId(9)]);
        assert!((s.precision - 2.0 / 3.0).abs() < 1e-12);
        assert!((s.recall - 2.0 / 3.0).abs() < 1e-12);
        let s = gt.score_rows(&[]);
        assert_eq!(s.precision, 0.0);
        assert_eq!(s.f1, 0.0);
        let empty =
            GroundTruth::new(Vec::<RowId>::new(), ConjunctivePredicate::always_true(), "none");
        assert_eq!(empty.score_rows(&[RowId(1)]).recall, 0.0);
    }
}

//! The Predicate Enumerator: describe each candidate dataset with compact
//! predicates.
//!
//! "The Predicate Enumerator then builds a decision tree on each candidate
//! dataset Dᶜᵢ by labeling Dᶜᵢ as the positive class and F − Dᶜᵢ as
//! negative. We currently use m standard splitting and pruning strategies
//! (e.g., gini, gain ratio) to construct several trees" (paper §2.2.2).
//!
//! In addition to the attribute-threshold predicates decision trees
//! produce, DBWipes' FEC walkthrough hinges on a predicate over a free-text
//! attribute ("the memo attribute containing the string 'REATTRIBUTION TO
//! SPOUSE'"). High-cardinality text columns are excluded from the learned
//! feature space, so this module also mines *text containment* conditions
//! directly: distinct values of text columns that are frequent among the
//! candidate rows and rare outside them.

use crate::enumerator::CandidateDataset;
use dbwipes_learn::{DecisionTree, FeatureSpace, SplitCriterion, TreeConfig};
use dbwipes_storage::{Condition, ConjunctivePredicate, DataType, RowId, RowSet, Table};
use std::collections::{BTreeSet, HashMap};

/// Configuration of the Predicate Enumerator.
#[derive(Debug, Clone)]
pub struct PredicateEnumConfig {
    /// The decision-tree configurations trained per candidate dataset —
    /// the paper's "m standard splitting and pruning strategies".
    pub tree_configs: Vec<TreeConfig>,
}

impl Default for PredicateEnumConfig {
    fn default() -> Self {
        PredicateEnumConfig {
            tree_configs: vec![
                TreeConfig { criterion: SplitCriterion::Gini, ..TreeConfig::default() },
                TreeConfig { criterion: SplitCriterion::GainRatio, ..TreeConfig::default() },
                TreeConfig {
                    criterion: SplitCriterion::Gini,
                    max_depth: 2,
                    ..TreeConfig::default()
                },
            ],
        }
    }
}

/// Minimum number of candidate rows a text value must appear in.
const MIN_TEXT_SUPPORT: usize = 3;

/// Minimum precision (candidate rows / matching rows within F) of a text
/// value.
const MIN_TEXT_PRECISION: f64 = 0.5;

/// Maximum number of distinct values examined per text column.
const MAX_TEXT_VALUES: usize = 2_000;

/// Enumerates candidate predicates describing one candidate dataset.
///
/// `f_rows` is F (all inputs of the suspicious outputs); the candidate's
/// rows are the positive class and `F − candidate` the negative class.
/// Returns deduplicated, non-trivial conjunctive predicates.
pub fn enumerate_predicates(
    table: &Table,
    space: &FeatureSpace,
    f_rows: &[RowId],
    candidate: &CandidateDataset,
    config: &PredicateEnumConfig,
) -> Vec<ConjunctivePredicate> {
    if candidate.rows.is_empty() || f_rows.is_empty() {
        return Vec::new();
    }
    // Membership tests run against a RowSet bitmap: labelling all of F is
    // one O(1) probe per row.
    let num_rows = table.num_rows();
    let positive =
        RowSet::from_rows(num_rows, candidate.rows.iter().filter(|r| r.index() < num_rows));
    let labels: Vec<bool> = f_rows.iter().map(|r| positive.contains_row(*r)).collect();
    let mut predicates: Vec<ConjunctivePredicate> = Vec::new();

    // Decision-tree predicates.
    if !space.is_empty() && labels.iter().any(|&l| l) && labels.iter().any(|&l| !l) {
        let dataset = space.extract(table, f_rows);
        for tree in DecisionTree::train_all(&dataset, &labels, &config.tree_configs) {
            for rule in tree.positive_rules() {
                let predicate = rule.to_predicate(space);
                if !predicate.is_trivial() {
                    predicates.push(predicate);
                }
            }
        }
    }

    // Text-containment predicates over string columns.
    predicates.extend(mine_text_predicates(table, f_rows, &positive));

    dedup(predicates)
}

/// Mines `column LIKE '%value%'` predicates from text columns: values that
/// occur in at least [`MIN_TEXT_SUPPORT`] candidate rows with precision at
/// least [`MIN_TEXT_PRECISION`] among F.
fn mine_text_predicates(
    table: &Table,
    f_rows: &[RowId],
    positive: &RowSet,
) -> Vec<ConjunctivePredicate> {
    let mut out = Vec::new();
    for field in table.schema().fields() {
        if field.dtype != DataType::Str {
            continue;
        }
        let Some(column) = table.column_by_name(&field.name) else { continue };
        // (value, positive occurrences, total occurrences within F), values
        // in first-seen order of F so the predicates come out in an order
        // that does not depend on hashing.
        let mut counts: Vec<(&str, usize, usize)> = Vec::new();
        let mut slot_of: HashMap<&str, usize> = HashMap::new();
        for &rid in f_rows {
            let Some(text) = column.get_str(rid.index()) else { continue };
            let full = counts.len() >= MAX_TEXT_VALUES;
            if text.is_empty() || (full && !slot_of.contains_key(text)) {
                continue;
            }
            let slot = *slot_of.entry(text).or_insert_with(|| {
                counts.push((text, 0, 0));
                counts.len() - 1
            });
            let entry = &mut counts[slot];
            entry.2 += 1;
            if positive.contains_row(rid) {
                entry.1 += 1;
            }
        }
        for (value, pos, total) in counts {
            if pos >= MIN_TEXT_SUPPORT && (pos as f64 / total as f64) >= MIN_TEXT_PRECISION {
                out.push(ConjunctivePredicate::new(vec![Condition::contains(
                    field.name.clone(),
                    value,
                )]));
            }
        }
    }
    out
}

/// Removes duplicate predicates (by rendered text), preserving order.
fn dedup(predicates: Vec<ConjunctivePredicate>) -> Vec<ConjunctivePredicate> {
    let mut seen: BTreeSet<String> = BTreeSet::new();
    predicates.into_iter().filter(|p| seen.insert(p.to_string())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerator::CandidateSource;
    use dbwipes_storage::{Schema, Value};

    /// FEC-like table: a cluster of negative "REATTRIBUTION TO SPOUSE"
    /// donations among ordinary positive ones.
    fn fec_like() -> (Table, Vec<RowId>, Vec<RowId>) {
        let schema = Schema::of(&[
            ("day", DataType::Int),
            ("amount", DataType::Float),
            ("occupation", DataType::Str),
            ("memo", DataType::Str),
        ]);
        let mut t = Table::new("contributions", schema).unwrap();
        let mut errors = Vec::new();
        for i in 0..300i64 {
            let is_error = i % 15 == 0;
            let memo = if is_error { "REATTRIBUTION TO SPOUSE" } else { "ONLINE DONATION" };
            let occupation = if is_error { "CEO" } else { "TEACHER" };
            let amount = if is_error { -1500.0 } else { 100.0 + (i % 9) as f64 };
            let rid = t
                .push_row(vec![
                    Value::Int(500 + (i % 5)),
                    Value::Float(amount),
                    Value::str(occupation),
                    Value::str(memo),
                ])
                .unwrap();
            if is_error {
                errors.push(rid);
            }
        }
        let all: Vec<RowId> = t.row_ids().collect();
        (t, errors, all)
    }

    #[test]
    fn trees_and_text_mining_find_the_reattribution_predicate() {
        let (t, errors, all) = fec_like();
        let space = FeatureSpace::build_excluding(&t, &["amount".into()], &all);
        let candidate =
            CandidateDataset { rows: errors.clone(), source: CandidateSource::CleanedExamples };
        let predicates =
            enumerate_predicates(&t, &space, &all, &candidate, &PredicateEnumConfig::default());
        assert!(!predicates.is_empty());
        let texts: Vec<String> = predicates.iter().map(|p| p.to_string()).collect();
        assert!(
            texts.iter().any(|p| p.contains("REATTRIBUTION")),
            "expected a memo predicate, got {texts:?}"
        );
        // Some predicate should capture the structured signal too (occupation).
        assert!(texts.iter().any(|p| p.contains("occupation") || p.contains("memo")), "{texts:?}");
        // No duplicates.
        let unique: BTreeSet<&String> = texts.iter().collect();
        assert_eq!(unique.len(), texts.len());
    }

    /// The text predicates of a one-column `memo` table whose rows are
    /// `(value, in the candidate)` pairs, with no trees trained.
    fn text_predicates(rows: &[(&str, bool)]) -> Vec<String> {
        let mut t = Table::new("t", Schema::of(&[("memo", DataType::Str)])).unwrap();
        let mut positives = Vec::new();
        for &(memo, positive) in rows {
            let rid = t.push_row(vec![Value::str(memo)]).unwrap();
            if positive {
                positives.push(rid);
            }
        }
        let all: Vec<RowId> = t.row_ids().collect();
        let space = FeatureSpace::build_excluding(&t, &["memo".into()], &all);
        let candidate =
            CandidateDataset { rows: positives, source: CandidateSource::CleanedExamples };
        let config = PredicateEnumConfig { tree_configs: vec![] };
        enumerate_predicates(&t, &space, &all, &candidate, &config)
            .iter()
            .map(ToString::to_string)
            .collect()
    }

    #[test]
    fn text_mining_respects_support_and_precision_thresholds() {
        let mut rows = Vec::new();
        // At the support floor, precision 1: kept.
        rows.extend(vec![("KEPT", true); MIN_TEXT_SUPPORT]);
        // One candidate row short of the support floor: dropped.
        rows.extend(vec![("RARE", true); MIN_TEXT_SUPPORT - 1]);
        // Precision exactly at the floor (half of its rows are candidates): kept.
        rows.extend(vec![("EVEN", true); MIN_TEXT_SUPPORT]);
        rows.extend(vec![("EVEN", false); MIN_TEXT_SUPPORT]);
        // Precision below the floor: dropped.
        rows.extend(vec![("COMMON", true); MIN_TEXT_SUPPORT]);
        rows.extend(vec![("COMMON", false); MIN_TEXT_SUPPORT + 1]);
        assert_eq!(MIN_TEXT_PRECISION, 0.5);
        assert_eq!(text_predicates(&rows), ["memo LIKE '%KEPT%'", "memo LIKE '%EVEN%'"]);
    }

    #[test]
    fn text_mining_examines_only_the_first_distinct_values_of_a_column() {
        let fillers: Vec<String> = (0..MAX_TEXT_VALUES).map(|i| format!("V{i}")).collect();
        let mut rows: Vec<(&str, bool)> = fillers.iter().map(|v| (v.as_str(), false)).collect();
        // A value first seen after the cap is never counted.
        rows.extend(vec![("LATE", true); MIN_TEXT_SUPPORT]);
        assert!(text_predicates(&rows).is_empty());
        // The same rows one filler earlier are.
        assert_eq!(text_predicates(&rows[1..]), ["memo LIKE '%LATE%'"]);
    }

    #[test]
    fn text_predicates_of_equal_support_come_out_in_first_seen_order() {
        // BETA and ALPHA have identical support and precision, so the ranker
        // would keep whatever order they arrive in.
        let rows: Vec<(&str, bool)> =
            (0..40).map(|i| (["BETA", "ALPHA", "OTHER", "OTHER"][i % 4], i % 4 < 2)).collect();
        for _ in 0..20 {
            assert_eq!(text_predicates(&rows), ["memo LIKE '%BETA%'", "memo LIKE '%ALPHA%'"]);
        }
    }

    #[test]
    fn empty_candidates_produce_no_predicates() {
        let (t, _, all) = fec_like();
        let space = FeatureSpace::build_excluding(&t, &[], &all);
        let empty = CandidateDataset { rows: vec![], source: CandidateSource::RawExamples };
        assert!(enumerate_predicates(&t, &space, &all, &empty, &PredicateEnumConfig::default())
            .is_empty());
        let candidate =
            CandidateDataset { rows: vec![RowId(0)], source: CandidateSource::RawExamples };
        assert!(enumerate_predicates(&t, &space, &[], &candidate, &PredicateEnumConfig::default())
            .is_empty());
    }

    #[test]
    fn all_positive_candidate_yields_only_text_predicates_if_any() {
        let (t, _, all) = fec_like();
        let space = FeatureSpace::build_excluding(&t, &[], &all);
        // Candidate == F: the tree has no negative class to separate, and no
        // text value is specific to the candidate (precision filter uses the
        // whole of F), so the only surviving predicates cover most of F.
        let candidate =
            CandidateDataset { rows: all.clone(), source: CandidateSource::CleanedExamples };
        let predicates =
            enumerate_predicates(&t, &space, &all, &candidate, &PredicateEnumConfig::default());
        for p in &predicates {
            assert!(!p.is_trivial());
        }
    }

    #[test]
    fn multiple_tree_configs_produce_more_candidate_predicates() {
        let (t, errors, all) = fec_like();
        let space = FeatureSpace::build_excluding(&t, &["amount".into()], &all);
        let candidate = CandidateDataset { rows: errors, source: CandidateSource::CleanedExamples };
        let one = PredicateEnumConfig { tree_configs: vec![TreeConfig::default()] };
        let many = PredicateEnumConfig::default();
        let p_one = enumerate_predicates(&t, &space, &all, &candidate, &one);
        let p_many = enumerate_predicates(&t, &space, &all, &candidate, &many);
        assert!(p_many.len() >= p_one.len());
    }
}

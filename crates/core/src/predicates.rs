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
    /// Whether to mine substring-containment conditions over text columns.
    pub mine_text_conditions: bool,
    /// Minimum number of candidate rows a text value must appear in.
    pub min_text_support: usize,
    /// Minimum precision (candidate rows / matching rows) of a text value.
    pub min_text_precision: f64,
    /// Maximum number of distinct values examined per text column.
    pub max_text_values: usize,
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
            mine_text_conditions: true,
            min_text_support: 3,
            min_text_precision: 0.5,
            max_text_values: 2_000,
        }
    }
}

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
    if config.mine_text_conditions {
        predicates.extend(mine_text_predicates(table, f_rows, &positive, config));
    }

    dedup(predicates)
}

/// Mines `column LIKE '%value%'` predicates from text columns: values that
/// occur in at least `min_text_support` candidate rows with precision at
/// least `min_text_precision` among F.
fn mine_text_predicates(
    table: &Table,
    f_rows: &[RowId],
    positive: &RowSet,
    config: &PredicateEnumConfig,
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
            let full = counts.len() >= config.max_text_values;
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
            if pos >= config.min_text_support
                && (pos as f64 / total as f64) >= config.min_text_precision
            {
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
        let all: Vec<RowId> = t.visible_row_ids().collect();
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

    #[test]
    fn text_mining_respects_support_and_precision_thresholds() {
        let (t, errors, all) = fec_like();
        let space = FeatureSpace::build_excluding(&t, &[], &all);
        let candidate = CandidateDataset { rows: errors, source: CandidateSource::CleanedExamples };
        // Impossible support threshold: no text predicates.
        let config = PredicateEnumConfig {
            min_text_support: 10_000,
            tree_configs: vec![],
            ..Default::default()
        };
        let predicates = enumerate_predicates(&t, &space, &all, &candidate, &config);
        assert!(predicates.is_empty());
        // Text mining disabled.
        let config = PredicateEnumConfig {
            mine_text_conditions: false,
            tree_configs: vec![],
            ..Default::default()
        };
        assert!(enumerate_predicates(&t, &space, &all, &candidate, &config).is_empty());
    }

    #[test]
    fn text_predicates_of_equal_support_come_out_in_first_seen_order() {
        // BETA and ALPHA have identical support and precision, so the ranker
        // would keep whatever order they arrive in.
        let schema = Schema::of(&[("memo", DataType::Str)]);
        let mut t = Table::new("t", schema).unwrap();
        for i in 0..40 {
            t.push_row(vec![Value::str(["BETA", "ALPHA", "OTHER", "OTHER"][i % 4])]).unwrap();
        }
        let all: Vec<RowId> = t.visible_row_ids().collect();
        let errors = all.iter().copied().filter(|r| r.index() % 4 < 2).collect();
        let space = FeatureSpace::build_excluding(&t, &["memo".into()], &all);
        let candidate = CandidateDataset { rows: errors, source: CandidateSource::CleanedExamples };
        let config = PredicateEnumConfig { tree_configs: vec![], ..Default::default() };
        let texts = || -> Vec<String> {
            enumerate_predicates(&t, &space, &all, &candidate, &config)
                .iter()
                .map(ToString::to_string)
                .collect()
        };
        for _ in 0..20 {
            assert_eq!(texts(), ["memo LIKE '%BETA%'", "memo LIKE '%ALPHA%'"]);
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
        let one = PredicateEnumConfig {
            tree_configs: vec![TreeConfig::default()],
            mine_text_conditions: false,
            ..Default::default()
        };
        let many = PredicateEnumConfig { mine_text_conditions: false, ..Default::default() };
        let p_one = enumerate_predicates(&t, &space, &all, &candidate, &one);
        let p_many = enumerate_predicates(&t, &space, &all, &candidate, &many);
        assert!(p_many.len() >= p_one.len());
    }
}

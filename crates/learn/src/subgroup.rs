//! CN2-SD style subgroup discovery.
//!
//! The Dataset Enumerator "extend\[s\] the cleaned D′ using subgroup discovery
//! algorithms to find groups of inputs that highly influence ε. Subgroup
//! discovery is a variant of decision tree classifiers that find
//! descriptions of large subgroups that have the same class value in a
//! dataset" (paper §2.2.2, citing Lavrač et al.'s CN2-SD \[4\]).
//!
//! This module implements a beam-search rule learner with the CN2-SD
//! weighted covering scheme: rules are conjunctions of attribute tests
//! scored by weighted relative accuracy (WRAcc); once a rule is accepted,
//! the weight of the positive examples it covers is decayed so subsequent
//! rules describe *different* parts of the positive class.

use crate::features::{fold_categories, Dataset, FeatureColumn, FeatureSpace, FeatureValue};
use crate::metrics::weighted_relative_accuracy;
use crate::tree::{PathTest, Rule};
use dbwipes_storage::{ConjunctivePredicate, RowSet};

/// Configuration of the subgroup-discovery search.
#[derive(Debug, Clone, Copy)]
pub struct SubgroupConfig {
    /// Number of candidate rules kept per beam-search level.
    pub beam_width: usize,
    /// Maximum number of conjuncts per rule.
    pub max_conditions: usize,
    /// Maximum number of subgroups returned.
    pub max_rules: usize,
    /// Number of candidate thresholds per numeric feature.
    pub thresholds_per_feature: usize,
    /// Multiplicative weight decay applied to covered positive examples
    /// between rules (CN2-SD's "multiplicative weighting").
    pub covered_weight_decay: f64,
    /// Minimum (unweighted) number of positive examples a rule must cover.
    pub min_positive_coverage: usize,
}

impl Default for SubgroupConfig {
    fn default() -> Self {
        SubgroupConfig {
            beam_width: 5,
            max_conditions: 3,
            max_rules: 5,
            thresholds_per_feature: 16,
            covered_weight_decay: 0.5,
            min_positive_coverage: 2,
        }
    }
}

/// A discovered subgroup: a conjunction of tests plus its quality.
#[derive(Debug, Clone)]
pub struct Subgroup {
    /// `(feature index, test)` conjuncts.
    pub tests: Vec<(usize, PathTest)>,
    /// Weighted relative accuracy at the time the rule was selected.
    pub wracc: f64,
    /// Unweighted positive examples covered.
    pub covered_pos: usize,
    /// Unweighted negative examples covered.
    pub covered_neg: usize,
}

impl Subgroup {
    /// Indices (into the dataset) of the instances the subgroup covers.
    pub fn covered_indices(&self, dataset: &Dataset) -> Vec<usize> {
        // One column sweep per test.
        let mut covered = vec![true; dataset.len()];
        for (feature, test) in &self.tests {
            for (i, keep) in covered.iter_mut().enumerate() {
                *keep = *keep && cell_covers(dataset.value(i, *feature), test);
            }
        }
        (0..dataset.len()).filter(|&i| covered[i]).collect()
    }

    /// True when the subgroup's tests match the instance.
    pub fn covers(&self, instance: &[FeatureValue]) -> bool {
        covers(&self.tests, instance)
    }

    /// Precision of the rule on the training data.
    pub fn precision(&self) -> f64 {
        if self.covered_pos + self.covered_neg == 0 {
            0.0
        } else {
            self.covered_pos as f64 / (self.covered_pos + self.covered_neg) as f64
        }
    }

    /// Converts the subgroup into a human-readable conjunctive predicate.
    pub fn to_predicate(&self, space: &FeatureSpace) -> ConjunctivePredicate {
        Rule { tests: self.tests.clone(), pos: self.covered_pos, neg: self.covered_neg }
            .to_predicate(space)
    }
}

fn covers(tests: &[(usize, PathTest)], instance: &[FeatureValue]) -> bool {
    tests.iter().all(|(feature, test)| {
        cell_covers(instance.get(*feature).copied().unwrap_or(FeatureValue::Missing), test)
    })
}

/// One test of a rule against one cell (missing values and type mismatches
/// fail).
fn cell_covers(cell: FeatureValue, test: &PathTest) -> bool {
    match (cell, test) {
        (FeatureValue::Num(v), PathTest::Le(th)) => v <= *th,
        (FeatureValue::Num(v), PathTest::Gt(th)) => v > *th,
        (FeatureValue::Cat(c), PathTest::Eq(cat)) => c == *cat,
        (FeatureValue::Cat(c), PathTest::NotEq(cat)) => c != *cat,
        _ => false,
    }
}

/// Enumerates the single-condition building blocks used by the beam search,
/// each with its coverage bitmap over the dataset's instances.
///
/// Numeric tests come from the feature's sort order: thresholds are taken
/// at evenly spaced distinct values, `feature <= th` covers a prefix of the
/// order that only grows from one threshold to the next, and
/// `feature > th` is the rest of the (comparable) values — so a feature's
/// bitmaps cost one walk of its order, not one dataset scan per test.
fn candidate_tests(dataset: &Dataset, config: &SubgroupConfig) -> Vec<((usize, PathTest), RowSet)> {
    let n = dataset.len();
    let mut tests = Vec::new();
    for (feature, column) in dataset.columns().iter().enumerate() {
        match column {
            FeatureColumn::Numeric(column) => {
                let order = column.sorted();
                // NaNs compare with nothing: no test covers them. `total_cmp`
                // sorts them to the two ends of the order.
                let is_nan = |i: &&u32| column.value(**i).is_nan();
                let start = order.iter().take_while(is_nan).count();
                let end = order.len() - order[start..].iter().rev().take_while(is_nan).count();
                // Distinct values (`==`, so -0.0 and 0.0 are one) with the
                // position just past each one's run; a NaN equals nothing,
                // itself included, so each is a value of its own.
                let mut distinct: Vec<(f64, usize)> = Vec::new();
                for (position, &i) in order.iter().enumerate() {
                    let v = column.value(i);
                    match distinct.last_mut() {
                        Some((last, run_end)) if *last == v => *run_end = position + 1,
                        _ => distinct.push((v, position + 1)),
                    }
                }
                if distinct.is_empty() {
                    continue;
                }
                let comparable =
                    RowSet::from_indices(n, order[start..end].iter().map(|&i| i as usize));
                let k = config.thresholds_per_feature.max(1);
                let step = (distinct.len() as f64 / (k + 1) as f64).max(1.0);
                let mut seen = Vec::new();
                let mut at_most = RowSet::empty(n);
                let mut covered_to = start;
                for q in 1..=k {
                    let idx = ((q as f64 * step) as usize).min(distinct.len() - 1);
                    let (th, run_end) = distinct[idx];
                    if seen.contains(&th.to_bits()) {
                        continue;
                    }
                    seen.push(th.to_bits());
                    let (le, gt) = if th.is_nan() {
                        (RowSet::empty(n), RowSet::empty(n))
                    } else {
                        for &i in &order[covered_to..run_end] {
                            at_most.insert(i as usize);
                        }
                        covered_to = run_end;
                        (at_most.clone(), comparable.and_not(&at_most))
                    };
                    tests.push(((feature, PathTest::Le(th)), le));
                    tests.push(((feature, PathTest::Gt(th)), gt));
                }
            }
            FeatureColumn::Categorical { codes, cardinality } => {
                // One bitmap per category.
                let seen = fold_categories(
                    codes,
                    *cardinality,
                    0..n,
                    || RowSet::empty(n),
                    |set, i| set.insert(i),
                );
                tests.extend(seen.into_iter().map(|(c, set)| ((feature, PathTest::Eq(c)), set)));
            }
        }
    }
    tests
}

/// A beam expansion scored but not materialised: which beam rule was
/// extended by which candidate test, and what that scored.
struct Expansion {
    rule: usize,
    candidate: usize,
    wracc: f64,
    covered_pos: usize,
    covered_neg: usize,
}

/// Runs CN2-SD subgroup discovery over a labelled dataset.
///
/// `labels[i]` marks instance `i` as a member of the target class (in
/// DBWipes: a suspected error tuple). Returns up to `max_rules` subgroups
/// ordered by discovery (each subsequent rule focuses on positives not yet
/// covered).
pub fn discover_subgroups(
    dataset: &Dataset,
    labels: &[bool],
    config: &SubgroupConfig,
) -> Vec<Subgroup> {
    assert_eq!(dataset.len(), labels.len(), "labels must align with instances");
    let n = dataset.len();
    if n == 0 {
        return Vec::new();
    }
    // Scoring substrate: one coverage bitmap per candidate test (computed
    // once — weights change between covering rounds, coverage never does)
    // plus the positive-class bitmap. A rule's coverage is the intersection
    // of its tests' bitmaps and its class counts are popcounts.
    let (candidates, candidate_sets): (Vec<(usize, PathTest)>, Vec<RowSet>) =
        candidate_tests(dataset, config).into_iter().unzip();
    if candidates.is_empty() {
        return Vec::new();
    }
    let total_neg = labels.iter().filter(|&&l| !l).count() as f64;

    let pos_set = RowSet::from_indices(n, (0..n).filter(|&i| labels[i]));
    let positive_words = pos_set.word_slice();
    // The words that hold a positive: the only ones a weight sum reads.
    let holding_positives: Vec<usize> =
        (0..positive_words.len()).filter(|&w| positive_words[w] != 0).collect();

    // CN2-SD weighted covering: every positive starts with weight 1, so
    // until the first decay a covered weight sum is the covered count.
    let mut weights: Vec<f64> = labels.iter().map(|&l| if l { 1.0 } else { 0.0 }).collect();
    let mut decayed = false;
    let mut subgroups: Vec<Subgroup> = Vec::new();
    let mut expansions: Vec<Expansion> = Vec::new();

    for _ in 0..config.max_rules {
        let total_pos_w: f64 = weights.iter().sum();
        if total_pos_w < 1e-9 {
            break;
        }

        let mut beam: Vec<(Vec<(usize, PathTest)>, RowSet)> = vec![(Vec::new(), RowSet::full(n))];
        let mut best: Option<(Subgroup, RowSet)> = None;
        for _level in 0..config.max_conditions {
            // Score every extension of every beam rule under the current
            // weights without materialising its coverage: one pass over the
            // words holding positives counts the covered positives and sums
            // their weights (in ascending instance order); only a rule
            // covering enough of them has its whole coverage counted.
            expansions.clear();
            for (rule, (tests, covered)) in beam.iter().enumerate() {
                let rule_words = covered.word_slice();
                for (candidate, cand) in candidates.iter().enumerate() {
                    if tests.iter().any(|t| t == cand) {
                        continue;
                    }
                    let test_words = candidate_sets[candidate].word_slice();
                    let (mut covered_pos, mut covered_pos_w) = (0u32, 0.0);
                    for &w in &holding_positives {
                        let mut positives = rule_words[w] & test_words[w] & positive_words[w];
                        covered_pos += positives.count_ones();
                        while decayed && positives != 0 {
                            covered_pos_w += weights[w * 64 + positives.trailing_zeros() as usize];
                            positives &= positives - 1;
                        }
                    }
                    if !decayed {
                        covered_pos_w = f64::from(covered_pos);
                    }
                    let covered_pos = covered_pos as usize;
                    if covered_pos < config.min_positive_coverage {
                        continue;
                    }
                    let total: u32 =
                        rule_words.iter().zip(test_words).map(|(r, t)| (r & t).count_ones()).sum();
                    let covered_neg = total as usize - covered_pos;
                    let wracc = weighted_relative_accuracy(
                        covered_pos_w,
                        covered_neg as f64,
                        total_pos_w,
                        total_neg,
                    );
                    expansions.push(Expansion { rule, candidate, wracc, covered_pos, covered_neg });
                }
            }
            if expansions.is_empty() {
                break;
            }
            expansions.sort_by(|a, b| b.wracc.total_cmp(&a.wracc));
            expansions.truncate(config.beam_width);
            // Only the survivors get a test list and a coverage bitmap.
            let survivors: Vec<(Vec<(usize, PathTest)>, RowSet)> = expansions
                .iter()
                .map(|e| {
                    let (tests, covered) = &beam[e.rule];
                    let mut extended = tests.clone();
                    extended.push(candidates[e.candidate]);
                    (extended, covered.and(&candidate_sets[e.candidate]))
                })
                .collect();
            // Track the overall best rule seen at any level, skipping rules
            // already returned in a previous covering round so that each
            // round describes a *new* subgroup even when a large subgroup's
            // decayed weight still dominates WRAcc.
            if let Some((top, (tests, covered))) = expansions
                .iter()
                .zip(&survivors)
                .find(|(_, (tests, _))| !subgroups.iter().any(|s| s.tests == *tests))
            {
                let better = match &best {
                    Some((b, _)) => top.wracc > b.wracc,
                    None => true,
                };
                if better && top.wracc > 0.0 {
                    best = Some((
                        Subgroup {
                            tests: tests.clone(),
                            wracc: top.wracc,
                            covered_pos: top.covered_pos,
                            covered_neg: top.covered_neg,
                        },
                        covered.clone(),
                    ));
                }
            }
            beam = survivors;
        }

        let Some((rule, rule_set)) = best else { break };
        // Decay the weight of covered positives so the next rule focuses on
        // what this rule missed.
        for i in rule_set.and(&pos_set).iter() {
            weights[i] *= config.covered_weight_decay;
        }
        decayed = true;
        // Stop if we re-discover an identical rule.
        if subgroups.iter().any(|s| s.tests == rule.tests) {
            break;
        }
        subgroups.push(rule);
    }
    subgroups
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::FeatureSpace;
    use dbwipes_storage::{DataType, RowId, Schema, Table, Value};
    use std::sync::Arc;

    /// Two distinct error subpopulations: sensor 15 (low voltage) and the
    /// kitchen sensors, mirroring the paper's health-data example where
    /// subgroup discovery finds "smokers over 65" and "heavy weight people"
    /// as two subgroups of high-risk patients.
    fn table() -> (Table, Vec<bool>, FeatureSpace, Arc<Dataset>) {
        let schema = Schema::of(&[
            ("sensorid", DataType::Int),
            ("voltage", DataType::Float),
            ("room", DataType::Str),
        ]);
        let mut t = Table::new("readings", schema).unwrap();
        let mut labels = Vec::new();
        for i in 0..300 {
            let sensor = (i % 30) as i64;
            let room = match i % 3 {
                0 => "lab",
                1 => "office",
                _ => "kitchen",
            };
            let broken = sensor == 15 || room == "kitchen";
            let voltage = if sensor == 15 { 1.8 } else { 2.5 + (i % 4) as f64 * 0.1 };
            t.push_row(vec![Value::Int(sensor), Value::Float(voltage), Value::str(room)]).unwrap();
            labels.push(broken);
        }
        let rows: Vec<RowId> = t.row_ids().collect();
        let space = FeatureSpace::build_excluding(&t, &[], &rows);
        let ds = space.extract(&t, &rows);
        (t, labels, space, ds)
    }

    #[test]
    fn finds_both_error_subgroups() {
        let (_, labels, space, ds) = table();
        let subgroups = discover_subgroups(&ds, &labels, &SubgroupConfig::default());
        assert!(subgroups.len() >= 2, "found {} subgroups", subgroups.len());
        let texts: Vec<String> =
            subgroups.iter().map(|s| s.to_predicate(&space).to_string()).collect();
        let mentions_kitchen = texts.iter().any(|t| t.contains("kitchen"));
        let mentions_sensor = texts.iter().any(|t| t.contains("sensorid") || t.contains("voltage"));
        assert!(mentions_kitchen, "subgroups: {texts:?}");
        assert!(mentions_sensor, "subgroups: {texts:?}");
        for s in &subgroups {
            assert!(s.wracc > 0.0);
            assert!(s.precision() > 0.5);
            assert!(s.covered_pos >= 2);
            assert!(!s.covered_indices(&ds).is_empty());
        }
    }

    #[test]
    fn covering_decay_produces_diverse_rules() {
        let (_, labels, _, ds) = table();
        let subgroups = discover_subgroups(&ds, &labels, &SubgroupConfig::default());
        // No two returned rules may be identical.
        for i in 0..subgroups.len() {
            for j in (i + 1)..subgroups.len() {
                assert_ne!(subgroups[i].tests, subgroups[j].tests);
            }
        }
    }

    #[test]
    fn respects_max_rules_and_max_conditions() {
        let (_, labels, _, ds) = table();
        let config = SubgroupConfig { max_rules: 1, max_conditions: 1, ..Default::default() };
        let subgroups = discover_subgroups(&ds, &labels, &config);
        assert_eq!(subgroups.len(), 1);
        assert_eq!(subgroups[0].tests.len(), 1);
    }

    #[test]
    fn degenerate_inputs() {
        let (_, _, _, ds) = table();
        // No positives: nothing to describe.
        let none = vec![false; ds.len()];
        assert!(discover_subgroups(&ds, &none, &SubgroupConfig::default()).is_empty());
        // All positives: WRAcc can never exceed zero, so no rules either.
        let all = vec![true; ds.len()];
        assert!(discover_subgroups(&ds, &all, &SubgroupConfig::default()).is_empty());
        // Empty dataset.
        let empty = Dataset::from_rows(&[]).unwrap();
        assert!(discover_subgroups(&empty, &[], &SubgroupConfig::default()).is_empty());
    }

    #[test]
    fn covers_handles_missing_values() {
        let sub = Subgroup {
            tests: vec![(0, PathTest::Gt(1.0))],
            wracc: 0.1,
            covered_pos: 1,
            covered_neg: 0,
        };
        assert!(!sub.covers(&[FeatureValue::Missing]));
        assert!(sub.covers(&[FeatureValue::Num(2.0)]));
        assert!(!sub.covers(&[FeatureValue::Cat(1)]));
    }

    #[test]
    #[should_panic(expected = "labels must align")]
    fn mismatched_labels_panic() {
        let (_, _, _, ds) = table();
        discover_subgroups(&ds, &[true], &SubgroupConfig::default());
    }
}

//! Property-based tests over the learning substrate and the parser —
//! invariants the Predicate Enumerator depends on.

use dbwipes::engine::parse_select;
use dbwipes::learn::metrics::{gain_ratio, gini_gain, weighted_relative_accuracy};
use dbwipes::learn::{
    discover_subgroups, DecisionTree, FeatureSpace, FeatureValue, PathTest, SplitCriterion,
    SplitTest, Subgroup, SubgroupConfig, TreeConfig, TreeNode,
};
use dbwipes::storage::{DataType, Schema, Value};
use dbwipes::{RowId, Table};
use proptest::prelude::*;

/// A random labelled table: numeric `x`, numeric `y`, categorical `tag`,
/// plus a label column used as ground truth (the label is *not* part of the
/// feature space).
fn labelled_table() -> impl Strategy<Value = (Table, Vec<bool>)> {
    let row = (0.0..100.0f64, -10.0..10.0f64, 0usize..4, any::<bool>());
    proptest::collection::vec(row, 8..80).prop_map(|rows| {
        let schema =
            Schema::of(&[("x", DataType::Float), ("y", DataType::Float), ("tag", DataType::Str)]);
        let mut t = Table::new("d", schema).unwrap();
        let mut labels = Vec::new();
        for (x, y, tag, noise) in rows {
            // Ground truth: positive iff x > 60, with a little label noise so
            // trees cannot always be perfect.
            let label = x > 60.0 || (noise && x > 55.0);
            t.push_row(vec![Value::Float(x), Value::Float(y), Value::str(format!("t{tag}"))])
                .unwrap();
            labels.push(label);
        }
        (t, labels)
    })
}

/// A random labelled table built to stress exact split and threshold
/// selection: `x` draws from a handful of special values (heavy ties, NULL,
/// ±0.0, NaN, two adjacent floats whose midpoint rounds up to the upper one,
/// two near `f64::MAX` whose midpoint overflows), `y` is continuous (more
/// distinct values than any threshold cap), `n` a small integer, `flag` a
/// nullable Bool and `tag` a nullable categorical.
fn adversarial_table() -> impl Strategy<Value = (Table, Vec<bool>)> {
    adversarial_rows(8..200)
}

/// An adversarial table of 130–300 rows whose positives all fall in one of
/// its first two 64-row blocks: every other word of the positive bitmap is
/// zero.
fn positives_in_one_block() -> impl Strategy<Value = (Table, Vec<bool>)> {
    (adversarial_rows(130..300), 0usize..2).prop_map(|((table, mut labels), block)| {
        for (i, label) in labels.iter_mut().enumerate() {
            *label &= i / 64 == block;
        }
        (table, labels)
    })
}

/// An adversarial table of 130–300 rows with a positive in every 64-row
/// block: no word of the positive bitmap is zero.
fn positives_in_every_block() -> impl Strategy<Value = (Table, Vec<bool>)> {
    adversarial_rows(130..300).prop_map(|(table, mut labels)| {
        for (i, label) in labels.iter_mut().enumerate() {
            *label |= i % 64 == 0;
        }
        (table, labels)
    })
}

/// The rows of [`adversarial_table`], their number drawn from `size`.
fn adversarial_rows(size: std::ops::Range<usize>) -> impl Strategy<Value = (Table, Vec<bool>)> {
    let row = (0usize..14, 0.0..1.0f64, -2i64..3, 0usize..3, 0usize..5, any::<bool>());
    proptest::collection::vec(row, size).prop_map(|rows| {
        let above_one = |ulps: u64| f64::from_bits(1.0f64.to_bits() + ulps);
        let special = [
            None,
            Some(-0.0),
            Some(0.0),
            Some(above_one(1)),
            Some(above_one(2)),
            Some(1.0),
            Some(2.0),
            Some(2.0),
            Some(2.0),
            Some(-3.5),
            Some(f64::NAN),
            Some(f64::MAX),
            Some(f64::from_bits(f64::MAX.to_bits() - 1)),
            None,
        ];
        let schema = Schema::of(&[
            ("x", DataType::Float),
            ("y", DataType::Float),
            ("n", DataType::Int),
            ("flag", DataType::Bool),
            ("tag", DataType::Str),
        ]);
        let mut t = Table::new("d", schema).unwrap();
        let mut labels = Vec::new();
        for (x, y, n, flag, tag, noise) in rows {
            labels.push(x % 3 == 0 || (noise && tag == 2) || (y > 0.9 && n > 0));
            t.push_row(vec![
                special[x].map_or(Value::Null, Value::Float),
                Value::Float(y),
                Value::Int(n),
                [Value::Null, Value::Bool(false), Value::Bool(true)][flag].clone(),
                if tag == 0 { Value::Null } else { Value::str(format!("t{tag}")) },
            ])
            .unwrap();
        }
        (t, labels)
    })
}

/// One unpruned tree configuration, every growth limit drawn.
fn tree_config() -> impl Strategy<Value = TreeConfig> {
    (
        any::<bool>(),
        prop_oneof![Just(1usize), Just(3), Just(32)],
        1usize..7,
        1usize..8,
        1usize..4,
        prop_oneof![Just(0.0), Just(1e-4)],
    )
        .prop_map(
            |(gini, max_thresholds, max_depth, min_samples_split, min_leaf_size, min_gain)| {
                TreeConfig {
                    criterion: if gini { SplitCriterion::Gini } else { SplitCriterion::GainRatio },
                    max_depth,
                    min_samples_split,
                    min_leaf_size,
                    min_gain,
                    max_thresholds,
                    prune: false,
                }
            },
        )
}

/// Row-major copy of a matrix, for the oracles.
fn instances_of(dataset: &dbwipes::learn::Dataset) -> Vec<Vec<FeatureValue>> {
    (0..dataset.len()).map(|i| dataset.instance(i)).collect()
}

/// The deliberately naive reference tree grower: per node it filters the
/// node's values of each feature, sorts them, and rescans the node once per
/// candidate threshold or category to count both classes.
fn oracle_grow(
    instances: &[Vec<FeatureValue>],
    labels: &[bool],
    indices: &[usize],
    depth: usize,
    config: &TreeConfig,
) -> TreeNode {
    let pos = indices.iter().filter(|&&i| labels[i]).count();
    let neg = indices.len() - pos;
    let leaf = TreeNode::Leaf { pos, neg };
    if pos == 0 || neg == 0 || depth >= config.max_depth || indices.len() < config.min_samples_split
    {
        return leaf;
    }
    let cell = |i: usize, feature: usize| instances[i][feature];
    let goes_left = |i: usize, feature: usize, test: SplitTest| match (cell(i, feature), test) {
        (FeatureValue::Num(v), SplitTest::NumericLe(th)) => v <= th,
        (FeatureValue::Cat(c), SplitTest::CategoryEq(cat)) => c == cat,
        _ => false,
    };
    let parent = (pos as f64, neg as f64);
    let mut best: Option<(usize, SplitTest, f64)> = None;
    for feature in 0..instances[0].len() {
        let mut tests: Vec<SplitTest> = Vec::new();
        let mut numeric: Vec<f64> =
            indices.iter().filter_map(|&i| cell(i, feature).as_num()).collect();
        numeric.sort_by(|a, b| a.total_cmp(b));
        let mut thresholds: Vec<f64> =
            numeric.windows(2).filter(|w| w[0] < w[1]).map(|w| (w[0] + w[1]) / 2.0).collect();
        if thresholds.len() > config.max_thresholds {
            let step = thresholds.len() as f64 / config.max_thresholds as f64;
            thresholds = (0..config.max_thresholds)
                .map(|k| thresholds[(k as f64 * step) as usize])
                .collect();
        }
        tests.extend(thresholds.into_iter().map(SplitTest::NumericLe));
        let mut categories: Vec<usize> = Vec::new();
        for c in indices.iter().filter_map(|&i| cell(i, feature).as_cat()) {
            if !categories.contains(&c) {
                categories.push(c);
            }
        }
        tests.extend(categories.into_iter().map(SplitTest::CategoryEq));
        for test in tests {
            let left_pos =
                indices.iter().filter(|&&i| goes_left(i, feature, test) && labels[i]).count();
            let left_neg =
                indices.iter().filter(|&&i| goes_left(i, feature, test) && !labels[i]).count();
            let left = (left_pos as f64, left_neg as f64);
            let right = (parent.0 - left.0, parent.1 - left.1);
            let gain = match config.criterion {
                SplitCriterion::Gini => gini_gain(parent, left, right),
                SplitCriterion::GainRatio => gain_ratio(parent, left, right),
            };
            if gain > best.map_or(f64::NEG_INFINITY, |b| b.2) {
                best = Some((feature, test, gain));
            }
        }
    }
    let Some((feature, test, gain)) = best else { return leaf };
    if gain < config.min_gain {
        return leaf;
    }
    let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
        indices.iter().partition(|&&i| goes_left(i, feature, test));
    if left_idx.len() < config.min_leaf_size || right_idx.len() < config.min_leaf_size {
        return leaf;
    }
    TreeNode::Split {
        feature,
        test,
        left: Box::new(oracle_grow(instances, labels, &left_idx, depth + 1, config)),
        right: Box::new(oracle_grow(instances, labels, &right_idx, depth + 1, config)),
        pos,
        neg,
    }
}

/// The naive reference subgroup search: thresholds from a gathered, sorted,
/// deduplicated value list, and every rule scored by a per-instance walk of
/// its tests.
fn oracle_subgroups(
    instances: &[Vec<FeatureValue>],
    labels: &[bool],
    config: &SubgroupConfig,
) -> Vec<Subgroup> {
    type Test = (usize, PathTest);
    let mut candidates: Vec<Test> = Vec::new();
    for feature in 0..instances[0].len() {
        let mut numeric: Vec<f64> = instances.iter().filter_map(|r| r[feature].as_num()).collect();
        if !numeric.is_empty() {
            numeric.sort_by(|a, b| a.total_cmp(b));
            numeric.dedup();
            let k = config.thresholds_per_feature.max(1);
            let step = (numeric.len() as f64 / (k + 1) as f64).max(1.0);
            let mut seen = Vec::new();
            for q in 1..=k {
                let th = numeric[((q as f64 * step) as usize).min(numeric.len() - 1)];
                if !seen.contains(&th.to_bits()) {
                    seen.push(th.to_bits());
                    candidates.push((feature, PathTest::Le(th)));
                    candidates.push((feature, PathTest::Gt(th)));
                }
            }
        }
        let mut categories: Vec<usize> = Vec::new();
        for c in instances.iter().filter_map(|r| r[feature].as_cat()) {
            if !categories.contains(&c) {
                categories.push(c);
                candidates.push((feature, PathTest::Eq(c)));
            }
        }
    }
    let covers = |tests: &[Test], i: usize| {
        tests.iter().all(|(feature, test)| match (instances[i][*feature], test) {
            (FeatureValue::Num(v), PathTest::Le(th)) => v <= *th,
            (FeatureValue::Num(v), PathTest::Gt(th)) => v > *th,
            (FeatureValue::Cat(c), PathTest::Eq(cat)) => c == *cat,
            _ => false,
        })
    };
    let n = instances.len();
    let total_neg = labels.iter().filter(|&&l| !l).count() as f64;
    let mut weights: Vec<f64> = labels.iter().map(|&l| if l { 1.0 } else { 0.0 }).collect();
    let mut subgroups: Vec<Subgroup> = Vec::new();
    for _ in 0..config.max_rules {
        let total_pos_w: f64 = weights.iter().sum();
        if total_pos_w < 1e-9 || candidates.is_empty() {
            break;
        }
        let mut beam: Vec<Vec<Test>> = vec![Vec::new()];
        let mut best: Option<Subgroup> = None;
        for _level in 0..config.max_conditions {
            let mut expansions: Vec<Subgroup> = Vec::new();
            for tests in &beam {
                for cand in &candidates {
                    if tests.contains(cand) {
                        continue;
                    }
                    let mut extended = tests.clone();
                    extended.push(*cand);
                    let (mut covered_pos, mut covered_neg, mut covered_pos_w) = (0, 0, 0.0);
                    for i in (0..n).filter(|&i| covers(&extended, i)) {
                        if labels[i] {
                            covered_pos += 1;
                            covered_pos_w += weights[i];
                        } else {
                            covered_neg += 1;
                        }
                    }
                    if covered_pos < config.min_positive_coverage {
                        continue;
                    }
                    let wracc = weighted_relative_accuracy(
                        covered_pos_w,
                        covered_neg as f64,
                        total_pos_w,
                        total_neg,
                    );
                    expansions.push(Subgroup { tests: extended, wracc, covered_pos, covered_neg });
                }
            }
            if expansions.is_empty() {
                break;
            }
            expansions.sort_by(|a, b| b.wracc.total_cmp(&a.wracc));
            expansions.truncate(config.beam_width);
            if let Some(top) =
                expansions.iter().find(|e| !subgroups.iter().any(|s| s.tests == e.tests))
            {
                if best.as_ref().map_or(true, |b| top.wracc > b.wracc) && top.wracc > 0.0 {
                    best = Some(top.clone());
                }
            }
            beam = expansions.into_iter().map(|e| e.tests).collect();
        }
        let Some(rule) = best else { break };
        for i in (0..n).filter(|&i| labels[i] && covers(&rule.tests, i)) {
            weights[i] *= config.covered_weight_decay;
        }
        if subgroups.iter().any(|s| s.tests == rule.tests) {
            break;
        }
        subgroups.push(rule);
    }
    subgroups
}

/// Every field of a subgroup list, floats by bit pattern.
fn subgroup_bits(subgroups: &[Subgroup]) -> Vec<String> {
    subgroups
        .iter()
        .map(|s| {
            format!("{:?} {:016x} {} {}", s.tests, s.wracc.to_bits(), s.covered_pos, s.covered_neg)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every positive rule extracted from a decision tree is *consistent*:
    /// the rows it covers (via the compiled predicate) are exactly the rows
    /// that reach that leaf, so each covered training row satisfies the
    /// predicate and the rule's class counts add up.
    #[test]
    fn tree_rules_compile_to_predicates_that_cover_their_leaves((table, labels) in labelled_table()) {
        let rows: Vec<RowId> = table.row_ids().collect();
        let space = FeatureSpace::build_excluding(&table, &[], &rows);
        let dataset = space.extract(&table, &rows);
        for criterion in [SplitCriterion::Gini, SplitCriterion::GainRatio] {
            let tree = DecisionTree::train(
                &dataset,
                &labels,
                TreeConfig { criterion, ..TreeConfig::default() },
            );
            for rule in tree.positive_rules() {
                let predicate = rule.to_predicate(&space);
                let covered = predicate.matching_rows(&table);
                // The predicate merges the path tests, so it can only be
                // *looser* than the exact leaf membership — never tighter:
                // every row predicted positive by the tree and covered by the
                // leaf's path must satisfy the predicate.
                prop_assert!(covered.len() >= rule.pos.min(1));
                // Predicted-positive instances must satisfy at least one
                // positive rule's predicate.
            }
            // Global consistency: every instance predicted positive satisfies
            // at least one extracted positive rule.
            let rules: Vec<_> = tree.positive_rules();
            for (i, &rid) in rows.iter().enumerate() {
                if tree.predict(&dataset.instance(i)) {
                    let covered_by_some = rules
                        .iter()
                        .any(|r| r.to_predicate(&space).to_expr().matches(&table, rid).unwrap_or(false));
                    prop_assert!(covered_by_some, "row {rid} predicted positive but matched no rule");
                }
            }
        }
    }

    /// Subgroup discovery only returns rules with strictly positive WRAcc
    /// whose reported coverage matches a recount over the dataset.
    #[test]
    fn subgroups_report_accurate_coverage((table, labels) in labelled_table()) {
        let rows: Vec<RowId> = table.row_ids().collect();
        let space = FeatureSpace::build_excluding(&table, &[], &rows);
        let dataset = space.extract(&table, &rows);
        let subgroups = discover_subgroups(&dataset, &labels, &SubgroupConfig::default());
        for sg in subgroups {
            prop_assert!(sg.wracc > 0.0);
            let covered = sg.covered_indices(&dataset);
            let pos = covered.iter().filter(|&&i| labels[i]).count();
            let neg = covered.len() - pos;
            prop_assert_eq!(pos, sg.covered_pos);
            prop_assert_eq!(neg, sg.covered_neg);
            prop_assert!(pos >= SubgroupConfig::default().min_positive_coverage);
        }
    }

    /// Training from the matrix's presorted feature orders grows exactly
    /// the tree a per-node filter-sort-rescan grows: same splits, same
    /// thresholds (bit for bit), same counts — also when 1–4 trees, some
    /// of them twins and most parting at the root, grow together.
    #[test]
    fn presorted_training_matches_a_naive_reference(
        (table, labels) in adversarial_table(),
        drawn in proptest::collection::vec(tree_config(), 1..4),
        twin in proptest::option::of(0usize..3),
    ) {
        let mut configs = drawn;
        if let Some(i) = twin {
            configs.push(configs[i % configs.len()]);
        }
        let rows: Vec<RowId> = table.row_ids().collect();
        let space = FeatureSpace::build_excluding(&table, &[], &rows);
        let dataset = space.extract(&table, &rows);
        let instances = instances_of(&dataset);
        let all: Vec<usize> = (0..instances.len()).collect();
        // The drawn configurations do not prune: pruning is a function of
        // the grown tree alone, checked below against a tree grown alone.
        let trees = DecisionTree::train_all(&dataset, &labels, &configs);
        prop_assert_eq!(trees.len(), configs.len());
        for (tree, config) in trees.iter().zip(&configs) {
            let reference = oracle_grow(&instances, &labels, &all, 0, config);
            // `Debug` prints floats shortest-round-trip, so equal text is
            // equal bits (and tells -0.0 from 0.0).
            prop_assert_eq!(format!("{:?}", tree.root()), format!("{reference:?}"));
        }
        let pruned: Vec<TreeConfig> =
            configs.iter().map(|config| TreeConfig { prune: true, ..*config }).collect();
        for (tree, config) in DecisionTree::train_all(&dataset, &labels, &pruned).iter().zip(&pruned) {
            let alone = DecisionTree::train(&dataset, &labels, *config);
            prop_assert_eq!(format!("{:?}", tree.root()), format!("{:?}", alone.root()));
        }
    }

    /// Subgroup discovery over the presorted orders and coverage bitmaps
    /// returns exactly the naive search's list, `wracc` bits included —
    /// under a non-dyadic decay too, where summing the covered weights in
    /// another order would show, and whether the positives fill one bitmap
    /// word or every word.
    #[test]
    fn presorted_subgroups_match_a_naive_reference(
        (table, labels) in prop_oneof![
            adversarial_table(),
            positives_in_one_block(),
            positives_in_every_block(),
        ],
        thresholds_per_feature in prop_oneof![Just(1usize), Just(4), Just(16)],
        beam_width in 1usize..6,
        max_conditions in 1usize..4,
        min_positive_coverage in 1usize..4,
        covered_weight_decay in prop_oneof![Just(0.5), Just(0.3), Just(1.0), Just(0.0)],
    ) {
        let rows: Vec<RowId> = table.row_ids().collect();
        let space = FeatureSpace::build_excluding(&table, &[], &rows);
        let dataset = space.extract(&table, &rows);
        let config = SubgroupConfig {
            thresholds_per_feature,
            beam_width,
            max_conditions,
            min_positive_coverage,
            covered_weight_decay,
            ..SubgroupConfig::default()
        };
        let found = discover_subgroups(&dataset, &labels, &config);
        let reference = oracle_subgroups(&instances_of(&dataset), &labels, &config);
        prop_assert_eq!(subgroup_bits(&found), subgroup_bits(&reference));
        for sg in &found {
            let walked: Vec<usize> =
                (0..dataset.len()).filter(|&i| sg.covers(&dataset.instance(i))).collect();
            prop_assert_eq!(sg.covered_indices(&dataset), walked);
        }
    }

    /// Statements survive a render → parse → render round trip: the SQL the
    /// dashboard displays can always be re-submitted through the query form.
    #[test]
    fn statement_sql_round_trips(
        threshold in -100i64..100,
        limit in proptest::option::of(1usize..50),
        desc in any::<bool>(),
    ) {
        let direction = if desc { "DESC" } else { "ASC" };
        let limit_clause = limit.map(|l| format!(" LIMIT {l}")).unwrap_or_default();
        let sql = format!(
            "SELECT grp, avg(value) AS a, count(*) FROM m WHERE value > {threshold} AND tag LIKE '%x%' \
             GROUP BY grp ORDER BY a {direction}{limit_clause}"
        );
        let first = parse_select(&sql).unwrap();
        let rendered = first.to_sql();
        let second = parse_select(&rendered).unwrap();
        prop_assert_eq!(rendered.clone(), second.to_sql());
        prop_assert_eq!(first, second);
    }

    /// Error metrics are non-negative, zero on the empty selection, and
    /// monotone in the offending direction.
    #[test]
    fn error_metrics_are_nonnegative_and_monotone(
        threshold in -50.0..50.0f64,
        value in -100.0..100.0f64,
        bump in 0.0..50.0f64,
    ) {
        use dbwipes::ErrorMetric;
        let high = ErrorMetric::too_high("c", threshold);
        let low = ErrorMetric::too_low("c", threshold);
        let eq = ErrorMetric::not_equal_to("c", threshold);
        for m in [&high, &low, &eq] {
            prop_assert!(m.evaluate(&[Some(value)]) >= 0.0);
            prop_assert_eq!(m.evaluate(&[]), 0.0);
            prop_assert_eq!(m.evaluate(&[None]), 0.0);
        }
        // Raising a value never decreases a "too high" error and never
        // increases a "too low" error.
        prop_assert!(high.evaluate(&[Some(value + bump)]) >= high.evaluate(&[Some(value)]));
        prop_assert!(low.evaluate(&[Some(value + bump)]) <= low.evaluate(&[Some(value)]));
        // The paper's diff metric equals the max single-value excess.
        let diff = ErrorMetric::diff("c", threshold);
        let vals = [Some(value), Some(value + bump)];
        let expected = (value + bump - threshold).max(0.0).max((value - threshold).max(0.0));
        prop_assert!((diff.evaluate(&vals) - expected).abs() < 1e-9);
    }
}

//! Binary decision trees over relational feature vectors.
//!
//! The Predicate Enumerator (paper §2.2.2) "builds a decision tree on each
//! candidate dataset Dᶜᵢ by labeling Dᶜᵢ as the positive class and F − Dᶜᵢ
//! as negative", using "standard splitting and pruning strategies (e.g.,
//! gini, gain ratio) to construct several trees". This module implements
//! those trees: numeric threshold and categorical equality splits, gini or
//! gain-ratio split selection, error-based pruning, and the extraction of
//! positive root-to-leaf paths as conjunctive rules — which the enumerator
//! then converts into the ranked predicates shown to the user.

use crate::features::{
    fold_categories, Dataset, FeatureColumn, FeatureKind, FeatureSpace, FeatureValue,
};
use crate::metrics::{gain_ratio, gini_gain};
use dbwipes_storage::{Condition, ConjunctivePredicate, Value};

/// Split-selection criterion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitCriterion {
    /// Gini impurity decrease (CART-style).
    Gini,
    /// Gain ratio (C4.5-style).
    GainRatio,
}

/// Decision-tree training configuration.
#[derive(Debug, Clone, Copy)]
pub struct TreeConfig {
    /// Split-selection criterion.
    pub criterion: SplitCriterion,
    /// Maximum tree depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum number of instances required to attempt a split.
    pub min_samples_split: usize,
    /// Minimum number of instances allowed in a child node.
    pub min_leaf_size: usize,
    /// Minimum gain a split must achieve to be accepted.
    pub min_gain: f64,
    /// Maximum number of candidate thresholds evaluated per numeric feature
    /// (thresholds are taken at evenly spaced quantiles when a feature has
    /// more distinct values than this).
    pub max_thresholds: usize,
    /// Whether to apply error-based pruning after growth.
    pub prune: bool,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            criterion: SplitCriterion::Gini,
            max_depth: 4,
            min_samples_split: 4,
            min_leaf_size: 2,
            min_gain: 1e-4,
            max_thresholds: 32,
            prune: true,
        }
    }
}

/// The test performed by an internal node; instances satisfying the test go
/// left, everything else (including missing values) goes right.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SplitTest {
    /// `feature <= threshold`
    NumericLe(f64),
    /// `feature == category`
    CategoryEq(usize),
}

/// A node of the tree.
#[derive(Debug, Clone)]
pub enum TreeNode {
    /// A leaf holding its training class counts.
    Leaf {
        /// Positive training instances that reached the leaf.
        pos: usize,
        /// Negative training instances that reached the leaf.
        neg: usize,
    },
    /// An internal split node.
    Split {
        /// Feature index tested.
        feature: usize,
        /// The test.
        test: SplitTest,
        /// Subtree for instances satisfying the test.
        left: Box<TreeNode>,
        /// Subtree for the rest.
        right: Box<TreeNode>,
        /// Positive instances reaching this node (for pruning).
        pos: usize,
        /// Negative instances reaching this node (for pruning).
        neg: usize,
    },
}

impl TreeNode {
    fn counts(&self) -> (usize, usize) {
        match self {
            TreeNode::Leaf { pos, neg } | TreeNode::Split { pos, neg, .. } => (*pos, *neg),
        }
    }

    fn is_positive(&self) -> bool {
        let (pos, neg) = self.counts();
        pos > neg
    }

    fn training_errors(&self) -> usize {
        match self {
            TreeNode::Leaf { pos, neg } => {
                if pos > neg {
                    *neg
                } else {
                    *pos
                }
            }
            TreeNode::Split { left, right, .. } => left.training_errors() + right.training_errors(),
        }
    }
}

/// One step of a root-to-leaf path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PathTest {
    /// `feature <= threshold`
    Le(f64),
    /// `feature > threshold`
    Gt(f64),
    /// `feature == category`
    Eq(usize),
    /// `feature != category`
    NotEq(usize),
}

/// A conjunctive rule extracted from a positive leaf: the path of tests from
/// the root plus the leaf's class counts.
#[derive(Debug, Clone)]
pub struct Rule {
    /// `(feature index, test)` conjuncts along the path.
    pub tests: Vec<(usize, PathTest)>,
    /// Positive training instances covered by the rule.
    pub pos: usize,
    /// Negative training instances covered by the rule.
    pub neg: usize,
}

impl Rule {
    /// Training precision of the rule.
    pub fn precision(&self) -> f64 {
        if self.pos + self.neg == 0 {
            0.0
        } else {
            self.pos as f64 / (self.pos + self.neg) as f64
        }
    }

    /// Converts the rule into a human-readable conjunctive predicate,
    /// merging multiple numeric bounds on the same feature into a single
    /// range condition.
    pub fn to_predicate(&self, space: &FeatureSpace) -> ConjunctivePredicate {
        // Per feature: tightest lower and upper numeric bound.
        let mut lower: Vec<Option<f64>> = vec![None; space.len()];
        let mut upper: Vec<Option<f64>> = vec![None; space.len()];
        let mut conditions: Vec<Condition> = Vec::new();
        for (feature, test) in &self.tests {
            match test {
                PathTest::Le(th) => {
                    let u = &mut upper[*feature];
                    *u = Some(u.map_or(*th, |cur: f64| cur.min(*th)));
                }
                PathTest::Gt(th) => {
                    let l = &mut lower[*feature];
                    *l = Some(l.map_or(*th, |cur: f64| cur.max(*th)));
                }
                PathTest::Eq(cat) => {
                    if let Some(c) = space.categorical_condition(*feature, *cat, true) {
                        conditions.push(c);
                    }
                }
                PathTest::NotEq(cat) => {
                    if let Some(c) = space.categorical_condition(*feature, *cat, false) {
                        conditions.push(c);
                    }
                }
            }
        }
        for (feature, def) in space.features().iter().enumerate() {
            let (lo, hi) = (lower[feature], upper[feature]);
            if lo.is_none() && hi.is_none() {
                continue;
            }
            if def.kind == FeatureKind::Boolean {
                // The bounds admit `false` (0), `true` (1), both or neither.
                let admits = |v: f64| lo.map_or(true, |lo| v > lo) && hi.map_or(true, |hi| v <= hi);
                let admitted: Vec<Value> = [(0.0, false), (1.0, true)]
                    .into_iter()
                    .filter_map(|(v, flag)| admits(v).then_some(Value::Bool(flag)))
                    .collect();
                conditions.push(match &admitted[..] {
                    [flag] => Condition::equals(def.column.clone(), flag.clone()),
                    _ => Condition::in_set(def.column.clone(), admitted),
                });
                continue;
            }
            conditions.push(Condition::Range {
                column: def.column.clone(),
                low: lo,
                low_inclusive: false,
                high: hi,
                high_inclusive: true,
            });
        }
        ConjunctivePredicate::new(conditions)
    }
}

/// A trained binary decision tree.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    root: TreeNode,
    config: TreeConfig,
    num_features: usize,
}

impl DecisionTree {
    /// Trains a tree on a dataset with boolean labels (`labels[i]` is the
    /// class of instance `i`).
    ///
    /// Panics if `labels.len() != dataset.len()`; the caller constructs both
    /// from the same row list.
    pub fn train(dataset: &Dataset, labels: &[bool], config: TreeConfig) -> DecisionTree {
        DecisionTree::train_all(dataset, labels, &[config]).pop().expect("one tree per config")
    }

    /// Trains one tree per configuration on the same dataset and labels —
    /// tree `i` is exactly `train(dataset, labels, configs[i])`.
    ///
    /// The trees grow together: each node sweeps every feature once and
    /// scores every configuration still splitting there on that sweep, and
    /// configurations that choose the same split share its partition and
    /// the nodes below it until they stop or disagree.
    ///
    /// Panics if `labels.len() != dataset.len()`.
    pub fn train_all(
        dataset: &Dataset,
        labels: &[bool],
        configs: &[TreeConfig],
    ) -> Vec<DecisionTree> {
        assert_eq!(dataset.len(), labels.len(), "labels must align with instances");
        let indices: Vec<u32> = (0..dataset.len() as u32).collect();
        let orders: Vec<&[u32]> = dataset
            .columns()
            .iter()
            .map(|column| match column {
                FeatureColumn::Numeric(numeric) => numeric.sorted(),
                FeatureColumn::Categorical { .. } => &[],
            })
            .collect();
        let mut grower = Grower {
            dataset,
            labels,
            configs,
            goes_left: vec![false; dataset.len()],
            cum_pos: Vec::new(),
            thresholds: Vec::new(),
        };
        let all: Vec<usize> = (0..configs.len()).collect();
        let roots = grower.grow(&indices, &orders, 0, &all);
        roots
            .into_iter()
            .zip(configs)
            .map(|(root, &config)| DecisionTree {
                root: if config.prune { prune(root) } else { root },
                config,
                num_features: dataset.num_features(),
            })
            .collect()
    }

    /// The root node.
    pub fn root(&self) -> &TreeNode {
        &self.root
    }

    /// The training configuration.
    pub fn config(&self) -> &TreeConfig {
        &self.config
    }

    /// Number of features the tree was trained over.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Depth of the tree (a lone leaf has depth 0).
    pub fn depth(&self) -> usize {
        fn d(node: &TreeNode) -> usize {
            match node {
                TreeNode::Leaf { .. } => 0,
                TreeNode::Split { left, right, .. } => 1 + d(left).max(d(right)),
            }
        }
        d(&self.root)
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        fn c(node: &TreeNode) -> usize {
            match node {
                TreeNode::Leaf { .. } => 1,
                TreeNode::Split { left, right, .. } => c(left) + c(right),
            }
        }
        c(&self.root)
    }

    /// Predicts the class of a feature vector.
    pub fn predict(&self, instance: &[FeatureValue]) -> bool {
        self.classify(|feature| instance.get(feature).copied().unwrap_or(FeatureValue::Missing))
    }

    /// Walks the tree, reading the instance's cells through `cell`.
    fn classify(&self, cell: impl Fn(usize) -> FeatureValue) -> bool {
        let mut node = &self.root;
        loop {
            match node {
                TreeNode::Leaf { pos, neg } => return pos > neg,
                TreeNode::Split { feature, test, left, right, .. } => {
                    node = if satisfies(cell(*feature), *test) { left } else { right };
                }
            }
        }
    }

    /// Training / holdout accuracy over a dataset.
    pub fn accuracy(&self, dataset: &Dataset, labels: &[bool]) -> f64 {
        if dataset.is_empty() {
            return 0.0;
        }
        let correct = labels
            .iter()
            .enumerate()
            .filter(|&(i, &label)| self.classify(|feature| dataset.value(i, feature)) == label)
            .count();
        correct as f64 / dataset.len() as f64
    }

    /// Extracts one [`Rule`] per positive leaf. An all-positive tree with a
    /// single leaf yields one rule with no tests (the trivial predicate).
    pub fn positive_rules(&self) -> Vec<Rule> {
        let mut rules = Vec::new();
        let mut path = Vec::new();
        collect_rules(&self.root, &mut path, &mut rules);
        rules
    }
}

fn satisfies(value: FeatureValue, test: SplitTest) -> bool {
    match (value, test) {
        (FeatureValue::Num(v), SplitTest::NumericLe(th)) => v <= th,
        (FeatureValue::Cat(c), SplitTest::CategoryEq(cat)) => c == cat,
        // Missing values and type mismatches fail the test.
        _ => false,
    }
}

fn collect_rules(node: &TreeNode, path: &mut Vec<(usize, PathTest)>, rules: &mut Vec<Rule>) {
    match node {
        TreeNode::Leaf { pos, neg } => {
            if node.is_positive() {
                rules.push(Rule { tests: path.clone(), pos: *pos, neg: *neg });
            }
        }
        TreeNode::Split { feature, test, left, right, .. } => {
            let (left_test, right_test) = match test {
                SplitTest::NumericLe(th) => (PathTest::Le(*th), PathTest::Gt(*th)),
                SplitTest::CategoryEq(c) => (PathTest::Eq(*c), PathTest::NotEq(*c)),
            };
            path.push((*feature, left_test));
            collect_rules(left, path, rules);
            path.pop();
            path.push((*feature, right_test));
            collect_rules(right, path, rules);
            path.pop();
        }
    }
}

/// Grows a list of trees, one per configuration, from the dataset's
/// presorted feature orders.
///
/// Every node carries, per numeric feature, its instances in the matrix's
/// sort order: the root borrows the matrix's own permutations and a child's
/// orders are a stable partition of its parent's, so no node gathers or
/// sorts anything. That is exactly the order a per-node gather of the
/// node's instances (ascending) followed by a stable `total_cmp` sort
/// produces, so thresholds, class counts, scores and tie-breaking are those
/// of the per-node sort.
///
/// A node is shared by every configuration whose tree reaches it: the
/// sweep is done once for all of them, and only where they choose
/// different splits do their trees part.
struct Grower<'a> {
    dataset: &'a Dataset,
    labels: &'a [bool],
    configs: &'a [TreeConfig],
    /// Per instance: which side of the split being applied it falls on.
    goes_left: Vec<bool>,
    /// Scratch of `best_splits`: `cum_pos[j]` = positives among a
    /// feature's first `j` sorted values.
    cum_pos: Vec<u32>,
    /// Scratch of `best_splits`: (midpoint threshold, number of sorted
    /// values `<=` it).
    thresholds: Vec<(f64, usize)>,
}

impl Grower<'_> {
    /// Grows the node for each configuration in `active` (indices into
    /// `configs`), returned in that order. `indices` are the node's
    /// instances in ascending order; `orders[f]` the present ones in
    /// feature `f`'s sort order (empty for a categorical feature).
    fn grow(
        &mut self,
        indices: &[u32],
        orders: &[&[u32]],
        depth: usize,
        active: &[usize],
    ) -> Vec<TreeNode> {
        let (dataset, configs) = (self.dataset, self.configs);
        let pos = indices.iter().filter(|&&i| self.labels[i as usize]).count();
        let neg = indices.len() - pos;
        let mut nodes = vec![TreeNode::Leaf { pos, neg }; active.len()];
        let splitting: Vec<(usize, &TreeConfig)> = active
            .iter()
            .map(|&k| &configs[k])
            .enumerate()
            .filter(|(_, config)| {
                pos > 0
                    && neg > 0
                    && depth < config.max_depth
                    && indices.len() >= config.min_samples_split
            })
            .collect();
        if splitting.is_empty() {
            return nodes;
        }

        let mut chosen = self.best_splits(indices, orders, pos, neg, &splitting);
        while let Some(&(_, feature, test)) = chosen.first() {
            // By bits: every tree of the group records this one `test`.
            let same = |&(_, f, t): &(usize, usize, SplitTest)| {
                f == feature
                    && match (t, test) {
                        (SplitTest::NumericLe(a), SplitTest::NumericLe(b)) => {
                            a.to_bits() == b.to_bits()
                        }
                        (a, b) => a == b,
                    }
            };
            let (group, rest): (Vec<_>, Vec<_>) = chosen.into_iter().partition(same);
            chosen = rest;

            for &i in indices {
                self.goes_left[i as usize] = satisfies(dataset.value(i as usize, feature), test);
            }
            let (left_idx, right_idx) = self.partition(indices);
            let smaller = left_idx.len().min(right_idx.len());
            let (slots, grown): (Vec<usize>, Vec<usize>) = group
                .iter()
                .map(|&(slot, _, _)| (slot, active[slot]))
                .filter(|&(_, k)| smaller >= configs[k].min_leaf_size)
                .unzip();
            if slots.is_empty() {
                continue;
            }
            let (left_orders, right_orders): (Vec<Vec<u32>>, Vec<Vec<u32>>) =
                orders.iter().map(|order| self.partition(order)).unzip();

            let lefts = self.grow(&left_idx, &as_slices(&left_orders), depth + 1, &grown);
            drop(left_orders);
            let rights = self.grow(&right_idx, &as_slices(&right_orders), depth + 1, &grown);
            for ((slot, left), right) in slots.into_iter().zip(lefts).zip(rights) {
                nodes[slot] = TreeNode::Split {
                    feature,
                    test,
                    left: Box::new(left),
                    right: Box::new(right),
                    pos,
                    neg,
                };
            }
        }
        nodes
    }

    /// Stable partition of a node's instance list by `goes_left`.
    fn partition(&self, instances: &[u32]) -> (Vec<u32>, Vec<u32>) {
        instances.iter().copied().partition(|&i| self.goes_left[i as usize])
    }

    /// Finds, per `(slot, configuration)`, the best `(feature, test)` over
    /// all features and returns `(slot, feature, test)` for each whose best
    /// gain reaches its `min_gain`.
    ///
    /// Per numeric feature one linear sweep of the node's sorted order,
    /// shared by every configuration: every candidate threshold's class
    /// counts come from a prefix sum over that order (a threshold at
    /// boundary `b` puts exactly the first `b` sorted values on the left),
    /// while categorical counts accumulate in a single pass. Ties break
    /// first-strictly-better: features ascending, thresholds ascending,
    /// categories in first-seen order.
    fn best_splits(
        &mut self,
        indices: &[u32],
        orders: &[&[u32]],
        pos: usize,
        neg: usize,
        configs: &[(usize, &TreeConfig)],
    ) -> Vec<(usize, usize, SplitTest)> {
        let (total_pos, total_neg) = (pos as f64, neg as f64);
        let parent = (total_pos, total_neg);
        let (dataset, labels) = (self.dataset, self.labels);

        let mut best: Vec<Option<(usize, SplitTest, f64)>> = vec![None; configs.len()];
        let mut consider = |j: usize, feature: usize, test: SplitTest, left: (f64, f64)| {
            let right = (total_pos - left.0, total_neg - left.1);
            let config = configs[j].1;
            let gain = match config.criterion {
                SplitCriterion::Gini => gini_gain(parent, left, right),
                SplitCriterion::GainRatio => gain_ratio(parent, left, right),
            };
            // Skipping gains below `min_gain` keeps exactly the first
            // strictly-best split when it reaches `min_gain`, else none.
            if gain < config.min_gain {
                return;
            }
            if gain > best[j].map_or(f64::NEG_INFINITY, |b| b.2) {
                best[j] = Some((feature, test, gain));
            }
        };

        for (feature, column) in dataset.columns().iter().enumerate() {
            match column {
                FeatureColumn::Numeric(column) => {
                    let order = orders[feature];
                    self.cum_pos.clear();
                    self.cum_pos.push(0);
                    let mut running = 0u32;
                    for &i in order {
                        running += u32::from(labels[i as usize]);
                        self.cum_pos.push(running);
                    }
                    // The boundary count is re-derived from the threshold
                    // itself rather than assumed to be j+1: between very
                    // close (or very large) neighbours the midpoint can
                    // round up to the upper value (or overflow to +inf), and
                    // the scored counts must describe the partition
                    // `v <= th` actually makes.
                    self.thresholds.clear();
                    for (j, w) in order.windows(2).enumerate() {
                        let (lower, upper) = (column.value(w[0]), column.value(w[1]));
                        if lower < upper {
                            let th = (lower + upper) / 2.0;
                            let below = if th < upper {
                                j + 1
                            } else {
                                order.partition_point(|&i| column.value(i) <= th)
                            };
                            self.thresholds.push((th, below));
                        }
                    }
                    let all = self.thresholds.len();
                    for (j, (_, config)) in configs.iter().enumerate() {
                        let kept = all.min(config.max_thresholds);
                        let step = all as f64 / config.max_thresholds as f64;
                        for k in 0..kept {
                            // Evenly spaced quantiles when there are too many.
                            let pick = if all > kept { (k as f64 * step) as usize } else { k };
                            let (th, below) = self.thresholds[pick];
                            let left_pos = self.cum_pos[below] as usize;
                            let left = (left_pos as f64, (below - left_pos) as f64);
                            consider(j, feature, SplitTest::NumericLe(th), left);
                        }
                    }
                }
                FeatureColumn::Categorical { codes, cardinality } => {
                    // Class counts per category.
                    let seen = fold_categories(
                        codes,
                        *cardinality,
                        indices.iter().map(|&i| i as usize),
                        || (0.0, 0.0),
                        |counts: &mut (f64, f64), i| {
                            if labels[i] {
                                counts.0 += 1.0;
                            } else {
                                counts.1 += 1.0;
                            }
                        },
                    );
                    for j in 0..configs.len() {
                        for &(cat, left) in &seen {
                            consider(j, feature, SplitTest::CategoryEq(cat), left);
                        }
                    }
                }
            }
        }
        let chosen = configs.iter().zip(best);
        chosen.filter_map(|(&(slot, _), best)| best.map(|(f, test, _)| (slot, f, test))).collect()
    }
}

fn as_slices(orders: &[Vec<u32>]) -> Vec<&[u32]> {
    orders.iter().map(Vec::as_slice).collect()
}

/// Error-based pruning: collapse a split whenever classifying all its
/// instances with the majority class makes no more training errors than the
/// subtree does.
fn prune(node: TreeNode) -> TreeNode {
    match node {
        TreeNode::Leaf { .. } => node,
        TreeNode::Split { feature, test, left, right, pos, neg } => {
            let left = prune(*left);
            let right = prune(*right);
            let subtree_errors = left.training_errors() + right.training_errors();
            let collapsed_errors = pos.min(neg);
            if collapsed_errors <= subtree_errors {
                TreeNode::Leaf { pos, neg }
            } else {
                TreeNode::Split {
                    feature,
                    test,
                    left: Box::new(left),
                    right: Box::new(right),
                    pos,
                    neg,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::FeatureSpace;
    use dbwipes_storage::{DataType, RowId, Schema, Table, Value};
    use std::sync::Arc;

    /// Builds a sensor-style table where sensor 15 with low voltage produces
    /// anomalously high temperatures (the ground-truth "error cause").
    fn sensor_table(n: usize) -> (Table, Vec<bool>) {
        let schema = Schema::of(&[
            ("sensorid", DataType::Int),
            ("voltage", DataType::Float),
            ("temp", DataType::Float),
            ("room", DataType::Str),
        ]);
        let mut t = Table::new("readings", schema).unwrap();
        let mut labels = Vec::new();
        for i in 0..n {
            let sensor = (i % 20) as i64;
            let broken = sensor == 15;
            let voltage = if broken { 1.9 } else { 2.6 + (i % 5) as f64 * 0.05 };
            let temp = if broken { 110.0 + (i % 10) as f64 } else { 18.0 + (i % 8) as f64 };
            let room = if i % 2 == 0 { "lab" } else { "kitchen" };
            t.push_row(vec![
                Value::Int(sensor),
                Value::Float(voltage),
                Value::Float(temp),
                Value::str(room),
            ])
            .unwrap();
            labels.push(broken);
        }
        (t, labels)
    }

    fn extract(t: &Table) -> (FeatureSpace, Arc<Dataset>) {
        let rows: Vec<RowId> = t.row_ids().collect();
        let space = FeatureSpace::build_excluding(t, &["temp".into()], &rows);
        let ds = space.extract(t, &rows);
        (space, ds)
    }

    #[test]
    fn learns_the_broken_sensor_with_both_criteria() {
        let (t, labels) = sensor_table(200);
        let (space, ds) = extract(&t);
        for criterion in [SplitCriterion::Gini, SplitCriterion::GainRatio] {
            let tree = DecisionTree::train(
                &ds,
                &labels,
                TreeConfig { criterion, ..TreeConfig::default() },
            );
            assert!(tree.accuracy(&ds, &labels) > 0.95, "{criterion:?}");
            assert!(tree.depth() >= 1);
            assert!(tree.leaf_count() >= 2);
            let rules = tree.positive_rules();
            assert!(!rules.is_empty(), "{criterion:?}");
            // The learned predicate should reference the broken sensor id or
            // its low voltage.
            let pred = rules[0].to_predicate(&space);
            let text = pred.to_string();
            assert!(
                text.contains("sensorid") || text.contains("voltage"),
                "unexpected predicate {text}"
            );
            assert!(rules[0].precision() > 0.9);
        }
    }

    #[test]
    fn pure_datasets_yield_single_leaf() {
        let (t, _) = sensor_table(50);
        let (_, ds) = extract(&t);
        let all_pos = vec![true; ds.len()];
        let tree = DecisionTree::train(&ds, &all_pos, TreeConfig::default());
        assert_eq!(tree.depth(), 0);
        assert_eq!(tree.leaf_count(), 1);
        assert_eq!(tree.positive_rules().len(), 1);
        assert!(tree.positive_rules()[0].tests.is_empty());
        assert_eq!(tree.accuracy(&ds, &all_pos), 1.0);

        let all_neg = vec![false; ds.len()];
        let tree = DecisionTree::train(&ds, &all_neg, TreeConfig::default());
        assert!(tree.positive_rules().is_empty());
    }

    #[test]
    fn max_depth_and_min_leaf_are_respected() {
        let (t, labels) = sensor_table(200);
        let (_, ds) = extract(&t);
        let tree =
            DecisionTree::train(&ds, &labels, TreeConfig { max_depth: 1, ..TreeConfig::default() });
        assert!(tree.depth() <= 1);
        let tree = DecisionTree::train(
            &ds,
            &labels,
            TreeConfig { min_samples_split: 1000, ..TreeConfig::default() },
        );
        assert_eq!(tree.depth(), 0);
        assert_eq!(tree.num_features(), ds.num_features());
        assert_eq!(tree.config().max_depth, TreeConfig::default().max_depth);
    }

    #[test]
    fn missing_values_follow_the_negative_branch() {
        let (t, labels) = sensor_table(100);
        let (_, ds) = extract(&t);
        let tree = DecisionTree::train(&ds, &labels, TreeConfig::default());
        let missing = vec![FeatureValue::Missing; tree.num_features()];
        // Must not panic; missing everything should land in the majority
        // (negative) region for this data.
        assert!(!tree.predict(&missing));
    }

    #[test]
    fn rules_merge_numeric_bounds_into_ranges() {
        // Positive iff 10 < x <= 20, forcing two numeric splits on the same
        // feature along the positive path.
        let schema = Schema::of(&[("x", DataType::Float)]);
        let mut t = Table::new("t", schema).unwrap();
        let mut labels = Vec::new();
        for i in 0..200 {
            let x = (i % 40) as f64;
            t.push_row(vec![Value::Float(x)]).unwrap();
            labels.push(x > 10.0 && x <= 20.0);
        }
        let rows: Vec<RowId> = t.row_ids().collect();
        let space = FeatureSpace::build(&t, &["x".into()], &rows, 8);
        let ds = space.extract(&t, &rows);
        let tree = DecisionTree::train(
            &ds,
            &labels,
            TreeConfig { max_depth: 6, min_gain: 1e-9, ..TreeConfig::default() },
        );
        assert!(tree.accuracy(&ds, &labels) > 0.95);
        let rules = tree.positive_rules();
        assert!(!rules.is_empty());
        let pred = rules[0].to_predicate(&space);
        // A single range condition on x, not two separate conditions.
        assert_eq!(pred.complexity(), 1);
        assert!(pred.to_string().contains("x"));
    }

    #[test]
    fn bounds_on_a_boolean_feature_become_the_values_they_admit() {
        let schema = Schema::of(&[("flag", DataType::Bool)]);
        let mut t = Table::new("t", schema).unwrap();
        for cell in [Value::Bool(false), Value::Bool(true), Value::Null] {
            t.push_row(vec![cell]).unwrap();
        }
        let rows: Vec<RowId> = t.row_ids().collect();
        let space = FeatureSpace::build(&t, &["flag".into()], &rows, 8);
        for (tests, text, matching) in [
            (vec![PathTest::Le(0.5)], "flag = FALSE", vec![RowId(0)]),
            (vec![PathTest::Gt(0.5)], "flag = TRUE", vec![RowId(1)]),
            (vec![PathTest::Gt(0.0), PathTest::Le(1.0)], "flag = TRUE", vec![RowId(1)]),
            (vec![PathTest::Le(1.0)], "flag IN (FALSE, TRUE)", vec![RowId(0), RowId(1)]),
            (vec![PathTest::Gt(1.0)], "flag IN ()", vec![]),
        ] {
            let rule = Rule { tests: tests.into_iter().map(|t| (0, t)).collect(), pos: 1, neg: 0 };
            let predicate = rule.to_predicate(&space);
            assert_eq!(predicate.to_string(), text);
            // An expression over a BOOLEAN, on the kernels and on the walk.
            predicate.to_expr().validate(t.schema()).unwrap();
            assert_eq!(predicate.matching_rows(&t), matching, "{text}");
            assert_eq!(predicate.to_expr().filter_scalar(&t).unwrap(), matching, "{text}");
        }
    }

    #[test]
    fn adjacent_float_values_score_the_partition_actually_made() {
        // Feature x takes two adjacent floats whose midpoint rounds UP to
        // the upper value (1+2⁻⁵² vs 1+2·2⁻⁵²: the exact midpoint ties to
        // the even mantissa), so `v <= th` puts BOTH values on the left —
        // a split there separates nothing. The scored counts must describe
        // that real partition: were they assumed from the threshold's
        // construction index, x would score a phantom perfect split,
        // outrank the genuinely separating feature y, and then collapse to
        // a leaf when the actual partition leaves the right child empty.
        let a = f64::from_bits(1.0f64.to_bits() + 1);
        let b = f64::from_bits(1.0f64.to_bits() + 2);
        let th = (a + b) / 2.0;
        assert_eq!(th, b, "midpoint rounds up for this pair");
        let schema = Schema::of(&[("x", DataType::Float), ("y", DataType::Float)]);
        let mut t = Table::new("t", schema).unwrap();
        let mut labels = Vec::new();
        for i in 0..40 {
            let broken = i % 2 == 0;
            // y separates almost perfectly (2 stragglers keep its gain
            // below x's phantom-perfect score).
            let y = if broken == (i % 20 != 0) { 10.0 + (i % 5) as f64 } else { 50.0 };
            t.push_row(vec![Value::Float(if broken { a } else { b }), Value::Float(y)]).unwrap();
            labels.push(broken);
        }
        let rows: Vec<RowId> = t.row_ids().collect();
        let space = FeatureSpace::build(&t, &["x".into(), "y".into()], &rows, 8);
        let ds = space.extract(&t, &rows);
        let tree = DecisionTree::train(
            &ds,
            &labels,
            TreeConfig { min_gain: 1e-12, prune: false, ..TreeConfig::default() },
        );
        assert!(tree.depth() >= 1, "the separable feature y must be split on");
        assert!(tree.accuracy(&ds, &labels) > 0.9);
    }

    #[test]
    fn pruning_collapses_useless_splits() {
        let (t, labels) = sensor_table(120);
        let (_, ds) = extract(&t);
        let unpruned = DecisionTree::train(
            &ds,
            &labels,
            TreeConfig { prune: false, min_gain: 0.0, max_depth: 8, ..TreeConfig::default() },
        );
        let pruned = DecisionTree::train(
            &ds,
            &labels,
            TreeConfig { prune: true, min_gain: 0.0, max_depth: 8, ..TreeConfig::default() },
        );
        assert!(pruned.leaf_count() <= unpruned.leaf_count());
        assert!(pruned.accuracy(&ds, &labels) >= 0.95);
    }

    #[test]
    #[should_panic(expected = "labels must align")]
    fn mismatched_labels_panic() {
        let (t, _) = sensor_table(10);
        let (_, ds) = extract(&t);
        DecisionTree::train(&ds, &[true], TreeConfig::default());
    }
}

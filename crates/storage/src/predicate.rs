//! Human-readable conjunctive predicates.
//!
//! The Ranked Provenance System returns *predicates* such as
//! `sensorid = 15 AND time BETWEEN 11:00 AND 13:00` (paper §2.1). These are
//! deliberately restricted to conjunctions of per-attribute conditions so
//! they remain compact and interpretable; this module defines that
//! restricted form, its SQL rendering, and its conversion to the general
//! [`Expr`] language for evaluation and query rewriting. A candidate the
//! ranker scores is always this conjunction; the general boolean form
//! (`OR`, `NOT`, constants) exists once, as [`Expr`], and both compile to
//! the one [`CompiledBoolExpr`].

use crate::column::{with_ints, Column, ColumnData};
use crate::error::StorageError;
use crate::expr::{col, lit, BinaryOp, Expr, UnaryOp};
use crate::rowset::RowSet;
use crate::table::{RowId, Table};
use crate::value::{DataType, Value};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::convert::Infallible;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// A single per-attribute condition inside a [`ConjunctivePredicate`].
#[derive(Debug, Clone, PartialEq)]
pub enum Condition {
    /// `column = value`
    Equals {
        /// Attribute name.
        column: String,
        /// Value compared against.
        value: Value,
    },
    /// `column <> value`
    NotEquals {
        /// Attribute name.
        column: String,
        /// Value compared against.
        value: Value,
    },
    /// A (possibly half-open) numeric range on `column`.
    ///
    /// Bounds are inclusive when the corresponding flag is set, mirroring
    /// the thresholds produced by decision-tree splits (`<=` / `>`).
    Range {
        /// Attribute name.
        column: String,
        /// Lower bound (`None` = unbounded below).
        low: Option<f64>,
        /// Whether the lower bound itself is included.
        low_inclusive: bool,
        /// Upper bound (`None` = unbounded above).
        high: Option<f64>,
        /// Whether the upper bound itself is included.
        high_inclusive: bool,
    },
    /// `column IN (values...)`
    InSet {
        /// Attribute name.
        column: String,
        /// Accepted values.
        values: Vec<Value>,
    },
    /// Case-insensitive substring containment on a text attribute.
    Contains {
        /// Attribute name.
        column: String,
        /// Substring searched for.
        pattern: String,
    },
}

impl Condition {
    /// Builds an equality condition.
    pub fn equals(column: impl Into<String>, value: impl Into<Value>) -> Self {
        Condition::Equals { column: column.into(), value: value.into() }
    }

    /// Builds an inequality condition.
    pub fn not_equals(column: impl Into<String>, value: impl Into<Value>) -> Self {
        Condition::NotEquals { column: column.into(), value: value.into() }
    }

    /// Builds a `column <= high` condition.
    pub fn at_most(column: impl Into<String>, high: f64) -> Self {
        Condition::Range {
            column: column.into(),
            low: None,
            low_inclusive: false,
            high: Some(high),
            high_inclusive: true,
        }
    }

    /// Builds a `column > low` condition.
    pub fn above(column: impl Into<String>, low: f64) -> Self {
        Condition::Range {
            column: column.into(),
            low: Some(low),
            low_inclusive: false,
            high: None,
            high_inclusive: false,
        }
    }

    /// Builds a `column >= low` condition.
    pub fn at_least(column: impl Into<String>, low: f64) -> Self {
        Condition::Range {
            column: column.into(),
            low: Some(low),
            low_inclusive: true,
            high: None,
            high_inclusive: false,
        }
    }

    /// Builds a closed range `low <= column <= high`.
    pub fn between(column: impl Into<String>, low: f64, high: f64) -> Self {
        Condition::Range {
            column: column.into(),
            low: Some(low),
            low_inclusive: true,
            high: Some(high),
            high_inclusive: true,
        }
    }

    /// Builds a set-membership condition.
    pub fn in_set(column: impl Into<String>, values: Vec<Value>) -> Self {
        Condition::InSet { column: column.into(), values }
    }

    /// Builds a substring-containment condition.
    pub fn contains(column: impl Into<String>, pattern: impl Into<String>) -> Self {
        Condition::Contains { column: column.into(), pattern: pattern.into() }
    }

    /// An exact canonical key for caching this condition's evaluation
    /// result. Unlike [`Condition`]'s `Display` form (which rounds range
    /// bounds to four decimals for readability), the key renders values via
    /// `Debug`, whose float formatting is round-trip precise — two
    /// conditions share a key if and only if they are structurally equal.
    pub fn cache_key(&self) -> String {
        format!("{self:?}")
    }

    /// The attribute this condition constrains.
    pub fn column(&self) -> &str {
        match self {
            Condition::Equals { column, .. }
            | Condition::NotEquals { column, .. }
            | Condition::Range { column, .. }
            | Condition::InSet { column, .. }
            | Condition::Contains { column, .. } => column,
        }
    }

    /// Converts the condition into an evaluable [`Expr`].
    pub fn to_expr(&self) -> Expr {
        match self {
            Condition::Equals { column, value } => col(column.clone()).eq(lit(value.clone())),
            Condition::NotEquals { column, value } => {
                col(column.clone()).not_eq(lit(value.clone()))
            }
            Condition::Range { column, low, low_inclusive, high, high_inclusive } => {
                let c = || col(column.clone());
                let mut parts = Vec::new();
                if let Some(lo) = low {
                    parts.push(if *low_inclusive { c().gt_eq(lit(*lo)) } else { c().gt(lit(*lo)) });
                }
                if let Some(hi) = high {
                    parts.push(if *high_inclusive {
                        c().lt_eq(lit(*hi))
                    } else {
                        c().lt(lit(*hi))
                    });
                }
                Expr::conjunction(parts).unwrap_or_else(|| lit(true))
            }
            Condition::InSet { column, values } => {
                col(column.clone()).in_list(values.iter().map(|v| lit(v.clone())).collect())
            }
            Condition::Contains { column, pattern } => {
                col(column.clone()).contains(pattern.clone())
            }
        }
    }

    /// True when `other` can only match rows that this condition also
    /// matches (a conservative check used to drop redundant conditions).
    pub fn subsumes(&self, other: &Condition) -> bool {
        if self.column() != other.column() {
            return false;
        }
        match (self, other) {
            (a, b) if a == b => true,
            (
                Condition::Range { low: l1, high: h1, .. },
                Condition::Range { low: l2, high: h2, .. },
            ) => {
                let low_ok = match (l1, l2) {
                    (None, _) => true,
                    (Some(_), None) => false,
                    (Some(a), Some(b)) => a <= b,
                };
                let high_ok = match (h1, h2) {
                    (None, _) => true,
                    (Some(_), None) => false,
                    (Some(a), Some(b)) => a >= b,
                };
                low_ok && high_ok
            }
            (Condition::InSet { values, .. }, Condition::Equals { value, .. }) => {
                values.contains(value)
            }
            _ => false,
        }
    }
}

impl fmt::Display for Condition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Condition::Equals { column, value } => {
                write!(f, "{column} = {}", value.to_sql_literal())
            }
            Condition::NotEquals { column, value } => {
                write!(f, "{column} <> {}", value.to_sql_literal())
            }
            Condition::Range { column, low, low_inclusive, high, high_inclusive } => {
                match (low, high) {
                    (Some(lo), Some(hi)) if *low_inclusive && *high_inclusive => {
                        write!(f, "{column} BETWEEN {lo:.4} AND {hi:.4}")
                    }
                    (Some(lo), Some(hi)) => write!(
                        f,
                        "{column} {} {lo:.4} AND {column} {} {hi:.4}",
                        if *low_inclusive { ">=" } else { ">" },
                        if *high_inclusive { "<=" } else { "<" }
                    ),
                    (Some(lo), None) => {
                        write!(f, "{column} {} {lo:.4}", if *low_inclusive { ">=" } else { ">" })
                    }
                    (None, Some(hi)) => {
                        write!(f, "{column} {} {hi:.4}", if *high_inclusive { "<=" } else { "<" })
                    }
                    (None, None) => write!(f, "{column} IS NOT NULL"),
                }
            }
            Condition::InSet { column, values } => {
                let items: Vec<String> = values.iter().map(|v| v.to_sql_literal()).collect();
                write!(f, "{column} IN ({})", items.join(", "))
            }
            Condition::Contains { column, pattern } => {
                write!(f, "{column} LIKE '%{}%'", pattern.replace('\'', "''"))
            }
        }
    }
}

/// A conjunction of per-attribute [`Condition`]s — the "compact predicate"
/// DBWipes returns to the user.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ConjunctivePredicate {
    conditions: Vec<Condition>,
}

impl ConjunctivePredicate {
    /// Creates a predicate from a list of conditions, dropping conditions
    /// made redundant by a more specific condition on the same attribute
    /// (in a conjunction, `temp > 100 AND temp > 120` is just `temp > 120`).
    pub fn new(conditions: Vec<Condition>) -> Self {
        let mut kept: Vec<Condition> = Vec::new();
        'outer: for cond in conditions {
            if kept.contains(&cond) {
                continue;
            }
            // If a kept condition is at least as specific as `cond`
            // (`cond` subsumes it), `cond` adds nothing to the conjunction.
            for k in &kept {
                if cond.subsumes(k) {
                    continue 'outer;
                }
            }
            // Conversely, drop kept conditions that `cond` makes redundant.
            kept.retain(|k| !k.subsumes(&cond));
            kept.push(cond);
        }
        ConjunctivePredicate { conditions: kept }
    }

    /// The always-true predicate (matches every row).
    pub fn always_true() -> Self {
        ConjunctivePredicate { conditions: Vec::new() }
    }

    /// The conditions of the conjunction.
    pub fn conditions(&self) -> &[Condition] {
        &self.conditions
    }

    /// Number of conjuncts — the "complexity" penalised by the Predicate
    /// Ranker (paper §2.2.2).
    pub fn complexity(&self) -> usize {
        self.conditions.len()
    }

    /// True when the predicate has no conditions (matches everything).
    pub fn is_trivial(&self) -> bool {
        self.conditions.is_empty()
    }

    /// The distinct attributes referenced.
    pub fn columns(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for c in &self.conditions {
            if !out.iter().any(|n| n == c.column()) {
                out.push(c.column().to_string());
            }
        }
        out
    }

    /// Adds a condition, returning the extended predicate.
    pub fn with(&self, condition: Condition) -> Self {
        let mut conds = self.conditions.clone();
        conds.push(condition);
        ConjunctivePredicate::new(conds)
    }

    /// A canonical form for deduplication: the rendered conditions, sorted.
    /// Conjunction is commutative, so `a AND b` and `b AND a` describe the
    /// same tuple set and share a key — unlike `to_string()`, which keeps
    /// the original conjunct order.
    pub fn canonical_key(&self) -> String {
        let mut parts: Vec<String> = self.conditions.iter().map(|c| c.to_string()).collect();
        parts.sort_unstable();
        parts.join(" AND ")
    }

    /// Converts to an evaluable [`Expr`] (the empty predicate becomes `TRUE`).
    pub fn to_expr(&self) -> Expr {
        Expr::conjunction(self.conditions.iter().map(|c| c.to_expr()).collect())
            .unwrap_or_else(|| lit(true))
    }

    /// The exclusion form used by clean-as-you-query: `NOT (predicate)`.
    pub fn to_exclusion_expr(&self) -> Expr {
        !self.to_expr()
    }

    /// Compiles the predicate against a table as the `AND` of its
    /// conditions: column indices are resolved and literals coerced once,
    /// so evaluation is typed column kernels instead of a recursive
    /// [`Expr`] walk; a condition mistyped for the schema is a row leaf.
    /// It cannot fail: the [`Infallible`] error keeps the signature
    /// `benchmark/src/trace.rs` calls `.expect` on.
    pub fn compile<'t>(&self, table: &'t Table) -> Result<CompiledBoolExpr<'t>, Infallible> {
        Ok(BoolTree::of_conjunction(self).compile(table))
    }

    /// Vectorized three-valued evaluation through a bitmap cache — how
    /// the Predicate Ranker scores a candidate. Fails exactly when the
    /// scalar walk of [`ConjunctivePredicate::to_expr`] fails on some row
    /// of `table`, with the walk's error.
    pub fn tri_eval(
        &self,
        cache: &ConditionBitmapCache,
        table: &Table,
    ) -> Result<TriSet, StorageError> {
        cache
            .tri_eval(table, BoolTree::of_conjunction(self))
            .map_err(|RowFailed| self.to_expr().first_error(table, 0))
    }

    /// Returns all rows matched by the predicate, in ascending
    /// [`RowId`] order. A row on which evaluation fails (a condition
    /// mistyped for the schema, an unknown column) is a non-match, not an
    /// error.
    pub fn matching_rows(&self, table: &Table) -> Vec<RowId> {
        BoolTree::of_conjunction(self).compile(table).eval_columns().trues.to_row_ids()
    }
}

/// Recognizes one per-attribute comparison leaf (`column <op> literal`,
/// `BETWEEN`, `IN`, `CONTAINS`) as a [`Condition`] — the leaf grammar of
/// [`CompiledBoolExpr`]'s kernels, together with the types
/// [`CompiledCondition::compile`] accepts. Returns `None` for anything
/// outside that fragment (arithmetic, column-to-column comparison,
/// `NOT IN`, `IS [NOT] NULL`, string order comparisons, bare columns,
/// boolean connectives).
fn leaf_condition(expr: &Expr) -> Option<Condition> {
    /// A numeric bound usable in a [`Condition::Range`] (bools and strings
    /// order-compare through their own paths, which the range kernel does
    /// not implement).
    fn numeric_bound(v: &Value) -> Option<f64> {
        match v {
            Value::Int(_) | Value::Float(_) | Value::Timestamp(_) => v.as_f64(),
            _ => None,
        }
    }
    match expr {
        Expr::Binary { op, left, right } if op.is_comparison() => {
            // Normalize to `column <op> literal`, mirroring the operator
            // when the literal is on the left.
            let (column, value, op) = match (&**left, &**right) {
                (Expr::Column(c), Expr::Literal(v)) => (c, v, *op),
                (Expr::Literal(v), Expr::Column(c)) => {
                    let flipped = match *op {
                        BinaryOp::Lt => BinaryOp::Gt,
                        BinaryOp::LtEq => BinaryOp::GtEq,
                        BinaryOp::Gt => BinaryOp::Lt,
                        BinaryOp::GtEq => BinaryOp::LtEq,
                        other => other,
                    };
                    (c, v, flipped)
                }
                _ => return None,
            };
            let cond = match op {
                BinaryOp::Eq => Condition::equals(column.clone(), value.clone()),
                BinaryOp::NotEq => Condition::not_equals(column.clone(), value.clone()),
                BinaryOp::Lt | BinaryOp::LtEq | BinaryOp::Gt | BinaryOp::GtEq => {
                    let bound = numeric_bound(value)?;
                    let (low, high) = match op {
                        BinaryOp::Gt | BinaryOp::GtEq => (Some(bound), None),
                        _ => (None, Some(bound)),
                    };
                    Condition::Range {
                        column: column.clone(),
                        low,
                        low_inclusive: op == BinaryOp::GtEq,
                        high,
                        high_inclusive: op == BinaryOp::LtEq,
                    }
                }
                _ => return None,
            };
            Some(cond)
        }
        Expr::Between { expr, low, high } => {
            let (Expr::Column(c), Expr::Literal(lo), Expr::Literal(hi)) =
                (&**expr, &**low, &**high)
            else {
                return None;
            };
            Some(Condition::between(c.clone(), numeric_bound(lo)?, numeric_bound(hi)?))
        }
        Expr::InList { expr, list, negated: false } => {
            let Expr::Column(c) = &**expr else { return None };
            let values = list
                .iter()
                .map(|e| match e {
                    Expr::Literal(v) => Some(v.clone()),
                    _ => None,
                })
                .collect::<Option<Vec<Value>>>()?;
            Some(Condition::in_set(c.clone(), values))
        }
        Expr::Contains { expr, pattern } => {
            let Expr::Column(c) = &**expr else { return None };
            Some(Condition::contains(c.clone(), pattern.clone()))
        }
        _ => None,
    }
}

impl fmt::Display for ConjunctivePredicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.conditions.is_empty() {
            return f.write_str("TRUE");
        }
        let parts: Vec<String> = self.conditions.iter().map(|c| c.to_string()).collect();
        f.write_str(&parts.join(" AND "))
    }
}

/// The three-valued result of evaluating a condition (or a conjunction)
/// over every row of one table, as a pair of bitmaps: the rows
/// where it is TRUE and the rows where it is NULL (unknown). Every other
/// row is FALSE.
#[derive(Debug, Clone)]
pub struct TriSet {
    /// Rows where the evaluation is TRUE.
    pub trues: RowSet,
    /// Rows where the evaluation is NULL.
    pub unknowns: RowSet,
}

impl TriSet {
    /// The everywhere-TRUE result over the universe `0..len`.
    pub fn all_true(len: usize) -> TriSet {
        TriSet { trues: RowSet::full(len), unknowns: RowSet::empty(len) }
    }

    /// The everywhere-FALSE result over the universe `0..len`.
    pub fn all_false(len: usize) -> TriSet {
        TriSet { trues: RowSet::empty(len), unknowns: RowSet::empty(len) }
    }

    /// The everywhere-NULL result over the universe `0..len`.
    pub fn all_unknown(len: usize) -> TriSet {
        TriSet { trues: RowSet::empty(len), unknowns: RowSet::full(len) }
    }

    /// The universe size shared by both bitmaps.
    pub fn universe(&self) -> usize {
        self.trues.universe()
    }

    /// Rows where the evaluation is TRUE *or* NULL — exactly the rows an
    /// `AND NOT (predicate)` rewrite would drop from a WHERE clause.
    pub fn passes_or_unknown(&self) -> RowSet {
        self.trues.or(&self.unknowns)
    }

    /// The three-valued result of this row's evaluation (`None` = NULL).
    pub fn value(&self, row: usize) -> Option<bool> {
        if self.trues.contains(row) {
            Some(true)
        } else if self.unknowns.contains(row) {
            None
        } else {
            Some(false)
        }
    }
}

/// Word-level Kleene `AND`: TRUE where both sides are TRUE, FALSE where
/// either side is FALSE, NULL otherwise — one fused pass over the four
/// bitmaps, as every conjunction a ranking scores folds through it.
impl std::ops::BitAnd for &TriSet {
    type Output = TriSet;

    fn bitand(self, rhs: &TriSet) -> TriSet {
        let n = self.universe();
        assert_eq!(n, rhs.universe(), "TriSet universe mismatch");
        let left = self.trues.word_slice().iter().zip(self.unknowns.word_slice());
        let right = rhs.trues.word_slice().iter().zip(rhs.unknowns.word_slice());
        let (trues, unknowns) = left
            .zip(right)
            .map(|((lt, lu), (rt, ru))| {
                let trues = lt & rt;
                (trues, (lt | lu) & (rt | ru) & !trues)
            })
            .unzip();
        TriSet { trues: RowSet::from_words(trues, n), unknowns: RowSet::from_words(unknowns, n) }
    }
}

/// Word-level Kleene `OR`: TRUE where either side is TRUE (so
/// `UNKNOWN OR TRUE = TRUE`), FALSE where both sides are FALSE, NULL
/// otherwise.
impl std::ops::BitOr for &TriSet {
    type Output = TriSet;

    fn bitor(self, rhs: &TriSet) -> TriSet {
        let trues = self.trues.or(&rhs.trues);
        let unknowns = self.unknowns.or(&rhs.unknowns).and_not(&trues);
        TriSet { trues, unknowns }
    }
}

/// Word-level Kleene `NOT`: swaps TRUE and FALSE, keeps NULL in place
/// (`NOT UNKNOWN = UNKNOWN`).
impl std::ops::Not for &TriSet {
    type Output = TriSet;

    fn not(self) -> TriSet {
        TriSet { trues: self.passes_or_unknown().complement(), unknowns: self.unknowns.clone() }
    }
}

/// The shape of a boolean predicate before it is bound to a table: a tree
/// of `And` / `Or` / `Not` / constant nodes over a list of leaves. Both
/// front-ends — an [`Expr`], a [`ConjunctivePredicate`] — build this one
/// form, and [`BoolTree::resolve`] binds it to a table's leaf bitmaps,
/// kernels and row walks.
struct BoolTree<'a> {
    root: BoolNode,
    leaves: Leaves<'a>,
}

/// The leaves of a [`BoolTree`], in first-appearance order; condition
/// leaves are deduplicated by [`Condition::cache_key`].
type Leaves<'a> = Vec<Leaf<'a>>;

/// One leaf of a [`BoolTree`].
enum Leaf<'a> {
    /// A per-attribute condition: borrowed from the predicate the tree was
    /// built from, or owned when parsed out of an [`Expr`].
    Condition(Cow<'a, Condition>),
    /// A maximal sub-expression outside the conditions' grammar (see
    /// [`leaf_condition`]).
    Row(Expr),
}

/// One node of a boolean tree; leaves index into the leaf list.
#[derive(Debug, Clone)]
enum BoolNode {
    Leaf(usize),
    Not(Box<BoolNode>),
    /// Kleene `AND` of the children; empty is TRUE.
    And(Vec<BoolNode>),
    /// Kleene `OR` of the children; empty is FALSE.
    Or(Vec<BoolNode>),
    /// A boolean (or NULL) literal in logical position.
    Const(Option<bool>),
}

impl BoolNode {
    /// The node for one leaf condition, reusing the slot of an equal
    /// condition seen earlier so each distinct leaf is resolved once.
    fn leaf<'a>(leaves: &mut Leaves<'a>, cond: Cow<'a, Condition>) -> BoolNode {
        // `==` is the cheap necessary test (it calls `0.0` and `-0.0`
        // equal, which the kernels do not); the keys are only rendered to
        // confirm a duplicate.
        let seen = leaves.iter().position(|leaf| {
            matches!(leaf, Leaf::Condition(c) if *c == cond && c.cache_key() == cond.cache_key())
        });
        BoolNode::Leaf(seen.unwrap_or_else(|| {
            leaves.push(Leaf::Condition(cond));
            leaves.len() - 1
        }))
    }

    /// The node for a sub-expression evaluated row by row.
    fn row(leaves: &mut Leaves<'_>, expr: &Expr) -> BoolNode {
        leaves.push(Leaf::Row(expr.clone()));
        BoolNode::Leaf(leaves.len() - 1)
    }

    /// The node of a boolean [`Expr`]: connectives and boolean literals
    /// become nodes, a per-attribute comparison a condition leaf, and
    /// anything else a row leaf.
    fn of_expr(leaves: &mut Leaves<'_>, expr: &Expr) -> BoolNode {
        match expr {
            Expr::Binary { op: op @ (BinaryOp::And | BinaryOp::Or), left, right } => {
                let children = vec![Self::of_expr(leaves, left), Self::of_expr(leaves, right)];
                if *op == BinaryOp::And {
                    BoolNode::And(children)
                } else {
                    BoolNode::Or(children)
                }
            }
            Expr::Unary { op: UnaryOp::Not, expr } => {
                BoolNode::Not(Box::new(Self::of_expr(leaves, expr)))
            }
            Expr::Literal(Value::Bool(b)) => BoolNode::Const(Some(*b)),
            Expr::Literal(Value::Null) => BoolNode::Const(None),
            // `NOT IN` is the Kleene negation of `IN` (a NULL member keeps
            // the result NULL either way).
            Expr::InList { expr: inner, list, negated: true } => {
                let positive =
                    Expr::InList { expr: inner.clone(), list: list.clone(), negated: false };
                match leaf_condition(&positive) {
                    Some(cond) => BoolNode::Not(Box::new(Self::leaf(leaves, Cow::Owned(cond)))),
                    None => Self::row(leaves, expr),
                }
            }
            other => match leaf_condition(other) {
                Some(cond) => Self::leaf(leaves, Cow::Owned(cond)),
                None => Self::row(leaves, other),
            },
        }
    }

    /// The `AND` of a conjunction's conditions.
    fn of_conjunction<'a>(leaves: &mut Leaves<'a>, pred: &'a ConjunctivePredicate) -> BoolNode {
        let leaf = |c| BoolNode::leaf(leaves, Cow::Borrowed(c));
        BoolNode::And(pred.conditions().iter().map(leaf).collect())
    }
}

impl<'a> BoolTree<'a> {
    fn of_expr(expr: &Expr) -> Self {
        let mut leaves = Vec::new();
        BoolTree { root: BoolNode::of_expr(&mut leaves, expr), leaves }
    }

    fn of_conjunction(pred: &'a ConjunctivePredicate) -> Self {
        let mut leaves = Vec::new();
        BoolTree { root: BoolNode::of_conjunction(&mut leaves, pred), leaves }
    }

    /// Binds the tree to `table`: each condition leaf to what `source`
    /// supplies for it once, or — where that is nothing, as the condition
    /// does not compile against the schema — to a row walk of its
    /// expression; each row leaf to a row walk.
    fn resolve<'t>(
        self,
        table: &'t Table,
        mut source: impl FnMut(&Condition) -> Option<LeafSource<'t>>,
    ) -> CompiledBoolExpr<'t> {
        let leaves = self
            .leaves
            .into_iter()
            .map(|leaf| match leaf {
                Leaf::Condition(cond) => source(&cond)
                    .unwrap_or_else(|| LeafSource::Rows { expr: cond.to_expr(), table }),
                Leaf::Row(expr) => LeafSource::Rows { expr, table },
            })
            .collect();
        CompiledBoolExpr { root: self.root, leaves, num_rows: table.num_rows() }
    }

    /// [`BoolTree::resolve`] with a typed kernel of its own per condition.
    fn compile(self, table: &Table) -> CompiledBoolExpr<'_> {
        self.resolve(table, |cond| {
            let kernel = CompiledCondition::compile(cond, table).ok()?;
            Some(LeafSource::Kernel { kernel, column: OnceLock::new() })
        })
    }
}

/// Where a compiled leaf's three-valued column comes from.
#[derive(Debug, Clone)]
enum LeafSource<'t> {
    /// The leaf's own typed kernel, and its column once a fold needed it
    /// whole.
    Kernel { kernel: CompiledCondition<'t>, column: OnceLock<TriSet> },
    /// A bitmap computed elsewhere: a [`ConditionBitmapCache`] entry.
    Bitmap(Arc<TriSet>),
    /// [`Expr::eval`] of a leaf the kernels cannot express, row by row.
    Rows { expr: Expr, table: &'t Table },
}

/// Evaluating a compiled tree failed on some row the caller asked about;
/// the caller's walk of the source expression finds the error.
#[derive(Debug)]
pub(crate) struct RowFailed;

/// A boolean predicate compiled against one table for vectorized
/// evaluation — the one form every WHERE clause and every
/// [`ConjunctivePredicate`] is evaluated through. `AND` / `OR` / `NOT`
/// nodes fold word-level [`TriSet`] operations over the leaves: a
/// per-attribute condition well-typed for the schema is a typed kernel
/// (scanned once, or looked up in a [`ConditionBitmapCache`]), anything
/// else — arithmetic, column-to-column comparisons, `IS [NOT] NULL`,
/// string order, bare columns, mistyped literals, unknown columns — a row
/// leaf, walked by [`Expr::eval`] on every row the caller asks about. So
/// compiling cannot fail, and evaluation is bit-identical to the scalar
/// three-valued walk of [`Expr::eval`] (value comparisons go through
/// `f64::total_cmp` exactly like [`Value::total_cmp`], a NULL operand
/// yields unknown); a kernel never fails, and a row leaf fails on a row
/// exactly where the walk does.
#[derive(Debug, Clone)]
pub struct CompiledBoolExpr<'t> {
    root: BoolNode,
    /// One source per leaf, in first-appearance order.
    leaves: Vec<LeafSource<'t>>,
    num_rows: usize,
}

/// Each leaf's walked column, indexed like the leaves: `Some` exactly at
/// the row leaves.
type RowColumns = Vec<Option<TriSet>>;

impl<'t> CompiledBoolExpr<'t> {
    /// Compiles a boolean expression tree against `table`, resolving and
    /// type-checking every condition leaf once.
    pub fn compile(expr: &Expr, table: &'t Table) -> Self {
        BoolTree::of_expr(expr).compile(table)
    }

    /// Physical row count of the table the tree was compiled against (the
    /// bitmap universe).
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Vectorized three-valued evaluation over **every row** of the
    /// table: each distinct kernel leaf's column is scanned at most once —
    /// and kept, so evaluating again is only the fold — each row leaf is
    /// walked, and the tree folds word-level AND/OR/NOT. Identical, row
    /// for row, to the scalar walk of [`Expr::eval`] on the source
    /// expression; a row on which that walk fails is FALSE here.
    ///
    /// `AND` short-circuits columnar-style: once fewer than a quarter of
    /// the rows can still pass (are TRUE or NULL so far), the next conjunct
    /// is folded with those rows as its selection, so its kernels visit
    /// only them — a selective leading conjunct makes the rest nearly free.
    pub fn eval_columns(&self) -> TriSet {
        let (rows, failed) = self.row_columns(0);
        let tri = self.fold(&self.root, None, &rows).into_owned();
        let Some(failed) = failed else { return tri };
        TriSet { trues: tri.trues.and_not(&failed), unknowns: tri.unknowns.and_not(&failed) }
    }

    /// The verdicts of the rows from `from` on — folded with those rows as
    /// the selection when `from` is not 0, FALSE on the rows before — or
    /// [`RowFailed`] when the walk fails on one of them.
    pub(crate) fn try_eval(&self, from: usize) -> Result<TriSet, RowFailed> {
        let (rows, None) = self.row_columns(from) else { return Err(RowFailed) };
        if from == 0 {
            return Ok(self.fold(&self.root, None, &rows).into_owned());
        }
        let sel = RowSet::suffix(self.num_rows, from);
        let tri = self.fold(&self.root, Some(&sel), &rows);
        Ok(TriSet { trues: tri.trues.and(&sel), unknowns: tri.unknowns.and(&sel) })
    }

    /// Every row leaf's column over the rows from `from` on — all the rows
    /// the caller asks about, never an `AND`'s narrowed selection, so no
    /// row the walk fails on is skipped — and the rows where one failed
    /// (`None` when none did).
    fn row_columns(&self, from: usize) -> (RowColumns, Option<RowSet>) {
        // A WHERE keeps only TRUE rows, so a non-boolean value at the root
        // is FALSE; under a connective the walk refuses it.
        let logical = !matches!(self.root, BoolNode::Leaf(_));
        let mut failed: Option<RowSet> = None;
        let rows = self.leaves.iter().map(|leaf| {
            let LeafSource::Rows { expr, table } = leaf else { return None };
            let mut tri = TriSet::all_false(self.num_rows);
            for row in from..self.num_rows {
                match expr.eval(table, RowId(row)) {
                    Ok(Value::Bool(true)) => tri.trues.insert(row),
                    Ok(Value::Null) => tri.unknowns.insert(row),
                    Ok(Value::Bool(false)) => {}
                    Ok(_) if !logical => {}
                    _ => failed.get_or_insert_with(|| RowSet::empty(self.num_rows)).insert(row),
                }
            }
            Some(tri)
        });
        (rows.collect(), failed)
    }

    /// The Kleene fold of `node`, exact on every row of `sel` (on every row
    /// when `None`); what it holds elsewhere is unspecified. `rows` holds
    /// the row leaves' columns.
    fn fold<'s>(
        &'s self,
        node: &BoolNode,
        sel: Option<&RowSet>,
        rows: &'s RowColumns,
    ) -> Cow<'s, TriSet> {
        let n = self.num_rows;
        match node {
            BoolNode::Leaf(i) => match &self.leaves[*i] {
                // A column is only ever kept whole: a restricted scan is
                // owned and dropped.
                LeafSource::Kernel { kernel, column } => match (column.get(), sel) {
                    (Some(whole), _) => Cow::Borrowed(whole),
                    (None, Some(sel)) => Cow::Owned(kernel.eval_column(n, Some(sel))),
                    (None, None) => {
                        Cow::Borrowed(column.get_or_init(|| kernel.eval_column(n, None)))
                    }
                },
                LeafSource::Bitmap(bitmap) => Cow::Borrowed(bitmap),
                LeafSource::Rows { .. } => {
                    Cow::Borrowed(rows[*i].as_ref().expect("row_columns walks every row leaf"))
                }
            },
            BoolNode::Not(child) => Cow::Owned(!&*self.fold(child, sel, rows)),
            BoolNode::Const(Some(true)) => Cow::Owned(TriSet::all_true(n)),
            BoolNode::Const(Some(false)) => Cow::Owned(TriSet::all_false(n)),
            BoolNode::Const(None) => Cow::Owned(TriSet::all_unknown(n)),
            BoolNode::Or(children) => {
                let Some((first, rest)) = children.split_first() else {
                    return Cow::Owned(TriSet::all_false(n));
                };
                rest.iter().fold(self.fold(first, sel, rows), |acc, child| {
                    Cow::Owned(&*acc | &*self.fold(child, sel, rows))
                })
            }
            BoolNode::And(children) => {
                let Some((first, rest)) = children.split_first() else {
                    return Cow::Owned(TriSet::all_true(n));
                };
                let mut acc = self.fold(first, sel, rows);
                for child in rest {
                    // Outside the rows that can still pass, `acc` is FALSE
                    // and so is the conjunction, whatever the child holds.
                    let mut live = acc.passes_or_unknown();
                    if let Some(sel) = sel {
                        live.and_assign(sel);
                    }
                    let narrowed = (live.count_ones() * 4 < n).then_some(live);
                    acc = Cow::Owned(&*acc & &*self.fold(child, narrowed.as_ref().or(sel), rows));
                }
                acc
            }
        }
    }
}

/// One compiled condition: a typed comparison bound to a column reference.
#[derive(Debug, Clone)]
enum CompiledCondition<'t> {
    /// Matches every row (the unbounded range compiles to `TRUE`, exactly
    /// like [`Condition::to_expr`]).
    True,
    /// Always NULL: a comparison against a NULL literal, or any condition
    /// on a column whose declared type is NULL.
    Unknown,
    /// `column = v` / `column <> v` on a numeric (or bool) column.
    NumEquals { column: &'t Column, value: f64, negate: bool },
    /// `column = v` / `column <> v` on a string column.
    StrEquals { column: &'t Column, value: String, negate: bool },
    /// A (half-)open numeric range; bound flag = inclusive.
    NumRange { column: &'t Column, low: Option<(f64, bool)>, high: Option<(f64, bool)> },
    /// `column IN (...)` against the numerically coercible set members.
    NumInSet { column: &'t Column, values: Vec<f64>, with_null: bool },
    /// `column IN (...)` against the string set members.
    StrInSet { column: &'t Column, values: Vec<String>, with_null: bool },
    /// Case-insensitive substring containment; the needle is pre-lowercased.
    StrContains { column: &'t Column, needle_lower: String },
}

impl<'t> CompiledCondition<'t> {
    fn compile(cond: &Condition, table: &'t Table) -> Result<Self, StorageError> {
        // The unbounded range is the literal TRUE, exactly like
        // `Condition::to_expr`: it names no column, so it compiles (and
        // validates) whatever the schema holds.
        if let Condition::Range { low: None, high: None, .. } = cond {
            return Ok(CompiledCondition::True);
        }
        let idx = table.schema().resolve(cond.column())?;
        let dtype = table.schema().field_at(idx).expect("resolved").dtype;
        let column = table.column(idx).expect("resolved");
        if dtype == DataType::Null {
            // Every value of the column is NULL, so every comparison is
            // unknown.
            return Ok(CompiledCondition::Unknown);
        }
        let mismatch = |expected: &str| StorageError::TypeMismatch {
            expected: expected.into(),
            found: dtype,
            context: format!("condition on column '{}'", cond.column()),
        };
        match cond {
            Condition::Equals { value, .. } | Condition::NotEquals { value, .. } => {
                let negate = matches!(cond, Condition::NotEquals { .. });
                match (dtype, value) {
                    (_, Value::Null) => Ok(CompiledCondition::Unknown),
                    (DataType::Str, Value::Str(s)) => {
                        Ok(CompiledCondition::StrEquals { column, value: s.clone(), negate })
                    }
                    (DataType::Str, _) | (_, Value::Str(_)) => Err(mismatch("str")),
                    (DataType::Bool, Value::Bool(b)) => Ok(CompiledCondition::NumEquals {
                        column,
                        value: if *b { 1.0 } else { 0.0 },
                        negate,
                    }),
                    // `compare` refuses bool-vs-numeric, so compilation must too.
                    (DataType::Bool, _) | (_, Value::Bool(_)) => Err(mismatch("bool")),
                    (_, v) => Ok(CompiledCondition::NumEquals {
                        column,
                        value: v.as_f64().expect("numeric literal"),
                        negate,
                    }),
                }
            }
            Condition::Range { low, low_inclusive, high, high_inclusive, .. } => {
                if !dtype.is_numeric() {
                    return Err(mismatch("numeric"));
                }
                Ok(CompiledCondition::NumRange {
                    column,
                    low: low.map(|v| (v, *low_inclusive)),
                    high: high.map(|v| (v, *high_inclusive)),
                })
            }
            Condition::InSet { values, .. } => {
                let with_null = values.iter().any(|v| v.is_null());
                if dtype == DataType::Str {
                    // Only string members can equal a string value; the
                    // rest can never match and are dropped.
                    let values = values
                        .iter()
                        .filter_map(|v| match v {
                            Value::Str(s) => Some(s.clone()),
                            _ => None,
                        })
                        .collect();
                    Ok(CompiledCondition::StrInSet { column, values, with_null })
                } else {
                    // IN uses `Value` equality, which coerces numerics and
                    // bools through f64 — mirror that.
                    let values = values.iter().filter_map(|v| v.as_f64()).collect();
                    Ok(CompiledCondition::NumInSet { column, values, with_null })
                }
            }
            Condition::Contains { pattern, .. } => {
                if dtype != DataType::Str {
                    return Err(mismatch("str"));
                }
                Ok(CompiledCondition::StrContains {
                    column,
                    needle_lower: pattern.to_ascii_lowercase(),
                })
            }
        }
    }

    /// Vectorized evaluation: one tight loop over the typed column slices,
    /// over every row or only over `sel`'s rows. Exact, under SQL
    /// three-valued logic, on the rows it visits; what it holds on the
    /// others is unspecified.
    fn eval_column(&self, num_rows: usize, sel: Option<&RowSet>) -> TriSet {
        match self {
            CompiledCondition::True => TriSet::all_true(num_rows),
            CompiledCondition::Unknown => TriSet::all_unknown(num_rows),
            CompiledCondition::NumEquals { column, value, negate } => {
                scan_numeric(column, num_rows, sel, false, |v| {
                    (v.total_cmp(value) == Ordering::Equal) != *negate
                })
            }
            CompiledCondition::StrEquals { column, value, negate } => {
                scan_str(column, num_rows, sel, false, |s| (s == value) != *negate)
            }
            CompiledCondition::NumRange { column, low, high } => {
                scan_numeric(column, num_rows, sel, false, |v| {
                    let low_ok = low.map_or(true, |(lo, incl)| {
                        let ord = v.total_cmp(&lo);
                        ord == Ordering::Greater || (incl && ord == Ordering::Equal)
                    });
                    let high_ok = high.map_or(true, |(hi, incl)| {
                        let ord = v.total_cmp(&hi);
                        ord == Ordering::Less || (incl && ord == Ordering::Equal)
                    });
                    low_ok && high_ok
                })
            }
            CompiledCondition::NumInSet { column, values, with_null } => {
                scan_numeric(column, num_rows, sel, *with_null, |v| {
                    values.iter().any(|m| v.total_cmp(m) == Ordering::Equal)
                })
            }
            CompiledCondition::StrInSet { column, values, with_null } => {
                scan_str(column, num_rows, sel, *with_null, |s| values.iter().any(|m| m == s))
            }
            CompiledCondition::StrContains { column, needle_lower } => {
                scan_str(column, num_rows, sel, false, |s| {
                    contains_ignore_ascii_case(s, needle_lower)
                })
            }
        }
    }
}

/// A kernel's output, written a word at a time: one verdict per row, in
/// place, with no per-row index arithmetic or bounds check of
/// [`RowSet::insert`].
struct TriWords {
    trues: Vec<u64>,
    unknowns: Vec<u64>,
    /// `IN`-list semantics: a NULL set member turns non-matches into
    /// unknowns.
    nonmatch_unknown: bool,
}

impl TriWords {
    fn new(num_rows: usize, nonmatch_unknown: bool) -> Self {
        let words = num_rows.div_ceil(64);
        TriWords { trues: vec![0; words], unknowns: vec![0; words], nonmatch_unknown }
    }

    /// Tests the values `data` of one chunk, valid where `valid` is set,
    /// whose first row is `base` (a multiple of 64 — chunks hold whole
    /// words): every one, or only those `sel` holds.
    #[inline]
    fn chunk<T>(
        &mut self,
        base: usize,
        data: &[T],
        valid: &[bool],
        sel: Option<&RowSet>,
        test: impl Fn(&T) -> bool,
    ) {
        debug_assert_eq!(base % 64, 0);
        let first = base / 64;
        let nonmatch_unknown = self.nonmatch_unknown;
        for (w, (xs, oks)) in data.chunks(64).zip(valid.chunks(64)).enumerate() {
            let (mut trues, mut unknowns) = (0u64, 0u64);
            let mut visit = |x: &T, ok: bool, bit: usize| {
                let is_true = ok && test(x);
                trues |= (is_true as u64) << bit;
                unknowns |= ((!ok || (nonmatch_unknown && !is_true)) as u64) << bit;
            };
            match sel {
                None => {
                    for (bit, (x, &ok)) in xs.iter().zip(oks).enumerate() {
                        visit(x, ok, bit);
                    }
                }
                Some(sel) => {
                    let mut left = sel.word_slice()[first + w];
                    while left != 0 {
                        let bit = left.trailing_zeros() as usize;
                        visit(&xs[bit], oks[bit], bit);
                        left &= left - 1;
                    }
                }
            }
            self.trues[first + w] = trues;
            self.unknowns[first + w] = unknowns;
        }
    }

    fn finish(self, num_rows: usize) -> TriSet {
        TriSet {
            trues: RowSet::from_words(self.trues, num_rows),
            unknowns: RowSet::from_words(self.unknowns, num_rows),
        }
    }
}

/// Columnar kernel for numeric tests: for each chunk of the column,
/// dispatches on its typed vector once, then runs a branch-light loop over
/// the slice and the validity mask — every row, or only `sel`'s.
/// `nonmatch_unknown` encodes `IN`-list semantics where a NULL set member
/// turns non-matches into unknowns.
fn scan_numeric(
    column: &Column,
    num_rows: usize,
    sel: Option<&RowSet>,
    nonmatch_unknown: bool,
    test: impl Fn(f64) -> bool,
) -> TriSet {
    debug_assert_eq!(column.len(), num_rows);
    // A string column never yields a numeric value: every row is unknown,
    // exactly like `Column::get_f64` returning `None`.
    if column.dtype() == DataType::Str {
        return TriSet::all_unknown(num_rows);
    }
    let mut out = TriWords::new(num_rows, nonmatch_unknown);
    let mut base = 0;
    for (chunk, rows) in column.pieces(0..num_rows) {
        let valid = &chunk.valid()[rows.clone()];
        match chunk.values() {
            ColumnData::Int(v) | ColumnData::Timestamp(v) => with_ints!(v, v => {
                out.chunk(base, &v[rows.clone()], valid, sel, |x| test(*x as f64))
            }),
            ColumnData::Float(v) => out.chunk(base, &v[rows.clone()], valid, sel, |x| test(*x)),
            ColumnData::Bool(v) => {
                out.chunk(base, &v[rows.clone()], valid, sel, |x| test(if *x { 1.0 } else { 0.0 }))
            }
            ColumnData::Str(_) => unreachable!("a chunk holds its column's type"),
        }
        base += rows.len();
    }
    out.finish(num_rows)
}

/// Columnar kernel for string tests; see [`scan_numeric`].
fn scan_str(
    column: &Column,
    num_rows: usize,
    sel: Option<&RowSet>,
    nonmatch_unknown: bool,
    test: impl Fn(&str) -> bool,
) -> TriSet {
    debug_assert_eq!(column.len(), num_rows);
    // A non-string column never yields a string: every row is unknown,
    // exactly like `Column::get_str` returning `None`.
    if column.dtype() != DataType::Str {
        return TriSet::all_unknown(num_rows);
    }
    let mut out = TriWords::new(num_rows, nonmatch_unknown);
    let mut base = 0;
    for (chunk, rows) in column.pieces(0..num_rows) {
        let ColumnData::Str(v) = chunk.values() else {
            unreachable!("a chunk holds its column's type")
        };
        out.chunk(base, &v[rows.clone()], &chunk.valid()[rows.clone()], sel, |s| test(s));
        base += rows.len();
    }
    out.finish(num_rows)
}

/// Process-wide hit counter of every [`ConditionBitmapCache`] (for the
/// server's `stats` reply).
static GLOBAL_BITMAP_HITS: AtomicU64 = AtomicU64::new(0);
/// Process-wide miss counter of every [`ConditionBitmapCache`].
static GLOBAL_BITMAP_MISSES: AtomicU64 = AtomicU64::new(0);
/// Locks a bitmap map even after a thread panicked while holding it: the
/// maps only ever hold complete, immutable `Arc<TriSet>` entries, so the
/// data behind a poisoned lock is still valid, and refusing it would fail
/// every later explain in the process.
pub(crate) fn lock_recover<T>(lock: &Mutex<T>) -> MutexGuard<'_, T> {
    lock.lock().unwrap_or_else(|poison| poison.into_inner())
}

/// Most bytes of bitmaps a snapshot's shared cache may hold when a ranking
/// acquires it ([`Table::condition_bitmaps`]); a cache found over it is
/// replaced by an empty one. 32 MiB holds 2 048 conditions at 64k rows,
/// 512 at 256k and 128 at 1M: many rankings' worth at the sizes the
/// server is run at, and under a quarter of the resident size of a server
/// holding a 256k-row table (see docs/TUNING.md, "Cache registry").
pub const CONDITION_BITMAP_BUDGET_BYTES: usize = 32 << 20;

/// A per-snapshot cache of condition-evaluation bitmaps.
///
/// The Predicate Enumerator produces hundreds of candidate conjunctions
/// that heavily *share* conditions drawn from one pool (tree splits, mined
/// text values, subgroup tests), and the analyst asks about the same table
/// again and again. Scoring each conjunction from scratch re-scans the
/// table once per condition occurrence; this cache evaluates each
/// **distinct** condition once through its columnar kernel and scores
/// conjunctions by intersecting the cached bitmaps.
///
/// A cache is pinned to one table snapshot — its `(id, version)` — at
/// construction, and the snapshot owns the shared one
/// ([`Table::condition_bitmaps`]): any mutation starts the mutated table
/// an empty cache, and lookups against another `(id, version)`
/// bypass the cache (fresh computation, nothing stored), so stale bitmaps
/// can never be served. Conditions are keyed by [`Condition::cache_key`]
/// (exact, not the rounded display form). The cache is `Sync`: sessions
/// on different workers that rank over one snapshot share it.
#[derive(Debug)]
pub struct ConditionBitmapCache {
    table_id: u64,
    /// Rows of the pinned table — its version. Bitmaps are dense over the
    /// table's row universe, so this cache is compared by `==`: even an
    /// append changes the universe every bitmap was sized for, and
    /// absorbing would mean re-running every kernel over the new rows.
    /// Appends therefore miss here by design, unlike the append-tolerant
    /// aggregate caches.
    num_rows: usize,
    /// `None` marks a condition the typed compiler cannot express, so the
    /// decision to walk it row by row is cached too.
    entries: Mutex<HashMap<String, Option<Arc<TriSet>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ConditionBitmapCache {
    /// An empty cache pinned to the current data version of `table`,
    /// shared with nobody. Rankings use the snapshot's own
    /// ([`Table::condition_bitmaps`]).
    pub fn new(table: &Table) -> Self {
        ConditionBitmapCache {
            table_id: table.id(),
            num_rows: table.num_rows(),
            entries: Mutex::default(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// `(bitmaps, bytes)` held: the conditions evaluated so far and the
    /// size of their bitmaps, two dense row sets each (keys and map
    /// overhead, tens of bytes against kilobytes, are not counted).
    pub fn retained(&self) -> (usize, usize) {
        let bitmaps = lock_recover(&self.entries).values().flatten().count();
        (bitmaps, bitmaps * 2 * self.num_rows.div_ceil(64) * 8)
    }

    /// True when the cache's pinned version exactly matches the table's
    /// current one (lookups against any other table compute fresh,
    /// uncached results). Bitmap caches tolerate no appends — see the
    /// field docs on [`ConditionBitmapCache`].
    pub fn covers(&self, table: &Table) -> bool {
        table.id() == self.table_id && table.num_rows() == self.num_rows
    }

    /// Row count of the pinned table (the bitmap universe).
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// The condition's evaluation bitmaps over every row of
    /// `table`, cached across calls. Returns `None` when the typed
    /// compiler cannot express the condition against the table's schema
    /// (a tree walks such a leaf row by row).
    pub fn condition(&self, table: &Table, cond: &Condition) -> Option<Arc<TriSet>> {
        let evaluate = || {
            let kernel = CompiledCondition::compile(cond, table).ok()?;
            Some(Arc::new(kernel.eval_column(table.num_rows(), None)))
        };
        if !self.covers(table) {
            return evaluate();
        }
        let key = cond.cache_key();
        if let Some(cached) = lock_recover(&self.entries).get(&key) {
            self.hits.fetch_add(1, AtomicOrdering::Relaxed);
            GLOBAL_BITMAP_HITS.fetch_add(1, AtomicOrdering::Relaxed);
            return cached.clone();
        }
        // Kernel-scan outside the lock so a miss never stalls another
        // worker ranking over this snapshot (racing workers may both
        // compute; the first insert wins and both results are identical).
        self.misses.fetch_add(1, AtomicOrdering::Relaxed);
        GLOBAL_BITMAP_MISSES.fetch_add(1, AtomicOrdering::Relaxed);
        let computed = evaluate();
        lock_recover(&self.entries).entry(key).or_insert(computed).clone()
    }

    /// Evaluates an arbitrary boolean expression tree by folding the
    /// cached per-condition bitmaps with word-level AND/OR/NOT. Each
    /// **distinct** condition leaf costs one cache lookup (a kernel scan on
    /// first sight, a hit afterwards); any other leaf is walked row by row.
    /// Fails exactly when the scalar walk of `expr` fails on some row of
    /// `table`, with the walk's error.
    pub fn bool_expr(&self, table: &Table, expr: &Expr) -> Result<TriSet, StorageError> {
        self.tri_eval(table, BoolTree::of_expr(expr))
            .map_err(|RowFailed| expr.first_error(table, 0))
    }

    /// Folds `tree` over this cache's condition bitmaps — what
    /// [`ConjunctivePredicate::tri_eval`] and
    /// [`ConditionBitmapCache::bool_expr`] run.
    fn tri_eval(&self, table: &Table, tree: BoolTree<'_>) -> Result<TriSet, RowFailed> {
        tree.resolve(table, |cond| self.condition(table, cond).map(LeafSource::Bitmap)).try_eval(0)
    }

    /// This cache's `(hits, misses)` counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits.load(AtomicOrdering::Relaxed), self.misses.load(AtomicOrdering::Relaxed))
    }

    /// Process-wide `(hits, misses)` across every cache instance — what
    /// the server's `stats` protocol reply reports.
    pub fn global_stats() -> (u64, u64) {
        (
            GLOBAL_BITMAP_HITS.load(AtomicOrdering::Relaxed),
            GLOBAL_BITMAP_MISSES.load(AtomicOrdering::Relaxed),
        )
    }
}

/// ASCII-case-insensitive substring search without allocating, equivalent
/// to `haystack.to_ascii_lowercase().contains(needle_lower)` for an
/// already-lowercased needle.
fn contains_ignore_ascii_case(haystack: &str, needle_lower: &str) -> bool {
    let n = needle_lower.as_bytes();
    if n.is_empty() {
        return true;
    }
    let h = haystack.as_bytes();
    if n.len() > h.len() {
        return false;
    }
    h.windows(n.len()).any(|w| w.iter().zip(n).all(|(a, b)| a.eq_ignore_ascii_case(b)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::value::DataType;
    use std::ops::{Add, Not as _};

    /// The scalar three-valued verdict of a boolean expression on one row
    /// (`None` = NULL): the oracle of every kernel test.
    fn scalar(expr: &Expr, t: &Table, r: RowId) -> Option<bool> {
        match expr.eval(t, r).unwrap() {
            Value::Bool(b) => Some(b),
            Value::Null => None,
            other => panic!("non-boolean predicate value {other:?}"),
        }
    }

    fn table() -> Table {
        let schema = Schema::of(&[
            ("sensorid", DataType::Int),
            ("temp", DataType::Float),
            ("voltage", DataType::Float),
            ("memo", DataType::Str),
        ]);
        let mut t = Table::new("readings", schema).unwrap();
        t.push_rows(vec![
            vec![Value::Int(15), Value::Float(122.0), Value::Float(2.1), Value::str("ok")],
            vec![Value::Int(15), Value::Float(119.0), Value::Float(2.0), Value::str("ok")],
            vec![Value::Int(3), Value::Float(21.0), Value::Float(2.7), Value::str("ok")],
            vec![
                Value::Int(7),
                Value::Float(22.5),
                Value::Float(2.6),
                Value::str("REATTRIBUTION TO SPOUSE"),
            ],
        ])
        .unwrap();
        t
    }

    #[test]
    fn display_matches_paper_style() {
        let p = ConjunctivePredicate::new(vec![
            Condition::equals("sensorid", 15),
            Condition::at_least("temp", 100.0),
        ]);
        assert_eq!(p.to_string(), "sensorid = 15 AND temp >= 100.0000");
        assert_eq!(ConjunctivePredicate::always_true().to_string(), "TRUE");
        let c = Condition::between("temp", 10.0, 20.0);
        assert_eq!(c.to_string(), "temp BETWEEN 10.0000 AND 20.0000");
        let c = Condition::contains("memo", "SPOUSE");
        assert_eq!(c.to_string(), "memo LIKE '%SPOUSE%'");
        let c = Condition::in_set("sensorid", vec![Value::Int(1), Value::Int(2)]);
        assert_eq!(c.to_string(), "sensorid IN (1, 2)");
        let c = Condition::not_equals("memo", "ok");
        assert_eq!(c.to_string(), "memo <> 'ok'");
    }

    #[test]
    fn matching_and_coverage() {
        let t = table();
        let p = ConjunctivePredicate::new(vec![
            Condition::equals("sensorid", 15),
            Condition::above("temp", 120.0),
        ]);
        assert_eq!(p.matching_rows(&t), vec![RowId(0)]);
        let tri = p.compile(&t).unwrap().eval_columns();
        assert_eq!(tri.trues.count_ones(), 1);
        assert_eq!(tri.value(0), Some(true));
        assert_eq!(tri.value(1), Some(false));

        let trivially_true = ConjunctivePredicate::always_true();
        assert!(trivially_true.is_trivial());
        assert_eq!(trivially_true.matching_rows(&t).len(), 4);
    }

    #[test]
    fn exclusion_expr_removes_matches() {
        let t = table();
        let p = ConjunctivePredicate::new(vec![Condition::contains("memo", "spouse")]);
        let keep = p.to_exclusion_expr().filter(&t).unwrap();
        assert_eq!(keep, vec![RowId(0), RowId(1), RowId(2)]);
    }

    #[test]
    fn subsumption_dedup() {
        // temp > 100 subsumes temp > 120 (the latter is more specific), so
        // when both appear the more specific one is kept.
        let p = ConjunctivePredicate::new(vec![
            Condition::above("temp", 100.0),
            Condition::above("temp", 120.0),
        ]);
        assert_eq!(p.complexity(), 1);
        assert_eq!(p.conditions()[0], Condition::above("temp", 120.0));

        // Identical conditions are deduplicated.
        let p = ConjunctivePredicate::new(vec![
            Condition::equals("sensorid", 15),
            Condition::equals("sensorid", 15),
        ]);
        assert_eq!(p.complexity(), 1);

        // Conditions on different columns are all kept.
        let p = ConjunctivePredicate::new(vec![
            Condition::equals("sensorid", 15),
            Condition::above("temp", 100.0),
        ]);
        assert_eq!(p.complexity(), 2);
        assert_eq!(p.columns(), vec!["sensorid".to_string(), "temp".to_string()]);
    }

    #[test]
    fn condition_subsumes() {
        assert!(Condition::above("t", 10.0).subsumes(&Condition::above("t", 20.0)));
        assert!(!Condition::above("t", 20.0).subsumes(&Condition::above("t", 10.0)));
        assert!(!Condition::above("t", 10.0).subsumes(&Condition::above("u", 20.0)));
        assert!(Condition::at_most("t", 30.0).subsumes(&Condition::between("t", 0.0, 20.0)));
        assert!(Condition::in_set("c", vec![Value::Int(1), Value::Int(2)])
            .subsumes(&Condition::equals("c", 1)));
        assert!(!Condition::in_set("c", vec![Value::Int(1)]).subsumes(&Condition::equals("c", 7)));
        assert!(Condition::equals("c", 1).subsumes(&Condition::equals("c", 1)));
        assert!(!Condition::equals("c", 1).subsumes(&Condition::equals("c", 2)));
    }

    /// Every condition and every pair, through kernels of their own and
    /// through a bitmap cache, agree with the scalar walk on every row,
    /// under three-valued logic; the cache scans each distinct condition
    /// once.
    #[test]
    fn compiled_matches_expression_three_valued_logic() {
        let t = null_heavy_table();
        let conditions = vec![
            Condition::equals("sensorid", 15),
            Condition::not_equals("sensorid", 15),
            Condition::equals("temp", 122.0),
            Condition::equals("temp", 0.0), // -0.0 vs 0.0: total_cmp says unequal
            Condition::equals("ok", true),
            Condition::not_equals("memo", "fine"),
            Condition::equals("memo", Value::str("fine")),
            Condition::equals("sensorid", Value::Null),
            Condition::above("temp", 21.0),
            Condition::at_least("temp", 21.0),
            Condition::at_most("temp", 21.0),
            Condition::between("temp", 0.0, 122.0),
            Condition::Range {
                column: "temp".into(),
                low: None,
                low_inclusive: false,
                high: None,
                high_inclusive: false,
            },
            Condition::in_set("sensorid", vec![Value::Int(3), Value::Int(15)]),
            Condition::in_set("sensorid", vec![Value::Int(3), Value::Null]),
            Condition::in_set("memo", vec![Value::str("fine"), Value::Int(7)]),
            Condition::contains("memo", "REATTRIBUTION"),
            Condition::contains("memo", ""),
            Condition::contains("memo", "reattribution"),
        ];
        let mut predicates: Vec<ConjunctivePredicate> = Vec::new();
        for c in &conditions {
            predicates.push(ConjunctivePredicate { conditions: vec![c.clone()] });
            for d in &conditions {
                predicates.push(ConjunctivePredicate { conditions: vec![c.clone(), d.clone()] });
            }
        }
        let cache = ConditionBitmapCache::new(&t);
        for p in &predicates {
            let tri = p.compile(&t).unwrap().eval_columns();
            let expr = p.to_expr();
            for r in t.row_ids() {
                assert_eq!(tri.value(r.index()), scalar(&expr, &t, r), "{p} on row {r:?}");
            }
            assert_eq!(p.matching_rows(&t), expr.filter_scalar(&t).unwrap(), "{p}");
            let via_cache = p.tri_eval(&cache, &t).unwrap();
            assert!(via_cache.trues == tri.trues && via_cache.unknowns == tri.unknowns, "{p}");
        }
        let (hits, misses) = cache.stats();
        assert_eq!(misses, conditions.len() as u64, "one kernel scan per distinct condition");
        assert!(hits > misses, "conjunctions reuse cached bitmaps");
    }

    #[test]
    fn triset_ops_follow_kleene_truth_tables() {
        // One row per (left, right) combination of {TRUE, FALSE, NULL}.
        let values = [Some(true), Some(false), None];
        let mut left = TriSet::all_false(9);
        let mut right = TriSet::all_false(9);
        for (i, (l, r)) in
            values.iter().flat_map(|l| values.iter().map(move |r| (*l, *r))).enumerate()
        {
            match l {
                Some(true) => left.trues.insert(i),
                None => left.unknowns.insert(i),
                Some(false) => {}
            }
            match r {
                Some(true) => right.trues.insert(i),
                None => right.unknowns.insert(i),
                Some(false) => {}
            }
        }
        let kleene_and = |l: Option<bool>, r: Option<bool>| match (l, r) {
            (Some(false), _) | (_, Some(false)) => Some(false),
            (Some(true), Some(true)) => Some(true),
            _ => None,
        };
        let kleene_or = |l: Option<bool>, r: Option<bool>| match (l, r) {
            (Some(true), _) | (_, Some(true)) => Some(true),
            (Some(false), Some(false)) => Some(false),
            _ => None,
        };
        let anded = &left & &right;
        let ored = &left | &right;
        let negated = !&left;
        for (i, (l, r)) in
            values.iter().flat_map(|l| values.iter().map(move |r| (*l, *r))).enumerate()
        {
            assert_eq!(anded.value(i), kleene_and(l, r), "{l:?} AND {r:?}");
            assert_eq!(ored.value(i), kleene_or(l, r), "{l:?} OR {r:?}");
            assert_eq!(negated.value(i), l.map(|b| !b), "NOT {l:?}");
        }
        // trues and unknowns stay disjoint and tail-masked.
        assert!(anded.trues.and(&anded.unknowns).is_empty());
        assert!(ored.trues.and(&ored.unknowns).is_empty());
        assert!(negated.trues.and(&negated.unknowns).is_empty());
        assert_eq!(negated.universe(), 9);
    }

    fn null_heavy_table() -> Table {
        let schema = Schema::of(&[
            ("sensorid", DataType::Int),
            ("temp", DataType::Float),
            ("ok", DataType::Bool),
            ("memo", DataType::Str),
        ]);
        let mut t = Table::new("r", schema).unwrap();
        t.push_rows(vec![
            vec![Value::Int(15), Value::Float(122.0), Value::Bool(true), Value::str("fine")],
            vec![Value::Int(15), Value::Null, Value::Bool(false), Value::str("REATTRIBUTION")],
            vec![Value::Int(3), Value::Float(21.0), Value::Null, Value::Null],
            vec![Value::Null, Value::Float(-0.0), Value::Bool(true), Value::str("Reattribution")],
            vec![Value::Int(7), Value::Float(50.0), Value::Bool(false), Value::Null],
        ])
        .unwrap();
        t
    }

    /// Boolean trees exercising NOT/OR/AND nesting, NOT IN, and literal
    /// constants over a NULL-heavy table.
    fn bool_trees() -> Vec<Expr> {
        let eq15 = || col("sensorid").eq(lit(15));
        let hot = || col("temp").gt(lit(100.0));
        let reattr = || col("memo").contains("reattribution");
        vec![
            eq15().or(hot()),
            eq15().or(hot()).not(),
            hot().not(),
            eq15().and(hot().not()).or(reattr()),
            eq15().not().and(hot().or(reattr()).not()),
            eq15().or(lit(Value::Null)),
            hot().and(lit(Value::Null)),
            hot().or(lit(true)),
            hot().and(lit(false)).or(reattr()),
            col("sensorid").not_in_list(vec![lit(3), lit(15)]),
            col("sensorid").not_in_list(vec![lit(3), lit(Value::Null)]),
            col("sensorid").in_list(vec![lit(3), lit(Value::Null)]).not(),
            col("temp").between(lit(0.0), lit(60.0)).or(col("ok").eq(lit(true))).not(),
            // A repeated leaf: the tree must still agree while scanning it
            // once.
            hot().or(hot().not()),
            eq15().and(eq15()).or(eq15().not()),
        ]
    }

    #[test]
    fn compiled_bool_expr_agrees_with_scalar_walk() {
        let t = null_heavy_table();
        for expr in bool_trees() {
            let compiled = CompiledBoolExpr::compile(&expr, &t);
            let tri = compiled.eval_columns();
            assert_eq!(tri.universe(), t.num_rows());
            assert!(tri.trues.and(&tri.unknowns).is_empty(), "{expr}: overlapping bitmaps");
            for r in t.row_ids() {
                assert_eq!(tri.value(r.index()), scalar(&expr, &t, r), "{expr} on {r}");
            }
        }
    }

    #[test]
    fn bitmap_cache_bool_expr_agrees_and_dedups_leaves() {
        let t = null_heavy_table();
        let cache = ConditionBitmapCache::new(&t);
        for expr in bool_trees() {
            let via_cache = cache.bool_expr(&t, &expr).expect("vectorizable");
            let direct = CompiledBoolExpr::compile(&expr, &t).eval_columns();
            assert!(
                via_cache.trues == direct.trues && via_cache.unknowns == direct.unknowns,
                "{expr}"
            );
        }
        let (hits, misses) = cache.stats();
        // The trees draw on a handful of distinct conditions; each costs
        // one kernel scan ever, and repeats (across and within trees) hit.
        assert!(misses <= 8, "distinct leaves only: {misses}");
        assert!(hits > misses, "repeated leaves served from cache");
    }

    /// The `AND` rule: with a left side that leaves under a quarter of the
    /// rows in play, the right side — a leaf, a subtree, a repeat of a
    /// scanned leaf — is evaluated on the survivors only, and the result
    /// is the one the whole-column fold and the scalar walk give.
    #[test]
    fn and_rule_on_a_selective_left_branch_agrees_with_scalar_walk() {
        let schema = Schema::of(&[
            ("sensorid", DataType::Int),
            ("temp", DataType::Float),
            ("memo", DataType::Str),
        ]);
        let mut t = Table::new("r", schema).unwrap();
        for i in 0..200i64 {
            t.push_row(vec![
                if i % 31 == 0 { Value::Null } else { Value::Int(i % 20) },
                if i % 7 == 0 { Value::Null } else { Value::Float(i as f64) },
                if i % 11 == 0 {
                    Value::Null
                } else {
                    Value::str(["lab", "office"][i as usize % 2])
                },
            ])
            .unwrap();
        }
        // `sensorid = 3` is TRUE or NULL on 17 of 200 rows.
        let selective = || col("sensorid").eq(lit(3));
        let hot = || col("temp").gt(lit(50.0));
        let lab = || col("memo").contains("LAB");
        for expr in [
            selective().and(hot()),
            selective().and(hot()).and(lab()),
            selective().and(hot().or(lab().not())),
            selective().and(hot().not()).or(lab()),
            col("sensorid").in_list(vec![lit(3), lit(Value::Null)]).and(hot()),
            selective().and(lit(Value::Null)).and(hot()),
            selective().and(selective().not().or(hot())),
            hot().and(selective()).and(lab()),
        ] {
            let compiled = CompiledBoolExpr::compile(&expr, &t);
            let tri = compiled.eval_columns();
            // The same fold over bitmaps computed elsewhere agrees.
            let cached = ConditionBitmapCache::new(&t).bool_expr(&t, &expr).unwrap();
            assert!(tri.trues == cached.trues && tri.unknowns == cached.unknowns, "{expr}");
            for r in t.row_ids() {
                assert_eq!(tri.value(r.index()), scalar(&expr, &t, r), "{expr} on {r}");
            }
            // Under a suffix selection — an append absorb's filter — the
            // TRUE rows are the scalar walk's from there on.
            for from in [0, 1, 63, 64, 150, 199, 200] {
                let within = compiled.try_eval(from).unwrap().trues;
                let want = (from..t.num_rows()).filter(|&i| tri.value(i) == Some(true));
                assert_eq!(within.iter().collect::<Vec<_>>(), want.collect::<Vec<_>>(), "{expr}");
            }
        }
    }

    /// A leaf that appears twice — once under a selective `AND`, where it
    /// is scanned on the surviving rows only, and once on its own — is one
    /// leaf: the restricted scan must not be kept as its column, or the
    /// second occurrence would read rows it never visited.
    #[test]
    fn a_deduplicated_leaf_is_exact_under_a_selection_and_outside_one() {
        let schema = Schema::of(&[("id", DataType::Int), ("memo", DataType::Str)]);
        let mut t = Table::new("m", schema).unwrap();
        for i in 0..300i64 {
            t.push_row(vec![
                if i % 13 == 0 { Value::Null } else { Value::Int(i % 8) },
                match i % 5 {
                    0 => Value::Null,
                    1 | 2 => Value::str("x marks"),
                    _ => Value::str("plain"),
                },
            ])
            .unwrap();
        }
        let id3 = || col("id").eq(lit(3));
        let has_x = || col("memo").contains("x");
        let expr = id3().and(has_x()).or(has_x());
        let compiled = CompiledBoolExpr::compile(&expr, &t);
        assert_eq!(compiled.leaves.len(), 2, "the two CONTAINS leaves are one");
        let live = compiled.eval_columns();
        let passing = t.row_ids().filter(|&r| scalar(&id3(), &t, r) != Some(false)).count();
        assert!(passing * 4 < t.num_rows(), "id = 3 leaves {passing} rows in play");
        // Twice: the second fold reads the columns the first one kept.
        for tri in [live, compiled.eval_columns()] {
            for r in t.row_ids() {
                assert_eq!(tri.value(r.index()), scalar(&expr, &t, r), "{expr} on {r}");
            }
        }
    }

    /// What one ranking costs the snapshot's cache: a miss per distinct
    /// condition (the warm-up pass), then one hit per distinct leaf of each
    /// candidate — no more for a conjunction than for an `Expr` tree.
    #[test]
    fn ranking_lookups_are_one_per_distinct_leaf() {
        let t = null_heavy_table();
        let eq15 = Condition::equals("sensorid", 15);
        let hot = Condition::above("temp", 100.0);
        let reattr = Condition::contains("memo", "reattribution");
        let conj = |cs: &[&Condition]| {
            ConjunctivePredicate::new(cs.iter().map(|c| (*c).clone()).collect())
        };
        let conjunctions =
            vec![conj(&[&eq15]), conj(&[&eq15, &hot]), conj(&[&hot, &reattr, &eq15])];
        let (e, h, r) = (eq15.to_expr(), hot.to_expr(), reattr.to_expr());
        let trees = vec![
            e.clone().and(h.clone()).or(h.clone().and(r)),
            e.clone().not(),
            e.or(h.clone()).and(h.not()),
        ];
        let cache = ConditionBitmapCache::new(&t);
        // The ranker's warm-up: every condition of every candidate, in order.
        for c in conjunctions.iter().flat_map(|p| p.conditions()) {
            cache.condition(&t, c).unwrap();
        }
        assert_eq!(cache.stats(), (3, 3), "6 warm-up lookups of 3 distinct conditions");
        for p in &conjunctions {
            p.tri_eval(&cache, &t).unwrap();
        }
        assert_eq!(cache.stats(), (9, 3), "1 + 2 + 3 conjunct lookups");
        for expr in &trees {
            cache.bool_expr(&t, expr).unwrap();
        }
        assert_eq!(cache.stats(), (15, 3), "3 + 1 + 2 distinct tree leaves");
    }

    /// A thread that panics while holding the cache's lock must not take
    /// every later lookup down with it: the map only holds complete
    /// entries, so the poisoned guard is recovered.
    #[test]
    fn poisoned_cache_lock_still_serves_correct_bitmaps() {
        let t = table();
        let cache = ConditionBitmapCache::new(&t);
        let eq15 = Condition::equals("sensorid", 15);
        cache.condition(&t, &eq15).unwrap();
        std::thread::scope(|scope| {
            let poisoner = scope.spawn(|| {
                let _guard = cache.entries.lock().unwrap();
                panic!("poisoning the bitmap cache lock");
            });
            assert!(poisoner.join().is_err());
        });
        assert!(cache.entries.is_poisoned());
        let hit = cache.condition(&t, &eq15).expect("hit path recovers the guard");
        assert_eq!(hit.trues.to_row_ids(), vec![RowId(0), RowId(1)]);
        let miss =
            cache.condition(&t, &Condition::above("temp", 100.0)).expect("miss path recovers too");
        assert_eq!(miss.trues.to_row_ids(), vec![RowId(0), RowId(1)]);
        assert_eq!(cache.stats(), (1, 2));
        let both = ConjunctivePredicate::new(vec![eq15, Condition::above("temp", 120.0)]);
        let tri = both.tri_eval(&cache, &t).unwrap();
        assert_eq!(tri.trues.to_row_ids(), vec![RowId(0)]);
    }

    #[test]
    fn compiled_bool_expr_handles_empty_tables() {
        let schema = Schema::of(&[("a", DataType::Int)]);
        let t = Table::new("empty", schema).unwrap();
        let expr = col("a").eq(lit(1)).or(col("a").gt(lit(2)).not());
        let tri = CompiledBoolExpr::compile(&expr, &t).eval_columns();
        assert_eq!(tri.universe(), 0);
        assert!(tri.trues.is_empty() && tri.unknowns.is_empty());
    }

    /// Trees outside the kernels' grammar compile too, with row leaves,
    /// and agree with the walk: the same verdict on every row it
    /// evaluates, FALSE where it fails, and the same rows or error through
    /// either filter.
    #[test]
    fn out_of_grammar_trees_compile_and_agree_with_the_walk() {
        let t = null_heavy_table();
        for expr in [
            col("temp").is_null(),
            col("temp").is_not_null().or(col("sensorid").eq(lit(15))),
            col("temp").add(lit(1.0)).gt(lit(2.0)),
            col("temp").gt(col("sensorid")),
            col("memo").lt(lit("z")).not(),
            Expr::Column("ok".into()),
            col("sensorid").eq(lit(15)).or(lit(7)),
            col("memo").eq(lit(4)).or(col("sensorid").eq(lit(15))),
        ] {
            let compiled = CompiledBoolExpr::compile(&expr, &t);
            assert!(compiled.leaves.iter().any(|l| matches!(l, LeafSource::Rows { .. })), "{expr}");
            let tri = compiled.eval_columns();
            for r in t.row_ids() {
                let walked = expr.eval(&t, r).map_or(Some(false), |v| v.as_bool());
                assert_eq!(tri.value(r.index()), walked, "{expr} on {r}");
            }
            let walked = expr.filter_scalar(&t).map_err(|e| e.to_string());
            for rows in [expr.filter(&t), expr.filter_set(&t).map(|rows| rows.to_row_ids())] {
                assert_eq!(rows.map_err(|e| e.to_string()), walked, "{expr}");
            }
        }
    }

    /// A condition mistyped for the schema, or on a column the table lacks,
    /// is no kernel: it is walked row by row, a row it fails on is a
    /// non-match, and scoring it fails with the walk's error.
    #[test]
    fn bitmap_cache_bypasses_on_version_mismatch_and_walks_mistyped_leaves() {
        let t = table();
        let cache = ConditionBitmapCache::new(&t);
        assert!(cache.covers(&t));
        assert_eq!(cache.num_rows(), t.num_rows());
        for bad in [
            Condition::equals("temp", Value::str("x")),
            Condition::equals("memo", 4),
            Condition::above("memo", 1.0),
            Condition::contains("temp", "x"),
            Condition::equals("missing", 1),
        ] {
            assert!(cache.condition(&t, &bad).is_none(), "{bad}");
            let p = ConjunctivePredicate::new(vec![Condition::equals("sensorid", 15), bad]);
            let walked = p.to_expr().filter_scalar(&t).unwrap_err().to_string();
            assert_eq!(p.tri_eval(&cache, &t).unwrap_err().to_string(), walked, "{p}");
            assert!(p.compile(&t).unwrap().eval_columns().trues.is_empty(), "{p}");
            assert!(p.matching_rows(&t).is_empty(), "{p}");
        }
        // Appending to the table bumps the version: the stale cache computes
        // fresh results (still correct) without serving stored bitmaps.
        let mut t2 = t.clone();
        t2.push_row(vec![Value::Int(3), Value::Float(1.0), Value::Float(2.5), Value::str("ok")])
            .unwrap();
        assert!(!cache.covers(&t2));
        let p = ConjunctivePredicate::new(vec![Condition::equals("sensorid", 15)]);
        let (h0, m0) = cache.stats();
        let tri = p.tri_eval(&cache, &t2).expect("well-typed");
        assert_eq!(cache.stats(), (h0, m0), "bypassed lookups leave the counters alone");
        assert_eq!(tri.trues.to_row_ids(), vec![RowId(0), RowId(1)]);
        // Global counters only ever grow.
        let (gh, gm) = ConditionBitmapCache::global_stats();
        let _ = p.tri_eval(&cache, &t);
        let (gh2, gm2) = ConditionBitmapCache::global_stats();
        assert!(gh2 + gm2 > gh + gm);
    }

    #[test]
    fn expr_and_conjunction_front_ends_compile_alike() {
        let t = table();
        let same = |a: &TriSet, b: &TriSet| a.trues == b.trues && a.unknowns == b.unknowns;
        let shapes = vec![
            ConjunctivePredicate::always_true(),
            ConjunctivePredicate::new(vec![Condition::equals("sensorid", 15)]),
            ConjunctivePredicate::new(vec![
                Condition::equals("sensorid", 15),
                Condition::above("temp", 120.0),
            ]),
            ConjunctivePredicate::new(vec![
                Condition::between("temp", 10.0, 130.0),
                Condition::not_equals("memo", "ok"),
            ]),
            ConjunctivePredicate::new(vec![Condition::in_set(
                "sensorid",
                vec![Value::Int(3), Value::Int(7)],
            )]),
            ConjunctivePredicate::new(vec![Condition::contains("memo", "spouse")]),
            ConjunctivePredicate::new(vec![Condition::at_most("voltage", 2.5)]),
        ];
        for p in shapes {
            let direct = p.compile(&t).unwrap().eval_columns();
            let via_expr = CompiledBoolExpr::compile(&p.to_expr(), &t).eval_columns();
            assert!(same(&direct, &via_expr), "{p}");
            assert_eq!(p.matching_rows(&t), p.to_expr().filter_scalar(&t).unwrap(), "{p}");
        }
        // A mirrored comparison (literal on the left) flips the operator.
        let mirrored = CompiledBoolExpr::compile(&lit(120.0).lt(col("temp")), &t);
        let above = ConjunctivePredicate::new(vec![Condition::above("temp", 120.0)]);
        assert!(same(&mirrored.eval_columns(), &above.compile(&t).unwrap().eval_columns()));
    }

    #[test]
    fn canonical_key_ignores_conjunct_order() {
        let a_and_b = ConjunctivePredicate::new(vec![
            Condition::equals("sensorid", 15),
            Condition::above("temp", 100.0),
        ]);
        let b_and_a = ConjunctivePredicate::new(vec![
            Condition::above("temp", 100.0),
            Condition::equals("sensorid", 15),
        ]);
        assert_ne!(a_and_b.to_string(), b_and_a.to_string());
        assert_eq!(a_and_b.canonical_key(), b_and_a.canonical_key());
        // Different predicates keep different keys.
        let other = ConjunctivePredicate::new(vec![Condition::equals("sensorid", 3)]);
        assert_ne!(a_and_b.canonical_key(), other.canonical_key());
        assert_eq!(ConjunctivePredicate::always_true().canonical_key(), "");
    }

    #[test]
    fn with_extends_predicate() {
        let p = ConjunctivePredicate::always_true()
            .with(Condition::equals("sensorid", 15))
            .with(Condition::at_least("voltage", 2.0));
        assert_eq!(p.complexity(), 2);
        let t = table();
        assert_eq!(p.matching_rows(&t), vec![RowId(0), RowId(1)]);
    }

    #[test]
    fn range_to_expr_handles_open_ends() {
        let t = table();
        assert_eq!(Condition::at_most("temp", 22.0).to_expr().filter(&t).unwrap(), vec![RowId(2)]);
        assert_eq!(
            Condition::at_least("temp", 119.0).to_expr().filter(&t).unwrap(),
            vec![RowId(0), RowId(1)]
        );
        let unbounded = Condition::Range {
            column: "temp".into(),
            low: None,
            low_inclusive: false,
            high: None,
            high_inclusive: false,
        };
        assert_eq!(unbounded.to_expr().filter(&t).unwrap().len(), 4);
        assert_eq!(unbounded.to_string(), "temp IS NOT NULL");
    }
}

//! Scalar expressions and filters over table rows.
//!
//! Expressions are the shared language between the SQL engine (WHERE
//! clauses, aggregate arguments), the provenance backend (exclusion
//! predicates produced by the Predicate Enumerator) and the dashboard
//! (query rewriting when a ranked predicate is clicked).
//!
//! Evaluation follows SQL three-valued logic: comparisons involving NULL
//! produce NULL, `AND`/`OR` propagate unknowns, and a WHERE filter keeps a
//! row only when the predicate evaluates to `TRUE` (not NULL).

use crate::error::StorageError;
use crate::predicate::{CompiledBoolExpr, RowFailed};
use crate::rowset::RowSet;
use crate::table::{RowId, Table};
use crate::value::{DataType, Value};
use std::fmt;

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    /// Equality (`=`).
    Eq,
    /// Inequality (`<>`).
    NotEq,
    /// Less than (`<`).
    Lt,
    /// Less than or equal (`<=`).
    LtEq,
    /// Greater than (`>`).
    Gt,
    /// Greater than or equal (`>=`).
    GtEq,
    /// Logical conjunction.
    And,
    /// Logical disjunction.
    Or,
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
}

impl BinaryOp {
    /// True for comparison operators producing booleans.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinaryOp::Eq
                | BinaryOp::NotEq
                | BinaryOp::Lt
                | BinaryOp::LtEq
                | BinaryOp::Gt
                | BinaryOp::GtEq
        )
    }

    /// True for boolean connectives.
    pub fn is_logical(self) -> bool {
        matches!(self, BinaryOp::And | BinaryOp::Or)
    }

    /// SQL spelling of the operator.
    pub fn sql(self) -> &'static str {
        match self {
            BinaryOp::Eq => "=",
            BinaryOp::NotEq => "<>",
            BinaryOp::Lt => "<",
            BinaryOp::LtEq => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::GtEq => ">=",
            BinaryOp::And => "AND",
            BinaryOp::Or => "OR",
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
        }
    }
}

impl fmt::Display for BinaryOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.sql())
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// Logical negation.
    Not,
    /// Arithmetic negation.
    Neg,
    /// `IS NULL` test.
    IsNull,
    /// `IS NOT NULL` test.
    IsNotNull,
}

/// A scalar expression evaluated against a single row of a table.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Reference to a column by name.
    Column(String),
    /// A constant value.
    Literal(Value),
    /// A binary operation.
    Binary {
        /// Operator.
        op: BinaryOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// A unary operation.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// `expr BETWEEN low AND high` (inclusive on both ends).
    Between {
        /// Tested expression.
        expr: Box<Expr>,
        /// Lower bound.
        low: Box<Expr>,
        /// Upper bound.
        high: Box<Expr>,
    },
    /// `expr IN (v1, v2, ...)`.
    InList {
        /// Tested expression.
        expr: Box<Expr>,
        /// Candidate values.
        list: Vec<Expr>,
        /// True for `NOT IN`.
        negated: bool,
    },
    /// Case-insensitive substring containment test on strings
    /// (`memo CONTAINS 'REATTRIBUTION'`), the string predicate DBWipes'
    /// decision trees emit for text attributes.
    Contains {
        /// Expression producing the haystack string.
        expr: Box<Expr>,
        /// Needle to search for.
        pattern: String,
    },
}

/// Builds a column reference expression.
pub fn col(name: impl Into<String>) -> Expr {
    Expr::Column(name.into())
}

/// Builds a literal expression.
pub fn lit(value: impl Into<Value>) -> Expr {
    Expr::Literal(value.into())
}

impl Expr {
    fn binary(self, op: BinaryOp, rhs: Expr) -> Expr {
        Expr::Binary { op, left: Box::new(self), right: Box::new(rhs) }
    }

    /// `self = rhs`
    pub fn eq(self, rhs: Expr) -> Expr {
        self.binary(BinaryOp::Eq, rhs)
    }
    /// `self <> rhs`
    pub fn not_eq(self, rhs: Expr) -> Expr {
        self.binary(BinaryOp::NotEq, rhs)
    }
    /// `self < rhs`
    pub fn lt(self, rhs: Expr) -> Expr {
        self.binary(BinaryOp::Lt, rhs)
    }
    /// `self <= rhs`
    pub fn lt_eq(self, rhs: Expr) -> Expr {
        self.binary(BinaryOp::LtEq, rhs)
    }
    /// `self > rhs`
    pub fn gt(self, rhs: Expr) -> Expr {
        self.binary(BinaryOp::Gt, rhs)
    }
    /// `self >= rhs`
    pub fn gt_eq(self, rhs: Expr) -> Expr {
        self.binary(BinaryOp::GtEq, rhs)
    }
    /// `self AND rhs`
    pub fn and(self, rhs: Expr) -> Expr {
        self.binary(BinaryOp::And, rhs)
    }
    /// `self OR rhs`
    pub fn or(self, rhs: Expr) -> Expr {
        self.binary(BinaryOp::Or, rhs)
    }
    /// `self IS NULL`
    pub fn is_null(self) -> Expr {
        Expr::Unary { op: UnaryOp::IsNull, expr: Box::new(self) }
    }
    /// `self IS NOT NULL`
    pub fn is_not_null(self) -> Expr {
        Expr::Unary { op: UnaryOp::IsNotNull, expr: Box::new(self) }
    }
    /// `self BETWEEN low AND high`
    pub fn between(self, low: Expr, high: Expr) -> Expr {
        Expr::Between { expr: Box::new(self), low: Box::new(low), high: Box::new(high) }
    }
    /// `self IN (list...)`
    pub fn in_list(self, list: Vec<Expr>) -> Expr {
        Expr::InList { expr: Box::new(self), list, negated: false }
    }
    /// `self NOT IN (list...)`
    pub fn not_in_list(self, list: Vec<Expr>) -> Expr {
        Expr::InList { expr: Box::new(self), list, negated: true }
    }
    /// `self CONTAINS pattern` (case-insensitive substring match).
    pub fn contains(self, pattern: impl Into<String>) -> Expr {
        Expr::Contains { expr: Box::new(self), pattern: pattern.into() }
    }

    /// Collects the distinct column names referenced by the expression,
    /// in first-appearance order.
    pub fn columns(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out
    }

    fn collect_columns(&self, out: &mut Vec<String>) {
        match self {
            Expr::Column(name) => {
                if !out.iter().any(|n| n.eq_ignore_ascii_case(name)) {
                    out.push(name.clone());
                }
            }
            Expr::Literal(_) => {}
            Expr::Binary { left, right, .. } => {
                left.collect_columns(out);
                right.collect_columns(out);
            }
            Expr::Unary { expr, .. } => expr.collect_columns(out),
            Expr::Between { expr, low, high } => {
                expr.collect_columns(out);
                low.collect_columns(out);
                high.collect_columns(out);
            }
            Expr::InList { expr, list, .. } => {
                expr.collect_columns(out);
                for e in list {
                    e.collect_columns(out);
                }
            }
            Expr::Contains { expr, .. } => expr.collect_columns(out),
        }
    }

    /// Levels of the tree: 1 for a column or literal, one more than the
    /// deepest operand otherwise.
    pub fn depth(&self) -> usize {
        1 + match self {
            Expr::Column(_) | Expr::Literal(_) => 0,
            Expr::Binary { left, right, .. } => left.depth().max(right.depth()),
            Expr::Unary { expr, .. } | Expr::Contains { expr, .. } => expr.depth(),
            Expr::Between { expr, low, high } => expr.depth().max(low.depth()).max(high.depth()),
            Expr::InList { expr, list, .. } => {
                list.iter().map(Expr::depth).fold(expr.depth(), usize::max)
            }
        }
    }

    /// Validates the expression against a schema, returning the type it
    /// produces. Unknown columns and obviously ill-typed operations are
    /// reported before any row is evaluated.
    pub fn validate(&self, schema: &crate::schema::Schema) -> Result<DataType, StorageError> {
        match self {
            Expr::Column(name) => {
                let idx = schema.resolve(name)?;
                Ok(schema.field_at(idx).expect("resolved").dtype)
            }
            Expr::Literal(v) => Ok(v.data_type()),
            Expr::Binary { op, left, right } => {
                let lt = left.validate(schema)?;
                let rt = right.validate(schema)?;
                if op.is_logical() {
                    for (side, t) in [("left", lt), ("right", rt)] {
                        if !matches!(t, DataType::Bool | DataType::Null) {
                            return Err(StorageError::TypeMismatch {
                                expected: "bool".into(),
                                found: t,
                                context: format!("{side} operand of {op}"),
                            });
                        }
                    }
                    Ok(DataType::Bool)
                } else if op.is_comparison() {
                    if DataType::unify(lt, rt).is_none() {
                        return Err(StorageError::TypeMismatch {
                            expected: lt.name().into(),
                            found: rt,
                            context: format!("comparison {op}"),
                        });
                    }
                    Ok(DataType::Bool)
                } else {
                    for t in [lt, rt] {
                        if !t.is_numeric() && t != DataType::Null {
                            return Err(StorageError::TypeMismatch {
                                expected: "numeric".into(),
                                found: t,
                                context: format!("arithmetic {op}"),
                            });
                        }
                    }
                    Ok(DataType::unify(lt, rt).unwrap_or(DataType::Float))
                }
            }
            Expr::Unary { op, expr } => {
                let t = expr.validate(schema)?;
                match op {
                    UnaryOp::Not => Ok(DataType::Bool),
                    UnaryOp::Neg => {
                        if t.is_numeric() || t == DataType::Null {
                            Ok(if t == DataType::Null { DataType::Float } else { t })
                        } else {
                            Err(StorageError::TypeMismatch {
                                expected: "numeric".into(),
                                found: t,
                                context: "unary minus".into(),
                            })
                        }
                    }
                    UnaryOp::IsNull | UnaryOp::IsNotNull => Ok(DataType::Bool),
                }
            }
            Expr::Between { expr, low, high } => {
                expr.validate(schema)?;
                low.validate(schema)?;
                high.validate(schema)?;
                Ok(DataType::Bool)
            }
            Expr::InList { expr, list, .. } => {
                expr.validate(schema)?;
                for e in list {
                    e.validate(schema)?;
                }
                Ok(DataType::Bool)
            }
            Expr::Contains { expr, .. } => {
                let t = expr.validate(schema)?;
                if t != DataType::Str && t != DataType::Null {
                    return Err(StorageError::TypeMismatch {
                        expected: "str".into(),
                        found: t,
                        context: "CONTAINS".into(),
                    });
                }
                Ok(DataType::Bool)
            }
        }
    }

    /// Evaluates the expression against row `row` of `table`.
    pub fn eval(&self, table: &Table, row: RowId) -> Result<Value, StorageError> {
        match self {
            Expr::Column(name) => table.value_by_name(row, name),
            Expr::Literal(v) => Ok(v.clone()),
            Expr::Binary { op, left, right } => {
                let l = left.eval(table, row)?;
                let r = right.eval(table, row)?;
                eval_binary(*op, &l, &r)
            }
            Expr::Unary { op, expr } => {
                let v = expr.eval(table, row)?;
                match op {
                    UnaryOp::Not => Ok(match v {
                        Value::Null => Value::Null,
                        Value::Bool(b) => Value::Bool(!b),
                        other => {
                            return Err(StorageError::Eval(format!(
                                "NOT applied to non-boolean {other}"
                            )))
                        }
                    }),
                    UnaryOp::Neg => match v {
                        Value::Null => Ok(Value::Null),
                        Value::Int(i) => Ok(Value::Int(-i)),
                        Value::Float(f) => Ok(Value::Float(-f)),
                        other => Err(StorageError::Eval(format!("cannot negate {other}"))),
                    },
                    UnaryOp::IsNull => Ok(Value::Bool(v.is_null())),
                    UnaryOp::IsNotNull => Ok(Value::Bool(!v.is_null())),
                }
            }
            Expr::Between { expr, low, high } => {
                let v = expr.eval(table, row)?;
                let lo = low.eval(table, row)?;
                let hi = high.eval(table, row)?;
                let ge = eval_binary(BinaryOp::GtEq, &v, &lo)?;
                let le = eval_binary(BinaryOp::LtEq, &v, &hi)?;
                eval_binary(BinaryOp::And, &ge, &le)
            }
            Expr::InList { expr, list, negated } => {
                let v = expr.eval(table, row)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                let mut saw_null = false;
                let mut found = false;
                for item in list {
                    let iv = item.eval(table, row)?;
                    if iv.is_null() {
                        saw_null = true;
                    } else if iv == v {
                        found = true;
                        break;
                    }
                }
                let result = if found {
                    Value::Bool(true)
                } else if saw_null {
                    Value::Null
                } else {
                    Value::Bool(false)
                };
                Ok(match (result, negated) {
                    (Value::Bool(b), true) => Value::Bool(!b),
                    (v, _) => v,
                })
            }
            Expr::Contains { expr, pattern } => {
                let v = expr.eval(table, row)?;
                match v {
                    Value::Null => Ok(Value::Null),
                    Value::Str(s) => Ok(Value::Bool(
                        s.to_ascii_lowercase().contains(&pattern.to_ascii_lowercase()),
                    )),
                    other => Err(StorageError::Eval(format!("CONTAINS applied to {other}"))),
                }
            }
        }
    }

    /// Evaluates the expression as a filter: returns `true` only when the
    /// expression evaluates to boolean `TRUE` (SQL semantics — NULL rows are
    /// filtered out).
    pub fn matches(&self, table: &Table, row: RowId) -> Result<bool, StorageError> {
        Ok(matches!(self.eval(table, row)?, Value::Bool(true)))
    }

    /// Returns the ids of the rows satisfying the filter, through the
    /// one compiled form ([`crate::predicate::CompiledBoolExpr`]): typed
    /// column kernels for the per-attribute comparisons, a row walk for
    /// any other leaf, folded with `AND`/`OR`/`NOT`. The rows — or the
    /// error — are identical, bit for bit, to [`Expr::filter_scalar`]'s.
    pub fn filter(&self, table: &Table) -> Result<Vec<RowId>, StorageError> {
        Ok(self.filter_bitmap(table, 0)?.to_row_ids())
    }

    /// [`Expr::filter`]'s rows from row `from` on, as a bitmap over the
    /// table's rows, for a caller that only iterates them: no row list is
    /// built. `from` is 0 for a whole table and the old row count for the
    /// rows an append added; the compiled tree is then folded with those
    /// rows as its selection and its row leaves walk only them, so the
    /// cost follows the rows asked about. Fails exactly when the scalar
    /// walk of those rows does, with its error. Unlike
    /// [`Expr::filter_set`] it caches nothing on the snapshot.
    pub fn filter_bitmap(&self, table: &Table, from: usize) -> Result<RowSet, StorageError> {
        let tri = CompiledBoolExpr::compile(self, table).try_eval(from);
        Ok(tri.map_err(|RowFailed| self.first_error(table, from))?.trues)
    }

    /// [`Expr::filter`] as a bitmap over the table's rows, folded
    /// from the snapshot's shared condition bitmaps
    /// ([`Table::condition_bitmaps`]): a leaf that a ranking over this
    /// snapshot already scanned — every condition of a predicate the
    /// analyst can click — is a lookup, not a scan. The same rows, or the
    /// same error, as `filter`.
    pub fn filter_set(&self, table: &Table) -> Result<RowSet, StorageError> {
        Ok(table.condition_bitmaps().bool_expr(table, self)?.trues)
    }

    /// A per-row three-valued walk of the whole table — the oracle the
    /// tests pin the compiled filter against; nothing else calls it.
    pub fn filter_scalar(&self, table: &Table) -> Result<Vec<RowId>, StorageError> {
        let mut out = Vec::new();
        for rid in table.row_ids() {
            if self.matches(table, rid)? {
                out.push(rid);
            }
        }
        Ok(out)
    }

    /// The error a filter of the rows from `from` on stops at, walking them
    /// in scan order: asked for only once the compiled form found a row it
    /// fails on, so it never returns rows.
    pub(crate) fn first_error(&self, table: &Table, from: usize) -> StorageError {
        (from..table.num_rows())
            .find_map(|row| self.matches(table, RowId(row)).err())
            .expect("the walk fails on the row the compiled form failed on")
    }

    /// Conjoins a list of expressions, returning `None` for an empty list.
    pub fn conjunction(exprs: Vec<Expr>) -> Option<Expr> {
        exprs.into_iter().reduce(|a, b| a.and(b))
    }
}

// The arithmetic and logical-negation builders are real operator-trait
// impls, so `col("a") + lit(1)` and `!expr` build AST nodes with plain
// operator syntax.

/// `self + rhs` (builds the AST node; SQL typing applies at eval time).
impl std::ops::Add for Expr {
    type Output = Expr;
    fn add(self, rhs: Expr) -> Expr {
        self.binary(BinaryOp::Add, rhs)
    }
}

/// `self - rhs`
impl std::ops::Sub for Expr {
    type Output = Expr;
    fn sub(self, rhs: Expr) -> Expr {
        self.binary(BinaryOp::Sub, rhs)
    }
}

/// `self * rhs`
impl std::ops::Mul for Expr {
    type Output = Expr;
    fn mul(self, rhs: Expr) -> Expr {
        self.binary(BinaryOp::Mul, rhs)
    }
}

/// `self / rhs`
impl std::ops::Div for Expr {
    type Output = Expr;
    fn div(self, rhs: Expr) -> Expr {
        self.binary(BinaryOp::Div, rhs)
    }
}

/// `-self`
impl std::ops::Neg for Expr {
    type Output = Expr;
    fn neg(self) -> Expr {
        Expr::Unary { op: UnaryOp::Neg, expr: Box::new(self) }
    }
}

/// `NOT self`
impl std::ops::Not for Expr {
    type Output = Expr;
    fn not(self) -> Expr {
        Expr::Unary { op: UnaryOp::Not, expr: Box::new(self) }
    }
}

fn eval_binary(op: BinaryOp, l: &Value, r: &Value) -> Result<Value, StorageError> {
    use BinaryOp::*;
    if op.is_logical() {
        // SQL three-valued logic.
        let lb = logical_operand(l)?;
        let rb = logical_operand(r)?;
        return Ok(match op {
            And => match (lb, rb) {
                (Some(false), _) | (_, Some(false)) => Value::Bool(false),
                (Some(true), Some(true)) => Value::Bool(true),
                _ => Value::Null,
            },
            Or => match (lb, rb) {
                (Some(true), _) | (_, Some(true)) => Value::Bool(true),
                (Some(false), Some(false)) => Value::Bool(false),
                _ => Value::Null,
            },
            _ => unreachable!(),
        });
    }
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    if op.is_comparison() {
        let ord = compare(l, r)?;
        let b = match op {
            Eq => ord == std::cmp::Ordering::Equal,
            NotEq => ord != std::cmp::Ordering::Equal,
            Lt => ord == std::cmp::Ordering::Less,
            LtEq => ord != std::cmp::Ordering::Greater,
            Gt => ord == std::cmp::Ordering::Greater,
            GtEq => ord != std::cmp::Ordering::Less,
            _ => unreachable!(),
        };
        return Ok(Value::Bool(b));
    }
    // Arithmetic.
    match (l, r) {
        (Value::Int(a), Value::Int(b)) => match op {
            Add => Ok(Value::Int(a.wrapping_add(*b))),
            Sub => Ok(Value::Int(a.wrapping_sub(*b))),
            Mul => Ok(Value::Int(a.wrapping_mul(*b))),
            Div => {
                if *b == 0 {
                    Err(StorageError::Eval("division by zero".into()))
                } else {
                    Ok(Value::Int(a / b))
                }
            }
            _ => unreachable!(),
        },
        _ => {
            let (a, b) = match (l.as_f64(), r.as_f64()) {
                (Some(a), Some(b)) => (a, b),
                _ => {
                    return Err(StorageError::Eval(format!(
                        "arithmetic {op} on non-numeric operands {l} and {r}"
                    )))
                }
            };
            let v = match op {
                Add => a + b,
                Sub => a - b,
                Mul => a * b,
                Div => {
                    if b == 0.0 {
                        return Err(StorageError::Eval("division by zero".into()));
                    }
                    a / b
                }
                _ => unreachable!(),
            };
            Ok(Value::Float(v))
        }
    }
}

fn logical_operand(v: &Value) -> Result<Option<bool>, StorageError> {
    match v {
        Value::Null => Ok(None),
        Value::Bool(b) => Ok(Some(*b)),
        other => Err(StorageError::Eval(format!("boolean operator applied to {other}"))),
    }
}

fn compare(l: &Value, r: &Value) -> Result<std::cmp::Ordering, StorageError> {
    match (l, r) {
        (Value::Str(a), Value::Str(b)) => Ok(a.cmp(b)),
        (Value::Bool(a), Value::Bool(b)) => Ok(a.cmp(b)),
        (Value::Str(_), _) | (_, Value::Str(_)) | (Value::Bool(_), _) | (_, Value::Bool(_)) => {
            Err(StorageError::Eval(format!("cannot compare {l} with {r}")))
        }
        _ => {
            let a = l.as_f64().expect("numeric");
            let b = r.as_f64().expect("numeric");
            Ok(a.total_cmp(&b))
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column(name) => f.write_str(name),
            Expr::Literal(v) => f.write_str(&v.to_sql_literal()),
            Expr::Binary { op, left, right } => {
                if op.is_logical() {
                    write!(f, "({left} {op} {right})")
                } else {
                    write!(f, "{left} {op} {right}")
                }
            }
            Expr::Unary { op, expr } => match op {
                UnaryOp::Not => write!(f, "NOT ({expr})"),
                UnaryOp::Neg => write!(f, "-({expr})"),
                UnaryOp::IsNull => write!(f, "{expr} IS NULL"),
                UnaryOp::IsNotNull => write!(f, "{expr} IS NOT NULL"),
            },
            Expr::Between { expr, low, high } => write!(f, "{expr} BETWEEN {low} AND {high}"),
            Expr::InList { expr, list, negated } => {
                let items: Vec<String> = list.iter().map(|e| e.to_string()).collect();
                write!(f, "{expr} {}IN ({})", if *negated { "NOT " } else { "" }, items.join(", "))
            }
            Expr::Contains { expr, pattern } => {
                write!(f, "{expr} LIKE '%{}%'", pattern.replace('\'', "''"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::value::DataType;
    use std::ops::{Add as _, Div as _, Mul as _, Neg as _, Not as _, Sub as _};

    fn table() -> Table {
        let schema = Schema::of(&[
            ("sensorid", DataType::Int),
            ("temp", DataType::Float),
            ("memo", DataType::Str),
            ("ok", DataType::Bool),
        ]);
        let mut t = Table::new("t", schema).unwrap();
        t.push_rows(vec![
            vec![Value::Int(1), Value::Float(20.0), Value::str("normal"), Value::Bool(true)],
            vec![
                Value::Int(15),
                Value::Float(120.0),
                Value::str("REATTRIBUTION TO SPOUSE"),
                Value::Bool(false),
            ],
            vec![Value::Int(3), Value::Null, Value::str("refund issued"), Value::Bool(true)],
        ])
        .unwrap();
        t
    }

    #[test]
    fn comparisons_and_filter() {
        let t = table();
        let p = col("temp").gt(lit(100.0));
        assert_eq!(p.filter(&t).unwrap(), vec![RowId(1)]);
        // NULL temp row is excluded, not an error.
        let p = col("temp").lt_eq(lit(200.0));
        assert_eq!(p.filter(&t).unwrap(), vec![RowId(0), RowId(1)]);
    }

    #[test]
    fn three_valued_logic() {
        let t = table();
        // NULL AND false => false; NULL AND true => NULL.
        let null_cmp = col("temp").gt(lit(0.0)); // NULL on row 2
        let and_false = null_cmp.clone().and(lit(false));
        assert_eq!(and_false.eval(&t, RowId(2)).unwrap(), Value::Bool(false));
        let and_true = null_cmp.clone().and(lit(true));
        assert_eq!(and_true.eval(&t, RowId(2)).unwrap(), Value::Null);
        let or_true = null_cmp.clone().or(lit(true));
        assert_eq!(or_true.eval(&t, RowId(2)).unwrap(), Value::Bool(true));
        let or_false = null_cmp.or(lit(false));
        assert_eq!(or_false.eval(&t, RowId(2)).unwrap(), Value::Null);
        // NOT NULL => NULL
        let not_null = col("temp").gt(lit(0.0)).not();
        assert_eq!(not_null.eval(&t, RowId(2)).unwrap(), Value::Null);
    }

    #[test]
    fn arithmetic_and_division_by_zero() {
        let t = table();
        let e = col("temp").mul(lit(2)).add(lit(1.0));
        assert_eq!(e.eval(&t, RowId(0)).unwrap(), Value::Float(41.0));
        let e = col("sensorid").add(lit(1));
        assert_eq!(e.eval(&t, RowId(0)).unwrap(), Value::Int(2));
        let e = col("sensorid").div(lit(0));
        assert!(e.eval(&t, RowId(0)).is_err());
        let e = col("temp").div(lit(0.0));
        assert!(e.eval(&t, RowId(0)).is_err());
        let e = lit(7).sub(lit(2)).eval(&t, RowId(0)).unwrap();
        assert_eq!(e, Value::Int(5));
        let neg = col("temp").neg().eval(&t, RowId(0)).unwrap();
        assert_eq!(neg, Value::Float(-20.0));
    }

    #[test]
    fn null_propagates_through_comparison_and_arithmetic() {
        let t = table();
        assert_eq!(col("temp").gt(lit(1.0)).eval(&t, RowId(2)).unwrap(), Value::Null);
        assert_eq!(col("temp").add(lit(1.0)).eval(&t, RowId(2)).unwrap(), Value::Null);
        assert_eq!(col("temp").neg().eval(&t, RowId(2)).unwrap(), Value::Null);
    }

    #[test]
    fn is_null_checks() {
        let t = table();
        assert_eq!(col("temp").is_null().eval(&t, RowId(2)).unwrap(), Value::Bool(true));
        assert_eq!(col("temp").is_not_null().eval(&t, RowId(2)).unwrap(), Value::Bool(false));
        assert_eq!(col("temp").is_null().eval(&t, RowId(0)).unwrap(), Value::Bool(false));
    }

    #[test]
    fn between_and_in_list() {
        let t = table();
        let p = col("sensorid").between(lit(1), lit(5));
        assert_eq!(p.filter(&t).unwrap(), vec![RowId(0), RowId(2)]);
        let p = col("sensorid").in_list(vec![lit(15), lit(99)]);
        assert_eq!(p.filter(&t).unwrap(), vec![RowId(1)]);
        let p = col("sensorid").not_in_list(vec![lit(15), lit(99)]);
        assert_eq!(p.filter(&t).unwrap(), vec![RowId(0), RowId(2)]);
        // NULL handling inside IN.
        let p = col("temp").in_list(vec![lit(1.0)]);
        assert_eq!(p.eval(&t, RowId(2)).unwrap(), Value::Null);
        let p = col("sensorid").in_list(vec![lit(Value::Null), lit(3)]);
        assert_eq!(p.eval(&t, RowId(0)).unwrap(), Value::Null);
        assert_eq!(p.eval(&t, RowId(2)).unwrap(), Value::Bool(true));
    }

    #[test]
    fn contains_is_case_insensitive() {
        let t = table();
        let p = col("memo").contains("reattribution");
        assert_eq!(p.filter(&t).unwrap(), vec![RowId(1)]);
        assert!(col("sensorid").contains("x").eval(&t, RowId(0)).is_err());
    }

    #[test]
    fn validate_catches_type_errors_and_unknown_columns() {
        let t = table();
        let schema = t.schema();
        assert!(col("missing").gt(lit(1)).validate(schema).is_err());
        assert!(col("memo").add(lit(1)).validate(schema).is_err());
        assert!(col("memo").gt(lit(1)).validate(schema).is_err());
        assert!(col("sensorid").and(lit(true)).validate(schema).is_err());
        assert!(col("sensorid").contains("x").validate(schema).is_err());
        assert!(col("memo").neg().validate(schema).is_err());
        assert_eq!(col("temp").gt(lit(1)).validate(schema).unwrap(), DataType::Bool);
        assert_eq!(col("sensorid").add(lit(1)).validate(schema).unwrap(), DataType::Int);
        assert_eq!(col("sensorid").add(lit(1.5)).validate(schema).unwrap(), DataType::Float);
        assert_eq!(col("ok").and(lit(true)).validate(schema).unwrap(), DataType::Bool);
        assert_eq!(col("memo").contains("x").validate(schema).unwrap(), DataType::Bool);
    }

    #[test]
    fn columns_are_collected_in_order_without_duplicates() {
        let e = col("a").gt(lit(1)).and(col("b").lt(col("A"))).or(col("c").is_null());
        assert_eq!(e.columns(), vec!["a".to_string(), "b".to_string(), "c".to_string()]);
    }

    #[test]
    fn display_renders_sql() {
        let e = col("temp").gt_eq(lit(100.0)).and(col("memo").contains("SPOUSE"));
        assert_eq!(e.to_string(), "(temp >= 100.0 AND memo LIKE '%SPOUSE%')");
        let e = col("sensorid").in_list(vec![lit(1), lit(2)]);
        assert_eq!(e.to_string(), "sensorid IN (1, 2)");
        let e = col("sensorid").between(lit(1), lit(2)).not();
        assert_eq!(e.to_string(), "NOT (sensorid BETWEEN 1 AND 2)");
        let e = col("x").is_not_null();
        assert_eq!(e.to_string(), "x IS NOT NULL");
    }

    #[test]
    fn conjunction_helper() {
        assert!(Expr::conjunction(vec![]).is_none());
        let e = Expr::conjunction(vec![col("a").eq(lit(1)), col("b").eq(lit(2))]).unwrap();
        assert_eq!(e.to_string(), "(a = 1 AND b = 2)");
    }
}

//! Abstract syntax tree for the SQL subset DBWipes supports.
//!
//! DBWipes queries are single-block aggregate queries of the form
//!
//! ```sql
//! SELECT g1, ..., agg1(e1), agg2(e2), ...
//! FROM table
//! [WHERE predicate]
//! [GROUP BY g1, ...]
//! [ORDER BY item [ASC|DESC]]
//! [LIMIT n]
//! ```
//!
//! which is exactly what the paper's §2.1 problem statement assumes (one
//! aggregate operator `O`, one group-by operator `G`). Scalar expressions
//! reuse [`dbwipes_storage::Expr`].

use dbwipes_storage::Expr;
use std::fmt;

/// The aggregate functions DBWipes supports — the paper lists "the common
/// PostgreSQL aggregates (e.g., avg, sum, min, max, and stddev)" (§2.2.2);
/// we add count and variance, which the error-metric forms also use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggregateFunc {
    /// Arithmetic mean of non-NULL values.
    Avg,
    /// Sum of non-NULL values.
    Sum,
    /// Count of rows (`COUNT(*)`) or of non-NULL values (`COUNT(x)`).
    Count,
    /// Minimum non-NULL value.
    Min,
    /// Maximum non-NULL value.
    Max,
    /// Sample standard deviation of non-NULL values.
    StdDev,
    /// Sample variance of non-NULL values.
    Variance,
}

impl AggregateFunc {
    /// Parses a function name (case-insensitive).
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name.to_ascii_lowercase().as_str() {
            "avg" | "mean" => AggregateFunc::Avg,
            "sum" => AggregateFunc::Sum,
            "count" => AggregateFunc::Count,
            "min" => AggregateFunc::Min,
            "max" => AggregateFunc::Max,
            "stddev" | "std" | "stdev" => AggregateFunc::StdDev,
            "variance" | "var" => AggregateFunc::Variance,
            _ => return None,
        })
    }

    /// The canonical SQL name.
    pub fn name(self) -> &'static str {
        match self {
            AggregateFunc::Avg => "avg",
            AggregateFunc::Sum => "sum",
            AggregateFunc::Count => "count",
            AggregateFunc::Min => "min",
            AggregateFunc::Max => "max",
            AggregateFunc::StdDev => "stddev",
            AggregateFunc::Variance => "variance",
        }
    }

    /// True when single tuples can be *removed* from the aggregate state in
    /// O(1) (sum-like aggregates); min/max require a rescan.
    pub fn supports_removal(self) -> bool {
        !matches!(self, AggregateFunc::Min | AggregateFunc::Max)
    }
}

impl fmt::Display for AggregateFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The argument of an aggregate call.
#[derive(Debug, Clone, PartialEq)]
pub enum AggregateArg {
    /// `COUNT(*)`.
    Star,
    /// An arbitrary scalar expression, usually a bare column.
    Expr(Expr),
}

impl fmt::Display for AggregateArg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AggregateArg::Star => f.write_str("*"),
            AggregateArg::Expr(e) => write!(f, "{e}"),
        }
    }
}

/// A single aggregate call, e.g. `avg(temp)`.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregateCall {
    /// Which aggregate function.
    pub func: AggregateFunc,
    /// Its argument.
    pub arg: AggregateArg,
}

impl fmt::Display for AggregateCall {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({})", self.func, self.arg)
    }
}

/// One item in the SELECT list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectExpr {
    /// A plain column reference (must appear in GROUP BY).
    Column(String),
    /// An aggregate call.
    Aggregate(AggregateCall),
    /// A scalar expression over group-by columns (e.g. `day / 7`).
    Scalar(Expr),
}

impl fmt::Display for SelectExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectExpr::Column(c) => f.write_str(c),
            SelectExpr::Aggregate(a) => write!(f, "{a}"),
            SelectExpr::Scalar(e) => write!(f, "{e}"),
        }
    }
}

/// A SELECT-list item with an optional alias.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectItem {
    /// The selected expression.
    pub expr: SelectExpr,
    /// Optional `AS alias`.
    pub alias: Option<String>,
}

impl SelectItem {
    /// The output column name: the alias if given, otherwise a rendering of
    /// the expression (`avg(temp)` → `avg_temp`).
    pub fn output_name(&self) -> String {
        if let Some(a) = &self.alias {
            return a.clone();
        }
        match &self.expr {
            SelectExpr::Column(c) => c.clone(),
            SelectExpr::Aggregate(a) => {
                let arg = match &a.arg {
                    AggregateArg::Star => "all".to_string(),
                    AggregateArg::Expr(Expr::Column(c)) => c.clone(),
                    AggregateArg::Expr(e) => sanitize(&e.to_string()),
                };
                format!("{}_{}", a.func.name(), arg)
            }
            SelectExpr::Scalar(e) => sanitize(&e.to_string()),
        }
    }
}

fn sanitize(s: &str) -> String {
    s.chars().map(|c| if c.is_alphanumeric() { c.to_ascii_lowercase() } else { '_' }).collect()
}

impl fmt::Display for SelectItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.alias {
            Some(a) => write!(f, "{} AS {a}", self.expr),
            None => write!(f, "{}", self.expr),
        }
    }
}

/// Sort direction in ORDER BY.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortOrder {
    /// Ascending (default).
    Asc,
    /// Descending.
    Desc,
}

/// One ORDER BY term: an output column (by name or 1-based position) and a
/// direction.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderBy {
    /// Output column name or 1-based ordinal rendered as a string.
    pub target: String,
    /// Sort direction.
    pub order: SortOrder,
}

/// A parsed single-block SELECT statement.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStatement {
    /// SELECT-list items.
    pub items: Vec<SelectItem>,
    /// The FROM table.
    pub table: String,
    /// Optional WHERE predicate.
    pub where_clause: Option<Expr>,
    /// GROUP BY column names.
    pub group_by: Vec<String>,
    /// ORDER BY terms.
    pub order_by: Vec<OrderBy>,
    /// Optional LIMIT.
    pub limit: Option<usize>,
}

impl SelectStatement {
    /// The aggregate calls in the SELECT list, in order.
    pub fn aggregates(&self) -> Vec<&AggregateCall> {
        self.items
            .iter()
            .filter_map(|i| match &i.expr {
                SelectExpr::Aggregate(a) => Some(a),
                _ => None,
            })
            .collect()
    }

    /// Renders the statement back to SQL. The rendering is canonical (upper
    /// case keywords, explicit aliases omitted when absent) and is what the
    /// dashboard shows in the query form after each cleaning step.
    pub fn to_sql(&self) -> String {
        let mut sql = String::from("SELECT ");
        sql.push_str(&self.items.iter().map(|i| i.to_string()).collect::<Vec<_>>().join(", "));
        sql.push_str(&format!(" FROM {}", self.table));
        if let Some(w) = &self.where_clause {
            sql.push_str(&format!(" WHERE {w}"));
        }
        if !self.group_by.is_empty() {
            sql.push_str(&format!(" GROUP BY {}", self.group_by.join(", ")));
        }
        if !self.order_by.is_empty() {
            let terms: Vec<String> = self
                .order_by
                .iter()
                .map(|o| {
                    format!(
                        "{}{}",
                        o.target,
                        match o.order {
                            SortOrder::Asc => "",
                            SortOrder::Desc => " DESC",
                        }
                    )
                })
                .collect();
            sql.push_str(&format!(" ORDER BY {}", terms.join(", ")));
        }
        if let Some(l) = self.limit {
            sql.push_str(&format!(" LIMIT {l}"));
        }
        sql
    }

    /// Returns a copy of the statement with `extra` conjoined onto the WHERE
    /// clause — the primitive behind "clean as you query": clicking a ranked
    /// predicate rewrites the query with `AND NOT (predicate)`.
    pub fn with_additional_filter(&self, extra: Expr) -> SelectStatement {
        let mut out = self.clone();
        out.where_clause = Some(match out.where_clause.take() {
            Some(w) => w.and(extra),
            None => extra,
        });
        out
    }
}

impl fmt::Display for SelectStatement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_sql())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbwipes_storage::{col, lit};
    use std::ops::Not as _;

    fn stmt() -> SelectStatement {
        SelectStatement {
            items: vec![
                SelectItem { expr: SelectExpr::Column("day".into()), alias: None },
                SelectItem {
                    expr: SelectExpr::Aggregate(AggregateCall {
                        func: AggregateFunc::Sum,
                        arg: AggregateArg::Expr(col("amount")),
                    }),
                    alias: Some("total".into()),
                },
            ],
            table: "donations".into(),
            where_clause: Some(col("candidate").eq(lit("McCain"))),
            group_by: vec!["day".into()],
            order_by: vec![OrderBy { target: "day".into(), order: SortOrder::Asc }],
            limit: Some(100),
        }
    }

    #[test]
    fn aggregate_func_names_round_trip() {
        for f in [
            AggregateFunc::Avg,
            AggregateFunc::Sum,
            AggregateFunc::Count,
            AggregateFunc::Min,
            AggregateFunc::Max,
            AggregateFunc::StdDev,
            AggregateFunc::Variance,
        ] {
            assert_eq!(AggregateFunc::from_name(f.name()), Some(f));
        }
        assert_eq!(AggregateFunc::from_name("AVG"), Some(AggregateFunc::Avg));
        assert_eq!(AggregateFunc::from_name("std"), Some(AggregateFunc::StdDev));
        assert_eq!(AggregateFunc::from_name("median"), None);
        assert!(AggregateFunc::Sum.supports_removal());
        assert!(!AggregateFunc::Max.supports_removal());
    }

    #[test]
    fn output_names() {
        let s = stmt();
        assert_eq!(s.items[0].output_name(), "day");
        assert_eq!(s.items[1].output_name(), "total");
        let unaliased = SelectItem {
            expr: SelectExpr::Aggregate(AggregateCall {
                func: AggregateFunc::Avg,
                arg: AggregateArg::Expr(col("temp")),
            }),
            alias: None,
        };
        assert_eq!(unaliased.output_name(), "avg_temp");
        let star = SelectItem {
            expr: SelectExpr::Aggregate(AggregateCall {
                func: AggregateFunc::Count,
                arg: AggregateArg::Star,
            }),
            alias: None,
        };
        assert_eq!(star.output_name(), "count_all");
    }

    #[test]
    fn to_sql_round_trip_shape() {
        let sql = stmt().to_sql();
        assert_eq!(
            sql,
            "SELECT day, sum(amount) AS total FROM donations WHERE candidate = 'McCain' \
             GROUP BY day ORDER BY day LIMIT 100"
        );
        assert_eq!(stmt().to_string(), sql);
    }

    #[test]
    fn with_additional_filter_conjoins() {
        let s = stmt().with_additional_filter(col("memo").contains("SPOUSE").not());
        let sql = s.to_sql();
        assert!(sql.contains("WHERE (candidate = 'McCain' AND NOT (memo LIKE '%SPOUSE%'))"));

        let mut no_where = stmt();
        no_where.where_clause = None;
        let s = no_where.with_additional_filter(col("a").eq(lit(1)));
        assert!(s.to_sql().contains("WHERE a = 1"));
    }

    #[test]
    fn aggregates_accessor() {
        let s = stmt();
        assert_eq!(s.aggregates().len(), 1);
        assert_eq!(s.aggregates()[0].func, AggregateFunc::Sum);
        assert_eq!(s.aggregates()[0].to_string(), "sum(amount)");
    }
}

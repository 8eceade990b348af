//! Query results: output rows plus the lineage captured while computing
//! them.

use crate::ast::SelectStatement;
use crate::error::EngineError;
use dbwipes_provenance::Lineage;
use dbwipes_storage::{RowId, RowSet, Schema, Value};

/// The result of executing a [`SelectStatement`]: the output rows, the
/// schema describing them and the per-group fine-grained lineage.
///
/// Row `i` of [`rows`](Self::rows) corresponds to lineage group `i`, to
/// group key `i` and — via the dashboard — to the `i`-th point of the
/// scatterplot the user brushes over. An executed or displayed result
/// carries its lineage; the answers an aggregate cache gives the ranker
/// for scoring carry the empty one.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// The statement that was executed (after any clean-as-you-query
    /// rewrites).
    pub statement: SelectStatement,
    /// Output schema: one field per SELECT item.
    pub schema: Schema,
    /// Output rows, one per group.
    pub rows: Vec<Vec<Value>>,
    /// For each output row, the group-by key values (empty when the query
    /// has no GROUP BY).
    pub group_keys: Vec<Vec<Value>>,
    /// Fine-grained lineage: group `i` ↔ output row `i`.
    pub lineage: Lineage,
}

impl QueryResult {
    /// Builds a result; every result the engine returns is made here.
    pub(crate) fn new(
        statement: SelectStatement,
        schema: Schema,
        rows: Vec<Vec<Value>>,
        group_keys: Vec<Vec<Value>>,
        lineage: Lineage,
    ) -> Self {
        QueryResult { statement, schema, rows, group_keys, lineage }
    }

    /// Number of output rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the result has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Index of an output column by (case-insensitive) name.
    pub fn column_index(&self, name: &str) -> Result<usize, EngineError> {
        self.schema.resolve(name).map_err(EngineError::from)
    }

    /// Names of the output columns.
    pub fn column_names(&self) -> Vec<String> {
        self.schema.names()
    }

    /// The value at output row `row`, column `name`.
    pub fn value(&self, row: usize, name: &str) -> Result<Value, EngineError> {
        let col = self.column_index(name)?;
        self.rows
            .get(row)
            .and_then(|r| r.get(col))
            .cloned()
            .ok_or_else(|| EngineError::plan(format!("output row {row} out of range")))
    }

    /// The value at output row `row`, column `name`, as `f64` (NULL → None).
    pub fn value_f64(&self, row: usize, name: &str) -> Result<Option<f64>, EngineError> {
        Ok(self.value(row, name)?.as_f64())
    }

    /// The input rows (in the FROM table) that produced output row `row`.
    pub fn inputs_of(&self, row: usize) -> &[RowId] {
        self.lineage.inputs_of(row)
    }

    /// The distinct input rows behind a set of output rows — the paper's
    /// `F`, the starting point of the Preprocessor — as one [`RowSet`]
    /// (see [`Lineage::union_of_groups`]).
    pub fn input_set(&self, rows: &[usize]) -> RowSet {
        self.lineage.union_of_groups(rows)
    }

    /// The rows of [`QueryResult::input_set`] in ascending order.
    pub fn inputs_of_rows(&self, rows: &[usize]) -> Vec<RowId> {
        self.input_set(rows).to_row_ids()
    }

    /// Renders the result as a fixed-width ASCII table (used by the
    /// examples).
    pub fn to_display(&self, limit: usize) -> String {
        let names = self.column_names();
        let mut widths: Vec<usize> = names.iter().map(|n| n.len()).collect();
        let shown: Vec<&Vec<Value>> = self.rows.iter().take(limit).collect();
        let rendered: Vec<Vec<String>> =
            shown.iter().map(|r| r.iter().map(format_cell).collect::<Vec<_>>()).collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let header: Vec<String> = names
            .iter()
            .enumerate()
            .map(|(i, n)| format!("{:width$}", n, width = widths[i]))
            .collect();
        out.push_str(&header.join(" | "));
        out.push('\n');
        out.push_str(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>().join("-+-"));
        out.push('\n');
        for row in &rendered {
            let cells: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:width$}", c, width = widths[i]))
                .collect();
            out.push_str(&cells.join(" | "));
            out.push('\n');
        }
        if self.rows.len() > limit {
            out.push_str(&format!("... ({} more rows)\n", self.rows.len() - limit));
        }
        out
    }
}

/// Moves `parts[i]` out for each `i` of `order`, in that order — how a
/// result's per-group parts are put in output order without copying them.
pub(crate) fn in_order<T: Default>(mut parts: Vec<T>, order: &[usize]) -> Vec<T> {
    order.iter().map(|&i| std::mem::take(&mut parts[i])).collect()
}

fn format_cell(v: &Value) -> String {
    match v {
        Value::Float(f) => format!("{f:.3}"),
        other => other.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{AggregateArg, AggregateCall, AggregateFunc, SelectExpr, SelectItem};
    use dbwipes_storage::{col, DataType, Field};

    fn result() -> QueryResult {
        let statement = SelectStatement {
            items: vec![
                SelectItem { expr: SelectExpr::Column("hour".into()), alias: None },
                SelectItem {
                    expr: SelectExpr::Aggregate(AggregateCall {
                        func: AggregateFunc::Avg,
                        arg: AggregateArg::Expr(col("temp")),
                    }),
                    alias: None,
                },
            ],
            table: "readings".into(),
            where_clause: None,
            group_by: vec!["hour".into()],
            order_by: vec![],
            limit: None,
        };
        let schema = Schema::new(vec![
            Field::nullable("hour", DataType::Int),
            Field::nullable("avg_temp", DataType::Float),
        ])
        .unwrap();
        QueryResult::new(
            statement,
            schema,
            vec![vec![Value::Int(0), Value::Float(20.0)], vec![Value::Int(1), Value::Float(120.0)]],
            vec![vec![Value::Int(0)], vec![Value::Int(1)]],
            Lineage::new(vec![vec![RowId(0), RowId(1)], vec![RowId(2)]]),
        )
    }

    #[test]
    fn accessors() {
        let r = result();
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
        assert_eq!(r.column_names(), vec!["hour".to_string(), "avg_temp".to_string()]);
        assert_eq!(r.value(1, "avg_temp").unwrap(), Value::Float(120.0));
        assert_eq!(r.value_f64(0, "hour").unwrap(), Some(0.0));
        assert!(r.value(5, "hour").is_err());
        assert!(r.value(0, "missing").is_err());
    }

    #[test]
    fn lineage_lookups() {
        let r = result();
        assert_eq!(r.inputs_of(0), &[RowId(0), RowId(1)]);
        assert_eq!(r.inputs_of(1), &[RowId(2)]);
        assert_eq!(r.inputs_of_rows(&[0, 1]), vec![RowId(0), RowId(1), RowId(2)]);
    }

    #[test]
    fn display_renders_aligned_table() {
        let r = result();
        let d = r.to_display(10);
        assert!(d.contains("hour"));
        assert!(d.contains("avg_temp"));
        assert!(d.contains("120.000"));
        let truncated = r.to_display(1);
        assert!(truncated.contains("1 more rows"));
    }
}

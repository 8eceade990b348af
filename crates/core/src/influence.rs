//! The Preprocessor: leave-one-out influence ranking.
//!
//! "First, the Preprocessor computes F, the set of input tuples that
//! generated S ... It then uses leave-one-out analysis to rank each tuple
//! in F by how much it influences ε" (paper §2.2.2). The influence of a
//! tuple is the decrease in ε obtained by recomputing its group's aggregate
//! without it. Each selected group's aggregate state is folded from the
//! argument values of its lineage rows, read off the table (no execution);
//! each tuple's leave-one-out value is then one
//! [`AggregateState::remove`] on a copy of its group's state for sum-like
//! aggregates, with min/max falling back to a rescan of the group.

use crate::error::CoreError;
use crate::metric::ErrorMetric;
use dbwipes_engine::{
    AggregateArg, AggregateCall, AggregateState, GroupedAggregateCache, QueryResult, SelectExpr,
};
use dbwipes_storage::{RowId, Table};

/// Influence of one input tuple on the error metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TupleInfluence {
    /// The input row.
    pub row: RowId,
    /// Index (into the query result) of the output group the row fed.
    pub group: usize,
    /// `ε(S) − ε(S with this row removed)`: positive means removing the row
    /// reduces the error.
    pub influence: f64,
}

/// The Preprocessor's output.
#[derive(Debug, Clone)]
pub struct InfluenceReport {
    /// ε over the selected outputs before any tuple is removed.
    pub base_error: f64,
    /// Influence of every tuple in F, sorted by decreasing influence.
    pub influences: Vec<TupleInfluence>,
}

impl InfluenceReport {
    /// The input rows of the selected outputs (the paper's F), in influence
    /// order.
    pub fn inputs(&self) -> Vec<RowId> {
        self.influences.iter().map(|t| t.row).collect()
    }

    /// The `k` most influential rows.
    pub fn top_k(&self, k: usize) -> Vec<RowId> {
        self.influences.iter().take(k).map(|t| t.row).collect()
    }

    /// The influence of a specific row, if it is part of F.
    pub fn influence_of(&self, row: RowId) -> Option<f64> {
        self.influences.iter().find(|t| t.row == row).map(|t| t.influence)
    }
}

/// Locates the aggregate call behind the metric's output column.
///
/// Falls back to the only aggregate in the query when the column name does
/// not match any output (so `ErrorMetric::too_high("avg_temp", ...)` works
/// even if the user aliased the column).
pub fn metric_aggregate<'a>(
    result: &'a QueryResult,
    metric: &ErrorMetric,
) -> Result<(usize, &'a AggregateCall), CoreError> {
    let items = &result.statement.items;
    for (i, item) in items.iter().enumerate() {
        if let SelectExpr::Aggregate(call) = &item.expr {
            if item.output_name().eq_ignore_ascii_case(&metric.column)
                || result
                    .schema
                    .field_at(i)
                    .map(|f| f.name.eq_ignore_ascii_case(&metric.column))
                    .unwrap_or(false)
            {
                return Ok((i, call));
            }
        }
    }
    let aggs: Vec<(usize, &AggregateCall)> = items
        .iter()
        .enumerate()
        .filter_map(|(i, item)| match &item.expr {
            SelectExpr::Aggregate(call) => Some((i, call)),
            _ => None,
        })
        .collect();
    match aggs.as_slice() {
        [only] => Ok(*only),
        [] => Err(CoreError::invalid("the query has no aggregate to attach the error metric to")),
        _ => Err(CoreError::invalid(format!(
            "error metric column '{}' does not name an aggregate output of the query",
            metric.column
        ))),
    }
}

/// Extracts the aggregate-argument value of a single input row (`None` for
/// NULL), as the aggregate saw it during execution.
pub fn aggregate_arg_value(
    table: &Table,
    call: &AggregateCall,
    row: RowId,
) -> Result<Option<f64>, CoreError> {
    Ok(match &call.arg {
        AggregateArg::Star => Some(1.0),
        AggregateArg::Expr(e) => e.eval(table, row).map_err(CoreError::from)?.as_f64(),
    })
}

/// Ranks every input tuple of the selected outputs by leave-one-out
/// influence on ε. Only `table` is read: a selected group's rows come from
/// the result's lineage, and its state is folded from their argument
/// values in lineage order, which is scan order — the fold the execution
/// ran, so the states are the same bit for bit.
pub fn rank_influence(
    table: &Table,
    result: &QueryResult,
    selected: &[usize],
    metric: &ErrorMetric,
) -> Result<InfluenceReport, CoreError> {
    dbwipes_engine::validate(table, &result.statement)?;
    if selected.is_empty() {
        return Err(CoreError::invalid("no suspicious outputs (S) were selected"));
    }
    for &s in selected {
        if s >= result.len() {
            return Err(CoreError::invalid(format!(
                "selected output {s} is out of range (result has {} rows)",
                result.len()
            )));
        }
    }
    let (_, call) = metric_aggregate(result, metric)?;

    // Input rows, per-tuple argument values and aggregate state of each
    // selected group.
    let mut group_rows: Vec<Vec<RowId>> = Vec::with_capacity(selected.len());
    let mut group_values: Vec<Vec<Option<f64>>> = Vec::with_capacity(selected.len());
    let mut group_states: Vec<AggregateState> = Vec::with_capacity(selected.len());
    for &s in selected {
        let rows = result.inputs_of(s).to_vec();
        let values: Vec<Option<f64>> =
            rows.iter().map(|&r| aggregate_arg_value(table, call, r)).collect::<Result<_, _>>()?;
        let mut state = AggregateState::new(call.func);
        for v in &values {
            state.add(*v);
        }
        group_states.push(state);
        group_rows.push(rows);
        group_values.push(values);
    }

    let current: Vec<Option<f64>> = group_states.iter().map(|s| s.finish().as_f64()).collect();
    let base_error = metric.evaluate(&current);

    // Leave-one-out per tuple. Each tuple clones its group's state and
    // removes its own contribution (a fresh clone per tuple, so
    // floating-point drift never accumulates across tuples); min/max
    // rebuild the group without the tuple instead.
    let supports_removal = call.func.supports_removal();
    let mut influences = Vec::with_capacity(group_rows.iter().map(Vec::len).sum());
    for (gi, rows) in group_rows.iter().enumerate() {
        for (ti, &row) in rows.iter().enumerate() {
            let value = group_values[gi][ti];
            // Aggregate value of the group without this tuple.
            let new_value = if supports_removal {
                let mut st = group_states[gi].clone();
                st.remove(value);
                st.finish().as_f64()
            } else {
                let mut st = AggregateState::new(group_states[gi].func());
                for (tj, v) in group_values[gi].iter().enumerate() {
                    if tj != ti {
                        st.add(*v);
                    }
                }
                st.finish().as_f64()
            };
            let mut hypothetical = current.clone();
            hypothetical[gi] = new_value;
            let new_error = metric.evaluate(&hypothetical);
            influences.push(TupleInfluence {
                row,
                group: selected[gi],
                influence: base_error - new_error,
            });
        }
    }

    influences.sort_by(|a, b| b.influence.total_cmp(&a.influence).then(a.row.cmp(&b.row)));
    Ok(InfluenceReport { base_error, influences })
}

/// [`rank_influence`] over the table a caller-provided cache carries — the
/// explain pipeline builds one [`GroupedAggregateCache`] and shares its
/// snapshot between the Preprocessor and the Ranker.
pub fn rank_influence_with_cache(
    cache: &GroupedAggregateCache,
    result: &QueryResult,
    selected: &[usize],
    metric: &ErrorMetric,
) -> Result<InfluenceReport, CoreError> {
    rank_influence(cache.table(), result, selected, metric)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbwipes_engine::execute_sql;
    use dbwipes_storage::{Catalog, DataType, Schema, Table, Value};

    fn catalog() -> Catalog {
        let mut t = Table::new(
            "readings",
            Schema::of(&[
                ("hour", DataType::Int),
                ("sensorid", DataType::Int),
                ("temp", DataType::Float),
            ]),
        )
        .unwrap();
        // hour 0: normal. hour 1: one broken reading of 120.
        let rows = [(0, 1, 20.0), (0, 2, 22.0), (1, 1, 21.0), (1, 3, 120.0), (1, 2, 24.0)];
        for (h, s, temp) in rows {
            t.push_row(vec![Value::Int(h), Value::Int(s), Value::Float(temp)]).unwrap();
        }
        let mut c = Catalog::new();
        c.register(t).unwrap();
        c
    }

    #[test]
    fn broken_reading_has_the_highest_influence() {
        let c = catalog();
        let r = execute_sql(&c, "SELECT hour, avg(temp) FROM readings GROUP BY hour").unwrap();
        // Group 1 (hour=1) has avg 55; select it as suspicious.
        let metric = ErrorMetric::too_high("avg_temp", 30.0);
        let report = rank_influence(c.table("readings").unwrap(), &r, &[1], &metric).unwrap();
        assert!((report.base_error - 25.0).abs() < 1e-9);
        // The 120-degree reading is row 3 and must rank first.
        assert_eq!(report.influences[0].row, RowId(3));
        assert_eq!(report.influences[0].group, 1);
        assert!(report.influences[0].influence > 0.0);
        // Removing the 120 reading brings avg(21,24)=22.5 under the threshold:
        // influence equals the full base error.
        assert!((report.influences[0].influence - 25.0).abs() < 1e-9);
        // Removing a small reading makes things worse (negative influence).
        let low = report.influence_of(RowId(2)).unwrap();
        assert!(low < 0.0);
        assert_eq!(report.inputs().len(), 3);
        assert_eq!(report.top_k(1), vec![RowId(3)]);
        assert!(report.influence_of(RowId(0)).is_none());
    }

    #[test]
    fn works_for_sum_and_count_and_minmax() {
        let c = catalog();
        let table = c.table("readings").unwrap();
        for (sql, column) in [
            ("SELECT hour, sum(temp) AS v FROM readings GROUP BY hour", "v"),
            ("SELECT hour, count(*) AS v FROM readings GROUP BY hour", "v"),
            ("SELECT hour, max(temp) AS v FROM readings GROUP BY hour", "v"),
            ("SELECT hour, min(temp) AS v FROM readings GROUP BY hour", "v"),
        ] {
            let r = execute_sql(&c, sql).unwrap();
            let metric = ErrorMetric::too_high(column, 0.0);
            let report = rank_influence(table, &r, &[1], &metric).unwrap();
            assert_eq!(report.influences.len(), 3, "{sql}");
            assert!(report.base_error > 0.0, "{sql}");
            // For max(), removing the 120 reading must have the largest influence.
            if sql.contains("max") {
                assert_eq!(report.influences[0].row, RowId(3));
            }
        }
    }

    #[test]
    fn metric_column_fallback_to_single_aggregate() {
        let c = catalog();
        let r = execute_sql(&c, "SELECT hour, avg(temp) AS mean_t FROM readings GROUP BY hour")
            .unwrap();
        // Column name does not match the alias, but there is only one
        // aggregate, so it is used.
        let metric = ErrorMetric::too_high("avg_temp", 30.0);
        let report = rank_influence(c.table("readings").unwrap(), &r, &[1], &metric).unwrap();
        assert!(report.base_error > 0.0);

        // With two aggregates an unknown column is ambiguous.
        let r2 = execute_sql(&c, "SELECT hour, avg(temp), sum(temp) FROM readings GROUP BY hour")
            .unwrap();
        let err = rank_influence(
            c.table("readings").unwrap(),
            &r2,
            &[1],
            &ErrorMetric::too_high("nope", 0.0),
        );
        assert!(err.is_err());
        // Naming one of them works.
        let ok = rank_influence(
            c.table("readings").unwrap(),
            &r2,
            &[1],
            &ErrorMetric::too_high("sum_temp", 0.0),
        );
        assert!(ok.is_ok());
    }

    #[test]
    fn invalid_requests_are_rejected() {
        let c = catalog();
        let r = execute_sql(&c, "SELECT hour, avg(temp) FROM readings GROUP BY hour").unwrap();
        let metric = ErrorMetric::too_high("avg_temp", 30.0);
        let table = c.table("readings").unwrap();
        assert!(rank_influence(table, &r, &[], &metric).is_err());
        assert!(rank_influence(table, &r, &[9], &metric).is_err());
        // A query with no aggregate at all cannot host a metric.
        let r = execute_sql(&c, "SELECT hour FROM readings GROUP BY hour").unwrap();
        assert!(rank_influence(table, &r, &[0], &metric).is_err());
    }

    #[test]
    fn multiple_selected_groups_combine() {
        let c = catalog();
        let r = execute_sql(&c, "SELECT hour, avg(temp) FROM readings GROUP BY hour").unwrap();
        let metric = ErrorMetric::too_high("avg_temp", 10.0);
        let report = rank_influence(c.table("readings").unwrap(), &r, &[0, 1], &metric).unwrap();
        // base = (21-10) + (55-10) = 56
        assert!((report.base_error - 56.0).abs() < 1e-9);
        assert_eq!(report.influences.len(), 5);
        assert_eq!(report.influences[0].row, RowId(3));
    }

    #[test]
    fn a_cache_of_another_statement_lends_only_its_table() {
        let c = catalog();
        let table = c.table("readings").unwrap();
        let r = execute_sql(&c, "SELECT hour, avg(temp) FROM readings GROUP BY hour").unwrap();
        // A cache for a *different* statement with identical grouping: the
        // metric's SELECT-list index points at sum(temp) there, not
        // avg(temp). Its states are never read.
        let other = dbwipes_engine::parse_select(
            "SELECT hour, count(*), sum(temp) FROM readings GROUP BY hour",
        )
        .unwrap();
        let wrong_cache = GroupedAggregateCache::build(table, &other).unwrap();
        let metric = ErrorMetric::too_high("avg_temp", 30.0);
        let via_wrong_cache = rank_influence_with_cache(&wrong_cache, &r, &[1], &metric).unwrap();
        let direct = rank_influence(table, &r, &[1], &metric).unwrap();
        assert_eq!(via_wrong_cache.influences, direct.influences);
        assert!((via_wrong_cache.base_error - 25.0).abs() < 1e-9);
    }

    #[test]
    fn a_table_grown_since_the_result_keeps_the_results_rows() {
        let mut c = catalog();
        let r = execute_sql(&c, "SELECT hour, avg(temp) FROM readings GROUP BY hour").unwrap();
        // Append to the table after executing: the lineage still names the
        // rows the result was computed from, so the report is the one the
        // original table state implied.
        let late = vec![Value::Int(1), Value::Int(4), Value::Float(23.0)];
        c.table_mut("readings").unwrap().push_row(late).unwrap();
        let table = c.table("readings").unwrap();
        let metric = ErrorMetric::too_high("avg_temp", 30.0);
        let report = rank_influence(table, &r, &[1], &metric).unwrap();
        // F still comes from the result's lineage: all three rows of hour 1.
        assert_eq!(report.influences.len(), 3);
        assert_eq!(report.influences[0].row, RowId(3));
    }

    /// A group's state, folded from its lineage rows' values, is the one
    /// the execution folded: the base error is the metric over the
    /// executed result's values bit for bit — on values that are not
    /// dyadic, and through a cache that absorbed an append.
    #[test]
    fn the_base_error_is_the_executed_results_bit_for_bit() {
        let mut c = catalog();
        let table = c.table("readings").unwrap().clone();
        for i in 0..40 {
            let row =
                vec![Value::Int(i % 2), Value::Int(i % 5), Value::Float(0.1 * i as f64 + 0.7)];
            c.table_mut("readings").unwrap().push_row(row).unwrap();
        }
        let grown = std::sync::Arc::new(c.table("readings").unwrap().clone());
        for sql in [
            "SELECT hour, avg(temp) AS v FROM readings GROUP BY hour",
            "SELECT hour, stddev(temp) AS v FROM readings GROUP BY hour",
            "SELECT hour, sum(temp * 3) AS v FROM readings GROUP BY hour",
        ] {
            let r = execute_sql(&c, sql).unwrap();
            let metric = ErrorMetric::too_high("v", 0.5);
            let values: Vec<Option<f64>> =
                (0..r.len()).map(|i| r.value(i, "v").unwrap().as_f64()).collect();
            let want = metric.evaluate(&values).to_bits();
            let stmt = dbwipes_engine::parse_select(sql).unwrap();
            let mut absorbed = GroupedAggregateCache::build(&table, &stmt).unwrap();
            absorbed.absorb_append_shared(std::sync::Arc::clone(&grown)).unwrap();
            for cache in [GroupedAggregateCache::build(&grown, &stmt).unwrap(), absorbed] {
                let report = rank_influence_with_cache(&cache, &r, &[0, 1], &metric).unwrap();
                assert_eq!(report.base_error.to_bits(), want, "{sql}");
            }
        }
    }
}

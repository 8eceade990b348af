//! Query execution with lineage capture.
//!
//! The executor implements the single-block aggregate pipeline
//! `Scan → Filter → GroupBy → Aggregate → Project → Sort/Limit`
//! and, while doing so, records the fine-grained lineage (which input rows
//! fed which output group). This is the hook the paper's Preprocessor
//! relies on: "the Preprocessor computes F, the set of input tuples that
//! generated S" (§2.2.2).
//!
//! The pipeline stages are factored into standalone crate-private
//! functions (`scan_filter`, `build_groups`, `bind_aggregates`,
//! `aggregate_outputs`, `project_row`, `output_order`, `output_schema`) shared with the
//! incremental re-aggregation cache in [`crate::incremental`], so the full
//! and incremental paths cannot drift apart.

use crate::aggregate::AggregateState;
use crate::ast::{
    AggregateArg, AggregateCall, AggregateFunc, SelectExpr, SelectStatement, SortOrder,
};
use crate::error::EngineError;
use crate::parser::parse_select;
use crate::result::{in_order, QueryResult};
use dbwipes_provenance::Lineage;
use dbwipes_storage::{
    Catalog, Column, DataType, Expr, Field, KeyWord, RowId, RowSet, Schema, Table, Value,
};
use std::collections::HashMap;

/// Options controlling query execution. It has no field, since every
/// execution records its lineage; it stays so that [`execute`]'s callers,
/// the benchmark driver (a workspace of its own) among them, keep passing
/// `ExecOptions::default()`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecOptions {}

/// Parses and executes `sql` against a catalog.
pub fn execute_sql(catalog: &Catalog, sql: &str) -> Result<QueryResult, EngineError> {
    let stmt = parse_select(sql)?;
    execute_on_catalog(catalog, &stmt, ExecOptions::default())
}

/// Executes a parsed statement against a catalog.
pub fn execute_on_catalog(
    catalog: &Catalog,
    stmt: &SelectStatement,
    opts: ExecOptions,
) -> Result<QueryResult, EngineError> {
    let table = catalog.table(&stmt.table)?;
    execute(table, stmt, opts)
}

/// Executes a parsed statement against a single table (the statement's
/// FROM clause must name this table).
pub fn execute(
    table: &Table,
    stmt: &SelectStatement,
    _opts: ExecOptions,
) -> Result<QueryResult, EngineError> {
    validate(table, stmt)?;
    let filtered = scan_filter(table, stmt, 0)?;
    let (group_keys, group_rows) = build_groups(table, stmt, &filtered)?;

    let aggregates = bind_aggregates(table, stmt)?;
    let mut rows: Vec<Vec<Value>> = Vec::with_capacity(group_keys.len());
    for (g_key, g_rows) in group_keys.iter().zip(&group_rows) {
        let agg_outputs = aggregate_outputs(&aggregates, g_rows)?;
        rows.push(project_row(table, stmt, g_key, g_rows, &agg_outputs)?);
    }
    let schema = output_schema(table, stmt)?;

    // Sort (default: ascending by group key) and limit, then move each
    // group's row, key and input rows into output position.
    let order = output_order(stmt, &rows, &group_keys)?;
    Ok(QueryResult::new(
        stmt.clone(),
        schema,
        in_order(rows, &order),
        in_order(group_keys, &order),
        Lineage::new(in_order(group_rows, &order)),
    ))
}

/// Scan stage: the rows from row `from` on that satisfy the WHERE clause,
/// as a bitmap over the table's rows whose ascending order is scan order —
/// [`dbwipes_storage::Expr::filter_bitmap`]: every clause compiles, its
/// per-attribute comparisons to column kernels (parsed dashboard queries
/// and the exclusion rewrites "clean as you query" emits are nothing
/// else) and any other leaf to a row walk, with the scalar walk's rows
/// under SQL three-valued logic (only rows where the clause is TRUE
/// survive) or its error. An execution and a cache build pass 0; an
/// append absorb passes the old row count, so it filters only the
/// appended rows, through the same step.
pub(crate) fn scan_filter(
    table: &Table,
    stmt: &SelectStatement,
    from: usize,
) -> Result<RowSet, EngineError> {
    match &stmt.where_clause {
        Some(pred) => Ok(pred.filter_bitmap(table, from)?),
        None => Ok(RowSet::suffix(table.num_rows(), from)),
    }
}

/// Group stage: partitions `filtered` by the GROUP BY key, keeping groups
/// in first-seen order, each with its key — the values of its first row —
/// and its rows in scan order. A query without GROUP BY produces exactly
/// one group, even when no rows survive the filter (PostgreSQL semantics).
pub(crate) type Groups = (Vec<Vec<Value>>, Vec<Vec<RowId>>);

/// See [`Groups`]: returns `(group_keys, group_rows)`. Each row is given
/// a group id first, from typed key words ([`Column::visit_keys`]); then
/// every group's row list is allocated at exactly its length and filled
/// in scan order.
pub(crate) fn build_groups(
    table: &Table,
    stmt: &SelectStatement,
    filtered: &RowSet,
) -> Result<Groups, EngineError> {
    let columns: Vec<&Column> = stmt
        .group_by
        .iter()
        .map(|c| {
            let idx = table.schema().resolve(c)?;
            Ok(table.column(idx).expect("resolved"))
        })
        .collect::<Result<_, EngineError>>()?;
    // There are no more groups than rows, so every id fits.
    if u32::try_from(filtered.count_ones()).is_err() {
        return Err(EngineError::plan("group count overflows the group index"));
    }
    let (ids, firsts) = group_ids(&columns, filtered);
    let group_keys: Vec<Vec<Value>> = if columns.is_empty() {
        vec![Vec::new()]
    } else {
        let key =
            |row: RowId| columns.iter().map(|c| c.get(row.index()).expect("in bounds")).collect();
        firsts.into_iter().map(key).collect()
    };
    let mut sizes = vec![0usize; group_keys.len()];
    for &id in &ids {
        sizes[id as usize] += 1;
    }
    let mut group_rows: Vec<Vec<RowId>> = sizes.into_iter().map(Vec::with_capacity).collect();
    for (rid, &id) in filtered.iter_rows().zip(&ids) {
        group_rows[id as usize].push(rid);
    }
    Ok((group_keys, group_rows))
}

/// The group id of each row of `filtered`, in scan order, and each
/// group's first row: ids are dense, in first-seen order. Without a column
/// every row is in the one group 0. A key of several columns is the pair
/// of the id of its first columns' key and its last column's code,
/// renumbered: nothing is allocated per row or per group.
fn group_ids(columns: &[&Column], filtered: &RowSet) -> (Vec<u32>, Vec<RowId>) {
    let Some((first, rest)) = columns.split_first() else {
        return (vec![0; filtered.count_ones()], Vec::new());
    };
    let (mut ids, mut firsts) = column_codes(first, filtered);
    for column in rest {
        let (codes, _) = column_codes(column, filtered);
        let mut index: HashMap<u64, u32> = HashMap::new();
        firsts.clear();
        for ((id, code), row) in ids.iter_mut().zip(codes).zip(filtered.iter_rows()) {
            let next = firsts.len() as u32;
            *id = *index.entry(u64::from(*id) << 32 | u64::from(code)).or_insert_with(|| {
                firsts.push(row);
                next
            });
        }
    }
    (ids, firsts)
}

/// The code of each row of `filtered` in `column`, in scan order — equal
/// key words, and so equal values, share a code; codes are dense, in
/// first-seen order — and each code's first row. A row whose word is the
/// previous row's takes its code without a lookup: tables appended in
/// time order hold long runs of one key.
fn column_codes(column: &Column, filtered: &RowSet) -> (Vec<u32>, Vec<RowId>) {
    let mut codes = Vec::with_capacity(filtered.count_ones());
    let mut firsts = Vec::new();
    let mut index: HashMap<KeyWord<'_>, u32> = HashMap::new();
    let mut last = None;
    column.visit_keys(filtered, |row, word| {
        let code = match last {
            Some((previous, code)) if previous == word => code,
            _ => {
                let next = firsts.len() as u32;
                let code = *index.entry(word).or_insert_with(|| {
                    firsts.push(RowId(row));
                    next
                });
                last = Some((word, code));
                code
            }
        };
        codes.push(code);
    });
    (codes, firsts)
}

/// One aggregate call's argument bound to one table, read a row at a time
/// — `None` represents NULL, `COUNT(*)` yields `Some(1.0)` per row. A bare
/// column argument is looked up once, at [`ArgReader::bind`], and reads the
/// typed column directly instead of boxing a `Value` per row.
pub(crate) enum ArgReader<'a> {
    Star,
    Column(&'a Column),
    Expr(&'a Expr, &'a Table),
}

impl<'a> ArgReader<'a> {
    pub(crate) fn bind(table: &'a Table, call: &'a AggregateCall) -> Result<Self, EngineError> {
        Ok(match &call.arg {
            AggregateArg::Star => ArgReader::Star,
            AggregateArg::Expr(Expr::Column(name)) => {
                let cidx = table.schema().resolve(name)?;
                ArgReader::Column(table.column(cidx).expect("resolved"))
            }
            AggregateArg::Expr(e) => ArgReader::Expr(e, table),
        })
    }

    #[inline]
    pub(crate) fn value(&self, rid: RowId) -> Result<Option<f64>, EngineError> {
        Ok(match self {
            ArgReader::Star => Some(1.0),
            ArgReader::Column(column) => column.get_f64(rid.index()),
            ArgReader::Expr(e, table) => e.eval(table, rid)?.as_f64(),
        })
    }
}

/// Every aggregate SELECT item's function and argument, in SELECT-list
/// order, bound to `table` once per statement.
pub(crate) fn bind_aggregates<'a>(
    table: &'a Table,
    stmt: &'a SelectStatement,
) -> Result<Vec<(AggregateFunc, ArgReader<'a>)>, EngineError> {
    stmt.aggregates()
        .into_iter()
        .map(|call| Ok((call.func, ArgReader::bind(table, call)?)))
        .collect()
}

/// Computes the finished value of every bound aggregate over one group's
/// rows, in the order of `aggregates`.
pub(crate) fn aggregate_outputs(
    aggregates: &[(AggregateFunc, ArgReader<'_>)],
    g_rows: &[RowId],
) -> Result<Vec<Value>, EngineError> {
    aggregates
        .iter()
        .map(|(func, arg)| {
            let mut state = AggregateState::new(*func);
            for &rid in g_rows {
                state.add(arg.value(rid)?);
            }
            Ok(state.finish())
        })
        .collect()
}

/// Projects one output row for a group: group-key columns come from the key,
/// scalar expressions are evaluated on a representative row (NULL when the
/// group is empty), aggregate slots are filled from `agg_outputs` (one value
/// per aggregate SELECT item, in order).
pub(crate) fn project_row(
    table: &Table,
    stmt: &SelectStatement,
    group_key: &[Value],
    g_rows: &[RowId],
    agg_outputs: &[Value],
) -> Result<Vec<Value>, EngineError> {
    let mut out_row = Vec::with_capacity(stmt.items.len());
    let mut next_agg = 0usize;
    for item in &stmt.items {
        let v = match &item.expr {
            SelectExpr::Column(name) => {
                let pos = stmt
                    .group_by
                    .iter()
                    .position(|g| g.eq_ignore_ascii_case(name))
                    .expect("validated: select column is in GROUP BY");
                group_key.get(pos).cloned().unwrap_or(Value::Null)
            }
            SelectExpr::Scalar(e) => match g_rows.first() {
                Some(&rid) => e.eval(table, rid)?,
                None => Value::Null,
            },
            SelectExpr::Aggregate(_) => {
                let v = agg_outputs[next_agg].clone();
                next_agg += 1;
                v
            }
        };
        out_row.push(v);
    }
    Ok(out_row)
}

/// Sort/limit stage: the output permutation of `rows` — ascending by group
/// key when the statement has no ORDER BY, otherwise by its ORDER BY terms —
/// truncated to the statement's LIMIT.
pub(crate) fn output_order(
    stmt: &SelectStatement,
    rows: &[Vec<Value>],
    group_keys: &[Vec<Value>],
) -> Result<Vec<usize>, EngineError> {
    let mut order: Vec<usize> = (0..rows.len()).collect();
    if stmt.order_by.is_empty() {
        order.sort_by(|&a, &b| group_keys[a].cmp(&group_keys[b]));
    } else {
        let mut sort_specs: Vec<(usize, SortOrder)> = Vec::new();
        for ob in &stmt.order_by {
            let idx = if let Ok(ordinal) = ob.target.parse::<usize>() {
                if ordinal == 0 || ordinal > stmt.items.len() {
                    return Err(EngineError::plan(format!(
                        "ORDER BY ordinal {ordinal} out of range"
                    )));
                }
                ordinal - 1
            } else {
                // Match by alias/output name first, then by bare column name.
                stmt.items
                    .iter()
                    .position(|i| i.output_name().eq_ignore_ascii_case(&ob.target))
                    .or_else(|| {
                        stmt.items.iter().position(|i| {
                            matches!(&i.expr, SelectExpr::Column(c) if c.eq_ignore_ascii_case(&ob.target))
                        })
                    })
                    .ok_or_else(|| {
                        EngineError::plan(format!("ORDER BY column '{}' is not in the SELECT list", ob.target))
                    })?
            };
            sort_specs.push((idx, ob.order));
        }
        order.sort_by(|&a, &b| {
            for (idx, dir) in &sort_specs {
                let cmp = rows[a][*idx].cmp(&rows[b][*idx]);
                let cmp = match dir {
                    SortOrder::Asc => cmp,
                    SortOrder::Desc => cmp.reverse(),
                };
                if cmp != std::cmp::Ordering::Equal {
                    return cmp;
                }
            }
            std::cmp::Ordering::Equal
        });
    }

    if let Some(limit) = stmt.limit {
        order.truncate(limit);
    }
    Ok(order)
}

/// Validates the statement against the table schema: what [`execute`]
/// checks, and refuses with, before it reads a row.
pub fn validate(table: &Table, stmt: &SelectStatement) -> Result<(), EngineError> {
    if stmt.items.is_empty() {
        return Err(EngineError::plan("SELECT list is empty"));
    }
    if !stmt.table.eq_ignore_ascii_case(table.name()) {
        return Err(EngineError::plan(format!(
            "statement selects FROM {} but was executed against table {}",
            stmt.table,
            table.name()
        )));
    }
    let schema = table.schema();
    if let Some(pred) = &stmt.where_clause {
        let t = pred.validate(schema)?;
        if !matches!(t, DataType::Bool | DataType::Null) {
            return Err(EngineError::plan(format!("WHERE clause must be boolean, found {t}")));
        }
    }
    for g in &stmt.group_by {
        schema.resolve(g)?;
    }
    for item in &stmt.items {
        match &item.expr {
            SelectExpr::Column(name) => {
                schema.resolve(name)?;
                if !stmt.group_by.iter().any(|g| g.eq_ignore_ascii_case(name)) {
                    return Err(EngineError::plan(format!(
                        "column '{name}' must appear in GROUP BY or be aggregated"
                    )));
                }
            }
            SelectExpr::Scalar(e) => {
                e.validate(schema)?;
                for c in e.columns() {
                    if !stmt.group_by.iter().any(|g| g.eq_ignore_ascii_case(&c)) {
                        return Err(EngineError::plan(format!(
                            "column '{c}' must appear in GROUP BY or be aggregated"
                        )));
                    }
                }
            }
            SelectExpr::Aggregate(call) => {
                if let AggregateArg::Expr(e) = &call.arg {
                    let t = e.validate(schema)?;
                    if !t.is_numeric() && t != DataType::Null && t != DataType::Bool {
                        return Err(EngineError::plan(format!(
                            "{}({}) requires a numeric argument, found {t}",
                            call.func, e
                        )));
                    }
                }
            }
        }
    }
    Ok(())
}

/// Builds the output schema for a statement over a table.
pub(crate) fn output_schema(table: &Table, stmt: &SelectStatement) -> Result<Schema, EngineError> {
    let mut fields = Vec::with_capacity(stmt.items.len());
    for item in &stmt.items {
        let dtype = match &item.expr {
            SelectExpr::Column(name) => {
                let idx = table.schema().resolve(name)?;
                table.schema().field_at(idx).expect("resolved").dtype
            }
            SelectExpr::Scalar(e) => e.validate(table.schema())?,
            SelectExpr::Aggregate(call) => match call.func {
                crate::ast::AggregateFunc::Count => DataType::Int,
                _ => DataType::Float,
            },
        };
        fields.push(Field::nullable(disambiguate(&fields, item.output_name()), dtype));
    }
    Schema::new(fields).map_err(EngineError::from)
}

/// Appends `_2`, `_3`, ... to duplicate output names so the result schema
/// stays valid when the same aggregate appears twice.
fn disambiguate(existing: &[Field], name: String) -> String {
    if !existing.iter().any(|f| f.name.eq_ignore_ascii_case(&name)) {
        return name;
    }
    let mut n = 2;
    loop {
        let candidate = format!("{name}_{n}");
        if !existing.iter().any(|f| f.name.eq_ignore_ascii_case(&candidate)) {
            return candidate;
        }
        n += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbwipes_storage::col;
    use std::ops::Not as _;

    fn readings() -> Table {
        let schema = Schema::of(&[
            ("hour", DataType::Int),
            ("sensorid", DataType::Int),
            ("temp", DataType::Float),
        ]);
        let mut t = Table::new("readings", schema).unwrap();
        // hour 0: sensors 1,2 normal; hour 1: sensor 3 is broken (120 degrees)
        t.push_rows(vec![
            vec![Value::Int(0), Value::Int(1), Value::Float(20.0)],
            vec![Value::Int(0), Value::Int(2), Value::Float(22.0)],
            vec![Value::Int(1), Value::Int(1), Value::Float(21.0)],
            vec![Value::Int(1), Value::Int(3), Value::Float(120.0)],
            vec![Value::Int(1), Value::Int(2), Value::Null],
        ])
        .unwrap();
        t
    }

    fn run(sql: &str) -> QueryResult {
        let mut catalog = Catalog::new();
        catalog.register(readings()).unwrap();
        execute_sql(&catalog, sql).unwrap()
    }

    #[test]
    fn group_by_average_with_lineage() {
        let r = run("SELECT hour, avg(temp) FROM readings GROUP BY hour");
        assert_eq!(r.len(), 2);
        assert_eq!(r.value(0, "hour").unwrap(), Value::Int(0));
        assert_eq!(r.value(0, "avg_temp").unwrap(), Value::Float(21.0));
        assert_eq!(r.value(1, "avg_temp").unwrap(), Value::Float(70.5));
        // Lineage: group for hour=1 contains rows 2,3,4 (NULL temp row still
        // belongs to the group).
        assert_eq!(r.inputs_of(1), &[RowId(2), RowId(3), RowId(4)]);
        assert_eq!(r.inputs_of(0), &[RowId(0), RowId(1)]);
    }

    #[test]
    fn where_clause_filters_rows_and_lineage() {
        let r = run("SELECT hour, avg(temp) FROM readings WHERE sensorid <> 3 GROUP BY hour");
        assert_eq!(r.value(1, "avg_temp").unwrap(), Value::Float(21.0));
        assert_eq!(r.inputs_of(1), &[RowId(2), RowId(4)]);
    }

    #[test]
    fn no_group_by_returns_single_row() {
        let r = run("SELECT avg(temp), count(*), min(temp), max(temp) FROM readings");
        assert_eq!(r.len(), 1);
        assert_eq!(r.value(0, "count_all").unwrap(), Value::Int(5));
        assert_eq!(r.value(0, "min_temp").unwrap(), Value::Float(20.0));
        assert_eq!(r.value(0, "max_temp").unwrap(), Value::Float(120.0));
        // Even with an always-false filter there is exactly one output row.
        let r = run("SELECT avg(temp) FROM readings WHERE temp > 1000");
        assert_eq!(r.len(), 1);
        assert_eq!(r.value(0, "avg_temp").unwrap(), Value::Null);
    }

    #[test]
    fn group_by_with_empty_filter_is_empty() {
        let r = run("SELECT hour, avg(temp) FROM readings WHERE temp > 1000 GROUP BY hour");
        assert!(r.is_empty());
    }

    #[test]
    fn count_star_vs_count_column() {
        let r = run("SELECT hour, count(*), count(temp) FROM readings GROUP BY hour");
        assert_eq!(r.value(1, "count_all").unwrap(), Value::Int(3));
        assert_eq!(r.value(1, "count_temp").unwrap(), Value::Int(2));
    }

    #[test]
    fn stddev_and_aliases() {
        let r = run("SELECT hour, stddev(temp) AS sd FROM readings GROUP BY hour");
        match r.value(1, "sd").unwrap() {
            // Sample stddev of [21, 120] = sqrt(2 * 49.5^2 / 1) = sqrt(4900.5).
            Value::Float(v) => assert!((v - 4900.5f64.sqrt()).abs() < 1e-9),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn order_by_and_limit() {
        let r =
            run("SELECT hour, avg(temp) AS a FROM readings GROUP BY hour ORDER BY a DESC LIMIT 1");
        assert_eq!(r.len(), 1);
        assert_eq!(r.value(0, "hour").unwrap(), Value::Int(1));
        // Lineage still refers to the surviving group.
        assert_eq!(r.inputs_of(0), &[RowId(2), RowId(3), RowId(4)]);

        let r = run("SELECT hour, avg(temp) FROM readings GROUP BY hour ORDER BY 2 DESC");
        assert_eq!(r.value(0, "hour").unwrap(), Value::Int(1));

        let r = run("SELECT hour, avg(temp) FROM readings GROUP BY hour ORDER BY hour DESC");
        assert_eq!(r.value(0, "hour").unwrap(), Value::Int(1));
    }

    #[test]
    fn default_ordering_is_by_group_key() {
        // Insert groups out of order and confirm deterministic ascending output.
        let schema = Schema::of(&[("g", DataType::Int), ("x", DataType::Float)]);
        let mut t = Table::new("t", schema).unwrap();
        for (g, x) in [(5, 1.0), (1, 2.0), (3, 3.0), (1, 4.0)] {
            t.push_row(vec![Value::Int(g), Value::Float(x)]).unwrap();
        }
        let stmt = parse_select("SELECT g, sum(x) FROM t GROUP BY g").unwrap();
        let r = execute(&t, &stmt, ExecOptions::default()).unwrap();
        let keys: Vec<Value> = (0..r.len()).map(|i| r.value(i, "g").unwrap()).collect();
        assert_eq!(keys, vec![Value::Int(1), Value::Int(3), Value::Int(5)]);
        assert_eq!(r.value(0, "sum_x").unwrap(), Value::Float(6.0));
    }

    #[test]
    fn scalar_select_items_over_group_keys() {
        let r = run("SELECT hour, hour * 30 AS minutes, avg(temp) FROM readings GROUP BY hour");
        assert_eq!(r.value(1, "minutes").unwrap(), Value::Int(30));
    }

    #[test]
    fn multi_column_group_by() {
        let r = run("SELECT hour, sensorid, count(*) FROM readings GROUP BY hour, sensorid");
        assert_eq!(r.len(), 5);
        assert_eq!(r.group_keys[0].len(), 2);
    }

    /// Every group's row list is allocated at exactly its length, over
    /// more than two chunks, for zero, one and two key columns, with and
    /// without a WHERE clause; together the lists hold every filtered row.
    #[test]
    fn group_row_lists_are_allocated_at_their_length() {
        let schema = Schema::of(&[("a", DataType::Int), ("b", DataType::Str)]);
        let mut t = Table::new("t", schema).unwrap();
        let rows = 2 * dbwipes_storage::CHUNK_ROWS + 100;
        t.push_rows(
            (0..rows)
                .map(|r| vec![Value::Int((r % 7) as i64), Value::str(["x", "y", "z"][r % 3])])
                .collect(),
        )
        .unwrap();
        for keys in ["", " GROUP BY a", " GROUP BY a, b", " GROUP BY b, a"] {
            for filter in ["", " WHERE a > 2"] {
                let stmt = parse_select(&format!("SELECT count(*) FROM t{filter}{keys}")).unwrap();
                let filtered = scan_filter(&t, &stmt, 0).unwrap();
                let (_, group_rows) = build_groups(&t, &stmt, &filtered).unwrap();
                for list in &group_rows {
                    assert_eq!(list.capacity(), list.len(), "{keys}{filter}");
                }
                let total: usize = group_rows.iter().map(Vec::len).sum();
                assert_eq!(total, filtered.count_ones(), "{keys}{filter}");
            }
        }
    }

    #[test]
    fn validation_errors() {
        let mut catalog = Catalog::new();
        catalog.register(readings()).unwrap();
        // Non-grouped column in SELECT.
        assert!(execute_sql(&catalog, "SELECT sensorid, avg(temp) FROM readings GROUP BY hour")
            .is_err());
        // Unknown column.
        assert!(
            execute_sql(&catalog, "SELECT hour, avg(missing) FROM readings GROUP BY hour").is_err()
        );
        // Non-numeric aggregate argument.
        let schema = Schema::of(&[("name", DataType::Str)]);
        let mut t = Table::new("people", schema).unwrap();
        t.push_row(vec![Value::str("x")]).unwrap();
        catalog.register(t).unwrap();
        assert!(execute_sql(&catalog, "SELECT avg(name) FROM people").is_err());
        // Non-boolean WHERE clause.
        assert!(execute_sql(&catalog, "SELECT avg(temp) FROM readings WHERE hour + 1").is_err());
        // Unknown table.
        assert!(execute_sql(&catalog, "SELECT avg(x) FROM nope").is_err());
        // Wrong table for direct execute().
        let stmt = parse_select("SELECT avg(x) FROM other").unwrap();
        assert!(execute(&readings(), &stmt, ExecOptions::default()).is_err());
        // ORDER BY target not in select list.
        assert!(execute_sql(
            &catalog,
            "SELECT hour, avg(temp) FROM readings GROUP BY hour ORDER BY sensorid"
        )
        .is_err());
        // ORDER BY ordinal out of range.
        assert!(execute_sql(
            &catalog,
            "SELECT hour, avg(temp) FROM readings GROUP BY hour ORDER BY 3"
        )
        .is_err());
    }

    #[test]
    fn duplicate_output_names_are_disambiguated() {
        let r = run("SELECT hour, avg(temp), avg(temp) FROM readings GROUP BY hour");
        let names = r.column_names();
        assert_eq!(names[1], "avg_temp");
        assert_eq!(names[2], "avg_temp_2");
    }

    #[test]
    fn every_where_clause_compiles_and_filters_like_the_scalar_walk() {
        let t = readings();
        let stmt = |sql: &str| parse_select(sql).unwrap();
        for sql in [
            "SELECT hour, avg(temp) FROM readings WHERE sensorid = 3 OR temp < 21.5 GROUP BY hour",
            "SELECT hour, avg(temp) FROM readings WHERE NOT (temp >= 100) GROUP BY hour",
            "SELECT hour, avg(temp) FROM readings WHERE sensorid NOT IN (1, 2) GROUP BY hour",
            "SELECT hour, avg(temp) FROM readings \
             WHERE NOT (sensorid = 3 AND temp > 100) OR hour = 0 GROUP BY hour",
            // Plain conjunctions, as written: nothing is normalised away
            // before the kernels see them.
            "SELECT hour, avg(temp) FROM readings WHERE sensorid = 1 AND sensorid = 1 GROUP BY hour",
            "SELECT hour, avg(temp) FROM readings WHERE temp > 20 AND temp > 21 GROUP BY hour",
            "SELECT hour, avg(temp) FROM readings WHERE 3 = sensorid AND 100 < temp GROUP BY hour",
            "SELECT hour, avg(temp) FROM readings \
             WHERE temp BETWEEN 20.5 AND 120 AND hour = 1 GROUP BY hour",
            "SELECT hour, avg(temp) FROM readings WHERE hour = 1 AND temp = NULL GROUP BY hour",
            // Row leaves beside kernel ones.
            "SELECT hour, avg(temp) FROM readings WHERE temp + 1 > 22 AND hour = 1 GROUP BY hour",
            "SELECT hour, avg(temp) FROM readings \
             WHERE temp IS NULL OR NOT (sensorid < hour) GROUP BY hour",
        ] {
            let s = stmt(sql);
            let pred = s.where_clause.as_ref().unwrap();
            // The whole table, and every suffix an append absorb asks for.
            for from in 0..=t.num_rows() {
                let vectorized = scan_filter(&t, &s, from).unwrap().to_row_ids();
                let scalar: Vec<RowId> = t
                    .row_ids()
                    .skip(from)
                    .filter(|&r| pred.matches(&t, r).unwrap())
                    .collect();
                assert_eq!(vectorized, scalar, "{sql} from row {from}");
            }
        }
        // A mistyped literal is a row leaf: from every row on, the filter
        // fails with the error the walk of those rows stops at.
        let s = stmt("SELECT hour, avg(temp) FROM readings WHERE hour = 1 AND sensorid = 'x'");
        let pred = s.where_clause.as_ref().unwrap();
        let scalar = EngineError::from(pred.filter_scalar(&t).unwrap_err());
        assert_eq!(scan_filter(&t, &s, 0).unwrap_err().to_string(), scalar.to_string());
        for from in 1..t.num_rows() {
            let walked = EngineError::from(pred.matches(&t, RowId(from)).unwrap_err());
            assert_eq!(scan_filter(&t, &s, from).unwrap_err().to_string(), walked.to_string());
        }
    }

    #[test]
    fn query_rewrite_via_additional_filter() {
        let mut catalog = Catalog::new();
        catalog.register(readings()).unwrap();
        let stmt = parse_select("SELECT hour, avg(temp) FROM readings GROUP BY hour").unwrap();
        let cleaned = stmt.with_additional_filter(col("temp").gt_eq(lit_f(100.0)).not());
        let r = execute_on_catalog(&catalog, &cleaned, ExecOptions::default()).unwrap();
        assert_eq!(r.value(1, "avg_temp").unwrap(), Value::Float(21.0));
    }

    fn lit_f(v: f64) -> dbwipes_storage::Expr {
        dbwipes_storage::lit(v)
    }
}

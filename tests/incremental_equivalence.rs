//! Equivalence property tests for the incremental re-aggregation subsystem.
//!
//! For random tables, statements and exclusion sets, the incremental path
//! (`GroupedAggregateCache::result` with an `ExclusionQuery`) must produce
//! results identical — group keys, aggregate values and schema, lineage
//! aside — to full execution of the statement on a table that never held
//! the excluded rows.
//!
//! Values are drawn from a half-integer grid (`k/2` for small integer `k`),
//! so every partial sum and sum-of-squares is exactly representable in an
//! `f64` and `AggregateState::remove`'s subtraction is the exact inverse of
//! `add`. That makes *bitwise* equality the right assertion: any
//! disagreement is an algorithmic bug in the incremental path, never
//! floating-point reordering noise. (On arbitrary reals the incremental
//! values can drift from re-summation by FP-rounding ulps, which the ranker
//! tolerates; exactness of the *algebra* is what these tests pin down.)
//!
//! The *displayed* path — `click_predicate_with_cache` /
//! `undo_clean_with_cache`, hence `GroupedAggregateCache::cleaned_result`
//! — never subtracts, so its property draws values on tenths, where sums
//! are not exact and a subtraction would show in the last bits, and asks
//! for everything `CleaningSession::execute` answers: statement, schema,
//! values by bit pattern, keys, row order, lineage, error strings.

mod common;

use dbwipes::core::{ComponentTimings, CoreError, Explanation, InfluenceReport, RankedPredicate};
use dbwipes::engine::{
    execute, parse_select, ExclusionQuery, ExecOptions, GroupedAggregateCache, QueryResult,
};
use dbwipes::storage::{Condition, ConjunctivePredicate, DataType, Schema, Value, CHUNK_ROWS};
use dbwipes::{Catalog, DashboardSession, DbWipes, ErrorMetric, RowId, Table};
use proptest::prelude::*;

/// A random sensor-style table whose `value` column lies on the
/// half-integer grid (NULLs included).
fn arbitrary_table() -> impl Strategy<Value = Table> {
    let value = prop_oneof![Just(None), (-100i64..300).prop_map(|k| Some(k as f64 / 2.0))];
    let row = (0i64..4, 0i64..6, value);
    proptest::collection::vec(row, 1..60).prop_map(|rows| {
        let schema = Schema::of(&[
            ("grp", DataType::Int),
            ("device", DataType::Int),
            ("value", DataType::Float),
        ]);
        let mut t = Table::new("m", schema).unwrap();
        for (g, d, v) in rows {
            t.push_row(vec![
                Value::Int(g),
                Value::Int(d),
                v.map(Value::Float).unwrap_or(Value::Null),
            ])
            .unwrap();
        }
        t
    })
}

/// The same shape on tenths — sums no `f64` holds exactly — with NULLs in
/// the columns predicates are clicked on (`grp` one row in four, `device`
/// and `value` one in three).
fn arbitrary_tenths_table() -> impl Strategy<Value = Table> {
    let nullable = |n: i64| prop_oneof![Just(None), (0..n).prop_map(Some), (0..n).prop_map(Some)];
    let grp = prop_oneof![nullable(4), (0i64..4).prop_map(Some)];
    let value = nullable(400).prop_map(|k| k.map(|k| (k - 100) as f64 / 10.0));
    proptest::collection::vec((grp, nullable(6), value), 1..60).prop_map(|rows| {
        let schema = Schema::of(&[
            ("grp", DataType::Int),
            ("device", DataType::Int),
            ("value", DataType::Float),
        ]);
        let mut t = Table::new("m", schema).unwrap();
        let cell = |v: Option<Value>| v.unwrap_or(Value::Null);
        for (g, d, v) in rows {
            t.push_row(vec![
                cell(g.map(Value::Int)),
                cell(d.map(Value::Int)),
                cell(v.map(Value::Float)),
            ])
            .unwrap();
        }
        t
    })
}

/// Number of shapes [`clicked_predicate`] draws from.
const PREDICATE_SHAPES: usize = 11;

/// A predicate an analyst could click, over the columns of the random
/// tables: equality, ranges, `IN`, a conjunction, one that matches
/// nothing, one that empties a whole group, one that empties the table,
/// and two that do not fit the schema.
fn clicked_predicate(shape: usize, k: i64, k2: i64) -> ConjunctivePredicate {
    let tenth = |k: i64| k as f64 / 10.0;
    ConjunctivePredicate::new(match shape {
        0 => vec![Condition::equals("device", k.rem_euclid(6))],
        1 => vec![Condition::between("value", tenth(k.min(k2)), tenth(k.max(k2)))],
        2 => vec![Condition::above("value", tenth(k))],
        3 => vec![Condition::at_most("value", tenth(k))],
        4 => vec![Condition::in_set(
            "device",
            vec![Value::Int(k.rem_euclid(6)), Value::Int(k2.rem_euclid(6))],
        )],
        5 => {
            vec![Condition::equals("device", k.rem_euclid(6)), Condition::above("value", tenth(k2))]
        }
        6 => vec![Condition::equals("device", 99i64)],
        7 => vec![Condition::equals("grp", k.rem_euclid(4))],
        // NULL on the rows without a device, which therefore go too.
        8 => vec![Condition::at_least("device", 0.0)],
        9 => vec![Condition::equals("nope", 1i64)],
        _ => vec![Condition::equals("device", Value::str("x"))],
    })
}

/// A stack of 0–3 predicates to click one after the other.
fn arbitrary_clicks() -> impl Strategy<Value = Vec<ConjunctivePredicate>> {
    let click = (0..PREDICATE_SHAPES, -100i64..300, -100i64..300)
        .prop_map(|(shape, k, k2)| clicked_predicate(shape, k, k2));
    proptest::collection::vec(click, 0..4)
}

/// A random exclusion set: a subset of row indices (some possibly out of
/// range or duplicated — the cache must tolerate both).
fn arbitrary_exclusions() -> impl Strategy<Value = Vec<RowId>> {
    proptest::collection::vec((0usize..70).prop_map(RowId), 0..40)
}

/// A random statement over the table, drawn from shapes covering every
/// aggregate (SUM/COUNT/AVG/STDDEV/VARIANCE plus the MIN/MAX fallback),
/// grouped and ungrouped queries, WHERE clauses, scalar items, ORDER BY and
/// LIMIT.
fn arbitrary_statement() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("SELECT grp, avg(value), sum(value), count(*), count(value) FROM m GROUP BY grp".to_string()),
        Just("SELECT grp, stddev(value), variance(value) FROM m GROUP BY grp".to_string()),
        Just("SELECT grp, min(value), max(value) FROM m GROUP BY grp".to_string()),
        Just("SELECT grp, device, sum(value), max(value) FROM m GROUP BY grp, device".to_string()),
        Just("SELECT avg(value), min(value), max(value), count(*) FROM m".to_string()),
        (-40i64..120).prop_map(|t| format!(
            "SELECT grp, avg(value), max(value) FROM m WHERE value > {} GROUP BY grp",
            t as f64 / 2.0
        )),
        Just("SELECT grp, grp * 10 AS label, sum(value) FROM m GROUP BY grp ORDER BY sum_value DESC LIMIT 3".to_string()),
        Just("SELECT grp, count(value) FROM m GROUP BY grp ORDER BY 2 DESC, grp LIMIT 2".to_string()),
        // Expression arguments (NULL wherever `value` is): the cache keeps
        // no copy of them and re-evaluates on its own snapshot.
        Just("SELECT grp, sum(value * 2), avg(value + device) FROM m GROUP BY grp".to_string()),
        Just("SELECT grp, max(value - 1), min(value + device), count(*) FROM m GROUP BY grp".to_string()),
    ]
}

/// A statement to rank under, with the aggregate column ε reads: plain,
/// WHERE, stddev/variance, two-column GROUP BY, expression aggregates,
/// ORDER BY … LIMIT and the implicit group.
fn arbitrary_ranked_statement() -> impl Strategy<Value = (&'static str, &'static str)> {
    prop_oneof![
        Just(("SELECT grp, avg(value), count(*) FROM m GROUP BY grp", "avg_value")),
        Just((
            "SELECT grp, avg(value), max(value) FROM m WHERE value > 10 GROUP BY grp",
            "avg_value"
        )),
        Just(("SELECT grp, stddev(value), variance(value) FROM m GROUP BY grp", "stddev_value")),
        Just((
            "SELECT grp, device, sum(value), min(value) FROM m GROUP BY grp, device",
            "sum_value"
        )),
        Just((
            "SELECT grp, sum(value * 2) AS doubled, max(value - 1) FROM m GROUP BY grp",
            "doubled"
        )),
        Just((
            "SELECT grp, sum(value) FROM m GROUP BY grp ORDER BY sum_value DESC LIMIT 3",
            "sum_value"
        )),
        Just(("SELECT avg(value), count(*) FROM m", "avg_value")),
    ]
}

/// A random leaf condition over the table's three columns, thresholds on
/// the same half-integer grid as the data (so equality with a stored value
/// and range boundaries are both hit).
fn arbitrary_condition() -> impl Strategy<Value = Condition> {
    prop_oneof![
        (0i64..5).prop_map(|g| Condition::equals("grp", g)),
        (0i64..7).prop_map(|d| Condition::equals("device", d)),
        (0i64..7).prop_map(|d| Condition::not_equals("device", d)),
        (-100i64..300).prop_map(|k| Condition::above("value", k as f64 / 2.0)),
        (-100i64..300).prop_map(|k| Condition::at_most("value", k as f64 / 2.0)),
        (-100i64..300, 0i64..120).prop_map(|(k, w)| Condition::between(
            "value",
            k as f64 / 2.0,
            (k + w) as f64 / 2.0
        )),
        proptest::collection::vec(0i64..7, 1..4)
            .prop_map(|ds| Condition::in_set("device", ds.into_iter().map(Value::Int).collect())),
    ]
}

/// A random one- or two-condition conjunction.
fn arbitrary_conjunction() -> impl Strategy<Value = ConjunctivePredicate> {
    (arbitrary_condition(), arbitrary_condition(), any::<bool>())
        .prop_map(|(a, b, both)| ConjunctivePredicate::new(if both { vec![a, b] } else { vec![a] }))
}

/// Ground truth: full execution over a table materialised from the rows
/// the exclusion keeps, one that never held the excluded ones.
fn reference(table: &Table, sql: &str, excluded: &[RowId]) -> QueryResult {
    let kept: Vec<RowId> = table.row_ids().filter(|r| !excluded.contains(r)).collect();
    let (t, _) = table.materialize(&kept, table.name()).unwrap();
    let stmt = parse_select(sql).unwrap();
    execute(&t, &stmt, ExecOptions::default()).unwrap()
}

fn assert_equivalent(table: &Table, sql: &str, excluded: &[RowId]) -> Result<(), String> {
    let stmt = parse_select(sql).unwrap();
    let cache = GroupedAggregateCache::build(table, &stmt).unwrap();
    let incremental = cache.result(&ExclusionQuery::new().excluding_rows(excluded));
    let full = reference(table, sql, excluded);
    prop_assert!(
        incremental.group_keys == full.group_keys,
        "group keys diverged for {sql} excluding {excluded:?}"
    );
    prop_assert!(
        incremental.rows == full.rows,
        "rows diverged for {sql} excluding {excluded:?}: {:?} != {:?}",
        incremental.rows,
        full.rows
    );
    prop_assert_eq!(incremental.schema.names(), full.schema.names());
    prop_assert_eq!(incremental.len(), full.len());
    Ok(())
}

/// A value's identity: floats by bit pattern (`Value`'s own equality
/// compares numbers across types).
fn identity(row: &[Value]) -> Vec<String> {
    let one = |v: &Value| match v {
        Value::Float(f) => format!("f64:{:016x}", f.to_bits()),
        other => format!("{other:?}"),
    };
    row.iter().map(one).collect()
}

/// `got == want`, or a message saying which `part` of `what` differs.
fn same<T: PartialEq + std::fmt::Debug>(
    what: &str,
    part: &str,
    got: T,
    want: T,
) -> Result<(), String> {
    prop_assert!(got == want, "{what}: {part}: from the cache {got:?}, executed {want:?}");
    Ok(())
}

/// Everything a displayed result is: statement, schema, rows bit for bit
/// and in order, keys, per-group lineage — or the same refusal.
fn assert_same_answer(
    what: &str,
    executed: Result<&QueryResult, CoreError>,
    cached: Result<&QueryResult, CoreError>,
) -> Result<(), String> {
    let (want, got) = match (executed, cached) {
        (Err(want), Err(got)) => return same(what, "error", got.to_string(), want.to_string()),
        (Ok(want), Ok(got)) => (want, got),
        (want, got) => return Err(format!("{what}: executed {want:?}, from the cache {got:?}")),
    };
    same(what, "statement", &got.statement, &want.statement)?;
    same(what, "schema", &got.schema, &want.schema)?;
    same(what, "rows", got.len(), want.len())?;
    for i in 0..want.len() {
        same(what, "row", identity(&got.rows[i]), identity(&want.rows[i]))?;
        same(what, "key", identity(&got.group_keys[i]), identity(&want.group_keys[i]))?;
        same(what, "lineage", got.inputs_of(i), want.inputs_of(i))?;
    }
    Ok(())
}

/// Clicks `clicks` one after the other and then undoes them all, in two
/// sessions over `table`: one executes every rewritten statement
/// (`CleaningSession::execute`, the oracle), one reads `cache`, which
/// retains `sql`. After every step both display the same thing.
fn assert_cleaning_from_cache_matches_execution(
    table: &Table,
    sql: &str,
    cache: &GroupedAggregateCache<'_>,
    clicks: &[ConjunctivePredicate],
) -> Result<(), String> {
    let session = || {
        let mut db = DbWipes::new();
        db.register(table.clone()).unwrap();
        let mut session = DashboardSession::new(db);
        session.run_query(sql).unwrap();
        session
    };
    // What a `debug` would leave, had it ranked exactly `clicks`.
    let ranked = |predicate: &ConjunctivePredicate| RankedPredicate {
        predicate: predicate.clone(),
        score: 0.0,
        error_before: 0.0,
        error_after: 0.0,
        improvement: 0.0,
        example_f1: 0.0,
        complexity: predicate.complexity(),
        matched_rows: 0,
    };
    let explanation = Explanation {
        predicates: clicks.iter().map(ranked).collect(),
        influence: InfluenceReport { base_error: 0.0, influences: Vec::new() },
        candidates: Vec::new(),
        timings: ComponentTimings::default(),
        base_error: 0.0,
    };
    let explain = |session: &mut DashboardSession| {
        session.select_outputs(vec![0]);
        session.set_metric(ErrorMetric::too_high("value", 0.0));
        session.install_explanation(explanation.clone()).unwrap();
    };

    let (mut executed, mut cached) = (session(), session());
    for (i, predicate) in clicks.iter().enumerate() {
        explain(&mut executed);
        explain(&mut cached);
        let what = format!("{sql}: click {i} ({predicate}) of {clicks:?}");
        let got = cached.click_predicate_with_cache(i, cache);
        assert_same_answer(&what, executed.click_predicate(i), got)?;
        same(&what, "sql", cached.current_sql(), executed.current_sql())?;
        same(&what, "applied", cached.applied_predicates(), executed.applied_predicates())?;
    }
    for i in 0..=clicks.len() {
        let what = format!("{sql}: undo {i} of {clicks:?}");
        let got = cached.undo_clean_with_cache(cache);
        assert_same_answer(&what, executed.undo_clean(), got)?;
        same(&what, "sql", cached.current_sql(), executed.current_sql())?;
    }
    Ok(())
}

/// The fixed multi-chunk table (NULLs either side of each boundary), cold
/// and with a cache that absorbed an
/// append across a chunk seal before the first click.
#[test]
fn cleaning_from_the_cache_matches_execution_across_chunk_boundaries() {
    let table = common::boundary_table(common::BOUNDARY_ROWS);
    let base = common::boundary_table(2 * CHUNK_ROWS - 100);
    let mut grown = base.clone();
    grown.push_rows(common::boundary_rows(base.num_rows()..2 * CHUNK_ROWS + 3)).unwrap();
    let minute = |row: usize| (row * 60) as f64;
    let clicks = [
        // Straddles the first boundary, NULL timestamps included.
        ConjunctivePredicate::new(vec![Condition::between(
            "at",
            minute(CHUNK_ROWS - 40),
            minute(CHUNK_ROWS + 40),
        )]),
        ConjunctivePredicate::new(vec![
            Condition::equals("id", 3i64),
            Condition::contains("memo", "SPOUSE"),
        ]),
        ConjunctivePredicate::new(vec![Condition::equals("flag", true)]),
    ];
    for sql in [
        "SELECT id, avg(x), stddev(x), min(x), count(*) FROM m GROUP BY id",
        "SELECT id, flag, sum(x + id), max(x) FROM m WHERE x > -5 GROUP BY id, flag ORDER BY 3 DESC LIMIT 5",
        "SELECT avg(x), max(x), count(x) FROM m",
    ] {
        let stmt = parse_select(sql).unwrap();
        let cold = GroupedAggregateCache::build(&table, &stmt).unwrap();
        assert_cleaning_from_cache_matches_execution(&table, sql, &cold, &clicks).unwrap();
        let mut absorbed = GroupedAggregateCache::build(&base, &stmt).unwrap();
        absorbed.absorb_append(&grown).unwrap();
        assert_cleaning_from_cache_matches_execution(&grown, sql, &absorbed, &clicks).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The displayed path's oracle property: on tables whose sums are not
    /// exact, with NULLs under the predicates, every statement shape and a
    /// stack of 0–3 clicked predicates, a click and an undo answered from
    /// the base statement's cache equal `CleaningSession::execute` on the
    /// rewritten statement in everything a result carries.
    #[test]
    fn cleaning_from_the_cache_matches_execution(
        table in arbitrary_tenths_table(),
        clicks in arbitrary_clicks(),
        sql_a in arbitrary_statement(),
        sql_b in arbitrary_statement(),
    ) {
        for sql in [&sql_a, &sql_b] {
            let cache = GroupedAggregateCache::build(&table, &parse_select(sql).unwrap()).unwrap();
            assert_cleaning_from_cache_matches_execution(&table, sql, &cache, &clicks)?;
        }
    }

    /// The headline equivalence property: 256 random (table, statement,
    /// exclusion-set) triples, bitwise-identical results. Four statements
    /// are drawn per case, so every case cross-checks several shapes.
    #[test]
    fn incremental_matches_full_reexecution(
        table in arbitrary_table(),
        excluded in arbitrary_exclusions(),
        sql_a in arbitrary_statement(),
        sql_b in arbitrary_statement(),
        sql_c in arbitrary_statement(),
        sql_d in arbitrary_statement(),
    ) {
        for sql in [&sql_a, &sql_b, &sql_c, &sql_d] {
            assert_equivalent(&table, sql, &excluded)?;
        }
    }

    /// A shared cache reads argument values back from its *own* snapshot:
    /// after the catalog's table moves on by copy-on-write (two appends,
    /// the second a copy of a victim row), every exclusion query still
    /// answers exactly as re-execution over the old snapshot does.
    #[test]
    fn shared_cache_answers_from_its_own_snapshot_after_the_catalog_moves_on(
        table in arbitrary_table(),
        excluded in arbitrary_exclusions(),
        sql in arbitrary_statement(),
        victim in 0usize..60,
    ) {
        let mut catalog = Catalog::new();
        catalog.register(table.clone()).unwrap();
        let stmt = parse_select(&sql).unwrap();
        let cache =
            GroupedAggregateCache::build_shared(catalog.table_arc("m").unwrap(), &stmt).unwrap();

        let live = catalog.table_mut("m").unwrap();
        live.push_row(vec![Value::Int(0), Value::Int(0), Value::Float(1e6)]).unwrap();
        live.push_row(table.row(RowId(victim % table.num_rows())).unwrap()).unwrap();
        prop_assert_eq!(cache.table().version(), table.version());
        prop_assert!(catalog.table("m").unwrap().version() != table.version());

        for excluded in [&excluded[..], &[RowId(victim % table.num_rows())][..], &[][..]] {
            let incremental = cache.result(&ExclusionQuery::new().excluding_rows(excluded));
            let full = reference(&table, &sql, excluded);
            prop_assert!(
                incremental.group_keys == full.group_keys && incremental.rows == full.rows,
                "{sql} excluding {excluded:?}: {:?} != {:?}",
                incremental.rows,
                full.rows
            );
        }
    }

    /// MIN/MAX fallback: exclusions targeted at the extrema (the rows whose
    /// removal forces the rescan branch rather than an O(1) subtraction).
    #[test]
    fn min_max_fallback_matches(table in arbitrary_table(), take in 1usize..6) {
        // Exclude the `take` largest and smallest values — guaranteed to
        // dethrone the current min/max of their groups.
        let mut by_value: Vec<(f64, RowId)> = (0..table.num_rows())
            .filter_map(|i| {
                table.value_by_name(RowId(i), "value").ok().and_then(|v| v.as_f64()).map(|v| (v, RowId(i)))
            })
            .collect();
        by_value.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut excluded: Vec<RowId> = by_value.iter().take(take).map(|&(_, r)| r).collect();
        excluded.extend(by_value.iter().rev().take(take).map(|&(_, r)| r));
        assert_equivalent(&table, "SELECT grp, min(value), max(value), avg(value) FROM m GROUP BY grp", &excluded)?;
        assert_equivalent(&table, "SELECT min(value), max(value) FROM m", &excluded)?;
    }

    /// Empty-group deletion: excluding *every* row of some groups must make
    /// those groups disappear (GROUP BY) or leave the single implicit group
    /// reporting empty-input values (no GROUP BY).
    #[test]
    fn whole_group_exclusion_matches(table in arbitrary_table(), victim in 0i64..4) {
        let excluded: Vec<RowId> = (0..table.num_rows())
            .map(RowId)
            .filter(|&r| {
                table.value_by_name(r, "grp").map(|v| v == Value::Int(victim)).unwrap_or(false)
            })
            .collect();
        assert_equivalent(&table, "SELECT grp, sum(value), count(*) FROM m GROUP BY grp", &excluded)?;
        // Excluding everything exercises total-exclusion of all groups.
        let all: Vec<RowId> = (0..table.num_rows()).map(RowId).collect();
        assert_equivalent(&table, "SELECT grp, avg(value) FROM m GROUP BY grp", &all)?;
        assert_equivalent(&table, "SELECT avg(value), count(*), min(value) FROM m", &all)?;
    }

    /// The ranker's exclusion semantics: excluding exactly the cached rows
    /// where a predicate is TRUE-or-NULL equals rewriting the query with
    /// `AND NOT predicate` — the "clean as you query" rewrite the ranker
    /// used to execute per candidate.
    #[test]
    fn exclusion_set_matches_query_rewrite(table in arbitrary_table(), device in 0i64..6) {
        use dbwipes::storage::{Condition, ConjunctivePredicate};
        let predicate = ConjunctivePredicate::new(vec![Condition::equals("device", device)]);
        let stmt = parse_select("SELECT grp, avg(value), count(*) FROM m GROUP BY grp").unwrap();
        let cache = GroupedAggregateCache::build(&table, &stmt).unwrap();

        let p_expr = predicate.to_expr();
        let excluded: Vec<RowId> = table
            .row_ids()
            .filter(|&r| {
                cache.contains(r)
                    && !matches!(p_expr.eval(&table, r), Ok(Value::Bool(false)))
            })
            .collect();
        let incremental = cache.result(&ExclusionQuery::new().excluding_rows(&excluded));

        let rewritten = stmt.with_additional_filter(predicate.to_exclusion_expr());
        let full = execute(&table, &rewritten, ExecOptions::default()).unwrap();
        prop_assert_eq!(&incremental.rows, &full.rows);
        prop_assert_eq!(&incremental.group_keys, &full.group_keys);
    }

    /// The ranker on top of the cache, against the per-candidate execution
    /// it replaced: under every ranked statement shape, for a pool of
    /// `device = k` candidates (the conjunction `device = k AND value > 10`
    /// included) plus random conjunctions, a random brushed S and a random
    /// D′, every ranked entry's ε-after, improvement, F1 and score equal
    /// those recomputed from re-executing the statement rewritten with
    /// `AND NOT (candidate)`, and the order is by that score.
    #[test]
    fn ranker_matches_per_candidate_reexecution(
        table in arbitrary_table(),
        (sql, metric_column) in arbitrary_ranked_statement(),
        threshold in -100i64..300,
        brushed in proptest::collection::vec(0usize..24, 1..4),
        examples in arbitrary_exclusions(),
        conjunctions in proptest::collection::vec(arbitrary_conjunction(), 0..10),
    ) {
        use dbwipes::core::ranker::error_over_keys;
        use dbwipes::core::{rank_predicates, ErrorMetric, RankerConfig};
        use std::collections::BTreeSet;

        let stmt = parse_select(sql).unwrap();
        let result = execute(&table, &stmt, ExecOptions::default()).unwrap();
        if result.is_empty() {
            // The WHERE clause filtered every row: nothing to brush.
            return Ok(());
        }
        let selected: Vec<usize> = brushed.iter().map(|i| i % result.len()).collect();
        let metric = ErrorMetric::too_high(metric_column, threshold as f64 / 2.0);
        let config = RankerConfig { max_results: 100, ..RankerConfig::default() };
        let mut pool: Vec<ConjunctivePredicate> = (0..6i64)
            .map(|k| ConjunctivePredicate::new(vec![Condition::equals("device", k)]))
            .collect();
        pool.push(ConjunctivePredicate::new(vec![
            Condition::equals("device", 1i64),
            Condition::above("value", 10.0),
        ]));
        pool.extend(conjunctions);
        let candidates = pool
            .iter()
            .filter(|p| !p.is_trivial())
            .map(ConjunctivePredicate::canonical_key)
            .collect::<BTreeSet<_>>()
            .len();
        let ranked =
            rank_predicates(&table, &result, &selected, &examples, &metric, pool, &config).unwrap();
        prop_assert_eq!(ranked.len(), candidates);
        prop_assert!(ranked.windows(2).all(|w| w[0].score >= w[1].score), "not sorted by score");

        let error_before = metric.evaluate_result(&result, &selected);
        let f_set: BTreeSet<RowId> = result.inputs_of_rows(&selected).into_iter().collect();
        // Distinct examples, in the table or not: the recall denominator.
        let example_set: BTreeSet<RowId> = examples.iter().copied().collect();
        let keys: Vec<Vec<Value>> = selected.iter().map(|&i| result.group_keys[i].clone()).collect();
        for entry in &ranked {
            let predicate = &entry.predicate;
            let rewritten = stmt.with_additional_filter(predicate.to_exclusion_expr());
            let cleaned =
                execute(&table, &rewritten, ExecOptions::default()).unwrap();
            let error_after = error_over_keys(&cleaned, &keys, &metric);
            let improvement = if error_before > 0.0 {
                ((error_before - error_after) / error_before).clamp(-1.0, 1.0)
            } else {
                0.0
            };
            let matched = predicate.matching_rows(&table);
            let in_f: Vec<&RowId> = matched.iter().filter(|r| f_set.contains(r)).collect();
            let tp = in_f.iter().filter(|r| example_set.contains(r)).count() as f64;
            let precision = if in_f.is_empty() { 0.0 } else { tp / in_f.len() as f64 };
            let recall = if example_set.is_empty() { 0.0 } else { tp / example_set.len() as f64 };
            let f1 = if precision + recall == 0.0 {
                0.0
            } else {
                2.0 * precision * recall / (precision + recall)
            };
            let score = config.weight_error * improvement + config.weight_accuracy * f1
                - config.weight_complexity * predicate.complexity().saturating_sub(1) as f64;
            prop_assert_eq!(entry.matched_rows, matched.len());
            for (field, got, expected) in [
                ("error_before", entry.error_before, error_before),
                ("error_after", entry.error_after, error_after),
                ("improvement", entry.improvement, improvement),
                ("example_f1", entry.example_f1, f1),
                ("score", entry.score, score),
            ] {
                prop_assert!(
                    got.to_bits() == expected.to_bits(),
                    "{field} of {predicate}: ranked {got} != re-executed {expected}"
                );
            }
        }
    }
}

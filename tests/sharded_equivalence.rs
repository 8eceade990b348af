//! Equivalence property tests for shard-parallel execution.
//!
//! For random tables, statements, hash partitionings (over several
//! columns, with shard counts from 1 up to far more shards than rows) and
//! exclusion sets, the sharded path
//! ([`ShardedAggregateCache`]) must produce results identical — group
//! keys, aggregate values, order and schema — to the unsharded
//! [`GroupedAggregateCache`] on the base table.
//!
//! Like `incremental_equivalence.rs`, values live on the half-integer
//! grid so every partial sum is exactly representable in an `f64` and the
//! per-shard partial aggregates merge without rounding: *bitwise*
//! equality is the right assertion, and any disagreement is an
//! algorithmic bug in the shard/merge path, never floating-point noise.

use dbwipes::core::{rank_predicates_sharded, rank_predicates_with_cache, RankerConfig};
use dbwipes::engine::{
    parse_select, ExclusionQuery, GroupedAggregateCache, SelectStatement, ShardedAggregateCache,
};
use dbwipes::storage::{DataType, RowSet, Schema, ShardedTable, Value};
use dbwipes::{
    execute_sql, Catalog, Condition, ConjunctivePredicate, ErrorMetric, RankedPredicate, RowId,
    Table,
};
use proptest::prelude::*;
use std::sync::Arc;

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

/// A random statement drawn from shapes covering every aggregate,
/// grouped and ungrouped queries, WHERE clauses, ORDER BY and LIMIT.
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
        // no copy of them and re-evaluates on its shard's snapshot.
        Just("SELECT grp, sum(value * 2), avg(value + device) FROM m GROUP BY grp".to_string()),
        Just("SELECT grp, max(value - 1), min(value + device), count(*) FROM m GROUP BY grp".to_string()),
    ]
}

/// A random hash partitioning on any column (including the NULL-bearing
/// float column), with shard counts covering the degenerate single shard,
/// typical small counts, and far more shards than rows.
fn arbitrary_partition() -> impl Strategy<Value = (&'static str, usize)> {
    (
        prop_oneof![Just("grp"), Just("device"), Just("value")],
        prop_oneof![Just(1usize), 2usize..6, Just(100usize)],
    )
}

/// A random exclusion set in base-table coordinates (some rows possibly
/// out of range or duplicated — both paths must tolerate both).
fn arbitrary_exclusions() -> impl Strategy<Value = Vec<RowId>> {
    proptest::collection::vec((0usize..70).prop_map(RowId), 0..40)
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

/// A statement to rank under, with the aggregate column ε reads.
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
        // The LIMIT fallback: ε reads the brushed keys off the merged full
        // result.
        Just((
            "SELECT grp, sum(value) FROM m GROUP BY grp ORDER BY sum_value DESC LIMIT 3",
            "sum_value"
        )),
        // The implicit group.
        Just(("SELECT avg(value), count(*) FROM m", "avg_value")),
    ]
}

/// Every field of every ranked predicate, in order — bit for bit.
fn assert_same_ranking(
    flat: &[RankedPredicate],
    sharded: &[RankedPredicate],
) -> Result<(), String> {
    prop_assert_eq!(flat.len(), sharded.len());
    for (a, b) in flat.iter().zip(sharded) {
        prop_assert!(
            a.predicate == b.predicate,
            "order diverged: {} != {}",
            a.predicate,
            b.predicate
        );
        for (field, x, y) in [
            ("score", a.score, b.score),
            ("error_before", a.error_before, b.error_before),
            ("error_after", a.error_after, b.error_after),
            ("improvement", a.improvement, b.improvement),
            ("example_f1", a.example_f1, b.example_f1),
        ] {
            prop_assert!(x.to_bits() == y.to_bits(), "{field} of {}: {x} != {y}", a.predicate);
        }
        prop_assert!(a.complexity == b.complexity, "complexity of {}", a.predicate);
        prop_assert!(
            a.matched_rows == b.matched_rows,
            "matched_rows of {}: {} != {}",
            a.predicate,
            a.matched_rows,
            b.matched_rows
        );
    }
    Ok(())
}

fn build_partition(table: &Table, column: &str, shards: usize) -> Arc<ShardedTable> {
    Arc::new(ShardedTable::hash(table, column, shards).unwrap())
}

/// `rows` as one local exclusion set per shard.
fn local_sets(sharded: &ShardedTable, rows: &[RowId]) -> Vec<RowSet> {
    let split = sharded.split_rows(rows);
    split.iter().zip(sharded.shards()).map(|(l, t)| RowSet::from_rows(t.num_rows(), l)).collect()
}

/// The GROUP BY key of every row (`[]`, the implicit group's, for an
/// ungrouped statement): asking by key for all of them asks for every
/// group there is.
fn every_key(table: &Table, stmt: &SelectStatement) -> Vec<Vec<Value>> {
    let key = |r| stmt.group_by.iter().map(|c| table.value_by_name(r, c).unwrap()).collect();
    table.row_ids().map(key).collect()
}

/// The core assertion: for one (table, partition, statement, exclusions)
/// tuple, the sharded cache's by-key results, excluding nothing and
/// excluding `excluded`, are bitwise identical to the unsharded cache's.
/// A LIMIT statement takes the merged full path (ORDER BY and LIMIT
/// applied over every merged group) before the keys filter it.
fn assert_equivalent(
    table: &Table,
    sharded: &Arc<ShardedTable>,
    sql: &str,
    excluded: &[RowId],
) -> Result<(), String> {
    let stmt = parse_select(sql).unwrap();
    let unsharded = GroupedAggregateCache::build(table, &stmt).unwrap();
    let cache = ShardedAggregateCache::build(sharded.clone(), &stmt).unwrap();
    let keys = every_key(table, &stmt);

    for excluded in [&[][..], excluded] {
        let a = unsharded.result(&ExclusionQuery::new().excluding_rows(excluded).for_keys(&keys));
        let b = cache.result_excluding_keys_local_sets(&local_sets(sharded, excluded), &keys);
        prop_assert!(
            a.rows == b.rows && a.group_keys == b.group_keys,
            "results diverged for {sql} excluding {excluded:?}: {:?} != {:?}",
            a.rows,
            b.rows
        );
        prop_assert_eq!(a.schema.names(), b.schema.names());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The headline property: random (table, partition, statement,
    /// exclusion) tuples — shard counts 1 / small / far beyond the row
    /// count — answer bitwise identically to the unsharded cache, full
    /// and under exclusion.
    #[test]
    fn sharded_matches_unsharded(
        table in arbitrary_table(),
        (column, shards) in arbitrary_partition(),
        excluded in arbitrary_exclusions(),
        sql_a in arbitrary_statement(),
        sql_b in arbitrary_statement(),
    ) {
        let sharded = build_partition(&table, column, shards);
        prop_assert_eq!(
            sharded.shards().iter().map(|s| s.num_rows()).sum::<usize>(),
            table.num_rows()
        );
        for sql in [&sql_a, &sql_b] {
            assert_equivalent(&table, &sharded, sql, &excluded)?;
        }
    }

    /// Threshold predicates: under partitioning on the aggregated column,
    /// exclusion sets drawn from a threshold predicate touch every shard.
    /// The per-key path must agree with the unsharded per-key path too.
    #[test]
    fn threshold_predicates_match_on_the_per_key_path(
        table in arbitrary_table(),
        shards in 2usize..5,
        threshold in -50i64..150,
    ) {
        let sharded = build_partition(&table, "value", shards);
        let stmt = parse_select("SELECT grp, avg(value), count(*) FROM m GROUP BY grp").unwrap();
        let unsharded = GroupedAggregateCache::build(&table, &stmt).unwrap();
        let cache = ShardedAggregateCache::build(sharded.clone(), &stmt).unwrap();

        // The exclusion set of `value > t/2` is exactly the ranker's
        // TRUE-or-UNKNOWN rows.
        let predicate =
            ConjunctivePredicate::new(vec![Condition::above("value", threshold as f64 / 2.0)]);
        let p_expr = predicate.to_expr();
        let excluded: Vec<RowId> = table
            .row_ids()
            .filter(|&r| {
                unsharded.contains(r)
                    && !matches!(p_expr.eval(&table, r), Ok(Value::Bool(false)))
            })
            .collect();

        let keys: Vec<Vec<Value>> = (0..4).map(|g| vec![Value::Int(g)]).collect();
        let a = unsharded.result(&ExclusionQuery::new().excluding_rows(&excluded).for_keys(&keys));
        let b = cache.result_excluding_keys_local_sets(&local_sets(&sharded, &excluded), &keys);
        prop_assert!(
            a.rows == b.rows && a.group_keys == b.group_keys,
            "per-key results diverged at threshold {threshold}: {:?} != {:?}",
            a.rows,
            b.rows
        );
        assert_equivalent(&table, &sharded, "SELECT grp, sum(value), min(value) FROM m GROUP BY grp", &excluded)?;
    }

    /// Whole-group and whole-table exclusion across shard boundaries:
    /// groups that vanish must vanish identically, and excluding every
    /// row leaves both paths agreeing on the empty (or implicit-group)
    /// answer.
    #[test]
    fn cross_shard_group_exclusion_matches(
        table in arbitrary_table(),
        (column, shards) in arbitrary_partition(),
        victim in 0i64..4,
    ) {
        let sharded = build_partition(&table, column, shards);
        let excluded: Vec<RowId> = (0..table.num_rows())
            .map(RowId)
            .filter(|&r| {
                table.value_by_name(r, "grp").map(|v| v == Value::Int(victim)).unwrap_or(false)
            })
            .collect();
        assert_equivalent(&table, &sharded, "SELECT grp, sum(value), count(*) FROM m GROUP BY grp", &excluded)?;
        let all: Vec<RowId> = (0..table.num_rows()).map(RowId).collect();
        assert_equivalent(&table, &sharded, "SELECT grp, avg(value) FROM m GROUP BY grp", &all)?;
        assert_equivalent(&table, &sharded, "SELECT avg(value), count(*), min(value) FROM m", &all)?;
    }

    /// The one ranker, two shard sets: for a random candidate pool, a
    /// random brushed group and a random D′ (duplicates and out-of-table rows included),
    /// `rank_predicates_sharded` over any partition returns exactly what
    /// `rank_predicates_with_cache` returns over the base table — every
    /// field of every entry, in the same order.
    #[test]
    fn sharded_ranking_matches_unsharded_on_every_field(
        table in arbitrary_table(),
        (column, shards) in arbitrary_partition(),
        (sql, metric_column) in arbitrary_ranked_statement(),
        threshold in -100i64..300,
        brushed in proptest::collection::vec(0usize..24, 1..4),
        examples in arbitrary_exclusions(),
        conjunctions in proptest::collection::vec(arbitrary_conjunction(), 1..10),
    ) {
        let sharded = build_partition(&table, column, shards);
        let mut catalog = Catalog::new();
        catalog.register(table.clone()).unwrap();
        let result = execute_sql(&catalog, sql).unwrap();
        if result.is_empty() {
            // The WHERE clause filtered every row: nothing to brush.
            return Ok(());
        }
        let selected: Vec<usize> = brushed.iter().map(|i| i % result.len()).collect();
        let metric = ErrorMetric::too_high(metric_column, threshold as f64 / 2.0);
        let config = RankerConfig { max_results: 64, ..Default::default() };

        let flat = GroupedAggregateCache::build(&table, &result.statement).unwrap();
        let cache = ShardedAggregateCache::build(sharded, &result.statement).unwrap();
        assert_same_ranking(
            &rank_predicates_with_cache(
                &flat, &result, &selected, &examples, &metric, conjunctions.clone(), &config,
            )
            .unwrap(),
            &rank_predicates_sharded(
                &cache, &result, &selected, &examples, &metric, conjunctions, &config,
            )
            .unwrap(),
        )?;
    }
}

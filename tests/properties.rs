//! Property-based tests over the storage, engine and provenance invariants
//! the rest of the system relies on.

mod common;

use dbwipes::engine::{execute, parse_select, ExecOptions};
use dbwipes::storage::{
    col, lit, Condition, ConjunctivePredicate, DataType, Schema, Value, CHUNK_ROWS,
};
use dbwipes::{RowId, Table};
use proptest::prelude::*;

/// A small random table of sensor-style rows.
fn arbitrary_table() -> impl Strategy<Value = Table> {
    let row = (0i64..4, 0i64..6, prop_oneof![Just(None), (-50.0..150.0f64).prop_map(Some)]);
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

/// The cells the group stage must tell apart, or not: per column a small
/// pool, drawn from with NULLs. `i` draws, chunk by chunk, from the pool
/// of the width class `widths` gives that chunk, so its chunks seal at
/// one, two, four and eight bytes; each pool also holds 0 and 1, so equal
/// values meet across widths. Ints beyond 2^53 share an `f64` (2^53 and
/// 2^53 + 1, `i64::MAX` and `i64::MAX - 1`), floats hold both zeros and
/// three NaN payloads, strings differ by case and by a prefix.
fn grouping_table(seed: u64, rows: usize, widths: [usize; 3]) -> Table {
    const P53: i64 = 1 << 53;
    let ints: [&[i64]; 4] = [
        &[-128, 127, -1, 0, 1],
        &[-129, 128, i16::MIN as i64, i16::MAX as i64, 0, 1],
        &[-32_769, 32_768, i32::MIN as i64, i32::MAX as i64, 0, 1],
        &[P53, P53 + 1, P53 + 2, -P53 - 1, i64::MIN, i64::MAX, i64::MAX - 1, 0, 1],
    ];
    let floats = [
        0.0,
        -0.0,
        f64::NAN,
        f64::from_bits(0x7ff8_0000_0000_0001),
        -f64::NAN,
        1.0,
        1.5,
        f64::INFINITY,
    ];
    let strs = ["", "a", "A", "ab", "b", "\u{fc}"];
    let stamps = [0, 60, 3600, 1 << 40, -1];
    let schema = Schema::of(&[
        ("i", DataType::Int),
        ("t", DataType::Timestamp),
        ("f", DataType::Float),
        ("s", DataType::Str),
        ("b", DataType::Bool),
        ("v", DataType::Float),
    ]);
    let mut table = Table::new("g", schema).unwrap();
    let cells = (0..rows).map(|r| {
        let draw = |c: u64| common::mix(seed ^ common::mix(r as u64 * 8 + c));
        let pick = |c: u64, n: usize| (draw(c) % 8 != 0).then(|| (draw(c) >> 8) as usize % n);
        let pool = ints[widths[(r / CHUNK_ROWS).min(2)]];
        vec![
            pick(0, pool.len()).map_or(Value::Null, |k| Value::Int(pool[k])),
            pick(1, stamps.len()).map_or(Value::Null, |k| Value::Timestamp(stamps[k])),
            pick(2, floats.len()).map_or(Value::Null, |k| Value::Float(floats[k])),
            pick(3, strs.len()).map_or(Value::Null, |k| Value::str(strs[k])),
            pick(4, 2).map_or(Value::Null, |k| Value::Bool(k == 1)),
            pick(5, 1000).map_or(Value::Null, |k| Value::Float(k as f64 / 10.0)),
        ]
    });
    table.push_rows(cells.collect()).unwrap();
    table
}

/// The GROUP BY lists `grouping_matches_a_naive_reference` draws from.
const GROUPINGS: [&str; 9] = ["i", "t", "f", "s", "b", "i, s", "f, b", "s, i", "b, t, f"];

/// A value with every bit that tells it apart: `Value` equality cannot
/// see which of two Ints that share an `f64`, or which NaN, a key holds.
fn exact(v: &Value) -> String {
    match v {
        Value::Float(f) => format!("Float({:#x})", f.to_bits()),
        other => format!("{other:?}"),
    }
}

proptest! {
    // Each case is a table of more than a chunk's rows.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The group stage against a naive reference over more than a chunk's
    /// rows: one linear search per row through the groups seen so far,
    /// under `Value` equality, groups in first-seen order with the first
    /// row's values as their key. Through `execute`, sorted by key: the
    /// same keys, to the last bit; the same rows per group, in scan order.
    #[test]
    fn grouping_matches_a_naive_reference(
        seed in any::<u64>(),
        extra in 1..CHUNK_ROWS + 64,
        widths in (0usize..4, 0usize..4, 0usize..4),
        keys in 0..GROUPINGS.len(),
        threshold in proptest::option::of(0.0..100.0f64),
    ) {
        let (table, keys) = (grouping_table(seed, CHUNK_ROWS + extra, widths.into()), GROUPINGS[keys]);
        let where_clause = threshold.map_or(String::new(), |t| format!(" WHERE v > {t}"));
        let stmt = parse_select(&format!(
            "SELECT {keys}, count(*) AS n FROM g{where_clause} GROUP BY {keys}"
        )).unwrap();
        let result = execute(&table, &stmt, ExecOptions::default()).unwrap();

        let columns: Vec<&str> = keys.split(", ").collect();
        let mut groups: Vec<(Vec<Value>, Vec<RowId>)> = Vec::new();
        for row in table.row_ids() {
            let v = table.value_by_name(row, "v").unwrap().as_f64();
            if threshold.is_some_and(|t| !v.is_some_and(|v| v > t)) {
                continue;
            }
            let key: Vec<Value> =
                columns.iter().map(|c| table.value_by_name(row, c).unwrap()).collect();
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, rows)) => rows.push(row),
                None => groups.push((key, vec![row])),
            }
        }
        groups.sort_by(|a, b| a.0.cmp(&b.0));

        let exact_key = |key: &[Value]| key.iter().map(exact).collect::<Vec<_>>();
        prop_assert_eq!(result.len(), groups.len());
        for (i, (key, rows)) in groups.iter().enumerate() {
            prop_assert_eq!(exact_key(&result.group_keys[i]), exact_key(key));
            prop_assert_eq!(result.inputs_of(i), rows.as_slice());
            prop_assert_eq!(result.value(i, "n").unwrap(), Value::Int(rows.len() as i64));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The lineage of a group-by query partitions exactly the rows that pass
    /// the WHERE clause: whatever the ORDER BY and LIMIT, each output row's
    /// lineage is the filtered rows whose `grp` is its key, in scan order,
    /// and without a LIMIT every filtered row appears in exactly one group.
    #[test]
    fn lineage_partitions_the_filtered_input(
        table in arbitrary_table(),
        threshold in -60.0..160.0f64,
        order_by in prop_oneof![
            Just(""),
            Just(" ORDER BY grp"),
            Just(" ORDER BY grp DESC"),
            Just(" ORDER BY a DESC"),
        ],
        limit in proptest::option::of(0usize..5),
    ) {
        let limit_clause = limit.map_or(String::new(), |n| format!(" LIMIT {n}"));
        let stmt = parse_select(&format!(
            "SELECT grp, avg(value) AS a FROM m WHERE value > {threshold} GROUP BY grp{order_by}{limit_clause}"
        )).unwrap();
        let result = execute(&table, &stmt, ExecOptions::default()).unwrap();
        let filtered: Vec<RowId> = col("value").gt(lit(threshold)).filter(&table).unwrap();
        for i in 0..result.len() {
            let key = &result.group_keys[i];
            let expected: Vec<RowId> = filtered
                .iter()
                .copied()
                .filter(|&r| table.value_by_name(r, "grp").unwrap() == key[0])
                .collect();
            prop_assert_eq!(result.inputs_of(i), expected.as_slice());
        }
        if limit.is_none() {
            let mut all_inputs: Vec<RowId> =
                (0..result.len()).flat_map(|i| result.inputs_of(i).to_vec()).collect();
            all_inputs.sort();
            let mut expected = filtered.clone();
            expected.sort();
            prop_assert_eq!(all_inputs, expected);
        }
    }

    /// Aggregates computed by the engine match a naive reference computation
    /// over the lineage rows.
    #[test]
    fn aggregates_match_naive_reference(table in arbitrary_table()) {
        let stmt = parse_select(
            "SELECT grp, avg(value), sum(value), count(value), min(value), max(value) FROM m GROUP BY grp",
        ).unwrap();
        let result = execute(&table, &stmt, ExecOptions::default()).unwrap();
        for i in 0..result.len() {
            let values: Vec<f64> = result
                .inputs_of(i)
                .iter()
                .filter_map(|&r| table.value_by_name(r, "value").unwrap().as_f64())
                .collect();
            let avg = result.value_f64(i, "avg_value").unwrap();
            let sum = result.value_f64(i, "sum_value").unwrap();
            let count = result.value_f64(i, "count_value").unwrap().unwrap();
            let min = result.value_f64(i, "min_value").unwrap();
            let max = result.value_f64(i, "max_value").unwrap();
            prop_assert_eq!(count as usize, values.len());
            if values.is_empty() {
                prop_assert!(avg.is_none());
                prop_assert!(sum.is_none());
                prop_assert!(min.is_none());
                prop_assert!(max.is_none());
            } else {
                let naive_sum: f64 = values.iter().sum();
                prop_assert!((sum.unwrap() - naive_sum).abs() < 1e-6);
                prop_assert!((avg.unwrap() - naive_sum / values.len() as f64).abs() < 1e-6);
                prop_assert!((min.unwrap() - values.iter().copied().fold(f64::INFINITY, f64::min)).abs() < 1e-9);
                prop_assert!((max.unwrap() - values.iter().copied().fold(f64::NEG_INFINITY, f64::max)).abs() < 1e-9);
            }
        }
    }

    /// Clean-as-you-query soundness: rewriting the query with `AND NOT p` is
    /// equivalent to running it over a table that never held the rows
    /// matching `p`.
    #[test]
    fn query_rewrite_equals_physical_deletion(table in arbitrary_table(), device in 0i64..6) {
        let predicate = ConjunctivePredicate::new(vec![Condition::equals("device", device)]);
        let stmt = parse_select("SELECT grp, avg(value), count(*) FROM m GROUP BY grp").unwrap();

        let rewritten_stmt = stmt.with_additional_filter(predicate.to_exclusion_expr());
        let rewritten = execute(&table, &rewritten_stmt, ExecOptions::default()).unwrap();

        let matching = predicate.matching_rows(&table);
        let kept: Vec<_> = table.row_ids().filter(|r| !matching.contains(r)).collect();
        let (physical, _) = table.materialize(&kept, table.name()).unwrap();
        let never_held = execute(&physical, &stmt, ExecOptions::default()).unwrap();

        prop_assert_eq!(rewritten.rows, never_held.rows);
        prop_assert_eq!(rewritten.group_keys, never_held.group_keys);
        prop_assert_eq!(rewritten.schema.names(), never_held.schema.names());
    }

    /// A conjunctive predicate matches a row iff its compiled expression
    /// evaluates to TRUE on that row, and its matched set plus its exclusion
    /// set cover every row at most once.
    #[test]
    fn predicate_and_expression_agree(table in arbitrary_table(), low in -50.0..150.0f64, device in 0i64..6) {
        let predicate = ConjunctivePredicate::new(vec![
            Condition::above("value", low),
            Condition::equals("device", device),
        ]);
        let matched = predicate.matching_rows(&table);
        let via_expr = predicate.to_expr().filter(&table).unwrap();
        prop_assert_eq!(matched.clone(), via_expr);
        let excluded = predicate.to_exclusion_expr().filter(&table).unwrap();
        // NULL `value` rows satisfy neither the predicate nor its negation
        // (SQL three-valued logic), so matched + excluded <= all rows.
        prop_assert!(matched.len() + excluded.len() <= table.num_rows());
        for r in &matched {
            prop_assert!(!excluded.contains(r));
        }
    }

    /// The influence of every tuple is bounded by the base error when the
    /// metric combines penalties with `Sum` over a single selected group,
    /// and removing the *most* influential tuple never increases the error
    /// beyond the base (sanity of leave-one-out analysis).
    #[test]
    fn influence_is_consistent_with_base_error(table in arbitrary_table(), threshold in 0.0..80.0f64) {
        let stmt = parse_select("SELECT grp, avg(value) FROM m GROUP BY grp").unwrap();
        let result = execute(&table, &stmt, ExecOptions::default()).unwrap();
        if result.is_empty() {
            return Ok(());
        }
        let metric = dbwipes::ErrorMetric::too_high("avg_value", threshold);
        let selected = vec![0usize];
        let report = dbwipes::core::rank_influence(&table, &result, &selected, &metric);
        let report = match report {
            Ok(r) => r,
            Err(_) => return Ok(()),
        };
        prop_assert!(report.base_error >= 0.0);
        for t in &report.influences {
            // influence = base - after, and after >= 0, so influence <= base.
            prop_assert!(t.influence <= report.base_error + 1e-9);
        }
    }
}

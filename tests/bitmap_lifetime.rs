//! The lifetime of condition bitmaps, as a property of the explanation.
//!
//! A table snapshot owns the bitmaps that index it
//! (`Table::condition_bitmaps`): every explain over the snapshot and its
//! unmodified clones shares them, and a table that is decoded, replayed
//! from its table file or appended to starts with none. Whatever
//! the bitmaps' state, the answer is the one an independent cold copy of
//! the same data gives. This is the "bitmaps cold vs warm" axis of the
//! bit-identity matrix, on the sensor and FEC fixtures.

mod common;

use dbwipes::core::explain_with_cache;
use dbwipes::data::{generate_fec, generate_sensor, FecConfig, SensorConfig};
use dbwipes::engine::{execute, parse_select, ExecOptions, GroupedAggregateCache};
use dbwipes::storage::persist::{decode_table, encode_table};
use dbwipes::storage::{FsBackend, StorageBackend, CHUNK_ROWS};
use dbwipes::{ErrorMetric, ExplanationRequest, RowId, Table};
use std::sync::Arc;

/// One question about a table: the statement, and the thresholds beyond
/// which (above when `high`) an output is in S and one of its inputs in D′.
struct Question {
    sql: String,
    output: (&'static str, f64),
    input: (&'static str, f64),
    high: bool,
}

/// The explanation of `q` over `table`: every field but the wall-clock
/// `timings`. `{:?}` prints a float's shortest round-trip form, so equal
/// strings are equal values, field for field.
fn explain(q: &Question, table: &Table) -> String {
    let beyond = |v: Option<f64>, t: f64| v.is_some_and(|v| if q.high { v > t } else { v < t });
    let result = execute(table, &parse_select(&q.sql).unwrap(), ExecOptions::default()).unwrap();
    let outputs: Vec<usize> = (0..result.len())
        .filter(|&i| beyond(result.value_f64(i, q.output.0).unwrap(), q.output.1))
        .collect();
    let column = table.column_by_name(q.input.0).unwrap();
    let mut inputs = result.inputs_of_rows(&outputs);
    inputs.retain(|r| beyond(column.get_f64(r.index()), q.input.1));
    assert!(!outputs.is_empty() && !inputs.is_empty(), "both brushes select something");
    let metric = match q.high {
        true => ErrorMetric::too_high(q.output.0, q.output.1),
        false => ErrorMetric::too_low(q.output.0, q.output.1),
    };
    let request = ExplanationRequest::new(outputs, inputs, metric);
    let cache = GroupedAggregateCache::build(table, &result.statement).unwrap();
    let e = explain_with_cache(&cache, &result, &request).unwrap();
    format!("{:?}\n{:#?}\n{:?}\n{:?}", e.base_error, e.predicates, e.influence, e.candidates)
}

/// The same data, id and version with nothing derived attached, made without
/// `Clone` (which shares the bitmaps on purpose).
fn cold_copy(table: &Table) -> Table {
    let copy = decode_table(&encode_table(table)).unwrap();
    assert_eq!((copy.id(), copy.version()), (table.id(), table.version()));
    assert_eq!(copy.retained_condition_bitmaps(), (0, 0));
    copy
}

/// Explains `table` and requires the answer of an independent cold copy.
fn explain_checked(q: &Question, table: &Table, what: &str) -> String {
    let (got, cold) = (explain(q, table), explain(q, &cold_copy(table)));
    assert!(got == cold, "{what}: the answer differs from a cold copy's\n{got}\nvs cold\n{cold}");
    got
}

fn check_lifetime(tag: &str, table: Table, q: &Question) {
    let extra_rows: Vec<_> = (0..200).map(|r| table.row(RowId(r)).unwrap()).collect();

    // The same snapshot twice: the first explain scans, the second adds no
    // miss, and both equal the cold answer.
    let first = explain_checked(q, &table, "first explain");
    let cache = table.condition_bitmaps();
    let (hits, scanned) = cache.stats();
    let (retained, bytes) = table.retained_condition_bitmaps();
    assert!(scanned > 0 && retained > 0, "the ranking warmed the snapshot's cache");
    assert_eq!(bytes, retained * 2 * table.num_rows().div_ceil(64) * 8);
    assert_eq!(explain(q, &table), first);
    assert_eq!(cache.stats().1, scanned, "the second explain of a snapshot scans nothing");
    assert!(cache.stats().0 > hits, "it was answered from the bitmaps");
    assert_eq!(table.retained_condition_bitmaps(), (retained, bytes));

    // A clone is the same snapshot: it shares the cache.
    let clone = table.clone();
    assert!(Arc::ptr_eq(&cache, &clone.condition_bitmaps()));
    assert_eq!(explain(q, &clone), first);
    assert_eq!(cache.stats().1, scanned, "a clone's explain scans nothing either");

    // A decoded image has the id and version and none of the bitmaps.
    let decoded = cold_copy(&table);
    assert_eq!(explain(q, &decoded), first);
    assert_eq!(decoded.condition_bitmaps().stats().1, scanned, "decoded: scanned from scratch");

    // A grown snapshot starts cold; the snapshot it grew from keeps
    // its cache and still answers for its own rows from it.
    let mut grown = table.clone();
    grown.push_rows(extra_rows).unwrap();
    assert_eq!(grown.retained_condition_bitmaps(), (0, 0), "an append starts cold");
    assert!(!cache.covers(&grown));
    explain_checked(q, &grown, "grown snapshot");
    assert!(grown.retained_condition_bitmaps().0 > 0);
    assert!(Arc::ptr_eq(&cache, &table.condition_bitmaps()), "the old snapshot keeps its cache");
    assert_eq!(explain(q, &table), first);
    assert_eq!(cache.stats().1, scanned, "and still scans nothing");

    // A whole-file write plus an appended record, replayed: the id and
    // version of the grown table, no bitmaps.
    let dir = std::env::temp_dir().join(format!("dbwipes-bitmaps-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let backend = FsBackend::open(&dir).unwrap();
    backend.save_table(&table).unwrap();
    backend.save_table(&grown).unwrap();
    assert_eq!(
        backend.write_counters().segment_appends,
        1,
        "the append went to the table file as one record"
    );
    let replayed = FsBackend::open(&dir).unwrap().load_table(table.id()).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!((replayed.id(), replayed.version()), (grown.id(), grown.version()));
    assert_eq!(replayed.retained_condition_bitmaps(), (0, 0), "a replayed table starts cold");
    explain_checked(q, &replayed, "whole file + appended record replay");
    assert_eq!(cache.stats().1, scanned, "none of this touched the first snapshot's cache");
}

#[test]
fn sensor_explanations_do_not_depend_on_what_the_snapshot_has_cached() {
    let config =
        SensorConfig { num_readings: 16_000, failing_sensors: vec![15], ..SensorConfig::small() };
    let ds = generate_sensor(&config);
    let q = Question {
        sql: ds.window_query(),
        output: ("std_temp", 6.0),
        input: ("temp", 70.0),
        high: true,
    };
    check_lifetime("sensor", ds.table, &q);
}

#[test]
fn fec_explanations_do_not_depend_on_what_the_snapshot_has_cached() {
    let ds = generate_fec(&FecConfig { num_contributions: 20_000, ..FecConfig::default() });
    let q = Question {
        sql: ds.daily_total_query(),
        output: ("total", 0.0),
        input: ("amount", 0.0),
        high: false,
    };
    check_lifetime("fec", ds.table, &q);
}

/// One more input: the fixed multi-chunk table, a hundred rows short of
/// its second boundary, so the grown snapshot seals a chunk its parent
/// snapshot goes on sharing the first of, and the replayed appended record
/// straddles the boundary.
#[test]
fn chunked_explanations_do_not_depend_on_what_the_snapshot_has_cached() {
    let q = Question {
        sql: "SELECT id, avg(x) AS ax FROM m GROUP BY id ORDER BY id".into(),
        output: ("ax", 1.5),
        input: ("x", 17.5),
        high: true,
    };
    check_lifetime("chunks", common::boundary_table(2 * CHUNK_ROWS - 100), &q);
}

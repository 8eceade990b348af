//! Equivalence property tests for streaming ingestion.
//!
//! The streaming path never rebuilds: retained aggregate caches *absorb*
//! appended rows in place (`absorb_append_shared`), and open server sessions
//! fast-forward through the shared registry. These tests
//! pin the whole path to one property — **append-then-absorb is bitwise
//! identical to rebuild-from-scratch**:
//!
//! * [`GroupedAggregateCache::absorb_append_shared`] against a cold build over
//!   the grown table, full and under exclusion — including the MIN/MAX
//!   rescan fallback, groups created by appended rows, and appends
//!   interleaved with exclusion queries;
//! * the live-append gate: after N streamed batches through
//!   [`SessionManager::stream_append`], every open session's explanation
//!   is bit-identical to one computed on a freshly built table, with zero
//!   append-attributable tier-1 rebuilds asserted on the registry
//!   counters.
//!
//! Absorbing replays `AggregateState::add` over the appended suffix in
//! row order — exactly the additions a cold build would perform after the
//! prefix — so *bitwise* equality is the right assertion even off the
//! half-integer grid: any disagreement is an algorithmic bug in the
//! absorb path, never floating-point reordering noise.

mod common;

use dbwipes::data::{generate_sensor, SensorConfig};
use dbwipes::engine::{
    execute, parse_select, ExclusionQuery, ExecOptions, GroupedAggregateCache, SelectStatement,
};
use dbwipes::storage::{DataType, RowSet, Schema, Value, CHUNK_ROWS};
use dbwipes::{Catalog, RowId, Table};
use dbwipes_server::SessionManager;
use proptest::prelude::*;
use std::sync::Arc;

/// One synthetic reading: (grp, device, value-on-the-half-integer-grid).
type Row = (i64, i64, Option<f64>);

fn push_reading(t: &mut Table, (g, d, v): Row) {
    t.push_row(vec![Value::Int(g), Value::Int(d), v.map(Value::Float).unwrap_or(Value::Null)])
        .unwrap();
}

fn table_of(rows: &[Row]) -> Table {
    let schema = Schema::of(&[
        ("grp", DataType::Int),
        ("device", DataType::Int),
        ("value", DataType::Float),
    ]);
    let mut t = Table::new("m", schema).unwrap();
    for &row in rows {
        push_reading(&mut t, row);
    }
    t
}

/// An append-only descendant: the same table identity grown by `rows`.
fn grow(base: &Table, rows: &[Row]) -> Table {
    let mut grown = base.clone();
    for &row in rows {
        push_reading(&mut grown, row);
    }
    grown
}

/// Prefix rows draw groups from 0..4; appended rows from 0..8, so roughly
/// half the appended traffic lands in groups the prefix never created.
fn arbitrary_rows(
    groups: std::ops::Range<i64>,
    len: std::ops::Range<usize>,
) -> impl Strategy<Value = Vec<Row>> {
    let value = prop_oneof![Just(None), (-100i64..300).prop_map(|k| Some(k as f64 / 2.0))];
    proptest::collection::vec((groups, 0i64..6, value), len)
}

/// A random exclusion set over the *grown* universe (some rows possibly
/// out of range or duplicated — the cache must tolerate both).
fn arbitrary_exclusions() -> impl Strategy<Value = Vec<RowId>> {
    proptest::collection::vec((0usize..120).prop_map(RowId), 0..40)
}

/// Statement shapes covering every aggregate — MIN/MAX included, whose
/// states cannot subtract and exercise the rescan of the group's rows —
/// over bare columns and over expression arguments (NULL wherever `value`
/// is), which an absorbed cache re-evaluates on the grown snapshot.
fn arbitrary_statement() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(
            "SELECT grp, avg(value), sum(value), count(*), count(value) FROM m GROUP BY grp"
                .to_string()
        ),
        Just("SELECT grp, stddev(value), variance(value) FROM m GROUP BY grp".to_string()),
        Just("SELECT grp, min(value), max(value) FROM m GROUP BY grp".to_string()),
        Just("SELECT grp, device, sum(value), max(value) FROM m GROUP BY grp, device".to_string()),
        Just("SELECT avg(value), min(value), max(value), count(*) FROM m".to_string()),
        (-40i64..120).prop_map(|t| format!(
            "SELECT grp, avg(value), max(value) FROM m WHERE value > {} GROUP BY grp",
            t as f64 / 2.0
        )),
        // `device = k` keeps about a sixth of the rows, so the `AND` scans
        // `value` on those rows only.
        (0i64..6, -40i64..120).prop_map(|(k, t)| format!(
            "SELECT grp, sum(value), count(*) FROM m WHERE device = {k} AND value > {} GROUP BY grp",
            t as f64 / 2.0
        )),
        Just(
            "SELECT grp, count(value) FROM m GROUP BY grp ORDER BY 2 DESC, grp LIMIT 2".to_string()
        ),
        Just("SELECT grp, sum(value * 2), avg(value + device) FROM m GROUP BY grp".to_string()),
        Just(
            "SELECT grp, max(value - 1), min(value + device), count(*) FROM m GROUP BY grp"
                .to_string()
        ),
    ]
}

/// The core cache assertion: an absorbed cache answers exactly like one
/// cold-built over the same grown table, full and under exclusion.
fn assert_cache_matches_rebuild(
    absorbed: &GroupedAggregateCache,
    grown: &Table,
    sql: &str,
    excluded: &[RowId],
) -> Result<(), String> {
    let stmt = parse_select(sql).unwrap();
    let rebuilt = GroupedAggregateCache::build(grown, &stmt).unwrap();
    // The registry re-keys an absorbed cache by this.
    prop_assert_eq!(absorbed.fingerprint(), rebuilt.fingerprint());
    let a = absorbed.cleaned_result(&stmt, None);
    let b = rebuilt.cleaned_result(&stmt, None);
    prop_assert!(
        a.rows == b.rows && a.group_keys == b.group_keys,
        "full results diverged for {sql}: {:?} != {:?}",
        a.rows,
        b.rows
    );
    prop_assert_eq!(a.schema.names(), b.schema.names());
    // Rows beyond the grown table drop, as the cache ignores them.
    let n = grown.num_rows();
    let excluded = RowSet::from_rows(n, excluded.iter().filter(|r| r.index() < n));
    let q = ExclusionQuery::new().excluding_set(&excluded);
    // Whole, and by key for every group: the subtracting path, which
    // removes appended rows' contributions from absorbed states.
    let unlimited = SelectStatement { limit: None, ..stmt };
    let every_key = execute(grown, &unlimited, ExecOptions::default()).unwrap().group_keys;
    for q in [q, q.for_keys(&every_key)] {
        let a = absorbed.result(&q);
        let b = rebuilt.result(&q);
        prop_assert!(
            a.rows == b.rows && a.group_keys == b.group_keys,
            "excluding results diverged for {sql} excluding {excluded:?}: {:?} != {:?}",
            a.rows,
            b.rows
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The headline property: build on a prefix, absorb two successive
    /// append waves — querying under exclusion between the waves — and
    /// stay bitwise identical to a cold build at every step. Appended
    /// groups (drawn beyond the prefix's range) must appear exactly where
    /// a rebuild would put them.
    #[test]
    fn absorbed_cache_matches_rebuild_from_scratch(
        prefix in arbitrary_rows(0i64..4, 1..40),
        wave_a in arbitrary_rows(0i64..8, 0..30),
        wave_b in arbitrary_rows(0i64..8, 0..30),
        excluded in arbitrary_exclusions(),
        sql_a in arbitrary_statement(),
        sql_b in arbitrary_statement(),
    ) {
        let base = table_of(&prefix);
        let grown_a = Arc::new(grow(&base, &wave_a));
        let grown_b = Arc::new(grow(&grown_a, &wave_b));
        prop_assert_eq!(grown_b.id(), base.id());
        // An append of nothing leaves the version alone.
        if wave_a.is_empty() && wave_b.is_empty() {
            prop_assert_eq!(grown_b.version(), base.version());
        } else {
            prop_assert!(grown_b.version() > base.version());
        }

        for sql in [&sql_a, &sql_b] {
            let stmt = parse_select(sql).unwrap();
            let mut cache = GroupedAggregateCache::build(&base, &stmt).unwrap();
            // The return value counts appended rows that *passed the
            // statement's filter* — at most the wave, exactly it when
            // the statement has no WHERE clause.
            prop_assert!(cache.absorb_append_shared(Arc::clone(&grown_a)).unwrap() <= wave_a.len());
            assert_cache_matches_rebuild(&cache, &grown_a, sql, &excluded)?;
            // Second wave *after* the exclusion queries: absorbing must
            // compose with prior incremental answers, not just cold state.
            prop_assert!(cache.absorb_append_shared(Arc::clone(&grown_b)).unwrap() <= wave_b.len());
            prop_assert!(
                cache.absorb_append_shared(Arc::clone(&grown_b)).unwrap() == 0,
                "re-absorb is a no-op"
            );
            assert_cache_matches_rebuild(&cache, &grown_b, sql, &excluded)?;
        }
    }

    /// MIN/MAX under streaming: appended rows dethrone every group's
    /// extrema (values far beyond the prefix grid), then exclusions
    /// targeted at exactly those appended extrema force the rescan
    /// fallback *through absorbed state* — the retained argument lists
    /// must cover appended rows too.
    #[test]
    fn absorbed_min_max_extrema_match_rebuild(
        prefix in arbitrary_rows(0i64..4, 1..40),
        spikes in proptest::collection::vec((0i64..4, 0i64..6, any::<bool>()), 1..10),
    ) {
        let base = table_of(&prefix);
        let wave: Vec<Row> = spikes
            .iter()
            .map(|&(g, d, high)| (g, d, Some(if high { 400.0 } else { -400.0 })))
            .collect();
        let grown = grow(&base, &wave);
        let sql = "SELECT grp, min(value), max(value), avg(value) FROM m GROUP BY grp";
        let stmt = parse_select(sql).unwrap();
        let mut cache = GroupedAggregateCache::build(&base, &stmt).unwrap();
        cache.absorb_append_shared(Arc::new(grown.clone())).unwrap();
        // Exclude exactly the appended spikes: the new min/max of each
        // touched group vanishes and the rescan must find the runner-up.
        let excluded: Vec<RowId> = (base.num_rows()..grown.num_rows()).map(RowId).collect();
        assert_cache_matches_rebuild(&cache, &grown, sql, &excluded)?;
        assert_cache_matches_rebuild(&cache, &grown, sql, &[])?;
    }
}

/// The headline property on one more input, the fixed multi-chunk table:
/// a cache built over a snapshot whose tail is nearly full absorbs an
/// append that seals that chunk and starts the next — the snapshot it was
/// built on still held, so the append is a copy-on-write — and a second
/// that lands in the new tail, bitwise identical to a cold build each time.
#[test]
fn absorbing_an_append_that_seals_a_chunk_matches_rebuild() {
    let base = common::boundary_table(2 * CHUNK_ROWS - 100);
    let mut grown_a = base.clone();
    grown_a.push_rows(common::boundary_rows(base.num_rows()..2 * CHUNK_ROWS + 3)).unwrap();
    let mut grown_b = grown_a.clone();
    grown_b.push_rows(common::boundary_rows(grown_a.num_rows()..common::BOUNDARY_ROWS)).unwrap();
    // Rows either side of both boundaries, appended ones among them.
    let excluded: Vec<RowId> = [CHUNK_ROWS, 2 * CHUNK_ROWS]
        .iter()
        .flat_map(|boundary| (boundary - 3..boundary + 3).map(RowId))
        .collect();
    for sql in [
        "SELECT id, avg(x), sum(x), count(*), count(x) FROM m GROUP BY id",
        "SELECT id, memo, min(x), max(x), stddev(x) FROM m GROUP BY id, memo",
        "SELECT flag, avg(x + id), max(x - 1) FROM m WHERE x > -5 GROUP BY flag",
        // A selective `AND` on a string, a tree, and a row leaf (walked
        // over the appended rows).
        "SELECT flag, count(*), avg(x) FROM m WHERE id = 3 AND memo CONTAINS 'spouse' GROUP BY flag",
        "SELECT id, sum(x), count(*) FROM m WHERE NOT (memo = 'ok') OR flag = true GROUP BY id",
        "SELECT id, count(*), max(x) FROM m WHERE x + id > 0 GROUP BY id",
    ] {
        let mut cache = GroupedAggregateCache::build(&base, &parse_select(sql).unwrap()).unwrap();
        assert!(cache.absorb_append_shared(Arc::new(grown_a.clone())).unwrap() <= 103);
        assert_cache_matches_rebuild(&cache, &grown_a, sql, &excluded).unwrap();
        assert!(cache.absorb_append_shared(Arc::new(grown_b.clone())).unwrap() <= 14);
        assert_cache_matches_rebuild(&cache, &grown_b, sql, &excluded).unwrap();
    }
}

/// One appended sensor reading (schema: sensorid, epoch, hour, window,
/// temp, humidity, light, voltage), landing in the existing window 0 so
/// streamed rows join groups every open session already selected.
fn reading(sensor: i64, temp: f64) -> Vec<Value> {
    vec![
        Value::Int(sensor),
        Value::Int(0),
        Value::Int(0),
        Value::Int(0),
        Value::Float(temp),
        Value::Float(40.0),
        Value::Float(300.0),
        Value::Float(2.5),
    ]
}

/// Everything observable about an explanation, bit-exact: the predicate
/// renderings plus the raw IEEE-754 bits of every score component.
#[allow(clippy::type_complexity)]
fn explanation_bits(
    e: &dbwipes::Explanation,
) -> (u64, Vec<(String, u64, u64, u64, u64, u64, usize, usize)>) {
    (
        e.base_error.to_bits(),
        e.predicates
            .iter()
            .map(|p| {
                (
                    p.predicate.to_string(),
                    p.score.to_bits(),
                    p.error_before.to_bits(),
                    p.error_after.to_bits(),
                    p.improvement.to_bits(),
                    p.example_f1.to_bits(),
                    p.complexity,
                    p.matched_rows,
                )
            })
            .collect(),
    )
}

/// The live-append equivalence gate. Two sessions are mid-investigation
/// when three `stream_append` batches land; afterwards each session's
/// explanation must be bit-identical to one computed on a freshly built
/// table holding the same rows, and the registry counters must show the
/// appends caused *zero* tier-1 rebuilds (one lifetime miss: the first
/// cold build, fast-forwarded through `absorb_append_shared` ever after).
#[test]
fn live_append_gate_streamed_sessions_match_a_fresh_table() {
    let ds = generate_sensor(&SensorConfig {
        num_readings: 2_700,
        failing_sensors: vec![15],
        ..SensorConfig::small()
    });
    let query = ds.window_query();
    let mut catalog = Catalog::new();
    catalog.register(ds.table.clone()).unwrap();
    let m = SessionManager::new(catalog);

    // Both sessions brush every output and pick an ε; session A explains
    // before any rows stream in, session B stays at the brushing stage.
    let metric = || dbwipes::ErrorMetric::too_high("std_temp", 4.0);
    let (a, b) = (m.open_session(), m.open_session());
    for id in [a, b] {
        let handle = m.session(id).unwrap();
        let mut s = handle.lock().unwrap();
        s.dashboard_mut().run_query(&query).unwrap();
        let outputs: Vec<usize> = (0..s.dashboard().result().unwrap().len()).collect();
        s.dashboard_mut().select_outputs(outputs);
        s.dashboard_mut().set_metric(metric());
    }
    {
        let handle = m.session(a).unwrap();
        let mut s = handle.lock().unwrap();
        s.debug_cached(m.registry()).unwrap();
    }
    assert_eq!(m.registry().stats().misses, 1, "exactly one cold build before streaming");

    // Three streamed batches: hot readings across many sensors, all in
    // the already-selected window.
    for batch in 0..3u8 {
        let rows: Vec<Vec<Value>> =
            (0..48).map(|i| reading(i % 20, 55.0 + f64::from(batch))).collect();
        let report = m.stream_append("readings", rows).unwrap();
        assert_eq!(report.appended, 48);
        assert_eq!(report.sessions_refreshed, 2, "both open sessions adopt batch {batch}");
    }
    let stats = m.registry().stats();
    assert_eq!(stats.misses, 1, "appends must never rebuild a tier-1 cache");
    assert_eq!(stats.append_absorbs, 3, "one fast-forward per streamed batch");

    // The reference: a second manager over a freshly built table holding
    // exactly the grown rows, driven through the same brush and ε.
    let grown = {
        let handle = m.session(a).unwrap();
        let s = handle.lock().unwrap();
        s.dashboard().backend().catalog().table_arc("readings").unwrap()
    };
    let mut fresh_catalog = Catalog::new();
    fresh_catalog.register((*grown).clone()).unwrap();
    let fresh = SessionManager::new(fresh_catalog);
    let f = fresh.open_session();
    let fresh_handle = fresh.session(f).unwrap();
    let fresh_bits = {
        let mut s = fresh_handle.lock().unwrap();
        s.dashboard_mut().run_query(&query).unwrap();
        let outputs: Vec<usize> = (0..s.dashboard().result().unwrap().len()).collect();
        s.dashboard_mut().select_outputs(outputs);
        s.dashboard_mut().set_metric(metric());
        let (explanation, _) = s.debug_cached(fresh.registry()).unwrap();
        assert!(!explanation.predicates.is_empty(), "the gate needs a non-trivial explanation");
        explanation_bits(explanation)
    };

    // Every open session explains over its absorbed state and must land
    // on the reference bits exactly.
    for id in [a, b] {
        let handle = m.session(id).unwrap();
        let mut s = handle.lock().unwrap();
        assert_eq!(
            s.dashboard().result().unwrap().rows,
            fresh_handle.lock().unwrap().dashboard().result().unwrap().rows,
            "session {id}'s displayed result diverged from the fresh table"
        );
        let (explanation, _) = s.debug_cached(m.registry()).unwrap();
        assert_eq!(
            explanation_bits(explanation),
            fresh_bits,
            "session {id}'s explanation diverged from the freshly built table"
        );
    }
    let stats = m.registry().stats();
    assert_eq!(stats.misses, 1, "post-append explains ran over absorbed caches, not rebuilds");
}

//! `stats.bool_algebra` counts every WHERE evaluation: the plain conjunctive
//! clause a dashboard sends, the clicked `AND NOT (p)` rewrite, a clause
//! outside the kernels' fragment, and an append absorb's filter of the
//! appended rows.
//!
//! The counters are process-wide statics, so this binary holds exactly one
//! `#[test]` and asserts deltas between `stats` replies: nothing else in
//! the process can raise them in between.

use dbwipes_data::{generate_sensor, SensorConfig};
use dbwipes_server::{Json, SessionManager};
use dbwipes_storage::Catalog;

fn ok(manager: &SessionManager, line: &str) -> Json {
    let reply = Json::parse(&manager.handle_line(line)).expect("responses are always valid JSON");
    assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{line} -> {reply}");
    reply
}

/// `(vectorized, fallbacks)` as the `stats` reply reports them.
fn bool_algebra(manager: &SessionManager) -> (u64, u64) {
    let stats = ok(manager, r#"{"cmd":"stats"}"#);
    let counters = stats.get("bool_algebra").expect("stats carry bool_algebra");
    let read = |name: &str| counters.get(name).and_then(Json::as_u64).expect("a counter");
    (read("vectorized"), read("fallbacks"))
}

#[test]
fn every_where_evaluation_is_counted_once() {
    let data = generate_sensor(&SensorConfig {
        num_readings: 2_700,
        failing_sensors: vec![15],
        ..SensorConfig::small()
    });
    let mut catalog = Catalog::new();
    catalog.register(data.table.clone()).unwrap();
    let m = SessionManager::new(catalog);
    let s = ok(&m, r#"{"cmd":"open_session"}"#).get("session").and_then(Json::as_u64).unwrap();
    let run = |where_clause: &str| {
        let sql = format!(
            "SELECT window, avg(temp) AS avg_temp, stddev(temp) AS std_temp FROM readings \
             WHERE {where_clause} GROUP BY window ORDER BY window"
        );
        ok(&m, &format!(r#"{{"cmd":"run_query","session":{s},"sql":"{sql}"}}"#));
    };

    // A plain conjunction — the shape every dashboard statement has.
    let (v0, f0) = bool_algebra(&m);
    run("epoch >= 0 AND sensorid <> 99");
    assert_eq!(bool_algebra(&m), (v0 + 1, f0), "a conjunctive WHERE is one vectorized filter");

    // The clicked predicate's `AND NOT (p)` rewrite is one more.
    let explain = || {
        ok(
            &m,
            &format!(
                r#"{{"cmd":"brush_outputs","session":{s},"x":"window","y":"std_temp","brush":{{"y_min":8}}}}"#
            ),
        );
        ok(
            &m,
            &format!(
                r#"{{"cmd":"set_metric","session":{s},"kind":"too_high","column":"std_temp","value":4}}"#
            ),
        );
        ok(&m, &format!(r#"{{"cmd":"debug","session":{s}}}"#));
    };
    explain();
    let (v1, f1) = bool_algebra(&m);
    let clicked = ok(&m, &format!(r#"{{"cmd":"click_predicate","session":{s},"index":0}}"#));
    assert!(clicked.to_string().contains("NOT ("), "{clicked}");
    assert_eq!(bool_algebra(&m), (v1 + 1, f1), "the rewritten WHERE is one vectorized filter");

    // Arithmetic is outside the kernels' fragment: the scalar walk answers.
    let (v2, f2) = bool_algebra(&m);
    run("temp + 1 > 2");
    assert_eq!(bool_algebra(&m), (v2, f2 + 1), "an uncompilable WHERE is one fallback");

    // An append absorbed into the displayed statement's cache (built by
    // its `debug`) filters the appended rows through its WHERE: one more.
    explain();
    let (v3, f3) = bool_algebra(&m);
    let absorbs = |m: &SessionManager| {
        let stats = ok(m, r#"{"cmd":"stats"}"#);
        stats.get("cache").and_then(|c| c.get("append_absorbs")).and_then(Json::as_u64).unwrap()
    };
    let a3 = absorbs(&m);
    ok(&m, r#"{"cmd":"stream_append","table":"readings","rows":[[3,60,0,0,21.5,40.0,100.0,2.7]]}"#);
    assert_eq!(absorbs(&m), a3 + 1, "the displayed statement's cache absorbed the append");
    assert_eq!(bool_algebra(&m), (v3, f3 + 1), "an absorb's filter is one more");
}

//! Concurrency contract of the session service: ≥4 clients drive the full
//! Figure-1 loop at the same time over one [`SessionManager`], through the
//! same line-delimited protocol a web frontend would use. Asserts
//!
//! * isolation — one session's brushes, metric and cleaning never leak
//!   into another session's state;
//! * cross-brush cache reuse — after every thread has debugged the same
//!   statement, the shared registry reports exactly one build and a hit
//!   for everyone else, including each session's *second* explain;
//! * one bitmap cache, many writers — threads explaining one shared table
//!   snapshot at the same moment fill the cache that snapshot owns, and
//!   each gets exactly the answer a lone client gets.

use dbwipes_data::{generate_sensor, SensorConfig};
use dbwipes_server::{Json, SessionManager};
use dbwipes_storage::Catalog;
use std::sync::{Arc, Barrier};

const CLIENTS: usize = 4;

fn manager() -> (Arc<SessionManager>, String) {
    let data = generate_sensor(&SensorConfig {
        num_readings: 5_400,
        failing_sensors: vec![15],
        ..SensorConfig::small()
    });
    let mut catalog = Catalog::new();
    catalog.register(data.table.clone()).unwrap();
    (Arc::new(SessionManager::new(catalog)), data.window_query())
}

fn send(manager: &SessionManager, line: &str) -> Json {
    let reply = manager.handle_line(line);
    Json::parse(&reply).unwrap_or_else(|e| panic!("unparseable reply {reply:?}: {e}"))
}

fn expect_ok(manager: &SessionManager, line: &str) -> Json {
    let reply = send(manager, line);
    assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{line} -> {reply}");
    reply
}

/// One client's full Figure-1 loop over its own session, calling
/// `before_debug` just before the first `debug`; returns (session id, the
/// first `debug` reply's `predicates`, second-debug cache_hit flag).
fn drive_full_loop(
    manager: &SessionManager,
    query: &str,
    brush_threshold: f64,
    before_debug: impl FnOnce(),
) -> (u64, Json, bool) {
    let session = expect_ok(manager, r#"{"cmd":"open_session"}"#)
        .get("session")
        .and_then(Json::as_u64)
        .expect("session id");

    // 1. Execute the window query.
    let ran = expect_ok(
        manager,
        &format!(r#"{{"cmd":"run_query","session":{session},"sql":"{query}"}}"#),
    );
    assert!(ran.get("row_count").and_then(Json::as_u64).unwrap() > 1);

    // 2. Visualize.
    let plot = expect_ok(
        manager,
        &format!(r#"{{"cmd":"plot","session":{session},"x":"window","y":"std_temp"}}"#),
    );
    assert!(!plot.get("series").unwrap().get("points").unwrap().as_array().unwrap().is_empty());

    // 3. Brush suspicious outputs S (per-client threshold, so selections differ).
    let outputs = expect_ok(
        manager,
        &format!(
            r#"{{"cmd":"brush_outputs","session":{session},"x":"window","y":"std_temp","brush":{{"y_min":{brush_threshold}}}}}"#
        ),
    );
    let selected_outputs = outputs.get("selected").unwrap().as_array().unwrap().len();
    assert!(selected_outputs > 0, "brush at {brush_threshold} selected nothing");

    // 4-5. Zoom in, brush suspicious inputs D′.
    expect_ok(
        manager,
        &format!(r#"{{"cmd":"zoom","session":{session},"x":"sensorid","y":"temp"}}"#),
    );
    let inputs = expect_ok(
        manager,
        &format!(
            r#"{{"cmd":"brush_inputs","session":{session},"x":"sensorid","y":"temp","brush":{{"y_min":100}}}}"#
        ),
    );
    assert!(!inputs.get("selected").unwrap().as_array().unwrap().is_empty());

    // 6. Pick ε — per client too: the fixture has one suspicious window, so
    // every brush above selects the same S, and it is the distinct ε that
    // makes the four requests distinct whatever the interleaving.
    let epsilon = brush_threshold / 2.0;
    expect_ok(
        manager,
        &format!(
            r#"{{"cmd":"set_metric","session":{session},"kind":"too_high","column":"std_temp","value":{epsilon}}}"#
        ),
    );

    // Debug! twice: the second run must be answered by the registry.
    before_debug();
    let first = expect_ok(manager, &format!(r#"{{"cmd":"debug","session":{session}}}"#));
    let predicates = first.get("predicates").unwrap().clone();
    assert!(!predicates.as_array().unwrap().is_empty());
    let second = expect_ok(manager, &format!(r#"{{"cmd":"debug","session":{session}}}"#));
    let second_hit = second.get("cache_hit").and_then(Json::as_bool).unwrap();

    // 7. Click the best predicate, verify the rewrite, undo it.
    let clicked = expect_ok(
        manager,
        &format!(r#"{{"cmd":"click_predicate","session":{session},"index":0}}"#),
    );
    assert_eq!(clicked.get("applied_predicates").unwrap().as_array().unwrap().len(), 1);
    assert!(clicked.get("sql").and_then(Json::as_str).unwrap().contains("NOT ("));
    let undone = expect_ok(manager, &format!(r#"{{"cmd":"undo","session":{session}}}"#));
    assert!(undone.get("applied_predicates").unwrap().as_array().unwrap().is_empty());

    (session, predicates, second_hit)
}

#[test]
fn four_concurrent_clients_run_the_full_loop_with_shared_cache_reuse() {
    let (manager, query) = manager();
    // Distinct brush thresholds (and, from them, distinct ε): every client
    // asks a different question, so a state leak between sessions would
    // change another client's answers.
    let thresholds = [8.0, 9.0, 10.0, 11.0];

    let results: Vec<(u64, Json, bool)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|i| {
                let manager = Arc::clone(&manager);
                let query = query.clone();
                scope.spawn(move || drive_full_loop(&manager, &query, thresholds[i], || ()))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });

    // Every client got its own session and a non-empty ranking.
    let mut ids: Vec<u64> = results.iter().map(|(id, _, _)| *id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), CLIENTS, "sessions must be distinct: {results:?}");
    // Each session's second debug was served from the shared registry.
    assert!(results.iter().all(|(_, _, hit)| *hit), "{results:?}");

    // All four sessions ran the identical base statement over the identical
    // snapshot: exactly one aggregate-cache build total, with the other
    // three first-debugs (distinct brushes → distinct requests) reusing it.
    // Each session's second debug repeated its own exact request, so it
    // replayed the explanation memo instead. Every click and every undo
    // read its result from that one cache too — two more hits a client —
    // and the rewritten statement, never debugged, built nothing.
    let stats = expect_ok(&manager, r#"{"cmd":"stats"}"#);
    let cache = stats.get("cache").unwrap();
    assert_eq!(cache.get("misses").and_then(Json::as_u64), Some(1), "{cache}");
    assert_eq!(cache.get("hits").and_then(Json::as_u64), Some((3 * CLIENTS - 1) as u64), "{cache}");
    assert!(cache.get("hit_rate").and_then(Json::as_f64).unwrap() > 0.5);
    assert_eq!(
        cache.get("explanation_misses").and_then(Json::as_u64),
        Some(CLIENTS as u64),
        "{cache}"
    );
    assert_eq!(
        cache.get("explanation_hits").and_then(Json::as_u64),
        Some(CLIENTS as u64),
        "{cache}"
    );
    assert_eq!(stats.get("sessions").and_then(Json::as_u64), Some(CLIENTS as u64));
}

/// `stats.condition_bitmaps.retained`: the bitmaps the base snapshot holds.
fn retained_bitmaps(manager: &SessionManager) -> u64 {
    let stats = expect_ok(manager, r#"{"cmd":"stats"}"#);
    stats.get("condition_bitmaps").unwrap().get("retained").and_then(Json::as_u64).unwrap()
}

#[test]
fn threads_explaining_one_shared_snapshot_return_exactly_the_serial_answer() {
    const THREADS: usize = 6;
    // A statement per client: the constant changes its text and
    // fingerprint, not its rows, so each builds its own aggregate cache.
    let statement =
        |query: &str, k: usize| query.replace("GROUP BY", &format!("WHERE epoch >= -{k} GROUP BY"));
    // Serial: one client after the other.
    let (serial, query) = manager();
    let expected: Vec<Json> = (0..THREADS)
        .map(|k| drive_full_loop(&serial, &statement(&query, k), 8.0, || ()).1)
        .collect();
    assert!(retained_bitmaps(&serial) > 0, "the rankings warmed the snapshot's cache");

    // Concurrent: all enter their first `debug` together and rank over the
    // one base snapshot — scanning the same conditions into the same cache.
    let (shared, _) = manager();
    let barrier = Barrier::new(THREADS);
    let got: Vec<Json> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|k| {
                let (shared, barrier, sql) = (&shared, &barrier, statement(&query, k));
                scope.spawn(move || {
                    drive_full_loop(shared, &sql, 8.0, || {
                        barrier.wait();
                    })
                    .1
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    assert_eq!(got, expected, "an answer depended on who else was filling the cache");
    // Racing scans of one condition keep one bitmap: the cache ends up
    // holding what the serial run's holds.
    assert_eq!(retained_bitmaps(&shared), retained_bitmaps(&serial));
}

#[test]
fn sessions_stay_isolated_under_interleaving() {
    let (manager, query) = manager();
    let a = expect_ok(&manager, r#"{"cmd":"open_session"}"#)
        .get("session")
        .and_then(Json::as_u64)
        .unwrap();
    let b = expect_ok(&manager, r#"{"cmd":"open_session"}"#)
        .get("session")
        .and_then(Json::as_u64)
        .unwrap();

    // A runs a query and brushes; B has done nothing.
    expect_ok(&manager, &format!(r#"{{"cmd":"run_query","session":{a},"sql":"{query}"}}"#));
    expect_ok(
        &manager,
        &format!(
            r#"{{"cmd":"brush_outputs","session":{a},"x":"window","y":"std_temp","brush":{{"y_min":8}}}}"#
        ),
    );
    let state_a = expect_ok(&manager, &format!(r#"{{"cmd":"state","session":{a}}}"#));
    let state_b = expect_ok(&manager, &format!(r#"{{"cmd":"state","session":{b}}}"#));
    assert_eq!(state_a.get("state").and_then(Json::as_str), Some("OutputsSelected"));
    assert_eq!(state_b.get("state").and_then(Json::as_str), Some("AwaitingQuery"));
    assert!(state_a.get("selected_outputs").and_then(Json::as_u64).unwrap() > 0);
    assert_eq!(state_b.get("selected_outputs").and_then(Json::as_u64), Some(0));

    // B runs its own query with a different grouping; A's result is untouched.
    expect_ok(
        &manager,
        &format!(
            r#"{{"cmd":"run_query","session":{b},"sql":"SELECT sensorid, avg(temp) FROM readings GROUP BY sensorid"}}"#
        ),
    );
    let state_a2 = expect_ok(&manager, &format!(r#"{{"cmd":"state","session":{a}}}"#));
    assert!(state_a2.get("sql").and_then(Json::as_str).unwrap().contains("GROUP BY window"));
    assert_eq!(state_a2.get("state").and_then(Json::as_str), Some("OutputsSelected"));

    // Closing B leaves A fully operational.
    expect_ok(&manager, &format!(r#"{{"cmd":"close_session","session":{b}}}"#));
    let still = expect_ok(&manager, &format!(r#"{{"cmd":"state","session":{a}}}"#));
    assert_eq!(still.get("state").and_then(Json::as_str), Some("OutputsSelected"));
    let gone = send(&manager, &format!(r#"{{"cmd":"state","session":{b}}}"#));
    assert_eq!(gone.get("ok"), Some(&Json::Bool(false)));
}

//! Round-trips every protocol command through [`SessionManager::handle_line`]
//! — the exact code path the binary serves — including the error replies
//! for malformed requests and invalid interaction-state transitions.

use dbwipes_data::{generate_sensor, SensorConfig};
use dbwipes_server::{Json, SessionManager};
use dbwipes_storage::Catalog;

fn manager() -> (SessionManager, String) {
    let data = generate_sensor(&SensorConfig {
        num_readings: 2_700,
        failing_sensors: vec![15],
        ..SensorConfig::small()
    });
    let mut catalog = Catalog::new();
    catalog.register(data.table.clone()).unwrap();
    (SessionManager::new(catalog), data.window_query())
}

fn send(manager: &SessionManager, line: &str) -> Json {
    Json::parse(&manager.handle_line(line)).expect("responses are always valid JSON")
}

fn ok(manager: &SessionManager, line: &str) -> Json {
    let reply = send(manager, line);
    assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{line} -> {reply}");
    reply
}

fn err(manager: &SessionManager, line: &str) -> String {
    let reply = send(manager, line);
    assert_eq!(reply.get("ok"), Some(&Json::Bool(false)), "{line} -> {reply}");
    reply.get("error").and_then(Json::as_str).expect("error replies carry a message").to_string()
}

#[test]
fn every_command_round_trips_through_the_figure_one_loop() {
    let (m, query) = manager();

    // Service-level commands.
    assert_eq!(ok(&m, r#"{"cmd":"ping"}"#).get("pong"), Some(&Json::Bool(true)));
    let tables = ok(&m, r#"{"cmd":"tables"}"#);
    assert_eq!(tables.get("tables").unwrap().as_array().unwrap().len(), 1);
    assert!(ok(&m, r#"{"cmd":"sessions"}"#)
        .get("sessions")
        .unwrap()
        .as_array()
        .unwrap()
        .is_empty());

    let s = ok(&m, r#"{"cmd":"open_session"}"#).get("session").and_then(Json::as_u64).unwrap();
    assert_eq!(
        ok(&m, r#"{"cmd":"sessions"}"#).get("sessions").unwrap().as_array().unwrap(),
        &[Json::Num(s as f64)]
    );

    // state before anything: AwaitingQuery.
    let state = ok(&m, &format!(r#"{{"cmd":"state","session":{s}}}"#));
    assert_eq!(state.get("state").and_then(Json::as_str), Some("AwaitingQuery"));

    // run_query.
    let ran = ok(&m, &format!(r#"{{"cmd":"run_query","session":{s},"sql":"{query}"}}"#));
    let columns = ran.get("columns").unwrap().as_array().unwrap();
    assert!(columns.iter().any(|c| c.as_str() == Some("std_temp")), "{columns:?}");
    let rows = ran.get("rows").unwrap().as_array().unwrap();
    assert_eq!(rows.len() as u64, ran.get("row_count").and_then(Json::as_u64).unwrap());
    assert!(rows.iter().all(|r| r.as_array().unwrap().len() == columns.len()));

    // plot + brush_outputs.
    let plot = ok(&m, &format!(r#"{{"cmd":"plot","session":{s},"x":"window","y":"std_temp"}}"#));
    let points = plot.get("series").unwrap().get("points").unwrap().as_array().unwrap();
    assert!(!points.is_empty());
    assert!(points.iter().all(|p| p.get("kind").and_then(Json::as_str) == Some("output")));
    let brushed = ok(
        &m,
        &format!(
            r#"{{"cmd":"brush_outputs","session":{s},"x":"window","y":"std_temp","brush":{{"y_min":8}}}}"#
        ),
    );
    assert!(!brushed.get("selected").unwrap().as_array().unwrap().is_empty());

    // zoom + brush_inputs.
    let zoom = ok(&m, &format!(r#"{{"cmd":"zoom","session":{s},"x":"sensorid","y":"temp"}}"#));
    let zoom_points = zoom.get("series").unwrap().get("points").unwrap().as_array().unwrap();
    assert!(zoom_points.iter().all(|p| p.get("kind").and_then(Json::as_str) == Some("input")));
    let inputs = ok(
        &m,
        &format!(
            r#"{{"cmd":"brush_inputs","session":{s},"x":"sensorid","y":"temp","brush":{{"y_min":100}}}}"#
        ),
    );
    assert!(!inputs.get("selected").unwrap().as_array().unwrap().is_empty());

    // metric_choices + set_metric.
    let choices =
        ok(&m, &format!(r#"{{"cmd":"metric_choices","session":{s},"column":"std_temp"}}"#));
    let choice_list = choices.get("choices").unwrap().as_array().unwrap();
    assert!(!choice_list.is_empty());
    // Each choice carries the exact fields `set_metric` accepts, so a
    // client can echo one back without parsing the label.
    for c in choice_list {
        assert!(c.get("label").and_then(Json::as_str).is_some(), "{c}");
        assert_eq!(c.get("column").and_then(Json::as_str), Some("std_temp"), "{c}");
        assert!(
            matches!(
                c.get("kind").and_then(Json::as_str),
                Some("too_high" | "too_low" | "not_equal_to")
            ),
            "{c}"
        );
        assert!(c.get("value").and_then(Json::as_f64).is_some(), "{c}");
    }
    let set = ok(
        &m,
        &format!(
            r#"{{"cmd":"set_metric","session":{s},"kind":"too_high","column":"std_temp","value":4}}"#
        ),
    );
    assert!(set.get("metric").and_then(Json::as_str).unwrap().contains("std_temp"));

    // debug: first misses, second hits, timings and ranked predicates.
    let first = ok(&m, &format!(r#"{{"cmd":"debug","session":{s}}}"#));
    assert_eq!(first.get("cache_hit"), Some(&Json::Bool(false)));
    assert_eq!(first.get("cached"), Some(&Json::Bool(false)), "a cold debug is not memo-served");
    let predicates = first.get("predicates").unwrap().as_array().unwrap();
    assert!(!predicates.is_empty());
    assert!(predicates[0].get("predicate").and_then(Json::as_str).is_some());
    assert!(first.get("timings").unwrap().get("total_ms").and_then(Json::as_f64).unwrap() > 0.0);
    assert!(first.get("base_error").and_then(Json::as_f64).unwrap() > 0.0);
    let second = ok(&m, &format!(r#"{{"cmd":"debug","session":{s}}}"#));
    assert_eq!(second.get("cache_hit"), Some(&Json::Bool(true)));
    // Regression (ROADMAP follow-up): a memo-served explanation must say
    // so and must NOT replay the original run's elapsed times — nothing
    // ran now, so the reported latency is (near-)zero.
    assert_eq!(second.get("cached"), Some(&Json::Bool(true)));
    assert_eq!(
        second.get("timings").unwrap().get("total_ms").and_then(Json::as_f64),
        Some(0.0),
        "memo replays report near-zero timings: {second}"
    );
    assert_eq!(
        second.get("predicates").unwrap().as_array().unwrap().len(),
        predicates.len(),
        "the replayed ranking is the memoized one"
    );

    // click_predicate rewrites the query; undo restores it.
    let clicked = ok(&m, &format!(r#"{{"cmd":"click_predicate","session":{s},"index":0}}"#));
    assert!(clicked.get("sql").and_then(Json::as_str).unwrap().contains("NOT ("));
    assert_eq!(clicked.get("applied_predicates").unwrap().as_array().unwrap().len(), 1);
    let undone = ok(&m, &format!(r#"{{"cmd":"undo","session":{s}}}"#));
    assert!(undone.get("applied_predicates").unwrap().as_array().unwrap().is_empty());
    assert_eq!(undone.get("sql").and_then(Json::as_str), Some(query.as_str()));

    // stats reflect the two debugs: one aggregate-cache build, and the
    // repeat replayed from the explanation memo.
    let stats = ok(&m, r#"{"cmd":"stats"}"#);
    let cache = stats.get("cache").unwrap();
    assert_eq!(cache.get("misses").and_then(Json::as_u64), Some(1));
    assert_eq!(cache.get("explanation_misses").and_then(Json::as_u64), Some(1));
    assert_eq!(cache.get("explanation_hits").and_then(Json::as_u64), Some(1));
    assert!(cache.get("explanation_hit_rate").and_then(Json::as_f64).unwrap() > 0.0);
    assert_eq!(cache.get("entries").and_then(Json::as_u64), Some(1));
    assert_eq!(cache.get("explanation_entries").and_then(Json::as_u64), Some(1));

    // The vectorized ranker behind the cold debug warmed a condition-bitmap
    // cache: every distinct candidate condition missed once, and the
    // scoring pass hit the warmed entries. The counters are process-wide
    // (other tests in this binary may also have ranked), so assert floors,
    // not exact values.
    let bitmaps = stats.get("condition_bitmaps").unwrap();
    let bitmap_hits = bitmaps.get("hits").and_then(Json::as_u64).unwrap();
    let bitmap_misses = bitmaps.get("misses").and_then(Json::as_u64).unwrap();
    assert!(bitmap_misses >= 1, "the cold debug kernel-scanned conditions: {bitmaps}");
    assert!(bitmap_hits >= 1, "candidate scoring reused warmed bitmaps: {bitmaps}");
    let rate = bitmaps.get("hit_rate").and_then(Json::as_f64).unwrap();
    assert!(rate > 0.0 && rate <= 1.0, "{bitmaps}");

    // close_session.
    ok(&m, &format!(r#"{{"cmd":"close_session","session":{s}}}"#));
    assert!(
        err(&m, &format!(r#"{{"cmd":"close_session","session":{s}}}"#)).contains("no such session")
    );
}

#[test]
fn batch_round_trips_a_scripted_replay_in_one_request() {
    let (m, query) = manager();
    let s = ok(&m, r#"{"cmd":"open_session"}"#).get("session").and_then(Json::as_u64).unwrap();

    // The full Figure-1 replay as ONE line: run, brush, pick ε, debug.
    let commands = [
        format!(r#"{{"cmd":"run_query","session":{s},"sql":"{query}","id":"q"}}"#),
        format!(
            r#"{{"cmd":"brush_outputs","session":{s},"x":"window","y":"std_temp","brush":{{"y_min":8}}}}"#
        ),
        format!(
            r#"{{"cmd":"set_metric","session":{s},"kind":"too_high","column":"std_temp","value":4}}"#
        ),
        format!(r#"{{"cmd":"debug","session":{s}}}"#),
        r#"{"cmd":"stats"}"#.to_string(),
    ];
    let reply = ok(&m, &format!(r#"{{"cmd":"batch","commands":[{}]}}"#, commands.join(",")));
    assert_eq!(reply.get("count").and_then(Json::as_u64), Some(5));
    let results = reply.get("results").unwrap().as_array().unwrap();
    assert_eq!(results.len(), 5);
    assert!(results.iter().all(|r| r.get("ok") == Some(&Json::Bool(true))), "{results:?}");
    // Per-command ids survive into the results array.
    assert_eq!(results[0].get("id").and_then(Json::as_str), Some("q"));
    // The debug really ran inside the batch.
    assert!(!results[3].get("predicates").unwrap().as_array().unwrap().is_empty());
    // The session saw all four of its batched commands (the stats command
    // is service-level; the state probe below counts itself).
    let state = ok(&m, &format!(r#"{{"cmd":"state","session":{s}}}"#));
    assert_eq!(state.get("commands").and_then(Json::as_u64), Some(5));

    // A failing element answers ok:false in place without aborting the
    // rest of the batch.
    let mixed = ok(
        &m,
        r#"{"cmd":"batch","commands":[{"cmd":"ping"},{"cmd":"state","session":999},{"cmd":"ping"}]}"#,
    );
    let results = mixed.get("results").unwrap().as_array().unwrap();
    assert_eq!(results[0].get("ok"), Some(&Json::Bool(true)));
    assert_eq!(results[1].get("ok"), Some(&Json::Bool(false)));
    assert!(results[1].get("error").and_then(Json::as_str).unwrap().contains("no such session"));
    assert_eq!(results[2].get("ok"), Some(&Json::Bool(true)));
}

#[test]
fn shutdown_command_flips_the_manager_flag() {
    let (m, _) = manager();
    assert!(!m.shutdown_requested());
    let reply = ok(&m, r#"{"cmd":"shutdown"}"#);
    assert_eq!(reply.get("shutting_down"), Some(&Json::Bool(true)));
    assert!(m.shutdown_requested());
}

#[test]
fn ids_are_echoed_on_success_and_failure() {
    let (m, _) = manager();
    let reply = send(&m, r#"{"cmd":"ping","id":"req-7"}"#);
    assert_eq!(reply.get("id").and_then(Json::as_str), Some("req-7"));
    let reply = send(&m, r#"{"cmd":"debug","session":99,"id":42}"#);
    assert_eq!(reply.get("ok"), Some(&Json::Bool(false)));
    assert_eq!(reply.get("id").and_then(Json::as_u64), Some(42));
}

#[test]
fn invalid_requests_get_error_replies() {
    let (m, _) = manager();
    assert!(err(&m, "this is not json").contains("invalid JSON"));
    assert!(err(&m, "[1,2,3]").contains("JSON object"));
    assert!(err(&m, r#"{"cmd":"hack_the_planet"}"#).contains("unknown command"));
    assert!(err(&m, r#"{"cmd":"run_query","session":1}"#).contains("requires a string `sql`"));
    assert!(err(&m, r#"{"cmd":"debug","session":12}"#).contains("no such session"));
}

#[test]
fn a_brush_over_an_unknown_column_clears_the_selection() {
    let (m, query) = manager();
    let s = ok(&m, r#"{"cmd":"open_session"}"#).get("session").and_then(Json::as_u64).unwrap();
    let state = |m: &SessionManager| {
        let reply = ok(m, &format!(r#"{{"cmd":"state","session":{s}}}"#));
        let count = |key: &str| reply.get(key).and_then(Json::as_u64).unwrap();
        let name = reply.get("state").and_then(Json::as_str).unwrap().to_string();
        (count("selected_outputs"), count("selected_inputs"), name)
    };
    let brush = |m: &SessionManager, cmd: &str, x: &str, y: &str, edge: u32| {
        let line = format!(
            r#"{{"cmd":"{cmd}","session":{s},"x":"{x}","y":"{y}","brush":{{"y_min":{edge}}}}}"#
        );
        ok(m, &line).get("selected").unwrap().as_array().unwrap().len()
    };
    ok(&m, &format!(r#"{{"cmd":"run_query","session":{s},"sql":"{query}"}}"#));
    assert!(brush(&m, "brush_outputs", "window", "std_temp", 8) > 0);
    assert!(brush(&m, "brush_inputs", "sensorid", "temp", 100) > 0);
    let (outputs, inputs, name) = state(&m);
    assert!(outputs > 0 && inputs > 0 && name == "InputsSelected", "{name}");

    assert_eq!(brush(&m, "brush_inputs", "sensorid", "nope", 100), 0);
    assert_eq!(state(&m), (outputs, 0, "OutputsSelected".to_string()));
    assert_eq!(brush(&m, "brush_outputs", "window", "nope", 8), 0);
    assert_eq!(state(&m), (0, 0, "ResultsShown".to_string()));
    ok(
        &m,
        &format!(
            r#"{{"cmd":"set_metric","session":{s},"kind":"too_high","column":"std_temp","value":4}}"#
        ),
    );
    assert!(
        err(&m, &format!(r#"{{"cmd":"debug","session":{s}}}"#)).contains("no suspicious outputs")
    );
}

#[test]
fn invalid_state_transitions_get_error_replies() {
    let (m, query) = manager();
    let s = ok(&m, r#"{"cmd":"open_session"}"#).get("session").and_then(Json::as_u64).unwrap();

    // Everything that needs a result, before any query ran.
    assert!(err(&m, &format!(r#"{{"cmd":"debug","session":{s}}}"#)).contains("no query"));
    assert!(err(&m, &format!(r#"{{"cmd":"undo","session":{s}}}"#)).contains("no query"));
    assert!(err(&m, &format!(r#"{{"cmd":"click_predicate","session":{s},"index":0}}"#))
        .contains("no ranked predicate"));
    assert!(err(&m, &format!(r#"{{"cmd":"plot","session":{s},"x":"a","y":"b"}}"#))
        .contains("nothing to plot"));
    assert!(err(&m, &format!(r#"{{"cmd":"zoom","session":{s},"x":"a","y":"b"}}"#))
        .contains("nothing to zoom"));

    // Bad SQL is reported, not crashed on.
    assert!(!err(&m, &format!(r#"{{"cmd":"run_query","session":{s},"sql":"frob the knob"}}"#))
        .is_empty());

    ok(&m, &format!(r#"{{"cmd":"run_query","session":{s},"sql":"{query}"}}"#));
    // Debug without metric / selection follows the dashboard's state machine.
    assert!(err(&m, &format!(r#"{{"cmd":"debug","session":{s}}}"#)).contains("no error metric"));
    ok(
        &m,
        &format!(
            r#"{{"cmd":"set_metric","session":{s},"kind":"too_high","column":"std_temp","value":4}}"#
        ),
    );
    assert!(
        err(&m, &format!(r#"{{"cmd":"debug","session":{s}}}"#)).contains("no suspicious outputs")
    );
    // Clicking before a debug produced a ranking.
    assert!(err(&m, &format!(r#"{{"cmd":"click_predicate","session":{s},"index":0}}"#))
        .contains("no ranked predicate"));
    // Unknown metric column surfaces from the backend at debug time.
    ok(
        &m,
        &format!(
            r#"{{"cmd":"brush_outputs","session":{s},"x":"window","y":"std_temp","brush":{{"y_min":8}}}}"#
        ),
    );
    ok(
        &m,
        &format!(
            r#"{{"cmd":"set_metric","session":{s},"kind":"too_low","column":"nope","value":4}}"#
        ),
    );
    assert!(!err(&m, &format!(r#"{{"cmd":"debug","session":{s}}}"#)).is_empty());
}

//! `click_predicate` and `undo` over the wire are answered from the
//! aggregate cache the registry retains for the session's *base*
//! statement — the one `debug` built — and answer the bytes an execution
//! of the rewritten statement would:
//!
//! * after `debug`, a click and an undo are two tier-1 hits and no miss,
//!   and their reply lines equal those of a server whose registry was
//!   emptied in between (one rebuild, counted as one miss, then a hit);
//! * a session that followed a `stream_append` answers like a session
//!   opened cold on the grown table;
//! * sessions clicking different predicates over the one shared cache do
//!   not see each other's exclusions;
//! * between commands no session holds the cache: what the registry
//!   evicts is freed.
//!
//! `stats.cache` counts per manager, and every test owns its managers and
//! asserts deltas, so the tests are safe at any `--test-threads`.

use dbwipes_data::{generate_sensor, SensorConfig};
use dbwipes_engine::{CacheFingerprint, GroupedAggregateCache};
use dbwipes_server::{Json, SessionId, SessionManager};
use dbwipes_storage::{Catalog, Table};
use std::sync::Arc;

fn readings() -> (Table, String) {
    let data = generate_sensor(&SensorConfig {
        num_readings: 5_400,
        failing_sensors: vec![15],
        ..SensorConfig::small()
    });
    let query = data.window_query();
    (data.table, query)
}

fn manager(table: &Table) -> SessionManager {
    let mut catalog = Catalog::new();
    catalog.register(table.clone()).unwrap();
    SessionManager::new(catalog)
}

fn ok(manager: &SessionManager, line: &str) -> String {
    let reply = manager.handle_line(line);
    assert!(reply.contains(r#""ok":true"#), "{line} -> {reply}");
    reply
}

/// `open_session` (when `session` is new) → `run_query` → brush →
/// `set_metric` → `debug`; returns the `debug` reply.
fn explain(manager: &SessionManager, session: u64, query: &str) -> String {
    if !manager.session_ids().iter().any(|s| s.0 == session) {
        assert!(
            ok(manager, r#"{"cmd":"open_session"}"#).contains(&format!(r#""session":{session}"#))
        );
    }
    for line in [
        format!(r#"{{"cmd":"run_query","session":{session},"sql":"{query}"}}"#),
        format!(
            r#"{{"cmd":"brush_outputs","session":{session},"x":"window","y":"std_temp","brush":{{"y_min":8}}}}"#
        ),
        format!(
            r#"{{"cmd":"brush_inputs","session":{session},"x":"sensorid","y":"temp","brush":{{"y_min":100}}}}"#
        ),
        format!(
            r#"{{"cmd":"set_metric","session":{session},"kind":"too_high","column":"std_temp","value":4}}"#
        ),
    ] {
        ok(manager, &line);
    }
    ok(manager, &format!(r#"{{"cmd":"debug","session":{session}}}"#))
}

fn click(manager: &SessionManager, session: u64, index: usize) -> String {
    ok(manager, &format!(r#"{{"cmd":"click_predicate","session":{session},"index":{index}}}"#))
}

fn undo(manager: &SessionManager, session: u64) -> String {
    ok(manager, &format!(r#"{{"cmd":"undo","session":{session}}}"#))
}

/// `stats.cache`: (hits, misses, entries).
fn tier_one(manager: &SessionManager) -> (u64, u64, u64) {
    let stats = Json::parse(&ok(manager, r#"{"cmd":"stats"}"#)).unwrap();
    let cache = stats.get("cache").expect("stats carry cache");
    let read = |name: &str| cache.get(name).and_then(Json::as_u64).expect("a counter");
    (read("hits"), read("misses"), read("entries"))
}

#[test]
fn a_click_and_an_undo_are_two_hits_on_the_cache_debug_built() {
    let (table, query) = readings();

    let warm = manager(&table);
    explain(&warm, 1, &query);
    let (hits, misses, entries) = tier_one(&warm);
    assert_eq!((misses, entries), (1, 1), "the first debug built the one cache");
    let warm_replies = [click(&warm, 1, 0), undo(&warm, 1)];
    assert_eq!(tier_one(&warm), (hits + 2, misses, 1), "served from the cache, nothing built");
    assert!(warm_replies[0].contains("NOT ("), "{}", warm_replies[0]);

    // The same script with the registry emptied before the click: the
    // cache is built once more (one miss), the undo finds it (one hit),
    // and nobody can tell from the replies.
    let emptied = manager(&table);
    explain(&emptied, 1, &query);
    assert!(emptied.registry().invalidate_table("readings") > 0);
    let (hits, misses, entries) = tier_one(&emptied);
    assert_eq!(entries, 0);
    let rebuilt_replies = [click(&emptied, 1, 0), undo(&emptied, 1)];
    assert_eq!(tier_one(&emptied), (hits + 1, misses + 1, 1));
    assert_eq!(warm_replies, rebuilt_replies);

    // A refused click is not a lookup.
    let before = tier_one(&warm);
    let refused = warm.handle_line(r#"{"cmd":"click_predicate","session":1,"index":0}"#);
    assert!(refused.contains("no ranked predicate at index 0"), "{refused}");
    assert_eq!(tier_one(&warm), before);
}

#[test]
fn a_session_that_followed_an_append_answers_like_a_cold_session_on_the_grown_table() {
    let (table, query) = readings();
    // Hot readings of the failing sensor, one without a temperature, and
    // an ordinary one.
    let append = r#"{"cmd":"stream_append","table":"readings","rows":[[15,0,0,0,121.5,35.1,250.0,2.01],[15,31,0,0,null,35.2,250.0,2.0],[3,62,0,0,18.3,40.7,300.0,2.71]]}"#;

    // Explains, then the table grows under the session: it adopts the
    // snapshot — its result refreshed from the absorbed cache, its
    // explanation, which described the old data, dropped — so it explains
    // again before it clicks and undoes.
    let streamed = manager(&table);
    explain(&streamed, 1, &query);
    let ack = ok(&streamed, append);
    assert!(ack.contains(r#""sessions_refreshed":1"#), "{ack}");
    let stale = streamed.handle_line(r#"{"cmd":"click_predicate","session":1,"index":0}"#);
    assert!(stale.contains("no ranked predicate at index 0"), "{stale}");
    let misses = tier_one(&streamed).1;
    let streamed_replies =
        [explain(&streamed, 1, &query), click(&streamed, 1, 0), undo(&streamed, 1)];
    assert_eq!(tier_one(&streamed).1, misses, "nothing after the append rebuilt a cache");

    // The same rows, in before anybody looked.
    let cold = manager(&table);
    ok(&cold, append);
    let cold_replies = [explain(&cold, 1, &query), click(&cold, 1, 0), undo(&cold, 1)];

    let untimed = |reply: &String| {
        let at = reply.find(r#""timings":{"#).expect("a debug reply");
        let end = at + reply[at..].find('}').expect("timings close");
        format!("{}{}", &reply[..at], &reply[end + 1..])
    };
    assert_eq!(
        untimed(&streamed_replies[0]).replace(r#""cache_hit":true"#, r#""cache_hit":false"#),
        untimed(&cold_replies[0])
    );
    assert_eq!(streamed_replies[1..], cold_replies[1..]);
}

#[test]
fn sessions_clicking_different_predicates_over_one_cache_do_not_see_each_other() {
    let (table, query) = readings();
    let alone = |index: usize| {
        let m = manager(&table);
        explain(&m, 1, &query);
        click(&m, 1, index)
    };
    let (first_alone, second_alone) = (alone(0), alone(1));
    assert_ne!(first_alone, second_alone, "two different predicates");

    let shared = manager(&table);
    explain(&shared, 1, &query);
    explain(&shared, 2, &query);
    assert_eq!(tier_one(&shared).2, 1, "one statement, one cache");
    assert_eq!(click(&shared, 1, 0), first_alone);
    assert_eq!(click(&shared, 2, 1), second_alone);

    // Undoing session 1's click restores the base result; session 2's
    // predicate stays applied.
    let rows = |reply: &str| reply[reply.find(r#""row_count":"#).expect("a result")..].to_string();
    ok(&shared, r#"{"cmd":"open_session"}"#);
    let base = ok(&shared, &format!(r#"{{"cmd":"run_query","session":3,"sql":"{query}"}}"#));
    let undone = undo(&shared, 1);
    assert!(undone.contains(r#""applied_predicates":[]"#), "{undone}");
    assert_eq!(rows(&undone), rows(&base));
    let state = ok(&shared, r#"{"cmd":"state","session":2}"#);
    assert!(state.contains(r#""applied_predicates":[""#) && state.contains("NOT ("), "{state}");
    assert_eq!(tier_one(&shared).2, 1, "still one cache");
}

#[test]
fn between_commands_only_the_registry_holds_the_base_statements_cache() {
    let (table, query) = readings();
    let m = manager(&table);
    // The registry's cache of session 1's base statement, fetched (one
    // counted hit) without building.
    let retained = || -> Arc<GroupedAggregateCache> {
        let session = m.session(SessionId(1)).expect("session 1 is open");
        let session = session.lock().unwrap();
        let dashboard = session.dashboard();
        let table = dashboard.backend().catalog().table_arc("readings").unwrap();
        let fingerprint = CacheFingerprint::of(&table, dashboard.base_statement().unwrap());
        let (cache, hit) =
            m.registry().get_or_build(fingerprint, || unreachable!("debug built it")).unwrap();
        assert!(hit);
        cache
    };
    explain(&m, 1, &query);
    assert_eq!(Arc::strong_count(&retained()), 2, "after debug: the registry's and ours");
    click(&m, 1, 0);
    assert_eq!(Arc::strong_count(&retained()), 2, "after click_predicate");
    undo(&m, 1);
    assert_eq!(Arc::strong_count(&retained()), 2, "after undo");
}

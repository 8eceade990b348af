//! An explain runs one path whatever the deployment: the same script —
//! three different statements over one table, then an append — gives
//! byte-identical replies outside `timings` with and without attached
//! storage, and the same `stats.condition_bitmaps` numbers. The table
//! snapshot owns its condition bitmaps, so the second and third `debug`
//! scan nothing (a successor over the same data is warm), and an append —
//! a new version — starts cold.
//!
//! The hit/miss counters are process-wide statics, so this binary holds
//! exactly one `#[test]` and asserts deltas between `stats` replies:
//! nothing else in the process can raise them in between.

use dbwipes_data::{generate_fec, FecConfig};
use dbwipes_server::{Json, SessionManager, StorageRuntime};
use dbwipes_storage::{Catalog, CONDITION_BITMAP_BUDGET_BYTES};
use std::sync::Arc;

/// S, D′ and ε of the FEC walkthrough, for the session a manager opens first.
const SELECT: [&str; 3] = [
    r#"{"cmd":"brush_outputs","session":1,"x":"day","y":"total","brush":{"y_max":0}}"#,
    r#"{"cmd":"brush_inputs","session":1,"x":"day","y":"amount","brush":{"y_max":0}}"#,
    r#"{"cmd":"set_metric","session":1,"kind":"too_low","column":"total","value":0}"#,
];
const APPEND: &str = r#"{"cmd":"stream_append","table":"contributions","rows":[["McCain","NY","New York","RETIRED",25.0,10,""]]}"#;

fn ok(manager: &SessionManager, line: &str) -> String {
    let reply = manager.handle_line(line);
    assert!(reply.contains(r#""ok":true"#), "{line} -> {reply}");
    reply
}

/// `stats.condition_bitmaps`: (hits, misses, retained, retained_bytes).
fn bitmaps(manager: &SessionManager) -> [u64; 4] {
    let stats = Json::parse(&ok(manager, r#"{"cmd":"stats"}"#)).unwrap();
    let block = stats.get("condition_bitmaps").expect("stats carry condition_bitmaps");
    ["hits", "misses", "retained", "retained_bytes"]
        .map(|name| block.get(name).and_then(Json::as_u64).expect("a counter"))
}

/// Runs the script. Returns every reply but `stats` without its `timings`
/// object, and per `debug` what it added: [hits, misses] and the gauges.
fn run(manager: &SessionManager) -> (Vec<String>, Vec<[u64; 4]>) {
    let (mut replies, mut debugs) = (Vec::new(), Vec::new());
    let mut send = |line: &str| {
        let reply = ok(manager, line);
        let untimed = match reply.find(r#""timings":{"#) {
            Some(at) => {
                let end = at + reply[at..].find('}').expect("timings close");
                format!("{}{}", &reply[..at], &reply[end + 1..])
            }
            None => reply,
        };
        replies.push(untimed);
    };
    let mut debug = |send: &mut dyn FnMut(&str)| {
        let before = bitmaps(manager);
        send(r#"{"cmd":"debug","session":1}"#);
        let after = bitmaps(manager);
        debugs.push([after[0] - before[0], after[1] - before[1], after[2], after[3]]);
    };
    send(r#"{"cmd":"open_session"}"#);
    for k in 1..=3 {
        // The constant changes the statement's text, not its rows.
        let sql = format!(
            "SELECT day, sum(amount) AS total FROM contributions \
             WHERE candidate = 'McCain' AND day >= -{k} GROUP BY day ORDER BY day"
        );
        send(&format!(r#"{{"cmd":"run_query","session":1,"sql":"{sql}"}}"#));
        SELECT.iter().for_each(|line| send(line));
        debug(&mut send);
    }
    // A new version of the table: the session adopts it and asks again.
    send(APPEND);
    assert_eq!(bitmaps(manager)[2], 0, "the appended snapshot retains nothing yet");
    debug(&mut send);
    (replies, debugs)
}

fn manager() -> SessionManager {
    let config = FecConfig { num_contributions: 20_000, ..FecConfig::default() };
    let mut catalog = Catalog::new();
    catalog.register(generate_fec(&config).table).unwrap();
    SessionManager::new(catalog)
}

#[test]
fn three_statements_run_one_path_with_and_without_attached_storage() {
    let (plain_replies, plain_debugs) = run(&manager());

    let dir = std::env::temp_dir().join(format!("dbwipes-one-path-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let durable = manager();
    assert!(durable.attach_storage(Arc::new(StorageRuntime::open(&dir).unwrap())));
    durable.flush_storage();
    let (replies, debugs) = run(&durable);
    std::fs::remove_dir_all(&dir).unwrap();

    // The only reply that knows about the disk is the append's ack.
    let replies: Vec<String> =
        replies.iter().map(|r| r.replace(r#""durable":true"#, r#""durable":false"#)).collect();
    assert_eq!(plain_replies, replies, "a reply depends on attached storage");
    assert_eq!(plain_debugs, debugs, "the bitmap counters moved differently");

    let [first, second, third, after_append] = debugs[..] else { panic!("{debugs:?}") };
    let [hits, misses, retained, bytes] = first;
    assert!(hits > 0 && misses > 0, "the first debug scans: {first:?}");
    assert!(retained > 0 && retained <= misses, "{first:?}");
    assert!(bytes as usize <= CONDITION_BITMAP_BUDGET_BYTES, "{first:?}");
    // Different statements, same snapshot: the same lookups, every one a
    // hit, nothing new retained.
    assert_eq!(second, [hits + misses, 0, retained, bytes]);
    assert_eq!(third, second);
    // A new version starts cold, and warms again.
    assert!(after_append[1] > 0 && after_append[2] > 0, "{after_append:?}");
}

//! Fault tolerance, end to end: scripted storage faults must never change
//! an answer — only the `durable`/`health` reporting around it — degraded
//! mode must self-heal on the first write that actually lands (also under
//! concurrent appenders and readers), and the
//! `crash` test hook must cost zero workers while quarantining exactly
//! the session that panicked.

use dbwipes_data::{generate_sensor, SensorConfig};
use dbwipes_server::{
    serve_pooled, Json, LineClient, PoolConfig, PoolStats, SessionManager, StorageRuntime,
};
use dbwipes_storage::{Catalog, FaultInjectingBackend, FaultKind, FaultPlan, FsBackend, Table};
use std::net::TcpListener;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

const WINDOW_SQL: &str = "SELECT window, avg(temp) AS avg_temp, stddev(temp) AS std_temp \
                          FROM readings GROUP BY window ORDER BY window";

static TEST_DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A fresh per-test directory under the OS temp dir; removed on drop.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new() -> TempDir {
        let n = TEST_DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("dbwipes-faults-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path).unwrap();
        TempDir(path)
    }

    fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The demo sensor table, the same rows on every call. Each manager under
/// test gets a table of its own: a manager's catalog is the one writer of
/// its table's lineage, and of two managers appending to clones of one
/// table the second would take a fresh table id — its open sessions, still
/// reading the old one, would not follow its appends.
fn sensor_table() -> Table {
    generate_sensor(&SensorConfig {
        num_readings: 2700,
        failing_sensors: vec![15],
        ..SensorConfig::small()
    })
    .table
}

fn catalog_of(table: Table) -> Catalog {
    let mut catalog = Catalog::new();
    catalog.register(table).unwrap();
    catalog
}

/// A plain filesystem runtime.
fn fs_runtime(dir: &std::path::Path) -> StorageRuntime {
    StorageRuntime::open(dir).unwrap()
}

/// A runtime whose writes follow the given fault plan.
fn faulty_runtime(dir: &std::path::Path, plan: FaultPlan) -> StorageRuntime {
    let fs = FsBackend::open(dir).unwrap();
    StorageRuntime::with_backend(Box::new(FaultInjectingBackend::new(Box::new(fs), plan)))
}

/// Like [`faulty_runtime`], but a torn write also leaves its truncated
/// bytes in `dir`, as a kill mid-`write(2)` would.
fn tearing_runtime(dir: &std::path::Path, plan: FaultPlan) -> StorageRuntime {
    let fs = FsBackend::open(dir).unwrap();
    StorageRuntime::with_backend(Box::new(FaultInjectingBackend::with_torn_dir(
        Box::new(fs),
        plan,
        dir,
    )))
}

/// Rows of `readings` a fresh process restores from `dir`.
fn rows_after_restart(dir: &std::path::Path) -> usize {
    fs_runtime(dir).restore_catalog().unwrap().table("readings").unwrap().num_rows()
}

/// Sixteen schema-valid sensor rows, distinct enough to move aggregates.
fn append_rows_json() -> String {
    let rows: Vec<String> = (0..16)
        .map(|r| {
            let sensor = (r * 7) % 24;
            let temp = 40.0 + (r % 32) as f64 / 2.0;
            format!("[{sensor},0,0,0,{temp:.1},40.0,300.0,2.5]")
        })
        .collect();
    rows.join(",")
}

/// The deterministic part of a debug reply — the answer itself: the
/// ranked predicates and the base error. Cache flags and the wall-clock
/// `timings` block legitimately differ across managers.
fn answer_of(debug_reply: &str) -> (&str, &str) {
    let base_error = {
        let start = debug_reply.find(r#""base_error":"#).expect("reply carries base_error");
        let rest = &debug_reply[start..];
        &rest[..rest.find(',').expect("base_error is not the last field")]
    };
    let predicates = {
        let start = debug_reply.find(r#""predicates":["#).expect("reply carries predicates");
        let rest = &debug_reply[start..];
        &rest[..rest.find(r#","timings""#).expect("timings follow the predicates")]
    };
    (base_error, predicates)
}

/// Blanks the per-session cache counters in a `state` reply: whether an
/// answer came from a warm cache or a cold build is exactly what fault
/// tolerance must NOT change about the data — but it legitimately changes
/// hit/miss tallies.
fn mask_cache_counters(reply: &str) -> String {
    let mut masked = String::with_capacity(reply.len());
    let mut rest = reply;
    while let Some(pos) = rest.find(r#""cache_"#) {
        let after_key = &rest[pos..];
        let Some(colon) = after_key.find(':') else { break };
        masked.push_str(&rest[..pos + colon + 1]);
        masked.push('_');
        rest = after_key[colon + 1..].trim_start_matches(|c: char| c.is_ascii_digit());
    }
    masked.push_str(rest);
    masked
}

/// The brush→metric→debug script both managers replay, with the append
/// landing mid-session so answers after it are served while one side is
/// degraded. Returns every reply in order.
fn scripted_session(manager: &SessionManager) -> Vec<String> {
    let open = manager.handle_line(r#"{"cmd":"open_session"}"#);
    assert!(open.contains(r#""ok":true"#), "{open}");
    let session: u64 = open
        .split(r#""session":"#)
        .nth(1)
        .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|digits| digits.parse().ok())
        .expect("open_session reply carries the id");
    let mut replies = vec![open];
    for line in [
        format!(r#"{{"cmd":"run_query","session":{session},"sql":"{WINDOW_SQL}"}}"#),
        format!(
            r#"{{"cmd":"brush_outputs","session":{session},"x":"window","y":"std_temp","brush":{{"y_min":8}}}}"#
        ),
        format!(
            r#"{{"cmd":"set_metric","session":{session},"kind":"too_high","column":"std_temp","value":4}}"#
        ),
        format!(r#"{{"cmd":"debug","session":{session}}}"#),
        format!(r#"{{"cmd":"stream_append","table":"readings","rows":[{}]}}"#, append_rows_json()),
        // Re-running the query resets the brush and metric, so the second
        // explain is a full fresh question over the appended data.
        format!(r#"{{"cmd":"run_query","session":{session},"sql":"{WINDOW_SQL}"}}"#),
        format!(
            r#"{{"cmd":"brush_outputs","session":{session},"x":"window","y":"std_temp","brush":{{"y_min":8}}}}"#
        ),
        format!(
            r#"{{"cmd":"set_metric","session":{session},"kind":"too_high","column":"std_temp","value":4}}"#
        ),
        format!(r#"{{"cmd":"debug","session":{session}}}"#),
        format!(r#"{{"cmd":"state","session":{session}}}"#),
    ] {
        replies.push(manager.handle_line(&line));
    }
    replies
}

#[test]
fn all_writes_failing_serves_bit_identical_answers_from_memory() {
    let (clean_dir, faulty_dir) = (TempDir::new(), TempDir::new());

    let clean = SessionManager::new(catalog_of(sensor_table()));
    clean.attach_storage(Arc::new(fs_runtime(clean_dir.path())));
    let faulty = SessionManager::new(catalog_of(sensor_table()));
    faulty.attach_storage(Arc::new(faulty_runtime(
        faulty_dir.path(),
        FaultPlan::default().every(1, FaultKind::Io),
    )));

    let clean_replies = scripted_session(&clean);
    let faulty_replies = scripted_session(&faulty);
    assert_eq!(clean_replies.len(), faulty_replies.len());
    for (i, (a, b)) in clean_replies.iter().zip(&faulty_replies).enumerate() {
        assert!(a.contains(r#""ok":true"#), "clean reply {i}: {a}");
        assert!(b.contains(r#""ok":true"#), "faulty reply {i}: {b}");
        if a.contains(r#""predicates":["#) {
            // Explains: compare the answer, not the wall-clock timings.
            assert_eq!(answer_of(a), answer_of(b), "debug answer diverged at reply {i}");
        } else if a.contains(r#""durable":"#) {
            // The append: the one reply that may differ — and only in the
            // durability flag, never in the data it reports.
            assert!(a.contains(r#""durable":true"#), "clean append must persist: {a}");
            assert!(b.contains(r#""durable":false"#), "faulty append cannot persist: {b}");
            assert_eq!(a.replace(r#""durable":true"#, r#""durable":false"#), *b);
        } else {
            assert_eq!(mask_cache_counters(a), mask_cache_counters(b), "reply {i} diverged");
        }
    }

    let clean_stats = clean.handle_line(r#"{"cmd":"stats"}"#);
    assert!(clean_stats.contains(r#""degraded":false"#), "{clean_stats}");
    let faulty_stats = faulty.handle_line(r#"{"cmd":"stats"}"#);
    assert!(faulty_stats.contains(r#""degraded":true"#), "{faulty_stats}");
    assert!(faulty_stats.contains(r#""degraded_entries":1"#), "{faulty_stats}");
    assert!(
        faulty_stats.contains(r#""last_persist_error":""#),
        "the health block must carry the failure: {faulty_stats}"
    );
}

#[test]
fn degraded_mode_self_heals_on_the_first_successful_write() {
    let dir = TempDir::new();
    // Default retry budget is 3, so each save burns 4 write attempts.
    // Attempts 1..=8 fail: the registration save (1-4) enters degraded
    // mode, the first append (5-8) stays degraded, the second append
    // (attempt 9) lands and self-heals.
    let runtime =
        Arc::new(faulty_runtime(dir.path(), FaultPlan::default().range(1, 8, FaultKind::Io)));
    let manager = SessionManager::new(Catalog::new());
    manager.attach_storage(Arc::clone(&runtime));

    manager.register_table(sensor_table());
    let health = runtime.health();
    assert!(health.degraded, "exhausted retries must enter degraded mode");
    assert_eq!(health.degraded_entries, 1);
    assert_eq!(health.consecutive_failures, 1);
    assert_eq!(health.retries, 3);
    assert!(health.last_persist_error.is_some());

    let append =
        format!(r#"{{"cmd":"stream_append","table":"readings","rows":[{}]}}"#, append_rows_json());
    let first = manager.handle_line(&append);
    assert!(first.contains(r#""ok":true"#), "{first}");
    assert!(first.contains(r#""durable":false"#), "degraded append must say so: {first}");
    let health = runtime.health();
    assert!(health.degraded);
    assert_eq!(health.degraded_entries, 1, "one healthy→degraded edge, not two");
    assert_eq!(health.consecutive_failures, 2);

    let second = manager.handle_line(&append);
    assert!(second.contains(r#""ok":true"#), "{second}");
    assert!(second.contains(r#""durable":true"#), "the landed write must self-heal: {second}");
    let health = runtime.health();
    assert!(!health.degraded, "a successful write must clear degraded mode");
    assert_eq!(health.consecutive_failures, 0);
    assert_eq!(health.degraded_entries, 1, "the healed edge is history, not erased");
    assert_eq!(health.retries, 6, "three retries per exhausted save, none for the success");
    assert!(health.last_persist_error.is_none());

    // The healed snapshot is the full table: a fresh runtime over the
    // same directory restores every row, including both appends.
    let restored = fs_runtime(dir.path()).restore_catalog().unwrap();
    let table = restored.table_arc("readings").unwrap();
    assert_eq!(table.num_rows(), 2700 + 32);
}

/// `handle_line`'s reply, parsed and required to be `ok:true`.
fn ok_reply(manager: &SessionManager, line: &str) -> Json {
    let reply = Json::parse(&manager.handle_line(line)).expect("replies are JSON");
    assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{line}: {reply}");
    reply
}

fn open_session(manager: &SessionManager) -> u64 {
    let open = ok_reply(manager, r#"{"cmd":"open_session"}"#);
    open.get("session").and_then(Json::as_u64).expect("open_session reply carries the id")
}

/// The `rows` of `sql` run in `session`.
fn query_rows(manager: &SessionManager, session: u64, sql: &str) -> Json {
    let line = format!(r#"{{"cmd":"run_query","session":{session},"sql":"{sql}"}}"#);
    ok_reply(manager, &line).get("rows").cloned().expect("run_query reply carries rows")
}

fn row_count(manager: &SessionManager, session: u64) -> u64 {
    let rows = query_rows(manager, session, "SELECT count(*) FROM readings");
    let cell = rows.as_array().and_then(|r| r.first()).and_then(Json::as_array);
    cell.and_then(|c| c.first()).and_then(Json::as_u64).expect("a count(*) result")
}

#[test]
fn concurrent_appenders_and_readers_lose_nothing_and_heal() {
    const APPENDERS: usize = 4;
    const READERS: usize = 4;
    const ROUNDS: usize = 8;
    let dir = TempDir::new();
    // As in the serial self-heal test: the registration's save exhausts
    // attempts 1..=4 and degrades, and 5..=8 fail whichever appends draw
    // them; every later write lands.
    let runtime =
        Arc::new(faulty_runtime(dir.path(), FaultPlan::default().range(1, 8, FaultKind::Io)));
    let manager = SessionManager::new(Catalog::new());
    manager.attach_storage(Arc::clone(&runtime));
    manager.register_table(sensor_table());
    assert!(runtime.is_degraded());

    // The witness holds the window query displayed across every append.
    let witness = open_session(&manager);
    let seed = row_count(&manager, witness);
    query_rows(&manager, witness, WINDOW_SQL);

    let append =
        format!(r#"{{"cmd":"stream_append","table":"readings","rows":[{}]}}"#, append_rows_json());
    std::thread::scope(|scope| {
        for _ in 0..APPENDERS {
            scope.spawn(|| {
                for _ in 0..ROUNDS {
                    let ack = ok_reply(&manager, &append);
                    assert_eq!(ack.get("appended").and_then(Json::as_u64), Some(16), "{ack}");
                }
            });
        }
        for _ in 0..READERS {
            scope.spawn(|| {
                let session = open_session(&manager);
                for _ in 0..ROUNDS {
                    query_rows(&manager, session, WINDOW_SQL);
                    ok_reply(
                        &manager,
                        &format!(
                            r#"{{"cmd":"brush_outputs","session":{session},"x":"window","y":"std_temp","brush":{{"y_min":8}}}}"#
                        ),
                    );
                    ok_reply(&manager, &format!(r#"{{"cmd":"state","session":{session}}}"#));
                }
            });
        }
    });

    let streamed = (APPENDERS * ROUNDS * 16) as u64;
    let cold = open_session(&manager);
    assert_eq!(
        row_count(&manager, witness),
        seed + streamed,
        "the witness lost or doubled a batch"
    );
    assert_eq!(row_count(&manager, cold), seed + streamed);
    assert_eq!(
        query_rows(&manager, witness, WINDOW_SQL),
        query_rows(&manager, cold, WINDOW_SQL),
        "the refreshed witness and a cold session disagree"
    );
    let stats = ok_reply(&manager, r#"{"cmd":"stats"}"#);
    let absorbs = stats.get("cache").and_then(|c| c.get("append_absorbs")).and_then(Json::as_u64);
    assert!(absorbs > Some(0), "appends rebuilt the witness's cache instead of absorbing: {stats}");
    let health = runtime.health();
    assert!(health.degraded_entries >= 1, "{health:?}");
    assert!(!health.degraded, "the landed writes never healed: {health:?}");
}

#[test]
fn a_torn_segment_degrades_and_the_next_landed_save_heals_with_the_whole_backlog() {
    let dir = TempDir::new();
    // Attempt 1 is the registration's whole-file write. Attempts 2..=5 are
    // the first append's try and its three retries: each crashes 40 bytes
    // into the data record, leaving a torn tail after the file's durable
    // end.
    let runtime = Arc::new(tearing_runtime(
        dir.path(),
        FaultPlan::default().range(2, 5, FaultKind::Torn(40)),
    ));
    let manager = SessionManager::new(Catalog::new());
    manager.attach_storage(Arc::clone(&runtime));
    let table = sensor_table();
    let file = dir.path().join(format!("t{}.tbl", table.id()));
    manager.register_table(table);
    assert!(!runtime.is_degraded());
    let whole = std::fs::metadata(&file).unwrap().len();

    let append =
        format!(r#"{{"cmd":"stream_append","table":"readings","rows":[{}]}}"#, append_rows_json());
    let first = manager.handle_line(&append);
    assert!(first.contains(r#""ok":true"#), "{first}");
    assert!(first.contains(r#""durable":false"#), "a torn segment is not durable: {first}");
    let health = runtime.health();
    assert!(health.degraded);
    assert_eq!((health.retries, health.consecutive_failures), (3, 1));
    assert!(health.last_persist_error.unwrap().contains("torn write"));
    assert_eq!(std::fs::metadata(&file).unwrap().len(), whole + 40, "one torn tail, not four");
    // A kill right here restarts on the registered rows: the tail is cut.
    assert_eq!(rows_after_restart(dir.path()), 2700);

    // Attempt 6 lands. It carries the whole backlog — both batches — as
    // one data record written over the torn tail, and heals the runtime.
    let second = manager.handle_line(&append);
    assert!(second.contains(r#""durable":true"#), "{second}");
    assert!(!runtime.is_degraded());
    let counters = runtime.counters();
    assert_eq!((counters.snapshot_saves, counters.segment_appends), (1, 1));
    assert_eq!(std::fs::metadata(&file).unwrap().len(), whole + counters.segment_bytes);
    assert_eq!(rows_after_restart(dir.path()), 2700 + 32, "restart serves every row");
}

#[test]
fn segment_writes_retry_transient_faults_and_fail_fast_on_a_full_disk() {
    let dir = TempDir::new();
    // Attempt 1 is the registration; every later attempt is a segment.
    let runtime = Arc::new(faulty_runtime(
        dir.path(),
        FaultPlan::default().at(2, FaultKind::Io).at(4, FaultKind::Enospc).at(6, FaultKind::Flaky),
    ));
    let manager = SessionManager::new(Catalog::new());
    manager.attach_storage(Arc::clone(&runtime));
    manager.register_table(sensor_table());
    let append =
        format!(r#"{{"cmd":"stream_append","table":"readings","rows":[{}]}}"#, append_rows_json());
    let append = || manager.handle_line(&append);

    // `io` is transient: attempt 2 fails, its retry (3) lands.
    assert!(append().contains(r#""durable":true"#));
    assert_eq!((runtime.health().retries, runtime.counters().segment_appends), (1, 1));
    // `enospc` is permanent: attempt 4 fails fast, no retry, degraded.
    assert!(append().contains(r#""durable":false"#));
    let health = runtime.health();
    assert!(health.degraded);
    assert_eq!((health.retries, health.consecutive_failures), (1, 1));
    // Attempt 5 lands with both batches in one segment and heals.
    assert!(append().contains(r#""durable":true"#));
    assert!(!runtime.is_degraded());
    assert_eq!(runtime.counters().segment_appends, 2);
    // `flaky` fails the first attempt on a target (6), then passes (7).
    assert!(append().contains(r#""durable":true"#));
    assert_eq!((runtime.health().retries, runtime.counters().segment_appends), (2, 3));

    assert_eq!(runtime.counters().snapshot_saves, 1, "no fault forced a full snapshot");
    assert_eq!(rows_after_restart(dir.path()), 2700 + 4 * 16);
}

/// Serves an armed manager with the pooled executor on an ephemeral port;
/// returns the address and the serving thread.
fn serve_crash_armed() -> (String, JoinHandle<std::io::Result<Arc<PoolStats>>>) {
    let manager = Arc::new(SessionManager::new(catalog_of(sensor_table())));
    manager.arm_crash_hook();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let serving =
        std::thread::spawn(move || serve_pooled(manager, listener, PoolConfig::default()));
    (addr, serving)
}

#[test]
fn one_hundred_crashes_cost_zero_workers_and_quarantine_each_session() {
    let (addr, serving) = serve_crash_armed();
    let mut client = LineClient::connect(&addr, Duration::from_secs(30)).expect("connect");
    let mut roundtrip =
        |line: String| -> String { client.roundtrip(&line).expect("reply").to_string() };

    for i in 0..100 {
        let open = roundtrip(r#"{"cmd":"open_session"}"#.to_string());
        assert!(open.contains(r#""ok":true"#), "crash {i}: {open}");
        let session: u64 = open
            .split(r#""session":"#)
            .nth(1)
            .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
            .and_then(|digits| digits.parse().ok())
            .expect("open_session reply carries the id");

        // The panic comes back as a structured, non-retryable internal
        // error — on the same connection, so the worker survived.
        let crash = roundtrip(format!(r#"{{"cmd":"crash","session":{session}}}"#));
        assert!(crash.contains(r#""ok":false"#), "crash {i}: {crash}");
        assert!(crash.contains(r#""kind":"internal""#), "crash {i}: {crash}");
        assert!(crash.contains(r#""retryable":false"#), "crash {i}: {crash}");
        assert!(crash.contains("handler panicked"), "crash {i}: {crash}");

        // The poisoned session is fenced...
        let state = roundtrip(format!(r#"{{"cmd":"state","session":{session}}}"#));
        assert!(state.contains(r#""kind":"quarantined""#), "crash {i}: {state}");

        // ...but still closable, and the rest of the server is untouched.
        let closed = roundtrip(format!(r#"{{"cmd":"close_session","session":{session}}}"#));
        assert!(closed.contains(r#""closed""#), "crash {i}: {closed}");
    }

    let pong = roundtrip(r#"{"cmd":"ping"}"#.to_string());
    assert!(pong.contains("pong"), "{pong}");
    let stats = roundtrip(r#"{"cmd":"stats"}"#.to_string());
    assert!(stats.contains(r#""panics_caught":100"#), "{stats}");
    assert!(stats.contains(r#""quarantined_sessions":100"#), "{stats}");

    let reply = roundtrip(r#"{"cmd":"shutdown"}"#.to_string());
    assert!(reply.contains(r#""shutting_down":true"#), "{reply}");
    let drained = serving.join().expect("the serving thread survives every crash");
    drained.expect("the pool drains after the ctrl-line");
}

#[test]
fn crash_hook_is_a_plain_user_error_when_disarmed() {
    // A manager nothing armed, as the binary serves: the hook must refuse
    // with a classic string error — no panic, no quarantine.
    let manager = SessionManager::new(catalog_of(sensor_table()));
    let open = manager.handle_line(r#"{"cmd":"open_session"}"#);
    assert!(open.contains(r#""ok":true"#), "{open}");
    let reply = manager.handle_line(r#"{"cmd":"crash","session":1}"#);
    assert!(reply.contains(r#""ok":false"#), "{reply}");
    assert!(reply.contains("crash is disabled"), "{reply}");
    assert!(!reply.contains(r#""kind":"internal""#), "disarmed crash is a user error: {reply}");
    let state = manager.handle_line(r#"{"cmd":"state","session":1}"#);
    assert!(state.contains(r#""ok":true"#), "disarmed crash must not quarantine: {state}");
}

#[test]
fn append_onto_restored_table_explains_bit_identically_to_cold_rebuild() {
    let dir = TempDir::new();

    // ── Phase A: a durable manager appends and answers an explain; the
    // append made its rows durable before its ack.
    {
        let manager = SessionManager::new(catalog_of(sensor_table()));
        manager.attach_storage(Arc::new(fs_runtime(dir.path())));
        manager.flush_storage();
        let replies = scripted_session(&manager);
        assert!(replies.iter().all(|r| r.contains(r#""ok":true"#)));
        assert_eq!(manager.flush_storage(), 0, "nothing is left for the shutdown flush");
    }

    // ── Phase B: restore from disk, then append MORE rows onto the
    // restored table and explain.
    let restored_replies = {
        let runtime = Arc::new(fs_runtime(dir.path()));
        let manager = SessionManager::new(runtime.restore_catalog().unwrap());
        manager.attach_storage(Arc::clone(&runtime));
        scripted_session(&manager)
    };

    // ── Phase C: a cold manager over the same generated rows, no storage at
    // all, replaying the exact same phases A+B appends in memory.
    let cold_replies = {
        let manager = SessionManager::new(catalog_of(sensor_table()));
        let append = format!(
            r#"{{"cmd":"stream_append","table":"readings","rows":[{}]}}"#,
            append_rows_json()
        );
        let reply = manager.handle_line(&append); // phase A's append
        assert!(reply.contains(r#""ok":true"#), "{reply}");
        scripted_session(&manager)
    };

    // Every data-bearing reply must match bit for bit; the appends differ
    // only in durability, the explains only in cache flags and timings.
    assert_eq!(restored_replies.len(), cold_replies.len());
    for (i, (restored, cold)) in restored_replies.iter().zip(&cold_replies).enumerate() {
        if restored.contains(r#""predicates":["#) {
            assert_eq!(
                answer_of(restored),
                answer_of(cold),
                "explain answer diverged at reply {i}"
            );
        } else if restored.contains(r#""durable":"#) {
            assert!(restored.contains(r#""durable":true"#), "{restored}");
            assert!(cold.contains(r#""durable":false"#), "{cold}");
            assert_eq!(restored.replace(r#""durable":true"#, r#""durable":false"#), *cold);
        } else {
            assert_eq!(
                mask_cache_counters(restored),
                mask_cache_counters(cold),
                "reply {i} diverged"
            );
        }
    }
}

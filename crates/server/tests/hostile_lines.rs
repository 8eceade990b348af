//! One hostile line must not kill the server.
//!
//! The seeds are the request lines of `reply_goldens.rs`'s script, read
//! back from the transcript it pins (`golden/replies.txt`, the `> ` lines)
//! — every command, in success and error form. Each case replays the
//! script up to one line, so the mutant of that line arrives in exactly
//! the state the script had built, and then mutates it the way a broken or
//! hostile client would: cut at a byte, bytes flipped and inserted, runs
//! of `[` / `{`, numbers no field can hold, lone surrogates, duplicate
//! keys, an oversized `batch`.
//!
//! Whatever the line, `handle_line_into` must return (a panic that escapes
//! it fails the test; so would a hang), the reply must be one line that
//! parses to an object with a boolean `ok` — and an `error` that is the
//! classic string or the structured `{kind, ..}` object when `ok` is
//! false — and no handler may have panicked behind the isolation layer:
//! `panics_caught` and `quarantined_sessions` stay where they were.
//!
//! A `run_query` statement nested past the SQL parser's depth cap is the
//! same: parentheses, `NOT`, unary minus, `AND` and `+` chains of any
//! length under the line cap are a parse error, and the deepest statement
//! each shape may have runs the whole loop on a worker's stack.
//!
//! The `crash` lines of the script are harmless here: the hook is only
//! armed by `SessionManager::arm_crash_hook`, which nothing in this binary
//! calls.

use dbwipes_data::{generate_sensor, SensorConfig};
use dbwipes_engine::{parse_select, MAX_EXPR_DEPTH};
use dbwipes_server::json::MAX_NESTING;
use dbwipes_server::{Json, SessionManager, MAX_BATCH_COMMANDS, PROTOCOL_VERSION};
use dbwipes_storage::Catalog;
use proptest::prelude::*;
use std::sync::OnceLock;

fn seeds() -> Vec<&'static str> {
    include_str!("golden/replies.txt").lines().filter_map(|l| l.strip_prefix("> ")).collect()
}

/// A fresh copy-on-write clone of one small sensor catalog.
fn catalog() -> Catalog {
    static CATALOG: OnceLock<Catalog> = OnceLock::new();
    let seeded = CATALOG.get_or_init(|| {
        let data = generate_sensor(&SensorConfig {
            num_readings: 540,
            failing_sensors: vec![15],
            ..SensorConfig::small()
        });
        let mut catalog = Catalog::new();
        catalog.register(data.table).unwrap();
        catalog
    });
    seeded.clone()
}

/// Numbers no field can hold, and things that only look like numbers.
fn numbers() -> Vec<String> {
    let plain = "1e999999 -1e999999 1e-999999 1E+400 -0 -0.0 0.5 -1 4294967296 \
                 9007199254740993 18446744073709551616 NaN Infinity - 1. .5 01";
    let mut out: Vec<String> = plain.split_whitespace().map(str::to_string).collect();
    out.extend([format!("-{}", "9".repeat(400)), format!("0.{}1", "0".repeat(400))]);
    out
}

/// Text spliced in at a random byte: lone and mispaired surrogates, broken
/// escapes, bracket runs up to and far beyond the nesting cap.
fn splices() -> Vec<String> {
    let escapes = [r#""\ud800""#, r#""\udc00\ud800""#, r#""\ud800A""#, r#"\ud800"#, r#""\u00"#];
    let mut out: Vec<String> = escapes.iter().map(|s| s.to_string()).collect();
    for depth in [3, MAX_NESTING, MAX_NESTING + 1, 100_000] {
        out.extend(["[", "{", r#"{"a":"#].map(|open| open.repeat(depth)));
    }
    out
}

/// Members appended to the request object. The parser keeps the last of a
/// duplicated key, so these replace the field the handler reads.
fn members() -> Vec<String> {
    let mut out: Vec<String> = [
        r#""cmd":"ping""#,
        r#""cmd":"batch""#,
        r#""cmd":"stream_append""#,
        r#""id":"\ud800""#,
        r#""commands":[[[]]]"#,
        r#""rows":[[1e999999,-0,null,true,"x"]]"#,
        r#""brush":{"y_min":1e999999,"x_max":-1e999999}"#,
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let numbers = numbers();
    for key in ["session", "index", "value", "id"] {
        out.extend(numbers.iter().map(|n| format!(r#""{key}":{n}"#)));
    }
    out
}

#[derive(Debug, Clone)]
enum Mutation {
    /// Cut the line at a byte.
    Truncate(usize),
    /// XOR one byte.
    Flip(usize, u8),
    /// Insert one arbitrary byte.
    Insert(usize, u8),
    /// Splice `splices()[i]` in at a byte.
    Splice(usize, usize),
    /// Append `members()[i]` to the request object.
    Member(usize),
    /// Send the line `MAX_BATCH_COMMANDS + 1` times in one `batch`.
    OversizedBatch,
}

fn arbitrary_mutation() -> impl Strategy<Value = Mutation> {
    let at = 0usize..4096;
    let breaking = prop_oneof![
        at.clone().prop_map(Mutation::Truncate),
        (at.clone(), 1u8..255).prop_map(|(at, mask)| Mutation::Flip(at, mask)),
        (at.clone(), 0u8..255).prop_map(|(at, byte)| Mutation::Insert(at, byte)),
        (at.clone(), at.clone()).prop_map(|(at, i)| Mutation::Splice(at, i)),
        Just(Mutation::OversizedBatch),
    ];
    // The one mutation that keeps the line well-formed is drawn as often
    // as the rest together, so that mutants reach the handlers and not
    // only the parser.
    prop_oneof![breaking, at.prop_map(Mutation::Member)]
}

fn mutate(line: &str, mutations: &[Mutation]) -> String {
    let (splices, members) = (splices(), members());
    let mut bytes = line.as_bytes().to_vec();
    for mutation in mutations {
        let len = bytes.len();
        match *mutation {
            Mutation::Truncate(at) => bytes.truncate(at % (len + 1)),
            Mutation::Flip(at, mask) if len > 0 => bytes[at % len] ^= mask,
            Mutation::Insert(at, byte) => bytes.insert(at % (len + 1), byte),
            Mutation::Splice(at, i) => {
                let at = at % (len + 1);
                bytes.splice(at..at, splices[i % splices.len()].bytes());
            }
            Mutation::Member(i) => {
                let at = bytes.iter().rposition(|&b| b == b'}').unwrap_or(len);
                bytes.splice(at..at, format!(",{}", members[i % members.len()]).bytes());
            }
            // Only while the wrapped line still fits the executor's 1 MiB
            // line cap: a longer one never reaches dispatch.
            Mutation::OversizedBatch if len < (1 << 20) / (MAX_BATCH_COMMANDS + 2) => {
                let element = String::from_utf8_lossy(&bytes).into_owned();
                let elements = vec![element; MAX_BATCH_COMMANDS + 1].join(",");
                bytes = format!(r#"{{"cmd":"batch","commands":[{elements}]}}"#).into_bytes();
            }
            Mutation::Flip(..) | Mutation::OversizedBatch => {}
        }
    }
    // What the executor does with a line's bytes before dispatch; a raw
    // newline would have ended the line on the wire.
    String::from_utf8_lossy(&bytes).replace(['\n', '\r'], " ")
}

/// Sends `line` and checks everything the module docs promise.
fn assert_answered(manager: &SessionManager, line: &str) -> Result<(), String> {
    let shown: String = line.chars().take(300).collect();
    let before = (manager.panics_caught(), manager.quarantined_sessions());
    let mut reply = String::from("left over from the previous command");
    manager.handle_line_into(line, &mut reply);
    prop_assert!(!reply.contains('\n'), "{shown} -> a reply is one line: {reply}");
    let parsed = Json::parse(&reply).map_err(|e| format!("{shown} -> {reply}: {e}"))?;
    prop_assert!(matches!(parsed, Json::Obj(_)), "{shown} -> {reply}");
    let error = parsed.get("error");
    let described = error.and_then(Json::as_str).is_some()
        || error.and_then(|e| e.get("kind")).and_then(Json::as_str).is_some();
    match parsed.get("ok").and_then(Json::as_bool) {
        Some(ok) => prop_assert!(ok || described, "{shown} -> error without a kind: {reply}"),
        None => return Err(format!("{shown} -> no boolean `ok`: {reply}")),
    }
    let after = (manager.panics_caught(), manager.quarantined_sessions());
    prop_assert!(after == before, "{shown} -> a handler panicked: {before:?} -> {after:?}");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_mutant_of_a_golden_request_is_answered(
        seed in 0usize..4096,
        mutations in proptest::collection::vec(arbitrary_mutation(), 1..4),
    ) {
        let seeds = seeds();
        prop_assert!(seeds.len() > 60, "the golden transcript lost its request lines");
        let seed = seed % seeds.len();
        let manager = SessionManager::new(catalog());
        for line in &seeds[..seed] {
            manager.handle_line(line);
        }
        assert_answered(&manager, &mutate(seeds[seed], &mutations))?;
        // The server is still there for the next client.
        assert_answered(&manager, r#"{"cmd":"ping"}"#)?;
    }
}

/// The line that killed the PR 15 server: under the executor's 1 MiB line
/// cap, and deep enough to overflow the stack of a parser that recurses
/// once per bracket. Both bracket kinds, then a `ping`.
#[test]
fn deep_nesting_is_refused_at_the_cap_not_recursed_into() {
    let manager = SessionManager::new(catalog());
    for line in ["[".repeat(900_000), r#"{"a":"#.repeat(180_000)] {
        let reply = Json::parse(&manager.handle_line(&line)).unwrap();
        assert_eq!(reply.get("ok"), Some(&Json::Bool(false)));
        let error = reply.get("error").and_then(Json::as_str).unwrap();
        assert!(error.starts_with("invalid JSON: nesting deeper than 64 levels at "), "{error}");
    }
    // One level under the cap is an ordinary request: the id is echoed.
    let id = format!("{}1{}", "[".repeat(MAX_NESTING - 1), "]".repeat(MAX_NESTING - 1));
    let reply = manager.handle_line(&format!(r#"{{"cmd":"ping","id":{id}}}"#));
    assert_eq!(
        reply,
        format!(r#"{{"id":{id},"ok":true,"pong":true,"protocol_version":{PROTOCOL_VERSION}}}"#)
    );
    assert_eq!((manager.panics_caught(), manager.quarantined_sessions()), (0, 0));
}

/// A WHERE clause nested `n` levels in one way.
type Shape = fn(usize) -> String;

/// The five ways a `run_query` statement can nest: the WHERE clause of
/// the window query with `n` parentheses, `NOT`s, unary minuses, `AND`s or
/// `+`s. Every row passes it, whatever `n`.
const SHAPES: [(&str, Shape); 5] = [
    ("parentheses", |n| format!("{}temp > -1000{}", "(".repeat(n), ")".repeat(n))),
    ("NOT", |n| format!("{}temp {} -1000", "NOT ".repeat(n), ["> ", "<"][n % 2])),
    ("unary minus", |n| format!("{}temp < 1000", "- ".repeat(n))),
    ("AND", |n| format!("temp > -1000{}", " AND temp > -1000".repeat(n))),
    ("+", |n| format!("temp{} > -1000", " + 0".repeat(n))),
];

/// The `run_query` line of session 1 for the window query over `where_clause`.
fn run_query(where_clause: &str) -> String {
    let sql = format!(
        "SELECT window, avg(temp) AS avg_temp, stddev(temp) AS std_temp FROM readings \
         WHERE {where_clause} GROUP BY window ORDER BY window"
    );
    let line =
        [("cmd", Json::str("run_query")), ("session", Json::num(1.0)), ("sql", Json::str(sql))];
    Json::obj(line.into()).to_string()
}

/// The largest `n` whose statement of `shape` parses.
fn deepest_accepted(shape: Shape) -> usize {
    let parses = |n| parse_select(&format!("SELECT a FROM t WHERE {}", shape(n))).is_ok();
    let n = (0..).find(|&n| !parses(n)).unwrap();
    assert!(n > 0, "{}", shape(0));
    n - 1
}

/// A statement nested past `MAX_EXPR_DEPTH`, in each shape and at sizes
/// up to the executor's 1 MiB line cap, is an ordinary `ok:false` parse
/// error: no handler overflows its stack, and the next `ping` answers.
#[test]
fn statements_nested_past_the_depth_cap_are_refused() {
    let manager = SessionManager::new(catalog());
    manager.handle_line(r#"{"cmd":"open_session"}"#);
    for (name, shape) in SHAPES {
        let deepest = deepest_accepted(shape);
        let mut n = deepest + 1;
        loop {
            let line = run_query(&shape(n));
            if line.len() > 1 << 20 {
                break;
            }
            let reply = Json::parse(&manager.handle_line(&line)).unwrap();
            assert_eq!(reply.get("ok"), Some(&Json::Bool(false)), "{name} × {n}");
            let error = reply.get("error").and_then(Json::as_str).unwrap();
            let cap = format!("expression nests deeper than {MAX_EXPR_DEPTH} levels");
            assert!(error.contains("parse error at byte ") && error.ends_with(&cap), "{error}");
            assert!(manager.handle_line(r#"{"cmd":"ping"}"#).contains(r#""ok":true"#));
            n *= 4;
        }
    }
    assert_eq!((manager.panics_caught(), manager.quarantined_sessions()), (0, 0));
}

/// The deepest statement of each shape the parser accepts goes through
/// the whole loop — run, both brushes, debug, click, undo, zoom — on a
/// 2 MiB stack, what the executor's workers run on (std's default: the
/// executor sets no stack size). A click whose rewrite would nest past
/// the cap is refused and leaves the session as it was.
#[test]
fn the_deepest_accepted_statements_run_the_whole_loop_on_a_worker_stack() {
    let run = || {
        for (name, shape) in SHAPES {
            let manager = SessionManager::new(catalog());
            manager.handle_line(r#"{"cmd":"open_session"}"#);
            let ask = |line: &str| {
                let reply = Json::parse(&manager.handle_line(line)).unwrap();
                let ok = reply.get("ok").and_then(Json::as_bool).unwrap();
                (ok, reply)
            };
            let n = deepest_accepted(shape);
            let (ok, reply) = ask(&run_query(&shape(n)));
            assert!(ok, "{name} × {n}: {reply}");
            for line in [
                r#"{"cmd":"brush_outputs","session":1,"x":"window","y":"std_temp","brush":{"y_min":4}}"#,
                r#"{"cmd":"brush_inputs","session":1,"x":"sensorid","y":"temp","brush":{"y_min":100}}"#,
                r#"{"cmd":"set_metric","session":1,"kind":"too_high","column":"std_temp","value":4}"#,
                r#"{"cmd":"debug","session":1}"#,
            ] {
                let (ok, reply) = ask(line);
                assert!(ok, "{name} × {n}: {line} -> {reply}");
            }
            let state = || {
                let (_, reply) = ask(r#"{"cmd":"state","session":1}"#);
                (reply.get("sql").cloned(), reply.get("applied_predicates").cloned())
            };
            let before = state();
            let (ok, reply) = ask(r#"{"cmd":"click_predicate","session":1,"index":0}"#);
            if !ok {
                let error = reply.get("error").and_then(Json::as_str).unwrap();
                assert!(
                    error.ends_with(&format!("deeper than {MAX_EXPR_DEPTH} levels")),
                    "{error}"
                );
                assert_eq!(state(), before, "{name}: a refused click changed the session");
            }
            for line in [
                r#"{"cmd":"undo","session":1}"#,
                r#"{"cmd":"zoom","session":1,"x":"sensorid","y":"temp"}"#,
            ] {
                let (ok, reply) = ask(line);
                assert!(ok, "{name} × {n}: {line} -> {reply}");
            }
            assert_eq!((manager.panics_caught(), manager.quarantined_sessions()), (0, 0), "{name}");
        }
    };
    std::thread::Builder::new().stack_size(2 << 20).spawn(run).unwrap().join().unwrap();
}

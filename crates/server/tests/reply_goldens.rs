//! Byte-identity goldens for the wire replies.
//!
//! `golden/replies.txt` holds the raw reply line of every command in
//! `WIRE_COMMANDS` — success and error forms, a `batch` with a failing and
//! a crashing element, `stats` with its nested blocks, a `zoom` of a few
//! hundred points — captured from the tree-building encoder this crate
//! used before replies were written by `JsonWriter`. The replay asserts
//! that the server still answers the same script with the same bytes, and
//! that every reply is a fixed point of `parse` → `to_string` (keys
//! sorted, numbers stable), which is what makes "the same bytes" a
//! property of the state rather than of the code path.
//!
//! Values that are not a function of the script are masked on both sides:
//! the `timings` block of a `debug` reply (wall clock) and the
//! process-wide `condition_bitmaps` counters of `stats`
//! (every test of this binary adds to them, and the tests run
//! concurrently, in no fixed order). Only the digits are masked;
//! the keys, their order and the punctuation around them stay pinned.
//!
//! `golden/large_replies.txt` pins the replies too large to keep verbatim
//! — `zoom`s of tens of thousands of points, a whole `plot`, a
//! `brush_inputs` — by byte length and FNV-1a hash, over the 64k-row
//! sensor table and the default FEC table (negative cents, five-digit row
//! ids). They were captured from the encoder that wrote one digit per
//! loop iteration and pushed every point key by key.
//!
//! The first test arms its own manager's `crash` hook half way through;
//! the second sends no `crash`. To re-capture after an intended
//! protocol change, copy the file the failure message names over the
//! golden.

use dbwipes_data::{generate_fec, generate_sensor, FecConfig, SensorConfig};
use dbwipes_server::{Json, SessionManager, WIRE_COMMANDS};
use dbwipes_storage::Catalog;
use std::fmt::Write as _;

/// A script line that is not a request: arms the `crash` test hook.
const ARM_CRASH: &str = "# SessionManager::arm_crash_hook";

/// Blocks whose numbers are masked before comparing.
const VOLATILE_BLOCKS: &[&str] = &["timings", "condition_bitmaps"];

/// The request lines, `$QUERY` standing for the fixture's window query.
const SCRIPT: &[&str] = &[
    // Service-level commands and the id echo, in every JSON shape an id
    // can take.
    r#"{"cmd":"ping"}"#,
    r#"{"cmd":"ping","id":17}"#,
    r#"{"cmd":"ping","id":"req-\"7\"\n\t\\ \u0001\u001f\u007f\/ é😀 \ud83d\ude00"}"#,
    r#"{"cmd":"ping","id":{"b":[1,2.5,null,true,-0.0,1e300,9007199254740993],"a":"x"}}"#,
    r#"{"cmd":"tables"}"#,
    r#"{"cmd":"sessions"}"#,
    r#"{"cmd":"stats"}"#,
    r#"{"cmd":"open_session"}"#,
    r#"{"cmd":"open_session","id":"second"}"#,
    r#"{"cmd":"sessions"}"#,
    r#"{"cmd":"state","session":1}"#,
    // Malformed requests: no echo before the line parses, echo after.
    "this is not json",
    "[1,2,3]",
    r#"{"cmd":"hack_the_planet"}"#,
    r#"{"cmd":"ping \"quoted\" \\ \u0002\b\f\u007f é😀"}"#,
    r#"{"cmd":"run_query","session":1}"#,
    r#"{"cmd":"set_metric","session":1,"kind":"odd","column":"a","value":1}"#,
    r#"{"cmd":"debug","session":12}"#,
    r#"{"cmd":"debug","session":12,"id":42}"#,
    r#"{"cmd":"close_session","session":99,"id":[1,"two"]}"#,
    // Everything that needs a result, before any query ran.
    r#"{"cmd":"debug","session":1}"#,
    r#"{"cmd":"undo","session":1}"#,
    r#"{"cmd":"click_predicate","session":1,"index":0}"#,
    r#"{"cmd":"plot","session":1,"x":"a","y":"b"}"#,
    r#"{"cmd":"zoom","session":1,"x":"a","y":"b"}"#,
    r#"{"cmd":"brush_outputs","session":1,"x":"a","y":"b"}"#,
    r#"{"cmd":"brush_inputs","session":1,"x":"a","y":"b"}"#,
    r#"{"cmd":"metric_choices","session":1,"column":"std_temp"}"#,
    r#"{"cmd":"run_query","session":1,"sql":"frob the \"knob\"\té😀"}"#,
    // Zoom (Figure 4) on a per-sensor grouping: a few hundred raw tuples,
    // on integer, timestamp and float axes.
    r#"{"cmd":"run_query","session":1,"sql":"SELECT sensorid, avg(temp) AS avg_temp FROM readings GROUP BY sensorid ORDER BY sensorid"}"#,
    r#"{"cmd":"zoom","session":1,"x":"sensorid","y":"temp"}"#,
    r#"{"cmd":"brush_outputs","session":1,"x":"sensorid","y":"avg_temp","brush":{"x_min":13,"x_max":16}}"#,
    r#"{"cmd":"zoom","session":1,"x":"sensorid","y":"temp","id":"z"}"#,
    r#"{"cmd":"zoom","session":1,"x":"epoch","y":"voltage"}"#,
    r#"{"cmd":"zoom","session":1,"x":"sensorid","y":"nope"}"#,
    // The Figure-1 loop.
    r#"{"cmd":"run_query","session":1,"sql":"$QUERY","id":"q"}"#,
    r#"{"cmd":"plot","session":1,"x":"window","y":"std_temp"}"#,
    r#"{"cmd":"plot","session":1,"x":"window","y":"nope"}"#,
    r#"{"cmd":"debug","session":1}"#,
    r#"{"cmd":"brush_outputs","session":1,"x":"window","y":"std_temp","brush":{"y_min":8}}"#,
    r#"{"cmd":"brush_inputs","session":1,"x":"sensorid","y":"temp","brush":{"y_min":100}}"#,
    r#"{"cmd":"metric_choices","session":1,"column":"std_temp"}"#,
    r#"{"cmd":"metric_choices","session":1,"column":"nope"}"#,
    r#"{"cmd":"debug","session":1}"#,
    r#"{"cmd":"set_metric","session":1,"kind":"too_high","column":"std_temp","value":4}"#,
    r#"{"cmd":"debug","session":1,"id":"cold"}"#,
    r#"{"cmd":"debug","session":1,"id":"warm"}"#,
    r#"{"cmd":"click_predicate","session":1,"index":99}"#,
    r#"{"cmd":"click_predicate","session":1,"index":0}"#,
    r#"{"cmd":"state","session":1}"#,
    r#"{"cmd":"undo","session":1}"#,
    r#"{"cmd":"undo","session":1}"#,
    r#"{"cmd":"state","session":1,"id":null}"#,
    // Streaming ingestion: success, then the all-or-nothing refusals.
    r#"{"cmd":"stream_append","table":"readings","rows":[[15,0,0,0,88.5,35.0,250.0,2.3],[15,1,0,0,null,35.25,250,2]],"id":1}"#,
    r#"{"cmd":"stream_append","table":"nope","rows":[[1]]}"#,
    r#"{"cmd":"stream_append","table":"readings","rows":[[1,2]]}"#,
    r#"{"cmd":"stream_append","table":"readings","rows":[["x",0,0,0,1,1,1,1]]}"#,
    r#"{"cmd":"stream_append","table":"readings","rows":[[[1]]]}"#,
    r#"{"cmd":"plot","session":1,"x":"window","y":"avg_temp"}"#,
    // batch: a scripted replay on the second session, a failing element
    // in place, per-element ids, service-level elements, refusals.
    r#"{"cmd":"batch","id":"b1","commands":[{"cmd":"run_query","session":2,"sql":"$QUERY","id":"q"},{"cmd":"brush_outputs","session":2,"x":"window","y":"std_temp","brush":{"y_min":8}},{"cmd":"set_metric","session":2,"kind":"too_high","column":"std_temp","value":4},{"cmd":"state","session":999,"id":7},{"cmd":"debug","session":2},{"cmd":"stats"},{"cmd":"click_predicate","session":2,"index":0,"id":"c"}]}"#,
    r#"{"cmd":"batch","commands":[]}"#,
    r#"{"cmd":"batch","commands":[{"cmd":"ping"},{"cmd":"state","session":999},{"cmd":"ping","id":2}]}"#,
    r#"{"cmd":"batch","commands":[{"cmd":"ping"},{"cmd":"batch","commands":[]}]}"#,
    r#"{"cmd":"batch","commands":[{"cmd":"debug"}],"id":3}"#,
    r#"{"cmd":"batch","commands":3}"#,
    // The crash hook: a plain refusal while disarmed; armed, a structured
    // `internal` error that quarantines the session — also as a batch
    // element, where the rest of the run answers `quarantined`.
    r#"{"cmd":"crash","session":2}"#,
    ARM_CRASH,
    r#"{"cmd":"open_session"}"#,
    r#"{"cmd":"batch","commands":[{"cmd":"state","session":3,"id":"before"},{"cmd":"crash","session":3,"id":"boom"},{"cmd":"state","session":3,"id":"after"},{"cmd":"ping"},{"cmd":"state","session":2}]}"#,
    r#"{"cmd":"crash","session":2,"id":9}"#,
    r#"{"cmd":"state","session":2}"#,
    r#"{"cmd":"stats","id":"final"}"#,
    // Closing: quarantined and healthy sessions, then a repeat.
    r#"{"cmd":"close_session","session":2}"#,
    r#"{"cmd":"close_session","session":1,"id":"bye"}"#,
    r#"{"cmd":"close_session","session":1}"#,
    r#"{"cmd":"sessions"}"#,
    r#"{"cmd":"shutdown"}"#,
];

/// Replaces the digits of every number directly inside the flat object
/// that follows `"block":` with `#`, wherever the block occurs.
fn mask_block(reply: &str, block: &str) -> String {
    let needle = format!("\"{block}\":{{");
    let mut out = String::with_capacity(reply.len());
    let mut rest = reply;
    while let Some(at) = rest.find(&needle) {
        let body_start = at + needle.len();
        let body_len = rest[body_start..].find('}').expect("flat object closes");
        out.push_str(&rest[..body_start]);
        let mut in_number = false;
        for c in rest[body_start..body_start + body_len].chars() {
            match c {
                ':' => {
                    in_number = true;
                    out.push(c);
                }
                ',' => {
                    in_number = false;
                    out.push(c);
                }
                _ if in_number => {
                    if !out.ends_with('#') {
                        out.push('#');
                    }
                }
                _ => out.push(c),
            }
        }
        rest = &rest[body_start + body_len..];
    }
    out.push_str(rest);
    out
}

fn masked(reply: &str) -> String {
    VOLATILE_BLOCKS.iter().fold(reply.to_string(), |acc, block| mask_block(&acc, block))
}

#[test]
fn every_reply_is_byte_identical_to_the_golden() {
    let data = generate_sensor(&SensorConfig {
        num_readings: 2_700,
        failing_sensors: vec![15],
        ..SensorConfig::small()
    });
    let mut catalog = Catalog::new();
    catalog.register(data.table.clone()).unwrap();
    let manager = SessionManager::new(catalog);

    let query = data.window_query();
    let script: Vec<String> = SCRIPT.iter().map(|l| l.replace("$QUERY", &query)).collect();
    let mut transcript = String::new();
    for line in &script {
        if line == ARM_CRASH {
            manager.arm_crash_hook();
            writeln!(transcript, "{line}").unwrap();
            continue;
        }
        let reply = manager.handle_line(line);
        assert!(!reply.contains('\n'), "a reply is one line: {reply}");
        // Fixed point of the codec: keys sorted, numbers stable.
        let reparsed = Json::parse(&reply).unwrap_or_else(|e| panic!("{line} -> {reply}: {e}"));
        assert_eq!(reparsed.to_string(), reply, "{line}: reply is not parse/print stable");
        writeln!(transcript, "> {line}\n< {}", masked(&reply)).unwrap();
    }

    // The script exercises the whole command set.
    for cmd in WIRE_COMMANDS {
        assert!(
            script.iter().any(|l| l.contains(&format!(r#""cmd":"{cmd}""#))),
            "the golden script never sends `{cmd}`"
        );
    }

    compare_with_golden(&transcript, include_str!("golden/replies.txt"), "replies");
}

/// Fails with the first differing line when `transcript` is not `golden`,
/// writing the whole transcript to `target/tmp/<name>.actual.txt`.
fn compare_with_golden(transcript: &str, golden: &str, name: &str) {
    if transcript != golden {
        let actual =
            std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}.actual.txt"));
        std::fs::write(&actual, transcript).expect("write the actual transcript");
        let first = transcript
            .lines()
            .zip(golden.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| transcript.lines().count().min(golden.lines().count()));
        panic!(
            "replies differ from crates/server/tests/golden/{name}.txt at line {}:\n  got      {}\n  expected {}\nfull transcript: {}",
            first + 1,
            transcript.lines().nth(first).unwrap_or("<end>"),
            golden.lines().nth(first).unwrap_or("<end>"),
            actual.display()
        );
    }
}

/// The script of the large replies: every line is answered, and the
/// replies of the lines starting with `!` are pinned by length and hash.
const LARGE_SCRIPT: &[&str] = &[
    r#"{"cmd":"open_session"}"#,
    r#"{"cmd":"run_query","session":1,"sql":"SELECT window, avg(temp) AS avg_temp, stddev(temp) AS std_temp FROM readings GROUP BY window ORDER BY window"}"#,
    r#"!{"cmd":"plot","session":1,"x":"window","y":"std_temp"}"#,
    r#"{"cmd":"brush_outputs","session":1,"x":"window","y":"std_temp","brush":{"y_min":8}}"#,
    r#"!{"cmd":"zoom","session":1,"x":"sensorid","y":"temp"}"#,
    r#"!{"cmd":"zoom","session":1,"x":"epoch","y":"voltage"}"#,
    r#"!{"cmd":"brush_inputs","session":1,"x":"sensorid","y":"temp","brush":{"y_min":100}}"#,
    r#"{"cmd":"brush_outputs","session":1,"x":"window","y":"std_temp"}"#,
    r#"!{"cmd":"zoom","session":1,"x":"epoch","y":"voltage"}"#,
    r#"!{"cmd":"brush_inputs","session":1,"x":"epoch","y":"voltage","brush":{"y_max":2.4}}"#,
    r#"{"cmd":"open_session"}"#,
    r#"{"cmd":"run_query","session":2,"sql":"SELECT day, sum(amount) AS total FROM contributions WHERE candidate = 'McCain' GROUP BY day ORDER BY day"}"#,
    r#"!{"cmd":"plot","session":2,"x":"day","y":"total"}"#,
    r#"{"cmd":"brush_outputs","session":2,"x":"day","y":"total"}"#,
    r#"!{"cmd":"zoom","session":2,"x":"day","y":"amount"}"#,
    r#"!{"cmd":"brush_inputs","session":2,"x":"day","y":"amount","brush":{"y_max":0}}"#,
    r#"{"cmd":"brush_outputs","session":2,"x":"day","y":"total","brush":{"y_max":0}}"#,
    r#"!{"cmd":"zoom","session":2,"x":"day","y":"amount"}"#,
];

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

#[test]
fn large_replies_keep_their_length_and_hash() {
    let sensor = generate_sensor(&SensorConfig {
        num_readings: 64_000,
        failing_sensors: vec![15],
        ..SensorConfig::small()
    });
    let mut catalog = Catalog::new();
    catalog.register(sensor.table).unwrap();
    catalog.register(generate_fec(&FecConfig::default()).table).unwrap();
    let manager = SessionManager::new(catalog);

    let mut transcript = String::new();
    for line in LARGE_SCRIPT {
        let (pinned, request) = match line.strip_prefix('!') {
            Some(request) => (true, request),
            None => (false, *line),
        };
        let reply = manager.handle_line(request);
        assert!(reply.contains(r#""ok":true"#), "{request} -> {reply}");
        if pinned {
            assert!(reply.len() > 1_000, "{request} is not a large reply: {reply}");
            let hash = fnv1a(reply.as_bytes());
            writeln!(transcript, "> {request}\n< bytes={} fnv1a={hash:016x}", reply.len()).unwrap();
        }
    }
    compare_with_golden(&transcript, include_str!("golden/large_replies.txt"), "large_replies");
}

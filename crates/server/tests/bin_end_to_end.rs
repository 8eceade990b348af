//! Drives the real `dbwipes-server` binary end to end: once over
//! stdin/stdout pipes and once over a TCP connection, running a scripted
//! Figure-1 session through each transport.

use dbwipes_server::LineClient;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_dbwipes-server");

/// The scripted session: open, query, brush S and D′, pick ε, debug twice
/// (second one must hit the cache), clean, undo.
fn script() -> Vec<String> {
    let q = "SELECT window, avg(temp) AS avg_temp, stddev(temp) AS std_temp FROM readings GROUP BY window ORDER BY window";
    vec![
        r#"{"cmd":"ping","id":0}"#.to_string(),
        r#"{"cmd":"open_session","id":1}"#.to_string(),
        format!(r#"{{"cmd":"run_query","session":1,"sql":"{q}","id":2}}"#),
        r#"{"cmd":"brush_outputs","session":1,"x":"window","y":"std_temp","brush":{"y_min":8},"id":3}"#.to_string(),
        r#"{"cmd":"brush_inputs","session":1,"x":"sensorid","y":"temp","brush":{"y_min":100},"id":4}"#.to_string(),
        r#"{"cmd":"set_metric","session":1,"kind":"too_high","column":"std_temp","value":4,"id":5}"#.to_string(),
        r#"{"cmd":"debug","session":1,"id":6}"#.to_string(),
        r#"{"cmd":"debug","session":1,"id":7}"#.to_string(),
        r#"{"cmd":"click_predicate","session":1,"index":0,"id":8}"#.to_string(),
        r#"{"cmd":"undo","session":1,"id":9}"#.to_string(),
        r#"{"cmd":"stats","id":10}"#.to_string(),
    ]
}

fn check_replies(replies: &[String]) {
    assert_eq!(replies.len(), script().len());
    for (i, reply) in replies.iter().enumerate() {
        assert!(reply.contains(r#""ok":true"#), "line {i} failed: {reply}");
        assert!(reply.contains(&format!(r#""id":{i}"#)), "line {i} lost its id: {reply}");
    }
    // First debug builds, second reuses.
    assert!(replies[6].contains(r#""cache_hit":false"#), "{}", replies[6]);
    assert!(replies[7].contains(r#""cache_hit":true"#), "{}", replies[7]);
    assert!(replies[6].contains(r#""predicates":[{"#), "{}", replies[6]);
    // The click rewrote the query; stats saw one aggregate-cache build and
    // one memoized explanation replay.
    assert!(replies[8].contains("NOT ("), "{}", replies[8]);
    assert!(replies[10].contains(r#""misses":1"#), "{}", replies[10]);
    assert!(replies[10].contains(r#""explanation_hits":1"#), "{}", replies[10]);
}

struct KillOnDrop(Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn stdio_transport_serves_a_scripted_session() {
    let mut child = Command::new(BIN)
        .args(["--readings", "2700"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn dbwipes-server");
    {
        let mut stdin = child.stdin.take().expect("piped stdin");
        for line in script() {
            writeln!(stdin, "{line}").unwrap();
        }
        // Dropping stdin sends EOF, so the server exits after replying.
    }
    let output = child.wait_with_output().expect("server exits after EOF");
    assert!(output.status.success(), "server exited with {:?}", output.status);
    let replies: Vec<String> =
        String::from_utf8(output.stdout).unwrap().lines().map(str::to_string).collect();
    check_replies(&replies);
}

#[test]
fn tcp_shutdown_ctrl_line_drains_and_exits_zero() {
    let mut child = Command::new(BIN)
        .args([
            "--readings",
            "1350",
            "--listen",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--queue-depth",
            "4",
        ])
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn dbwipes-server");
    let mut stderr = BufReader::new(child.stderr.take().expect("piped stderr"));
    let addr = {
        let mut line = String::new();
        stderr.read_line(&mut line).expect("read listen banner");
        line.trim().rsplit(' ').next().expect("banner ends with the address").to_string()
    };

    let mut client =
        LineClient::connect(&addr, std::time::Duration::from_secs(30)).expect("connect");
    let mut roundtrip =
        |line: &str| -> String { client.roundtrip(line).expect("reply").to_string() };
    assert!(roundtrip(r#"{"cmd":"ping"}"#).contains(r#""pong":true"#));
    // The pooled front-end reports executor counters through `stats`.
    let stats = roundtrip(r#"{"cmd":"stats"}"#);
    assert!(stats.contains(r#""pool""#), "{stats}");
    assert!(stats.contains(r#""workers":2"#), "{stats}");
    // The ctrl-line: reply is flushed, the pool drains, the process
    // exits 0 — the graceful-shutdown contract ops wrappers rely on.
    assert!(roundtrip(r#"{"cmd":"shutdown"}"#).contains(r#""shutting_down":true"#));
    let status = child.wait().expect("server exits after the ctrl-line");
    assert!(status.success(), "graceful shutdown must exit 0, got {status:?}");
    // The drain summary reaches stderr before exit.
    let mut rest = String::new();
    std::io::Read::read_to_string(&mut stderr, &mut rest).unwrap();
    assert!(rest.contains("drained"), "{rest}");
}

#[test]
fn tcp_transport_serves_a_scripted_session() {
    // Port 0 → the OS picks a free port; the server prints the bound
    // address on stderr as `dbwipes-server listening on <addr>`.
    let mut child = Command::new(BIN)
        .args(["--readings", "2700", "--listen", "127.0.0.1:0"])
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn dbwipes-server");
    // Keep the stderr reader alive for the whole test so the server's
    // later diagnostics never hit a closed pipe.
    let mut stderr = BufReader::new(child.stderr.take().expect("piped stderr"));
    let _child = KillOnDrop(child);
    let addr = {
        let mut line = String::new();
        stderr.read_line(&mut line).expect("read listen banner");
        line.trim().rsplit(' ').next().expect("banner ends with the address").to_string()
    };

    let mut client =
        LineClient::connect(&addr, std::time::Duration::from_secs(30)).expect("connect");
    let mut replies = Vec::new();
    for line in script() {
        replies.push(client.roundtrip(&line).expect("reply").to_string());
    }
    check_replies(&replies);
}

//! Restart durability, end to end over the real binary: a server pointed
//! at a `--data-dir` seeds and snapshots its catalog, and a restarted
//! server over the same directory restores the catalog without
//! re-registering tables and answers a repeated explain — rebuilt by the
//! code that builds it cold — bit-identically to the pre-restart answer.
//! The directory holds tables and nothing derived from them. A kill
//! without a flush still recovers to the last durable snapshot.

use dbwipes_server::LineClient;
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

const BIN: &str = env!("CARGO_BIN_EXE_dbwipes-server");

/// Kills the child if the test unwinds before its graceful shutdown.
struct KillOnDrop(Option<Child>);

impl KillOnDrop {
    fn into_inner(mut self) -> Child {
        self.0.take().expect("child not yet taken")
    }

    fn child_mut(&mut self) -> &mut Child {
        self.0.as_mut().expect("child not yet taken")
    }
}

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        if let Some(mut child) = self.0.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Spawns the server over `data_dir`, returning the child, its bound
/// address, everything stderr printed before the listen banner (the
/// restore report, on a restart), and the live stderr reader — which the
/// caller must keep alive so the server's later diagnostics never hit a
/// closed pipe.
fn spawn_server(
    data_dir: &std::path::Path,
) -> (Child, String, String, BufReader<std::process::ChildStderr>) {
    let mut child = Command::new(BIN)
        .args([
            "--readings",
            "2700",
            "--listen",
            "127.0.0.1:0",
            "--data-dir",
            data_dir.to_str().expect("utf-8 temp path"),
        ])
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn dbwipes-server");
    let mut stderr = BufReader::new(child.stderr.take().expect("piped stderr"));
    let mut preamble = String::new();
    let addr = loop {
        let mut line = String::new();
        stderr.read_line(&mut line).expect("read server banner");
        assert!(!line.is_empty(), "server exited before the listen banner:\n{preamble}");
        if line.contains("listening on") {
            break line
                .trim()
                .rsplit(' ')
                .next()
                .expect("banner ends with the address")
                .to_string();
        }
        preamble.push_str(&line);
    };
    (child, addr, preamble, stderr)
}

/// The repeated question: open a session, run the window query, brush,
/// pick ε, debug. Returns the run_query reply, the debug reply, and the
/// final `stats` reply.
fn run_explain(addr: &str) -> (String, String, String) {
    let q = "SELECT window, avg(temp) AS avg_temp, stddev(temp) AS std_temp FROM readings \
             GROUP BY window ORDER BY window";
    let mut client = LineClient::connect(addr, Duration::from_secs(30)).expect("connect");
    let mut roundtrip =
        |line: String| -> String { client.roundtrip(&line).expect("reply").to_string() };
    let open = roundtrip(r#"{"cmd":"open_session"}"#.to_string());
    assert!(open.contains(r#""ok":true"#), "{open}");
    let session: u64 = open
        .split(r#""session":"#)
        .nth(1)
        .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|digits| digits.parse().ok())
        .expect("open_session reply carries the id");
    let query = roundtrip(format!(r#"{{"cmd":"run_query","session":{session},"sql":"{q}"}}"#));
    assert!(query.contains(r#""ok":true"#), "{query}");
    for line in [
        format!(
            r#"{{"cmd":"brush_outputs","session":{session},"x":"window","y":"std_temp","brush":{{"y_min":8}}}}"#
        ),
        format!(
            r#"{{"cmd":"set_metric","session":{session},"kind":"too_high","column":"std_temp","value":4}}"#
        ),
    ] {
        let reply = roundtrip(line);
        assert!(reply.contains(r#""ok":true"#), "{reply}");
    }
    let debug = roundtrip(format!(r#"{{"cmd":"debug","session":{session}}}"#));
    assert!(debug.contains(r#""ok":true"#), "{debug}");
    let stats = roundtrip(r#"{"cmd":"stats"}"#.to_string());
    (query, debug, stats)
}

/// A debug reply without its wall-clock `timings` object: the answer and
/// the cache flags, which a restart — restoring tables, nothing derived —
/// leaves exactly as a first run has them.
fn answer_of(debug_reply: &str) -> String {
    let start = debug_reply.find(r#""timings":{"#).expect("reply carries timings");
    let end = start + debug_reply[start..].find('}').expect("timings close");
    format!("{}{}", &debug_reply[..start], &debug_reply[end + 1..])
}

fn graceful_shutdown(mut child: Child, addr: &str) {
    let mut client = LineClient::connect(addr, Duration::from_secs(30)).expect("connect");
    let reply = client.roundtrip(r#"{"cmd":"shutdown"}"#).expect("reply").to_string();
    assert!(reply.contains(r#""shutting_down":true"#), "{reply}");
    let status = child.wait().expect("server exits after the ctrl-line");
    assert!(status.success(), "graceful shutdown must exit 0, got {status:?}");
}

#[test]
fn restarted_server_restores_the_catalog_and_answers_bit_identically() {
    let dir = std::env::temp_dir().join(format!("dbwipes-restart-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // ── Run 1: fresh directory. Seeds the demo catalog, snapshots it,
    // answers a first explain cold.
    let (child, addr, preamble, _stderr) = spawn_server(&dir);
    let guard = KillOnDrop(Some(child));
    assert!(!preamble.contains("restored"), "fresh dir must not restore:\n{preamble}");
    let (query1, debug1, stats1) = run_explain(&addr);
    assert!(debug1.contains(r#""cache_hit":false"#), "first explain ever builds: {debug1}");
    assert!(stats1.contains(r#""attached":true"#), "{stats1}");
    assert!(!stats1.contains(r#""snapshot_saves":0"#), "the seed must be snapshotted: {stats1}");
    graceful_shutdown(guard.into_inner(), &addr);
    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .expect("data dir exists")
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .collect();
    files.sort();
    assert_eq!(files.len(), 2, "a manifest and one table file, nothing derived: {files:?}");
    assert_eq!(files[0], "MANIFEST.bin");
    assert!(files[1].starts_with('t') && files[1].ends_with(".tbl"), "{files:?}");

    // ── Run 2: same directory. The catalog is restored (not regenerated,
    // not re-registered) and the first explain, rebuilt from the restored
    // table, is bit-identical to the first run's.
    let (child, addr, preamble, _stderr) = spawn_server(&dir);
    let guard = KillOnDrop(Some(child));
    assert!(preamble.contains("restored"), "restart must report the restore:\n{preamble}");
    let (query2, debug2, stats2) = run_explain(&addr);
    assert_eq!(query1, query2, "restored table must answer the query identically");
    assert_eq!(
        answer_of(&debug1),
        answer_of(&debug2),
        "the explain answer must be bit-identical across the restart"
    );
    assert!(stats2.contains(r#""snapshot_loads":1"#), "{stats2}");
    assert!(stats2.contains(r#""snapshot_saves":0"#), "a restore writes nothing: {stats2}");
    assert!(!stats2.contains(r#""bytes_on_disk":0"#), "{stats2}");
    graceful_shutdown(guard.into_inner(), &addr);

    // ── Run 3: killed without any flush. The earlier snapshots are the
    // durable truth; the next start must still restore cleanly.
    let (child, addr, preamble, _stderr) = spawn_server(&dir);
    {
        let mut guard = KillOnDrop(Some(child));
        assert!(preamble.contains("restored"), "{preamble}");
        let mut client = LineClient::connect(&addr, Duration::from_secs(30)).expect("connect");
        let pong = client.roundtrip(r#"{"cmd":"ping"}"#).expect("reply").to_string();
        assert!(pong.contains("pong"), "{pong}");
        guard.child_mut().kill().expect("kill without flush");
        guard.child_mut().wait().expect("reap");
    }

    // ── Run 4: recovery after the kill.
    let (child, addr, preamble, _stderr) = spawn_server(&dir);
    let guard = KillOnDrop(Some(child));
    assert!(preamble.contains("restored"), "kill must not lose the snapshot:\n{preamble}");
    let (query4, debug4, _) = run_explain(&addr);
    assert_eq!(query1, query4);
    assert_eq!(answer_of(&debug1), answer_of(&debug4));
    graceful_shutdown(guard.into_inner(), &addr);

    let _ = std::fs::remove_dir_all(&dir);
}

/// A data directory written in an older format — 2 (two version stamps
/// per table and a deletion-mask segment), 3 (a base snapshot beside an
/// append log) or 4 (a version stamp in every data record and every
/// manifest entry) — is refused, not misread: opening it is a `Corrupt`
/// error that names the version, and the server exits non-zero saying why
/// before it serves anything.
#[test]
fn a_format_2_data_directory_is_refused_cleanly() {
    use dbwipes_storage::persist::{fnv1a64, FORMAT_VERSION};
    use dbwipes_storage::{FsBackend, StorageError};

    assert_eq!(FORMAT_VERSION, 5);
    for format in [2u32, 3, 4] {
        let dir =
            std::env::temp_dir().join(format!("dbwipes-format-{format}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // A well-checksummed manifest of no tables: magic, version, count 0.
        let mut manifest = b"DBWM".to_vec();
        manifest.extend_from_slice(&format.to_le_bytes());
        manifest.extend_from_slice(&0u64.to_le_bytes());
        let checksum = fnv1a64(&manifest);
        manifest.extend_from_slice(&checksum.to_le_bytes());
        std::fs::write(dir.join("MANIFEST.bin"), &manifest).unwrap();

        let named = format!("format version {format}");
        match FsBackend::open(&dir) {
            Err(StorageError::Corrupt(message)) => assert!(message.contains(&named), "{message}"),
            other => panic!("a format-{format} manifest must be Corrupt, got {other:?}"),
        }

        let output = Command::new(BIN)
            .args(["--readings", "2700", "--data-dir", dir.to_str().expect("utf-8 temp path")])
            .stdin(Stdio::null())
            .output()
            .expect("run dbwipes-server");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(!output.status.success(), "{stderr}");
        let opening = format!("opening data dir {}: ", dir.display());
        assert!(stderr.contains(&opening) && stderr.contains(&named), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

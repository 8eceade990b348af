//! The timed run: launches the real `dbwipes-server` binary, drives it from
//! one process over one TCP connection in a closed loop, and measures it
//! strictly from outside — two `Instant`s per command, `stats` deltas, and
//! `/proc/<pid>`.

use crate::check::Checker;
use crate::script::{Expect, Kind, Script, Step, Workload, APPEND_ROWS};
use dbwipes_server::Json;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How long any single reply, server start or server exit may take.
const PATIENCE: Duration = Duration::from_secs(120);
/// Restarts on the same data directory after the SIGKILL of
/// `ingest-durable`'s durability gate.
const RESTARTS: usize = 5;
/// Failure messages echoed to stderr before the rest are only counted.
const MAX_REPORTED_FAILURES: u64 = 8;

/// A running `dbwipes-server` child. Dropping it kills and reaps the
/// process, so no path out of the benchmark leaves a server behind.
pub struct Server {
    child: Child,
    addr: String,
    stderr: Option<std::thread::JoinHandle<String>>,
}

impl Server {
    /// Launches `bin` for `workload` with a scrubbed `DBWIPES_*` environment
    /// and default flags, and waits for its listen banner.
    pub fn spawn(
        bin: &Path,
        workload: Workload,
        data_dir: Option<&Path>,
    ) -> Result<Server, String> {
        let mut command = Command::new(bin);
        command.args(["--listen", "127.0.0.1:0"]).args(workload.server_args());
        if let Some(dir) = data_dir {
            command.arg("--data-dir").arg(dir);
        }
        for (name, _) in std::env::vars_os() {
            if name.to_string_lossy().starts_with("DBWIPES_") {
                command.env_remove(name);
            }
        }
        let mut child = command
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        // One thread owns stderr for the child's whole life: it reports the
        // listen address once and keeps draining, so the server can never
        // block on a full pipe.
        let pipe = child.stderr.take().expect("stderr was piped");
        let (tx, rx) = mpsc::channel();
        let stderr = std::thread::spawn(move || {
            let mut log = String::new();
            for line in BufReader::new(pipe).lines().map_while(Result::ok) {
                if let Some(addr) = line.strip_prefix("dbwipes-server listening on ") {
                    let _ = tx.send(addr.trim().to_string());
                }
                log.push_str(&line);
                log.push('\n');
            }
            log
        });
        let mut server = Server { child, addr: String::new(), stderr: Some(stderr) };
        match rx.recv_timeout(PATIENCE) {
            Ok(addr) => {
                server.addr = addr;
                Ok(server)
            }
            Err(_) => Err(format!("the server never listened:\n{}", server.stop(true))),
        }
    }

    /// The child's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Ends the child — SIGKILL when `kill`, else waiting for the exit a
    /// `shutdown` ctrl-line already requested — reaps it, and returns what
    /// it wrote to stderr.
    pub fn stop(&mut self, kill: bool) -> String {
        let deadline = Instant::now() + PATIENCE;
        loop {
            if kill || Instant::now() > deadline {
                let _ = self.child.kill();
                let _ = self.child.wait();
                break;
            }
            match self.child.try_wait() {
                Ok(None) => std::thread::sleep(Duration::from_millis(2)),
                _ => break,
            }
        }
        self.stderr.take().and_then(|t| t.join().ok()).unwrap_or_default()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop(true);
    }
}

/// `utime + stime` of `pid` in milliseconds (`/proc/<pid>/stat` fields 14
/// and 15, in USER_HZ ticks, which Linux fixes at 100 per second).
pub fn cpu_ms(pid: u32) -> f64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    // The command name (field 2) may contain spaces; fields resume after ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: u64 =
        rest.split_whitespace().skip(11).take(2).filter_map(|f| f.parse::<u64>().ok()).sum();
    ticks as f64 * 10.0
}

/// Peak resident set (`VmHWM`) of `pid` in MiB.
pub fn peak_rss_mb(pid: u32) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one timed run observed.
#[derive(Debug, Default)]
pub struct WireRun {
    /// Seconds from spawn through the first `ping` to the end of warm-up,
    /// one entry per set-up performed.
    pub setup_s: Vec<f64>,
    /// Latency in ms of every timed command, by kind.
    pub latencies: BTreeMap<Kind, Vec<f64>>,
    /// Per timed iteration, the sum of its commands' latencies in ms.
    pub loop_ms: Vec<f64>,
    /// Commands and gates attempted, over set-up, loop and epilogue.
    pub attempted: u64,
    /// How many of those failed.
    pub failed: u64,
    /// Reply bytes received during the timed loop.
    pub reply_bytes: u64,
    /// Wall seconds of the timed loop (think time included).
    pub loop_wall_s: f64,
    /// Server CPU milliseconds spent during the timed loop.
    pub loop_cpu_ms: f64,
    /// `VmHWM` of the server at the end of the loop, MiB.
    pub peak_rss_mb: f64,
    /// `stats` replies taken just before and just after the timed loop.
    pub stats: Option<(Json, Json)>,
    /// Every `debug` reply in script order (warm-ups first).
    pub debug_replies: Vec<Json>,
    /// Spawn → first `ping` of each restart of the durability gate, ms.
    pub restart_ms: Vec<f64>,
    /// `bytes_on_disk` ÷ `total_rows` after the last append (durable only).
    pub disk_bytes_per_row: f64,
    /// FNV-1a of the script prefix (see [`Script::hash`]).
    pub script_hash: u64,
}

struct Driver<'a> {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    reply: Vec<u8>,
    run: &'a mut WireRun,
}

impl<'a> Driver<'a> {
    fn connect(server: &Server, run: &'a mut WireRun) -> Result<Driver<'a>, String> {
        let stream = TcpStream::connect(&server.addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream.set_read_timeout(Some(PATIENCE)).map_err(|e| e.to_string())?;
        let reader =
            BufReader::with_capacity(1 << 18, stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Driver { stream, reader, reply: Vec::with_capacity(1 << 16), run })
    }

    /// Sends one request line and reads its reply into `self.reply`,
    /// returning request-write → reply-newline in milliseconds.
    fn exchange(&mut self, line: &str) -> Result<f64, String> {
        let mut request = Vec::with_capacity(line.len() + 1);
        request.extend_from_slice(line.as_bytes());
        request.push(b'\n');
        self.reply.clear();
        let start = Instant::now();
        self.stream.write_all(&request).map_err(|e| format!("write: {e}"))?;
        let n = self.reader.read_until(b'\n', &mut self.reply).map_err(|e| format!("read: {e}"))?;
        let elapsed = start.elapsed();
        if n == 0 || self.reply.last() != Some(&b'\n') {
            return Err("the server closed the connection".into());
        }
        Ok(elapsed.as_secs_f64() * 1000.0)
    }

    fn fail(&mut self, what: &str, why: &str) {
        self.run.failed += 1;
        if self.run.failed <= MAX_REPORTED_FAILURES {
            eprintln!("benchmark: FAILED {what}: {why}");
        }
    }

    /// Records the outcome of a gate: a correctness condition that is not
    /// one command's reply.
    fn gate(&mut self, what: &str, verdict: Result<(), String>) {
        self.run.attempted += 1;
        if let Err(why) = verdict {
            self.fail(what, &why);
        }
    }

    /// Runs one scripted step, returning its latency when it passed.
    fn step(&mut self, step: &Step, checker: &mut Checker) -> Option<f64> {
        self.run.attempted += 1;
        let outcome = self.exchange(&step.line).and_then(|ms| {
            checker.check(step, &self.reply)?;
            Ok(ms)
        });
        if step.kind == Kind::Debug {
            self.run.debug_replies.extend(checker.last_debug.take());
        }
        match outcome {
            Ok(ms) => Some(ms),
            Err(why) => {
                self.fail(&format!("{} (id {})", step.kind.name(), step.id), &why);
                None
            }
        }
    }

    /// Runs an unscripted control command and parses its `ok:true` reply.
    fn call(&mut self, line: &str) -> Option<Json> {
        self.run.attempted += 1;
        let outcome = self.exchange(line).and_then(|_| {
            let text = String::from_utf8_lossy(&self.reply);
            let reply = Json::parse(text.trim_end())?;
            match reply.get("ok") {
                Some(Json::Bool(true)) => Ok(reply),
                _ => Err(format!("not ok: {}", text.trim_end())),
            }
        });
        match outcome {
            Ok(reply) => Some(reply),
            Err(why) => {
                self.fail(line, &why);
                None
            }
        }
    }

    /// Runs every step of one iteration; `Some(latencies)` when all passed.
    fn iteration(&mut self, steps: &[Step], checker: &mut Checker) -> Option<Vec<(Kind, f64)>> {
        let mut timed = Vec::with_capacity(steps.len());
        let mut bytes = 0u64;
        for step in steps {
            timed.push((step.kind, self.step(step, checker)?));
            bytes += self.reply.len() as u64;
        }
        self.run.reply_bytes += bytes;
        Some(timed)
    }
}

/// `Ok` when `session` counts exactly `expected` rows in `readings`.
fn exact_row_count(driver: &mut Driver<'_>, session: u64, expected: u64) -> Result<(), String> {
    let reply = driver.call(&format!(
        r#"{{"cmd":"run_query","session":{session},"sql":"SELECT count(*) FROM readings"}}"#
    ));
    let count = (|| reply?.get("rows")?.as_array()?.first()?.as_array()?.first()?.as_u64())();
    if count == Some(expected) {
        Ok(())
    } else {
        Err(format!("count(*) is {count:?}, expected {expected}"))
    }
}

/// Counter `group.name` of a `stats` reply (0 when absent).
pub fn stat(stats: &Json, group: &str, name: &str) -> f64 {
    stats.get(group).and_then(|g| g.get(name)).and_then(Json::as_f64).unwrap_or(0.0)
}

/// Creates and returns a fresh, empty directory under `out_dir`.
fn fresh_dir(out_dir: &Path, tag: &str) -> Result<PathBuf, String> {
    let dir = out_dir.join(format!("data-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Spawns a server and brings it to the start of the timed loop: first
/// `ping`, prologue, warm-up iterations. Records the elapsed seconds in
/// `run.setup_s`.
fn set_up<'a>(
    bin: &Path,
    script: &Script,
    data_dir: Option<&Path>,
    run: &'a mut WireRun,
    checker: &mut Checker,
) -> Result<(Server, Driver<'a>), String> {
    let start = Instant::now();
    let server = Server::spawn(bin, script.workload, data_dir)?;
    let mut driver = Driver::connect(&server, run)?;
    let pong = driver.call(r#"{"cmd":"ping"}"#);
    if pong.and_then(|p| p.get("pong").and_then(Json::as_bool)) != Some(true) {
        return Err("the server did not answer ping".into());
    }
    for step in script.prologue() {
        driver.step(&step, checker);
    }
    for i in 0..script.workload.warmup_iterations() {
        driver.iteration(&script.iteration(i), checker);
    }
    driver.run.setup_s.push(start.elapsed().as_secs_f64());
    Ok((server, driver))
}

/// Runs `script` against `bin` for `seconds` of timed loop after `setups`
/// set-ups (the last one's server is the one measured). Scratch files go
/// under `out_dir`.
pub fn run(
    bin: &Path,
    script: &Script,
    seconds: f64,
    setups: usize,
    out_dir: &Path,
) -> Result<WireRun, String> {
    let workload = script.workload;
    let mut run = WireRun { script_hash: script.hash(), ..WireRun::default() };

    // Throwaway set-ups: `setup_s` is reported as a median, so a run makes
    // several and keeps only the last server.
    for r in 1..setups {
        let dir = if workload.durable() { Some(fresh_dir(out_dir, &r.to_string())?) } else { None };
        let (mut server, mut driver) =
            set_up(bin, script, dir.as_deref(), &mut run, &mut Checker::new())?;
        driver.call(r#"{"cmd":"shutdown"}"#);
        drop(driver);
        server.stop(false);
        if let Some(dir) = dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    let dir = if workload.durable() { Some(fresh_dir(out_dir, "0")?) } else { None };
    let mut checker = Checker::new();
    let (mut server, mut driver) = set_up(bin, script, dir.as_deref(), &mut run, &mut checker)?;

    // The timed loop: closed, one connection, for `seconds`.
    let before = driver.call(r#"{"cmd":"stats"}"#);
    let cpu_before = cpu_ms(server.pid());
    driver.run.reply_bytes = 0;
    let start = Instant::now();
    let mut i = workload.warmup_iterations();
    while start.elapsed().as_secs_f64() < seconds {
        let Some(timed) = driver.iteration(&script.iteration(i), &mut checker) else { break };
        driver.run.loop_ms.push(timed.iter().map(|(_, ms)| ms).sum());
        for (kind, ms) in timed {
            driver.run.latencies.entry(kind).or_default().push(ms);
        }
        i += 1;
    }
    driver.run.loop_wall_s = start.elapsed().as_secs_f64();
    driver.run.loop_cpu_ms = cpu_ms(server.pid()) - cpu_before;
    driver.run.peak_rss_mb = peak_rss_mb(server.pid());
    let after = driver.call(r#"{"cmd":"stats"}"#);

    // Health gates, on every workload.
    if let Some(stats) = &after {
        let verdict = |name: &str, value: f64| {
            if value == 0.0 {
                Ok(())
            } else {
                Err(format!("{name} is {value}, expected 0"))
            }
        };
        driver.gate(
            "health.panics_caught",
            verdict("panics_caught", stat(stats, "health", "panics_caught")),
        );
        driver.gate("pool.rejected", verdict("rejected", stat(stats, "pool", "rejected")));
    }

    if workload.durable() {
        let appends = i; // one per warm-up and timed iteration
        let expected_rows = workload.generated_rows() + appends * APPEND_ROWS as u64;
        if let Some(stats) = &after {
            // The witness statement was built once; every append absorbed.
            let misses = stat(stats, "cache", "misses");
            driver.gate(
                "tier-1 misses stayed 1",
                if misses == 1.0 { Ok(()) } else { Err(format!("cache.misses is {misses}")) },
            );
            driver.run.disk_bytes_per_row =
                stat(stats, "storage", "bytes_on_disk") / expected_rows as f64;
        }
        let witness_rows = durable_epilogue(&mut driver, script, &mut checker, expected_rows);
        // The durability gate: SIGKILL (no graceful flush) after the last
        // `durable:true` ack, then restart on the same directory.
        drop(driver);
        server.stop(true);
        let dir = dir.as_deref().expect("durable workloads have a data dir");
        for _ in 0..RESTARTS {
            let start = Instant::now();
            let mut restarted = Server::spawn(bin, workload, Some(dir))?;
            let mut driver = Driver::connect(&restarted, &mut run)?;
            driver.call(r#"{"cmd":"ping"}"#);
            driver.run.restart_ms.push(start.elapsed().as_secs_f64() * 1000.0);
            let verdict = recovered(&mut driver, script, expected_rows, witness_rows.as_ref());
            driver.gate("recovery after SIGKILL", verdict);
            drop(driver);
            restarted.stop(true);
        }
        let _ = std::fs::remove_dir_all(dir);
    } else {
        driver.call(r#"{"cmd":"shutdown"}"#);
        drop(driver);
        let log = server.stop(false);
        run.attempted += 1;
        if !log.contains("drained") {
            run.failed += 1;
            eprintln!("benchmark: FAILED graceful shutdown:\n{log}");
        }
    }

    run.stats = before.zip(after);
    Ok(run)
}

/// `ingest-durable`'s equality gates after the loop: the witness (refreshed
/// in place through every append) and a session opened cold must agree on
/// the rows and on the ranked predicates, and the row count must be exact.
/// Returns the witness rows for the restart comparison.
fn durable_epilogue(
    driver: &mut Driver<'_>,
    script: &Script,
    checker: &mut Checker,
    expected_rows: u64,
) -> Option<Json> {
    let mut explain = |driver: &mut Driver<'_>, session: u64, block: u64| {
        let mut rows = None;
        for step in script.epilogue_explain(session, block, session != 1) {
            driver.step(&step, checker)?;
            if step.expect == Expect::Rows {
                let text = String::from_utf8_lossy(&driver.reply).into_owned();
                rows = Json::parse(text.trim_end()).ok().and_then(|r| r.get("rows").cloned());
            }
        }
        let predicates = driver.run.debug_replies.last()?.get("predicates").cloned();
        rows.zip(predicates)
    };
    let witness = explain(driver, 1, 90_000_000);
    let cold_session = driver.call(r#"{"cmd":"open_session"}"#)?.get("session")?.as_u64()?;
    let cold = explain(driver, cold_session, 90_000_001);
    let verdict = match (&witness, &cold) {
        (Some(w), Some(c)) if w == c => Ok(()),
        (Some(_), Some(_)) => Err("rows or ranked predicates differ".to_string()),
        _ => Err("an explain failed".to_string()),
    };
    driver.gate("witness equals cold session", verdict);
    let verdict = exact_row_count(driver, cold_session, expected_rows);
    driver.gate("total_rows is exact", verdict);
    witness.map(|(rows, _)| rows)
}

/// After a restart on the killed server's directory: every acknowledged
/// row is readable and the witness query answers bit-identically.
fn recovered(
    driver: &mut Driver<'_>,
    script: &Script,
    expected_rows: u64,
    witness_rows: Option<&Json>,
) -> Result<(), String> {
    let session = driver
        .call(r#"{"cmd":"open_session"}"#)
        .and_then(|r| r.get("session").and_then(Json::as_u64))
        .ok_or("open_session failed")?;
    exact_row_count(driver, session, expected_rows)?;
    let rows = driver
        .call(&format!(
            r#"{{"cmd":"run_query","session":{session},"sql":"{}"}}"#,
            script.witness_sql()
        ))
        .and_then(|r| r.get("rows").cloned());
    if rows.as_ref() != witness_rows || rows.is_none() {
        return Err("the witness query differs after restart".into());
    }
    Ok(())
}

//! Lifecycle edges of the bounded worker-pool TCP executor: queue-full
//! `busy` backpressure and the gauges it is counted in, a client fleet
//! larger than pool plus queue, idle-timeout closes, the per-line read deadline
//! against a trickled line, and graceful shutdown draining an in-flight
//! `explain`.
//!
//! Each test runs `serve_pooled` in-process over an ephemeral port with a
//! deliberately tiny pool so the edge under test is reached
//! deterministically, then shuts the pool down through the manager's flag
//! and joins the serving thread.

use dbwipes_data::{generate_sensor, SensorConfig};
use dbwipes_server::{serve_pooled, Json, LineClient, PoolConfig, PoolSnapshot, SessionManager};
use dbwipes_storage::Catalog;
use std::net::TcpListener;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A pooled server running in a background thread.
struct TestServer {
    manager: Arc<SessionManager>,
    addr: String,
    serving: Option<JoinHandle<std::io::Result<Arc<dbwipes_server::PoolStats>>>>,
}

impl TestServer {
    fn start(readings: usize, config: PoolConfig) -> Self {
        let data = generate_sensor(&SensorConfig {
            num_readings: readings,
            failing_sensors: vec![15],
            ..SensorConfig::small()
        });
        let mut catalog = Catalog::new();
        catalog.register(data.table).unwrap();
        let manager = Arc::new(SessionManager::new(catalog));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let serving = {
            let manager = Arc::clone(&manager);
            std::thread::spawn(move || serve_pooled(manager, listener, config))
        };
        TestServer { manager, addr, serving: Some(serving) }
    }

    fn connect(&self) -> Client {
        Client(LineClient::connect(&self.addr, Duration::from_secs(20)).expect("connect"))
    }

    /// Connects and pings until admitted, the retry loop the protocol asks
    /// of a client: every `busy` reply must carry `retry_after_ms`, which
    /// is honoured (capped at 50 ms so the test stays short).
    fn connect_admitted(&self) -> Client {
        for _ in 0..2_000 {
            let mut conn =
                LineClient::connect(&self.addr, Duration::from_secs(20)).expect("connect");
            match conn.roundtrip(r#"{"cmd":"ping"}"#) {
                Ok(reply) if reply.get("pong") == Some(&Json::Bool(true)) => return Client(conn),
                Ok(reply) => {
                    assert_eq!(reply.get("busy"), Some(&Json::Bool(true)), "{reply}");
                    let hint = reply.get("retry_after_ms").and_then(Json::as_u64);
                    let hint = hint.unwrap_or_else(|| panic!("busy without a hint: {reply}"));
                    std::thread::sleep(Duration::from_millis(hint.min(50)));
                }
                // A rejected socket may be closed under the probe before
                // its busy line is read.
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        }
        panic!("never admitted");
    }

    /// Requests shutdown, joins the serving thread, and returns the pool
    /// counters.
    fn stop(mut self) -> PoolSnapshot {
        self.manager.request_shutdown();
        let stats = self
            .serving
            .take()
            .expect("server still running")
            .join()
            .expect("serving thread panicked")
            .expect("serve_pooled failed");
        stats.snapshot()
    }
}

/// [`LineClient`] with panicking (test-assertion) verbs.
struct Client(LineClient);

impl Client {
    fn send(&mut self, line: &str) {
        self.0.send(line).expect("write request");
    }

    fn read_reply(&mut self) -> Json {
        self.0.read_reply().expect("read reply").expect("connection closed before a reply arrived")
    }

    fn roundtrip(&mut self, line: &str) -> Json {
        self.send(line);
        self.read_reply()
    }

    /// Reads until EOF, returning any lines seen on the way.
    fn read_to_eof(&mut self) -> Vec<Json> {
        self.0.read_to_eof().expect("reading to EOF")
    }
}

fn long_idle() -> Duration {
    Duration::from_secs(60)
}

#[test]
fn saturated_queue_answers_busy_and_recovers() {
    // One worker, one queue slot: the third concurrent connection must be
    // turned away with a structured busy reply.
    let server = TestServer::start(
        120,
        PoolConfig {
            workers: 1,
            queue_depth: 1,
            idle_timeout: long_idle(),
            read_timeout: long_idle(),
        },
    );

    // A occupies the only worker (a served roundtrip proves it was popped
    // off the queue)...
    let mut a = server.connect();
    assert_eq!(a.roundtrip(r#"{"cmd":"ping"}"#).get("pong"), Some(&Json::Bool(true)));
    // ...B takes the only queue slot (it is admitted but never served
    // while A stays connected)...
    let mut b = server.connect();
    b.send(r#"{"cmd":"ping"}"#);
    std::thread::sleep(Duration::from_millis(100));
    // ...which the gauges show: one waiting, two admitted.
    let stats_reply = a.roundtrip(r#"{"cmd":"stats"}"#);
    let pool = stats_reply.get("pool").expect("pooled front-end reports executor stats");
    assert_eq!(pool.get("queued").and_then(Json::as_u64), Some(1), "{pool}");
    assert_eq!(pool.get("active_connections").and_then(Json::as_u64), Some(2), "{pool}");
    // ...so C's admission overflows the queue. The busy reply is pushed
    // at admission time, before C sends anything.
    let mut c = server.connect();
    let reply = c.read_reply();
    assert_eq!(reply.get("ok"), Some(&Json::Bool(false)), "{reply}");
    assert_eq!(reply.get("busy"), Some(&Json::Bool(true)), "{reply}");
    assert!(reply.get("error").and_then(Json::as_str).unwrap().contains("queue full"), "{reply}");
    assert!(reply.get("retry_after_ms").and_then(Json::as_u64).is_some(), "{reply}");

    // Backpressure is not failure: once A leaves, the worker pops B and
    // serves the command it queued.
    drop(a);
    assert_eq!(b.read_reply().get("pong"), Some(&Json::Bool(true)));

    let stats = server.stop();
    assert_eq!(stats.rejected, 1, "exactly C was turned away");
    assert!(stats.peak_connections >= 2, "A and B were admitted together: {stats:?}");
    assert_eq!(stats.workers, 1);
    assert_eq!((stats.queued, stats.active_connections), (0, 0), "{stats:?}");
}

#[test]
fn a_fleet_larger_than_pool_and_queue_gets_every_admitted_reply_in_order() {
    const CLIENTS: usize = 16;
    const COMMANDS: u64 = 20;
    // Two workers and two queue slots: at most four of the sixteen are
    // admitted at once, so the rest are turned away and come back.
    let server = TestServer::start(
        120,
        PoolConfig {
            workers: 2,
            queue_depth: 2,
            idle_timeout: long_idle(),
            read_timeout: long_idle(),
        },
    );
    let start = std::sync::Barrier::new(CLIENTS);
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| {
                start.wait();
                let mut client = server.connect_admitted();
                let open = client.roundtrip(r#"{"cmd":"open_session"}"#);
                let session = open.get("session").and_then(Json::as_u64).expect("session id");
                // Pipelined: every reply comes back ok, in the order sent.
                for i in 0..COMMANDS {
                    client.send(&format!(r#"{{"cmd":"state","session":{session},"id":{i}}}"#));
                }
                for i in 0..COMMANDS {
                    let reply = client.read_reply();
                    assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply}");
                    assert_eq!(reply.get("id").and_then(Json::as_u64), Some(i), "{reply}");
                }
                let closed =
                    client.roundtrip(&format!(r#"{{"cmd":"close_session","session":{session}}}"#));
                assert_eq!(closed.get("ok"), Some(&Json::Bool(true)), "{closed}");
            });
        }
    });
    let stats = server.stop();
    assert!(stats.rejected > 0, "the fleet never met backpressure: {stats:?}");
    assert_eq!(stats.active_connections, 0, "{stats:?}");
}

/// Sends the start of a request line, then one more byte every 20 ms and
/// never the newline, until the server answers or closes. Returns what the
/// server wrote and how long the line lived.
fn trickle_a_line(addr: &str) -> (String, Duration) {
    use std::io::{ErrorKind, Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_millis(20))).unwrap();
    stream.write_all(br#"{"cmd":"ping""#).unwrap();
    let started = Instant::now();
    let mut seen = Vec::new();
    let mut chunk = [0u8; 512];
    while !seen.contains(&b'\n') {
        assert!(started.elapsed() < Duration::from_secs(10), "the trickled line was never cut");
        // Every byte is activity, so the idle timeout never fires; write
        // errors mean the server has already closed.
        let _ = stream.write_all(b" ");
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => seen.extend_from_slice(&chunk[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => break,
        }
    }
    (String::from_utf8_lossy(&seen).into_owned(), started.elapsed())
}

#[test]
fn a_trickled_line_is_cut_at_the_read_deadline_while_fast_clients_are_served() {
    let read_timeout = Duration::from_millis(300);
    let server = TestServer::start(
        120,
        PoolConfig { workers: 4, queue_depth: 4, idle_timeout: long_idle(), read_timeout },
    );
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                let (notice, lived) = trickle_a_line(&server.addr);
                assert!(notice.contains(r#""read_timeout":true"#), "{notice:?}");
                assert!(lived >= read_timeout, "cut before the deadline: {lived:?}");
            });
        }
        // Two fast clients on the other workers, pinging across the whole
        // window the trickled lines are open.
        for _ in 0..2 {
            scope.spawn(|| {
                let mut client = server.connect();
                let started = Instant::now();
                let mut i = 0u64;
                while started.elapsed() < 2 * read_timeout {
                    let reply = client.roundtrip(&format!(r#"{{"cmd":"ping","id":{i}}}"#));
                    assert_eq!(reply.get("pong"), Some(&Json::Bool(true)), "{reply}");
                    assert_eq!(reply.get("id").and_then(Json::as_u64), Some(i), "{reply}");
                    i += 1;
                    std::thread::sleep(Duration::from_millis(10));
                }
            });
        }
    });
    let stats = server.stop();
    assert_eq!(stats.rejected, 0, "{stats:?}");
    assert_eq!(stats.served_connections, 4, "{stats:?}");
}

#[test]
fn silent_connections_are_closed_after_the_idle_timeout() {
    let idle = Duration::from_millis(200);
    let server = TestServer::start(
        120,
        PoolConfig { workers: 2, queue_depth: 4, idle_timeout: idle, read_timeout: long_idle() },
    );
    let mut a = server.connect();
    assert_eq!(a.roundtrip(r#"{"cmd":"ping"}"#).get("pong"), Some(&Json::Bool(true)));

    // Stay silent: the server must notify and close on its own.
    let seen = a.read_to_eof();
    assert_eq!(seen.len(), 1, "one timeout notice then EOF: {seen:?}");
    assert_eq!(seen[0].get("idle_timeout"), Some(&Json::Bool(true)), "{}", seen[0]);
    assert!(seen[0].get("error").and_then(Json::as_str).unwrap().contains("idle timeout"));

    // The slot is free again: a fresh connection is served immediately.
    let mut b = server.connect();
    assert_eq!(b.roundtrip(r#"{"cmd":"ping"}"#).get("pong"), Some(&Json::Bool(true)));
    let stats = server.stop();
    assert_eq!(stats.rejected, 0);
    assert!(stats.served_connections >= 1);
}

#[test]
fn graceful_shutdown_drains_an_in_flight_explain() {
    let server = TestServer::start(
        2_700,
        PoolConfig {
            workers: 2,
            queue_depth: 4,
            idle_timeout: long_idle(),
            read_timeout: long_idle(),
        },
    );

    // Walk a session to the brink of `debug`.
    let mut a = server.connect();
    let session = a
        .roundtrip(r#"{"cmd":"open_session"}"#)
        .get("session")
        .and_then(Json::as_u64)
        .expect("session id");
    let query = "SELECT window, avg(temp) AS avg_temp, stddev(temp) AS std_temp FROM readings \
                 GROUP BY window ORDER BY window";
    for line in [
        format!(r#"{{"cmd":"run_query","session":{session},"sql":"{query}"}}"#),
        format!(
            r#"{{"cmd":"brush_outputs","session":{session},"x":"window","y":"std_temp","brush":{{"y_min":8}}}}"#
        ),
        format!(
            r#"{{"cmd":"set_metric","session":{session},"kind":"too_high","column":"std_temp","value":4}}"#
        ),
    ] {
        let reply = a.roundtrip(&line);
        assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply}");
    }

    // Fire the explain (tens of milliseconds of pipeline work), then have
    // a second connection send the shutdown ctrl-line while it runs.
    a.send(&format!(r#"{{"cmd":"debug","session":{session}}}"#));
    std::thread::sleep(Duration::from_millis(20));
    let mut ctrl = server.connect();
    let reply = ctrl.roundtrip(r#"{"cmd":"shutdown"}"#);
    assert_eq!(reply.get("shutting_down"), Some(&Json::Bool(true)), "{reply}");

    // The in-flight explain must complete and its reply must be flushed
    // before the connection is drained and closed.
    let explain = a.read_reply();
    assert_eq!(explain.get("ok"), Some(&Json::Bool(true)), "{explain}");
    assert!(
        !explain.get("predicates").unwrap().as_array().unwrap().is_empty(),
        "drained explain still carries its ranking: {explain}"
    );
    let trailing = a.read_to_eof();
    assert!(
        trailing.iter().all(|l| l.get("shutdown") == Some(&Json::Bool(true))),
        "only shutdown notices may follow the drained reply: {trailing:?}"
    );

    // The pool unwinds cleanly: serving thread returns Ok, counters final.
    let stats = server.stop();
    assert!(stats.served_connections >= 1, "{stats:?}");
    assert_eq!(stats.active_connections, 0, "everything drained: {stats:?}");
    assert!(stats.commands >= 5, "{stats:?}");
}

#[test]
fn batch_executes_back_to_back_and_reports_in_stats() {
    let server = TestServer::start(
        120,
        PoolConfig {
            workers: 2,
            queue_depth: 4,
            idle_timeout: long_idle(),
            read_timeout: long_idle(),
        },
    );
    let mut a = server.connect();
    let session =
        a.roundtrip(r#"{"cmd":"open_session"}"#).get("session").and_then(Json::as_u64).unwrap();
    let reply = a.roundtrip(&format!(
        r#"{{"cmd":"batch","id":"replay","commands":[{{"cmd":"state","session":{session}}},{{"cmd":"state","session":{session}}},{{"cmd":"ping"}}]}}"#
    ));
    assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply}");
    assert_eq!(reply.get("id").and_then(Json::as_str), Some("replay"));
    assert_eq!(reply.get("count").and_then(Json::as_u64), Some(3));
    let results = reply.get("results").unwrap().as_array().unwrap();
    assert_eq!(results.len(), 3);
    assert!(results.iter().all(|r| r.get("ok") == Some(&Json::Bool(true))), "{results:?}");

    let stats_reply = a.roundtrip(r#"{"cmd":"stats"}"#);
    let pool = stats_reply.get("pool").expect("pooled front-end reports executor stats");
    assert_eq!(pool.get("batches").and_then(Json::as_u64), Some(1), "{pool}");
    assert_eq!(pool.get("workers").and_then(Json::as_u64), Some(2), "{pool}");

    let stats = server.stop();
    assert_eq!(stats.batches, 1);
}

#[test]
fn a_near_limit_line_in_many_small_writes_is_answered_once() {
    use std::io::{BufRead, BufReader, Write};
    let server = TestServer::start(
        120,
        PoolConfig {
            workers: 1,
            queue_depth: 4,
            idle_timeout: long_idle(),
            read_timeout: long_idle(),
        },
    );
    // A maximal batch padded (through its echoed ids) to just under the
    // executor's 1 MiB line cap.
    let commands = 256;
    let padding = "p".repeat((1 << 20) / commands - 64);
    let elements: Vec<String> =
        (0..commands).map(|i| format!(r#"{{"cmd":"ping","id":"{i}-{padding}"}}"#)).collect();
    let line = format!("{{\"cmd\":\"batch\",\"commands\":[{}]}}\n", elements.join(","));
    assert!(line.len() > (1 << 20) - 16 * 1024 && line.len() <= 1 << 20, "{}", line.len());

    let mut stream = std::net::TcpStream::connect(&server.addr).unwrap();
    stream.set_nodelay(true).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    // Far smaller than the server's read chunk, so the line crosses
    // hundreds of reads before its newline lands.
    for piece in line.as_bytes().chunks(1_500) {
        stream.write_all(piece).unwrap();
    }
    stream.write_all(b"{\"cmd\":\"ping\",\"id\":\"after\"}\n").unwrap();

    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    let reply = Json::parse(reply.trim()).expect("the batch reply is one JSON line");
    assert_eq!(reply.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(reply.get("count").and_then(Json::as_u64), Some(commands as u64));
    let results = reply.get("results").unwrap().as_array().unwrap();
    assert_eq!(results.len(), commands);
    for (i, result) in results.iter().enumerate() {
        assert_eq!(result.get("pong"), Some(&Json::Bool(true)), "element {i}");
        assert_eq!(
            result.get("id").and_then(Json::as_str),
            Some(format!("{i}-{padding}").as_str())
        );
    }
    // Answered once: the very next line is the next command's reply.
    let mut next = String::new();
    reader.read_line(&mut next).unwrap();
    let next = Json::parse(next.trim()).unwrap();
    assert_eq!(next.get("id").and_then(Json::as_str), Some("after"), "{next}");

    let stats = server.stop();
    assert_eq!(stats.commands, 2, "{stats:?}");
    assert_eq!(stats.batches, 1);
}

/// The lines that overflowed the PR 15 server's stack (a worker's is
/// smaller than `main`'s): runs of `[` and of `{"a":` just under the line
/// cap. A stack overflow aborts the process — no `catch_unwind` and no
/// quarantine sees it — so the parser must turn
/// them away by depth, and the *same connection* must keep answering.
#[test]
fn a_deeply_nested_line_is_refused_and_the_connection_keeps_serving() {
    let server = TestServer::start(
        120,
        PoolConfig {
            workers: 1,
            queue_depth: 4,
            idle_timeout: long_idle(),
            read_timeout: long_idle(),
        },
    );
    let mut a = server.connect();
    assert_eq!(a.roundtrip(r#"{"cmd":"ping"}"#).get("pong"), Some(&Json::Bool(true)));
    for hostile in ["[".repeat(900_000), r#"{"a":"#.repeat(180_000)] {
        // Pipelined with the ping behind it: both are answered, in order.
        a.send(&hostile);
        a.send(r#"{"cmd":"ping","id":"after"}"#);
        let reply = a.read_reply();
        assert_eq!(reply.get("ok"), Some(&Json::Bool(false)), "{reply}");
        let error = reply.get("error").and_then(Json::as_str).unwrap();
        assert!(error.contains("nesting deeper than 64 levels at byte "), "{error}");
        let next = a.read_reply();
        assert_eq!(next.get("id").and_then(Json::as_str), Some("after"), "{next}");
        assert_eq!(next.get("pong"), Some(&Json::Bool(true)), "{next}");
    }
    let health = a.roundtrip(r#"{"cmd":"stats"}"#);
    let health = health.get("health").expect("stats carries a health block");
    assert_eq!(health.get("panics_caught").and_then(Json::as_u64), Some(0), "{health}");
    assert_eq!(health.get("quarantined_sessions").and_then(Json::as_u64), Some(0), "{health}");

    let stats = server.stop();
    assert_eq!(stats.commands, 6, "{stats:?}");
    assert_eq!(stats.served_connections, 1, "one connection served it all: {stats:?}");
}

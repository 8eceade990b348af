//! Times the bounded worker-pool TCP executor under concurrent load, and
//! races the `batch` command against the equivalent command-per-line
//! replay.
//!
//! Timed entries (gated by `BENCH_BASELINE.json`):
//!
//! * `server_pool/pooled/{1,4,16}` — wall time for N concurrent TCP
//!   clients to complete 50 commands each against the pooled executor;
//! * `server_pool/line_replay/50` / `server_pool/batch_replay/50` — a
//!   50-command scripted session replay sent as 50 lines (50 round trips,
//!   50 session-lock acquisitions) vs one `batch` line (one round trip,
//!   one lock acquisition).
//!
//! The printed summary asserts that the batched replay beats the
//! per-line one.

use criterion::{criterion_group, criterion_main, Criterion};
use dbwipes_core::effective_parallelism;
use dbwipes_data::{generate_sensor, SensorConfig};
use dbwipes_server::{serve_pooled, Json, LineClient, PoolConfig, SessionManager};
use dbwipes_storage::Catalog;
use std::net::TcpListener;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const COMMANDS_PER_CLIENT: usize = 50;
const REPLAY_COMMANDS: usize = 50;

fn fresh_manager() -> Arc<SessionManager> {
    let data = generate_sensor(&SensorConfig {
        num_readings: 1_350,
        failing_sensors: vec![15],
        ..SensorConfig::small()
    });
    let mut catalog = Catalog::new();
    catalog.register(data.table).expect("register demo table");
    Arc::new(SessionManager::new(catalog))
}

/// A server front-end running in a background thread; stopped (and
/// joined) via the manager's shutdown flag.
struct Server {
    manager: Arc<SessionManager>,
    addr: String,
    serving: Option<JoinHandle<()>>,
}

impl Server {
    fn pooled(config: PoolConfig) -> Self {
        let manager = fresh_manager();
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
        let addr = listener.local_addr().expect("local addr").to_string();
        let serving = {
            let manager = Arc::clone(&manager);
            Some(std::thread::spawn(move || {
                let _ = serve_pooled(manager, listener, config);
            }))
        };
        Server { manager, addr, serving }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.manager.request_shutdown();
        if let Some(serving) = self.serving.take() {
            let _ = serving.join();
        }
    }
}

fn connect(addr: &str) -> LineClient {
    LineClient::connect(addr, Duration::from_secs(30)).expect("connect")
}

fn roundtrip_ok(client: &mut LineClient, line: &str) -> Json {
    let reply = client.roundtrip(line).expect("roundtrip");
    assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{line} -> {reply}");
    reply
}

/// The measured unit of load: `clients` concurrent connections, each
/// sending `commands` pipelined pings (write them all, then read every
/// reply), from connect to last reply.
///
/// Pipelining keeps the load throughput-shaped on any core count. With
/// lock-step round trips it would be pure latency: the pool serves a
/// connection to completion, so N clients over W workers run as N/W
/// sequential waves of idle waiting — a measure of idle time, not of the
/// executor. Pipelined, the wall time is bound by aggregate command work.
fn run_load(addr: &str, clients: usize, commands: usize) {
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(move || {
                let mut client = connect(addr);
                for i in 0..commands {
                    client.send(&format!(r#"{{"cmd":"ping","id":{i}}}"#)).expect("send");
                }
                for i in 0..commands {
                    let reply = client.read_reply().expect("read").expect("reply before close");
                    assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply}");
                    assert_eq!(reply.get("id").and_then(Json::as_u64), Some(i as u64), "{reply}");
                }
            });
        }
    });
}

fn mean_wall(samples: usize, mut f: impl FnMut()) -> Duration {
    f(); // warm-up
    let start = Instant::now();
    for _ in 0..samples {
        f();
    }
    start.elapsed() / samples as u32
}

/// Opens a session on `addr` and returns (client, the 50 per-line replay
/// commands, the single batch line carrying the same replay).
fn replay_fixture(addr: &str) -> (LineClient, Vec<String>, String) {
    let mut client = connect(addr);
    let session = roundtrip_ok(&mut client, r#"{"cmd":"open_session"}"#)
        .get("session")
        .and_then(Json::as_u64)
        .unwrap();
    let lines: Vec<String> = (0..REPLAY_COMMANDS)
        .map(|i| format!(r#"{{"cmd":"state","session":{session},"id":{i}}}"#))
        .collect();
    let batch = format!(r#"{{"cmd":"batch","commands":[{}]}}"#, lines.join(","));
    (client, lines, batch)
}

fn bench_server_pool(c: &mut Criterion) {
    println!(
        "server_pool: {} threads effective (DBWIPES_THREADS to override), \
         {COMMANDS_PER_CLIENT} commands per client",
        effective_parallelism()
    );
    let pool_config = PoolConfig::default().normalized();
    println!(
        "server_pool: pooled executor with {} workers, queue depth {}, cap {}",
        pool_config.workers, pool_config.queue_depth, pool_config.max_connections
    );
    let pooled = Server::pooled(pool_config);

    // --- Timed entries for the baseline gate. Round-trip-bound wall
    // times this small (sub-ms) jitter with scheduler wakeup latency, so
    // sample well past criterion's default to keep the gate's means
    // stable run to run.
    let mut group = c.benchmark_group("server_pool");
    group.sample_size(30);
    for clients in [1usize, 4, 16] {
        group.bench_function(format!("pooled/{clients}"), |b| {
            b.iter(|| run_load(&pooled.addr, clients, COMMANDS_PER_CLIENT))
        });
    }

    // --- Batch vs command-per-line replay over one admitted connection.
    let (mut replay_client, lines, batch) = replay_fixture(&pooled.addr);
    group.bench_function(format!("line_replay/{REPLAY_COMMANDS}"), |b| {
        b.iter(|| {
            for line in &lines {
                roundtrip_ok(&mut replay_client, line);
            }
        })
    });
    group.bench_function(format!("batch_replay/{REPLAY_COMMANDS}"), |b| {
        b.iter(|| {
            let reply = roundtrip_ok(&mut replay_client, &batch);
            assert_eq!(reply.get("count").and_then(Json::as_u64), Some(REPLAY_COMMANDS as u64));
        })
    });
    group.finish();

    let line_mean = mean_wall(10, || {
        for line in &lines {
            roundtrip_ok(&mut replay_client, line);
        }
    });
    let batch_mean = mean_wall(10, || {
        roundtrip_ok(&mut replay_client, &batch);
    });
    println!(
        "server_pool {REPLAY_COMMANDS}-command replay: per-line {line_mean:?} vs batch \
         {batch_mean:?} ({:.1}x faster batched)",
        line_mean.as_secs_f64() / batch_mean.as_secs_f64().max(f64::EPSILON)
    );
    assert!(
        batch_mean < line_mean,
        "a batched replay ({batch_mean:?}) must beat {REPLAY_COMMANDS} round trips \
         ({line_mean:?})"
    );
}

criterion_group!(benches, bench_server_pool);
criterion_main!(benches);

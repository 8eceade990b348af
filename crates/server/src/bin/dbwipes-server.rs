//! The `dbwipes-server` binary: serves the line-delimited JSON protocol
//! over stdin/stdout (default) or a TCP listener (`--listen ADDR`).
//!
//! ```text
//! dbwipes-server [--listen 127.0.0.1:7433] [--dataset sensor|fec|both]
//!                [--readings N] [--cache-capacity N] [--data-dir DIR]
//!                [--workers N] [--queue-depth N] [--idle-timeout-ms N]
//!                [--read-timeout-ms N]
//! ```
//!
//! In stdio mode the process reads one request per line and writes one
//! response per line until EOF (or the `shutdown` ctrl-line) — the shape a
//! web gateway or the `examples/server_session.rs` driver expects. In TCP
//! mode connections are served by the bounded worker-pool executor
//! ([`dbwipes_server::executor`]): `--workers` threads (default the
//! available cores) pull connections from a bounded queue,
//! over-capacity admissions get a structured `busy` reply, silent sockets
//! are closed after `--idle-timeout-ms`, and the `shutdown` ctrl-line
//! drains in-flight sessions, flushes replies, and exits 0. Sessions live in the shared
//! [`SessionManager`], so a client may reconnect and resume its session by
//! id.
//!
//! With `--data-dir DIR` the server runs durably: a fresh directory is
//! seeded with the demo catalog and snapshotted, a non-empty one restores
//! the persisted catalog — skipping demo generation entirely. Registered
//! tables and appended rows are made durable before their reply; a restart
//! restores tables only, and every cache is rebuilt on first use, so the
//! flag changes nothing about how an explain runs.

use dbwipes_data::{generate_fec, generate_sensor, FecConfig, SensorConfig};
use dbwipes_server::{serve_pooled, PoolConfig, SessionManager, StorageRuntime};
use dbwipes_storage::Catalog;
use std::io::{BufRead, Write};
use std::net::TcpListener;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

struct Options {
    listen: Option<String>,
    dataset: String,
    readings: usize,
    cache_capacity: usize,
    data_dir: Option<String>,
    pool: PoolConfig,
}

fn parse_args() -> Result<Options, String> {
    let mut options = Options {
        listen: None,
        dataset: "sensor".to_string(),
        readings: 5_400,
        cache_capacity: 32,
        data_dir: None,
        pool: PoolConfig::default(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} requires a value"));
        match arg.as_str() {
            "--listen" => options.listen = Some(value("--listen")?),
            "--dataset" => options.dataset = value("--dataset")?,
            "--readings" => {
                options.readings =
                    value("--readings")?.parse().map_err(|e| format!("--readings: {e}"))?;
            }
            "--cache-capacity" => {
                options.cache_capacity = value("--cache-capacity")?
                    .parse()
                    .map_err(|e| format!("--cache-capacity: {e}"))?;
            }
            "--workers" => {
                options.pool.workers =
                    value("--workers")?.parse().map_err(|e| format!("--workers: {e}"))?;
            }
            "--queue-depth" => {
                options.pool.queue_depth =
                    value("--queue-depth")?.parse().map_err(|e| format!("--queue-depth: {e}"))?;
            }
            "--idle-timeout-ms" => {
                let ms: u64 = value("--idle-timeout-ms")?
                    .parse()
                    .map_err(|e| format!("--idle-timeout-ms: {e}"))?;
                options.pool.idle_timeout = Duration::from_millis(ms);
            }
            "--read-timeout-ms" => {
                let ms: u64 = value("--read-timeout-ms")?
                    .parse()
                    .map_err(|e| format!("--read-timeout-ms: {e}"))?;
                options.pool.read_timeout = Duration::from_millis(ms);
            }
            "--data-dir" => options.data_dir = Some(value("--data-dir")?),
            "--help" | "-h" => {
                println!(
                    "usage: dbwipes-server [--listen ADDR] [--dataset sensor|fec|both] \
                     [--readings N] [--cache-capacity N] [--data-dir DIR] [--workers N] \
                     [--queue-depth N] [--idle-timeout-ms N] [--read-timeout-ms N]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(options)
}

fn demo_catalog(options: &Options) -> Result<Catalog, String> {
    let mut catalog = Catalog::new();
    let want_sensor = matches!(options.dataset.as_str(), "sensor" | "both");
    let want_fec = matches!(options.dataset.as_str(), "fec" | "both");
    if !want_sensor && !want_fec {
        return Err(format!(
            "unknown dataset `{}` (expected sensor | fec | both)",
            options.dataset
        ));
    }
    if want_sensor {
        let data = generate_sensor(&SensorConfig {
            num_readings: options.readings,
            failing_sensors: vec![15],
            ..SensorConfig::small()
        });
        catalog.register(data.table).map_err(|e| e.to_string())?;
    }
    if want_fec {
        let data = generate_fec(&FecConfig::default());
        catalog.register(data.table).map_err(|e| e.to_string())?;
    }
    Ok(catalog)
}

fn serve_stdio(manager: &SessionManager) -> std::io::Result<()> {
    let mut stdin = std::io::stdin().lock();
    let mut stdout = std::io::stdout().lock();
    // One line buffer and one reply buffer for the whole stream, as the TCP
    // executor keeps one reply buffer per connection; the newline is pushed
    // into the reply so it leaves in a single write.
    let (mut line, mut reply) = (String::new(), String::new());
    loop {
        line.clear();
        if stdin.read_line(&mut line)? == 0 {
            break;
        }
        // What `lines()` yields: without the `\n`, or the `\r\n`, that ends it.
        let request = match line.strip_suffix('\n') {
            Some(request) => request.strip_suffix('\r').unwrap_or(request),
            None => &line,
        };
        if request.trim().is_empty() {
            continue;
        }
        manager.handle_line_into(request, &mut reply);
        reply.push('\n');
        stdout.write_all(reply.as_bytes())?;
        stdout.flush()?;
        // The `shutdown` ctrl-line: its reply is flushed above, then the
        // loop drains — same exit-0 contract as the TCP executor.
        if manager.shutdown_requested() {
            break;
        }
    }
    Ok(())
}

fn serve_tcp(manager: Arc<SessionManager>, addr: &str, options: &Options) -> std::io::Result<()> {
    let listener = TcpListener::bind(addr)?;
    // Report the bound address (port 0 resolves to an ephemeral port).
    eprintln!("dbwipes-server listening on {}", listener.local_addr()?);
    let config = options.pool.clone().normalized();
    eprintln!(
        "dbwipes-server pool: {} workers, queue depth {}, idle timeout {}ms, read timeout {}ms",
        config.workers,
        config.queue_depth,
        config.idle_timeout.as_millis(),
        config.read_timeout.as_millis()
    );
    let stats = serve_pooled(manager, listener, config)?;
    let snapshot = stats.snapshot();
    eprintln!(
        "dbwipes-server drained: {} connections served, {} commands, {} rejected busy, \
         peak {} concurrent",
        snapshot.served_connections,
        snapshot.commands,
        snapshot.rejected,
        snapshot.peak_connections
    );
    Ok(())
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(options) => options,
        Err(e) => {
            eprintln!("dbwipes-server: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Open durable storage *before* any table is created: opening
    // advances the identity floor past every id in the manifest,
    // so freshly generated tables can never collide with restored ones.
    let runtime = match &options.data_dir {
        Some(dir) => match StorageRuntime::open(dir) {
            Ok(runtime) => Some(Arc::new(runtime)),
            Err(e) => {
                eprintln!("dbwipes-server: opening data dir {dir}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    let restored = match &runtime {
        Some(runtime) => match runtime.is_empty() {
            Ok(empty) => !empty,
            Err(e) => {
                eprintln!("dbwipes-server: reading manifest: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => false,
    };
    let catalog = if restored {
        match runtime.as_ref().expect("restored implies runtime").restore_catalog() {
            Ok(catalog) => catalog,
            Err(e) => {
                eprintln!("dbwipes-server: restoring catalog: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        match demo_catalog(&options) {
            Ok(catalog) => catalog,
            Err(e) => {
                eprintln!("dbwipes-server: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    let manager = Arc::new(SessionManager::with_cache_capacity(catalog, options.cache_capacity));
    if let Some(runtime) = &runtime {
        manager.attach_storage(Arc::clone(runtime));
        if restored {
            eprintln!(
                "dbwipes-server: restored {} tables from {}",
                manager.table_names().len(),
                options.data_dir.as_deref().unwrap_or("?"),
            );
        } else {
            // Seed run: make the demo catalog durable before serving.
            manager.flush_storage();
        }
    }
    let served = match &options.listen {
        Some(addr) => serve_tcp(manager.clone(), addr, &options),
        None => serve_stdio(&manager),
    };
    // Idempotent final flush (the executor's drain already flushed on a
    // graceful TCP shutdown; stdio mode flushes here).
    manager.flush_storage();
    if let Err(e) = served {
        eprintln!("dbwipes-server: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

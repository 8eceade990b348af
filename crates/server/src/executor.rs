//! The bounded worker-pool TCP executor.
//!
//! PR 3's TCP front-end spawned one OS thread per accepted connection: no
//! cap on threads, no cap on memory, and a traffic spike degrades every
//! session at once. This module replaces it with the classic bounded
//! executor shape:
//!
//! * a **fixed worker pool** ([`PoolConfig::workers`], default the
//!   available cores) takes accepted connections off a **bounded
//!   channel** (`std::sync::mpsc::sync_channel` of
//!   [`PoolConfig::queue_depth`] slots, its receiver shared behind a
//!   mutex) and serves each one to completion;
//! * **explicit backpressure**: when the channel is full the acceptor
//!   answers a structured `busy` reply (`{"ok":false,"error":…,"busy":true}`)
//!   and closes, instead of growing without bound. A worker serves one
//!   connection at a time, so admitted connections never exceed
//!   `workers + queue_depth`. Clients treat `busy` as "retry with backoff";
//! * **idle timeouts**: a connection that stays silent for
//!   [`PoolConfig::idle_timeout`] gets a structured timeout notice and is
//!   closed, so abandoned sockets cannot pin pool slots;
//! * **graceful shutdown**: the `shutdown` ctrl-line (or
//!   [`SessionManager::request_shutdown`]) stops the acceptor, lets every
//!   admitted connection finish the commands it already sent, flushes the
//!   replies, and returns — the binary then exits 0. (A raw `SIGTERM`
//!   handler would need `unsafe` FFI, which this workspace denies; ops
//!   wrappers send the ctrl-line instead.)
//!
//! Counters ([`PoolStats`]) are shared with the [`SessionManager`] so the
//! protocol's `stats` command reports `workers` / `queued` / `rejected` /
//! `peak_connections` alongside the cache registry's numbers.

use crate::json::Json;
use crate::manager::{lock_recover, SessionManager};
use std::io::{ErrorKind, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How often blocking reads and the acceptor wake up to poll the shutdown
/// flag. Short enough that a ctrl-line drains promptly, long enough to
/// cost nothing.
const POLL_TICK: Duration = Duration::from_millis(25);

/// Hard cap on one request line's byte length. Generous for the protocol
/// (a maximal 256-command batch is well under 100 KiB) while keeping the
/// per-connection read buffer bounded — without it, a client streaming
/// newline-free bytes would grow server memory without limit, defeating
/// the executor's bounded-resources premise.
const MAX_LINE_BYTES: usize = 1 << 20;

/// Tuning knobs of the pooled executor; the binary's flags override the
/// `Default`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolConfig {
    /// Worker threads serving connections, each request on one of them.
    /// Defaults to the available cores (1 when unknown).
    pub workers: usize,
    /// Connections that may wait for a worker. Queue-full admissions are
    /// answered `busy` and closed.
    pub queue_depth: usize,
    /// A connection silent this long is sent a timeout notice and closed.
    pub idle_timeout: Duration,
    /// A *started but unfinished* request line older than this is sent a
    /// structured `read_timeout` notice and closed — the slow-loris
    /// defense: a client trickling a line one byte at a time cannot pin a
    /// pool slot past this deadline, no matter how regularly its bytes
    /// arrive. Defaults to 10s.
    pub read_timeout: Duration,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            queue_depth: 64,
            idle_timeout: Duration::from_secs(30),
            read_timeout: Duration::from_secs(10),
        }
    }
}

impl PoolConfig {
    /// Clamps every knob to its working minimum: ≥1 worker; ≥1 queue slot,
    /// because a zero-capacity channel is a rendezvous that would answer
    /// `busy` whenever no worker is already waiting; timeouts ≥ one poll
    /// tick.
    pub fn normalized(mut self) -> Self {
        self.workers = self.workers.max(1);
        self.queue_depth = self.queue_depth.max(1);
        self.idle_timeout = self.idle_timeout.max(POLL_TICK);
        self.read_timeout = self.read_timeout.max(POLL_TICK);
        self
    }
}

/// Executor counters, shared between the accept loop, the workers, and the
/// [`SessionManager`]'s `stats` reply. Gauges (`queued`,
/// `active_connections`) track the current value; everything else is
/// monotonic.
#[derive(Debug)]
pub struct PoolStats {
    workers: u64,
    queue_depth: u64,
    queued: AtomicU64,
    rejected: AtomicU64,
    active_connections: AtomicU64,
    peak_connections: AtomicU64,
    served_connections: AtomicU64,
    commands: AtomicU64,
    batches: AtomicU64,
}

/// A point-in-time copy of [`PoolStats`] (the `stats` reply's `pool`
/// object).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolSnapshot {
    /// Worker threads in the pool.
    pub workers: u64,
    /// Capacity of the connection queue.
    pub queue_depth: u64,
    /// Connections currently waiting for a worker.
    pub queued: u64,
    /// Admissions answered `busy` (queue full).
    pub rejected: u64,
    /// Admitted connections right now (queued + in service).
    pub active_connections: u64,
    /// High-water mark of `active_connections`.
    pub peak_connections: u64,
    /// Connections served to completion.
    pub served_connections: u64,
    /// Request lines executed by the pool's workers.
    pub commands: u64,
    /// `batch` requests among them (counted by the dispatch layer).
    pub batches: u64,
}

impl PoolStats {
    fn new(config: &PoolConfig) -> Self {
        PoolStats {
            workers: config.workers as u64,
            queue_depth: config.queue_depth as u64,
            queued: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            active_connections: AtomicU64::new(0),
            peak_connections: AtomicU64::new(0),
            served_connections: AtomicU64::new(0),
            commands: AtomicU64::new(0),
            batches: AtomicU64::new(0),
        }
    }

    /// Copies the counters.
    pub fn snapshot(&self) -> PoolSnapshot {
        PoolSnapshot {
            workers: self.workers,
            queue_depth: self.queue_depth,
            queued: self.queued.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            active_connections: self.active_connections.load(Ordering::Relaxed),
            peak_connections: self.peak_connections.load(Ordering::Relaxed),
            served_connections: self.served_connections.load(Ordering::Relaxed),
            commands: self.commands.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
        }
    }

    /// Counts one `batch` request (called by the dispatch layer, which is
    /// the only place that knows a line was a batch).
    pub(crate) fn record_batch(&self) {
        self.batches.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a connection about to be queued; returns the admitted count
    /// including it.
    fn connection_admitted(&self) -> u64 {
        self.active_connections.fetch_add(1, Ordering::Relaxed) + 1
    }

    fn connection_closed(&self) {
        self.active_connections.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Serves `listener` with the bounded worker pool until graceful shutdown
/// is requested (the `shutdown` ctrl-line or
/// [`SessionManager::request_shutdown`]). Returns the pool's counters
/// after every worker has drained and joined.
pub fn serve_pooled(
    manager: Arc<SessionManager>,
    listener: TcpListener,
    config: PoolConfig,
) -> std::io::Result<Arc<PoolStats>> {
    let config = config.normalized();
    let stats = Arc::new(PoolStats::new(&config));
    // First front-end wins; a second serve over the same manager (benches
    // do this) keeps reporting the first pool's counters.
    let _ = manager.attach_pool_stats(Arc::clone(&stats));
    let (sender, receiver) = sync_channel(config.queue_depth);
    let receiver = Arc::new(Mutex::new(receiver));
    let workers: Vec<_> = (0..config.workers)
        .map(|i| spawn_worker(i, &manager, &receiver, &stats, &config))
        .collect();

    let accept_result =
        accept_loop(&manager, &listener, |stream| admit(stream, &sender, &config, &stats));

    // Drain: stop taking work, let the workers finish what was admitted
    // (serve_connection switches to drain mode via the shutdown flag),
    // then join them. Dropping the sender is the close: queued
    // connections are still received and served, and once the channel is
    // empty every worker's `recv` fails and it exits.
    drop(sender);
    for worker in workers {
        let _ = worker.join();
    }
    // All in-flight commands have finished, so the catalog is final: flush
    // it before exiting 0. A no-op without attached storage; a kill that
    // skips this still recovers to the last durable snapshot (tables are
    // persisted eagerly at registration).
    manager.flush_storage();
    accept_result.map(|()| stats)
}

/// Spawns one pool worker: receives admitted connections and serves each
/// to completion behind a panic boundary. The session dispatcher already
/// catches handler panics, so anything that unwinds to here escaped the
/// inner boundary — the shield turns it into one lost connection (counted
/// via [`SessionManager`]'s panic counter) instead of a lost worker.
fn spawn_worker(
    i: usize,
    manager: &Arc<SessionManager>,
    receiver: &Arc<Mutex<Receiver<TcpStream>>>,
    stats: &Arc<PoolStats>,
    config: &PoolConfig,
) -> std::thread::JoinHandle<()> {
    let manager = Arc::clone(manager);
    let receiver = Arc::clone(receiver);
    let stats = Arc::clone(stats);
    let config = config.clone();
    std::thread::Builder::new()
        .name(format!("dbwipes-worker-{i}"))
        .spawn(move || loop {
            // The lock is held only while waiting, so idle workers take
            // connections in turn. A statement of its own: a `while let`
            // would keep the guard through the whole connection.
            let received = lock_recover(&receiver).recv();
            // A closed and empty channel ends the worker.
            let Ok(stream) = received else { break };
            stats.queued.fetch_sub(1, Ordering::Relaxed);
            let shielded = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                serve_connection(&manager, stream, &config, &stats);
            }));
            if shielded.is_err() {
                manager.record_panic();
            }
            stats.connection_closed();
            stats.served_connections.fetch_add(1, Ordering::Relaxed);
        })
        .expect("spawn worker thread")
}

/// Runs a *blocking* accept loop until graceful shutdown, handing each
/// connection to `on_connection`. Blocking accept keeps admission latency
/// at zero (a polling acceptor adds up to a poll tick to every fresh
/// connection); a watchdog thread observes the shutdown flag and unblocks
/// the acceptor with a loopback self-connection. Always re-asserts the
/// shutdown flag before returning, so the watchdog is joinable even on an
/// accept error.
fn accept_loop(
    manager: &Arc<SessionManager>,
    listener: &TcpListener,
    mut on_connection: impl FnMut(TcpStream),
) -> std::io::Result<()> {
    let wake_addr = wake_address(listener)?;
    let watchdog = {
        let manager = Arc::clone(manager);
        std::thread::Builder::new()
            .name("dbwipes-shutdown-watchdog".to_string())
            .spawn(move || {
                while !manager.shutdown_requested() {
                    std::thread::sleep(POLL_TICK);
                }
                // Wake the blocking accept; any error just means the
                // acceptor is already gone.
                let _ = TcpStream::connect(wake_addr);
            })
            .expect("spawn watchdog thread")
    };
    let result = loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if manager.shutdown_requested() {
                    // Either the watchdog's wake-up connection or a client
                    // racing the shutdown edge; both are past admission.
                    drop(stream);
                    break Ok(());
                }
                on_connection(stream);
            }
            // A client aborting its connect while queued in the listen
            // backlog surfaces here (ECONNABORTED/ECONNRESET on Linux);
            // that is the client's failure, not the listener's — only a
            // real listener error may take the whole service down.
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::Interrupted
                        | ErrorKind::ConnectionAborted
                        | ErrorKind::ConnectionReset
                ) =>
            {
                continue
            }
            Err(e) => break Err(e),
        }
    };
    manager.request_shutdown();
    let _ = watchdog.join();
    result
}

/// A connectable form of the listener's own address (`0.0.0.0`/`::` map
/// to loopback), used by the shutdown watchdog to unblock `accept`.
fn wake_address(listener: &TcpListener) -> std::io::Result<SocketAddr> {
    let mut addr = listener.local_addr()?;
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr.ip() {
            IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
            IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
        });
    }
    Ok(addr)
}

/// Admission control: a full channel answers a structured `busy` line so
/// the client can back off and retry, and is counted in `rejected`.
fn admit(
    stream: TcpStream,
    sender: &SyncSender<TcpStream>,
    config: &PoolConfig,
    stats: &PoolStats,
) {
    // Both gauges are counted before the send: once queued, a worker may
    // receive the connection, serve it to completion and count its close
    // before this thread runs again. The channel orders these increments
    // before those decrements, so neither gauge wraps below zero.
    let admitted = stats.connection_admitted();
    stats.queued.fetch_add(1, Ordering::Relaxed);
    match sender.try_send(stream) {
        // The high-water mark moves only once the connection holds a queue
        // slot, so a queue-full bounce never ratchets it.
        Ok(()) => {
            stats.peak_connections.fetch_max(admitted, Ordering::Relaxed);
        }
        // The receiver lives as long as the workers, which outlive the
        // acceptor, so a disconnected channel is unreachable; it is still
        // answered like a full one rather than dropped silently.
        Err(TrySendError::Full(stream) | TrySendError::Disconnected(stream)) => {
            let queued = stats.queued.fetch_sub(1, Ordering::Relaxed) - 1;
            stats.connection_closed();
            stats.rejected.fetch_add(1, Ordering::Relaxed);
            reject(
                stream,
                &format!("command queue full ({} waiting)", config.queue_depth),
                retry_after_ms(queued, config.workers),
            );
        }
    }
}

/// Backoff hint for a `busy` rejection, derived from the load the server
/// actually sees: 10ms per connection already waiting *per worker*, so
/// the hint grows with the expected time until a slot frees, bounded at
/// one second so a deep queue never tells clients to go away for good.
fn retry_after_ms(queued: u64, workers: usize) -> u64 {
    let per_worker = queued / workers.max(1) as u64;
    (10 * (1 + per_worker)).min(1_000)
}

/// Sends one `ok:false` notice line — `error`, plus the members of `extra`
/// that tell the client which kind of refusal this is — in a single write
/// (best effort: the client may already be gone).
fn send_notice(stream: &mut TcpStream, error: String, extra: Vec<(&str, Json)>) {
    let mut fields = vec![("ok", Json::Bool(false)), ("error", Json::Str(error))];
    fields.extend(extra);
    let mut line = Json::obj(fields).to_string();
    line.push('\n');
    let _ = stream.write_all(line.as_bytes());
}

/// Writes a `busy` reply — including the backoff hint — and closes the
/// socket.
fn reject(mut stream: TcpStream, reason: &str, retry_after_ms: u64) {
    send_notice(
        &mut stream,
        format!("busy: {reason}"),
        vec![("busy", Json::Bool(true)), ("retry_after_ms", Json::num(retry_after_ms as f64))],
    );
    let _ = stream.shutdown(Shutdown::Both);
}

/// Serves one admitted connection to completion: reads lines, dispatches,
/// writes one reply per line. Returns on client EOF, socket error, idle
/// timeout, or graceful drain (shutdown flag observed — already-received
/// commands are still answered and flushed first).
fn serve_connection(
    manager: &SessionManager,
    stream: TcpStream,
    config: &PoolConfig,
    stats: &PoolStats,
) {
    // One-line request/response traffic is exactly the shape Nagle's
    // algorithm + delayed ACKs stall (~40ms per round trip), so replies
    // must leave the moment they are written.
    let _ = stream.set_nodelay(true);
    // Short read ticks keep the worker responsive to shutdown and idle
    // accounting without busy-waiting.
    if stream.set_read_timeout(Some(POLL_TICK)).is_err() {
        return;
    }
    let mut writer = match stream.try_clone() {
        Ok(writer) => writer,
        Err(_) => return,
    };
    let mut reader = stream;
    // Bytes received but not yet served. `scanned` of them are known to
    // hold no newline, so a long line arriving in many reads is searched
    // once, not once per read.
    let mut pending: Vec<u8> = Vec::new();
    let mut scanned = 0;
    let mut chunk = vec![0u8; 64 * 1024];
    // One reply buffer for the connection's lifetime; the newline is
    // pushed into it so a reply leaves in a single write.
    let mut reply = String::new();
    let mut last_activity = Instant::now();
    // When the client has sent part of a line but not its newline: the
    // instant the partial line started. `idle_timeout` cannot catch a
    // slow-loris client (every trickled byte resets activity); this
    // deadline runs from the line's first byte and only a completed line
    // resets it.
    let mut line_started: Option<Instant> = None;
    // Set once shutdown is observed: the moment after which the
    // connection closes even if the client keeps sending. The grace
    // window scoops up commands already in flight, but bounds the drain —
    // without it, a client issuing commands faster than the poll tick
    // would block shutdown indefinitely.
    let mut drain_deadline: Option<Instant> = None;

    loop {
        // Serve every complete line already received. This also runs in
        // drain mode, which is what "flush in-flight replies" means.
        let mut served = 0;
        while let Some(offset) = pending[scanned..].iter().position(|&b| b == b'\n') {
            let line = String::from_utf8_lossy(&pending[served..scanned + offset]);
            served = scanned + offset + 1;
            scanned = served;
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            last_activity = Instant::now();
            stats.commands.fetch_add(1, Ordering::Relaxed);
            manager.handle_line_into(line, &mut reply);
            reply.push('\n');
            // TcpStream writes are unbuffered, so a successful write_all
            // IS the flush.
            if writer.write_all(reply.as_bytes()).is_err() {
                return;
            }
        }
        pending.drain(..served);
        scanned = pending.len();
        if pending.is_empty() {
            line_started = None;
        } else if line_started.is_none() {
            line_started = Some(Instant::now());
        }
        // Enforced on every iteration — not just on read timeouts —
        // because a client trickling bytes keeps the read loop in its
        // `Ok(n)` arm, where `WouldBlock` never fires.
        if let Some(started) = line_started {
            if started.elapsed() >= config.read_timeout {
                send_notice(
                    &mut writer,
                    format!(
                        "read timeout: request line incomplete after {}ms",
                        config.read_timeout.as_millis()
                    ),
                    vec![("read_timeout", Json::Bool(true))],
                );
                return;
            }
        }

        if manager.shutdown_requested() {
            let deadline = *drain_deadline.get_or_insert_with(|| Instant::now() + 2 * POLL_TICK);
            if Instant::now() >= deadline {
                shutdown_notice(&mut writer);
                return;
            }
        }

        match reader.read(&mut chunk) {
            Ok(0) => return, // client EOF
            Ok(n) => {
                // Bytes count as activity even before a newline lands, so
                // a slow upload of a long `batch` line is never "idle".
                last_activity = Instant::now();
                pending.extend_from_slice(&chunk[..n]);
                if pending.len() > MAX_LINE_BYTES && !pending[scanned..].contains(&b'\n') {
                    send_notice(
                        &mut writer,
                        format!("request line exceeds {MAX_LINE_BYTES} bytes"),
                        Vec::new(),
                    );
                    return;
                }
                continue; // serve the new bytes before polling flags
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if manager.shutdown_requested() {
                    // Drained: nothing buffered, nothing readable. Notify
                    // and close.
                    shutdown_notice(&mut writer);
                    return;
                }
                if last_activity.elapsed() >= config.idle_timeout {
                    send_notice(
                        &mut writer,
                        format!("idle timeout after {}ms", config.idle_timeout.as_millis()),
                        vec![("idle_timeout", Json::Bool(true))],
                    );
                    return;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// Writes the graceful-shutdown notice line.
fn shutdown_notice(writer: &mut TcpStream) {
    send_notice(writer, "server shutting down".to_string(), vec![("shutdown", Json::Bool(true))]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_hint_scales_with_queue_pressure_and_saturates() {
        assert_eq!(retry_after_ms(0, 4), 10, "empty queue: minimal backoff");
        assert_eq!(retry_after_ms(8, 4), 30, "two waiting per worker");
        assert_eq!(retry_after_ms(64, 1), 650);
        assert_eq!(retry_after_ms(10_000, 1), 1_000, "hint is capped");
        assert_eq!(retry_after_ms(5, 0), 60, "zero workers must not divide by zero");
    }

    #[test]
    fn pool_config_normalizes_to_working_minimums() {
        let config = PoolConfig {
            workers: 0,
            queue_depth: 0,
            idle_timeout: Duration::ZERO,
            read_timeout: Duration::ZERO,
        }
        .normalized();
        assert_eq!(config.workers, 1);
        assert_eq!(config.queue_depth, 1);
        assert!(config.idle_timeout >= POLL_TICK);
        assert!(config.read_timeout >= POLL_TICK);
    }

    #[test]
    fn pool_stats_track_admissions() {
        let stats = PoolStats::new(&PoolConfig::default().normalized());
        assert_eq!(stats.connection_admitted(), 1);
        assert_eq!(stats.connection_admitted(), 2);
        stats.connection_closed();
        assert_eq!(stats.connection_admitted(), 2);
        let snapshot = stats.snapshot();
        assert_eq!(snapshot.active_connections, 2);
        // The acceptor raises the high-water mark once a push lands.
        assert_eq!(snapshot.peak_connections, 0);
        assert_eq!(snapshot.rejected, 0);
    }
}

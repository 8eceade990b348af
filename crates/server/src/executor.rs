//! The bounded worker-pool TCP executor.
//!
//! PR 3's TCP front-end spawned one OS thread per accepted connection: no
//! cap on threads, no cap on memory, and a traffic spike degrades every
//! session at once. This module replaces it with the classic bounded
//! executor shape — built by hand on `Mutex` + `Condvar` because the
//! container is offline (same constraint that produced the [`crate::json`]
//! module):
//!
//! * a **fixed worker pool** ([`PoolConfig::workers`], default the
//!   effective parallelism) pulls accepted connections from a **bounded
//!   MPMC queue** ([`BoundedQueue`]) and serves each one to completion;
//! * **explicit backpressure**: when the queue is full — or the hard
//!   [`PoolConfig::max_connections`] cap is reached — the acceptor answers
//!   a structured `busy` reply (`{"ok":false,"error":…,"busy":true}`) and
//!   closes, instead of growing without bound. Clients treat `busy` as
//!   "retry with backoff";
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
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
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
    /// Worker threads serving connections. Defaults to the effective
    /// parallelism (`DBWIPES_THREADS` / available cores).
    pub workers: usize,
    /// Connections that may wait for a worker. Queue-full admissions are
    /// answered `busy` and closed.
    pub queue_depth: usize,
    /// Hard cap on admitted (queued + in-service) connections. Admissions
    /// beyond it are answered `busy` and closed.
    pub max_connections: usize,
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
            workers: dbwipes_core::effective_parallelism(),
            queue_depth: 64,
            max_connections: 256,
            idle_timeout: Duration::from_secs(30),
            read_timeout: Duration::from_secs(10),
        }
    }
}

impl PoolConfig {
    /// Clamps every knob to its working minimum (≥1 worker, ≥1 queue slot,
    /// cap ≥ workers so admitted work can actually be served, timeouts ≥
    /// one poll tick).
    pub fn normalized(mut self) -> Self {
        self.workers = self.workers.max(1);
        self.queue_depth = self.queue_depth.max(1);
        self.max_connections = self.max_connections.max(self.workers);
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
    max_connections: u64,
    queued: AtomicU64,
    rejected: AtomicU64,
    active_connections: AtomicU64,
    peak_connections: AtomicU64,
    served_connections: AtomicU64,
    commands: AtomicU64,
    batches: AtomicU64,
    workers_resurrected: AtomicU64,
}

/// A point-in-time copy of [`PoolStats`] (the `stats` reply's `pool`
/// object).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolSnapshot {
    /// Worker threads in the pool.
    pub workers: u64,
    /// Capacity of the connection queue.
    pub queue_depth: u64,
    /// Hard connection cap.
    pub max_connections: u64,
    /// Connections currently waiting for a worker.
    pub queued: u64,
    /// Admissions answered `busy` (queue full or cap reached).
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
    /// Worker threads the supervisor respawned after finding them dead.
    /// Stays 0 in healthy operation — the in-worker panic shield already
    /// absorbs panicking connections without losing the thread.
    pub workers_resurrected: u64,
}

impl PoolStats {
    fn new(config: &PoolConfig) -> Self {
        PoolStats {
            workers: config.workers as u64,
            queue_depth: config.queue_depth as u64,
            max_connections: config.max_connections as u64,
            queued: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            active_connections: AtomicU64::new(0),
            peak_connections: AtomicU64::new(0),
            served_connections: AtomicU64::new(0),
            commands: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            workers_resurrected: AtomicU64::new(0),
        }
    }

    /// Copies the counters.
    pub fn snapshot(&self) -> PoolSnapshot {
        PoolSnapshot {
            workers: self.workers,
            queue_depth: self.queue_depth,
            max_connections: self.max_connections,
            queued: self.queued.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            active_connections: self.active_connections.load(Ordering::Relaxed),
            peak_connections: self.peak_connections.load(Ordering::Relaxed),
            served_connections: self.served_connections.load(Ordering::Relaxed),
            commands: self.commands.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            workers_resurrected: self.workers_resurrected.load(Ordering::Relaxed),
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

/// A bounded multi-producer multi-consumer queue on `Mutex` + `Condvar`.
///
/// `try_push` never blocks — a full (or closed) queue hands the item back,
/// which is what turns into the protocol's `busy` reply. `pop` blocks
/// until an item arrives or the queue is closed *and* drained, so closing
/// is the worker-pool's shutdown broadcast.
#[derive(Debug)]
pub struct BoundedQueue<T> {
    inner: Mutex<QueueInner<T>>,
    available: Condvar,
}

#[derive(Debug)]
struct QueueInner<T> {
    items: VecDeque<T>,
    capacity: usize,
    closed: bool,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` items (minimum 1).
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            inner: Mutex::new(QueueInner {
                items: VecDeque::new(),
                capacity: capacity.max(1),
                closed: false,
            }),
            available: Condvar::new(),
        }
    }

    /// Enqueues without blocking. A full or closed queue returns the item
    /// to the caller — that is the backpressure edge.
    pub fn try_push(&self, item: T) -> Result<(), T> {
        let mut inner = lock_recover(&self.inner);
        if inner.closed || inner.items.len() >= inner.capacity {
            return Err(item);
        }
        inner.items.push_back(item);
        drop(inner);
        self.available.notify_one();
        Ok(())
    }

    /// Blocks until an item is available (returning it) or the queue is
    /// closed and drained (returning `None`).
    pub fn pop(&self) -> Option<T> {
        let mut inner = lock_recover(&self.inner);
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self.available.wait(inner).unwrap_or_else(|poison| poison.into_inner());
        }
    }

    /// Closes the queue: pushes start failing, and once the remaining
    /// items are drained every blocked `pop` returns `None`.
    pub fn close(&self) {
        lock_recover(&self.inner).closed = true;
        self.available.notify_all();
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        lock_recover(&self.inner).items.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
    let queue: Arc<BoundedQueue<TcpStream>> = Arc::new(BoundedQueue::new(config.queue_depth));

    let workers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> = Arc::new(Mutex::new(
        (0..config.workers).map(|i| spawn_worker(i, &manager, &queue, &stats, &config)).collect(),
    ));

    // Worker-loss watchdog: each worker already shields itself with a
    // per-connection panic boundary, so losing a thread takes something
    // beyond a panicking handler — but if it ever happens, the supervisor
    // notices the dead slot within a few poll ticks, reaps it, and spawns
    // a replacement so pool capacity never silently decays.
    let supervisor = {
        let manager = Arc::clone(&manager);
        let queue = Arc::clone(&queue);
        let stats = Arc::clone(&stats);
        let config = config.clone();
        let workers = Arc::clone(&workers);
        std::thread::Builder::new()
            .name("dbwipes-worker-supervisor".to_string())
            .spawn(move || {
                while !manager.shutdown_requested() {
                    std::thread::sleep(4 * POLL_TICK);
                    let mut slots = lock_recover(&workers);
                    for (i, slot) in slots.iter_mut().enumerate() {
                        // During drain, workers exit on purpose; the
                        // re-check keeps the supervisor from resurrecting
                        // them into a closed queue.
                        if slot.is_finished() && !manager.shutdown_requested() {
                            let replacement = spawn_worker(i, &manager, &queue, &stats, &config);
                            let dead = std::mem::replace(slot, replacement);
                            let _ = dead.join();
                            stats.workers_resurrected.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            })
            .expect("spawn supervisor thread")
    };

    let accept_result =
        accept_loop(&manager, &listener, |stream| admit(stream, &queue, &config, &stats));

    // Drain: stop taking work, let the workers finish what was admitted
    // (serve_connection switches to drain mode via the shutdown flag),
    // then join them. Closing the queue wakes idle workers; queued
    // connections are still popped and served before `pop` returns None.
    // `accept_loop` re-asserted the shutdown flag, so the supervisor is
    // joinable and spawns no further replacements.
    let _ = supervisor.join();
    queue.close();
    for worker in std::mem::take(&mut *lock_recover(&workers)) {
        let _ = worker.join();
    }
    // All in-flight commands have finished, so the catalog is final: flush
    // it before exiting 0. A no-op without attached storage; a kill that
    // skips this still recovers to the last durable snapshot (tables are
    // persisted eagerly at registration).
    manager.flush_storage();
    accept_result.map(|()| stats)
}

/// Spawns one pool worker: pops admitted connections and serves each to
/// completion behind a panic boundary. The session dispatcher already
/// catches handler panics, so anything that unwinds to here escaped the
/// inner boundary — the shield turns it into one lost connection (counted
/// via [`SessionManager`]'s panic counter) instead of a lost worker.
fn spawn_worker(
    i: usize,
    manager: &Arc<SessionManager>,
    queue: &Arc<BoundedQueue<TcpStream>>,
    stats: &Arc<PoolStats>,
    config: &PoolConfig,
) -> std::thread::JoinHandle<()> {
    let manager = Arc::clone(manager);
    let queue = Arc::clone(queue);
    let stats = Arc::clone(stats);
    let config = config.clone();
    std::thread::Builder::new()
        .name(format!("dbwipes-worker-{i}"))
        .spawn(move || {
            while let Some(stream) = queue.pop() {
                stats.queued.store(queue.len() as u64, Ordering::Relaxed);
                let shielded = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    serve_connection(&manager, stream, &config, &stats);
                }));
                if shielded.is_err() {
                    manager.record_panic();
                }
                stats.connection_closed();
                stats.served_connections.fetch_add(1, Ordering::Relaxed);
            }
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

/// Admission control: the hard connection cap, then the bounded queue.
/// Both rejection edges answer a structured `busy` line so the client can
/// back off and retry, and are counted in `rejected`.
fn admit(
    stream: TcpStream,
    queue: &BoundedQueue<TcpStream>,
    config: &PoolConfig,
    stats: &PoolStats,
) {
    if stats.active_connections.load(Ordering::Relaxed) >= config.max_connections as u64 {
        stats.rejected.fetch_add(1, Ordering::Relaxed);
        reject(
            stream,
            &format!("connection limit reached ({})", config.max_connections),
            retry_after_ms(queue.len(), config.workers),
        );
        return;
    }
    // Counted before the push: once queued, a worker may serve the
    // connection to completion, and count its close, before this thread
    // runs again. The queue's mutex orders this increment before that
    // decrement, so the count never wraps below zero.
    let admitted = stats.connection_admitted();
    match queue.try_push(stream) {
        Ok(()) => {
            // The high-water mark moves only once the connection holds a
            // queue slot, so a queue-full bounce never ratchets it.
            stats.peak_connections.fetch_max(admitted, Ordering::Relaxed);
            stats.queued.store(queue.len() as u64, Ordering::Relaxed);
        }
        Err(stream) => {
            stats.connection_closed();
            stats.rejected.fetch_add(1, Ordering::Relaxed);
            reject(
                stream,
                &format!("command queue full ({} waiting)", config.queue_depth),
                retry_after_ms(queue.len(), config.workers),
            );
        }
    }
}

/// Backoff hint for a `busy` rejection, derived from the load the server
/// actually sees: 10ms per connection already waiting *per worker*, so
/// the hint grows with the expected time until a slot frees, bounded at
/// one second so a deep queue never tells clients to go away for good.
fn retry_after_ms(queued: usize, workers: usize) -> u64 {
    let per_worker = (queued / workers.max(1)) as u64;
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
    fn bounded_queue_round_trips_in_order() {
        let queue = BoundedQueue::new(3);
        queue.try_push(1).unwrap();
        queue.try_push(2).unwrap();
        assert_eq!(queue.len(), 2);
        assert_eq!(queue.pop(), Some(1));
        assert_eq!(queue.pop(), Some(2));
        assert!(queue.is_empty());
    }

    #[test]
    fn full_queue_hands_the_item_back() {
        let queue = BoundedQueue::new(2);
        queue.try_push("a").unwrap();
        queue.try_push("b").unwrap();
        assert_eq!(queue.try_push("c"), Err("c"));
        assert_eq!(queue.pop(), Some("a"));
        queue.try_push("c").unwrap();
        assert_eq!(queue.len(), 2);
    }

    #[test]
    fn close_rejects_pushes_and_drains_pops() {
        let queue = BoundedQueue::new(4);
        queue.try_push(10).unwrap();
        queue.close();
        assert_eq!(queue.try_push(11), Err(11));
        assert_eq!(queue.pop(), Some(10), "closing still drains queued items");
        assert_eq!(queue.pop(), None);
    }

    #[test]
    fn close_wakes_blocked_consumers() {
        let queue = Arc::new(BoundedQueue::<u32>::new(1));
        let waiter = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || queue.pop())
        };
        std::thread::sleep(Duration::from_millis(30));
        queue.close();
        assert_eq!(waiter.join().unwrap(), None);
    }

    #[test]
    fn racing_producers_and_consumers_lose_nothing() {
        let queue = Arc::new(BoundedQueue::new(8));
        let total = 4 * 200;
        let consumed = Arc::new(Mutex::new(Vec::new()));
        std::thread::scope(|scope| {
            for producer in 0..4u32 {
                let queue = Arc::clone(&queue);
                scope.spawn(move || {
                    for i in 0..200u32 {
                        let mut item = producer * 1000 + i;
                        // Spin on backpressure like the acceptor's retry
                        // guidance tells clients to.
                        while let Err(back) = queue.try_push(item) {
                            item = back;
                            std::thread::yield_now();
                        }
                    }
                });
            }
            for _ in 0..2 {
                let queue = Arc::clone(&queue);
                let consumed = Arc::clone(&consumed);
                scope.spawn(move || {
                    while let Some(item) = queue.pop() {
                        consumed.lock().unwrap().push(item);
                    }
                });
            }
            // Producers finish first (scope joins unstarted threads in
            // drop order), so close after everything is pushed.
            scope.spawn({
                let queue = Arc::clone(&queue);
                let consumed = Arc::clone(&consumed);
                move || {
                    while consumed.lock().unwrap().len() < total {
                        std::thread::yield_now();
                    }
                    queue.close();
                }
            });
        });
        let mut consumed = consumed.lock().unwrap().clone();
        consumed.sort_unstable();
        consumed.dedup();
        assert_eq!(consumed.len(), total, "every pushed item must be popped exactly once");
    }

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
            max_connections: 0,
            idle_timeout: Duration::ZERO,
            read_timeout: Duration::ZERO,
        }
        .normalized();
        assert_eq!(config.workers, 1);
        assert_eq!(config.queue_depth, 1);
        assert_eq!(config.max_connections, 1);
        assert!(config.idle_timeout >= POLL_TICK);
        assert!(config.read_timeout >= POLL_TICK);

        let wide = PoolConfig { workers: 8, max_connections: 2, ..config.clone() }.normalized();
        assert_eq!(wide.max_connections, 8, "cap must cover the pool");
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

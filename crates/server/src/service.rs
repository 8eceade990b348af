//! Command dispatch: one request line in, one response line out.
//!
//! [`SessionManager::handle_line`] is the whole server loop's body; the
//! stdio and TCP front-ends in the `dbwipes-server` binary (and the tests)
//! just shuttle lines to it. Keeping the transport out of the dispatch
//! means every protocol behaviour is testable without sockets.
//!
//! A reply is written once: each handler pushes its fields straight from
//! the typed result into the reply's [`JsonWriter`] — while the session
//! lock is held, so nothing is copied out first — and an `Err` or a
//! caught panic truncates the line back to its start before the error
//! envelope is written ([`WireError::write_to`]).

use crate::executor::PoolStats;
use crate::json::{Json, JsonWriter, PointWriter};
use crate::manager::{ServerSession, SessionId, SessionManager};
use crate::protocol::{parse_request, Command, Request, WireError, PROTOCOL_VERSION};
use dbwipes_core::{CoreError, Explanation, MetricKind};
use dbwipes_dashboard::{PointRef, ScatterPoint};
use dbwipes_storage::{ConditionBitmapCache, Value};

/// What a handler returns once its fields are in the reply.
type Handled = Result<(), WireError>;

/// Ends `reply` as the success it holds, or as `outcome`'s error.
fn finish(outcome: Handled, mut reply: JsonWriter<'_>) {
    match outcome {
        Ok(()) => reply.end_object(),
        Err(error) => error.write_to(reply),
    }
}

impl SessionManager {
    /// Parses and executes one request line, returning the response line
    /// (without a trailing newline). Never panics on malformed input —
    /// every failure becomes an `ok:false` reply.
    pub fn handle_line(&self, line: &str) -> String {
        let mut reply = String::new();
        self.handle_line_into(line, &mut reply);
        reply
    }

    /// [`SessionManager::handle_line`] into a buffer the caller keeps: a
    /// connection reuses one allocation for all its replies. `reply` is
    /// cleared first.
    pub fn handle_line_into(&self, line: &str, reply: &mut String) {
        reply.clear();
        match parse_request(line) {
            Ok(Request { id, command }) => {
                self.answer(command, JsonWriter::reply(reply, id.as_ref()))
            }
            Err(e) => WireError::from(e).write_to(JsonWriter::reply(reply, None)),
        }
    }

    /// Executes one command into its reply — a request line's, or a
    /// `batch` element's.
    fn answer(&self, command: Command, mut reply: JsonWriter<'_>) {
        finish(self.dispatch(command, &mut reply), reply);
    }

    fn dispatch(&self, command: Command, w: &mut JsonWriter<'_>) -> Handled {
        match command {
            Command::Ping => {
                w.key("pong").bool(true);
                w.key("protocol_version").num(PROTOCOL_VERSION as f64);
            }
            Command::Tables => {
                w.key("tables").begin_array();
                self.table_names().iter().for_each(|name| w.str(name));
                w.end_array();
            }
            Command::Sessions => {
                w.key("sessions").begin_array();
                self.session_ids().iter().for_each(|s| w.num(s.0 as f64));
                w.end_array();
            }
            Command::Stats => self.write_stats(w),
            Command::OpenSession => w.key("session").num(self.open_session().0 as f64),
            Command::CloseSession(s) => {
                if !self.close_session(SessionId(s)) {
                    return Err(format!("no such session {s}").into());
                }
                w.key("closed").num(s as f64);
            }
            Command::Shutdown => {
                self.request_shutdown();
                w.key("shutting_down").bool(true);
            }
            Command::Batch(commands) => {
                if let Some(pool) = self.pool_stats() {
                    pool.record_batch();
                }
                self.run_batch(commands, w);
            }
            Command::StreamAppend { table, rows } => {
                let report = self.stream_append(&table, rows).map_err(|e| e.to_string())?;
                w.key("appended").num(report.appended as f64);
                w.key("durable").bool(report.durable);
                w.key("sessions_refreshed").num(report.sessions_refreshed as f64);
                w.key("table").str(&table);
                w.key("total_rows").num(report.total_rows as f64);
            }
            command => {
                let sid =
                    SessionId(command.session().expect("all remaining commands address a session"));
                return self.with_session(sid, |session| {
                    self.isolated_session_command(sid, session, command, w)
                })?;
            }
        }
        Ok(())
    }

    /// The `stats` payload. Every block is always present, so dashboards
    /// and monitoring probe one shape everywhere: an unattached manager
    /// (no --data-dir) reports all-zero storage counters and a permanently
    /// healthy `health` block; only `pool` needs a pooled TCP front-end
    /// (stdio mode has no pool to report).
    fn write_stats(&self, w: &mut JsonWriter<'_>) {
        let stats = self.registry().stats();
        w.key("cache").begin_object();
        w.key("append_absorbs").num(stats.append_absorbs as f64);
        w.key("entries").num(stats.entries as f64);
        w.key("evictions").num(stats.evictions as f64);
        w.key("explanation_entries").num(stats.explanation_entries as f64);
        w.key("explanation_evictions").num(stats.explanation_evictions as f64);
        w.key("explanation_hit_rate").num(stats.explanation_hit_rate());
        w.key("explanation_hits").num(stats.explanation_hits as f64);
        w.key("explanation_misses").num(stats.explanation_misses as f64);
        w.key("hit_rate").num(stats.hit_rate());
        w.key("hits").num(stats.hits as f64);
        w.key("invalidations").num(stats.invalidations as f64);
        w.key("misses").num(stats.misses as f64);
        w.end_object();

        // Process-wide counters of the storage layer's condition-bitmap
        // caches (a ranking warms its table snapshot's; conditions shared
        // across candidates, and with earlier rankings over the snapshot,
        // hit), and what the base catalog's snapshots hold right now.
        let (hits, misses) = ConditionBitmapCache::global_stats();
        let total = hits + misses;
        let (retained, retained_bytes) = self.retained_condition_bitmaps();
        w.key("condition_bitmaps").begin_object();
        w.key("hit_rate").num(if total == 0 { 0.0 } else { hits as f64 / total as f64 });
        w.key("hits").num(hits as f64);
        w.key("misses").num(misses as f64);
        w.key("retained").num(retained as f64);
        w.key("retained_bytes").num(retained_bytes as f64);
        w.end_object();

        let health = self.storage().map(|r| r.health()).unwrap_or_default();
        w.key("health").begin_object();
        w.key("consecutive_failures").num(health.consecutive_failures as f64);
        w.key("degraded").bool(health.degraded);
        w.key("degraded_entries").num(health.degraded_entries as f64);
        match &health.last_persist_error {
            Some(error) => w.key("last_persist_error").str(error),
            None => w.key("last_persist_error").null(),
        }
        w.key("panics_caught").num(self.panics_caught() as f64);
        w.key("quarantined_sessions").num(self.quarantined_sessions() as f64);
        w.key("retries").num(health.retries as f64);
        w.end_object();

        if let Some(pool) = self.pool_stats() {
            write_pool(w, pool);
        }
        w.key("protocol_version").num(PROTOCOL_VERSION as f64);
        w.key("sessions").num(self.session_count() as f64);

        let storage = self.storage().map(|r| r.counters()).unwrap_or_default();
        w.key("storage").begin_object();
        w.key("attached").bool(self.storage().is_some());
        w.key("bytes_on_disk").num(storage.bytes_on_disk as f64);
        w.key("compactions").num(storage.compactions as f64);
        w.key("segment_appends").num(storage.segment_appends as f64);
        w.key("segment_bytes").num(storage.segment_bytes as f64);
        w.key("snapshot_loads").num(storage.snapshot_loads as f64);
        w.key("snapshot_saves").num(storage.snapshot_saves as f64);
        w.end_object();
    }

    /// Routes to session `sid` and runs `f` under its lock. A quarantined
    /// session answers a structured `quarantined` error carrying the
    /// original reason; an unknown one "no such session"; a poisoned mutex
    /// (its holder panicked while unwinding elsewhere) quarantines the
    /// session and answers `quarantined`.
    fn with_session<R>(
        &self,
        sid: SessionId,
        f: impl FnOnce(&mut ServerSession) -> R,
    ) -> Result<R, WireError> {
        let quarantined = |reason: &str| {
            WireError::quarantined(format!(
                "session {} is quarantined: {reason}; close it and open a new one",
                sid.0
            ))
        };
        if let Some(reason) = self.quarantine_reason(sid) {
            return Err(quarantined(&reason));
        }
        let handle = self
            .session(sid)
            .ok_or_else(|| WireError::from(format!("no such session {}", sid.0)))?;
        // The guard lives *outside* the panic boundary: quarantine, not
        // mutex poisoning, is how a broken session is fenced off, so
        // siblings (and this very map entry) stay lockable.
        let Ok(mut session) = handle.lock() else {
            const POISONED: &str = "session mutex poisoned";
            self.quarantine_session(sid, POISONED);
            return Err(quarantined(POISONED));
        };
        Ok(f(&mut session))
    }

    /// Counts and runs one session command behind a panic boundary. A
    /// panicking handler costs nothing but this one command: the panic is
    /// caught, counted, the session quarantined (its state may be torn
    /// mid-write), and the caller gets a structured `internal` error to
    /// forward — which discards whatever the handler had written. The
    /// worker thread, its connection, and every sibling session survive.
    fn isolated_session_command(
        &self,
        sid: SessionId,
        session: &mut ServerSession,
        command: Command,
        w: &mut JsonWriter<'_>,
    ) -> Handled {
        session.record_command();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.session_command(session, command, w)
        }));
        match outcome {
            Ok(result) => result,
            Err(payload) => {
                self.record_panic();
                let reason = panic_message(payload.as_ref());
                self.quarantine_session(sid, &reason);
                Err(WireError::internal(format!("handler panicked: {reason}")))
            }
        }
    }

    /// Executes a batch back to back, one response object per command.
    ///
    /// A run of *consecutive* commands addressing the same session is
    /// served under a single session-lock acquisition — the point of
    /// `batch`: a 50-command dashboard replay pays for one route + lock
    /// instead of fifty. A failing command answers `ok:false` like its
    /// top-level form would and the batch continues; the caller correlates
    /// by position (or per-command ids).
    fn run_batch(&self, commands: Vec<Request>, w: &mut JsonWriter<'_>) {
        w.key("count").num(commands.len() as f64);
        w.key("results").begin_array();
        let mut queue = commands.into_iter().peekable();
        while let Some(Request { id, command }) = queue.next() {
            // Commands the top-level dispatcher must handle (service-level
            // commands and close_session) go through it one at a time.
            let Some(target) = session_command_target(&command) else {
                self.answer(command, w.element_reply(id.as_ref()));
                continue;
            };
            let sid = SessionId(target);
            let routed = self.with_session(sid, |session| {
                let mut serve = |id: Option<&Json>, command| {
                    let mut reply = w.element_reply(id);
                    let outcome = self.isolated_session_command(sid, session, command, &mut reply);
                    finish(outcome, reply);
                };
                serve(id.as_ref(), command);
                // Pull the next command into the same lock acquisition
                // while it keeps addressing this session — unless a command
                // quarantined the session (a caught panic), in which case
                // the run breaks and the remaining commands answer
                // `quarantined` through the routing above.
                while self.quarantine_reason(sid).is_none()
                    && queue.peek().map(|next| session_command_target(&next.command))
                        == Some(Some(target))
                {
                    let Request { id, command } = queue.next().expect("peeked");
                    serve(id.as_ref(), command);
                }
            });
            if let Err(error) = routed {
                error.write_to(w.element_reply(id.as_ref()));
            }
        }
        w.end_array();
    }

    fn session_command(
        &self,
        session: &mut ServerSession,
        command: Command,
        w: &mut JsonWriter<'_>,
    ) -> Handled {
        let core = |e: CoreError| WireError::from(e.to_string());
        match command {
            Command::RunQuery { sql, .. } => {
                session.dashboard_mut().run_query(&sql).map_err(core)?;
                write_result(w, session, false);
            }
            Command::Plot { x, y, .. } => {
                let series = session
                    .dashboard()
                    .plot(&x, &y)
                    .ok_or("nothing to plot (no result, or unknown columns)")?;
                write_series(w, &x, &y, "output", series.len(), |out| {
                    series.points.iter().for_each(|p| out.point(reference(p), p.x, p.y))
                });
            }
            Command::Zoom { x, y, .. } => {
                let zoom = session
                    .dashboard()
                    .zoom_points(&x, &y)
                    .ok_or("nothing to zoom into (no selected outputs, or unknown columns)")?;
                write_series(w, &x, &y, "input", zoom.max_len(), |out| {
                    zoom.for_each(|p| out.point(reference(&p), p.x, p.y))
                });
            }
            Command::BrushOutputs { x, y, brush, .. } => {
                let selected = session.dashboard_mut().brush_outputs(&x, &y, brush);
                w.key("selected").begin_array();
                selected.iter().for_each(|&i| w.num(i as f64));
                w.end_array();
            }
            Command::BrushInputs { x, y, brush, .. } => {
                let selected = session.dashboard_mut().brush_inputs(&x, &y, brush);
                w.key("selected").begin_array();
                selected.iter().for_each(|r| w.num(r.0 as f64));
                w.end_array();
            }
            Command::MetricChoices { column, .. } => {
                w.key("choices").begin_array();
                for metric in session.dashboard().metric_choices(&column) {
                    // kind/value mirror `set_metric`'s request fields, so a
                    // client can echo a choice straight back without
                    // parsing the label.
                    let (kind, value) = match metric.kind {
                        MetricKind::TooHigh { threshold } => ("too_high", threshold),
                        MetricKind::TooLow { threshold } => ("too_low", threshold),
                        MetricKind::NotEqualTo { expected } => ("not_equal_to", expected),
                    };
                    w.begin_object();
                    w.key("column").str(&metric.column);
                    w.key("kind").str(kind);
                    w.key("label").str(&metric.label());
                    w.key("value").num(value);
                    w.end_object();
                }
                w.end_array();
            }
            Command::SetMetric { metric, .. } => {
                w.key("metric").str(&metric.to_string());
                session.dashboard_mut().set_metric(metric);
            }
            Command::Debug(_) => {
                let (explanation, report) = session.debug_cached(self.registry()).map_err(core)?;
                // Memo-served replies carry `cached:true` and (by way of
                // `debug_cached`) near-zero timings — nothing ran now.
                write_explanation(w, explanation, report.cache_hit, report.memo_hit);
            }
            Command::ClickPredicate { index, .. } => {
                session.dashboard_mut().click_predicate(index).map_err(core)?;
                write_result(w, session, true);
            }
            Command::Undo(_) => {
                session.dashboard_mut().undo_clean().map_err(core)?;
                write_result(w, session, true);
            }
            Command::State(_) => {
                let d = session.dashboard();
                write_applied(w, session);
                w.key("cache_hits").num(session.cache_hits() as f64);
                w.key("cache_misses").num(session.cache_misses() as f64);
                w.key("commands").num(session.commands() as f64);
                w.key("selected_inputs").num(d.selected_inputs().len() as f64);
                w.key("selected_outputs").num(d.selected_outputs().len() as f64);
                w.key("sql").str(&d.current_sql());
                w.key("state").str(&format!("{:?}", d.state()));
            }
            Command::Crash(_) => {
                // Test-only hook for the panic-isolation machinery: a plain
                // user error unless a test armed this manager.
                if self.crash_hook_armed() {
                    panic!("deliberate crash requested by the crash command");
                }
                return Err("crash is disabled; only a test's manager arms this hook".into());
            }
            Command::Ping
            | Command::Tables
            | Command::Stats
            | Command::Sessions
            | Command::OpenSession
            | Command::CloseSession(_)
            | Command::Shutdown
            | Command::Batch(_)
            | Command::StreamAppend { .. } => unreachable!("handled by dispatch"),
        }
        Ok(())
    }
}

/// Best-effort rendering of a caught panic payload: `panic!` with a string
/// literal or a formatted message covers practically every real panic; the
/// fallback keeps the reply structured even for exotic payloads.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The session a command addresses *through the session-command path*:
/// `Some` only for commands `session_command` serves under the session
/// lock. `close_session` addresses a session but must go through the
/// top-level dispatcher (it removes the session from the map), so it — and
/// every service-level command — answers `None`.
fn session_command_target(command: &Command) -> Option<u64> {
    match command {
        Command::CloseSession(_) => None,
        other => other.session(),
    }
}

/// Writes the pooled executor's counters as the `stats` reply's `pool`.
fn write_pool(w: &mut JsonWriter<'_>, stats: &PoolStats) {
    let snapshot = stats.snapshot();
    w.key("pool").begin_object();
    w.key("active_connections").num(snapshot.active_connections as f64);
    w.key("batches").num(snapshot.batches as f64);
    w.key("commands").num(snapshot.commands as f64);
    w.key("peak_connections").num(snapshot.peak_connections as f64);
    w.key("queue_depth").num(snapshot.queue_depth as f64);
    w.key("queued").num(snapshot.queued as f64);
    w.key("rejected").num(snapshot.rejected as f64);
    w.key("served_connections").num(snapshot.served_connections as f64);
    w.key("workers").num(snapshot.workers as f64);
    w.end_object();
}

fn write_applied(w: &mut JsonWriter<'_>, session: &ServerSession) {
    w.key("applied_predicates").begin_array();
    session.dashboard().applied_predicates().iter().for_each(|p| w.str(&p.to_string()));
    w.end_array();
}

/// The result the session now displays; after a click or an undo, with
/// the predicates applied so far.
fn write_result(w: &mut JsonWriter<'_>, session: &ServerSession, with_applied: bool) {
    let result = session.dashboard().result().expect("the command just left a result");
    if with_applied {
        write_applied(w, session);
    }
    w.key("columns").begin_array();
    result.column_names().iter().for_each(|name| w.str(name));
    w.end_array();
    w.key("row_count").num(result.len() as f64);
    w.key("rows").begin_array();
    for row in &result.rows {
        w.begin_array();
        for value in row {
            match value {
                Value::Null => w.null(),
                Value::Bool(b) => w.bool(*b),
                Value::Int(i) | Value::Timestamp(i) => w.num(*i as f64),
                Value::Float(f) => w.num(*f),
                Value::Str(s) => w.str(s),
            }
        }
        w.end_array();
    }
    w.end_array();
    w.key("sql").str(&result.statement.to_sql());
}

/// Writes a scatter series of `count` points or fewer, all of one `kind`,
/// as `points` hands them to the point writer.
fn write_series(
    w: &mut JsonWriter<'_>,
    x_label: &str,
    y_label: &str,
    kind: &str,
    count: usize,
    points: impl FnOnce(&mut PointWriter<'_>),
) {
    w.key("series").begin_object();
    w.key("points").points(kind, count, points);
    w.key("x").str(x_label);
    w.key("y").str(y_label);
    w.end_object();
}

/// The `ref` member of a point: its output row or input row id.
fn reference(point: &ScatterPoint) -> f64 {
    match point.reference {
        PointRef::Output(i) => i as f64,
        PointRef::Input(row) => row.0 as f64,
    }
}

fn write_explanation(w: &mut JsonWriter<'_>, explanation: &Explanation, hit: bool, memo: bool) {
    w.key("base_error").num(explanation.base_error);
    w.key("cache_hit").bool(hit);
    w.key("cached").bool(memo);
    w.key("predicates").begin_array();
    for (i, p) in explanation.predicates.iter().enumerate() {
        w.begin_object();
        w.key("f1").num(p.example_f1);
        w.key("improvement").num(p.improvement);
        w.key("index").num(i as f64);
        w.key("predicate").str(&p.predicate.to_string());
        w.key("removes").num(p.matched_rows as f64);
        w.key("score").num(p.score);
        w.end_object();
    }
    w.end_array();
    let timings = &explanation.timings;
    w.key("timings").begin_object();
    w.key("enumerate_ms").num(timings.enumerate_ms);
    w.key("predicates_ms").num(timings.predicates_ms);
    w.key("preprocess_ms").num(timings.preprocess_ms);
    w.key("rank_ms").num(timings.rank_ms);
    w.key("total_ms").num(timings.total_ms());
    w.end_object();
}

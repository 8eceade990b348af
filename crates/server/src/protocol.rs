//! The line-delimited JSON request/response protocol.
//!
//! One request per line, one response per line, in order. This is the
//! wire format the paper's web frontend would speak to this backend; it
//! maps one-to-one onto the Figure-1 interaction loop.
//!
//! ## Grammar
//!
//! ```text
//! request  := { "cmd": <command>, "id"?: <any>, "session"?: <int>, ...arguments }
//! response := { "ok": true,  "id"?: <echoed>, ...payload }
//!           | { "ok": false, "id"?: <echoed>, "error": <string> }
//!           | { "ok": false, "id"?: <echoed>,
//!               "error": { "kind": <string>, "retryable": <bool>, "message": <string> } }
//!
//! command  := "ping" | "tables" | "stats" | "sessions"
//!           | "open_session" | "close_session"
//!           | "shutdown"
//!           | "batch"           (commands: [<request>...])
//!           | "run_query"       (session, sql)
//!           | "plot"            (session, x, y)
//!           | "zoom"            (session, x, y)
//!           | "brush_outputs"   (session, x, y, brush)
//!           | "brush_inputs"    (session, x, y, brush)
//!           | "metric_choices"  (session, column)
//!           | "set_metric"      (session, kind, column, value)
//!           | "debug"           (session)
//!           | "click_predicate" (session, index)
//!           | "undo"            (session)
//!           | "state"           (session)
//!           | "stream_append"   (table, rows: [[<scalar>...]...])
//!           | "crash"           (session)   [test-only; armed by SessionManager::arm_crash_hook]
//!
//! brush    := { "x_min"?: <num>, "x_max"?: <num>, "y_min"?: <num>, "y_max"?: <num> }
//!             (omitted edges are unbounded)
//! kind     := "too_high" | "too_low" | "not_equal_to"
//! ```
//!
//! The optional `id` is echoed verbatim on the response, so a pipelining
//! client can correlate answers; everything after a parse failure of the
//! *request line itself* is answered with `ok:false` and no echo.
//!
//! `batch` carries an array of request objects (each shaped exactly like a
//! top-level request, nesting excluded) and answers with one `results`
//! array holding each command's individual response object in order. A
//! scripted replay submitted as one batch is executed back to back —
//! consecutive commands addressing the same session run under a single
//! session-lock acquisition, which is what makes batched dashboard replays
//! cheap. `shutdown` is the ctrl-line: it flips the manager's shutdown
//! flag so the serving front-end (stdio loop or the pooled TCP executor)
//! drains in-flight connections, flushes replies, and exits cleanly.

use crate::json::{Json, JsonWriter};
use dbwipes_core::ErrorMetric;
use dbwipes_dashboard::Brush;
use dbwipes_storage::Value;

/// The protocol revision this server speaks, reported in every `ping` and
/// `stats` reply as `protocol_version`.
///
/// Compatibility rule: commands and request fields only ever grow — new
/// commands, new optional request fields, new reply fields — and every
/// such addition bumps this number. A client therefore (a) ignores reply
/// fields it does not know, and (b) gates use of newer commands on the
/// `protocol_version` it read from `ping`; a server never changes the
/// meaning or shape of an existing field under the same version.
/// Diagnostic reply fields may be removed, but only with a version bump
/// and a History entry naming them.
///
/// History: 1 = the Figure-1 command set through durable storage;
/// 2 = streaming ingestion (`stream_append`, `protocol_version` markers);
/// 3 = fault tolerance (structured error objects with `kind`/`retryable`,
/// the `stats` `health` block, `stream_append`'s `durable` marker, the
/// gated `crash` test hook); 4 = explain sharding and append batching
/// removed: `stats` drops `shards` and `cache.partition_*`,
/// `stream_append` drops `batches`; 5 = durable appends write segments:
/// the `stats` `storage` block gains `segment_appends`, `segment_bytes`
/// and `compactions`; 6 = warm-state sidecars removed: `stats.storage`
/// drops `rehydrated_caches`; `stats.condition_bitmaps` gains `retained`,
/// `retained_bytes`; 7 = the connection cap and the worker supervisor
/// removed: `stats.pool` drops `max_connections` and `workers_resurrected`.
pub const PROTOCOL_VERSION: u64 = 7;

/// A parsed protocol command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Liveness probe.
    Ping,
    /// Names of the served tables.
    Tables,
    /// Registry and session counters.
    Stats,
    /// Ids of the open sessions.
    Sessions,
    /// Opens a fresh session; answers with its id.
    OpenSession,
    /// Closes the addressed session.
    CloseSession(u64),
    /// Requests graceful shutdown of the serving process (the ctrl-line):
    /// in-flight connections drain, replies flush, the process exits 0.
    Shutdown,
    /// Executes a sequence of commands back to back, answering with one
    /// `results` array. Consecutive commands addressing the same session
    /// share a single session-lock acquisition.
    Batch(Vec<Request>),
    /// Executes a new base query (resets selections and cleaning).
    RunQuery {
        /// Target session.
        session: u64,
        /// The SQL text.
        sql: String,
    },
    /// The group-level scatter series.
    Plot {
        /// Target session.
        session: u64,
        /// X-axis column.
        x: String,
        /// Y-axis column.
        y: String,
    },
    /// The zoomed-in tuple series for the selected outputs.
    Zoom {
        /// Target session.
        session: u64,
        /// X-axis column.
        x: String,
        /// Y-axis column.
        y: String,
    },
    /// Brushes the group plot to select suspicious outputs S.
    BrushOutputs {
        /// Target session.
        session: u64,
        /// X-axis column.
        x: String,
        /// Y-axis column.
        y: String,
        /// The brushed rectangle.
        brush: Brush,
    },
    /// Brushes the tuple plot to select suspicious inputs D′.
    BrushInputs {
        /// Target session.
        session: u64,
        /// X-axis column.
        x: String,
        /// Y-axis column.
        y: String,
        /// The brushed rectangle.
        brush: Brush,
    },
    /// The error-metric choices the form would offer.
    MetricChoices {
        /// Target session.
        session: u64,
        /// The aggregate output column.
        column: String,
    },
    /// Picks the error metric ε.
    SetMetric {
        /// Target session.
        session: u64,
        /// The chosen metric.
        metric: ErrorMetric,
    },
    /// Runs the backend pipeline ("debug!").
    Debug(u64),
    /// Clicks the i-th ranked predicate.
    ClickPredicate {
        /// Target session.
        session: u64,
        /// Zero-based rank of the predicate to apply.
        index: usize,
    },
    /// Un-applies the most recent predicate.
    Undo(u64),
    /// The session's interaction state and counters.
    State(u64),
    /// Streams rows into a base table. Service-level (no session): the
    /// append is validated all-or-nothing, applied, and fanned out to
    /// every open session whose snapshot it fast-forwards.
    StreamAppend {
        /// The (case-insensitive) table name.
        table: String,
        /// The rows, one array of scalar cells per row, in schema order.
        rows: Vec<Vec<Value>>,
    },
    /// Deliberately panics inside the addressed session's handler — the
    /// test hook behind the panic-isolation machinery. A plain error unless
    /// the serving manager was armed by
    /// [`SessionManager::arm_crash_hook`](crate::SessionManager::arm_crash_hook),
    /// which the `dbwipes-server` binary never calls; when armed, the reply
    /// is the structured `internal` error and the session is quarantined,
    /// with every worker surviving.
    Crash(u64),
}

impl Command {
    /// The session a command addresses, when it addresses one.
    pub fn session(&self) -> Option<u64> {
        match self {
            Command::Ping
            | Command::Tables
            | Command::Stats
            | Command::Sessions
            | Command::OpenSession
            | Command::Shutdown
            | Command::Batch(_)
            | Command::StreamAppend { .. } => None,
            Command::CloseSession(s)
            | Command::Debug(s)
            | Command::Undo(s)
            | Command::State(s)
            | Command::Crash(s) => Some(*s),
            Command::RunQuery { session, .. }
            | Command::Plot { session, .. }
            | Command::Zoom { session, .. }
            | Command::BrushOutputs { session, .. }
            | Command::BrushInputs { session, .. }
            | Command::MetricChoices { session, .. }
            | Command::SetMetric { session, .. }
            | Command::ClickPredicate { session, .. } => Some(*session),
        }
    }
}

/// A parsed request line: the command plus the client's correlation id.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Echoed verbatim on the response when present.
    pub id: Option<Json>,
    /// The command to execute.
    pub command: Command,
}

/// The most commands one `batch` request may carry. Bounds the work a
/// single line can enqueue (the transport already reads one line at a
/// time, so this is the per-request unit of admission control).
pub const MAX_BATCH_COMMANDS: usize = 256;

/// The most rows one `stream_append` request may carry — the same
/// admission-control role [`MAX_BATCH_COMMANDS`] plays for `batch`. A
/// producer with more rows sends several commands; each is a cheap
/// fast-forward for the caches either way.
pub const MAX_STREAM_APPEND_ROWS: usize = 65_536;

/// Every wire command the parser accepts, in the order the grammar lists
/// them. This is the protocol's table of contents: `docs/PROTOCOL.md`
/// documents each entry (enforced by a test), and adding a command
/// without extending this list fails the parser's coverage test.
pub const WIRE_COMMANDS: &[&str] = &[
    "ping",
    "tables",
    "stats",
    "sessions",
    "open_session",
    "close_session",
    "shutdown",
    "batch",
    "run_query",
    "plot",
    "zoom",
    "brush_outputs",
    "brush_inputs",
    "metric_choices",
    "set_metric",
    "debug",
    "click_predicate",
    "undo",
    "state",
    "stream_append",
    "crash",
];

/// Parses one request line.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let value = Json::parse(line).map_err(|e| format!("invalid JSON: {e}"))?;
    parse_request_value(&value)
}

/// Parses one already-decoded request object (a top-level line or a
/// `batch` element — the shapes are identical, except that `batch` may
/// not nest).
pub fn parse_request_value(value: &Json) -> Result<Request, String> {
    if !matches!(value, Json::Obj(_)) {
        return Err("request must be a JSON object".to_string());
    }
    let id = value.get("id").cloned();
    let cmd = value
        .get("cmd")
        .and_then(Json::as_str)
        .ok_or_else(|| "missing string field `cmd`".to_string())?;

    let session = || -> Result<u64, String> {
        value
            .get("session")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("`{cmd}` requires an integer `session`"))
    };
    let string_field = |name: &str| -> Result<String, String> {
        value
            .get(name)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("`{cmd}` requires a string `{name}`"))
    };

    let command = match cmd {
        "ping" => Command::Ping,
        "tables" => Command::Tables,
        "stats" => Command::Stats,
        "sessions" => Command::Sessions,
        "open_session" => Command::OpenSession,
        "close_session" => Command::CloseSession(session()?),
        "shutdown" => Command::Shutdown,
        "batch" => {
            let Some(Json::Arr(items)) = value.get("commands") else {
                return Err("`batch` requires an array `commands`".to_string());
            };
            if items.len() > MAX_BATCH_COMMANDS {
                return Err(format!(
                    "`batch` carries {} commands (max {MAX_BATCH_COMMANDS})",
                    items.len()
                ));
            }
            let mut commands = Vec::with_capacity(items.len());
            for (i, item) in items.iter().enumerate() {
                if item.get("cmd").and_then(Json::as_str) == Some("batch") {
                    return Err(format!("`batch` command {i} nests a batch (not allowed)"));
                }
                let request =
                    parse_request_value(item).map_err(|e| format!("`batch` command {i}: {e}"))?;
                commands.push(request);
            }
            Command::Batch(commands)
        }
        "run_query" => Command::RunQuery { session: session()?, sql: string_field("sql")? },
        "plot" | "zoom" | "brush_outputs" | "brush_inputs" => {
            let (s, x, y) = (session()?, string_field("x")?, string_field("y")?);
            match cmd {
                "plot" => Command::Plot { session: s, x, y },
                "zoom" => Command::Zoom { session: s, x, y },
                "brush_outputs" => {
                    Command::BrushOutputs { session: s, x, y, brush: parse_brush(value)? }
                }
                _ => Command::BrushInputs { session: s, x, y, brush: parse_brush(value)? },
            }
        }
        "metric_choices" => {
            Command::MetricChoices { session: session()?, column: string_field("column")? }
        }
        "set_metric" => {
            let s = session()?;
            let column = string_field("column")?;
            let kind = string_field("kind")?;
            let v = value
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| "`set_metric` requires a numeric `value`".to_string())?;
            let metric = match kind.as_str() {
                "too_high" => ErrorMetric::too_high(column, v),
                "too_low" => ErrorMetric::too_low(column, v),
                "not_equal_to" => ErrorMetric::not_equal_to(column, v),
                other => {
                    return Err(format!(
                        "unknown metric kind `{other}` (expected too_high | too_low | not_equal_to)"
                    ))
                }
            };
            Command::SetMetric { session: s, metric }
        }
        "debug" => Command::Debug(session()?),
        "click_predicate" => {
            let s = session()?;
            let index = value
                .get("index")
                .and_then(Json::as_u64)
                .ok_or_else(|| "`click_predicate` requires an integer `index`".to_string())?;
            Command::ClickPredicate { session: s, index: index as usize }
        }
        "undo" => Command::Undo(session()?),
        "state" => Command::State(session()?),
        "crash" => Command::Crash(session()?),
        "stream_append" => {
            let table = string_field("table")?;
            let Some(Json::Arr(items)) = value.get("rows") else {
                return Err("`stream_append` requires an array `rows`".to_string());
            };
            if items.len() > MAX_STREAM_APPEND_ROWS {
                return Err(format!(
                    "`stream_append` carries {} rows (max {MAX_STREAM_APPEND_ROWS})",
                    items.len()
                ));
            }
            let mut rows = Vec::with_capacity(items.len());
            for (i, item) in items.iter().enumerate() {
                let Json::Arr(cells) = item else {
                    return Err(format!("`stream_append` row {i} must be an array of cells"));
                };
                let row: Result<Vec<Value>, String> = cells
                    .iter()
                    .map(|c| {
                        parse_cell(c).ok_or_else(|| {
                            format!("`stream_append` row {i}: cells must be scalars")
                        })
                    })
                    .collect();
                rows.push(row?);
            }
            Command::StreamAppend { table, rows }
        }
        other => return Err(format!("unknown command `{other}`")),
    };
    Ok(Request { id, command })
}

/// Decodes one `stream_append` cell. Integral numbers become [`Value::Int`]
/// (the column layer coerces them into float and timestamp columns as
/// needed — the inverse of how replies render values); non-scalars are
/// rejected.
fn parse_cell(cell: &Json) -> Option<Value> {
    Some(match cell {
        Json::Null => Value::Null,
        Json::Bool(b) => Value::Bool(*b),
        Json::Num(n) if n.fract() == 0.0 && n.abs() <= i64::MAX as f64 => Value::Int(*n as i64),
        Json::Num(n) => Value::Float(*n),
        Json::Str(s) => Value::Str(s.clone()),
        Json::Arr(_) | Json::Obj(_) => return None,
    })
}

fn parse_brush(value: &Json) -> Result<Brush, String> {
    let edge = |name: &str, default: f64| -> Result<f64, String> {
        match value.get("brush").and_then(|b| b.get(name)) {
            None => Ok(default),
            Some(v) => v.as_f64().ok_or_else(|| format!("brush edge `{name}` must be a number")),
        }
    };
    if value.get("brush").is_some() && !matches!(value.get("brush"), Some(Json::Obj(_))) {
        return Err("`brush` must be an object".to_string());
    }
    Ok(Brush {
        x_min: edge("x_min", f64::NEG_INFINITY)?,
        x_max: edge("x_max", f64::INFINITY)?,
        y_min: edge("y_min", f64::NEG_INFINITY)?,
        y_max: edge("y_max", f64::INFINITY)?,
    })
}

/// A dispatch failure, carrying how it should render on the wire.
///
/// Ordinary request failures (bad SQL, unknown session, invalid state)
/// render exactly as they always have — `"error": "<message>"` — so no
/// existing client breaks. *Infrastructure* failures render the error as
/// an object, `{"kind", "retryable", "message"}`, because the client's
/// correct reaction depends on the kind:
///
/// * `kind:"internal"` — a handler panicked. The worker survived, the
///   session was quarantined; `retryable:false` (the same request will
///   panic again).
/// * `kind:"quarantined"` — the addressed session was poisoned by an
///   earlier panic and refuses further commands; siblings keep serving.
///   `retryable:false`: open a fresh session instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// A plain request failure; renders as the classic string `error`.
    User(String),
    /// An infrastructure failure; renders as the structured error object.
    Structured {
        /// Machine-readable failure class (`internal`, `quarantined`).
        kind: &'static str,
        /// Whether retrying the identical request could succeed.
        retryable: bool,
        /// Human-readable diagnostics.
        message: String,
    },
}

impl WireError {
    /// A handler panic caught by the isolation layer.
    pub fn internal(message: impl Into<String>) -> Self {
        WireError::Structured { kind: "internal", retryable: false, message: message.into() }
    }

    /// A command addressed to a quarantined (panic-poisoned) session.
    pub fn quarantined(message: impl Into<String>) -> Self {
        WireError::Structured { kind: "quarantined", retryable: false, message: message.into() }
    }

    /// Turns `reply` into this error's `ok:false` envelope — whatever the
    /// handler had written is discarded: the classic string `error` for
    /// user errors, the structured object for infrastructure errors.
    pub fn write_to(&self, mut reply: JsonWriter<'_>) {
        reply.fail();
        reply.key("error");
        match self {
            WireError::User(message) => reply.str(message),
            WireError::Structured { kind, retryable, message } => {
                reply.begin_object();
                reply.key("kind").str(kind);
                reply.key("message").str(message);
                reply.key("retryable").bool(*retryable);
                reply.end_object();
            }
        }
        reply.end_object();
    }
}

impl From<String> for WireError {
    fn from(message: String) -> Self {
        WireError::User(message)
    }
}

impl From<&str> for WireError {
    fn from(message: &str) -> Self {
        WireError::User(message.to_string())
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::User(message) => write!(f, "{message}"),
            WireError::Structured { kind, message, .. } => write!(f, "{kind}: {message}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_command() {
        let cases = [
            (r#"{"cmd":"ping"}"#, Command::Ping),
            (r#"{"cmd":"tables"}"#, Command::Tables),
            (r#"{"cmd":"stats"}"#, Command::Stats),
            (r#"{"cmd":"sessions"}"#, Command::Sessions),
            (r#"{"cmd":"open_session"}"#, Command::OpenSession),
            (r#"{"cmd":"close_session","session":3}"#, Command::CloseSession(3)),
            (
                r#"{"cmd":"run_query","session":1,"sql":"SELECT avg(x) FROM t"}"#,
                Command::RunQuery { session: 1, sql: "SELECT avg(x) FROM t".into() },
            ),
            (
                r#"{"cmd":"plot","session":1,"x":"w","y":"a"}"#,
                Command::Plot { session: 1, x: "w".into(), y: "a".into() },
            ),
            (
                r#"{"cmd":"zoom","session":1,"x":"w","y":"a"}"#,
                Command::Zoom { session: 1, x: "w".into(), y: "a".into() },
            ),
            (
                r#"{"cmd":"brush_outputs","session":1,"x":"w","y":"a","brush":{"y_min":8}}"#,
                Command::BrushOutputs {
                    session: 1,
                    x: "w".into(),
                    y: "a".into(),
                    brush: Brush::above(8.0),
                },
            ),
            (
                r#"{"cmd":"brush_inputs","session":1,"x":"s","y":"t","brush":{"y_max":2}}"#,
                Command::BrushInputs {
                    session: 1,
                    x: "s".into(),
                    y: "t".into(),
                    brush: Brush::below(2.0),
                },
            ),
            (
                r#"{"cmd":"metric_choices","session":1,"column":"a"}"#,
                Command::MetricChoices { session: 1, column: "a".into() },
            ),
            (
                r#"{"cmd":"set_metric","session":1,"kind":"too_high","column":"a","value":4}"#,
                Command::SetMetric { session: 1, metric: ErrorMetric::too_high("a", 4.0) },
            ),
            (r#"{"cmd":"debug","session":2}"#, Command::Debug(2)),
            (
                r#"{"cmd":"click_predicate","session":1,"index":0}"#,
                Command::ClickPredicate { session: 1, index: 0 },
            ),
            (r#"{"cmd":"undo","session":1}"#, Command::Undo(1)),
            (r#"{"cmd":"state","session":1}"#, Command::State(1)),
            (r#"{"cmd":"crash","session":1}"#, Command::Crash(1)),
            (r#"{"cmd":"shutdown"}"#, Command::Shutdown),
            (
                r#"{"cmd":"stream_append","table":"t","rows":[[1,2.5,"x",true,null]]}"#,
                Command::StreamAppend {
                    table: "t".into(),
                    rows: vec![vec![
                        Value::Int(1),
                        Value::Float(2.5),
                        Value::Str("x".into()),
                        Value::Bool(true),
                        Value::Null,
                    ]],
                },
            ),
        ];
        for (line, expected) in cases {
            let request = parse_request(line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(request.command, expected, "{line}");
            assert!(request.id.is_none());
        }
    }

    #[test]
    fn ids_are_parsed_and_echoed() {
        let request = parse_request(r#"{"cmd":"ping","id":17}"#).unwrap();
        assert_eq!(request.id, Some(Json::Num(17.0)));
        let mut out = String::new();
        let mut reply = JsonWriter::reply(&mut out, request.id.as_ref());
        reply.key("pong").bool(true);
        reply.end_object();
        assert_eq!(out, r#"{"id":17,"ok":true,"pong":true}"#);
        assert_eq!(
            rendered(&"boom".into(), request.id.as_ref()),
            r#"{"error":"boom","id":17,"ok":false}"#
        );
        assert_eq!(rendered(&"boom".into(), None), r#"{"error":"boom","ok":false}"#);
    }

    #[test]
    fn malformed_requests_are_rejected_with_reasons() {
        for (line, needle) in [
            ("not json", "invalid JSON"),
            ("[1,2]", "must be a JSON object"),
            (r#"{"session":1}"#, "missing string field `cmd`"),
            (r#"{"cmd":"warp"}"#, "unknown command"),
            (r#"{"cmd":"debug"}"#, "requires an integer `session`"),
            (r#"{"cmd":"debug","session":-1}"#, "requires an integer `session`"),
            (r#"{"cmd":"run_query","session":1}"#, "requires a string `sql`"),
            (
                r#"{"cmd":"brush_outputs","session":1,"x":"a","y":"b","brush":3}"#,
                "must be an object",
            ),
            (
                r#"{"cmd":"brush_outputs","session":1,"x":"a","y":"b","brush":{"y_min":"hi"}}"#,
                "must be a number",
            ),
            (
                r#"{"cmd":"set_metric","session":1,"kind":"odd","column":"a","value":1}"#,
                "unknown metric kind",
            ),
            (
                r#"{"cmd":"set_metric","session":1,"kind":"too_high","column":"a"}"#,
                "numeric `value`",
            ),
            (r#"{"cmd":"click_predicate","session":1}"#, "integer `index`"),
            (r#"{"cmd":"stream_append","rows":[]}"#, "requires a string `table`"),
            (r#"{"cmd":"stream_append","table":"t"}"#, "requires an array `rows`"),
            (r#"{"cmd":"stream_append","table":"t","rows":[3]}"#, "must be an array of cells"),
            (r#"{"cmd":"stream_append","table":"t","rows":[[[1]]]}"#, "cells must be scalars"),
            (r#"{"cmd":"stream_append","table":"t","rows":[[{"a":1}]]}"#, "cells must be scalars"),
        ] {
            let err = parse_request(line).unwrap_err();
            assert!(err.contains(needle), "{line}: {err}");
        }
    }

    #[test]
    fn batch_requests_parse_elementwise_with_ids() {
        let request = parse_request(
            r#"{"cmd":"batch","id":7,"commands":[{"cmd":"ping","id":0},{"cmd":"state","session":2}]}"#,
        )
        .unwrap();
        assert_eq!(request.id, Some(Json::Num(7.0)));
        let Command::Batch(commands) = request.command else { panic!("expected a batch") };
        assert_eq!(commands.len(), 2);
        assert_eq!(commands[0].command, Command::Ping);
        assert_eq!(commands[0].id, Some(Json::Num(0.0)));
        assert_eq!(commands[1].command, Command::State(2));
        assert_eq!(commands[1].id, None);
    }

    #[test]
    fn malformed_batches_are_rejected_with_reasons() {
        for (line, needle) in [
            (r#"{"cmd":"batch"}"#, "requires an array `commands`"),
            (r#"{"cmd":"batch","commands":3}"#, "requires an array `commands`"),
            (r#"{"cmd":"batch","commands":[{"cmd":"debug"}]}"#, "command 0"),
            (
                r#"{"cmd":"batch","commands":[{"cmd":"ping"},{"cmd":"batch","commands":[]}]}"#,
                "nests a batch",
            ),
        ] {
            let err = parse_request(line).unwrap_err();
            assert!(err.contains(needle), "{line}: {err}");
        }
        // The size cap is enforced before any element parses.
        let big: Vec<String> =
            (0..=MAX_BATCH_COMMANDS).map(|_| r#"{"cmd":"ping"}"#.to_string()).collect();
        let line = format!(r#"{{"cmd":"batch","commands":[{}]}}"#, big.join(","));
        assert!(parse_request(&line).unwrap_err().contains("max"));
    }

    #[test]
    fn stream_append_rows_are_capped() {
        let big: Vec<&str> = (0..=MAX_STREAM_APPEND_ROWS).map(|_| "[1]").collect();
        let line = format!(r#"{{"cmd":"stream_append","table":"t","rows":[{}]}}"#, big.join(","));
        assert!(parse_request(&line).unwrap_err().contains("max"));
    }

    #[test]
    fn wire_commands_list_is_exactly_what_the_parser_accepts() {
        // Every listed command parses (with its minimal argument shape)...
        for &cmd in WIRE_COMMANDS {
            let line = match cmd {
                "ping" | "tables" | "stats" | "sessions" | "open_session" | "shutdown" => {
                    format!(r#"{{"cmd":"{cmd}"}}"#)
                }
                "close_session" | "debug" | "undo" | "state" | "crash" => {
                    format!(r#"{{"cmd":"{cmd}","session":1}}"#)
                }
                "batch" => r#"{"cmd":"batch","commands":[]}"#.to_string(),
                "run_query" => {
                    r#"{"cmd":"run_query","session":1,"sql":"SELECT count(*) FROM t"}"#.to_string()
                }
                "plot" | "zoom" | "brush_outputs" | "brush_inputs" => {
                    format!(r#"{{"cmd":"{cmd}","session":1,"x":"a","y":"b"}}"#)
                }
                "metric_choices" => {
                    r#"{"cmd":"metric_choices","session":1,"column":"a"}"#.to_string()
                }
                "set_metric" => {
                    r#"{"cmd":"set_metric","session":1,"kind":"too_high","column":"a","value":1}"#
                        .to_string()
                }
                "click_predicate" => {
                    r#"{"cmd":"click_predicate","session":1,"index":0}"#.to_string()
                }
                "stream_append" => {
                    r#"{"cmd":"stream_append","table":"t","rows":[[1]]}"#.to_string()
                }
                other => panic!("WIRE_COMMANDS entry `{other}` has no minimal request shape"),
            };
            parse_request(&line).unwrap_or_else(|e| panic!("`{cmd}` must parse: {e}"));
        }
        // ...every listed command is distinct...
        let mut sorted: Vec<&str> = WIRE_COMMANDS.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), WIRE_COMMANDS.len(), "duplicate WIRE_COMMANDS entry");
        // ...and nothing else parses (probing a few near-misses; the
        // parser's `unknown command` arm covers the rest by construction).
        for unknown in ["pong", "query", "explain", "close", "open"] {
            assert!(parse_request(&format!(r#"{{"cmd":"{unknown}"}}"#)).is_err());
        }
    }

    #[test]
    fn every_wire_command_is_documented_in_the_protocol_reference() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/PROTOCOL.md");
        let doc = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("docs/PROTOCOL.md must exist ({e})"));
        for &cmd in WIRE_COMMANDS {
            // Each command gets a heading of its own in the reference.
            let heading = format!("### `{cmd}`");
            assert!(
                doc.contains(&heading),
                "docs/PROTOCOL.md is missing a `{heading}` section for wire command `{cmd}`"
            );
        }
        // The reply-shape contract fields are documented too.
        for needle in [
            "`busy`",
            "`cache_hit`",
            "`cached`",
            "MAX_BATCH_COMMANDS",
            "`snapshot_loads`",
            "`snapshot_saves`",
            "`bytes_on_disk`",
            "`retained`",
            "`retained_bytes`",
            "`segment_appends`",
            "`segment_bytes`",
            "`compactions`",
            "`protocol_version`",
            "`sessions_refreshed`",
            "MAX_STREAM_APPEND_ROWS",
            "`health`",
            "`degraded`",
            "`durable`",
            "`internal`",
            "`quarantined`",
            "`retryable`",
            "`read_timeout`",
            "`panics_caught`",
            "`quarantined_sessions`",
            "arm_crash_hook",
        ] {
            assert!(doc.contains(needle), "docs/PROTOCOL.md must mention {needle}");
        }
    }

    /// The reply line for `error`, written over a half-finished payload.
    fn rendered(error: &WireError, id: Option<&Json>) -> String {
        let mut out = String::new();
        let mut reply = JsonWriter::reply(&mut out, id);
        reply.key("half").str("written");
        error.write_to(reply);
        out
    }

    #[test]
    fn wire_errors_render_string_or_structured_form() {
        // The classic string form stays bit-identical for user errors.
        assert_eq!(
            rendered(&WireError::from("bad sql"), None),
            r#"{"error":"bad sql","ok":false}"#
        );
        // Infrastructure errors carry kind + retryable for the client.
        let internal = WireError::internal("handler panicked: boom");
        assert_eq!(
            rendered(&internal, Some(&Json::Num(5.0))),
            r#"{"error":{"kind":"internal","message":"handler panicked: boom","retryable":false},"id":5,"ok":false}"#
        );
        let quarantined = rendered(&WireError::quarantined("session 3 is quarantined"), None);
        assert!(quarantined.contains(r#""kind":"quarantined""#), "{quarantined}");
        assert!(quarantined.contains(r#""retryable":false"#), "{quarantined}");
        assert_eq!(internal.to_string(), "internal: handler panicked: boom");
    }

    #[test]
    fn session_accessor_covers_all_variants() {
        assert_eq!(parse_request(r#"{"cmd":"ping"}"#).unwrap().command.session(), None);
        assert_eq!(
            parse_request(r#"{"cmd":"state","session":9}"#).unwrap().command.session(),
            Some(9)
        );
        assert_eq!(
            parse_request(r#"{"cmd":"close_session","session":9}"#).unwrap().command.session(),
            Some(9)
        );
        // A batch is dispatched by the manager itself, not routed to one
        // session — its elements carry their own targets.
        assert_eq!(
            parse_request(r#"{"cmd":"batch","commands":[{"cmd":"state","session":9}]}"#)
                .unwrap()
                .command
                .session(),
            None
        );
        assert_eq!(parse_request(r#"{"cmd":"shutdown"}"#).unwrap().command.session(), None);
    }
}

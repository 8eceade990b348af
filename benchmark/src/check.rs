//! Reply checks: every reply of every workload passes through here, outside
//! the timed interval. A reply that is not `ok:true`, is `busy`, does not
//! echo its `id`, or fails its step's [`Expect`] is a failed operation.

use crate::script::{Expect, Kind, Step};
use dbwipes_server::Json;

/// Replies above this size are checked without a full JSON parse (the
/// warm workload's `zoom` reply is 4.7 MB; parsing it would double the
/// client's think time and starve the closed loop of iterations).
const LIGHT_CHECK_BYTES: usize = 1 << 20;

/// What the checks of one loop remember between steps.
#[derive(Debug, Default)]
pub struct Checker {
    /// `rows` of the last `run_query`, for `undo` to be compared with.
    rows: Option<Json>,
    /// Output rows selected by the last `brush_outputs`.
    brushed: Vec<usize>,
    /// The top-ranked predicate of the last `debug`.
    top_predicate: Option<String>,
    /// Point count of the first large `zoom` reply; later ones must match.
    zoom_points: Option<usize>,
    /// `total_rows` of the last `stream_append`.
    pub total_rows: Option<u64>,
    /// The last `debug` reply, kept for the traced run's comparison with
    /// the in-process replay and for the `core.*` stage timings.
    pub last_debug: Option<Json>,
}

fn field<'a>(reply: &'a Json, key: &str) -> Result<&'a Json, String> {
    reply.get(key).ok_or_else(|| format!("reply has no `{key}`"))
}

fn indexes(reply: &Json, key: &str) -> Result<Vec<usize>, String> {
    field(reply, key)?
        .as_array()
        .ok_or_else(|| format!("`{key}` is not an array"))?
        .iter()
        .map(|v| v.as_u64().map(|n| n as usize).ok_or_else(|| format!("`{key}` holds a non-index")))
        .collect()
}

/// True when the top predicate names the fault the generators inject:
/// sensor 15's low-voltage readings, or the FEC reattribution memo.
fn names_the_fault(predicate: &str) -> bool {
    predicate.contains("voltage <=")
        || predicate.contains("sensorid")
        || predicate.contains("REATTRIBUTION TO SPOUSE")
}

impl Checker {
    /// A checker with nothing remembered.
    pub fn new() -> Checker {
        Checker::default()
    }

    /// Checks `raw` (one reply line, newline included or not) against
    /// `step`.
    pub fn check(&mut self, step: &Step, raw: &[u8]) -> Result<(), String> {
        if step.kind == Kind::Zoom && raw.len() > LIGHT_CHECK_BYTES {
            return self.check_large_zoom(step, raw);
        }
        let text = std::str::from_utf8(raw).map_err(|e| format!("reply is not UTF-8: {e}"))?;
        let reply = Json::parse(text.trim_end()).map_err(|e| format!("reply is not JSON: {e}"))?;
        if reply.get("ok") != Some(&Json::Bool(true)) {
            let busy = if reply.get("busy") == Some(&Json::Bool(true)) { " (busy)" } else { "" };
            return Err(format!("not ok{busy}: {}", preview(text)));
        }
        if reply.get("id").and_then(Json::as_u64) != Some(step.id) {
            return Err(format!("id {} was not echoed: {}", step.id, preview(text)));
        }
        self.check_expect(step, reply).map_err(|e| format!("{e}: {}", preview(text)))
    }

    fn check_expect(&mut self, step: &Step, reply: Json) -> Result<(), String> {
        match &step.expect {
            Expect::Ok => {}
            Expect::Session(id) => {
                if field(&reply, "session")?.as_u64() != Some(*id) {
                    return Err(format!("expected session {id}"));
                }
            }
            Expect::Rows => {
                if field(&reply, "row_count")?.as_u64().unwrap_or(0) == 0 {
                    return Err("empty result".into());
                }
                self.rows = Some(field(&reply, "rows")?.clone());
            }
            Expect::Selection => {
                let selected = indexes(&reply, "selected")?;
                if selected.is_empty() {
                    return Err("the brush selected nothing".into());
                }
                if step.kind == Kind::BrushOutputs {
                    self.brushed = selected;
                }
            }
            Expect::Points => {
                let points = field(&reply, "series")?.get("points").and_then(Json::as_array);
                if points.is_none_or(<[Json]>::is_empty) {
                    return Err("empty series".into());
                }
            }
            Expect::Explained { cached, cache_hit } => {
                if field(&reply, "cached")?.as_bool() != Some(*cached) {
                    return Err(format!("expected cached:{cached}"));
                }
                if let Some(hit) = cache_hit {
                    if field(&reply, "cache_hit")?.as_bool() != Some(*hit) {
                        return Err(format!("expected cache_hit:{hit}"));
                    }
                }
                let top = field(&reply, "predicates")?
                    .as_array()
                    .and_then(<[Json]>::first)
                    .ok_or("no ranked predicates")?;
                let predicate = field(top, "predicate")?.as_str().unwrap_or_default().to_string();
                let improvement = field(top, "improvement")?.as_f64().unwrap_or(0.0);
                if !names_the_fault(&predicate) || improvement < 0.9 {
                    return Err(format!(
                        "top predicate `{predicate}` (improvement {improvement}) does not name \
                         the injected fault"
                    ));
                }
                self.top_predicate = Some(predicate);
                self.last_debug = Some(reply);
            }
            Expect::Cleaned { column, too_high, threshold } => {
                let applied = field(&reply, "applied_predicates")?.as_array().unwrap_or_default();
                let applied: Vec<&str> = applied.iter().filter_map(Json::as_str).collect();
                if applied != [self.top_predicate.as_deref().unwrap_or_default()] {
                    return Err("the applied predicate is not the top-ranked one".into());
                }
                let col = field(&reply, "columns")?
                    .as_array()
                    .and_then(|cols| cols.iter().position(|c| c.as_str() == Some(*column)))
                    .ok_or("metric column missing")?;
                let before = self.rows.as_ref().and_then(Json::as_array).ok_or("no base rows")?;
                let after = field(&reply, "rows")?.as_array().ok_or("`rows` is not an array")?;
                for &i in &self.brushed {
                    // Match by group key: cleaning may empty a group away.
                    let key = before.get(i).and_then(Json::as_array).and_then(<[Json]>::first);
                    let cleaned = after
                        .iter()
                        .filter_map(Json::as_array)
                        .find(|row| row.first() == key)
                        .and_then(|row| row.get(col))
                        .and_then(Json::as_f64);
                    let Some(value) = cleaned else { continue };
                    if (*too_high && value > *threshold) || (!*too_high && value < *threshold) {
                        return Err(format!(
                            "brushed output {i} is still erroneous after cleaning \
                             ({value} vs threshold {threshold})"
                        ));
                    }
                }
            }
            Expect::Restored => {
                if field(&reply, "applied_predicates")?.as_array().is_none_or(|a| !a.is_empty()) {
                    return Err("a predicate is still applied".into());
                }
                if reply.get("rows") != self.rows.as_ref() {
                    return Err("undo did not restore the original rows".into());
                }
            }
            Expect::Appended(rows) => {
                if field(&reply, "appended")?.as_u64() != Some(*rows as u64) {
                    return Err(format!("expected {rows} appended rows"));
                }
                if field(&reply, "durable")?.as_bool() != Some(true) {
                    return Err("append was not durable".into());
                }
                let total = field(&reply, "total_rows")?.as_u64().ok_or("no total_rows")?;
                if let Some(previous) = self.total_rows {
                    if total != previous + *rows as u64 {
                        return Err(format!("total_rows {total} is not {previous} + {rows}"));
                    }
                }
                self.total_rows = Some(total);
            }
        }
        Ok(())
    }

    /// The byte-level check of a large `zoom` reply. The server writes
    /// object keys in sorted order, so an `ok:true` reply with the echoed
    /// id has a fixed prefix.
    fn check_large_zoom(&mut self, step: &Step, raw: &[u8]) -> Result<(), String> {
        let prefix = format!(r#"{{"id":{},"ok":true,"series":{{"points":[{{"#, step.id);
        if !raw.starts_with(prefix.as_bytes()) {
            let head = String::from_utf8_lossy(&raw[..raw.len().min(160)]).into_owned();
            return Err(format!("unexpected zoom reply: {head}"));
        }
        let points = raw.windows(6).filter(|w| w == b"\"ref\":").count();
        match self.zoom_points {
            Some(expected) if expected != points => {
                Err(format!("zoom returned {points} points, earlier {expected}"))
            }
            _ => {
                self.zoom_points = Some(points);
                Ok(())
            }
        }
    }
}

fn preview(text: &str) -> String {
    let cut: String = text.chars().take(240).collect();
    if cut.len() < text.len() {
        format!("{cut}… ({} bytes)", text.len())
    } else {
        cut
    }
}

//! The benchmark's metric names: what `BENCHMARK.json` lists, what a run
//! prints, and how each value is derived from a [`WireRun`] / [`TraceRun`].

use crate::script::{Kind, Workload};
use crate::summary::{median, percentile};
use crate::trace::TraceRun;
use crate::wire::{stat, WireRun};
use dbwipes_server::Json;
use std::collections::BTreeMap;

/// A metric's name, unit and direction, as `BENCHMARK.json` declares them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// The name later performance claims cite.
    pub name: &'static str,
    /// The unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: "lower" }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: "higher" }
}

/// The gated end-to-end metrics: what an analyst (latency) or an operator
/// (memory, start-up) of the server sees. Every workload reports every one,
/// so only quantities every workload produces are here; the per-command
/// latencies only some loops contain are the `wire.*` per-layer metrics.
pub const END_TO_END: [MetricDef; 3] =
    [lower("setup_s", "s"), lower("loop_p50_ms", "ms"), lower("server_peak_rss_mb", "MB")];

/// The per-layer metrics (layer = crate[.module]) of the traced run.
pub const PER_LAYER: [MetricDef; 61] = [
    lower("wire.loop_p90_ms", "ms"),
    higher("wire.loop_samples", "count"),
    lower("wire.run_query_p50_ms", "ms"),
    lower("wire.debug_p50_ms", "ms"),
    lower("wire.debug_p90_ms", "ms"),
    lower("wire.clean_p50_ms", "ms"),
    lower("wire.zoom_p50_ms", "ms"),
    lower("wire.append_p50_ms", "ms"),
    lower("wire.append_p90_ms", "ms"),
    lower("server.wire_overhead_debug_ms", "ms"),
    lower("server.wire_overhead_zoom_ms", "ms"),
    lower("server.handle_line.debug_ms", "ms"),
    lower("server.handle_line.zoom_ms", "ms"),
    lower("server.handle_line.run_query_ms", "ms"),
    lower("server.handle_line.click_predicate_ms", "ms"),
    lower("server.handle_line.stream_append_ms", "ms"),
    higher("server.json.encode_mb_per_s", "MB/s"),
    higher("server.json.parse_mb_per_s", "MB/s"),
    lower("server.reply_bytes_per_loop", "bytes"),
    higher("server.registry.agg_hit_rate", "ratio"),
    higher("server.registry.explain_hit_rate", "ratio"),
    higher("server.registry.append_absorbs", "count"),
    lower("server.registry.evictions", "count"),
    lower("server.registry.get_or_build_ms", "ms"),
    lower("server.durability.save_table_ms", "ms"),
    lower("server.durability.bytes_written_per_appended_byte", "ratio"),
    lower("server.durability.restore_catalog_ms", "ms"),
    lower("server.durability.restart_ms", "ms"),
    lower("server.durability.disk_bytes_per_row", "bytes/row"),
    lower("server.cpu_ms_per_loop", "ms"),
    lower("server.pool.rejected", "count"),
    lower("dashboard.run_query_ms", "ms"),
    lower("dashboard.zoom_series_ms", "ms"),
    lower("dashboard.brush_inputs_ms", "ms"),
    lower("dashboard.click_predicate_ms", "ms"),
    lower("core.preprocess_ms", "ms"),
    lower("core.enumerate_ms", "ms"),
    lower("core.predicates_ms", "ms"),
    lower("core.rank_ms", "ms"),
    higher("core.stage_sum_over_debug", "ratio"),
    lower("core.candidates", "count"),
    lower("core.rank_sharded1_ms", "ms"),
    lower("core.rank_sharded4_ms", "ms"),
    higher("core.staged_over_handle_line", "ratio"),
    lower("learn.feature_extract_ms", "ms"),
    lower("learn.tree_train_ms", "ms"),
    lower("learn.subgroup_ms", "ms"),
    lower("learn.kmeans_ms", "ms"),
    lower("engine.parse_ms", "ms"),
    lower("engine.execute_ms", "ms"),
    lower("engine.cache_build_ms", "ms"),
    lower("engine.absorb_append_ms", "ms"),
    lower("engine.exclusion_query_us", "us"),
    lower("storage.kernel_num_ns_per_row", "ns/row"),
    lower("storage.kernel_str_ns_per_row", "ns/row"),
    higher("storage.bitmap_hit_rate", "ratio"),
    lower("storage.push_rows_us_per_row", "us/row"),
    higher("storage.snapshot_encode_mb_per_s", "MB/s"),
    higher("storage.snapshot_decode_mb_per_s", "MB/s"),
    lower("provenance.lineage_ms", "ms"),
    lower("data.generate_ms", "ms"),
];

fn latencies(wire: &WireRun, kind: Kind) -> &[f64] {
    wire.latencies.get(&kind).map_or(&[], Vec::as_slice)
}

/// The end-to-end values of one timed run, in [`END_TO_END`] order.
pub fn end_to_end(wire: &WireRun) -> Vec<f64> {
    vec![median(&wire.setup_s), median(&wire.loop_ms), wire.peak_rss_mb]
}

fn delta(stats: &Option<(Json, Json)>, group: &str, name: &str) -> f64 {
    stats
        .as_ref()
        .map_or(0.0, |(before, after)| stat(after, group, name) - stat(before, group, name))
}

fn rate(hits: f64, misses: f64) -> f64 {
    if hits + misses > 0.0 {
        hits / (hits + misses)
    } else {
        0.0
    }
}

/// The per-layer values of one traced run, by name: the wire-side ones from
/// `wire`, the in-process ones from `trace`. A metric the workload does not
/// exercise (no `zoom` in its loop, no data directory) reads 0.
pub fn per_layer(
    workload: Workload,
    wire: &WireRun,
    trace: &TraceRun,
) -> BTreeMap<&'static str, f64> {
    let mut m = trace.metrics.clone();
    let loops = wire.loop_ms.len().max(1) as f64;
    let warmups = workload.warmup_iterations() as usize;
    let p50 = |kind| median(latencies(wire, kind));
    let p90 = |kind| percentile(latencies(wire, kind), 90.0);

    m.insert("wire.loop_p90_ms", percentile(&wire.loop_ms, 90.0));
    m.insert("wire.loop_samples", wire.loop_ms.len() as f64);
    m.insert("wire.run_query_p50_ms", p50(Kind::RunQuery));
    m.insert("wire.debug_p50_ms", p50(Kind::Debug));
    m.insert("wire.debug_p90_ms", p90(Kind::Debug));
    m.insert("wire.clean_p50_ms", p50(Kind::ClickPredicate));
    m.insert("wire.zoom_p50_ms", p50(Kind::Zoom));
    m.insert("wire.append_p50_ms", p50(Kind::StreamAppend));
    m.insert("wire.append_p90_ms", p90(Kind::StreamAppend));

    let in_process = |name: &str| trace.metrics.get(name).copied().unwrap_or(0.0);
    let overhead = |kind, name| {
        if latencies(wire, kind).is_empty() {
            0.0
        } else {
            p50(kind) - in_process(name)
        }
    };
    m.insert("server.wire_overhead_debug_ms", overhead(Kind::Debug, "server.handle_line.debug_ms"));
    m.insert("server.wire_overhead_zoom_ms", overhead(Kind::Zoom, "server.handle_line.zoom_ms"));
    m.insert("server.reply_bytes_per_loop", wire.reply_bytes as f64 / loops);
    m.insert("server.cpu_ms_per_loop", wire.loop_cpu_ms / loops);

    let stats = &wire.stats;
    m.insert(
        "server.registry.agg_hit_rate",
        rate(delta(stats, "cache", "hits"), delta(stats, "cache", "misses")),
    );
    m.insert(
        "server.registry.explain_hit_rate",
        rate(
            delta(stats, "cache", "explanation_hits"),
            delta(stats, "cache", "explanation_misses"),
        ),
    );
    m.insert("server.registry.append_absorbs", delta(stats, "cache", "append_absorbs"));
    m.insert("server.registry.evictions", delta(stats, "cache", "evictions"));
    m.insert("server.pool.rejected", delta(stats, "pool", "rejected"));
    m.insert(
        "storage.bitmap_hit_rate",
        rate(
            delta(stats, "condition_bitmaps", "hits"),
            delta(stats, "condition_bitmaps", "misses"),
        ),
    );

    // Every durable append rewrites the whole snapshot: bytes written over
    // the loop ≈ saves × mean snapshot size, against the bytes the appended
    // rows added to it.
    let grown = delta(stats, "storage", "bytes_on_disk");
    let written = stats.as_ref().map_or(0.0, |(before, after)| {
        let size = |s| stat(s, "storage", "bytes_on_disk");
        delta(stats, "storage", "snapshot_saves") * (size(before) + size(after)) / 2.0
    });
    m.insert(
        "server.durability.bytes_written_per_appended_byte",
        if grown > 0.0 { written / grown } else { 0.0 },
    );
    m.insert("server.durability.restart_ms", median(&wire.restart_ms));
    m.insert("server.durability.disk_bytes_per_row", wire.disk_bytes_per_row);

    // The debug replies' own stage timings, timed iterations only.
    let timed = wire.debug_replies.get(warmups..).unwrap_or_default();
    let stage = |name: &str| {
        let values: Vec<f64> = timed
            .iter()
            .filter_map(|r| r.get("timings").and_then(|t| t.get(name)).and_then(Json::as_f64))
            .collect();
        median(&values)
    };
    let stages = ["preprocess_ms", "enumerate_ms", "predicates_ms", "rank_ms"].map(stage);
    m.insert("core.preprocess_ms", stages[0]);
    m.insert("core.enumerate_ms", stages[1]);
    m.insert("core.predicates_ms", stages[2]);
    m.insert("core.rank_ms", stages[3]);
    let debug_p50 = p50(Kind::Debug);
    m.insert(
        "core.stage_sum_over_debug",
        if debug_p50 > 0.0 { stages.iter().sum::<f64>() / debug_p50 } else { 0.0 },
    );
    m
}

/// The result line the harness reads: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(attempted: u64, failed: u64, metrics: &[(MetricDef, f64)]) -> String {
    let metrics = metrics
        .iter()
        .map(|(def, value)| {
            (def.name, Json::obj(vec![("value", Json::num(*value)), ("unit", Json::str(def.unit))]))
        })
        .collect();
    Json::obj(vec![
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::num(attempted as f64)),
        ("failed", Json::num(failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
    .to_string()
}

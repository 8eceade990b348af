//! The traced run: the same table built in-process from the same generator
//! configuration, the first iterations of the identical script replayed
//! through `SessionManager::handle_line`, every cold `debug` re-run stage by
//! stage through the crates' public functions, and one timed call into each
//! layer. Spans are recorded here, around the calls — the program itself is
//! not instrumented — kept in memory, and written out at the end.

use crate::check::Checker;
use crate::script::{Kind, Script, Step, Workload, APPEND_ROWS};
use crate::summary::median;
use dbwipes_core::influence::metric_aggregate;
use dbwipes_core::{
    choose_shard_column, enumerate_candidates, enumerate_predicates, rank_influence_with_cache,
    rank_predicates_sharded, rank_predicates_with_cache, ComponentTimings, DbWipes, Explanation,
    ExplanationRequest, RankedPredicate,
};
use dbwipes_dashboard::{Brush, DashboardSession};
use dbwipes_data::{generate_fec, generate_sensor, FecConfig, SensorConfig};
use dbwipes_engine::{
    execute, parse_select, AggregateArg, CacheFingerprint, ExclusionQuery, ExecOptions,
    GroupedAggregateCache, QueryResult, ShardedAggregateCache,
};
use dbwipes_learn::{
    discover_subgroups, kmeans, to_points, DecisionTree, FeatureSpace, SubgroupConfig, TreeConfig,
};
use dbwipes_server::{CacheRegistry, Json, SessionId, SessionManager, StorageRuntime};
use dbwipes_storage::{
    Catalog, Condition, ConjunctivePredicate, FsBackend, RowId, ShardedTable, StorageBackend, Table,
};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Timed iterations replayed in-process (after the warm-up ones).
pub const REPLAY_ITERATIONS: u64 = 10;
/// A layer call faster than this is repeated and its median reported.
const REPEAT_BELOW_MS: f64 = 200.0;
const REPEATS: usize = 5;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.operation`.
    pub name: String,
    /// Microseconds since the tracer was created.
    pub start_us: f64,
    /// Microseconds since the tracer was created.
    pub end_us: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The script iteration the span belongs to, shared by every span of
    /// one request.
    pub iteration: Option<u64>,
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    iteration: Option<u64>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer { epoch: Instant::now(), spans: Vec::new(), open: Vec::new(), iteration: None }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span; returns `f`'s value and the span's duration in ms.
    fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let index = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name: name.to_string(),
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
            iteration: self.iteration,
        });
        self.open.push(index);
        let value = f(self);
        self.open.pop();
        let end_us = self.now_us();
        self.spans[index].end_us = end_us;
        (value, (end_us - start_us) / 1000.0)
    }

    /// One call to a layer's public function: a span per call, repeated
    /// when cheap, the median duration in ms returned with the last value.
    fn layer<T>(&mut self, name: &str, mut f: impl FnMut() -> T) -> (T, f64) {
        let (mut value, first) = self.span(name, |_| f());
        let mut all = vec![first];
        if first < REPEAT_BELOW_MS {
            for _ in 1..REPEATS {
                let (v, ms) = self.span(name, |_| f());
                value = v;
                all.push(ms);
            }
        }
        (value, median(&all))
    }

    /// The spans as a JSON array; `self_us` is a span's duration minus the
    /// part of it its children cover.
    fn to_json(&self) -> Json {
        let mut child_us = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_us[parent] += span.end_us - span.start_us;
            }
        }
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    Json::obj(vec![
                        ("id", Json::num(i as f64)),
                        ("name", Json::str(s.name.clone())),
                        ("start_us", Json::num(s.start_us)),
                        ("end_us", Json::num(s.end_us)),
                        ("self_us", Json::num(s.end_us - s.start_us - child_us[i])),
                        ("parent", s.parent.map_or(Json::Null, |p| Json::num(p as f64))),
                        ("iteration", s.iteration.map_or(Json::Null, |n| Json::num(n as f64))),
                    ])
                })
                .collect(),
        )
    }
}

/// What the traced run found.
#[derive(Debug, Default)]
pub struct TraceRun {
    /// Per-layer metrics measured in-process, by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Replayed commands and gates attempted.
    pub attempted: u64,
    /// How many of those failed.
    pub failed: u64,
}

impl TraceRun {
    fn gate(&mut self, what: &str, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = verdict {
            self.failed += 1;
            eprintln!("benchmark: FAILED {what}: {why}");
        }
    }
}

/// The table the server generates for `workload` — the configuration of
/// `dbwipes-server`'s `demo_catalog`, which lives in the binary and cannot
/// be imported.
pub fn build_table(workload: Workload) -> Table {
    if workload.is_fec() {
        generate_fec(&FecConfig::default()).table
    } else {
        generate_sensor(&SensorConfig {
            num_readings: workload.readings(),
            failing_sensors: vec![15],
            ..SensorConfig::small()
        })
        .table
    }
}

/// A `SessionManager` serving `table` the way the binary does (registry
/// capacity 32; durable workloads attached to a seeded `data_dir`).
pub fn build_manager(table: Table, data_dir: Option<&Path>) -> Result<SessionManager, String> {
    // Open storage before registering, like the binary: opening advances
    // the identity-stamp floor.
    let runtime = match data_dir {
        Some(dir) => Some(Arc::new(StorageRuntime::open(dir).map_err(|e| e.to_string())?)),
        None => None,
    };
    let mut catalog = Catalog::new();
    catalog.register(table).map_err(|e| e.to_string())?;
    let manager = SessionManager::with_cache_capacity(catalog, 32);
    if let Some(runtime) = runtime {
        manager.attach_storage(runtime);
        manager.flush_storage();
    }
    Ok(manager)
}

fn staged_predicates(ranked: &[RankedPredicate]) -> Vec<(String, f64)> {
    ranked.iter().map(|p| (p.predicate.to_string(), p.score)).collect()
}

fn reply_predicates(reply: &Json) -> Vec<(String, f64)> {
    reply
        .get("predicates")
        .and_then(Json::as_array)
        .unwrap_or_default()
        .iter()
        .map(|p| {
            (
                p.get("predicate").and_then(Json::as_str).unwrap_or_default().to_string(),
                p.get("score").and_then(Json::as_f64).unwrap_or(f64::NAN),
            )
        })
        .collect()
}

/// What a staged explain leaves behind for the per-layer calls.
struct Staged {
    /// S, D′ and ε as the session held them.
    request: ExplanationRequest,
    explanation: Explanation,
    f_rows: Vec<RowId>,
    space: FeatureSpace,
    all_predicates: Vec<ConjunctivePredicate>,
    /// Sum of the stage spans in ms.
    stage_sum_ms: f64,
}

/// The explain pipeline of `dbwipes_core::explain_with_partitioner` at one
/// shard, stage by stage through the same public functions, one span each.
fn staged_explain(
    t: &mut Tracer,
    table: &Table,
    result: &QueryResult,
    request: &ExplanationRequest,
) -> Result<Staged, String> {
    let err = |e: dbwipes_core::CoreError| e.to_string();
    let (cache, build_ms) =
        t.span("engine.cache_build", |_| GroupedAggregateCache::build(table, &result.statement));
    let cache = cache.map_err(|e| e.to_string())?;
    let (influence, preprocess_ms) = t.span("core.preprocess", |_| {
        rank_influence_with_cache(&cache, result, &request.suspicious_outputs, &request.metric)
    });
    let influence = influence.map_err(err)?;
    let f_rows = influence.inputs();
    // The script always brushes inputs, so D′ is the user's, never derived.
    let examples = &request.suspicious_inputs;
    let (space, space_ms) = t.span("learn.feature_space_build", |_| {
        let mut exclude = request.config.exclude_columns.clone();
        if let Ok((_, call)) = metric_aggregate(result, &request.metric) {
            if let AggregateArg::Expr(e) = &call.arg {
                exclude.extend(e.columns());
            }
        }
        exclude.extend(result.statement.group_by.iter().cloned());
        FeatureSpace::build_excluding(table, &exclude, &f_rows)
    });
    let (candidates, enumerate_ms) = t.span("core.enumerate", |_| {
        enumerate_candidates(table, &space, examples, &influence, &request.config.enumerator)
    });
    let (all_predicates, predicates_ms) = t.span("core.predicates", |_| {
        let mut all = Vec::new();
        for candidate in &candidates {
            all.extend(enumerate_predicates(
                table,
                &space,
                &f_rows,
                candidate,
                &request.config.predicates,
            ));
        }
        all
    });
    let (ranked, rank_ms) = t.span("core.rank", |_| {
        // The pipeline picks a shard column even when it ranks unsharded.
        let _ = choose_shard_column(table, &all_predicates, &result.statement.group_by);
        rank_predicates_with_cache(
            &cache,
            result,
            &request.suspicious_outputs,
            examples,
            &request.metric,
            all_predicates.clone(),
            &request.config.ranker,
        )
    });
    let explanation = Explanation {
        predicates: ranked.map_err(err)?,
        base_error: influence.base_error,
        influence,
        candidates,
        timings: ComponentTimings { preprocess_ms, enumerate_ms, predicates_ms, rank_ms },
    };
    Ok(Staged {
        request: request.clone(),
        explanation,
        f_rows,
        space,
        all_predicates,
        stage_sum_ms: build_ms + preprocess_ms + space_ms + enumerate_ms + predicates_ms + rank_ms,
    })
}

fn session_of(step: &Step) -> Option<SessionId> {
    Json::parse(&step.line).ok()?.get("session")?.as_u64().map(SessionId)
}

/// Replays the script's first iterations in-process and measures each
/// layer; `wire_debugs` are the timed run's `debug` replies in script order.
/// Writes `trace-<workload>.json` under `out_dir`.
pub fn run(script: &Script, wire_debugs: &[Json], out_dir: &Path) -> Result<TraceRun, String> {
    let workload = script.workload;
    let mut t = Tracer::new();
    let mut out = TraceRun::default();

    let (table, generate_ms) = t.span("data.generate", |_| build_table(workload));
    out.metrics.insert("data.generate_ms", generate_ms);
    let data_dir = out_dir.join(format!("data-{}-trace", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    let manager = build_manager(table.clone(), workload.durable().then_some(data_dir.as_path()))?;

    // Replay: the identical request lines, through the server's own dispatch.
    let mut checker = Checker::new();
    let mut staged_first: Option<Staged> = None;
    let mut largest_reply = String::new();
    let mut debugs_seen = 0usize;
    let mut stage_ratios = Vec::new();
    let last = workload.warmup_iterations() + REPLAY_ITERATIONS;
    let mut blocks: Vec<(Option<u64>, Vec<Step>)> = vec![(None, script.prologue())];
    blocks.extend((0..last).map(|i| (Some(i), script.iteration(i))));
    if workload.durable() {
        // Its loop never explains; stage the witness explain of its epilogue.
        blocks.push((None, script.epilogue_explain(1, 90_000_000, false)));
    }
    for (iteration, steps) in blocks {
        t.iteration = iteration;
        for step in &steps {
            let timed = iteration.is_some_and(|i| i >= workload.warmup_iterations());
            let name = format!("server.handle_line.{}", step.kind.name());
            let (reply, handle_ms) = t.span(&name, |_| manager.handle_line(&step.line));
            out.attempted += 1;
            if let Err(why) = checker.check(step, reply.as_bytes()) {
                out.failed += 1;
                eprintln!("benchmark: FAILED replayed {}: {why}", step.kind.name());
                continue;
            }
            if timed && reply.len() > largest_reply.len() {
                largest_reply = reply;
            }
            if step.kind != Kind::Debug {
                continue;
            }
            let reply = checker.last_debug.take().expect("a checked debug reply");
            // Only the loop's explains are comparable: the epilogue's table
            // has grown by however many appends each side got through.
            if let (Some(wire), Some(_)) = (wire_debugs.get(debugs_seen), iteration) {
                let same = reply_predicates(wire) == reply_predicates(&reply);
                out.gate(
                    "wire debug equals in-process replay",
                    same.then_some(()).ok_or_else(|| format!("{wire} vs {reply}")),
                );
            }
            debugs_seen += 1;
            if reply.get("cached") == Some(&Json::Bool(true)) {
                continue; // the memo answered: there is no pipeline to stage
            }
            let session =
                session_of(step).and_then(|id| manager.session(id)).ok_or("no session")?;
            let session = session.lock().map_err(|_| "session lock poisoned")?;
            let dashboard = session.dashboard();
            let request = dashboard.explain_request().map_err(|e| e.to_string())?;
            let result = dashboard.result().ok_or("no result")?;
            let table = dashboard.current_table().ok_or("no table")?;
            let (staged, _) =
                t.span("staged.debug", |t| staged_explain(t, table, result, &request));
            let staged = staged?;
            let same =
                staged_predicates(&staged.explanation.predicates) == reply_predicates(&reply);
            out.gate(
                "staged predicates equal the debug reply's",
                same.then_some(()).ok_or_else(|| reply.to_string()),
            );
            stage_ratios.push(staged.stage_sum_ms / handle_ms);
            staged_first.get_or_insert(staged);
        }
    }
    t.iteration = None;

    let staged_over_handle_line = median(&stage_ratios);
    out.metrics.insert("core.staged_over_handle_line", staged_over_handle_line);
    if workload == Workload::SensorCold || workload.is_fec() {
        out.gate(
            "stage spans sum to within 10% of handle_line(debug)",
            if (0.9..=1.1).contains(&staged_over_handle_line) {
                Ok(())
            } else {
                Err(format!("ratio {staged_over_handle_line}"))
            },
        );
    }
    for (metric, kind) in [
        ("server.handle_line.debug_ms", Kind::Debug),
        ("server.handle_line.zoom_ms", Kind::Zoom),
        ("server.handle_line.run_query_ms", Kind::RunQuery),
        ("server.handle_line.click_predicate_ms", Kind::ClickPredicate),
        ("server.handle_line.stream_append_ms", Kind::StreamAppend),
    ] {
        // Timed iterations only: the spans of iterations past the warm-up.
        let name = format!("server.handle_line.{}", kind.name());
        let timed: Vec<f64> = t
            .spans
            .iter()
            .filter(|s| s.name == name && s.iteration >= Some(workload.warmup_iterations()))
            .map(|s| (s.end_us - s.start_us) / 1000.0)
            .collect();
        out.metrics.insert(metric, median(&timed));
    }
    drop(manager);

    let staged = staged_first.ok_or("the replay never ran a cold debug")?;
    // The pool the ranker scores: distinct, non-trivial candidates.
    let pool: std::collections::BTreeSet<String> = staged
        .all_predicates
        .iter()
        .filter(|p| !p.is_trivial())
        .map(ConjunctivePredicate::canonical_key)
        .collect();
    out.metrics.insert("core.candidates", pool.len() as f64);
    t.span("layers", |t| {
        layer_calls(t, script, &table, &staged, &largest_reply, &data_dir, &mut out.metrics)
    });
    let _ = std::fs::remove_dir_all(&data_dir);

    let path = out_dir.join(format!("trace-{}.json", workload.name()));
    let document = Json::obj(vec![
        ("workload", Json::str(workload.name())),
        ("seed", Json::str(script.seed.to_string())),
        ("spans", t.to_json()),
    ]);
    std::fs::write(&path, format!("{document}\n"))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("benchmark: {} spans written to {}", t.spans.len(), path.display());
    Ok(out)
}

/// One timed call into each layer's public functions, on the workload's own
/// table and the first cold explain's intermediate results.
fn layer_calls(
    t: &mut Tracer,
    script: &Script,
    table: &Table,
    staged: &Staged,
    largest_reply: &str,
    data_dir: &Path,
    metrics: &mut BTreeMap<&'static str, f64>,
) {
    let workload = script.workload;
    let fec = workload.is_fec();
    let constants = script.constants(0);
    let sql = script.sql(constants.statement);
    let rows = table.num_rows() as f64;

    // engine
    let (stmt, ms) =
        t.layer("engine.parse", || parse_select(&sql).expect("the script's SQL parses"));
    metrics.insert("engine.parse_ms", ms);
    let (result, ms) = t.layer("engine.execute", || {
        execute(table, &stmt, ExecOptions::default()).expect("the script's SQL executes")
    });
    metrics.insert("engine.execute_ms", ms);
    let shared = Arc::new(table.clone());
    let (cache, ms) = t.layer("engine.cache_build", || {
        GroupedAggregateCache::build_shared(Arc::clone(&shared), &stmt).expect("cache builds")
    });
    metrics.insert("engine.cache_build_ms", ms);
    let batch: Vec<_> =
        (0..APPEND_ROWS).map(|i| table.row(RowId(i)).expect("tables exceed one batch")).collect();
    // A clone's columns have no spare capacity, so its first append
    // reallocates every column; the steady state is the second one.
    let mut grown = table.clone();
    grown.push_rows(batch.clone()).expect("rows copied from the table are valid");
    let once = Arc::new(grown.clone());
    let (_, ms) = t.span("storage.push_rows", |_| {
        grown.push_rows(batch).expect("rows copied from the table are valid")
    });
    metrics.insert("storage.push_rows_us_per_row", ms * 1000.0 / APPEND_ROWS as f64);
    let mut absorbing = cache;
    let (_, absorb_ms) = t.span("engine.absorb_append", |_| {
        absorbing.absorb_append_shared(once).expect("a pure append absorbs")
    });
    metrics.insert("engine.absorb_append_ms", absorb_ms);
    let cache = GroupedAggregateCache::build(table, &stmt).expect("cache builds");
    let top = &staged.explanation.predicates[0].predicate;
    let matched = top.compile(table).expect("ranked predicates compile").eval_columns().trues;
    let keys: Vec<_> = result.group_keys.clone();
    let (_, ms) = t.layer("engine.exclusion_query", || {
        cache.result(&ExclusionQuery::new().excluding_set(&matched).for_keys(&keys))
    });
    metrics.insert("engine.exclusion_query_us", ms * 1000.0);

    // provenance: the lineage lookup behind `zoom` and the explain's F.
    let brushed = &staged.request.suspicious_outputs;
    let (_, ms) = t.layer("provenance.lineage", || result.inputs_of_rows(brushed));
    metrics.insert("provenance.lineage_ms", ms);

    // storage kernels
    let numeric =
        if fec { Condition::at_most("amount", 0.0) } else { Condition::at_most("voltage", 2.0) };
    let kernel = |condition: &Condition| {
        ConjunctivePredicate::new(vec![condition.clone()])
            .compile(table)
            .expect("kernel conditions compile")
            .eval_columns()
    };
    let (_, ms) = t.layer("storage.kernel_num", || kernel(&numeric));
    metrics.insert("storage.kernel_num_ns_per_row", ms * 1e6 / rows);
    let text_ns = if fec {
        let like = Condition::contains("memo", "REATTRIBUTION TO SPOUSE");
        t.layer("storage.kernel_str", || kernel(&like)).1 * 1e6 / rows
    } else {
        0.0 // the sensor table has no string column
    };
    metrics.insert("storage.kernel_str_ns_per_row", text_ns);

    // storage + server::durability: one snapshot out and back.
    let snapshots = data_dir.join("layers-fs");
    let backend = FsBackend::open(&snapshots).expect("scratch dir opens");
    let (bytes, ms) =
        t.span("storage.snapshot_encode", |_| backend.save_table(table).expect("saves"));
    metrics.insert("storage.snapshot_encode_mb_per_s", bytes as f64 / 1e6 / (ms / 1000.0));
    let (_, ms) =
        t.span("storage.snapshot_decode", |_| backend.load_table(table.id()).expect("loads"));
    metrics.insert("storage.snapshot_decode_mb_per_s", bytes as f64 / 1e6 / (ms / 1000.0));
    let durable = data_dir.join("layers-runtime");
    let runtime = StorageRuntime::open(&durable).expect("scratch dir opens");
    let (_, ms) =
        t.span("server.durability.save_table", |_| runtime.save_table(table).expect("saves"));
    metrics.insert("server.durability.save_table_ms", ms);
    drop(runtime);
    let (_, ms) = t.span("server.durability.restore_catalog", |_| {
        StorageRuntime::open(&durable).and_then(|r| r.restore_catalog()).expect("restores")
    });
    metrics.insert("server.durability.restore_catalog_ms", ms);

    // server: JSON and the registry's hit path.
    let parsed = Json::parse(largest_reply).expect("replies are JSON");
    let (_, ms) = t.layer("server.json.encode", || parsed.to_string());
    metrics.insert("server.json.encode_mb_per_s", largest_reply.len() as f64 / 1e6 / (ms / 1000.0));
    let line = script.append_line(0);
    let (_, ms) = t.layer("server.json.parse", || Json::parse(&line).expect("requests are JSON"));
    metrics.insert("server.json.parse_mb_per_s", line.len() as f64 / 1e6 / (ms / 1000.0));
    let registry = CacheRegistry::new(32);
    let build = || GroupedAggregateCache::build_shared(Arc::clone(&shared), &stmt);
    registry.get_or_build(CacheFingerprint::of(&shared, &stmt), build).expect("cache builds");
    let (_, ms) = t.layer("server.registry.get_or_build", || {
        registry.get_or_build(CacheFingerprint::of(&shared, &stmt), build).expect("a hit")
    });
    metrics.insert("server.registry.get_or_build_ms", ms);

    // learn: the four learners on F and the first candidate's labels.
    let f_rows = &staged.f_rows;
    let (dataset, ms) = t.layer("learn.feature_extract", || staged.space.extract(table, f_rows));
    metrics.insert("learn.feature_extract_ms", ms);
    let positive: std::collections::BTreeSet<RowId> =
        staged.explanation.candidates[0].rows.iter().copied().collect();
    let labels: Vec<bool> = f_rows.iter().map(|r| positive.contains(r)).collect();
    let (_, ms) = t.layer("learn.tree_train", || {
        DecisionTree::train(&dataset, &labels, TreeConfig::default())
    });
    metrics.insert("learn.tree_train_ms", ms);
    let (_, ms) = t.layer("learn.subgroup", || {
        discover_subgroups(&dataset, &labels, &SubgroupConfig::default())
    });
    metrics.insert("learn.subgroup_ms", ms);
    let examples = &staged.request.suspicious_inputs;
    let points = to_points(&staged.space.extract(table, examples));
    let (_, ms) = t.layer("learn.kmeans", || kmeans(&points, 2, 50, 7));
    metrics.insert("learn.kmeans_ms", ms);

    // core: the sharded ranker at 1 and 4 shards on the same candidate pool.
    let metric = &staged.request.metric;
    let column = choose_shard_column(table, &staged.all_predicates, &stmt.group_by)
        .expect("tables have columns");
    for (name, key, shards) in [
        ("core.rank_sharded1", "core.rank_sharded1_ms", 1),
        ("core.rank_sharded4", "core.rank_sharded4_ms", 4),
    ] {
        let sharded = Arc::new(ShardedTable::hash(table, &column, shards).expect("partitions"));
        let shard_cache = ShardedAggregateCache::build(sharded, &stmt).expect("shard caches build");
        let (_, ms) = t.layer(name, || {
            rank_predicates_sharded(
                &shard_cache,
                &result,
                brushed,
                examples,
                metric,
                staged.all_predicates.clone(),
                &staged.request.config.ranker,
            )
            .expect("ranks")
        });
        metrics.insert(key, ms);
    }

    // dashboard: the session calls without JSON or the wire.
    let mut catalog = Catalog::new();
    catalog.register(table.clone()).expect("fresh catalog");
    let mut session = DashboardSession::new(DbWipes::with_catalog(catalog));
    let (_, ms) =
        t.span("dashboard.run_query", |_| session.run_query(&sql).map(|_| ()).expect("runs"));
    metrics.insert("dashboard.run_query_ms", ms);
    let (group_x, group_y) = workload.group_axes();
    let (tuple_x, tuple_y) = workload.tuple_axes();
    let brush = |edge: f64| if fec { Brush::below(edge) } else { Brush::above(edge) };
    session.brush_outputs(group_x, group_y, brush(constants.brush_outputs));
    let (_, ms) = t.layer("dashboard.zoom_series", || session.zoom(tuple_x, tuple_y));
    metrics.insert("dashboard.zoom_series_ms", ms);
    let (_, ms) = t.span("dashboard.brush_inputs", |_| {
        session.brush_inputs(tuple_x, tuple_y, brush(constants.brush_inputs))
    });
    metrics.insert("dashboard.brush_inputs_ms", ms);
    session.set_metric(metric.clone());
    session.install_explanation(staged.explanation.clone()).expect("the session is explainable");
    let (_, ms) = t.span("dashboard.click_predicate", |_| {
        session.click_predicate(0).map(|_| ()).expect("cleans")
    });
    metrics.insert("dashboard.click_predicate_ms", ms);
}

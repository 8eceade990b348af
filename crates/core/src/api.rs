//! The DBWipes backend facade.
//!
//! [`DbWipes`] owns the catalog and exposes the end-to-end loop of Figure 1:
//! execute a query, accept the user's selections (S, D′, ε), and run the
//! backend pipeline — Preprocessor → Dataset Enumerator → Predicate
//! Enumerator → Predicate Ranker — returning a ranked list of predicates
//! together with per-component timings (used by the latency-breakdown
//! experiment E4).

use crate::enumerator::{enumerate_candidates, CandidateDataset, EnumeratorConfig};
use crate::error::CoreError;
use crate::influence::{metric_aggregate, rank_influence_with_cache, InfluenceReport};
use crate::metric::ErrorMetric;
use crate::predicates::{enumerate_predicates, PredicateEnumConfig};
use crate::ranker::{rank_predicates_with_cache, RankedPredicate, RankerConfig};
use dbwipes_engine::{
    execute_on_catalog, parse_select, AggregateArg, ExecOptions, GroupedAggregateCache, QueryResult,
};
use dbwipes_learn::FeatureSpace;
use dbwipes_storage::{Catalog, Condition, ConjunctivePredicate, RowId, Table};
use std::time::Instant;

/// End-to-end configuration of an explanation request.
#[derive(Debug, Clone)]
pub struct ExplainConfig {
    /// Dataset Enumerator parameters.
    pub enumerator: EnumeratorConfig,
    /// Predicate Enumerator parameters.
    pub predicates: PredicateEnumConfig,
    /// Predicate Ranker weights.
    pub ranker: RankerConfig,
    /// Additional columns to exclude from the learned feature space (the
    /// aggregated and group-by columns are always excluded).
    pub exclude_columns: Vec<String>,
}

impl Default for ExplainConfig {
    fn default() -> Self {
        ExplainConfig::standard()
    }
}

impl ExplainConfig {
    /// The default configuration used by the dashboard.
    pub fn standard() -> Self {
        ExplainConfig {
            enumerator: EnumeratorConfig::default(),
            predicates: PredicateEnumConfig::default(),
            ranker: RankerConfig::default(),
            exclude_columns: Vec::new(),
        }
    }
}

/// Wall-clock time spent in each backend component (milliseconds).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ComponentTimings {
    /// Preprocessor (F computation + leave-one-out influence).
    pub preprocess_ms: f64,
    /// Dataset Enumerator (cleaning + subgroup discovery).
    pub enumerate_ms: f64,
    /// Predicate Enumerator (decision trees + text mining).
    pub predicates_ms: f64,
    /// Predicate Ranker (per-predicate what-if re-execution).
    pub rank_ms: f64,
}

impl ComponentTimings {
    /// Total time across the four components.
    pub fn total_ms(&self) -> f64 {
        self.preprocess_ms + self.enumerate_ms + self.predicates_ms + self.rank_ms
    }
}

/// A ranked-provenance request: "Query, S, D′, ε" flowing from the frontend
/// to the backend in Figure 1.
#[derive(Debug, Clone)]
pub struct ExplanationRequest {
    /// Indices of the suspicious output rows (S), referring to the query
    /// result being explained.
    pub suspicious_outputs: Vec<usize>,
    /// The user's example suspicious input rows (D′). May be empty, in which
    /// case the top-influence tuples are used as examples.
    pub suspicious_inputs: Vec<RowId>,
    /// The error metric ε.
    pub metric: ErrorMetric,
    /// Pipeline configuration.
    pub config: ExplainConfig,
}

impl ExplanationRequest {
    /// A request with the standard configuration.
    pub fn new(
        suspicious_outputs: Vec<usize>,
        suspicious_inputs: Vec<RowId>,
        metric: ErrorMetric,
    ) -> Self {
        ExplanationRequest {
            suspicious_outputs,
            suspicious_inputs,
            metric,
            config: ExplainConfig::standard(),
        }
    }
}

/// The backend's answer: ranked predicates plus the evidence behind them.
#[derive(Debug, Clone)]
pub struct Explanation {
    /// Ranked predicates, best first (Figure 6).
    pub predicates: Vec<RankedPredicate>,
    /// The Preprocessor's influence report over F.
    pub influence: InfluenceReport,
    /// The candidate datasets the Dataset Enumerator produced.
    pub candidates: Vec<CandidateDataset>,
    /// Per-component wall-clock timings.
    pub timings: ComponentTimings,
    /// ε over the selected outputs before cleaning.
    pub base_error: f64,
}

impl Explanation {
    /// The best predicate, if any.
    pub fn best(&self) -> Option<&RankedPredicate> {
        self.predicates.first()
    }

    /// Renders the ranked predicates as a numbered list (the dashboard's
    /// right-hand panel).
    pub fn to_display(&self) -> String {
        if self.predicates.is_empty() {
            return "(no predicates found)".to_string();
        }
        self.predicates
            .iter()
            .enumerate()
            .map(|(i, p)| format!("{:2}. {}", i + 1, p.summary()))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// The DBWipes backend: a catalog plus the ranked-provenance pipeline.
#[derive(Debug, Default)]
pub struct DbWipes {
    catalog: Catalog,
}

impl DbWipes {
    /// Creates an empty instance.
    pub fn new() -> Self {
        DbWipes { catalog: Catalog::new() }
    }

    /// Creates an instance over an existing catalog.
    pub fn with_catalog(catalog: Catalog) -> Self {
        DbWipes { catalog }
    }

    /// Registers a table (fails if the name is taken).
    pub fn register(&mut self, table: Table) -> Result<(), CoreError> {
        self.catalog.register(table).map_err(CoreError::from)
    }

    /// The underlying catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Mutable access to the underlying catalog.
    pub fn catalog_mut(&mut self) -> &mut Catalog {
        &mut self.catalog
    }

    /// Parses and executes an aggregate SQL query with lineage capture.
    pub fn query(&self, sql: &str) -> Result<QueryResult, CoreError> {
        let stmt = parse_select(sql)?;
        execute_on_catalog(&self.catalog, &stmt, ExecOptions::default()).map_err(CoreError::from)
    }

    /// Runs the ranked-provenance pipeline for a previously executed query
    /// result.
    pub fn explain(
        &self,
        result: &QueryResult,
        request: &ExplanationRequest,
    ) -> Result<Explanation, CoreError> {
        let table = self.catalog.table(&result.statement.table)?;
        explain_on_table(table, result, request)
    }
}

/// Runs the full backend pipeline against an explicit table (the facade's
/// [`DbWipes::explain`] resolves the table from its catalog and calls this).
pub fn explain_on_table(
    table: &Table,
    result: &QueryResult,
    request: &ExplanationRequest,
) -> Result<Explanation, CoreError> {
    // The incremental re-aggregation cache is built once here (one
    // statement execution), shared between the Preprocessor and the
    // Predicate Ranker, and dropped with the call — its build cost is
    // charged to the Preprocessor. Callers that keep caches alive across
    // explains (the server's cross-brush registry) build the cache
    // themselves and call [`explain_with_cache`] directly.
    let start = Instant::now();
    let cache = GroupedAggregateCache::build(table, &result.statement)?;
    let build_ms = start.elapsed().as_secs_f64() * 1000.0;
    let mut explanation = explain_with_cache(&cache, result, request)?;
    explanation.timings.preprocess_ms += build_ms;
    Ok(explanation)
}

/// Picks a shard column for
/// [`rank_predicates_sharded`](crate::rank_predicates_sharded), from the
/// candidate pool itself: the first equality-tested column (`=` or `IN`)
/// among the candidates. Falls back to the first resolvable GROUP BY
/// column, then to the table's first column. `None` only for a
/// column-less schema. Exists for the benchmark: its two
/// `core.rank_sharded*` metrics call it, and since nothing is partitioned
/// any more the column it picks changes no ranking.
pub fn choose_shard_column(
    table: &Table,
    predicates: &[ConjunctivePredicate],
    group_by: &[String],
) -> Option<String> {
    let resolvable = |name: &str| table.schema().resolve(name).is_ok();
    for predicate in predicates {
        for condition in predicate.conditions() {
            if matches!(condition, Condition::Equals { .. } | Condition::InSet { .. })
                && resolvable(condition.column())
            {
                return Some(condition.column().to_string());
            }
        }
    }
    if let Some(g) = group_by.iter().find(|g| resolvable(g)) {
        return Some(g.clone());
    }
    table.schema().field_at(0).map(|f| f.name.clone())
}

/// Runs the full backend pipeline over an externally-owned
/// [`GroupedAggregateCache`] (which carries the table it was built from).
///
/// The cache must answer for exactly the statement of `result`; a cache
/// built for a different statement would silently score candidates against
/// the wrong query, so the mismatch is rejected up front. On a cache hit
/// the pipeline skips the one-full-execution build cost — the point of
/// keeping caches alive across brushes and repeated explains.
pub fn explain_with_cache(
    cache: &GroupedAggregateCache<'_>,
    result: &QueryResult,
    request: &ExplanationRequest,
) -> Result<Explanation, CoreError> {
    if cache.statement() != &result.statement {
        return Err(CoreError::invalid(format!(
            "cache was built for `{}` but the result being explained ran `{}`",
            cache.statement().to_sql(),
            result.statement.to_sql()
        )));
    }
    let table = cache.table();

    // 1. Preprocessor.
    let start = Instant::now();
    let influence =
        rank_influence_with_cache(cache, result, &request.suspicious_outputs, &request.metric)?;
    let preprocess_ms = start.elapsed().as_secs_f64() * 1000.0;

    let f_rows = influence.inputs();

    // D′ for the ranker's agreement score: the user's examples, or the
    // top-influence tuples when none were given. The Dataset Enumerator
    // receives the *user's* (possibly empty) D′ below — fabricating a small
    // capped D′ there would label only a sliver of each true error group
    // positive and starve the decision trees of positive leaves; the
    // enumerator instead falls back to the full influence ranking.
    let examples: Vec<RowId> = if request.suspicious_inputs.is_empty() {
        let k = ((f_rows.len() as f64 * 0.05).ceil() as usize).clamp(1, 50);
        influence.influences.iter().filter(|t| t.influence > 0.0).take(k).map(|t| t.row).collect()
    } else {
        request.suspicious_inputs.clone()
    };
    if examples.is_empty() {
        return Err(CoreError::invalid(
            "no suspicious inputs were provided and no tuple has positive influence on the error",
        ));
    }

    // Feature space over the explainable attributes. The aggregated measure
    // column (`temp` for `avg(temp)`) is left out: "temp > 100" trivially
    // removes high values without explaining *which* inputs are at fault.
    // So are the group-by columns: a predicate naming the suspicious group
    // itself is not an explanation.
    let mut exclude = request.config.exclude_columns.clone();
    if let Ok((_, call)) = metric_aggregate(result, &request.metric) {
        if let AggregateArg::Expr(e) = &call.arg {
            exclude.extend(e.columns());
        }
    }
    exclude.extend(result.statement.group_by.iter().cloned());
    let space = FeatureSpace::build_excluding(table, &exclude, &f_rows);

    // 2. Dataset Enumerator.
    let start = Instant::now();
    let candidates = enumerate_candidates(
        table,
        &space,
        &request.suspicious_inputs,
        &influence,
        &request.config.enumerator,
    );
    let enumerate_ms = start.elapsed().as_secs_f64() * 1000.0;

    // 3. Predicate Enumerator.
    let start = Instant::now();
    let mut all_predicates = Vec::new();
    for candidate in &candidates {
        all_predicates.extend(enumerate_predicates(
            table,
            &space,
            &f_rows,
            candidate,
            &request.config.predicates,
        ));
    }
    let predicates_ms = start.elapsed().as_secs_f64() * 1000.0;

    // 4. Predicate Ranker, scoring over the Preprocessor's cache.
    let start = Instant::now();
    let ranked = rank_predicates_with_cache(
        cache,
        result,
        &request.suspicious_outputs,
        &examples,
        &request.metric,
        all_predicates,
        &request.config.ranker,
    )?;
    let rank_ms = start.elapsed().as_secs_f64() * 1000.0;

    Ok(Explanation {
        predicates: ranked,
        base_error: influence.base_error,
        influence,
        candidates,
        timings: ComponentTimings { preprocess_ms, enumerate_ms, predicates_ms, rank_ms },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbwipes_data::{generate_sensor, SensorConfig};
    use dbwipes_storage::Value;

    fn sensor_dbwipes() -> (DbWipes, dbwipes_data::SensorDataset) {
        let ds = generate_sensor(&SensorConfig {
            num_readings: 5_400,
            failing_sensors: vec![15],
            ..SensorConfig::small()
        });
        let mut db = DbWipes::new();
        db.register(ds.table.clone()).unwrap();
        (db, ds)
    }

    #[test]
    fn end_to_end_sensor_explanation_names_the_failing_sensor() {
        let (db, ds) = sensor_dbwipes();
        let result = db.query(&ds.window_query()).unwrap();
        assert!(result.len() > 1);

        // S = windows with suspiciously high temperature spread, exactly how
        // Figure 4's user brushes the high-stddev points.
        let std_col = result.column_index("std_temp").unwrap();
        let suspicious: Vec<usize> = (0..result.len())
            .filter(|&i| result.rows[i][std_col].as_f64().unwrap_or(0.0) > 8.0)
            .collect();
        assert!(!suspicious.is_empty());

        // D' = a few corrupted readings from those windows.
        let examples: Vec<RowId> = ds.error_rows().into_iter().take(8).collect();
        let metric = ErrorMetric::too_high("std_temp", 4.0);
        let request = ExplanationRequest::new(suspicious, examples, metric);
        let explanation = db.explain(&result, &request).unwrap();

        assert!(explanation.base_error > 0.0);
        assert!(!explanation.predicates.is_empty());
        assert!(!explanation.candidates.is_empty());
        assert!(explanation.timings.total_ms() > 0.0);
        let best = explanation.best().unwrap();
        assert!(
            best.predicate.to_string().contains("sensorid")
                || best.predicate.to_string().contains("voltage"),
            "best predicate: {}",
            best.predicate
        );
        assert!(best.improvement > 0.5, "best = {}", best.summary());
        assert!(explanation.to_display().contains("1."));
    }

    #[test]
    fn explanation_without_examples_derives_them_from_influence() {
        let (db, ds) = sensor_dbwipes();
        let result = db.query(&ds.window_query()).unwrap();
        let std_col = result.column_index("std_temp").unwrap();
        let suspicious: Vec<usize> = (0..result.len())
            .filter(|&i| result.rows[i][std_col].as_f64().unwrap_or(0.0) > 8.0)
            .collect();
        let request =
            ExplanationRequest::new(suspicious, Vec::new(), ErrorMetric::too_high("std_temp", 4.0));
        let explanation = db.explain(&result, &request).unwrap();
        assert!(!explanation.predicates.is_empty());
        assert!(explanation.best().unwrap().improvement > 0.3);
    }

    #[test]
    fn external_cache_matches_internal_build_and_rejects_mismatches() {
        let (db, ds) = sensor_dbwipes();
        let result = db.query(&ds.window_query()).unwrap();
        let std_col = result.column_index("std_temp").unwrap();
        let suspicious: Vec<usize> = (0..result.len())
            .filter(|&i| result.rows[i][std_col].as_f64().unwrap_or(0.0) > 8.0)
            .collect();
        let examples: Vec<RowId> = ds.error_rows().into_iter().take(8).collect();
        let request =
            ExplanationRequest::new(suspicious, examples, ErrorMetric::too_high("std_temp", 4.0));

        let table = db.catalog().table("readings").unwrap();
        let cache = GroupedAggregateCache::build(table, &result.statement).unwrap();
        let external = explain_with_cache(&cache, &result, &request).unwrap();
        let internal = db.explain(&result, &request).unwrap();
        assert_eq!(external.predicates.len(), internal.predicates.len());
        for (a, b) in external.predicates.iter().zip(&internal.predicates) {
            assert_eq!(a.predicate, b.predicate);
            assert_eq!(a.score, b.score);
        }
        assert_eq!(external.base_error, internal.base_error);

        // A cache built for a different statement must be rejected, not
        // silently scored against the wrong query.
        let other = db.query("SELECT sensorid, avg(temp) FROM readings GROUP BY sensorid").unwrap();
        let err = explain_with_cache(&cache, &other, &request).unwrap_err();
        assert!(err.to_string().contains("cache was built for"), "{err}");
    }

    /// A fault that *is* a BOOLEAN column: the learners split `flag` as a
    /// number, the predicate says `flag = TRUE` — an expression the
    /// validator accepts, so both ways of clicking it work.
    #[test]
    fn a_boolean_fault_is_explained_as_an_equality_and_can_be_clicked() {
        use dbwipes_storage::{DataType, Schema, Table};
        let schema = Schema::of(&[
            ("hour", DataType::Int),
            ("flag", DataType::Bool),
            ("reading", DataType::Float),
        ]);
        let mut table = Table::new("t", schema).unwrap();
        for i in 0..600i64 {
            let (hour, flagged) = (i % 6, i % 6 == 4 && i % 5 < 2);
            // Tenths around 20, and 95 on the flagged rows of hour 4.
            let reading = if flagged { 95.0 } else { 20.0 + (i % 7) as f64 / 10.0 };
            table
                .push_row(vec![Value::Int(hour), Value::Bool(flagged), Value::Float(reading)])
                .unwrap();
        }
        let sql = "SELECT hour, avg(reading) AS mean FROM t GROUP BY hour ORDER BY hour";
        let stmt = dbwipes_engine::parse_select(sql).unwrap();
        let result = dbwipes_engine::execute(&table, &stmt, Default::default()).unwrap();
        let flagged: Vec<RowId> = (0..600).filter(|i| i % 6 == 4 && i % 5 < 2).map(RowId).collect();
        let request =
            ExplanationRequest::new(vec![4], flagged, ErrorMetric::too_high("mean", 25.0));
        let explanation = explain_on_table(&table, &result, &request).unwrap();
        let best = explanation.best().unwrap();
        assert_eq!(best.predicate.to_string(), "flag = TRUE", "{}", explanation.to_display());
        assert!(best.improvement > 0.99, "{}", best.summary());

        let mut cleaning = crate::CleaningSession::new(stmt.clone());
        cleaning.apply(best.predicate.clone());
        let executed = cleaning.execute(&table).unwrap();
        let cache = GroupedAggregateCache::build(&table, &stmt).unwrap();
        let cached = cleaning.execute_with_cache(&cache).unwrap();
        assert!(executed.value_f64(4, "mean").unwrap().unwrap() < 21.0);
        assert_eq!(format!("{:?}", cached.rows), format!("{:?}", executed.rows));
        assert_eq!(cached.statement, executed.statement);
        assert_eq!(cached.inputs_of(4), executed.inputs_of(4));
    }

    #[test]
    fn shard_column_prefers_equality_tested_candidates() {
        let (db, _) = sensor_dbwipes();
        let table = db.catalog().table("readings").unwrap();

        // First equality-tested candidate column wins, even when it is not
        // the first condition of the first predicate.
        let candidates = vec![
            ConjunctivePredicate::new(vec![Condition::at_least("temp", 80.0)]),
            ConjunctivePredicate::new(vec![
                Condition::at_least("voltage", 2.0),
                Condition::equals("sensorid", 15),
            ]),
        ];
        assert_eq!(
            choose_shard_column(table, &candidates, &["window".to_string()]),
            Some("sensorid".to_string())
        );

        // No equality condition anywhere: fall back to the first resolvable
        // GROUP BY column (skipping columns the table does not have).
        let ranges = vec![ConjunctivePredicate::new(vec![Condition::at_least("temp", 80.0)])];
        assert_eq!(
            choose_shard_column(table, &ranges, &["nope".to_string(), "window".to_string()]),
            Some("window".to_string())
        );

        // Nothing usable at all: first schema column.
        let first = table.schema().field_at(0).unwrap().name.clone();
        assert_eq!(choose_shard_column(table, &[], &[]), Some(first.clone()));

        // Unresolvable equality columns are skipped, not blindly chosen.
        let phantom = vec![ConjunctivePredicate::new(vec![Condition::equals("ghost", 1)])];
        assert_eq!(choose_shard_column(table, &phantom, &[]), Some(first));
    }

    #[test]
    fn no_error_and_no_examples_is_rejected() {
        let (db, ds) = sensor_dbwipes();
        let result = db.query(&ds.window_query()).unwrap();
        // Metric threshold far above everything: no tuple has positive influence.
        let request = ExplanationRequest::new(
            vec![0],
            Vec::new(),
            ErrorMetric::too_high("std_temp", 10_000.0),
        );
        assert!(db.explain(&result, &request).is_err());
    }

    #[test]
    fn facade_accessors() {
        let (mut db, _) = sensor_dbwipes();
        assert!(db.catalog().contains("readings"));
        assert_eq!(db.catalog().len(), 1);
        db.catalog_mut()
            .table_mut("readings")
            .unwrap()
            .push_row(vec![
                Value::Int(0),
                Value::Timestamp(0),
                Value::Int(0),
                Value::Int(0),
                Value::Float(20.0),
                Value::Float(40.0),
                Value::Float(100.0),
                Value::Float(2.7),
            ])
            .unwrap();
        let db2 = DbWipes::with_catalog(db.catalog().clone());
        assert!(db2.catalog().contains("readings"));
        assert!(db2.query("SELECT avg(temp) FROM readings").is_ok());
        assert!(db2.query("SELECT avg(temp) FROM missing").is_err());
        assert!(db2.query("not sql").is_err());
    }
}

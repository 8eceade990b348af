//! The interactive clean-as-you-query session.
//!
//! This is the headless equivalent of the DBWipes dashboard's control flow
//! (Figure 1, top): execute a query → visualize the results → select
//! suspicious results S → zoom in and select suspicious inputs D′ → pick an
//! error metric ε → receive ranked predicates → click a predicate to clean
//! the query → repeat. Every state transition of the web UI has a method
//! here, which is what the examples and the walkthrough experiments drive.

use crate::forms::error_form_choices;
use crate::scatter::{
    result_series, zoom_points, zoom_series, Brush, PointRef, ScatterSeries, ZoomPoints,
};
use dbwipes_core::{
    explain_with_cache, CleaningSession, CoreError, DbWipes, ErrorMetric, ExplainConfig,
    Explanation, ExplanationRequest, RankedPredicate,
};
use dbwipes_engine::{CacheFingerprint, GroupedAggregateCache, QueryResult, SelectStatement};
use dbwipes_storage::{RowId, Table};
use std::fmt;
use std::sync::Arc;

/// Where a session's `debug`, click, undo and append refresh get the
/// [`GroupedAggregateCache`] of a statement over a table snapshot: the one
/// store every step of the loop reads its provenance from. A session built
/// by [`DashboardSession::new`] builds on demand and keeps the base
/// statement's cache and the last other one it built; the server's
/// sessions read its shared registry.
pub trait CacheSource: fmt::Debug + Send {
    /// The cache of `stmt` over `table`, and whether the source already
    /// had it (`false` when it was built for this call).
    fn cache(
        &mut self,
        table: &Arc<Table>,
        stmt: &SelectStatement,
    ) -> Result<(Arc<GroupedAggregateCache>, bool), CoreError>;
}

/// A session's cache source.
#[derive(Debug)]
enum Source {
    /// [`DashboardSession::new`]'s: builds a cache when asked for one it
    /// does not hold and keeps two — the base statement's, which click,
    /// undo and the append refresh read, and the last other one a `debug`
    /// of a cleaned result read — so a round of `debug`, click and undo
    /// builds neither twice. Both are dropped when `run_query` replaces
    /// the base statement.
    OnDemand { base: Option<Arc<GroupedAggregateCache>>, other: Option<Arc<GroupedAggregateCache>> },
    /// [`DashboardSession::with_cache_source`]'s.
    Given(Box<dyn CacheSource>),
}

impl Source {
    /// The cache of `stmt` over `table`; `is_base` says whether `stmt` is
    /// the base statement.
    fn cache(
        &mut self,
        table: &Arc<Table>,
        stmt: &SelectStatement,
        is_base: bool,
    ) -> Result<(Arc<GroupedAggregateCache>, bool), CoreError> {
        let kept = match self {
            Source::Given(source) => return source.cache(table, stmt),
            Source::OnDemand { base, .. } if is_base => base,
            Source::OnDemand { other, .. } => other,
        };
        let fingerprint = CacheFingerprint::of(table, stmt);
        if let Some(cache) = kept.as_ref().filter(|c| c.fingerprint() == fingerprint) {
            return Ok((Arc::clone(cache), true));
        }
        // One cache a slot, also while the next one is built.
        *kept = None;
        let cache = Arc::new(GroupedAggregateCache::build_shared(Arc::clone(table), stmt)?);
        *kept = Some(Arc::clone(&cache));
        Ok((cache, false))
    }
}

/// Where the user is in the Figure-1 interaction loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// No query has been executed yet.
    AwaitingQuery,
    /// Results are displayed; nothing selected.
    ResultsShown,
    /// Suspicious outputs (S) selected.
    OutputsSelected,
    /// Suspicious inputs (D′) selected.
    InputsSelected,
    /// Ranked predicates have been computed.
    Explained,
}

/// An interactive DBWipes session.
#[derive(Debug)]
pub struct DashboardSession {
    db: DbWipes,
    cleaning: Option<CleaningSession>,
    result: Option<QueryResult>,
    selected_outputs: Vec<usize>,
    selected_inputs: Vec<RowId>,
    metric: Option<ErrorMetric>,
    explain_config: ExplainConfig,
    explanation: Option<Explanation>,
    source: Source,
    debug_cache_hit: Option<bool>,
}

impl DashboardSession {
    /// Creates a session over an existing backend, whose actions build the
    /// aggregate caches they read on demand and keep the base statement's
    /// and the last other one.
    pub fn new(db: DbWipes) -> Self {
        DashboardSession {
            db,
            cleaning: None,
            result: None,
            selected_outputs: Vec::new(),
            selected_inputs: Vec::new(),
            metric: None,
            explain_config: ExplainConfig::standard(),
            explanation: None,
            source: Source::OnDemand { base: None, other: None },
            debug_cache_hit: None,
        }
    }

    /// Creates a session over an existing backend whose actions read their
    /// aggregate caches from `source`.
    pub fn with_cache_source(db: DbWipes, source: Box<dyn CacheSource>) -> Self {
        DashboardSession { source: Source::Given(source), ..DashboardSession::new(db) }
    }

    /// Access to the backend (e.g. to register more tables).
    pub fn backend_mut(&mut self) -> &mut DbWipes {
        &mut self.db
    }

    /// Access to the backend.
    pub fn backend(&self) -> &DbWipes {
        &self.db
    }

    /// The current interaction state.
    pub fn state(&self) -> SessionState {
        if self.result.is_none() {
            SessionState::AwaitingQuery
        } else if self.explanation.is_some() {
            SessionState::Explained
        } else if !self.selected_inputs.is_empty() {
            SessionState::InputsSelected
        } else if !self.selected_outputs.is_empty() {
            SessionState::OutputsSelected
        } else {
            SessionState::ResultsShown
        }
    }

    /// The SQL currently shown in the query form: the displayed result's
    /// statement, applied cleaning predicates included (empty before the
    /// first query).
    pub fn current_sql(&self) -> String {
        self.result.as_ref().map(|r| r.statement.to_sql()).unwrap_or_default()
    }

    /// The current query result, if a query has been executed.
    pub fn result(&self) -> Option<&QueryResult> {
        self.result.as_ref()
    }

    /// The table behind the current query.
    pub fn current_table(&self) -> Option<&Table> {
        let result = self.result.as_ref()?;
        self.db.catalog().table(&result.statement.table).ok()
    }

    /// Executes a new base query (step 1 of the loop), resetting every
    /// selection and any previously applied cleaning predicates.
    pub fn run_query(&mut self, sql: &str) -> Result<&QueryResult, CoreError> {
        let result = self.db.query(sql)?;
        self.cleaning = Some(CleaningSession::new(result.statement.clone()));
        self.result = Some(result);
        if let Source::OnDemand { base, other } = &mut self.source {
            (*base, *other) = (None, None);
        }
        self.selected_outputs.clear();
        self.selected_inputs.clear();
        self.metric = None;
        self.explanation = None;
        Ok(self.result.as_ref().expect("just set"))
    }

    /// Adopts a freshly appended snapshot of the current query's table
    /// (streaming ingestion): installs `table` into the session's catalog
    /// and replaces the displayed result with the cleaned statement's
    /// answer from the cache source's cache of the *base* statement over
    /// `table` — the server's registry absorbs its retained one forward
    /// through the append — exactly as a click answers. A table other
    /// than the base statement's is refused before anything changes.
    ///
    /// The user's in-flight investigation survives the refresh where it
    /// still makes sense:
    ///
    /// * selected outputs (S) are remapped by **group key**, so a group
    ///   that changed position keeps its selection while a vanished group
    ///   is dropped;
    /// * selected input rows (D′) are kept verbatim — appends never
    ///   renumber existing [`RowId`]s;
    /// * the error metric ε is kept;
    /// * a computed explanation is discarded: it described the old data,
    ///   and the next `debug!` recomputes it over the grown table.
    pub fn refresh_after_append(&mut self, table: Arc<Table>) -> Result<(), CoreError> {
        let (Some(current), Some(cleaning)) = (&self.result, &self.cleaning) else {
            return Err(CoreError::invalid("no query result to refresh"));
        };
        let base = cleaning.base_statement();
        if !base.table.eq_ignore_ascii_case(table.name()) {
            return Err(CoreError::invalid(format!(
                "the displayed query reads `{}`, not `{}`",
                base.table,
                table.name()
            )));
        }
        let (cache, _) = self.source.cache(&table, base, true)?;
        let refreshed = cleaning.execute_with_cache(&cache)?;
        let remapped: Vec<usize> = self
            .selected_outputs
            .iter()
            .filter_map(|&i| {
                let key = current.group_keys.get(i)?;
                refreshed.group_keys.iter().position(|k| k == key)
            })
            .collect();
        self.db.catalog_mut().install_snapshot(table);
        self.result = Some(refreshed);
        self.selected_outputs = remapped;
        self.explanation = None;
        Ok(())
    }

    /// The group-level scatter series (step 2: visualize results).
    pub fn plot(&self, x_column: &str, y_column: &str) -> Option<ScatterSeries> {
        result_series(self.result.as_ref()?, x_column, y_column)
    }

    /// Brushes the group-level plot to select suspicious outputs S (step 3).
    /// Returns the selected output indices. With no result or an unknown
    /// column there is no plot, so the brush selects nothing — as a brush
    /// that matches no point does.
    pub fn brush_outputs(&mut self, x_column: &str, y_column: &str, brush: Brush) -> Vec<usize> {
        let selected = self
            .plot(x_column, y_column)
            .map_or_else(Vec::new, |series| brush.selected_outputs(series.points));
        self.select_outputs(selected.clone());
        selected
    }

    /// Directly selects suspicious output rows (S).
    pub fn select_outputs(&mut self, outputs: Vec<usize>) {
        self.selected_outputs = outputs;
        self.selected_inputs.clear();
        self.explanation = None;
    }

    /// The currently selected outputs.
    pub fn selected_outputs(&self) -> &[usize] {
        &self.selected_outputs
    }

    /// The zoomed-in tuple series for the selected outputs (step 4: "zoom
    /// in" to the raw tuple values).
    pub fn zoom(&self, x_column: &str, y_column: &str) -> Option<ScatterSeries> {
        zoom_series(
            self.current_table()?,
            self.result.as_ref()?,
            &self.selected_outputs,
            x_column,
            y_column,
        )
    }

    /// The points of [`DashboardSession::zoom`], before they are produced
    /// (see [`zoom_points`]).
    pub fn zoom_points(&self, x_column: &str, y_column: &str) -> Option<ZoomPoints<'_>> {
        zoom_points(
            self.current_table()?,
            self.result.as_ref()?,
            &self.selected_outputs,
            x_column,
            y_column,
        )
    }

    /// Brushes the zoomed tuple plot to select suspicious inputs D′
    /// (step 5), testing the points as they are produced. Returns the
    /// selected input rows. With no result or an unknown column there is
    /// no zoom, so the brush selects nothing — as a brush that matches no
    /// point does.
    pub fn brush_inputs(&mut self, x_column: &str, y_column: &str, brush: Brush) -> Vec<RowId> {
        let mut selected = Vec::new();
        if let Some(zoom) = self.zoom_points(x_column, y_column) {
            zoom.for_each(|p| match p.reference {
                PointRef::Input(row) if brush.contains(&p) => selected.push(row),
                _ => {}
            });
        }
        self.select_inputs(selected.clone());
        selected
    }

    /// Directly selects suspicious input rows (D′).
    pub fn select_inputs(&mut self, inputs: Vec<RowId>) {
        self.selected_inputs = inputs;
        self.explanation = None;
    }

    /// The currently selected inputs.
    pub fn selected_inputs(&self) -> &[RowId] {
        &self.selected_inputs
    }

    /// The error-metric choices the form would offer for the current
    /// selection (Figure 5).
    pub fn metric_choices(&self, column: &str) -> Vec<ErrorMetric> {
        match &self.result {
            Some(result) => error_form_choices(result, &self.selected_outputs, column),
            None => Vec::new(),
        }
    }

    /// Picks the error metric ε.
    pub fn set_metric(&mut self, metric: ErrorMetric) {
        self.metric = Some(metric);
        self.explanation = None;
    }

    /// The currently selected error metric ε, if any.
    pub fn metric(&self) -> Option<&ErrorMetric> {
        self.metric.as_ref()
    }

    /// Replaces the pipeline configuration future `debug!` clicks run with
    /// (ranker weights, enumerator parameters, ...). Any
    /// previously computed explanation is discarded, since it no longer
    /// reflects the configuration.
    pub fn set_explain_config(&mut self, config: ExplainConfig) {
        self.explain_config = config;
        self.explanation = None;
    }

    /// The pipeline configuration `debug!` clicks run with.
    pub fn explain_config(&self) -> &ExplainConfig {
        &self.explain_config
    }

    /// The "Query, S, D′, ε" request the next `debug!` click would send to
    /// the backend, validated against the current interaction state. This
    /// is the single source of truth for how a request is formed —
    /// callers that cache or memoize explains (the server) key on exactly
    /// this value, so it cannot drift from what [`DashboardSession::debug`]
    /// actually runs.
    pub fn explain_request(&self) -> Result<ExplanationRequest, CoreError> {
        if self.result.is_none() {
            return Err(CoreError::invalid("no query has been executed"));
        }
        let metric = self
            .metric
            .clone()
            .ok_or_else(|| CoreError::invalid("no error metric has been selected"))?;
        if self.selected_outputs.is_empty() {
            return Err(CoreError::invalid("no suspicious outputs are selected"));
        }
        let mut request = ExplanationRequest::new(
            self.selected_outputs.clone(),
            self.selected_inputs.clone(),
            metric,
        );
        request.config = self.explain_config.clone();
        Ok(request)
    }

    /// Runs the backend pipeline ("debug!") over the cache source's cache
    /// of the displayed statement and returns the ranked predicates. The
    /// explanation's timings are the pipeline's: getting the cache, built
    /// or not, is not one of its stages.
    pub fn debug(&mut self) -> Result<&Explanation, CoreError> {
        self.debug_cache_hit = None;
        let request = self.explain_request()?;
        let result = self.result.as_ref().expect("validated by explain_request");
        let table = self.db.catalog().table_arc(&result.statement.table)?;
        let is_base = self.applied_predicates().is_empty();
        let (cache, hit) = self.source.cache(&table, &result.statement, is_base)?;
        self.debug_cache_hit = Some(hit);
        let explanation = explain_with_cache(&cache, result, &request)?;
        self.explanation = Some(explanation);
        Ok(self.explanation.as_ref().expect("just set"))
    }

    /// Whether the last [`DashboardSession::debug`] found its cache in the
    /// source (`Some(true)`) or had it built (`Some(false)`); `None` when
    /// it failed before asking.
    pub fn debug_cache_hit(&self) -> Option<bool> {
        self.debug_cache_hit
    }

    /// Installs an explanation that was computed earlier for this session's
    /// *current* query, selections and metric — the server's explanation
    /// memo replaying a memoized `debug!` answer. The session must be in a
    /// state where `debug` would be legal (query run, S selected, ε
    /// picked); the caller is responsible for only replaying an
    /// explanation whose request matches that state, which the memo
    /// guarantees by keying on exactly those inputs.
    pub fn install_explanation(
        &mut self,
        explanation: Explanation,
    ) -> Result<&Explanation, CoreError> {
        self.explain_request()?;
        self.explanation = Some(explanation);
        Ok(self.explanation.as_ref().expect("just set"))
    }

    /// The explanation of the last `debug()` call, while the selections
    /// it explains stand.
    pub fn explanation(&self) -> Option<&Explanation> {
        self.explanation.as_ref()
    }

    /// The ranked predicates of the last `debug()` call.
    pub fn ranked_predicates(&self) -> &[RankedPredicate] {
        self.explanation.as_ref().map(|e| e.predicates.as_slice()).unwrap_or(&[])
    }

    /// The `index`-th ranked predicate of the last `debug()` call.
    pub fn ranked_predicate(&self, index: usize) -> Result<&RankedPredicate, CoreError> {
        self.ranked_predicates()
            .get(index)
            .ok_or_else(|| CoreError::invalid(format!("no ranked predicate at index {index}")))
    }

    /// The statement of the last `run_query`, without any clicked
    /// predicate — the statement whose cache click, undo and the append
    /// refresh read from the session's cache source.
    pub fn base_statement(&self) -> Option<&SelectStatement> {
        self.cleaning.as_ref().map(CleaningSession::base_statement)
    }

    /// Clicks the `index`-th ranked predicate: the predicate is added to the
    /// query as `AND NOT (...)`, the cleaned result is read from the base
    /// statement's cache, and the visualization/query form update (step
    /// 7). Returns the new result. A click the rewrite refuses (see
    /// [`CleaningSession::apply`]) changes nothing.
    pub fn click_predicate(&mut self, index: usize) -> Result<&QueryResult, CoreError> {
        let predicate = self.ranked_predicate(index)?.predicate.clone();
        let cache = self.base_cache()?;
        self.cleaning_mut()?.apply(predicate)?;
        self.show_cleaned(&cache)
    }

    /// Un-applies the most recently clicked predicate, as
    /// [`DashboardSession::click_predicate`] applies one.
    pub fn undo_clean(&mut self) -> Result<&QueryResult, CoreError> {
        let cache = self.base_cache()?;
        self.cleaning_mut()?.undo();
        self.show_cleaned(&cache)
    }

    fn cleaning_mut(&mut self) -> Result<&mut CleaningSession, CoreError> {
        self.cleaning.as_mut().ok_or_else(|| CoreError::invalid("no query has been executed"))
    }

    /// The cache source's cache of the base statement over the table the
    /// session reads, asked for before a click or undo changes anything.
    fn base_cache(&mut self) -> Result<Arc<GroupedAggregateCache>, CoreError> {
        let base = self
            .cleaning
            .as_ref()
            .map(CleaningSession::base_statement)
            .ok_or_else(|| CoreError::invalid("no query has been executed"))?;
        let table = self.db.catalog().table_arc(&base.table)?;
        Ok(self.source.cache(&table, base, true)?.0)
    }

    /// Produces the result of the cleaning session's current (rewritten)
    /// statement from `cache`, the base statement's, and resets the
    /// visualization state: the one place encoding what a predicate click
    /// or undo does to the session, so apply and undo cannot drift apart.
    fn show_cleaned(&mut self, cache: &GroupedAggregateCache) -> Result<&QueryResult, CoreError> {
        let result = self.cleaning_mut()?.execute_with_cache(cache)?;
        self.result = Some(result);
        self.selected_outputs.clear();
        self.selected_inputs.clear();
        self.explanation = None;
        Ok(self.result.as_ref().expect("just set"))
    }

    /// The cleaning predicates applied so far.
    pub fn applied_predicates(&self) -> &[dbwipes_storage::ConjunctivePredicate] {
        self.cleaning.as_ref().map(|c| c.applied()).unwrap_or(&[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbwipes_data::{generate_sensor, SensorConfig};

    fn session() -> (DashboardSession, dbwipes_data::SensorDataset) {
        let ds = generate_sensor(&SensorConfig {
            num_readings: 5_400,
            failing_sensors: vec![15],
            ..SensorConfig::small()
        });
        let mut db = DbWipes::new();
        db.register(ds.table.clone()).unwrap();
        (DashboardSession::new(db), ds)
    }

    #[test]
    fn full_interaction_loop_matches_figure_one() {
        let (mut s, ds) = session();
        assert_eq!(s.state(), SessionState::AwaitingQuery);
        assert!(s.result().is_none());
        assert!(s.debug().is_err());

        // 1. Execute the window query.
        s.run_query(&ds.window_query()).unwrap();
        assert_eq!(s.state(), SessionState::ResultsShown);
        assert!(s.current_sql().contains("GROUP BY window"));

        // 2-3. Visualize and brush the suspicious (high stddev) windows.
        let plot = s.plot("window", "std_temp").unwrap();
        assert!(!plot.is_empty());
        let selected = s.brush_outputs("window", "std_temp", Brush::above(8.0));
        assert!(!selected.is_empty());
        assert_eq!(s.state(), SessionState::OutputsSelected);
        assert_eq!(s.selected_outputs(), selected.as_slice());

        // 4-5. Zoom in and brush the >100F tuples as D'.
        let zoom = s.zoom("sensorid", "temp").unwrap();
        assert!(zoom.len() > selected.len());
        let inputs = s.brush_inputs("sensorid", "temp", Brush::above(100.0));
        assert!(!inputs.is_empty());
        assert_eq!(s.state(), SessionState::InputsSelected);
        assert!(inputs.iter().all(|r| ds.truth.is_error(*r)));

        // 6. The error form offers a "too high" choice; pick it.
        let choices = s.metric_choices("std_temp");
        assert!(!choices.is_empty());
        s.set_metric(choices[0].clone());

        // Debug!
        let explanation = s.debug().unwrap();
        assert!(!explanation.predicates.is_empty());
        assert_eq!(s.state(), SessionState::Explained);
        let best_text = s.ranked_predicates()[0].predicate.to_string();
        assert!(
            best_text.contains("sensorid") || best_text.contains("voltage"),
            "best predicate: {best_text}"
        );

        // 7. Click the best predicate: the query is rewritten and the spread
        // returns to normal.
        let before_max_std = max_col(s.result().unwrap(), "std_temp");
        s.click_predicate(0).unwrap();
        assert!(s.current_sql().contains("NOT ("));
        assert_eq!(s.applied_predicates().len(), 1);
        let after_max_std = max_col(s.result().unwrap(), "std_temp");
        assert!(after_max_std < before_max_std);
        assert_eq!(s.state(), SessionState::ResultsShown);

        // Undo restores the original query.
        s.undo_clean().unwrap();
        assert!(s.applied_predicates().is_empty());
        let restored_max_std = max_col(s.result().unwrap(), "std_temp");
        assert!((restored_max_std - before_max_std).abs() < 1e-9);
    }

    fn max_col(result: &QueryResult, column: &str) -> f64 {
        let idx = result.column_index(column).unwrap();
        result.rows.iter().filter_map(|r| r[idx].as_f64()).fold(f64::NEG_INFINITY, f64::max)
    }

    #[test]
    fn invalid_interactions_are_rejected() {
        let (mut s, ds) = session();
        assert!(s.run_query("not sql at all").is_err());
        assert!(s.plot("a", "b").is_none());
        assert!(s.zoom("a", "b").is_none());
        assert!(s.metric_choices("x").is_empty());
        assert!(s.click_predicate(0).is_err());
        assert!(s.undo_clean().is_err());

        s.run_query(&ds.window_query()).unwrap();
        // Debug without metric or selection.
        assert!(s.debug().is_err());
        s.select_outputs(vec![0]);
        assert!(s.debug().is_err());
        s.set_metric(dbwipes_core::ErrorMetric::too_high("std_temp", 4.0));
        // Clicking a predicate before debug fails.
        assert!(s.click_predicate(0).is_err());
        // Brushing an unknown column selects nothing.
        assert!(s.brush_outputs("nope", "std_temp", Brush::above(0.0)).is_empty());
        assert!(s.brush_inputs("nope", "temp", Brush::above(0.0)).is_empty());
    }

    #[test]
    fn an_impossible_brush_selects_nothing() {
        let (mut s, ds) = session();
        // Before any query there is nothing to brush: a selection made
        // directly does not survive a brush.
        s.select_outputs(vec![0]);
        s.select_inputs(vec![RowId(1)]);
        assert!(s.brush_outputs("window", "std_temp", Brush::above(0.0)).is_empty());
        assert!(s.selected_outputs().is_empty() && s.selected_inputs().is_empty());

        brushed(&mut s, &ds);
        s.debug().unwrap();
        assert_eq!(s.state(), SessionState::Explained);

        // An unknown zoom column drops D′ and the explanation of it...
        assert!(s.brush_inputs("sensorid", "nope", Brush::above(100.0)).is_empty());
        assert!(s.selected_inputs().is_empty());
        assert_eq!(s.state(), SessionState::OutputsSelected);
        // ...an unknown plot column drops S as well...
        assert!(s.brush_outputs("window", "nope", Brush::above(8.0)).is_empty());
        assert!(s.selected_outputs().is_empty());
        assert_eq!(s.state(), SessionState::ResultsShown);
        assert!(s.debug().is_err(), "no S is left to explain");
        // ...exactly as brushes that match no point do.
        s.brush_outputs("window", "std_temp", Brush::above(8.0));
        s.brush_inputs("sensorid", "temp", Brush::above(100.0));
        assert!(s.brush_inputs("sensorid", "temp", Brush::above(1e9)).is_empty());
        assert_eq!(s.state(), SessionState::OutputsSelected);
        assert!(s.brush_outputs("window", "std_temp", Brush::above(1e9)).is_empty());
        assert_eq!(s.state(), SessionState::ResultsShown);
    }

    /// The session brushed, with ε picked, ready for `debug`.
    fn brushed(s: &mut DashboardSession, ds: &dbwipes_data::SensorDataset) {
        s.run_query(&ds.window_query()).unwrap();
        s.brush_outputs("window", "std_temp", Brush::above(8.0));
        s.brush_inputs("sensorid", "temp", Brush::above(100.0));
        s.set_metric(ErrorMetric::too_high("std_temp", 4.0));
    }

    #[test]
    fn debug_matches_the_library_explain() {
        let (mut s, ds) = session();
        brushed(&mut s, &ds);
        let request = s.explain_request().unwrap();
        let result = s.result().unwrap().clone();
        let library = s.backend().explain(&result, &request).unwrap();
        let ranked = |e: &Explanation| -> Vec<_> {
            e.predicates.iter().map(|p| (p.predicate.clone(), p.score.to_bits())).collect()
        };
        let explanation = s.debug().unwrap();
        assert_eq!(ranked(explanation), ranked(&library));
        assert_eq!(explanation.base_error.to_bits(), library.base_error.to_bits());
        assert_eq!(s.state(), SessionState::Explained);
    }

    /// A displayed result: statement, schema, values (floats in their
    /// shortest round-trip form), keys, row order and lineage.
    fn identity(r: &QueryResult) -> String {
        format!("{r:?}")
    }

    /// What the engine answers for the session's current statement.
    fn executed(s: &DashboardSession) -> QueryResult {
        let stmt = s.cleaning.as_ref().unwrap().current_statement();
        dbwipes_engine::execute(s.current_table().unwrap(), &stmt, Default::default()).unwrap()
    }

    #[test]
    fn click_and_undo_match_execution() {
        let (mut s, ds) = session();
        brushed(&mut s, &ds);
        s.debug().unwrap();
        let refused = s.click_predicate(99).unwrap_err().to_string();
        assert_eq!(refused, "invalid explanation request: no ranked predicate at index 99");
        assert!(s.applied_predicates().is_empty());
        assert_eq!(s.state(), SessionState::Explained);

        let before = identity(s.result().unwrap());
        s.click_predicate(0).unwrap();
        assert_eq!(identity(s.result().unwrap()), identity(&executed(&s)));
        assert!(s.current_sql().contains("NOT ("));
        assert_eq!(s.applied_predicates().len(), 1);
        assert_eq!(s.state(), SessionState::ResultsShown);

        s.undo_clean().unwrap();
        assert_eq!(identity(s.result().unwrap()), identity(&executed(&s)));
        assert_eq!(identity(s.result().unwrap()), before);
        assert!(s.applied_predicates().is_empty());
    }

    /// Counts what a session asks for, and builds every cache it hands out.
    #[derive(Debug, Default)]
    struct Counting {
        asked: Arc<std::sync::Mutex<Vec<String>>>,
    }

    impl CacheSource for Counting {
        fn cache(
            &mut self,
            table: &Arc<Table>,
            stmt: &SelectStatement,
        ) -> Result<(Arc<GroupedAggregateCache>, bool), CoreError> {
            self.asked.lock().unwrap().push(stmt.to_sql());
            let cache = GroupedAggregateCache::build_shared(Arc::clone(table), stmt)?;
            Ok((Arc::new(cache), false))
        }
    }

    #[test]
    fn each_action_asks_its_source_once_for_the_base_statement() {
        let ds = session().1;
        let source = Counting::default();
        let asked = Arc::clone(&source.asked);
        let mut db = DbWipes::new();
        db.register(ds.table.clone()).unwrap();
        let mut s = DashboardSession::with_cache_source(db, Box::new(source));
        brushed(&mut s, &ds);
        assert!(asked.lock().unwrap().is_empty(), "run_query and the brushes execute");
        s.debug().unwrap();
        assert_eq!(s.debug_cache_hit(), Some(false));
        s.click_predicate(0).unwrap();
        s.undo_clean().unwrap();
        let base = s.base_statement().unwrap().to_sql();
        assert_eq!(*asked.lock().unwrap(), vec![base.clone(), base.clone(), base]);
    }

    /// Two rounds of select-all → `debug` → click, then two undos and a
    /// third `debug`: the base statement's cache is built once, in the
    /// first `debug`, and the second `debug` — of the cleaned result —
    /// builds its own beside it.
    #[test]
    fn the_on_demand_source_builds_once_per_base_statement() {
        let (mut s, ds) = session();
        let kept = |s: &DashboardSession| match &s.source {
            Source::OnDemand { base, other } => (base.clone(), other.clone()),
            Source::Given(_) => unreachable!("DashboardSession::new builds on demand"),
        };
        brushed(&mut s, &ds);
        assert!(matches!(kept(&s), (None, None)));
        let mut base = None;
        for round in 0..2 {
            s.select_outputs((0..s.result().unwrap().rows.len()).collect());
            s.set_metric(ErrorMetric::too_high("std_temp", 0.0));
            s.debug().unwrap();
            assert_eq!(s.debug_cache_hit(), Some(false), "round {round}");
            let built = kept(&s).0.expect("the base statement's cache");
            assert!(Arc::ptr_eq(base.get_or_insert_with(|| Arc::clone(&built)), &built));
            s.click_predicate(0).unwrap();
        }
        s.undo_clean().unwrap();
        s.undo_clean().unwrap();
        let (kept_base, other) = kept(&s);
        assert!(Arc::ptr_eq(&kept_base.unwrap(), base.as_ref().unwrap()), "one base build");
        assert!(other.is_some(), "the second debug's own");
        s.select_outputs((0..s.result().unwrap().rows.len()).collect());
        s.set_metric(ErrorMetric::too_high("std_temp", 0.0));
        s.debug().unwrap();
        assert_eq!(s.debug_cache_hit(), Some(true));
        assert!(Arc::ptr_eq(&kept(&s).0.unwrap(), base.as_ref().unwrap()), "one base build");

        // A new base statement drops both; nothing else holds them.
        let base = Arc::downgrade(&base.unwrap());
        s.run_query("SELECT sensorid, avg(temp) FROM readings GROUP BY sensorid").unwrap();
        assert!(matches!(kept(&s), (None, None)));
        assert!(base.upgrade().is_none());
    }

    #[test]
    fn explain_config_flows_into_debug() {
        let (mut s, ds) = session();
        brushed(&mut s, &ds);
        assert!(s.debug().unwrap().predicates.len() > 1);

        let mut config = ExplainConfig::standard();
        config.ranker.max_results = 1;
        s.set_explain_config(config);
        // Changing the configuration discards the stale explanation...
        assert!(s.ranked_predicates().is_empty());
        assert_eq!(s.explain_config().ranker.max_results, 1);
        assert_eq!(s.explain_request().unwrap().config.ranker.max_results, 1);
        // ...and the re-run obeys the new one.
        assert_eq!(s.debug().unwrap().predicates.len(), 1);
    }

    #[test]
    fn refresh_after_append_keeps_selections_and_drops_the_stale_explanation() {
        let (mut s, ds) = session();
        brushed(&mut s, &ds);
        s.debug().unwrap();
        assert_eq!(s.state(), SessionState::Explained);
        let selected_keys: Vec<Vec<dbwipes_storage::Value>> = s
            .selected_outputs()
            .iter()
            .map(|&i| s.result().unwrap().group_keys[i].clone())
            .collect();
        let inputs_before = s.selected_inputs().to_vec();

        // Grow a snapshot of the table (same identity, appended epoch).
        let mut grown = s.current_table().unwrap().clone();
        let row = |sensor: i64, temp: f64| {
            let mut r = Vec::new();
            for field in grown.schema().fields() {
                r.push(match field.name.as_str() {
                    "sensorid" => dbwipes_storage::Value::Int(sensor),
                    "temp" => dbwipes_storage::Value::Float(temp),
                    _ => dbwipes_storage::Value::Int(0),
                });
            }
            r
        };
        grown.push_rows(vec![row(3, 55.0), row(15, 140.0)]).unwrap();
        let grown = Arc::new(grown);

        // Another table is refused before anything mutates.
        let other = Arc::new(Table::new("other", grown.schema().clone()).unwrap());
        let refused = s.refresh_after_append(other).unwrap_err().to_string();
        assert!(refused.contains("reads `readings`, not `other`"), "{refused}");
        assert_ne!(s.current_table().unwrap().version(), grown.version());

        s.refresh_after_append(Arc::clone(&grown)).unwrap();
        // The session now reads the grown snapshot, and shows what the
        // engine answers over it...
        assert_eq!(s.current_table().unwrap().version(), grown.version());
        assert_eq!(identity(s.result().unwrap()), identity(&executed(&s)));
        // ...selections survived (remapped by key / kept verbatim)...
        let keys_after: Vec<Vec<dbwipes_storage::Value>> = s
            .selected_outputs()
            .iter()
            .map(|&i| s.result().unwrap().group_keys[i].clone())
            .collect();
        assert_eq!(keys_after, selected_keys);
        assert_eq!(s.selected_inputs(), inputs_before.as_slice());
        assert!(s.metric().is_some());
        // ...and the stale explanation is gone but recomputable.
        assert_eq!(s.state(), SessionState::InputsSelected);
        assert!(!s.debug().unwrap().predicates.is_empty());
    }

    #[test]
    fn selections_reset_on_new_query() {
        let (mut s, ds) = session();
        s.run_query(&ds.window_query()).unwrap();
        s.select_outputs(vec![0]);
        s.set_metric(dbwipes_core::ErrorMetric::too_high("std_temp", 4.0));
        s.run_query("SELECT sensorid, avg(temp) FROM readings GROUP BY sensorid").unwrap();
        assert!(s.selected_outputs().is_empty());
        assert!(s.selected_inputs().is_empty());
        assert_eq!(s.state(), SessionState::ResultsShown);
        assert!(s.backend().catalog().contains("readings"));
        assert_eq!(s.backend_mut().catalog().len(), 1);
    }
}

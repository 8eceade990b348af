//! The Predicate Ranker.
//!
//! "Finally, the Predicate Ranker computes a score for each tree that
//! increases with improvement in the error metric, and the accuracy of the
//! tree at differentiating Dᶜᵢ from F − Dᶜᵢ, and decreases by the
//! complexity (number of terms in) the predicate" (paper §2.2.2).
//!
//! For every candidate predicate the ranker answers "what if I clicked this
//! predicate" — the query result with the predicate's matching tuples
//! excluded — and measures how much ε improves over the user-selected
//! outputs. Instead of re-executing the full SQL statement per candidate,
//! it asks an aggregate cache built once per ranking: a single pass over
//! the table classifies each row under SQL three-valued logic (matching the
//! semantics of rewriting the query with `AND NOT predicate`) and only the
//! touched groups' aggregate states are re-derived. Candidates are scored
//! one after another on the request's thread; each candidate's score is
//! independent of the others.
//!
//! There is one scoring loop, over one [`GroupedAggregateCache`]
//! (membership bitmap included), the [`ConditionBitmapCache`] its table
//! snapshot owns ([`dbwipes_storage::Table::condition_bitmaps`] — so a
//! condition an earlier ranking over the same snapshot scanned is a hit
//! here, in every deployment), and F and D′ as [`RowSet`]s over the
//! table's rows.
//! [`rank_predicates_sharded`] exists for the benchmark and ranks
//! unpartitioned: it runs the same loop over a [`ShardedAggregateCache`]'s
//! whole-table cache.

use crate::error::CoreError;
use crate::metric::ErrorMetric;
use dbwipes_engine::{ExclusionQuery, GroupedAggregateCache, QueryResult, ShardedAggregateCache};
use dbwipes_storage::{ConditionBitmapCache, ConjunctivePredicate, RowId, RowSet, TriSet, Value};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Weights of the ranking score.
#[derive(Debug, Clone, Copy)]
pub struct RankerConfig {
    /// Weight of the relative improvement in ε (1 = the error disappears).
    pub weight_error: f64,
    /// Weight of the F1 agreement between the predicate's matches (within F)
    /// and the user's example tuples D′.
    pub weight_accuracy: f64,
    /// Penalty per additional conjunct beyond the first.
    pub weight_complexity: f64,
    /// Maximum number of ranked predicates returned.
    pub max_results: usize,
}

impl Default for RankerConfig {
    fn default() -> Self {
        RankerConfig {
            weight_error: 1.0,
            weight_accuracy: 0.5,
            weight_complexity: 0.05,
            max_results: 10,
        }
    }
}

/// A predicate together with its ranking evidence — one entry of the
/// dashboard's "Ranked Predicates" panel (Figure 6).
#[derive(Debug, Clone)]
pub struct RankedPredicate {
    /// The human-readable predicate.
    pub predicate: ConjunctivePredicate,
    /// Combined ranking score (higher is better).
    pub score: f64,
    /// ε over the selected outputs before cleaning.
    pub error_before: f64,
    /// ε over the selected outputs after excluding the predicate's tuples.
    pub error_after: f64,
    /// Relative improvement `(before − after) / before` (0 when before = 0).
    pub improvement: f64,
    /// F1 agreement between the predicate's matches within F and D′.
    pub example_f1: f64,
    /// Number of conjuncts.
    pub complexity: usize,
    /// Number of table rows the predicate matches (i.e. how many
    /// tuples clicking it would remove).
    pub matched_rows: usize,
}

impl RankedPredicate {
    /// One-line rendering used by the examples.
    pub fn summary(&self) -> String {
        format!(
            "score={:+.3} improvement={:>5.1}% f1={:.2} removes={} :: {}",
            self.score,
            self.improvement * 100.0,
            self.example_f1,
            self.matched_rows,
            self.predicate
        )
    }
}

/// Ranks candidate predicates over `cache`, the incremental re-aggregation
/// cache of `result`'s statement (which carries the table it was built
/// from) — the explain pipeline shares one [`GroupedAggregateCache`]
/// between the Preprocessor and the Ranker. This is the one ranking loop
/// behind every public entry point.
///
/// * `result` — the original query result (provides the statement, the
///   selected groups' keys and ε's baseline).
/// * `selected` — indices of the suspicious output rows S.
/// * `examples` — the user's suspicious input tuples D′.
/// * `metric` — the error metric ε.
pub fn rank_predicates_with_cache(
    cache: &GroupedAggregateCache,
    result: &QueryResult,
    selected: &[usize],
    examples: &[RowId],
    metric: &ErrorMetric,
    predicates: Vec<ConjunctivePredicate>,
    config: &RankerConfig,
) -> Result<Vec<RankedPredicate>, CoreError> {
    let table = cache.table();
    let n = table.num_rows();
    // Rows as a bitmap over the table; rows outside it drop.
    let rowset = |rows: &[RowId]| RowSet::from_rows(n, rows.iter().filter(|r| r.index() < n));
    let ctx = ScoreContext {
        cache,
        bitmaps: table.condition_bitmaps(),
        error_before: metric.evaluate_result(result, selected),
        // Group keys of the selected outputs, used to find the same groups
        // in the incrementally cleaned result.
        selected_keys: selected.iter().filter_map(|&i| result.group_keys.get(i).cloned()).collect(),
        f_rowset: rowset(&result.inputs_of_rows(selected)),
        example_rowset: rowset(examples),
        num_examples: examples.iter().collect::<BTreeSet<_>>().len(),
        metric,
        config,
    };

    // Deduplicate on the canonical (commutativity-normalised) form, so
    // `a AND b` and `b AND a` are scored once; first occurrence wins.
    // Candidates share leaf conditions drawn from one pool: the first
    // lookup of a condition scans its column, every later one is a hit.
    let mut seen: BTreeSet<String> = BTreeSet::new();
    let mut ranked = predicates
        .into_iter()
        .filter(|p| !p.is_trivial() && seen.insert(p.canonical_key()))
        .map(|predicate| score_candidate(&ctx, &predicate))
        .collect::<Result<Vec<RankedPredicate>, CoreError>>()?;

    ranked.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.complexity.cmp(&b.complexity)));
    ranked.truncate(config.max_results);
    Ok(ranked)
}

/// Exists for the benchmark and ranks unpartitioned:
/// [`rank_predicates_with_cache`] over the [`ShardedAggregateCache`]'s
/// whole-table cache, argument for argument.
pub fn rank_predicates_sharded(
    cache: &ShardedAggregateCache,
    result: &QueryResult,
    selected: &[usize],
    examples: &[RowId],
    metric: &ErrorMetric,
    predicates: Vec<ConjunctivePredicate>,
    config: &RankerConfig,
) -> Result<Vec<RankedPredicate>, CoreError> {
    let cache = cache.cache();
    rank_predicates_with_cache(cache, result, selected, examples, metric, predicates, config)
}

/// The per-ranking state shared by every candidate's scoring pass.
struct ScoreContext<'a> {
    cache: &'a GroupedAggregateCache,
    /// The snapshot's condition-bitmap cache (what an earlier ranking
    /// left in it is already warm).
    bitmaps: Arc<ConditionBitmapCache>,
    error_before: f64,
    selected_keys: Vec<Vec<Value>>,
    /// F as a bitmap over the table's rows.
    f_rowset: RowSet,
    /// D′ as a bitmap over the table's rows.
    example_rowset: RowSet,
    /// The recall denominator: every distinct example the user gave,
    /// in-table or not.
    num_examples: usize,
    metric: &'a ErrorMetric,
    config: &'a RankerConfig,
}

/// The per-candidate evidence: match counts, example agreement, and the
/// incrementally cleaned partial result.
struct CandidateEvidence {
    matched_rows: usize,
    matched_in_f: usize,
    true_positives: usize,
    cleaned: QueryResult,
}

/// Scores one candidate under three-valued logic — rows where the
/// predicate is TRUE are its matches; cached (filter-passing) rows where
/// it is TRUE *or* NULL are excluded, exactly as the `AND NOT predicate`
/// rewrite would drop them — then the cache re-derives only the touched
/// groups.
///
/// Evaluation is vectorized: each condition's cached bitmap (one columnar
/// kernel scan per *distinct* condition per snapshot) is combined with
/// word-level AND. Compilation is schema-only, so it is decided once per
/// candidate from what the evaluation returns: if it declines,
/// [`validation_error`] reports why.
fn score_candidate(
    ctx: &ScoreContext<'_>,
    predicate: &ConjunctivePredicate,
) -> Result<RankedPredicate, CoreError> {
    let Some(tri) = predicate.tri_eval(&ctx.bitmaps, ctx.cache.table()) else {
        return Err(validation_error(ctx, predicate));
    };
    let CandidateEvidence { matched_rows, matched_in_f, true_positives, cleaned } =
        score_bitmaps(ctx, &tri);
    let error_before = ctx.error_before;
    let error_after = error_over_keys(&cleaned, &ctx.selected_keys, ctx.metric);
    let improvement = if error_before > 0.0 {
        ((error_before - error_after) / error_before).clamp(-1.0, 1.0)
    } else {
        0.0
    };

    // Agreement with the user's examples, measured within F.
    let tp = true_positives as f64;
    let precision = if matched_in_f == 0 { 0.0 } else { tp / matched_in_f as f64 };
    let recall = if ctx.num_examples == 0 { 0.0 } else { tp / ctx.num_examples as f64 };
    let example_f1 = if precision + recall == 0.0 {
        0.0
    } else {
        2.0 * precision * recall / (precision + recall)
    };

    let complexity = predicate.complexity();
    let score = ctx.config.weight_error * improvement + ctx.config.weight_accuracy * example_f1
        - ctx.config.weight_complexity * (complexity.saturating_sub(1)) as f64;

    Ok(RankedPredicate {
        predicate: predicate.clone(),
        score,
        error_before,
        error_after,
        improvement,
        example_f1,
        complexity,
        matched_rows,
    })
}

/// Turns one candidate's evaluation into evidence: bitmap intersections
/// and popcounts, then one cleaned result for the brushed keys.
fn score_bitmaps(ctx: &ScoreContext<'_>, tri: &TriSet) -> CandidateEvidence {
    let matched = &tri.trues;
    // TRUE-or-NULL rows among the cache's filter-passing inputs: the
    // `AND NOT predicate` rewrite drops exactly these.
    let mut excluded = tri.passes_or_unknown();
    excluded.and_assign(ctx.cache.membership());
    let in_f = matched.and(&ctx.f_rowset);
    // Only the brushed groups matter for ε, so exactly those keys are asked
    // for instead of materialising (and re-sorting) every group.
    let query = ExclusionQuery::new().excluding_set(&excluded).for_keys(&ctx.selected_keys);
    CandidateEvidence {
        matched_rows: matched.count_ones(),
        matched_in_f: in_f.count_ones(),
        true_positives: in_f.intersection_count(&ctx.example_rowset),
        cleaned: ctx.cache.result(&query),
    }
}

/// Why a candidate did not compile. A conjunction compiles exactly when
/// its expression validates (`tests/predicate_kernels_prop.rs`), so this
/// is the validation error executing the rewritten statement would report.
fn validation_error(ctx: &ScoreContext<'_>, predicate: &ConjunctivePredicate) -> CoreError {
    match predicate.to_expr().validate(ctx.cache.table().schema()) {
        Err(e) => e.into(),
        Ok(_) => {
            CoreError::invalid(format!("predicate {predicate} validates but does not compile"))
        }
    }
}

/// Evaluates the metric over the rows of `result` whose group keys match
/// `keys`; groups that disappeared contribute no error.
pub fn error_over_keys(result: &QueryResult, keys: &[Vec<Value>], metric: &ErrorMetric) -> f64 {
    let index: HashMap<&Vec<Value>, usize> =
        result.group_keys.iter().enumerate().map(|(i, k)| (k, i)).collect();
    let rows: Vec<usize> = keys.iter().filter_map(|k| index.get(k).copied()).collect();
    metric.evaluate_result(result, &rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbwipes_engine::execute_sql;
    use dbwipes_storage::{Catalog, Condition, DataType, Schema, Table};

    /// [`rank_predicates_with_cache`] over a cache of `result`'s statement
    /// built from `table`.
    fn rank(
        table: &Table,
        result: &QueryResult,
        selected: &[usize],
        examples: &[RowId],
        metric: &ErrorMetric,
        predicates: Vec<ConjunctivePredicate>,
        config: &RankerConfig,
    ) -> Result<Vec<RankedPredicate>, CoreError> {
        let cache = GroupedAggregateCache::build(table, &result.statement)?;
        rank_predicates_with_cache(&cache, result, selected, examples, metric, predicates, config)
    }

    /// Window 1 is polluted by sensor 7's ~120F readings; the healthy ones
    /// climb from 20F in 1F increments.
    fn setup() -> (Catalog, Vec<RowId>) {
        let mut t = Table::new(
            "readings",
            Schema::of(&[
                ("window", DataType::Int),
                ("sensorid", DataType::Int),
                ("temp", DataType::Float),
            ]),
        )
        .unwrap();
        let mut broken = Vec::new();
        for i in 0..120 {
            let window = i % 2;
            let sensor = i % 12;
            let is_broken = sensor == 7 && window == 1;
            let temp = if is_broken { 120.0 } else { 20.0 + (i % 5) as f64 };
            let rid = t
                .push_row(vec![Value::Int(window), Value::Int(sensor), Value::Float(temp)])
                .unwrap();
            if is_broken {
                broken.push(rid);
            }
        }
        let mut c = Catalog::new();
        c.register(t).unwrap();
        (c, broken)
    }

    #[test]
    fn the_true_predicate_ranks_first() {
        let (c, broken) = setup();
        let r = execute_sql(&c, "SELECT window, avg(temp) FROM readings GROUP BY window").unwrap();
        // Window 1 has the inflated average; select it.
        let selected = vec![1usize];
        let metric = ErrorMetric::too_high("avg_temp", 25.0);
        let candidates = vec![
            ConjunctivePredicate::new(vec![Condition::equals("sensorid", 7)]),
            ConjunctivePredicate::new(vec![Condition::equals("sensorid", 3)]),
            ConjunctivePredicate::new(vec![
                Condition::equals("sensorid", 7),
                Condition::above("temp", 100.0),
            ]),
            ConjunctivePredicate::always_true(),
        ];
        let ranked = rank(
            c.table("readings").unwrap(),
            &r,
            &selected,
            &broken,
            &metric,
            candidates,
            &RankerConfig::default(),
        )
        .unwrap();
        // The trivial predicate is dropped, the rest are ranked.
        assert_eq!(ranked.len(), 3);
        assert!(ranked[0].predicate.to_string().contains("sensorid = 7"));
        assert!(ranked[0].score > ranked[1].score);
        assert!(ranked[0].improvement > 0.9);
        assert!(ranked[0].error_after < ranked[0].error_before);
        assert!(ranked[0].example_f1 > 0.9);
        // The irrelevant sensor yields no improvement (removing its normal
        // readings can only raise the polluted average further).
        let irrelevant =
            ranked.iter().find(|p| p.predicate.to_string().contains("sensorid = 3")).unwrap();
        assert!(irrelevant.improvement <= 0.0);
        assert!(!ranked[0].summary().is_empty());
    }

    #[test]
    fn complexity_breaks_ties() {
        let (c, broken) = setup();
        let r = execute_sql(&c, "SELECT window, avg(temp) FROM readings GROUP BY window").unwrap();
        let metric = ErrorMetric::too_high("avg_temp", 25.0);
        // Two predicates removing exactly the same rows; the simpler one must
        // rank at least as high.
        let simple = ConjunctivePredicate::new(vec![Condition::above("temp", 100.0)]);
        let complex = ConjunctivePredicate::new(vec![
            Condition::above("temp", 100.0),
            Condition::equals("sensorid", 7),
            Condition::equals("window", 1),
        ]);
        let ranked = rank(
            c.table("readings").unwrap(),
            &r,
            &[1],
            &broken,
            &metric,
            vec![complex.clone(), simple.clone()],
            &RankerConfig::default(),
        )
        .unwrap();
        assert_eq!(ranked[0].predicate, simple);
        assert!(ranked[0].score >= ranked[1].score);
        assert_eq!(ranked[1].complexity, 3);
    }

    #[test]
    fn zero_baseline_error_yields_zero_improvement() {
        let (c, broken) = setup();
        let r = execute_sql(&c, "SELECT window, avg(temp) FROM readings GROUP BY window").unwrap();
        // Threshold far above everything: nothing is wrong.
        let metric = ErrorMetric::too_high("avg_temp", 10_000.0);
        let ranked = rank(
            c.table("readings").unwrap(),
            &r,
            &[1],
            &broken,
            &metric,
            vec![ConjunctivePredicate::new(vec![Condition::equals("sensorid", 7)])],
            &RankerConfig::default(),
        )
        .unwrap();
        assert_eq!(ranked[0].improvement, 0.0);
        assert_eq!(ranked[0].error_before, 0.0);
    }

    #[test]
    fn max_results_is_respected() {
        let (c, broken) = setup();
        let r = execute_sql(&c, "SELECT window, avg(temp) FROM readings GROUP BY window").unwrap();
        let metric = ErrorMetric::too_high("avg_temp", 25.0);
        let candidates: Vec<ConjunctivePredicate> = (0..12)
            .map(|s| ConjunctivePredicate::new(vec![Condition::equals("sensorid", s)]))
            .collect();
        let config = RankerConfig { max_results: 4, ..Default::default() };
        let ranked =
            rank(c.table("readings").unwrap(), &r, &[1], &broken, &metric, candidates, &config)
                .unwrap();
        assert_eq!(ranked.len(), 4);
        // Scores are non-increasing.
        for w in ranked.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn vanished_groups_count_as_fixed() {
        let (c, _) = setup();
        let r = execute_sql(
            &c,
            "SELECT window, avg(temp) FROM readings WHERE sensorid = 7 GROUP BY window",
        )
        .unwrap();
        let metric = ErrorMetric::too_high("avg_temp", 25.0);
        // The filtered query has a single output group (window 1 at index 0);
        // excluding sensor 7 removes that whole group, so error_after must be 0.
        let ranked = rank(
            c.table("readings").unwrap(),
            &r,
            &[0],
            &[],
            &metric,
            vec![ConjunctivePredicate::new(vec![Condition::equals("sensorid", 7)])],
            &RankerConfig::default(),
        )
        .unwrap();
        assert_eq!(ranked[0].error_after, 0.0);
        assert_eq!(ranked[0].improvement, 1.0);
        // With no examples the F1 term is zero but ranking still works.
        assert_eq!(ranked[0].example_f1, 0.0);
    }

    #[test]
    fn commuted_conjunctions_are_scored_once() {
        let (c, broken) = setup();
        let r = execute_sql(&c, "SELECT window, avg(temp) FROM readings GROUP BY window").unwrap();
        let metric = ErrorMetric::too_high("avg_temp", 25.0);
        let a_and_b = ConjunctivePredicate::new(vec![
            Condition::equals("sensorid", 7),
            Condition::above("temp", 100.0),
        ]);
        let b_and_a = ConjunctivePredicate::new(vec![
            Condition::above("temp", 100.0),
            Condition::equals("sensorid", 7),
        ]);
        assert_ne!(a_and_b.to_string(), b_and_a.to_string());
        assert_eq!(a_and_b.canonical_key(), b_and_a.canonical_key());
        let ranked = rank(
            c.table("readings").unwrap(),
            &r,
            &[1],
            &broken,
            &metric,
            vec![a_and_b.clone(), b_and_a],
            &RankerConfig::default(),
        )
        .unwrap();
        // Only the first occurrence survives dedup.
        assert_eq!(ranked.len(), 1);
        assert_eq!(ranked[0].predicate, a_and_b);
    }

    /// An unbounded range on a missing column is the literal `TRUE`: beside
    /// `sensorid = 7` it compiles, and the kernels score the conjunction
    /// exactly as they score `sensorid = 7` alone.
    #[test]
    fn an_unbounded_range_on_a_missing_column_scores_like_its_absence() {
        let (c, broken) = setup();
        let r = execute_sql(&c, "SELECT window, avg(temp) FROM readings GROUP BY window").unwrap();
        let metric = ErrorMetric::too_high("avg_temp", 25.0);
        let sensor = ConjunctivePredicate::new(vec![Condition::equals("sensorid", 7)]);
        let unbounded = Condition::Range {
            column: "no_such_column".into(),
            low: None,
            low_inclusive: false,
            high: None,
            high_inclusive: false,
        };
        let with_true = sensor.with(unbounded);
        let table = c.table("readings").unwrap();
        assert!(with_true.compile(table).is_ok());
        let ranked = rank(
            table,
            &r,
            &[1],
            &broken,
            &metric,
            vec![sensor, with_true.clone()],
            &RankerConfig::default(),
        )
        .unwrap();
        let (alone, with) = (&ranked[0], &ranked[1]);
        assert_eq!(with.predicate, with_true);
        assert_eq!(with.matched_rows, alone.matched_rows);
        assert_eq!(with.error_after, alone.error_after);
        assert_eq!(with.example_f1, alone.example_f1);
    }

    #[test]
    fn an_invalid_candidate_reports_its_validation_error_even_when_it_matches_nothing() {
        /// The error `bad` earns through the ranker.
        fn error(bad: ConjunctivePredicate) -> CoreError {
            let (c, broken) = setup();
            let table = c.table("readings").unwrap();
            let r =
                execute_sql(&c, "SELECT window, avg(temp) FROM readings GROUP BY window").unwrap();
            let metric = ErrorMetric::too_high("avg_temp", 25.0);
            let cache = GroupedAggregateCache::build(table, &r.statement).unwrap();
            let config = RankerConfig::default();
            rank_predicates_with_cache(&cache, &r, &[1], &broken, &metric, vec![bad], &config)
                .unwrap_err()
        }
        // `contains` on a missing column fails validation in the scalar path.
        let missing = Condition::contains("no_such_column", "x");
        let bad = ConjunctivePredicate::new(vec![missing.clone()]);
        // `sensorid = 777` matches nothing; the candidate must still reach
        // the scalar path's validation, not score as empty.
        let empty_and_bad =
            ConjunctivePredicate::new(vec![Condition::equals("sensorid", 777), missing]);
        for e in [error(bad), error(empty_and_bad)] {
            assert!(e.to_string().contains("no_such_column"), "{e}");
        }
    }
}

//! Baseline explanation strategies DBWipes is compared against.
//!
//! The paper motivates ranked provenance by the shortcomings of existing
//! approaches (§1, §4):
//!
//! * **Coarse-grained provenance** shows the operator pipeline — "every
//!   input went through the same sequence of operators", so as a tuple set
//!   it is the whole input relation.
//! * **Fine-grained provenance** (Trio-style lineage) returns *all* inputs
//!   of the selected outputs — thousands of tuples with "very low
//!   precision".
//! * **Top-k influence** ranks individual tuples (as sensitivity-analysis
//!   systems do) but produces no human-readable description.
//! * **Causality-style responsibility** (Meliou et al.) ranks tuples by
//!   `1/(1 + |Γ|)`, where Γ is the smallest set of additional tuples that
//!   must also be removed to fix the output; we approximate Γ greedily by
//!   influence order.
//! * **Exhaustive single-attribute predicates** — the simplest predicate
//!   baseline: try every `column = value` / threshold condition in
//!   isolation and keep the one that best reduces ε.
//!
//! Experiment E5 scores all of these against ground truth alongside the
//! full DBWipes pipeline.

use crate::error::CoreError;
use crate::influence::InfluenceReport;
use crate::metric::ErrorMetric;
use crate::ranker::{rank_predicates_with_cache, RankedPredicate, RankerConfig};
use dbwipes_engine::{GroupedAggregateCache, QueryResult};
use dbwipes_provenance::ProvenanceAnswer;
use dbwipes_storage::{Condition, ConjunctivePredicate, DataType, RowId, Table, Value};
use std::collections::BTreeSet;

/// Traditional fine-grained provenance: every input of the selected
/// outputs (the paper's F), with no ranking.
pub fn fine_grained_provenance(result: &QueryResult, selected: &[usize]) -> ProvenanceAnswer {
    ProvenanceAnswer::new(result.inputs_of_rows(selected))
}

/// Coarse-grained provenance as a tuple set: since the answer is "the
/// operator graph", the corresponding input set is every row of the
/// queried table.
pub fn coarse_grained_provenance(table: &Table) -> ProvenanceAnswer {
    ProvenanceAnswer::new(table.row_ids())
}

/// Top-k influence baseline: the `k` tuples with the largest leave-one-out
/// influence, as a plain tuple set (no description).
pub fn top_k_influence(report: &InfluenceReport, k: usize) -> ProvenanceAnswer {
    ProvenanceAnswer::new(report.top_k(k))
}

/// Responsibility of each tuple in the style of causality-based provenance:
/// `responsibility = 1 / (1 + |Γ|)` where Γ is approximated greedily — tuples
/// are removed in decreasing influence order until ε reaches zero, and a
/// tuple's Γ is the set of *other* tuples removed before the error vanished.
/// Tuples not needed to fix the error get responsibility 0.
pub fn greedy_responsibility(report: &InfluenceReport) -> Vec<(RowId, f64)> {
    let base = report.base_error;
    if base <= 0.0 {
        return report.influences.iter().map(|t| (t.row, 0.0)).collect();
    }
    // Greedy: walk tuples by decreasing influence, accumulating removed
    // error until the base error is covered.
    let mut remaining = base;
    let mut contingency_size = 0usize;
    let mut fixed_at: Option<usize> = None;
    for (i, t) in report.influences.iter().enumerate() {
        if t.influence <= 0.0 {
            break;
        }
        remaining -= t.influence;
        contingency_size = i; // tuples removed before this one
        if remaining <= 1e-9 {
            fixed_at = Some(i);
            break;
        }
    }
    report
        .influences
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let responsibility = match fixed_at {
                Some(last) if i <= last && t.influence > 0.0 => {
                    1.0 / (1.0 + contingency_size as f64)
                }
                _ => 0.0,
            };
            (t.row, responsibility)
        })
        .collect()
}

/// Configuration of the exhaustive single-attribute predicate baseline.
#[derive(Debug, Clone, Copy)]
pub struct SingleAttributeConfig {
    /// Number of candidate thresholds per numeric column.
    pub thresholds_per_column: usize,
    /// Maximum number of distinct values per categorical column.
    pub max_categorical_values: usize,
    /// Ranker weights used to score the generated predicates.
    pub ranker: RankerConfig,
}

impl Default for SingleAttributeConfig {
    fn default() -> Self {
        SingleAttributeConfig {
            thresholds_per_column: 8,
            max_categorical_values: 40,
            ranker: RankerConfig::default(),
        }
    }
}

/// Exhaustive single-attribute predicate search: generates every
/// one-condition predicate over F's attribute values and ranks them with the
/// same ranker DBWipes uses (and therefore the same incremental
/// re-aggregation cache — the statement executes once for the whole
/// candidate pool, however many thresholds are generated). Returns the
/// ranked list (best first).
pub fn single_attribute_predicates(
    table: &Table,
    result: &QueryResult,
    selected: &[usize],
    examples: &[RowId],
    metric: &ErrorMetric,
    config: &SingleAttributeConfig,
) -> Result<Vec<RankedPredicate>, CoreError> {
    let f_rows = result.inputs_of_rows(selected);
    let mut candidates: Vec<ConjunctivePredicate> = Vec::new();
    for field in table.schema().fields() {
        match field.dtype {
            DataType::Int | DataType::Float | DataType::Timestamp => {
                let mut values: Vec<f64> = f_rows
                    .iter()
                    .filter_map(|&r| {
                        table.value_by_name(r, &field.name).ok().and_then(|v| v.as_f64())
                    })
                    .collect();
                if values.is_empty() {
                    continue;
                }
                values.sort_by(|a, b| a.total_cmp(b));
                values.dedup();
                let k = config.thresholds_per_column.max(1);
                for q in 1..=k {
                    let idx = (q * values.len() / (k + 1)).min(values.len() - 1);
                    let th = values[idx];
                    candidates.push(ConjunctivePredicate::new(vec![Condition::above(
                        field.name.clone(),
                        th,
                    )]));
                    candidates.push(ConjunctivePredicate::new(vec![Condition::at_most(
                        field.name.clone(),
                        th,
                    )]));
                }
            }
            DataType::Str => {
                let mut seen: BTreeSet<String> = BTreeSet::new();
                for &r in &f_rows {
                    if let Ok(Value::Str(s)) = table.value_by_name(r, &field.name) {
                        if seen.len() >= config.max_categorical_values {
                            break;
                        }
                        if seen.insert(s.clone()) {
                            candidates.push(ConjunctivePredicate::new(vec![Condition::equals(
                                field.name.clone(),
                                Value::Str(s),
                            )]));
                        }
                    }
                }
            }
            DataType::Bool | DataType::Null => {}
        }
    }
    let cache = GroupedAggregateCache::build(table, &result.statement)?;
    let ranker = &config.ranker;
    rank_predicates_with_cache(&cache, result, selected, examples, metric, candidates, ranker)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::influence::rank_influence;
    use dbwipes_engine::execute_sql;
    use dbwipes_storage::{Catalog, Schema};

    fn setup() -> (Catalog, Vec<RowId>) {
        let mut t = Table::new(
            "readings",
            Schema::of(&[
                ("window", DataType::Int),
                ("sensorid", DataType::Int),
                ("room", DataType::Str),
                ("temp", DataType::Float),
            ]),
        )
        .unwrap();
        let mut broken = Vec::new();
        for i in 0..100i64 {
            let sensor = i % 10;
            let is_broken = sensor == 4;
            let temp = if is_broken { 120.0 + (i % 3) as f64 } else { 21.0 + (i % 4) as f64 };
            let room = if sensor % 2 == 0 { "lab" } else { "office" };
            let rid = t
                .push_row(vec![
                    Value::Int(0),
                    Value::Int(sensor),
                    Value::str(room),
                    Value::Float(temp),
                ])
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
    fn fine_grained_returns_everything_coarse_returns_more() {
        let (c, _) = setup();
        let r = execute_sql(&c, "SELECT window, avg(temp) FROM readings GROUP BY window").unwrap();
        let fine = fine_grained_provenance(&r, &[0]);
        assert_eq!(fine.len(), 100);
        let coarse = coarse_grained_provenance(c.table("readings").unwrap());
        assert_eq!(coarse.len(), 100);
        // With a WHERE clause, fine-grained shrinks but coarse does not.
        let r = execute_sql(
            &c,
            "SELECT window, avg(temp) FROM readings WHERE room = 'lab' GROUP BY window",
        )
        .unwrap();
        assert!(fine_grained_provenance(&r, &[0]).len() < 100);
        assert_eq!(coarse_grained_provenance(c.table("readings").unwrap()).len(), 100);
    }

    #[test]
    fn top_k_influence_finds_the_broken_rows() {
        let (c, broken) = setup();
        let r = execute_sql(&c, "SELECT window, avg(temp) FROM readings GROUP BY window").unwrap();
        let metric = ErrorMetric::too_high("avg_temp", 25.0);
        let report = rank_influence(c.table("readings").unwrap(), &r, &[0], &metric).unwrap();
        let top = top_k_influence(&report, broken.len());
        let hits = broken.iter().filter(|b| top.contains(**b)).count();
        assert_eq!(hits, broken.len());
        // Requesting more rows than exist is fine.
        assert!(top_k_influence(&report, 10_000).len() <= 100);
    }

    #[test]
    fn greedy_responsibility_assigns_nonzero_only_to_needed_tuples() {
        let (c, broken) = setup();
        let r = execute_sql(&c, "SELECT window, avg(temp) FROM readings GROUP BY window").unwrap();
        let metric = ErrorMetric::too_high("avg_temp", 25.0);
        let report = rank_influence(c.table("readings").unwrap(), &r, &[0], &metric).unwrap();
        let resp = greedy_responsibility(&report);
        assert_eq!(resp.len(), 100);
        let positive: Vec<&(RowId, f64)> = resp.iter().filter(|(_, r)| *r > 0.0).collect();
        assert!(!positive.is_empty());
        // Every tuple with positive responsibility is one of the broken rows.
        for (row, _) in &positive {
            assert!(broken.contains(row));
        }
        // All positive responsibilities share the same contingency size.
        let first = positive[0].1;
        assert!(positive.iter().all(|(_, r)| (*r - first).abs() < 1e-12));

        // When there is no error, responsibility is zero everywhere.
        let report = rank_influence(
            c.table("readings").unwrap(),
            &r,
            &[0],
            &ErrorMetric::too_high("avg_temp", 10_000.0),
        )
        .unwrap();
        assert!(greedy_responsibility(&report).iter().all(|(_, r)| *r == 0.0));
    }

    #[test]
    fn single_attribute_search_finds_the_sensor_but_needs_more_conditions_for_conjunctions() {
        let (c, broken) = setup();
        let r = execute_sql(&c, "SELECT window, avg(temp) FROM readings GROUP BY window").unwrap();
        let metric = ErrorMetric::too_high("avg_temp", 25.0);
        let ranked = single_attribute_predicates(
            c.table("readings").unwrap(),
            &r,
            &[0],
            &broken,
            &metric,
            &SingleAttributeConfig::default(),
        )
        .unwrap();
        assert!(!ranked.is_empty());
        // Every returned predicate has exactly one condition.
        assert!(ranked.iter().all(|p| p.complexity == 1));
        // The best one should isolate the broken sensor via temp or sensorid.
        let best = &ranked[0];
        assert!(best.improvement > 0.8, "best = {}", best.summary());
    }
}

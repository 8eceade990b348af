//! Golden regression tests for the Predicate Ranker.
//!
//! These pin the exact ordering (and, to a small tolerance, the scores) of
//! `rank_predicates_with_cache` on the deterministic sensor and FEC fixtures. They were
//! captured against the original per-candidate full-re-execution ranker and
//! must keep passing after the incremental re-aggregation rewire: the
//! refactor is allowed to change *how* the scores are computed, not *what*
//! they are.

use dbwipes::core::{rank_predicates_with_cache, ErrorMetric, RankerConfig};
use dbwipes::engine::{execute_sql, GroupedAggregateCache};
use dbwipes::storage::{Catalog, Condition, ConjunctivePredicate, RowId, Value};
use dbwipes_data::{generate_fec, generate_sensor, FecConfig, SensorConfig};

/// Scores may drift by FP-rounding noise when the computation is
/// restructured (incremental removal subtracts contributions instead of
/// re-summing), but nothing visible at this tolerance.
const TOL: f64 = 1e-6;

fn assert_golden(
    ranked: &[dbwipes::core::RankedPredicate],
    golden: &[(&str, f64, f64, usize)],
    label: &str,
) {
    let got: Vec<String> = ranked.iter().map(|p| p.summary()).collect();
    assert_eq!(
        ranked.len(),
        golden.len(),
        "{label}: expected {} ranked predicates, got:\n{}",
        golden.len(),
        got.join("\n")
    );
    for (i, (predicate, score, improvement, matched_rows)) in golden.iter().enumerate() {
        let r = &ranked[i];
        assert_eq!(
            r.predicate.to_string(),
            *predicate,
            "{label}: rank {i} predicate changed; full ranking:\n{}",
            got.join("\n")
        );
        assert!(
            (r.score - score).abs() < TOL,
            "{label}: rank {i} ({predicate}) score {} != golden {score}",
            r.score
        );
        assert!(
            (r.improvement - improvement).abs() < TOL,
            "{label}: rank {i} ({predicate}) improvement {} != golden {improvement}",
            r.improvement
        );
        assert_eq!(
            r.matched_rows, *matched_rows,
            "{label}: rank {i} ({predicate}) matched_rows changed"
        );
    }
}

#[test]
fn sensor_fixture_ranking_is_stable() {
    let ds = generate_sensor(&SensorConfig {
        num_readings: 5_400,
        failing_sensors: vec![15],
        ..SensorConfig::small()
    });
    let mut catalog = Catalog::new();
    catalog.register(ds.table.clone()).unwrap();
    let result = execute_sql(&catalog, &ds.window_query()).unwrap();

    let std_col = result.column_index("std_temp").unwrap();
    let suspicious: Vec<usize> = (0..result.len())
        .filter(|&i| result.rows[i][std_col].as_f64().unwrap_or(0.0) > 8.0)
        .collect();
    assert!(!suspicious.is_empty());
    let examples: Vec<RowId> = ds.error_rows().into_iter().take(8).collect();
    let metric = ErrorMetric::too_high("std_temp", 4.0);

    let candidates = vec![
        ConjunctivePredicate::new(vec![Condition::equals("sensorid", 15)]),
        ConjunctivePredicate::new(vec![Condition::equals("sensorid", 3)]),
        ConjunctivePredicate::new(vec![
            Condition::equals("sensorid", 15),
            Condition::above("temp", 100.0),
        ]),
        ConjunctivePredicate::new(vec![Condition::at_most("voltage", 1.8)]),
        ConjunctivePredicate::new(vec![Condition::above("temp", 95.0)]),
    ];
    let cache = GroupedAggregateCache::build(catalog.table("readings").unwrap(), &result.statement)
        .unwrap();
    let ranked = rank_predicates_with_cache(
        &cache,
        &result,
        &suspicious,
        &examples,
        &metric,
        candidates,
        &RankerConfig::default(),
    )
    .unwrap();

    // (predicate, score, improvement, matched_rows) — captured against the
    // pre-incremental ranker.
    let golden: &[(&str, f64, f64, usize)] = &[
        ("temp > 95.0000", 1.166666666667, 1.0, 40),
        ("sensorid = 15", 1.163265306122, 1.0, 100),
        ("sensorid = 15 AND temp > 100.0000", 1.098936170213, 1.0, 39),
        ("voltage <= 1.8000", 0.475599053726, 0.475599053726, 20),
        ("sensorid = 3", -0.013775878148, -0.013775878148, 100),
    ];
    assert_golden(&ranked, golden, "sensor");
}

#[test]
fn fec_fixture_ranking_is_stable() {
    let ds = generate_fec(&FecConfig {
        num_contributions: 10_000,
        reattribution_count: 80,
        ..FecConfig::default()
    });
    let mut catalog = Catalog::new();
    catalog.register(ds.table.clone()).unwrap();
    let result = execute_sql(&catalog, &ds.daily_total_query()).unwrap();

    let total_col = result.column_index("total").unwrap();
    let suspicious: Vec<usize> = (0..result.len())
        .filter(|&i| result.rows[i][total_col].as_f64().unwrap_or(0.0) < 0.0)
        .collect();
    assert!(!suspicious.is_empty());
    let examples: Vec<RowId> = result
        .inputs_of_rows(&suspicious)
        .into_iter()
        .filter(|&r| {
            ds.table.value_by_name(r, "amount").ok().and_then(|v| v.as_f64()).unwrap_or(0.0) < 0.0
        })
        .collect();
    let metric = ErrorMetric::too_low("total", 0.0);

    let candidates = vec![
        ConjunctivePredicate::new(vec![Condition::contains("memo", "REATTRIBUTION")]),
        ConjunctivePredicate::new(vec![Condition::at_most("amount", 0.0)]),
        ConjunctivePredicate::new(vec![Condition::equals("state", Value::str("MA"))]),
        ConjunctivePredicate::new(vec![
            Condition::contains("memo", "REATTRIBUTION"),
            Condition::at_most("amount", 0.0),
        ]),
    ];
    let cache =
        GroupedAggregateCache::build(catalog.table("contributions").unwrap(), &result.statement)
            .unwrap();
    let ranked = rank_predicates_with_cache(
        &cache,
        &result,
        &suspicious,
        &examples,
        &metric,
        candidates,
        &RankerConfig::default(),
    )
    .unwrap();

    let golden: &[(&str, f64, f64, usize)] = &[
        ("memo LIKE '%REATTRIBUTION%'", 1.5, 1.0, 80),
        ("amount <= 0.0000", 1.5, 1.0, 80),
        ("memo LIKE '%REATTRIBUTION%' AND amount <= 0.0000", 1.45, 1.0, 80),
        ("state = 'MA'", 0.187913334279, 0.098025693830, 1016),
    ];
    assert_golden(&ranked, golden, "fec");
}

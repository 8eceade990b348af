//! Integration test: the paper's §3.2 FEC walkthrough (Figure 7), driven
//! through the public API across every crate.

use dbwipes::core::MetricKind;
use dbwipes::dashboard::{Brush, DashboardSession, SessionState};
use dbwipes::data::{generate_fec, FecConfig};
use dbwipes::{DbWipes, ErrorMetric};

fn session() -> (DashboardSession, dbwipes::data::FecDataset) {
    let dataset = generate_fec(&FecConfig { num_contributions: 20_000, ..FecConfig::default() });
    let mut db = DbWipes::new();
    db.register(dataset.table.clone()).unwrap();
    (DashboardSession::new(db), dataset)
}

#[test]
fn mccain_daily_totals_show_a_negative_spike_around_day_500() {
    let (mut session, dataset) = session();
    session.run_query(&dataset.daily_total_query()).unwrap();
    let result = session.result().unwrap();

    // There is at least one day with a negative total, and every such day is
    // within the injected reattribution window around day 500.
    let negative_days: Vec<i64> = (0..result.len())
        .filter(|&i| result.value_f64(i, "total").unwrap().unwrap_or(0.0) < 0.0)
        .map(|i| result.value(i, "day").unwrap().as_i64().unwrap())
        .collect();
    assert!(!negative_days.is_empty(), "no negative spike was generated");
    for day in &negative_days {
        assert!(
            (day - dataset.config.reattribution_day).abs() <= dataset.config.reattribution_spread,
            "negative total on unexpected day {day}"
        );
    }
}

#[test]
fn the_walkthrough_surfaces_the_reattribution_predicate_and_cleans_the_spike() {
    let (mut session, dataset) = session();
    session.run_query(&dataset.daily_total_query()).unwrap();

    // Brush the negative totals (S), zoom, brush the negative donations (D').
    let suspicious = session.brush_outputs("day", "total", Brush::below(0.0));
    assert!(!suspicious.is_empty());
    let examples = session.brush_inputs("day", "amount", Brush::below(0.0));
    assert!(!examples.is_empty());
    // Every brushed example is a genuine injected error.
    assert!(examples.iter().all(|r| dataset.truth.is_error(*r)));

    // The error form offers "too low" for a selection of negative values.
    let choices = session.metric_choices("total");
    assert!(choices.iter().any(|m| matches!(m.kind, MetricKind::TooLow { .. })));
    session.set_metric(ErrorMetric::too_low("total", 0.0));

    let base_error = session.debug().unwrap().base_error;
    assert_eq!(session.state(), SessionState::Explained);
    assert!(base_error > 0.0);

    // The ranked list contains a predicate over the memo attribute with the
    // REATTRIBUTION string, ranked at or near the top.
    let rank = session
        .ranked_predicates()
        .iter()
        .position(|p| p.predicate.to_string().to_uppercase().contains("REATTRIBUTION"))
        .expect("a REATTRIBUTION predicate is returned");
    assert!(rank < 3, "REATTRIBUTION predicate ranked too low: {rank}");

    // That predicate matches the ground truth almost perfectly.
    let reattribution = &session.ranked_predicates()[rank];
    let score = dataset.truth.score_predicate(&dataset.table, &reattribution.predicate);
    assert!(score.precision > 0.95, "precision {}", score.precision);
    assert!(score.recall > 0.95, "recall {}", score.recall);
    assert!(reattribution.improvement > 0.9);

    // Clicking the top predicate removes the negative spike entirely when the
    // top predicate is the reattribution one; otherwise it at least shrinks it.
    let before = negative_day_count(&session);
    session.click_predicate(rank).unwrap();
    let after = negative_day_count(&session);
    assert_eq!(after, 0, "negative days remained after cleaning (was {before})");
    assert!(session.current_sql().contains("NOT ("));
}

#[test]
fn cleaning_physically_matches_query_rewriting() {
    let (mut session, dataset) = session();
    session.run_query(&dataset.daily_total_query()).unwrap();
    session.brush_outputs("day", "total", Brush::below(0.0));
    session.brush_inputs("day", "amount", Brush::below(0.0));
    session.set_metric(ErrorMetric::too_low("total", 0.0));
    session.debug().unwrap();
    let predicate = session.ranked_predicates()[0].predicate.clone();

    // Query-rewriting result.
    session.click_predicate(0).unwrap();
    let rewritten_total = grand_total(&session);

    // A database that never held the predicate's rows gives the same answer.
    let table = &dataset.table;
    let matching = predicate.matching_rows(table);
    assert!(!matching.is_empty());
    let kept: Vec<_> = table.row_ids().filter(|r| matching.binary_search(r).is_err()).collect();
    let mut db = DbWipes::new();
    db.register(table.materialize(&kept, table.name()).unwrap().0).unwrap();
    let physical = db.query(&dataset.daily_total_query()).unwrap();
    let physical_total: f64 =
        (0..physical.len()).filter_map(|i| physical.value_f64(i, "total").unwrap()).sum();
    assert!((physical_total - rewritten_total).abs() < 1e-6);

    // Undoing the click brings the original answer back.
    session.undo_clean().unwrap();
    let mut fresh = DbWipes::new();
    fresh.register(dataset.table.clone()).unwrap();
    let original = fresh.query(&dataset.daily_total_query()).unwrap();
    assert_eq!(session.result().unwrap().rows, original.rows);
}

fn negative_day_count(session: &DashboardSession) -> usize {
    let result = session.result().unwrap();
    (0..result.len())
        .filter(|&i| result.value_f64(i, "total").unwrap().unwrap_or(0.0) < 0.0)
        .count()
}

fn grand_total(session: &DashboardSession) -> f64 {
    let result = session.result().unwrap();
    (0..result.len()).filter_map(|i| result.value_f64(i, "total").unwrap()).sum()
}

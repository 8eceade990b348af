//! CI smoke test: the paper's core loop, end to end, exactly as the
//! quickstart example drives it — load synthetic data, run an aggregate
//! query, brush the suspicious outputs, ask *why*, and check that a ranked,
//! clickable predicate list comes back and actually repairs the query.

use dbwipes::core::CleaningSession;
use dbwipes::data::{generate_corrupted, CorruptionConfig};
use dbwipes::{DbWipes, ErrorMetric, ExplanationRequest};

#[test]
fn quickstart_loop_produces_a_ranked_repairing_predicate() {
    // Load: a dataset with a known, predicate-describable corruption.
    let dataset = generate_corrupted(&CorruptionConfig {
        num_rows: 8_000,
        num_devices: 20,
        corrupted_devices: vec![7, 8],
        corruption_start_group: 0,
        corruption_shift: 150.0,
        ..CorruptionConfig::default()
    });
    assert!(dataset.truth.error_count() > 0, "generator must inject errors");

    let mut db = DbWipes::new();
    db.register(dataset.table.clone()).expect("register table");

    // Query: the per-group aggregate the analyst is looking at.
    let result = db.query(&dataset.group_avg_query()).expect("query executes");
    assert!(result.len() > 1, "query must produce groups");

    // Brush: the groups whose average is suspiciously high.
    let suspicious: Vec<usize> = (0..result.len())
        .filter(|&i| result.value_f64(i, "avg_value").unwrap().unwrap_or(0.0) > 65.0)
        .collect();
    assert!(!suspicious.is_empty(), "corruption must push groups over the threshold");

    // Explain: no example tuples — the backend falls back to influence.
    let metric = ErrorMetric::too_high("avg_value", 60.0);
    let request = ExplanationRequest::new(suspicious.clone(), vec![], metric);
    let explanation = db.explain(&result, &request).expect("explanation");

    // The paper's deliverable: a non-empty ranked predicate list.
    assert!(!explanation.predicates.is_empty(), "ranked predicate list must be non-empty");
    assert!(explanation.base_error > 0.0);
    let best = explanation.best().expect("best predicate");
    assert!(best.improvement > 0.5, "best predicate should mostly repair ε: {}", best.summary());

    // The ranking is genuinely sorted.
    for pair in explanation.predicates.windows(2) {
        assert!(pair[0].score >= pair[1].score, "predicates must be sorted by score");
    }

    // Click: rewriting the query with AND NOT (best) lowers every brushed
    // group's average (or removes the group entirely).
    let mut session = CleaningSession::new(result.statement.clone());
    session.apply(best.predicate.clone()).unwrap();
    let cleaned = db.query(&session.current_sql()).expect("cleaned query executes");
    let cleaned_max = (0..cleaned.len())
        .filter_map(|i| cleaned.value_f64(i, "avg_value").ok().flatten())
        .fold(f64::NEG_INFINITY, f64::max);
    let original_max = (0..result.len())
        .filter_map(|i| result.value_f64(i, "avg_value").ok().flatten())
        .fold(f64::NEG_INFINITY, f64::max);
    assert!(
        cleaned_max < original_max,
        "cleaning must lower the worst group average ({cleaned_max} vs {original_max})"
    );

    // And the predicate should actually describe the injected corruption.
    let score = dataset.truth.score_predicate(&dataset.table, &best.predicate);
    assert!(score.f1 > 0.6, "best predicate should match ground truth, f1 = {}", score.f1);
}

//! Quickstart: ask DBWipes *why* an aggregate looks wrong.
//!
//! Builds a small measurements table in which two devices start reporting
//! shifted values halfway through the trace, runs a per-group average
//! query, selects the anomalous groups, and prints the ranked predicates
//! DBWipes returns — then "clicks" the best one and shows the repaired
//! result.
//!
//! Run with: `cargo run --example quickstart`

use dbwipes::core::CleaningSession;
use dbwipes::data::{generate_corrupted, CorruptionConfig};
use dbwipes::{DbWipes, ErrorMetric, ExplanationRequest};

fn main() {
    // 1. Generate a dataset with a known, describable corruption.
    let dataset = generate_corrupted(&CorruptionConfig {
        num_rows: 8_000,
        num_devices: 20,
        corrupted_devices: vec![7, 8],
        corruption_start_group: 0,
        corruption_shift: 150.0,
        ..CorruptionConfig::default()
    });
    println!("ground truth: {}", dataset.truth.description);
    println!("              ({} corrupted rows)\n", dataset.truth.error_count());

    let mut db = DbWipes::new();
    db.register(dataset.table.clone()).expect("register table");

    // 2. Run the aggregate query the analyst is looking at.
    let sql = dataset.group_avg_query();
    println!("query: {sql}\n");
    let result = db.query(&sql).expect("query executes");
    println!("{}", result.to_display(8));

    // 3. Select the suspicious outputs: groups whose average exceeds 65.
    let suspicious: Vec<usize> = (0..result.len())
        .filter(|&i| result.value_f64(i, "avg_value").unwrap().unwrap_or(0.0) > 65.0)
        .collect();
    println!("selected {} suspicious groups (avg_value > 65)\n", suspicious.len());

    // 4. Ask for an explanation. We pass no example tuples (D'): DBWipes
    //    falls back to the most influential inputs.
    let metric = ErrorMetric::too_high("avg_value", 60.0);
    let request = ExplanationRequest::new(suspicious, vec![], metric);
    let explanation = db.explain(&result, &request).expect("explanation");

    println!("baseline error: {:.2}", explanation.base_error);
    println!("component timings: {:?}\n", explanation.timings);
    println!("ranked predicates:");
    println!("{}\n", explanation.to_display());

    // 5. "Click" the best predicate: rewrite the query with AND NOT (...).
    let best = explanation.best().expect("at least one predicate").predicate.clone();
    println!("cleaning with: {best}\n");
    let mut session = CleaningSession::new(result.statement.clone());
    session.apply(best.clone()).expect("one click stays within the depth cap");
    let cleaned = db.query(&session.current_sql()).expect("cleaned query executes");
    println!("rewritten query: {}\n", session.current_sql());
    println!("{}", cleaned.to_display(8));

    // 6. Score the chosen predicate against the ground truth.
    let score = dataset.truth.score_predicate(&dataset.table, &best);
    println!(
        "predicate precision={:.2} recall={:.2} f1={:.2} (vs injected corruption)",
        score.precision, score.recall, score.f1
    );
}

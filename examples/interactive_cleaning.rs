//! Iterative clean-as-you-query: keep clicking predicates until the error
//! metric is satisfied, then undo everything.
//!
//! The demo's core interaction is a *loop*: each applied predicate rewrites
//! the query, the visualization updates, and the user can immediately
//! explore the next suspicious point. This example drives that loop
//! programmatically on a dataset with two separate corruption causes, shows
//! how the error metric shrinks after every click, shows that the data
//! itself was never touched — cleaning is the rewritten query — and finally
//! undoes the whole session.
//!
//! Run with: `cargo run --release --example interactive_cleaning`

use dbwipes::core::{suggest_metrics, CleaningStrategy, ErrorMetric, ExplainConfig};
use dbwipes::data::{generate_corrupted, CorruptionConfig};
use dbwipes::{DashboardSession, DbWipes};

fn main() {
    // Two corrupted devices create two overlapping anomalies.
    let dataset = generate_corrupted(&CorruptionConfig {
        num_rows: 12_000,
        num_devices: 20,
        corrupted_devices: vec![3, 13],
        corruption_shift: 150.0,
        ..CorruptionConfig::default()
    });
    println!("ground truth: {}\n", dataset.truth.description);

    let mut db = DbWipes::new();
    db.register(dataset.table.clone()).expect("register");
    let sql = dataset.group_avg_query();
    let result = db.query(&sql).expect("query");

    // Build the error metric from the data itself, the way the dashboard's
    // error form does: "normal" groups define the expected ceiling.
    let values: Vec<f64> =
        (0..result.len()).filter_map(|i| result.value_f64(i, "avg_value").unwrap()).collect();
    let suspicious: Vec<usize> = (0..result.len())
        .filter(|&i| result.value_f64(i, "avg_value").unwrap().unwrap_or(0.0) > 62.0)
        .collect();
    let normal: Vec<f64> = values
        .iter()
        .enumerate()
        .filter(|(i, _)| !suspicious.contains(i))
        .map(|(_, v)| *v)
        .collect();
    let selected_vals: Vec<f64> =
        suspicious.iter().filter_map(|&i| result.value_f64(i, "avg_value").unwrap()).collect();
    let metric = suggest_metrics("avg_value", &selected_vals, &normal)
        .into_iter()
        .next()
        .unwrap_or_else(|| ErrorMetric::too_high("avg_value", 62.0));
    println!("error metric: {metric}");
    println!("{} suspicious groups selected\n", suspicious.len());

    // Iteratively explain + clean until the error is (almost) gone, as the
    // dashboard does: brush, debug!, click the best predicate.
    let table = dataset.table.clone();
    let mut session = DashboardSession::new(db);
    session.run_query(&sql).expect("query");
    let mut round = 0;
    loop {
        round += 1;
        let result = session.result().expect("a result is displayed");
        let suspicious = suspicious_rows(result, 62.0);
        let error = metric.evaluate_result(result, &suspicious);
        println!(
            "round {round}: error = {error:.2}, applied predicates = {}",
            session.applied_predicates().len()
        );
        if error < 1.0 || round > 5 {
            break;
        }
        session.select_outputs(suspicious);
        session.set_metric(metric.clone());
        // Alternate the cleaning strategy just to exercise both paths.
        let mut config = ExplainConfig::standard();
        config.enumerator.cleaning =
            if round % 2 == 0 { CleaningStrategy::NaiveBayes } else { CleaningStrategy::KMeans };
        session.set_explain_config(config);
        let best = match session.debug() {
            Ok(explanation) => explanation.best().map(|best| best.summary()),
            Err(err) => {
                println!("  no further explanation: {err}");
                break;
            }
        };
        let Some(best) = best else {
            println!("  no predicates returned");
            break;
        };
        println!("  applying: {best}");
        session.click_predicate(0).expect("cleaned query");
    }

    println!("\nfinal rewritten query:\n  {}\n", session.current_sql());

    // Cleaning rewrote the query and left the data alone: the table still
    // holds every row the applied predicates exclude.
    let mut excluded: Vec<_> =
        session.applied_predicates().iter().flat_map(|p| p.matching_rows(&table)).collect();
    excluded.sort_unstable();
    excluded.dedup();
    let result = session.result().expect("a result is displayed");
    println!(
        "the applied predicates exclude {} of the table's {} rows; max group average is now {:.1}",
        excluded.len(),
        table.num_rows(),
        (0..result.len())
            .filter_map(|i| result.value_f64(i, "avg_value").unwrap())
            .fold(f64::NEG_INFINITY, f64::max)
    );

    // Undo everything.
    while !session.applied_predicates().is_empty() {
        session.undo_clean().expect("restored query");
    }
    println!(
        "after undoing all predicates the anomaly is back: {} groups above 62",
        suspicious_rows(session.result().expect("a result is displayed"), 62.0).len()
    );
}

fn suspicious_rows(result: &dbwipes::QueryResult, threshold: f64) -> Vec<usize> {
    (0..result.len())
        .filter(|&i| result.value_f64(i, "avg_value").unwrap().unwrap_or(0.0) > threshold)
        .collect()
}

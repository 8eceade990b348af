//! The paper's §3.2 walkthrough: a data journalist debugging McCain's
//! campaign contributions (Figure 7).
//!
//! The journalist plots the candidate's total donations per day, notices a
//! negative spike around day 500, zooms into the raw donations of those
//! days, highlights the negative ones, picks the error metric "values are
//! too low", and clicks "debug!". DBWipes returns a predicate referencing
//! the memo string "REATTRIBUTION TO SPOUSE"; clicking it removes most of
//! the negative spike.
//!
//! Run with: `cargo run --release --example fec_campaign`

use dbwipes::dashboard::{render_ascii, Brush, DashboardSession};
use dbwipes::data::{generate_fec, FecConfig};
use dbwipes::{DbWipes, ErrorMetric};

fn main() {
    // Synthetic stand-in for the FEC dump (see DESIGN.md for the substitution).
    let config = FecConfig { num_contributions: 60_000, ..FecConfig::default() };
    let dataset = generate_fec(&config);
    println!("generated {} contributions; {}", dataset.table.num_rows(), dataset.truth.description);

    let mut db = DbWipes::new();
    db.register(dataset.table.clone()).expect("register");
    let mut session = DashboardSession::new(db);

    // Step 1: the journalist's query — total received donations per day.
    let sql = dataset.daily_total_query();
    println!("\nquery: {sql}\n");
    session.run_query(&sql).expect("query");

    // Step 2: the Figure-7 plot.
    let plot = session.plot("day", "total").expect("plot");
    println!("{}", render_ascii(&plot, 100, 22));

    // Step 3: brush the strange negative spike (totals below zero).
    let suspicious = session.brush_outputs("day", "total", Brush::below(0.0));
    println!("brushed {} suspicious days (total < 0)", suspicious.len());

    // Step 4: zoom in to the individual donations of those days and brush
    // the negative ones as D'.
    let zoom = session.zoom("day", "amount").expect("zoom");
    println!("zoomed into {} individual donations", zoom.len());
    let examples = session.brush_inputs("day", "amount", Brush::below(0.0));
    println!("highlighted {} negative donations as examples (D')\n", examples.len());

    // Step 5: the error form suggests "values are too low"; pick it.
    let choices = session.metric_choices("total");
    for metric in &choices {
        println!("error form offers: {}", metric.label());
    }
    let metric = choices
        .into_iter()
        .find(|m| matches!(m.kind, dbwipes::core::MetricKind::TooLow { .. }))
        .unwrap_or_else(|| ErrorMetric::too_low("total", 0.0));
    session.set_metric(metric);

    // Step 6: debug!
    let explanation = session.debug().expect("explanation");
    println!("\nranked predicates:\n{}\n", explanation.to_display());

    // The walkthrough's punchline: the top predicates reference the memo
    // attribute containing "REATTRIBUTION TO SPOUSE".
    let reattribution_rank = session
        .ranked_predicates()
        .iter()
        .position(|p| p.predicate.to_string().to_uppercase().contains("REATTRIBUTION"));
    match reattribution_rank {
        Some(rank) => println!("the REATTRIBUTION TO SPOUSE predicate is ranked #{}", rank + 1),
        None => println!("no REATTRIBUTION predicate was returned (unexpected)"),
    }

    // Step 7: click the best predicate and watch the negative spike vanish.
    let negative_days_before = count_negative_days(&session);
    session.click_predicate(0).expect("clean");
    let negative_days_after = count_negative_days(&session);
    println!(
        "\nafter cleaning: {} -> {} days with negative totals",
        negative_days_before, negative_days_after
    );
    println!("rewritten query: {}", session.current_sql());

    let plot = session.plot("day", "total").expect("plot");
    println!("\n{}", render_ascii(&plot, 100, 22));
}

fn count_negative_days(session: &DashboardSession) -> usize {
    let result = session.result().expect("result");
    (0..result.len())
        .filter(|&i| result.value_f64(i, "total").unwrap().unwrap_or(0.0) < 0.0)
        .count()
}

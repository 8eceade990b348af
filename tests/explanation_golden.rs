//! Golden regression tests for the whole explain pipeline.
//!
//! `ranker_golden.rs` pins the ranker on hand-written candidates; nothing
//! there pins what the Dataset and Predicate Enumerators hand it. These
//! pin the full `Explanation` — candidate row-set sizes and sources, every
//! ranked predicate's text, score bits and `matched_rows` — for the two
//! walkthroughs the benchmark replays: the 64 000-reading sensor loop and
//! the §3.2 FEC loop. The learners may change *how* they find their splits
//! and subgroups, not *which* ones they find.

use dbwipes::dashboard::{Brush, DashboardSession};
use dbwipes::data::{generate_fec, generate_sensor, FecConfig, SensorConfig};
use dbwipes::{DbWipes, ErrorMetric, ExplainConfig, Explanation};
use std::fmt::Write as _;

/// Renders everything the golden pins, floats as their bit patterns (with
/// the decimal value alongside for the reader).
fn render(explanation: &Explanation) -> String {
    let mut out = String::new();
    let bits = |v: f64| format!("{:016x} ({v})", v.to_bits());
    writeln!(out, "base_error {}", bits(explanation.base_error)).unwrap();
    writeln!(out, "F {}", explanation.influence.inputs().len()).unwrap();
    for (i, c) in explanation.candidates.iter().enumerate() {
        writeln!(out, "candidate {i}: rows={} source={:?}", c.rows.len(), c.source).unwrap();
    }
    for (i, p) in explanation.predicates.iter().enumerate() {
        writeln!(
            out,
            "predicate {i}: score={} matched_rows={} :: {}",
            bits(p.score),
            p.matched_rows,
            p.predicate
        )
        .unwrap();
    }
    out
}

/// The standard pipeline, except that the ranker returns every predicate
/// the enumerators produced instead of its top ten.
fn uncapped() -> ExplainConfig {
    let mut config = ExplainConfig::standard();
    config.ranker.max_results = usize::MAX;
    config
}

fn assert_golden(explanation: &Explanation, golden: &str, label: &str) {
    let got = render(explanation);
    assert!(got == golden, "{label}: the explanation changed; got:\n{got}\nexpected:\n{golden}");
}

#[test]
fn sensor_walkthrough_explanation_is_stable() {
    let ds = generate_sensor(&SensorConfig {
        num_readings: 64_000,
        failing_sensors: vec![15],
        ..SensorConfig::small()
    });
    let mut db = DbWipes::new();
    db.register(ds.table.clone()).unwrap();
    let mut session = DashboardSession::new(db);
    session.set_explain_config(uncapped());
    session.run_query(&ds.window_query()).unwrap();
    assert!(!session.brush_outputs("window", "std_temp", Brush::above(6.0)).is_empty());
    assert!(!session.brush_inputs("sensorid", "temp", Brush::above(70.0)).is_empty());
    session.set_metric(ErrorMetric::too_high("std_temp", 6.0));
    let explanation = session.debug().unwrap();
    assert_golden(explanation, include_str!("golden/explanation_sensor_64k.txt"), "sensor");
}

#[test]
fn fec_walkthrough_explanation_is_stable() {
    let ds = generate_fec(&FecConfig::default());
    let mut db = DbWipes::new();
    db.register(ds.table.clone()).unwrap();
    let mut session = DashboardSession::new(db);
    session.set_explain_config(uncapped());
    session.run_query(&ds.daily_total_query()).unwrap();
    assert!(!session.brush_outputs("day", "total", Brush::below(0.0)).is_empty());
    assert!(!session.brush_inputs("day", "amount", Brush::below(0.0)).is_empty());
    session.set_metric(ErrorMetric::too_low("total", 0.0));
    let explanation = session.debug().unwrap();
    assert_golden(explanation, include_str!("golden/explanation_fec.txt"), "fec");
}

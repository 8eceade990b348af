//! # dbwipes-bench
//!
//! The experiment harness of the DBWipes reproduction: what reproduces the
//! paper's figures and quality experiments, not what times the system.
//! Latency — end to end and per layer — is measured by the repository's one
//! benchmark, `BENCHMARK.json` + `benchmark/`, against the real server.
//!
//! * **Report binaries** in `src/bin/` (`cargo run --release -p dbwipes-bench
//!   --bin fig7_fec_walkthrough`, ...): `fig1`/`fig4`/`fig6`/`fig7`
//!   regenerate a figure's numbers / rows and `exp5`–`exp8` the
//!   precision-versus-baselines and ablation tables, each printed as a
//!   table.
//! * **`soak_client`**, the load generator CI's soak and chaos jobs run
//!   against a release `dbwipes-server`.
//!
//! This library holds the pieces the report binaries share: deterministic
//! dataset construction, standard selections of S / D′ / ε for the demo
//! scenarios, and small table-printing helpers.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

use dbwipes_core::{
    explain_on_table, CleaningStrategy, ErrorMetric, ExplainConfig, Explanation, ExplanationRequest,
};
use dbwipes_data::{
    generate_corrupted, generate_fec, generate_sensor, CorruptedDataset, CorruptionConfig,
    FecConfig, FecDataset, SensorConfig, SensorDataset,
};
use dbwipes_engine::{execute, parse_select, ExecOptions, QueryResult};
use dbwipes_storage::RowId;

/// Builds the synthetic FEC dataset at a given size (other parameters are
/// the defaults used throughout the experiments).
pub fn fec_dataset(rows: usize) -> FecDataset {
    let reattribution = (rows / 125).clamp(40, 2_000);
    generate_fec(&FecConfig {
        num_contributions: rows,
        reattribution_count: reattribution,
        ..FecConfig::default()
    })
}

/// Builds the synthetic Intel-Lab sensor dataset at a given size.
pub fn sensor_dataset(readings: usize) -> SensorDataset {
    generate_sensor(&SensorConfig { num_readings: readings, ..SensorConfig::default() })
}

/// Builds the generic corrupted-measurements dataset used by the precision
/// and ablation experiments: two adjacent corrupted devices, corruption
/// across the whole group range so the true cause is purely attribute-based.
pub fn corrupted_dataset(rows: usize) -> CorruptedDataset {
    generate_corrupted(&CorruptionConfig {
        num_rows: rows,
        num_devices: 20,
        corrupted_devices: vec![7, 8],
        corruption_start_group: 0,
        corruption_shift: 150.0,
        ..CorruptionConfig::default()
    })
}

/// Executes a SQL string against a single table.
pub fn run_query(table: &dbwipes_storage::Table, sql: &str) -> QueryResult {
    let stmt = parse_select(sql).expect("valid experiment query");
    execute(table, &stmt, ExecOptions::default()).expect("experiment query executes")
}

/// Executes a SQL string with lineage capture disabled (used by the
/// provenance-overhead experiment).
pub fn run_query_without_lineage(table: &dbwipes_storage::Table, sql: &str) -> QueryResult {
    let stmt = parse_select(sql).expect("valid experiment query");
    execute(table, &stmt, ExecOptions { capture_lineage: false })
        .expect("experiment query executes")
}

/// The standard sensor-scenario selection: the windows whose temperature
/// spread exceeds `std_threshold`.
pub fn suspicious_windows(result: &QueryResult, std_threshold: f64) -> Vec<usize> {
    (0..result.len())
        .filter(|&i| result.value_f64(i, "std_temp").unwrap_or(None).unwrap_or(0.0) > std_threshold)
        .collect()
}

/// The standard sensor-scenario D′: readings above 100°F among the inputs of
/// the selected windows.
pub fn hot_readings(
    dataset: &SensorDataset,
    result: &QueryResult,
    suspicious: &[usize],
) -> Vec<RowId> {
    result
        .inputs_of_rows(suspicious)
        .into_iter()
        .filter(|&r| {
            dataset
                .table
                .value_by_name(r, "temp")
                .ok()
                .and_then(|v| v.as_f64())
                .map(|t| t > 100.0)
                .unwrap_or(false)
        })
        .collect()
}

/// Runs the full sensor-scenario pipeline (Figure 4 → Figure 6) and returns
/// the query result together with the explanation.
pub fn sensor_explanation(
    dataset: &SensorDataset,
    config: ExplainConfig,
) -> (QueryResult, Explanation) {
    let result = run_query(&dataset.table, &dataset.window_query());
    let suspicious = suspicious_windows(&result, 8.0);
    assert!(!suspicious.is_empty(), "no suspicious windows in the generated sensor data");
    let examples = hot_readings(dataset, &result, &suspicious);
    let mut request =
        ExplanationRequest::new(suspicious, examples, ErrorMetric::too_high("std_temp", 5.0));
    request.config = config;
    let explanation =
        explain_on_table(&dataset.table, &result, &request).expect("sensor explanation");
    (result, explanation)
}

/// Runs the full FEC walkthrough pipeline (Figure 7 / §3.2) and returns the
/// query result together with the explanation.
pub fn fec_explanation(dataset: &FecDataset, config: ExplainConfig) -> (QueryResult, Explanation) {
    let result = run_query(&dataset.table, &dataset.daily_total_query());
    let suspicious: Vec<usize> = (0..result.len())
        .filter(|&i| result.value_f64(i, "total").unwrap_or(None).unwrap_or(0.0) < 0.0)
        .collect();
    assert!(!suspicious.is_empty(), "no negative-total days in the generated FEC data");
    let examples: Vec<RowId> = result
        .inputs_of_rows(&suspicious)
        .into_iter()
        .filter(|&r| {
            dataset
                .table
                .value_by_name(r, "amount")
                .ok()
                .and_then(|v| v.as_f64())
                .map(|a| a < 0.0)
                .unwrap_or(false)
        })
        .collect();
    let mut request =
        ExplanationRequest::new(suspicious, examples, ErrorMetric::too_low("total", 0.0));
    request.config = config;
    let explanation = explain_on_table(&dataset.table, &result, &request).expect("fec explanation");
    (result, explanation)
}

/// Runs the corrupted-measurements pipeline used by E5/E6/E8.
pub fn corrupted_explanation(
    dataset: &CorruptedDataset,
    examples: Vec<RowId>,
    config: ExplainConfig,
) -> (QueryResult, Explanation) {
    let result = run_query(&dataset.table, &dataset.group_avg_query());
    let suspicious: Vec<usize> = (0..result.len())
        .filter(|&i| result.value_f64(i, "avg_value").unwrap_or(None).unwrap_or(0.0) > 65.0)
        .collect();
    assert!(!suspicious.is_empty(), "no suspicious groups in the corrupted data");
    let mut request =
        ExplanationRequest::new(suspicious, examples, ErrorMetric::too_high("avg_value", 60.0));
    request.config = config;
    let explanation =
        explain_on_table(&dataset.table, &result, &request).expect("corrupted explanation");
    (result, explanation)
}

/// An explain configuration with a given Dataset-Enumerator cleaning
/// strategy and subgroup-extension flag (used by the E8 ablation).
pub fn config_with_enumerator(cleaning: CleaningStrategy, extend: bool) -> ExplainConfig {
    let mut config = ExplainConfig::standard();
    config.enumerator.cleaning = cleaning;
    config.enumerator.extend_with_subgroups = extend;
    config
}

/// Prints a fixed-width table with a title, used by every report binary so
/// the output reads like the rows of a paper table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title}");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let header_line: Vec<String> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| format!("{:width$}", h, width = widths[i]))
        .collect();
    println!("{}", header_line.join(" | "));
    println!("{}", widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>().join("-+-"));
    for row in rows {
        let cells: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:width$}", c, width = widths.get(i).copied().unwrap_or(0)))
            .collect();
        println!("{}", cells.join(" | "));
    }
}

/// Formats a float with three decimal places (shared by the reports).
pub fn fmt(v: f64) -> String {
    format!("{v:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbwipes_core::CleaningStrategy;

    #[test]
    fn sensor_harness_produces_an_explanation() {
        let ds = sensor_dataset(16_200);
        let (result, explanation) = sensor_explanation(&ds, ExplainConfig::standard());
        assert!(result.len() > 1);
        assert!(!explanation.predicates.is_empty());
        assert!(explanation.best().unwrap().improvement > 0.3);
    }

    #[test]
    fn fec_harness_reproduces_the_reattribution_predicate() {
        let ds = fec_dataset(10_000);
        let (_, explanation) = fec_explanation(&ds, ExplainConfig::standard());
        assert!(explanation
            .predicates
            .iter()
            .any(|p| p.predicate.to_string().contains("REATTRIBUTION")));
    }

    #[test]
    fn corrupted_harness_and_config_helpers() {
        let ds = corrupted_dataset(4_000);
        let config = config_with_enumerator(CleaningStrategy::None, false);
        assert_eq!(config.enumerator.cleaning, CleaningStrategy::None);
        let (_, explanation) = corrupted_explanation(&ds, vec![], config);
        assert!(!explanation.predicates.is_empty());
    }

    #[test]
    fn query_helpers_and_table_printer() {
        let ds = corrupted_dataset(2_000);
        let with = run_query(&ds.table, &ds.group_avg_query());
        let without = run_query_without_lineage(&ds.table, &ds.group_avg_query());
        assert_eq!(with.rows, without.rows);
        assert!(!with.inputs_of(0).is_empty());
        assert_eq!(without.inputs_of(0).len(), 0);
        print_table("demo", &["a", "b"], &[vec!["1".into(), "2".into()]]);
        assert_eq!(fmt(1.23456), "1.235");
    }
}

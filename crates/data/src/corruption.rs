//! Generic error injection for controlled experiments.
//!
//! Experiments E5 (precision of ranked provenance vs. traditional
//! provenance) and E8 (Dataset Enumerator ablation) need datasets where the
//! erroneous tuples form a *describable* subpopulation — exactly the
//! setting the paper assumes ("users are seeking precise descriptions of
//! the inputs that caused the errors"). This module builds such datasets:
//! a base table with clean numeric measurements plus a corruption targeting
//! the rows matched by a chosen predicate, shifting their measurement value
//! so that aggregates over them become anomalous.

use crate::truth::GroundTruth;
use dbwipes_storage::{Condition, ConjunctivePredicate, DataType, Schema, Table, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the generic corrupted-measurements generator.
#[derive(Debug, Clone)]
pub struct CorruptionConfig {
    /// Number of rows in the generated table.
    pub num_rows: usize,
    /// Number of groups (the `grp` column ranges over `0..num_groups`); the
    /// experiment queries aggregate per group.
    pub num_groups: i64,
    /// Number of distinct devices (`device` column).
    pub num_devices: i64,
    /// Number of distinct regions (`region` column, categorical).
    pub num_regions: usize,
    /// Devices whose measurements are corrupted.
    pub corrupted_devices: Vec<i64>,
    /// Only measurements in groups `>= corruption_start_group` are corrupted
    /// (so the anomaly is localised in the group dimension too).
    pub corruption_start_group: i64,
    /// Amount added to corrupted measurements.
    pub corruption_shift: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CorruptionConfig {
    fn default() -> Self {
        CorruptionConfig {
            num_rows: 20_000,
            num_groups: 50,
            num_devices: 40,
            num_regions: 5,
            corrupted_devices: vec![7, 23],
            corruption_start_group: 30,
            corruption_shift: 80.0,
            seed: 99,
        }
    }
}

impl CorruptionConfig {
    /// A small configuration for unit tests.
    pub fn small() -> Self {
        CorruptionConfig { num_rows: 2_000, ..Default::default() }
    }
}

/// A generated corrupted-measurements dataset.
#[derive(Debug, Clone)]
pub struct CorruptedDataset {
    /// The `measurements` table.
    pub table: Table,
    /// Ground truth for the injected corruption.
    pub truth: GroundTruth,
    /// The configuration used.
    pub config: CorruptionConfig,
}

const REGIONS: &[&str] =
    &["north", "south", "east", "west", "central", "remote", "campus", "plant"];

/// Schema of the generated `measurements` table.
pub fn measurements_schema() -> Schema {
    Schema::of(&[
        ("grp", DataType::Int),
        ("device", DataType::Int),
        ("region", DataType::Str),
        ("load", DataType::Float),
        ("value", DataType::Float),
    ])
}

/// Generates a corrupted-measurements dataset.
pub fn generate_corrupted(config: &CorruptionConfig) -> CorruptedDataset {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut table = Table::new("measurements", measurements_schema()).expect("static schema");
    let mut error_rows = Vec::new();
    let regions = &REGIONS[..config.num_regions.clamp(1, REGIONS.len())];

    for _ in 0..config.num_rows {
        let grp = rng.gen_range(0..config.num_groups.max(1));
        let device = rng.gen_range(0..config.num_devices.max(1));
        let region = regions[(device as usize) % regions.len()];
        let load: f64 = rng.gen_range(0.0..1.0);
        let mut value = 50.0 + 10.0 * load + rng.gen_range(-5.0..5.0);
        let corrupted =
            config.corrupted_devices.contains(&device) && grp >= config.corruption_start_group;
        if corrupted {
            value += config.corruption_shift * (0.8 + 0.4 * rng.gen::<f64>());
        }
        let rid = table
            .push_row(vec![
                Value::Int(grp),
                Value::Int(device),
                Value::str(region),
                Value::Float((load * 1000.0).round() / 1000.0),
                Value::Float((value * 100.0).round() / 100.0),
            ])
            .expect("schema matches");
        if corrupted {
            error_rows.push(rid);
        }
    }

    let true_predicate = ConjunctivePredicate::new(vec![
        Condition::in_set(
            "device",
            config.corrupted_devices.iter().map(|d| Value::Int(*d)).collect(),
        ),
        Condition::at_least("grp", config.corruption_start_group as f64),
    ]);
    let truth = GroundTruth::new(
        error_rows,
        true_predicate,
        format!(
            "devices {:?} shifted by +{} from group {} onwards",
            config.corrupted_devices, config.corruption_shift, config.corruption_start_group
        ),
    );
    CorruptedDataset { table, truth, config: config.clone() }
}

impl CorruptedDataset {
    /// The per-group average query the E5/E8 experiments debug.
    pub fn group_avg_query(&self) -> String {
        "SELECT grp, avg(value) AS avg_value FROM measurements GROUP BY grp ORDER BY grp"
            .to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbwipes_storage::RowId;

    #[test]
    fn corruption_matches_ground_truth_predicate() {
        let ds = generate_corrupted(&CorruptionConfig::small());
        assert!(ds.truth.error_count() > 0);
        let score = ds.truth.score_predicate(&ds.table, &ds.truth.true_predicate.clone());
        assert_eq!(score.precision, 1.0);
        assert_eq!(score.recall, 1.0);
    }

    #[test]
    fn corrupted_values_are_shifted() {
        let ds = generate_corrupted(&CorruptionConfig::small());
        for rid in ds.table.row_ids() {
            let value = ds.table.value_by_name(rid, "value").unwrap().as_f64().unwrap();
            if ds.truth.is_error(rid) {
                assert!(value > 100.0, "corrupted value too small: {value}");
            } else {
                assert!(value < 80.0, "clean value too large: {value}");
            }
        }
    }

    #[test]
    fn deterministic_and_configurable() {
        let a = generate_corrupted(&CorruptionConfig::small());
        let b = generate_corrupted(&CorruptionConfig::small());
        assert_eq!(a.table.row(RowId(5)).unwrap(), b.table.row(RowId(5)).unwrap());
        assert_eq!(a.truth.error_rows, b.truth.error_rows);

        let none = generate_corrupted(&CorruptionConfig {
            corrupted_devices: vec![],
            ..CorruptionConfig::small()
        });
        assert_eq!(none.truth.error_count(), 0);
        assert!(a.group_avg_query().contains("GROUP BY grp"));
    }

    #[test]
    fn schema_and_row_count() {
        let config = CorruptionConfig::small();
        let ds = generate_corrupted(&config);
        assert_eq!(ds.table.num_rows(), config.num_rows);
        assert_eq!(ds.table.schema(), &measurements_schema());
        // Regions are clamped to the available list.
        let huge =
            CorruptionConfig { num_regions: 100, num_rows: 100, ..CorruptionConfig::small() };
        let ds = generate_corrupted(&huge);
        assert_eq!(ds.table.num_rows(), 100);
    }
}

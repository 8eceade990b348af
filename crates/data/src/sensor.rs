//! Synthetic Intel Lab sensor dataset.
//!
//! The demo's second dataset is the Intel Lab deployment: "2.3 million
//! sensor readings collected from 54 sensors across one month. The sensors
//! gather temperature, light, humidity, and voltage data about twice per
//! minute" (§3.1). The anomaly the paper uses throughout (§1, Figure 4,
//! Figure 6) is the classic failure mode of that deployment: as a sensor's
//! battery voltage drops, its temperature readings climb far above 100°F,
//! which inflates the per-window average and standard deviation.
//!
//! This generator reproduces that shape: diurnal temperature cycles per
//! sensor, correlated humidity/light, slowly decaying voltage, and a
//! configurable set of failing sensors whose voltage collapses and whose
//! temperature ramps to ~120°F after a failure point. Ground truth records
//! exactly which readings are corrupted.

use crate::truth::GroundTruth;
use dbwipes_storage::{Condition, ConjunctivePredicate, DataType, RowId, Schema, Table, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the synthetic sensor generator.
#[derive(Debug, Clone)]
pub struct SensorConfig {
    /// Number of sensors in the deployment (the Intel Lab had 54).
    pub num_sensors: usize,
    /// Total number of readings to generate across all sensors.
    pub num_readings: usize,
    /// Seconds between consecutive readings of one sensor (~30s in the
    /// original deployment).
    pub reading_interval_secs: i64,
    /// Ids of sensors that fail during the trace.
    pub failing_sensors: Vec<i64>,
    /// Fraction of the trace (0..1) after which failing sensors start
    /// producing corrupted readings.
    pub failure_start: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SensorConfig {
    fn default() -> Self {
        SensorConfig {
            num_sensors: 54,
            num_readings: 100_000,
            reading_interval_secs: 31,
            failing_sensors: vec![15, 18, 49],
            failure_start: 0.6,
            seed: 54,
        }
    }
}

impl SensorConfig {
    /// A small configuration for fast unit tests.
    pub fn small() -> Self {
        SensorConfig { num_readings: 6_000, ..Default::default() }
    }
}

/// A generated sensor dataset: the `readings` table plus ground truth.
#[derive(Debug, Clone)]
pub struct SensorDataset {
    /// The `readings` table.
    pub table: Table,
    /// Which readings are corrupted and the predicate describing the
    /// failing sensors.
    pub truth: GroundTruth,
    /// The configuration used.
    pub config: SensorConfig,
}

/// The schema of the generated `readings` table.
///
/// `window` is the index of the 30-minute window a reading falls in — the
/// grouping attribute of the paper's running example query ("the average
/// temperature in 30 minute windows").
pub fn readings_schema() -> Schema {
    Schema::of(&[
        ("sensorid", DataType::Int),
        ("epoch", DataType::Timestamp),
        ("hour", DataType::Int),
        ("window", DataType::Int),
        ("temp", DataType::Float),
        ("humidity", DataType::Float),
        ("light", DataType::Float),
        ("voltage", DataType::Float),
    ])
}

/// Generates the synthetic sensor dataset.
pub fn generate_sensor(config: &SensorConfig) -> SensorDataset {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut table = Table::new("readings", readings_schema()).expect("static schema");
    let mut error_rows = Vec::new();

    let readings_per_sensor = (config.num_readings / config.num_sensors.max(1)).max(1);
    let failure_tick = (readings_per_sensor as f64 * config.failure_start) as usize;

    for sensor in 0..config.num_sensors as i64 {
        let failing = config.failing_sensors.contains(&sensor);
        // Per-sensor biases so sensors are distinguishable.
        let temp_offset: f64 = rng.gen_range(-1.5..1.5);
        let humidity_offset: f64 = rng.gen_range(-4.0..4.0);
        for tick in 0..readings_per_sensor {
            let epoch = tick as i64 * config.reading_interval_secs;
            let hour = epoch / 3600;
            let window = epoch / 1800;
            let day_fraction = (epoch % 86_400) as f64 / 86_400.0;
            // Diurnal cycle: coolest at ~4am, warmest mid-afternoon.
            let diurnal = 4.0 * (std::f64::consts::TAU * (day_fraction - 0.33)).sin();
            let noise: f64 = rng.gen_range(-0.6..0.6);
            let mut temp = 21.0 + temp_offset + diurnal + noise;
            let humidity = (45.0 + humidity_offset - 0.8 * diurnal + rng.gen_range(-2.0..2.0))
                .clamp(5.0, 95.0);
            let light = if (0.25..0.75).contains(&day_fraction) {
                rng.gen_range(300.0..600.0)
            } else {
                rng.gen_range(0.0..5.0)
            };
            let mut voltage = 2.75 - 0.15 * (tick as f64 / readings_per_sensor as f64);

            let corrupted = failing && tick >= failure_tick;
            if corrupted {
                // Battery collapse: voltage drops sharply and the reported
                // temperature ramps towards ~122°F with extra jitter.
                let progress = (tick - failure_tick) as f64
                    / (readings_per_sensor - failure_tick).max(1) as f64;
                voltage = 2.0 - 0.4 * progress + rng.gen_range(-0.05..0.05);
                temp = 100.0 + 22.0 * progress + rng.gen_range(-3.0..3.0);
            }

            let rid = table
                .push_row(vec![
                    Value::Int(sensor),
                    Value::Timestamp(epoch),
                    Value::Int(hour),
                    Value::Int(window),
                    Value::Float(round2(temp)),
                    Value::Float(round2(humidity)),
                    Value::Float(round2(light)),
                    Value::Float(round3(voltage)),
                ])
                .expect("schema matches");
            if corrupted {
                error_rows.push(rid);
            }
        }
    }

    let true_predicate = ConjunctivePredicate::new(vec![Condition::in_set(
        "sensorid",
        config.failing_sensors.iter().map(|s| Value::Int(*s)).collect(),
    )]);
    let truth = GroundTruth::new(
        error_rows,
        true_predicate,
        format!(
            "sensors {:?} fail at {:.0}% of the trace and report temperatures above 100F",
            config.failing_sensors,
            config.failure_start * 100.0
        ),
    );
    SensorDataset { table, truth, config: config.clone() }
}

fn round2(v: f64) -> f64 {
    (v * 100.0).round() / 100.0
}

fn round3(v: f64) -> f64 {
    (v * 1000.0).round() / 1000.0
}

impl SensorDataset {
    /// The running-example query of the paper: average and standard
    /// deviation of temperature per 30-minute window (Figure 4, left).
    pub fn window_query(&self) -> String {
        "SELECT window, avg(temp) AS avg_temp, stddev(temp) AS std_temp FROM readings GROUP BY window ORDER BY window".to_string()
    }

    /// Row ids of the corrupted readings.
    pub fn error_rows(&self) -> Vec<RowId> {
        self.truth.error_rows.iter().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_all_sensors_and_schema() {
        let config = SensorConfig::small();
        let ds = generate_sensor(&config);
        assert_eq!(ds.table.schema(), &readings_schema());
        // Every sensor contributes the same number of readings.
        let per_sensor = config.num_readings / config.num_sensors;
        assert_eq!(ds.table.num_rows(), per_sensor * config.num_sensors);
        let ids: std::collections::BTreeSet<i64> = ds
            .table
            .row_ids()
            .map(|r| ds.table.value_by_name(r, "sensorid").unwrap().as_i64().unwrap())
            .collect();
        assert_eq!(ids.len(), config.num_sensors);
    }

    #[test]
    fn corrupted_rows_belong_to_failing_sensors_after_failure_start() {
        let config = SensorConfig::small();
        let ds = generate_sensor(&config);
        assert!(ds.truth.error_count() > 0);
        for rid in ds.error_rows() {
            let sensor = ds.table.value_by_name(rid, "sensorid").unwrap().as_i64().unwrap();
            assert!(config.failing_sensors.contains(&sensor));
            let temp = ds.table.value_by_name(rid, "temp").unwrap().as_f64().unwrap();
            assert!(temp > 90.0, "corrupted temp should be anomalous, got {temp}");
            let voltage = ds.table.value_by_name(rid, "voltage").unwrap().as_f64().unwrap();
            assert!(voltage < 2.2);
        }
    }

    #[test]
    fn healthy_rows_stay_in_normal_ranges() {
        let ds = generate_sensor(&SensorConfig::small());
        for rid in ds.table.row_ids() {
            if ds.truth.is_error(rid) {
                continue;
            }
            let temp = ds.table.value_by_name(rid, "temp").unwrap().as_f64().unwrap();
            assert!((10.0..40.0).contains(&temp), "healthy temp out of range: {temp}");
            let voltage = ds.table.value_by_name(rid, "voltage").unwrap().as_f64().unwrap();
            assert!(voltage > 2.5);
            let humidity = ds.table.value_by_name(rid, "humidity").unwrap().as_f64().unwrap();
            assert!((5.0..=95.0).contains(&humidity));
        }
    }

    #[test]
    fn truth_predicate_covers_all_errors() {
        let ds = generate_sensor(&SensorConfig::small());
        let score = ds.truth.score_predicate(&ds.table, &ds.truth.true_predicate.clone());
        // The sensorid predicate matches every corrupted row (recall 1.0) but
        // also the failing sensors' pre-failure rows, so precision < 1.
        assert_eq!(score.recall, 1.0);
        assert!(score.precision > 0.3 && score.precision < 1.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = generate_sensor(&SensorConfig::small());
        let b = generate_sensor(&SensorConfig::small());
        assert_eq!(a.table.row(RowId(17)).unwrap(), b.table.row(RowId(17)).unwrap());
        assert_eq!(a.truth.error_rows, b.truth.error_rows);
    }

    #[test]
    fn window_column_matches_epoch() {
        let ds = generate_sensor(&SensorConfig::small());
        for rid in ds.table.row_ids().take(200) {
            let epoch = ds.table.value_by_name(rid, "epoch").unwrap().as_i64().unwrap();
            let window = ds.table.value_by_name(rid, "window").unwrap().as_i64().unwrap();
            let hour = ds.table.value_by_name(rid, "hour").unwrap().as_i64().unwrap();
            assert_eq!(window, epoch / 1800);
            assert_eq!(hour, epoch / 3600);
        }
        assert!(ds.window_query().contains("GROUP BY window"));
    }

    #[test]
    fn no_failing_sensors_means_no_errors() {
        let config = SensorConfig { failing_sensors: vec![], ..SensorConfig::small() };
        let ds = generate_sensor(&config);
        assert_eq!(ds.truth.error_count(), 0);
    }
}

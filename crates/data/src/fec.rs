//! Synthetic FEC presidential-campaign contributions dataset.
//!
//! The demo's first dataset is the 2012 FEC presidential contributions dump
//! (§3.1), and the walkthrough (§3.2, Figure 7) analyses the *2008* data:
//! the journalist plots McCain's daily donation totals, notices a negative
//! spike around day 500 of the campaign, zooms in, highlights the negative
//! donations, and DBWipes returns a predicate referencing the memo string
//! "REATTRIBUTION TO SPOUSE".
//!
//! We cannot ship the real FEC dump, so this module generates a synthetic
//! `contributions` table with the same *shape*: per-candidate daily
//! donation volumes with campaign-event spikes, realistic categorical
//! attributes (state, city, occupation), and a cluster of negative
//! reattribution records for one candidate around one day. The generator
//! also returns [`GroundTruth`] naming exactly the injected rows, so the
//! walkthrough can be scored rather than eyeballed.

use crate::truth::GroundTruth;
use dbwipes_storage::{Condition, ConjunctivePredicate, DataType, RowId, Schema, Table, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The memo string used for the injected anomaly — taken verbatim from the
/// paper's walkthrough.
pub const REATTRIBUTION_MEMO: &str = "REATTRIBUTION TO SPOUSE";

/// Configuration of the synthetic FEC generator.
#[derive(Debug, Clone)]
pub struct FecConfig {
    /// Total number of contribution rows to generate.
    pub num_contributions: usize,
    /// Number of campaign days covered (day column ranges over `0..num_days`).
    pub num_days: i64,
    /// Candidate receiving the injected reattribution anomaly.
    pub target_candidate: String,
    /// Campaign day around which the reattribution cluster is centred
    /// (the paper's "strange negative spike ... around day 500").
    pub reattribution_day: i64,
    /// Number of reattribution (negative amount) rows injected.
    pub reattribution_count: usize,
    /// Half-width, in days, of the reattribution cluster.
    pub reattribution_spread: i64,
    /// RNG seed (the generator is fully deterministic given the config).
    pub seed: u64,
}

impl Default for FecConfig {
    fn default() -> Self {
        FecConfig {
            num_contributions: 50_000,
            num_days: 600,
            target_candidate: "McCain".to_string(),
            reattribution_day: 500,
            reattribution_count: 400,
            reattribution_spread: 3,
            seed: 2012,
        }
    }
}

impl FecConfig {
    /// A small configuration for fast unit tests.
    pub fn small() -> Self {
        FecConfig { num_contributions: 4_000, reattribution_count: 80, ..Default::default() }
    }
}

/// A generated FEC dataset: the `contributions` table plus ground truth.
#[derive(Debug, Clone)]
pub struct FecDataset {
    /// The `contributions` table.
    pub table: Table,
    /// Which rows were injected as reattribution errors and the predicate
    /// that describes them.
    pub truth: GroundTruth,
    /// The configuration used.
    pub config: FecConfig,
}

const CANDIDATES: &[&str] = &["McCain", "Obama", "Romney", "Paul", "Clinton"];
const STATES: &[&str] = &["CA", "NY", "TX", "MA", "FL", "WA", "IL", "OH", "VA", "PA"];
const CITIES: &[&str] = &[
    "San Francisco",
    "New York",
    "Austin",
    "Boston",
    "Miami",
    "Seattle",
    "Chicago",
    "Columbus",
    "Richmond",
    "Philadelphia",
];
const OCCUPATIONS: &[&str] = &[
    "ENGINEER",
    "TEACHER",
    "ATTORNEY",
    "PHYSICIAN",
    "RETIRED",
    "HOMEMAKER",
    "CEO",
    "CONSULTANT",
    "PROFESSOR",
    "NOT EMPLOYED",
];
const ORDINARY_MEMOS: &[&str] =
    &["", "", "", "", "ONLINE DONATION", "EVENT TICKET", "MAIL IN", "PAYROLL DEDUCTION"];

/// The schema of the generated `contributions` table.
pub fn contributions_schema() -> Schema {
    Schema::of(&[
        ("candidate", DataType::Str),
        ("state", DataType::Str),
        ("city", DataType::Str),
        ("occupation", DataType::Str),
        ("amount", DataType::Float),
        ("day", DataType::Int),
        ("memo", DataType::Str),
    ])
}

/// Generates the synthetic FEC contributions dataset.
pub fn generate_fec(config: &FecConfig) -> FecDataset {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut table = Table::new("contributions", contributions_schema()).expect("static schema");

    // Campaign-event spike days: donation volume and size jump on these days
    // (the walkthrough notes "each contribution spike correlates with a
    // major campaign event").
    let num_events = 6;
    let event_days: Vec<i64> =
        (1..=num_events).map(|k| k * config.num_days / (num_events + 1)).collect();

    let ordinary_rows = config.num_contributions.saturating_sub(config.reattribution_count);
    for _ in 0..ordinary_rows {
        let candidate = CANDIDATES[rng.gen_range(0..CANDIDATES.len())];
        let loc = rng.gen_range(0..STATES.len());
        let occupation = OCCUPATIONS[rng.gen_range(0..OCCUPATIONS.len())];
        // Bias days towards campaign events.
        let day = if rng.gen_bool(0.25) {
            let event = event_days[rng.gen_range(0..event_days.len())];
            (event + rng.gen_range(-2..=2)).clamp(0, config.num_days - 1)
        } else {
            rng.gen_range(0..config.num_days)
        };
        // Donation amounts: mostly small, occasionally the legal maximum.
        let amount = if rng.gen_bool(0.05) {
            2300.0
        } else {
            let base: f64 = rng.gen_range(10.0..500.0);
            (base * 4.0).round() / 4.0
        };
        let memo = ORDINARY_MEMOS[rng.gen_range(0..ORDINARY_MEMOS.len())];
        table
            .push_row(vec![
                Value::str(candidate),
                Value::str(STATES[loc]),
                Value::str(CITIES[loc]),
                Value::str(occupation),
                Value::Float(amount),
                Value::Int(day),
                Value::str(memo),
            ])
            .expect("schema matches");
    }

    // Inject the reattribution cluster: negative donations to the target
    // candidate, concentrated around `reattribution_day`, from wealthy
    // occupations (the walkthrough's "high profile individuals (e.g., CEOs)").
    let mut error_rows = Vec::with_capacity(config.reattribution_count);
    for _ in 0..config.reattribution_count {
        let day = (config.reattribution_day
            + rng.gen_range(-config.reattribution_spread..=config.reattribution_spread))
        .clamp(0, config.num_days - 1);
        let loc = rng.gen_range(0..STATES.len());
        let occupation = if rng.gen_bool(0.7) { "CEO" } else { "ATTORNEY" };
        let amount = -(rng.gen_range(1000.0..2300.0f64).round());
        let rid = table
            .push_row(vec![
                Value::str(config.target_candidate.clone()),
                Value::str(STATES[loc]),
                Value::str(CITIES[loc]),
                Value::str(occupation),
                Value::Float(amount),
                Value::Int(day),
                Value::str(REATTRIBUTION_MEMO),
            ])
            .expect("schema matches");
        error_rows.push(rid);
    }

    let true_predicate =
        ConjunctivePredicate::new(vec![Condition::contains("memo", "REATTRIBUTION")]);
    let truth = GroundTruth::new(
        error_rows,
        true_predicate,
        format!(
            "{} negative '{}' contributions to {} around day {}",
            config.reattribution_count,
            REATTRIBUTION_MEMO,
            config.target_candidate,
            config.reattribution_day
        ),
    );
    FecDataset { table, truth, config: config.clone() }
}

impl FecDataset {
    /// The SQL query the walkthrough starts from: the target candidate's
    /// total received donations per day (Figure 7).
    pub fn daily_total_query(&self) -> String {
        format!(
            "SELECT day, sum(amount) AS total FROM contributions WHERE candidate = '{}' GROUP BY day ORDER BY day",
            self.config.target_candidate
        )
    }

    /// Row ids of the injected reattribution records.
    pub fn error_rows(&self) -> Vec<RowId> {
        self.truth.error_rows.iter().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbwipes_storage::col;

    #[test]
    fn generates_requested_row_count_and_schema() {
        let ds = generate_fec(&FecConfig::small());
        assert_eq!(ds.table.num_rows(), FecConfig::small().num_contributions);
        assert_eq!(ds.table.schema(), &contributions_schema());
        assert_eq!(ds.truth.error_count(), FecConfig::small().reattribution_count);
        assert_eq!(ds.error_rows().len(), FecConfig::small().reattribution_count);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = generate_fec(&FecConfig::small());
        let b = generate_fec(&FecConfig::small());
        assert_eq!(a.table.num_rows(), b.table.num_rows());
        for rid in [RowId(0), RowId(100), RowId(3999)] {
            assert_eq!(a.table.row(rid).unwrap(), b.table.row(rid).unwrap());
        }
        let c = generate_fec(&FecConfig { seed: 7, ..FecConfig::small() });
        assert_ne!(a.table.row(RowId(0)).unwrap(), c.table.row(RowId(0)).unwrap());
    }

    #[test]
    fn injected_rows_are_negative_reattributions_near_the_target_day() {
        let config = FecConfig::small();
        let ds = generate_fec(&config);
        for rid in ds.error_rows() {
            let amount = ds.table.value_by_name(rid, "amount").unwrap().as_f64().unwrap();
            assert!(amount < 0.0);
            let memo = ds.table.value_by_name(rid, "memo").unwrap();
            assert_eq!(memo, Value::str(REATTRIBUTION_MEMO));
            let day = ds.table.value_by_name(rid, "day").unwrap().as_i64().unwrap();
            assert!((day - config.reattribution_day).abs() <= config.reattribution_spread);
            let cand = ds.table.value_by_name(rid, "candidate").unwrap();
            assert_eq!(cand, Value::str("McCain"));
        }
    }

    #[test]
    fn ordinary_rows_have_positive_amounts_and_no_reattribution_memo() {
        let ds = generate_fec(&FecConfig::small());
        let negatives = col("amount").lt(dbwipes_storage::lit(0.0)).filter(&ds.table).unwrap();
        // Every negative row is an injected error and vice versa.
        assert_eq!(negatives.len(), ds.truth.error_count());
        for rid in negatives {
            assert!(ds.truth.is_error(rid));
        }
        let memo_match = ds.truth.true_predicate.matching_rows(&ds.table);
        assert_eq!(memo_match.len(), ds.truth.error_count());
    }

    #[test]
    fn ground_truth_predicate_scores_perfectly() {
        let ds = generate_fec(&FecConfig::small());
        let score = ds.truth.score_predicate(&ds.table, &ds.truth.true_predicate.clone());
        assert_eq!(score.precision, 1.0);
        assert_eq!(score.recall, 1.0);
    }

    #[test]
    fn daily_total_query_mentions_candidate_and_grouping() {
        let ds = generate_fec(&FecConfig::small());
        let q = ds.daily_total_query();
        assert!(q.contains("candidate = 'McCain'"));
        assert!(q.contains("GROUP BY day"));
        assert!(q.contains("sum(amount)"));
    }

    #[test]
    fn amounts_and_days_are_in_range() {
        let config = FecConfig::small();
        let ds = generate_fec(&config);
        for rid in ds.table.row_ids() {
            let day = ds.table.value_by_name(rid, "day").unwrap().as_i64().unwrap();
            assert!(day >= 0 && day < config.num_days);
            let amount = ds.table.value_by_name(rid, "amount").unwrap().as_f64().unwrap();
            assert!(amount.abs() <= 2300.0 + 1e-9);
        }
    }
}

//! The Dataset Enumerator: clean D′ and extend it into candidate D* sets.
//!
//! "The Dataset Enumerator cleans D′ by identifying a self consistent
//! subset. We are currently experimenting with clustering (e.g., K-means)
//! and classification based techniques ... We then extend the cleaned D′
//! using subgroup discovery algorithms to find groups of inputs that highly
//! influence ε. ... The output of the component is a set of n candidate
//! datasets Dᶜ₁, ..., Dᶜₙ" (paper §2.2.2).

use crate::influence::InfluenceReport;
use dbwipes_learn::{
    discover_subgroups, kmeans, to_points, FeatureSpace, NaiveBayes, SubgroupConfig,
};
use dbwipes_storage::{RowId, RowSet, Table};
use std::collections::BTreeSet;

/// How the user's example tuples D′ are cleaned before extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CleaningStrategy {
    /// Keep D′ as-is.
    None,
    /// Cluster D′ with k-means (k = 2) and keep the dominant cluster —
    /// accidental selections fall into the minority cluster.
    #[default]
    KMeans,
    /// Train a naive Bayes classifier on D′ (positive) vs. the rest of F
    /// (negative) and drop D′ members the classifier rejects.
    NaiveBayes,
}

/// Configuration of the Dataset Enumerator.
#[derive(Debug, Clone)]
pub struct EnumeratorConfig {
    /// Cleaning strategy applied to D′.
    pub cleaning: CleaningStrategy,
    /// Whether to extend the cleaned D′ with subgroup discovery over the
    /// high-influence portion of F.
    pub extend_with_subgroups: bool,
    /// Subgroup-discovery parameters.
    pub subgroup: SubgroupConfig,
}

impl Default for EnumeratorConfig {
    fn default() -> Self {
        EnumeratorConfig {
            cleaning: CleaningStrategy::KMeans,
            extend_with_subgroups: true,
            subgroup: SubgroupConfig::default(),
        }
    }
}

/// Fraction of F, by influence rank, treated as high-influence positives
/// when mining subgroups (the top 10%).
const INFLUENCE_FRACTION: f64 = 0.1;

/// Maximum number of candidate datasets returned.
const MAX_CANDIDATES: usize = 8;

/// RNG seed of the k-means cleaning.
const KMEANS_SEED: u64 = 7;

/// Where a candidate dataset came from (recorded so the ablation experiment
/// E8 and the dashboard can attribute predicates to pipeline stages).
#[derive(Debug, Clone, PartialEq)]
pub enum CandidateSource {
    /// The user's example tuples after the cleaning stage ran (which may
    /// have kept all of them, or skipped clustering for a tiny D′).
    CleanedExamples,
    /// The raw example tuples (only emitted when cleaning is disabled).
    RawExamples,
    /// A subgroup discovered over the high-influence portion of F; the
    /// string is the subgroup's human-readable description.
    Subgroup(String),
    /// The top of the Preprocessor's influence ranking — the fallback used
    /// when cleaning and subgroup extension produced no candidates (e.g. no
    /// examples were supplied, or extension found no subgroup), so
    /// downstream stages always receive a candidate.
    HighInfluence,
}

/// A candidate approximation of D* (the erroneous inputs).
#[derive(Debug, Clone)]
pub struct CandidateDataset {
    /// The candidate's rows (a subset of F).
    pub rows: Vec<RowId>,
    /// How the candidate was produced.
    pub source: CandidateSource,
}

impl CandidateDataset {
    /// Number of rows in the candidate.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the candidate has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// Cleans D′ and extends it into candidate datasets.
///
/// `examples` is D′, `influence` is the Preprocessor's report over F, and
/// `space` is the feature space over the queried table's attributes.
/// Candidates are deduplicated; the cleaned D′ always appears first.
pub fn enumerate_candidates(
    table: &Table,
    space: &FeatureSpace,
    examples: &[RowId],
    influence: &InfluenceReport,
    config: &EnumeratorConfig,
) -> Vec<CandidateDataset> {
    let mut candidates: Vec<CandidateDataset> = Vec::new();
    let f_rows: Vec<RowId> = influence.inputs();

    // 1. Clean D′.
    let cleaned = clean_examples(table, space, examples, &f_rows, config);
    let cleaned_set: BTreeSet<RowId> = cleaned.iter().copied().collect();
    if !cleaned.is_empty() {
        let source = if config.cleaning == CleaningStrategy::None {
            CandidateSource::RawExamples
        } else {
            CandidateSource::CleanedExamples
        };
        candidates.push(CandidateDataset { rows: cleaned.clone(), source });
    }

    // 2. Extend with subgroup discovery over F, where the positive class is
    //    "in cleaned D′ or among the most influential tuples". Membership
    //    tests run against RowSet bitmaps: labelling all of F is then one
    //    O(1) probe per row instead of an ordered-set lookup.
    if config.extend_with_subgroups && !f_rows.is_empty() {
        let num_rows = table.num_rows();
        let top_n = ((f_rows.len() as f64) * INFLUENCE_FRACTION).ceil() as usize;
        let mut positive_set =
            RowSet::from_rows(num_rows, cleaned.iter().filter(|r| r.index() < num_rows));
        for t in
            influence.influences.iter().filter(|t| t.influence > 0.0).take(top_n.max(cleaned.len()))
        {
            if t.row.index() < num_rows {
                positive_set.insert(t.row.index());
            }
        }
        let labels: Vec<bool> = f_rows.iter().map(|r| positive_set.contains_row(*r)).collect();
        if labels.iter().any(|&l| l) && labels.iter().any(|&l| !l) {
            let dataset = space.extract(table, &f_rows);
            let subgroups = discover_subgroups(&dataset, &labels, &config.subgroup);
            for sg in subgroups {
                let covered: BTreeSet<RowId> =
                    sg.covered_indices(&dataset).into_iter().map(|i| f_rows[i]).collect();
                let rows: Vec<RowId> = covered.union(&cleaned_set).copied().collect();
                let description = sg.to_predicate(space).to_string();
                candidates.push(CandidateDataset {
                    rows,
                    source: CandidateSource::Subgroup(description),
                });
            }
        }
    }

    // 3. Fallback: with no (usable) examples and no subgroup extension the
    //    list can still be empty; approximate D* straight from the
    //    Preprocessor's influence ranking so the Predicate Enumerator always
    //    has something to train against.
    if candidates.is_empty() && !f_rows.is_empty() {
        let top_n = (((f_rows.len() as f64) * INFLUENCE_FRACTION).ceil() as usize).max(1);
        let rows: Vec<RowId> = influence
            .influences
            .iter()
            .filter(|t| t.influence > 0.0)
            .take(top_n)
            .map(|t| t.row)
            .collect();
        if !rows.is_empty() {
            candidates.push(CandidateDataset { rows, source: CandidateSource::HighInfluence });
        }
    }

    // Deduplicate by row set, preserving order.
    let mut seen: Vec<BTreeSet<RowId>> = Vec::new();
    candidates.retain(|c| {
        let set: BTreeSet<RowId> = c.rows.iter().copied().collect();
        if seen.contains(&set) {
            false
        } else {
            seen.push(set);
            true
        }
    });
    candidates.truncate(MAX_CANDIDATES);
    candidates
}

/// Applies the configured cleaning strategy to D′.
fn clean_examples(
    table: &Table,
    space: &FeatureSpace,
    examples: &[RowId],
    f_rows: &[RowId],
    config: &EnumeratorConfig,
) -> Vec<RowId> {
    if examples.len() < 4 || config.cleaning == CleaningStrategy::None || space.is_empty() {
        return examples.to_vec();
    }
    match config.cleaning {
        CleaningStrategy::None => examples.to_vec(),
        CleaningStrategy::KMeans => {
            let dataset = space.extract(table, examples);
            let points = to_points(&dataset);
            let result = kmeans(&points, 2, 50, KMEANS_SEED);
            if result.centroids.len() < 2 {
                return examples.to_vec();
            }
            let dominant = result.dominant_cluster();
            let members = result.members_of(dominant);
            // Never throw away more than half of the user's selection: if the
            // clusters are balanced the selection is probably fine as-is.
            if members.len() * 2 < examples.len() {
                return examples.to_vec();
            }
            members.into_iter().map(|i| examples[i]).collect()
        }
        CleaningStrategy::NaiveBayes => {
            let example_set: BTreeSet<RowId> = examples.iter().copied().collect();
            let negatives: Vec<RowId> =
                f_rows.iter().filter(|r| !example_set.contains(r)).copied().collect();
            if negatives.is_empty() {
                return examples.to_vec();
            }
            let mut all_rows: Vec<RowId> = examples.to_vec();
            all_rows.extend(negatives.iter().copied());
            let labels: Vec<bool> = all_rows.iter().map(|r| example_set.contains(r)).collect();
            let dataset = space.extract(table, &all_rows);
            let Some(nb) = NaiveBayes::train(&dataset, &labels) else {
                return examples.to_vec();
            };
            let kept: Vec<RowId> = examples
                .iter()
                .enumerate()
                .filter(|(i, _)| nb.predict(&dataset.instance(*i)))
                .map(|(_, r)| *r)
                .collect();
            if kept.len() * 2 < examples.len() {
                examples.to_vec()
            } else {
                kept
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::influence::rank_influence;
    use crate::metric::ErrorMetric;
    use dbwipes_engine::execute_sql;
    use dbwipes_storage::{Catalog, DataType, Schema, Value};

    /// 200 readings in one group; sensor 15 (10% of rows) reports ~120F,
    /// everything else ~20F.
    fn setup() -> (Catalog, Vec<RowId>, Vec<RowId>) {
        let mut t = Table::new(
            "readings",
            Schema::of(&[
                ("window", DataType::Int),
                ("sensorid", DataType::Int),
                ("voltage", DataType::Float),
                ("temp", DataType::Float),
            ]),
        )
        .unwrap();
        let mut broken = Vec::new();
        for i in 0..200i64 {
            let sensor = i % 20;
            let is_broken = sensor == 15;
            let temp = if is_broken { 118.0 + (i % 5) as f64 } else { 19.0 + (i % 7) as f64 };
            let voltage = if is_broken { 1.9 } else { 2.6 };
            let rid = t
                .push_row(vec![
                    Value::Int(0),
                    Value::Int(sensor),
                    Value::Float(voltage),
                    Value::Float(temp),
                ])
                .unwrap();
            if is_broken {
                broken.push(rid);
            }
        }
        let mut c = Catalog::new();
        c.register(t).unwrap();
        let all: Vec<RowId> = c.table("readings").unwrap().row_ids().collect();
        (c, broken, all)
    }

    fn influence_report(c: &Catalog) -> InfluenceReport {
        let r = execute_sql(c, "SELECT window, avg(temp) FROM readings GROUP BY window").unwrap();
        rank_influence(
            c.table("readings").unwrap(),
            &r,
            &[0],
            &ErrorMetric::too_high("avg_temp", 25.0),
        )
        .unwrap()
    }

    fn space(c: &Catalog, rows: &[RowId]) -> FeatureSpace {
        FeatureSpace::build_excluding(c.table("readings").unwrap(), &["temp".into()], rows)
    }

    #[test]
    fn produces_candidates_containing_the_broken_sensor() {
        let (c, broken, all) = setup();
        let report = influence_report(&c);
        let space = space(&c, &all);
        // D' = a handful of the broken readings.
        let examples: Vec<RowId> = broken.iter().copied().take(5).collect();
        let candidates = enumerate_candidates(
            c.table("readings").unwrap(),
            &space,
            &examples,
            &report,
            &EnumeratorConfig::default(),
        );
        assert!(!candidates.is_empty());
        assert!(candidates.len() <= MAX_CANDIDATES);
        // The first candidate is the (cleaned) example set.
        assert_eq!(candidates[0].source, CandidateSource::CleanedExamples);
        assert!(candidates[0].len() >= 3);
        // At least one subgroup-extended candidate covers most broken rows.
        let best_coverage = candidates
            .iter()
            .map(|cand| broken.iter().filter(|b| cand.rows.contains(b)).count())
            .max()
            .unwrap();
        assert!(
            best_coverage >= broken.len() / 2,
            "best candidate covers only {best_coverage}/{} broken rows",
            broken.len()
        );
        // Subgroup candidates carry a description.
        assert!(candidates
            .iter()
            .any(|cand| matches!(&cand.source, CandidateSource::Subgroup(d) if !d.is_empty())));
    }

    #[test]
    fn kmeans_cleaning_drops_accidental_selections() {
        let (c, broken, all) = setup();
        let report = influence_report(&c);
        let space = space(&c, &all);
        // D' = 8 broken readings plus 2 accidental normal ones.
        let mut examples: Vec<RowId> = broken.iter().copied().take(8).collect();
        examples.push(RowId(0));
        examples.push(RowId(1));
        let config = EnumeratorConfig {
            extend_with_subgroups: false,
            cleaning: CleaningStrategy::KMeans,
            ..Default::default()
        };
        let candidates =
            enumerate_candidates(c.table("readings").unwrap(), &space, &examples, &report, &config);
        assert_eq!(candidates.len(), 1);
        let cleaned = &candidates[0].rows;
        assert!(cleaned.len() < examples.len(), "cleaning removed nothing");
        assert!(!cleaned.contains(&RowId(0)));
        assert!(!cleaned.contains(&RowId(1)));
        assert!(cleaned.iter().all(|r| broken.contains(r)));
    }

    #[test]
    fn naive_bayes_cleaning_also_drops_outliers() {
        let (c, broken, all) = setup();
        let report = influence_report(&c);
        let space = space(&c, &all);
        let mut examples: Vec<RowId> = broken.iter().copied().take(8).collect();
        examples.push(RowId(0));
        let config = EnumeratorConfig {
            extend_with_subgroups: false,
            cleaning: CleaningStrategy::NaiveBayes,
            ..Default::default()
        };
        let candidates =
            enumerate_candidates(c.table("readings").unwrap(), &space, &examples, &report, &config);
        assert_eq!(candidates.len(), 1);
        assert!(!candidates[0].rows.contains(&RowId(0)));
    }

    #[test]
    fn no_cleaning_keeps_examples_verbatim() {
        let (c, broken, all) = setup();
        let report = influence_report(&c);
        let space = space(&c, &all);
        let mut examples: Vec<RowId> = broken.iter().copied().take(6).collect();
        examples.push(RowId(0));
        let config = EnumeratorConfig {
            cleaning: CleaningStrategy::None,
            extend_with_subgroups: false,
            ..Default::default()
        };
        let candidates =
            enumerate_candidates(c.table("readings").unwrap(), &space, &examples, &report, &config);
        assert_eq!(candidates.len(), 1);
        assert_eq!(candidates[0].rows, examples);
        assert_eq!(candidates[0].source, CandidateSource::RawExamples);
    }

    #[test]
    fn small_example_sets_are_never_cleaned_away() {
        let (c, broken, all) = setup();
        let report = influence_report(&c);
        let space = space(&c, &all);
        let examples: Vec<RowId> = broken.iter().copied().take(2).collect();
        let candidates = enumerate_candidates(
            c.table("readings").unwrap(),
            &space,
            &examples,
            &report,
            &EnumeratorConfig::default(),
        );
        assert!(candidates[0].rows.len() >= 2);
        assert!(!candidates[0].is_empty());
    }

    #[test]
    fn candidates_are_deduplicated_and_capped() {
        let (c, broken, all) = setup();
        let report = influence_report(&c);
        let space = space(&c, &all);
        let examples: Vec<RowId> = broken.iter().copied().take(5).collect();
        let candidates = enumerate_candidates(
            c.table("readings").unwrap(),
            &space,
            &examples,
            &report,
            &EnumeratorConfig::default(),
        );
        assert!(candidates.len() <= MAX_CANDIDATES);
        // Row sets are pairwise distinct.
        for i in 0..candidates.len() {
            for j in (i + 1)..candidates.len() {
                assert_ne!(candidates[i].rows, candidates[j].rows);
            }
        }
    }
}

//! Gaussian / categorical naive Bayes classifier.
//!
//! The Dataset Enumerator's cleaning step also experiments with
//! "classification based techniques that train classifiers on D′ and remove
//! elements that are not consistent with the classifier" (paper §2.2.2).
//! This classifier is trained on the user's example tuples (positive) vs. a
//! sample of the remaining inputs (negative) and is then used to score how
//! *consistent* each example is with the bulk of D′; low-likelihood examples
//! are treated as accidental selections and dropped.

use crate::features::{Dataset, FeatureColumn, FeatureValue};

/// Per-feature sufficient statistics for one class.
#[derive(Debug, Clone)]
enum FeatureModel {
    /// Gaussian with mean and variance (variance floored for stability).
    Gaussian { mean: f64, variance: f64 },
    /// Categorical with Laplace-smoothed probabilities per category index.
    Categorical { probs: Vec<f64>, fallback: f64 },
}

/// Class-conditional model: prior plus one model per feature.
#[derive(Debug, Clone)]
struct ClassModel {
    log_prior: f64,
    features: Vec<FeatureModel>,
}

/// A trained binary naive Bayes classifier.
#[derive(Debug, Clone)]
pub struct NaiveBayes {
    positive: ClassModel,
    negative: ClassModel,
}

/// The variance floor used for Gaussian features; prevents a feature with a
/// single observed value from producing infinite log-likelihoods.
const MIN_VARIANCE: f64 = 1e-6;

impl NaiveBayes {
    /// Trains the classifier. Instances with `labels[i] == true` form the
    /// positive class. Returns `None` when either class is empty.
    pub fn train(dataset: &Dataset, labels: &[bool]) -> Option<NaiveBayes> {
        assert_eq!(dataset.len(), labels.len(), "labels must align with instances");
        let pos_idx: Vec<usize> = (0..dataset.len()).filter(|&i| labels[i]).collect();
        let neg_idx: Vec<usize> = (0..dataset.len()).filter(|&i| !labels[i]).collect();
        if pos_idx.is_empty() || neg_idx.is_empty() {
            return None;
        }
        let total = dataset.len() as f64;
        Some(NaiveBayes {
            positive: fit_class(dataset, &pos_idx, pos_idx.len() as f64 / total),
            negative: fit_class(dataset, &neg_idx, neg_idx.len() as f64 / total),
        })
    }

    /// Log-likelihood ratio `log P(x | +) + log P(+) − log P(x | −) − log P(−)`.
    /// Positive values favour the positive class.
    pub fn log_odds(&self, instance: &[FeatureValue]) -> f64 {
        class_log_likelihood(&self.positive, instance)
            - class_log_likelihood(&self.negative, instance)
    }

    /// Predicts the class of an instance.
    pub fn predict(&self, instance: &[FeatureValue]) -> bool {
        self.log_odds(instance) > 0.0
    }

    /// Classification accuracy over a dataset.
    pub fn accuracy(&self, dataset: &Dataset, labels: &[bool]) -> f64 {
        if dataset.is_empty() {
            return 0.0;
        }
        let correct = labels
            .iter()
            .enumerate()
            .filter(|&(i, &l)| self.predict(&dataset.instance(i)) == l)
            .count();
        correct as f64 / dataset.len() as f64
    }
}

fn fit_class(dataset: &Dataset, indices: &[usize], prior: f64) -> ClassModel {
    let mut features = Vec::with_capacity(dataset.num_features());
    for column in dataset.columns() {
        // The class's present cells of this feature, in instance order.
        let mut numeric: Vec<f64> = Vec::new();
        let mut categories: Vec<usize> = Vec::new();
        match column {
            FeatureColumn::Numeric(column) => {
                numeric.extend(indices.iter().filter_map(|&i| column.get(i)));
            }
            FeatureColumn::Categorical { codes, cardinality } => categories.extend(
                indices.iter().map(|&i| codes[i] as usize).filter(|code| code < cardinality),
            ),
        }
        if !numeric.is_empty() {
            let n = numeric.len() as f64;
            let mean = numeric.iter().sum::<f64>() / n;
            let variance =
                (numeric.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n).max(MIN_VARIANCE);
            features.push(FeatureModel::Gaussian { mean, variance });
        } else {
            let max_cat = categories.iter().copied().max().unwrap_or(0);
            let mut counts = vec![0.0f64; max_cat + 1];
            for c in &categories {
                counts[*c] += 1.0;
            }
            let total = categories.len() as f64;
            let k = counts.len() as f64;
            let probs: Vec<f64> = counts.iter().map(|c| (c + 1.0) / (total + k)).collect();
            let fallback = 1.0 / (total + k);
            features.push(FeatureModel::Categorical { probs, fallback });
        }
    }
    ClassModel { log_prior: prior.max(1e-12).ln(), features }
}

fn class_log_likelihood(model: &ClassModel, instance: &[FeatureValue]) -> f64 {
    let mut ll = model.log_prior;
    for (j, fm) in model.features.iter().enumerate() {
        let v = instance.get(j).copied().unwrap_or(FeatureValue::Missing);
        match (fm, v) {
            (FeatureModel::Gaussian { mean, variance }, FeatureValue::Num(x)) => {
                ll += -0.5 * ((x - mean).powi(2) / variance)
                    - 0.5 * (2.0 * std::f64::consts::PI * variance).ln();
            }
            (FeatureModel::Categorical { probs, fallback }, FeatureValue::Cat(c)) => {
                ll += probs.get(c).copied().unwrap_or(*fallback).max(1e-12).ln();
            }
            // Missing or mismatched values contribute nothing (equivalent to
            // marginalising the feature out).
            _ => {}
        }
    }
    ll
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset(points: Vec<(f64, usize)>) -> (Dataset, Vec<bool>) {
        // Feature 0: numeric, feature 1: categorical. Label = numeric > 50.
        let labels: Vec<bool> = points.iter().map(|(x, _)| *x > 50.0).collect();
        let instances = points
            .into_iter()
            .map(|(x, c)| vec![FeatureValue::Num(x), FeatureValue::Cat(c)])
            .collect::<Vec<_>>();
        (Dataset::from_rows(&instances).unwrap(), labels)
    }

    fn training_data() -> (Dataset, Vec<bool>) {
        let mut pts = Vec::new();
        for i in 0..40 {
            pts.push((20.0 + (i % 7) as f64, i % 2)); // negatives near 20
        }
        for i in 0..40 {
            pts.push((100.0 + (i % 7) as f64, i % 3)); // positives near 100
        }
        dataset(pts)
    }

    #[test]
    fn separates_gaussian_classes() {
        let (ds, labels) = training_data();
        let nb = NaiveBayes::train(&ds, &labels).unwrap();
        assert!(nb.accuracy(&ds, &labels) > 0.95);
        assert!(nb.predict(&[FeatureValue::Num(105.0), FeatureValue::Cat(0)]));
        assert!(!nb.predict(&[FeatureValue::Num(22.0), FeatureValue::Cat(0)]));
        assert!(nb.log_odds(&[FeatureValue::Num(105.0), FeatureValue::Cat(0)]) > 0.0);
    }

    #[test]
    fn missing_features_fall_back_to_priors() {
        let (ds, labels) = training_data();
        let nb = NaiveBayes::train(&ds, &labels).unwrap();
        // With all features missing the decision reduces to the priors,
        // which are balanced here, so |log odds| is tiny.
        let odds = nb.log_odds(&[FeatureValue::Missing, FeatureValue::Missing]);
        assert!(odds.abs() < 1e-9);
        // Unknown category index uses the smoothed fallback, not a panic.
        let _ = nb.predict(&[FeatureValue::Num(100.0), FeatureValue::Cat(99)]);
    }

    #[test]
    fn empty_class_returns_none() {
        let (ds, _) = training_data();
        assert!(NaiveBayes::train(&ds, &vec![true; ds.len()]).is_none());
        assert!(NaiveBayes::train(&ds, &vec![false; ds.len()]).is_none());
    }

    #[test]
    fn constant_feature_does_not_blow_up() {
        let instances = vec![
            vec![FeatureValue::Num(1.0)],
            vec![FeatureValue::Num(1.0)],
            vec![FeatureValue::Num(1.0)],
            vec![FeatureValue::Num(2.0)],
        ];
        let ds = Dataset::from_rows(&instances).unwrap();
        let labels = vec![true, true, false, false];
        let nb = NaiveBayes::train(&ds, &labels).unwrap();
        let odds = nb.log_odds(&[FeatureValue::Num(1.0)]);
        assert!(odds.is_finite());
    }

    #[test]
    #[should_panic(expected = "labels must align")]
    fn mismatched_labels_panic() {
        let (ds, _) = training_data();
        NaiveBayes::train(&ds, &[true]);
    }
}

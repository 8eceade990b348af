//! K-means clustering over numeric feature vectors.
//!
//! The Dataset Enumerator "cleans D′ by identifying a self consistent
//! subset. We are currently experimenting with clustering (e.g., K-means)"
//! (paper §2.2.2): the user-highlighted example tuples D′ may contain
//! accidental selections, and k-means lets the enumerator keep only the
//! dominant cluster of examples before extending it.

use crate::features::{Dataset, FeatureColumn, MISSING_CODE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Result of a k-means run.
#[derive(Debug, Clone)]
pub struct KMeansResult {
    /// Cluster centroids (k × d).
    pub centroids: Vec<Vec<f64>>,
    /// Cluster assignment of each input point.
    pub assignments: Vec<usize>,
    /// Sum of squared distances of points to their centroid.
    pub inertia: f64,
    /// Number of Lloyd iterations performed.
    pub iterations: usize,
}

impl KMeansResult {
    /// Number of points assigned to each cluster.
    pub fn cluster_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.centroids.len()];
        for &a in &self.assignments {
            sizes[a] += 1;
        }
        sizes
    }

    /// Index of the largest cluster (ties broken by lower index).
    pub fn dominant_cluster(&self) -> usize {
        let sizes = self.cluster_sizes();
        sizes
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Indices of the points assigned to `cluster`.
    pub fn members_of(&self, cluster: usize) -> Vec<usize> {
        self.assignments.iter().enumerate().filter(|(_, &a)| a == cluster).map(|(i, _)| i).collect()
    }
}

/// Converts a [`Dataset`] into dense numeric points, replacing categorical
/// values by their index and missing values by the column mean, and
/// standardising every column to zero mean / unit variance so that columns
/// with large magnitudes (timestamps, donation amounts) do not dominate the
/// distance metric.
pub fn to_points(dataset: &Dataset) -> Vec<Vec<f64>> {
    let n = dataset.len();
    let mut points = vec![vec![0.0; dataset.num_features()]; n];
    for (j, column) in dataset.columns().iter().enumerate() {
        let cell = |i: usize| match column {
            FeatureColumn::Numeric(numeric) => numeric.get(i),
            FeatureColumn::Categorical { codes, .. } => {
                (codes[i] != MISSING_CODE).then_some(codes[i] as f64)
            }
        };
        // First pass: mean of present values.
        let mut sum = 0.0;
        let mut count = 0.0;
        for v in (0..n).filter_map(cell) {
            sum += v;
            count += 1.0;
        }
        let mean = if count > 0.0 { sum / count } else { 0.0 };
        for (i, p) in points.iter_mut().enumerate() {
            p[j] = cell(i).unwrap_or(mean);
        }
        // Second pass: standardise.
        let var = points.iter().map(|p| (p[j] - mean).powi(2)).sum::<f64>() / n as f64;
        let sd = var.sqrt();
        if sd > 1e-12 {
            for p in &mut points {
                p[j] = (p[j] - mean) / sd;
            }
        } else {
            for p in &mut points {
                p[j] = 0.0;
            }
        }
    }
    points
}

fn distance_sq(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Runs k-means with k-means++ initialisation.
///
/// `k` is clamped to the number of points; an empty input yields an empty
/// result. The `seed` makes runs reproducible across the experiment harness.
pub fn kmeans(points: &[Vec<f64>], k: usize, max_iterations: usize, seed: u64) -> KMeansResult {
    if points.is_empty() || k == 0 {
        return KMeansResult {
            centroids: Vec::new(),
            assignments: Vec::new(),
            inertia: 0.0,
            iterations: 0,
        };
    }
    let k = k.min(points.len());
    let mut rng = StdRng::seed_from_u64(seed);

    // k-means++ seeding.
    let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(k);
    centroids.push(points[rng.gen_range(0..points.len())].clone());
    while centroids.len() < k {
        let dists: Vec<f64> = points
            .iter()
            .map(|p| centroids.iter().map(|c| distance_sq(p, c)).fold(f64::INFINITY, f64::min))
            .collect();
        let total: f64 = dists.iter().sum();
        let next = if total <= f64::EPSILON {
            rng.gen_range(0..points.len())
        } else {
            let mut target = rng.gen_range(0.0..total);
            let mut chosen = points.len() - 1;
            for (i, d) in dists.iter().enumerate() {
                if target < *d {
                    chosen = i;
                    break;
                }
                target -= d;
            }
            chosen
        };
        centroids.push(points[next].clone());
    }

    let d = points[0].len();
    let mut assignments = vec![0usize; points.len()];
    let mut iterations = 0;
    for it in 0..max_iterations.max(1) {
        iterations = it + 1;
        // Assign.
        let mut changed = false;
        for (i, p) in points.iter().enumerate() {
            let best = (0..k)
                .min_by(|&a, &b| {
                    distance_sq(p, &centroids[a]).total_cmp(&distance_sq(p, &centroids[b]))
                })
                .unwrap_or(0);
            if assignments[i] != best {
                assignments[i] = best;
                changed = true;
            }
        }
        // Update.
        let mut sums = vec![vec![0.0; d]; k];
        let mut counts = vec![0usize; k];
        for (i, p) in points.iter().enumerate() {
            counts[assignments[i]] += 1;
            for (j, v) in p.iter().enumerate() {
                sums[assignments[i]][j] += v;
            }
        }
        for c in 0..k {
            if counts[c] > 0 {
                for j in 0..d {
                    centroids[c][j] = sums[c][j] / counts[c] as f64;
                }
            }
        }
        if !changed && it > 0 {
            break;
        }
    }

    let inertia =
        points.iter().zip(&assignments).map(|(p, &a)| distance_sq(p, &centroids[a])).sum();
    KMeansResult { centroids, assignments, inertia, iterations }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::FeatureValue;

    fn two_blobs() -> Vec<Vec<f64>> {
        let mut points = Vec::new();
        for i in 0..30 {
            let jitter = (i % 5) as f64 * 0.01;
            points.push(vec![0.0 + jitter, 0.0 - jitter]);
        }
        for i in 0..10 {
            let jitter = (i % 5) as f64 * 0.01;
            points.push(vec![10.0 + jitter, 10.0 - jitter]);
        }
        points
    }

    #[test]
    fn separates_two_blobs() {
        let points = two_blobs();
        let result = kmeans(&points, 2, 50, 7);
        assert_eq!(result.centroids.len(), 2);
        assert_eq!(result.assignments.len(), 40);
        // All points of each blob share a cluster.
        let first = result.assignments[0];
        assert!(result.assignments[..30].iter().all(|&a| a == first));
        let second = result.assignments[30];
        assert_ne!(first, second);
        assert!(result.assignments[30..].iter().all(|&a| a == second));
        // The dominant cluster is the 30-point blob.
        assert_eq!(result.dominant_cluster(), first);
        assert_eq!(result.members_of(first).len(), 30);
        assert_eq!(result.cluster_sizes().iter().sum::<usize>(), 40);
        assert!(result.inertia < 1.0);
        assert!(result.iterations >= 1);
    }

    #[test]
    fn deterministic_given_seed() {
        let points = two_blobs();
        let a = kmeans(&points, 2, 50, 42);
        let b = kmeans(&points, 2, 50, 42);
        assert_eq!(a.assignments, b.assignments);
    }

    #[test]
    fn degenerate_inputs() {
        assert!(kmeans(&[], 3, 10, 1).assignments.is_empty());
        let one = vec![vec![1.0, 2.0]];
        let r = kmeans(&one, 5, 10, 1);
        assert_eq!(r.centroids.len(), 1);
        assert_eq!(r.assignments, vec![0]);
        let r = kmeans(&one, 0, 10, 1);
        assert!(r.centroids.is_empty());
        // Identical points: must not panic or loop forever.
        let same = vec![vec![1.0, 1.0]; 10];
        let r = kmeans(&same, 3, 10, 1);
        assert_eq!(r.assignments.len(), 10);
        assert!(r.inertia < 1e-9);
    }

    #[test]
    fn to_points_standardises_and_fills_missing() {
        let dataset = Dataset::from_rows(&[
            vec![FeatureValue::Num(10.0), FeatureValue::Cat(0)],
            vec![FeatureValue::Num(20.0), FeatureValue::Cat(1)],
            vec![FeatureValue::Missing, FeatureValue::Cat(1)],
        ])
        .unwrap();
        let points = to_points(&dataset);
        assert_eq!(points.len(), 3);
        assert_eq!(points[0].len(), 2);
        // Missing value was replaced by the mean, i.e. standardised to ~0 ...
        assert!(points[2][0].abs() < 1e-9);
        // ... and each column has roughly zero mean.
        let mean0: f64 = points.iter().map(|p| p[0]).sum::<f64>() / 3.0;
        assert!(mean0.abs() < 1e-9);
        // Constant columns become all zeros rather than NaN.
        let constant =
            Dataset::from_rows(&[vec![FeatureValue::Num(5.0)], vec![FeatureValue::Num(5.0)]])
                .unwrap();
        let p = to_points(&constant);
        assert!(p.iter().all(|r| r[0] == 0.0));
        assert!(to_points(&Dataset::from_rows(&[]).unwrap()).is_empty());
    }
}

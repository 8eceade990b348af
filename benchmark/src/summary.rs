//! Order statistics over small samples.

/// The nearest-rank `p`-th percentile (`p` in `0..=100`) of `values`;
/// 0 for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `values` (mean of the middle two for an even count);
/// 0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The three quartile cut points of `values`, computed like Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) so that the
/// calibration mode measures spread exactly as the harness does. Needs at
/// least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let m = n + 1;
    let mut cuts = [0.0; 3];
    for (slot, i) in cuts.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    Some(cuts)
}

/// Inter-quartile distance as a share of the median.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let mid = median(values);
    (mid != 0.0).then(|| (q3 - q1) / mid.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let q = quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]).unwrap();
        assert_eq!(q, [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20], n=4)
        assert_eq!(quartiles(&[10.0, 20.0]).unwrap(), [7.5, 15.0, 22.5]);
        assert!(quartiles(&[1.0]).is_none());
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(median(&[3.0, 1.0]), 2.0);
        assert_eq!(percentile(&[], 90.0), 0.0);
    }
}

//! Aggregate accumulators.
//!
//! Each accumulator consumes a stream of optional numeric values (NULLs are
//! skipped, matching SQL semantics) and produces a final [`Value`].
//! Sum-like accumulators additionally support *removal* of a previously
//! added value, which lets the influence analysis in `dbwipes-core` perform
//! leave-one-out recomputation in O(1) per tuple instead of O(|group|).
//! Min/max do not support removal and are recomputed from scratch by
//! callers when a tuple is excluded.

use crate::ast::AggregateFunc;
use dbwipes_storage::Value;

/// Incremental state of one aggregate over one group.
#[derive(Debug, Clone)]
pub enum AggregateState {
    /// Average: running sum and non-NULL count.
    Avg {
        /// Sum of values seen.
        sum: f64,
        /// Number of non-NULL values seen.
        count: u64,
    },
    /// Sum: running sum and non-NULL count (a sum over zero values is NULL).
    Sum {
        /// Sum of values seen.
        sum: f64,
        /// Number of non-NULL values seen.
        count: u64,
    },
    /// Count of rows or non-NULL values.
    Count {
        /// Number of counted items.
        count: u64,
    },
    /// Minimum value seen.
    Min {
        /// Current minimum.
        min: Option<f64>,
    },
    /// Maximum value seen.
    Max {
        /// Current maximum.
        max: Option<f64>,
    },
    /// Sample standard deviation / variance via sum and sum of squares.
    Moments {
        /// Sum of values.
        sum: f64,
        /// Sum of squared values.
        sum_sq: f64,
        /// Number of non-NULL values.
        count: u64,
        /// True to report stddev, false to report variance.
        stddev: bool,
    },
}

impl AggregateState {
    /// Creates the empty state for the given aggregate function.
    pub fn new(func: AggregateFunc) -> Self {
        match func {
            AggregateFunc::Avg => AggregateState::Avg { sum: 0.0, count: 0 },
            AggregateFunc::Sum => AggregateState::Sum { sum: 0.0, count: 0 },
            AggregateFunc::Count => AggregateState::Count { count: 0 },
            AggregateFunc::Min => AggregateState::Min { min: None },
            AggregateFunc::Max => AggregateState::Max { max: None },
            AggregateFunc::StdDev => {
                AggregateState::Moments { sum: 0.0, sum_sq: 0.0, count: 0, stddev: true }
            }
            AggregateFunc::Variance => {
                AggregateState::Moments { sum: 0.0, sum_sq: 0.0, count: 0, stddev: false }
            }
        }
    }

    /// The function this state accumulates.
    pub fn func(&self) -> AggregateFunc {
        match self {
            AggregateState::Avg { .. } => AggregateFunc::Avg,
            AggregateState::Sum { .. } => AggregateFunc::Sum,
            AggregateState::Count { .. } => AggregateFunc::Count,
            AggregateState::Min { .. } => AggregateFunc::Min,
            AggregateState::Max { .. } => AggregateFunc::Max,
            AggregateState::Moments { stddev: true, .. } => AggregateFunc::StdDev,
            AggregateState::Moments { stddev: false, .. } => AggregateFunc::Variance,
        }
    }

    /// Adds a value. `None` represents a NULL input, which every aggregate
    /// except `COUNT(*)` skips; `COUNT(*)` callers pass `Some(1.0)` per row.
    pub fn add(&mut self, value: Option<f64>) {
        let v = match value {
            Some(v) => v,
            None => return,
        };
        match self {
            AggregateState::Avg { sum, count } | AggregateState::Sum { sum, count } => {
                *sum += v;
                *count += 1;
            }
            AggregateState::Count { count } => *count += 1,
            AggregateState::Min { min } => {
                *min = Some(match *min {
                    Some(m) => m.min(v),
                    None => v,
                })
            }
            AggregateState::Max { max } => {
                *max = Some(match *max {
                    Some(m) => m.max(v),
                    None => v,
                })
            }
            AggregateState::Moments { sum, sum_sq, count, .. } => {
                *sum += v;
                *sum_sq += v * v;
                *count += 1;
            }
        }
    }

    /// Removes a previously added value. Returns `false` (and leaves the
    /// state untouched) when the aggregate does not support removal
    /// (min/max) — callers then fall back to recomputation.
    pub fn remove(&mut self, value: Option<f64>) -> bool {
        let v = match value {
            Some(v) => v,
            None => return true,
        };
        match self {
            AggregateState::Avg { sum, count } | AggregateState::Sum { sum, count } => {
                if *count == 0 {
                    return false;
                }
                *sum -= v;
                *count -= 1;
                true
            }
            AggregateState::Count { count } => {
                if *count == 0 {
                    return false;
                }
                *count -= 1;
                true
            }
            AggregateState::Min { .. } | AggregateState::Max { .. } => false,
            AggregateState::Moments { sum, sum_sq, count, .. } => {
                if *count == 0 {
                    return false;
                }
                *sum -= v;
                *sum_sq -= v * v;
                *count -= 1;
                true
            }
        }
    }

    /// Finalises the state into an output value.
    ///
    /// Aggregates over zero non-NULL inputs return NULL, except `COUNT`
    /// which returns 0 — matching PostgreSQL.
    pub fn finish(&self) -> Value {
        match self {
            AggregateState::Avg { sum, count } => {
                if *count == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / *count as f64)
                }
            }
            AggregateState::Sum { sum, count } => {
                if *count == 0 {
                    Value::Null
                } else {
                    Value::Float(*sum)
                }
            }
            AggregateState::Count { count } => Value::Int(*count as i64),
            AggregateState::Min { min } => min.map(Value::Float).unwrap_or(Value::Null),
            AggregateState::Max { max } => max.map(Value::Float).unwrap_or(Value::Null),
            AggregateState::Moments { sum, sum_sq, count, stddev } => {
                if *count < 2 {
                    return if *count == 1 { Value::Float(0.0) } else { Value::Null };
                }
                let n = *count as f64;
                let mean = sum / n;
                // Sample variance; clamp tiny negative values caused by
                // floating point cancellation.
                let var = ((sum_sq - n * mean * mean) / (n - 1.0)).max(0.0);
                Value::Float(if *stddev { var.sqrt() } else { var })
            }
        }
    }

    /// Convenience: computes the aggregate over an iterator of optional
    /// values in one call.
    pub fn compute(func: AggregateFunc, values: impl IntoIterator<Item = Option<f64>>) -> Value {
        let mut s = AggregateState::new(func);
        for v in values {
            s.add(v);
        }
        s.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vals(v: &[f64]) -> Vec<Option<f64>> {
        v.iter().map(|x| Some(*x)).collect()
    }

    #[test]
    fn avg_sum_count() {
        assert_eq!(
            AggregateState::compute(AggregateFunc::Avg, vals(&[1.0, 2.0, 3.0])),
            Value::Float(2.0)
        );
        assert_eq!(
            AggregateState::compute(AggregateFunc::Sum, vals(&[1.0, 2.0, 3.5])),
            Value::Float(6.5)
        );
        assert_eq!(AggregateState::compute(AggregateFunc::Count, vals(&[1.0, 2.0])), Value::Int(2));
        // NULLs are skipped.
        assert_eq!(
            AggregateState::compute(AggregateFunc::Avg, vec![Some(10.0), None, Some(20.0)]),
            Value::Float(15.0)
        );
        assert_eq!(
            AggregateState::compute(AggregateFunc::Count, vec![Some(1.0), None]),
            Value::Int(1)
        );
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(AggregateState::compute(AggregateFunc::Avg, vec![]), Value::Null);
        assert_eq!(AggregateState::compute(AggregateFunc::Sum, vec![]), Value::Null);
        assert_eq!(AggregateState::compute(AggregateFunc::Min, vec![]), Value::Null);
        assert_eq!(AggregateState::compute(AggregateFunc::StdDev, vec![]), Value::Null);
        assert_eq!(AggregateState::compute(AggregateFunc::Count, vec![]), Value::Int(0));
    }

    #[test]
    fn min_max() {
        assert_eq!(
            AggregateState::compute(AggregateFunc::Min, vals(&[3.0, -1.0, 2.0])),
            Value::Float(-1.0)
        );
        assert_eq!(
            AggregateState::compute(AggregateFunc::Max, vals(&[3.0, -1.0, 2.0])),
            Value::Float(3.0)
        );
    }

    #[test]
    fn stddev_and_variance_match_reference() {
        // Sample variance of [2, 4, 4, 4, 5, 5, 7, 9] is 32/7.
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let var = AggregateState::compute(AggregateFunc::Variance, vals(&data));
        match var {
            Value::Float(v) => assert!((v - 32.0 / 7.0).abs() < 1e-9),
            other => panic!("unexpected {other:?}"),
        }
        let sd = AggregateState::compute(AggregateFunc::StdDev, vals(&data));
        match sd {
            Value::Float(v) => assert!((v - (32.0f64 / 7.0).sqrt()).abs() < 1e-9),
            other => panic!("unexpected {other:?}"),
        }
        // A single value has zero spread.
        assert_eq!(
            AggregateState::compute(AggregateFunc::StdDev, vals(&[42.0])),
            Value::Float(0.0)
        );
    }

    #[test]
    fn removal_matches_recomputation_for_sum_like() {
        for func in [
            AggregateFunc::Avg,
            AggregateFunc::Sum,
            AggregateFunc::StdDev,
            AggregateFunc::Variance,
            AggregateFunc::Count,
        ] {
            let data = [5.0, 1.0, 9.0, 3.0, 7.0];
            let mut s = AggregateState::new(func);
            for v in data {
                s.add(Some(v));
            }
            assert!(s.remove(Some(9.0)));
            let expected = AggregateState::compute(func, vals(&[5.0, 1.0, 3.0, 7.0]));
            let got = s.finish();
            match (got, expected) {
                (Value::Float(a), Value::Float(b)) => assert!((a - b).abs() < 1e-9, "{func}"),
                (a, b) => assert_eq!(a, b),
            }
        }
    }

    #[test]
    fn min_max_do_not_support_removal() {
        let mut s = AggregateState::new(AggregateFunc::Min);
        s.add(Some(1.0));
        assert!(!s.remove(Some(1.0)));
        assert_eq!(s.finish(), Value::Float(1.0));
        let mut s = AggregateState::new(AggregateFunc::Max);
        s.add(Some(1.0));
        assert!(!s.remove(Some(1.0)));
        // Removing NULL is always fine.
        assert!(s.remove(None));
    }

    #[test]
    fn removal_from_empty_state_is_rejected() {
        for func in
            [AggregateFunc::Avg, AggregateFunc::Sum, AggregateFunc::Count, AggregateFunc::StdDev]
        {
            let mut s = AggregateState::new(func);
            assert!(!s.remove(Some(1.0)), "{func}");
        }
    }

    #[test]
    fn func_accessor_round_trips() {
        for func in [
            AggregateFunc::Avg,
            AggregateFunc::Sum,
            AggregateFunc::Count,
            AggregateFunc::Min,
            AggregateFunc::Max,
            AggregateFunc::StdDev,
            AggregateFunc::Variance,
        ] {
            assert_eq!(AggregateState::new(func).func(), func);
        }
    }
}

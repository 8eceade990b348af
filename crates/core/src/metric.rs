//! User-selectable error metrics ε.
//!
//! "When the user views the results, she will specify a subset, S ⊆ R, that
//! are wrong ... and an error metric, ε(S), that is 0 when S is error-free
//! and otherwise > 0" (paper §2.1). The paper's example is the `diff`
//! metric — the maximum amount a selected average exceeds an expected
//! constant — and §2.2.2 lists "higher / lower / not equal to expected
//! value" as the predefined error functions offered by the frontend form
//! (Figure 5). All of those are represented here.

use dbwipes_engine::QueryResult;
use std::fmt;

/// The shape of the per-value penalty.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricKind {
    /// "Value is too high": penalty `max(0, v − threshold)`.
    TooHigh {
        /// The expected upper bound (the paper's constant `c`).
        threshold: f64,
    },
    /// "Value is too low": penalty `max(0, threshold − v)`.
    TooLow {
        /// The expected lower bound.
        threshold: f64,
    },
    /// "Should be equal to": penalty `|v − expected|`.
    NotEqualTo {
        /// The expected value.
        expected: f64,
    },
}

/// How per-value penalties over the selected outputs are combined into a
/// single ε value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Combine {
    /// Sum of penalties (default — gives smoother influence rankings when
    /// several outputs are selected).
    #[default]
    Sum,
    /// Maximum penalty — exactly the paper's `diff(S) = max(0, max_i(s_i − c))`.
    Max,
}

/// An error metric ε over one aggregate output column.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorMetric {
    /// Which output column of the query result the metric reads
    /// (e.g. `avg_temp` or `total`).
    pub column: String,
    /// The per-value penalty.
    pub kind: MetricKind,
    /// How penalties are combined across the selected outputs.
    pub combine: Combine,
}

impl ErrorMetric {
    /// "Values are too high" metric over `column` with the given expected
    /// upper bound.
    pub fn too_high(column: impl Into<String>, threshold: f64) -> Self {
        ErrorMetric {
            column: column.into(),
            kind: MetricKind::TooHigh { threshold },
            combine: Combine::Sum,
        }
    }

    /// "Values are too low" metric.
    pub fn too_low(column: impl Into<String>, threshold: f64) -> Self {
        ErrorMetric {
            column: column.into(),
            kind: MetricKind::TooLow { threshold },
            combine: Combine::Sum,
        }
    }

    /// "Should be equal to" metric.
    pub fn not_equal_to(column: impl Into<String>, expected: f64) -> Self {
        ErrorMetric {
            column: column.into(),
            kind: MetricKind::NotEqualTo { expected },
            combine: Combine::Sum,
        }
    }

    /// The paper's `diff` metric: the maximum amount any selected value
    /// exceeds the constant `c` (§2.1).
    pub fn diff(column: impl Into<String>, c: f64) -> Self {
        ErrorMetric {
            column: column.into(),
            kind: MetricKind::TooHigh { threshold: c },
            combine: Combine::Max,
        }
    }

    /// The penalty of a single output value (`None` — a NULL or vanished
    /// output — contributes zero error).
    pub fn penalty(&self, value: Option<f64>) -> f64 {
        let Some(v) = value else { return 0.0 };
        match self.kind {
            MetricKind::TooHigh { threshold } => (v - threshold).max(0.0),
            MetricKind::TooLow { threshold } => (threshold - v).max(0.0),
            MetricKind::NotEqualTo { expected } => (v - expected).abs(),
        }
    }

    /// Evaluates ε over a collection of output values.
    pub fn evaluate(&self, values: &[Option<f64>]) -> f64 {
        if values.is_empty() {
            return 0.0;
        }
        let penalties = values.iter().map(|v| self.penalty(*v));
        match self.combine {
            Combine::Sum => penalties.sum(),
            Combine::Max => penalties.fold(0.0, f64::max),
        }
    }

    /// Evaluates ε over the selected output rows of a query result.
    ///
    /// Rows whose index is out of range or whose metric column is NULL
    /// contribute zero error (the output "no longer exists", i.e. is fixed).
    pub fn evaluate_result(&self, result: &QueryResult, selected_rows: &[usize]) -> f64 {
        let Ok(col) = result.column_index(&self.column) else { return 0.0 };
        let values: Vec<Option<f64>> = selected_rows
            .iter()
            .map(|&i| result.rows.get(i).and_then(|r| r.get(col)).and_then(|v| v.as_f64()))
            .collect();
        self.evaluate(&values)
    }

    /// A short human-readable label, as shown by the dashboard's error form.
    pub fn label(&self) -> String {
        match self.kind {
            MetricKind::TooHigh { threshold } => {
                format!("{} is too high (expected <= {threshold:.2})", self.column)
            }
            MetricKind::TooLow { threshold } => {
                format!("{} is too low (expected >= {threshold:.2})", self.column)
            }
            MetricKind::NotEqualTo { expected } => {
                format!("{} should be equal to {expected:.2}", self.column)
            }
        }
    }
}

impl fmt::Display for ErrorMetric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// Suggests error metrics for a user selection, mirroring the dashboard's
/// dynamic error form (Figure 5): the thresholds are derived from the
/// *unselected* outputs, which represent "normal" behaviour.
///
/// `selected` and `unselected` are the aggregate values of the metric
/// column for the suspicious and remaining outputs respectively.
pub fn suggest_metrics(column: &str, selected: &[f64], unselected: &[f64]) -> Vec<ErrorMetric> {
    let mut suggestions = Vec::new();
    if selected.is_empty() {
        return suggestions;
    }
    let sel_mean = mean(selected);
    let reference: Vec<f64> =
        if unselected.is_empty() { selected.to_vec() } else { unselected.to_vec() };
    let ref_mean = mean(&reference);
    let ref_max = reference.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let ref_min = reference.iter().copied().fold(f64::INFINITY, f64::min);

    if sel_mean >= ref_mean {
        suggestions.push(ErrorMetric::too_high(column, ref_max));
    }
    if sel_mean <= ref_mean {
        suggestions.push(ErrorMetric::too_low(column, ref_min));
    }
    suggestions.push(ErrorMetric::not_equal_to(column, ref_mean));
    suggestions
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn too_high_penalties() {
        let m = ErrorMetric::too_high("avg_temp", 30.0);
        assert_eq!(m.penalty(Some(120.0)), 90.0);
        assert_eq!(m.penalty(Some(25.0)), 0.0);
        assert_eq!(m.penalty(None), 0.0);
        assert_eq!(m.evaluate(&[Some(120.0), Some(50.0), Some(10.0)]), 110.0);
        assert!(m.label().contains("too high"));
    }

    #[test]
    fn too_low_and_not_equal() {
        let m = ErrorMetric::too_low("total", 0.0);
        assert_eq!(m.penalty(Some(-500.0)), 500.0);
        assert_eq!(m.penalty(Some(10.0)), 0.0);
        assert!(m.label().contains("too low"));

        let m = ErrorMetric::not_equal_to("avg", 20.0);
        assert_eq!(m.penalty(Some(23.0)), 3.0);
        assert_eq!(m.penalty(Some(17.0)), 3.0);
        assert!(m.to_string().contains("equal to 20.00"));
    }

    #[test]
    fn diff_matches_the_paper_definition() {
        // diff(S) = max(0, max_i(s_i - c))
        let m = ErrorMetric::diff("avg_temp", 70.0);
        assert_eq!(m.combine, Combine::Max);
        assert_eq!(m.evaluate(&[Some(120.0), Some(80.0), Some(60.0)]), 50.0);
        assert_eq!(m.evaluate(&[Some(60.0), Some(65.0)]), 0.0);
        assert_eq!(m.evaluate(&[]), 0.0);
    }

    #[test]
    fn combine_modes() {
        let values = [Some(10.0), Some(30.0)];
        let sum = ErrorMetric::too_high("x", 0.0);
        assert_eq!(sum.combine, Combine::Sum);
        assert_eq!(sum.evaluate(&values), 40.0);
        let max = ErrorMetric { combine: Combine::Max, ..sum };
        assert_eq!(max.evaluate(&values), 30.0);
    }

    #[test]
    fn evaluate_result_reads_the_named_column() {
        use dbwipes_engine::execute_sql;
        use dbwipes_storage::{Catalog, DataType, Schema, Table, Value};
        let mut t = Table::new(
            "readings",
            Schema::of(&[("hour", DataType::Int), ("temp", DataType::Float)]),
        )
        .unwrap();
        for (h, temp) in [(0, 20.0), (0, 22.0), (1, 120.0), (1, 118.0)] {
            t.push_row(vec![Value::Int(h), Value::Float(temp)]).unwrap();
        }
        let mut c = Catalog::new();
        c.register(t).unwrap();
        let r = execute_sql(&c, "SELECT hour, avg(temp) AS a FROM readings GROUP BY hour").unwrap();
        let m = ErrorMetric::too_high("a", 30.0);
        assert_eq!(m.evaluate_result(&r, &[1]), 89.0);
        assert_eq!(m.evaluate_result(&r, &[0]), 0.0);
        assert_eq!(m.evaluate_result(&r, &[0, 1]), 89.0);
        // Out-of-range rows and unknown columns contribute nothing.
        assert_eq!(m.evaluate_result(&r, &[17]), 0.0);
        assert_eq!(ErrorMetric::too_high("missing", 0.0).evaluate_result(&r, &[0]), 0.0);
    }

    #[test]
    fn suggestions_depend_on_selection_direction() {
        // Selected values above the rest: suggest "too high" first.
        let s = suggest_metrics("avg_temp", &[120.0, 110.0], &[20.0, 22.0, 21.0]);
        assert!(matches!(s[0].kind, MetricKind::TooHigh { .. }));
        assert!(s.iter().any(|m| matches!(m.kind, MetricKind::NotEqualTo { .. })));
        // Threshold comes from the unselected maximum.
        match s[0].kind {
            MetricKind::TooHigh { threshold } => assert_eq!(threshold, 22.0),
            _ => unreachable!(),
        }

        // Selected below the rest: suggest "too low".
        let s = suggest_metrics("total", &[-900.0], &[100.0, 300.0]);
        assert!(matches!(s[0].kind, MetricKind::TooLow { .. }));

        // No unselected values: fall back to the selection itself.
        let s = suggest_metrics("x", &[5.0], &[]);
        assert!(!s.is_empty());
        // Empty selection: nothing to suggest.
        assert!(suggest_metrics("x", &[], &[1.0]).is_empty());
    }
}

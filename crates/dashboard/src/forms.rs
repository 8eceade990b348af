//! The dashboard's dynamic error metric form.
//!
//! "The frontend dynamically offers the user a choice of predefined metric
//! functions depending on the query results that are highlighted by the
//! user" (paper §2.2.1, Figure 5). Each choice is labelled with
//! [`ErrorMetric::label`]. The query form is the statement of the
//! displayed result ([`DashboardSession::current_sql`]).
//!
//! [`DashboardSession::current_sql`]: crate::DashboardSession::current_sql

use dbwipes_core::{suggest_metrics, ErrorMetric};
use dbwipes_engine::QueryResult;

/// Builds the error metric form for a selection of output rows: the choices
/// are derived from how the selected values differ from the unselected ones
/// (Figure 5's "value is too high", "should be equal to ...").
pub fn error_form_choices(
    result: &QueryResult,
    selected_rows: &[usize],
    column: &str,
) -> Vec<ErrorMetric> {
    let Ok(col) = result.column_index(column) else { return Vec::new() };
    let mut selected = Vec::new();
    let mut unselected = Vec::new();
    for (i, row) in result.rows.iter().enumerate() {
        let Some(v) = row.get(col).and_then(|v| v.as_f64()) else { continue };
        if selected_rows.contains(&i) {
            selected.push(v);
        } else {
            unselected.push(v);
        }
    }
    suggest_metrics(column, &selected, &unselected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbwipes_core::MetricKind;
    use dbwipes_engine::execute_sql;
    use dbwipes_storage::{Catalog, DataType, Schema, Table, Value};

    fn result() -> QueryResult {
        let mut t = Table::new(
            "readings",
            Schema::of(&[("window", DataType::Int), ("temp", DataType::Float)]),
        )
        .unwrap();
        for (w, temp) in [(0, 20.0), (0, 22.0), (1, 120.0), (1, 118.0), (2, 21.0)] {
            t.push_row(vec![Value::Int(w), Value::Float(temp)]).unwrap();
        }
        let mut c = Catalog::new();
        c.register(t).unwrap();
        execute_sql(&c, "SELECT window, avg(temp) AS a FROM readings GROUP BY window").unwrap()
    }

    #[test]
    fn error_form_offers_too_high_for_high_selection() {
        let r = result();
        // Row 1 is the hot window (avg 119).
        let choices = error_form_choices(&r, &[1], "a");
        assert!(!choices.is_empty());
        assert!(matches!(choices[0].kind, MetricKind::TooHigh { .. }));
        assert!(choices[0].label().contains("too high"));
        // Unknown column or empty selection yields no choices.
        assert!(error_form_choices(&r, &[1], "missing").is_empty());
        assert!(error_form_choices(&r, &[], "a").is_empty());
    }

    #[test]
    fn error_form_offers_too_low_for_low_selection() {
        let r = result();
        let choices = error_form_choices(&r, &[0, 2], "a");
        assert!(choices.iter().any(|c| matches!(c.kind, MetricKind::TooLow { .. })));
    }
}

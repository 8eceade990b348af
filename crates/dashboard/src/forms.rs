//! The dashboard's input forms: the SQL query form and the dynamic error
//! metric form.
//!
//! "Users submit aggregate SQL queries using the web form ... the frontend
//! dynamically offers the user a choice of predefined metric functions
//! depending on the query results that are highlighted by the user"
//! (paper §2.2.1, Figures 3 and 5).

use dbwipes_core::{suggest_metrics, ErrorMetric};
use dbwipes_engine::{parse_select, EngineError, QueryResult, SelectStatement};

/// The query input form (Figure 3): free-text SQL plus validation.
#[derive(Debug, Clone, Default)]
pub struct QueryForm {
    text: String,
}

impl QueryForm {
    /// Creates an empty form.
    pub fn new() -> Self {
        QueryForm::default()
    }

    /// The current SQL text.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// Validates the SQL, returning the parsed statement or the parse error
    /// the form would display inline.
    pub fn validate(&self) -> Result<SelectStatement, EngineError> {
        parse_select(&self.text)
    }

    /// Updates the form to show a rewritten statement (after the user clicks
    /// a ranked predicate the query form "is automatically updated").
    pub fn show_statement(&mut self, statement: &SelectStatement) {
        self.text = statement.to_sql();
    }
}

/// One choice offered by the error metric form.
#[derive(Debug, Clone)]
pub struct ErrorFormChoice {
    /// Human-readable label shown to the user (e.g. "value is too high").
    pub label: String,
    /// The metric that choice corresponds to.
    pub metric: ErrorMetric,
}

/// Builds the error metric form for a selection of output rows: the choices
/// are derived from how the selected values differ from the unselected ones
/// (Figure 5's "value is too high", "should be equal to ...").
pub fn error_form_choices(
    result: &QueryResult,
    selected_rows: &[usize],
    column: &str,
) -> Vec<ErrorFormChoice> {
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
        .into_iter()
        .map(|metric| ErrorFormChoice { label: metric.label(), metric })
        .collect()
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
    fn query_form_validates_and_updates() {
        let mut form = QueryForm::new();
        assert!(form.validate().is_err());
        let stmt = parse_select("SELECT window, avg(temp) FROM readings GROUP BY window").unwrap();
        form.show_statement(&stmt);
        assert_eq!(form.text(), "SELECT window, avg(temp) FROM readings GROUP BY window");
        assert_eq!(form.validate().unwrap(), stmt);

        let rewritten = stmt.with_additional_filter(
            dbwipes_storage::col("temp").lt_eq(dbwipes_storage::lit(100.0)),
        );
        form.show_statement(&rewritten);
        assert!(form.text().contains("WHERE temp <= 100.0"));
        assert!(form.validate().is_ok());
    }

    #[test]
    fn error_form_offers_too_high_for_high_selection() {
        let r = result();
        // Row 1 is the hot window (avg 119).
        let choices = error_form_choices(&r, &[1], "a");
        assert!(!choices.is_empty());
        assert!(matches!(choices[0].metric.kind, MetricKind::TooHigh { .. }));
        assert!(choices[0].label.contains("too high"));
        // Unknown column or empty selection yields no choices.
        assert!(error_form_choices(&r, &[1], "missing").is_empty());
        assert!(error_form_choices(&r, &[], "a").is_empty());
    }

    #[test]
    fn error_form_offers_too_low_for_low_selection() {
        let r = result();
        let choices = error_form_choices(&r, &[0, 2], "a");
        assert!(choices.iter().any(|c| matches!(c.metric.kind, MetricKind::TooLow { .. })));
    }
}

//! Scatterplot preparation and brush selection.
//!
//! "Query results are automatically rendered as a scatterplot. When the
//! query contains a single group-by attribute, the group keys are plotted
//! on the x-axis and the aggregate values on the y-axis" (paper §2.2.1).
//! The user then *brushes* a rectangular region to select the suspicious
//! outputs S, zooms into the underlying tuples, and brushes again to select
//! the suspicious inputs D′ (Figure 4).
//!
//! This module is the headless equivalent: it turns a [`QueryResult`] into
//! plottable series, maps rectangular brushes back to output-row indices or
//! input [`RowId`]s, and prepares the zoomed-in tuple view.

use dbwipes_engine::QueryResult;
use dbwipes_storage::{Column, RowId, RowSet, Table};

/// A single point of a scatter series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScatterPoint {
    /// X coordinate (group key or tuple attribute).
    pub x: f64,
    /// Y coordinate (aggregate value or tuple attribute).
    pub y: f64,
    /// What the point refers to: an output row index (group view) or an
    /// input row id (zoomed tuple view).
    pub reference: PointRef,
}

/// What a scatter point refers back to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointRef {
    /// Output row (group) `i` of the query result.
    Output(usize),
    /// Input row of the queried table.
    Input(RowId),
}

/// A plottable series plus axis labels.
#[derive(Debug, Clone)]
pub struct ScatterSeries {
    /// Name of the x axis (column).
    pub x_label: String,
    /// Name of the y axis (column).
    pub y_label: String,
    /// The points.
    pub points: Vec<ScatterPoint>,
}

impl ScatterSeries {
    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when the series has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The (min, max) of the x coordinates (0,0 for an empty series).
    pub fn x_range(&self) -> (f64, f64) {
        range(self.points.iter().map(|p| p.x))
    }

    /// The (min, max) of the y coordinates (0,0 for an empty series).
    pub fn y_range(&self) -> (f64, f64) {
        range(self.points.iter().map(|p| p.y))
    }
}

fn range(values: impl Iterator<Item = f64>) -> (f64, f64) {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    let mut any = false;
    for v in values {
        any = true;
        lo = lo.min(v);
        hi = hi.max(v);
    }
    if any {
        (lo, hi)
    } else {
        (0.0, 0.0)
    }
}

/// A rectangular brush in data coordinates (inclusive on all edges).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Brush {
    /// Left edge.
    pub x_min: f64,
    /// Right edge.
    pub x_max: f64,
    /// Bottom edge.
    pub y_min: f64,
    /// Top edge.
    pub y_max: f64,
}

impl Brush {
    /// A brush selecting every point whose y coordinate is at least `y`.
    pub fn above(y: f64) -> Brush {
        Brush { x_min: f64::NEG_INFINITY, x_max: f64::INFINITY, y_min: y, y_max: f64::INFINITY }
    }

    /// A brush selecting every point whose y coordinate is at most `y`.
    pub fn below(y: f64) -> Brush {
        Brush { x_min: f64::NEG_INFINITY, x_max: f64::INFINITY, y_min: f64::NEG_INFINITY, y_max: y }
    }

    /// True when the point lies inside the brush.
    pub fn contains(&self, p: &ScatterPoint) -> bool {
        p.x >= self.x_min && p.x <= self.x_max && p.y >= self.y_min && p.y <= self.y_max
    }

    /// The output-row indices selected by this brush (ignores input points).
    pub fn selected_outputs(&self, points: impl IntoIterator<Item = ScatterPoint>) -> Vec<usize> {
        points
            .into_iter()
            .filter(|p| self.contains(p))
            .filter_map(|p| match p.reference {
                PointRef::Output(i) => Some(i),
                PointRef::Input(_) => None,
            })
            .collect()
    }
}

/// Builds the group-level scatter series: `x_column` on the x-axis (usually
/// the group-by attribute) and `y_column` (an aggregate output) on the
/// y-axis. Rows whose coordinates are NULL or non-numeric are skipped.
pub fn result_series(
    result: &QueryResult,
    x_column: &str,
    y_column: &str,
) -> Option<ScatterSeries> {
    let x = result.column_index(x_column).ok()?;
    let y = result.column_index(y_column).ok()?;
    let points = result
        .rows
        .iter()
        .enumerate()
        .filter_map(|(i, row)| {
            Some(ScatterPoint {
                x: row.get(x)?.as_f64()?,
                y: row.get(y)?.as_f64()?,
                reference: PointRef::Output(i),
            })
        })
        .collect();
    Some(ScatterSeries { x_label: x_column.to_string(), y_label: y_column.to_string(), points })
}

/// Builds the zoomed-in tuple series for a set of selected output rows:
/// every input tuple of those groups is plotted with `x_column` / `y_column`
/// read from the base table (Figure 4, right panel). Tuples with NULL or
/// non-numeric coordinates are skipped.
pub fn zoom_series(
    table: &Table,
    result: &QueryResult,
    selected_outputs: &[usize],
    x_column: &str,
    y_column: &str,
) -> Option<ScatterSeries> {
    let zoom = zoom_points(table, result, selected_outputs, x_column, y_column)?;
    let mut points = Vec::with_capacity(zoom.max_len());
    zoom.for_each(|p| points.push(p));
    Some(ScatterSeries { x_label: x_column.to_string(), y_label: y_column.to_string(), points })
}

/// The points of [`zoom_series`] before they are produced: the union of
/// the selected groups' lineage, as the [`RowSet`] the lineage builds, and
/// the two columns to read at its rows. [`ZoomPoints::for_each`] walks
/// them chunk by chunk for a consumer that filters or encodes the points
/// without keeping the series; `None` when either column is unknown.
pub fn zoom_points<'t>(
    table: &'t Table,
    result: &QueryResult,
    selected_outputs: &[usize],
    x_column: &str,
    y_column: &str,
) -> Option<ZoomPoints<'t>> {
    Some(ZoomPoints {
        x: table.column_by_name(x_column)?,
        y: table.column_by_name(y_column)?,
        rows: result.input_set(selected_outputs),
    })
}

/// The brushed lineage of a zoom and the columns it plots (see
/// [`zoom_points`]).
#[derive(Debug)]
pub struct ZoomPoints<'t> {
    x: &'t Column,
    y: &'t Column,
    rows: RowSet,
}

impl ZoomPoints<'_> {
    /// The most points the zoom can have: its input rows (a row with a
    /// NULL or non-numeric coordinate has none).
    pub fn max_len(&self) -> usize {
        self.rows.count_ones()
    }

    /// Hands `visit` each point in row-id order, its coordinates as
    /// [`Column::get_f64`] reads them ([`Column::visit_f64_pairs`]).
    pub fn for_each(&self, mut visit: impl FnMut(ScatterPoint)) {
        self.x.visit_f64_pairs(self.y, &self.rows, |row, x, y| {
            visit(ScatterPoint { x, y, reference: PointRef::Input(RowId(row)) })
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbwipes_engine::execute_sql;
    use dbwipes_storage::{Catalog, DataType, Schema, Table, Value};

    fn catalog() -> Catalog {
        let mut t = Table::new(
            "readings",
            Schema::of(&[
                ("window", DataType::Int),
                ("sensorid", DataType::Int),
                ("temp", DataType::Float),
            ]),
        )
        .unwrap();
        for i in 0..60i64 {
            let window = i % 3;
            let temp = if window == 2 && i % 5 == 0 { 120.0 } else { 20.0 + (i % 4) as f64 };
            t.push_row(vec![Value::Int(window), Value::Int(i % 6), Value::Float(temp)]).unwrap();
        }
        let mut c = Catalog::new();
        c.register(t).unwrap();
        c
    }

    #[test]
    fn result_series_plots_groups() {
        let c = catalog();
        let r = execute_sql(&c, "SELECT window, avg(temp) FROM readings GROUP BY window").unwrap();
        let s = result_series(&r, "window", "avg_temp").unwrap();
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert_eq!(s.x_label, "window");
        assert_eq!(s.x_range(), (0.0, 2.0));
        assert!(s.y_range().1 > 30.0);
        assert!(result_series(&r, "missing", "avg_temp").is_none());
    }

    #[test]
    fn brush_selects_the_anomalous_group() {
        let c = catalog();
        let r = execute_sql(&c, "SELECT window, avg(temp) FROM readings GROUP BY window").unwrap();
        let s = result_series(&r, "window", "avg_temp").unwrap();
        let selected = Brush::above(30.0).selected_outputs(s.points.clone());
        assert_eq!(selected, vec![2]);
        assert_eq!(Brush::below(30.0).selected_outputs(s.points.clone()), vec![0, 1]);
        let everything = Brush { x_min: -1e9, x_max: 1e9, y_min: -1e9, y_max: 1e9 };
        assert_eq!(everything.selected_outputs(s.points).len(), 3);
    }

    #[test]
    fn zoom_exposes_the_raw_tuples() {
        let c = catalog();
        let r = execute_sql(&c, "SELECT window, avg(temp) FROM readings GROUP BY window").unwrap();
        let table = c.table("readings").unwrap();
        let zoom = zoom_series(table, &r, &[2], "sensorid", "temp").unwrap();
        assert_eq!(zoom.len(), 20);
        // Brushing the high-temperature tuples yields input row ids.
        let hot: Vec<_> = zoom.points.iter().filter(|p| Brush::above(100.0).contains(p)).collect();
        assert_eq!(hot.len(), 4);
        for p in hot {
            let PointRef::Input(rid) = p.reference else { panic!("zoom plots inputs") };
            let temp = table.value_by_name(rid, "temp").unwrap().as_f64().unwrap();
            assert!(temp > 100.0);
        }
        assert!(Brush::above(100.0).selected_outputs(zoom.points.clone()).is_empty());
        let lineage = zoom_points(table, &r, &[2], "sensorid", "temp").unwrap();
        assert_eq!(lineage.max_len(), 20);
        let mut produced = Vec::new();
        lineage.for_each(|p| produced.push(p));
        assert_eq!(produced, zoom.points);
        assert!(zoom_series(table, &r, &[2], "nope", "temp").is_none());
        assert!(zoom_points(table, &r, &[2], "sensorid", "nope").is_none());
    }

    #[test]
    fn empty_series_ranges() {
        let s = ScatterSeries { x_label: "x".into(), y_label: "y".into(), points: vec![] };
        assert_eq!(s.x_range(), (0.0, 0.0));
        assert_eq!(s.y_range(), (0.0, 0.0));
        assert!(s.is_empty());
    }
}

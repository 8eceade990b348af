//! ASCII rendering of scatter series.
//!
//! The real DBWipes dashboard draws d3 scatterplots; the headless
//! reproduction renders the same series as fixed-size character grids so
//! the examples can show Figure 4 / Figure 7 style
//! plots in a terminal.

use crate::scatter::ScatterSeries;

/// Renders the series as an ASCII plot of `width` × `height` characters
/// (plus axes). Points are drawn with `*`; multiple points in one cell are
/// drawn with `#`.
pub fn render_ascii(series: &ScatterSeries, width: usize, height: usize) -> String {
    let width = width.clamp(10, 200);
    let height = height.clamp(5, 60);
    if series.is_empty() {
        return format!("(empty plot: {} vs {})\n", series.y_label, series.x_label);
    }
    let (x_lo, x_hi) = series.x_range();
    let (y_lo, y_hi) = series.y_range();
    let x_span = if (x_hi - x_lo).abs() < f64::EPSILON { 1.0 } else { x_hi - x_lo };
    let y_span = if (y_hi - y_lo).abs() < f64::EPSILON { 1.0 } else { y_hi - y_lo };

    let mut grid = vec![vec![' '; width]; height];
    for p in &series.points {
        let col = (((p.x - x_lo) / x_span) * (width - 1) as f64).round() as usize;
        let row = (((p.y - y_lo) / y_span) * (height - 1) as f64).round() as usize;
        let row = height - 1 - row.min(height - 1);
        let col = col.min(width - 1);
        grid[row][col] = if grid[row][col] == ' ' { '*' } else { '#' };
    }

    let mut out = String::new();
    out.push_str(&format!("{} (y: {:.2} .. {:.2})\n", series.y_label, y_lo, y_hi));
    for row in grid {
        out.push('|');
        out.extend(row);
        out.push('\n');
    }
    out.push('+');
    out.push_str(&"-".repeat(width));
    out.push('\n');
    out.push_str(&format!(" {} (x: {:.2} .. {:.2})\n", series.x_label, x_lo, x_hi));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scatter::{PointRef, ScatterPoint};

    fn series(points: Vec<(f64, f64)>) -> ScatterSeries {
        ScatterSeries {
            x_label: "day".into(),
            y_label: "total".into(),
            points: points
                .into_iter()
                .enumerate()
                .map(|(i, (x, y))| ScatterPoint { x, y, reference: PointRef::Output(i) })
                .collect(),
        }
    }

    #[test]
    fn renders_points_and_axes() {
        let s = series(vec![(0.0, 0.0), (10.0, 5.0), (20.0, 10.0)]);
        let plot = render_ascii(&s, 40, 10);
        assert!(plot.contains("total"));
        assert!(plot.contains("day"));
        assert!(plot.matches('*').count() >= 3 || plot.contains('#'));
        assert!(plot.lines().count() >= 12);
    }

    #[test]
    fn overlapping_points_are_marked() {
        let s = series(vec![(1.0, 1.0), (1.0, 1.0), (1.0, 1.0)]);
        let plot = render_ascii(&s, 20, 8);
        assert!(plot.contains('#'));
    }

    #[test]
    fn constant_series_does_not_divide_by_zero() {
        let s = series(vec![(5.0, 5.0)]);
        let plot = render_ascii(&s, 20, 8);
        assert!(plot.contains('*'));
    }

    #[test]
    fn empty_series_and_clamped_dimensions() {
        let s = series(vec![]);
        assert!(render_ascii(&s, 40, 10).contains("empty plot"));
        let s = series(vec![(0.0, 0.0), (1.0, 1.0)]);
        let tiny = render_ascii(&s, 1, 1);
        assert!(tiny.lines().count() >= 7); // clamped to at least 10x5
    }
}

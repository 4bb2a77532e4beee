//! Minimal ASCII chart rendering for `phastlane figure 9 --chart`: log-scale
//! scatter/line plots that make the latency-vs-load knees visible in a
//! terminal.

/// One named series of (x, y) points.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// Marker character used for this series.
    pub marker: char,
    /// Data points; non-finite y values are skipped.
    pub points: Vec<(f64, f64)>,
}

/// Renders series into a fixed-size ASCII grid with a log-scaled y axis.
///
/// Returns the chart as a string (one trailing newline). X is scaled
/// linearly across the data range; points map to the nearest cell, later
/// series overwrite earlier ones on collisions.
pub fn render_log_y(series: &[Series], width: usize, height: usize) -> String {
    let width = width.max(16);
    let height = height.max(4);
    let pts: Vec<(f64, f64)> = series
        .iter()
        .flat_map(|s| s.points.iter().copied())
        .filter(|(x, y)| x.is_finite() && y.is_finite() && *y > 0.0)
        .collect();
    if pts.is_empty() {
        return String::from("(no finite data)\n");
    }
    let (mut x_min, mut x_max) = (f64::MAX, f64::MIN);
    let (mut y_min, mut y_max) = (f64::MAX, f64::MIN);
    for &(x, y) in &pts {
        x_min = x_min.min(x);
        x_max = x_max.max(x);
        y_min = y_min.min(y);
        y_max = y_max.max(y);
    }
    if (x_max - x_min).abs() < f64::EPSILON {
        x_max = x_min + 1.0;
    }
    let (ly_min, mut ly_max) = (y_min.ln(), y_max.ln());
    if (ly_max - ly_min).abs() < f64::EPSILON {
        ly_max = ly_min + 1.0;
    }

    let mut grid = vec![vec![' '; width]; height];
    for s in series {
        for &(x, y) in &s.points {
            if !(x.is_finite() && y.is_finite() && y > 0.0) {
                continue;
            }
            let cx = ((x - x_min) / (x_max - x_min) * (width - 1) as f64).round() as usize;
            let cy = ((y.ln() - ly_min) / (ly_max - ly_min) * (height - 1) as f64).round() as usize;
            grid[height - 1 - cy][cx.min(width - 1)] = s.marker;
        }
    }

    let mut out = String::new();
    for (row_idx, row) in grid.iter().enumerate() {
        // Y tick label at top, middle, bottom.
        let frac = 1.0 - row_idx as f64 / (height - 1) as f64;
        let y_val = (ly_min + frac * (ly_max - ly_min)).exp();
        let label = if row_idx == 0 || row_idx == height - 1 || row_idx == height / 2 {
            format!("{y_val:>8.1} |")
        } else {
            format!("{:>8} |", "")
        };
        out.push_str(&label);
        out.extend(row.iter());
        out.push('\n');
    }
    out.push_str(&format!(
        "{:>8} +{}\n{:>10}{:<.3}{:>width$.3}\n",
        "",
        "-".repeat(width),
        "",
        x_min,
        x_max,
        width = width - 5
    ));
    for s in series {
        out.push_str(&format!("{:>10} {} = {}\n", "", s.marker, s.label));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(points: Vec<(f64, f64)>) -> Series {
        Series {
            label: "test".into(),
            marker: '*',
            points,
        }
    }

    #[test]
    fn renders_expected_shape() {
        let s = series(vec![(0.0, 1.0), (1.0, 10.0), (2.0, 100.0)]);
        let chart = render_log_y(&[s], 20, 8);
        let lines: Vec<&str> = chart.lines().collect();
        // 8 grid rows + axis + x labels + legend.
        assert_eq!(lines.len(), 8 + 2 + 1);
        assert_eq!(
            chart.matches('*').count(),
            3 + 1,
            "3 points + legend marker"
        );
    }

    #[test]
    fn extremes_hit_corners() {
        let s = series(vec![(0.0, 1.0), (10.0, 1000.0)]);
        let chart = render_log_y(&[s], 30, 6);
        let lines: Vec<&str> = chart.lines().collect();
        // Lowest-left point on the bottom grid row, highest-right on top.
        assert!(lines[0].ends_with('*'), "max point at top right: {chart}");
        assert!(lines[5].contains('*'), "min point on bottom row");
    }

    #[test]
    fn skips_non_finite_points() {
        let s = series(vec![(0.0, f64::INFINITY), (1.0, 5.0), (2.0, f64::NAN)]);
        let chart = render_log_y(&[s], 20, 5);
        assert_eq!(chart.matches('*').count(), 1 + 1);
    }

    #[test]
    fn empty_input_is_graceful() {
        assert_eq!(render_log_y(&[], 20, 5), "(no finite data)\n");
        let s = series(vec![]);
        assert_eq!(render_log_y(&[s], 20, 5), "(no finite data)\n");
    }

    #[test]
    fn multiple_series_use_their_markers() {
        let a = Series {
            label: "a".into(),
            marker: 'o',
            points: vec![(0.0, 1.0)],
        };
        let b = Series {
            label: "b".into(),
            marker: 'x',
            points: vec![(1.0, 2.0)],
        };
        let chart = render_log_y(&[a, b], 20, 5);
        assert!(chart.contains('o'));
        assert!(chart.contains('x'));
        assert!(chart.contains("o = a"));
        assert!(chart.contains("x = b"));
    }
}

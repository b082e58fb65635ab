//! Time-series recording and tabular export for experiments.
//!
//! Every figure in the paper is a set of `(x, y)` series — messages vs.
//! elements observed, memory vs. window size, and so on. [`Series`] and
//! [`SeriesSet`] are the minimal representation of that, with CSV and
//! aligned-table rendering so the bench harness can both persist results
//! and print paper-style rows.

/// One named `(x, y)` curve.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Series {
    /// Curve label, e.g. `"flooding"` or `"broadcast"`.
    pub label: String,
    /// Sample points in x order.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// An empty series with a label.
    #[must_use]
    pub fn new(label: impl Into<String>) -> Self {
        Self {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Append a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// Final y value (panics if empty).
    #[must_use]
    pub fn last_y(&self) -> f64 {
        self.points.last().expect("empty series").1
    }

    /// Linear-regression slope of y on x (least squares); `None` with
    /// fewer than two points or zero x-variance.
    #[must_use]
    pub fn slope(&self) -> Option<f64> {
        let n = self.points.len();
        if n < 2 {
            return None;
        }
        let nf = n as f64;
        let (sx, sy): (f64, f64) = self
            .points
            .iter()
            .fold((0.0, 0.0), |(ax, ay), (x, y)| (ax + x, ay + y));
        let (mx, my) = (sx / nf, sy / nf);
        let mut num = 0.0;
        let mut den = 0.0;
        for &(x, y) in &self.points {
            num += (x - mx) * (y - my);
            den += (x - mx) * (x - mx);
        }
        if den == 0.0 {
            None
        } else {
            Some(num / den)
        }
    }

    /// Arithmetic mean of y values (`NaN` if empty).
    #[must_use]
    pub fn mean_y(&self) -> f64 {
        let n = self.points.len();
        if n == 0 {
            return f64::NAN;
        }
        self.points.iter().map(|&(_, y)| y).sum::<f64>() / n as f64
    }

    /// Pointwise combine with another series sharing the same x grid;
    /// used to average repeated runs.
    pub fn accumulate(&mut self, other: &Series) {
        if self.points.is_empty() {
            self.points = other.points.clone();
            return;
        }
        assert_eq!(
            self.points.len(),
            other.points.len(),
            "series length mismatch when accumulating"
        );
        for (a, b) in self.points.iter_mut().zip(&other.points) {
            debug_assert!(
                (a.0 - b.0).abs() < 1e-9,
                "x grids differ: {} vs {}",
                a.0,
                b.0
            );
            a.1 += b.1;
        }
    }

    /// Divide all y values by `n` (finishing an accumulated average).
    pub fn scale_y(&mut self, factor: f64) {
        for p in &mut self.points {
            p.1 *= factor;
        }
    }
}

/// A titled collection of curves sharing an x axis — one figure.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SeriesSet {
    /// Figure title, e.g. `"Figure 5.1 (OC48): messages vs elements"`.
    pub title: String,
    /// Label of the shared x axis.
    pub x_label: String,
    /// Label of the y axis.
    pub y_label: String,
    /// The curves.
    pub series: Vec<Series>,
}

impl SeriesSet {
    /// An empty figure.
    #[must_use]
    pub fn new(
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        Self {
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
        }
    }

    /// Add a curve.
    pub fn push(&mut self, s: Series) {
        self.series.push(s);
    }

    /// Find a curve by label.
    #[must_use]
    pub fn get(&self, label: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.label == label)
    }

    /// Render as CSV: header `x,<label1>,<label2>,...` then one row per x.
    /// Series must share an x grid (the harness guarantees this).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.x_label.replace(',', ";"));
        for s in &self.series {
            out.push(',');
            out.push_str(&s.label.replace(',', ";"));
        }
        out.push('\n');
        let rows = self
            .series
            .iter()
            .map(|s| s.points.len())
            .max()
            .unwrap_or(0);
        for r in 0..rows {
            let x = self
                .series
                .iter()
                .find_map(|s| s.points.get(r).map(|p| p.0));
            let Some(x) = x else { break };
            out.push_str(&format_num(x));
            for s in &self.series {
                out.push(',');
                match s.points.get(r) {
                    Some(&(_, y)) => out.push_str(&format_num(y)),
                    None => out.push_str(""),
                }
            }
            out.push('\n');
        }
        out
    }

    /// Render as an aligned text table (what the bench binaries print).
    #[must_use]
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("## {}\n", self.title));
        let mut header = vec![self.x_label.clone()];
        header.extend(self.series.iter().map(|s| s.label.clone()));
        let rows = self
            .series
            .iter()
            .map(|s| s.points.len())
            .max()
            .unwrap_or(0);
        let mut body: Vec<Vec<String>> = Vec::with_capacity(rows);
        for r in 0..rows {
            let x = self
                .series
                .iter()
                .find_map(|s| s.points.get(r).map(|p| p.0));
            let Some(x) = x else { break };
            let mut row = vec![format_num(x)];
            for s in &self.series {
                row.push(
                    s.points
                        .get(r)
                        .map(|&(_, y)| format_num(y))
                        .unwrap_or_default(),
                );
            }
            body.push(row);
        }
        let widths: Vec<usize> = header
            .iter()
            .enumerate()
            .map(|(i, h)| {
                body.iter()
                    .map(|r| r[i].len())
                    .chain(std::iter::once(h.len()))
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&header));
        out.push('\n');
        out.push_str(
            &"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)),
        );
        out.push('\n');
        for row in &body {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out.push_str(&format!("   ({} vs {})\n", self.y_label, self.x_label));
        out
    }
}

fn format_num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slope_of_line_is_exact() {
        let mut s = Series::new("lin");
        for i in 0..10 {
            s.push(f64::from(i), 3.0 * f64::from(i) + 2.0);
        }
        assert!((s.slope().unwrap() - 3.0).abs() < 1e-12);
        assert_eq!(s.last_y(), 29.0);
    }

    #[test]
    fn slope_degenerate_cases() {
        let mut s = Series::new("one");
        s.push(1.0, 1.0);
        assert!(s.slope().is_none());
        s.push(1.0, 5.0); // zero x-variance
        assert!(s.slope().is_none());
    }

    #[test]
    fn accumulate_and_scale_average_runs() {
        let mut avg = Series::new("avg");
        for run in 0..4 {
            let mut s = Series::new("run");
            for i in 0..5 {
                s.push(f64::from(i), f64::from(run));
            }
            avg.accumulate(&s);
        }
        avg.scale_y(1.0 / 4.0);
        for &(_, y) in &avg.points {
            assert!((y - 1.5).abs() < 1e-12);
        }
    }

    #[test]
    fn csv_rendering() {
        let mut set = SeriesSet::new("fig", "x", "y");
        let mut a = Series::new("a");
        a.push(1.0, 2.0);
        a.push(2.0, 4.0);
        let mut b = Series::new("b");
        b.push(1.0, 3.0);
        b.push(2.0, 6.5);
        set.push(a);
        set.push(b);
        let csv = set.to_csv();
        assert_eq!(csv, "x,a,b\n1,2,3\n2,4,6.500\n");
    }

    #[test]
    fn table_rendering_contains_all_labels() {
        let mut set = SeriesSet::new("Figure X", "k", "messages");
        let mut a = Series::new("proposed");
        a.push(5.0, 1000.0);
        set.push(a);
        let t = set.to_table();
        assert!(t.contains("Figure X"));
        assert!(t.contains("proposed"));
        assert!(t.contains("1000"));
        assert!(t.contains("messages"));
    }

    #[test]
    fn mean_y() {
        let mut s = Series::new("m");
        s.push(0.0, 1.0);
        s.push(1.0, 3.0);
        assert!((s.mean_y() - 2.0).abs() < 1e-12);
        assert!(Series::new("e").mean_y().is_nan());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn accumulate_rejects_mismatched_grids() {
        let mut a = Series::new("a");
        a.push(0.0, 1.0);
        let mut b = Series::new("b");
        b.push(0.0, 1.0);
        b.push(1.0, 2.0);
        a.accumulate(&b);
    }
}

//! Rendering: ASCII tables (paper-table shape) and TSV figure series.

use std::fmt::Write as _;

/// A simple aligned ASCII table.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row. The cell count must match the header count:
    /// debug builds assert it (a mismatched row is always a caller
    /// bug), and release builds pad or truncate to the header arity so
    /// [`Table::render`] never indexes out of bounds.
    pub fn row(&mut self, mut cells: Vec<String>) -> &mut Self {
        // Unreachable because every caller (`reproduce`'s tables and
        // `quickstart`) builds each row with its table's column count.
        debug_assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        cells.resize(self.headers.len(), String::new());
        self.rows.push(cells);
        self
    }

    /// Render with padded columns.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |out: &mut String, cells: &[String]| {
            for (i, cell) in cells.iter().enumerate() {
                let pad = widths[i];
                if i + 1 == cols {
                    let _ = write!(out, "{cell:<pad$}");
                } else {
                    let _ = write!(out, "{cell:<pad$}  ");
                }
            }
            let _ = writeln!(out);
        };
        line(&mut out, &self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }
}

/// A named data series for figure output.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend name.
    pub name: String,
    /// (x, y) points.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Build a series.
    pub fn new(name: impl Into<String>, points: Vec<(f64, f64)>) -> Self {
        Series { name: name.into(), points }
    }
}

/// Render one or more series as TSV: `x<TAB>series1<TAB>series2…` on a
/// shared x column per series block (gnuplot-friendly).
pub fn render_series(title: &str, series: &[Series]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# {title}");
    for s in series {
        let _ = writeln!(out, "# series: {}", s.name);
        for (x, y) in &s.points {
            let _ = writeln!(out, "{x}\t{y}");
        }
        let _ = writeln!(out);
    }
    out
}

/// Format a fraction as a percentage with one decimal.
pub fn pct(fraction: f64) -> String {
    format!("{:.1}%", fraction * 100.0)
}

/// Thousands separator for counts.
pub fn count(n: usize) -> String {
    let digits: Vec<char> = n.to_string().chars().rev().collect();
    let mut out = String::new();
    for (i, c) in digits.iter().enumerate() {
        if i > 0 && i % 3 == 0 {
            out.push(',');
        }
        out.push(*c);
    }
    out.chars().rev().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("Demo", &["Source", "#Prefixes"]);
        t.row(vec!["RIS".into(), "712,176".into()]);
        t.row(vec!["CDN".into(), "1,840,321".into()]);
        let rendered = t.render();
        assert!(rendered.contains("== Demo =="));
        assert!(rendered.contains("Source"));
        let lines: Vec<&str> = rendered.lines().collect();
        // header + rule + 2 rows + title.
        assert_eq!(lines.len(), 5);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "row arity mismatch")]
    fn table_rejects_bad_rows_in_debug() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn table_pads_bad_rows_in_release() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["only-one".into()]);
        t.row(vec!["1".into(), "2".into(), "3".into()]);
        assert_eq!(t.rows.len(), 2);
        // Short rows pad, long rows truncate; render stays well-formed.
        let rendered = t.render();
        assert!(rendered.contains("only-one"));
        assert!(!rendered.contains('3'));
    }

    #[test]
    fn series_tsv() {
        let s = Series::new("cdf", vec![(1.0, 0.5), (2.0, 1.0)]);
        let out = render_series("Fig 8a", &[s]);
        assert!(out.starts_with("# Fig 8a"));
        assert!(out.contains("# series: cdf"));
        assert!(out.contains("1\t0.5"));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.3305), "33.1%");
        assert_eq!(count(5), "5");
        assert_eq!(count(1234), "1,234");
        assert_eq!(count(88_209), "88,209");
        assert_eq!(count(1_840_321), "1,840,321");
    }
}

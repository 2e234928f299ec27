//! Plain-text report rendering: ASCII tables for the terminal (the
//! regeneration binaries print paper-style tables with these) and CSV for
//! downstream plotting.

use std::fmt::Write as _;

/// A simple monospace table builder. The first column (labels) is
/// left-justified, the rest (numbers) right-justified.
pub struct AsciiTable {
    title: Option<String>,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl AsciiTable {
    /// Start a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        AsciiTable {
            title: None,
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Set a title rendered above the table.
    pub fn with_title(mut self, title: impl Into<String>) -> Self {
        self.title = Some(title.into());
        self
    }

    /// Append a row (must match the header arity).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row arity {} != header arity {}",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells);
        self
    }

    /// Number of data rows so far.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if no rows have been added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render to a `String`.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        if let Some(t) = &self.title {
            let _ = writeln!(out, "{t}");
        }
        let sep: String = widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("+");
        let fmt_row = |cells: &[String], out: &mut String| {
            for i in 0..ncols {
                let cell = &cells[i];
                let w = widths[i];
                if i == 0 {
                    let _ = write!(out, " {cell:<w$} ");
                } else {
                    let _ = write!(out, " {cell:>w$} ");
                }
                if i + 1 < ncols {
                    out.push('|');
                }
            }
            out.push('\n');
        };
        fmt_row(&self.headers, &mut out);
        let _ = writeln!(out, "{sep}");
        for row in &self.rows {
            fmt_row(row, &mut out);
        }
        out
    }
}

/// Minimal CSV writer (quotes only when needed).
#[derive(Default)]
pub struct Csv {
    buf: String,
}

impl Csv {
    /// Empty document.
    pub fn new() -> Self {
        Csv { buf: String::new() }
    }

    /// Append one row of cells.
    pub fn row<S: AsRef<str>>(&mut self, cells: &[S]) -> &mut Self {
        let mut first = true;
        for c in cells {
            if !first {
                self.buf.push(',');
            }
            first = false;
            let c = c.as_ref();
            if c.contains(',') || c.contains('"') || c.contains('\n') {
                self.buf.push('"');
                self.buf.push_str(&c.replace('"', "\"\""));
                self.buf.push('"');
            } else {
                self.buf.push_str(c);
            }
        }
        self.buf.push('\n');
        self
    }

    /// The document so far.
    pub fn as_str(&self) -> &str {
        &self.buf
    }
}

/// Format a float with `prec` decimals, trimming to at most 12 chars —
/// the uniform number style used across reports.
pub fn num(v: f64, prec: usize) -> String {
    if v.is_nan() {
        "n/a".to_string()
    } else {
        format!("{v:.prec$}")
    }
}

/// Format a fraction as a percentage with two decimals ("4.57%").
pub fn pct(fraction: f64) -> String {
    format!("{:.2}%", fraction * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_columns() {
        let mut t = AsciiTable::new(vec!["name", "value"]);
        t.row(vec!["alpha", "1"]);
        t.row(vec!["b", "12345"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[1].chars().all(|c| c == '-' || c == '+'));
        // All rows have equal width.
        assert_eq!(lines[0].len(), lines[2].len());
        assert_eq!(lines[2].len(), lines[3].len());
        // Numbers right-aligned: "1" ends at same column as "12345".
        assert!(lines[2].ends_with("1 "));
        assert!(lines[3].ends_with("12345 "));
    }

    #[test]
    fn table_title_and_len() {
        let mut t = AsciiTable::new(vec!["x"]).with_title("Table 1");
        assert!(t.is_empty());
        t.row(vec!["1"]);
        assert_eq!(t.len(), 1);
        assert!(t.render().starts_with("Table 1\n"));
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn table_rejects_wrong_arity() {
        let mut t = AsciiTable::new(vec!["a", "b"]);
        t.row(vec!["only-one"]);
    }

    #[test]
    fn csv_quotes_when_needed() {
        let mut c = Csv::new();
        c.row(&["plain", "with,comma", "with\"quote"]);
        assert_eq!(c.as_str(), "plain,\"with,comma\",\"with\"\"quote\"\n");
    }

    #[test]
    fn num_and_pct_formatting() {
        assert_eq!(num(1.23456, 2), "1.23");
        assert_eq!(num(f64::NAN, 2), "n/a");
        assert_eq!(pct(0.0457), "4.57%");
    }
}

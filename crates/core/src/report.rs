//! Plain-text table rendering for experiment output.

use std::fmt;

use spider_obs::jsonio::write_str;

/// A simple aligned table.
#[derive(Debug, Clone)]
pub struct Table {
    /// Title printed above the table.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows (each the same length as `headers`).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// New empty table.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_owned(),
            headers: headers.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when there are no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// JSON object form (`{"title": ..., "headers": [...], "rows": [[...]]}`).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128);
        out.push_str("{\"title\":");
        write_str(&mut out, &self.title);
        out.push_str(",\"headers\":");
        json_string_array(&mut out, &self.headers);
        out.push_str(",\"rows\":[");
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json_string_array(&mut out, row);
        }
        out.push_str("]}");
        out
    }
}

fn json_string_array(out: &mut String, items: &[String]) {
    out.push('[');
    for (i, s) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_str(out, s);
    }
    out.push(']');
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(std::string::String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        writeln!(f, "## {}", self.title)?;
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            let mut first = true;
            for (w, cell) in widths.iter().zip(cells) {
                if !first {
                    write!(f, "  ")?;
                }
                write!(f, "{cell:>w$}")?;
                first = false;
            }
            writeln!(f)
        };
        line(f, &self.headers)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            line(f, row)?;
        }
        Ok(())
    }
}

/// Format a fraction as a percentage string.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Format bytes/s as GB/s.
pub fn gbs(bytes_per_sec: f64) -> String {
    format!("{:.1}", bytes_per_sec / 1e9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("Demo", &["name", "value"]);
        t.row(vec!["alpha".into(), "1".into()]);
        t.row(vec!["b".into(), "22222".into()]);
        let s = t.to_string();
        assert!(s.contains("## Demo"));
        assert!(s.contains("alpha"));
        assert!(s.lines().count() >= 5);
        assert_eq!(t.len(), 2);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn width_mismatch_panics() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn helpers_format() {
        assert_eq!(pct(0.0525), "5.2%");
        assert_eq!(gbs(320e9), "320.0");
    }

    #[test]
    fn table_serializes() {
        let mut t = Table::new("s", &["a"]);
        t.row(vec!["1".into()]);
        let json = t.to_json();
        assert!(json.contains("\"title\":\"s\""));
        assert!(json.contains("\"rows\":[[\"1\"]]"));
    }
}

//! Shared utilities for the reproduction binaries: a tiny CSV writer,
//! the measurement [`harness`] and [`gates`] table of the perf trackers,
//! and the tracker drivers behind `repro`.

pub mod chart;
pub mod comms_bench;
pub mod dynamic_bench;
pub mod gates;
pub mod harness;
pub mod hotpaths;
pub mod pipeline_bench;
pub mod serve_bench;
pub mod tracked;

use std::fs;
use std::io::Write as _;
use std::path::PathBuf;

/// Directory that experiment outputs are written to.
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("SAMO_RESULTS_DIR").unwrap_or_else(|_| "results".to_string());
    PathBuf::from(dir)
}

/// A simple CSV table accumulated in memory and flushed to `results/`.
pub struct Table {
    name: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column header.
    pub fn new(name: &str, header: &[&str]) -> Table {
        Table {
            name: name.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    pub fn push(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.header.len(), "row arity mismatch");
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if no rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table as aligned text for the terminal.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Writes the table as CSV under `results/<name>.csv` and returns
    /// the path. Cells are quoted per RFC 4180 when they contain commas,
    /// quotes or newlines.
    pub fn write_csv(&self) -> std::io::Result<PathBuf> {
        let dir = results_dir();
        fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{}.csv", self.name));
        let mut f = fs::File::create(&path)?;
        let join = |cells: &[String]| {
            cells.iter().map(|c| csv_escape(c)).collect::<Vec<_>>().join(",")
        };
        writeln!(f, "{}", join(&self.header))?;
        for row in &self.rows {
            writeln!(f, "{}", join(row))?;
        }
        Ok(path)
    }
}

/// RFC 4180 cell quoting: cells containing a comma, double quote, CR or
/// LF are wrapped in double quotes with embedded quotes doubled; all
/// other cells pass through unchanged.
pub fn csv_escape(cell: &str) -> String {
    if cell.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", cell.replace('"', "\"\""))
    } else {
        cell.to_string()
    }
}

/// Writes arbitrary text under `results/<name>`.
pub fn write_text(name: &str, contents: &str) -> std::io::Result<PathBuf> {
    let dir = results_dir();
    fs::create_dir_all(&dir)?;
    let path = dir.join(name);
    fs::write(&path, contents)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("unit_test_table", &["a", "long_column"]);
        t.push(vec!["1".into(), "2".into()]);
        t.push(vec!["100".into(), "2000".into()]);
        let s = t.render();
        assert!(s.contains("long_column"));
        assert_eq!(s.lines().count(), 4);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn table_rejects_wrong_arity() {
        let mut t = Table::new("x", &["a", "b"]);
        t.push(vec!["1".into()]);
    }

    #[test]
    fn csv_escapes_special_cells_rfc4180() {
        assert_eq!(csv_escape("plain"), "plain");
        assert_eq!(csv_escape("a,b"), "\"a,b\"");
        assert_eq!(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(csv_escape("line1\nline2"), "\"line1\nline2\"");
        assert_eq!(csv_escape("cr\rcell"), "\"cr\rcell\"");

        // Serializes SAMO_RESULTS_DIR mutation against csv_roundtrip.
        let _guard = telemetry::test_lock();
        let dir = std::env::temp_dir().join(format!("samo-csv-test-{}", std::process::id()));
        std::env::set_var("SAMO_RESULTS_DIR", &dir);
        let mut t = Table::new("unit_csv_quote", &["name", "note"]);
        t.push(vec!["GPT-3 6.7B".into(), "adam, fp16".into()]);
        t.push(vec!["with \"quote\"".into(), "multi\nline".into()]);
        let path = t.write_csv().unwrap();
        let body = std::fs::read_to_string(path).unwrap();
        assert_eq!(
            body,
            "name,note\nGPT-3 6.7B,\"adam, fp16\"\n\"with \"\"quote\"\"\",\"multi\nline\"\n"
        );
        std::env::remove_var("SAMO_RESULTS_DIR");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn csv_roundtrip() {
        let _guard = telemetry::test_lock();
        let dir = std::env::temp_dir().join("samo-test-results");
        std::env::set_var("SAMO_RESULTS_DIR", &dir);
        let mut t = Table::new("unit_csv", &["x", "y"]);
        t.push(vec!["1".into(), "2".into()]);
        let path = t.write_csv().unwrap();
        let body = std::fs::read_to_string(path).unwrap();
        assert_eq!(body, "x,y\n1,2\n");
        std::env::remove_var("SAMO_RESULTS_DIR");
    }
}

//! Plain-text tables and JSON result files.
//!
//! Each experiment binary prints the same rows/series the paper reports and, when a
//! `results/` directory exists (it is created on demand), also writes the rows as JSON
//! so EXPERIMENTS.md numbers can be regenerated mechanically.

use serde::Serialize;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// A simple column-aligned text table plus a machine-readable payload.
#[derive(Debug, Clone)]
pub struct Report {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    notes: Vec<String>,
}

impl Report {
    /// Creates an empty report.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Report {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends one row (must match the header count).
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match the header count"
        );
        self.rows.push(cells.to_vec());
        self
    }

    /// Appends a free-text note printed under the table.
    pub fn note(&mut self, note: impl Into<String>) -> &mut Self {
        self.notes.push(note.into());
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the report has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the report as a column-aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let header_line: Vec<String> = self
            .headers
            .iter()
            .enumerate()
            .map(|(i, h)| format!("{:width$}", h, width = widths[i]))
            .collect();
        let _ = writeln!(out, "{}", header_line.join("  "));
        let _ = writeln!(
            out,
            "{}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        );
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:width$}", c, width = widths[i]))
                .collect();
            let _ = writeln!(out, "{}", line.join("  "));
        }
        for note in &self.notes {
            let _ = writeln!(out, "note: {note}");
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// Writes `payload` as pretty JSON into `results/<name>.json` (relative to the
    /// workspace root, falling back to the current directory). Errors are reported but
    /// non-fatal so the binaries still work in read-only checkouts.
    pub fn write_json<T: Serialize>(name: &str, payload: &T) {
        let dir = results_dir();
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("warning: could not create {}: {e}", dir.display());
            return;
        }
        let path = dir.join(format!("{name}.json"));
        match serde_json::to_string_pretty(payload) {
            Ok(json) => {
                if let Err(e) = std::fs::write(&path, json) {
                    eprintln!("warning: could not write {}: {e}", path.display());
                } else {
                    println!("(wrote {})", path.display());
                }
            }
            Err(e) => eprintln!("warning: could not serialize {name}: {e}"),
        }
    }
}

/// The directory experiment results are written to: `<workspace root>/results` when it
/// can be located via `CARGO_MANIFEST_DIR`, otherwise `./results`.
pub(crate) fn results_dir() -> PathBuf {
    let manifest = std::env::var("CARGO_MANIFEST_DIR").unwrap_or_default();
    if manifest.is_empty() {
        return PathBuf::from("results");
    }
    // crates/bench -> workspace root is two levels up.
    Path::new(&manifest)
        .ancestors()
        .nth(2)
        .map(|p| p.join("results"))
        .unwrap_or_else(|| PathBuf::from("results"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut r = Report::new("demo", &["name", "value"]);
        r.row(&["a".into(), "1".into()]);
        r.row(&["longer-name".into(), "2".into()]);
        r.note("hello");
        let text = r.render();
        assert!(text.contains("== demo =="));
        assert!(text.contains("longer-name"));
        assert!(text.contains("note: hello"));
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_width_panics() {
        let mut r = Report::new("demo", &["a", "b"]);
        r.row(&["only-one".into()]);
    }

    #[test]
    fn results_dir_is_under_workspace_root() {
        let dir = results_dir();
        assert!(dir.ends_with("results"));
    }
}

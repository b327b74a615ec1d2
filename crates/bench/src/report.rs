//! Aligned-table printing and TSV output for the experiment binaries.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// A simple column-aligned table that also serializes to TSV.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Self {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header arity).
    pub fn push<S: Into<String>>(&mut self, row: Vec<S>) {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.header.len(), "row arity mismatch");
        self.rows.push(row);
    }

    /// Formats a float like the paper's tables (2 decimals, "-" for n/a).
    pub fn num(v: Option<f64>) -> String {
        match v {
            Some(x) if x.abs() >= 100.0 => format!("{x:.1}"),
            Some(x) => format!("{x:.2}"),
            None => "-".to_string(),
        }
    }

    /// Formats seconds with enough resolution for log-scale comparisons.
    pub fn secs(v: f64) -> String {
        if v >= 1.0 {
            format!("{v:.2}")
        } else {
            format!("{:.4}", v.max(0.0))
        }
    }

    /// Renders the aligned table.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut width = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            width[i] = h.len();
        }
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                width[i] = width[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let line = |cells: &[String], out: &mut String| {
            for (i, cell) in cells.iter().enumerate() {
                let _ = write!(out, "{:>w$}  ", cell, w = width[i]);
            }
            out.push('\n');
        };
        line(&self.header, &mut out);
        let total: usize = width.iter().sum::<usize>() + 2 * cols;
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            line(row, &mut out);
        }
        out
    }

    /// Prints to stdout with a title.
    pub fn print(&self, title: &str) {
        println!("\n== {title} ==\n{}", self.render());
    }

    /// Writes a TSV file into `bench_results/` (created on demand),
    /// returning the path.
    pub fn write_tsv(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = results_dir();
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{name}.tsv"));
        let mut body = self.header.join("\t");
        body.push('\n');
        for row in &self.rows {
            body.push_str(&row.join("\t"));
            body.push('\n');
        }
        std::fs::write(&path, body)?;
        Ok(path)
    }
}

/// `bench_results/` next to the workspace root (or the current directory
/// when run elsewhere).
pub fn results_dir() -> PathBuf {
    workspace_path("bench_results")
}

/// Where a bench bin writes its result envelope: [`results_dir`] for a
/// full run; a `--quick` smoke run goes to the gitignored
/// `target/bench_results/` instead, so it never replaces a committed
/// full-grid envelope.
pub fn results_dir_for(quick: bool) -> PathBuf {
    if quick {
        workspace_path("target/bench_results")
    } else {
        results_dir()
    }
}

/// `rel` under the workspace root, or under the current directory when
/// run elsewhere.
fn workspace_path(rel: &str) -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench; the workspace root is two up.
    let manifest = env!("CARGO_MANIFEST_DIR");
    Path::new(manifest)
        .ancestors()
        .nth(2)
        .map(|p| p.join(rel))
        .unwrap_or_else(|| PathBuf::from(rel))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new(vec!["name", "rmse"]);
        t.push(vec!["IIM".to_string(), Table::num(Some(8.08))]);
        t.push(vec!["kNN".to_string(), Table::num(Some(22.63))]);
        t.push(vec!["SVD".to_string(), Table::num(None)]);
        let s = t.render();
        assert!(s.contains("8.08"));
        assert!(s.contains('-'));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5);
    }

    #[test]
    fn quick_runs_never_write_the_committed_results_dir() {
        assert_eq!(results_dir_for(false), results_dir());
        let quick = results_dir_for(true);
        assert!(
            quick.ends_with("target/bench_results"),
            "{}",
            quick.display()
        );
        assert!(!quick.starts_with(results_dir()));
    }

    #[test]
    fn num_formats() {
        assert_eq!(Table::num(Some(7.305)), "7.30");
        assert_eq!(Table::num(Some(192.5)), "192.5");
        assert_eq!(Table::num(None), "-");
        assert_eq!(Table::secs(0.01234), "0.0123");
        assert_eq!(Table::secs(12.3), "12.30");
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn rejects_ragged_rows() {
        let mut t = Table::new(vec!["a", "b"]);
        t.push(vec!["only one"]);
    }
}

//! Aligned-table printing for the experiment binaries and `iim bench
//! run`, and where their result envelopes go.

use crate::result::BenchResult;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// A simple column-aligned table.
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
}

/// One metric of an envelope as one table: a row per distinct value of
/// the coordinates that vary across the cells (the dataset always shows),
/// a column per value of the `column` coordinate, in first-seen order,
/// each value printed by `format` (`None` where no cell holds the metric).
pub fn metric_table(
    result: &BenchResult,
    metric: &str,
    column: &str,
    format: fn(Option<f64>) -> String,
) -> Table {
    let cells: Vec<_> = result
        .cells
        .iter()
        .filter_map(|c| Some((c, c.metric_named(metric)?.min())))
        .collect();
    let coord = |cell: &crate::result::Cell, key: &str| {
        cell.id
            .iter()
            .find(|(k, _)| k == key)
            .map_or_else(String::new, |(_, v)| v.to_string())
    };
    let keys: Vec<String> = cells.first().map_or_else(Vec::new, |(first, _)| {
        first
            .id
            .iter()
            .map(|(k, _)| k.clone())
            .filter(|k| {
                k != column
                    && (k == "dataset" || cells.iter().any(|(c, _)| coord(c, k) != coord(first, k)))
            })
            .collect()
    });
    let mut columns: Vec<String> = Vec::new();
    let mut rows: Vec<(Vec<String>, Vec<(usize, f64)>)> = Vec::new();
    for (cell, value) in &cells {
        let col = coord(cell, column);
        let col = columns.iter().position(|c| *c == col).unwrap_or_else(|| {
            columns.push(col);
            columns.len() - 1
        });
        let row_key: Vec<String> = keys.iter().map(|k| coord(cell, k)).collect();
        match rows.iter_mut().find(|(key, _)| *key == row_key) {
            Some((_, values)) => values.push((col, *value)),
            None => rows.push((row_key, vec![(col, *value)])),
        }
    }
    let mut table = Table::new(keys.iter().chain(&columns).cloned().collect());
    for (key, values) in rows {
        let mut row = key;
        row.extend(
            (0..columns.len())
                .map(|c| format(values.iter().find(|(col, _)| *col == c).map(|(_, v)| *v))),
        );
        table.push(row);
    }
    table
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
    fn metric_table_pivots_methods_into_columns() {
        use crate::result::Cell;
        let mut result = BenchResult::new("unit", 0, 1);
        for (dataset, method, seed, rmse) in [
            ("ASF", "IIM", 1.0, 0.5),
            ("ASF", "kNN", 1.0, 0.75),
            ("ASF", "IIM", 2.0, 0.25),
            ("CA", "kNN", 1.0, 2.0),
        ] {
            result.push(
                Cell::new()
                    .coord_str("dataset", dataset)
                    .coord_str("method", method)
                    .coord_num("k", 10.0)
                    .coord_num("seed", seed)
                    .metric("rmse", vec![rmse]),
            );
        }
        let lines: Vec<String> = metric_table(&result, "rmse", "method", Table::num)
            .render()
            .lines()
            .map(|l| l.split_whitespace().collect::<Vec<_>>().join(" "))
            .collect();
        // `k` never varies, so it is not a row coordinate.
        assert_eq!(lines[0], "dataset seed IIM kNN");
        assert_eq!(lines[2], "ASF 1 0.50 0.75");
        assert_eq!(lines[3], "ASF 2 0.25 -");
        assert_eq!(lines[4], "CA 1 - 2.00");
        assert_eq!(
            metric_table(&result, "purity", "method", Table::num)
                .render()
                .lines()
                .count(),
            2
        );
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

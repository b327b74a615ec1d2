//! The perf-regression gate: compare two result envelopes cell by cell.
//!
//! `iim bench diff new.json baseline.json --noise-band <pct>` joins cells
//! on their coordinate [`key`](crate::result::Cell::key) and compares the
//! metrics both sides share:
//!
//! - **Timing metrics** (names ending `_s` or `_us`): lower is better.
//!   The gate compares one summary statistic per metric — the minimum
//!   sample by default (the least noisy wall-clock statistic), the mean
//!   with `--stat mean`. A cell **fails** when the new value exceeds the
//!   baseline by more than the noise band *and* by more than the absolute
//!   min-effect floor (tiny timings jitter by large ratios); it **warns**
//!   when slower but within the band; it **passes** when at or below the
//!   baseline.
//! - **`rmse`**: a correctness metric, gated machine-independently with a
//!   near-zero relative tolerance — the workspace's determinism contract
//!   means any drift is a behavior change, not noise.
//! - Everything else (derived speedups and rates, byte counts) is
//!   informational and not gated.
//!
//! Coverage is part of the contract: a baseline cell or metric missing
//! from the new run **fails** (a silently dropped experiment looks
//! exactly like a passing one otherwise); a new-only cell **warns**
//! (usually an intentionally grown spec, flagged so the baseline gets
//! refreshed).

use crate::result::{BenchResult, Cell, Metric};
use std::collections::BTreeMap;
use std::fmt;

/// Which summary statistic of a metric's samples the gate compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Stat {
    /// The minimum sample (default; least scheduler noise).
    #[default]
    Min,
    /// The arithmetic mean.
    Mean,
}

impl Stat {
    /// Extracts the chosen statistic.
    pub fn of(self, m: &Metric) -> f64 {
        match self {
            Stat::Min => m.min(),
            Stat::Mean => m.mean(),
        }
    }

    /// Parses `min` / `mean`.
    pub fn parse(s: &str) -> Option<Stat> {
        match s {
            "min" => Some(Stat::Min),
            "mean" => Some(Stat::Mean),
            _ => None,
        }
    }
}

/// Gate tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiffConfig {
    /// Allowed slowdown as a fraction (0.10 = 10%). Slower-than-baseline
    /// within the band warns; beyond it fails.
    pub noise_band: f64,
    /// Absolute floor in seconds: a slowdown must also exceed this to
    /// fail, so microsecond-scale timings can't fail on ratio alone.
    pub min_effect_s: f64,
    /// Summary statistic compared per metric.
    pub stat: Stat,
    /// Relative tolerance for the `rmse` correctness metric.
    pub rmse_tolerance: f64,
}

impl Default for DiffConfig {
    fn default() -> Self {
        DiffConfig {
            noise_band: 0.10,
            min_effect_s: 100e-6,
            stat: Stat::Min,
            rmse_tolerance: 1e-9,
        }
    }
}

impl DiffConfig {
    /// The `rmse` rule: `new` agrees with `base` within
    /// [`rmse_tolerance`](DiffConfig::rmse_tolerance), relative to
    /// `max(|base|, 1)`.
    pub fn rmse_agrees(&self, new: f64, base: f64) -> bool {
        (new - base).abs() <= self.rmse_tolerance * base.abs().max(1.0)
    }
}

/// Per-cell outcome, ordered worst-last so `max()` picks the verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    /// At or below baseline (or not a gated metric).
    Pass,
    /// Slower than baseline but within the noise band, or a new-only cell.
    Warn,
    /// Beyond the band, a correctness drift, or lost coverage.
    Fail,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Pass => "pass",
            Verdict::Warn => "WARN",
            Verdict::Fail => "FAIL",
        })
    }
}

/// One compared cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellReport {
    /// The cell's canonical coordinate key.
    pub key: String,
    /// Worst verdict across the cell's metrics.
    pub verdict: Verdict,
    /// Human-readable per-metric lines (only non-pass details are kept,
    /// plus a summary ratio for the headline timing).
    pub details: Vec<String>,
}

/// The whole comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffReport {
    /// One entry per baseline cell (matched or missing) plus new-only
    /// cells, in baseline order.
    pub cells: Vec<CellReport>,
    /// Counts by verdict: (pass, warn, fail).
    pub totals: (usize, usize, usize),
}

impl DiffReport {
    /// The overall verdict (worst cell).
    pub fn verdict(&self) -> Verdict {
        self.cells
            .iter()
            .map(|c| c.verdict)
            .max()
            .unwrap_or(Verdict::Pass)
    }

    /// Process exit code: 0 for pass/warn, 1 for fail.
    pub fn exit_code(&self) -> i32 {
        match self.verdict() {
            Verdict::Fail => 1,
            _ => 0,
        }
    }

    /// Renders the per-cell report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for cell in &self.cells {
            out.push_str(&format!("[{}] {}\n", cell.verdict, cell.key));
            for d in &cell.details {
                out.push_str(&format!("    {d}\n"));
            }
        }
        let (p, w, f) = self.totals;
        out.push_str(&format!(
            "gate: {} — {p} pass, {w} warn, {f} fail\n",
            self.verdict()
        ));
        out
    }
}

/// Is this metric a gated lower-is-better timing?
fn is_timing(name: &str) -> bool {
    name.ends_with("_s") || name.ends_with("_us")
}

/// The metric's value expressed in seconds (for the min-effect floor).
fn to_seconds(name: &str, value: f64) -> f64 {
    if name.ends_with("_us") {
        value * 1e-6
    } else {
        value
    }
}

/// Compares `new` against `baseline`. See the module docs for semantics.
pub fn diff(new: &BenchResult, baseline: &BenchResult, cfg: &DiffConfig) -> DiffReport {
    let new_by_key: BTreeMap<String, &Cell> = new.cells.iter().map(|c| (c.key(), c)).collect();
    let base_keys: BTreeMap<String, &Cell> = baseline.cells.iter().map(|c| (c.key(), c)).collect();

    let mut cells = Vec::new();
    for base_cell in &baseline.cells {
        let key = base_cell.key();
        let Some(new_cell) = new_by_key.get(&key) else {
            cells.push(CellReport {
                key,
                verdict: Verdict::Fail,
                details: vec!["cell missing from the new result (lost coverage)".to_string()],
            });
            continue;
        };
        cells.push(compare_cell(&key, new_cell, base_cell, cfg));
    }
    for new_cell in &new.cells {
        let key = new_cell.key();
        if !base_keys.contains_key(&key) {
            cells.push(CellReport {
                key,
                verdict: Verdict::Warn,
                details: vec![
                    "cell not in the baseline (refresh it to start gating this cell)".to_string(),
                ],
            });
        }
    }

    let totals = cells
        .iter()
        .fold((0, 0, 0), |(p, w, f), c| match c.verdict {
            Verdict::Pass => (p + 1, w, f),
            Verdict::Warn => (p, w + 1, f),
            Verdict::Fail => (p, w, f + 1),
        });
    DiffReport { cells, totals }
}

fn compare_cell(key: &str, new: &Cell, base: &Cell, cfg: &DiffConfig) -> CellReport {
    let mut verdict = Verdict::Pass;
    let mut details = Vec::new();
    for (name, base_metric) in &base.metrics {
        let Some(new_metric) = new.metric_named(name) else {
            verdict = verdict.max(Verdict::Fail);
            details.push(format!("{name}: missing from the new result"));
            continue;
        };
        if name == "rmse" {
            let (nv, bv) = (cfg.stat.of(new_metric), cfg.stat.of(base_metric));
            if !cfg.rmse_agrees(nv, bv) {
                verdict = verdict.max(Verdict::Fail);
                details.push(format!(
                    "rmse: {nv} vs baseline {bv} — correctness drift beyond {:.0e} tolerance",
                    cfg.rmse_tolerance
                ));
            }
            continue;
        }
        if !is_timing(name) {
            continue;
        }
        let (nv, bv) = (cfg.stat.of(new_metric), cfg.stat.of(base_metric));
        if bv <= 0.0 {
            // A zero baseline timing can't anchor a ratio; gate on the
            // absolute floor alone.
            if to_seconds(name, nv) > cfg.min_effect_s {
                verdict = verdict.max(Verdict::Fail);
                details.push(format!("{name}: {nv} vs zero baseline"));
            }
            continue;
        }
        let ratio = nv / bv;
        let delta_s = to_seconds(name, nv - bv);
        if ratio > 1.0 + cfg.noise_band && delta_s > cfg.min_effect_s {
            verdict = verdict.max(Verdict::Fail);
            details.push(format!(
                "{name}: {nv} vs {bv} ({:+.1}% > {:.0}% band)",
                (ratio - 1.0) * 100.0,
                cfg.noise_band * 100.0
            ));
        } else if ratio > 1.0 + cfg.noise_band {
            // Over the band but under the absolute floor: jitter on a
            // microsecond-scale metric, worth a look, not a failure.
            verdict = verdict.max(Verdict::Warn);
            details.push(format!(
                "{name}: {nv} vs {bv} ({:+.1}%, below the {:.0}µs min-effect floor)",
                (ratio - 1.0) * 100.0,
                cfg.min_effect_s * 1e6
            ));
        } else if ratio > 1.0 && delta_s > cfg.min_effect_s {
            verdict = verdict.max(Verdict::Warn);
            details.push(format!(
                "{name}: {nv} vs {bv} ({:+.1}%, within the {:.0}% band)",
                (ratio - 1.0) * 100.0,
                cfg.noise_band * 100.0
            ));
        }
    }
    CellReport {
        key: key.to_string(),
        verdict,
        details,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::{BenchResult, Cell, Machine};

    fn envelope(cells: Vec<Cell>) -> BenchResult {
        BenchResult {
            schema_version: crate::result::SCHEMA_VERSION,
            name: "unit".to_string(),
            machine: Machine {
                available_cores: 1,
                cpu_model: "test".to_string(),
                os: "linux".to_string(),
                rustc: "unknown".to_string(),
                git_commit: "unknown".to_string(),
            },
            warmup: 0,
            repeats: 1,
            spec_toml: None,
            note: None,
            cells,
        }
    }

    fn cell(method: &str, offline_s: f64, rmse: f64) -> Cell {
        Cell::new()
            .coord_str("dataset", "ASF")
            .coord_str("method", method)
            .metric("offline_s", vec![offline_s])
            .metric("rmse", vec![rmse])
    }

    #[test]
    fn identical_results_pass() {
        let base = envelope(vec![cell("IIM", 0.5, 8.08), cell("kNN", 0.01, 22.63)]);
        let report = diff(&base, &base, &DiffConfig::default());
        assert_eq!(report.verdict(), Verdict::Pass);
        assert_eq!(report.exit_code(), 0);
        assert_eq!(report.totals, (2, 0, 0));
    }

    #[test]
    fn injected_regression_beyond_the_band_fails() {
        let base = envelope(vec![cell("IIM", 0.5, 8.08)]);
        let new = envelope(vec![cell("IIM", 0.75, 8.08)]); // +50%
        let report = diff(&new, &base, &DiffConfig::default());
        assert_eq!(report.verdict(), Verdict::Fail);
        assert_eq!(report.exit_code(), 1);
        assert!(report.render().contains("offline_s"));
    }

    #[test]
    fn jitter_within_the_band_does_not_fail() {
        let base = envelope(vec![cell("IIM", 0.5, 8.08)]);
        let new = envelope(vec![cell("IIM", 0.52, 8.08)]); // +4% < 10% band
        let report = diff(&new, &base, &DiffConfig::default());
        assert_eq!(report.verdict(), Verdict::Warn);
        assert_eq!(report.exit_code(), 0);
    }

    #[test]
    fn speedups_pass_silently() {
        let base = envelope(vec![cell("IIM", 0.5, 8.08)]);
        let new = envelope(vec![cell("IIM", 0.3, 8.08)]);
        let report = diff(&new, &base, &DiffConfig::default());
        assert_eq!(report.verdict(), Verdict::Pass);
    }

    #[test]
    fn tiny_absolute_slowdowns_warn_instead_of_failing() {
        // +100% ratio but only 20µs absolute — under the 100µs floor.
        let base = envelope(vec![cell("IIM", 20e-6, 8.08)]);
        let new = envelope(vec![cell("IIM", 40e-6, 8.08)]);
        let report = diff(&new, &base, &DiffConfig::default());
        assert_eq!(report.verdict(), Verdict::Warn);
        assert_eq!(report.exit_code(), 0);
    }

    #[test]
    fn rmse_drift_fails_even_when_faster() {
        let base = envelope(vec![cell("IIM", 0.5, 8.08)]);
        let new = envelope(vec![cell("IIM", 0.4, 8.09)]);
        let report = diff(&new, &base, &DiffConfig::default());
        assert_eq!(report.verdict(), Verdict::Fail);
        assert!(report.render().contains("correctness drift"));
    }

    #[test]
    fn missing_cell_in_new_result_fails() {
        let base = envelope(vec![cell("IIM", 0.5, 8.08), cell("kNN", 0.01, 22.63)]);
        let new = envelope(vec![cell("IIM", 0.5, 8.08)]);
        let report = diff(&new, &base, &DiffConfig::default());
        assert_eq!(report.verdict(), Verdict::Fail);
        assert!(report.render().contains("lost coverage"));
    }

    #[test]
    fn new_only_cell_warns() {
        let base = envelope(vec![cell("IIM", 0.5, 8.08)]);
        let new = envelope(vec![cell("IIM", 0.5, 8.08), cell("kNN", 0.01, 22.63)]);
        let report = diff(&new, &base, &DiffConfig::default());
        assert_eq!(report.verdict(), Verdict::Warn);
        assert_eq!(report.totals, (1, 1, 0));
    }

    #[test]
    fn missing_metric_fails() {
        let base = envelope(vec![cell("IIM", 0.5, 8.08)]);
        let new = envelope(vec![Cell::new()
            .coord_str("dataset", "ASF")
            .coord_str("method", "IIM")
            .metric("offline_s", vec![0.5])]);
        let report = diff(&new, &base, &DiffConfig::default());
        assert_eq!(report.verdict(), Verdict::Fail);
        assert!(report.render().contains("rmse: missing"));
    }

    #[test]
    fn min_stat_tolerates_one_noisy_sample() {
        let base = envelope(vec![Cell::new()
            .coord_str("method", "IIM")
            .metric("offline_s", vec![0.5, 0.51])]);
        // One sample spikes, the min is unchanged.
        let new = envelope(vec![Cell::new()
            .coord_str("method", "IIM")
            .metric("offline_s", vec![0.9, 0.5])]);
        let report = diff(&new, &base, &DiffConfig::default());
        assert_eq!(report.verdict(), Verdict::Pass);
        // The mean statistic does see it.
        let mean_cfg = DiffConfig {
            stat: Stat::Mean,
            ..DiffConfig::default()
        };
        assert_eq!(diff(&new, &base, &mean_cfg).verdict(), Verdict::Fail);
    }
}

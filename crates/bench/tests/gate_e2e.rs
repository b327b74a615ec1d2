//! End-to-end proof of the regression gate: a real spec run, written to
//! disk in the versioned envelope, read back, and diffed — green against
//! itself, red the moment a slowdown is injected. This is the same path
//! CI's `bench-gate` job takes (`iim bench run` + `iim bench diff`), so
//! a green suite here means the job's failure mode is exercised, not
//! assumed.

use iim_bench::cli::bench_main;
use iim_bench::diff::{diff, DiffConfig};
use iim_bench::report::results_dir;
use iim_bench::{runner, BenchResult, Cell, PaperData, Spec};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// A spec small enough for a debug-profile test run: two cheap methods,
/// one tiny dataset, two thread counts (so the executor sweep and its
/// determinism check both engage).
fn tiny_spec() -> Spec {
    Spec {
        name: "gate_e2e".into(),
        methods: vec!["Mean".into(), "kNN".into()],
        missing_rates: vec![0.05],
        threads: vec![1, 2],
        repeats: 2,
        warmup: 0,
        n: vec![120],
        ..Spec::default()
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("iim-gate-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Multiplies every sample of `metric` by `factor` — the injected
/// regression.
fn slow_down(result: &mut BenchResult, metric: &str, factor: f64) {
    let mut hit = 0;
    for cell in &mut result.cells {
        for (name, m) in &mut cell.metrics {
            if name == metric {
                for s in &mut m.samples {
                    *s *= factor;
                }
                hit += 1;
            }
        }
    }
    assert!(hit > 0, "no {metric} metrics to slow down");
}

#[test]
fn a_run_diffs_green_against_itself_and_red_against_an_injected_slowdown() {
    let dir = temp_dir("inproc");
    let baseline = runner::run(&tiny_spec());
    let path = dir.join("baseline.json");
    baseline.write_to(&path).unwrap();
    let reloaded = BenchResult::load(&path).unwrap();
    assert_eq!(reloaded.cells.len(), baseline.cells.len());

    // Identical samples: every cell passes, exit code 0.
    let report = diff(&reloaded, &baseline, &DiffConfig::default());
    assert_eq!(report.exit_code(), 0, "{}", report.render());
    assert!(report.cells.iter().all(|c| c.details.is_empty()));

    // A 10x offline slowdown (well past any noise band and the absolute
    // floor): the gate must go red with a non-zero exit.
    let mut slowed = BenchResult::load(&path).unwrap();
    slow_down(&mut slowed, "offline_s", 10.0);
    // Keep the injected samples above the min-effect floor so the test
    // can't silently pass on a machine fast enough to finish a cell in
    // nanoseconds.
    for cell in &mut slowed.cells {
        for (name, m) in &mut cell.metrics {
            if name == "offline_s" {
                for s in &mut m.samples {
                    *s += 0.01;
                }
            }
        }
    }
    let report = diff(&slowed, &baseline, &DiffConfig::default());
    assert_eq!(report.exit_code(), 1, "{}", report.render());
    assert!(report.render().contains("FAIL"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn the_cli_gate_round_trips_run_and_diff() {
    let dir = temp_dir("cli");
    let spec_path = dir.join("spec.toml");
    std::fs::write(&spec_path, tiny_spec().to_toml()).unwrap();
    let out = dir.join("new.json");
    let argv = |args: &[&str]| -> Vec<String> { args.iter().map(|s| s.to_string()).collect() };

    // run: spec file in, envelope out.
    let code = bench_main(&argv(&[
        "run",
        spec_path.to_str().unwrap(),
        "-o",
        out.to_str().unwrap(),
    ]));
    assert_eq!(code, 0);
    let result = BenchResult::load(&out).unwrap();
    assert_eq!(result.name, "gate_e2e");
    assert!(!result.cells.is_empty());

    // diff against itself: green.
    let code = bench_main(&argv(&[
        "diff",
        out.to_str().unwrap(),
        out.to_str().unwrap(),
        "--noise-band",
        "10",
    ]));
    assert_eq!(code, 0);

    // diff against a slowed copy as baseline: the new run "regressed",
    // red with exit 1 — the exact signal the CI job keys on.
    let mut slowed = BenchResult::load(&out).unwrap();
    for cell in &mut slowed.cells {
        for (name, m) in &mut cell.metrics {
            if name == "online_s" || name == "offline_s" {
                for s in &mut m.samples {
                    *s /= 10.0;
                }
            }
        }
    }
    let fast_baseline = dir.join("fast_baseline.json");
    std::fs::write(&fast_baseline, slowed.render()).unwrap();
    let code = bench_main(&argv(&[
        "diff",
        out.to_str().unwrap(),
        fast_baseline.to_str().unwrap(),
        "--noise-band",
        "10",
        "--min-effect-us",
        "0",
    ]));
    assert_eq!(code, 1);

    std::fs::remove_dir_all(&dir).ok();
}

/// Every `.toml` under `dir`, descending into subdirectories.
fn spec_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            spec_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "toml") {
            out.push(path);
        }
    }
}

fn specs_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("specs")
}

#[test]
fn the_committed_spec_presets_parse_and_expand() {
    let mut files = Vec::new();
    spec_files(&specs_dir(), &mut files);
    let mut paper = BTreeSet::new();
    for path in &files {
        let text = std::fs::read_to_string(path).unwrap();
        let spec =
            Spec::parse(&text).unwrap_or_else(|e| panic!("{} does not parse: {e}", path.display()));
        let cells = runner::expand(&spec);
        assert!(!cells.is_empty(), "{} expands to no work", path.display());
        let stem = path.file_stem().unwrap().to_str().unwrap();
        assert_eq!(
            spec.name,
            stem,
            "{}: name differs from the file",
            path.display()
        );
        if path.parent().unwrap().ends_with("paper") {
            paper.insert(stem.to_string());
        }
    }
    let want: BTreeSet<String> = [
        "table5", "table6", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
        "fig12a", "fig12b", "fig13", "ablation",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    assert_eq!(paper, want, "the paper's artifacts under specs/paper/");
    assert!(
        files.len() >= want.len() + 3,
        "expected the committed presets, found {}",
        files.len()
    );
}

fn cell_keys(result: &BenchResult) -> BTreeSet<String> {
    result.cells.iter().map(Cell::key).collect()
}

/// Every cell of `new` has a cell of `committed` with the same key, and
/// their rmse agree by `iim bench diff`'s rule.
fn assert_rmse_reproduced(new: &BenchResult, committed: &BenchResult) {
    let rule = DiffConfig::default();
    for cell in &new.cells {
        let key = cell.key();
        let old = committed
            .cells
            .iter()
            .find(|c| c.key() == key)
            .unwrap_or_else(|| panic!("no committed cell {key}"));
        let rmse = |c: &Cell| c.metric_named("rmse").unwrap().samples[0];
        assert!(
            rule.rmse_agrees(rmse(cell), rmse(old)),
            "{key}: rmse {} vs committed {}",
            rmse(cell),
            rmse(old)
        );
    }
}

#[test]
fn the_ci_quick_run_reproduces_the_committed_baseline_cells() {
    let text = std::fs::read_to_string(specs_dir().join("ci_quick.toml")).unwrap();
    let mut spec = Spec::parse(&text).unwrap();
    // Only rmse is compared, and it does not depend on the timing policy.
    spec.repeats = 1;
    spec.warmup = 0;
    let new = runner::run(&spec);
    let baseline = BenchResult::load(&results_dir().join("BASELINE_ci_quick.json")).unwrap();
    // CI's diff reports no lost cell and no new-only one.
    assert_eq!(cell_keys(&new), cell_keys(&baseline));
    assert_rmse_reproduced(&new, &baseline);
}

#[test]
fn table5s_asf_and_ccs_rows_reproduce_the_committed_envelope() {
    let text = std::fs::read_to_string(specs_dir().join("paper/table5.toml")).unwrap();
    let mut spec = Spec::parse(&text).unwrap();
    spec.datasets = vec![PaperData::Asf, PaperData::Ccs];
    spec.seeds = vec![42];
    let new = runner::run(&spec);
    assert_eq!(new.cells.len(), 2 * 14);
    let committed = BenchResult::load(&results_dir().join("BENCH_table5.json")).unwrap();
    assert_rmse_reproduced(&new, &committed);
}

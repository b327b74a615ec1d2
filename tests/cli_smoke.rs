//! CLI smoke test: round-trips `iim impute` / `iim profile` / `iim methods`
//! on one temp CSV that uses all three missing markers the reader accepts
//! (empty field, `?`, `NA`), asserting exit codes and output shape.

use std::path::{Path, PathBuf};
use std::process::Command;

fn iim_bin() -> &'static str {
    env!("CARGO_BIN_EXE_iim")
}

/// 80 rows over 3 attributes with y = 2a − b + 3; one missing cell per
/// marker style, each on a different row/column.
fn write_marker_csv(dir: &Path) -> PathBuf {
    let mut body = String::from("a,b,y\n");
    for i in 0..80 {
        let a = i as f64 * 0.25;
        let b = (i % 10) as f64;
        let y = 2.0 * a - b + 3.0;
        match i {
            7 => body.push_str(&format!("{a},{b},\n")), // empty marker
            23 => body.push_str(&format!("{a},?,{y}\n")), // `?` marker
            61 => body.push_str(&format!("NA,{b},{y}\n")), // `NA` marker
            _ => body.push_str(&format!("{a},{b},{y}\n")),
        }
    }
    let path = dir.join("markers.csv");
    std::fs::write(&path, body).unwrap();
    path
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("iim-smoke-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn impute_round_trips_all_missing_markers() {
    let dir = temp_dir("impute");
    let input = write_marker_csv(&dir);
    let output = dir.join("filled.csv");

    let parsed = iim::data::csv::read_path(&input).unwrap();
    assert_eq!(
        parsed.missing_count(),
        3,
        "all three markers parse as missing"
    );

    let status = Command::new(iim_bin())
        .args([
            "impute",
            "--method",
            "IIM",
            "--k",
            "5",
            "--output",
            output.to_str().unwrap(),
            input.to_str().unwrap(),
        ])
        .status()
        .unwrap();
    assert!(status.success());

    let filled = iim::data::csv::read_path(&output).unwrap();
    assert_eq!(filled.missing_count(), 0, "every marker style was imputed");
    assert_eq!(filled.n_rows(), 80);
    assert_eq!(filled.arity(), 3);
    // Row 7 lost y = 2·1.75 − 7 + 3 = −0.5; exact-linear data imputes close.
    let y = filled.get(7, 2).unwrap();
    assert!((y - (-0.5)).abs() < 0.6, "imputed y {y}");
    // Untouched cells survive the round trip bit-exactly.
    assert_eq!(filled.get(0, 0), parsed.get(0, 0));
    assert_eq!(filled.get(79, 2), parsed.get(79, 2));
}

#[test]
fn impute_to_stdout_parses_back() {
    let dir = temp_dir("stdout");
    let input = write_marker_csv(&dir);
    let out = Command::new(iim_bin())
        .args(["impute", "--method", "knn", input.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let filled = iim::data::csv::read(out.stdout.as_slice()).unwrap();
    assert_eq!(filled.missing_count(), 0);
    assert_eq!(filled.n_rows(), 80);
    // The summary goes to stderr, never polluting the CSV on stdout.
    assert!(String::from_utf8_lossy(&out.stderr).contains("filled 3 of 3"));
}

#[test]
fn profile_reports_every_attribute() {
    let dir = temp_dir("profile");
    let input = write_marker_csv(&dir);
    let out = Command::new(iim_bin())
        .args(["profile", input.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(
        text.contains("R2_S") && text.contains("R2_H"),
        "header:\n{text}"
    );
    // Header plus one line per attribute (a, b, y).
    assert_eq!(text.lines().count(), 4, "output:\n{text}");
    for name in ["a", "b", "y"] {
        assert!(
            text.lines()
                .any(|l| l.split_whitespace().next() == Some(name)),
            "missing attribute row {name}:\n{text}"
        );
    }
}

#[test]
fn methods_exits_zero_and_lists_iim() {
    let out = Command::new(iim_bin()).arg("methods").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.lines().count() >= 10, "Table II lineup:\n{text}");
    assert!(text.contains("IIM"));
}

#[test]
fn overflowing_cell_is_a_data_error_not_a_panic() {
    // One finite 1e200 feature value overflows the Gram sums of every
    // learning set it joins: a typed error, exit 1, no panic.
    let dir = temp_dir("overflow");
    let mut body = String::from("a,b,y\n");
    for i in 0..200 {
        let a = if i == 17 { 1e200 } else { i as f64 * 0.25 };
        let b = (i % 10) as f64;
        let y = 2.0 * (i as f64 * 0.25) - b + 3.0;
        match i {
            40 | 90 => body.push_str(&format!("{a},{b},\n")),
            _ => body.push_str(&format!("{a},{b},{y}\n")),
        }
    }
    let input = dir.join("overflow.csv");
    std::fs::write(&input, body).unwrap();
    for (method, why) in [("IIM", "no finite solution"), ("GMM", "cannot be factored")] {
        let out = Command::new(iim_bin())
            .args(["impute", "--method", method, input.to_str().unwrap()])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{method}: {stderr}");
        assert!(stderr.contains(why), "{method}: {stderr}");
        assert!(!stderr.contains("panicked"), "{method}: {stderr}");
    }
}

#[test]
fn one_column_relation_is_filled_or_refused_by_every_method() {
    // A relation with no attribute besides the target: the methods that
    // need features refuse it with a typed error (exit 1), the rest fill
    // it; none panics.
    let dir = temp_dir("one-column");
    let input = dir.join("one.csv");
    std::fs::write(&input, "x\n1.0\n2.0\n?\n4.0\n5.0\n6.0\n").unwrap();
    let listed = Command::new(iim_bin()).arg("methods").output().unwrap();
    let listed = String::from_utf8(listed.stdout).unwrap();
    let methods: Vec<&str> = listed
        .lines()
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    assert_eq!(methods.len(), 14, "{listed}");
    let mut refused = Vec::new();
    for method in methods {
        let out = Command::new(iim_bin())
            .args(["impute", "--method", method, input.to_str().unwrap()])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "{method}: {stderr}");
        match out.status.code() {
            Some(0) => {
                let filled = String::from_utf8(out.stdout).unwrap();
                let cell = filled.lines().nth(3).unwrap_or_default();
                assert!(
                    cell.parse::<f64>().is_ok_and(f64::is_finite),
                    "{method}: {filled}"
                );
            }
            Some(1) => {
                assert!(stderr.contains("needs at least"), "{method}: {stderr}");
                refused.push(method);
            }
            code => panic!("{method} exited {code:?}: {stderr}"),
        }
    }
    let want = ["IIM", "kNN", "kNNE", "SVD", "ILLS", "LOESS", "ERACER"];
    assert_eq!(refused, want);
}

#[test]
fn error_paths_use_exit_code_conventions() {
    // Usage errors: 2.
    let out = Command::new(iim_bin())
        .args(["impute", "--method"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    // Runtime errors (unreadable input): 1.
    let out = Command::new(iim_bin())
        .args(["impute", "/nonexistent/input.csv"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn zero_neighbors_is_a_usage_error() {
    // `--k 0` used to reach ILLS, whose local regressions over no
    // neighbours made NaN estimates and panicked (exit 101).
    let dir = temp_dir("k-zero");
    let input = write_marker_csv(&dir);
    let snapshot = dir.join("ills.iim");
    for args in [
        vec!["impute", "--method", "ILLS", "--k", "0"],
        vec![
            "fit",
            "--save",
            snapshot.to_str().unwrap(),
            "--method",
            "ILLS",
            "--k",
            "0",
        ],
    ] {
        let out = Command::new(iim_bin())
            .args(&args)
            .arg(&input)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("--k needs a positive integer"), "{stderr}");
    }
    assert!(!snapshot.exists());
}

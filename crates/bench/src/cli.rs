//! The `iim bench` verb: `run` a spec into an envelope, `diff` two
//! envelopes through the regression gate.
//!
//! This lives in the bench crate (not the `iim` binary) so the CLI shim
//! stays a one-line dispatch and the logic is unit-testable; see
//! [`bench_main`].

use crate::diff::{diff, DiffConfig, Stat};
use crate::report::{metric_table, Table};
use crate::result::BenchResult;
use crate::runner;
use crate::spec::Spec;
use std::path::{Path, PathBuf};

/// Usage text for `iim bench`.
pub fn usage() -> String {
    "usage:\
     \n  iim bench run [SPEC.toml] [-o OUT.json] [--name X] [--methods A,B] [--datasets A,B]\
     \n                [--rates R,R] [--threads T,T] [--index I,I] [--repeats N] [--warmup N]\
     \n                [--seeds S,S] [--n N,N] [--k K,K] [--features all|F,...]\
     \n                [--injector attr|attr:J|clustered:C,...]\
     \n  iim bench diff NEW.json BASELINE.json [--noise-band PCT] [--min-effect-us US]\
     \n                [--stat min|mean]\
     \n\
     \nrun executes the spec's cross-product (datasets x n x seeds x injector x rates x\
     \nfeatures x k x index x methods x threads), prints each cell's rmse as one table, and\
     \nwrites a schema-versioned, machine-tagged result envelope (default\
     \nbench_results/BENCH_<name>.json). Flags override the spec file; either alone works.\
     \nIIM takes learning settings in its method name: IIM/fixed=200, IIM/h=10,\
     \nIIM/ell_max=500, IIM/h=50/straightforward, IIM/weighting=uniform|inverse.\
     \ndiff compares two result files cell by cell: exit 0 = pass/warn, 1 = regression\
     \nbeyond the noise band (or lost coverage / rmse drift), 2 = usage error."
        .to_string()
}

/// Entry point for `iim bench <verb> ...`; returns the process exit code
/// (0 pass/warn, 1 gate failure, 2 usage or I/O error).
pub fn bench_main(args: &[String]) -> i32 {
    match args.first().map(String::as_str) {
        Some("run") => run_cmd(&args[1..]),
        Some("diff") => diff_cmd(&args[1..]),
        Some("--help") | Some("-h") | Some("help") => {
            println!("{}", usage());
            0
        }
        _ => {
            eprintln!("{}", usage());
            2
        }
    }
}

fn run_cmd(args: &[String]) -> i32 {
    let mut spec_path: Option<PathBuf> = None;
    let mut out_path: Option<PathBuf> = None;
    let mut overrides: Vec<(&'static str, String)> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut flag = |key: &'static str| -> Result<(), String> {
            let value = it
                .next()
                .ok_or_else(|| format!("--{key} needs a value"))?
                .clone();
            overrides.push((key, value));
            Ok(())
        };
        let outcome = match a.as_str() {
            "-o" | "--out" => {
                out_path = Some(PathBuf::from(it.next().map(String::as_str).unwrap_or("")));
                if out_path.as_deref() == Some(Path::new("")) {
                    Err("-o needs a path".to_string())
                } else {
                    Ok(())
                }
            }
            "--name" => flag("name"),
            "--methods" => flag("methods"),
            "--datasets" => flag("datasets"),
            "--rates" => flag("missing_rates"),
            "--threads" => flag("threads"),
            "--index" => flag("index"),
            "--repeats" => flag("repeats"),
            "--warmup" => flag("warmup"),
            "--seeds" => flag("seeds"),
            "--n" => flag("n"),
            "--k" => flag("k"),
            "--features" => flag("features"),
            "--injector" => flag("injector"),
            path if !path.starts_with('-') => {
                if spec_path.is_some() {
                    Err(format!("unexpected extra argument {path:?}"))
                } else {
                    spec_path = Some(PathBuf::from(path));
                    Ok(())
                }
            }
            other => Err(format!("unknown flag {other:?}")),
        };
        if let Err(e) = outcome {
            eprintln!("error: {e}");
            return 2;
        }
    }

    let mut spec = match &spec_path {
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("error reading {}: {e}", path.display());
                    return 2;
                }
            };
            match Spec::parse(&text) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error in {}: {e}", path.display());
                    return 2;
                }
            }
        }
        None => Spec::default(),
    };
    for (key, value) in &overrides {
        if let Err(e) = spec.set_from_flag(key, value) {
            eprintln!("error: {e}");
            return 2;
        }
    }

    let result = runner::run(&spec);
    print!(
        "{}",
        metric_table(&result, "rmse", "method", Table::num).render()
    );
    let written = match &out_path {
        Some(path) => result.write_to(path).map(|()| path.clone()),
        None => result.write_named(false),
    };
    match written {
        Ok(path) => {
            println!(
                "wrote {} ({} cells, {} cores)",
                path.display(),
                result.cells.len(),
                result.machine.available_cores
            );
            0
        }
        Err(e) => {
            eprintln!("error writing result: {e}");
            2
        }
    }
}

fn diff_cmd(args: &[String]) -> i32 {
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut cfg = DiffConfig::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--noise-band" => {
                let Some(pct) = it.next().and_then(|v| v.parse::<f64>().ok()) else {
                    eprintln!("error: --noise-band needs a percentage (e.g. 10)");
                    return 2;
                };
                if pct < 0.0 {
                    eprintln!("error: --noise-band must be non-negative");
                    return 2;
                }
                cfg.noise_band = pct / 100.0;
            }
            "--min-effect-us" => {
                let Some(us) = it.next().and_then(|v| v.parse::<f64>().ok()) else {
                    eprintln!("error: --min-effect-us needs microseconds");
                    return 2;
                };
                cfg.min_effect_s = us * 1e-6;
            }
            "--stat" => {
                let Some(stat) = it.next().and_then(|v| Stat::parse(v)) else {
                    eprintln!("error: --stat needs min or mean");
                    return 2;
                };
                cfg.stat = stat;
            }
            path if !path.starts_with('-') => paths.push(PathBuf::from(path)),
            other => {
                eprintln!("error: unknown flag {other:?}");
                return 2;
            }
        }
    }
    let [new_path, base_path] = paths.as_slice() else {
        eprintln!(
            "error: diff needs exactly NEW.json and BASELINE.json\n{}",
            usage()
        );
        return 2;
    };
    let new = match BenchResult::load(new_path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let baseline = match BenchResult::load(base_path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    if new.machine.available_cores != baseline.machine.available_cores {
        eprintln!(
            "note: comparing a {}-core run against a {}-core baseline — \
             widen --noise-band if these are different machines",
            new.machine.available_cores, baseline.machine.available_cores
        );
    }
    let report = diff(&new, &baseline, &cfg);
    print!("{}", report.render());
    report.exit_code()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn unknown_verbs_and_missing_args_are_usage_errors() {
        assert_eq!(bench_main(&strings(&["frobnicate"])), 2);
        assert_eq!(bench_main(&[]), 2);
        assert_eq!(bench_main(&strings(&["diff", "only-one.json"])), 2);
        assert_eq!(bench_main(&strings(&["run", "--methods"])), 2);
    }

    #[test]
    fn bad_spec_values_surface_as_usage_errors() {
        assert_eq!(bench_main(&strings(&["run", "--methods", "Nope"])), 2);
        assert_eq!(bench_main(&strings(&["run", "--rates", "abc"])), 2);
    }

    #[test]
    fn degenerate_sizes_are_usage_errors_before_any_cell_runs() {
        for args in [
            &["run", "--n", "1"][..],
            &["run", "--n", "0"],
            &["run", "--n", "300,1"],
            &["run", "--k", "0"],
            &["run", "--k", "10,0"],
            &["run", "--features", "0"],
            &["run", "--injector", "attr:9"],
            &["run", "--seeds", "x"],
        ] {
            assert_eq!(bench_main(&strings(args)), 2, "{args:?}");
        }
    }

    #[test]
    fn missing_baseline_file_is_a_usage_error_not_a_pass() {
        let dir = std::env::temp_dir().join("iim_bench_cli_missing_base");
        std::fs::create_dir_all(&dir).unwrap();
        let new = dir.join("new.json");
        let fixture = crate::result::BenchResult::new("fixture", 0, 1);
        fixture.write_to(&new).unwrap();
        let missing = dir.join("definitely_absent.json");
        let code = bench_main(&strings(&[
            "diff",
            new.to_str().unwrap(),
            missing.to_str().unwrap(),
        ]));
        assert_eq!(code, 2);
    }

    #[test]
    fn diff_of_a_file_with_itself_passes() {
        let dir = std::env::temp_dir().join("iim_bench_cli_self_diff");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("self.json");
        let mut fixture = crate::result::BenchResult::new("fixture", 0, 1);
        fixture.push(
            crate::result::Cell::new()
                .coord_str("method", "IIM")
                .metric("offline_s", vec![0.5]),
        );
        fixture.write_to(&path).unwrap();
        let p = path.to_str().unwrap();
        assert_eq!(bench_main(&strings(&["diff", p, p])), 0);
    }
}

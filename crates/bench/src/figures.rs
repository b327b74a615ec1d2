//! Shared drivers behind the figure binaries (each figure pair — ASF/CA —
//! reuses one parameter-sweep driver).

use crate::harness::{figure_lineup, iim_adaptive, iim_fixed, run_lineup};
use crate::{Args, PaperData, Table};
use iim_core::{adaptive_learn, AdaptiveConfig, IimConfig, IimModel};
use iim_data::inject::{inject_attr, inject_clustered_attr};
use iim_data::metrics::rmse;
use iim_data::{AttrTask, FeatureSelection, Imputer, PerAttributeImputer};
use iim_neighbors::{brute::FeatureMatrix, IndexChoice, NeighborIndex};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Figures 4–5: RMS error and imputation time vs |F|.
pub fn vary_f(args: Args, data: PaperData, n_incomplete: usize, sizes: &[usize], tag: &str) {
    let clean = data.generate(args.n, args.seed);
    let n = clean.n_rows();
    let n_incomplete = if args.quick {
        (n_incomplete / 4).max(5)
    } else {
        n_incomplete
    };

    // Paper protocol: the default incomplete attribute Am (Table V's ASF
    // row equals Table VI's A2 row, so the figures use one fixed Ax too).
    let am = clean.arity() - 1;
    let mut rel = clean;
    let truth = inject_attr(
        &mut rel,
        am,
        n_incomplete,
        &mut StdRng::seed_from_u64(args.seed),
    );

    let mut tables = SweepTables::default();
    for &f in sizes {
        let lineup = figure_lineup(10, args.seed, n, FeatureSelection::FirstK(f));
        let scores = run_lineup(&lineup, &rel, &truth);
        tables.push(&f.to_string(), &scores, "|F|");
        eprintln!("[{tag}] |F|={f} done");
    }
    tables.finish(
        tag,
        &format!(
            "RMS error vs |F| ({}, {n_incomplete} incomplete)",
            data.name()
        ),
    );
}

/// Figures 6–7: RMS error and imputation time vs the number of complete
/// tuples n = |r|.
pub fn vary_n(args: Args, data: PaperData, n_incomplete: usize, sizes: &[usize], tag: &str) {
    let n_incomplete = if args.quick {
        (n_incomplete / 4).max(5)
    } else {
        n_incomplete
    };
    let mut tables = SweepTables::default();
    for &n in sizes {
        // n complete tuples + the incomplete ones on top.
        let mut rel = data.generate(Some(n + n_incomplete), args.seed);
        let am = rel.arity() - 1;
        let truth = inject_attr(
            &mut rel,
            am,
            n_incomplete,
            &mut StdRng::seed_from_u64(args.seed),
        );
        let lineup = figure_lineup(10, args.seed, n, FeatureSelection::AllOthers);
        let scores = run_lineup(&lineup, &rel, &truth);
        tables.push(&n.to_string(), &scores, "n");
        eprintln!("[{tag}] n={n} done");
    }
    tables.finish(
        tag,
        &format!(
            "RMS error vs #complete tuples ({}, {n_incomplete} incomplete)",
            data.name()
        ),
    );
}

/// Figure 8: RMS error and imputation time vs the cluster size of
/// incomplete tuples.
pub fn vary_cluster(args: Args, data: PaperData, n_incomplete: usize, sizes: &[usize], tag: &str) {
    let clean = data.generate(args.n, args.seed);
    let n = clean.n_rows();
    let n_incomplete = if args.quick {
        (n_incomplete / 4).max(10)
    } else {
        n_incomplete
    };

    let am = clean.arity() - 1;
    let mut tables = SweepTables::default();
    for &c in sizes {
        let mut rel = clean.clone();
        let truth = inject_clustered_attr(
            &mut rel,
            n_incomplete,
            c,
            am,
            &mut StdRng::seed_from_u64(args.seed ^ c as u64),
        );
        let lineup = figure_lineup(10, args.seed, n, FeatureSelection::AllOthers);
        let scores = run_lineup(&lineup, &rel, &truth);
        tables.push(&c.to_string(), &scores, "cluster");
        eprintln!("[{tag}] cluster={c} done");
    }
    tables.finish(
        tag,
        &format!(
            "RMS error vs incomplete-tuple cluster size ({}, {n_incomplete} incomplete)",
            data.name()
        ),
    );
}

/// Figures 9–10: RMS error and imputation time vs the number of imputation
/// neighbors k, for kNN / kNNE / IIM.
pub fn vary_k(args: Args, data: PaperData, n_incomplete: usize, ks: &[usize], tag: &str) {
    let clean = data.generate(args.n, args.seed);
    let n = clean.n_rows();
    let n_incomplete = if args.quick {
        (n_incomplete / 4).max(5)
    } else {
        n_incomplete
    };

    let am = clean.arity() - 1;
    let mut rel = clean;
    let truth = inject_attr(
        &mut rel,
        am,
        n_incomplete,
        &mut StdRng::seed_from_u64(args.seed),
    );

    let mut tables = SweepTables::default();
    for &k in ks {
        let lineup: Vec<Box<dyn Imputer>> = method_subset_k(k, args.seed, n);
        let scores = run_lineup(&lineup, &rel, &truth);
        tables.push(&k.to_string(), &scores, "k");
        eprintln!("[{tag}] k={k} done");
    }
    tables.finish(
        tag,
        &format!("RMS error vs #imputation neighbors k ({})", data.name()),
    );
}

fn method_subset_k(k: usize, _seed: u64, n_hint: usize) -> Vec<Box<dyn Imputer>> {
    vec![
        Box::new(PerAttributeImputer::new(iim_baselines::Knn::new(k))),
        Box::new(iim_adaptive(
            k,
            None,
            None,
            n_hint,
            FeatureSelection::AllOthers,
        )),
        Box::new(PerAttributeImputer::new(iim_baselines::Knne::new(k))),
    ]
}

/// Figure 11: fixed-ℓ learning across an ℓ grid vs adaptive learning.
/// Single incomplete attribute (the default `Am`), per the ℓ analysis.
pub fn fixed_vs_adaptive(args: Args, data: PaperData, ells: &[usize], tag: &str) {
    let clean = data.generate(args.n, args.seed);
    let n = clean.n_rows();
    let n_incomplete = if args.quick {
        20
    } else {
        (n / 20).clamp(50, 1000)
    };
    let am = clean.arity() - 1;

    let mut rel = clean;
    let truth = inject_attr(
        &mut rel,
        am,
        n_incomplete,
        &mut StdRng::seed_from_u64(args.seed),
    );

    let mut table = Table::new(vec!["l", "fixed_rmse", "adaptive_rmse"]);
    // Adaptive once (full grid up to the largest fixed ℓ, step scaled).
    let cap = (*ells.last().expect("non-empty")).min(n);
    let adaptive = iim_adaptive(
        10,
        Some((cap / 100).max(1)),
        Some(cap),
        n,
        FeatureSelection::AllOthers,
    );
    let adaptive_rmse = rmse(&adaptive.impute(&rel).expect("impute"), &truth);
    for &ell in ells {
        if ell > n {
            continue;
        }
        let fixed = iim_fixed(10, ell, FeatureSelection::AllOthers);
        let fixed_rmse = rmse(&fixed.impute(&rel).expect("impute"), &truth);
        table.push(vec![
            ell.to_string(),
            Table::num(Some(fixed_rmse)),
            Table::num(Some(adaptive_rmse)),
        ]);
        eprintln!("[{tag}] l={ell} done");
    }
    table.print(&format!(
        "{tag}: fixed-l vs adaptive learning ({}, {n_incomplete} incomplete on Am)",
        data.name()
    ));
    let path = table.write_tsv(tag).expect("tsv");
    println!("wrote {}", path.display());
}

/// Figure 12: determination (adaptive-learning) time, straightforward vs
/// incremental, vs the number of complete tuples. Stepping h = 50, target
/// `Am`, sweep capped at min(n, 1000) (reported in the output). The serving
/// index is built before the clock starts; both modes' times include each
/// tuple's learning-prefix enumeration, which the sweep runs per tuple.
pub fn scalability(args: Args, data: PaperData, sizes: &[usize], tag: &str) {
    let mut table = Table::new(vec!["n", "straightforward_s", "incremental_s", "speedup"]);
    for &n in sizes {
        let rel = data.generate(Some(n), args.seed);
        let am = rel.arity() - 1;
        let features: Vec<usize> = (0..rel.arity()).filter(|&j| j != am).collect();
        let task = AttrTask::new(&rel, features, am);
        let fm = FeatureMatrix::gather(task.rel, &task.features, &task.train_rows);
        let ys: Vec<f64> = task
            .train_rows
            .iter()
            .map(|&r| task.target_value(r as usize))
            .collect();
        let cap = n.min(1000);
        let index = NeighborIndex::build(fm, IndexChoice::Auto);

        let mut secs = [0.0f64; 2];
        for (slot, incremental) in secs.iter_mut().zip([false, true]) {
            let cfg = AdaptiveConfig {
                step: 50,
                ell_max: Some(cap),
                incremental,
                ..AdaptiveConfig::default()
            };
            let t0 = Instant::now();
            let out = adaptive_learn(&index, &ys, 10, &cfg, 1e-6, 0).expect("finite data");
            *slot = t0.elapsed().as_secs_f64();
            assert_eq!(out.models.len(), index.len());
        }
        table.push(vec![
            n.to_string(),
            Table::secs(secs[0]),
            Table::secs(secs[1]),
            format!("{:.1}x", secs[0] / secs[1].max(1e-9)),
        ]);
        eprintln!("[{tag}] n={n} done");
    }
    table.print(&format!(
        "{tag}: adaptive-learning determination time ({}, h=50, sweep cap 1000)",
        data.name()
    ));
    let path = table.write_tsv(tag).expect("tsv");
    println!("wrote {}", path.display());
}

/// Figure 13: RMS error (a) and determination time (b) vs stepping h, for
/// straightforward and incremental computation — including the paper's
/// correctness check that both produce *identical* imputation errors.
pub fn stepping(args: Args, data: PaperData, hs: &[usize], tag: &str) {
    let clean = data.generate(args.n, args.seed);
    let n_incomplete = if args.quick { 20 } else { 100 };
    let am = clean.arity() - 1;

    let mut rel = clean;
    let truth = inject_attr(
        &mut rel,
        am,
        n_incomplete,
        &mut StdRng::seed_from_u64(args.seed),
    );
    let features: Vec<usize> = (0..rel.arity()).filter(|&j| j != am).collect();
    let task = AttrTask::new(&rel, features.clone(), am);
    let cap = if args.quick {
        task.n_train().min(300)
    } else {
        task.n_train()
    };

    let mut table = Table::new(vec![
        "h",
        "rmse",
        "straightforward_s",
        "incremental_s",
        "speedup",
    ]);
    for &h in hs {
        let mut errs = [0.0f64; 2];
        let mut secs = [0.0f64; 2];
        for (i, incremental) in [false, true].into_iter().enumerate() {
            let cfg = IimConfig {
                k: 10,
                learning: iim_core::Learning::Adaptive(AdaptiveConfig {
                    step: h,
                    ell_max: Some(cap),
                    incremental,
                    ..AdaptiveConfig::default()
                }),
                ..IimConfig::default()
            };
            let t0 = Instant::now();
            let model = IimModel::learn(&task, &cfg).expect("learn");
            secs[i] = t0.elapsed().as_secs_f64();
            let mut q = Vec::new();
            let pairs: Vec<(f64, f64)> = truth
                .iter()
                .map(|c| {
                    rel.gather(c.row as usize, &features, &mut q);
                    (model.impute(&q), c.truth)
                })
                .collect();
            errs[i] = iim_data::metrics::rmse_pairs(&pairs);
        }
        assert!(
            (errs[0] - errs[1]).abs() < 1e-9,
            "straightforward and incremental must agree: {} vs {}",
            errs[0],
            errs[1]
        );
        table.push(vec![
            h.to_string(),
            Table::num(Some(errs[1])),
            Table::secs(secs[0]),
            Table::secs(secs[1]),
            format!("{:.1}x", secs[0] / secs[1].max(1e-9)),
        ]);
        eprintln!("[{tag}] h={h} done");
    }
    table.print(&format!(
        "{tag}: stepping tradeoff ({}, {n_incomplete} incomplete on Am, sweep to {cap})",
        data.name()
    ));
    let path = table.write_tsv(tag).expect("tsv");
    println!("wrote {}", path.display());
}

/// Paired RMSE/time tables for the method-sweep figures.
#[derive(Default)]
struct SweepTables {
    rmse: Option<Table>,
    time: Option<Table>,
    tag_col: String,
}

impl SweepTables {
    fn push(&mut self, x: &str, scores: &[crate::MethodScore], xname: &str) {
        if self.rmse.is_none() {
            let mut header = vec![xname.to_string()];
            header.extend(scores.iter().map(|s| s.name.clone()));
            self.rmse = Some(Table::new(header.clone()));
            self.time = Some(Table::new(header));
            self.tag_col = xname.to_string();
        }
        let mut rrow = vec![x.to_string()];
        let mut trow = vec![x.to_string()];
        for s in scores {
            rrow.push(Table::num(s.rmse));
            trow.push(Table::secs(s.timings.total().as_secs_f64()));
        }
        self.rmse.as_mut().expect("init").push(rrow);
        self.time.as_mut().expect("init").push(trow);
    }

    fn finish(self, tag: &str, title: &str) {
        let rmse = self.rmse.expect("non-empty sweep");
        let time = self.time.expect("non-empty sweep");
        rmse.print(&format!("{tag} (a): {title}"));
        time.print(&format!("{tag} (b): total offline + online time (s)"));
        rmse.write_tsv(&format!("{tag}_rmse")).expect("tsv");
        let path = time.write_tsv(&format!("{tag}_time")).expect("tsv");
        println!("wrote {}", path.display());
    }
}

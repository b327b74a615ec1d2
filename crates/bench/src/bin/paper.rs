//! Every table and figure of the paper's evaluation section behind one
//! dispatcher: `paper <artifact> [--seed S] [--n N] [--quick] ...`.
//!
//! One binary replaces the former per-artifact bins (fig4..fig13,
//! table5-7, ablation, profiles, all) — same outputs, same flags, shared
//! arg parsing. `paper all` runs the lot in-process.
//!
//! ```text
//! cargo run -p iim-bench --release --bin paper -- table5
//! cargo run -p iim-bench --release --bin paper -- all --quick
//! ```
//!
//! Artifact notes (unchanged from the original bins):
//!
//! - **table5** — Table V protocol (§VI-B1): 5% of tuples incomplete on
//!   the dataset's default attribute Am; SVD prints "-" on SN like the
//!   paper. Companion table: per-method offline/online phase split.
//! - **table6** — per-attribute RMS error over ASF: low R²_S favours
//!   attribute models, low R²_H favours tuple models, IIM wins both.
//! - **table7** — downstream clustering purity (ASF, CA) and
//!   classification F1 (MAM, HEP real-missing workloads).
//! - **fig4..fig13** — the paper's sweeps (|F|, n, cluster size, k,
//!   fixed-vs-adaptive ℓ, scalability, stepping).
//! - **ablation** — candidate-weighting and learning-policy isolation,
//!   not a paper artifact.
//! - **profiles** — measured (R²_S, R²_H) of every generated dataset next
//!   to the paper's published values: the calibration evidence.

use iim_bench::harness::method_lineup;
use iim_bench::{figures, run_lineup, Args, PaperData, Table};
use iim_core::{AdaptiveConfig, Iim, IimConfig, Learning, Weighting};
use iim_data::inject::{inject_attr, inject_random};
use iim_data::metrics::rmse;
use iim_data::{FeatureSelection, Imputer, PerAttributeImputer, Relation};
use iim_datagen::{hep_like, mam_like, LabeledDataset};
use iim_ml::{f1_weighted, kmeans, kmeans_with_init, purity, stratified_folds, KnnClassifier};
use rand::rngs::StdRng;
use rand::SeedableRng;

const ARTIFACTS: [&str; 15] = [
    "profiles", "table5", "table6", "table7", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
    "fig10", "fig11", "fig12", "fig13", "ablation",
];

fn main() {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(|a| a.starts_with('-')).unwrap_or(true) {
        eprintln!(
            "usage: paper <artifact> [--seed S] [--n N] [--quick] ...\nartifacts: {}, all",
            ARTIFACTS.join(", ")
        );
        std::process::exit(2);
    }
    let verb = argv.remove(0);
    let args = Args::parse_from(argv.into_iter());
    if verb == "all" {
        for artifact in ARTIFACTS {
            println!("\n########## {artifact} ##########");
            run_artifact(artifact, args);
        }
        println!("\nall experiments complete; TSVs in bench_results/");
        return;
    }
    if !ARTIFACTS.contains(&verb.as_str()) {
        eprintln!(
            "unknown artifact {verb:?}; known: {}, all",
            ARTIFACTS.join(", ")
        );
        std::process::exit(2);
    }
    run_artifact(&verb, args);
}

fn run_artifact(name: &str, args: Args) {
    match name {
        "profiles" => profiles(args),
        "table5" => table5(args),
        "table6" => table6(args),
        "table7" => table7(args),
        // Figure 4/5: RMS error and imputation time vs |F| (ASF with 100
        // incomplete tuples; CA with 1k).
        "fig4" => figures::vary_f(args, PaperData::Asf, 100, &[2, 3, 4, 5], "fig4"),
        "fig5" => figures::vary_f(args, PaperData::Ca, 1000, &[5, 6, 7, 8], "fig5"),
        // Figure 6/7: vs the number of complete tuples.
        "fig6" => figures::vary_n(
            args,
            PaperData::Asf,
            100,
            &[150, 300, 450, 600, 750, 900, 1000, 1200, 1300, 1400],
            "fig6",
        ),
        "fig7" => figures::vary_n(
            args,
            PaperData::Ca,
            1000,
            &[
                2_000, 4_000, 6_000, 8_000, 10_000, 12_000, 14_000, 16_000, 18_000, 20_000,
            ],
            "fig7",
        ),
        // Figure 8: vs the cluster size of incomplete tuples — tuple-model
        // methods degrade as incomplete tuples cluster, IIM stays best.
        "fig8" => figures::vary_cluster(args, PaperData::Asf, 100, &[1, 2, 3, 5, 8, 10], "fig8"),
        // Figure 9/10: vs the number of imputation neighbors k.
        "fig9" => figures::vary_k(
            args,
            PaperData::Asf,
            100,
            &[1, 2, 3, 5, 10, 20, 50, 100],
            "fig9",
        ),
        "fig10" => figures::vary_k(
            args,
            PaperData::Ca,
            1000,
            &[1, 2, 3, 5, 10, 20, 50, 100],
            "fig10",
        ),
        // Figure 11: fixed-ℓ U-curve vs adaptive learning on ASF and CA —
        // the best fixed ℓ differs between them, the argument for adapting.
        "fig11" => {
            let ells: &[usize] = &[1, 10, 20, 50, 100, 200, 300, 500, 700, 1000];
            figures::fixed_vs_adaptive(args, PaperData::Asf, ells, "fig11a");
            figures::fixed_vs_adaptive(args, PaperData::Ca, ells, "fig11b");
        }
        // Figure 12: scalability of adaptive learning, straightforward vs
        // Proposition-3 incremental (the harness sweeps ℓ to min(n, 1000);
        // the incremental speedup — the figure's point — is preserved).
        "fig12" => {
            if args.quick {
                figures::scalability(args, PaperData::Sn, &[2_000, 4_000], "fig12a");
                figures::scalability(args, PaperData::Ca, &[2_000, 4_000], "fig12b");
                return;
            }
            figures::scalability(
                args,
                PaperData::Sn,
                &[10_000, 20_000, 30_000, 40_000, 50_000],
                "fig12a",
            );
            figures::scalability(
                args,
                PaperData::Ca,
                &[
                    2_000, 4_000, 6_000, 8_000, 10_000, 12_000, 14_000, 16_000, 18_000, 20_000,
                ],
                "fig12b",
            );
        }
        // Figure 13: the stepping tradeoff — straightforward and
        // incremental produce identical errors (asserted in figures.rs),
        // the incremental one much faster.
        "fig13" => figures::stepping(
            args,
            PaperData::Asf,
            &[1, 5, 10, 20, 60, 100, 200, 300, 500],
            "fig13",
        ),
        "ablation" => ablation(args),
        other => unreachable!("artifact {other} validated in main"),
    }
}

/// Table V: RMS error of IIM against the twelve baselines over the seven
/// regression datasets, with each dataset's measured (R²_S, R²_H).
fn table5(args: Args) {
    let mut table = Table::new(vec![
        "Dataset", "R2_S", "R2_H", "IIM", "kNN", "kNNE", "IFC", "GMM", "SVD", "ILLS", "GLR",
        "LOESS", "BLR", "ERACER", "PMM", "XGB", "Mean",
    ]);
    let mut timing_table: Option<Table> = None;
    for d in PaperData::ALL {
        let clean = d.generate(args.n, args.seed);
        let n = clean.n_rows();
        let n_incomplete = if args.quick {
            (n / 50).max(10)
        } else {
            (n / 20).max(20)
        };

        // Profile on the default incomplete attribute Am (see `profiles`).
        let mut prof_rel = clean.clone();
        let am = prof_rel.arity() - 1;
        // A larger probe than the scored workload keeps the R² estimate
        // stable on the small datasets.
        let prof_truth = inject_attr(
            &mut prof_rel,
            am,
            (n / 5).max(100).min(n / 2),
            &mut StdRng::seed_from_u64(args.seed),
        );
        let profile =
            iim_baselines::diagnostics::data_profile(&prof_rel, &prof_truth, 10).expect("profile");

        // The scored workload: the default incomplete attribute Am for
        // every incomplete tuple (the paper's Table V ASF row equals its
        // Table VI A2 row, i.e. one fixed attribute per dataset).
        let mut rel = clean;
        let truth = inject_attr(
            &mut rel,
            am,
            n_incomplete,
            &mut StdRng::seed_from_u64(args.seed),
        );

        let k = 10;
        let lineup = method_lineup(k, args.seed, n, FeatureSelection::AllOthers);
        let scores = run_lineup(&lineup, &rel, &truth);
        let by_name =
            |name: &str| Table::num(scores.iter().find(|s| s.name == name).and_then(|s| s.rmse));
        table.push(vec![
            d.name().to_string(),
            Table::num(Some(profile.r2_sparsity)),
            Table::num(Some(profile.r2_heterogeneity)),
            by_name("IIM"),
            by_name("kNN"),
            by_name("kNNE"),
            by_name("IFC"),
            by_name("GMM"),
            by_name("SVD"),
            by_name("ILLS"),
            by_name("GLR"),
            by_name("LOESS"),
            by_name("BLR"),
            by_name("ERACER"),
            by_name("PMM"),
            by_name("XGB"),
            by_name("Mean"),
        ]);
        // Companion phase-timing table: the method's offline/online split
        // through the fit/serve API, one row per (dataset, method).
        let tt = timing_table
            .get_or_insert_with(|| Table::new(vec!["Dataset", "Method", "Phases (fit / serve)"]));
        for s in &scores {
            tt.push(vec![
                d.name().to_string(),
                s.name.clone(),
                if s.rmse.is_some() {
                    s.timings.to_string()
                } else {
                    "-".to_string()
                },
            ]);
        }
        eprintln!("[table5] {} done", d.name());
    }
    table.print("Table V: imputation RMS error over the paper's datasets");
    let path = table.write_tsv("table5").expect("write tsv");
    println!("wrote {}", path.display());
    if let Some(tt) = timing_table {
        tt.print("Table V companion: offline/online phase split per method");
        let path = tt.write_tsv("table5_phases").expect("write tsv");
        println!("wrote {}", path.display());
    }
}

/// Table VI: RMS error per incomplete attribute Ax over ASF, with
/// per-attribute R²_S/R²_H.
fn table6(args: Args) {
    let clean = PaperData::Asf.generate(args.n, args.seed);
    let n = clean.n_rows();
    let n_incomplete = if args.quick { 30 } else { 100 };

    let mut table = Table::new(vec![
        "Ax", "R2_S", "R2_H", "IIM", "kNN", "kNNE", "IFC", "GMM", "SVD", "ILLS", "GLR", "LOESS",
        "BLR", "ERACER", "PMM", "XGB",
    ]);
    for ax in 0..clean.arity() {
        let mut rel = clean.clone();
        let truth = inject_attr(
            &mut rel,
            ax,
            n_incomplete,
            &mut StdRng::seed_from_u64(args.seed ^ ax as u64),
        );
        let profile = iim_baselines::diagnostics::data_profile(&rel, &truth, 10).expect("profile");
        let lineup = method_lineup(10, args.seed, n, FeatureSelection::AllOthers);
        let scores = run_lineup(&lineup, &rel, &truth);
        let by_name =
            |name: &str| Table::num(scores.iter().find(|s| s.name == name).and_then(|s| s.rmse));
        table.push(vec![
            format!("A{}", ax + 1),
            Table::num(Some(profile.r2_sparsity)),
            Table::num(Some(profile.r2_heterogeneity)),
            by_name("IIM"),
            by_name("kNN"),
            by_name("kNNE"),
            by_name("IFC"),
            by_name("GMM"),
            by_name("SVD"),
            by_name("ILLS"),
            by_name("GLR"),
            by_name("LOESS"),
            by_name("BLR"),
            by_name("ERACER"),
            by_name("PMM"),
            by_name("XGB"),
        ]);
        eprintln!("[table6] A{} done", ax + 1);
    }
    table.print("Table VI: RMS error per incomplete attribute (ASF, 100 incomplete)");
    let path = table.write_tsv("table6").expect("write tsv");
    println!("wrote {}", path.display());
}

/// Table VII: clustering purity on ASF & CA (k-means of the complete data
/// as truth) and classification F1 on MAM & HEP (real missing values,
/// 5-fold stratified CV of a kNN classifier); "Missing" discards or
/// mean-substitutes instead of imputing.
fn table7(args: Args) {
    let mut table = Table::new(vec![
        "Dataset", "Missing", "IIM", "Mean", "kNN", "kNNE", "IFC", "GMM", "SVD", "ILLS", "GLR",
        "LOESS", "BLR", "ERACER", "PMM", "XGB",
    ]);

    // --- Clustering rows ------------------------------------------------
    for (data, k_clusters) in [(PaperData::Asf, 5usize), (PaperData::Ca, 4usize)] {
        let clean = data.generate(args.n, args.seed);
        let n = clean.n_rows();
        let n_incomplete = if args.quick {
            (n / 50).max(10)
        } else {
            (n / 20).max(20)
        };
        // Ground-truth clusters from the original complete data; the same
        // reference centroids seed every subsequent run so purity compares
        // imputations, not k-means++ initialization luck.
        let reference = kmeans(
            &clean,
            k_clusters,
            100,
            &mut StdRng::seed_from_u64(args.seed),
        );
        let truth_clusters = reference.labels;
        let init = reference.centroids;

        let mut rel = clean;
        let _removed = inject_random(
            &mut rel,
            n_incomplete,
            &mut StdRng::seed_from_u64(args.seed),
        );

        let score = |r: &Relation| {
            let res = kmeans_with_init(r, init.clone(), 100);
            purity(&res.labels, &truth_clusters)
        };
        let mut row = vec![data.name().to_string(), format!("{:.3}", score(&rel))];
        for m in method_lineup(10, args.seed, n, FeatureSelection::AllOthers) {
            let cell = match m.impute(&rel) {
                Ok(imputed) => format!("{:.3}", score(&imputed)),
                Err(iim_data::ImputeError::Unsupported(_)) => "-".to_string(),
                Err(e) => panic!("{} failed: {e}", m.name()),
            };
            row.push(lineup_cell(m.name(), cell));
        }
        table.push(row);
        eprintln!("[table7] clustering {} done", data.name());
    }

    // --- Classification rows ---------------------------------------------
    for (name, ds) in [
        (
            "MAM",
            mam_like(if args.quick { 300 } else { 1000 }, args.seed),
        ),
        ("HEP", hep_like(200, args.seed)),
    ] {
        let LabeledDataset {
            relation: rel,
            labels,
        } = ds;
        let n = rel.n_rows();
        let mut row = vec![
            name.to_string(),
            format!("{:.3}", classify_f1(&rel, &labels, args.seed)),
        ];
        for m in method_lineup(10, args.seed, n, FeatureSelection::AllOthers) {
            let cell = match m.impute(&rel) {
                Ok(imputed) => format!("{:.3}", classify_f1(&imputed, &labels, args.seed)),
                Err(iim_data::ImputeError::Unsupported(_)) => "-".to_string(),
                Err(e) => panic!("{} failed: {e}", m.name()),
            };
            row.push(lineup_cell(m.name(), cell));
        }
        table.push(row);
        eprintln!("[table7] classification {name} done");
    }

    table.print("Table VII: clustering purity (ASF, CA) and classification F1 (MAM, HEP)");
    let path = table.write_tsv("table7").expect("write tsv");
    println!("wrote {}", path.display());
}

/// 5-fold stratified CV of the kNN classifier, averaged over 5 repeated
/// splits (single-split F1 deltas are smaller than fold-assignment noise);
/// missing test features are mean-substituted so the no-imputation
/// baseline still classifies.
fn classify_f1(rel: &Relation, labels: &[u32], seed: u64) -> f64 {
    let m = rel.arity();
    let features: Vec<usize> = (0..m).collect();
    // Column means over present cells for test-feature fallback.
    let stats = iim_data::stats::all_stats(rel);
    let mut total = 0.0;
    let repeats = 5u64;
    for rep in 0..repeats {
        let folds = stratified_folds(labels, 5, &mut StdRng::seed_from_u64(seed ^ (rep << 32)));
        let mut preds = vec![0u32; labels.len()];
        for f in 0..folds.len() {
            let train: Vec<u32> = (0..folds.len())
                .filter(|&g| g != f)
                .flat_map(|g| folds[g].iter().copied())
                .collect();
            let clf = KnnClassifier::fit(rel, &features, labels, &train, 5);
            let mut q = vec![0.0; m];
            for &t in &folds[f] {
                let rowv = rel.row_raw(t as usize);
                for (j, slot) in q.iter_mut().enumerate() {
                    *slot = if rowv[j].is_nan() {
                        stats[j].mean
                    } else {
                        rowv[j]
                    };
                }
                preds[t as usize] = clf.predict(&q);
            }
        }
        total += f1_weighted(&preds, labels);
    }
    total / repeats as f64
}

/// The lineup iterates IIM first then Mean..XGB, matching the header after
/// the "Missing" column — this hook documents (and asserts) that order.
fn lineup_cell(name: &str, cell: String) -> String {
    debug_assert!(
        [
            "IIM", "Mean", "kNN", "kNNE", "IFC", "GMM", "SVD", "ILLS", "GLR", "LOESS", "BLR",
            "ERACER", "PMM", "XGB"
        ]
        .contains(&name),
        "unexpected method {name}"
    );
    cell
}

/// Ablation on IIM's design choices: candidate aggregation
/// (mutual vote vs uniform vs inverse-distance) and learning policy
/// (adaptive vs best/worst fixed ℓ), across the two headline regimes.
fn ablation(args: Args) {
    let mut table = Table::new(vec![
        "dataset",
        "vote",
        "uniform",
        "inv-dist",
        "fixed l=1",
        "fixed l=50",
        "fixed l=max",
    ]);
    for data in [PaperData::Asf, PaperData::Ca] {
        let clean = data.generate(if args.quick { Some(1000) } else { args.n }, args.seed);
        let n = clean.n_rows();
        let am = clean.arity() - 1;
        let mut rel = clean;
        let n_inc = if args.quick { 30 } else { (n / 20).max(50) };
        let truth = inject_attr(&mut rel, am, n_inc, &mut StdRng::seed_from_u64(args.seed));

        let adaptive = |weighting: Weighting| IimConfig {
            k: 10,
            weighting,
            learning: Learning::Adaptive(AdaptiveConfig {
                step: 5,
                ell_max: Some(n.min(1000)),
                validation_k: Some(10),
                ..AdaptiveConfig::default()
            }),
            ..IimConfig::default()
        };
        let fixed = |ell: usize| IimConfig {
            k: 10,
            learning: Learning::Fixed { ell },
            ..IimConfig::default()
        };
        let score = |cfg: IimConfig| {
            let imp =
                PerAttributeImputer::with_features(Iim::new(cfg), FeatureSelection::AllOthers);
            Table::num(Some(rmse(&imp.impute(&rel).expect("impute"), &truth)))
        };

        table.push(vec![
            data.name().to_string(),
            score(adaptive(Weighting::MutualVote)),
            score(adaptive(Weighting::Uniform)),
            score(adaptive(Weighting::InverseDistance)),
            score(fixed(1)),
            score(fixed(50)),
            score(fixed(n)),
        ]);
        eprintln!("[ablation] {} done", data.name());
    }
    table.print("Ablation: candidate weighting and learning policy (RMS error)");
    let path = table.write_tsv("ablation").expect("tsv");
    println!("wrote {}", path.display());
}

/// Dataset-profile calibration: measured (R²_S, R²_H) of every generated
/// dataset next to the paper's published values.
fn profiles(args: Args) {
    let mut table = Table::new(vec![
        "dataset",
        "n",
        "m",
        "R2_S(paper)",
        "R2_S(ours)",
        "R2_H(paper)",
        "R2_H(ours)",
    ]);
    for d in PaperData::ALL {
        let mut rel = d.generate(args.n, args.seed);
        let n = rel.n_rows();
        // A larger probe than the scored workload keeps the R² estimate
        // stable on the small datasets (50 cells is too noisy).
        let incomplete = (n / 5).max(100).min(n / 2);
        // Profiles are measured on the paper's default incomplete
        // attribute Am (the last one) — §II: "we consider Am as the
        // incomplete attribute by default".
        let am = rel.arity() - 1;
        let truth = inject_attr(
            &mut rel,
            am,
            incomplete,
            &mut StdRng::seed_from_u64(args.seed),
        );
        let p = iim_baselines::diagnostics::data_profile(&rel, &truth, 10).expect("profile");
        let (ps, ph) = d.paper_profile();
        table.push(vec![
            d.name().to_string(),
            n.to_string(),
            rel.arity().to_string(),
            Table::num(Some(ps)),
            Table::num(Some(p.r2_sparsity)),
            Table::num(Some(ph)),
            Table::num(Some(p.r2_heterogeneity)),
        ]);
    }
    table.print("Dataset profiles: paper vs generated");
    let path = table.write_tsv("profiles").expect("write tsv");
    println!("wrote {}", path.display());
}

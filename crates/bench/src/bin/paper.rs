//! The two paper artifacts that are not an imputation-error sweep:
//! `paper table7 [--seed S]` and `paper profiles [--seed S]`. Each writes
//! a schema-1 envelope to `bench_results/BENCH_<artifact>.json` and prints
//! its table. Every other artifact (Tables V–VI, Figures 4–13, the
//! ablation) is a spec under `crates/bench/specs/paper/`, run by
//! `iim bench run`.
//!
//! ```text
//! cargo run -p iim-bench --release --bin paper -- table7
//! cargo run -p iim-bench --release --bin paper -- profiles --seed 1
//! ```
//!
//! - **table7** — downstream clustering purity (ASF, CA; k-means of the
//!   complete data as truth) and classification F1 (MAM, HEP, whose
//!   values are missing at generation), per (dataset, method). Method
//!   `Missing` scores the relation without imputing.
//! - **profiles** — measured (R²_S, R²_H) per (dataset, attribute), with
//!   the paper's published pair beside the default attribute `Am`: the
//!   calibration evidence, and Table VI's R² columns for ASF.

use iim_bench::harness::method_lineup;
use iim_bench::report::metric_table;
use iim_bench::{BenchResult, Cell, PaperData, Table};
use iim_data::inject::{inject_attr, inject_random};
use iim_data::{FeatureSelection, Relation};
use iim_datagen::{hep_like, mam_like, LabeledDataset};
use iim_ml::{f1_weighted, kmeans, kmeans_with_init, purity, stratified_folds, KnnClassifier};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::exit;

const USAGE: &str = "usage: paper table7|profiles [--seed S]";

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let seed = match argv.get(1..) {
        Some([]) => 42,
        Some([flag, s]) if flag == "--seed" => s.parse().unwrap_or_else(|_| {
            eprintln!("--seed needs a u64\n{USAGE}");
            exit(2)
        }),
        _ => {
            eprintln!("{USAGE}");
            exit(2)
        }
    };
    let result = match argv[0].as_str() {
        "table7" => table7(seed),
        "profiles" => profiles(seed),
        other => {
            eprintln!("unknown artifact {other:?}\n{USAGE}");
            exit(2)
        }
    };
    match result.write_named(false) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("error writing result: {e}");
            exit(1)
        }
    }
}

/// Scores every lineup method, plus the unimputed relation as `Missing`,
/// into `result` under `metric`.
fn score_lineup(
    result: &mut BenchResult,
    dataset: &str,
    rel: &Relation,
    seed: u64,
    metric: &str,
    score: impl Fn(&Relation) -> f64,
) {
    let cell = |method: &str, value: f64| {
        Cell::new()
            .coord_str("dataset", dataset)
            .coord_str("method", method)
            .coord_num("n", rel.n_rows() as f64)
            .coord_num("seed", seed as f64)
            .metric(metric, vec![value])
    };
    result.push(cell("Missing", score(rel)));
    for m in method_lineup(10, seed, rel.n_rows(), FeatureSelection::AllOthers) {
        match m.impute(rel) {
            Ok(imputed) => result.push(cell(m.name(), score(&imputed))),
            Err(iim_data::ImputeError::Unsupported(_)) => {}
            Err(e) => panic!("{} failed: {e}", m.name()),
        }
    }
    eprintln!("[table7] {dataset} done");
}

/// Table VII: clustering purity on ASF & CA (k-means of the complete data
/// as truth) and classification F1 on MAM & HEP (real missing values,
/// 5-fold stratified CV of a kNN classifier); `Missing` mean-substitutes
/// or discards instead of imputing.
fn table7(seed: u64) -> BenchResult {
    let mut result = BenchResult::new("table7", 0, 1).with_note(
        "purity: k-means (ASF 5, CA 4 clusters) of each imputed relation, started from the \
         complete relation's centroids, against its clusters; 5% of tuples lose one random \
         cell. f1: kNN classifier (k 5), 5-fold stratified CV averaged over 5 splits, on \
         relations generated with missing values. Missing: no imputation.",
    );
    for (data, k_clusters) in [(PaperData::Asf, 5usize), (PaperData::Ca, 4usize)] {
        let clean = data.generate(None, seed);
        let n = clean.n_rows();
        // Ground-truth clusters from the original complete data; the same
        // reference centroids seed every subsequent run so purity compares
        // imputations, not k-means++ initialization luck.
        let reference = kmeans(&clean, k_clusters, 100, &mut StdRng::seed_from_u64(seed));
        let truth_clusters = reference.labels;
        let init = reference.centroids;
        let mut rel = clean;
        inject_random(&mut rel, (n / 20).max(20), &mut StdRng::seed_from_u64(seed));
        score_lineup(&mut result, data.name(), &rel, seed, "purity", |r| {
            purity(
                &kmeans_with_init(r, init.clone(), 100).labels,
                &truth_clusters,
            )
        });
    }
    for (name, ds) in [("MAM", mam_like(1000, seed)), ("HEP", hep_like(200, seed))] {
        let LabeledDataset { relation, labels } = ds;
        score_lineup(&mut result, name, &relation, seed, "f1", |r| {
            classify_f1(r, &labels, seed)
        });
    }
    metric_table(&result, "purity", "method", three_places)
        .print("Table VII: clustering purity (ASF, CA)");
    metric_table(&result, "f1", "method", three_places)
        .print("Table VII: classification F1 (MAM, HEP)");
    result
}

/// Table VII's precision: purity and F1 differ in the third decimal.
fn three_places(v: Option<f64>) -> String {
    v.map_or_else(|| "-".to_string(), |x| format!("{x:.3}"))
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

/// Dataset-profile calibration: measured (R²_S, R²_H) of every attribute
/// of every generated dataset, with the paper's published pair beside the
/// default incomplete attribute `Am` (§II: "we consider Am as the
/// incomplete attribute by default").
fn profiles(seed: u64) -> BenchResult {
    let mut result = BenchResult::new("profiles", 0, 1).with_note(
        "r2_s / r2_h: R² of kNN (k 10) / GLR fills of one attribute, removed from \
         max(n/5, 100) tuples (at most n/2); paper_r2_*: the paper's published pair for Am.",
    );
    let mut table = Table::new(vec![
        "dataset",
        "attribute",
        "R2_S(paper)",
        "R2_S(ours)",
        "R2_H(paper)",
        "R2_H(ours)",
    ]);
    for d in PaperData::ALL {
        let clean = d.generate(None, seed);
        let n = clean.n_rows();
        // A larger probe than the scored workload keeps the R² estimate
        // stable on the small datasets (50 cells is too noisy).
        let incomplete = (n / 5).max(100).min(n / 2);
        let last = clean.arity() - 1;
        for attr in 0..clean.arity() {
            let mut rel = clean.clone();
            let truth = inject_attr(&mut rel, attr, incomplete, &mut StdRng::seed_from_u64(seed));
            let p = iim_baselines::diagnostics::data_profile(&rel, &truth, 10).expect("profile");
            let label = format!("A{}", attr + 1);
            let mut cell = Cell::new()
                .coord_str("dataset", d.name())
                .coord_str("attribute", &label)
                .coord_num("n", n as f64)
                .coord_num("seed", seed as f64)
                .metric("r2_s", vec![p.r2_sparsity])
                .metric("r2_h", vec![p.r2_heterogeneity]);
            let paper = (attr == last).then(|| d.paper_profile());
            if let Some((ps, ph)) = paper {
                cell = cell
                    .metric("paper_r2_s", vec![ps])
                    .metric("paper_r2_h", vec![ph]);
            }
            result.push(cell);
            table.push(vec![
                d.name().to_string(),
                label,
                Table::num(paper.map(|p| p.0)),
                Table::num(Some(p.r2_sparsity)),
                Table::num(paper.map(|p| p.1)),
                Table::num(Some(p.r2_heterogeneity)),
            ]);
        }
    }
    table.print("Dataset profiles per attribute: paper (Am) vs generated");
    result
}

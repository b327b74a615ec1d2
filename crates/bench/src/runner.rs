//! The runner/executor split: expand a [`Spec`] into cells, execute each
//! through the shared harness, collect an envelope.
//!
//! [`expand`] is the pure half — the cross-product of (dataset × n ×
//! seed × injector × missing-rate × features × k × index × method ×
//! threads) as [`PlannedCell`]s, in that deterministic order — and
//! [`run`] is the effectful half: for each planned cell it generates the
//! dataset and injects the workload (both reused while only later axes
//! change), sets the process thread count, warms up, and records
//! `repeats` timed samples of the offline/online phases plus the RMS
//! error through [`score_cell`].
//!
//! The workload protocol is the paper's §VI-A2: a `missing_rate` of the
//! n tuples (at least 1, at most n/2) lose one cell each, chosen by the
//! cell's injector and seeded by its seed.
//!
//! Two invariants are enforced while running, not just documented:
//!
//! - **Determinism across threads**: when a spec sweeps thread counts,
//!   the RMS error of every point must be bitwise identical across them
//!   (the workspace-wide reproducibility contract). A mismatch panics —
//!   that is a product bug, not noise.
//! - **Determinism across repeats**: RMSE is recorded once per cell, after
//!   asserting every repeat produced the same value.

use crate::datasets::PaperData;
use crate::harness::{method, score_cell};
use crate::result::{BenchResult, Cell};
use crate::spec::{Features, Injector, Spec};
use iim_data::inject::{inject_attr, inject_clustered_attr};
use iim_data::{GroundTruth, Relation};
use iim_neighbors::IndexChoice;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

/// One expanded experiment point, before execution.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedCell {
    /// Dataset to generate.
    pub dataset: PaperData,
    /// Tuple count; `None` = the dataset's harness default.
    pub n: Option<usize>,
    /// Seed for generation, injection and the stochastic baselines.
    pub seed: u64,
    /// How incomplete tuples are made.
    pub injector: Injector,
    /// Fraction of tuples made incomplete.
    pub missing_rate: f64,
    /// Feature set of each per-attribute model.
    pub features: Features,
    /// Imputation-neighbor count.
    pub k: usize,
    /// Neighbor index variant.
    pub index: IndexChoice,
    /// Method name (validated against the lineup).
    pub method: String,
    /// Worker-thread count.
    pub threads: usize,
}

impl PlannedCell {
    /// The cell's coordinates except `threads`, over `n` generated rows:
    /// the point the cross-thread determinism check compares.
    fn coordinates(&self, n: usize) -> Cell {
        let cell = Cell::new()
            .coord_str("dataset", self.dataset.name())
            .coord_str("method", &self.method)
            .coord_num("missing_rate", self.missing_rate)
            .coord_str("index", self.index.name())
            .coord_num("n", n as f64)
            .coord_num("k", self.k as f64)
            .coord_num("seed", self.seed as f64);
        let cell = match self.features {
            Features::All => cell.coord_str("features", "all"),
            Features::First(f) => cell.coord_num("features", f as f64),
        };
        cell.coord_str("injector", &self.injector.to_string())
    }

    /// Whether `other` runs on the same injected relation.
    fn same_workload(&self, other: &PlannedCell) -> bool {
        (self.dataset, self.n, self.seed, self.injector)
            == (other.dataset, other.n, other.seed, other.injector)
            && self.missing_rate == other.missing_rate
    }
}

/// Expands the spec's cross-product in deterministic order: dataset, n,
/// seed, injector, missing-rate, features, k, index, method, then threads
/// (innermost, so the determinism check sees adjacent cells).
pub fn expand(spec: &Spec) -> Vec<PlannedCell> {
    let sizes: Vec<Option<usize>> = if spec.n.is_empty() {
        vec![None]
    } else {
        spec.n.iter().copied().map(Some).collect()
    };
    let mut cells = Vec::new();
    for &dataset in &spec.datasets {
        for &n in &sizes {
            for &seed in &spec.seeds {
                for &injector in &spec.injector {
                    for &missing_rate in &spec.missing_rates {
                        for &features in &spec.features {
                            for &k in &spec.k {
                                for &index in &spec.index {
                                    for method in &spec.methods {
                                        for &threads in &spec.threads {
                                            cells.push(PlannedCell {
                                                dataset,
                                                n,
                                                seed,
                                                injector,
                                                missing_rate,
                                                features,
                                                k,
                                                index,
                                                method: method.clone(),
                                                threads,
                                            });
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    cells
}

/// A generated relation with its injected cells removed.
struct Workload {
    rel: Relation,
    truth: GroundTruth,
    targets: Vec<usize>,
}

impl Workload {
    fn build(cell: &PlannedCell) -> Workload {
        let mut rel = cell.dataset.generate(cell.n, cell.seed);
        let n = rel.n_rows();
        let n_incomplete = ((cell.missing_rate * n as f64).ceil() as usize).clamp(1, n / 2);
        let last = rel.arity() - 1;
        let rng = &mut StdRng::seed_from_u64(cell.seed);
        let truth = match cell.injector {
            Injector::Attr(j) => {
                let col = j.map_or(last, |j| j - 1);
                inject_attr(&mut rel, col, n_incomplete, rng)
            }
            Injector::Clustered(c) => inject_clustered_attr(&mut rel, n_incomplete, c, last, rng),
        };
        let targets = rel.incomplete_attrs();
        Workload {
            rel,
            truth,
            targets,
        }
    }
}

/// Executes the spec and returns the filled envelope.
///
/// Methods that report a workload as unsupported (the paper's "-"
/// entries, e.g. SVD on two attributes) are skipped with a stderr note —
/// the envelope simply has no cell for them, which `diff` reports as a
/// warning rather than a failure.
///
/// Progress goes to stderr, one line per executed cell.
pub fn run(spec: &Spec) -> BenchResult {
    spec.validate().expect("spec validated before running");
    let mut result =
        BenchResult::new(&spec.name, spec.warmup, spec.repeats).with_spec(spec.to_toml());
    // point -> rmse bits from the first thread count that ran it.
    let mut rmse_by_point: HashMap<String, u64> = HashMap::new();
    let mut current: Option<(PlannedCell, Workload)> = None;

    for cell in expand(spec) {
        if !matches!(&current, Some((prev, _)) if prev.same_workload(&cell)) {
            current = Some((cell.clone(), Workload::build(&cell)));
        }
        let (_, work) = current.as_ref().expect("workload built above");
        let n = work.rel.n_rows();
        let coords = cell.coordinates(n);
        let point = coords.key();
        let method = method(
            &cell.method,
            cell.k,
            cell.seed,
            n,
            cell.features.selection(),
            cell.index,
        )
        .expect("spec methods validated against the lineup");
        iim_exec::set_default_threads(cell.threads);
        for _ in 0..spec.warmup {
            score_cell(&*method, &work.rel, &work.truth, &work.targets);
        }
        let mut offline = Vec::with_capacity(spec.repeats);
        let mut online = Vec::with_capacity(spec.repeats);
        let mut rmse: Option<f64> = None;
        let mut supported = true;
        for rep in 0..spec.repeats {
            let score = score_cell(&*method, &work.rel, &work.truth, &work.targets);
            let Some(r) = score.rmse else {
                supported = false;
                break;
            };
            match rmse {
                None => rmse = Some(r),
                Some(prev) => assert_eq!(
                    prev.to_bits(),
                    r.to_bits(),
                    "{point}: rmse drifted between repeat {} and {rep}",
                    rep - 1,
                ),
            }
            offline.push(score.timings.offline.as_secs_f64());
            online.push(score.timings.online.as_secs_f64());
        }
        if !supported {
            eprintln!("[bench] skip {point}: unsupported workload");
            continue;
        }
        let rmse = rmse.expect("repeats >= 1");
        let first = *rmse_by_point.entry(point.clone()).or_insert(rmse.to_bits());
        assert_eq!(
            first,
            rmse.to_bits(),
            "{point}: rmse differs across thread counts"
        );
        result.push(
            coords
                .coord_num("threads", cell.threads as f64)
                .metric("offline_s", offline)
                .metric("online_s", online)
                .metric("rmse", vec![rmse]),
        );
        eprintln!("[bench] {point} threads={} done", cell.threads);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> Spec {
        Spec {
            name: "tiny".to_string(),
            methods: vec!["Mean".to_string(), "kNN".to_string()],
            datasets: vec![PaperData::Asf],
            missing_rates: vec![0.05],
            threads: vec![1],
            repeats: 2,
            warmup: 0,
            n: vec![120],
            ..Spec::default()
        }
    }

    #[test]
    fn expand_orders_threads_innermost() {
        let mut spec = tiny_spec();
        spec.threads = vec![1, 2];
        let cells = expand(&spec);
        assert_eq!(cells.len(), 4);
        assert_eq!((cells[0].method.as_str(), cells[0].threads), ("Mean", 1));
        assert_eq!((cells[1].method.as_str(), cells[1].threads), ("Mean", 2));
        assert_eq!((cells[2].method.as_str(), cells[2].threads), ("kNN", 1));
    }

    #[test]
    fn runs_a_tiny_spec_end_to_end() {
        let spec = tiny_spec();
        let result = run(&spec);
        assert_eq!(result.cells.len(), 2);
        assert_eq!(result.name, "tiny");
        assert!(result.machine.available_cores >= 1);
        for cell in &result.cells {
            assert_eq!(cell.metric_named("offline_s").unwrap().samples.len(), 2);
            assert_eq!(cell.metric_named("rmse").unwrap().samples.len(), 1);
            assert!(cell.metric_named("rmse").unwrap().samples[0].is_finite());
        }
        // The envelope round-trips through its own JSON.
        let back = BenchResult::from_json_text(&result.render(), "ignored").expect("round trip");
        assert_eq!(back, result);
    }

    #[test]
    fn every_axis_is_a_coordinate_of_every_cell() {
        let spec = Spec {
            name: "axes".to_string(),
            methods: vec!["Mean".to_string(), "IIM/fixed=5".to_string()],
            n: vec![60, 80],
            seeds: vec![3, 4],
            k: vec![2, 3],
            features: vec![Features::All, Features::First(2)],
            injector: vec![Injector::Attr(Some(1)), Injector::Clustered(2)],
            repeats: 1,
            warmup: 0,
            ..Spec::default()
        };
        let planned = expand(&spec);
        assert_eq!(planned.len(), 2 * 2 * 2 * 2 * 2 * 2);
        let result = run(&spec);
        assert_eq!(result.cells.len(), planned.len());
        let keys: std::collections::BTreeSet<String> =
            result.cells.iter().map(|c| c.key()).collect();
        assert_eq!(keys.len(), planned.len(), "two cells share a key");
        let first = result.cells[0].key();
        for coord in [
            "dataset=ASF",
            "features=all",
            "index=auto",
            "injector=attr:1",
            "k=2",
            "method=Mean",
            "missing_rate=0.05",
            "n=60",
            "seed=3",
            "threads=1",
        ] {
            assert!(first.contains(coord), "{coord} not in {first}");
        }
        // Each seed generates its own relation, and the rows each
        // injector clears differ, so the rmse moves along both axes.
        let rmse = |needle: &[&str]| {
            let cell = result
                .cells
                .iter()
                .find(|c| needle.iter().all(|s| c.key().split(' ').any(|kv| kv == *s)))
                .unwrap();
            cell.metric_named("rmse").unwrap().samples[0]
        };
        let base = ["method=Mean", "n=60", "k=2", "features=all"];
        let with = |extra: [&'static str; 2]| {
            let mut v = base.to_vec();
            v.extend(extra);
            rmse(&v)
        };
        assert_ne!(
            with(["seed=3", "injector=attr:1"]),
            with(["seed=4", "injector=attr:1"])
        );
        assert_ne!(
            with(["seed=3", "injector=attr:1"]),
            with(["seed=3", "injector=clustered:2"])
        );
    }

    #[test]
    fn the_smallest_valid_n_runs_every_method() {
        let spec = Spec {
            name: "n2".to_string(),
            methods: crate::spec::KNOWN_METHODS
                .iter()
                .map(|m| m.to_string())
                .collect(),
            datasets: PaperData::ALL.to_vec(),
            n: vec![2],
            repeats: 1,
            warmup: 0,
            ..Spec::default()
        };
        // Every cell either scores or is skipped as unsupported; none panics.
        let result = run(&spec);
        assert!(!result.cells.is_empty());
    }
}

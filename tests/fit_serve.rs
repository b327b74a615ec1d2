//! The fit/serve contract, property-tested per registry method (all 14:
//! IIM + the thirteen Table II baselines):
//!
//! * `fit` once + `impute_all` is **cell-identical** (bitwise) to the
//!   one-shot `impute` — fitted serving matches batch imputation.
//! * `impute_one` over each incomplete tuple matches `impute_all`'s fills
//!   — single-query serving is the same function as whole-relation
//!   imputation, and repeated queries are reproducible.
//! * `fit` on a relation with **zero incomplete tuples** succeeds and
//!   serves later queries — the serving scenario the batch-only API could
//!   not express.
//! * parallel serving is **deterministic**: `impute_all`/`impute_batch` on
//!   a 4-worker pool are bitwise-identical to the serial run, one fitted
//!   model shared by N threads answers every query exactly like the
//!   single-threaded reference, and fitting plus `impute_all` under 1 and
//!   4 default workers fill a whole relation alike (the `iim-exec`
//!   invariant).

use iim::prelude::*;
use iim_data::inject::{inject_attr, inject_random};
use iim_exec::Pool;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// IIM + all thirteen baselines, through the same single source of truth
/// the CLI uses.
fn all_fourteen(k: usize, seed: u64) -> Vec<Box<dyn Imputer>> {
    iim::methods::lineup(k, seed)
}

/// A random relation: `n` complete rows over `m` correlated-ish attributes
/// (n ≥ m so SVDimpute applies), then `holes` random tuples each losing
/// one attribute (the paper's §VI-B1 protocol).
fn arb_workload() -> impl Strategy<Value = Relation> {
    (12usize..36, 3usize..5, 1usize..6, 0u64..1000).prop_flat_map(|(n, m, holes, inj_seed)| {
        proptest::collection::vec(proptest::collection::vec(-20.0..20.0f64, m), n..=n).prop_map(
            move |rows| {
                // Blend in a linear component so regressions are non-degenerate.
                let rows: Vec<Vec<f64>> = rows
                    .iter()
                    .enumerate()
                    .map(|(i, r)| {
                        r.iter()
                            .enumerate()
                            .map(|(j, v)| v * 0.3 + i as f64 * 0.5 + j as f64)
                            .collect()
                    })
                    .collect();
                let mut rel = Relation::from_rows(Schema::anonymous(m), &rows);
                let holes = holes.min(n / 3);
                inject_random(&mut rel, holes, &mut StdRng::seed_from_u64(inj_seed));
                rel
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn fitted_serving_matches_one_shot_batch(rel in arb_workload()) {
        for method in all_fourteen(4, 9) {
            // One-shot batch (the legacy protocol shape).
            let batch = match method.impute(&rel) {
                Ok(out) => out,
                Err(ImputeError::Unsupported(_)) => continue, // paper's "-"
                Err(e) => panic!("{} failed: {e}", method.name()),
            };
            // Learn once (every attribute), then serve.
            let fitted = method
                .fit(&rel)
                .unwrap_or_else(|e| panic!("{} failed to fit: {e}", method.name()));
            let all = fitted
                .impute_all(&rel)
                .unwrap_or_else(|e| panic!("{} failed to serve: {e}", method.name()));
            prop_assert!(
                all == batch,
                "{}: fit + impute_all diverged from one-shot impute",
                method.name()
            );
            // Single-tuple serving agrees cell-for-cell with impute_all,
            // twice over (reproducible serving).
            for i in 0..rel.n_rows() {
                if rel.row_complete(i) {
                    continue;
                }
                let query = rel.row_opt(i);
                for _ in 0..2 {
                    let one = fitted.impute_one(&query).unwrap();
                    for j in 0..rel.arity() {
                        match (rel.get(i, j), all.get(i, j)) {
                            // Present cells pass through untouched.
                            (Some(v), _) => prop_assert_eq!(one[j].to_bits(), v.to_bits()),
                            // Filled cells match the batch fill bitwise.
                            (None, Some(fill)) => prop_assert_eq!(
                                one[j].to_bits(),
                                fill.to_bits(),
                                "{}: row {} attr {}",
                                method.name(),
                                i,
                                j
                            ),
                            // Cells the method left missing stay missing.
                            (None, None) => prop_assert!(one[j].is_nan()),
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn parallel_impute_all_is_bitwise_identical_to_serial(rel in arb_workload()) {
        // The iim-exec determinism invariant, per method: serving a whole
        // relation on 4 workers is *bitwise* the same relation as serving
        // it on 1 (the cutoff is forced to 1 so the parallel path really
        // runs on these small workloads).
        let serial = Pool::serial();
        let four = Pool::new(4).with_serial_cutoff(1);
        for method in all_fourteen(4, 9) {
            let fitted = match method.fit(&rel) {
                Ok(f) => f,
                Err(ImputeError::Unsupported(_)) => continue, // paper's "-"
                Err(e) => panic!("{} failed to fit: {e}", method.name()),
            };
            let one = fitted.impute_all_on(&serial, &rel).unwrap();
            let many = fitted.impute_all_on(&four, &rel).unwrap();
            prop_assert!(
                one == many,
                "{}: 4-thread impute_all diverged from serial",
                method.name()
            );
            // Micro-batches obey the same invariant.
            let queries: Vec<Vec<Option<f64>>> = rel
                .incomplete_rows()
                .iter()
                .map(|&i| rel.row_opt(i as usize))
                .collect();
            let refs: Vec<&RowOpt> = queries.iter().map(|q| q.as_slice()).collect();
            let a = fitted.impute_batch_on(&serial, &refs).unwrap();
            let b = fitted.impute_batch_on(&four, &refs).unwrap();
            for (x, y) in a.iter().zip(&b) {
                for (p, q) in x.iter().zip(y) {
                    prop_assert!(
                        p.to_bits() == q.to_bits() || (p.is_nan() && q.is_nan()),
                        "{}: 4-thread impute_batch diverged from serial",
                        method.name()
                    );
                }
            }
        }
    }

    #[test]
    fn micro_batches_agree_with_single_queries(rel in arb_workload()) {
        // impute_batch is just impute_one in order — spot-check with two
        // cheap methods (one per integration style).
        for name in ["Mean", "IFC"] {
            let method = iim::methods::by_name(name, 4, 9).unwrap();
            let fitted = match method.fit(&rel) {
                Ok(f) => f,
                Err(ImputeError::Unsupported(_)) => continue,
                Err(e) => panic!("{name} failed to fit: {e}"),
            };
            let queries: Vec<Vec<Option<f64>>> = rel
                .incomplete_rows()
                .iter()
                .map(|&i| rel.row_opt(i as usize))
                .collect();
            let refs: Vec<&RowOpt> = queries.iter().map(|q| q.as_slice()).collect();
            let batch = fitted.impute_batch(&refs).unwrap();
            for (q, b) in refs.iter().zip(&batch) {
                let one = fitted.impute_one(q).unwrap();
                let same = one
                    .iter()
                    .zip(b.iter())
                    .all(|(a, c)| a.to_bits() == c.to_bits() || (a.is_nan() && c.is_nan()));
                prop_assert!(same, "{name}: impute_batch diverged from impute_one");
            }
        }
    }
}

/// `fit` on a relation with zero incomplete tuples succeeds for all 14
/// methods and serves later queries — learn once offline, impute anything
/// online.
#[test]
fn fit_on_complete_relation_serves_later_queries() {
    // Deterministic near-linear data, n >> m so every method has signal.
    let rows: Vec<Vec<f64>> = (0..80)
        .map(|i| {
            let x = i as f64 * 0.25;
            vec![x, 2.0 * x + 1.0, (x * 0.3).sin() * 2.0 + x, 10.0 - 0.5 * x]
        })
        .collect();
    let rel = Relation::from_rows(Schema::anonymous(4), &rows);
    assert_eq!(rel.missing_count(), 0);

    for method in all_fourteen(5, 11) {
        let fitted = method
            .fit(&rel)
            .unwrap_or_else(|e| panic!("{} failed to fit a complete relation: {e}", method.name()));
        assert_eq!(fitted.arity(), 4);
        // Each single-missing pattern is servable.
        for j in 0..4 {
            let mut query = rel.row_opt(40);
            query[j] = None;
            let served = fitted.impute_one(&query).unwrap();
            assert!(
                served[j].is_finite(),
                "{}: attribute {j} not filled",
                method.name()
            );
        }
        // A multi-missing novel query is servable too (features fall back
        // to training means where needed).
        let served = fitted
            .impute_one(&[Some(5.0), None, None, Some(7.5)])
            .unwrap();
        assert!(
            served[1].is_finite() && served[2].is_finite(),
            "{}: multi-missing query not filled",
            method.name()
        );
        assert_eq!(served[0], 5.0);
        assert_eq!(served[3], 7.5);
    }
}

/// One fitted imputer shared by N serving threads: every thread's
/// `impute_one` answers are bitwise-equal to the single-threaded reference
/// — the cross-thread validation of the `Send + Sync` + pure-serving
/// claims in `crates/data/src/task.rs`. Covers both integration styles
/// (per-attribute and matrix-global) plus the stochastic PMM, whose
/// per-query randomness is keyed by the query bits and must not depend on
/// which thread asks.
#[test]
fn one_fitted_imputer_serves_many_threads_bitwise_equal() {
    let rows: Vec<Vec<f64>> = (0..60)
        .map(|i| {
            let x = i as f64 * 0.3;
            vec![x, 2.0 * x + 1.0, (x * 0.4).sin() * 2.0 + x, 12.0 - 0.5 * x]
        })
        .collect();
    let mut rel = Relation::from_rows(Schema::anonymous(4), &rows);
    inject_random(&mut rel, 8, &mut StdRng::seed_from_u64(17));

    // Fit-time tuples and novel queries, all served concurrently.
    let mut queries: Vec<Vec<Option<f64>>> = rel
        .incomplete_rows()
        .iter()
        .map(|&i| rel.row_opt(i as usize))
        .collect();
    for i in 0..10 {
        let x = 20.0 + i as f64 * 0.7;
        queries.push(vec![Some(x), None, Some(x), Some(12.0 - 0.5 * x)]);
        queries.push(vec![None, Some(2.0 * x + 1.0), None, Some(12.0 - 0.5 * x)]);
    }

    for name in ["IIM", "kNN", "SVD", "IFC", "PMM"] {
        let method = iim::methods::by_name(name, 4, 9).unwrap();
        let fitted = method
            .fit(&rel)
            .unwrap_or_else(|e| panic!("{name} failed to fit: {e}"));
        let reference: Vec<Vec<f64>> = queries
            .iter()
            .map(|q| fitted.impute_one(q).unwrap())
            .collect();
        std::thread::scope(|scope| {
            for t in 0..4usize {
                let (fitted, queries, reference) = (&fitted, &queries, &reference);
                scope.spawn(move || {
                    // Each thread walks the queries in a different order so
                    // the interleavings actually differ.
                    for step in 0..queries.len() {
                        let i = (step + t * 7) % queries.len();
                        let got = fitted.impute_one(&queries[i]).unwrap();
                        for (a, b) in got.iter().zip(&reference[i]) {
                            assert!(
                                a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()),
                                "{name}: thread {t} diverged on query {i}"
                            );
                        }
                    }
                });
            }
        });
    }
}

/// Serving-side error contracts: arity mismatches and unfitted targets are
/// typed errors, not panics.
#[test]
fn serving_error_contracts() {
    let rows: Vec<Vec<f64>> = (0..30)
        .map(|i| vec![i as f64, 2.0 * i as f64, 3.0 * i as f64])
        .collect();
    let rel = Relation::from_rows(Schema::anonymous(3), &rows);

    let knn = iim::methods::by_name("kNN", 3, 0).unwrap();
    let fitted = knn.fit(&rel).unwrap();
    assert_eq!(
        fitted.impute_one(&[Some(1.0), None]).unwrap_err(),
        ImputeError::ArityMismatch {
            expected: 3,
            got: 2
        }
    );

    // Fitting only attribute 1 leaves the others unservable (per-attribute
    // methods honor the target set).
    let fitted = knn.fit_targets(&rel, &[1]).unwrap();
    assert!(fitted.impute_one(&[Some(1.0), None, Some(3.0)]).is_ok());
    assert_eq!(
        fitted
            .impute_one(&[None, Some(2.0), Some(3.0)])
            .unwrap_err(),
        ImputeError::NotFitted { target: 0 }
    );

    // Whole-matrix methods legitimately serve any attribute regardless of
    // the requested targets.
    let svd = iim::methods::by_name("SVD", 3, 0).unwrap();
    let fitted = svd.fit_targets(&rel, &[1]).unwrap();
    assert!(fitted.impute_one(&[None, Some(2.0), Some(3.0)]).is_ok());
}

/// The equivalence also holds on the paper's running example, with IIM's
/// own k (a cheap, fully deterministic anchor).
#[test]
fn paper_fig1_fit_serve_round_trip() {
    let (mut rel, tx) = iim::data::paper_fig1();
    rel.push_row_opt(&tx);
    let iim = PerAttributeImputer::new(Iim::new(IimConfig {
        k: 3,
        ..IimConfig::default()
    }));
    let batch = iim.impute(&rel).unwrap();
    let fitted = iim.fit(&rel).unwrap();
    let one = fitted.impute_one(&tx).unwrap();
    assert_eq!(
        one[1].to_bits(),
        batch.get(8, 1).unwrap().to_bits(),
        "fitted serving must reproduce the batch fill for tx"
    );
    assert!((one[1] - 1.8).abs() < 0.7, "imputed {}", one[1]);
}

/// The `iim-exec` determinism invariant on a whole relation, fit included:
/// for every method, fitting and `impute_all` under 1 and under 4 default
/// workers fill the relation bitwise alike. The relation is large enough
/// that the fit's per-tuple maps and `impute_all`'s per-query map cross
/// `DEFAULT_SERIAL_CUTOFF`, so the 4-worker side really fans out.
#[test]
fn fit_and_impute_all_match_at_one_and_four_default_threads() {
    let mut rel = iim::datagen::asf_like(300, 7);
    let target = rel.arity() - 1;
    let holes = 2 * iim_exec::DEFAULT_SERIAL_CUTOFF;
    inject_attr(&mut rel, target, holes, &mut StdRng::seed_from_u64(7));
    assert!(rel.incomplete_rows().len() > iim_exec::DEFAULT_SERIAL_CUTOFF);
    let targets = rel.incomplete_attrs();
    let fill = |method: &dyn Imputer, threads: usize| {
        iim_exec::set_default_threads(threads);
        let filled = match method.fit_targets(&rel, &targets) {
            Ok(fitted) => Some(fitted.impute_all(&rel)),
            Err(ImputeError::Unsupported(_)) => None, // the paper's "-"
            Err(e) => panic!("{} failed to fit: {e}", method.name()),
        };
        iim_exec::set_default_threads(0);
        filled.map(|r| r.unwrap_or_else(|e| panic!("{} failed to impute: {e}", method.name())))
    };
    for method in all_fourteen(10, 7) {
        let one = fill(method.as_ref(), 1);
        let four = fill(method.as_ref(), 4);
        assert!(
            one == four,
            "{}: fit + impute_all at 4 default threads diverged from 1",
            method.name()
        );
    }
}

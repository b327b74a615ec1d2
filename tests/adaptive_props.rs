//! Property tests on the adaptive-learning machinery: the Proposition-3
//! equivalence (incremental ≡ from-scratch), sweep-grid invariants, Gram
//! prefix consistency on random data, and the fused sweep held bitwise to
//! the stored-order reference.

use iim::prelude::*;
use iim_core::incremental::{sweep_values, ModelSweep};
use iim_exec::Pool;
use iim_linalg::{ridge_fit, GramAccumulator, RidgeModel};
use iim_neighbors::brute::FeatureMatrix;
use iim_neighbors::{IndexChoice, NeighborIndex, NeighborOrders, SCAN_DEPTH_RATIO};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Algorithm 3 over stored orders: every tuple's `max(ℓ_max, k)` nearest
/// neighbors precomputed once (§V-A1), validators read from the same
/// orders, and one [`ModelSweep`] model per grid point. The fused sweep in
/// `adaptive_learn` must reproduce its Φ and ℓ* bit for bit.
fn reference_adaptive(
    fm: &FeatureMatrix,
    ys: &[f64],
    k: usize,
    cfg: &AdaptiveConfig,
    alpha: f64,
) -> (Vec<RidgeModel>, Vec<u32>) {
    let n = fm.len();
    let depth = cfg.ell_max.map_or(n, |e| e.min(n)).max(k.min(n)).max(1);
    let orders = NeighborOrders::build_on(&Pool::serial(), fm, depth);
    let k_eff = k.min(n - 1);
    let mut validators: Vec<Vec<usize>> = vec![Vec::new(); n];
    for j in 0..n {
        let others = orders.neighbors_of(j).iter().filter(|&&p| p as usize != j);
        for &p in others.take(k_eff) {
            validators[p as usize].push(j);
        }
    }
    for (i, v) in validators.iter_mut().enumerate() {
        if v.is_empty() {
            v.push(i);
        }
    }
    let mut models = Vec::with_capacity(n);
    let mut chosen = Vec::with_capacity(n);
    for (i, consulted_by) in validators.iter().enumerate() {
        let mut sweep = ModelSweep::new(fm, ys, orders.neighbors_of(i), alpha, cfg.incremental);
        let mut best: Option<(f64, usize, RidgeModel)> = None;
        for ell in sweep_values(n, cfg.step, cfg.ell_max) {
            let model = sweep.model_at(ell).expect("finite data");
            let mut cost = 0.0;
            for &j in consulted_by {
                let err = ys[j] - model.predict(fm.point(j));
                cost += err * err;
            }
            if best.as_ref().is_none_or(|(b, _, _)| cost < *b) {
                best = Some((cost, ell, model));
            }
        }
        let (_, ell, model) = best.expect("non-empty sweep");
        models.push(model);
        chosen.push(ell as u32);
    }
    (models, chosen)
}

/// Runs the fused sweep on `index` at 1 and 4 threads and asserts both
/// match the reference: the same ℓ* and the same bits in every φ.
fn assert_fused_matches_reference(
    index: &NeighborIndex,
    ys: &[f64],
    k: usize,
    cfg: &AdaptiveConfig,
    context: &str,
) {
    let (want_models, want_ell) = reference_adaptive(index.matrix(), ys, k, cfg, 1e-6);
    for threads in [1, 4] {
        let got = iim::core::adaptive_learn(index, ys, k, cfg, 1e-6, threads).unwrap();
        assert_eq!(got.chosen_ell, want_ell, "{context}, {threads} threads");
        for (i, (a, b)) in got.models.iter().zip(&want_models).enumerate() {
            let bits = |m: &RidgeModel| m.phi.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(a), bits(b), "{context}, {threads} threads, tuple {i}");
        }
    }
}

/// `n` points on `m` features in [-5, 5), with every `dup_every`-th point
/// a copy of an earlier one (distance ties); targets follow a noisy plane.
fn dataset(n: usize, m: usize, dup_every: usize, seed: u64) -> (FeatureMatrix, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut data: Vec<f64> = Vec::with_capacity(n * m);
    for i in 0..n {
        if i > 0 && i % dup_every == 0 {
            let src = rng.gen_range(0..i);
            data.extend_from_within(src * m..(src + 1) * m);
        } else {
            data.extend((0..m).map(|_| rng.gen_range(-5.0..5.0)));
        }
    }
    let ys = data
        .chunks(m)
        .map(|x| x.iter().sum::<f64>() + rng.gen_range(-1.0..1.0))
        .collect();
    let fm = FeatureMatrix::from_dense(m, (0..n as u32).collect::<Vec<u32>>(), data);
    (fm, ys)
}

#[test]
fn fused_sweep_matches_reference_with_auto_index_on_both_sides_of_the_cutover() {
    // n = 2000, m = 4: Auto builds a KD-tree. A cap of 30 asks the tree
    // for every learning prefix (30 · SCAN_DEPTH_RATIO < 2000); 100 scans.
    let (fm, ys) = dataset(2000, 4, 97, 7);
    let index = NeighborIndex::build(fm, IndexChoice::Auto);
    assert_eq!(index.kind(), "kdtree");
    for cap in [30usize, 100] {
        let cfg = AdaptiveConfig {
            step: 5,
            ell_max: Some(cap),
            ..AdaptiveConfig::default()
        };
        assert_eq!(cap * SCAN_DEPTH_RATIO < 2000, cap == 30);
        assert_fused_matches_reference(&index, &ys, 10, &cfg, &format!("cap {cap}"));
    }
}

fn arb_points(max_n: usize) -> impl Strategy<Value = (Vec<Vec<f64>>, Vec<f64>)> {
    (4usize..max_n, 1usize..4).prop_flat_map(|(n, f)| {
        (
            proptest::collection::vec(proptest::collection::vec(-20.0..20.0f64, f), n..=n),
            proptest::collection::vec(-20.0..20.0f64, n..=n),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn gram_accumulator_matches_batch_fit_on_prefixes((xs, ys) in arb_points(24)) {
        let f = xs[0].len();
        let mut acc = GramAccumulator::new(f);
        for (i, x) in xs.iter().enumerate() {
            acc.add_row(x, ys[i]);
            if i + 1 >= 2 {
                let inc = acc.solve(1e-6).unwrap();
                let batch = ridge_fit(
                    xs[..=i].iter().map(|v| v.as_slice()),
                    &ys[..=i],
                    1e-6,
                ).unwrap();
                for (a, b) in inc.phi.iter().zip(&batch.phi) {
                    // Both go through the same escalating solver; tolerance
                    // scales with magnitude.
                    let tol = 1e-6 * (1.0 + a.abs().max(b.abs()));
                    prop_assert!((a - b).abs() < tol, "prefix {i}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn model_sweep_incremental_equals_scratch(
        (xs, ys) in arb_points(20),
        step in 1usize..5,
    ) {
        let f = xs[0].len();
        let n = xs.len();
        let flat: Vec<f64> = xs.iter().flatten().copied().collect();
        let fm = FeatureMatrix::from_dense(f, (0..n as u32).collect::<Vec<u32>>(), flat);
        let orders = NeighborOrders::build(&fm, n);
        for tuple in 0..n.min(5) {
            let prefix = orders.neighbors_of(tuple);
            let mut inc = ModelSweep::new(&fm, &ys, prefix, 1e-6, true);
            let mut scr = ModelSweep::new(&fm, &ys, prefix, 1e-6, false);
            for ell in sweep_values(n, step, None) {
                let a = inc.model_at(ell).unwrap();
                let b = scr.model_at(ell).unwrap();
                for (x, y) in a.phi.iter().zip(&b.phi) {
                    let tol = 1e-6 * (1.0 + x.abs().max(y.abs()));
                    prop_assert!((x - y).abs() < tol, "ell {ell}: {x} vs {y}");
                }
            }
        }
    }

    #[test]
    fn sweep_grid_invariants(n in 1usize..500, step in 1usize..60, cap in 1usize..600) {
        let grid = sweep_values(n, step, Some(cap));
        prop_assert_eq!(grid[0], 1);
        prop_assert!(grid.iter().all(|&l| l <= n.min(cap).max(1)));
        for w in grid.windows(2) {
            prop_assert_eq!(w[1] - w[0], step);
        }
    }

    #[test]
    fn adaptive_learning_is_thread_count_invariant((xs, ys) in arb_points(24)) {
        let f = xs[0].len();
        let n = xs.len();
        let flat: Vec<f64> = xs.iter().flatten().copied().collect();
        let fm = FeatureMatrix::from_dense(f, (0..n as u32).collect::<Vec<u32>>(), flat);
        let index = NeighborIndex::build(fm, IndexChoice::Auto);
        let cfg = AdaptiveConfig::default();
        let a = iim::core::adaptive_learn(&index, &ys, 3, &cfg, 1e-6, 1).unwrap();
        let b = iim::core::adaptive_learn(&index, &ys, 3, &cfg, 1e-6, 4).unwrap();
        prop_assert_eq!(a.chosen_ell, b.chosen_ell);
    }

    #[test]
    fn fused_sweep_matches_the_stored_order_reference(
        (m, n) in (1usize..11, 4usize..331),
        (cap_i, step_i) in (0usize..3, 0usize..3),
        (k, choice_i, straightforward) in (1usize..13, 0usize..3, 0usize..4),
        (dup_every, k_at_least_n) in (2usize..40, 0usize..5),
        seed in 0u64..1_000_000,
    ) {
        // n spans the scan/tree cutover of a cap-4 prefix (4 ·
        // SCAN_DEPTH_RATIO); the validator orders (depth ≤ k + 1) cross it
        // too. m spans the sweep's width dispatch: fixed-width Gram pairs
        // up to 8 features, the general accumulator beyond.
        let cap = [None, Some(4), Some(50)][cap_i];
        let step = [1usize, 3, 5][step_i];
        let choice = [IndexChoice::Brute, IndexChoice::KdTree, IndexChoice::VpTree][choice_i];
        let k = if k_at_least_n == 0 { n + k } else { k };
        // From-scratch re-learning is O(ℓ) per grid point: keep it off the
        // uncapped sweeps.
        let incremental = cap.is_none() || straightforward != 0;
        let (fm, ys) = dataset(n, m, dup_every, seed);
        let index = NeighborIndex::build(fm, choice);
        let cfg = AdaptiveConfig { step, ell_max: cap, incremental, ..AdaptiveConfig::default() };
        let context = format!(
            "m {m} n {n} cap {cap:?} step {step} k {k} {choice:?} \
             incremental {incremental} dup_every {dup_every} seed {seed}"
        );
        assert_fused_matches_reference(&index, &ys, k, &cfg, &context);
    }

    #[test]
    fn imputation_is_within_candidate_hull(
        (xs, ys) in arb_points(30),
        k in 1usize..6,
        ell in 1usize..10,
    ) {
        // Formula 10 is a convex combination of candidates: the result must
        // lie inside [min, max] of the candidate values.
        let f = xs[0].len();
        let n = xs.len();
        let flat: Vec<f64> = xs.iter().flatten().copied().collect();
        let fm = FeatureMatrix::from_dense(f, (0..n as u32).collect::<Vec<u32>>(), flat);
        let orders = NeighborOrders::build(&fm, n.min(ell.max(1)));
        let models = iim::core::learn_fixed(&fm, &ys, &orders, ell.min(n), 1e-6, 1).unwrap();
        let q = vec![0.25; f];
        let cands = iim::core::impute_candidates(&fm, &models, &q, k);
        let vals: Vec<f64> = cands.iter().map(|(_, c)| *c).collect();
        let (lo, hi) = vals
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(l, h), &v| (l.min(v), h.max(v)));
        for w in [Weighting::MutualVote, Weighting::Uniform, Weighting::InverseDistance] {
            let out = iim::core::combine_candidates(&cands, w).unwrap();
            prop_assert!(out >= lo - 1e-9 && out <= hi + 1e-9, "{w:?}: {out} not in [{lo},{hi}]");
        }
    }
}

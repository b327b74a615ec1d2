//! Integration-level verification of every worked example in the paper
//! (Examples 1–6), run through the public facade the way a user would.
//!
//! Exact-arithmetic values are pinned tightly; where the paper's printed
//! numbers carry rounding (Examples 2–3 right-street models), the paper's
//! value is asserted loosely next to the exact one — see the per-module
//! unit tests in `iim-core` for the hand calculations.

use iim::prelude::*;
use iim_core::adaptive::adaptive_learn_detailed;
use iim_neighbors::brute::FeatureMatrix;
use iim_neighbors::{IndexChoice, NeighborIndex};

fn fig1_task() -> (Relation, Vec<Option<f64>>) {
    iim::data::paper_fig1()
}

#[test]
fn example_1_neighbor_sets_and_method_disagreement() {
    let (rel, _) = fig1_task();
    // NN(tx, {A1}, 3) = {t4, t5, t6}.
    let all: Vec<u32> = (0..8).collect();
    let nn = iim::neighbors::brute::knn(&rel, &[0], &all, &[5.0, f64::NAN], 3);
    let mut ids: Vec<u32> = nn.iter().map(|n| n.pos).collect();
    ids.sort_unstable();
    assert_eq!(ids, vec![3, 4, 5]);

    // kNN imputes the A2 mean of those tuples ≈ 3.43, far from truth 1.8.
    let knn_value: f64 = (3.2 + 3.0 + 4.1) / 3.0;
    assert!((knn_value - 1.8).abs() > 1.5);
}

#[test]
fn example_2_individual_models() {
    let (rel, _) = fig1_task();
    let task = AttrTask::new(&rel, vec![0], 1);
    let cfg = IimConfig {
        k: 3,
        learning: Learning::Fixed { ell: 4 },
        ..Default::default()
    };
    let model = IimModel::learn(&task, &cfg).unwrap();
    let phi = model.models();
    // φ1 = (5.56, -0.87) — exact in the paper.
    assert!((phi[0].phi[0] - 5.56).abs() < 0.01);
    assert!((phi[0].phi[1] + 0.87).abs() < 0.01);
    // φ8: exact least squares (-4.4623, 1.1190); paper prints (-4.36, 1.11).
    assert!((phi[7].phi[0] + 4.4623).abs() < 0.001);
    assert!((phi[7].phi[1] - 1.1190).abs() < 0.001);
    assert!((phi[7].phi[1] - 1.11).abs() < 0.02);
}

#[test]
fn example_3_imputation_with_voting() {
    let (rel, _) = fig1_task();
    let task = AttrTask::new(&rel, vec![0], 1);
    let cfg = IimConfig {
        k: 3,
        learning: Learning::Fixed { ell: 4 },
        ..Default::default()
    };
    let model = IimModel::learn(&task, &cfg).unwrap();
    let imputed = model.impute(&[5.0]);
    // Exact 1.152; paper's rounded models give 1.194; truth 1.8. Either
    // way IIM lands much closer than kNN's 3.43.
    assert!((imputed - 1.152).abs() < 0.005);
    assert!((imputed - 1.194).abs() < 0.05);
    assert!((imputed - 1.8).abs() < 0.7);
}

#[test]
fn example_4_adaptive_selection() {
    let (rel, _) = fig1_task();
    let rows: Vec<u32> = (0..8).collect();
    let fm = FeatureMatrix::gather(&rel, &[0], &rows);
    let ys: Vec<f64> = (0..8).map(|i| rel.value(i, 1)).collect();
    let index = NeighborIndex::build(fm, IndexChoice::Auto);
    let (out, costs) =
        adaptive_learn_detailed(&index, &ys, 3, &AdaptiveConfig::default(), 1e-9, 1, true).unwrap();
    // ℓ*₂ = 4 with φ₂ = (5.56, -0.87).
    assert_eq!(out.chosen_ell[1], 4);
    assert!((out.models[1].phi[0] - 5.56).abs() < 0.01);
    // cost[2][4] ≈ 0.09 (paper) / 0.0919 (exact).
    let costs = costs.unwrap();
    assert!((costs[8 + 3] - 0.0919).abs() < 0.005);
}

#[test]
fn example_5_stepping_keeps_the_selection() {
    let (rel, _) = fig1_task();
    let rows: Vec<u32> = (0..8).collect();
    let fm = FeatureMatrix::gather(&rel, &[0], &rows);
    let ys: Vec<f64> = (0..8).map(|i| rel.value(i, 1)).collect();
    let index = NeighborIndex::build(fm, IndexChoice::Auto);
    let cfg = AdaptiveConfig {
        step: 3,
        ell_max: None,
        incremental: true,
        ..AdaptiveConfig::default()
    };
    let out = iim::core::adaptive_learn(&index, &ys, 3, &cfg, 1e-9, 1).unwrap();
    assert_eq!(out.swept, vec![1, 4, 7]);
    assert_eq!(out.chosen_ell[1], 4);
}

#[test]
fn example_6_incremental_gram_updates() {
    // Covered numerically in iim-linalg's unit tests; here assert the
    // user-visible contract — incremental and from-scratch adaptive
    // learning produce identical models on Figure 1.
    let (rel, _) = fig1_task();
    let rows: Vec<u32> = (0..8).collect();
    let fm = FeatureMatrix::gather(&rel, &[0], &rows);
    let ys: Vec<f64> = (0..8).map(|i| rel.value(i, 1)).collect();
    let index = NeighborIndex::build(fm, IndexChoice::Auto);
    for step in [1usize, 2, 3] {
        let inc = AdaptiveConfig {
            step,
            ell_max: None,
            incremental: true,
            ..AdaptiveConfig::default()
        };
        let scr = AdaptiveConfig {
            step,
            ell_max: None,
            incremental: false,
            ..AdaptiveConfig::default()
        };
        let a = iim::core::adaptive_learn(&index, &ys, 3, &inc, 1e-9, 1).unwrap();
        let b = iim::core::adaptive_learn(&index, &ys, 3, &scr, 1e-9, 1).unwrap();
        assert_eq!(a.chosen_ell, b.chosen_ell);
        for (x, y) in a.models.iter().zip(&b.models) {
            for (p, q) in x.phi.iter().zip(&y.phi) {
                assert!((p - q).abs() < 1e-7);
            }
        }
    }
}

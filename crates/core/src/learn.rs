//! The learning phase (Algorithm 1): one ridge model per complete tuple
//! over its ℓ nearest learning neighbors.

use iim_data::ImputeError;
use iim_exec::Pool;
use iim_linalg::{ridge_fit, RidgeModel};
use iim_neighbors::{brute::FeatureMatrix, NeighborOrders};

/// Learns Φ = {φ₁, …, φₙ}: for every candidate tuple `i`, a ridge model
/// over `NN(tᵢ, F, ℓ)` (Algorithm 1).
///
/// * `fm` — training tuples gathered on `F` (positions are model indices);
/// * `ys` — the target attribute values, `ys[pos]` for tuple `pos`;
/// * `orders` — precomputed neighbor orders of depth ≥ `ell`;
/// * `ell` — number of learning neighbors, clamped to `[1, n]`;
/// * `alpha` — ridge regularization (Formula 5);
/// * `threads` — worker count (tuples are independent; `0` uses the
///   process default, see [`iim_exec::default_threads`]). The output is
///   bitwise-identical for every worker count.
///
/// `ell = 1` yields the paper's constant model `φ[C] = tᵢ[Am]`, all other
/// coefficients zero (§III-A2 "Handling Single Neighbor").
///
/// Fails with [`ImputeError::Unsupported`] when a tuple's ridge system
/// cannot be solved, which takes values whose Gram sums overflow.
pub fn learn_fixed(
    fm: &FeatureMatrix,
    ys: &[f64],
    orders: &NeighborOrders,
    ell: usize,
    alpha: f64,
    threads: usize,
) -> Result<Vec<RidgeModel>, ImputeError> {
    let n = fm.len();
    assert_eq!(ys.len(), n, "one target value per training tuple");
    assert!(n > 0, "cannot learn from an empty relation");
    let ell = ell.clamp(1, n);
    assert!(
        orders.depth() >= ell,
        "neighbor orders too shallow: depth {} < ell {}",
        orders.depth(),
        ell
    );
    Pool::new(threads)
        .parallel_map_indexed(n, |i| learn_one(fm, ys, orders.neighbors_of(i), ell, alpha))
        .into_iter()
        .enumerate()
        .map(|(i, model)| model.ok_or_else(|| unsolvable(fm, i)))
        .collect()
}

/// The error for training tuple `pos` of `fm` whose ridge system has no
/// finite solution.
pub(crate) fn unsolvable(fm: &FeatureMatrix, pos: usize) -> ImputeError {
    ImputeError::Unsupported(format!(
        "the ridge system of training row {} has no finite solution \
         (values too large for its Gram sums)",
        fm.row_id(pos)
    ))
}

/// Learns the individual model of one tuple from its sorted neighbor
/// prefix; `None` when the ridge system has no finite solution.
pub fn learn_one(
    fm: &FeatureMatrix,
    ys: &[f64],
    neighbor_prefix: &[u32],
    ell: usize,
    alpha: f64,
) -> Option<RidgeModel> {
    debug_assert!(ell >= 1 && ell <= neighbor_prefix.len());
    if ell == 1 {
        // §III-A2: a single neighbor (the tuple itself) cannot support a
        // regression; pin the constant model.
        let own = neighbor_prefix[0] as usize;
        return Some(RidgeModel::constant(ys[own], fm.n_features()));
    }
    let rows = neighbor_prefix[..ell].iter().map(|&p| fm.point(p as usize));
    let targets: Vec<f64> = neighbor_prefix[..ell]
        .iter()
        .map(|&p| ys[p as usize])
        .collect();
    ridge_fit(rows, &targets, alpha)
}

#[cfg(test)]
mod tests {
    use super::*;
    use iim_data::paper_fig1;
    use iim_neighbors::brute::FeatureMatrix;

    fn fig1_setup() -> (FeatureMatrix, Vec<f64>, NeighborOrders) {
        let (rel, _) = paper_fig1();
        let rows: Vec<u32> = (0..8).collect();
        let fm = FeatureMatrix::gather(&rel, &[0], &rows);
        let ys: Vec<f64> = (0..8).map(|i| rel.value(i, 1)).collect();
        let orders = NeighborOrders::build(&fm, 8);
        (fm, ys, orders)
    }

    #[test]
    fn paper_example_2_full_phi() {
        // Example 2 (ℓ = 4): φ₁ = φ₂ = (5.56, -0.87), φ₈ = (-4.36, 1.11).
        // The left-street value is exact; for the right street the exact
        // least-squares solution over {t5,t6,t7,t8} is (-4.4623, 1.1190)
        // (Σxy = 140.01, Σx² = 250.73 — verify by hand), which the paper
        // reports slightly off as (-4.36, 1.11). We pin exact arithmetic
        // tightly and the paper's rounding loosely.
        let (fm, ys, orders) = fig1_setup();
        let phi = learn_fixed(&fm, &ys, &orders, 4, 1e-9, 1).unwrap();
        assert_eq!(phi.len(), 8);
        assert!((phi[0].phi[0] - 5.56).abs() < 0.01, "phi1 {:?}", phi[0]);
        assert!((phi[0].phi[1] + 0.87).abs() < 0.01);
        assert!((phi[1].phi[0] - 5.56).abs() < 0.01, "phi2 {:?}", phi[1]);
        assert!((phi[7].phi[0] + 4.4623).abs() < 0.001, "phi8 {:?}", phi[7]);
        assert!((phi[7].phi[1] - 1.1190).abs() < 0.001);
        assert!((phi[7].phi[0] + 4.36).abs() < 0.15);
        assert!((phi[7].phi[1] - 1.11).abs() < 0.02);
    }

    #[test]
    fn ell_one_is_constant_model() {
        let (fm, ys, orders) = fig1_setup();
        let phi = learn_fixed(&fm, &ys, &orders, 1, 1e-9, 1).unwrap();
        for (i, model) in phi.iter().enumerate() {
            assert_eq!(model.phi[0], ys[i]);
            assert_eq!(model.phi[1], 0.0);
            assert_eq!(model.predict(&[123.0]), ys[i]);
        }
    }

    #[test]
    fn ell_n_equals_global_regression() {
        // Proposition 2's engine: with ℓ = n every tuple learns over all of
        // r, so all models coincide.
        let (fm, ys, orders) = fig1_setup();
        let phi = learn_fixed(&fm, &ys, &orders, 8, 1e-9, 1).unwrap();
        for model in &phi[1..] {
            for (a, b) in model.phi.iter().zip(&phi[0].phi) {
                assert!((a - b).abs() < 1e-9);
            }
        }
        let global = iim_linalg::ridge_fit((0..8).map(|i| fm.point(i)), &ys, 1e-9).unwrap();
        for (a, b) in phi[0].phi.iter().zip(&global.phi) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn ell_clamped_to_n() {
        let (fm, ys, orders) = fig1_setup();
        let a = learn_fixed(&fm, &ys, &orders, 999, 1e-9, 1).unwrap();
        let b = learn_fixed(&fm, &ys, &orders, 8, 1e-9, 1).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.phi, y.phi);
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let (fm, ys, orders) = fig1_setup();
        let serial = learn_fixed(&fm, &ys, &orders, 4, 1e-9, 1).unwrap();
        let parallel = learn_fixed(&fm, &ys, &orders, 4, 1e-9, 4).unwrap();
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.phi, b.phi);
        }
    }
}

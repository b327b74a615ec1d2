//! Incremental candidate-model computation (§V-B, Proposition 3).
//!
//! The adaptive sweep must produce `φ⁽ℓ⁾` for a whole grid of ℓ values per
//! tuple. Because neighbor prefixes nest (Formula 13), the incremental mode
//! keeps one [`GramAccumulator`] per tuple and absorbs only the `h` new
//! neighbors between consecutive grid points — `O(m²h + m³)` per model
//! instead of the from-scratch `O(m²ℓ + m³)` (Table III). The from-scratch
//! mode exists as the paper's "straightforward" comparator (Figures
//! 12–13); both modes produce identical models.
//!
//! [`ModelSweep`] is the readable form of one tuple's sweep, over a stored
//! prefix, one [`RidgeModel`] per grid point. The fitting path runs the
//! same arithmetic fused with prefix enumeration in
//! [`adaptive`](crate::adaptive); `ModelSweep` is the reference the
//! property tests hold it to.

use crate::learn::learn_one;
use iim_linalg::{GramAccumulator, RidgeModel};
use iim_neighbors::brute::FeatureMatrix;

/// The ℓ grid of the adaptive sweep: `{1, 1+h, 1+2h, …}` capped at
/// `min(n, ell_max)` (§V-A2, Example 5: `h = 3` over 8 tuples gives
/// `{1, 4, 7}`).
pub fn sweep_values(n: usize, step: usize, ell_max: Option<usize>) -> Vec<usize> {
    assert!(step >= 1, "stepping h must be at least 1");
    let cap = ell_max.map_or(n, |e| e.min(n)).max(1);
    (1..=cap).step_by(step).collect()
}

/// Produces the candidate models `φ⁽ℓ⁾` of one tuple for non-decreasing ℓ.
pub struct ModelSweep<'a> {
    fm: &'a FeatureMatrix,
    ys: &'a [f64],
    /// The tuple's sorted neighbor prefix (self first).
    prefix: &'a [u32],
    alpha: f64,
    /// `Some` in incremental mode, `None` re-learns from scratch.
    acc: Option<GramAccumulator>,
    absorbed: usize,
}

impl<'a> ModelSweep<'a> {
    /// Starts a sweep for the tuple whose neighbor prefix is `prefix`.
    pub fn new(
        fm: &'a FeatureMatrix,
        ys: &'a [f64],
        prefix: &'a [u32],
        alpha: f64,
        incremental: bool,
    ) -> Self {
        let acc = incremental.then(|| GramAccumulator::new(fm.n_features()));
        Self {
            fm,
            ys,
            prefix,
            alpha,
            acc,
            absorbed: 0,
        }
    }

    /// The model `φ⁽ℓ⁾`, or `None` when its ridge system has no finite
    /// solution. Panics if called with decreasing ℓ in incremental mode or
    /// with `ell` beyond the prefix length.
    pub fn model_at(&mut self, ell: usize) -> Option<RidgeModel> {
        assert!(
            ell >= 1 && ell <= self.prefix.len(),
            "ell {ell} out of range"
        );
        match &mut self.acc {
            Some(acc) => {
                assert!(
                    ell >= self.absorbed,
                    "incremental sweep requires non-decreasing ell"
                );
                // Absorb Formula 14's increment T^(ℓ+h) \ T^(ℓ).
                for &p in &self.prefix[self.absorbed..ell] {
                    acc.add_row(self.fm.point(p as usize), self.ys[p as usize]);
                }
                self.absorbed = ell;
                if ell == 1 {
                    // §III-A2 single-neighbor special case.
                    let own = self.prefix[0] as usize;
                    Some(RidgeModel::constant(self.ys[own], self.fm.n_features()))
                } else {
                    acc.solve(self.alpha)
                }
            }
            None => learn_one(self.fm, self.ys, self.prefix, ell, self.alpha),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iim_data::paper_fig1;
    use iim_neighbors::NeighborOrders;

    fn setup() -> (FeatureMatrix, Vec<f64>, NeighborOrders) {
        let (rel, _) = paper_fig1();
        let rows: Vec<u32> = (0..8).collect();
        let fm = FeatureMatrix::gather(&rel, &[0], &rows);
        let ys: Vec<f64> = (0..8).map(|i| rel.value(i, 1)).collect();
        let orders = NeighborOrders::build(&fm, 8);
        (fm, ys, orders)
    }

    #[test]
    fn sweep_values_grid() {
        assert_eq!(sweep_values(8, 1, None), vec![1, 2, 3, 4, 5, 6, 7, 8]);
        // Example 5: h = 3 considers {1, 4, 7}.
        assert_eq!(sweep_values(8, 3, None), vec![1, 4, 7]);
        assert_eq!(sweep_values(8, 3, Some(5)), vec![1, 4]);
        assert_eq!(sweep_values(3, 10, None), vec![1]);
        assert_eq!(sweep_values(10, 2, Some(100)), vec![1, 3, 5, 7, 9]);
    }

    #[test]
    #[should_panic(expected = "stepping h")]
    fn sweep_rejects_zero_step() {
        sweep_values(8, 0, None);
    }

    #[test]
    fn incremental_equals_scratch_on_every_ell() {
        let (fm, ys, orders) = setup();
        for tuple in 0..8 {
            let prefix = orders.neighbors_of(tuple);
            let mut inc = ModelSweep::new(&fm, &ys, prefix, 1e-9, true);
            let mut scratch = ModelSweep::new(&fm, &ys, prefix, 1e-9, false);
            for ell in 1..=8 {
                let a = inc.model_at(ell).unwrap();
                let b = scratch.model_at(ell).unwrap();
                for (x, y) in a.phi.iter().zip(&b.phi) {
                    assert!((x - y).abs() < 1e-7, "tuple {tuple} ell {ell}: {x} vs {y}");
                }
            }
        }
    }

    #[test]
    fn incremental_with_stepping_matches() {
        let (fm, ys, orders) = setup();
        let prefix = orders.neighbors_of(1);
        let mut inc = ModelSweep::new(&fm, &ys, prefix, 1e-9, true);
        for ell in [1usize, 4, 7] {
            let a = inc.model_at(ell).unwrap();
            let b = learn_one(&fm, &ys, prefix, ell, 1e-9).unwrap();
            for (x, y) in a.phi.iter().zip(&b.phi) {
                assert!((x - y).abs() < 1e-7);
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn incremental_rejects_backwards() {
        let (fm, ys, orders) = setup();
        let prefix = orders.neighbors_of(0);
        let mut sweep = ModelSweep::new(&fm, &ys, prefix, 1e-9, true);
        sweep.model_at(4);
        sweep.model_at(2);
    }

    #[test]
    fn ell_one_constant_in_both_modes() {
        let (fm, ys, orders) = setup();
        for incremental in [true, false] {
            let mut sweep = ModelSweep::new(&fm, &ys, orders.neighbors_of(2), 1e-9, incremental);
            let m = sweep.model_at(1).unwrap();
            assert_eq!(m.phi, vec![ys[2], 0.0]);
        }
    }
}

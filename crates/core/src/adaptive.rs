//! Adaptive learning (Algorithm 3): a per-tuple number of learning
//! neighbors, selected by validating candidate models on complete tuples.
//!
//! For every complete tuple `tᵢ`, the sweep learns candidate models
//! `φᵢ⁽ℓ⁾` over the ℓ grid and charges each model
//! `cost[i][ℓ] += (tⱼ[Am] − (1, tⱼ[F]) φᵢ⁽ℓ⁾)²` for every *validation*
//! tuple `tⱼ` that would consult `tᵢ`'s model — i.e. every `tⱼ` with
//! `tᵢ ∈ NN(tⱼ, F, k)`. The ℓ with minimal total cost wins (Lines 8–10).
//!
//! Following the paper's Example 4, the validation neighborhood excludes
//! `tⱼ` itself (`T₁ = {t₂, t₃, t₄}` for `t₁`), while *learning*
//! neighborhoods include the tuple (`ℓ = 1 ⇒ Tᵢ = {tᵢ}`, §III-A2).
//!
//! # Fused sweep
//!
//! The paper's §V-A1 precomputes every tuple's neighbors once. Here only
//! the validator orders (depth k + 1) are stored. Each tuple's learning
//! prefix `NN(tᵢ, F, ℓ_max)` is enumerated inside the per-tuple map
//! ([`Prefixes`]), into per-worker scratch, and the Gram sweep solves
//! every grid point in fixed buffers, keeping only the best φ; one
//! [`RidgeModel`] is built per tuple. An attribute's fit therefore holds
//! O(threads · n) of neighbor state rather than an n × ℓ_max matrix.
//!
//! The sweep is one generic loop over a Gram pair. For 1–8 features
//! (augmented width M = 2..=9: every paper analog, and both benchmark
//! workloads) the pair is `Fixed<M>`: the lower triangle of `U` and `V`
//! on stack arrays, solved by
//! [`solve_spd_regularized_fixed`],
//! so the per-row update, the Cholesky factor and the solves unroll at
//! compile time. Wider relations use the general [`GramAccumulator`] and
//! [`Matrix`] solve. Each tuple's validator rows and targets are gathered
//! once, and every grid point is priced over them with [`predict_phi`].
//! Incremental and from-scratch sweeps, with or without the cost table,
//! run the same loop; the width is the only selector.
//!
//! Either pair performs the floating-point operations of
//! [`ModelSweep`](crate::incremental::ModelSweep) over stored
//! [`NeighborOrders`], in the same order, so Φ and ℓ* are bitwise what
//! that reference computes (property-tested in `tests/adaptive_props.rs`
//! on both sides of the width dispatch).

use crate::config::AdaptiveConfig;
use crate::incremental::sweep_values;
use crate::learn::unsolvable;
use iim_data::ImputeError;
use iim_exec::Pool;
use iim_linalg::{
    predict_phi, solve_spd_regularized_fixed, solve_spd_regularized_into, GramAccumulator, Matrix,
    RidgeModel,
};
use iim_neighbors::{brute::FeatureMatrix, NeighborIndex, NeighborOrders, PrefixScratch, Prefixes};
use std::cell::Cell;

/// Result of adaptive learning.
#[derive(Debug, Clone)]
pub struct AdaptiveOutcome {
    /// The selected model `φᵢ` per tuple.
    pub models: Vec<RidgeModel>,
    /// The selected `ℓ*ᵢ` per tuple.
    pub chosen_ell: Vec<u32>,
    /// The ℓ grid that was swept.
    pub swept: Vec<usize>,
}

/// Runs Algorithm 3 over the points of `index` (the model's serving
/// index, whose tree also answers shallow prefix queries). See the module
/// docs for the cost definition.
///
/// * `k` — validation neighbor count (the same `k` as the imputation
///   phase, Algorithm 3 Line 4).
/// * `cfg.step` — stepping `h` (§V-A2).
/// * `cfg.incremental` — Proposition-3 Gram updates vs from-scratch
///   re-learning; identical output either way.
///
/// Fails with [`ImputeError::Unsupported`] when a candidate model's ridge
/// system cannot be solved, which takes values whose Gram sums overflow.
pub fn adaptive_learn(
    index: &NeighborIndex,
    ys: &[f64],
    k: usize,
    cfg: &AdaptiveConfig,
    alpha: f64,
    threads: usize,
) -> Result<AdaptiveOutcome, ImputeError> {
    let (outcome, _) = adaptive_learn_detailed(index, ys, k, cfg, alpha, threads, false)?;
    Ok(outcome)
}

/// [`adaptive_learn`] that can also return the full `cost[i][ℓ]` table
/// (flattened `n x |swept|`, row-major) for diagnostics and tests.
pub fn adaptive_learn_detailed(
    index: &NeighborIndex,
    ys: &[f64],
    k: usize,
    cfg: &AdaptiveConfig,
    alpha: f64,
    threads: usize,
    record_costs: bool,
) -> Result<(AdaptiveOutcome, Option<Vec<f64>>), ImputeError> {
    let fm = index.matrix();
    let n = fm.len();
    assert!(n > 0, "cannot learn from an empty relation");
    assert_eq!(ys.len(), n, "one target value per training tuple");
    assert!(k >= 1, "validation requires k >= 1");
    let swept = sweep_values(n, cfg.step, cfg.ell_max);
    let pool = Pool::new(threads);
    let validators = Validators::build(&pool, index, k, cfg.ell_max);
    let prefixes = Prefixes::new(index, *swept.last().expect("non-empty sweep"));
    let sweep = Sweep {
        fm,
        ys,
        swept: &swept,
        alpha,
        incremental: cfg.incremental,
        record_costs,
    };

    thread_local! {
        static SCRATCH: Cell<SweepScratch> = Cell::new(SweepScratch::default());
    }
    let results: Vec<Option<PerTuple>> = pool.parallel_map_indexed(n, |i| {
        iim_exec::with_tls_scratch(&SCRATCH, |scratch| {
            scratch.prefix.resize(prefixes.depth(), 0);
            prefixes.fill(i, &mut scratch.search, &mut scratch.prefix);
            sweep.run(validators.of(i), scratch)
        })
    });

    let mut models = Vec::with_capacity(n);
    let mut chosen = Vec::with_capacity(n);
    let mut table = record_costs.then(|| Vec::with_capacity(n * swept.len()));
    for (i, r) in results.into_iter().enumerate() {
        let Some(r) = r else {
            return Err(unsolvable(fm, i));
        };
        models.push(r.model);
        chosen.push(r.ell);
        if let (Some(t), Some(c)) = (table.as_mut(), r.costs) {
            t.extend(c);
        }
    }
    Ok((
        AdaptiveOutcome {
            models,
            chosen_ell: chosen,
            swept,
        },
        table,
    ))
}

/// Reverse validator map in CSR form: the validators of `i` are all `j`
/// with `i ∈ NN(tⱼ, F, k)`, self excluded (Example 4), listed by
/// ascending `j`. Tuples nobody consults fall back to self-validation so
/// their cost is still informative.
struct Validators {
    offsets: Vec<usize>,
    data: Vec<u32>,
}

impl Validators {
    /// Reads each tuple's validation neighbors from the first
    /// `max(ℓ_max, k)` entries of its order — the depth of the one order
    /// learning and validation share in §V-A1's precomputation — so a cap
    /// ℓ_max ≤ k leaves fewer than k validators per tuple.
    fn build(pool: &Pool, index: &NeighborIndex, k: usize, ell_max: Option<usize>) -> Self {
        let n = index.len();
        let k_eff = k.min(n - 1);
        let shared_depth = ell_max.map_or(n, |e| e.min(n)).max(k.min(n)).max(1);
        let orders = NeighborOrders::build_from_index(pool, index, shared_depth.min(k_eff + 1));
        let each_validated = |visit: &mut dyn FnMut(usize, u32)| {
            for j in 0..n {
                let mut taken = 0;
                for &p in orders.neighbors_of(j) {
                    if p as usize == j {
                        continue;
                    }
                    visit(p as usize, j as u32);
                    taken += 1;
                    if taken == k_eff {
                        break;
                    }
                }
            }
        };
        let mut counts = vec![0u32; n];
        each_validated(&mut |p, _| counts[p] += 1);
        // Rows nobody consults get one self-validation slot.
        let mut offsets = vec![0usize; n + 1];
        for i in 0..n {
            offsets[i + 1] = offsets[i] + (counts[i].max(1) as usize);
        }
        let mut data = vec![0u32; offsets[n]];
        for (i, &c) in counts.iter().enumerate() {
            if c == 0 {
                data[offsets[i]] = i as u32;
            }
        }
        let mut cursor: Vec<usize> = offsets[..n].to_vec();
        each_validated(&mut |p, j| {
            data[cursor[p]] = j;
            cursor[p] += 1;
        });
        Self { offsets, data }
    }

    fn of(&self, i: usize) -> &[u32] {
        &self.data[self.offsets[i]..self.offsets[i + 1]]
    }
}

/// Per-worker buffers of the sweep, reused across tuples: the learning
/// prefix and its search scratch, and the tuple's validator rows and
/// targets.
#[derive(Default)]
struct SweepScratch {
    prefix: Vec<u32>,
    search: PrefixScratch,
    val_x: Vec<f64>,
    val_y: Vec<f64>,
}

/// The selection of one tuple.
struct PerTuple {
    model: RidgeModel,
    ell: u32,
    costs: Option<Vec<f64>>,
}

/// What every tuple's sweep shares.
struct Sweep<'a> {
    fm: &'a FeatureMatrix,
    ys: &'a [f64],
    swept: &'a [usize],
    alpha: f64,
    incremental: bool,
    record_costs: bool,
}

/// One tuple's augmented Gram pair `(U, V)` and its ridge solve
/// (Formula 19), as the sweep drives it.
trait Gram {
    /// Storage of one φ.
    type Phi: AsRef<[f64]> + AsMut<[f64]> + Clone;
    /// The augmented width: features + 1.
    fn width(&self) -> usize;
    fn zero_phi(&self) -> Self::Phi;
    fn clear(&mut self);
    /// Absorbs one observation; `x` excludes the constant column.
    fn add_row(&mut self, x: &[f64], y: f64);
    /// Solves `(U + αE) φ = V` into `phi`; `false` when no shift does.
    fn solve(&mut self, alpha: f64, phi: &mut Self::Phi) -> bool;
}

/// The Gram pair at a compile-time augmented width `M` (1–8 features):
/// the lower triangle of `U`, which is all the solve reads, and `V`.
struct Fixed<const M: usize> {
    u: [[f64; M]; M],
    v: [f64; M],
}

impl<const M: usize> Fixed<M> {
    fn new() -> Self {
        Self {
            u: [[0.0; M]; M],
            v: [0.0; M],
        }
    }
}

impl<const M: usize> Gram for Fixed<M> {
    type Phi = [f64; M];

    fn width(&self) -> usize {
        M
    }

    fn zero_phi(&self) -> [f64; M] {
        [0.0; M]
    }

    fn clear(&mut self) {
        *self = Self::new();
    }

    /// Adds what [`accumulate_augmented`](iim_linalg::ridge::accumulate_augmented)
    /// adds to the lower triangle and to `V` at weight 1, where each
    /// product with the weight is exact.
    #[inline(always)]
    fn add_row(&mut self, x: &[f64], y: f64) {
        let x = &x[..M - 1];
        self.u[0][0] += 1.0;
        for j in 1..M {
            let xj = x[j - 1];
            self.u[j][0] += xj;
            for k in j..M {
                self.u[k][j] += xj * x[k - 1];
            }
        }
        self.v[0] += y;
        for j in 1..M {
            self.v[j] += y * x[j - 1];
        }
    }

    fn solve(&mut self, alpha: f64, phi: &mut [f64; M]) -> bool {
        solve_spd_regularized_fixed(&self.u, &self.v, alpha, phi)
    }
}

/// The Gram pair of a relation with more than 8 features.
struct Wide {
    acc: GramAccumulator,
    factor: Matrix,
}

impl Wide {
    fn new(n_features: usize) -> Self {
        let m = n_features + 1;
        Self {
            acc: GramAccumulator::new(n_features),
            factor: Matrix::zeros(m, m),
        }
    }
}

impl Gram for Wide {
    type Phi = Vec<f64>;

    fn width(&self) -> usize {
        self.acc.v().len()
    }

    fn zero_phi(&self) -> Vec<f64> {
        vec![0.0; self.width()]
    }

    fn clear(&mut self) {
        self.acc.clear();
    }

    fn add_row(&mut self, x: &[f64], y: f64) {
        self.acc.add_row(x, y);
    }

    fn solve(&mut self, alpha: f64, phi: &mut Vec<f64>) -> bool {
        solve_spd_regularized_into(self.acc.u(), self.acc.v(), alpha, &mut self.factor, phi)
    }
}

impl Sweep<'_> {
    /// Sweeps the ℓ grid over the prefix in `s.prefix`, charging each
    /// candidate model against `validators`. `None` when a ridge solve
    /// fails.
    ///
    /// The validators' rows and targets are gathered once; the Gram pair
    /// is [`Fixed`] at the relation's width up to 8 features, [`Wide`]
    /// beyond.
    fn run(&self, validators: &[u32], s: &mut SweepScratch) -> Option<PerTuple> {
        let q = self.fm.n_features();
        s.val_x.clear();
        s.val_y.clear();
        for &j in validators {
            s.val_x.extend_from_slice(self.fm.point(j as usize));
            s.val_y.push(self.ys[j as usize]);
        }
        let t = (&s.prefix[..], &s.val_x[..], &s.val_y[..]);
        match q + 1 {
            2 => self.sweep(&mut Fixed::<2>::new(), t),
            3 => self.sweep(&mut Fixed::<3>::new(), t),
            4 => self.sweep(&mut Fixed::<4>::new(), t),
            5 => self.sweep(&mut Fixed::<5>::new(), t),
            6 => self.sweep(&mut Fixed::<6>::new(), t),
            7 => self.sweep(&mut Fixed::<7>::new(), t),
            8 => self.sweep(&mut Fixed::<8>::new(), t),
            9 => self.sweep(&mut Fixed::<9>::new(), t),
            _ => self.sweep(&mut Wide::new(q), t),
        }
    }

    /// The sweep of one tuple over an empty Gram pair `g`: its learning
    /// prefix, and its validators' gathered rows and targets.
    fn sweep<G: Gram>(
        &self,
        g: &mut G,
        (prefix, val_x, val_y): (&[u32], &[f64], &[f64]),
    ) -> Option<PerTuple> {
        let (fm, ys) = (self.fm, self.ys);
        let mut phi = g.zero_phi();
        let mut best_phi = g.zero_phi();
        let mut absorbed = 0;
        let mut best: Option<(f64, usize)> = None;
        let mut costs = self
            .record_costs
            .then(|| Vec::with_capacity(self.swept.len()));
        for &ell in self.swept {
            if ell == 1 {
                // §III-A2 single-neighbor special case: the constant model.
                let p = phi.as_mut();
                p.fill(0.0);
                p[0] = ys[prefix[0] as usize];
            } else {
                // Incremental: absorb Formula 14's increment T^(ℓ+h) \ T^(ℓ).
                // Straightforward: re-accumulate the whole prefix.
                if !self.incremental {
                    g.clear();
                    absorbed = 0;
                }
                for &p in &prefix[absorbed..ell] {
                    g.add_row(fm.point(p as usize), ys[p as usize]);
                }
                absorbed = ell;
                if !g.solve(self.alpha, &mut phi) {
                    return None;
                }
            }
            let mut cost = 0.0;
            for (x, &y) in val_x.chunks_exact(g.width() - 1).zip(val_y) {
                let err = y - predict_phi(phi.as_ref(), x);
                cost += err * err;
            }
            if let Some(c) = costs.as_mut() {
                c.push(cost);
            }
            // Strict '<' keeps the smallest ℓ on ties, matching the
            // argmin-in-order semantics of Line 9.
            if best.is_none_or(|(b, _)| cost < b) {
                best = Some((cost, ell));
                best_phi.clone_from(&phi);
            }
        }
        let (_, ell) = best.expect("sweep is non-empty");
        Some(PerTuple {
            model: RidgeModel {
                phi: best_phi.as_ref().to_vec().into(),
            },
            ell: ell as u32,
            costs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iim_data::paper_fig1;
    use iim_neighbors::IndexChoice;

    fn setup() -> (NeighborIndex, Vec<f64>) {
        let (rel, _) = paper_fig1();
        let rows: Vec<u32> = (0..8).collect();
        let fm = FeatureMatrix::gather(&rel, &[0], &rows);
        let ys: Vec<f64> = (0..8).map(|i| rel.value(i, 1)).collect();
        (NeighborIndex::build(fm, IndexChoice::Auto), ys)
    }

    #[test]
    fn paper_example_4_cost_table_and_selection() {
        // Example 4 (k = 3): t2's aggregated costs over ℓ = 1..8 are
        // {3.73, 3.67, 0.31, 0.09, 1.47, 2.36, 3.03, 3.65}; ℓ*₂ = 4 and
        // φ₂ = (5.56, -0.87).
        //
        // We pin the *exact-arithmetic* values, hand-verified for ℓ ≤ 4
        // (e.g. ℓ = 2: the line through (0.8, 4.6), (0, 5.8) is exactly
        // y = 5.8 - 1.5x, giving 0 + 0.85² + 1.75² = 3.785). The paper's
        // table matches to its display rounding for ℓ ≥ 3; its ℓ = 1 entry
        // (3.73) corresponds to a dataset-mean constant model whereas
        // §III-A2 prescribes φ[C] = t₂[A2] = 4.6 (cost 4.04) — either way
        // ℓ = 1 loses by an order of magnitude and the selection is
        // unaffected.
        let (index, ys) = setup();
        let cfg = AdaptiveConfig {
            step: 1,
            ell_max: None,
            incremental: true,
            ..AdaptiveConfig::default()
        };
        let (outcome, costs) =
            adaptive_learn_detailed(&index, &ys, 3, &cfg, 1e-9, 1, true).unwrap();
        let costs = costs.expect("recorded");
        let t2 = &costs[8..16]; // tuple index 1, 8 sweep points
        let exact = [4.04, 3.785, 0.3124, 0.0919, 1.4723, 2.3559, 3.0334, 3.6487];
        for (ell0, (got, want)) in t2.iter().zip(&exact).enumerate() {
            assert!(
                (got - want).abs() < 0.005,
                "cost[2][{}]: got {got}, want {want}",
                ell0 + 1
            );
        }
        // Paper's published (rounded) values stay within 0.15 for ℓ ≥ 3.
        let paper = [0.31, 0.09, 1.47, 2.36, 3.03, 3.65];
        for (got, want) in t2[2..].iter().zip(&paper) {
            assert!((got - want).abs() < 0.15);
        }
        assert_eq!(outcome.chosen_ell[1], 4, "ℓ*₂");
        assert!((outcome.models[1].phi[0] - 5.56).abs() < 0.01);
        assert!((outcome.models[1].phi[1] + 0.87).abs() < 0.01);
    }

    #[test]
    fn paper_example_5_stepping() {
        // h = 3 considers ℓ ∈ {1, 4, 7}; t2 still selects ℓ = 4 with
        // φ₂ = (5.56, -0.87).
        let (index, ys) = setup();
        let cfg = AdaptiveConfig {
            step: 3,
            ell_max: None,
            incremental: true,
            ..AdaptiveConfig::default()
        };
        let (outcome, costs) =
            adaptive_learn_detailed(&index, &ys, 3, &cfg, 1e-9, 1, true).unwrap();
        assert_eq!(outcome.swept, vec![1, 4, 7]);
        let t2 = &costs.unwrap()[3..6];
        assert!((t2[1] - 0.0919).abs() < 0.005, "cost[2][4] {}", t2[1]);
        assert!((t2[2] - 3.0334).abs() < 0.005, "cost[2][7] {}", t2[2]);
        assert_eq!(outcome.chosen_ell[1], 4);
        assert!((outcome.models[1].phi[0] - 5.56).abs() < 0.01);
    }

    #[test]
    fn incremental_and_straightforward_agree() {
        let (index, ys) = setup();
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
            let a = adaptive_learn(&index, &ys, 3, &inc, 1e-9, 1).unwrap();
            let b = adaptive_learn(&index, &ys, 3, &scr, 1e-9, 1).unwrap();
            assert_eq!(a.chosen_ell, b.chosen_ell, "step {step}");
            for (x, y) in a.models.iter().zip(&b.models) {
                for (p, q) in x.phi.iter().zip(&y.phi) {
                    assert!((p - q).abs() < 1e-7);
                }
            }
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let (index, ys) = setup();
        let cfg = AdaptiveConfig::default();
        let a = adaptive_learn(&index, &ys, 3, &cfg, 1e-9, 1).unwrap();
        let b = adaptive_learn(&index, &ys, 3, &cfg, 1e-9, 4).unwrap();
        assert_eq!(a.chosen_ell, b.chosen_ell);
    }

    #[test]
    fn ell_max_caps_sweep() {
        let (index, ys) = setup();
        let cfg = AdaptiveConfig {
            step: 1,
            ell_max: Some(3),
            incremental: true,
            ..AdaptiveConfig::default()
        };
        let out = adaptive_learn(&index, &ys, 3, &cfg, 1e-9, 1).unwrap();
        assert_eq!(out.swept, vec![1, 2, 3]);
        assert!(out.chosen_ell.iter().all(|&l| l <= 3));
    }

    #[test]
    fn singleton_relation_falls_back_to_self_validation() {
        let fm = FeatureMatrix::from_dense(1, vec![0], vec![2.0]);
        let ys = vec![5.0];
        let index = NeighborIndex::build(fm, IndexChoice::Auto);
        let cfg = AdaptiveConfig::default();
        let out = adaptive_learn(&index, &ys, 3, &cfg, 1e-6, 1).unwrap();
        assert_eq!(out.models.len(), 1);
        assert_eq!(out.chosen_ell[0], 1);
        assert_eq!(out.models[0].predict(&[2.0]), 5.0);
    }

    #[test]
    fn cost_ties_keep_the_smallest_ell() {
        // All-zero targets make every candidate model exactly φ = 0, so
        // every grid point costs exactly 0: Line 9's argmin keeps ℓ = 1.
        let (index, ys) = setup();
        let zeros = vec![0.0; ys.len()];
        for incremental in [true, false] {
            let cfg = AdaptiveConfig {
                incremental,
                ..AdaptiveConfig::default()
            };
            let out = adaptive_learn(&index, &zeros, 3, &cfg, 1e-9, 1).unwrap();
            assert_eq!(out.chosen_ell, vec![1; 8]);
        }
    }

    #[test]
    fn overflowing_gram_system_is_an_error_in_both_modes() {
        // One 1e200 feature value overflows every Gram sum it enters; the
        // sweep reports the failed solve instead of panicking.
        let xs = [0.0, 1.0, 2.0, 1e200, 4.0, 5.0];
        let fm = FeatureMatrix::from_dense(1, (10..16).collect::<Vec<u32>>(), xs.to_vec());
        let ys: Vec<f64> = xs.iter().map(|x| 2.0 * x + 1.0).collect();
        let index = NeighborIndex::build(fm, IndexChoice::Auto);
        for incremental in [true, false] {
            let cfg = AdaptiveConfig {
                incremental,
                ..AdaptiveConfig::default()
            };
            for threads in [1, 4] {
                match adaptive_learn(&index, &ys, 3, &cfg, 1e-6, threads) {
                    Err(ImputeError::Unsupported(why)) => {
                        assert!(why.contains("training row 10"), "{why}")
                    }
                    other => panic!("expected a typed error, got {other:?}"),
                }
            }
        }
    }
}

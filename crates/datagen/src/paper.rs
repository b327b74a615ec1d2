//! The nine named dataset analogs (Table IV), calibrated on the paper's
//! published (R²_S, R²_H) coefficients. See the module docs of
//! [`crate`] for why analogs stand in for the paper's data files.
//!
//! Published profiles (Table V, §VI-A1):
//!
//! | Dataset | n | m | R²_S | R²_H | property |
//! |---|---|---|---|---|---|
//! | ASF   | 1.5k | 6 | 0.85 | 0.73 | no clear global regression |
//! | CCS   | 1k   | 6 | 0.63 | 0.56 | |
//! | CCPP  | 10k  | 5 | 0.95 | 0.93 | |
//! | SN    | 100k | 2 | 0.79 | 0.05 | |
//! | PHASE | 10k  | 4 | 0.90 | 0.91 | a clear global regression |
//! | CA    | 20k  | 9 | 0.03 | 0.90 | sparse with high dimension |
//! | DA    | 7k   | 6 | 0.65 | 0.68 | |
//! | MAM   | 1k   | 5 | —    | —    | real missing, no truth |
//! | HEP   | 200  | 19| —    | —    | real missing, no truth |
//!
//! Calibration is asserted by the workspace integration tests
//! (`tests/datagen_profiles.rs`) within tolerance bands; `paper profiles`
//! (the `iim-bench` `paper` binary, README "Experiments") prints the
//! measured coefficients next to the paper's.

use crate::manifold::{latent_manifold, ManifoldSpec};
use crate::sampling::normal;
use iim_data::{Relation, Schema};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A classification dataset: features (with MCAR missing cells) + labels.
#[derive(Debug, Clone)]
pub struct LabeledDataset {
    /// Feature relation; missing cells carry no ground truth (as in the
    /// paper's MAM/HEP).
    pub relation: Relation,
    /// Class label per tuple.
    pub labels: Vec<u32>,
}

/// ASF analog: 1.5k x 6, heterogeneous ("no clear global regression"),
/// R²_S ≈ 0.85, R²_H ≈ 0.73.
///
/// Five segments over six attributes: 10 affine constraints against 6
/// regression unknowns, so no global linear model can absorb the piecewise
/// structure, while neighbors (low noise) still share values.
pub fn asf_like(n: usize, seed: u64) -> Relation {
    latent_manifold(
        &ManifoldSpec {
            n,
            m: 6,
            latent_dim: 3,
            linear: 0.70,
            curve: 0.29,
            noise: 0.01,
            feature_curve: 0.06,
            feature_noise: 0.02,
        },
        seed ^ 0xA5F,
    )
}

/// CCS analog: 1k x 6, moderate sparsity and heterogeneity
/// (R²_S ≈ 0.63, R²_H ≈ 0.56): two gentle segments buried in heavy noise,
/// so neither neighbors nor the global model are very reliable.
pub fn ccs_like(n: usize, seed: u64) -> Relation {
    latent_manifold(
        &ManifoldSpec {
            n,
            m: 6,
            latent_dim: 4,
            linear: 0.60,
            curve: 0.20,
            noise: 0.20,
            feature_curve: 0.06,
            feature_noise: 0.06,
        },
        seed ^ 0xCC5,
    )
}

/// CCPP analog: 10k x 5, nearly clean global regression
/// (R²_S ≈ 0.95, R²_H ≈ 0.93): one segment, small noise.
///
/// Calibrated at n = 4000 to measured (0.958, 0.920); `latent_dim = 3`
/// keeps neighbors dense enough that the paper's near-clean R²_S holds at
/// test sizes (d = 4 pushed the kNN radius too wide and dragged the
/// measured R²_S to ≈ 0.84).
pub fn ccpp_like(n: usize, seed: u64) -> Relation {
    latent_manifold(
        &ManifoldSpec {
            n,
            m: 5,
            latent_dim: 3,
            linear: 0.96,
            curve: 0.02,
            noise: 0.02,
            feature_curve: 0.01,
            feature_noise: 0.01,
        },
        seed ^ 0xCCB,
    )
}

/// PHASE analog: 10k x 4, "a clear global regression"
/// (R²_S ≈ 0.90, R²_H ≈ 0.91) — three-phase electric power readings are
/// near-perfect linear combinations of each other.
pub fn phase_like(n: usize, seed: u64) -> Relation {
    latent_manifold(
        &ManifoldSpec {
            n,
            m: 4,
            latent_dim: 3,
            linear: 0.93,
            curve: 0.0,
            noise: 0.07,
            feature_curve: 0.0,
            feature_noise: 0.05,
        },
        seed ^ 0xFA5E,
    )
}

/// SN analog: 100k x 2, oscillating response — dense neighbors agree
/// (R²_S ≈ 0.79) while the global line captures nothing (R²_H ≈ 0.05).
pub fn sn_like(n: usize, seed: u64) -> Relation {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5A);
    let mut rel = Relation::with_capacity(Schema::anonymous(2), n);
    for _ in 0..n {
        let x: f64 = rng.gen_range(0.0..100.0);
        // Many full periods across the domain leave a flat global line;
        // the noise level sets R²_S.
        let y = 3.0 * (x * 0.45).sin() + normal(&mut rng);
        rel.push_row(&[x, y]);
    }
    rel
}

/// CA analog: 20k x 9, "sparse with high dimension" — a strong global
/// regression on the default target (R²_H ≈ 0.90) whose raw-scale distance
/// is dominated by large nuisance attributes, so nearest neighbors share
/// nothing about the target (R²_S ≈ 0.03). This is the mechanism of the
/// real CA (California-housing-style) data: unscaled population-sized
/// attributes swamp the income-sized ones that actually predict the value.
pub fn ca_like(n: usize, seed: u64) -> Relation {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xCA);
    let m = 9usize;
    // Two independent latent factors: w drives the six large-scale
    // attributes (A1..A6), u drives the two helper attributes (A7, A8) and
    // the target (A9). Every attribute is linearly recoverable from its
    // factor's siblings (high R²_H for any target), but Euclidean distance
    // only sees w.
    let beta: Vec<f64> = (0..6).map(|_| rng.gen_range(0.5..2.0)).collect();
    let gamma: Vec<f64> = (0..2).map(|_| rng.gen_range(0.8..1.5)).collect();
    let mut rel = Relation::with_capacity(Schema::anonymous(m), n);
    let mut row = vec![0.0; m];
    for _ in 0..n {
        let w: f64 = rng.gen_range(0.0..1.0);
        let u: f64 = rng.gen_range(0.0..1.0);
        for (j, b) in beta.iter().enumerate() {
            row[j] = 100.0 * (b * w + 0.02 * normal(&mut rng));
        }
        for (j, g) in gamma.iter().enumerate() {
            row[6 + j] = g * u + 0.02 * normal(&mut rng);
        }
        row[8] = 2.0 * u + 0.18 * normal(&mut rng);
        rel.push_row(&row);
    }
    rel
}

/// DA analog: 7k x 6, moderate profile (R²_S ≈ 0.65, R²_H ≈ 0.68): one
/// segment with heavy noise.
pub fn da_like(n: usize, seed: u64) -> Relation {
    latent_manifold(
        &ManifoldSpec {
            n,
            m: 6,
            latent_dim: 5,
            linear: 0.74,
            curve: 0.14,
            noise: 0.12,
            feature_curve: 0.03,
            feature_noise: 0.03,
        },
        seed ^ 0xDA,
    )
}

/// MAM analog: 1k x 5 with binary labels and ~10% MCAR missing cells
/// (mammographic-mass style: overlapping class-conditional Gaussians).
pub fn mam_like(n: usize, seed: u64) -> LabeledDataset {
    labeled_gaussian(n, 5, 0.10, 1.6, seed ^ 0x3A3)
}

/// HEP analog: 200 x 19 with binary labels (imbalanced) and ~12% MCAR
/// missing cells (hepatitis style: small, wide, incomplete).
pub fn hep_like(n: usize, seed: u64) -> LabeledDataset {
    let mut ds = labeled_gaussian(n, 19, 0.12, 1.2, seed ^ 0x4E7);
    // Skew the class balance toward the majority class like hepatitis'
    // live/die split: relabel ~60% of class-1 tuples whose first feature
    // sits near the boundary.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4E8);
    for l in ds.labels.iter_mut() {
        if *l == 1 && rng.gen_bool(0.5) {
            *l = 0;
        }
    }
    ds
}

/// Two overlapping class-conditional Gaussians over `m` features with an
/// MCAR missing fraction.
///
/// Features share a per-tuple latent factor, so they are correlated within
/// a class: a missing cell is *reconstructible* from the others, which is
/// what lets imputation quality propagate into classification F1 (the
/// Table VII mechanism). Without the factor, features are conditionally
/// independent and every imputer scores the same.
fn labeled_gaussian(
    n: usize,
    m: usize,
    missing_frac: f64,
    separation: f64,
    seed: u64,
) -> LabeledDataset {
    let mut rng = StdRng::seed_from_u64(seed);
    // Class means differ along a random direction of length `separation`.
    let dir: Vec<f64> = (0..m).map(|_| normal(&mut rng)).collect();
    let norm = dir.iter().map(|d| d * d).sum::<f64>().sqrt().max(1e-9);
    let offset: Vec<f64> = dir.iter().map(|d| d / norm * separation).collect();
    // Within-class factor loadings (shared latent severity/size factor).
    let loading: Vec<f64> = (0..m).map(|_| 0.6 + 0.6 * rng.gen::<f64>()).collect();

    let mut rel = Relation::with_capacity(Schema::anonymous(m), n);
    let mut labels = Vec::with_capacity(n);
    let mut row: Vec<Option<f64>> = vec![None; m];
    for _ in 0..n {
        let label = rng.gen_range(0..2u32);
        let factor = normal(&mut rng);
        for (j, slot) in row.iter_mut().enumerate() {
            let mean = if label == 1 { offset[j] } else { 0.0 };
            let v = mean + loading[j] * factor + 0.45 * normal(&mut rng);
            *slot = if rng.gen_bool(missing_frac) {
                None
            } else {
                Some(v)
            };
        }
        // Guarantee at least one present feature per tuple.
        if row.iter().all(Option::is_none) {
            row[0] = Some(normal(&mut rng));
        }
        rel.push_row_opt(&row);
        labels.push(label);
    }
    LabeledDataset {
        relation: rel,
        labels,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_match_table_iv() {
        assert_eq!(asf_like(1500, 0).arity(), 6);
        assert_eq!(ccs_like(1000, 0).arity(), 6);
        assert_eq!(ccpp_like(500, 0).arity(), 5);
        assert_eq!(sn_like(500, 0).arity(), 2);
        assert_eq!(phase_like(500, 0).arity(), 4);
        assert_eq!(ca_like(500, 0).arity(), 9);
        assert_eq!(da_like(500, 0).arity(), 6);
        let mam = mam_like(300, 0);
        assert_eq!(mam.relation.arity(), 5);
        assert_eq!(mam.labels.len(), 300);
        let hep = hep_like(200, 0);
        assert_eq!(hep.relation.arity(), 19);
        assert_eq!(hep.relation.n_rows(), 200);
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(asf_like(100, 5), asf_like(100, 5));
        assert_ne!(asf_like(100, 5), asf_like(100, 6));
        let a = mam_like(100, 2);
        let b = mam_like(100, 2);
        assert_eq!(a.relation, b.relation);
        assert_eq!(a.labels, b.labels);
    }

    #[test]
    fn regression_datasets_are_complete() {
        for rel in [
            asf_like(200, 1),
            ccs_like(200, 1),
            ccpp_like(200, 1),
            sn_like(200, 1),
            phase_like(200, 1),
            ca_like(200, 1),
            da_like(200, 1),
        ] {
            assert_eq!(rel.missing_count(), 0);
        }
    }

    #[test]
    fn labeled_datasets_have_real_missing() {
        let mam = mam_like(1000, 3);
        let frac = mam.relation.missing_count() as f64 / (1000.0 * mam.relation.arity() as f64);
        assert!(frac > 0.06 && frac < 0.14, "MAM missing fraction {frac}");
        let hep = hep_like(200, 3);
        assert!(hep.relation.missing_count() > 0);
        // Labels are binary and both classes occur.
        assert!(mam.labels.contains(&0));
        assert!(mam.labels.contains(&1));
        // HEP is imbalanced toward class 0.
        let ones = hep.labels.iter().filter(|&&l| l == 1).count();
        assert!(ones * 2 < hep.labels.len(), "HEP minority class {ones}");
    }

    #[test]
    fn classes_are_separable_in_expectation() {
        let mam = mam_like(2000, 7);
        // Project onto each feature: class means must differ somewhere.
        let m = mam.relation.arity();
        let mut max_gap: f64 = 0.0;
        for j in 0..m {
            let mut sums = [0.0f64; 2];
            let mut counts = [0usize; 2];
            for i in 0..2000 {
                if let Some(v) = mam.relation.get(i, j) {
                    let l = mam.labels[i] as usize;
                    sums[l] += v;
                    counts[l] += 1;
                }
            }
            let gap = (sums[0] / counts[0] as f64 - sums[1] / counts[1] as f64).abs();
            max_gap = max_gap.max(gap);
        }
        assert!(max_gap > 0.4, "classes overlap too much: {max_gap}");
    }
}

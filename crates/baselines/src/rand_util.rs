//! Small sampling helpers on top of `rand` (the workspace avoids a
//! `rand_distr` dependency: `vendor/` stands in for `rand` alone).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One standard normal deviate via Box–Muller.
pub fn normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Guard u1 away from 0 so ln() stays finite.
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// A χ²(df) deviate as a sum of squared standard normals.
///
/// `df` in this workspace is a residual degree-of-freedom (≤ n), so the
/// O(df) construction is cheap and avoids a gamma sampler.
pub fn chi_square<R: Rng + ?Sized>(rng: &mut R, df: usize) -> f64 {
    assert!(df >= 1, "chi-square needs df >= 1");
    (0..df)
        .map(|_| {
            let z = normal(rng);
            z * z
        })
        .sum::<f64>()
        .max(1e-12)
}

/// SplitMix64 finalizer — a cheap, well-mixed u64 → u64 hash.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic per-query RNG for stochastic predictors (BLR's ε-noise,
/// PMM's donor pick).
///
/// A fitted model must answer the same query with the same value no matter
/// the call order or batching — the serving contract behind
/// `FittedImputer` — so per-query randomness is keyed by the query's bit
/// pattern instead of drawn from a shared mutable stream.
pub fn query_rng(seed: u64, x: &[f64]) -> StdRng {
    let mut h = seed ^ (x.len() as u64).wrapping_mul(0xA076_1D64_78BD_642F);
    for v in x {
        h = splitmix64(h ^ v.to_bits());
    }
    StdRng::seed_from_u64(splitmix64(h))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_rng_is_a_pure_function_of_seed_and_query() {
        let a: f64 = query_rng(7, &[1.0, 2.0]).gen();
        let b: f64 = query_rng(7, &[1.0, 2.0]).gen();
        assert_eq!(a, b);
        let c: f64 = query_rng(8, &[1.0, 2.0]).gen();
        let d: f64 = query_rng(7, &[1.0, 2.1]).gen();
        assert_ne!(a, c, "seed must matter");
        assert_ne!(a, d, "query must matter");
    }

    #[test]
    fn normal_moments() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 50_000;
        let xs: Vec<f64> = (0..n).map(|_| normal(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn chi_square_mean_is_df() {
        let mut rng = StdRng::seed_from_u64(2);
        let df = 10;
        let n = 5_000;
        let mean = (0..n).map(|_| chi_square(&mut rng, df)).sum::<f64>() / n as f64;
        assert!((mean - df as f64).abs() < 0.5, "mean {mean}");
    }

    #[test]
    fn chi_square_positive() {
        let mut rng = StdRng::seed_from_u64(3);
        for df in [1, 2, 100] {
            assert!(chi_square(&mut rng, df) > 0.0);
        }
    }
}

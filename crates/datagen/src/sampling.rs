//! Seeded sampling helpers (Box–Muller normals; the workspace takes no
//! `rand_distr` dependency).

use rand::Rng;

/// One standard normal deviate.
pub fn normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// A normal deviate with the given mean and standard deviation.
pub fn normal_with<R: Rng + ?Sized>(rng: &mut R, mean: f64, std: f64) -> f64 {
    mean + std * normal(rng)
}

/// A heavy-tailed positive deviate: `exp(σ·Z)` (log-normal, median 1).
///
/// Used to spread features so nearest neighbors stop sharing values — the
/// CA dataset's sparsity regime.
pub fn log_normal<R: Rng + ?Sized>(rng: &mut R, sigma: f64) -> f64 {
    (sigma * normal(rng)).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn normal_with_scales() {
        let mut rng = StdRng::seed_from_u64(8);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| normal_with(&mut rng, 5.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.06);
        assert!((var - 4.0).abs() < 0.2);
    }

    #[test]
    fn log_normal_is_positive_and_heavy_tailed() {
        let mut rng = StdRng::seed_from_u64(9);
        let xs: Vec<f64> = (0..10_000).map(|_| log_normal(&mut rng, 1.0)).collect();
        assert!(xs.iter().all(|&x| x > 0.0));
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let mut sorted = xs.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let median = sorted[xs.len() / 2];
        assert!(
            mean > median * 1.3,
            "heavy tail: mean {mean} vs median {median}"
        );
    }
}

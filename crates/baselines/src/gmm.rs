//! GMM \[40\]: Gaussian-mixture imputation. An EM-fitted mixture over the
//! joint `(F, Am)` space imputes `Am` as the posterior-weighted conditional
//! mean `E[Am | F]` — per-cluster averages smoothed by membership, the
//! "cluster average" tuple model of Table II.

use iim_data::{AttrEstimator, AttrPredictor, AttrTask, ImputeError, Relation, Schema};
use iim_linalg::{LuFactors, Matrix};
use iim_ml::kmeans_with_init;

/// The GMM baseline.
#[derive(Debug, Clone, Copy)]
pub struct Gmm {
    /// Number of mixture components.
    pub components: usize,
    /// EM iteration cap.
    pub max_iter: usize,
    /// Log-likelihood convergence tolerance.
    pub tol: f64,
}

impl Default for Gmm {
    fn default() -> Self {
        Self {
            components: 3,
            max_iter: 60,
            tol: 1e-6,
        }
    }
}

impl Gmm {
    /// GMM with `c` components.
    pub fn new(c: usize) -> Self {
        Self {
            components: c.max(1),
            ..Self::default()
        }
    }
}

/// One fitted component, pre-factored for fast conditionals. Public
/// fields so the snapshot layer can round-trip it.
pub struct Component {
    /// Mixture weight.
    pub weight: f64,
    /// Mean over features (length f).
    pub mu_f: Vec<f64>,
    /// The target mean.
    pub mu_y: f64,
    /// LU of Σ_FF for marginal densities.
    pub lu_ff: LuFactors,
    /// `ln |det Σ_FF|`, clamped away from −∞.
    pub log_det_ff: f64,
    /// Regression vector Σ_FF⁻¹ Σ_Fy for the conditional mean.
    pub beta: Vec<f64>,
}

/// The fitted state: the EM-converged mixture components over the joint
/// `(F, y)` space. Public fields so the snapshot layer can round-trip it.
pub struct GmmModel {
    /// The fitted components.
    pub comps: Vec<Component>,
    /// Feature dimensionality `|F|`.
    pub f: usize,
    /// Global fallback when every marginal underflows.
    pub global_mean_y: f64,
}

impl GmmModel {
    fn log_marginal(&self, c: &Component, x: &[f64]) -> f64 {
        // log N(x; μ_F, Σ_FF)
        let diff: Vec<f64> = x.iter().zip(&c.mu_f).map(|(a, b)| a - b).collect();
        let solved = c.lu_ff.solve(&diff);
        let mahal: f64 = diff.iter().zip(&solved).map(|(a, b)| a * b).sum();
        -0.5 * (mahal + c.log_det_ff + self.f as f64 * (2.0 * std::f64::consts::PI).ln())
    }
}

impl AttrPredictor for GmmModel {
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn predict(&self, x: &[f64]) -> f64 {
        // Posterior responsibilities on the marginal over F, in log space.
        let logs: Vec<f64> = self
            .comps
            .iter()
            .map(|c| c.weight.max(1e-300).ln() + self.log_marginal(c, x))
            .collect();
        let max = logs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        if !max.is_finite() {
            return self.global_mean_y;
        }
        let mut zsum = 0.0;
        let mut acc = 0.0;
        for (c, &lg) in self.comps.iter().zip(&logs) {
            let w = (lg - max).exp();
            // E[y | x, c] = μ_y + (x − μ_F)ᵀ β
            let cond: f64 = c.mu_y
                + x.iter()
                    .zip(&c.mu_f)
                    .zip(&c.beta)
                    .map(|((a, m), b)| (a - m) * b)
                    .sum::<f64>();
            zsum += w;
            acc += w * cond;
        }
        acc / zsum
    }
}

impl AttrEstimator for Gmm {
    fn name(&self) -> &str {
        "GMM"
    }

    fn fit(&self, task: &AttrTask<'_>) -> Result<Box<dyn AttrPredictor>, ImputeError> {
        if task.n_train() == 0 {
            return Err(ImputeError::NoTrainingData {
                target: task.target,
            });
        }
        let (xs, ys) = task.training_matrix();
        let n = xs.len();
        let f = task.features.len();
        let d = f + 1; // joint (F, y) dimension
        let c = self.components.min(n);

        // Joint data matrix.
        let mut data = Matrix::zeros(n, d);
        for i in 0..n {
            for j in 0..f {
                data[(i, j)] = xs[i][j];
            }
            data[(i, f)] = ys[i];
        }

        // The ridge keeps every covariance of finite data invertible, so an
        // LU failure means sums that overflowed.
        let singular = || {
            ImputeError::Unsupported(
                "GMM: a component covariance overflows and cannot be factored".into(),
            )
        };

        // Init: deterministic k-means on standardized joint coordinates
        // (stride-pick seeds, a few Lloyd iterations), then per-cluster
        // moments. Row-order independent up to the seed picks. Starting
        // every component from the shared global covariance instead makes
        // the responsibilities nearly uniform on well-separated clusters —
        // EM then collapses all components onto the global regression and
        // the mixture degenerates to GLR.
        let global_cov = covariance(&data);
        let ridge = 1e-6 * (0..d).map(|j| global_cov[(j, j)]).sum::<f64>().max(1e-9) / d as f64;
        let inv_std: Vec<f64> = (0..d)
            .map(|j| 1.0 / global_cov[(j, j)].sqrt().max(1e-12))
            .collect();
        let assign = kmeans_assign(&data, c, &inv_std);
        let mut means = Matrix::zeros(c, d);
        let mut weights = vec![0.0; c];
        let mut covs: Vec<Matrix> = Vec::with_capacity(c);
        for k in 0..c {
            let members: Vec<usize> = (0..n).filter(|&i| assign[i] == k).collect();
            // Lloyd can empty a cluster; seed its mean from a stride pick
            // and let EM's soft assignments repopulate it.
            weights[k] = (members.len() as f64 / n as f64).max(1.0 / (2.0 * n as f64));
            if members.is_empty() {
                for j in 0..d {
                    means[(k, j)] = data[(k * n / c, j)];
                }
            } else {
                for &i in &members {
                    for j in 0..d {
                        means[(k, j)] += data[(i, j)];
                    }
                }
                for j in 0..d {
                    means[(k, j)] /= members.len() as f64;
                }
            }
            // Clusters too small for a stable d-dimensional covariance fall
            // back to the global one.
            let mut cov = if members.len() > d {
                let mut block = Matrix::zeros(members.len(), d);
                for (r, &i) in members.iter().enumerate() {
                    for j in 0..d {
                        block[(r, j)] = data[(i, j)];
                    }
                }
                covariance(&block)
            } else {
                global_cov.clone()
            };
            cov.add_diag(ridge.max(1e-9));
            covs.push(cov);
        }

        // EM.
        let mut resp = Matrix::zeros(n, c);
        let mut prev_ll = f64::NEG_INFINITY;
        for _ in 0..self.max_iter {
            // E step.
            let factored: Vec<(LuFactors, f64)> = covs
                .iter()
                .map(|cov| {
                    let lu = LuFactors::new(cov).ok_or_else(singular)?;
                    let ld = lu.det().abs().max(1e-300).ln();
                    Ok((lu, ld))
                })
                .collect::<Result<_, ImputeError>>()?;
            let mut ll = 0.0;
            for i in 0..n {
                let row = data.row(i).to_vec();
                let mut logs = vec![0.0; c];
                for k in 0..c {
                    let diff: Vec<f64> = row.iter().zip(means.row(k)).map(|(a, b)| a - b).collect();
                    let solved = factored[k].0.solve(&diff);
                    let mahal: f64 = diff.iter().zip(&solved).map(|(a, b)| a * b).sum();
                    logs[k] = weights[k].max(1e-300).ln()
                        - 0.5
                            * (mahal
                                + factored[k].1
                                + d as f64 * (2.0 * std::f64::consts::PI).ln());
                }
                let max = logs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let z: f64 = logs.iter().map(|l| (l - max).exp()).sum();
                ll += max + z.ln();
                for k in 0..c {
                    resp[(i, k)] = (logs[k] - max).exp() / z;
                }
            }
            // M step.
            for k in 0..c {
                let nk: f64 = (0..n).map(|i| resp[(i, k)]).sum::<f64>().max(1e-12);
                weights[k] = nk / n as f64;
                for j in 0..d {
                    let s: f64 = (0..n).map(|i| resp[(i, k)] * data[(i, j)]).sum();
                    means[(k, j)] = s / nk;
                }
                let mut cov = Matrix::zeros(d, d);
                for i in 0..n {
                    let r = resp[(i, k)];
                    if r < 1e-12 {
                        continue;
                    }
                    for a in 0..d {
                        let da = data[(i, a)] - means[(k, a)];
                        for b in a..d {
                            let db = data[(i, b)] - means[(k, b)];
                            cov[(a, b)] += r * da * db;
                        }
                    }
                }
                for a in 0..d {
                    for b in 0..a {
                        cov[(a, b)] = cov[(b, a)];
                    }
                }
                for a in 0..d {
                    for b in 0..d {
                        cov[(a, b)] /= nk;
                    }
                }
                cov.add_diag(ridge.max(1e-9));
                covs[k] = cov;
            }
            if (ll - prev_ll).abs() < self.tol * (1.0 + ll.abs()) {
                break;
            }
            prev_ll = ll;
        }

        // Pre-factor conditionals per component.
        let comps: Vec<Component> = (0..c)
            .map(|k| -> Result<Component, ImputeError> {
                let cov = &covs[k];
                let mut sff = Matrix::zeros(f, f);
                for a in 0..f {
                    for b in 0..f {
                        sff[(a, b)] = cov[(a, b)];
                    }
                }
                let sfy: Vec<f64> = (0..f).map(|a| cov[(a, f)]).collect();
                let lu_ff = LuFactors::new(&sff).ok_or_else(singular)?;
                let log_det_ff = lu_ff.det().abs().max(1e-300).ln();
                let beta = lu_ff.solve(&sfy);
                Ok(Component {
                    weight: weights[k],
                    mu_f: means.row(k)[..f].to_vec(),
                    mu_y: means.row(k)[f],
                    lu_ff,
                    log_det_ff,
                    beta,
                })
            })
            .collect::<Result<_, _>>()?;
        let global_mean_y = ys.iter().sum::<f64>() / n as f64;
        Ok(Box::new(GmmModel {
            comps,
            f,
            global_mean_y,
        }))
    }
}

/// Hard k-means assignment on per-dimension standardized coordinates:
/// seeds are the stride picks `data[k·n/c]`, followed by up to 20 Lloyd
/// iterations (shared [`iim_ml::kmeans_with_init`] kernel). Deterministic,
/// and independent of row order given the seeds.
fn kmeans_assign(data: &Matrix, c: usize, inv_std: &[f64]) -> Vec<usize> {
    let (n, d) = (data.rows(), data.cols());
    let scaled: Vec<Vec<f64>> = (0..n)
        .map(|i| (0..d).map(|j| data[(i, j)] * inv_std[j]).collect())
        .collect();
    let centroids: Vec<Vec<f64>> = (0..c).map(|k| scaled[k * n / c].clone()).collect();
    let rel = Relation::from_rows(Schema::anonymous(d), &scaled);
    kmeans_with_init(&rel, centroids, 20)
        .labels
        .into_iter()
        .map(|l| l as usize)
        .collect()
}

fn covariance(data: &Matrix) -> Matrix {
    let (n, d) = (data.rows(), data.cols());
    let mut mean = vec![0.0; d];
    for i in 0..n {
        for j in 0..d {
            mean[j] += data[(i, j)];
        }
    }
    for m in &mut mean {
        *m /= n as f64;
    }
    let mut cov = Matrix::zeros(d, d);
    for i in 0..n {
        for a in 0..d {
            let da = data[(i, a)] - mean[a];
            for b in a..d {
                cov[(a, b)] += da * (data[(i, b)] - mean[b]);
            }
        }
    }
    for a in 0..d {
        for b in 0..a {
            cov[(a, b)] = cov[(b, a)];
        }
    }
    for a in 0..d {
        for b in 0..d {
            cov[(a, b)] /= n as f64;
        }
    }
    cov
}

#[cfg(test)]
mod tests {
    use super::*;
    use iim_data::{Relation, Schema};

    /// Two well-separated clusters with different linear relations — the
    /// conditional mean must pick the right cluster's relation.
    fn two_cluster_rel() -> Relation {
        let mut rows = Vec::new();
        for i in 0..60 {
            let x = i as f64 * 0.05; // cluster A: x in [0,3), y = 10 + x
            rows.push(vec![x, 10.0 + x]);
        }
        for i in 0..60 {
            let x = 20.0 + i as f64 * 0.05; // cluster B: y = -5 + 2x
            rows.push(vec![x, -5.0 + 2.0 * x]);
        }
        Relation::from_rows(Schema::anonymous(2), &rows)
    }

    #[test]
    fn resolves_cluster_conditional_mean() {
        let rel = two_cluster_rel();
        let task = AttrTask::new(&rel, vec![0], 1);
        let model = Gmm::new(2).fit(&task).unwrap();
        // Query deep inside cluster A.
        let va = model.predict(&[1.5]);
        assert!((va - 11.5).abs() < 0.8, "cluster A: {va}");
        // Query deep inside cluster B.
        let vb = model.predict(&[21.0]);
        assert!((vb - 37.0).abs() < 1.5, "cluster B: {vb}");
    }

    /// Same two clusters but with rows interleaved A,B,A,B,… — the init
    /// must not depend on rows arriving sorted by cluster.
    #[test]
    fn resolves_clusters_with_interleaved_rows() {
        let mut rows = Vec::new();
        for i in 0..60 {
            let x = i as f64 * 0.05;
            rows.push(vec![x, 10.0 + x]); // cluster A
            let x = 20.0 + i as f64 * 0.05;
            rows.push(vec![x, -5.0 + 2.0 * x]); // cluster B
        }
        let rel = Relation::from_rows(Schema::anonymous(2), &rows);
        let task = AttrTask::new(&rel, vec![0], 1);
        let model = Gmm::new(2).fit(&task).unwrap();
        let va = model.predict(&[1.5]);
        assert!((va - 11.5).abs() < 0.8, "cluster A: {va}");
        let vb = model.predict(&[21.0]);
        assert!((vb - 37.0).abs() < 1.5, "cluster B: {vb}");
    }

    #[test]
    fn single_component_is_global_regression_like() {
        let rows: Vec<Vec<f64>> = (0..80)
            .map(|i| vec![i as f64 * 0.1, 3.0 * i as f64 * 0.1 + 1.0])
            .collect();
        let rel = Relation::from_rows(Schema::anonymous(2), &rows);
        let task = AttrTask::new(&rel, vec![0], 1);
        let model = Gmm::new(1).fit(&task).unwrap();
        let v = model.predict(&[4.0]);
        assert!((v - 13.0).abs() < 0.2, "{v}");
    }

    #[test]
    fn more_components_than_points_is_clamped() {
        let rows = vec![vec![0.0, 1.0], vec![1.0, 2.0], vec![2.0, 3.0]];
        let rel = Relation::from_rows(Schema::anonymous(2), &rows);
        let task = AttrTask::new(&rel, vec![0], 1);
        let model = Gmm::new(10).fit(&task).unwrap();
        assert!(model.predict(&[0.5]).is_finite());
    }

    #[test]
    fn far_query_stays_finite() {
        let rel = two_cluster_rel();
        let task = AttrTask::new(&rel, vec![0], 1);
        let model = Gmm::new(2).fit(&task).unwrap();
        let v = model.predict(&[1e6]);
        assert!(v.is_finite());
    }
}

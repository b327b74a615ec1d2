//! ILLS \[8\] (Cai, Heydari, Lin): iterated local least squares. Each
//! incomplete tuple is imputed by an (unweighted) least-squares regression
//! over its k nearest complete tuples; the estimates are then fed back so
//! imputed tuples can serve as neighbors in the next round, iterating until
//! the estimates stabilise — the "local regression over tuples" model of
//! Table II.
//!
//! Two-phase split: the offline phase runs the joint refinement over the
//! fit relation and captures, per target attribute, the **final extended
//! pool** (complete tuples plus the converged estimates); the online phase
//! serves a novel incomplete tuple with one local least squares against
//! that pool — the per-query model the paper charges to imputation time.

use crate::nn_scratch::with_neighbor_buf;
use iim_data::task::{completed_row, validate_query};
use iim_data::{
    AttrTask, FeatureSelection, FillCache, FittedImputer, ImputeError, Imputer, Relation, RowOpt,
};
use iim_linalg::ridge_fit;
use iim_neighbors::brute::FeatureMatrix;
use iim_neighbors::{IndexChoice, NeighborIndex};

/// The ILLS baseline.
#[derive(Debug, Clone)]
pub struct Ills {
    /// Local neighborhood size.
    pub k: usize,
    /// Refinement rounds (round 1 uses complete tuples only; later rounds
    /// admit previously-imputed tuples as neighbors).
    pub iterations: usize,
    /// Ridge guard for degenerate local designs.
    pub alpha: f64,
    /// Feature-selection policy per target attribute.
    pub features: FeatureSelection,
    /// Neighbor-search index built over each refinement pool and over the
    /// captured serving pool.
    pub index: IndexChoice,
}

impl Default for Ills {
    fn default() -> Self {
        Self {
            k: 10,
            iterations: 3,
            alpha: 1e-6,
            features: FeatureSelection::AllOthers,
            index: IndexChoice::Auto,
        }
    }
}

impl Ills {
    /// ILLS with `k` local neighbors.
    pub fn new(k: usize) -> Self {
        Self {
            k: k.max(2),
            ..Self::default()
        }
    }
}

/// The captured pool for one target attribute: the final round's neighbor
/// set (complete tuples + converged fit-time estimates), behind the
/// serving index. Public fields so the snapshot layer can round-trip it.
pub struct IllsTarget {
    /// Feature attribute indices `F` (query gather order).
    pub features: Vec<usize>,
    /// Serving index over the final extended pool.
    pub pool: NeighborIndex,
    /// Pool target values, indexed like the pool positions.
    pub ys: Vec<f64>,
    /// Pool column means (feature order), for missing-feature fallback.
    pub means: Vec<f64>,
}

/// The offline phase's output: one refined pool per fitted target. Public
/// fields so the snapshot layer can round-trip it.
pub struct FittedIlls {
    /// Per-attribute captured pools (`None` = target not fitted).
    pub targets: Vec<Option<IllsTarget>>,
    /// Local neighborhood size.
    pub k: usize,
    /// Ridge guard for degenerate local designs.
    pub alpha: f64,
    /// Joint fit-time fills, keyed by tuple bit pattern.
    pub cache: FillCache,
    /// Fitted relation arity.
    pub arity: usize,
}

impl FittedImputer for FittedIlls {
    fn name(&self) -> &str {
        "ILLS"
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn arity(&self) -> usize {
        self.arity
    }

    fn impute_one(&self, row: &RowOpt) -> Result<Vec<f64>, ImputeError> {
        validate_query(row, self.arity)?;
        let mut out = completed_row(row);
        if self.cache.apply(row, &mut out) {
            // Same error contract as the novel-query path below: a missing
            // cell outside the fitted target set is NotFitted, whether or
            // not the tuple was seen at fit time.
            if let Some(j) = (0..self.arity)
                .find(|&j| row[j].is_none() && out[j].is_nan() && self.targets[j].is_none())
            {
                return Err(ImputeError::NotFitted { target: j });
            }
            return Ok(out);
        }
        let mut q = Vec::new();
        for j in 0..self.arity {
            if row[j].is_some() {
                continue;
            }
            let target = self.targets[j]
                .as_ref()
                .ok_or(ImputeError::NotFitted { target: j })?;
            q.clear();
            for (idx, &fj) in target.features.iter().enumerate() {
                q.push(row[fj].unwrap_or(target.means[idx]));
            }
            let est = local_ls(&target.pool, &target.ys, &q, self.k, self.alpha);
            if est.is_finite() {
                out[j] = est;
            }
        }
        Ok(out)
    }
}

/// Runs the joint refinement for one target, returning the query rows,
/// their final estimates, and the final extended pool.
struct TargetFit {
    queries: Vec<u32>,
    estimates: Vec<f64>,
    pool: NeighborIndex,
    ys: Vec<f64>,
    features: Vec<usize>,
}

impl Ills {
    fn fit_target(&self, rel: &Relation, target: usize) -> Result<TargetFit, ImputeError> {
        let m = rel.arity();
        let features = self.features.resolve(m, target);
        let task = AttrTask::new(rel, features.clone(), target);
        task.require_features("ILLS")?;
        if task.n_train() == 0 {
            return Err(ImputeError::NoTrainingData { target });
        }
        let queries: Vec<u32> = (0..rel.n_rows())
            .filter(|&i| rel.is_missing(i, target) && rel.row_complete_on(i, &features))
            .map(|i| i as u32)
            .collect();
        // Query feature vectors come from the original relation (never the
        // refinement scratch), so gather them once for every round.
        let qfeat: Vec<Vec<f64>> = queries
            .iter()
            .map(|&row| {
                let mut q = Vec::new();
                rel.gather(row as usize, &features, &mut q);
                q
            })
            .collect();

        // Local least squares with the complete pool, then refine with the
        // imputed tuples admitted to the pool. Each round's per-query
        // regressions are independent, so they fan out on the pool —
        // searching through one per-round index instead of scanning.
        let exec = iim_exec::global();
        let mut estimates: Vec<f64>;
        {
            let fm = FeatureMatrix::gather(rel, &features, &task.train_rows);
            let ys: Vec<f64> = task
                .train_rows
                .iter()
                .map(|&r| task.target_value(r as usize))
                .collect();
            let pool = NeighborIndex::build(fm, self.index);
            if queries.is_empty() {
                // Nothing to refine at fit time: the complete tuples *are*
                // the final pool (the fit-on-complete serving scenario).
                return Ok(TargetFit {
                    queries,
                    estimates: Vec::new(),
                    pool,
                    ys,
                    features,
                });
            }
            estimates = exec.parallel_map_indexed(queries.len(), |qi| {
                local_ls(&pool, &ys, &qfeat[qi], self.k, self.alpha)
            });
        }
        for _ in 1..self.iterations {
            // Extended pool: complete tuples + current query estimates.
            let mut pool_rows: Vec<u32> = task.train_rows.clone();
            pool_rows.extend(&queries);
            let mut scratch = rel.clone();
            for (&row, &est) in queries.iter().zip(&estimates) {
                scratch.set(row as usize, target, est);
            }
            let fm = FeatureMatrix::gather(&scratch, &features, &pool_rows);
            let ys: Vec<f64> = pool_rows
                .iter()
                .map(|&r| scratch.value(r as usize, target))
                .collect();
            let pool = NeighborIndex::build(fm, self.index);
            let next: Vec<f64> = exec.parallel_map_indexed(queries.len(), |qi| {
                local_ls(&pool, &ys, &qfeat[qi], self.k, self.alpha)
            });
            let delta = estimates
                .iter()
                .zip(&next)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max);
            estimates = next;
            if delta < 1e-9 {
                break;
            }
        }
        // The captured serving pool carries the *final* estimates
        // (non-finite estimates drop out of the pool).
        let (pool, ys) = {
            let mut pool_rows: Vec<u32> = task.train_rows.clone();
            pool_rows.extend(&queries);
            let mut scratch = rel.clone();
            for (&row, &est) in queries.iter().zip(&estimates) {
                if est.is_finite() {
                    scratch.set(row as usize, target, est);
                } else {
                    pool_rows.retain(|&r| r != row);
                }
            }
            let fm = FeatureMatrix::gather(&scratch, &features, &pool_rows);
            let ys: Vec<f64> = pool_rows
                .iter()
                .map(|&r| scratch.value(r as usize, target))
                .collect();
            (NeighborIndex::build(fm, self.index), ys)
        };
        Ok(TargetFit {
            queries,
            estimates,
            pool,
            ys,
            features,
        })
    }
}

fn local_ls(pool: &NeighborIndex, ys: &[f64], query: &[f64], k: usize, alpha: f64) -> f64 {
    with_neighbor_buf(|nn| {
        pool.knn_into(query, k, nn);
        debug_assert!(!nn.is_empty());
        let fm = pool.matrix();
        let rows = nn.iter().map(|n| fm.point(n.pos as usize));
        let targets: Vec<f64> = nn.iter().map(|n| ys[n.pos as usize]).collect();
        match ridge_fit(rows, &targets, alpha) {
            Some(model) if model.is_finite() => model.predict(query),
            _ => targets.iter().sum::<f64>() / targets.len() as f64,
        }
    })
}

/// Pool column means in feature order.
fn pool_means(fm: &FeatureMatrix, n_features: usize) -> Vec<f64> {
    let mut means = vec![0.0; n_features];
    let n = fm.len();
    for i in 0..n {
        for (slot, v) in means.iter_mut().zip(fm.point(i)) {
            *slot += v;
        }
    }
    for slot in &mut means {
        *slot /= n.max(1) as f64;
    }
    means
}

impl Imputer for Ills {
    fn name(&self) -> &str {
        "ILLS"
    }

    fn fit_targets(
        &self,
        rel: &Relation,
        targets: &[usize],
    ) -> Result<Box<dyn FittedImputer>, ImputeError> {
        if self.k == 0 {
            // No neighbour, no local regression: each estimate would be
            // the mean of nothing.
            return Err(ImputeError::Unsupported(
                "ILLS needs at least one local neighbor (k >= 1)".into(),
            ));
        }
        let m = rel.arity();
        let mut fitted: Vec<Option<IllsTarget>> = (0..m).map(|_| None).collect();
        let mut filled = rel.clone();
        for &target in targets {
            let tf = self.fit_target(rel, target)?;
            for (&row, &est) in tf.queries.iter().zip(&tf.estimates) {
                if est.is_finite() {
                    filled.set(row as usize, target, est);
                }
            }
            let means = pool_means(tf.pool.matrix(), tf.features.len());
            fitted[target] = Some(IllsTarget {
                features: tf.features,
                pool: tf.pool,
                ys: tf.ys,
                means,
            });
        }
        let cache = FillCache::from_batch(rel, &filled);
        Ok(Box::new(FittedIlls {
            targets: fitted,
            k: self.k,
            alpha: self.alpha,
            cache,
            arity: m,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iim_data::Schema;

    #[test]
    fn locally_linear_data_imputed_exactly() {
        // Piecewise-linear data with a sharp break: local least squares
        // recovers the local slope where a global line fails.
        let mut rel = Relation::with_capacity(Schema::anonymous(2), 0);
        for i in 0..50 {
            let x = i as f64 * 0.1;
            let y = if x < 2.5 {
                1.0 + 2.0 * x
            } else {
                20.0 - 4.0 * x
            };
            rel.push_row(&[x, y]);
        }
        rel.push_row_opt(&[Some(1.05), None]); // truth 3.1
        rel.push_row_opt(&[Some(4.05), None]); // truth 3.8
        let out = Ills::new(6).impute(&rel).unwrap();
        assert!((out.get(50, 1).unwrap() - 3.1).abs() < 0.05);
        assert!((out.get(51, 1).unwrap() - 3.8).abs() < 0.05);
    }

    #[test]
    fn zero_neighbors_is_unsupported_not_a_panic() {
        let mut rel = Relation::with_capacity(Schema::anonymous(2), 0);
        for i in 0..20 {
            rel.push_row(&[i as f64, 2.0 * i as f64]);
        }
        rel.push_row_opt(&[Some(3.5), None]);
        let ills = Ills {
            k: 0,
            ..Ills::default()
        };
        assert!(matches!(
            ills.impute(&rel),
            Err(ImputeError::Unsupported(_))
        ));
        assert!(matches!(ills.fit(&rel), Err(ImputeError::Unsupported(_))));
    }

    #[test]
    fn iteration_uses_imputed_neighbors() {
        // Two incomplete tuples next to each other far from complete data:
        // with one iteration each leans only on distant complete tuples;
        // further iterations let them reinforce each other. We only assert
        // convergence and finiteness (behavioural contract).
        let mut rel = Relation::with_capacity(Schema::anonymous(2), 0);
        for i in 0..20 {
            let x = i as f64 * 0.1;
            rel.push_row(&[x, 5.0 + x]);
        }
        rel.push_row_opt(&[Some(10.0), None]);
        rel.push_row_opt(&[Some(10.1), None]);
        let one = Ills {
            iterations: 1,
            ..Ills::new(5)
        }
        .impute(&rel)
        .unwrap();
        let many = Ills {
            iterations: 5,
            ..Ills::new(5)
        }
        .impute(&rel)
        .unwrap();
        for row in [20usize, 21] {
            assert!(one.get(row, 1).unwrap().is_finite());
            assert!(many.get(row, 1).unwrap().is_finite());
        }
    }

    #[test]
    fn fills_all_targets() {
        let mut rel = Relation::with_capacity(Schema::anonymous(3), 0);
        for i in 0..30 {
            let x = i as f64;
            rel.push_row(&[x, 2.0 * x, 3.0 * x]);
        }
        rel.push_row_opt(&[Some(5.0), None, Some(15.0)]);
        rel.push_row_opt(&[None, Some(20.0), Some(30.0)]);
        let out = Ills::default().impute(&rel).unwrap();
        assert_eq!(out.missing_count(), 0);
        assert!((out.get(30, 1).unwrap() - 10.0).abs() < 0.1);
        assert!((out.get(31, 0).unwrap() - 10.0).abs() < 0.1);
    }

    #[test]
    fn serves_novel_queries_from_the_refined_pool() {
        // Fit on a fully complete relation (no fit-time queries), then
        // serve single tuples online.
        let mut rel = Relation::with_capacity(Schema::anonymous(2), 0);
        for i in 0..50 {
            let x = i as f64 * 0.1;
            let y = if x < 2.5 {
                1.0 + 2.0 * x
            } else {
                20.0 - 4.0 * x
            };
            rel.push_row(&[x, y]);
        }
        let fitted = Ills::new(6).fit(&rel).unwrap();
        let row = fitted.impute_one(&[Some(1.05), None]).unwrap();
        assert!((row[1] - 3.1).abs() < 0.05, "served {}", row[1]);
        let row = fitted.impute_one(&[Some(4.05), None]).unwrap();
        assert!((row[1] - 3.8).abs() < 0.05, "served {}", row[1]);
    }

    #[test]
    fn restricted_targets_error_alike_for_cached_and_novel_rows() {
        // A fit-time tuple and a never-seen tuple with the same missing
        // pattern get the same NotFitted error when the pattern reaches
        // outside the fitted target set.
        let mut rel = Relation::with_capacity(Schema::anonymous(3), 0);
        for i in 0..30 {
            let x = i as f64;
            rel.push_row(&[x, 2.0 * x, 3.0 * x]);
        }
        rel.push_row_opt(&[Some(5.0), None, None]);
        let fitted = Ills::default().fit_targets(&rel, &[1]).unwrap();
        assert_eq!(
            fitted.impute_one(&rel.row_opt(30)).unwrap_err(),
            ImputeError::NotFitted { target: 2 }
        );
        assert_eq!(
            fitted.impute_one(&[Some(9.0), None, None]).unwrap_err(),
            ImputeError::NotFitted { target: 2 }
        );
    }

    #[test]
    fn fit_time_tuples_get_their_joint_estimates() {
        let mut rel = Relation::with_capacity(Schema::anonymous(2), 0);
        for i in 0..20 {
            let x = i as f64 * 0.1;
            rel.push_row(&[x, 5.0 + x]);
        }
        rel.push_row_opt(&[Some(10.0), None]);
        rel.push_row_opt(&[Some(10.1), None]);
        let batch = Ills::new(5).impute(&rel).unwrap();
        let fitted = Ills::new(5).fit(&rel).unwrap();
        for row in [20usize, 21] {
            let served = fitted.impute_one(&rel.row_opt(row)).unwrap();
            assert_eq!(
                served[1].to_bits(),
                batch.get(row, 1).unwrap().to_bits(),
                "row {row}"
            );
        }
    }
}

//! ERACER \[25\] (Mayfield, Neville, Prabhakar): iterative relational
//! regression. The regression for an attribute uses both the tuple's own
//! complete attributes (`g` in the paper's Figure 2) *and* statistics of
//! its neighbors' values on the incomplete attribute (`h`) — e.g. a
//! sensor's temperature depends on its humidity and on its neighbors'
//! temperatures. Inference iterates Gibbs-style: imputed values feed the
//! neighbor statistics of the next round.
//!
//! Feature vector per tuple: `[own F values…, mean of k neighbors' target]`
//! with neighbors found on `F`. Round 0 bootstraps the neighbor-target
//! means from complete tuples only.
//!
//! Two-phase split: the offline phase learns the relational ridge model per
//! target and runs the Gibbs inference for the fit relation's incomplete
//! tuples; the online phase serves a novel tuple with one round-0 style
//! prediction — neighbor statistics from the complete pool, then the
//! learned model.

use crate::nn_scratch::with_neighbor_buf;
use iim_data::task::{completed_row, validate_query};
use iim_data::{
    AttrTask, FeatureSelection, FillCache, FittedImputer, ImputeError, Imputer, Relation, RowOpt,
};
use iim_linalg::{ridge_fit, RidgeModel};
use iim_neighbors::brute::FeatureMatrix;
use iim_neighbors::{IndexChoice, NeighborIndex};

/// The ERACER baseline.
#[derive(Debug, Clone)]
pub struct Eracer {
    /// Neighbors contributing to the relational feature.
    pub k: usize,
    /// Gibbs-style refinement rounds.
    pub iterations: usize,
    /// Ridge guard.
    pub alpha: f64,
    /// Feature-selection policy per target attribute.
    pub features: FeatureSelection,
    /// Neighbor-search index over the complete pool (training design,
    /// Gibbs rounds, and online serving all search through it).
    pub index: IndexChoice,
}

impl Default for Eracer {
    fn default() -> Self {
        Self {
            k: 5,
            iterations: 5,
            alpha: 1e-6,
            features: FeatureSelection::AllOthers,
            index: IndexChoice::Auto,
        }
    }
}

impl Eracer {
    /// ERACER with `k` relational neighbors.
    pub fn new(k: usize) -> Self {
        Self {
            k: k.max(1),
            ..Self::default()
        }
    }
}

/// The learned state for one target: the relational ridge model plus the
/// complete pool its neighbor statistics come from, behind the serving
/// index. Public fields so the snapshot layer can round-trip it.
pub struct EracerTarget {
    /// Feature attribute indices `F` (query gather order).
    pub features: Vec<usize>,
    /// Serving index over the complete pool.
    pub fm: NeighborIndex,
    /// Pool target values, indexed like the pool positions.
    pub ys: Vec<f64>,
    /// `k` clamped to the pool size at fit time.
    pub k: usize,
    /// The relational ridge model (features + neighbor-mean regressor).
    pub model: RidgeModel,
    /// Pool column means (feature order), for missing-feature fallback.
    pub means: Vec<f64>,
}

/// The offline phase's output. Public fields so the snapshot layer can
/// round-trip it.
pub struct FittedEracer {
    /// Per-attribute learned states (`None` = target not fitted).
    pub targets: Vec<Option<EracerTarget>>,
    /// Joint fit-time fills, keyed by tuple bit pattern.
    pub cache: FillCache,
    /// Fitted relation arity.
    pub arity: usize,
}

impl FittedImputer for FittedEracer {
    fn name(&self) -> &str {
        "ERACER"
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
        let mut qf = Vec::new();
        let mut xbuf = Vec::new();
        for j in 0..self.arity {
            if row[j].is_some() {
                continue;
            }
            let t = self.targets[j]
                .as_ref()
                .ok_or(ImputeError::NotFitted { target: j })?;
            qf.clear();
            for (idx, &fj) in t.features.iter().enumerate() {
                qf.push(row[fj].unwrap_or(t.means[idx]));
            }
            let nb_mean = with_neighbor_buf(|nn| {
                t.fm.knn_into(&qf, t.k, nn);
                nn.iter().map(|nb| t.ys[nb.pos as usize]).sum::<f64>() / nn.len() as f64
            });
            xbuf.clear();
            xbuf.extend_from_slice(&qf);
            xbuf.push(nb_mean);
            let est = t.model.predict(&xbuf);
            if est.is_finite() {
                out[j] = est;
            }
        }
        Ok(out)
    }
}

/// One target's fit: the learned state plus the fit-time query estimates.
struct TargetFit {
    state: EracerTarget,
    queries: Vec<u32>,
    estimates: Vec<f64>,
}

impl Eracer {
    fn fit_target(&self, rel: &Relation, target: usize) -> Result<TargetFit, ImputeError> {
        let m = rel.arity();
        let features = self.features.resolve(m, target);
        let task = AttrTask::new(rel, features.clone(), target);
        task.require_features("ERACER")?;
        if task.n_train() == 0 {
            return Err(ImputeError::NoTrainingData { target });
        }
        let queries: Vec<u32> = (0..rel.n_rows())
            .filter(|&i| rel.is_missing(i, target) && rel.row_complete_on(i, &features))
            .map(|i| i as u32)
            .collect();

        let fm = NeighborIndex::build(
            FeatureMatrix::gather(rel, &features, &task.train_rows),
            self.index,
        );
        let ys: Vec<f64> = task
            .train_rows
            .iter()
            .map(|&r| task.target_value(r as usize))
            .collect();
        let k = self.k.min(task.n_train());

        // Learn the relational model on complete tuples: each training
        // tuple's neighbor-mean excludes itself (its own value would leak).
        // Training tuples are independent, so the design fans out per row,
        // each searching the shared index with per-worker scratch.
        let exec = iim_exec::global();
        let train_x: Vec<Vec<f64>> = exec.parallel_map_indexed(fm.len(), |pos| {
            let points = fm.matrix();
            with_neighbor_buf(|nn| {
                fm.knn_into(points.point(pos), k + 1, nn);
                let mut sum = 0.0;
                let mut cnt = 0usize;
                for nb in nn.iter().filter(|nb| nb.pos as usize != pos).take(k) {
                    sum += ys[nb.pos as usize];
                    cnt += 1;
                }
                let nb_mean = if cnt > 0 { sum / cnt as f64 } else { ys[pos] };
                let mut x = Vec::with_capacity(points.n_features() + 1);
                x.extend_from_slice(points.point(pos));
                x.push(nb_mean);
                x
            })
        });
        let model: RidgeModel = ridge_fit(train_x.iter().map(|v| v.as_slice()), &ys, self.alpha)
            .ok_or_else(|| ImputeError::Unsupported("non-finite design".into()))?;

        // Gibbs-style inference: neighbor-target means start from complete
        // tuples, then include the current estimates of fellow queries.
        let mut qfeat: Vec<Vec<f64>> = Vec::with_capacity(queries.len());
        let mut buf = Vec::new();
        for &row in &queries {
            rel.gather(row as usize, &features, &mut buf);
            qfeat.push(buf.clone());
        }
        // The complete-pool kNN lists of the queries never change across
        // rounds — build them once, in parallel.
        let qnn = fm.knn_batch(&exec, &qfeat, k);
        let mut estimates = vec![f64::NAN; queries.len()];
        if !queries.is_empty() {
            for round in 0..self.iterations.max(1) {
                // Each query's update reads the *previous* round's
                // estimates, so the round fans out on the pool without
                // changing any result.
                let estimates_prev = &estimates;
                let next: Vec<f64> = exec.parallel_map_indexed(queries.len(), |qi| {
                    let qf = &qfeat[qi];
                    let nn = &qnn[qi];
                    let mut sum = 0.0;
                    for nb in nn {
                        sum += ys[nb.pos as usize];
                    }
                    let mut nb_mean = sum / nn.len() as f64;
                    if round > 0 {
                        // Blend in the other queries' current estimates when
                        // they are closer than the farthest complete neighbor.
                        let radius = nn.last().expect("k >= 1").dist;
                        let mut vals = vec![nb_mean * nn.len() as f64];
                        let mut cnt = nn.len();
                        for (qj, other) in qfeat.iter().enumerate() {
                            if qj == qi || !estimates_prev[qj].is_finite() {
                                continue;
                            }
                            let d = iim_neighbors::euclidean_f(qf, other);
                            if d <= radius {
                                vals.push(estimates_prev[qj]);
                                cnt += 1;
                            }
                        }
                        nb_mean = vals.iter().sum::<f64>() / cnt as f64;
                    }
                    let mut x = Vec::with_capacity(qf.len() + 1);
                    x.extend_from_slice(qf);
                    x.push(nb_mean);
                    model.predict(&x)
                });
                let converged = estimates
                    .iter()
                    .zip(&next)
                    .all(|(a, b)| (a - b).abs() < 1e-9 || (!a.is_finite() && !b.is_finite()));
                estimates = next;
                if round > 0 && converged {
                    break;
                }
            }
        }
        // `fm` is gathered from exactly `task.train_rows`, so the training
        // feature means double as the pool means for feature fallback.
        let means = task.feature_means();
        Ok(TargetFit {
            state: EracerTarget {
                features,
                fm,
                ys,
                k,
                model,
                means,
            },
            queries,
            estimates,
        })
    }
}

impl Imputer for Eracer {
    fn name(&self) -> &str {
        "ERACER"
    }

    fn fit_targets(
        &self,
        rel: &Relation,
        targets: &[usize],
    ) -> Result<Box<dyn FittedImputer>, ImputeError> {
        let m = rel.arity();
        let mut fitted: Vec<Option<EracerTarget>> = (0..m).map(|_| None).collect();
        let mut filled = rel.clone();
        for &target in targets {
            let tf = self.fit_target(rel, target)?;
            for (&row, &est) in tf.queries.iter().zip(&tf.estimates) {
                if est.is_finite() {
                    filled.set(row as usize, target, est);
                }
            }
            fitted[target] = Some(tf.state);
        }
        let cache = FillCache::from_batch(rel, &filled);
        Ok(Box::new(FittedEracer {
            targets: fitted,
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
    fn exploits_neighbor_values() {
        // Target = neighbor consensus with weak own-feature signal: y is a
        // step function of region, own features only weakly indicate it.
        let mut rel = Relation::with_capacity(Schema::anonymous(2), 0);
        for i in 0..30 {
            let x = i as f64 * 0.1;
            rel.push_row(&[x, 100.0]);
        }
        for i in 0..30 {
            let x = 10.0 + i as f64 * 0.1;
            rel.push_row(&[x, 200.0]);
        }
        rel.push_row_opt(&[Some(11.0), None]);
        let out = Eracer::new(5).impute(&rel).unwrap();
        let v = out.get(60, 1).unwrap();
        assert!(
            (v - 200.0).abs() < 20.0,
            "expected region consensus, got {v}"
        );
    }

    #[test]
    fn linear_data_recovered() {
        let mut rel = Relation::with_capacity(Schema::anonymous(3), 0);
        for i in 0..40 {
            let x = i as f64 * 0.25;
            rel.push_row(&[x, x * x * 0.01, 3.0 + 2.0 * x]);
        }
        rel.push_row_opt(&[Some(5.0), Some(0.25), None]); // truth 13
        let out = Eracer::default().impute(&rel).unwrap();
        let v = out.get(40, 2).unwrap();
        assert!((v - 13.0).abs() < 1.0, "{v}");
    }

    #[test]
    fn clustered_queries_converge() {
        let mut rel = Relation::with_capacity(Schema::anonymous(2), 0);
        for i in 0..20 {
            rel.push_row(&[i as f64, 2.0 * i as f64]);
        }
        // Three mutually-close incomplete tuples.
        rel.push_row_opt(&[Some(30.0), None]);
        rel.push_row_opt(&[Some(30.1), None]);
        rel.push_row_opt(&[Some(30.2), None]);
        let out = Eracer::default().impute(&rel).unwrap();
        for row in 20..23 {
            assert!(out.get(row, 1).unwrap().is_finite());
        }
    }

    #[test]
    fn serves_novel_queries_with_the_learned_model() {
        // Fit on a fully complete relation, then serve single tuples.
        let mut rel = Relation::with_capacity(Schema::anonymous(3), 0);
        for i in 0..40 {
            let x = i as f64 * 0.25;
            rel.push_row(&[x, x * x * 0.01, 3.0 + 2.0 * x]);
        }
        let fitted = Eracer::default().fit(&rel).unwrap();
        let row = fitted.impute_one(&[Some(5.0), Some(0.25), None]).unwrap();
        assert!((row[2] - 13.0).abs() < 1.0, "served {}", row[2]);
    }

    #[test]
    fn fit_time_tuples_get_their_gibbs_estimates() {
        let mut rel = Relation::with_capacity(Schema::anonymous(2), 0);
        for i in 0..20 {
            rel.push_row(&[i as f64, 2.0 * i as f64]);
        }
        rel.push_row_opt(&[Some(30.0), None]);
        rel.push_row_opt(&[Some(30.1), None]);
        let batch = Eracer::default().impute(&rel).unwrap();
        let fitted = Eracer::default().fit(&rel).unwrap();
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

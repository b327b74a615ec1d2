//! LOESS \[10\]: local regression. For each query, fit a tricube-weighted
//! linear regression over its k nearest neighbors (the span) and predict —
//! a *shared-locally* model, contrasted with IIM's per-tuple models and
//! learned online per query (which is why the paper's Figures 4–7 show it
//! paying a high imputation-time cost).

use crate::nn_scratch::with_neighbor_buf;
use iim_data::{AttrEstimator, AttrPredictor, AttrTask, ImputeError};
use iim_linalg::ridge_fit_weighted;
use iim_neighbors::brute::FeatureMatrix;
use iim_neighbors::{IndexChoice, NeighborIndex};

/// The LOESS baseline.
#[derive(Debug, Clone, Copy)]
pub struct Loess {
    /// Span: number of neighbors per local fit.
    pub k: usize,
    /// Ridge guard for degenerate local designs.
    pub alpha: f64,
    /// Neighbor-search index built at fit time (the span lookup is the
    /// per-query search the paper charges to imputation time).
    pub index: IndexChoice,
}

impl Loess {
    /// LOESS with a span of `k` neighbors.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            alpha: 1e-6,
            index: IndexChoice::Auto,
        }
    }
}

/// The fitted state: the span-search index plus target values (the local
/// regression itself is learned per query, online). Public fields so the
/// snapshot layer can round-trip it.
pub struct LoessModel {
    /// Neighbor-search index over the gathered training features.
    pub index: NeighborIndex,
    /// Target values, indexed like the index positions.
    pub ys: Vec<f64>,
    /// Span: neighbors per local fit (≥ 2).
    pub k: usize,
    /// Ridge guard for degenerate local designs.
    pub alpha: f64,
}

impl AttrPredictor for LoessModel {
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn predict(&self, x: &[f64]) -> f64 {
        with_neighbor_buf(|nn| {
            self.index.knn_into(x, self.k, nn);
            debug_assert!(!nn.is_empty());
            let fm = self.index.matrix();
            // Tricube weights on distance relative to the span radius.
            let dmax = nn.last().expect("non-empty").dist.max(1e-12);
            let weights: Vec<f64> = nn
                .iter()
                .map(|n| {
                    let u = (n.dist / dmax).min(1.0);
                    let t = 1.0 - u * u * u;
                    t * t * t
                })
                .collect();
            // The farthest neighbor gets weight 0; keep the fit solvable when
            // all weights collapse (all neighbors at the same distance) by
            // falling back to uniform weights.
            let wsum: f64 = weights.iter().sum();
            let rows = nn.iter().map(|n| fm.point(n.pos as usize));
            let ys: Vec<f64> = nn.iter().map(|n| self.ys[n.pos as usize]).collect();
            let model = if wsum > 1e-9 {
                ridge_fit_weighted(rows, &ys, Some(&weights), self.alpha)
            } else {
                ridge_fit_weighted(rows, &ys, None, self.alpha)
            };
            match model {
                Some(m) if m.is_finite() => m.predict(x),
                _ => ys.iter().sum::<f64>() / ys.len() as f64,
            }
        })
    }
}

impl AttrEstimator for Loess {
    fn name(&self) -> &str {
        "LOESS"
    }

    fn fit(&self, task: &AttrTask<'_>) -> Result<Box<dyn AttrPredictor>, ImputeError> {
        task.require_features("LOESS")?;
        if task.n_train() == 0 {
            return Err(ImputeError::NoTrainingData {
                target: task.target,
            });
        }
        let fm = FeatureMatrix::gather(task.rel, &task.features, &task.train_rows);
        let ys: Vec<f64> = task
            .train_rows
            .iter()
            .map(|&r| task.target_value(r as usize))
            .collect();
        Ok(Box::new(LoessModel {
            index: NeighborIndex::build(fm, self.index),
            ys,
            k: self.k.max(2),
            alpha: self.alpha,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iim_data::{paper_fig1, Relation, Schema};

    #[test]
    fn tracks_smooth_nonlinear_function() {
        // y = x² sampled densely: local linear fits track it closely where
        // a global line cannot.
        let rows: Vec<Vec<f64>> = (0..100)
            .map(|i| {
                let x = i as f64 * 0.1;
                vec![x, x * x]
            })
            .collect();
        let rel = Relation::from_rows(Schema::anonymous(2), &rows);
        let task = AttrTask::new(&rel, vec![0], 1);
        let model = Loess::new(8).fit(&task).unwrap();
        for q in [1.0, 3.05, 7.5] {
            let v = model.predict(&[q]);
            assert!((v - q * q).abs() < 0.15, "q={q} got {v}");
        }
    }

    #[test]
    fn fig1_local_fit_straddles_streets() {
        // Example 1: LOESS over {t4, t5, t6} mixes two streets and misses
        // the truth 1.8 — but differs from the global line too.
        let (rel, _) = paper_fig1();
        let task = AttrTask::new(&rel, vec![0], 1);
        let model = Loess::new(3).fit(&task).unwrap();
        let v = model.predict(&[5.0]);
        assert!(v.is_finite());
        assert!((v - 1.8).abs() > 0.5, "LOESS should miss here, got {v}");
    }

    #[test]
    fn exact_on_locally_linear_data() {
        let rows: Vec<Vec<f64>> = (0..50)
            .map(|i| vec![i as f64, 5.0 + 2.0 * i as f64])
            .collect();
        let rel = Relation::from_rows(Schema::anonymous(2), &rows);
        let task = AttrTask::new(&rel, vec![0], 1);
        let model = Loess::new(6).fit(&task).unwrap();
        // Tricube-weighted ridge with the α guard is exact up to the
        // regularization bias.
        assert!((model.predict(&[20.5]) - 46.0).abs() < 1e-3);
    }
}

//! kNN imputation \[2\], \[5\]: aggregate the target values of the k nearest
//! complete neighbors (Formula 2), optionally distance-weighted \[3\].

use crate::nn_scratch::with_neighbor_buf;
use iim_data::{AttrEstimator, AttrPredictor, AttrTask, ImputeError};
use iim_neighbors::brute::FeatureMatrix;
use iim_neighbors::{IndexChoice, NeighborIndex};

/// The kNN baseline.
#[derive(Debug, Clone, Copy)]
pub struct Knn {
    /// Number of neighbors `k`.
    pub k: usize,
    /// `false` uses the arithmetic mean of Formula 2 (the paper's kNN);
    /// `true` weights neighbors by inverse distance (§II-A2's "more
    /// advanced aggregation", kept as an ablation).
    pub weighted: bool,
    /// Neighbor-search index built at fit time (never changes an answer,
    /// only its latency).
    pub index: IndexChoice,
}

impl Knn {
    /// Plain arithmetic-mean kNN with `k` neighbors.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            weighted: false,
            index: IndexChoice::Auto,
        }
    }

    /// Distance-weighted variant.
    pub fn weighted(k: usize) -> Self {
        Self {
            weighted: true,
            ..Self::new(k)
        }
    }
}

/// The fitted state: the training tuples behind a serving index plus their
/// target values. Public fields so the snapshot layer can round-trip it.
pub struct KnnModel {
    /// Neighbor-search index over the gathered training features.
    pub index: NeighborIndex,
    /// Target values, indexed like the index positions.
    pub ys: Vec<f64>,
    /// Neighbor count (≥ 1).
    pub k: usize,
    /// Inverse-distance weighting toggle.
    pub weighted: bool,
}

impl AttrPredictor for KnnModel {
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn predict(&self, x: &[f64]) -> f64 {
        with_neighbor_buf(|nn| {
            self.index.knn_into(x, self.k, nn);
            debug_assert!(!nn.is_empty());
            if !self.weighted {
                let sum: f64 = nn.iter().map(|n| self.ys[n.pos as usize]).sum();
                return sum / nn.len() as f64;
            }
            // Inverse-distance weights; an exact match takes the whole vote.
            if let Some(hit) = nn.iter().find(|n| n.dist <= 1e-12) {
                return self.ys[hit.pos as usize];
            }
            let inv_sum: f64 = nn.iter().map(|n| 1.0 / n.dist).sum();
            nn.iter()
                .map(|n| self.ys[n.pos as usize] * (1.0 / n.dist) / inv_sum)
                .sum()
        })
    }
}

impl AttrEstimator for Knn {
    fn name(&self) -> &str {
        if self.weighted {
            "kNN-w"
        } else {
            "kNN"
        }
    }

    fn fit(&self, task: &AttrTask<'_>) -> Result<Box<dyn AttrPredictor>, ImputeError> {
        task.require_features("kNN")?;
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
        Ok(Box::new(KnnModel {
            index: NeighborIndex::build(fm, self.index),
            ys,
            k: self.k.max(1),
            weighted: self.weighted,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iim_data::paper_fig1;

    #[test]
    fn fig1_knn_matches_example_1() {
        // Example 1: k = 3 neighbors of tx are t4, t5, t6; the kNN
        // imputation is their A2 mean (3.2 + 3.0 + 4.1)/3 ≈ 3.43.
        let (rel, _) = paper_fig1();
        let task = AttrTask::new(&rel, vec![0], 1);
        let model = Knn::new(3).fit(&task).unwrap();
        let v = model.predict(&[5.0]);
        assert!((v - (3.2 + 3.0 + 4.1) / 3.0).abs() < 1e-12, "{v}");
    }

    #[test]
    fn k_one_copies_nearest() {
        let (rel, _) = paper_fig1();
        let task = AttrTask::new(&rel, vec![0], 1);
        let model = Knn::new(1).fit(&task).unwrap();
        // Nearest to 5.0 on A1 is t5 (6.8 → dist 1.8) vs t4 (2.9 → 2.1).
        assert_eq!(model.predict(&[5.0]), 3.0);
    }

    #[test]
    fn weighted_prefers_closer() {
        let (rel, _) = paper_fig1();
        let task = AttrTask::new(&rel, vec![0], 1);
        let plain = Knn::new(3).fit(&task).unwrap().predict(&[5.0]);
        let weighted = Knn::weighted(3).fit(&task).unwrap().predict(&[5.0]);
        // t5 (value 3.0) is closest, so the weighted estimate must move
        // from the plain mean toward 3.0.
        assert!(weighted < plain);
        // Exact-match query returns the matching tuple's value.
        let exact = Knn::weighted(3).fit(&task).unwrap().predict(&[6.8]);
        assert_eq!(exact, 3.0);
    }

    #[test]
    fn names() {
        assert_eq!(Knn::new(3).name(), "kNN");
        assert_eq!(Knn::weighted(3).name(), "kNN-w");
    }
}

//! kNNE \[13\]: nearest-neighbor ensemble. Different groups of k neighbors
//! are found by computing distances on various *subsets* of the features;
//! each group produces a kNN imputation and the group results are combined
//! (§II-A2).
//!
//! Subset scheme: every leave-one-out subset of `F` (size `|F| − 1`) plus
//! the full `F` — for `|F| = 1` only the full set exists and kNNE
//! degenerates to kNN.

use crate::nn_scratch::with_neighbor_buf;
use iim_data::{AttrEstimator, AttrPredictor, AttrTask, ImputeError};
use iim_neighbors::brute::FeatureMatrix;
use iim_neighbors::{IndexChoice, NeighborIndex};

/// The kNNE baseline.
#[derive(Debug, Clone, Copy)]
pub struct Knne {
    /// Neighbors per ensemble member.
    pub k: usize,
    /// Neighbor-search index built per ensemble member at fit time.
    pub index: IndexChoice,
}

impl Knne {
    /// kNNE with `k` neighbors per member.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            index: IndexChoice::Auto,
        }
    }
}

/// One ensemble member: a feature subset and its serving index.
pub struct Member {
    /// Positions of this member's features within the task feature order.
    pub feat_idx: Vec<usize>,
    /// Neighbor-search index over the member's gathered features.
    pub index: NeighborIndex,
}

/// The fitted state: one index per feature-subset member plus the shared
/// target values. Public fields so the snapshot layer can round-trip it.
pub struct KnneModel {
    /// The ensemble members (full set first, then leave-one-out subsets).
    pub members: Vec<Member>,
    /// Target values, indexed like each member's index positions.
    pub ys: Vec<f64>,
    /// Neighbors per member (≥ 1).
    pub k: usize,
}

impl AttrPredictor for KnneModel {
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn predict(&self, x: &[f64]) -> f64 {
        let mut total = 0.0;
        let mut q = Vec::new();
        with_neighbor_buf(|nn| {
            for member in &self.members {
                q.clear();
                q.extend(member.feat_idx.iter().map(|&i| x[i]));
                member.index.knn_into(&q, self.k, nn);
                let mean: f64 =
                    nn.iter().map(|n| self.ys[n.pos as usize]).sum::<f64>() / nn.len() as f64;
                total += mean;
            }
        });
        total / self.members.len() as f64
    }
}

impl AttrEstimator for Knne {
    fn name(&self) -> &str {
        "kNNE"
    }

    fn fit(&self, task: &AttrTask<'_>) -> Result<Box<dyn AttrPredictor>, ImputeError> {
        task.require_features("kNNE")?;
        if task.n_train() == 0 {
            return Err(ImputeError::NoTrainingData {
                target: task.target,
            });
        }
        let f = task.features.len();
        let mut subsets: Vec<Vec<usize>> = vec![(0..f).collect()];
        if f > 1 {
            for drop in 0..f {
                subsets.push((0..f).filter(|&i| i != drop).collect());
            }
        }
        let members = subsets
            .into_iter()
            .map(|feat_idx| {
                let attrs: Vec<usize> = feat_idx.iter().map(|&i| task.features[i]).collect();
                let fm = FeatureMatrix::gather(task.rel, &attrs, &task.train_rows);
                Member {
                    feat_idx,
                    index: NeighborIndex::build(fm, self.index),
                }
            })
            .collect();
        let ys: Vec<f64> = task
            .train_rows
            .iter()
            .map(|&r| task.target_value(r as usize))
            .collect();
        Ok(Box::new(KnneModel {
            members,
            ys,
            k: self.k.max(1),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knn::Knn;
    use iim_data::{paper_fig1, Relation, Schema};

    #[test]
    fn single_feature_degenerates_to_knn() {
        let (rel, _) = paper_fig1();
        let task = AttrTask::new(&rel, vec![0], 1);
        let knne = Knne::new(3).fit(&task).unwrap();
        let knn = Knn::new(3).fit(&task).unwrap();
        for q in [0.0, 2.5, 5.0, 8.0] {
            assert!((knne.predict(&[q]) - knn.predict(&[q])).abs() < 1e-12);
        }
    }

    #[test]
    fn ensemble_averages_subset_views() {
        // 3 features: ensemble = {full, drop0, drop1, drop2} = 4 members.
        // Feature 2 is pure noise for the target; dropping it must not
        // catastrophically change the estimate, and the ensemble output is
        // the average of member means (all finite).
        let rows: Vec<Vec<f64>> = (0..30)
            .map(|i| {
                let x = i as f64;
                vec![x, x * 0.5, ((i * 7919) % 13) as f64, 2.0 * x]
            })
            .collect();
        let rel = Relation::from_rows(Schema::anonymous(4), &rows);
        let task = AttrTask::new(&rel, vec![0, 1, 2], 3);
        let model = Knne::new(3).fit(&task).unwrap();
        let v = model.predict(&[10.0, 5.0, 6.0]);
        // Target 2x ≈ 20; neighbor means hover nearby.
        assert!((v - 20.0).abs() < 4.0, "{v}");
    }

    #[test]
    fn name() {
        assert_eq!(Knne::new(3).name(), "kNNE");
    }
}

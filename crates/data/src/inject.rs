//! Missing-value injection: the paper's evaluation protocol (§VI-A2).
//!
//! "For each dataset we randomly select a set of tuples as {tx} by removing
//! values on (multiple) attributes {Ax} as missing values. The remaining
//! tuples are considered as complete tuples in r." Every injector removes
//! one cell per incomplete tuple. What the committed experiments use (the
//! specs under `crates/bench/specs/` and the `paper` binary of
//! `iim-bench`):
//!
//! * [`inject_attr`] — a fixed attribute loses values on random tuples:
//!   the last attribute `Am` for Table V, Figures 4–7 and 9–13 and the
//!   ablation (the spec injector `attr`), attribute `Aj` for Table VI
//!   (`attr:<j>`) and for the `paper profiles` probes.
//! * [`inject_clustered_attr`] — `Am` loses values on clusters of
//!   mutually nearest tuples, so their nearest neighbors are also
//!   incomplete (Figure 8, `clustered:<c>`).
//! * [`inject_random`] — x% of tuples lose one value on a random attribute
//!   (Table VII's clustering rows); [`inject_clustered`] is its clustered
//!   form. No spec injector names these two yet.

use crate::relation::Relation;
use rand::seq::SliceRandom;
use rand::Rng;

/// One removed cell with its ground-truth value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MissingCell {
    /// Tuple index in the injected relation.
    pub row: u32,
    /// Attribute index.
    pub col: u32,
    /// The removed (true) value.
    pub truth: f64,
}

/// The set of removed cells — everything an evaluator needs to score an
/// imputation against the truth.
pub type GroundTruth = Vec<MissingCell>;

/// Removes one value on a uniformly random attribute for each of
/// `n_incomplete` distinct, currently-complete tuples.
///
/// Mirrors §VI-B1: "randomly pick 5% tuples as tx with one missing value on
/// a random attribute Ax". Panics if the relation has fewer complete tuples
/// than requested.
pub fn inject_random<R: Rng>(rel: &mut Relation, n_incomplete: usize, rng: &mut R) -> GroundTruth {
    let mut candidates = rel.complete_rows();
    assert!(
        candidates.len() >= n_incomplete,
        "requested {n_incomplete} incomplete tuples but only {} complete rows",
        candidates.len()
    );
    candidates.shuffle(rng);
    let m = rel.arity();
    let mut truth = Vec::with_capacity(n_incomplete);
    for &row in candidates.iter().take(n_incomplete) {
        let col = rng.gen_range(0..m);
        let v = rel
            .clear_cell(row as usize, col)
            .expect("candidate row was complete");
        truth.push(MissingCell {
            row,
            col: col as u32,
            truth: v,
        });
    }
    truth
}

/// Removes attribute `col` from `n_incomplete` random complete tuples
/// (Table VI's per-attribute protocol).
pub fn inject_attr<R: Rng>(
    rel: &mut Relation,
    col: usize,
    n_incomplete: usize,
    rng: &mut R,
) -> GroundTruth {
    let mut candidates = rel.complete_rows();
    assert!(
        candidates.len() >= n_incomplete,
        "requested {n_incomplete} incomplete tuples but only {} complete rows",
        candidates.len()
    );
    candidates.shuffle(rng);
    let mut truth = Vec::with_capacity(n_incomplete);
    for &row in candidates.iter().take(n_incomplete) {
        let v = rel
            .clear_cell(row as usize, col)
            .expect("candidate row was complete");
        truth.push(MissingCell {
            row,
            col: col as u32,
            truth: v,
        });
    }
    truth
}

/// Clustered injection (Figure 8): incomplete tuples arrive in clusters of
/// `cluster_size` mutually nearest tuples, so an incomplete tuple's closest
/// neighbors are themselves incomplete and its complete neighbors are far.
///
/// `n_incomplete / cluster_size` seeds are drawn at random; each seed plus
/// its `cluster_size - 1` nearest still-complete tuples (full-attribute
/// Euclidean distance) lose one value on a random attribute. `cluster_size
/// = 1` degenerates to [`inject_random`]'s workload.
pub fn inject_clustered<R: Rng>(
    rel: &mut Relation,
    n_incomplete: usize,
    cluster_size: usize,
    rng: &mut R,
) -> GroundTruth {
    inject_clustered_inner(rel, n_incomplete, cluster_size, None, rng)
}

/// [`inject_clustered`] with a fixed missing attribute (the single-attribute
/// protocol of Tables V–VI combined with Figure 8's clustered workload).
pub fn inject_clustered_attr<R: Rng>(
    rel: &mut Relation,
    n_incomplete: usize,
    cluster_size: usize,
    col: usize,
    rng: &mut R,
) -> GroundTruth {
    inject_clustered_inner(rel, n_incomplete, cluster_size, Some(col), rng)
}

fn inject_clustered_inner<R: Rng>(
    rel: &mut Relation,
    n_incomplete: usize,
    cluster_size: usize,
    fixed_col: Option<usize>,
    rng: &mut R,
) -> GroundTruth {
    assert!(cluster_size >= 1, "cluster_size must be positive");
    let m = rel.arity();
    let n_clusters = n_incomplete.div_ceil(cluster_size);
    let mut truth = Vec::with_capacity(n_incomplete);
    let mut remaining = n_incomplete;

    for _ in 0..n_clusters {
        if remaining == 0 {
            break;
        }
        let complete = rel.complete_rows();
        let take = cluster_size.min(remaining);
        assert!(
            complete.len() >= take,
            "not enough complete rows left for a cluster of {take}"
        );
        let seed = *complete.choose(rng).expect("non-empty");
        // Rank the complete rows by distance to the seed; the seed itself
        // sorts first with distance 0.
        let seed_row: Vec<f64> = rel.row_raw(seed as usize).to_vec();
        let mut ranked: Vec<(f64, u32)> = complete
            .iter()
            .map(|&r| {
                let row = rel.row_raw(r as usize);
                let d: f64 = row
                    .iter()
                    .zip(&seed_row)
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum();
                (d, r)
            })
            .collect();
        ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
        for &(_, row) in ranked.iter().take(take) {
            let col = fixed_col.unwrap_or_else(|| rng.gen_range(0..m));
            let v = rel
                .clear_cell(row as usize, col)
                .expect("ranked row was complete");
            truth.push(MissingCell {
                row,
                col: col as u32,
                truth: v,
            });
        }
        remaining -= take;
    }
    truth
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::Schema;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn grid(n: usize) -> Relation {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| vec![i as f64, 2.0 * i as f64, 100.0 - i as f64])
            .collect();
        Relation::from_rows(Schema::anonymous(3), &rows)
    }

    #[test]
    fn random_injection_counts_and_truth() {
        let mut rel = grid(50);
        let clean = rel.clone();
        let mut rng = StdRng::seed_from_u64(7);
        let truth = inject_random(&mut rel, 10, &mut rng);
        assert_eq!(truth.len(), 10);
        assert_eq!(rel.missing_count(), 10);
        assert_eq!(rel.incomplete_rows().len(), 10); // one cell per tuple
        for c in &truth {
            assert!(rel.is_missing(c.row as usize, c.col as usize));
            assert_eq!(clean.get(c.row as usize, c.col as usize), Some(c.truth));
        }
    }

    #[test]
    fn random_injection_is_deterministic_per_seed() {
        let mut a = grid(30);
        let mut b = grid(30);
        let ta = inject_random(&mut a, 5, &mut StdRng::seed_from_u64(42));
        let tb = inject_random(&mut b, 5, &mut StdRng::seed_from_u64(42));
        assert_eq!(ta, tb);
    }

    #[test]
    fn attr_injection_hits_one_column() {
        let mut rel = grid(20);
        let mut rng = StdRng::seed_from_u64(1);
        let truth = inject_attr(&mut rel, 2, 6, &mut rng);
        assert_eq!(truth.len(), 6);
        assert!(truth.iter().all(|c| c.col == 2));
        assert_eq!(rel.missing_count(), 6);
    }

    #[test]
    fn clustered_injection_groups_neighbors() {
        let mut rel = grid(60);
        let mut rng = StdRng::seed_from_u64(3);
        let truth = inject_clustered(&mut rel, 12, 3, &mut rng);
        assert_eq!(truth.len(), 12);
        assert_eq!(rel.incomplete_rows().len(), 12);
        // Rows in `grid` are ordered along a line, so each cluster of 3 must
        // occupy consecutive (or near-consecutive) row indices.
        let mut rows: Vec<u32> = truth.iter().map(|c| c.row).collect();
        rows.sort_unstable();
        let mut tight_pairs = 0;
        for w in rows.windows(2) {
            if w[1] - w[0] <= 2 {
                tight_pairs += 1;
            }
        }
        assert!(tight_pairs >= 6, "expected clustered rows, got {rows:?}");
    }

    #[test]
    fn cluster_size_one_matches_random_shape() {
        let mut rel = grid(40);
        let mut rng = StdRng::seed_from_u64(9);
        let truth = inject_clustered(&mut rel, 8, 1, &mut rng);
        assert_eq!(truth.len(), 8);
        assert_eq!(rel.incomplete_rows().len(), 8);
    }

    #[test]
    #[should_panic(expected = "complete rows")]
    fn rejects_over_injection() {
        let mut rel = grid(5);
        let mut rng = StdRng::seed_from_u64(0);
        inject_random(&mut rel, 6, &mut rng);
    }
}

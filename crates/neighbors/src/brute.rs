//! Exact brute-force kNN over a gathered feature matrix.

use crate::heap::{scan_rows_seq, KnnScratch};
use iim_bytes::{FloatSlice, U32Slice};
use iim_data::Relation;

/// One neighbor: a position plus its Formula-1 distance to the query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Index into the candidate set (a [`FeatureMatrix`] position, which
    /// maps back to an original relation row via [`FeatureMatrix::row_id`]).
    pub pos: u32,
    /// Formula-1 distance.
    pub dist: f64,
}

/// Candidate tuples gathered onto their feature subset: a dense
/// `len x n_features` block plus the original row ids.
///
/// All neighbor search in the workspace runs against this shape so the
/// gather (and its missing-cell checks) happens exactly once per task.
///
/// The backing storage is view-or-owned ([`iim_bytes`]): a matrix decoded
/// through the validate-then-view snapshot path borrows its block straight
/// from the shared snapshot buffer; gathered/streamed matrices own theirs.
#[derive(Debug, Clone)]
pub struct FeatureMatrix {
    f: usize,
    row_ids: U32Slice,
    data: FloatSlice,
}

impl FeatureMatrix {
    /// Gathers `attrs` from the given `rows` of `rel`.
    ///
    /// Panics (debug) if any gathered cell is missing — candidates must be
    /// complete on the feature attributes.
    pub fn gather(rel: &Relation, attrs: &[usize], rows: &[u32]) -> Self {
        assert!(!attrs.is_empty(), "feature set must be non-empty");
        let mut data = Vec::with_capacity(rows.len() * attrs.len());
        for &r in rows {
            let row = rel.row_raw(r as usize);
            for &j in attrs {
                debug_assert!(!row[j].is_nan(), "candidate row {r} missing attr {j}");
                data.push(row[j]);
            }
        }
        Self {
            f: attrs.len(),
            row_ids: rows.to_vec().into(),
            data: data.into(),
        }
    }

    /// Builds directly from a dense row-major block (used by generators,
    /// tests, and the snapshot decode path — which passes views).
    pub fn from_dense(f: usize, row_ids: impl Into<U32Slice>, data: impl Into<FloatSlice>) -> Self {
        let (row_ids, data) = (row_ids.into(), data.into());
        assert_eq!(data.len(), row_ids.len() * f);
        Self { f, row_ids, data }
    }

    /// Appends one candidate point (streaming ingestion). The new point
    /// takes the next position, so an exact scan over the grown matrix is
    /// bitwise-equal to a rebuild with the point gathered last.
    /// (Copy-on-write: a view-backed matrix becomes owned on first push.)
    pub fn push(&mut self, point: &[f64], row_id: u32) {
        assert_eq!(point.len(), self.f, "appended point must have |F| features");
        self.row_ids.to_mut().push(row_id);
        self.data.to_mut().extend_from_slice(point);
    }

    /// Number of candidate points.
    pub fn len(&self) -> usize {
        self.row_ids.len()
    }

    /// True when there are no candidates.
    pub fn is_empty(&self) -> bool {
        self.row_ids.is_empty()
    }

    /// Feature dimensionality `|F|`.
    pub fn n_features(&self) -> usize {
        self.f
    }

    /// Feature vector of candidate `pos`.
    #[inline]
    pub fn point(&self, pos: usize) -> &[f64] {
        &self.data[pos * self.f..(pos + 1) * self.f]
    }

    /// Original relation row id of candidate `pos`.
    #[inline]
    pub fn row_id(&self, pos: usize) -> u32 {
        self.row_ids[pos]
    }

    /// All original row ids.
    pub fn row_ids(&self) -> &[u32] {
        &self.row_ids
    }

    /// The points at `positions`, copied in that order into one row-major
    /// block — the trees' leaf-scan layout. Borrows the backing buffer
    /// once rather than resolving it per point.
    pub(crate) fn rows_in_order(&self, positions: &[u32]) -> Vec<f64> {
        let (data, m) = (self.data(), self.f);
        let mut out = Vec::with_capacity(positions.len() * m);
        for &p in positions {
            let p = p as usize;
            out.extend_from_slice(&data[p * m..(p + 1) * m]);
        }
        out
    }

    /// The dense row-major backing buffer (`len × n_features`), exposed so
    /// the snapshot layer can serialize the matrix bit-exactly; inverse of
    /// [`FeatureMatrix::from_dense`].
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// The k nearest candidates to `query` (a gathered feature vector),
    /// ascending by `(distance, position)`.
    ///
    /// `k` larger than the candidate count returns everything. Ties break
    /// deterministically on position so experiment runs are reproducible.
    pub fn knn(&self, query: &[f64], k: usize) -> Vec<Neighbor> {
        let mut out = Vec::new();
        self.knn_into(query, k, &mut out);
        out
    }

    /// kNN lists for a batch of query rows, fanned out on `pool`.
    ///
    /// Queries are independent, so the result is `queries.iter().map(|q|
    /// self.knn(q, k))` — in query order, identical for every worker count.
    /// The matrix is `Send + Sync`, so one gathered index serves any number
    /// of concurrent query batches.
    pub fn knn_batch(
        &self,
        pool: &iim_exec::Pool,
        queries: &[Vec<f64>],
        k: usize,
    ) -> Vec<Vec<Neighbor>> {
        pool.parallel_map_indexed(queries.len(), |i| self.knn(&queries[i], k))
    }

    /// [`FeatureMatrix::knn`] into a reusable buffer.
    pub fn knn_into(&self, query: &[f64], k: usize, out: &mut Vec<Neighbor>) {
        let mut scratch = KnnScratch::new();
        self.knn_with(query, k, &mut scratch, out);
    }

    /// [`FeatureMatrix::knn_into`] with caller-owned selection scratch —
    /// the zero-allocation serving shape. Results are identical to
    /// [`FeatureMatrix::knn`] whatever state `scratch` arrives in.
    pub fn knn_with(
        &self,
        query: &[f64],
        k: usize,
        scratch: &mut KnnScratch,
        out: &mut Vec<Neighbor>,
    ) {
        out.clear();
        scratch.heap.clear();
        if k == 0 || self.is_empty() {
            return;
        }
        let k = k.min(self.len());
        // Batched scan over the contiguous block into a max-heap of the
        // best k so far, keyed by (dist, pos) descending.
        scan_rows_seq(&mut scratch.heap, k, query, &self.data, 0);
        out.extend(scratch.drain_sorted().iter().map(|e| Neighbor {
            pos: e.pos,
            dist: e.sq.sqrt(),
        }));
    }
}

/// Convenience: k nearest rows of `rel` (restricted to `candidates`,
/// measured on `attrs`) to the raw row `query_row`.
pub fn knn(
    rel: &Relation,
    attrs: &[usize],
    candidates: &[u32],
    query_row: &[f64],
    k: usize,
) -> Vec<Neighbor> {
    let fm = FeatureMatrix::gather(rel, attrs, candidates);
    let q: Vec<f64> = attrs.iter().map(|&j| query_row[j]).collect();
    let mut out = fm.knn(&q, k);
    // Convert positions back to relation row ids for the ad-hoc API.
    for n in &mut out {
        n.pos = fm.row_id(n.pos as usize);
    }
    out
}

/// Reusable-buffer variant of [`knn`] against a prebuilt matrix.
pub fn knn_into(fm: &FeatureMatrix, query: &[f64], k: usize, out: &mut Vec<Neighbor>) {
    fm.knn_into(query, k, out);
}

/// The matrices the tree builders' identity tests run on: random,
/// duplicate-heavy, constant-column and tiny shapes, each once owned and
/// once view-backed (borrowed from a shared byte buffer, as a loaded
/// snapshot's matrix is).
#[cfg(test)]
pub(crate) fn build_identity_cases() -> Vec<(String, FeatureMatrix)> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let mut shapes: Vec<(String, usize, Vec<f64>)> = Vec::new();
    for (n, m) in [(0usize, 2usize), (7, 3), (2000, 1), (2000, 3), (1500, 4)] {
        let data = (0..n * m).map(|_| rng.gen_range(-10.0..10.0)).collect();
        shapes.push((format!("random n={n} m={m}"), m, data));
    }
    // Four distinct values per column: every median select meets ties.
    let dup = (0..1200 * 3).map(|c| ((c * 7 / 3) % 4) as f64).collect();
    shapes.push(("duplicate-heavy n=1200 m=3".into(), 3, dup));
    let constant = (0..1000 * 4)
        .map(|c| {
            if c % 4 == 1 {
                5.0
            } else {
                rng.gen_range(-3.0..3.0)
            }
        })
        .collect();
    shapes.push(("constant column n=1000 m=4".into(), 4, constant));
    let mut cases = Vec::new();
    for (name, m, data) in shapes {
        let n = data.len() / m;
        let ids: Vec<u32> = (0..n as u32).collect();
        let bytes: Vec<u8> = data.iter().flat_map(|v: &f64| v.to_le_bytes()).collect();
        let buf = iim_bytes::shared(&bytes);
        let view = FloatSlice::view(&buf, 0, n * m);
        assert!(view.is_view() || cfg!(target_endian = "big"));
        cases.push((
            format!("{name}, view"),
            FeatureMatrix::from_dense(m, ids.clone(), view),
        ));
        cases.push((
            format!("{name}, owned"),
            FeatureMatrix::from_dense(m, ids, data),
        ));
    }
    cases
}

#[cfg(test)]
mod tests {
    use super::*;
    use iim_data::Schema;

    fn line(n: usize) -> FeatureMatrix {
        let data: Vec<f64> = (0..n).map(|i| i as f64).collect();
        FeatureMatrix::from_dense(1, (0..n as u32).collect::<Vec<u32>>(), data)
    }

    #[test]
    fn nearest_on_a_line() {
        let fm = line(10);
        let nn = fm.knn(&[4.2], 3);
        assert_eq!(nn.len(), 3);
        assert_eq!(nn[0].pos, 4);
        assert_eq!(nn[1].pos, 5);
        assert_eq!(nn[2].pos, 3);
        assert!((nn[0].dist - 0.2).abs() < 1e-12);
    }

    #[test]
    fn k_larger_than_candidates() {
        let fm = line(3);
        let nn = fm.knn(&[0.0], 10);
        assert_eq!(nn.len(), 3);
        // Ascending distances.
        assert!(nn.windows(2).all(|w| w[0].dist <= w[1].dist));
    }

    #[test]
    fn k_zero_and_empty() {
        let fm = line(3);
        assert!(fm.knn(&[0.0], 0).is_empty());
        let empty = FeatureMatrix::from_dense(1, vec![], vec![]);
        assert!(empty.knn(&[0.0], 2).is_empty());
    }

    #[test]
    fn ties_break_on_position() {
        // Points at ±1: equal distance from 0; lower position wins.
        let fm = FeatureMatrix::from_dense(1, vec![7, 9], vec![1.0, -1.0]);
        let nn = fm.knn(&[0.0], 1);
        assert_eq!(nn[0].pos, 0);
        assert_eq!(fm.row_id(nn[0].pos as usize), 7);
    }

    #[test]
    fn paper_fig1_imputation_neighbors() {
        // Example 1: NN(tx, {A1}, 3) = {t4, t5, t6} for tx[A1] = 5.
        let (rel, _) = iim_data::paper_fig1();
        let all: Vec<u32> = (0..8).collect();
        let nn = knn(&rel, &[0], &all, &[5.0, f64::NAN], 3);
        let mut ids: Vec<u32> = nn.iter().map(|n| n.pos).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![3, 4, 5]); // zero-based t4, t5, t6
    }

    #[test]
    fn gather_respects_attr_order() {
        let rel = Relation::from_rows(
            Schema::anonymous(3),
            &[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]],
        );
        let fm = FeatureMatrix::gather(&rel, &[2, 0], &[0, 1]);
        assert_eq!(fm.point(0), &[3.0, 1.0]);
        assert_eq!(fm.point(1), &[6.0, 4.0]);
        assert_eq!(fm.n_features(), 2);
        assert_eq!(fm.row_ids(), &[0, 1]);
    }

    #[test]
    fn index_is_send_sync_and_batch_matches_singles() {
        // The gathered index must be shareable across serving threads.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FeatureMatrix>();

        let fm = line(40);
        let queries: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64 * 0.37 - 5.0]).collect();
        let pool = iim_exec::Pool::new(4).with_serial_cutoff(1);
        let batch = fm.knn_batch(&pool, &queries, 5);
        assert_eq!(batch.len(), queries.len());
        for (q, nn) in queries.iter().zip(&batch) {
            assert_eq!(nn, &fm.knn(q, 5));
        }
    }

    #[test]
    fn matches_full_sort_reference() {
        // Cross-check heap selection against a naive full sort.
        let pts: Vec<f64> = (0..50)
            .map(|i| ((i * 37 % 50) as f64) * 0.73 - 10.0)
            .collect();
        let fm = FeatureMatrix::from_dense(1, (0..50u32).collect::<Vec<u32>>(), pts.clone());
        let q = [1.234];
        let got = fm.knn(&q, 7);
        let mut reference: Vec<(f64, u32)> = pts
            .iter()
            .enumerate()
            .map(|(i, &p)| ((p - q[0]).abs(), i as u32))
            .collect();
        reference.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (g, r) in got.iter().zip(&reference) {
            assert_eq!(g.pos, r.1);
            assert!((g.dist - r.0).abs() < 1e-12);
        }
    }
}

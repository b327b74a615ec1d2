//! KD-tree kNN for the large-`n` workloads.
//!
//! The paper's complexity analysis assumes brute-force search ("advanced
//! indexing and searching techniques could be applied, which is not the
//! focus of this study"); the tree exists so the SN-scale workloads
//! (100k tuples) stay tractable and so online serving is sub-linear in the
//! training size. Results are identical to [`brute`](crate::brute) —
//! property-tested — because both paths score candidates with the *same*
//! [`sq_dist_f`](crate::sq_dist_f) call and select through the same
//! `(squared distance, position)` bounded heap, so even rounding-induced
//! ties resolve identically.
//!
//! The tree **owns** its gathered [`FeatureMatrix`]: a fitted model can
//! store it (`Send + Sync`) and serve queries from any number of threads —
//! the storable shape [`NeighborIndex`](crate::index::NeighborIndex) wraps.
//!
//! # Build cost
//!
//! Snapshots ship the matrix, not the tree, so activating one rebuilds a
//! tree per attribute over a matrix that borrows the snapshot buffer. The
//! builders (this one and the [`VpTree`](crate::vptree::VpTree)'s)
//! therefore borrow the coordinates as one `&[f64]` per build instead of
//! resolving the matrix's view on every median-select comparison; the
//! comparison order is unchanged, so the tree is identical (unit-tested
//! against the per-point reference builder on random, duplicate-heavy and
//! constant-column matrices, owned and view-backed). The
//! `index_build_n10000` group of `benches/knn.rs`, uniform points, median
//! of 10 samples, on a 2-vCPU Xeon VM (rustc 1.95.0), per build including
//! the matrix clone:
//!
//! | tree | m | matrix | per-point reads | one borrowed slice |
//! |------|---|--------|-----------------|--------------------|
//! | kd   | 3 | owned  | 3.04 ms         | 1.56 ms            |
//! | kd   | 3 | view   | 4.07 ms         | 1.51 ms            |
//! | kd   | 4 | owned  | 3.09 ms         | 1.50 ms            |
//! | kd   | 4 | view   | 4.05 ms         | 1.47 ms            |
//! | vp   | 3 | owned  | 2.06 ms         | 1.98 ms            |
//! | vp   | 3 | view   | 2.25 ms         | 1.92 ms            |
//! | vp   | 4 | owned  | 2.08 ms         | 2.01 ms            |
//! | vp   | 4 | view   | 2.27 ms         | 1.94 ms            |

use crate::brute::{FeatureMatrix, Neighbor};
use crate::heap::{scan_rows_perm, scan_rows_seq, Entry, KnnScratch};
use std::collections::BinaryHeap;

const LEAF: usize = 16;

struct Node {
    /// Split dimension; `usize::MAX` marks a leaf.
    dim: usize,
    /// Split coordinate value.
    split: f64,
    /// `idx` range covered by this node.
    start: u32,
    end: u32,
    /// Children indices in `nodes` (0 = none).
    left: u32,
    right: u32,
}

/// The tree *structure* alone — flattened nodes plus the point permutation
/// — queried against the [`FeatureMatrix`] it was built from, which the
/// owning [`KdTree`] holds next to it.
pub(crate) struct TreeNodes {
    nodes: Vec<Node>,
    idx: Vec<u32>,
    /// `idx.len() × m` row-major copy of the points in `idx` order, so
    /// leaf scans feed the batched distance kernel contiguous rows.
    gathered: Vec<f64>,
}

impl TreeNodes {
    /// Builds the structure over all points of `points`.
    ///
    /// The coordinates are borrowed as one plain `&[f64]` for the whole
    /// build: a view-backed matrix (a loaded snapshot) would otherwise
    /// resolve its [`FloatSlice`](iim_bytes::FloatSlice) view twice per
    /// median-select comparison.
    pub(crate) fn build(points: &FeatureMatrix) -> Self {
        let n = points.len();
        let m = points.n_features();
        let data = points.data();
        let mut idx: Vec<u32> = (0..n as u32).collect();
        let mut nodes = Vec::with_capacity(2 * (n / LEAF + 1));
        // Root placeholder so child index 0 can mean "none".
        nodes.push(Node {
            dim: usize::MAX,
            split: 0.0,
            start: 0,
            end: 0,
            left: 0,
            right: 0,
        });
        if n > 0 {
            Self::build_rec(data, m, &mut nodes, &mut idx, 0, n, 0);
        }
        Self {
            nodes,
            gathered: points.rows_in_order(&idx),
            idx,
        }
    }

    fn build_rec(
        data: &[f64],
        m: usize,
        nodes: &mut Vec<Node>,
        idx: &mut [u32],
        start: usize,
        end: usize,
        depth: usize,
    ) -> u32 {
        let node_id = nodes.len() as u32;
        if end - start <= LEAF {
            nodes.push(Node {
                dim: usize::MAX,
                split: 0.0,
                start: start as u32,
                end: end as u32,
                left: 0,
                right: 0,
            });
            return node_id;
        }
        // Cycle the split dimension by depth; cheaper than a spread scan
        // and nearly as good for the low dimensionalities here.
        let dim = depth % m;
        let mid = (start + end) / 2;
        let coord = |p: u32| data[p as usize * m + dim];
        idx[start..end].select_nth_unstable_by(mid - start, |&a, &b| {
            coord(a).total_cmp(&coord(b)).then(a.cmp(&b))
        });
        let split = coord(idx[mid]);
        nodes.push(Node {
            dim,
            split,
            start: start as u32,
            end: end as u32,
            left: 0,
            right: 0,
        });
        let left = Self::build_rec(data, m, nodes, idx, start, mid, depth + 1);
        let right = Self::build_rec(data, m, nodes, idx, mid, end, depth + 1);
        nodes[node_id as usize].left = left;
        nodes[node_id as usize].right = right;
        node_id
    }

    fn search(
        &self,
        points: &FeatureMatrix,
        node_id: u32,
        query: &[f64],
        k: usize,
        heap: &mut BinaryHeap<Entry>,
    ) {
        let node = &self.nodes[node_id as usize];
        if node.dim == usize::MAX {
            // Batched contiguous leaf scan: the *same* normalized squared
            // distances the brute scan computes — scores and tie-breaks
            // match it bitwise.
            let m = query.len();
            let (start, end) = (node.start as usize, node.end as usize);
            scan_rows_perm(
                heap,
                k,
                query,
                &self.gathered[start * m..end * m],
                &self.idx[start..end],
            );
            return;
        }
        let diff = query[node.dim] - node.split;
        let (near, far) = if diff <= 0.0 {
            (node.left, node.right)
        } else {
            (node.right, node.left)
        };
        self.search(points, near, query, k, heap);
        // Prune the far side when the splitting plane is already beyond the
        // current worst distance (or keep descending while not yet full).
        // `diff²/|F|` lower-bounds the normalized distance to anything
        // across the plane.
        let worst = heap.peek().map(|e| e.sq).unwrap_or(f64::INFINITY);
        let plane_sq = diff * diff / points.n_features() as f64;
        if heap.len() < k || plane_sq <= worst {
            self.search(points, far, query, k, heap);
        }
    }
}

/// A balanced KD-tree that **owns** its [`FeatureMatrix`].
///
/// Because the tree owns the points, it is a plain storable value
/// (`Send + Sync`): fitted models hold one and serve concurrent queries
/// against it for the model's whole lifetime. Build once offline, query
/// millions of times online.
pub struct KdTree {
    points: FeatureMatrix,
    tree: TreeNodes,
    /// Positions `0..indexed_len` are covered by `tree`; positions from
    /// `indexed_len` up are the **pending buffer** — appended points not
    /// yet folded into the structure, scanned linearly at query time.
    indexed_len: usize,
}

impl KdTree {
    /// Builds a tree over all points of `points`, taking ownership.
    pub fn build(points: FeatureMatrix) -> Self {
        let tree = TreeNodes::build(&points);
        let indexed_len = points.len();
        Self {
            points,
            tree,
            indexed_len,
        }
    }

    /// The owned point matrix (indexed prefix plus pending tail).
    pub fn points(&self) -> &FeatureMatrix {
        &self.points
    }

    /// Number of points covered by the tree structure (the rest are
    /// pending appends, scanned linearly).
    pub fn indexed_len(&self) -> usize {
        self.indexed_len
    }

    /// Number of appended points awaiting a [`KdTree::rebuild`].
    pub fn pending_len(&self) -> usize {
        self.points.len() - self.indexed_len
    }

    /// Appends one point to the pending buffer (streaming ingestion).
    /// Queries stay exact — [`KdTree::knn_with`] unions the tree search
    /// with a linear scan of the pending tail — so when and whether a
    /// rebuild happens can never change an answer, only latency.
    pub fn append(&mut self, point: &[f64], row_id: u32) {
        self.points.push(point, row_id);
    }

    /// Folds the pending buffer into the tree by rebuilding the structure
    /// over all points. Results are identical before and after.
    pub fn rebuild(&mut self) {
        self.tree = TreeNodes::build(&self.points);
        self.indexed_len = self.points.len();
    }

    /// The k nearest points to `query`, ascending by `(distance, position)`
    /// — bit-identical ordering and values to [`FeatureMatrix::knn`].
    pub fn knn(&self, query: &[f64], k: usize) -> Vec<Neighbor> {
        let mut out = Vec::new();
        self.knn_into(query, k, &mut out);
        out
    }

    /// kNN lists for a batch of query rows, fanned out on `pool` — the
    /// tree analog of [`FeatureMatrix::knn_batch`]. The tree is
    /// `Send + Sync`, so workers share one index; results are in query
    /// order and identical for every worker count.
    pub fn knn_batch(
        &self,
        pool: &iim_exec::Pool,
        queries: &[Vec<f64>],
        k: usize,
    ) -> Vec<Vec<Neighbor>> {
        pool.parallel_map_indexed(queries.len(), |i| self.knn(&queries[i], k))
    }

    /// [`KdTree::knn`] into a reusable output buffer.
    pub fn knn_into(&self, query: &[f64], k: usize, out: &mut Vec<Neighbor>) {
        let mut scratch = KnnScratch::new();
        self.knn_with(query, k, &mut scratch, out);
    }

    /// [`KdTree::knn_into`] with caller-owned selection scratch — no
    /// allocation at steady state.
    ///
    /// Tree search over the indexed prefix, then an exact linear scan of
    /// the pending tail into the **same** `(squared distance, position)`
    /// heap — the union selection is bit-identical to a brute scan over
    /// all points, so appends never perturb tie-breaks.
    pub fn knn_with(
        &self,
        query: &[f64],
        k: usize,
        scratch: &mut KnnScratch,
        out: &mut Vec<Neighbor>,
    ) {
        out.clear();
        scratch.heap.clear();
        if k == 0 || self.points.is_empty() {
            return;
        }
        let k = k.min(self.points.len());
        // An initially-empty build has only the placeholder node, so the
        // tree search must be skipped until a rebuild covers real points.
        if self.indexed_len > 0 {
            self.tree
                .search(&self.points, 1, query, k, &mut scratch.heap);
        }
        let m = self.points.n_features();
        scan_rows_seq(
            &mut scratch.heap,
            k,
            query,
            &self.points.data()[self.indexed_len * m..],
            self.indexed_len as u32,
        );
        out.extend(scratch.drain_sorted().iter().map(|e| Neighbor {
            pos: e.pos,
            dist: e.sq.sqrt(),
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_matrix(n: usize, f: usize, seed: u64) -> FeatureMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let data: Vec<f64> = (0..n * f).map(|_| rng.gen_range(-10.0..10.0)).collect();
        FeatureMatrix::from_dense(f, (0..n as u32).collect::<Vec<u32>>(), data)
    }

    /// The reference builder: every coordinate resolved through
    /// [`FeatureMatrix::point`] per comparison. The real builder must
    /// produce exactly its tree.
    fn reference_build(points: &FeatureMatrix) -> TreeNodes {
        fn rec(
            points: &FeatureMatrix,
            nodes: &mut Vec<Node>,
            idx: &mut [u32],
            start: usize,
            end: usize,
            depth: usize,
        ) -> u32 {
            let node_id = nodes.len() as u32;
            if end - start <= LEAF {
                nodes.push(Node {
                    dim: usize::MAX,
                    split: 0.0,
                    start: start as u32,
                    end: end as u32,
                    left: 0,
                    right: 0,
                });
                return node_id;
            }
            let dim = depth % points.n_features();
            let mid = (start + end) / 2;
            idx[start..end].select_nth_unstable_by(mid - start, |&a, &b| {
                points.point(a as usize)[dim]
                    .total_cmp(&points.point(b as usize)[dim])
                    .then(a.cmp(&b))
            });
            let split = points.point(idx[mid] as usize)[dim];
            nodes.push(Node {
                dim,
                split,
                start: start as u32,
                end: end as u32,
                left: 0,
                right: 0,
            });
            let left = rec(points, nodes, idx, start, mid, depth + 1);
            let right = rec(points, nodes, idx, mid, end, depth + 1);
            nodes[node_id as usize].left = left;
            nodes[node_id as usize].right = right;
            node_id
        }
        let n = points.len();
        let mut idx: Vec<u32> = (0..n as u32).collect();
        let mut nodes = vec![Node {
            dim: usize::MAX,
            split: 0.0,
            start: 0,
            end: 0,
            left: 0,
            right: 0,
        }];
        if n > 0 {
            rec(points, &mut nodes, &mut idx, 0, n, 0);
        }
        let mut gathered = Vec::new();
        for &p in &idx {
            gathered.extend_from_slice(points.point(p as usize));
        }
        TreeNodes {
            nodes,
            idx,
            gathered,
        }
    }

    #[test]
    fn build_matches_the_reference_builder_exactly() {
        for (case, fm) in crate::brute::build_identity_cases() {
            let got = TreeNodes::build(&fm);
            let want = reference_build(&fm);
            assert_eq!(got.idx, want.idx, "{case}: permutation");
            assert_eq!(got.nodes.len(), want.nodes.len(), "{case}: node count");
            for (a, b) in got.nodes.iter().zip(&want.nodes) {
                assert_eq!(
                    (a.dim, a.start, a.end, a.left, a.right),
                    (b.dim, b.start, b.end, b.left, b.right),
                    "{case}: node shape"
                );
                assert_eq!(a.split.to_bits(), b.split.to_bits(), "{case}: split");
            }
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got.gathered), bits(&want.gathered), "{case}: gather");
        }
    }

    #[test]
    fn agrees_with_brute_force_bitwise() {
        for &(n, f) in &[(1usize, 1usize), (5, 2), (100, 1), (257, 3), (1000, 4)] {
            let fm = random_matrix(n, f, n as u64 * 31 + f as u64);
            let tree = KdTree::build(fm.clone());
            let mut rng = StdRng::seed_from_u64(99);
            for _ in 0..20 {
                let q: Vec<f64> = (0..f).map(|_| rng.gen_range(-12.0..12.0)).collect();
                let k = rng.gen_range(1..=n.min(12));
                let a = fm.knn(&q, k);
                let b = tree.knn(&q, k);
                assert_eq!(a.len(), b.len(), "n={n} f={f} k={k}");
                for (x, y) in a.iter().zip(&b) {
                    assert_eq!(x.pos, y.pos, "n={n} f={f} k={k}");
                    assert_eq!(x.dist.to_bits(), y.dist.to_bits(), "n={n} f={f} k={k}");
                }
            }
        }
    }

    #[test]
    fn duplicate_points_tie_break_on_position() {
        // 40 points, only 4 distinct locations: selection inside a tie
        // group must follow ascending position exactly like brute force.
        let mut data = Vec::new();
        for i in 0..40 {
            let v = (i % 4) as f64;
            data.extend_from_slice(&[v, -v]);
        }
        let fm = FeatureMatrix::from_dense(2, (0..40u32).collect::<Vec<u32>>(), data);
        let tree = KdTree::build(fm.clone());
        for k in [1usize, 3, 9, 11, 40, 60] {
            for q in [[0.0, 0.0], [2.0, -2.0], [1.4, -0.6]] {
                let a = fm.knn(&q, k);
                let b = tree.knn(&q, k);
                assert_eq!(a.len(), b.len(), "k={k}");
                for (x, y) in a.iter().zip(&b) {
                    assert_eq!(x.pos, y.pos, "k={k} q={q:?}");
                    assert_eq!(x.dist.to_bits(), y.dist.to_bits());
                }
            }
        }
    }

    #[test]
    fn empty_and_k_zero() {
        let fm = FeatureMatrix::from_dense(2, vec![], vec![]);
        let tree = KdTree::build(fm);
        assert!(tree.knn(&[0.0, 0.0], 3).is_empty());
        let fm2 = random_matrix(10, 2, 1);
        let tree2 = KdTree::build(fm2);
        assert!(tree2.knn(&[0.0, 0.0], 0).is_empty());
    }

    #[test]
    fn tree_is_send_sync_and_batch_matches_brute() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<KdTree>();

        let fm = random_matrix(200, 3, 8);
        let tree = KdTree::build(fm.clone());
        let mut rng = StdRng::seed_from_u64(4);
        let queries: Vec<Vec<f64>> = (0..80)
            .map(|_| (0..3).map(|_| rng.gen_range(-12.0..12.0)).collect())
            .collect();
        let pool = iim_exec::Pool::new(4).with_serial_cutoff(1);
        let batch = tree.knn_batch(&pool, &queries, 7);
        for (q, nn) in queries.iter().zip(&batch) {
            let brute = fm.knn(q, 7);
            assert_eq!(nn.len(), brute.len());
            for (a, b) in nn.iter().zip(&brute) {
                assert_eq!(a.pos, b.pos);
            }
        }
    }

    #[test]
    fn scratch_reuse_matches_fresh_queries() {
        let fm = random_matrix(300, 2, 12);
        let tree = KdTree::build(fm.clone());
        let mut scratch = KnnScratch::new();
        let mut out = Vec::new();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..50 {
            let q: Vec<f64> = (0..2).map(|_| rng.gen_range(-12.0..12.0)).collect();
            let k = rng.gen_range(1..=20);
            tree.knn_with(&q, k, &mut scratch, &mut out);
            assert_eq!(out, fm.knn(&q, k));
        }
    }

    #[test]
    fn appended_points_match_brute_before_and_after_rebuild() {
        let fm = random_matrix(100, 2, 21);
        let mut tree = KdTree::build(fm.clone());
        let mut brute = fm;
        let mut rng = StdRng::seed_from_u64(33);
        for i in 0..50u32 {
            let p: Vec<f64> = (0..2).map(|_| rng.gen_range(-10.0..10.0)).collect();
            tree.append(&p, 100 + i);
            brute.push(&p, 100 + i);
            let q: Vec<f64> = (0..2).map(|_| rng.gen_range(-12.0..12.0)).collect();
            let a = brute.knn(&q, 9);
            let b = tree.knn(&q, 9);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.pos, y.pos, "append {i}");
                assert_eq!(x.dist.to_bits(), y.dist.to_bits(), "append {i}");
            }
        }
        assert_eq!(tree.pending_len(), 50);
        assert_eq!(tree.indexed_len(), 100);
        tree.rebuild();
        assert_eq!(tree.pending_len(), 0);
        assert_eq!(tree.indexed_len(), 150);
        let mut rng = StdRng::seed_from_u64(34);
        for _ in 0..20 {
            let q: Vec<f64> = (0..2).map(|_| rng.gen_range(-12.0..12.0)).collect();
            let a = brute.knn(&q, 9);
            let b = tree.knn(&q, 9);
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.pos, y.pos);
                assert_eq!(x.dist.to_bits(), y.dist.to_bits());
            }
        }
    }

    #[test]
    fn append_into_empty_tree_is_searchable() {
        let mut tree = KdTree::build(FeatureMatrix::from_dense(1, vec![], vec![]));
        tree.append(&[3.0], 0);
        tree.append(&[1.0], 1);
        assert_eq!(tree.indexed_len(), 0);
        let nn = tree.knn(&[0.0], 1);
        assert_eq!(nn[0].pos, 1);
        tree.rebuild();
        assert_eq!(tree.knn(&[0.0], 1)[0].pos, 1);
    }

    #[test]
    fn exact_point_has_zero_distance() {
        let fm = random_matrix(64, 3, 5);
        let tree = KdTree::build(fm.clone());
        let q: Vec<f64> = fm.point(17).to_vec();
        let nn = tree.knn(&q, 1);
        assert_eq!(nn[0].pos, 17);
        assert_eq!(nn[0].dist, 0.0);
    }
}

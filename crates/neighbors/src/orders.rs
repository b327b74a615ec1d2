//! Sorted neighbor prefixes: one per-row kernel, and the stored orders.
//!
//! Algorithm 3 (§V-A1) starts from each tuple's neighbors in ascending
//! distance, `NN(tᵢ, F, 1) ⊂ NN(tᵢ, F, 2) ⊂ …` (Formula 13), the prefix
//! property the incremental sweep relies on. [`Prefixes`] produces one
//! tuple's `depth` nearest fellow candidates in ascending
//! `(distance, position)` order, into a caller's row buffer, with
//! reusable per-worker [`PrefixScratch`]. The adaptive sweep calls it
//! inside its per-tuple map, so an attribute's fit holds O(threads · n)
//! of neighbor state, not an n × ℓ_max matrix. [`NeighborOrders`] stores
//! the rows of shallow orders (the k + 1 validator orders, fixed-ℓ
//! learning) in one flat `n × depth` buffer filled by the same kernel.
//!
//! The kernel picks one of three paths per matrix and depth:
//!
//! * one feature: a sorted-line sweep, O(depth) per row after one sort;
//! * `depth · SCAN_DEPTH_RATIO ≥ n`, or no tree to ask: one blocked
//!   [`sq_dist_many`] scan, then `select_nth_unstable` and
//!   `sort_unstable` over packed (total-order distance bits, position)
//!   keys;
//! * otherwise the stored KD-tree's or VP-tree's k-NN query.
//!
//! The scan and the trees order candidates by the same
//! `(squared distance, position)` key, so they return the same rows for
//! every worker count. The line sweep orders by absolute coordinate gap,
//! ties to the lower position, and always puts the tuple itself first:
//! among exact duplicates of a tuple, the other paths order by position
//! instead.

use crate::brute::FeatureMatrix;
use crate::dist::sq_dist_many;
use crate::heap::{KnnScratch, SCAN_TILE};
use crate::index::{IndexChoice, NeighborIndex};
use crate::Neighbor;
use iim_exec::Pool;
use std::cell::Cell;

/// Scan-versus-tree cutover of the prefix kernel: a row of `depth`
/// neighbors among `n` candidates is enumerated by a full scan plus
/// selection when `depth · SCAN_DEPTH_RATIO ≥ n`, and by a tree query
/// below that.
///
/// A deep tree query visits most leaves anyway and pays a heap push per
/// candidate, while the scan's cost grows with `n` and barely with the
/// depth. The `orders_prefix_m4` criterion group (`cargo bench -p
/// iim-neighbors --bench knn`) times both per row, in µs, on one thread of
/// a 2-vCPU Xeon VM (uniform points, m = 4):
///
/// | depth | n   | n / depth | kd-tree | scan |
/// |-------|-----|-----------|---------|------|
/// | 100   | 2k  | 20        | 26      | 27   |
/// | 100   | 9k  | 90        | 29      | 108  |
/// | 100   | 20k | 200       | 40      | 183  |
/// | 100   | 50k | 500       | 37      | 525  |
/// | 1000  | 2k  | 2         | 187     | 52   |
/// | 1000  | 9k  | 9         | 306     | 146  |
/// | 1000  | 20k | 20        | 294     | 221  |
/// | 1000  | 50k | 50        | 327     | 511  |
///
/// The paths cross near n = 20 · depth at depth 100 and n ≈ 27 · depth
/// at depth 1000; the cutover sits between.
pub const SCAN_DEPTH_RATIO: usize = 24;

/// Whether the kernel scans (rather than asks a tree) for `depth`
/// neighbors among `n` candidates.
#[inline]
fn scans(n: usize, depth: usize) -> bool {
    depth.saturating_mul(SCAN_DEPTH_RATIO) >= n
}

/// How [`Prefixes::fill`] produces a row.
enum Path<'a> {
    /// One feature: positions sorted by coordinate, and each position's
    /// rank in that order.
    Line { by_x: Vec<u32>, rank_of: Vec<u32> },
    /// Blocked distance scan, select, sort.
    Scan,
    /// The index's own k-NN query (a KD-tree or VP-tree).
    Tree(&'a NeighborIndex),
}

/// The per-row prefix kernel over an index's points: each call writes one
/// tuple's `depth` nearest candidates (see the module docs for the paths).
pub struct Prefixes<'a> {
    fm: &'a FeatureMatrix,
    depth: usize,
    path: Path<'a>,
}

/// Reusable buffers for [`Prefixes::fill`]: the scan's keys and the tree
/// query's selection heap and output. Contents never influence results.
#[derive(Default)]
pub struct PrefixScratch {
    keys: Vec<u128>,
    knn: KnnScratch,
    found: Vec<Neighbor>,
}

impl PrefixScratch {
    /// An empty scratch; buffers grow to steady state on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<'a> Prefixes<'a> {
    /// The kernel for rows of `depth` (clamped to the point count) over
    /// `index`'s points. A one-feature matrix is sorted here, once.
    pub fn new(index: &'a NeighborIndex, depth: usize) -> Self {
        let fm = index.matrix();
        let n = fm.len();
        let depth = depth.min(n);
        let path = if fm.n_features() == 1 {
            let mut by_x: Vec<u32> = (0..n as u32).collect();
            by_x.sort_by(|&a, &b| {
                fm.point(a as usize)[0]
                    .total_cmp(&fm.point(b as usize)[0])
                    .then(a.cmp(&b))
            });
            let mut rank_of = vec![0u32; n];
            for (rank, &p) in by_x.iter().enumerate() {
                rank_of[p as usize] = rank as u32;
            }
            Path::Line { by_x, rank_of }
        } else if scans(n, depth) || matches!(index, NeighborIndex::Brute(_)) {
            Path::Scan
        } else {
            Path::Tree(index)
        };
        Self { fm, depth, path }
    }

    /// Row length: the clamped depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Writes point `i`'s `depth` nearest positions into `row`
    /// (`row.len() == depth`), ascending by `(distance, position)`.
    pub fn fill(&self, i: usize, scratch: &mut PrefixScratch, row: &mut [u32]) {
        assert_eq!(row.len(), self.depth, "row length must equal the depth");
        if self.depth == 0 {
            return;
        }
        match &self.path {
            Path::Line { by_x, rank_of } => self.fill_line(by_x, rank_of, i, row),
            Path::Scan => self.fill_scan(i, &mut scratch.keys, row),
            Path::Tree(index) => {
                let found = &mut scratch.found;
                index.knn_with(self.fm.point(i), self.depth, &mut scratch.knn, found);
                for (slot, nb) in row.iter_mut().zip(found.iter()) {
                    *slot = nb.pos;
                }
            }
        }
    }

    /// One-dimensional path: a point's neighbors are a window around its
    /// rank in coordinate order, merged by two-pointer expansion.
    fn fill_line(&self, by_x: &[u32], rank_of: &[u32], me: usize, row: &mut [u32]) {
        let n = by_x.len();
        let coord = |pos: u32| self.fm.point(pos as usize)[0];
        let rank = rank_of[me] as usize;
        let x = coord(me as u32);
        row[0] = me as u32;
        let (mut lo, mut hi) = (rank, rank); // expanding window [lo, hi]
        for s in row.iter_mut().skip(1) {
            let left_d = if lo > 0 {
                (x - coord(by_x[lo - 1])).abs()
            } else {
                f64::INFINITY
            };
            let right_d = if hi + 1 < n {
                (coord(by_x[hi + 1]) - x).abs()
            } else {
                f64::INFINITY
            };
            // Tie-break mirrors the other paths: smaller position wins.
            let take_left = match left_d.total_cmp(&right_d) {
                std::cmp::Ordering::Less => true,
                std::cmp::Ordering::Greater => false,
                std::cmp::Ordering::Equal => hi + 1 >= n || (lo > 0 && by_x[lo - 1] < by_x[hi + 1]),
            };
            if take_left {
                lo -= 1;
                *s = by_x[lo];
            } else {
                hi += 1;
                *s = by_x[hi];
            }
        }
    }

    /// Scan path: squared distances to every point in tiles of the batched
    /// kernel, packed with their positions into keys whose integer order is
    /// the `(f64::total_cmp, position)` order; then the `depth` smallest
    /// keys are selected and sorted.
    fn fill_scan(&self, i: usize, keys: &mut Vec<u128>, row: &mut [u32]) {
        let fm = self.fm;
        let m = fm.n_features();
        let q = fm.point(i);
        let mut buf = [0.0f64; SCAN_TILE];
        keys.clear();
        for (t, tile) in fm.data().chunks(SCAN_TILE * m).enumerate() {
            let rows = tile.len() / m;
            sq_dist_many(q, tile, &mut buf[..rows]);
            let base = t * SCAN_TILE;
            keys.extend(
                buf[..rows]
                    .iter()
                    .enumerate()
                    .map(|(r, &sq)| (u128::from(total_order_bits(sq)) << 32) | (base + r) as u128),
            );
        }
        if self.depth < keys.len() {
            keys.select_nth_unstable(self.depth - 1);
        }
        let best = &mut keys[..self.depth];
        best.sort_unstable();
        for (slot, &key) in row.iter_mut().zip(best.iter()) {
            *slot = key as u32;
        }
    }
}

/// The bits of `x` mapped so that unsigned integer order is
/// [`f64::total_cmp`] order: negative values have every bit flipped,
/// the others only their sign bit.
#[inline]
fn total_order_bits(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// For each point of a [`FeatureMatrix`], its `depth` nearest points
/// (including itself, first), ascending by `(distance, position)`.
#[derive(Debug, Clone)]
pub struct NeighborOrders {
    n: usize,
    depth: usize,
    /// `n x depth` matrix of positions into the source matrix.
    order: Vec<u32>,
}

impl NeighborOrders {
    /// Computes orders of depth `depth` (clamped to the candidate count) on
    /// the process-default pool ([`iim_exec::global`]).
    pub fn build(fm: &FeatureMatrix, depth: usize) -> Self {
        Self::build_on(&iim_exec::global(), fm, depth)
    }

    /// [`NeighborOrders::build`] on an explicit pool.
    ///
    /// Builds the index [`IndexChoice::Auto`] picks when the kernel would
    /// ask a tree, else scans; each point's row is computed independently,
    /// so the result is identical for every worker count (see the module
    /// docs for the paths).
    pub fn build_on(pool: &Pool, fm: &FeatureMatrix, depth: usize) -> Self {
        let choice = if fm.n_features() > 1 && !scans(fm.len(), depth) {
            IndexChoice::Auto
        } else {
            IndexChoice::Brute
        };
        Self::build_from_index(pool, &NeighborIndex::build(fm.clone(), choice), depth)
    }

    /// Builds orders *through an existing serving index*, so the offline
    /// phase reuses the tree the fitted model will store instead of
    /// building a second one.
    ///
    /// Output is bitwise-identical to [`NeighborOrders::build_on`] over
    /// the same matrix, whatever the index variant.
    pub fn build_from_index(pool: &Pool, index: &NeighborIndex, depth: usize) -> Self {
        thread_local! {
            static SCRATCH: Cell<PrefixScratch> = Cell::new(PrefixScratch::new());
        }
        let prefixes = Prefixes::new(index, depth);
        let (n, depth) = (index.len(), prefixes.depth());
        let mut order = vec![0u32; n * depth];
        pool.parallel_fill_rows(depth, &mut order, |i, row| {
            iim_exec::with_tls_scratch(&SCRATCH, |scratch| prefixes.fill(i, scratch, row));
        });
        Self { n, depth, order }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when there are no points.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Stored neighbor depth (the maximum usable ℓ).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The sorted neighbor prefix of point `i`: positions of its `depth`
    /// nearest points, self first.
    #[inline]
    pub fn neighbors_of(&self, i: usize) -> &[u32] {
        &self.order[i * self.depth..(i + 1) * self.depth]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_matrix(n: usize, f: usize, seed: u64) -> FeatureMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let data: Vec<f64> = (0..n * f).map(|_| rng.gen_range(-5.0..5.0)).collect();
        FeatureMatrix::from_dense(f, (0..n as u32).collect::<Vec<u32>>(), data)
    }

    /// Every row through the scan path, whatever the matrix and depth.
    fn scan_rows(fm: &FeatureMatrix, depth: usize) -> Vec<u32> {
        let scan = Prefixes {
            fm,
            depth,
            path: Path::Scan,
        };
        let mut scratch = PrefixScratch::new();
        let mut rows = vec![0u32; fm.len() * depth];
        for (i, row) in rows.chunks_mut(depth).enumerate() {
            scan.fill(i, &mut scratch, row);
        }
        rows
    }

    /// `fm` with every 50th point replaced by a copy of point 5.
    fn with_duplicates(fm: &FeatureMatrix) -> FeatureMatrix {
        let mut data = Vec::new();
        for i in 0..fm.len() {
            let src = if i % 50 == 0 { 5 } else { i };
            data.extend_from_slice(fm.point(src));
        }
        FeatureMatrix::from_dense(fm.n_features(), fm.row_ids().to_vec(), data)
    }

    #[test]
    fn self_is_always_first() {
        for f in [1usize, 3] {
            let fm = random_matrix(40, f, 11);
            let orders = NeighborOrders::build(&fm, 10);
            for i in 0..40 {
                assert_eq!(orders.neighbors_of(i)[0], i as u32, "f={f}");
            }
        }
    }

    #[test]
    fn matches_knn_prefixes() {
        for f in [1usize, 2, 4] {
            let fm = random_matrix(60, f, f as u64 * 7 + 1);
            let depth = 20;
            let orders = NeighborOrders::build(&fm, depth);
            for i in (0..60).step_by(7) {
                let expect = fm.knn(fm.point(i), depth);
                let got = orders.neighbors_of(i);
                for (g, e) in got.iter().zip(&expect) {
                    assert_eq!(*g, e.pos, "point {i}, f={f}");
                }
            }
        }
    }

    #[test]
    fn line_sweep_equals_general() {
        let fm = random_matrix(100, 1, 3);
        let a = NeighborOrders::build(&fm, 15);
        // Force the scan path on the same 1-feature matrix.
        let order_b = scan_rows(&fm, 15);
        for i in 0..100 {
            assert_eq!(
                a.neighbors_of(i),
                &order_b[i * 15..(i + 1) * 15],
                "point {i}"
            );
        }
    }

    #[test]
    fn tree_path_equals_brute_path() {
        // Below the scan cutover the build routes through the tree; it must
        // agree with the scan bitwise, including the tie-breaks exercised
        // by duplicated points.
        let fm = with_duplicates(&random_matrix(600, 3, 17));
        assert!(!scans(600, 12));
        let auto = NeighborOrders::build_on(&Pool::serial(), &fm, 12);
        let scan = scan_rows(&fm, 12);
        for i in 0..600 {
            assert_eq!(auto.neighbors_of(i), &scan[i * 12..(i + 1) * 12], "{i}");
        }
    }

    #[test]
    fn kernel_paths_agree_on_both_sides_of_the_cutover() {
        // n = 700: depths below `cut` ask a tree, `cut` and up scan.
        let fm = with_duplicates(&random_matrix(700, 3, 31));
        let cut = 700usize.div_ceil(SCAN_DEPTH_RATIO);
        for depth in [1usize, 5, cut - 1, cut, 400, 700] {
            let want = scan_rows(&fm, depth);
            for choice in [IndexChoice::Brute, IndexChoice::KdTree, IndexChoice::VpTree] {
                let index = NeighborIndex::build(fm.clone(), choice);
                let prefixes = Prefixes::new(&index, depth);
                let tree = matches!(prefixes.path, Path::Tree(_));
                assert_eq!(tree, choice != IndexChoice::Brute && depth < cut);
                let mut scratch = PrefixScratch::new();
                let mut row = vec![0u32; depth];
                for i in (0..700).step_by(13) {
                    prefixes.fill(i, &mut scratch, &mut row);
                    assert_eq!(
                        row,
                        &want[i * depth..(i + 1) * depth],
                        "{choice:?} {depth} {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn total_order_bits_sort_like_total_cmp() {
        let mut xs = vec![
            f64::NEG_INFINITY,
            -3.5,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            1.0,
            2.5e300,
            f64::INFINITY,
            f64::NAN,
        ];
        xs.reverse();
        let mut by_bits = xs.clone();
        by_bits.sort_by_key(|&x| total_order_bits(x));
        xs.sort_by(f64::total_cmp);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&by_bits), bits(&xs));
    }

    #[test]
    fn build_from_index_matches_build_for_both_variants() {
        for f in [1usize, 3] {
            let fm = random_matrix(80, f, 23);
            let reference = NeighborOrders::build_on(&Pool::serial(), &fm, 9);
            for choice in [IndexChoice::Brute, IndexChoice::KdTree, IndexChoice::VpTree] {
                let index = NeighborIndex::build(fm.clone(), choice);
                let via = NeighborOrders::build_from_index(&Pool::serial(), &index, 9);
                for i in 0..80 {
                    assert_eq!(
                        reference.neighbors_of(i),
                        via.neighbors_of(i),
                        "f={f} {:?}",
                        choice
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_build_matches_serial() {
        // Every construction path (line sweep, brute selection, tree
        // queries) is identical for every worker count.
        for (n, f) in [(90usize, 1usize), (90, 3), (700, 2)] {
            let fm = random_matrix(n, f, 21);
            let serial = NeighborOrders::build_on(&Pool::serial(), &fm, 12);
            let parallel = NeighborOrders::build_on(&Pool::new(4).with_serial_cutoff(1), &fm, 12);
            for i in 0..n {
                assert_eq!(
                    serial.neighbors_of(i),
                    parallel.neighbors_of(i),
                    "n={n} f={f}"
                );
            }
        }
    }

    #[test]
    fn depth_clamps_to_n() {
        let fm = random_matrix(5, 2, 9);
        let orders = NeighborOrders::build(&fm, 50);
        assert_eq!(orders.depth(), 5);
        assert_eq!(orders.neighbors_of(2).len(), 5);
    }

    #[test]
    fn fig1_learning_neighbors() {
        // Example 2: NN(t1, {A1}, 4) = {t1, t2, t3, t4}.
        let (rel, _) = iim_data::paper_fig1();
        let all: Vec<u32> = (0..8).collect();
        let fm = FeatureMatrix::gather(&rel, &[0], &all);
        let orders = NeighborOrders::build(&fm, 4);
        assert_eq!(orders.neighbors_of(0), &[0, 1, 2, 3]);
    }

    #[test]
    fn empty_matrix() {
        let fm = FeatureMatrix::from_dense(1, vec![], vec![]);
        let orders = NeighborOrders::build(&fm, 5);
        assert!(orders.is_empty());
        assert_eq!(orders.depth(), 0);
    }
}

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
//! * `depth · SCAN_DEPTH_RATIO ≥ n`, or no tree to ask: a bucketed scan
//!   (below);
//! * otherwise the stored KD-tree's or VP-tree's k-NN query.
//!
//! # The bucketed scan
//!
//! 1. All `n` squared Formula-1 distances, into per-worker scratch:
//!    [`sq_dist_many_fixed`] for 2–8 features, [`sq_dist_many`] beyond.
//!    Both give the bits [`sq_dist_f`](crate::dist::sq_dist_f) gives.
//! 2. A threshold `thr` from a strided sample (every 8th distance),
//!    ranked so that about 1.25 · depth points are expected at or below
//!    it (Floyd and Rivest's selection by sampling).
//! 3. The candidates: every point with `d ≤ thr`, gathered in position
//!    order. When at least `depth` points qualify, the `depth` smallest
//!    `(distance, position)` keys are all among them, since any key
//!    beyond `thr` orders after every candidate.
//! 4. A counting sort of the candidates into `nb = count` buckets by
//!    `min(nb − 1, ⌊d · (nb / thr)⌋)`, an index monotone in `d`, so the
//!    buckets concatenate in order. Only within a bucket are keys sorted,
//!    by `(f64::total_cmp, position)`, and the walk stops once `depth`
//!    rows are placed; the last bucket it needs is selected before it is
//!    sorted.
//!
//! The degenerate cases run the same walk with one bucket: `thr` is 0
//! (the sample's rank falls among exact duplicates of the tuple) or not
//! finite (overflowing rows), and, with every point a candidate, fewer
//! than `depth` candidates, a NaN distance (`total_cmp` orders it first
//! or last by its sign, where no bucket index can put it), or
//! `depth = n`. The scan therefore returns what a
//! full sort of all `n` keys returns; the select-and-sort key scan it
//! replaced is kept in the tests as that reference.
//!
//! The scan and the trees order candidates by the same
//! `(squared distance, position)` key, so they return the same rows for
//! every worker count. The line sweep orders by absolute coordinate gap,
//! ties to the lower position, and always puts the tuple itself first:
//! among exact duplicates of a tuple, the other paths order by position
//! instead.

use crate::brute::FeatureMatrix;
use crate::dist::{sq_dist_many, sq_dist_many_fixed};
use crate::heap::KnnScratch;
use crate::index::{IndexChoice, NeighborIndex};
use crate::Neighbor;
use iim_exec::Pool;
use std::cell::Cell;
use std::cmp::Ordering;

/// Scan-versus-tree cutover of the prefix kernel: a row of `depth`
/// neighbors among `n` candidates is enumerated by the bucketed scan
/// when `depth · SCAN_DEPTH_RATIO ≥ n`, and by a tree query below that.
///
/// A deep tree query visits most leaves anyway and pays a heap push per
/// candidate, while the scan's cost grows with `n` and barely with the
/// depth. The `orders_prefix_m4` criterion group (`cargo bench -p
/// iim-neighbors --bench knn`) times both per row, in µs, on one thread of
/// a 2-vCPU Xeon VM (uniform points, m = 4; each figure is the lowest
/// median of three runs, to discount the VM's steal time):
///
/// | depth | n    | n / depth | kd-tree | scan |
/// |-------|------|-----------|---------|------|
/// | 100   | 2k   | 20        | 18.5    | 9.1  |
/// | 100   | 5k   | 50        | 21.8    | 19.4 |
/// | 100   | 9k   | 90        | 23.5    | 31.6 |
/// | 100   | 20k  | 200       | 27.4    | 64.5 |
/// | 100   | 50k  | 500       | 26.1    | 173  |
/// | 100   | 100k | 1000      | 30.3    | 366  |
/// | 1000  | 2k   | 2         | 129     | 29.4 |
/// | 1000  | 5k   | 5         | 167     | 37.3 |
/// | 1000  | 9k   | 9         | 207     | 48.5 |
/// | 1000  | 20k  | 20        | 205     | 76.5 |
/// | 1000  | 50k  | 50        | 231     | 169  |
/// | 1000  | 100k | 100       | 264     | 338  |
///
/// Interpolated linearly, the paths cross near n = 59 · depth at depth
/// 100 and n = 73 · depth at depth 1000; the cutover sits between. Rows
/// are the same on either side (the paths agree bitwise), so the ratio
/// sets speed only.
pub const SCAN_DEPTH_RATIO: usize = 64;

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
    /// The bucketed distance scan.
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

/// Reusable buffers for [`Prefixes::fill`]: the scan's distances, sample,
/// candidates and buckets, and the tree query's selection heap and
/// output. Each is O(n) and grows to steady state on first use; contents
/// never influence results.
#[derive(Default)]
pub struct PrefixScratch {
    scan: ScanScratch,
    knn: KnnScratch,
    found: Vec<Neighbor>,
}

#[derive(Default)]
struct ScanScratch {
    /// Squared distance to every point, by position.
    dists: Vec<f64>,
    /// Every [`SAMPLE_STRIDE`]-th distance.
    sample: Vec<f64>,
    /// `(distance, position)` of the candidates, in position order.
    cands: Vec<(f64, u32)>,
    /// Each candidate's bucket.
    slots: Vec<u32>,
    /// The candidates grouped by bucket.
    bucketed: Vec<(f64, u32)>,
    /// Per bucket: its start, then (after the scatter) its end.
    ends: Vec<usize>,
}

impl PrefixScratch {
    /// An empty scratch; buffers grow to steady state on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Stride of the scan's threshold sample.
const SAMPLE_STRIDE: usize = 8;

/// The scan's key order: distance by [`f64::total_cmp`], then position.
#[inline]
fn by_key(a: &(f64, u32), b: &(f64, u32)) -> Ordering {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
}

/// Squared distances from `q` to every row of the row-major `data`.
fn sq_dists(q: &[f64], data: &[f64], out: &mut [f64]) {
    fn fixed<const W: usize>(q: &[f64], data: &[f64], out: &mut [f64]) {
        sq_dist_many_fixed::<W>(q.try_into().expect("query width"), data, out);
    }
    match q.len() {
        2 => fixed::<2>(q, data, out),
        3 => fixed::<3>(q, data, out),
        4 => fixed::<4>(q, data, out),
        5 => fixed::<5>(q, data, out),
        6 => fixed::<6>(q, data, out),
        7 => fixed::<7>(q, data, out),
        8 => fixed::<8>(q, data, out),
        _ => sq_dist_many(q, data, out),
    }
}

/// The scan's candidate threshold for a row of `depth`: the sample value
/// at rank `(depth + depth / 4) / 8`, so that about 1.25 · depth points
/// are expected at or below it; `None` when the sample is shorter.
fn sampled_threshold(dists: &[f64], depth: usize, sample: &mut Vec<f64>) -> Option<f64> {
    let rank = (depth + depth / 4) / SAMPLE_STRIDE;
    sample.clear();
    sample.extend(dists.iter().step_by(SAMPLE_STRIDE));
    if rank >= sample.len() {
        return None;
    }
    Some(*sample.select_nth_unstable_by(rank, f64::total_cmp).1)
}

/// Appends `(d, position)` for every distance not above `thr` to
/// `cands`, in position order, and returns whether any of them is NaN
/// (NaN is gathered too, to be seen). The comparisons of each block of 64
/// distances fold into one mask, which vectorizes, so the pass branches
/// per candidate rather than per point.
fn gather_within(dists: &[f64], thr: f64, cands: &mut Vec<(f64, u32)>) -> bool {
    let mut nan = false;
    let mut keep = |base: usize, mut mask: u64| {
        while mask != 0 {
            let p = base + mask.trailing_zeros() as usize;
            nan |= dists[p].is_nan();
            cands.push((dists[p], p as u32));
            mask &= mask - 1;
        }
    };
    let (blocks, rest) = dists.as_chunks::<64>();
    for (b, block) in blocks.iter().enumerate() {
        let mut mask = 0u64;
        for (k, &d) in block.iter().enumerate() {
            mask |= u64::from((d <= thr) | d.is_nan()) << k;
        }
        keep(b * 64, mask);
    }
    let mut mask = 0u64;
    for (k, &d) in rest.iter().enumerate() {
        mask |= u64::from((d <= thr) | d.is_nan()) << k;
    }
    keep(blocks.len() * 64, mask);
    nan
}

/// Sorts the first `row.len()` keys of `bucket` into `row` (all of them
/// when the bucket is shorter) and returns how many it placed.
fn place(bucket: &mut [(f64, u32)], row: &mut [u32]) -> usize {
    let bucket = if bucket.len() > row.len() {
        bucket.select_nth_unstable_by(row.len() - 1, by_key);
        &mut bucket[..row.len()]
    } else {
        bucket
    };
    bucket.sort_unstable_by(by_key);
    for (slot, &(_, p)) in row.iter_mut().zip(bucket.iter()) {
        *slot = p;
    }
    bucket.len()
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
            Path::Scan => self.fill_scan(i, &mut scratch.scan, row),
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

    /// Scan path (see the module docs): every distance, a sampled
    /// threshold, and a walk over the buckets of the candidates within it.
    fn fill_scan(&self, i: usize, s: &mut ScanScratch, row: &mut [u32]) {
        let (fm, depth) = (self.fm, self.depth);
        let n = fm.len();
        s.dists.resize(n, 0.0);
        sq_dists(fm.point(i), fm.data(), &mut s.dists);
        let (dists, cands) = (&s.dists, &mut s.cands);
        cands.clear();
        let mut within = None;
        if depth < n {
            if let Some(thr) = sampled_threshold(dists, depth, &mut s.sample) {
                let nan = gather_within(dists, thr, cands);
                if cands.len() >= depth && !nan {
                    within = Some(thr);
                }
            }
        }
        let thr = match within {
            Some(thr) if thr > 0.0 && thr.is_finite() => thr,
            // `thr` is 0 or not finite: one bucket.
            Some(_) => {
                place(cands, row);
                return;
            }
            // Every point is a candidate, in one bucket.
            None => {
                cands.clear();
                cands.extend(dists.iter().enumerate().map(|(p, &d)| (d, p as u32)));
                place(cands, row);
                return;
            }
        };
        // Counting sort into `nb = count` buckets by a monotone index; the
        // scatter keeps each bucket in position order.
        let nb = cands.len();
        let (scale, last) = (nb as f64 / thr, nb as u32 - 1);
        s.slots.clear();
        s.slots
            .extend(cands.iter().map(|&(d, _)| ((d * scale) as u32).min(last)));
        let ends = &mut s.ends;
        ends.clear();
        ends.resize(nb, 0);
        for &b in &s.slots {
            ends[b as usize] += 1;
        }
        let mut start = 0;
        for end in ends.iter_mut() {
            let len = *end;
            *end = start;
            start += len;
        }
        s.bucketed.resize(nb, (0.0, 0));
        for (&key, &b) in cands.iter().zip(&s.slots) {
            let end = &mut ends[b as usize];
            s.bucketed[*end] = key;
            *end += 1;
        }
        let (mut start, mut placed) = (0, 0);
        for &end in ends.iter() {
            let keys = &mut s.bucketed[start..end];
            start = end;
            match keys.len() {
                0 => continue,
                1 => {
                    row[placed] = keys[0].1;
                    placed += 1;
                }
                _ => placed += place(keys, &mut row[placed..]),
            }
            if placed == depth {
                break;
            }
        }
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

    /// `fm` with every 50th point replaced by a copy of point 5 (of the
    /// last point in matrices of five or fewer).
    fn with_duplicates(fm: &FeatureMatrix) -> FeatureMatrix {
        let mut data = Vec::new();
        for i in 0..fm.len() {
            let src = if i % 50 == 0 { 5.min(fm.len() - 1) } else { i };
            data.extend_from_slice(fm.point(src));
        }
        FeatureMatrix::from_dense(fm.n_features(), fm.row_ids().to_vec(), data)
    }

    /// A matrix of `n` points on `f` features whose value at (point,
    /// feature) is `value(point, feature, random draw)`.
    fn matrix_of(n: usize, f: usize, value: impl Fn(usize, usize, f64) -> f64) -> FeatureMatrix {
        let mut rng = StdRng::seed_from_u64(n as u64 * 31 + f as u64);
        let data = (0..n * f)
            .map(|c| value(c / f, c % f, rng.gen_range(-5.0..5.0)))
            .collect::<Vec<f64>>();
        FeatureMatrix::from_dense(f, (0..n as u32).collect::<Vec<u32>>(), data)
    }

    /// Inputs for the path-agreement test, each reaching different scan
    /// cases: bucketed ties, a zero threshold (most points are exact
    /// duplicates of each other), an infinite threshold and infinite
    /// distances (1e200 coordinates), too few candidates (every sampled
    /// position sits in one far cluster), and a width past the
    /// specialized distance kernels.
    fn path_inputs(n: usize) -> Vec<(&'static str, FeatureMatrix)> {
        vec![
            ("random", with_duplicates(&random_matrix(n, 3, 31))),
            (
                "duplicate-heavy",
                matrix_of(n, 2, |p, j, _| (p % 3 + j) as f64),
            ),
            (
                "constant column",
                matrix_of(n, 4, |_, j, r| if j == 0 { 1.5 } else { r }),
            ),
            (
                "1e200",
                matrix_of(n, 5, |p, j, r| match (p % 7, j) {
                    (3, 2) => 1e200,
                    (5, 0) => -1e200,
                    _ => r,
                }),
            ),
            (
                "strided",
                matrix_of(
                    n,
                    3,
                    |p, _, r| if p % 8 == 0 { r * 1e-3 } else { 100.0 + r },
                ),
            ),
            ("wide", matrix_of(n, 9, |_, _, r| r)),
        ]
    }

    /// The bits of `x` mapped so that unsigned integer order is
    /// [`f64::total_cmp`] order: negative values have every bit flipped,
    /// the others only their sign bit.
    fn total_order_bits(x: f64) -> u64 {
        let bits = x.to_bits();
        if bits >> 63 == 1 {
            !bits
        } else {
            bits | 1 << 63
        }
    }

    /// The reference row: the select-and-sort key scan the bucketed scan
    /// replaced. All `n` keys, packed as (total-order distance bits,
    /// position) so that integer order is the kernel's key order; the
    /// `depth` smallest are selected, then sorted.
    fn reference_row(fm: &FeatureMatrix, i: usize, depth: usize) -> Vec<u32> {
        let mut dists = vec![0.0; fm.len()];
        sq_dist_many(fm.point(i), fm.data(), &mut dists);
        let mut keys: Vec<u128> = dists
            .iter()
            .enumerate()
            .map(|(p, &d)| (u128::from(total_order_bits(d)) << 32) | p as u128)
            .collect();
        if depth < keys.len() {
            keys.select_nth_unstable(depth - 1);
        }
        let best = &mut keys[..depth];
        best.sort_unstable();
        best.iter().map(|&key| key as u32).collect()
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
        let fm = with_duplicates(&random_matrix(1000, 3, 17));
        assert!(!scans(1000, 12));
        let auto = NeighborOrders::build_on(&Pool::serial(), &fm, 12);
        let scan = scan_rows(&fm, 12);
        for i in 0..1000 {
            assert_eq!(auto.neighbors_of(i), &scan[i * 12..(i + 1) * 12], "{i}");
        }
    }

    #[test]
    fn kernel_paths_agree_on_both_sides_of_the_cutover() {
        // Depths below `cut` ask a tree, `cut` and up scan; every path
        // returns the reference key scan's rows.
        for n in (2usize..=8).chain([700, 2000]) {
            let cut = n.div_ceil(SCAN_DEPTH_RATIO);
            let mut depths: Vec<usize> = [1, 5, cut - 1, cut, n / 2, n - 1, n]
                .into_iter()
                .filter(|d| (1..=n).contains(d))
                .collect();
            depths.sort_unstable();
            depths.dedup();
            for (what, fm) in path_inputs(n) {
                for choice in [IndexChoice::Brute, IndexChoice::KdTree, IndexChoice::VpTree] {
                    let index = NeighborIndex::build(fm.clone(), choice);
                    for &depth in &depths {
                        let prefixes = Prefixes::new(&index, depth);
                        let tree = matches!(prefixes.path, Path::Tree(_));
                        assert_eq!(tree, choice != IndexChoice::Brute && depth < cut);
                        let mut scratch = PrefixScratch::new();
                        let mut row = vec![0u32; depth];
                        for i in (0..n).step_by(n.div_ceil(40)) {
                            prefixes.fill(i, &mut scratch, &mut row);
                            assert_eq!(
                                row,
                                reference_row(&fm, i, depth),
                                "{what}: n {n}, {choice:?}, depth {depth}, point {i}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn nan_distances_order_like_the_reference() {
        // Infinite coordinates make the distances among such points a
        // negative NaN, which `total_cmp` orders before every distance; a
        // NaN coordinate makes a positive NaN, ordered after every one.
        // The scan must place both where the full sort does.
        let fm = matrix_of(60, 2, |p, j, r| match (p % 20, j) {
            (4, 1) => f64::INFINITY,
            (9, 0) => f64::NAN,
            _ => r,
        });
        let index = NeighborIndex::build(fm.clone(), IndexChoice::Brute);
        for depth in [1usize, 5, 20, 59, 60] {
            let prefixes = Prefixes::new(&index, depth);
            let mut scratch = PrefixScratch::new();
            let mut row = vec![0u32; depth];
            for i in 0..60 {
                prefixes.fill(i, &mut scratch, &mut row);
                assert_eq!(
                    row,
                    reference_row(&fm, i, depth),
                    "depth {depth}, point {i}"
                );
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
        assert!(!scans(1000, 12));
        for (n, f) in [(90usize, 1usize), (90, 3), (1000, 2)] {
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

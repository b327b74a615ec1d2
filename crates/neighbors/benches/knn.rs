//! Criterion micro-benchmarks for the neighbor-search substrate: the
//! brute scan vs the owned KD-tree and VP-tree behind [`NeighborIndex`],
//! the blocked distance kernels, the deep-prefix kernel's scan-versus-tree
//! cutover, the flat-buffer neighbor-orders build, and the tree builds a
//! snapshot load pays once per attribute.
//!
//! Every search benchmark first asserts the paths agree bitwise on the
//! benched workload — the determinism contract is checked where the
//! numbers are produced. Two data shapes are benched: iid-uniform (no
//! index can prune much past m≈4 — the curse of dimensionality) and a
//! two-factor latent model (intrinsic dimension ~2, the correlated shape
//! real relations have, where tree pruning keeps paying at higher m).
//!
//! CI smoke-runs this whole file with `cargo bench -- --quick`.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use iim_bytes::FloatSlice;
use iim_neighbors::brute::FeatureMatrix;
use iim_neighbors::{
    sq_dist_f, sq_dist_many, IndexChoice, KdTree, KnnScratch, NeighborIndex, NeighborOrders,
    PrefixScratch, Prefixes, VpTree,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_matrix(n: usize, m: usize, seed: u64) -> FeatureMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let data: Vec<f64> = (0..n * m).map(|_| rng.gen_range(0.0..100.0)).collect();
    FeatureMatrix::from_dense(m, (0..n as u32).collect::<Vec<u32>>(), data)
}

/// Two shared latent factors + per-feature noise: intrinsic dimension ~2
/// at any ambient m (same generator family as the `serving` bench bin).
fn latent_matrix(n: usize, m: usize, seed: u64) -> FeatureMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut data = Vec::with_capacity(n * m);
    for _ in 0..n {
        let t = rng.gen_range(0.0..100.0f64);
        let u = rng.gen_range(0.0..100.0f64);
        for j in 0..m {
            let a = 0.3 + 0.6 * ((j as f64 * 0.37).sin().abs());
            let b = 1.0 - a * 0.5;
            data.push(a * t + b * u + rng.gen_range(-2.0..2.0));
        }
    }
    FeatureMatrix::from_dense(m, (0..n as u32).collect::<Vec<u32>>(), data)
}

fn bench_knn_group(c: &mut Criterion, group_name: &str, cells: &[(usize, usize, FeatureMatrix)]) {
    let mut group = c.benchmark_group(group_name);
    for (n, m, fm) in cells {
        let (n, m) = (*n, *m);
        let brute = NeighborIndex::build(fm.clone(), IndexChoice::Brute);
        let kd = NeighborIndex::build(fm.clone(), IndexChoice::KdTree);
        let vp = NeighborIndex::build(fm.clone(), IndexChoice::VpTree);
        let mut rng = StdRng::seed_from_u64(13);
        let queries: Vec<Vec<f64>> = (0..64)
            .map(|_| (0..m).map(|_| rng.gen_range(0.0..100.0)).collect())
            .collect();
        // Bitwise parity on the benched workload before timing it.
        for q in &queries {
            let a = brute.knn(q, 10);
            for other in [kd.knn(q, 10), vp.knn(q, 10)] {
                for (x, y) in a.iter().zip(&other) {
                    assert_eq!(x.pos, y.pos);
                    assert_eq!(x.dist.to_bits(), y.dist.to_bits());
                }
            }
        }
        for (name, index) in [("brute", &brute), ("kdtree", &kd), ("vptree", &vp)] {
            group.bench_with_input(
                BenchmarkId::new(name, format!("n{n}_m{m}")),
                index,
                |b, index| {
                    let mut scratch = KnnScratch::new();
                    let mut out = Vec::new();
                    b.iter(|| {
                        for q in &queries {
                            index.knn_with(q, 10, &mut scratch, &mut out);
                            black_box(&out);
                        }
                    });
                },
            );
        }
    }
    group.finish();
}

fn bench_index_knn(c: &mut Criterion) {
    let uniform: Vec<(usize, usize, FeatureMatrix)> =
        [(10_000usize, 2usize), (10_000, 8), (50_000, 4)]
            .iter()
            .map(|&(n, m)| (n, m, random_matrix(n, m, 7)))
            .collect();
    bench_knn_group(c, "index_knn_k10_uniform", &uniform);

    let latent: Vec<(usize, usize, FeatureMatrix)> =
        [(10_000usize, 8usize), (50_000, 8), (10_000, 12)]
            .iter()
            .map(|&(n, m)| (n, m, latent_matrix(n, m, 7)))
            .collect();
    bench_knn_group(c, "index_knn_k10_latent", &latent);
}

fn bench_dist_kernels(c: &mut Criterion) {
    // One query against a contiguous 1024-row block — the shape the brute
    // scan and kd/vp leaf scans feed. `scalar` calls sq_dist_f per row;
    // `batched` hands the whole block to sq_dist_many. Both produce
    // bit-identical outputs (asserted); the delta is pure kernel/codegen.
    let mut group = c.benchmark_group("dist_kernels_1024rows");
    for &m in &[4usize, 8, 16] {
        let mut rng = StdRng::seed_from_u64(29);
        let query: Vec<f64> = (0..m).map(|_| rng.gen_range(0.0..100.0)).collect();
        let block: Vec<f64> = (0..1024 * m).map(|_| rng.gen_range(0.0..100.0)).collect();
        let mut out = vec![0.0; 1024];
        sq_dist_many(&query, &block, &mut out);
        for (r, &v) in out.iter().enumerate() {
            assert_eq!(
                v.to_bits(),
                sq_dist_f(&query, &block[r * m..(r + 1) * m]).to_bits()
            );
        }
        group.bench_function(BenchmarkId::new("scalar", format!("m{m}")), |b| {
            b.iter(|| {
                let mut acc = 0.0f64;
                for row in block.chunks_exact(m) {
                    acc += sq_dist_f(black_box(&query), row);
                }
                black_box(acc)
            });
        });
        group.bench_function(BenchmarkId::new("batched", format!("m{m}")), |b| {
            b.iter(|| {
                sq_dist_many(black_box(&query), black_box(&block), &mut out);
                black_box(&out);
            });
        });
    }
    group.finish();
}

fn bench_orders_prefix(c: &mut Criterion) {
    // One row of a deep learning prefix (the adaptive sweep's per-tuple
    // enumeration), by the kd-tree's k-NN query and by the bucketed scan,
    // per row. The ratio n / depth at which the tree starts to win sets
    // `SCAN_DEPTH_RATIO`; the table in its rustdoc comes from this group.
    let mut group = c.benchmark_group("orders_prefix_m4");
    for n in [2_000usize, 5_000, 9_000, 20_000, 50_000, 100_000] {
        let fm = random_matrix(n, 4, 41);
        let kd = NeighborIndex::build(fm.clone(), IndexChoice::KdTree);
        let brute = NeighborIndex::build(fm, IndexChoice::Brute);
        for depth in [100usize, 1000] {
            let scan = Prefixes::new(&brute, depth);
            let mut scratch = PrefixScratch::new();
            let mut row = vec![0u32; depth];
            let mut found = Vec::new();
            let mut knn = KnnScratch::new();
            // Bitwise parity of the two paths before timing them.
            for i in (0..n).step_by(n / 8) {
                scan.fill(i, &mut scratch, &mut row);
                kd.knn_with(kd.matrix().point(i), depth, &mut knn, &mut found);
                assert!(row.iter().zip(&found).all(|(&p, nb)| p == nb.pos));
            }
            let cell = format!("n{n}_depth{depth}");
            group.bench_function(BenchmarkId::new("kdtree", &cell), |b| {
                let mut i = 0;
                b.iter(|| {
                    i = (i + 7919) % n;
                    kd.knn_with(kd.matrix().point(i), depth, &mut knn, &mut found);
                    black_box(&found);
                });
            });
            group.bench_function(BenchmarkId::new("scan", &cell), |b| {
                let mut i = 0;
                b.iter(|| {
                    i = (i + 7919) % n;
                    scan.fill(i, &mut scratch, &mut row);
                    black_box(&row);
                });
            });
        }
    }
    group.finish();
}

fn bench_orders_build(c: &mut Criterion) {
    // The stored orders: the flat-buffer build through the index (auto =
    // KD-tree at this size, and depth 32 is below the scan cutover) vs the
    // brute index, whose rows always scan.
    let fm = random_matrix(4096, 4, 3);
    let mut group = c.benchmark_group("orders_build_n4096_m4_depth32");
    group.bench_function("auto_kdtree", |b| {
        b.iter(|| black_box(NeighborOrders::build(&fm, 32)));
    });
    group.bench_function("forced_brute", |b| {
        let brute = NeighborIndex::build(fm.clone(), IndexChoice::Brute);
        b.iter(|| {
            black_box(NeighborOrders::build_from_index(
                &iim_exec::global(),
                &brute,
                32,
            ))
        });
    });
    group.finish();
}

fn bench_index_build(c: &mut Criterion) {
    // One tree build per attribute is what activating a snapshot costs
    // beyond the checksum. A loaded matrix is view-backed (it borrows the
    // snapshot buffer), a freshly fitted one is owned; both must answer
    // alike (asserted here; the unit tests pin the structure itself) and
    // build at the same speed. Each iteration clones the
    // matrix into the owning tree: a copy when owned, an `Arc` bump when
    // view-backed.
    let mut group = c.benchmark_group("index_build_n10000");
    for m in [3usize, 4] {
        let owned = random_matrix(10_000, m, 17);
        let bytes: Vec<u8> = owned.data().iter().flat_map(|v| v.to_le_bytes()).collect();
        let buf = iim_bytes::shared(&bytes);
        let view = FeatureMatrix::from_dense(
            m,
            owned.row_ids().to_vec(),
            FloatSlice::view(&buf, 0, owned.data().len()),
        );
        let q = vec![50.0; m];
        assert_eq!(
            KdTree::build(owned.clone()).knn(&q, 10),
            KdTree::build(view.clone()).knn(&q, 10)
        );
        assert_eq!(
            VpTree::build(owned.clone()).knn(&q, 10),
            VpTree::build(view.clone()).knn(&q, 10)
        );
        for (backing, fm) in [("owned", &owned), ("view", &view)] {
            let cell = format!("m{m}_{backing}");
            group.bench_function(BenchmarkId::new("kdtree", &cell), |b| {
                b.iter(|| black_box(KdTree::build(fm.clone())));
            });
            group.bench_function(BenchmarkId::new("vptree", &cell), |b| {
                b.iter(|| black_box(VpTree::build(fm.clone())));
            });
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_index_knn, bench_dist_kernels, bench_orders_prefix, bench_orders_build,
        bench_index_build
}
criterion_main!(benches);

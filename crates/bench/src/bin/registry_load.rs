//! **Registry + snapshot-format baseline**: v3 validate-then-view
//! activation vs v2 owned parse at serving scale, and hot-swap tail
//! latency through the real [`iim_serve::Registry`], recorded to
//! `bench_results/BENCH_registry.json`.
//!
//! Three questions, each gated in-bench before any number is recorded:
//!
//! * `v2_load_us` vs `v3_load_us` — the same fitted IIM model written in
//!   both container formats; both loads must serve **bitwise-identical**
//!   fills (the rolling-upgrade contract) before the timing counts.
//!   `view_speedup` is the activation win of borrowing the numeric banks
//!   from the validated buffer instead of re-parsing them into owned
//!   vectors — the cost a cold registry tenant pays on every activation.
//! * `under_swap_p50_us` / `under_swap_p99_us` — single-row impute
//!   latency through the registry while a writer hot-swaps the model
//!   between its v2 and v3 encodings under load. Every response must be
//!   a fill (no drops), per the one-version-per-response contract.
//! * `swap_mean_us` — what the writer pays per [`Registry::stage`] on a
//!   resident model (validate + temp write + barrier rename).
//!
//! ```text
//! cargo run -p iim-bench --release --bin registry_load [-- --quick --seed 42]
//! ```

use iim_bench::{Args, BenchResult, Cell, Table};
use iim_core::{AdaptiveConfig, Iim, IimConfig, Learning};
use iim_data::{Imputer, PerAttributeImputer, Relation, Schema};
use iim_serve::{Registry, RegistryConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Linear-plus-noise training relation (cf. `serve_load`) — enough
/// structure that the fitted model is non-degenerate.
fn training_relation(n: usize, m: usize, seed: u64) -> Relation {
    let mut rng = StdRng::seed_from_u64(seed);
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            let x = i as f64 * 0.1;
            (0..m)
                .map(|j| x * (j + 1) as f64 * 0.3 + rng.gen_range(-0.5..0.5))
                .collect()
        })
        .collect();
    Relation::from_rows(Schema::anonymous(m), &rows)
}

/// Query rows with one missing attribute each.
fn query_rows(n_queries: usize, m: usize, seed: u64) -> Vec<Vec<Option<f64>>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n_queries)
        .map(|i| {
            let hole = i % m;
            (0..m)
                .map(|j| {
                    if j == hole {
                        None
                    } else {
                        Some((rng.gen_range(0.0..100.0f64) * 1e4).round() / 1e4)
                    }
                })
                .collect()
        })
        .collect()
}

/// Median of timed repetitions, in microseconds.
fn median_us(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

fn percentile_us(sorted: &[f64], q: f64) -> f64 {
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

fn main() {
    let args = Args::parse();
    let m = 4usize;
    let (n, reps, n_queries, swaps, clients): (usize, usize, usize, usize, usize) = if args.quick {
        (1_000, 5, 60, 4, 2)
    } else {
        (10_000, 30, 200, 20, 2)
    };
    let n = args.n.map_or(n, |cap| n.min(cap));

    let rel = training_relation(n, m, args.seed ^ n as u64);
    let queries = query_rows(n_queries, m, args.seed.wrapping_add(7));
    let method = PerAttributeImputer::new(Iim::new(IimConfig {
        k: 10,
        learning: Learning::Adaptive(AdaptiveConfig {
            step: 5,
            ell_max: Some(200),
            validation_k: Some(10),
            ..AdaptiveConfig::default()
        }),
        ..IimConfig::default()
    }));
    let fitted = method.fit(&rel).expect("fit");

    // The same model in both container formats.
    let v2 = iim_persist::save_to_vec_v2(fitted.as_ref()).expect("save v2");
    let v3 = iim_persist::save_to_vec(fitted.as_ref()).expect("save v3");
    assert_eq!(iim_persist::inspect(&v2).expect("inspect v2").version, 2);
    assert_eq!(
        iim_persist::inspect(&v3).expect("inspect v3").version,
        iim_persist::FORMAT_VERSION
    );

    // Fidelity gate first: both formats must serve the same bits.
    let from_v2 = iim_persist::load_from_slice(&v2).expect("load v2");
    let from_v3 = iim_persist::load_from_slice(&v3).expect("load v3");
    for row in &queries {
        let a = from_v2.impute_one(row).expect("serve v2 load");
        let b = from_v3.impute_one(row).expect("serve v3 load");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "v2 and v3 loads diverged — version skew would change answers"
            );
        }
    }
    drop((from_v2, from_v3));

    // Activation latency: owned parse (v2) vs validate-then-view (v3).
    let time_loads = |bytes: &[u8]| -> Vec<f64> {
        (0..reps)
            .map(|_| {
                let t = Instant::now();
                let model = iim_persist::load_from_slice(bytes).expect("load");
                let us = t.elapsed().as_secs_f64() * 1e6;
                std::hint::black_box(&model);
                us
            })
            .collect()
    };
    let v2_samples = time_loads(&v2);
    let v3_samples = time_loads(&v3);
    let v2_load_us = median_us(v2_samples.clone());
    let v3_load_us = median_us(v3_samples.clone());
    let view_speedup = v2_load_us / v3_load_us.max(1e-9);

    // Hot-swap churn through the registry: clients hammer single-row
    // imputes while a writer alternates the tenant between its v2 and v3
    // encodings. Every impute must come back as a fill.
    let dir = std::env::temp_dir().join(format!("iim-registry-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let registry = Registry::open(RegistryConfig {
        dir: dir.clone(),
        max_resident: 2,
        threads: args.threads.unwrap_or(0),
        ..Default::default()
    })
    .expect("open registry");
    registry
        .stage("bench", &v3)
        .expect("stage initial snapshot");
    let header: Vec<String> = (1..=m).map(|j| format!("A{j}")).collect();

    let stop = AtomicBool::new(false);
    let latencies = Mutex::new(Vec::<f64>::new());
    let swap_us = Mutex::new(Vec::<f64>::new());
    std::thread::scope(|scope| {
        for c in 0..clients {
            let registry = &registry;
            let stop = &stop;
            let latencies = &latencies;
            let header = &header;
            let queries = &queries;
            scope.spawn(move || {
                let mut local = Vec::new();
                let mut i = c; // offset so clients don't march in lockstep
                while !stop.load(Ordering::Relaxed) {
                    let row = queries[i % queries.len()].clone();
                    let t = Instant::now();
                    let results = registry
                        .impute("bench", header, vec![row])
                        .expect("impute under swap churn");
                    local.push(t.elapsed().as_secs_f64() * 1e6);
                    assert!(
                        results[0].is_ok(),
                        "a request was dropped or failed during a hot swap"
                    );
                    i += 1;
                }
                latencies.lock().unwrap().extend(local);
            });
        }
        // Writer: each stage validates, writes a temp file, and renames
        // inside the tenant's write section.
        for s in 0..swaps {
            std::thread::sleep(std::time::Duration::from_millis(5));
            let bytes = if s % 2 == 0 { &v2 } else { &v3 };
            let t = Instant::now();
            let outcome = registry.stage("bench", bytes).expect("hot swap");
            swap_us
                .lock()
                .unwrap()
                .push(t.elapsed().as_secs_f64() * 1e6);
            assert!(outcome.swapped, "tenant fell out of residency mid-bench");
        }
        stop.store(true, Ordering::Relaxed);
    });
    registry.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    let mut lat = latencies.into_inner().unwrap();
    lat.sort_by(|a, b| a.total_cmp(b));
    assert!(
        !lat.is_empty(),
        "no imputes completed during the swap churn"
    );
    let impute_requests = lat.len();
    let under_swap_p50_us = percentile_us(&lat, 0.50);
    let under_swap_p99_us = percentile_us(&lat, 0.99);
    let swap_samples = swap_us.into_inner().unwrap();
    let swap_mean_us = swap_samples.iter().sum::<f64>() / swap_samples.len() as f64;

    let mut table = Table::new(vec![
        "n",
        "v2_B",
        "v3_B",
        "v2_load_us",
        "v3_load_us",
        "view_speedup",
        "swap_p50_us",
        "swap_p99_us",
        "stage_us",
    ]);
    table.push(vec![
        n.to_string(),
        v2.len().to_string(),
        v3.len().to_string(),
        format!("{v2_load_us:.0}"),
        format!("{v3_load_us:.0}"),
        format!("{view_speedup:.2}x"),
        format!("{under_swap_p50_us:.0}"),
        format!("{under_swap_p99_us:.0}"),
        format!("{swap_mean_us:.0}"),
    ]);

    let mut result = BenchResult::new("registry", 0, reps).with_note(&format!(
        "v2 owned parse vs v3 validate-then-view activation; hot-swap churn through \
         iim_serve::Registry. load_us carries every timed rep; both formats gated \
         bitwise-identical on {n_queries} queries before timing; every impute during the \
         swap churn returned a fill (zero drops).",
    ));
    for (format, bytes, samples) in [("v2", v2.len(), &v2_samples), ("v3", v3.len(), &v3_samples)] {
        result.push(
            Cell::new()
                .coord_str("method", "IIM")
                .coord_str("format", format)
                .coord_num("n", n as f64)
                .coord_num("m", m as f64)
                .metric("load_us", samples.clone())
                .metric("snapshot_bytes", vec![bytes as f64]),
        );
    }
    result.push(
        Cell::new()
            .coord_str("method", "IIM")
            .coord_str("workload", "swap_churn")
            .coord_num("n", n as f64)
            .coord_num("m", m as f64)
            .coord_num("client_threads", clients as f64)
            .coord_num("hot_swaps", swaps as f64)
            .metric("under_swap_p50_us", vec![under_swap_p50_us])
            .metric("under_swap_p99_us", vec![under_swap_p99_us])
            .metric("stage_us", swap_samples.clone())
            .metric("impute_requests", vec![impute_requests as f64]),
    );
    let path = result
        .write_named(args.quick)
        .expect("write BENCH_registry.json");

    table.print(
        "Registry activation + hot swap (v2/v3 loads bitwise-identical, zero dropped requests)",
    );
    println!("wrote {}", path.display());
}

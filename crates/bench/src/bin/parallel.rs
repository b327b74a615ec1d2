//! **Parallel baseline**: per-method offline/online wall-clock at 1 and N
//! worker threads over a (method × missing-rate) grid on the paper-profile
//! dataset, recorded to `bench_results/BENCH_parallel.json` so the perf
//! trajectory of the execution subsystem is tracked in-repo.
//!
//! Every cell is run twice — workers pinned to 1, then to N (`--threads`,
//! default 4) — and the two filled relations are asserted **bitwise
//! identical**: the determinism invariant of `iim-exec`, checked here on
//! whole relations (stronger than the spec runner's rmse check). The grid
//! is then re-run with the cells themselves scheduled on the pool
//! (`run_lineup_on`), the high-throughput mode, and its wall-clock
//! recorded too. Results go out in the shared versioned envelope
//! (`iim_bench::result`), diffable with `iim bench diff`.
//!
//! ```text
//! cargo run -p iim-bench --release --bin parallel [-- --threads 4 --quick]
//! ```

use iim_bench::{
    method_lineup, run_lineup, run_lineup_on, Args, BenchResult, Cell, PaperData, Table,
};
use iim_data::inject::inject_attr;
use iim_data::{FeatureSelection, GroundTruth, Imputer, Relation};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// One cell timed through the two-phase API, keeping the filled relation
/// for the determinism check. `None` marks the paper's "-" entries.
fn time_cell(
    method: &dyn Imputer,
    rel: &Relation,
    targets: &[usize],
) -> Option<(Duration, Duration, Relation)> {
    let t0 = Instant::now();
    let fitted = match method.fit_targets(rel, targets) {
        Ok(f) => f,
        Err(iim_data::ImputeError::Unsupported(_)) => return None,
        Err(e) => panic!("{} failed to fit: {e}", method.name()),
    };
    let offline = t0.elapsed();
    let t1 = Instant::now();
    let out = fitted
        .impute_all(rel)
        .unwrap_or_else(|e| panic!("{} failed to impute: {e}", method.name()));
    Some((offline, t1.elapsed(), out))
}

struct Timed {
    method: String,
    rate: f64,
    offline_1: f64,
    online_1: f64,
    offline_n: f64,
    online_n: f64,
}

fn main() {
    let args = Args::parse();
    let threads = args.threads.unwrap_or(4);
    let data = PaperData::Asf; // the heterogeneous paper-profile headline
    let clean = data.generate(args.n, args.seed);
    let n = clean.n_rows();
    let am = clean.arity() - 1;
    let rates: &[f64] = if args.quick {
        &[0.05]
    } else {
        &[0.02, 0.05, 0.10]
    };
    let k = 10;

    let mut timed: Vec<Timed> = Vec::new();
    let mut workloads: Vec<(f64, Relation, GroundTruth)> = Vec::new();
    for (ri, &rate) in rates.iter().enumerate() {
        let mut rel = clean.clone();
        let holes = ((n as f64 * rate) as usize).max(10);
        let truth = inject_attr(
            &mut rel,
            am,
            holes,
            &mut StdRng::seed_from_u64(args.seed ^ ri as u64),
        );
        let targets = rel.incomplete_attrs();
        for method in method_lineup(k, args.seed, n, FeatureSelection::AllOthers) {
            iim_exec::set_default_threads(1);
            let serial = time_cell(method.as_ref(), &rel, &targets);
            iim_exec::set_default_threads(threads);
            let parallel = time_cell(method.as_ref(), &rel, &targets);
            iim_exec::set_default_threads(0);
            let (Some((off1, on1, out1)), Some((offn, onn, outn))) = (serial, parallel) else {
                continue; // not applicable on this workload
            };
            assert!(
                out1 == outn,
                "{}: {threads}-thread output diverged from serial at rate {rate}",
                method.name()
            );
            timed.push(Timed {
                method: method.name().to_string(),
                rate,
                offline_1: off1.as_secs_f64(),
                online_1: on1.as_secs_f64(),
                offline_n: offn.as_secs_f64(),
                online_n: onn.as_secs_f64(),
            });
            eprintln!("[parallel] {} @ {rate} done", method.name());
        }
        workloads.push((rate, rel, truth));
    }

    // The cell grid itself on the pool (inner work pinned serial), against
    // a sequential pass doing *identical* work — same lineup construction,
    // RMSE scoring, and unsupported-cell attempts on both sides.
    iim_exec::set_default_threads(1);
    let t0 = Instant::now();
    for (_, rel, truth) in &workloads {
        let lineup = method_lineup(k, args.seed, n, FeatureSelection::AllOthers);
        run_lineup(&lineup, rel, truth);
    }
    let grid_serial = t0.elapsed().as_secs_f64();
    let pool = iim_exec::Pool::new(threads);
    let t0 = Instant::now();
    for (_, rel, truth) in &workloads {
        let lineup = method_lineup(k, args.seed, n, FeatureSelection::AllOthers);
        run_lineup_on(&pool, &lineup, rel, truth);
    }
    let grid_pool = t0.elapsed().as_secs_f64();
    iim_exec::set_default_threads(0);

    // --- Envelope: one cell per (method, rate, thread count), plus the
    // cell-grid wall clocks, all in the shared versioned schema.
    let mut result = BenchResult::new("parallel", 0, 1).with_note(
        "per-method 1-vs-N-thread grid on the paper-profile dataset; every (method, rate) \
         asserted bitwise-identical across thread counts before timing; cell_grid rows time \
         the whole lineup scheduled on the pool (run_lineup_on) vs sequentially",
    );
    for t in &timed {
        for (thread_count, offline, online) in [
            (1usize, t.offline_1, t.online_1),
            (threads, t.offline_n, t.online_n),
        ] {
            result.push(
                Cell::new()
                    .coord_str("dataset", data.name())
                    .coord_str("method", &t.method)
                    .coord_num("missing_rate", t.rate)
                    .coord_num("threads", thread_count as f64)
                    .coord_num("n", n as f64)
                    .coord_num("k", k as f64)
                    .metric("offline_s", vec![offline])
                    .metric("online_s", vec![online]),
            );
        }
    }
    for (thread_count, wall) in [(1usize, grid_serial), (threads, grid_pool)] {
        result.push(
            Cell::new()
                .coord_str("dataset", data.name())
                .coord_str("workload", "cell_grid")
                .coord_num("threads", thread_count as f64)
                .coord_num("n", n as f64)
                .metric("wall_s", vec![wall]),
        );
    }
    let path = result
        .write_named(args.quick)
        .expect("write BENCH_parallel.json");

    // Per-method aggregate over the missing rates.
    let mut table = Table::new(vec![
        "Method",
        "offline_1t",
        "offline_nt",
        "speedup",
        "online_1t",
        "online_nt",
        "speedup",
    ]);
    let mut seen: Vec<&str> = Vec::new();
    let mut best_offline = 0.0f64;
    let mut best_online = 0.0f64;
    for c in &timed {
        if seen.contains(&c.method.as_str()) {
            continue;
        }
        seen.push(&c.method);
        let sum = |f: fn(&Timed) -> f64| -> f64 {
            timed.iter().filter(|x| x.method == c.method).map(f).sum()
        };
        let (o1, on_, n1, nn_) = (
            sum(|c| c.offline_1),
            sum(|c| c.offline_n),
            sum(|c| c.online_1),
            sum(|c| c.online_n),
        );
        let off_speedup = o1 / on_.max(1e-12);
        let on_speedup = n1 / nn_.max(1e-12);
        best_offline = best_offline.max(off_speedup);
        best_online = best_online.max(on_speedup);
        table.push(vec![
            c.method.clone(),
            Table::secs(o1),
            Table::secs(on_),
            format!("{off_speedup:.2}x"),
            Table::secs(n1),
            Table::secs(nn_),
            format!("{on_speedup:.2}x"),
        ]);
    }

    table.print(&format!(
        "Parallel baseline ({}, n={n}, 1 vs {threads} threads; all outputs bitwise-identical)",
        data.name()
    ));
    println!(
        "cell grid on the pool: {:.2}s serial vs {:.2}s at {threads} threads ({:.2}x)",
        grid_serial,
        grid_pool,
        grid_serial / grid_pool.max(1e-12)
    );
    println!(
        "best speedups at {threads} threads: offline {best_offline:.2}x, online {best_online:.2}x \
         ({} cores visible)",
        result.machine.available_cores
    );
    println!("wrote {}", path.display());
}

//! `iim` — command-line imputation for CSV files.
//!
//! ```text
//! iim impute [--method IIM] [--k 10] [--seed 42] [--threads 4] [--output out.csv] input.csv
//! iim impute --fit-on train.csv queries.csv   # fit once, stream queries
//! iim impute --model model.iim queries.csv    # load a snapshot, stream queries
//! iim fit --save model.iim train.csv          # offline phase → snapshot on disk
//! iim serve model.iim --addr 127.0.0.1:7878   # HTTP daemon over a snapshot
//! iim serve --models-dir models/              # multi-tenant registry daemon
//! iim learn --model model.iim rows.csv        # absorb tuples, append delta records
//! iim registry list --models-dir models/      # tenant cards (version, absorbed)
//! iim registry stage --models-dir models/ prices model.iim  # install/replace
//! iim profile input.csv          # R²_S / R²_H diagnostics per attribute
//! iim methods                    # list available methods
//! iim bench run spec.toml        # spec-driven experiment runner
//! iim bench diff new.json baseline.json --noise-band 10  # perf gate
//! ```
//!
//! `impute` reads a headered numerical CSV (missing cells empty, `?`, or
//! `NA`), fills every imputable cell with the chosen method, and writes
//! the completed CSV (stdout by default). With `--fit-on TRAIN.csv` the
//! method runs its offline phase on the training file once and then
//! streams the input file's tuples through the fitted model one by one —
//! the learn-once / impute-millions split of the paper's §VI-B3. With
//! `--model MODEL.iim` the offline phase is skipped entirely: the fitted
//! model is loaded from an `iim fit --save` snapshot and serves the same
//! bits it would have served in the fitting process.
//! `fit` runs the offline phase once and persists it; `serve` turns a
//! snapshot into a long-lived HTTP daemon whose fills are byte-identical
//! to `iim impute` on the same queries. It serves the snapshot as the
//! tenant `default` (`POST /models/default/impute`, `…/learn`,
//! `GET /models/default/info`, with `POST /impute` and `POST /learn` as
//! aliases, plus `GET /healthz` and `GET /info`) — or, with
//! `--models-dir`, a whole registry of named snapshots as tenants (staged
//! and hot-swapped via `PUT /models/{name}` with zero dropped requests;
//! see `iim_serve::server` for the route table). The daemon exits `0` on
//! `SIGTERM`/ctrl-c after
//! draining in-flight work. `learn` absorbs complete tuples into
//! a snapshot offline — the model is updated incrementally (no refit) and
//! the tuples are appended to the snapshot as delta records, replayed on
//! the next load. `profile` reports how sparse / heterogeneous each
//! attribute is, i.e. which method family the data favours.

use iim::prelude::*;
use std::io::{BufRead, Write};
use std::process::ExitCode;
use std::time::{Duration, Instant};

fn usage() -> String {
    "usage:\
     \n  iim impute [--method NAME] [--k N] [--seed S] [--threads T] [--index auto|brute|kdtree|vptree] \
     [--fit-on TRAIN.csv | --model MODEL.iim] [--output FILE] INPUT.csv\
     \n  iim fit --save MODEL.iim [--method NAME] [--k N] [--seed S] [--threads T] \
     [--index auto|brute|kdtree|vptree] TRAIN.csv\
     \n  iim serve MODEL.iim [--addr 127.0.0.1:7878] [--threads T] \
     [--checkpoint PATH] [--checkpoint-every N] [--max-connections N] [--max-queue N] \
     [--read-timeout SECS] [--write-timeout SECS]\
     \n  iim serve --models-dir DIR [--max-resident N] [--addr 127.0.0.1:7878] [--threads T] \
     [--max-connections N] [--max-queue N] [--read-timeout SECS] [--write-timeout SECS]\
     \n  iim registry list --models-dir DIR\
     \n  iim registry stage --models-dir DIR NAME SNAPSHOT.iim\
     \n  iim learn --model MODEL.iim ROWS.csv\
     \n  iim profile INPUT.csv\
     \n  iim methods\
     \n  iim bench run SPEC.toml [-o OUT.json] [overrides...]\
     \n  iim bench diff NEW.json BASELINE.json [--noise-band PCT]\
     \n\nserve routes (a tenant is one model: `default` for MODEL.iim, NAME for DIR/NAME.iim):\
     \n  POST /models/NAME/impute   CSV queries -> completed CSV\
     \n  POST /models/NAME/learn    complete CSV rows -> absorbed\
     \n  GET  /models/NAME/info     the tenant's card\
     \n  POST /impute, POST /learn  the `default` tenant's routes\
     \n  GET  /healthz, GET /info   readiness, limits and counters\
     \n  GET /models, PUT /models/NAME (stage), DELETE /models/NAME   --models-dir only"
        .to_string()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("impute") => impute(&args[1..]),
        Some("fit") => fit(&args[1..]),
        Some("serve") => serve_daemon(&args[1..]),
        Some("registry") => registry_cmd(&args[1..]),
        Some("learn") => learn(&args[1..]),
        Some("profile") => profile(&args[1..]),
        // The experiment runner + regression gate; logic lives in
        // iim_bench::cli so it stays unit-testable.
        Some("bench") => ExitCode::from(iim_bench::cli::bench_main(&args[1..]) as u8),
        Some("methods") => {
            // One source of truth: the first lineup entry is the default.
            for (i, m) in iim::methods::lineup(10, 0).iter().enumerate() {
                if i == 0 {
                    println!("{} (default)", m.name());
                } else {
                    println!("{}", m.name());
                }
            }
            ExitCode::SUCCESS
        }
        Some("--help") | Some("-h") => {
            println!("{}", usage());
            ExitCode::SUCCESS
        }
        None => {
            eprintln!("{}", usage());
            ExitCode::from(2)
        }
        Some(other) => {
            eprintln!("unknown subcommand {other:?}; try --help");
            ExitCode::from(2)
        }
    }
}

struct Flags {
    method: String,
    k: usize,
    seed: u64,
    index: iim_core::IndexChoice,
    fit_on: Option<String>,
    model: Option<String>,
    save: Option<String>,
    addr: String,
    threads: usize,
    output: Option<String>,
    input: Option<String>,
    checkpoint: Option<String>,
    checkpoint_every: Option<usize>,
    models_dir: Option<String>,
    max_resident: usize,
    max_connections: usize,
    max_queue: usize,
    read_timeout: Duration,
    write_timeout: Duration,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags {
        method: iim::methods::default_name(),
        k: 10,
        seed: 42,
        index: iim_core::IndexChoice::Auto,
        fit_on: None,
        model: None,
        save: None,
        addr: "127.0.0.1:7878".to_string(),
        threads: 0,
        output: None,
        input: None,
        checkpoint: None,
        checkpoint_every: None,
        models_dir: None,
        max_resident: 4,
        max_connections: 0,
        max_queue: iim_serve::DEFAULT_MAX_QUEUE,
        read_timeout: Duration::from_secs(60),
        write_timeout: Duration::from_secs(60),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--method" => f.method = it.next().ok_or("--method needs a value")?.clone(),
            "--k" => {
                f.k = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&k| k > 0)
                    .ok_or("--k needs a positive integer")?
            }
            "--seed" => {
                f.seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--seed needs a u64")?
            }
            "--threads" => {
                let t: usize = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&t| t > 0)
                    .ok_or("--threads needs a positive integer")?;
                // Process-wide: every pool (learning, serving, baselines)
                // sees it; overrides IIM_THREADS for this invocation.
                iim_exec::set_default_threads(t);
                f.threads = t;
            }
            "--index" => {
                // Never changes the imputed values, only serving latency;
                // `auto` picks by training size and dimensionality.
                f.index = it
                    .next()
                    .and_then(|v| iim_core::IndexChoice::parse(v))
                    .ok_or("--index needs one of: auto, brute, kdtree, vptree")?
            }
            "--fit-on" => f.fit_on = Some(it.next().ok_or("--fit-on needs a path")?.clone()),
            "--model" => f.model = Some(it.next().ok_or("--model needs a path")?.clone()),
            "--save" => f.save = Some(it.next().ok_or("--save needs a path")?.clone()),
            "--addr" => f.addr = it.next().ok_or("--addr needs host:port")?.clone(),
            "--checkpoint" => {
                f.checkpoint = Some(it.next().ok_or("--checkpoint needs a path")?.clone())
            }
            "--checkpoint-every" => {
                f.checkpoint_every = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n| n > 0)
                        .ok_or("--checkpoint-every needs a positive integer")?,
                )
            }
            "--models-dir" => {
                f.models_dir = Some(it.next().ok_or("--models-dir needs a path")?.clone())
            }
            "--max-resident" => {
                f.max_resident = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .ok_or("--max-resident needs a positive integer")?
            }
            "--max-connections" => {
                // 0 = unlimited; past the cap, accepts get 503 + Retry-After.
                f.max_connections = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--max-connections needs an integer (0 = unlimited)")?
            }
            "--max-queue" => {
                // 0 = unbounded; past the cap, requests get 503 + Retry-After.
                f.max_queue = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--max-queue needs an integer (0 = unbounded)")?
            }
            "--read-timeout" => {
                f.read_timeout = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .map(Duration::from_secs)
                    .ok_or("--read-timeout needs seconds (0 = no timeout)")?
            }
            "--write-timeout" => {
                f.write_timeout = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .map(Duration::from_secs)
                    .ok_or("--write-timeout needs seconds (0 = no timeout)")?
            }
            "--output" | "-o" => f.output = Some(it.next().ok_or("--output needs a path")?.clone()),
            path if !path.starts_with('-') => f.input = Some(path.to_string()),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(f)
}

fn build_method(
    name: &str,
    k: usize,
    seed: u64,
    index: iim_core::IndexChoice,
) -> Result<Box<dyn Imputer>, String> {
    iim::methods::by_name_with(name, k, seed, index)
        .ok_or_else(|| format!("unknown method {name:?}; run `iim methods`"))
}

fn impute(args: &[String]) -> ExitCode {
    let flags = match parse_flags(args) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(input) = flags.input.clone() else {
        eprintln!("error: missing input file");
        return ExitCode::from(2);
    };
    if flags.model.is_some() && flags.fit_on.is_some() {
        eprintln!("error: --model and --fit-on are mutually exclusive");
        return ExitCode::from(2);
    }
    if let Some(model_path) = flags.model.clone() {
        // Snapshot serving: no offline phase in this process at all.
        let t0 = Instant::now();
        let (fitted, info) = match load_snapshot(&model_path) {
            Ok(pair) => pair,
            Err(code) => return code,
        };
        let offline = t0.elapsed();
        if let Some(at) = info.recovered_at {
            eprintln!(
                "warning: {model_path} had a torn delta tail (a crash mid-append); \
                 serving from the valid prefix at byte {at} (run `iim learn` to repair the file)"
            );
        }
        let provenance = format!("loaded {} from {model_path}", fitted.name());
        // The snapshot's recorded schema (when present) guards against a
        // query file with reordered or unrelated columns.
        let expect = (!info.schema.is_empty()).then_some(info.schema.as_slice());
        return stream_queries(
            &flags,
            &input,
            fitted.as_ref(),
            expect,
            offline,
            &provenance,
        );
    }
    let method = match build_method(&flags.method, flags.k, flags.seed, flags.index) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match &flags.fit_on {
        Some(train_path) => serve(&flags, &input, train_path, method.as_ref()),
        None => impute_batch_file(&flags, &input, method.as_ref()),
    }
}

/// Loads a snapshot plus its container metadata, mapping failures to the
/// CLI's data-error exit code. The file is read into the one buffer the
/// model then borrows from (`iim_persist::load_path_with_info`).
fn load_snapshot(
    model_path: &str,
) -> Result<(Box<dyn FittedImputer>, iim_persist::SnapshotInfo), ExitCode> {
    iim_persist::load_path_with_info(model_path).map_err(|e| {
        // An unreadable file reports the bare OS error, unprefixed.
        let why = match e {
            iim_persist::PersistError::Io(io) => io.to_string(),
            other => other.to_string(),
        };
        eprintln!("error loading {model_path}: {why}");
        ExitCode::FAILURE
    })
}

/// `iim fit --save MODEL.iim TRAIN.csv`: the offline phase once, persisted
/// as a deployment artifact (`iim-persist` snapshot).
fn fit(args: &[String]) -> ExitCode {
    let flags = match parse_flags(args) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(train_path) = flags.input.clone() else {
        eprintln!("error: missing training file");
        return ExitCode::from(2);
    };
    let Some(save_path) = flags.save.clone() else {
        eprintln!("error: fit needs --save MODEL.iim (where to put the snapshot)");
        return ExitCode::from(2);
    };
    let method = match build_method(&flags.method, flags.k, flags.seed, flags.index) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let train = match iim::data::csv::read_path(&train_path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error reading {train_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let t0 = Instant::now();
    // Fit every attribute: a later query may be missing any of them.
    let fitted = match method.fit(&train) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("offline phase failed on {train_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let offline = t0.elapsed();
    let t1 = Instant::now();
    // Record the training header in the snapshot so serving layers can
    // reject query files with reordered or unrelated columns.
    let bytes = match iim_persist::save_to_vec_with_schema(fitted.as_ref(), train.schema().names())
    {
        Ok(b) => b,
        Err(e) => {
            eprintln!("snapshot failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Durable publish: temp file + fsync + rename, so a crash mid-save
    // never leaves a torn snapshot under the target name.
    if let Err(e) = iim_persist::save_bytes_path(&save_path, &bytes) {
        eprintln!("error writing {save_path}: {e}");
        return ExitCode::FAILURE;
    }
    let save_s = t1.elapsed();
    eprintln!(
        "{save_path}: {} fitted on {train_path} ({} rows x {} attrs) in {:.4}s; \
         snapshot {} bytes written in {:.4}s",
        fitted.name(),
        train.n_rows(),
        train.arity(),
        offline.as_secs_f64(),
        bytes.len(),
        save_s.as_secs_f64(),
    );
    ExitCode::SUCCESS
}

/// `iim serve MODEL.iim` / `iim serve --models-dir DIR`: a long-lived
/// HTTP daemon over one snapshot or a whole model registry. Exits `0` on
/// `SIGTERM`/ctrl-c after flushing any buffered checkpoint deltas (see
/// `iim_serve::shutdown`).
fn serve_daemon(args: &[String]) -> ExitCode {
    let flags = match parse_flags(args) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let t0 = Instant::now();
    let cfg = iim_serve::ServeConfig {
        addr: flags.addr.clone(),
        max_connections: flags.max_connections,
        read_timeout: flags.read_timeout,
        write_timeout: flags.write_timeout,
    };
    let (server, source) = if let Some(dir) = flags.models_dir.clone() {
        // Registry mode: models activate lazily, nothing loads up front.
        if flags.input.is_some() {
            eprintln!("error: --models-dir and a MODEL.iim are mutually exclusive");
            return ExitCode::from(2);
        }
        let registry = match iim_serve::Registry::open(iim_serve::RegistryConfig {
            dir: dir.clone().into(),
            max_resident: flags.max_resident,
            threads: flags.threads,
            max_queue: flags.max_queue,
        }) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error opening registry {dir}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match iim_serve::Server::bind_registry(registry, &cfg) {
            Ok(s) => (s, dir),
            Err(e) => {
                eprintln!("error binding {}: {e}", cfg.addr);
                return ExitCode::FAILURE;
            }
        }
    } else {
        let Some(model_path) = flags.input.clone() else {
            eprintln!(
                "error: missing MODEL.iim or --models-dir DIR \
                 (produce snapshots with `iim fit --save`)"
            );
            return ExitCode::from(2);
        };
        let (fitted, info) = match load_snapshot(&model_path) {
            Ok(pair) => pair,
            Err(code) => return code,
        };
        if let Some(at) = info.recovered_at {
            eprintln!(
                "warning: {model_path} had a torn delta tail (a crash mid-append); \
                 recovered to the valid prefix at byte {at}"
            );
        }
        // Either checkpoint flag turns delta checkpointing on; the path
        // defaults to the snapshot being served, the cadence to every
        // absorb. A torn tail the load recovered past is truncated away
        // before the first new delta lands — but only when the checkpoint
        // targets the file we recovered from.
        let checkpoint =
            (flags.checkpoint.is_some() || flags.checkpoint_every.is_some()).then(|| {
                let path: std::path::PathBuf = flags
                    .checkpoint
                    .clone()
                    .unwrap_or_else(|| model_path.clone())
                    .into();
                let truncate_to = info
                    .recovered_at
                    .filter(|_| path == std::path::Path::new(&model_path));
                iim_serve::CheckpointConfig {
                    path,
                    every: flags.checkpoint_every.unwrap_or(1),
                    truncate_to,
                }
            });
        // The one tenant, `default`, carries its own limits: pool threads,
        // admission cap, schema, checkpoint and torn-tail count.
        let tenant = match iim_serve::Batcher::start(fitted, flags.threads, checkpoint) {
            Ok(t) => t
                .with_schema(info.schema.into())
                .with_recovered(usize::from(info.recovered_at.is_some())),
            Err(e) => {
                eprintln!("error starting the model: {e}");
                return ExitCode::FAILURE;
            }
        };
        tenant.set_max_queue(flags.max_queue);
        match iim_serve::Server::bind(tenant, &cfg) {
            Ok(s) => (s, model_path),
            Err(e) => {
                eprintln!("error binding {}: {e}", cfg.addr);
                return ExitCode::FAILURE;
            }
        }
    };
    let load_s = t0.elapsed();
    let addr = server
        .local_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| flags.addr.clone());
    let routes = if flags.models_dir.is_some() {
        "POST /models/{name}/impute|learn, GET /models/{name}/info, GET/PUT/DELETE /models..., \
         POST /impute|learn (tenant default)"
    } else {
        "POST /impute|learn = POST /models/default/impute|learn, GET /models/default/info"
    };
    eprintln!(
        "serving {} from {source} (ready in {:.4}s) on http://{addr} — \
         {routes}, GET /healthz, GET /info; SIGTERM/ctrl-c exits cleanly",
        server.describe(),
        load_s.as_secs_f64(),
    );
    // Park until SIGTERM/SIGINT, then drain: stop accepting, join the
    // accept thread, which refuses new work and flushes buffered
    // checkpoint rows before it exits — and exit 0 so supervisors (and
    // serve_e2e.sh) can tell a clean stop from a crash.
    iim_serve::shutdown::install();
    let handle = match server.spawn() {
        Ok(h) => h,
        Err(e) => {
            eprintln!("error starting accept loop: {e}");
            return ExitCode::FAILURE;
        }
    };
    iim_serve::shutdown::wait();
    eprintln!("shutdown signal received; draining");
    handle.shutdown();
    ExitCode::SUCCESS
}

/// `iim registry list|stage`: offline admin verbs over a models
/// directory — the same staging path the daemon's `PUT /models/{name}`
/// uses (validate, temp file, atomic rename), minus the HTTP.
fn registry_cmd(args: &[String]) -> ExitCode {
    let Some(verb) = args.first().map(String::as_str) else {
        eprintln!("error: registry needs a verb: list | stage");
        return ExitCode::from(2);
    };
    let flags = match parse_flags(&args[1..]) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(dir) = flags.models_dir.clone() else {
        eprintln!("error: registry {verb} needs --models-dir DIR");
        return ExitCode::from(2);
    };
    let registry = match iim_serve::Registry::open(iim_serve::RegistryConfig {
        dir: dir.clone().into(),
        max_resident: flags.max_resident,
        threads: flags.threads,
        max_queue: flags.max_queue,
    }) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error opening registry {dir}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match verb {
        "list" => {
            let cards = match registry.list() {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("error listing {dir}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            println!(
                "{:<20} {:<10} {:>3} {:>9} {:>8}   schema",
                "name", "method", "v", "resident", "absorbed"
            );
            for c in cards {
                println!(
                    "{:<20} {:<10} {:>3} {:>9} {:>8}   {}",
                    c.name,
                    c.method,
                    c.snapshot_version,
                    if c.resident { "yes" } else { "no" },
                    c.absorbed,
                    c.schema.join(","),
                );
            }
            ExitCode::SUCCESS
        }
        "stage" => {
            // Positional args after the verb: NAME SNAPSHOT.iim — the
            // flag parser keeps the *last* positional as `input`, so pick
            // both out of the raw args.
            let positional: Vec<&String> = args[1..]
                .iter()
                .enumerate()
                .filter(|(i, a)| {
                    !a.starts_with('-')
                        && (*i == 0 || {
                            let prev = &args[1..][i - 1];
                            !matches!(
                                prev.as_str(),
                                "--models-dir"
                                    | "--max-resident"
                                    | "--threads"
                                    | "--addr"
                                    | "--method"
                                    | "--k"
                                    | "--seed"
                                    | "--index"
                                    | "--max-connections"
                                    | "--max-queue"
                                    | "--read-timeout"
                                    | "--write-timeout"
                            )
                        })
                })
                .map(|(_, a)| a)
                .collect();
            let [name, snapshot_path] = positional.as_slice() else {
                eprintln!("error: registry stage needs NAME SNAPSHOT.iim");
                return ExitCode::from(2);
            };
            let bytes = match std::fs::read(snapshot_path) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("error reading {snapshot_path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match registry.stage(name, &bytes) {
                Ok(out) => {
                    eprintln!(
                        "{dir}/{name}.iim: staged {} ({} bytes)",
                        out.method,
                        bytes.len()
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error staging {name}: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        other => {
            eprintln!("unknown registry verb {other:?}; try list or stage");
            ExitCode::from(2)
        }
    }
}

/// `iim learn --model MODEL.iim ROWS.csv`: absorbs complete tuples into a
/// snapshot offline. The model is updated incrementally — no refit — and
/// the tuples are appended to the snapshot as delta records, so the next
/// load (CLI or daemon) replays them into the same state.
fn learn(args: &[String]) -> ExitCode {
    let flags = match parse_flags(args) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(rows_path) = flags.input.clone() else {
        eprintln!("error: missing ROWS.csv (the complete tuples to absorb)");
        return ExitCode::from(2);
    };
    let Some(model_path) = flags.model.clone() else {
        eprintln!("error: learn needs --model MODEL.iim (the snapshot to grow)");
        return ExitCode::from(2);
    };
    let (mut fitted, info) = match load_snapshot(&model_path) {
        Ok(pair) => pair,
        Err(code) => return code,
    };
    let rel = match iim::data::csv::read_path(&rows_path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error reading {rows_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if !info.schema.is_empty() && rel.schema().names() != info.schema {
        eprintln!(
            "error: {rows_path} header {:?} does not match the model's schema {:?}",
            rel.schema().names(),
            info.schema
        );
        return ExitCode::FAILURE;
    }
    // Validate completeness up front: a partial failure mid-file would
    // leave the snapshot ahead of the caller's mental model.
    let mut rows: Vec<Vec<f64>> = Vec::with_capacity(rel.n_rows());
    for i in 0..rel.n_rows() {
        let row = rel.row_raw(i);
        let mut complete = Vec::with_capacity(row.len());
        for (j, cell) in row.iter().enumerate() {
            if cell.is_nan() {
                eprintln!(
                    "error: {rows_path} line {}, column {}: learning rows must be complete",
                    i + 2,
                    j + 1
                );
                return ExitCode::FAILURE;
            }
            complete.push(*cell);
        }
        rows.push(complete);
    }
    let t0 = Instant::now();
    for (i, row) in rows.iter().enumerate() {
        if let Err(e) = fitted.absorb(row) {
            eprintln!("error absorbing {rows_path} line {}: {e}", i + 2);
            return ExitCode::FAILURE;
        }
    }
    let absorb_s = t0.elapsed();
    // A torn tail the load recovered past must be cut off before a new
    // record lands after it, or the damage would sit mid-file and turn
    // into a hard error on the next load.
    if let Some(at) = info.recovered_at {
        eprintln!(
            "warning: {model_path} had a torn delta tail (a crash mid-append); \
             truncating to the valid prefix at byte {at}"
        );
        if let Err(e) = iim_persist::truncate_deltas_path(&model_path, at) {
            eprintln!("error repairing {model_path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Err(e) = iim_persist::append_delta_path(&model_path, &rows) {
        eprintln!("error appending delta to {model_path}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!(
        "{model_path}: {} absorbed {} tuples from {rows_path} in {:.4}s \
         ({} absorbed in total); delta record appended",
        fitted.name(),
        rows.len(),
        absorb_s.as_secs_f64(),
        fitted.absorbed(),
    );
    ExitCode::SUCCESS
}

/// The classic one-shot path: fit on the input itself, fill it, write it.
fn impute_batch_file(flags: &Flags, input: &str, method: &dyn Imputer) -> ExitCode {
    let rel = match iim::data::csv::read_path(input) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error reading {input}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let missing = rel.missing_count();
    let filled = match method.impute(&rel) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("imputation failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = match &flags.output {
        Some(path) => iim::data::csv::write_path(&filled, path),
        None => iim::data::csv::write(&filled, std::io::stdout().lock()),
    };
    if let Err(e) = result {
        eprintln!("error writing output: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!(
        "{}: filled {} of {} missing cells in {} rows x {} attrs with {}",
        input,
        missing - filled.missing_count(),
        missing,
        filled.n_rows(),
        filled.arity(),
        method.name(),
    );
    ExitCode::SUCCESS
}

/// The serving path: offline phase on the training file once, then stream
/// the input file's tuples through the fitted model one at a time.
fn serve(flags: &Flags, input: &str, train_path: &str, method: &dyn Imputer) -> ExitCode {
    let train = match iim::data::csv::read_path(train_path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error reading {train_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let t0 = Instant::now();
    // Fit every attribute: a query may be missing any of them.
    let fitted = match method.fit(&train) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("offline phase failed on {train_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let offline = t0.elapsed();
    let provenance = format!(
        "fitted {} on {train_path} ({} rows)",
        method.name(),
        train.n_rows()
    );
    stream_queries(
        flags,
        input,
        fitted.as_ref(),
        Some(train.schema().names()),
        offline,
        &provenance,
    )
}

/// Streams the input file's tuples through a fitted model one at a time —
/// shared by `--fit-on` (fit in-process) and `--model` (snapshot loaded
/// from disk), so both paths produce byte-identical output for the same
/// fitted state.
fn stream_queries(
    flags: &Flags,
    input: &str,
    fitted: &dyn FittedImputer,
    expect_names: Option<&[String]>,
    offline: Duration,
    provenance: &str,
) -> ExitCode {
    let file = match std::fs::File::open(input) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error reading {input}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut lines = std::io::BufReader::new(file).lines();
    let header = match lines.next() {
        Some(Ok(h)) => h,
        _ => {
            eprintln!("error reading {input}: empty input: missing header");
            return ExitCode::FAILURE;
        }
    };
    let names = iim::data::csv::parse_header(&header);
    if let Some(expected) = expect_names {
        if names != expected {
            eprintln!("error: query header {names:?} does not match training header {expected:?}");
            return ExitCode::FAILURE;
        }
    }
    // A snapshot carries no schema, only the fitted arity.
    if names.len() != fitted.arity() {
        eprintln!(
            "error: query header has {} attributes but the model serves {}",
            names.len(),
            fitted.arity()
        );
        return ExitCode::FAILURE;
    }

    let mut out: Box<dyn Write> = match &flags.output {
        Some(path) => match std::fs::File::create(path) {
            Ok(f) => Box::new(std::io::BufWriter::new(f)),
            Err(e) => {
                eprintln!("error writing output: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => Box::new(std::io::stdout().lock()),
    };

    let mut timings = PhaseTimings {
        offline,
        ..Default::default()
    };
    let mut served = 0usize;
    let mut filled_cells = 0usize;
    let write_failed = |e: std::io::Error| {
        eprintln!("error writing output: {e}");
        ExitCode::FAILURE
    };
    if let Err(e) = writeln!(out, "{header}") {
        return write_failed(e);
    }
    for (idx, line) in lines.enumerate() {
        let line = match line {
            Ok(l) => l,
            Err(e) => {
                eprintln!("error reading {input}: {e}");
                return ExitCode::FAILURE;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        let row = match iim::data::csv::parse_row(&line, names.len(), idx + 2) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error reading {input}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let missing_before = row.iter().filter(|c| c.is_none()).count();
        let t1 = Instant::now();
        let completed = match fitted.impute_one(&row) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("imputation failed on line {}: {e}", idx + 2);
                return ExitCode::FAILURE;
            }
        };
        timings.online += t1.elapsed();
        served += 1;
        filled_cells += missing_before - completed.iter().filter(|v| !v.is_finite()).count();
        if let Err(e) = writeln!(out, "{}", iim::data::csv::format_row(&completed)) {
            return write_failed(e);
        }
    }
    if let Err(e) = out.flush() {
        return write_failed(e);
    }
    let per_query = timings.online.as_secs_f64() / served.max(1) as f64;
    eprintln!(
        "{input}: {provenance}; served {served} queries ({filled_cells} cells filled), \
         {:.1} us/query; {}",
        per_query * 1e6,
        timings,
    );
    ExitCode::SUCCESS
}

fn profile(args: &[String]) -> ExitCode {
    let flags = match parse_flags(args) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(input) = flags.input else {
        eprintln!("error: missing input file");
        return ExitCode::from(2);
    };
    let rel = match iim::data::csv::read_path(&input) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error reading {input}: {e}");
            return ExitCode::FAILURE;
        }
    };
    use iim_data::inject::inject_attr;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    println!(
        "{:<12} {:>8} {:>8}   interpretation",
        "attribute", "R2_S", "R2_H"
    );
    for j in 0..rel.arity() {
        let complete: Vec<u32> = (0..rel.n_rows())
            .filter(|&i| rel.row_complete(i))
            .map(|i| i as u32)
            .collect();
        if complete.len() < 30 {
            eprintln!("not enough complete rows to profile");
            return ExitCode::FAILURE;
        }
        let mut probe = rel.select_rows(&complete);
        let n_inject = (probe.n_rows() / 5).clamp(10, probe.n_rows() / 2);
        let truth = inject_attr(
            &mut probe,
            j,
            n_inject,
            &mut StdRng::seed_from_u64(flags.seed ^ j as u64),
        );
        match iim::baselines::diagnostics::data_profile(&probe, &truth, flags.k) {
            Ok(p) => {
                let hint = match (p.r2_sparsity < 0.5, p.r2_heterogeneity < 0.5) {
                    (true, false) => "sparse: prefer regression models (GLR/IIM)",
                    (false, true) => "heterogeneous: prefer local models (kNN/IIM)",
                    (true, true) => "hard: both sparse and heterogeneous (IIM)",
                    (false, false) => "benign: most methods work",
                };
                println!(
                    "{:<12} {:>8.2} {:>8.2}   {hint}",
                    rel.schema().name(j),
                    p.r2_sparsity,
                    p.r2_heterogeneity,
                );
            }
            Err(e) => println!("{:<12} profile failed: {e}", rel.schema().name(j)),
        }
    }
    ExitCode::SUCCESS
}

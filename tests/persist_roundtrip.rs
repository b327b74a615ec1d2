//! The snapshot contract, property-tested per lineup method (all 14: IIM +
//! the thirteen Table II baselines):
//!
//! * **Round-trip invariant**: `fit → save → load → impute_all` is
//!   **bitwise-identical** to the never-serialized fitted model — on a
//!   serial pool and on 4 workers — and single-tuple serving agrees too,
//!   including the query-keyed randomness of BLR/PMM and per-target
//!   `NotFitted` contracts. A snapshot is a deployment artifact, not an
//!   approximation.
//! * **Canonical bytes**: re-saving a loaded model reproduces the exact
//!   snapshot bytes (encode ∘ decode is the identity on the wire).
//! * **Total loading**: truncating the snapshot at *every* byte offset,
//!   flipping *any* single byte, or setting the format version to anything
//!   but the current one (the retired v1 and v2 included) yields a typed
//!   [`iim_persist::PersistError`] — never a panic, never a bogus model.
//! * **One loader**: the file reader (`load_path`), the generic reader
//!   (`load`) and the slice loader (`load_from_slice`) decode through the
//!   same in-place decoder, so they agree on the metadata and on every
//!   fill — delta records and torn tails included — and the reader path
//!   is as total as the slice path.
//! * **Served over HTTP**: a loaded snapshot behind the `iim-serve`
//!   daemon answers a request large enough to fan out on the pool, and
//!   single-row keep-alive requests, byte for byte as the fitted model.

use iim::prelude::*;
use iim_data::inject::inject_random;
use iim_exec::Pool;
use iim_persist::{PersistError, SnapshotInfo};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};

/// IIM + all thirteen baselines, through the same single source of truth
/// the CLI uses.
fn all_fourteen(k: usize, seed: u64) -> Vec<Box<dyn Imputer>> {
    iim::methods::lineup(k, seed)
}

/// A random relation shaped like `tests/fit_serve.rs`'s workloads:
/// `n` correlated-ish complete rows (n ≥ m so SVDimpute applies) plus a
/// few injected holes.
fn arb_workload() -> impl Strategy<Value = Relation> {
    (12usize..30, 3usize..5, 1usize..5, 0u64..1000).prop_flat_map(|(n, m, holes, inj_seed)| {
        proptest::collection::vec(proptest::collection::vec(-20.0..20.0f64, m), n..=n).prop_map(
            move |rows| {
                let rows: Vec<Vec<f64>> = rows
                    .iter()
                    .enumerate()
                    .map(|(i, r)| {
                        r.iter()
                            .enumerate()
                            .map(|(j, v)| v * 0.3 + i as f64 * 0.5 + j as f64)
                            .collect()
                    })
                    .collect();
                let mut rel = Relation::from_rows(Schema::anonymous(m), &rows);
                let holes = holes.min(n / 3);
                inject_random(&mut rel, holes, &mut StdRng::seed_from_u64(inj_seed));
                rel
            },
        )
    })
}

/// Bitwise relation equality including missing cells (Relation's
/// `PartialEq` is already bit-level with NaN==NaN).
fn assert_bitwise_equal(a: &Relation, b: &Relation, what: &str) {
    assert!(a == b, "{what}: relations diverge");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn saved_and_loaded_models_serve_identical_bits(rel in arb_workload()) {
        let serial = Pool::serial();
        let four = Pool::new(4).with_serial_cutoff(1);
        for method in all_fourteen(4, 9) {
            let fitted = match method.fit(&rel) {
                Ok(f) => f,
                Err(ImputeError::Unsupported(_)) => continue, // paper's "-"
                Err(e) => panic!("{} failed to fit: {e}", method.name()),
            };
            let bytes = iim_persist::save_to_vec(fitted.as_ref())
                .unwrap_or_else(|e| panic!("{} failed to save: {e}", method.name()));
            let loaded = iim_persist::load_from_slice(&bytes)
                .unwrap_or_else(|e| panic!("{} failed to load: {e}", method.name()));
            prop_assert_eq!(loaded.name(), fitted.name());
            prop_assert_eq!(loaded.arity(), fitted.arity());

            // Canonical bytes: encode ∘ decode is the wire identity.
            let resaved = iim_persist::save_to_vec(loaded.as_ref()).unwrap();
            prop_assert_eq!(
                &bytes, &resaved,
                "{}: re-saving a loaded model changed the bytes", method.name()
            );

            // Whole-relation serving: bitwise equal at 1 and 4 workers.
            let reference = fitted.impute_all_on(&serial, &rel).unwrap();
            let one_worker = loaded.impute_all_on(&serial, &rel).unwrap();
            assert_bitwise_equal(&reference, &one_worker, method.name());
            let four_workers = loaded.impute_all_on(&four, &rel).unwrap();
            assert_bitwise_equal(&reference, &four_workers, method.name());

            // Single-tuple serving on novel queries: same bits, same
            // errors (NotFitted for dropped targets included).
            for j in 0..rel.arity() {
                let mut query: Vec<Option<f64>> =
                    (0..rel.arity()).map(|a| Some(0.75 * a as f64 + 1.25)).collect();
                query[j] = None;
                match (fitted.impute_one(&query), loaded.impute_one(&query)) {
                    (Ok(a), Ok(b)) => {
                        for (x, y) in a.iter().zip(&b) {
                            prop_assert_eq!(
                                x.to_bits(), y.to_bits(),
                                "{}: single-tuple fill diverged", method.name()
                            );
                        }
                    }
                    (Err(a), Err(b)) => prop_assert_eq!(
                        a, b, "{}: error contract diverged", method.name()
                    ),
                    (a, b) => panic!(
                        "{}: outcomes diverged: {a:?} vs {b:?}", method.name()
                    ),
                }
            }
        }
    }
}

/// A tiny fitted model per shape family, for exhaustive corruption sweeps.
fn small_snapshots() -> Vec<(String, Vec<u8>)> {
    let mut rel = Relation::with_capacity(Schema::anonymous(3), 0);
    for i in 0..14 {
        let x = i as f64;
        rel.push_row(&[x, 2.0 * x + 1.0, 10.0 - 0.5 * x]);
    }
    rel.push_row_opt(&[Some(3.5), None, Some(8.0)]);
    ["Mean", "IIM", "SVD", "ILLS", "ERACER", "IFC"]
        .iter()
        .map(|name| {
            let method = iim::methods::by_name(name, 3, 7).expect("lineup method");
            let fitted = method.fit(&rel).expect("fit");
            let bytes = iim_persist::save_to_vec(fitted.as_ref()).expect("save");
            (name.to_string(), bytes)
        })
        .collect()
}

#[test]
fn every_truncation_offset_is_a_typed_error() {
    for (name, bytes) in small_snapshots() {
        for cut in 0..bytes.len() {
            assert!(
                iim_persist::load_from_slice(&bytes[..cut]).is_err(),
                "{name}: prefix of {cut}/{} bytes loaded successfully",
                bytes.len()
            );
        }
    }
}

#[test]
fn every_single_byte_flip_is_a_typed_error() {
    // Every byte is covered by a validated header field or the payload
    // checksum, so no single-bit storage corruption can produce a model.
    for (name, bytes) in small_snapshots() {
        for at in 0..bytes.len() {
            let mut evil = bytes.clone();
            evil[at] ^= 0x20;
            assert!(
                iim_persist::load_from_slice(&evil).is_err(),
                "{name}: flip at byte {at}/{} loaded successfully",
                bytes.len()
            );
        }
    }
}

#[test]
fn every_truncation_offset_is_a_typed_error_through_the_reader() {
    for (name, bytes) in small_snapshots() {
        for cut in 0..bytes.len() {
            assert!(
                iim_persist::load(&mut &bytes[..cut]).is_err(),
                "{name}: prefix of {cut}/{} bytes loaded through the reader",
                bytes.len()
            );
        }
    }
}

#[test]
fn every_single_byte_flip_is_a_typed_error_through_the_reader() {
    for (name, bytes) in small_snapshots() {
        for at in 0..bytes.len() {
            let mut evil = bytes.clone();
            evil[at] ^= 0x20;
            assert!(
                iim_persist::load(&mut &evil[..]).is_err(),
                "{name}: flip at byte {at}/{} loaded through the reader",
                bytes.len()
            );
        }
    }
}

/// A fresh file holding `bytes` under the system temp directory.
fn temp_snapshot(tag: &str, bytes: &[u8]) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("iim-persist-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{tag}.iim"));
    std::fs::write(&path, bytes).unwrap();
    path
}

type Loaded = (Box<dyn FittedImputer>, SnapshotInfo);

/// The file at `path` through all three loaders: the path reader, the
/// generic reader over an open file, and the slice loader.
fn load_three_ways(path: &Path) -> [Result<Loaded, PersistError>; 3] {
    [
        iim_persist::load_path_with_info(path),
        iim_persist::load_with_info(std::fs::File::open(path).unwrap()),
        iim_persist::load_from_slice_with_info(&std::fs::read(path).unwrap()),
    ]
}

/// Asserts the three loaders agree on `path`: equal metadata and
/// bitwise-equal `impute_all` fills of `rel`. Returns the metadata.
fn assert_loaders_agree(path: &Path, rel: &Relation, what: &str) -> SnapshotInfo {
    let [by_path, by_reader, by_slice] = load_three_ways(path);
    let (a, ai) = by_path.unwrap_or_else(|e| panic!("{what}: load_path: {e}"));
    let (b, bi) = by_reader.unwrap_or_else(|e| panic!("{what}: load: {e}"));
    let (c, ci) = by_slice.unwrap_or_else(|e| panic!("{what}: load_from_slice: {e}"));
    assert_eq!(ai, bi, "{what}: load_path vs load metadata");
    assert_eq!(ai, ci, "{what}: load_path vs load_from_slice metadata");
    let serial = Pool::serial();
    let fills = a.impute_all_on(&serial, rel).unwrap();
    assert_bitwise_equal(&fills, &b.impute_all_on(&serial, rel).unwrap(), what);
    assert_bitwise_equal(&fills, &c.impute_all_on(&serial, rel).unwrap(), what);
    ai
}

/// 41 rows over three loosely linear columns, with a few holes. Odd
/// row counts give some methods an odd `u32` bank, so their snapshots end
/// mid-word.
fn loader_relation() -> Relation {
    let mut rng = StdRng::seed_from_u64(5);
    let rows: Vec<Vec<f64>> = (0..41)
        .map(|i| {
            let x = i as f64 * 0.25;
            (0..3)
                .map(|j| x * (j + 1) as f64 + rng.gen_range(-0.5..0.5))
                .collect()
        })
        .collect();
    let mut rel = Relation::from_rows(Schema::anonymous(3), &rows);
    inject_random(&mut rel, 6, &mut StdRng::seed_from_u64(11));
    rel
}

#[test]
fn every_loader_gives_the_same_model_for_every_method() {
    let rel = loader_relation();
    let mut residues = std::collections::BTreeSet::new();
    for method in all_fourteen(4, 3) {
        let fitted = match method.fit(&rel) {
            Ok(f) => f,
            Err(ImputeError::Unsupported(_)) => continue,
            Err(e) => panic!("{} failed to fit: {e}", method.name()),
        };
        let path = temp_snapshot(&format!("every-{}", method.name()), &[]);
        iim_persist::save_path(fitted.as_ref(), &path).unwrap();
        residues.insert(std::fs::metadata(&path).unwrap().len() % 8);
        let info = assert_loaders_agree(&path, &rel, method.name());
        assert_eq!(
            info,
            iim_persist::inspect(&std::fs::read(&path).unwrap()).unwrap()
        );
        let reference = fitted.impute_all_on(&Pool::serial(), &rel).unwrap();
        let loaded = iim_persist::load_path(&path).unwrap();
        assert_bitwise_equal(
            &reference,
            &loaded.impute_all_on(&Pool::serial(), &rel).unwrap(),
            method.name(),
        );
        std::fs::remove_file(&path).unwrap();
    }
    // Both a file ending exactly on a word and one ending mid-word went
    // through the readers (the buffer is sized file length + one word).
    assert!(
        residues.contains(&0),
        "no snapshot length was a multiple of 8"
    );
    assert!(
        residues.len() > 1,
        "every snapshot length was a multiple of 8"
    );
}

#[test]
fn every_loader_replays_delta_records_and_recovers_torn_tails_alike() {
    let rel = loader_relation();
    let rows: Vec<Vec<f64>> = (0..5)
        .map(|i| (0..3).map(|j| 1.5 + i as f64 * 0.7 + j as f64).collect())
        .collect();
    for name in ["IIM", "GLR", "Mean"] {
        let mut live = iim::methods::by_name(name, 4, 3)
            .expect("lineup method")
            .fit(&rel)
            .expect("fit");
        let path = temp_snapshot(&format!("delta-{name}"), &[]);
        iim_persist::save_path(live.as_ref(), &path).unwrap();
        iim_persist::append_delta_path(&path, &rows[..2]).unwrap();
        iim_persist::append_delta_path(&path, &rows[2..]).unwrap();
        for row in &rows {
            live.absorb(row).unwrap();
        }
        let info = assert_loaders_agree(&path, &rel, name);
        assert_eq!(info.absorbed_rows, rows.len(), "{name}");
        assert_eq!(info.recovered_at, None, "{name}");
        let replayed = iim_persist::load_path(&path).unwrap();
        assert_bitwise_equal(
            &live.impute_all_on(&Pool::serial(), &rel).unwrap(),
            &replayed.impute_all_on(&Pool::serial(), &rel).unwrap(),
            name,
        );

        // A torn final record, as a crash mid-append leaves it.
        let valid_len = std::fs::metadata(&path).unwrap().len();
        let record = iim_persist::encode_delta(&rows[..1]);
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        file.write_all(&record[..record.len() / 2]).unwrap();
        drop(file);
        let info = assert_loaders_agree(&path, &rel, name);
        assert_eq!(info.recovered_at, Some(valid_len), "{name}: torn tail");
        assert_eq!(info.absorbed_rows, rows.len(), "{name}: torn tail");
        std::fs::remove_file(&path).unwrap();
    }
}

#[test]
fn tiny_files_are_typed_errors_through_every_loader() {
    for (tag, bytes) in [("empty", &b""[..]), ("five", &b"IIMSN"[..])] {
        let path = temp_snapshot(tag, bytes);
        for (loader, got) in ["load_path", "load", "load_from_slice"]
            .iter()
            .zip(load_three_ways(&path))
        {
            assert!(
                matches!(
                    got,
                    Err(PersistError::BadMagic) | Err(PersistError::Truncated { .. })
                ),
                "{tag} file through {loader}: {:?}",
                got.map(|(_, info)| info)
            );
        }
        std::fs::remove_file(&path).unwrap();
    }
}

#[test]
fn an_iim_model_with_a_short_phi_is_refused_naming_the_tuple() {
    // A checksum-clean snapshot whose fourth tuple carries a 1-coefficient
    // φ for a 1-feature target: serving would zip φ's slope away.
    use iim::data::{FittedAttrModel, FittedPerAttribute};
    use iim::linalg::RidgeModel;
    use iim::neighbors::{brute::FeatureMatrix, IndexChoice, NeighborIndex};
    let (rel, _) = iim::data::paper_fig1();
    let rows = rel.complete_rows();
    let n = rows.len();
    let fm = FeatureMatrix::gather(&rel, &[0], &rows);
    let ys: Vec<f64> = rows.iter().map(|&r| rel.value(r as usize, 1)).collect();
    let mut models: Vec<RidgeModel> = ys
        .iter()
        .map(|&y| RidgeModel {
            phi: vec![y, 0.5].into(),
        })
        .collect();
    models[3] = RidgeModel {
        phi: vec![ys[3]].into(),
    };
    let model = IimModel::from_parts(
        NeighborIndex::build(fm, IndexChoice::Auto),
        models,
        vec![2u32; n],
        ys,
        1e-6,
        3,
        Weighting::MutualVote,
    );
    let sum: f64 = rows.iter().map(|&r| rel.value(r as usize, 0)).sum();
    let driver = FittedPerAttribute::from_parts(
        "IIM".into(),
        2,
        vec![
            None,
            Some(FittedAttrModel {
                features: vec![0],
                means: vec![sum / n as f64],
                mean_sums: vec![sum],
                mean_count: n,
                predictor: Box::new(model),
            }),
        ],
    );
    let bytes = iim_persist::save_to_vec(&driver).unwrap();
    match iim_persist::load_from_slice(&bytes) {
        Err(PersistError::Corrupt(msg)) => assert!(msg.contains("tuple 3"), "{msg}"),
        Err(other) => panic!("expected Corrupt naming tuple 3, got {other:?}"),
        Ok(_) => panic!("expected Corrupt naming tuple 3, got a model"),
    }
}

#[test]
fn wrong_version_is_refused_with_the_version_error() {
    let (_, bytes) = small_snapshots().remove(0);
    let mut newer = bytes;
    let v = iim_persist::FORMAT_VERSION + 1;
    newer[8..10].copy_from_slice(&v.to_le_bytes());
    match iim_persist::load_from_slice(&newer) {
        Err(iim_persist::PersistError::UnsupportedVersion { found, supported }) => {
            assert_eq!(found, v);
            assert_eq!(supported, iim_persist::FORMAT_VERSION);
        }
        Err(other) => panic!("expected UnsupportedVersion, got {other:?}"),
        Ok(_) => panic!("expected UnsupportedVersion, got a model"),
    }
}

#[test]
fn v2_and_v1_snapshots_are_refused_with_the_version_error() {
    // Only format v3 is read: an older version field is refused as such,
    // by the full load and by the header-only inspect alike.
    for (name, bytes) in small_snapshots() {
        for old in [2u16, 1] {
            let mut evil = bytes.clone();
            evil[8..10].copy_from_slice(&old.to_le_bytes());
            let load = iim_persist::load_from_slice(&evil).err();
            let inspect = iim_persist::inspect(&evil).err();
            for err in [load, inspect] {
                assert!(
                    matches!(
                        err,
                        Some(iim_persist::PersistError::UnsupportedVersion { found, supported: 3 })
                            if found == old
                    ),
                    "{name} as v{old}: {err:?}"
                );
            }
        }
    }
}

#[test]
fn snapshot_info_matches_the_model() {
    let (rel, _) = iim::data::paper_fig1();
    for method in all_fourteen(3, 5) {
        let fitted = match method.fit(&rel) {
            Ok(f) => f,
            Err(_) => continue, // SVD & co. need more attributes
        };
        let bytes = iim_persist::save_to_vec(fitted.as_ref()).unwrap();
        let info = iim_persist::inspect(&bytes).unwrap();
        assert_eq!(info.method, fitted.name());
        assert_eq!(info.version, iim_persist::FORMAT_VERSION);
        // Container overhead: 8 magic + 2 version + 2 tag length + tag
        // + 2 schema count (empty here) + alignment pad (v3) + 8 payload
        // length + payload + 8 checksum.
        let prefix = 8 + 2 + 2 + info.method.len() + 2;
        let pad = (8 - (prefix & 7)) & 7;
        assert_eq!(info.payload_len as usize + prefix + pad + 16, bytes.len());
    }
}

/// Writes one `POST path` impute on a keep-alive connection and reads its
/// one Content-Length-framed response: (head, body).
fn post_impute(stream: &mut TcpStream, path: &str, body: &str) -> (String, String) {
    write!(
        stream,
        "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    // Byte-wise up to the blank line, so nothing of the body is over-read.
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        assert_eq!(stream.read(&mut byte).unwrap(), 1, "daemon closed mid-head");
        head.push(byte[0]);
    }
    let head = String::from_utf8(head).unwrap();
    let len: usize = head
        .lines()
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.eq_ignore_ascii_case("content-length")
                .then(|| v.trim().parse().unwrap())
        })
        .expect("response has a Content-Length");
    let mut reply = vec![0u8; len];
    stream.read_exact(&mut reply).unwrap();
    (head, String::from_utf8(reply).unwrap())
}

#[test]
fn the_daemon_serves_a_loaded_snapshot_byte_for_byte() {
    // A 4-column linear-plus-noise relation and 120 queries with one hole
    // each: 120 rows reach the daemon's pool fan-out (the serial cutoff
    // is 64), one row per request takes the inline path.
    let mut rng = StdRng::seed_from_u64(42);
    let rows: Vec<Vec<f64>> = (0..300)
        .map(|i| {
            let x = i as f64 * 0.1;
            (0..4)
                .map(|j| x * (j + 1) as f64 * 0.3 + rng.gen_range(-0.5..0.5))
                .collect()
        })
        .collect();
    let rel = Relation::from_rows(Schema::anonymous(4), &rows);
    let queries: Vec<Vec<f64>> = (0..120)
        .map(|i| {
            let mut row: Vec<f64> = (0..4).map(|_| rng.gen_range(0.0..30.0)).collect();
            row[i % 4] = f64::NAN;
            row
        })
        .collect();
    assert!(queries.len() >= iim_exec::DEFAULT_SERIAL_CUTOFF);
    let header = "A1,A2,A3,A4";
    let request = |rows: &[Vec<f64>]| {
        let mut body = format!("{header}\n");
        for row in rows {
            body.push_str(&iim_data::csv::format_row(row));
            body.push('\n');
        }
        body
    };
    for name in ["IIM", "kNN", "SVD"] {
        let fitted = iim::methods::by_name(name, 10, 7)
            .expect("lineup method")
            .fit(&rel)
            .expect("fit");
        let bytes = iim_persist::save_to_vec(fitted.as_ref()).expect("save");
        let loaded = iim_persist::load_from_slice(&bytes).expect("load");
        // What the daemon must answer: the fitted model's own fills.
        let expected = |rows: &[Vec<f64>]| {
            let mut body = format!("{header}\n");
            for row in rows {
                let query: Vec<Option<f64>> =
                    row.iter().map(|v| v.is_finite().then_some(*v)).collect();
                let fills = fitted.impute_one(&query).expect("impute");
                body.push_str(&iim_data::csv::format_row(&fills));
                body.push('\n');
            }
            body
        };
        let server = iim_serve::Server::bind(
            iim_serve::Batcher::start(loaded, 2, None).expect("start"),
            &iim_serve::ServeConfig {
                addr: "127.0.0.1:0".into(),
                ..Default::default()
            },
        )
        .expect("bind");
        let handle = server.spawn().expect("spawn");
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(30)))
            .unwrap();

        // `/impute` is the `default` tenant's route: both paths answer
        // every request with the same body.
        for path in ["/impute", "/models/default/impute"] {
            let (head, body) = post_impute(&mut stream, path, &request(&queries));
            assert!(head.starts_with("HTTP/1.1 200"), "{name} {path}: {head}");
            assert_eq!(body, expected(&queries), "{name} {path}: 120-row request");
            for row in queries.chunks(1).take(10) {
                let (head, body) = post_impute(&mut stream, path, &request(row));
                assert!(head.starts_with("HTTP/1.1 200"), "{name} {path}: {head}");
                assert_eq!(body, expected(row), "{name} {path}: single-row request");
            }
        }
        drop(stream);
        handle.shutdown();
    }
}

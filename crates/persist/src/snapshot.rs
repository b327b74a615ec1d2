//! The snapshot container: magic, version, method tag, length-prefixed
//! payload, checksum trailer — optionally followed by **delta records**
//! appending absorbed tuples to the base model.
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"IIMSNAP\0"
//! 8       2     format version (u16 LE): 3, the only one read
//! 10      2+n   method tag: u16 LE length + UTF-8 display name
//! ..      2+..  schema: u16 LE column count, then per column a
//!               u16 LE length + UTF-8 name (count 0 = schema unknown)
//! ..      0-7   zero padding so the payload starts 8-aligned
//! ..      8     payload length (u64 LE)
//! ..      len   payload (see below)
//! ..      8     payload checksum (u64 LE): FNV-1a 64 folded over LE u64
//!               words (8x fewer multiplies than byte-wise on the
//!               activation hot path; trailing partial word
//!               zero-extended)
//! --- zero or more delta records, each: ---
//! ..      8     magic  b"IIMDELTA"
//! ..      8     record payload length (u64 LE)
//! ..      len   record payload: u64 row count, then per row a
//!               length-prefixed f64 slice (one complete tuple)
//! ..      8     FNV-1a 64 checksum of the record payload (u64 LE)
//! ```
//!
//! # Payload layout (validate-then-view)
//!
//! The payload splits the heavy numeric arrays out of the `codec` meta
//! stream into two aligned *banks*, so loading borrows them directly from
//! the (already checksum-validated) snapshot buffer instead of parsing
//! each into a fresh `Vec` — activation cost stops scaling with model
//! size:
//!
//! ```text
//! offset  size  field (within the payload, which is 8-aligned in-file)
//! 0       8     meta stream length (u64 LE)
//! 8       8     f64 bank element count (u64 LE)
//! 16      8     u32 bank element count (u64 LE)
//! 24      m     meta stream: the codec stream, with banked arrays
//!               stored as (count, start) references
//! ..      0-7   zero padding to the next 8-byte boundary
//! ..      8c    f64 bank (IEEE-754 bit patterns, u64 LE each)
//! ..      4c'   u32 bank (u32 LE each)
//! ```
//!
//! The checksum is verified **before** any section is interpreted, bank
//! references are bounds-checked against the bank extents, and the views
//! keep the shared buffer alive (`iim-bytes`).
//!
//! # Loading in place
//!
//! A load holds **one buffer**. [`load_path`] and [`load`] read the file
//! straight into an 8-aligned [`AlignedBuf`] (sized from the file length
//! plus one spare word), and [`load_from_slice`] copies its input into
//! one, once. The container
//! header, the payload checksum, the delta records and the model's bank
//! views all address that buffer: the payload at its in-file offset,
//! which the header pad keeps 8-aligned, and the banks at that offset
//! plus their offset within the payload. The file buffer *is* the bank
//! buffer, so no caller holds the file bytes and a payload copy at once.
//! The flip side: a loaded model keeps the whole file buffer alive for
//! its lifetime, header and delta records included (8 + 8m bytes per
//! absorbed row of m columns; saving the grown model afresh folds them
//! into the base).
//!
//! The schema block records the training file's column names so serving
//! layers can reject a query file whose columns are reordered or
//! unrelated — with only an arity check, such queries would silently
//! impute from transposed features. A snapshot saved without a schema
//! (library use, no CSV involved) records count 0 and downgrades serving
//! to the arity check.
//!
//! # Delta records
//!
//! Incremental learning ([`FittedImputer::absorb`]) makes checkpointing a
//! grown model O(delta): instead of re-encoding the whole model,
//! [`append_delta_path`] appends one checksummed record holding only the
//! newly absorbed tuples. At load, the base model is decoded and every
//! delta row is replayed through `absorb` **in record order** — absorb is
//! a pure function of the fitted state and the absorb sequence, so replay
//! reproduces the live model deterministically. A record appended to a
//! snapshot of a method without absorb support fails the load with a
//! typed error.
//!
//! # Durability and crash recovery
//!
//! The `_path` writers carry an explicit durability contract:
//!
//! - [`save_path`] / [`save_bytes_path`] publish a snapshot by writing a
//!   same-directory temp file, `fsync`ing it, renaming it over the
//!   destination, and `fsync`ing the parent directory — after a crash at
//!   any instant the destination holds either the complete old bytes or
//!   the complete new bytes, never a torn mix.
//! - [`append_delta_path`] `fsync`s the snapshot file after the append:
//!   once it returns, the record survives power loss. A crash *during*
//!   the append can leave a torn final record — which `load` recovers
//!   from (below) rather than refusing to start.
//! - [`write_file_durable`] and [`rename_durable`] expose the two halves
//!   for callers that stage a temp file themselves (hot-swap protocols
//!   that publish the rename inside a barrier).
//!
//! Loading classifies delta-region damage by where it sits. A torn or
//! corrupt **final** record — the only kind of damage an interrupted
//! append can inflict on this append-only region — is dropped: `load`
//! replays the valid prefix and reports the prefix length in
//! [`SnapshotInfo::recovered_at`] so the caller can repair the file with
//! [`truncate_deltas_path`] before appending again. Damage with a
//! complete, checksum-clean record *after* it is interior corruption —
//! something no crash produces — and stays a hard [`PersistError`], as
//! does any damage to the base container. The classification scan is
//! fail-safe: payload bytes that happen to spell a valid record can only
//! turn recovery into refusal, never silently drop interior data.
//!
//! # Versioning policy
//!
//! The version is bumped whenever the payload layout changes shape; a
//! reader accepts exactly [`FORMAT_VERSION`] and refuses any other
//! version, newer or older (the retired 1 and 2 included), with
//! [`PersistError::UnsupportedVersion`] rather than guessing. Within one
//! version the format is **deterministic**: encoding the same fitted
//! model twice yields identical bytes (hash-map iteration is sorted
//! before serialization), so snapshots are diffable, cacheable artifacts.

use crate::codec::{decode_fitted_in, encode_fitted_parts};
use crate::error::PersistError;
use crate::wire::{fnv1a64, fnv1a64_words, Reader, Writer};
use iim_bytes::{AlignedBuf, SharedBytes};
use iim_data::FittedImputer;
use std::io::{Read, Write};
use std::path::Path;
use std::sync::Arc;

/// The 8 magic bytes opening every snapshot.
pub const MAGIC: [u8; 8] = *b"IIMSNAP\0";

/// The 8 magic bytes opening every delta record.
pub const DELTA_MAGIC: [u8; 8] = *b"IIMDELTA";

/// The snapshot format version: the one saves write and loads accept
/// (validate-then-view banks; see the module docs).
pub const FORMAT_VERSION: u16 = 3;

/// Container metadata, readable without decoding the model payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotInfo {
    /// Format version the snapshot was written with.
    pub version: u16,
    /// Display name of the snapshotted method (e.g. `"IIM"`).
    pub method: String,
    /// Column names of the training relation; empty when the snapshot was
    /// saved without one (serving then only checks arity).
    pub schema: Vec<String>,
    /// Payload size in bytes (base container only, deltas excluded).
    pub payload_len: u64,
    /// Total rows carried by the delta records after the base container.
    pub absorbed_rows: usize,
    /// When the delta region ended in a torn or corrupt final record
    /// (the signature of a crash mid-append), the file offset where the
    /// valid prefix ends — everything from here on was dropped at load.
    /// `None` when the file was intact. Pass the offset to
    /// [`truncate_deltas_path`] to repair the file before appending.
    pub recovered_at: Option<u64>,
}

impl SnapshotInfo {
    /// Whether the snapshotted model supports
    /// [`FittedImputer::absorb`]. Absorb support is a property of the
    /// fitted method — IIM, Mean and GLR — so the method tag answers it
    /// without decoding the payload.
    pub fn can_absorb(&self) -> bool {
        matches!(self.method.as_str(), "IIM" | "Mean" | "GLR")
    }
}

fn push_tag(out: &mut Vec<u8>, s: &str, what: &str) -> Result<(), PersistError> {
    let len = u16::try_from(s.len())
        .map_err(|_| PersistError::UnsupportedModel(format!("{what} too long: {s:?}")))?;
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(s.as_bytes());
    Ok(())
}

/// Serializes a fitted model (schema unknown — see
/// [`save_to_vec_with_schema`]).
pub fn save_to_vec(fitted: &dyn FittedImputer) -> Result<Vec<u8>, PersistError> {
    save_to_vec_with_schema(fitted, &[])
}

/// Serializes a fitted model, recording the training relation's column
/// names so serving layers can validate query headers (reordered columns
/// would otherwise silently impute from transposed features).
pub fn save_to_vec_with_schema(
    fitted: &dyn FittedImputer,
    schema: &[String],
) -> Result<Vec<u8>, PersistError> {
    if !schema.is_empty() && schema.len() != fitted.arity() {
        return Err(PersistError::UnsupportedModel(format!(
            "schema has {} columns but the model serves {}",
            schema.len(),
            fitted.arity()
        )));
    }
    let payload = encode_payload(fitted)?;
    let name = fitted.name();
    let n_cols = u16::try_from(schema.len())
        .map_err(|_| PersistError::UnsupportedModel("schema has too many columns".into()))?;
    let mut out = Vec::with_capacity(8 + 2 + 2 + name.len() + 2 + 8 + 8 + payload.len() + 8);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    push_tag(&mut out, name, "method name")?;
    out.extend_from_slice(&n_cols.to_le_bytes());
    for col in schema {
        push_tag(&mut out, col, "column name")?;
    }
    // Align the payload so bank views inherit 8-byte alignment from an
    // aligned buffer holding the whole file or payload.
    out.resize(out.len() + header_pad(out.len()), 0);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&payload);
    out.extend_from_slice(&fnv1a64_words(&payload).to_le_bytes());
    Ok(out)
}

/// How many zero bytes to insert after `prefix_len` header bytes so the
/// payload (which follows the pad and the 8-byte length field) starts on
/// an 8-byte boundary. Encoder and parser both derive it from the header
/// length, so it is never stored.
fn header_pad(prefix_len: usize) -> usize {
    (8 - (prefix_len & 7)) & 7
}

/// Assembles the payload: bank header, meta stream, pad, f64 bank, u32
/// bank (see the module docs for the layout).
fn encode_payload(fitted: &dyn FittedImputer) -> Result<Vec<u8>, PersistError> {
    let (meta, f64_bank, u32_bank) = encode_fitted_parts(fitted)?;
    let meta_pad = header_pad(meta.len());
    let mut payload =
        Vec::with_capacity(24 + meta.len() + meta_pad + f64_bank.len() * 8 + u32_bank.len() * 4);
    payload.extend_from_slice(&(meta.len() as u64).to_le_bytes());
    payload.extend_from_slice(&(f64_bank.len() as u64).to_le_bytes());
    payload.extend_from_slice(&(u32_bank.len() as u64).to_le_bytes());
    payload.extend_from_slice(&meta);
    payload.resize(payload.len() + meta_pad, 0);
    for &v in &f64_bank {
        payload.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    for &v in &u32_bank {
        payload.extend_from_slice(&v.to_le_bytes());
    }
    Ok(payload)
}

/// Writes a fitted model's snapshot to `w`.
///
/// `w` is a generic sink, so this can only flush userspace buffers; for
/// the crash-safe publish-to-disk contract use [`save_path`] (or
/// [`save_bytes_path`] with pre-encoded bytes).
pub fn save<W: Write>(fitted: &dyn FittedImputer, mut w: W) -> Result<(), PersistError> {
    let bytes = save_to_vec(fitted)?;
    w.write_all(&bytes)?;
    w.flush()?;
    Ok(())
}

/// `File::sync_all` behind the `persist.fsync.err` fail point.
fn sync_file(f: &std::fs::File) -> std::io::Result<()> {
    if iim_faults::check("persist.fsync.err").is_some() {
        return Err(std::io::Error::other("injected fsync failure"));
    }
    f.sync_all()
}

/// Fsyncs the directory holding `path`, making a rename or file creation
/// inside it durable (POSIX semantics; a no-op on non-unix targets).
fn sync_parent_dir(path: &Path) -> std::io::Result<()> {
    #[cfg(unix)]
    {
        let dir = match path.parent() {
            Some(d) if !d.as_os_str().is_empty() => d,
            _ => Path::new("."),
        };
        sync_file(&std::fs::File::open(dir)?)?;
    }
    #[cfg(not(unix))]
    let _ = path;
    Ok(())
}

/// Durably writes `bytes` to `path` in place: create/truncate, write,
/// `fsync` the file, `fsync` the parent directory. The file itself can
/// be torn by a crash mid-write — use this only for staging temp files
/// that a later [`rename_durable`] publishes atomically.
pub fn write_file_durable<P: AsRef<Path>>(path: P, bytes: &[u8]) -> Result<(), PersistError> {
    let path = path.as_ref();
    let mut f = std::fs::File::create(path)?;
    f.write_all(bytes)?;
    sync_file(&f)?;
    sync_parent_dir(path)?;
    Ok(())
}

/// Durably renames `from` over `to` (same directory): the rename plus an
/// `fsync` of the destination's parent directory. After a crash, `to` is
/// either the old complete file or the new complete file.
pub fn rename_durable<P: AsRef<Path>, Q: AsRef<Path>>(from: P, to: Q) -> Result<(), PersistError> {
    std::fs::rename(from.as_ref(), to.as_ref())?;
    sync_parent_dir(to.as_ref())?;
    Ok(())
}

/// Durably publishes pre-encoded snapshot bytes at `path`: writes a
/// same-directory temp file (`.{name}.tmp`), `fsync`s it, renames it
/// over `path`, and `fsync`s the parent directory — the write-then-
/// rename half of the durability contract (see the module docs).
pub fn save_bytes_path<P: AsRef<Path>>(path: P, bytes: &[u8]) -> Result<(), PersistError> {
    let path = path.as_ref();
    let file_name = path
        .file_name()
        .ok_or_else(|| PersistError::UnsupportedModel(format!("no file name in {path:?}")))?;
    let tmp = path.with_file_name(format!(".{}.tmp", file_name.to_string_lossy()));
    write_file_durable(&tmp, bytes)?;
    rename_durable(&tmp, path)
}

/// Writes a fitted model's snapshot to a file, durably: temp-file write,
/// `fsync`, rename, parent-directory `fsync` (see the module docs).
pub fn save_path<P: AsRef<Path>>(fitted: &dyn FittedImputer, path: P) -> Result<(), PersistError> {
    save_bytes_path(path, &save_to_vec(fitted)?)
}

/// Encodes one delta record holding `rows` absorbed tuples (complete
/// rows, in absorb order). Append the bytes to an existing snapshot to
/// checkpoint incremental learning in O(delta).
pub fn encode_delta(rows: &[Vec<f64>]) -> Vec<u8> {
    let mut w = Writer::new();
    w.len(rows.len());
    for row in rows {
        w.f64s(row);
    }
    let payload = w.into_vec();
    let mut out = Vec::with_capacity(8 + 8 + payload.len() + 8);
    out.extend_from_slice(&DELTA_MAGIC);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&payload);
    out.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
    out
}

/// Appends one delta record with `rows` absorbed tuples to the snapshot
/// file at `path` (which must already hold a base snapshot). The rows are
/// replayed through [`FittedImputer::absorb`] at the next load.
///
/// The file is `fsync`ed before returning: a checkpoint this function
/// acknowledged survives power loss. A crash *during* the append leaves
/// at worst a torn final record, which `load` drops (reporting
/// [`SnapshotInfo::recovered_at`]) instead of failing.
pub fn append_delta_path<P: AsRef<Path>>(path: P, rows: &[Vec<f64>]) -> Result<(), PersistError> {
    let mut f = std::fs::OpenOptions::new().append(true).open(path)?;
    let record = encode_delta(rows);
    if iim_faults::check("persist.append.partial_write").is_some() {
        // Simulate a crash mid-append: persist a torn prefix of the
        // record, then fail as the "crashed" writer would.
        f.write_all(&record[..record.len() / 2])?;
        let _ = f.sync_all();
        return Err(std::io::Error::other("injected partial append").into());
    }
    f.write_all(&record)?;
    sync_file(&f)?;
    Ok(())
}

/// Truncates a snapshot file back to `len` bytes and `fsync`s it — the
/// repair step after a load reported [`SnapshotInfo::recovered_at`].
/// Chopping the torn tail restores the invariant that the file is a base
/// container plus complete records, so the next [`append_delta_path`]
/// does not bury the damage under a valid record (which would harden it
/// into an unrecoverable interior-corruption error). Refuses to extend
/// the file: `len` beyond the current size is a typed error.
pub fn truncate_deltas_path<P: AsRef<Path>>(path: P, len: u64) -> Result<(), PersistError> {
    let path = path.as_ref();
    let f = std::fs::OpenOptions::new().write(true).open(path)?;
    let current = f.metadata()?.len();
    if len > current {
        return Err(PersistError::Corrupt(format!(
            "refusing to extend {} from {current} to {len} bytes",
            path.display()
        )));
    }
    f.set_len(len)?;
    sync_file(&f)?;
    Ok(())
}

struct Header {
    info: SnapshotInfo,
    /// Offset of the payload within the snapshot bytes.
    payload_start: usize,
}

fn parse_header(bytes: &[u8]) -> Result<Header, PersistError> {
    if bytes.len() < 8 {
        // Too short to even carry the magic: report what it isn't.
        return Err(if MAGIC.starts_with(bytes) && !bytes.is_empty() {
            PersistError::Truncated { context: "magic" }
        } else {
            PersistError::BadMagic
        });
    }
    let mut r = Reader::new(bytes);
    if r.bytes(8, "magic")? != MAGIC {
        return Err(PersistError::BadMagic);
    }
    let version = r.u16("format version")?;
    if version != FORMAT_VERSION {
        return Err(PersistError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let method = r.tag("method tag")?;
    let n_cols = r.u16("schema column count")? as usize;
    let mut schema = Vec::with_capacity(n_cols.min(r.remaining()));
    for _ in 0..n_cols {
        schema.push(r.tag("schema name")?);
    }
    // The header is padded so the payload is 8-aligned in-file; the pad
    // width is derived (never stored) and must be zero bytes.
    let pad = header_pad(bytes.len() - r.remaining());
    if r.bytes(pad, "alignment padding")?.iter().any(|&b| b != 0) {
        return Err(PersistError::Corrupt("non-zero alignment padding".into()));
    }
    let payload_len = r.u64("payload length")?;
    Ok(Header {
        info: SnapshotInfo {
            version,
            method,
            schema,
            payload_len,
            absorbed_rows: 0,
            recovered_at: None,
        },
        payload_start: bytes.len() - r.remaining(),
    })
}

/// Reads container metadata without decoding the model payload (the
/// payload and every delta record must still be fully present and
/// checksum-clean).
pub fn inspect(bytes: &[u8]) -> Result<SnapshotInfo, PersistError> {
    let mut header = parse_header(bytes)?;
    let (_, base_end) = checked_payload(bytes, &header)?;
    let region = parse_delta_rows(&bytes[base_end..])?;
    header.info.absorbed_rows = region.rows.len();
    header.info.recovered_at = region
        .recovered
        .then_some((base_end + region.valid_len) as u64);
    Ok(header.info)
}

/// Validates the base container's bounds and checksum; returns the
/// payload slice and the offset where the delta region begins.
fn checked_payload<'a>(
    bytes: &'a [u8],
    header: &Header,
) -> Result<(&'a [u8], usize), PersistError> {
    let start = header.payload_start;
    // Checked arithmetic throughout: a crafted length field near u64::MAX
    // must surface as a typed error, not an overflow panic (debug) or a
    // wrapped, misleading comparison (release).
    let len = usize::try_from(header.info.payload_len)
        .map_err(|_| PersistError::Corrupt("payload length overflows".into()))?;
    let base_end = start
        .checked_add(len)
        .and_then(|v| v.checked_add(8))
        .ok_or_else(|| PersistError::Corrupt("payload length overflows".into()))?;
    if bytes.len() < base_end {
        return Err(PersistError::Truncated { context: "payload" });
    }
    let payload = &bytes[start..start + len];
    let expected = u64::from_le_bytes(
        bytes[start + len..base_end]
            .try_into()
            // Infallible: the slice is exactly base_end - (start + len) = 8
            // bytes by construction.
            .expect("checksum slice is 8 bytes"),
    );
    let found = fnv1a64_words(payload);
    if expected != found {
        return Err(PersistError::ChecksumMismatch { expected, found });
    }
    Ok((payload, base_end))
}

/// The parsed delta region: the absorbed rows plus torn-tail accounting.
struct DeltaRegion {
    /// Rows from every complete, checksum-clean record, in record order.
    rows: Vec<Vec<f64>>,
    /// Length of the valid record prefix within the region (== the
    /// region length when the region was intact).
    valid_len: usize,
    /// Whether a torn or corrupt final record was dropped.
    recovered: bool,
}

/// How one delta record failed to parse, by crash plausibility.
enum RecordFailure {
    /// Failed at or before checksum verification — the shape of damage an
    /// interrupted append inflicts. Recoverable iff it is the tail.
    Torn(PersistError),
    /// Failed *after* the checksum verified: the payload holds exactly
    /// what the writer encoded, so this is an encoder/decoder defect (or
    /// deliberate tampering), never crash damage. Always a hard error.
    Hard(PersistError),
}

/// Parses one delta record at the start of `rest`; returns its rows and
/// the bytes consumed.
fn parse_one_record(rest: &[u8]) -> Result<(Vec<Vec<f64>>, usize), RecordFailure> {
    let mut r = Reader::new(rest);
    if r.bytes(8, "delta magic").map_err(RecordFailure::Torn)? != DELTA_MAGIC {
        return Err(RecordFailure::Torn(PersistError::Corrupt(
            "bytes after the base snapshot are not a delta record".into(),
        )));
    }
    let len = r.len("delta payload length").map_err(RecordFailure::Torn)?;
    let payload = r.bytes(len, "delta payload").map_err(RecordFailure::Torn)?;
    let expected = r.u64("delta checksum").map_err(RecordFailure::Torn)?;
    let found = fnv1a64(payload);
    if expected != found {
        return Err(RecordFailure::Torn(PersistError::ChecksumMismatch {
            expected,
            found,
        }));
    }
    let mut pr = Reader::new(payload);
    let n = pr.len("delta row count").map_err(RecordFailure::Hard)?;
    let mut rows = Vec::new();
    for _ in 0..n {
        rows.push(pr.f64s("delta row").map_err(RecordFailure::Hard)?);
    }
    pr.expect_exhausted().map_err(RecordFailure::Hard)?;
    Ok((rows, rest.len() - r.remaining()))
}

/// Is there a complete, checksum-clean record anywhere at or after
/// `from`? This is the interior-vs-tail classifier: valid data after the
/// damage means interior corruption (refuse), nothing but damaged bytes
/// means a torn tail (recover). Misclassification is fail-safe — payload
/// bytes that happen to spell a valid record can only turn recovery into
/// refusal, never silently drop interior data.
fn has_valid_record_after(region: &[u8], from: usize) -> bool {
    let mut i = from;
    while i + 8 <= region.len() {
        if region[i..i + 8] == DELTA_MAGIC && record_is_complete(&region[i..]) {
            return true;
        }
        i += 1;
    }
    false
}

/// Whether `bytes` opens with a complete record: magic, in-bounds
/// length, and a payload matching its checksum.
fn record_is_complete(bytes: &[u8]) -> bool {
    let mut r = Reader::new(bytes);
    match r.bytes(8, "delta magic") {
        Ok(m) if m == DELTA_MAGIC => {}
        _ => return false,
    }
    let Ok(len) = r.len("delta payload length") else {
        return false;
    };
    let Ok(payload) = r.bytes(len, "delta payload") else {
        return false;
    };
    let Ok(expected) = r.u64("delta checksum") else {
        return false;
    };
    expected == fnv1a64(payload)
}

/// Parses the delta region (everything after the base container) into
/// the absorbed rows, in record order. Empty input means no deltas. A
/// torn or corrupt **final** record is dropped ([`DeltaRegion::recovered`]);
/// damage followed by a complete valid record is interior corruption and
/// stays a typed error (see the module docs).
fn parse_delta_rows(region: &[u8]) -> Result<DeltaRegion, PersistError> {
    let mut rows = Vec::new();
    let mut offset = 0;
    while offset < region.len() {
        match parse_one_record(&region[offset..]) {
            Ok((record_rows, consumed)) => {
                rows.extend(record_rows);
                offset += consumed;
            }
            Err(RecordFailure::Torn(err)) => {
                if has_valid_record_after(region, offset + 1) {
                    return Err(err);
                }
                return Ok(DeltaRegion {
                    rows,
                    valid_len: offset,
                    recovered: true,
                });
            }
            Err(RecordFailure::Hard(err)) => return Err(err),
        }
    }
    Ok(DeltaRegion {
        rows,
        valid_len: region.len(),
        recovered: false,
    })
}

/// Deserializes a snapshot back into a serving model, replaying any delta
/// records through [`FittedImputer::absorb`].
///
/// The loaded model serves **bitwise-identical** fills to the in-process
/// model it was saved from (property-tested per lineup method in
/// `tests/persist_roundtrip.rs`); a model checkpointed through
/// [`append_delta_path`] reloads to the same state as serially absorbing
/// the delta rows into the base model.
pub fn load_from_slice(bytes: &[u8]) -> Result<Box<dyn FittedImputer>, PersistError> {
    load_from_slice_with_info(bytes).map(|(fitted, _)| fitted)
}

/// [`load_from_slice`] returning the container metadata too (serving
/// layers use [`SnapshotInfo::schema`] to validate query headers).
///
/// Copies `bytes` once into an aligned buffer, which the model then
/// borrows from; [`load_path_with_info`] reads a file straight into one.
pub fn load_from_slice_with_info(
    bytes: &[u8],
) -> Result<(Box<dyn FittedImputer>, SnapshotInfo), PersistError> {
    load_shared(&iim_bytes::shared(bytes))
}

/// The one snapshot decoder, in place: the container, the payload
/// checksum, the delta records and the model's bank views all address
/// `buf` (see the module docs).
fn load_shared(buf: &SharedBytes) -> Result<(Box<dyn FittedImputer>, SnapshotInfo), PersistError> {
    let bytes = buf.as_slice();
    let mut header = parse_header(bytes)?;
    let (payload, base_end) = checked_payload(bytes, &header)?;
    let payload = header.payload_start..header.payload_start + payload.len();
    let region = parse_delta_rows(&bytes[base_end..])?;
    let delta_rows = region.rows;
    let mut fitted = decode_fitted_in(buf, payload)?;
    if fitted.name() != header.info.method {
        return Err(PersistError::Corrupt(format!(
            "method tag {:?} does not match the decoded model {:?}",
            header.info.method,
            fitted.name()
        )));
    }
    if !header.info.schema.is_empty() && header.info.schema.len() != fitted.arity() {
        return Err(PersistError::Corrupt(format!(
            "schema has {} columns but the model serves {}",
            header.info.schema.len(),
            fitted.arity()
        )));
    }
    for (i, row) in delta_rows.iter().enumerate() {
        fitted
            .absorb(row)
            .map_err(|e| PersistError::Corrupt(format!("delta row {i} failed to replay: {e}")))?;
    }
    header.info.absorbed_rows = delta_rows.len();
    header.info.recovered_at = region
        .recovered
        .then_some((base_end + region.valid_len) as u64);
    Ok((fitted, header.info))
}

/// Reads a snapshot from `r` and decodes it.
pub fn load<R: Read>(r: R) -> Result<Box<dyn FittedImputer>, PersistError> {
    load_with_info(r).map(|(fitted, _)| fitted)
}

/// [`load`] returning the container metadata too. Reads `r` to EOF
/// straight into the aligned buffer the model borrows from.
pub fn load_with_info<R: Read>(
    mut r: R,
) -> Result<(Box<dyn FittedImputer>, SnapshotInfo), PersistError> {
    load_shared(&Arc::new(AlignedBuf::read_from(&mut r, 0)?))
}

/// Reads a snapshot file and decodes it.
pub fn load_path<P: AsRef<Path>>(path: P) -> Result<Box<dyn FittedImputer>, PersistError> {
    load_path_with_info(path).map(|(fitted, _)| fitted)
}

/// [`load_path`] returning the container metadata too: the daemon's and
/// the CLI's loader. The file is read once, into a buffer sized from its
/// length, and decoded in place.
pub fn load_path_with_info<P: AsRef<Path>>(
    path: P,
) -> Result<(Box<dyn FittedImputer>, SnapshotInfo), PersistError> {
    let mut file = std::fs::File::open(path)?;
    let size_hint = file
        .metadata()
        .ok()
        .and_then(|m| usize::try_from(m.len()).ok())
        .unwrap_or(0);
    load_shared(&Arc::new(AlignedBuf::read_from(&mut file, size_hint)?))
}

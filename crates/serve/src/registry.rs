//! Multi-tenant model registry: named, versioned snapshots on disk, each
//! served by its own [`Batcher`] once touched.
//!
//! The filesystem is the source of truth: a model named `prices` is the
//! file `<dir>/prices.iim` (an `iim-persist` snapshot). The registry keeps
//! at most `max_resident` models live at once; a request for a cold model
//! **activates** it transparently (read + validate-then-view load) and the
//! least-recently-used tenant is evicted to make room.
//!
//! # Consistency contract
//!
//! * **Hot swap is atomic.** [`Registry::stage`] on a resident model
//!   validates the incoming snapshot, writes it to a temp file, and
//!   replaces the model inside the tenant's write section (see
//!   [`Batcher::swap`]): the rename over the live file happens after the
//!   outgoing model's final checkpoint flush. Every request is therefore
//!   answered by exactly one model version — bitwise equal to some serial
//!   interleaving of requests and the swap — and the file on disk never
//!   disagrees with the live model about which version absorbed a tuple.
//!   A query header is checked against the schema of the version that
//!   answers it, under the same guard.
//! * **Eviction drops no requests.** Each tenant's [`Batcher`] sits in an
//!   `Arc`: a request clones it under the registry lock and runs outside
//!   it, so an evicted tenant still answers the requests already holding
//!   it.
//! * **Eviction loses no learns.** Every resident tenant checkpoints with
//!   `every = 1`: each absorbed tuple is appended to the model's snapshot
//!   as a delta record inside the learn's write section, so reactivation
//!   replays the model to the exact state eviction tore down (the standing
//!   snapshot-load bitwise guarantee).
//!
//! Activation and staging hold the registry lock (a big model load or a
//! swap waiting for a tenant's in-flight reads briefly blocks other
//! tenants' *lookups*, not their in-flight compute); imputes and learns
//! hold it only to clone the tenant's handle, so tenants never serialize
//! behind each other's compute.

use crate::batch::{
    Batcher, CheckpointConfig, LearnReply, QueryBlock, RowResult, SubmitRejected, DEFAULT_MAX_QUEUE,
};
use iim_persist::PersistError;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Registry configuration.
#[derive(Debug, Clone)]
pub struct RegistryConfig {
    /// Directory holding `<name>.iim` snapshots.
    pub dir: PathBuf,
    /// Maximum number of models resident (loaded and serving) at once;
    /// colder models are evicted LRU and reactivate on demand.
    pub max_resident: usize,
    /// Worker threads per tenant pool (`0` = the shared process default).
    pub threads: usize,
    /// Per-tenant cap on admitted, unanswered requests
    /// ([`Batcher::set_max_queue`]): requests beyond it are shed as
    /// [`RegistryError::Overloaded`]. `0` = unbounded. Default
    /// [`DEFAULT_MAX_QUEUE`].
    pub max_queue: usize,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        Self {
            dir: PathBuf::from("models"),
            max_resident: 4,
            threads: 0,
            max_queue: DEFAULT_MAX_QUEUE,
        }
    }
}

/// Why a registry operation failed; the HTTP layer maps each variant to a
/// status code.
#[derive(Debug)]
pub enum RegistryError {
    /// Model names are `[A-Za-z0-9_-]`, 1–64 chars — anything else could
    /// escape the registry directory or collide with its temp files.
    BadName(String),
    /// No `<name>.iim` in the registry directory.
    UnknownModel(String),
    /// The snapshot failed validation (staging) or load (activation).
    Load(PersistError),
    /// Filesystem trouble reading/writing the registry directory.
    Io(std::io::Error),
    /// A query header that doesn't match the model's recorded schema —
    /// imputing it would silently transpose features.
    SchemaMismatch {
        /// Column names the query sent.
        query: Vec<String>,
        /// Column names the model was trained on.
        model: Vec<String>,
    },
    /// The tenant is shut down, or its model panicked under the write
    /// guard.
    Unavailable,
    /// The tenant is at its admission cap; the request was shed without
    /// running. Retrying is always safe.
    Overloaded,
    /// The model panicked serving this read; the tenant keeps serving.
    Panicked,
    /// A staged swap could not be applied; the old model keeps serving.
    StageFailed(String),
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::BadName(n) => {
                write!(f, "bad model name {n:?}: use 1-64 of [A-Za-z0-9_-]")
            }
            RegistryError::UnknownModel(n) => write!(f, "no model named {n:?} is served here"),
            RegistryError::Load(e) => write!(f, "snapshot rejected: {e}"),
            RegistryError::Io(e) => write!(f, "registry io error: {e}"),
            RegistryError::SchemaMismatch { query, model } => write!(
                f,
                "query header {query:?} does not match the model's schema {model:?}"
            ),
            RegistryError::Unavailable => write!(f, "model backend unavailable"),
            RegistryError::Overloaded => write!(f, "model at its request cap; retry shortly"),
            RegistryError::Panicked => write!(f, "the model panicked serving this request"),
            RegistryError::StageFailed(why) => write!(f, "stage failed: {why}"),
        }
    }
}

impl From<std::io::Error> for RegistryError {
    fn from(e: std::io::Error) -> Self {
        RegistryError::Io(e)
    }
}

impl From<SubmitRejected> for RegistryError {
    fn from(e: SubmitRejected) -> Self {
        match e {
            SubmitRejected::Overloaded => RegistryError::Overloaded,
            SubmitRejected::Shutdown => RegistryError::Unavailable,
            SubmitRejected::Panicked => RegistryError::Panicked,
        }
    }
}

/// A [`PersistError`] raised while writing registry files is filesystem
/// trouble, not a bad snapshot.
fn persist_io(e: PersistError) -> RegistryError {
    match e {
        PersistError::Io(io) => RegistryError::Io(io),
        other => RegistryError::Load(other),
    }
}

/// One model's registry card, as reported by [`Registry::info`] and
/// [`Registry::list`].
#[derive(Debug, Clone)]
pub struct ModelInfo {
    /// Registry name (the file stem).
    pub name: String,
    /// Fitted method (e.g. `"IIM"`).
    pub method: String,
    /// Snapshot container format version on disk (always
    /// `iim_persist::FORMAT_VERSION`: a file with any other version fails
    /// to load).
    pub snapshot_version: u16,
    /// Whether this model is loaded and serving right now.
    pub resident: bool,
    /// Whether the model supports `POST /learn`.
    pub can_absorb: bool,
    /// Absorbed-delta count: live total when resident, delta rows on disk
    /// otherwise (equal by the eviction-loses-no-learns contract).
    pub absorbed: usize,
    /// Training column names recorded in the snapshot (may be empty).
    pub schema: Vec<String>,
}

/// Outcome of [`Registry::stage`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageOutcome {
    /// The staged model's method name.
    pub method: String,
    /// True when a live tenant was hot-swapped to the new version (false:
    /// the file was replaced cold and will serve on next activation).
    pub swapped: bool,
}

struct Tenant {
    batcher: Arc<Batcher>,
    last_used: u64,
}

struct Inner {
    resident: HashMap<String, Tenant>,
    /// Logical LRU clock: bumped on every tenant touch.
    clock: u64,
}

/// See the [module docs](self).
pub struct Registry {
    dir: PathBuf,
    max_resident: usize,
    /// Each tenant's pool threads, resolved (never `0`).
    threads: usize,
    max_queue: usize,
    /// Torn-tail snapshot recoveries observed across activations (the
    /// daemon folds this into `GET /info`'s `"recovered"`).
    recovered: AtomicUsize,
    inner: Mutex<Inner>,
}

fn lock_inner(inner: &Mutex<Inner>) -> MutexGuard<'_, Inner> {
    match inner.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
}

impl Registry {
    /// Opens (creating if needed) the registry directory. Models load
    /// lazily — opening an empty or huge directory costs the same.
    pub fn open(cfg: RegistryConfig) -> std::io::Result<Arc<Self>> {
        std::fs::create_dir_all(&cfg.dir)?;
        Ok(Arc::new(Self {
            dir: cfg.dir,
            max_resident: cfg.max_resident.max(1),
            threads: iim_exec::Pool::new(cfg.threads).threads(),
            max_queue: cfg.max_queue,
            recovered: AtomicUsize::new(0),
            inner: Mutex::new(Inner {
                resident: HashMap::new(),
                clock: 0,
            }),
        }))
    }

    /// The registry directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The resident cap.
    pub fn max_resident(&self) -> usize {
        self.max_resident
    }

    /// Worker threads each tenant's pool runs (resolved: never `0`).
    pub(crate) fn threads(&self) -> usize {
        self.threads
    }

    /// Each tenant's admission cap (`0` = unbounded).
    pub(crate) fn max_queue(&self) -> usize {
        self.max_queue
    }

    /// Torn-tail snapshot recoveries observed while activating models
    /// (each one means a crash left a truncated delta tail that loading
    /// dropped and the next checkpoint repaired).
    pub fn recovered(&self) -> usize {
        self.recovered.load(Ordering::Relaxed)
    }

    fn path_for(&self, name: &str) -> Result<PathBuf, RegistryError> {
        if !valid_name(name) {
            return Err(RegistryError::BadName(name.to_string()));
        }
        Ok(self.dir.join(format!("{name}.iim")))
    }

    /// Model names present on disk, sorted.
    pub fn names(&self) -> Result<Vec<String>, RegistryError> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) != Some("iim") {
                continue;
            }
            if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                if valid_name(stem) {
                    names.push(stem.to_string());
                }
            }
        }
        names.sort();
        Ok(names)
    }

    /// `(models on disk, resident now)` — the registry summary for
    /// `GET /info`.
    pub fn summary(&self) -> (usize, usize) {
        let on_disk = self.names().map(|n| n.len()).unwrap_or(0);
        let resident = lock_inner(&self.inner).resident.len();
        (on_disk, resident)
    }

    /// Registry cards for every model on disk, sorted by name.
    pub fn list(&self) -> Result<Vec<ModelInfo>, RegistryError> {
        self.names()?.iter().map(|n| self.info(n)).collect()
    }

    /// One model's card. Never activates the model: a cold model's card
    /// comes from [`iim_persist::inspect`] on its file.
    pub fn info(&self, name: &str) -> Result<ModelInfo, RegistryError> {
        let path = self.path_for(name)?;
        // Read a resident card outside the registry lock: it may wait for
        // the tenant's write section.
        let resident = lock_inner(&self.inner)
            .resident
            .get(name)
            .map(|t| Arc::clone(&t.batcher));
        if let Some(batcher) = resident {
            return Ok(batcher.card(name));
        }
        let bytes = read_model(&path, name)?;
        let info = iim_persist::inspect(&bytes).map_err(RegistryError::Load)?;
        Ok(ModelInfo {
            name: name.to_string(),
            can_absorb: info.can_absorb(),
            method: info.method,
            snapshot_version: info.version,
            resident: false,
            absorbed: info.absorbed_rows,
            schema: info.schema,
        })
    }

    /// The (activated, LRU-bumped) tenant's handle, cloned under the
    /// registry lock. Evicted tenants are dropped outside it.
    pub(crate) fn tenant(&self, name: &str) -> Result<Arc<Batcher>, RegistryError> {
        let path = self.path_for(name)?;
        let mut evicted: Vec<Tenant> = Vec::new();
        let batcher = {
            let mut inner = lock_inner(&self.inner);
            if !inner.resident.contains_key(name) {
                let (model, info) = load_model(&path, name)?;
                if info.recovered_at.is_some() {
                    self.recovered.fetch_add(1, Ordering::Relaxed);
                }
                let batcher = Batcher::start(
                    model,
                    self.threads,
                    // every = 1: each absorbed tuple hits disk inside the
                    // learn's write section, making eviction lossless. A
                    // torn tail the load recovered past is truncated away
                    // before the next delta lands, so damage never
                    // precedes a valid record.
                    Some(CheckpointConfig {
                        path: path.clone(),
                        every: 1,
                        truncate_to: info.recovered_at,
                    }),
                )?
                .with_schema(info.schema.into());
                batcher.set_max_queue(self.max_queue);
                inner.resident.insert(
                    name.to_string(),
                    Tenant {
                        batcher: Arc::new(batcher),
                        last_used: 0,
                    },
                );
                // Make room: evict least-recently-used others over the cap.
                while inner.resident.len() > self.max_resident {
                    let coldest = inner
                        .resident
                        .iter()
                        .filter(|(n, _)| n.as_str() != name)
                        .min_by_key(|(_, t)| t.last_used)
                        .map(|(n, _)| n.clone());
                    match coldest {
                        Some(n) => {
                            if let Some(t) = inner.resident.remove(&n) {
                                evicted.push(t);
                            }
                        }
                        None => break,
                    }
                }
            }
            inner.clock += 1;
            let clock = inner.clock;
            let tenant = inner.resident.get_mut(name).expect("just inserted");
            tenant.last_used = clock;
            Arc::clone(&tenant.batcher)
        };
        // The last handle of an evicted tenant flushes its checkpoint on
        // drop — outside the lock, so it never stalls other tenants.
        drop(evicted);
        Ok(batcher)
    }

    /// Imputes the block's rows against model `name`, activating it if
    /// cold. `header` is validated against the snapshot's recorded schema
    /// under the guard that serves the rows.
    pub fn impute_block(
        &self,
        name: &str,
        header: &[String],
        rows: QueryBlock,
    ) -> Result<Vec<RowResult>, RegistryError> {
        self.tenant(name)?.impute_checked(header, rows)
    }

    /// Absorbs complete tuples into model `name`, activating it if cold.
    /// Each tuple is checkpointed to the model's snapshot before the
    /// reply, so a subsequent eviction or restart replays it.
    pub fn learn(
        &self,
        name: &str,
        header: &[String],
        rows: Vec<Vec<f64>>,
    ) -> Result<LearnReply, RegistryError> {
        self.tenant(name)?.learn_checked(header, rows)
    }

    /// Stages snapshot `bytes` as model `name`: validate (full load —
    /// checksum, bounds, delta replay), write to a temp file in the
    /// registry directory, then move it into place. If the model is
    /// resident, the move and the model replacement happen atomically
    /// inside the tenant's write section (zero dropped or mixed
    /// requests); otherwise the temp file is renamed directly.
    pub fn stage(&self, name: &str, bytes: &[u8]) -> Result<StageOutcome, RegistryError> {
        let dst = self.path_for(name)?;
        // Fail point: a snapshot that passes checksum but is rejected by
        // validation (e.g. a format the build can't serve).
        if iim_faults::check("registry.stage.validate").is_some() {
            return Err(RegistryError::StageFailed(
                "fault injected: registry.stage.validate".into(),
            ));
        }
        let (model, info) =
            iim_persist::load_from_slice_with_info(bytes).map_err(RegistryError::Load)?;
        let method = model.name().to_string();
        let tmp = self.dir.join(format!(".{name}.iim.tmp"));
        // Durable staging: the temp file is fsynced before any rename can
        // publish it, so a crash never leaves a half-written snapshot
        // under the model's name. A failed write must not leave the
        // half-written temp file behind either — the next stage would
        // still overwrite it, but a crashed one would leak it.
        let write_outcome = if iim_faults::check("registry.stage.temp_write").is_some() {
            Err(PersistError::from(std::io::Error::other(
                "fault injected: registry.stage.temp_write",
            )))
        } else {
            iim_persist::write_file_durable(&tmp, bytes)
        };
        if let Err(e) = write_outcome {
            std::fs::remove_file(&tmp).ok();
            return Err(persist_io(e));
        }

        let mut inner = lock_inner(&self.inner);
        let swapped = match inner.resident.get_mut(name) {
            Some(tenant) => {
                let schema: Arc<[String]> = info.schema.into();
                let outcome = tenant.batcher.write(false, |s| {
                    let out = s.replace(
                        model,
                        Some((tmp.clone(), dst.clone())),
                        Some(CheckpointConfig {
                            path: dst.clone(),
                            every: 1,
                            truncate_to: None,
                        }),
                    );
                    if out.is_ok() {
                        s.schema = schema;
                    }
                    out
                });
                match outcome {
                    Ok(Ok(_)) => true,
                    Ok(Err(why)) => {
                        std::fs::remove_file(&tmp).ok();
                        return Err(RegistryError::StageFailed(why));
                    }
                    Err(_) => {
                        std::fs::remove_file(&tmp).ok();
                        return Err(RegistryError::Unavailable);
                    }
                }
            }
            None => {
                iim_persist::rename_durable(&tmp, &dst).map_err(persist_io)?;
                false
            }
        };
        Ok(StageOutcome { method, swapped })
    }

    /// Removes model `name`: its tenant (if resident) is shut down once
    /// the requests running on it finish, and its file deleted.
    pub fn delete(&self, name: &str) -> Result<(), RegistryError> {
        let path = self.path_for(name)?;
        let tenant = {
            let mut inner = lock_inner(&self.inner);
            inner.resident.remove(name)
        };
        if let Some(t) = tenant {
            t.batcher.shutdown(); // outside the lock
        }
        match std::fs::remove_file(&path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                Err(RegistryError::UnknownModel(name.to_string()))
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Evicts model `name`'s tenant (if resident), leaving its file in
    /// place; the next request reactivates it. Returns whether a tenant
    /// was actually torn down.
    pub fn evict(&self, name: &str) -> Result<bool, RegistryError> {
        if !valid_name(name) {
            return Err(RegistryError::BadName(name.to_string()));
        }
        let tenant = {
            let mut inner = lock_inner(&self.inner);
            inner.resident.remove(name)
        };
        let was = tenant.is_some();
        drop(tenant);
        Ok(was)
    }

    /// Shuts every resident tenant down ([`Batcher::shutdown`]): new
    /// requests are refused and buffered checkpoint rows are on disk when
    /// this returns. Used by graceful daemon shutdown.
    pub fn shutdown(&self) {
        let tenants: Vec<Arc<Batcher>> = lock_inner(&self.inner)
            .resident
            .values()
            .map(|t| Arc::clone(&t.batcher))
            .collect();
        for batcher in tenants {
            batcher.shutdown();
        }
    }
}

fn read_model(path: &Path, name: &str) -> Result<Vec<u8>, RegistryError> {
    std::fs::read(path).map_err(|e| io_or_unknown(e, name))
}

/// Activates a tenant's snapshot: the file is read into the one buffer
/// the model borrows from and decoded in place.
fn load_model(
    path: &Path,
    name: &str,
) -> Result<(Box<dyn iim_data::FittedImputer>, iim_persist::SnapshotInfo), RegistryError> {
    iim_persist::load_path_with_info(path).map_err(|e| match e {
        PersistError::Io(io) => io_or_unknown(io, name),
        other => RegistryError::Load(other),
    })
}

/// A missing `<name>.iim` is an unknown model; any other failure to read
/// it is filesystem trouble.
fn io_or_unknown(e: std::io::Error, name: &str) -> RegistryError {
    if e.kind() == std::io::ErrorKind::NotFound {
        RegistryError::UnknownModel(name.to_string())
    } else {
        RegistryError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iim_data::{FittedImputer, Imputer, PerAttributeImputer};

    fn fitted() -> Box<dyn FittedImputer> {
        let (rel, _) = iim_data::paper_fig1();
        PerAttributeImputer::new(iim_core::Iim::new(iim_core::IimConfig {
            k: 3,
            ..Default::default()
        }))
        .fit(&rel)
        .unwrap()
    }

    fn snapshot_bytes() -> Vec<u8> {
        iim_persist::save_to_vec_with_schema(
            fitted().as_ref(),
            &["A1".to_string(), "A2".to_string()],
        )
        .unwrap()
    }

    fn temp_registry(tag: &str, max_resident: usize) -> Arc<Registry> {
        let dir = std::env::temp_dir().join(format!("iim-registry-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        Registry::open(RegistryConfig {
            dir,
            max_resident,
            threads: 1,
            ..Default::default()
        })
        .unwrap()
    }

    #[test]
    fn cold_and_resident_cards_report_the_methods_absorb_support() {
        // Three attributes, so every lineup method fits.
        let rows: Vec<Vec<f64>> = (0..40)
            .map(|i| {
                let (a, b) = (i as f64 * 0.5, (i % 7) as f64);
                vec![a, b, 2.0 * a - b + 3.0 + (i % 3) as f64 * 0.1]
            })
            .collect();
        let rel = iim_data::Relation::from_rows(iim_data::Schema::anonymous(3), &rows);
        let mut lineup: Vec<Box<dyn Imputer>> = vec![Box::new(PerAttributeImputer::new(
            iim_core::Iim::new(iim_core::IimConfig {
                k: 3,
                ..Default::default()
            }),
        ))];
        lineup.extend(iim_baselines::all_baselines(
            3,
            7,
            iim_data::FeatureSelection::AllOthers,
        ));
        assert_eq!(lineup.len(), 14);
        let registry = temp_registry("absorb-cards", 1);
        let mut absorbing = Vec::new();
        for method in &lineup {
            let fitted = method.fit(&rel).unwrap();
            let name = method.name().to_lowercase();
            let bytes = iim_persist::save_to_vec(fitted.as_ref()).unwrap();
            registry.stage(&name, &bytes).unwrap();
            let cold = registry.info(&name).unwrap();
            assert!(!cold.resident, "{name}");
            assert_eq!(cold.can_absorb, fitted.can_absorb(), "{name}: cold card");
            registry.tenant(&name).unwrap();
            let hot = registry.info(&name).unwrap();
            assert!(hot.resident, "{name}");
            assert_eq!(hot.can_absorb, fitted.can_absorb(), "{name}: resident card");
            if fitted.can_absorb() {
                absorbing.push(method.name().to_string());
            }
        }
        assert_eq!(absorbing, ["IIM", "Mean", "GLR"]);
    }

    /// The rows as one flat block, the daemon's wire shape.
    fn block(rows: &[Vec<Option<f64>>]) -> QueryBlock {
        let mut block = QueryBlock::with_capacity(rows[0].len(), rows.len());
        for row in rows {
            block.cells_mut().extend_from_slice(row);
        }
        block
    }

    fn cleanup(reg: &Registry) {
        std::fs::remove_dir_all(reg.dir()).ok();
    }

    #[test]
    fn stage_list_impute_delete_round_trip() {
        let reg = temp_registry("crud", 2);
        assert!(reg.names().unwrap().is_empty());

        let out = reg.stage("prices", &snapshot_bytes()).unwrap();
        assert_eq!(out.method, "IIM");
        assert!(!out.swapped);
        assert_eq!(reg.names().unwrap(), vec!["prices"]);

        let header = vec!["A1".to_string(), "A2".to_string()];
        let fills = reg
            .impute_block("prices", &header, block(&[vec![Some(5.0), None]]))
            .unwrap();
        let direct = fitted().impute_one(&[Some(5.0), None]).unwrap();
        assert_eq!(fills[0].as_ref().unwrap()[1].to_bits(), direct[1].to_bits());

        let info = reg.info("prices").unwrap();
        assert!(info.resident);
        assert_eq!(info.method, "IIM");
        assert_eq!(info.snapshot_version, iim_persist::FORMAT_VERSION);

        reg.delete("prices").unwrap();
        assert!(matches!(
            reg.impute_block("prices", &header, block(&[vec![Some(5.0), None]])),
            Err(RegistryError::UnknownModel(_))
        ));
        cleanup(&reg);
    }

    #[test]
    fn bad_names_and_unknown_models_are_typed() {
        let reg = temp_registry("names", 2);
        for bad in ["", "a/b", "../up", "a b", &"x".repeat(65)] {
            assert!(matches!(reg.info(bad), Err(RegistryError::BadName(_))));
        }
        assert!(matches!(
            reg.info("ghost"),
            Err(RegistryError::UnknownModel(_))
        ));
        assert!(matches!(
            reg.delete("ghost"),
            Err(RegistryError::UnknownModel(_))
        ));
        cleanup(&reg);
    }

    #[test]
    fn schema_mismatch_is_rejected_before_serving() {
        let reg = temp_registry("schema", 2);
        reg.stage("m", &snapshot_bytes()).unwrap();
        let reordered = vec!["A2".to_string(), "A1".to_string()];
        assert!(matches!(
            reg.impute_block("m", &reordered, block(&[vec![None, Some(5.0)]])),
            Err(RegistryError::SchemaMismatch { .. })
        ));
        cleanup(&reg);
    }

    #[test]
    fn lru_eviction_is_transparent_and_lossless() {
        let reg = temp_registry("lru", 1);
        reg.stage("a", &snapshot_bytes()).unwrap();
        reg.stage("b", &snapshot_bytes()).unwrap();
        let header = vec!["A1".to_string(), "A2".to_string()];
        let q = vec![vec![Some(4.5), None]];

        // Touch a, learn into it, then touch b (evicting a at cap 1).
        let before = reg.impute_block("a", &header, block(&q)).unwrap()[0]
            .clone()
            .unwrap();
        assert_eq!(
            reg.learn("a", &header, vec![vec![4.6, 2.0]]).unwrap(),
            Ok(1)
        );
        let after_learn = reg.impute_block("a", &header, block(&q)).unwrap()[0]
            .clone()
            .unwrap();
        assert_ne!(before[1].to_bits(), after_learn[1].to_bits());

        let _ = reg.impute_block("b", &header, block(&q)).unwrap();
        assert!(!reg.info("a").unwrap().resident);
        assert!(reg.info("b").unwrap().resident);

        // Reactivating a replays the checkpointed learn: same bits as the
        // live model served before eviction.
        let revived = reg.impute_block("a", &header, block(&q)).unwrap()[0]
            .clone()
            .unwrap();
        assert_eq!(after_learn[1].to_bits(), revived[1].to_bits());
        assert_eq!(reg.info("a").unwrap().absorbed, 1);
        cleanup(&reg);
    }

    #[test]
    fn stage_hot_swaps_a_resident_model() {
        let reg = temp_registry("swap", 2);
        reg.stage("m", &snapshot_bytes()).unwrap();
        let header = vec!["A1".to_string(), "A2".to_string()];
        let q = vec![vec![Some(4.5), None]];
        let v1 = reg.impute_block("m", &header, block(&q)).unwrap()[0]
            .clone()
            .unwrap();

        // Build a distinguishable second version (two tuples absorbed).
        let mut next = fitted();
        next.absorb(&[4.6, 2.0]).unwrap();
        next.absorb(&[5.4, 1.5]).unwrap();
        let expected = next.impute_one(&[Some(4.5), None]).unwrap();
        let v2_bytes = iim_persist::save_to_vec_with_schema(
            next.as_ref(),
            &["A1".to_string(), "A2".to_string()],
        )
        .unwrap();

        let out = reg.stage("m", &v2_bytes).unwrap();
        assert!(out.swapped);
        let v2 = reg.impute_block("m", &header, block(&q)).unwrap()[0]
            .clone()
            .unwrap();
        assert_eq!(v2[1].to_bits(), expected[1].to_bits());
        assert_ne!(v1[1].to_bits(), v2[1].to_bits());
        // The file on disk is the new version too.
        let disk = std::fs::read(reg.dir().join("m.iim")).unwrap();
        assert_eq!(disk, v2_bytes);
        cleanup(&reg);
    }

    #[test]
    fn garbage_bytes_never_reach_the_registry() {
        let reg = temp_registry("garbage", 2);
        assert!(matches!(
            reg.stage("m", b"not a snapshot"),
            Err(RegistryError::Load(_))
        ));
        assert!(reg.names().unwrap().is_empty());
        // No temp litter either.
        let leftovers: Vec<_> = std::fs::read_dir(reg.dir()).unwrap().collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        cleanup(&reg);
    }
}

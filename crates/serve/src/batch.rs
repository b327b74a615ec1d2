//! One model's serving state: the fitted model and its checkpoint behind
//! a read-write lock.
//!
//! Imputes take the **read** guard and run `impute_one` on the caller's
//! thread (a connection thread in the daemon); a request of at least
//! [`iim_exec::DEFAULT_SERIAL_CUTOFF`] rows fans out on the model's
//! [`iim_exec::Pool`] under the same guard. `impute_one` is a pure
//! function of the fitted state and the query, so concurrent readers
//! cannot change each other's answers: a row imputes to the same bits
//! alone or beside strangers.
//!
//! Learns and swaps take the **write** guard, which makes them barriers:
//! every impute answered before a learn's write section sees the
//! pre-absorb model, every impute after it the post-absorb model, and no
//! impute observes a half-applied batch. Served fills are therefore
//! bitwise those of some serial absorb/impute interleaving.
//!
//! **Hot swap** is a write section too: [`Batcher::swap`] replaces the
//! model between reads, so no response mixes cells from two versions.
//! When the swap carries a staged snapshot file, the atomic rename
//! happens *inside* the write section — after the outgoing model's final
//! checkpoint flush, before the first read of the new model — so the
//! snapshot on disk and the live model never disagree about which
//! version absorbed a tuple.
//!
//! **Bounded admission**: at most [`Batcher::max_queue`] requests may be
//! admitted and unanswered at once. One more returns
//! [`SubmitRejected::Overloaded`] immediately — the daemon turns that
//! into a fast `503` + `Retry-After`, which under sustained overload is
//! strictly better than a backlog whose every entry times out. Swaps
//! bypass the cap: they are one-off control-plane operations, and
//! rejecting them under the very load they are meant to relieve would be
//! self-defeating.
//!
//! **Failure**: a panic inside the model is caught. Under the read guard
//! it fails only its own request ([`SubmitRejected::Panicked`], a `500`):
//! a read changes nothing a later request could see, and no model holds
//! interior mutability beyond thread-local scratch. Under the write guard
//! (learn, swap) the model may be half-updated, so the panic answers
//! [`SubmitRejected::Shutdown`] and marks the handle dead: every later
//! request gets the same answer (a `503`). [`Batcher::shutdown`] refuses
//! new work and flushes buffered checkpoint rows before it returns.

use crate::registry::{ModelInfo, RegistryError};
use iim_data::{FittedImputer, ImputeError, RowOpt};
use iim_exec::Pool;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

/// Default cap on admitted, unanswered requests (see
/// [`Batcher::set_max_queue`]). Each one is a request's worth of rows; at
/// serving throughput a backlog this deep already means seconds of
/// latency, so a higher cap only converts overload into timeouts.
pub const DEFAULT_MAX_QUEUE: usize = 1024;

/// Why a request got no answer from the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitRejected {
    /// The batcher is shut down, or its model panicked under the write
    /// guard; no future request will succeed.
    Shutdown,
    /// [`Batcher::max_queue`] requests are already admitted; the caller
    /// should shed the request (`503` + `Retry-After`) and let the client
    /// retry.
    Overloaded,
    /// The model panicked serving this read. Nothing changed, so the
    /// batcher keeps serving other requests.
    Panicked,
}

/// A request's query rows in one flat buffer: `rows × arity` cells in row
/// order, no per-row allocation. The daemon's CSV parser appends cells
/// straight into [`QueryBlock::cells_mut`], and the model serves each row
/// as a borrowed `&RowOpt` slice — the wire-to-scratch path allocates
/// exactly one buffer per request regardless of row count.
#[derive(Debug, Default)]
pub struct QueryBlock {
    cells: Vec<Option<f64>>,
    arity: usize,
}

impl QueryBlock {
    /// An empty block with room for `rows` rows.
    pub fn with_capacity(arity: usize, rows: usize) -> Self {
        Self {
            cells: Vec::with_capacity(arity * rows),
            arity,
        }
    }

    /// Cells per row.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Complete rows currently stored.
    pub fn len(&self) -> usize {
        self.cells.len().checked_div(self.arity).unwrap_or(0)
    }

    /// True when no rows are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row `i` as a borrowed slice.
    pub fn row(&self, i: usize) -> &RowOpt {
        &self.cells[i * self.arity..(i + 1) * self.arity]
    }

    /// The flat cell buffer, for parsers that append whole rows in place.
    /// The caller keeps the length a multiple of [`QueryBlock::arity`];
    /// a partial trailing row is never served.
    pub fn cells_mut(&mut self) -> &mut Vec<Option<f64>> {
        &mut self.cells
    }
}

/// Per-row outcome: the completed row or the typed impute error.
pub type RowResult = Result<Vec<f64>, ImputeError>;

/// Outcome of one learn: the model's total absorbed-tuple count after
/// the batch, or the index of the first failing row with its typed error
/// (rows before the failure stay absorbed — absorbs are applied in order).
pub type LearnReply = Result<usize, (usize, ImputeError)>;

/// Where (and how often) absorbed tuples are appended as delta records,
/// keeping the snapshot on disk loadable into the live model.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// The snapshot file to append [`iim_persist`] delta records to —
    /// normally the file the model was loaded from.
    pub path: PathBuf,
    /// Flush after this many absorbed tuples (`1` = every learn).
    /// Remaining buffered tuples flush at [`Batcher::shutdown`].
    pub every: usize,
    /// When the snapshot loaded with a torn tail
    /// ([`iim_persist::SnapshotInfo::recovered_at`]), the valid-prefix
    /// length to truncate the file back to before the first append —
    /// otherwise the next delta record would land after the damage and
    /// harden it into an unrecoverable interior error.
    pub truncate_to: Option<u64>,
}

/// Outcome of a swap: the new model's absorbed-tuple count, or why the
/// staged file could not be moved into place (the old model keeps
/// serving).
pub type SwapReply = Result<usize, String>;

/// Buffers absorbed tuples between checkpoint flushes.
struct CheckpointState {
    cfg: CheckpointConfig,
    pending: Vec<Vec<f64>>,
}

impl CheckpointState {
    fn new(cfg: CheckpointConfig) -> Self {
        Self {
            cfg,
            pending: Vec::new(),
        }
    }

    /// Appends the pending tuples to the snapshot as one delta record.
    /// An append failure keeps the rows buffered (retried on the next
    /// flush) — the live model is already ahead of the disk either way,
    /// and dropping the in-memory copy would make the gap permanent.
    ///
    /// When the snapshot loaded with a torn tail
    /// ([`CheckpointConfig::truncate_to`]), the first flush truncates
    /// the file back to the valid boundary before appending; appending
    /// after the damage instead would harden the recoverable tail into
    /// an unrecoverable interior error.
    fn flush(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        if let Some(len) = self.cfg.truncate_to {
            match iim_persist::truncate_deltas_path(&self.cfg.path, len) {
                Ok(()) => self.cfg.truncate_to = None,
                Err(e) => {
                    eprintln!(
                        "iim-serve: torn-tail repair of {} (truncate to {len}) failed ({e}); \
                         {} tuples still buffered",
                        self.cfg.path.display(),
                        self.pending.len()
                    );
                    return;
                }
            }
        }
        match iim_persist::append_delta_path(&self.cfg.path, &self.pending) {
            Ok(()) => self.pending.clear(),
            Err(e) => {
                eprintln!(
                    "iim-serve: checkpoint append to {} failed ({e}); {} tuples still buffered",
                    self.cfg.path.display(),
                    self.pending.len()
                );
            }
        }
    }
}

/// What the lock guards: one model version and its checkpoint.
pub(crate) struct Served {
    pub(crate) model: Box<dyn FittedImputer>,
    checkpoint: Option<CheckpointState>,
    /// The version's training column names (empty: unchecked). The
    /// daemon checks query headers against it under the same guard that
    /// serves them, so a header is always checked against the version
    /// that answers.
    pub(crate) schema: Arc<[String]>,
}

impl Served {
    /// `impute_one` per row, in row order; fans out on `pool` from its
    /// serial cutoff up.
    fn impute(&self, pool: &Pool, rows: &QueryBlock) -> Vec<RowResult> {
        pool.parallel_map_indexed(rows.len(), |i| self.model.impute_one(rows.row(i)))
    }

    /// Rejects a query `header` that differs from a non-empty schema:
    /// imputing it would silently transpose features.
    fn check_schema(&self, header: &[String]) -> Result<(), RegistryError> {
        if !self.schema.is_empty() && *header != *self.schema {
            return Err(RegistryError::SchemaMismatch {
                query: header.to_vec(),
                model: self.schema.to_vec(),
            });
        }
        Ok(())
    }

    /// Absorbs `rows` in order, buffering each for the checkpoint.
    pub(crate) fn learn(&mut self, rows: &[Vec<f64>]) -> LearnReply {
        for (i, row) in rows.iter().enumerate() {
            self.model.absorb(row).map_err(|e| (i, e))?;
            if let Some(cp) = self.checkpoint.as_mut() {
                cp.pending.push(row.clone());
                if cp.pending.len() >= cp.cfg.every.max(1) {
                    cp.flush();
                }
            }
        }
        Ok(self.model.absorbed())
    }

    /// Replaces the model (see [`Batcher::swap`]).
    pub(crate) fn replace(
        &mut self,
        model: Box<dyn FittedImputer>,
        staged: Option<(PathBuf, PathBuf)>,
        checkpoint: Option<CheckpointConfig>,
    ) -> SwapReply {
        // The outgoing model's last absorbed tuples go to disk before the
        // file changes hands.
        if let Some(cp) = self.checkpoint.as_mut() {
            cp.flush();
        }
        if let Some((tmp, dst)) = staged {
            // Fail point: the publish rename itself (e.g. the registry
            // directory vanished between stage and swap). The abort path
            // must leave the old model serving.
            let renamed = if iim_faults::check("registry.swap.rename").is_some() {
                Err(iim_persist::PersistError::from(std::io::Error::other(
                    "fault injected: registry.swap.rename",
                )))
            } else {
                iim_persist::rename_durable(&tmp, &dst)
            };
            renamed.map_err(|e| {
                format!(
                    "staging {} over {} failed: {e}",
                    tmp.display(),
                    dst.display()
                )
            })?;
        }
        self.model = model;
        self.checkpoint = checkpoint.map(CheckpointState::new);
        Ok(self.model.absorbed())
    }
}

/// The serving handle of one model: the model behind a read-write lock,
/// the pool large requests fan out on, and the admission state.
pub struct Batcher {
    served: RwLock<Served>,
    pool: Pool,
    /// Admitted, unanswered requests (swaps included).
    in_flight: AtomicUsize,
    /// Admission cap (see [`Batcher::set_max_queue`]); `0` = unbounded.
    max_queue: AtomicUsize,
    /// New requests are refused: set by [`Batcher::shutdown`] and by a
    /// panic under the write guard.
    closed: AtomicBool,
    /// The model panicked under the write guard: admitted requests are
    /// refused too.
    dead: AtomicBool,
    /// Torn-tail recoveries observed loading the served snapshot (see
    /// [`Batcher::with_recovered`]).
    recovered: usize,
}

/// One admitted request; dropping it answers the request for the cap.
struct Permit<'a>(&'a AtomicUsize);

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

impl Batcher {
    /// Serves `model` with requests of at least the serial cutoff fanning
    /// out on a pool of `threads` workers (`0` = the process default, see
    /// [`iim_exec::default_threads`]). All serving *and* learning goes
    /// through the returned handle.
    ///
    /// # Errors
    ///
    /// None: serving needs no thread of its own. The `io::Result` keeps
    /// the signature callers were written against.
    pub fn start(
        model: Box<dyn FittedImputer>,
        threads: usize,
        checkpoint: Option<CheckpointConfig>,
    ) -> std::io::Result<Self> {
        Ok(Self {
            served: RwLock::new(Served {
                model,
                checkpoint: checkpoint.map(CheckpointState::new),
                schema: Arc::from([]),
            }),
            pool: Pool::new(threads),
            in_flight: AtomicUsize::new(0),
            max_queue: AtomicUsize::new(DEFAULT_MAX_QUEUE),
            closed: AtomicBool::new(false),
            dead: AtomicBool::new(false),
            recovered: 0,
        })
    }

    /// Sets the training column names (e.g. the snapshot's
    /// `SnapshotInfo::schema`) that the daemon checks query headers
    /// against. Empty (the default): only arity is checked.
    pub fn with_schema(mut self, schema: Arc<[String]>) -> Self {
        self.served
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .schema = schema;
        self
    }

    /// Records the torn-tail recoveries seen loading the served snapshot
    /// (0 or 1; see `iim_persist::SnapshotInfo::recovered_at`), reported
    /// as `GET /info`'s `"recovered"` so operators see that a crash was
    /// survived.
    pub fn with_recovered(mut self, recovered: usize) -> Self {
        self.recovered = recovered;
        self
    }

    /// See [`Batcher::with_recovered`].
    pub(crate) fn recovered(&self) -> usize {
        self.recovered
    }

    /// Worker threads a request of many rows fans out on (resolved: never
    /// `0`).
    pub(crate) fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Reads the served state, tolerating poison: metadata stays readable
    /// after a panic.
    fn peek<R>(&self, f: impl FnOnce(&Served) -> R) -> R {
        f(&self.served.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// The served model's method name.
    pub fn model_name(&self) -> String {
        self.peek(|s| s.model.name().to_string())
    }

    /// The served model's attribute count.
    pub fn arity(&self) -> usize {
        self.peek(|s| s.model.arity())
    }

    /// Whether the served model supports
    /// [`absorb`](FittedImputer::absorb).
    pub fn can_absorb(&self) -> bool {
        self.peek(|s| s.model.can_absorb())
    }

    /// Tuples absorbed by the served model so far (including any delta
    /// rows replayed at snapshot load).
    pub fn absorbed(&self) -> usize {
        self.peek(|s| s.model.absorbed())
    }

    /// The served version's registry card, named `name`.
    pub(crate) fn card(&self, name: &str) -> ModelInfo {
        self.peek(|s| ModelInfo {
            name: name.to_string(),
            method: s.model.name().to_string(),
            snapshot_version: iim_persist::FORMAT_VERSION,
            resident: true,
            can_absorb: s.model.can_absorb(),
            absorbed: s.model.absorbed(),
            schema: s.schema.to_vec(),
        })
    }

    /// The admission cap: requests beyond this many admitted and
    /// unanswered ones are refused with [`SubmitRejected::Overloaded`].
    /// `0` = unbounded.
    pub fn max_queue(&self) -> usize {
        self.max_queue.load(Ordering::SeqCst)
    }

    /// Sets the admission cap (`0` = unbounded). Defaults to
    /// [`DEFAULT_MAX_QUEUE`].
    pub fn set_max_queue(&self, cap: usize) {
        self.max_queue.store(cap, Ordering::SeqCst);
    }

    /// Admits one request; `capped` requests are refused past the cap.
    fn admit(&self, capped: bool) -> Result<Permit<'_>, SubmitRejected> {
        if self.closed.load(Ordering::SeqCst) {
            return Err(SubmitRejected::Shutdown);
        }
        let ahead = self.in_flight.fetch_add(1, Ordering::SeqCst);
        let permit = Permit(&self.in_flight);
        let cap = self.max_queue.load(Ordering::SeqCst);
        if capped && cap > 0 && ahead >= cap {
            return Err(SubmitRejected::Overloaded);
        }
        Ok(permit)
    }

    /// Refuses a request once the model panicked under the write guard.
    fn live(&self) -> Result<(), SubmitRejected> {
        if self.dead.load(Ordering::SeqCst) {
            return Err(SubmitRejected::Shutdown);
        }
        Ok(())
    }

    /// Admits a request and runs `f` under the read guard. A panic in `f`
    /// fails this request alone with [`SubmitRejected::Panicked`].
    fn read<R>(&self, f: impl FnOnce(&Served, &Pool) -> R) -> Result<R, SubmitRejected> {
        let _permit = self.admit(true)?;
        let served = self.served.read().map_err(|_| SubmitRejected::Shutdown)?;
        self.live()?;
        catch_unwind(AssertUnwindSafe(|| f(&served, &self.pool)))
            .map_err(|_| SubmitRejected::Panicked)
    }

    /// Admits a request and runs `f` under the write guard; `capped` as
    /// in [`Batcher::admit`]. A panic in `f` marks the handle dead: this
    /// request and every later one answer `Shutdown`.
    pub(crate) fn write<R>(
        &self,
        capped: bool,
        f: impl FnOnce(&mut Served) -> R,
    ) -> Result<R, SubmitRejected> {
        let _permit = self.admit(capped)?;
        let mut served = self.served.write().map_err(|_| SubmitRejected::Shutdown)?;
        self.live()?;
        catch_unwind(AssertUnwindSafe(|| f(&mut served))).map_err(|_| {
            self.dead.store(true, Ordering::SeqCst);
            self.closed.store(true, Ordering::SeqCst);
            SubmitRejected::Shutdown
        })
    }

    /// Imputes the block's rows and returns their results, in order. A
    /// row imputes to the same bits alone or beside others.
    ///
    /// Fails only when the batcher is shut down, at its admission cap, or
    /// its model panicked on this request ([`SubmitRejected`]).
    pub fn impute_block(&self, rows: QueryBlock) -> Result<Vec<RowResult>, SubmitRejected> {
        self.read(|s, pool| s.impute(pool, &rows))
    }

    /// [`Batcher::impute_block`] for rows sent under `header`, which is
    /// checked against the served version's schema under the same guard.
    pub(crate) fn impute_checked(
        &self,
        header: &[String],
        rows: QueryBlock,
    ) -> Result<Vec<RowResult>, RegistryError> {
        self.read(|s, pool| {
            s.check_schema(header)?;
            Ok(s.impute(pool, &rows))
        })?
    }

    /// Absorbs complete tuples in row order, serialized against every
    /// other request, and returns once the model has applied them.
    ///
    /// Fails only when the batcher is shut down or at its admission cap
    /// ([`SubmitRejected`]).
    pub fn learn(&self, rows: Vec<Vec<f64>>) -> Result<LearnReply, SubmitRejected> {
        self.write(true, |s| s.learn(&rows))
    }

    /// [`Batcher::learn`] for rows sent under `header`, checked as in
    /// [`Batcher::impute_checked`].
    pub(crate) fn learn_checked(
        &self,
        header: &[String],
        rows: Vec<Vec<f64>>,
    ) -> Result<LearnReply, RegistryError> {
        self.write(true, |s| {
            s.check_schema(header)?;
            Ok(s.learn(&rows))
        })?
    }

    /// Atomically replaces the served model (and optionally its snapshot
    /// file and checkpoint config) between requests. Every request
    /// answered before the swap's write section is served by the old
    /// model, every request after it by the new one, and no response
    /// mixes the two.
    ///
    /// With `staged = Some((tmp, dst))`, `tmp` is durably renamed over
    /// `dst` inside the write section — after the outgoing model's last
    /// checkpoint flush, with a parent-directory fsync so the publish
    /// survives power loss — so delta records always land in the file of
    /// the model that absorbed them. A rename failure aborts the swap
    /// (`Err` with the OS error; the old model, file, and checkpoint
    /// stay in service).
    ///
    /// Fails only when the batcher is shut down — swaps are
    /// control-plane operations and bypass the admission cap.
    pub fn swap(
        &self,
        model: Box<dyn FittedImputer>,
        staged: Option<(PathBuf, PathBuf)>,
        checkpoint: Option<CheckpointConfig>,
    ) -> Result<SwapReply, SubmitRejected> {
        self.write(false, |s| s.replace(model, staged, checkpoint))
    }

    /// Refuses new work, then flushes buffered checkpoint rows under the
    /// write guard, so they are on disk when this returns. Requests
    /// admitted earlier are still answered, and rows a learn absorbs from
    /// here on are flushed at once.
    pub fn shutdown(&self) {
        self.closed.store(true, Ordering::SeqCst);
        let mut served = self.served.write().unwrap_or_else(PoisonError::into_inner);
        if let Some(cp) = served.checkpoint.as_mut() {
            cp.cfg.every = 1;
            cp.flush();
        }
    }
}

impl Drop for Batcher {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iim_data::{Imputer, PerAttributeImputer};

    fn fitted() -> Box<dyn FittedImputer> {
        let (rel, _) = iim_data::paper_fig1();
        PerAttributeImputer::new(iim_core::Iim::new(iim_core::IimConfig {
            k: 3,
            ..Default::default()
        }))
        .fit(&rel)
        .unwrap()
    }

    fn start(threads: usize) -> Batcher {
        Batcher::start(fitted(), threads, None).unwrap()
    }

    type QueryRow = Vec<Option<f64>>;

    /// The rows as one flat block, the daemon's wire shape.
    fn block(rows: &[QueryRow]) -> QueryBlock {
        let arity = rows.first().map_or(0, Vec::len);
        let mut block = QueryBlock::with_capacity(arity, rows.len());
        for row in rows {
            block.cells_mut().extend_from_slice(row);
        }
        block
    }

    #[test]
    fn batched_results_match_direct_serving() {
        // Deterministic fit: a second fit of the same config is the same
        // model, so it stands in for the one the batcher owns.
        let reference = fitted();
        let batcher = start(2);
        let rows: Vec<QueryRow> = (0..40).map(|i| vec![Some(i as f64 * 0.2), None]).collect();
        let got = batcher.impute_block(block(&rows)).unwrap();
        assert_eq!(got.len(), rows.len());
        for (row, out) in rows.iter().zip(&got) {
            let direct = reference.impute_one(row).unwrap();
            let out = out.as_ref().unwrap();
            assert_eq!(out.len(), direct.len());
            for (a, b) in out.iter().zip(&direct) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn concurrent_jobs_all_answered() {
        let batcher = Arc::new(start(2));
        std::thread::scope(|scope| {
            for t in 0..8 {
                let batcher = Arc::clone(&batcher);
                scope.spawn(move || {
                    let rows: Vec<QueryRow> = (0..5)
                        .map(|i| vec![Some((t * 5 + i) as f64 * 0.1), None])
                        .collect();
                    let got = batcher.impute_block(block(&rows)).unwrap();
                    assert_eq!(got.len(), 5);
                    for r in got {
                        assert!(r.unwrap()[1].is_finite());
                    }
                });
            }
        });
    }

    #[test]
    fn block_submission_matches_per_row_submission_bitwise() {
        // A row imputes to the same bits in a block of many as alone in a
        // block of one — same kernel, same order.
        let batcher = start(2);
        let rows: Vec<QueryRow> = (0..10).map(|i| vec![Some(i as f64 * 0.3), None]).collect();
        let all = block(&rows);
        assert_eq!(all.len(), rows.len());
        assert_eq!(all.arity(), 2);
        let got = batcher.impute_block(all).unwrap();
        assert_eq!(got.len(), rows.len());
        for (row, b) in rows.iter().zip(&got) {
            let a = batcher
                .impute_block(block(std::slice::from_ref(row)))
                .unwrap();
            let (a, b) = (a[0].as_ref().unwrap(), b.as_ref().unwrap());
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn per_row_errors_do_not_poison_the_batch() {
        // Fitted for A2 only: a row missing A1 has no model to serve it.
        let (rel, _) = iim_data::paper_fig1();
        let model = PerAttributeImputer::new(iim_core::Iim::new(iim_core::IimConfig {
            k: 3,
            ..Default::default()
        }))
        .fit_targets(&rel, &[1])
        .unwrap();
        let batcher = Batcher::start(model, 1, None).unwrap();
        let rows: Vec<QueryRow> = vec![
            vec![Some(1.0), None],
            vec![None, Some(2.0)], // no model for A1
            vec![Some(2.0), None],
        ];
        let got = batcher.impute_block(block(&rows)).unwrap();
        assert!(got[0].is_ok());
        assert!(matches!(got[1], Err(ImputeError::NotFitted { .. })));
        assert!(got[2].is_ok());
    }

    #[test]
    fn learn_absorbs_and_changes_subsequent_fills() {
        let batcher = start(1);
        assert!(batcher.can_absorb());
        assert_eq!(batcher.absorbed(), 0);
        let q: Vec<QueryRow> = vec![vec![Some(4.5), None]];
        let before = batcher.impute_block(block(&q)).unwrap()[0].clone().unwrap();

        let reply = batcher.learn(vec![vec![4.6, 2.0], vec![5.4, 1.5]]).unwrap();
        assert_eq!(reply, Ok(2));
        assert_eq!(batcher.absorbed(), 2);

        // A reference model absorbing the same rows serves the same bits.
        let mut reference = fitted();
        reference.absorb(&[4.6, 2.0]).unwrap();
        reference.absorb(&[5.4, 1.5]).unwrap();
        let after = batcher.impute_block(block(&q)).unwrap()[0].clone().unwrap();
        let direct = reference.impute_one(&q[0]).unwrap();
        assert_eq!(after[1].to_bits(), direct[1].to_bits());
        assert_ne!(before[1].to_bits(), after[1].to_bits());
    }

    #[test]
    fn learn_errors_are_positional_and_partial() {
        let batcher = start(1);
        let reply = batcher
            .learn(vec![vec![1.0, 2.0], vec![f64::NAN, 0.0], vec![3.0, 4.0]])
            .unwrap();
        // Row 0 absorbed, row 1 rejected, row 2 never attempted.
        assert!(matches!(reply, Err((1, ImputeError::Unsupported(_)))));
        assert_eq!(batcher.absorbed(), 1);
    }

    #[test]
    fn learn_checkpoints_delta_records() {
        let dir = std::env::temp_dir().join(format!("iim-batch-cp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.iim");
        let fitted = fitted();
        iim_persist::save_path(fitted.as_ref(), &path).unwrap();
        let batcher = Batcher::start(
            fitted,
            1,
            Some(CheckpointConfig {
                path: path.clone(),
                every: 1,
                truncate_to: None,
            }),
        )
        .unwrap();
        let reply = batcher.learn(vec![vec![4.6, 2.0], vec![0.4, 5.1]]).unwrap();
        assert_eq!(reply, Ok(2));
        // every=1 ⇒ both rows are on disk before the reply, no shutdown
        // flush needed.
        let bytes = std::fs::read(&path).unwrap();
        let info = iim_persist::inspect(&bytes).unwrap();
        assert_eq!(info.absorbed_rows, 2);
        let (loaded, _) = iim_persist::load_from_slice_with_info(&bytes).unwrap();
        assert_eq!(loaded.absorbed(), 2);
        drop(batcher);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_panicking_model_poisons_the_batcher_instead_of_wedging_it() {
        struct Panicker;
        impl FittedImputer for Panicker {
            fn name(&self) -> &str {
                "Panicker"
            }
            fn arity(&self) -> usize {
                1
            }
            fn impute_one(&self, _row: &iim_data::RowOpt) -> RowResult {
                panic!("model bug");
            }
            fn absorb(&mut self, _row: &[f64]) -> Result<(), ImputeError> {
                panic!("model bug");
            }
        }
        let batcher = Batcher::start(Box::new(Panicker), 1, None).unwrap();
        // Every request must resolve (to an error upstream), never hang.
        // A read-side panic fails only its own request: the next read
        // runs again.
        assert_eq!(
            batcher.impute_block(block(&[vec![None]])),
            Err(SubmitRejected::Panicked)
        );
        assert_eq!(
            batcher.impute_block(block(&[vec![None]])),
            Err(SubmitRejected::Panicked)
        );
        // A write-side panic may leave the model half-updated: it poisons
        // the batcher, and every later request is refused.
        assert_eq!(
            batcher.learn(vec![vec![1.0]]),
            Err(SubmitRejected::Shutdown)
        );
        assert_eq!(
            batcher.impute_block(block(&[vec![None]])),
            Err(SubmitRejected::Shutdown)
        );
    }

    /// Serves `inner`, except that a query whose first cell is `bad`
    /// panics.
    struct PanicsOn {
        inner: Box<dyn FittedImputer>,
        bad: f64,
    }

    impl FittedImputer for PanicsOn {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn arity(&self) -> usize {
            self.inner.arity()
        }
        fn impute_one(&self, row: &iim_data::RowOpt) -> RowResult {
            assert_ne!(row[0], Some(self.bad), "model bug");
            self.inner.impute_one(row)
        }
    }

    #[test]
    fn a_read_side_panic_fails_only_its_own_request() {
        let reference = fitted().impute_one(&[Some(4.5), None]).unwrap();
        let batcher = Batcher::start(
            Box::new(PanicsOn {
                inner: fitted(),
                bad: 13.0,
            }),
            2,
            None,
        )
        .unwrap();
        // Below and above the serial cutoff: inline and on the pool.
        for n in [1, iim_exec::DEFAULT_SERIAL_CUTOFF] {
            let mut rows = vec![vec![Some(4.5), None]; n];
            rows[n - 1] = vec![Some(13.0), None];
            assert_eq!(
                batcher.impute_block(block(&rows)).map(|_| ()),
                Err(SubmitRejected::Panicked)
            );
            let got = batcher
                .impute_block(block(&[vec![Some(4.5), None]]))
                .unwrap();
            let got = got[0].as_ref().unwrap();
            assert_eq!(got[1].to_bits(), reference[1].to_bits());
        }
    }

    #[test]
    fn swap_is_a_barrier_and_updates_metadata() {
        let batcher = start(2);
        let q: Vec<QueryRow> = vec![vec![Some(4.5), None]];
        let before = batcher.impute_block(block(&q)).unwrap()[0].clone().unwrap();

        // Swap in a model that has absorbed two extra tuples; requests
        // after the swap returns must serve the new model's bits.
        let mut next = fitted();
        next.absorb(&[4.6, 2.0]).unwrap();
        next.absorb(&[5.4, 1.5]).unwrap();
        let expected = next.impute_one(&q[0]).unwrap();
        assert_eq!(batcher.swap(next, None, None), Ok(Ok(2)));
        assert_eq!(batcher.absorbed(), 2);
        assert_eq!(batcher.model_name(), "IIM");

        let after = batcher.impute_block(block(&q)).unwrap()[0].clone().unwrap();
        assert_eq!(after[1].to_bits(), expected[1].to_bits());
        assert_ne!(before[1].to_bits(), after[1].to_bits());
    }

    #[test]
    fn swap_rename_failure_keeps_the_old_model() {
        let batcher = start(1);
        let q: Vec<QueryRow> = vec![vec![Some(4.5), None]];
        let before = batcher.impute_block(block(&q)).unwrap()[0].clone().unwrap();

        let mut next = fitted();
        next.absorb(&[4.6, 2.0]).unwrap();
        let missing = std::env::temp_dir().join("iim-swap-no-such-staged-file");
        let dst = std::env::temp_dir().join("iim-swap-dst");
        let reply = batcher.swap(next, Some((missing, dst)), None).unwrap();
        assert!(reply.is_err(), "rename of a missing tmp must fail the swap");
        assert_eq!(batcher.absorbed(), 0);

        let after = batcher.impute_block(block(&q)).unwrap()[0].clone().unwrap();
        assert_eq!(before[1].to_bits(), after[1].to_bits());
    }

    #[test]
    fn swap_renames_the_staged_file_inside_the_barrier() {
        let dir = std::env::temp_dir().join(format!("iim-swap-stage-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let tmp = dir.join(".model.tmp");
        let dst = dir.join("model.iim");
        std::fs::write(&tmp, b"staged-bytes").unwrap();
        std::fs::write(&dst, b"old-bytes").unwrap();

        let batcher = start(1);
        let reply = batcher
            .swap(fitted(), Some((tmp.clone(), dst.clone())), None)
            .unwrap();
        assert_eq!(reply, Ok(0));
        assert!(!tmp.exists());
        assert_eq!(std::fs::read(&dst).unwrap(), b"staged-bytes");
        drop(batcher);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shutdown_refuses_new_work() {
        let batcher = start(1);
        batcher.shutdown();
        assert_eq!(
            batcher.impute_block(block(&[vec![Some(1.0), None]])),
            Err(SubmitRejected::Shutdown)
        );
        assert_eq!(
            batcher.learn(vec![vec![1.0, 2.0]]),
            Err(SubmitRejected::Shutdown)
        );
    }

    /// Holds every `impute_one` call until the test opens it.
    #[derive(Default)]
    struct Gate {
        entered: AtomicUsize,
        open: std::sync::Mutex<bool>,
        opened: std::sync::Condvar,
    }

    impl Gate {
        fn wait_entered(&self, n: usize) {
            while self.entered.load(Ordering::SeqCst) < n {
                std::thread::yield_now();
            }
        }

        fn release(&self) {
            *self.open.lock().unwrap() = true;
            self.opened.notify_all();
        }
    }

    struct Held(Arc<Gate>);

    impl FittedImputer for Held {
        fn name(&self) -> &str {
            "Held"
        }
        fn arity(&self) -> usize {
            1
        }
        fn impute_one(&self, _row: &iim_data::RowOpt) -> RowResult {
            self.0.entered.fetch_add(1, Ordering::SeqCst);
            let mut open = self.0.open.lock().unwrap();
            while !*open {
                open = self.0.opened.wait(open).unwrap();
            }
            Ok(vec![0.0])
        }
    }

    #[test]
    fn a_full_queue_sheds_instead_of_growing() {
        // Cap admission at 2 while two imputes are held inside the model;
        // a third impute and a learn must be refused at once with
        // Overloaded, not left waiting behind them.
        let gate = Arc::new(Gate::default());
        let batcher = Batcher::start(Box::new(Held(Arc::clone(&gate))), 1, None).unwrap();
        assert_eq!(batcher.max_queue(), DEFAULT_MAX_QUEUE);
        batcher.set_max_queue(2);
        std::thread::scope(|scope| {
            let admitted: Vec<_> = (0..2)
                .map(|_| scope.spawn(|| batcher.impute_block(block(&[vec![None]]))))
                .collect();
            gate.wait_entered(2);
            assert_eq!(
                batcher.impute_block(block(&[vec![None]])).map(|_| ()),
                Err(SubmitRejected::Overloaded)
            );
            assert_eq!(
                batcher.learn(vec![vec![1.0]]).map(|_| ()),
                Err(SubmitRejected::Overloaded)
            );
            gate.release();
            // Everything admitted is still answered.
            for h in admitted {
                assert_eq!(h.join().unwrap().unwrap().len(), 1);
            }
        });
    }

    #[test]
    fn shutdown_answers_the_running_request_before_it_returns() {
        let gate = Arc::new(Gate::default());
        let batcher = Batcher::start(Box::new(Held(Arc::clone(&gate))), 1, None).unwrap();
        std::thread::scope(|scope| {
            let running = scope.spawn(|| batcher.impute_block(block(&[vec![None]])));
            gate.wait_entered(1);
            let closer = scope.spawn(|| batcher.shutdown());
            while !batcher.closed.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            // New work is refused at once; shutdown itself waits for the
            // write guard, which the running read still holds.
            assert_eq!(
                batcher.impute_block(block(&[vec![None]])),
                Err(SubmitRejected::Shutdown)
            );
            assert!(!closer.is_finished());
            gate.release();
            assert_eq!(running.join().unwrap().unwrap().len(), 1);
            closer.join().unwrap();
        });
    }
}

//! The two-phase imputation protocol shared by IIM and every baseline.
//!
//! The paper separates an **offline learning phase** from an **online
//! imputation phase** and stresses that "the offline learning phase only
//! needs to be processed once" (§VI-B3). The protocol mirrors that split:
//!
//! * [`Imputer::fit`] / [`Imputer::fit_targets`] — the offline phase: learn
//!   everything a method needs (neighbor orders, individual models, Gram
//!   accumulators, mixture components, …) from a relation, once.
//! * [`FittedImputer`] — the online phase: an object-safe handle serving
//!   single-tuple queries ([`FittedImputer::impute_one`]), micro-batches
//!   ([`FittedImputer::impute_batch`]), and whole relations
//!   ([`FittedImputer::impute_all`]).
//! * [`Imputer::impute`] — the one-shot convenience reproducing the classic
//!   batch semantics (fit on the relation's incomplete attributes, then fill
//!   it); kept as a blanket method so existing call sites keep working.
//!
//! Two integration styles exist underneath:
//!
//! * Matrix-global methods (SVDimpute, IFC, ILLS, ERACER) implement
//!   [`Imputer`] directly, capturing their learned state in `fit`.
//! * Per-attribute methods implement [`AttrEstimator`] (fit `F → Ax`,
//!   predict queries); [`PerAttributeImputer`] lifts any estimator into an
//!   [`Imputer`], handling feature selection, training-row collection, and
//!   the multiple-missing-attributes loop.

use crate::relation::Relation;
use iim_exec::Pool;
use std::collections::HashMap;
use std::time::Duration;

/// Why an imputation could not be produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ImputeError {
    /// No tuple is complete on the feature set plus the target attribute.
    NoTrainingData {
        /// The incomplete attribute being imputed.
        target: usize,
    },
    /// The method cannot run on this relation shape (e.g. SVDimpute on a
    /// single attribute). The paper's tables mark such entries "-".
    Unsupported(String),
    /// A query is missing an attribute the fitted imputer holds no model
    /// for (it was not in the [`Imputer::fit_targets`] target set).
    NotFitted {
        /// The missing attribute without a model.
        target: usize,
    },
    /// A query row's arity does not match the fitted relation's.
    ArityMismatch {
        /// The fitted arity.
        expected: usize,
        /// The query's arity.
        got: usize,
    },
}

impl std::fmt::Display for ImputeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImputeError::NoTrainingData { target } => {
                write!(
                    f,
                    "no complete training tuples for attribute index {target}"
                )
            }
            ImputeError::Unsupported(why) => write!(f, "method not applicable: {why}"),
            ImputeError::NotFitted { target } => {
                write!(f, "no fitted model for attribute index {target}")
            }
            ImputeError::ArityMismatch { expected, got } => {
                write!(
                    f,
                    "query arity {got} does not match fitted arity {expected}"
                )
            }
        }
    }
}

impl std::error::Error for ImputeError {}

/// Wall-clock split between the offline learning phase and the online
/// imputation phase (the paper times them separately: "the offline learning
/// phase only needs to be processed once", §VI-B3).
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimings {
    /// Model learning over complete tuples.
    pub offline: Duration,
    /// Per-query imputation.
    pub online: Duration,
}

impl PhaseTimings {
    /// Offline + online wall clock.
    pub fn total(&self) -> Duration {
        self.offline + self.online
    }
}

impl std::fmt::Display for PhaseTimings {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "offline {:.4}s + online {:.4}s = {:.4}s",
            self.offline.as_secs_f64(),
            self.online.as_secs_f64(),
            self.total().as_secs_f64()
        )
    }
}

/// A single query tuple: `None` marks the missing cells to impute.
///
/// Matches [`Relation::push_row_opt`] / [`Relation::row_opt`], so relation
/// rows and ad-hoc slices both serve as queries.
pub type RowOpt = [Option<f64>];

/// Validates a query row against the fitted arity and rejects non-finite
/// present values (a relation never contains them, so no model can either).
pub fn validate_query(row: &RowOpt, arity: usize) -> Result<(), ImputeError> {
    if row.len() != arity {
        return Err(ImputeError::ArityMismatch {
            expected: arity,
            got: row.len(),
        });
    }
    if row.iter().flatten().any(|v| !v.is_finite()) {
        return Err(ImputeError::Unsupported(
            "query contains a non-finite present value".into(),
        ));
    }
    Ok(())
}

/// The output of the offline phase: a learned model serving online queries.
///
/// Serving is **stateless**: `impute_one` is a pure function of the fitted
/// state and the query, so the same query always gets the same answer
/// regardless of call order or batching — the contract that lets one fitted
/// model serve millions of queries from many threads (`Send + Sync`).
pub trait FittedImputer: Send + Sync {
    /// Display name of the underlying method (see [`Imputer::name`]).
    fn name(&self) -> &str;

    /// Runtime-typed view of the concrete fitted state, used by the
    /// snapshot layer (`iim-persist`) to reach the fields it serializes.
    ///
    /// The default `None` opts the implementation out of persistence
    /// (saving it returns a typed error instead of panicking); every
    /// fitted type in the workspace lineup overrides this with
    /// `Some(self)`.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }

    /// Arity of the relation the model was fitted on; queries must match.
    fn arity(&self) -> usize;

    /// Online phase: imputes one tuple.
    ///
    /// Returns the completed row: present cells pass through unchanged,
    /// missing cells are filled with the model's prediction. A cell the
    /// method cannot impute (e.g. a non-finite prediction) comes back as
    /// `NaN` — callers that need per-cell presence should check
    /// `is_finite()`, as [`FittedImputer::impute_all`] does.
    fn impute_one(&self, row: &RowOpt) -> Result<Vec<f64>, ImputeError>;

    /// Incremental learning: absorbs one **complete** tuple into the
    /// fitted state, as if it had been part of the fit relation all along
    /// (appended after the original training rows).
    ///
    /// The equivalence contract, property-tested in `tests/streaming.rs`:
    /// absorb-then-impute is **bitwise-equal** to refit-from-scratch for
    /// the running-statistics methods (Mean, GLR) and within a documented
    /// per-cell tolerance for IIM (`iim_core::IIM_ABSORB_TOLERANCE`),
    /// independent of worker count.
    ///
    /// The default returns a typed [`ImputeError::Unsupported`] so
    /// non-incremental methods fail loudly rather than silently serving a
    /// stale model; check [`FittedImputer::can_absorb`] to avoid mutating
    /// anything on such methods.
    fn absorb(&mut self, row: &[f64]) -> Result<(), ImputeError> {
        let _ = row;
        Err(ImputeError::Unsupported(format!(
            "{} does not support incremental learning",
            self.name()
        )))
    }

    /// Whether [`FittedImputer::absorb`] is supported by this fitted model
    /// (`false` by default; overridden by the incremental methods).
    fn can_absorb(&self) -> bool {
        false
    }

    /// Number of tuples absorbed since the fit (or snapshot load replayed
    /// its base container — delta-snapshot replay counts here).
    fn absorbed(&self) -> usize {
        0
    }

    /// Online phase over a micro-batch, preserving order, on the
    /// process-default pool ([`iim_exec::global`]).
    fn impute_batch(&self, rows: &[&RowOpt]) -> Result<Vec<Vec<f64>>, ImputeError> {
        self.impute_batch_on(&iim_exec::global(), rows)
    }

    /// [`FittedImputer::impute_batch`] on an explicit pool.
    ///
    /// Queries are independent and `impute_one` is pure, so the answers
    /// (and the first error in row order, if any) are bitwise-identical for
    /// every worker count.
    fn impute_batch_on(&self, pool: &Pool, rows: &[&RowOpt]) -> Result<Vec<Vec<f64>>, ImputeError> {
        pool.parallel_map_indexed(rows.len(), |i| self.impute_one(rows[i]))
            .into_iter()
            .collect()
    }

    /// Imputes every missing cell of `rel`, reproducing the classic
    /// whole-relation semantics: a copy of `rel` with each incomplete tuple
    /// run through [`FittedImputer::impute_one`] — fanned out on the
    /// process-default pool ([`iim_exec::global`]).
    fn impute_all(&self, rel: &Relation) -> Result<Relation, ImputeError> {
        self.impute_all_on(&iim_exec::global(), rel)
    }

    /// [`FittedImputer::impute_all`] on an explicit pool.
    ///
    /// Incomplete tuples are imputed in parallel and the fills applied in
    /// row order, so the result is bitwise-identical for every worker
    /// count (property-tested per method in `tests/fit_serve.rs`).
    fn impute_all_on(&self, pool: &Pool, rel: &Relation) -> Result<Relation, ImputeError> {
        if rel.arity() != self.arity() {
            return Err(ImputeError::ArityMismatch {
                expected: self.arity(),
                got: rel.arity(),
            });
        }
        let results = pool.parallel_map_indexed(rel.n_rows(), |i| {
            if rel.row_complete(i) {
                None
            } else {
                Some(self.impute_one(&rel.row_opt(i)))
            }
        });
        let mut out = rel.clone();
        for (i, result) in results.into_iter().enumerate() {
            let Some(result) = result else { continue };
            let filled = result?;
            for (j, &v) in filled.iter().enumerate() {
                if rel.is_missing(i, j) && v.is_finite() {
                    out.set(i, j, v);
                }
            }
        }
        Ok(out)
    }
}

/// A missing-value imputation method: the offline half of the protocol.
///
/// `Send + Sync` so whole method objects can be scheduled across worker
/// threads (the bench harness fans experiment cells out on a pool); every
/// method in the workspace is plain configuration data.
pub trait Imputer: Send + Sync {
    /// Display name used in experiment tables (matches the paper, e.g.
    /// "IIM", "kNN", "GLR").
    fn name(&self) -> &str;

    /// Offline phase restricted to the given target attributes: learns the
    /// models needed to impute exactly those attributes.
    ///
    /// Methods that learn one whole-matrix model (SVDimpute, IFC) may
    /// legitimately serve every attribute regardless of `targets`; methods
    /// with per-attribute models return
    /// [`ImputeError::NotFitted`] when queried outside the target set.
    fn fit_targets(
        &self,
        rel: &Relation,
        targets: &[usize],
    ) -> Result<Box<dyn FittedImputer>, ImputeError>;

    /// Offline phase: learns models able to impute **any** attribute of a
    /// later query — the serving configuration. Works on a fully complete
    /// relation (the scenario the batch API could not express).
    ///
    /// Best-effort over attributes: a target without training data (e.g. an
    /// all-missing column in the fit relation) is dropped rather than
    /// failing the whole fit, and only surfaces as
    /// [`ImputeError::NotFitted`] if a query actually needs it. Use
    /// [`Imputer::fit_targets`] when specific attributes are required
    /// up front.
    fn fit(&self, rel: &Relation) -> Result<Box<dyn FittedImputer>, ImputeError> {
        let mut targets: Vec<usize> = (0..rel.arity()).collect();
        loop {
            match self.fit_targets(rel, &targets) {
                Err(ImputeError::NoTrainingData { target })
                    if targets.len() > 1 && targets.contains(&target) =>
                {
                    targets.retain(|&t| t != target);
                }
                other => return other,
            }
        }
    }

    /// One-shot convenience reproducing the classic batch semantics:
    /// fits on the attributes actually missing in `rel`, then fills them.
    fn impute(&self, rel: &Relation) -> Result<Relation, ImputeError> {
        self.fit_targets(rel, &rel.incomplete_attrs())?
            .impute_all(rel)
    }
}

/// Remembered fills for the incomplete tuples seen at fit time.
///
/// Matrix-global methods (SVDimpute, IFC, ILLS, ERACER) impute the fit
/// relation's incomplete tuples *jointly* during the offline phase — the
/// iterations feed on each other's estimates. The cache keys those tuples
/// by exact bit pattern so online serving returns the joint solution for
/// them, while genuinely novel queries take the method's single-query path
/// against the captured state.
#[derive(Debug, Clone, Default)]
pub struct FillCache {
    map: HashMap<Vec<u64>, Vec<(usize, f64)>>,
}

/// Missing cells key as a bit pattern no finite value can take.
const MISSING_KEY: u64 = u64::MAX;

fn cache_key(row: &RowOpt) -> Vec<u64> {
    row.iter()
        .map(|c| c.map_or(MISSING_KEY, f64::to_bits))
        .collect()
}

impl FillCache {
    /// Records, for every incomplete tuple of `original`, the cells that
    /// `filled` (the batch result over `original`) imputed. Tuples the
    /// method left holes in are recorded with those cells absent, so
    /// lookups reproduce the batch behavior exactly.
    pub fn from_batch(original: &Relation, filled: &Relation) -> Self {
        let mut map = HashMap::new();
        for i in 0..original.n_rows() {
            if original.row_complete(i) {
                continue;
            }
            let fills: Vec<(usize, f64)> = original
                .missing_attrs(i)
                .into_iter()
                .filter_map(|j| filled.get(i, j).map(|v| (j, v)))
                .collect();
            map.insert(cache_key(&original.row_opt(i)), fills);
        }
        Self { map }
    }

    /// The fills remembered for a fit-time tuple with this exact pattern.
    pub fn lookup(&self, row: &RowOpt) -> Option<&[(usize, f64)]> {
        self.map.get(&cache_key(row)).map(Vec::as_slice)
    }

    /// All remembered `(bit-pattern key, fills)` entries, sorted by key so
    /// iteration order — and therefore any serialized form — is
    /// deterministic regardless of hash-map internals.
    pub fn entries_sorted(&self) -> Vec<(&[u64], &[(usize, f64)])> {
        let mut entries: Vec<(&[u64], &[(usize, f64)])> = self
            .map
            .iter()
            .map(|(k, v)| (k.as_slice(), v.as_slice()))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        entries
    }

    /// Rebuilds a cache from `(key, fills)` entries produced by
    /// [`FillCache::entries_sorted`] (the snapshot decode path).
    pub fn from_entries(entries: Vec<(Vec<u64>, Vec<(usize, f64)>)>) -> Self {
        Self {
            map: entries.into_iter().collect(),
        }
    }

    /// Number of remembered tuples.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no tuples were incomplete at fit time.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Applies remembered fills onto a completed-row buffer (missing cells
    /// initialized to `NaN`), returning whether the row was remembered.
    pub fn apply(&self, row: &RowOpt, out: &mut [f64]) -> bool {
        match self.lookup(row) {
            Some(fills) => {
                for &(j, v) in fills {
                    out[j] = v;
                }
                true
            }
            None => false,
        }
    }
}

/// Expands a query into a completed-row buffer: present cells pass
/// through, missing cells start as `NaN` for the method to fill.
pub fn completed_row(row: &RowOpt) -> Vec<f64> {
    row.iter().map(|c| c.unwrap_or(f64::NAN)).collect()
}

/// How the complete attribute set `F` is chosen for a target attribute.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum FeatureSelection {
    /// `F = R \ {Ax}` — the paper's default.
    #[default]
    AllOthers,
    /// The first `k` non-target attributes in schema order (the Figure 4/5
    /// protocol: "|F| = 2 denotes F = {A1, A2}").
    FirstK(usize),
    /// An explicit attribute list (must not contain the target).
    Fixed(Vec<usize>),
}

impl FeatureSelection {
    /// Resolves to concrete attribute indices for `target` out of `m`.
    pub fn resolve(&self, m: usize, target: usize) -> Vec<usize> {
        match self {
            FeatureSelection::AllOthers => (0..m).filter(|&j| j != target).collect(),
            FeatureSelection::FirstK(k) => (0..m).filter(|&j| j != target).take(*k).collect(),
            FeatureSelection::Fixed(attrs) => {
                assert!(
                    !attrs.contains(&target),
                    "feature set must not contain the target attribute"
                );
                attrs.clone()
            }
        }
    }
}

/// One per-attribute imputation task: learn `F → target` from `train_rows`.
#[derive(Debug)]
pub struct AttrTask<'a> {
    /// The full relation (complete and incomplete tuples).
    pub rel: &'a Relation,
    /// Complete attribute indices `F`.
    pub features: Vec<usize>,
    /// The incomplete attribute `Ax`.
    pub target: usize,
    /// Rows complete on `F ∪ {target}` — the paper's `r`.
    pub train_rows: Vec<u32>,
}

impl<'a> AttrTask<'a> {
    /// Builds the task, collecting the training rows.
    pub fn new(rel: &'a Relation, features: Vec<usize>, target: usize) -> Self {
        let mut all = features.clone();
        all.push(target);
        let train_rows: Vec<u32> = (0..rel.n_rows())
            .filter(|&i| rel.row_complete_on(i, &all))
            .map(|i| i as u32)
            .collect();
        Self {
            rel,
            features,
            target,
            train_rows,
        }
    }

    /// Number of training tuples `n = |r|`.
    pub fn n_train(&self) -> usize {
        self.train_rows.len()
    }

    /// Fails with [`ImputeError::Unsupported`] when the feature set `F` is
    /// empty, as it is on a one-attribute relation: `method` looks for
    /// neighbors over `F`, and there is nothing to measure them on.
    pub fn require_features(&self, method: &str) -> Result<(), ImputeError> {
        if self.features.is_empty() {
            return Err(ImputeError::Unsupported(format!(
                "{method} needs at least one attribute besides the target"
            )));
        }
        Ok(())
    }

    /// Gathers the feature vector of `row` into `out`.
    pub fn feature_vec(&self, row: usize, out: &mut Vec<f64>) {
        self.rel.gather(row, &self.features, out);
    }

    /// Target value of training row `row`.
    pub fn target_value(&self, row: usize) -> f64 {
        self.rel.value(row, self.target)
    }

    /// Materializes the training design: `(X rows, y)` in train-row order.
    pub fn training_matrix(&self) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut xs = Vec::with_capacity(self.train_rows.len());
        let mut ys = Vec::with_capacity(self.train_rows.len());
        let mut buf = Vec::new();
        for &r in &self.train_rows {
            self.feature_vec(r as usize, &mut buf);
            xs.push(buf.clone());
            ys.push(self.target_value(r as usize));
        }
        (xs, ys)
    }

    /// Running feature-column sums over the training rows, accumulated in
    /// train-row order — the state behind [`AttrTask::feature_means`] that
    /// incremental absorbs extend one row at a time (same addition order ⇒
    /// same bits as a refit).
    pub fn feature_mean_sums(&self) -> Vec<f64> {
        let mut sums = vec![0.0; self.features.len()];
        for &r in &self.train_rows {
            let row = self.rel.row_raw(r as usize);
            for (slot, &j) in sums.iter_mut().zip(&self.features) {
                *slot += row[j];
            }
        }
        sums
    }

    /// Column means of the features over the training rows — the fallback
    /// for queries missing one of their *feature* values.
    pub fn feature_means(&self) -> Vec<f64> {
        let mut means = self.feature_mean_sums();
        for slot in &mut means {
            *slot /= self.n_train().max(1) as f64;
        }
        means
    }
}

/// A fitted per-attribute model.
///
/// `Send + Sync` so a fitted imputer can serve queries from many threads;
/// `predict` must be a pure function of the model and the query.
pub trait AttrPredictor: Send + Sync {
    /// Predicts the target from a feature vector in `AttrTask::features`
    /// order.
    fn predict(&self, x: &[f64]) -> f64;

    /// Runtime-typed view of the concrete predictor, used by the snapshot
    /// layer (`iim-persist`). The default `None` opts out of persistence
    /// (closures, ad-hoc test predictors); every persistable predictor in
    /// the workspace overrides this with `Some(self)`.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }

    /// Incremental learning: absorbs one training example `(x, y)` with
    /// `x` in `AttrTask::features` order, as if it had been appended to
    /// the fit-time training rows. Defaults to a typed error; see
    /// [`FittedImputer::absorb`] for the equivalence contract.
    fn absorb(&mut self, x: &[f64], y: f64) -> Result<(), ImputeError> {
        let _ = (x, y);
        Err(ImputeError::Unsupported(
            "predictor does not support incremental learning".into(),
        ))
    }

    /// Whether [`AttrPredictor::absorb`] is supported (`false` by
    /// default, so closures and ad-hoc predictors are covered).
    fn can_absorb(&self) -> bool {
        false
    }
}

impl<F: Fn(&[f64]) -> f64 + Send + Sync> AttrPredictor for F {
    fn predict(&self, x: &[f64]) -> f64 {
        self(x)
    }
}

/// A per-attribute imputation method (the `g : F → Ax` of Figure 2).
pub trait AttrEstimator {
    /// Display name (see [`Imputer::name`]).
    fn name(&self) -> &str;

    /// Fits a predictor on the task's training rows.
    ///
    /// Returns an error when the method cannot model the task (no training
    /// rows, unsupported shape).
    fn fit(&self, task: &AttrTask<'_>) -> Result<Box<dyn AttrPredictor>, ImputeError>;
}

/// Lifts an [`AttrEstimator`] into a whole-relation [`Imputer`].
///
/// `fit_targets` builds an [`AttrTask`] per target attribute with the
/// configured [`FeatureSelection`] and fits the estimator once per target;
/// the resulting [`FittedImputer`] predicts any number of queries online.
/// Queries missing one of their *feature* values (tuples with several
/// missing attributes) have those features replaced by the training-column
/// mean — the paper sidesteps this case ("multiple incomplete attributes
/// could be addressed one by one"); the mean-substitution keeps the driver
/// total.
pub struct PerAttributeImputer<E> {
    estimator: E,
    features: FeatureSelection,
}

impl<E: AttrEstimator> PerAttributeImputer<E> {
    /// Wraps `estimator` with the paper-default `F = R \ {Ax}`.
    pub fn new(estimator: E) -> Self {
        Self {
            estimator,
            features: FeatureSelection::AllOthers,
        }
    }

    /// Wraps with an explicit feature-selection policy.
    pub fn with_features(estimator: E, features: FeatureSelection) -> Self {
        Self {
            estimator,
            features,
        }
    }

    /// The wrapped estimator.
    pub fn estimator(&self) -> &E {
        &self.estimator
    }
}

/// One fitted target attribute of a [`FittedPerAttribute`].
///
/// Fields are public so the snapshot layer (`iim-persist`) can encode and
/// reconstruct fitted drivers without an intermediate builder type.
pub struct FittedAttrModel {
    /// Feature attribute indices `F` (query gather order).
    pub features: Vec<usize>,
    /// Training-column means, for missing-feature fallback.
    pub means: Vec<f64>,
    /// Running feature-column sums behind `means`, extended by absorbs so
    /// the fallback means track the growing training set bitwise (same
    /// addition order as [`AttrTask::feature_mean_sums`] on a refit).
    pub mean_sums: Vec<f64>,
    /// Number of training rows behind `mean_sums`.
    pub mean_count: usize,
    /// The fitted per-attribute predictor.
    pub predictor: Box<dyn AttrPredictor>,
}

/// The fitted form of a [`PerAttributeImputer`]: one predictor per target
/// attribute (for IIM, each predictor is an `IimModel` — the individual
/// models Φ plus the training tuples, the paper's offline-phase output).
pub struct FittedPerAttribute {
    name: String,
    arity: usize,
    models: Vec<Option<FittedAttrModel>>,
    /// Tuples absorbed since fit / snapshot load (not persisted in the
    /// base container: delta-snapshot replay recounts it at load).
    absorbed: usize,
}

impl FittedPerAttribute {
    /// Reassembles a fitted driver from its parts (the snapshot decode
    /// path). `models` must have one slot per attribute (`arity` slots);
    /// `None` marks targets without a fitted model.
    pub fn from_parts(name: String, arity: usize, models: Vec<Option<FittedAttrModel>>) -> Self {
        assert_eq!(models.len(), arity, "one model slot per attribute");
        Self {
            name,
            arity,
            models,
            absorbed: 0,
        }
    }

    /// The per-target models, indexed by attribute (the snapshot encode
    /// path).
    pub fn models(&self) -> &[Option<FittedAttrModel>] {
        &self.models
    }
}

impl FittedImputer for FittedPerAttribute {
    fn name(&self) -> &str {
        &self.name
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn arity(&self) -> usize {
        self.arity
    }

    fn impute_one(&self, row: &RowOpt) -> Result<Vec<f64>, ImputeError> {
        validate_query(row, self.arity)?;
        let mut out = completed_row(row);
        // Per-thread feature buffer: serving a query gathers one feature
        // vector per missing attribute, so the buffer is hot-path scratch
        // (see `iim_exec::with_tls_scratch` for the take/put contract).
        thread_local! {
            static FEATURE_BUF: std::cell::Cell<Vec<f64>> =
                const { std::cell::Cell::new(Vec::new()) };
        }
        iim_exec::with_tls_scratch(&FEATURE_BUF, |fbuf| {
            for j in 0..self.arity {
                if row[j].is_some() {
                    continue;
                }
                let model = self.models[j]
                    .as_ref()
                    .ok_or(ImputeError::NotFitted { target: j })?;
                fbuf.clear();
                for (idx, &fj) in model.features.iter().enumerate() {
                    fbuf.push(row[fj].unwrap_or(model.means[idx]));
                }
                let pred = model.predictor.predict(fbuf);
                if pred.is_finite() {
                    out[j] = pred;
                }
            }
            Ok(out)
        })
    }

    fn can_absorb(&self) -> bool {
        self.models
            .iter()
            .flatten()
            .all(|m| m.predictor.can_absorb())
    }

    fn absorbed(&self) -> usize {
        self.absorbed
    }

    /// Absorbs a complete tuple into **every** fitted target model: each
    /// per-attribute predictor learns `(features of row, row[target])` and
    /// the missing-feature fallback means are extended — exactly the rows
    /// a refit on the grown relation would have trained on.
    ///
    /// Failure is atomic with respect to *support*: if any fitted target's
    /// predictor cannot learn incrementally, nothing is mutated. A
    /// predictor-internal absorb error (rare; e.g. a degenerate update)
    /// can leave earlier targets absorbed — callers treat the model as
    /// suspect and refit.
    fn absorb(&mut self, row: &[f64]) -> Result<(), ImputeError> {
        if row.len() != self.arity {
            return Err(ImputeError::ArityMismatch {
                expected: self.arity,
                got: row.len(),
            });
        }
        // Every cell is a feature of some target's Gram system, which sums
        // its square: a cell past √f64::MAX (≈1.34e154) would overflow it
        // and poison every later fill. Checked before any model changes.
        if row.iter().any(|v| !(v * v).is_finite()) {
            return Err(ImputeError::Unsupported(
                "absorb requires a complete tuple of finite values with finite squares \
                 (|v| <= 1.34e154)"
                    .into(),
            ));
        }
        if !self.can_absorb() {
            return Err(ImputeError::Unsupported(format!(
                "{} does not support incremental learning",
                self.name
            )));
        }
        let mut x = Vec::new();
        for (j, slot) in self.models.iter_mut().enumerate() {
            let Some(model) = slot else { continue };
            x.clear();
            x.extend(model.features.iter().map(|&fj| row[fj]));
            model.predictor.absorb(&x, row[j])?;
            for (slot, &fj) in model.mean_sums.iter_mut().zip(&model.features) {
                *slot += row[fj];
            }
            model.mean_count += 1;
            for (mean, &sum) in model.means.iter_mut().zip(&model.mean_sums) {
                *mean = sum / model.mean_count as f64;
            }
        }
        self.absorbed += 1;
        Ok(())
    }
}

impl<E: AttrEstimator + Send + Sync> Imputer for PerAttributeImputer<E> {
    fn name(&self) -> &str {
        self.estimator.name()
    }

    /// Target attributes are independent per-attribute fits, so the
    /// offline phase fans them out on the process-default pool (each item
    /// is a whole model fit, heavy enough to parallelize from two targets
    /// up). Errors surface exactly as in a sequential fit: the first
    /// failing target in `targets` order wins.
    fn fit_targets(
        &self,
        rel: &Relation,
        targets: &[usize],
    ) -> Result<Box<dyn FittedImputer>, ImputeError> {
        let m = rel.arity();
        let pool = iim_exec::global().with_serial_cutoff(2);
        let fitted = pool.parallel_map_indexed(targets.len(), |ti| {
            let target = targets[ti];
            let features = self.features.resolve(m, target);
            let task = AttrTask::new(rel, features.clone(), target);
            if task.n_train() == 0 {
                return Err(ImputeError::NoTrainingData { target });
            }
            let mean_sums = task.feature_mean_sums();
            let mean_count = task.n_train();
            let means = mean_sums.iter().map(|s| s / mean_count as f64).collect();
            let predictor = self.estimator.fit(&task)?;
            Ok((
                target,
                FittedAttrModel {
                    features,
                    means,
                    mean_sums,
                    mean_count,
                    predictor,
                },
            ))
        });
        let mut models: Vec<Option<FittedAttrModel>> = (0..m).map(|_| None).collect();
        for result in fitted {
            let (target, model) = result?;
            models[target] = Some(model);
        }
        Ok(Box::new(FittedPerAttribute {
            name: self.estimator.name().to_string(),
            arity: m,
            models,
            absorbed: 0,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::Schema;

    /// Predicts the training-target mean — enough to exercise the driver.
    struct MeanEstimator;

    impl AttrEstimator for MeanEstimator {
        fn name(&self) -> &str {
            "TestMean"
        }
        fn fit(&self, task: &AttrTask<'_>) -> Result<Box<dyn AttrPredictor>, ImputeError> {
            let sum: f64 = task
                .train_rows
                .iter()
                .map(|&r| task.target_value(r as usize))
                .sum();
            let mean = sum / task.n_train() as f64;
            Ok(Box::new(move |_x: &[f64]| mean))
        }
    }

    fn rel_with_missing() -> Relation {
        let mut r = Relation::with_capacity(Schema::anonymous(3), 5);
        r.push_row(&[1.0, 10.0, 100.0]);
        r.push_row(&[2.0, 20.0, 200.0]);
        r.push_row(&[3.0, 30.0, 300.0]);
        r.push_row_opt(&[Some(4.0), None, Some(400.0)]);
        r.push_row_opt(&[Some(5.0), Some(50.0), None]);
        r
    }

    #[test]
    fn feature_selection_resolution() {
        assert_eq!(FeatureSelection::AllOthers.resolve(4, 1), vec![0, 2, 3]);
        assert_eq!(FeatureSelection::FirstK(2).resolve(4, 0), vec![1, 2]);
        assert_eq!(FeatureSelection::FirstK(2).resolve(4, 1), vec![0, 2]);
        assert_eq!(
            FeatureSelection::Fixed(vec![3, 0]).resolve(4, 1),
            vec![3, 0]
        );
    }

    #[test]
    #[should_panic(expected = "must not contain")]
    fn fixed_features_reject_target() {
        FeatureSelection::Fixed(vec![1]).resolve(3, 1);
    }

    #[test]
    fn attr_task_training_rows() {
        let rel = rel_with_missing();
        let task = AttrTask::new(&rel, vec![0, 2], 1);
        // Rows 0,1,2 are fully complete; row 4 is complete on {0,2,1}? No:
        // row 4 misses attr 2 → excluded. Row 3 misses the target.
        assert_eq!(task.train_rows, vec![0, 1, 2]);
        assert_eq!(task.n_train(), 3);
        let (xs, ys) = task.training_matrix();
        assert_eq!(xs[1], vec![2.0, 200.0]);
        assert_eq!(ys, vec![10.0, 20.0, 30.0]);
        assert_eq!(task.feature_means(), vec![2.0, 200.0]);
    }

    #[test]
    fn driver_fills_all_missing() {
        let rel = rel_with_missing();
        let imputer = PerAttributeImputer::new(MeanEstimator);
        assert_eq!(imputer.name(), "TestMean");
        let out = imputer.impute(&rel).unwrap();
        assert_eq!(out.missing_count(), 0);
        assert_eq!(out.get(3, 1), Some(20.0)); // mean of 10,20,30
        assert_eq!(out.get(4, 2), Some(200.0)); // mean of 100,200,300

        // Present cells untouched.
        assert_eq!(out.get(0, 0), Some(1.0));
    }

    #[test]
    fn fit_then_serve_single_queries() {
        let rel = rel_with_missing();
        let fitted = PerAttributeImputer::new(MeanEstimator).fit(&rel).unwrap();
        assert_eq!(fitted.name(), "TestMean");
        assert_eq!(fitted.arity(), 3);
        // A novel single-tuple query: attribute 1 missing.
        let row = fitted.impute_one(&[Some(9.0), None, Some(900.0)]).unwrap();
        assert_eq!(row, vec![9.0, 20.0, 900.0]);
        // Micro-batch preserves order.
        let q1: Vec<Option<f64>> = vec![Some(9.0), None, Some(900.0)];
        let q2: Vec<Option<f64>> = vec![None, Some(50.0), Some(100.0)];
        let batch = fitted.impute_batch(&[&q1, &q2]).unwrap();
        assert_eq!(batch[0][1], 20.0);
        assert_eq!(batch[1][0], 2.0);
    }

    #[test]
    fn fit_on_complete_relation_serves_later_queries() {
        let mut rel = Relation::with_capacity(Schema::anonymous(2), 3);
        rel.push_row(&[1.0, 10.0]);
        rel.push_row(&[2.0, 20.0]);
        rel.push_row(&[3.0, 30.0]);
        // The serving scenario the batch API could not express: nothing is
        // missing at fit time.
        let fitted = PerAttributeImputer::new(MeanEstimator).fit(&rel).unwrap();
        let row = fitted.impute_one(&[Some(7.0), None]).unwrap();
        assert_eq!(row, vec![7.0, 20.0]);
    }

    #[test]
    fn fit_targets_limits_served_attributes() {
        let rel = rel_with_missing();
        let fitted = PerAttributeImputer::new(MeanEstimator)
            .fit_targets(&rel, &[1])
            .unwrap();
        assert!(fitted.impute_one(&[Some(1.0), None, Some(2.0)]).is_ok());
        assert_eq!(
            fitted
                .impute_one(&[Some(1.0), Some(2.0), None])
                .unwrap_err(),
            ImputeError::NotFitted { target: 2 }
        );
    }

    #[test]
    fn serving_fit_drops_unservable_targets() {
        // Column 2 is entirely missing. Under FirstK(1) it is unfittable
        // (nothing is complete on {A1, A3}) but also unused as a feature
        // by the other targets, so the serving `fit` drops it instead of
        // failing the whole fit; it only surfaces when a query needs it.
        let mut rel = Relation::with_capacity(Schema::anonymous(3), 3);
        rel.push_row_opt(&[Some(1.0), Some(10.0), None]);
        rel.push_row_opt(&[Some(2.0), Some(20.0), None]);
        rel.push_row_opt(&[Some(3.0), Some(30.0), None]);
        let imputer =
            PerAttributeImputer::with_features(MeanEstimator, FeatureSelection::FirstK(1));
        // Strict per-target fitting still errors…
        assert_eq!(
            imputer.fit_targets(&rel, &[0, 1, 2]).err(),
            Some(ImputeError::NoTrainingData { target: 2 })
        );
        // …while the serving fit serves what it can.
        let fitted = imputer.fit(&rel).unwrap();
        let row = fitted.impute_one(&[None, Some(20.0), Some(5.0)]).unwrap();
        assert_eq!(row[0], 2.0);
        assert_eq!(
            fitted
                .impute_one(&[Some(1.0), Some(2.0), None])
                .unwrap_err(),
            ImputeError::NotFitted { target: 2 }
        );
    }

    #[test]
    fn query_validation() {
        let rel = rel_with_missing();
        let fitted = PerAttributeImputer::new(MeanEstimator).fit(&rel).unwrap();
        assert_eq!(
            fitted.impute_one(&[Some(1.0), None]).unwrap_err(),
            ImputeError::ArityMismatch {
                expected: 3,
                got: 2
            }
        );
        assert!(matches!(
            fitted.impute_one(&[Some(f64::NAN), None, Some(1.0)]),
            Err(ImputeError::Unsupported(_))
        ));
    }

    #[test]
    fn driver_mean_substitutes_missing_features() {
        let mut rel = Relation::with_capacity(Schema::anonymous(3), 4);
        rel.push_row(&[1.0, 10.0, 100.0]);
        rel.push_row(&[2.0, 20.0, 200.0]);
        rel.push_row(&[3.0, 30.0, 300.0]);
        // Tuple missing two attributes.
        rel.push_row_opt(&[None, None, Some(250.0)]);
        let imputer = PerAttributeImputer::new(MeanEstimator);
        let out = imputer.impute(&rel).unwrap();
        assert_eq!(out.missing_count(), 0);
        assert_eq!(out.get(3, 0), Some(2.0));
        assert_eq!(out.get(3, 1), Some(20.0));
    }

    #[test]
    fn no_training_data_is_an_error() {
        let mut rel = Relation::with_capacity(Schema::anonymous(2), 2);
        rel.push_row_opt(&[Some(1.0), None]);
        rel.push_row_opt(&[Some(2.0), None]);
        let imputer = PerAttributeImputer::new(MeanEstimator);
        assert_eq!(
            imputer.impute(&rel).unwrap_err(),
            ImputeError::NoTrainingData { target: 1 }
        );
    }

    #[test]
    fn phase_timings_total_and_display() {
        let t = PhaseTimings {
            offline: Duration::from_millis(1500),
            online: Duration::from_millis(250),
        };
        assert_eq!(t.total(), Duration::from_millis(1750));
        assert_eq!(t.to_string(), "offline 1.5000s + online 0.2500s = 1.7500s");
    }

    #[test]
    fn fill_cache_round_trips_batch_fills() {
        let original = rel_with_missing();
        let mut filled = original.clone();
        filled.set(3, 1, 42.0);
        // Row 4 deliberately left unfilled: the cache must remember that.
        let cache = FillCache::from_batch(&original, &filled);
        assert_eq!(cache.len(), 2);
        assert!(!cache.is_empty());

        let mut out = completed_row(&original.row_opt(3));
        assert!(cache.apply(&original.row_opt(3), &mut out));
        assert_eq!(out[1], 42.0);

        let mut out = completed_row(&original.row_opt(4));
        assert!(cache.apply(&original.row_opt(4), &mut out));
        assert!(out[2].is_nan(), "unfilled cell must stay missing");

        // A novel pattern misses the cache.
        assert!(cache.lookup(&[Some(8.0), None, Some(1.0)]).is_none());
    }
}

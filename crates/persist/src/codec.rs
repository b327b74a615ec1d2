//! Per-type payload codecs: every fitted imputer in the lineup encodes to
//! — and decodes from — a self-describing byte payload.
//!
//! Layout conventions:
//!
//! * the payload opens with a **shape tag** ([`SHAPE_PER_ATTRIBUTE`] or one
//!   of the matrix-global tags), then shape-specific fields;
//! * per-attribute payloads carry one **predictor tag** (`"iim"`, `"knn"`,
//!   …) per fitted target, so a driver snapshot is a container of
//!   independently-coded predictors;
//! * neighbor indexes serialize as *(kind, feature matrix)* and the tree
//!   structure is **rebuilt deterministically at load** — KD construction
//!   is a pure function of the matrix, and kd/brute serving is
//!   bit-identical by the `iim-neighbors` determinism contract, so
//!   shipping the points (not the nodes) keeps snapshots small without
//!   costing a single bit of fidelity;
//! * decoders validate every length relation a constructor would `assert`,
//!   returning [`PersistError::Corrupt`] instead of panicking.

use crate::error::PersistError;
use crate::wire::{Reader, Writer};
use iim_baselines::blr::{BlrModel, PosteriorDraw};
use iim_baselines::eracer::{EracerTarget, FittedEracer};
use iim_baselines::glr::GlrModel;
use iim_baselines::gmm::{Component, GmmModel};
use iim_baselines::ifc::FittedIfc;
use iim_baselines::ills::{FittedIlls, IllsTarget};
use iim_baselines::knn::KnnModel;
use iim_baselines::knne::{KnneModel, Member};
use iim_baselines::loess::LoessModel;
use iim_baselines::mean::MeanModel;
use iim_baselines::pmm::PmmModel;
use iim_baselines::svd::FittedSvd;
use iim_baselines::xgb::{Node, Tree, XgbModel};
use iim_bytes::SharedBytes;
use iim_core::{IimModel, Weighting};
use iim_data::stats::ColumnTransform;
use iim_data::{AttrPredictor, FillCache, FittedAttrModel, FittedImputer, FittedPerAttribute};
use iim_linalg::{GramAccumulator, LuFactors, Matrix, RidgeModel};
use iim_neighbors::brute::FeatureMatrix;
use iim_neighbors::{IndexChoice, NeighborIndex};
use std::ops::Range;

/// Shape tag: a [`FittedPerAttribute`] driver (IIM and the per-attribute
/// baselines).
pub const SHAPE_PER_ATTRIBUTE: u8 = 1;
/// Shape tag: [`FittedIlls`].
pub const SHAPE_ILLS: u8 = 2;
/// Shape tag: [`FittedEracer`].
pub const SHAPE_ERACER: u8 = 3;
/// Shape tag: [`FittedSvd`].
pub const SHAPE_SVD: u8 = 4;
/// Shape tag: [`FittedIfc`].
pub const SHAPE_IFC: u8 = 5;

fn corrupt(msg: impl Into<String>) -> PersistError {
    PersistError::Corrupt(msg.into())
}

// ---------------------------------------------------------------------------
// Shared building blocks.

fn put_ridge(w: &mut Writer, m: &RidgeModel) {
    w.f64s_banked(&m.phi);
}

fn get_ridge(r: &mut Reader<'_>) -> Result<RidgeModel, PersistError> {
    let phi = r.f64s_banked("ridge phi")?;
    if phi.is_empty() {
        return Err(corrupt("ridge model with no coefficients"));
    }
    Ok(RidgeModel { phi })
}

fn put_matrix(w: &mut Writer, m: &Matrix) {
    w.len(m.rows());
    w.len(m.cols());
    w.f64s(m.as_slice());
}

fn get_matrix(r: &mut Reader<'_>) -> Result<Matrix, PersistError> {
    let rows = r.scalar("matrix rows")?;
    let cols = r.scalar("matrix cols")?;
    let data = r.f64s("matrix data")?;
    if data.len() != rows.saturating_mul(cols) {
        return Err(corrupt(format!(
            "matrix buffer holds {} values for shape {rows}x{cols}",
            data.len()
        )));
    }
    Ok(Matrix::from_vec(rows, cols, data))
}

fn put_feature_matrix(w: &mut Writer, fm: &FeatureMatrix) {
    w.len(fm.n_features());
    w.u32s_banked(fm.row_ids());
    w.f64s_banked(fm.data());
}

fn get_feature_matrix(r: &mut Reader<'_>) -> Result<FeatureMatrix, PersistError> {
    let f = r.scalar("feature-matrix dimensionality")?;
    let row_ids = r.u32s_banked("feature-matrix row ids")?;
    let data = r.f64s_banked("feature-matrix data")?;
    if data.len() != row_ids.len().saturating_mul(f) {
        return Err(corrupt(format!(
            "feature matrix holds {} values for {} rows x {f} features",
            data.len(),
            row_ids.len()
        )));
    }
    Ok(FeatureMatrix::from_dense(f, row_ids, data))
}

/// Index kind byte: 0 = brute, 1 = kd-tree, 2 = vp-tree. Only the
/// matrix ships; tree structures rebuild deterministically at load. The
/// rebuild reads the view-backed matrix through one borrowed slice: at
/// n = 10k and m = 3–4 it takes 1.5 ms per kd-tree and 1.9–2.0 ms per
/// vp-tree (the `index_build_n10000` bench group; table in
/// `iim_neighbors::kdtree`), so a 4-attribute IIM snapshot spends about
/// 6 ms of its activation here — too little to justify storing the
/// layout under a new format version.
fn put_index(w: &mut Writer, index: &NeighborIndex) {
    w.u8(match index.kind() {
        "kdtree" => 1,
        "vptree" => 2,
        _ => 0,
    });
    put_feature_matrix(w, index.matrix());
}

fn get_index(r: &mut Reader<'_>) -> Result<NeighborIndex, PersistError> {
    let kind = r.u8("index kind")?;
    let choice = match kind {
        0 => IndexChoice::Brute,
        1 => IndexChoice::KdTree,
        2 => IndexChoice::VpTree,
        other => return Err(corrupt(format!("unknown index kind byte {other}"))),
    };
    Ok(NeighborIndex::build(get_feature_matrix(r)?, choice))
}

fn put_lu(w: &mut Writer, lu: &LuFactors) {
    let (m, perm, sign) = lu.parts();
    put_matrix(w, m);
    w.lens(perm);
    w.f64(sign);
}

fn get_lu(r: &mut Reader<'_>) -> Result<LuFactors, PersistError> {
    let m = get_matrix(r)?;
    let perm = r.lens("LU permutation")?;
    let sign = r.f64("LU sign")?;
    if m.rows() != m.cols() || perm.len() != m.rows() {
        return Err(corrupt("LU factors are not square/permutation-complete"));
    }
    if perm.iter().any(|&p| p >= m.rows()) {
        return Err(corrupt("LU permutation entry out of range"));
    }
    Ok(LuFactors::from_parts(m, perm, sign))
}

fn put_fill_cache(w: &mut Writer, cache: &FillCache) {
    let entries = cache.entries_sorted();
    w.len(entries.len());
    for (key, fills) in entries {
        w.u64s(key);
        w.len(fills.len());
        for &(j, v) in fills {
            w.len(j);
            w.f64(v);
        }
    }
}

fn get_fill_cache(r: &mut Reader<'_>, arity: usize) -> Result<FillCache, PersistError> {
    let n = r.len("fill-cache entry count")?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let key = r.u64s("fill-cache key")?;
        if key.len() != arity {
            return Err(corrupt("fill-cache key arity mismatch"));
        }
        let m = r.len("fill-cache fill count")?;
        let mut fills = Vec::with_capacity(m);
        for _ in 0..m {
            let j = r.u64("fill-cache attribute")? as usize;
            let v = r.f64("fill-cache value")?;
            if j >= arity {
                return Err(corrupt("fill-cache attribute out of range"));
            }
            fills.push((j, v));
        }
        entries.push((key, fills));
    }
    Ok(FillCache::from_entries(entries))
}

fn put_transform(w: &mut Writer, t: &ColumnTransform) {
    w.f64s(t.shifts());
    w.f64s(t.scales());
}

fn get_transform(r: &mut Reader<'_>, arity: usize) -> Result<ColumnTransform, PersistError> {
    let shifts = r.f64s("transform shifts")?;
    let scales = r.f64s("transform scales")?;
    if shifts.len() != arity || scales.len() != arity {
        return Err(corrupt("column transform arity mismatch"));
    }
    Ok(ColumnTransform::from_parts(shifts, scales))
}

fn weighting_tag(wg: Weighting) -> u8 {
    match wg {
        Weighting::MutualVote => 0,
        Weighting::Uniform => 1,
        Weighting::InverseDistance => 2,
    }
}

fn weighting_from_tag(tag: u8) -> Result<Weighting, PersistError> {
    match tag {
        0 => Ok(Weighting::MutualVote),
        1 => Ok(Weighting::Uniform),
        2 => Ok(Weighting::InverseDistance),
        other => Err(corrupt(format!("unknown weighting tag {other}"))),
    }
}

// ---------------------------------------------------------------------------
// Per-attribute predictors.

fn put_predictor(w: &mut Writer, p: &dyn AttrPredictor) -> Result<(), PersistError> {
    let any = p
        .as_any()
        .ok_or_else(|| PersistError::UnsupportedModel("opaque predictor".into()))?;
    if let Some(m) = any.downcast_ref::<IimModel>() {
        w.str("iim");
        put_index(w, m.index());
        w.len(m.models().len());
        for rm in m.models() {
            put_ridge(w, rm);
        }
        w.u32s_banked(m.chosen_ell());
        w.f64s_banked(m.ys());
        w.f64(m.alpha());
        w.len(m.k());
        w.u8(weighting_tag(m.weighting()));
    } else if let Some(m) = any.downcast_ref::<KnnModel>() {
        w.str("knn");
        put_index(w, &m.index);
        w.f64s(&m.ys);
        w.len(m.k);
        w.bool(m.weighted);
    } else if let Some(m) = any.downcast_ref::<KnneModel>() {
        w.str("knne");
        w.len(m.members.len());
        for member in &m.members {
            w.lens(&member.feat_idx);
            put_index(w, &member.index);
        }
        w.f64s(&m.ys);
        w.len(m.k);
    } else if let Some(m) = any.downcast_ref::<LoessModel>() {
        w.str("loess");
        put_index(w, &m.index);
        w.f64s(&m.ys);
        w.len(m.k);
        w.f64(m.alpha);
    } else if let Some(m) = any.downcast_ref::<GlrModel>() {
        w.str("glr");
        put_matrix(w, m.accumulator().u());
        w.f64s(m.accumulator().v());
        w.len(m.accumulator().len());
        w.f64(m.alpha());
    } else if let Some(m) = any.downcast_ref::<MeanModel>() {
        w.str("mean");
        w.f64(m.sum);
        w.len(m.count);
    } else if let Some(m) = any.downcast_ref::<GmmModel>() {
        w.str("gmm");
        w.len(m.f);
        w.f64(m.global_mean_y);
        w.len(m.comps.len());
        for c in &m.comps {
            w.f64(c.weight);
            w.f64s(&c.mu_f);
            w.f64(c.mu_y);
            put_lu(w, &c.lu_ff);
            w.f64(c.log_det_ff);
            w.f64s(&c.beta);
        }
    } else if let Some(m) = any.downcast_ref::<BlrModel>() {
        w.str("blr");
        put_ridge(w, &m.draw.beta_star);
        put_ridge(w, &m.draw.beta_hat);
        w.f64(m.draw.sigma_star);
        w.u64(m.noise_seed);
    } else if let Some(m) = any.downcast_ref::<PmmModel>() {
        w.str("pmm");
        w.len(m.donors_by_pred.len());
        for &(p, y) in &m.donors_by_pred {
            w.f64(p);
            w.f64(y);
        }
        put_ridge(w, &m.beta_star);
        w.len(m.d);
        w.u64(m.pick_seed);
    } else if let Some(m) = any.downcast_ref::<XgbModel>() {
        w.str("xgb");
        w.f64(m.base);
        w.f64(m.eta);
        w.len(m.trees.len());
        for tree in &m.trees {
            w.len(tree.nodes.len());
            for node in &tree.nodes {
                match *node {
                    Node::Leaf(weight) => {
                        w.u8(0);
                        w.f64(weight);
                    }
                    Node::Split {
                        feature,
                        threshold,
                        left,
                        right,
                    } => {
                        w.u8(1);
                        w.u16(feature);
                        w.f64(threshold);
                        w.u32(left);
                        w.u32(right);
                    }
                }
            }
        }
    } else {
        return Err(PersistError::UnsupportedModel(
            "unknown predictor type".into(),
        ));
    }
    Ok(())
}

/// Decodes one predictor. `qdim` is the dimensionality of the queries the
/// driver will feed it (`features.len()` of the enclosing slot); every
/// structure that indexes into or zips against a query vector is checked
/// against it, so a checksum-clean but inconsistent snapshot fails with a
/// typed error at load instead of panicking (or silently truncating a
/// distance) at serve time.
fn get_predictor(r: &mut Reader<'_>, qdim: usize) -> Result<Box<dyn AttrPredictor>, PersistError> {
    let tag = r.str("predictor tag")?;
    match tag.as_str() {
        "iim" => {
            let index = get_index(r)?;
            if index.matrix().n_features() != qdim || index.is_empty() {
                return Err(corrupt("iim: index disagrees with the feature set"));
            }
            let n = r.len("iim model count")?;
            if n != index.len() {
                return Err(corrupt("iim: one ridge model per training tuple"));
            }
            let mut models = Vec::with_capacity(n);
            for i in 0..n {
                let model = get_ridge(r)?;
                // Serving zips φ against the query in release builds, so
                // a short φ would silently drop coefficients.
                if model.n_features() != qdim {
                    return Err(corrupt(format!(
                        "iim: tuple {i}'s model has {} coefficients for {qdim} features",
                        model.phi.len()
                    )));
                }
                models.push(model);
            }
            let chosen_ell = r.u32s_banked("iim chosen ell")?;
            if chosen_ell.len() != n {
                return Err(corrupt("iim: one chosen ℓ per training tuple"));
            }
            let ys = r.f64s_banked("iim ys")?;
            if ys.len() != n {
                return Err(corrupt("iim: one target value per training tuple"));
            }
            let alpha = r.f64("iim alpha")?;
            let k = r.scalar("iim k")?.max(1);
            let weighting = weighting_from_tag(r.u8("iim weighting")?)?;
            Ok(Box::new(IimModel::from_parts(
                index, models, chosen_ell, ys, alpha, k, weighting,
            )))
        }
        "knn" => {
            let index = get_index(r)?;
            if index.matrix().n_features() != qdim || index.is_empty() {
                return Err(corrupt("knn: index disagrees with the feature set"));
            }
            let ys = r.f64s("knn ys")?;
            if ys.len() != index.len() {
                return Err(corrupt("knn: one target value per indexed tuple"));
            }
            let k = r.scalar("knn k")?.max(1);
            let weighted = r.bool("knn weighted")?;
            Ok(Box::new(KnnModel {
                index,
                ys,
                k,
                weighted,
            }))
        }
        "knne" => {
            let n_members = r.len("knne member count")?;
            let mut members = Vec::with_capacity(n_members);
            for _ in 0..n_members {
                let feat_idx = r.lens("knne member features")?;
                let index = get_index(r)?;
                if feat_idx.iter().any(|&i| i >= qdim)
                    || index.matrix().n_features() != feat_idx.len()
                    || index.is_empty()
                {
                    return Err(corrupt("knne: member disagrees with the feature set"));
                }
                members.push(Member { feat_idx, index });
            }
            let ys = r.f64s("knne ys")?;
            if members.is_empty() || members.iter().any(|m| m.index.len() != ys.len()) {
                return Err(corrupt("knne: members and targets disagree"));
            }
            let k = r.scalar("knne k")?.max(1);
            Ok(Box::new(KnneModel { members, ys, k }))
        }
        "loess" => {
            let index = get_index(r)?;
            if index.matrix().n_features() != qdim || index.is_empty() {
                return Err(corrupt("loess: index disagrees with the feature set"));
            }
            let ys = r.f64s("loess ys")?;
            if ys.len() != index.len() {
                return Err(corrupt("loess: one target value per indexed tuple"));
            }
            let k = r.scalar("loess k")?.max(2);
            let alpha = r.f64("loess alpha")?;
            Ok(Box::new(LoessModel {
                index,
                ys,
                k,
                alpha,
            }))
        }
        "glr" => {
            let u = get_matrix(r)?;
            let v = r.f64s("glr gram v")?;
            if u.rows() != qdim + 1 || u.cols() != qdim + 1 || v.len() != qdim + 1 {
                return Err(corrupt("glr: Gram system disagrees with the feature set"));
            }
            let rows_absorbed = r.scalar("glr row count")?;
            let alpha = r.f64("glr alpha")?;
            let acc = GramAccumulator::from_parts(u, v, rows_absorbed);
            // Re-solving at load reproduces the saved model's bits: the
            // solver is deterministic in the accumulated state and α.
            let model = GlrModel::from_parts(acc, alpha)
                .ok_or_else(|| corrupt("glr: Gram system is unsolvable"))?;
            Ok(Box::new(model))
        }
        "mean" => {
            let sum = r.f64("mean sum")?;
            let count = r.scalar("mean count")?;
            Ok(Box::new(MeanModel { sum, count }))
        }
        "gmm" => {
            let f = r.scalar("gmm dimensionality")?;
            if f != qdim {
                return Err(corrupt(
                    "gmm: dimensionality disagrees with the feature set",
                ));
            }
            let global_mean_y = r.f64("gmm global mean")?;
            let n_comps = r.len("gmm component count")?;
            let mut comps = Vec::with_capacity(n_comps);
            for _ in 0..n_comps {
                let weight = r.f64("gmm weight")?;
                let mu_f = r.f64s("gmm mu_f")?;
                let mu_y = r.f64("gmm mu_y")?;
                let lu_ff = get_lu(r)?;
                let log_det_ff = r.f64("gmm log det")?;
                let beta = r.f64s("gmm beta")?;
                if mu_f.len() != f || beta.len() != f || lu_ff.parts().0.rows() != f {
                    return Err(corrupt("gmm: component dimensionality mismatch"));
                }
                comps.push(Component {
                    weight,
                    mu_f,
                    mu_y,
                    lu_ff,
                    log_det_ff,
                    beta,
                });
            }
            if comps.is_empty() {
                return Err(corrupt("gmm: no components"));
            }
            Ok(Box::new(GmmModel {
                comps,
                f,
                global_mean_y,
            }))
        }
        "blr" => {
            let beta_star = get_ridge(r)?;
            let beta_hat = get_ridge(r)?;
            if beta_star.n_features() != qdim || beta_hat.n_features() != qdim {
                return Err(corrupt(
                    "blr: coefficient count disagrees with the feature set",
                ));
            }
            let sigma_star = r.f64("blr sigma")?;
            let noise_seed = r.u64("blr noise seed")?;
            Ok(Box::new(BlrModel::new(
                PosteriorDraw {
                    beta_star,
                    beta_hat,
                    sigma_star,
                },
                noise_seed,
            )))
        }
        "pmm" => {
            let n = r.len("pmm donor count")?;
            let mut donors_by_pred = Vec::with_capacity(n);
            for _ in 0..n {
                let p = r.f64("pmm donor prediction")?;
                let y = r.f64("pmm donor value")?;
                donors_by_pred.push((p, y));
            }
            if donors_by_pred.is_empty() {
                return Err(corrupt("pmm: empty donor pool"));
            }
            let beta_star = get_ridge(r)?;
            if beta_star.n_features() != qdim {
                return Err(corrupt(
                    "pmm: coefficient count disagrees with the feature set",
                ));
            }
            let d = r.scalar("pmm d")?.max(1);
            let pick_seed = r.u64("pmm pick seed")?;
            Ok(Box::new(PmmModel {
                donors_by_pred,
                beta_star,
                d,
                pick_seed,
            }))
        }
        "xgb" => {
            let base = r.f64("xgb base")?;
            let eta = r.f64("xgb eta")?;
            let n_trees = r.len("xgb tree count")?;
            let mut trees = Vec::with_capacity(n_trees);
            for _ in 0..n_trees {
                let n_nodes = r.len("xgb node count")?;
                let mut nodes = Vec::with_capacity(n_nodes);
                for _ in 0..n_nodes {
                    match r.u8("xgb node tag")? {
                        0 => nodes.push(Node::Leaf(r.f64("xgb leaf")?)),
                        1 => {
                            let feature = r.u16("xgb split feature")?;
                            let threshold = r.f64("xgb split threshold")?;
                            let left = r.u32("xgb left child")?;
                            let right = r.u32("xgb right child")?;
                            if left as usize >= n_nodes || right as usize >= n_nodes {
                                return Err(corrupt("xgb: child index out of arena"));
                            }
                            if feature as usize >= qdim {
                                return Err(corrupt("xgb: split feature out of range"));
                            }
                            nodes.push(Node::Split {
                                feature,
                                threshold,
                                left,
                                right,
                            });
                        }
                        other => return Err(corrupt(format!("xgb: node tag {other}"))),
                    }
                }
                if nodes.is_empty() {
                    return Err(corrupt("xgb: empty tree"));
                }
                trees.push(Tree { nodes });
            }
            Ok(Box::new(XgbModel { base, eta, trees }))
        }
        other => Err(PersistError::UnsupportedModel(format!(
            "unknown predictor tag {other:?}"
        ))),
    }
}

// ---------------------------------------------------------------------------
// Whole fitted imputers.

fn put_per_attribute(w: &mut Writer, f: &FittedPerAttribute) -> Result<(), PersistError> {
    w.u8(SHAPE_PER_ATTRIBUTE);
    w.str(f.name());
    w.len(f.arity());
    for slot in f.models() {
        match slot {
            None => w.bool(false),
            Some(model) => {
                w.bool(true);
                w.lens(&model.features);
                w.f64s(&model.means);
                w.f64s(&model.mean_sums);
                w.len(model.mean_count);
                put_predictor(w, model.predictor.as_ref())?;
            }
        }
    }
    Ok(())
}

fn get_per_attribute(r: &mut Reader<'_>) -> Result<FittedPerAttribute, PersistError> {
    let name = r.str("driver name")?;
    let arity = r.len("driver arity")?;
    let mut models = Vec::with_capacity(arity);
    for _ in 0..arity {
        if !r.bool("driver model flag")? {
            models.push(None);
            continue;
        }
        let features = r.lens("driver features")?;
        let means = r.f64s("driver means")?;
        let mean_sums = r.f64s("driver mean sums")?;
        let mean_count = r.scalar("driver mean count")?;
        if means.len() != features.len()
            || mean_sums.len() != features.len()
            || features.iter().any(|&j| j >= arity)
        {
            return Err(corrupt("driver: feature set inconsistent with arity"));
        }
        let predictor = get_predictor(r, features.len())?;
        models.push(Some(FittedAttrModel {
            features,
            means,
            mean_sums,
            mean_count,
            predictor,
        }));
    }
    Ok(FittedPerAttribute::from_parts(name, arity, models))
}

fn put_ills(w: &mut Writer, f: &FittedIlls) {
    w.u8(SHAPE_ILLS);
    w.len(f.arity);
    w.len(f.k);
    w.f64(f.alpha);
    put_fill_cache(w, &f.cache);
    for slot in &f.targets {
        match slot {
            None => w.bool(false),
            Some(t) => {
                w.bool(true);
                w.lens(&t.features);
                put_index(w, &t.pool);
                w.f64s(&t.ys);
                w.f64s(&t.means);
            }
        }
    }
}

fn get_ills(r: &mut Reader<'_>) -> Result<FittedIlls, PersistError> {
    let arity = r.len("ills arity")?;
    // No clamp: `k` is stored exactly as fitted (the Ills struct does not
    // clamp a directly-constructed k, and serving must match it bit-wise).
    let k = r.scalar("ills k")?;
    let alpha = r.f64("ills alpha")?;
    let cache = get_fill_cache(r, arity)?;
    let mut targets = Vec::with_capacity(arity);
    for _ in 0..arity {
        if !r.bool("ills target flag")? {
            targets.push(None);
            continue;
        }
        let features = r.lens("ills features")?;
        let pool = get_index(r)?;
        let ys = r.f64s("ills ys")?;
        let means = r.f64s("ills means")?;
        if ys.len() != pool.len()
            || pool.is_empty()
            || pool.matrix().n_features() != features.len()
            || means.len() != features.len()
            || features.iter().any(|&j| j >= arity)
        {
            return Err(corrupt("ills: target state inconsistent"));
        }
        targets.push(Some(IllsTarget {
            features,
            pool,
            ys,
            means,
        }));
    }
    Ok(FittedIlls {
        targets,
        k,
        alpha,
        cache,
        arity,
    })
}

fn put_eracer(w: &mut Writer, f: &FittedEracer) {
    w.u8(SHAPE_ERACER);
    w.len(f.arity);
    put_fill_cache(w, &f.cache);
    for slot in &f.targets {
        match slot {
            None => w.bool(false),
            Some(t) => {
                w.bool(true);
                w.lens(&t.features);
                put_index(w, &t.fm);
                w.f64s(&t.ys);
                w.len(t.k);
                put_ridge(w, &t.model);
                w.f64s(&t.means);
            }
        }
    }
}

fn get_eracer(r: &mut Reader<'_>) -> Result<FittedEracer, PersistError> {
    let arity = r.len("eracer arity")?;
    let cache = get_fill_cache(r, arity)?;
    let mut targets = Vec::with_capacity(arity);
    for _ in 0..arity {
        if !r.bool("eracer target flag")? {
            targets.push(None);
            continue;
        }
        let features = r.lens("eracer features")?;
        let fm = get_index(r)?;
        let ys = r.f64s("eracer ys")?;
        let k = r.scalar("eracer k")?;
        let model = get_ridge(r)?;
        let means = r.f64s("eracer means")?;
        if ys.len() != fm.len()
            || fm.is_empty()
            || fm.matrix().n_features() != features.len()
            || means.len() != features.len()
            || features.iter().any(|&j| j >= arity)
            || model.n_features() != features.len() + 1
        {
            return Err(corrupt("eracer: target state inconsistent"));
        }
        targets.push(Some(EracerTarget {
            features,
            fm,
            ys,
            k,
            model,
            means,
        }));
    }
    Ok(FittedEracer {
        targets,
        cache,
        arity,
    })
}

fn put_svd(w: &mut Writer, f: &FittedSvd) {
    w.u8(SHAPE_SVD);
    w.len(f.arity);
    put_transform(w, &f.transform);
    put_matrix(w, &f.basis);
    w.len(f.max_iter);
    w.f64(f.tol);
    put_fill_cache(w, &f.cache);
}

fn get_svd(r: &mut Reader<'_>) -> Result<FittedSvd, PersistError> {
    let arity = r.len("svd arity")?;
    let transform = get_transform(r, arity)?;
    let basis = get_matrix(r)?;
    if basis.rows() != arity {
        return Err(corrupt("svd: basis row count must equal arity"));
    }
    let max_iter = r.scalar("svd max iter")?;
    let tol = r.f64("svd tol")?;
    let cache = get_fill_cache(r, arity)?;
    Ok(FittedSvd {
        transform,
        basis,
        max_iter,
        tol,
        cache,
        arity,
    })
}

fn put_ifc(w: &mut Writer, f: &FittedIfc) {
    w.u8(SHAPE_IFC);
    w.len(f.arity);
    put_transform(w, &f.transform);
    w.len(f.centroids.len());
    for c in &f.centroids {
        w.f64s(c);
    }
    w.f64(f.fuzzifier);
    w.len(f.max_iter);
    w.f64(f.tol);
    put_fill_cache(w, &f.cache);
}

fn get_ifc(r: &mut Reader<'_>) -> Result<FittedIfc, PersistError> {
    let arity = r.len("ifc arity")?;
    let transform = get_transform(r, arity)?;
    let n_centroids = r.len("ifc centroid count")?;
    let mut centroids = Vec::with_capacity(n_centroids);
    for _ in 0..n_centroids {
        let c = r.f64s("ifc centroid")?;
        if c.len() != arity {
            return Err(corrupt("ifc: centroid dimensionality mismatch"));
        }
        centroids.push(c);
    }
    if centroids.is_empty() {
        return Err(corrupt("ifc: no centroids"));
    }
    let fuzzifier = r.f64("ifc fuzzifier")?;
    let max_iter = r.scalar("ifc max iter")?;
    let tol = r.f64("ifc tol")?;
    let cache = get_fill_cache(r, arity)?;
    Ok(FittedIfc {
        transform,
        centroids,
        fuzzifier,
        max_iter,
        tol,
        cache,
        arity,
    })
}

/// Encodes any lineup fitted imputer into its payload parts: the meta
/// stream (shape tag first) plus the two numeric banks the heavy arrays
/// were diverted into.
pub fn encode_fitted_parts(
    f: &dyn FittedImputer,
) -> Result<(Vec<u8>, Vec<f64>, Vec<u32>), PersistError> {
    let any = f
        .as_any()
        .ok_or_else(|| PersistError::UnsupportedModel(f.name().to_string()))?;
    let mut w = Writer::new();
    if let Some(pa) = any.downcast_ref::<FittedPerAttribute>() {
        put_per_attribute(&mut w, pa)?;
    } else if let Some(x) = any.downcast_ref::<FittedIlls>() {
        put_ills(&mut w, x);
    } else if let Some(x) = any.downcast_ref::<FittedEracer>() {
        put_eracer(&mut w, x);
    } else if let Some(x) = any.downcast_ref::<FittedSvd>() {
        put_svd(&mut w, x);
    } else if let Some(x) = any.downcast_ref::<FittedIfc>() {
        put_ifc(&mut w, x);
    } else {
        return Err(PersistError::UnsupportedModel(f.name().to_string()));
    }
    Ok(w.into_banked_parts())
}

/// Decodes a payload through the **validate-then-view** path: the
/// payload (already checksum-validated by the container) is copied once
/// into a shared aligned buffer and decoded there by the one in-place
/// decoder. The snapshot loaders skip the copy: they decode the payload
/// inside the buffer the file was read into.
pub fn decode_fitted_view(payload: &[u8]) -> Result<Box<dyn FittedImputer>, PersistError> {
    decode_fitted_in(&iim_bytes::shared(payload), 0..payload.len())
}

/// Decodes the payload occupying `range` of `buf` **in place**: the bank
/// extents are bounds-checked, and the heavy arrays are *borrowed* from
/// `buf` at `range.start + offset` instead of parsed into fresh `Vec`s —
/// activation cost no longer scales with the bank bytes, and the model
/// keeps all of `buf` alive. The views are zero-copy when `range.start`
/// is 8-aligned in `buf`, as a snapshot file's payload is. Every meta
/// byte must be consumed. Panics if `range` is out of `buf`'s bounds.
pub(crate) fn decode_fitted_in(
    buf: &SharedBytes,
    range: Range<usize>,
) -> Result<Box<dyn FittedImputer>, PersistError> {
    let base = range.start;
    let bytes = &buf.as_slice()[range];
    let mut hr = Reader::new(bytes);
    let meta_len = hr.scalar("v3 meta length")?;
    let f64_count = hr.scalar("v3 f64 bank count")?;
    let u32_count = hr.scalar("v3 u32 bank count")?;
    let meta_start = 24usize;
    let meta_pad = (8 - (meta_len & 7)) & 7;
    let f64_off = meta_start
        .checked_add(meta_len)
        .and_then(|v| v.checked_add(meta_pad))
        .ok_or_else(|| corrupt("v3 section table overflows"))?;
    let u32_off = f64_count
        .checked_mul(8)
        .and_then(|v| f64_off.checked_add(v))
        .ok_or_else(|| corrupt("v3 section table overflows"))?;
    let end = u32_count
        .checked_mul(4)
        .and_then(|v| u32_off.checked_add(v))
        .ok_or_else(|| corrupt("v3 section table overflows"))?;
    if end != bytes.len() {
        return Err(corrupt(format!(
            "v3 sections describe {end} bytes but the payload holds {}",
            bytes.len()
        )));
    }
    let meta = &bytes[meta_start..meta_start + meta_len];
    if bytes[meta_start + meta_len..f64_off]
        .iter()
        .any(|&b| b != 0)
    {
        return Err(corrupt("non-zero padding between meta stream and banks"));
    }
    let banks = crate::wire::BankSource {
        buf: buf.clone(),
        f64_off: base + f64_off,
        f64_len: f64_count,
        u32_off: base + u32_off,
        u32_len: u32_count,
    };
    let mut r = Reader::with_banks(meta, banks);
    let fitted: Box<dyn FittedImputer> = match r.u8("shape tag")? {
        SHAPE_PER_ATTRIBUTE => Box::new(get_per_attribute(&mut r)?),
        SHAPE_ILLS => Box::new(get_ills(&mut r)?),
        SHAPE_ERACER => Box::new(get_eracer(&mut r)?),
        SHAPE_SVD => Box::new(get_svd(&mut r)?),
        SHAPE_IFC => Box::new(get_ifc(&mut r)?),
        other => return Err(corrupt(format!("unknown shape tag {other}"))),
    };
    r.expect_exhausted()?;
    Ok(fitted)
}

//! Shared experiment machinery: the method lineup (IIM + Table II) and the
//! inject → impute → score loop.

use iim_baselines::{all_baselines, all_baselines_with};
use iim_core::{AdaptiveConfig, Iim, IimConfig, IndexChoice, Learning, Weighting};
use iim_data::metrics::rmse;
use iim_data::{
    FeatureSelection, GroundTruth, Imputer, PerAttributeImputer, PhaseTimings, Relation,
};
use std::time::Instant;

/// One method's outcome on one workload.
#[derive(Debug, Clone)]
pub struct MethodScore {
    /// Method display name.
    pub name: String,
    /// RMS error against the injected ground truth; `None` when the method
    /// is not applicable (the paper prints "-").
    pub rmse: Option<f64>,
    /// Offline (`Imputer::fit_targets`) / online (`FittedImputer::
    /// impute_all`) wall clock, measured through the real two-phase API.
    pub timings: PhaseTimings,
}

/// Builds the paper-default IIM imputer: adaptive learning with stepping
/// `h` and sweep cap `ell_max` (both scaled to `n` when `None`), k
/// imputation neighbors, mutual-vote aggregation.
pub fn iim_adaptive(
    k: usize,
    step: Option<usize>,
    ell_max: Option<usize>,
    n_hint: usize,
    features: FeatureSelection,
) -> PerAttributeImputer<Iim> {
    iim_adaptive_with(k, step, ell_max, n_hint, features, IndexChoice::Auto)
}

/// [`iim_adaptive`] with an explicit neighbor-index choice (the spec
/// runner's index sweep).
pub fn iim_adaptive_with(
    k: usize,
    step: Option<usize>,
    ell_max: Option<usize>,
    n_hint: usize,
    features: FeatureSelection,
    index: IndexChoice,
) -> PerAttributeImputer<Iim> {
    let cap = ell_max.unwrap_or_else(|| n_hint.min(1000)).max(1);
    let h = step.unwrap_or_else(|| (cap / 200).max(1));
    let cfg = IimConfig {
        k,
        index,
        learning: Learning::Adaptive(AdaptiveConfig {
            step: h,
            ell_max: Some(cap),
            incremental: true,
            // Keep the validation set usable even when the experiment
            // sweeps tiny imputation k (see AdaptiveConfig::validation_k).
            validation_k: Some(k.max(10)),
        }),
        ..IimConfig::default()
    };
    PerAttributeImputer::with_features(Iim::new(cfg), features)
}

/// Builds a fixed-ℓ IIM imputer.
pub fn iim_fixed(k: usize, ell: usize, features: FeatureSelection) -> PerAttributeImputer<Iim> {
    let cfg = IimConfig {
        k,
        learning: Learning::Fixed { ell },
        weighting: Weighting::MutualVote,
        ..IimConfig::default()
    };
    PerAttributeImputer::with_features(Iim::new(cfg), features)
}

/// IIM (paper defaults, scaled sweep) followed by the Table II baselines.
pub fn method_lineup(
    k: usize,
    seed: u64,
    n_hint: usize,
    features: FeatureSelection,
) -> Vec<Box<dyn Imputer>> {
    let mut lineup: Vec<Box<dyn Imputer>> = vec![Box::new(iim_adaptive(
        k,
        None,
        None,
        n_hint,
        features.clone(),
    ))];
    lineup.extend(all_baselines(k, seed, features));
    lineup
}

/// [`method_lineup`] with an explicit neighbor-index choice threaded into
/// IIM and every index-capable baseline.
pub fn method_lineup_with(
    k: usize,
    seed: u64,
    n_hint: usize,
    features: FeatureSelection,
    index: IndexChoice,
) -> Vec<Box<dyn Imputer>> {
    let mut lineup: Vec<Box<dyn Imputer>> = vec![Box::new(iim_adaptive_with(
        k,
        None,
        None,
        n_hint,
        features.clone(),
        index,
    ))];
    lineup.extend(all_baselines_with(k, seed, features, index));
    lineup
}

/// The eight methods plotted in Figures 4–8 (the paper's figure legend):
/// kNN, IIM, GLR, LOESS, IFC, kNNE, ERACER, ILLS.
pub fn figure_lineup(
    k: usize,
    seed: u64,
    n_hint: usize,
    features: FeatureSelection,
) -> Vec<Box<dyn Imputer>> {
    const FIGURE_METHODS: [&str; 8] = [
        "kNN", "IIM", "GLR", "LOESS", "IFC", "kNNE", "ERACER", "ILLS",
    ];
    method_lineup(k, seed, n_hint, features)
        .into_iter()
        .filter(|m| FIGURE_METHODS.contains(&m.name()))
        .collect()
}

/// Runs one (method, workload) cell through the real two-phase API:
/// `fit_targets` on `targets` timed as the offline phase, `impute_all`
/// timed as the online phase, scored against the injected ground truth.
pub fn score_cell(
    method: &dyn Imputer,
    rel: &Relation,
    truth: &GroundTruth,
    targets: &[usize],
) -> MethodScore {
    let not_applicable = || MethodScore {
        name: method.name().to_string(),
        rmse: None,
        timings: PhaseTimings::default(),
    };
    let t0 = Instant::now();
    let fitted = match method.fit_targets(rel, targets) {
        Ok(f) => f,
        Err(iim_data::ImputeError::Unsupported(_)) => return not_applicable(),
        Err(e) => panic!("{} failed to fit: {e}", method.name()),
    };
    let offline = t0.elapsed();
    let t1 = Instant::now();
    let out = match fitted.impute_all(rel) {
        Ok(out) => out,
        Err(iim_data::ImputeError::Unsupported(_)) => return not_applicable(),
        Err(e) => panic!("{} failed to impute: {e}", method.name()),
    };
    let online = t1.elapsed();
    MethodScore {
        name: method.name().to_string(),
        rmse: Some(rmse(&out, truth)),
        timings: PhaseTimings { offline, online },
    }
}

/// Runs every method on the injected relation and scores it, timing the
/// offline phase (`fit_targets` on the relation's incomplete attributes —
/// the paper's protocol learns for the incomplete attribute only) and the
/// online phase (`impute_all`) separately through the real two-phase API.
///
/// Methods returning [`ImputeError::Unsupported`](iim_data::ImputeError)
/// get `rmse: None` (the paper's "-" entries, e.g. SVD on 2 attributes);
/// any other error aborts — it would mean a broken workload. Cells run
/// sequentially so their recorded timings stay uncontended.
pub fn run_lineup(
    methods: &[Box<dyn Imputer>],
    rel: &Relation,
    truth: &GroundTruth,
) -> Vec<MethodScore> {
    let targets = rel.incomplete_attrs();
    methods
        .iter()
        .map(|method| score_cell(method.as_ref(), rel, truth, &targets))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use iim_data::inject::inject_random;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn lineup_runs_and_iim_wins_on_heterogeneous_data() {
        let mut rel = iim_datagen::asf_like(400, 9);
        let truth = inject_random(&mut rel, 20, &mut StdRng::seed_from_u64(9));
        let lineup = method_lineup(5, 1, 400, FeatureSelection::AllOthers);
        let scores = run_lineup(&lineup, &rel, &truth);
        assert_eq!(scores[0].name, "IIM");
        let iim = scores[0].rmse.unwrap();
        let knn = scores
            .iter()
            .find(|s| s.name == "kNN")
            .unwrap()
            .rmse
            .unwrap();
        let glr = scores
            .iter()
            .find(|s| s.name == "GLR")
            .unwrap()
            .rmse
            .unwrap();
        assert!(iim.is_finite() && knn.is_finite() && glr.is_finite());
        // The headline claim on the headline dataset shape.
        assert!(iim <= knn * 1.05, "IIM {iim} vs kNN {knn}");
        assert!(iim <= glr * 1.05, "IIM {iim} vs GLR {glr}");
    }
}

//! Shared experiment machinery: the method lineup (IIM + Table II), IIM's
//! learning settings spelled as method names, and the fit → impute →
//! score step every cell runs.

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

/// IIM's learning settings, spelled as a method name: `IIM` followed by
/// `/`-separated settings, each at most once.
///
/// | setting | meaning | default |
/// |---|---|---|
/// | `fixed=<ℓ>` | fixed-ℓ learning (ℓ clamps to the training rows) | adaptive |
/// | `h=<h>` | adaptive stepping h | `ell_max / 200`, at least 1 |
/// | `ell_max=<ℓ>` | adaptive sweep cap | `min(n, 1000)` |
/// | `straightforward` | re-learn each candidate from scratch | incremental |
/// | `weighting=uniform\|inverse` | candidate aggregation | mutual vote |
///
/// `fixed` excludes the three adaptive settings. Bare `IIM` is the
/// harness default that Table V scores. Names never contain a comma,
/// which both the spec's arrays and `--methods` split on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IimSettings {
    /// Fixed ℓ; `None` learns adaptively.
    pub fixed: Option<usize>,
    /// Adaptive stepping h; `None` scales it to the sweep cap.
    pub step: Option<usize>,
    /// Adaptive sweep cap; `None` = `min(n, 1000)`.
    pub ell_max: Option<usize>,
    /// Sweep without Proposition 3's incremental Gram updates.
    pub straightforward: bool,
    /// Candidate aggregation.
    pub weighting: Weighting,
}

impl IimSettings {
    /// Parses an IIM method name. `Ok(None)` means the name is not an IIM
    /// name at all; `Err` names the first bad setting.
    pub fn parse(name: &str) -> Result<Option<IimSettings>, String> {
        let mut parts = name.split('/');
        if parts.next() != Some("IIM") {
            return Ok(None);
        }
        let mut s = IimSettings::default();
        let mut seen: Vec<&str> = Vec::new();
        for part in parts {
            let (key, value) = part.split_once('=').unwrap_or((part, ""));
            if seen.contains(&key) {
                return Err(format!("`{key}` is set twice"));
            }
            seen.push(key);
            let positive = || match value.parse::<usize>() {
                Ok(v) if v > 0 => Ok(Some(v)),
                _ => Err(format!("`{key}` needs a positive integer, got `{value}`")),
            };
            match key {
                "fixed" => s.fixed = positive()?,
                "h" => s.step = positive()?,
                "ell_max" => s.ell_max = positive()?,
                "straightforward" if value.is_empty() => s.straightforward = true,
                "weighting" => {
                    s.weighting = match value {
                        "uniform" => Weighting::Uniform,
                        "inverse" => Weighting::InverseDistance,
                        _ => return Err(format!("unknown weighting `{value}`")),
                    }
                }
                _ => return Err(format!("unknown IIM setting `{part}`")),
            }
        }
        if s.fixed.is_some() && (s.step.is_some() || s.ell_max.is_some() || s.straightforward) {
            return Err("`fixed` excludes `h`, `ell_max` and `straightforward`".to_string());
        }
        Ok(Some(s))
    }

    /// The IIM configuration these settings name, for `k` imputation
    /// neighbors over about `n_hint` tuples.
    pub fn config(&self, k: usize, n_hint: usize, index: IndexChoice) -> IimConfig {
        let learning = match self.fixed {
            Some(ell) => Learning::Fixed { ell },
            None => {
                let cap = self.ell_max.unwrap_or_else(|| n_hint.min(1000)).max(1);
                Learning::Adaptive(AdaptiveConfig {
                    step: self.step.unwrap_or_else(|| (cap / 200).max(1)),
                    ell_max: Some(cap),
                    incremental: !self.straightforward,
                    // Keep the validation set usable even when the experiment
                    // sweeps tiny imputation k (see AdaptiveConfig::validation_k).
                    validation_k: Some(k.max(10)),
                })
            }
        };
        IimConfig {
            k,
            index,
            learning,
            weighting: self.weighting,
            ..IimConfig::default()
        }
    }
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
    let settings = IimSettings {
        step,
        ell_max,
        ..IimSettings::default()
    };
    let cfg = settings.config(k, n_hint, IndexChoice::Auto);
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

/// One method by name: an IIM name (see [`IimSettings`]) or a Table II
/// baseline, with `index` threaded into every index-capable method.
/// `None` for a name outside both.
pub fn method(
    name: &str,
    k: usize,
    seed: u64,
    n_hint: usize,
    features: FeatureSelection,
    index: IndexChoice,
) -> Option<Box<dyn Imputer>> {
    match IimSettings::parse(name) {
        Ok(Some(settings)) => Some(Box::new(PerAttributeImputer::with_features(
            Iim::new(settings.config(k, n_hint, index)),
            features,
        ))),
        Ok(None) => all_baselines_with(k, seed, features, index)
            .into_iter()
            .find(|m| m.name() == name),
        Err(_) => None,
    }
}

/// Runs one (method, workload) cell through the real two-phase API:
/// `fit_targets` on `targets` timed as the offline phase, `impute_all`
/// timed as the online phase, scored against the injected ground truth.
///
/// A method returning [`ImputeError::Unsupported`](iim_data::ImputeError)
/// gets `rmse: None` (the paper's "-" entries, e.g. SVD on 2
/// attributes); any other error aborts — it would mean a broken workload.
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
        let targets = rel.incomplete_attrs();
        let lineup = method_lineup(5, 1, 400, FeatureSelection::AllOthers);
        let scores: Vec<MethodScore> = lineup
            .iter()
            .map(|m| score_cell(m.as_ref(), &rel, &truth, &targets))
            .collect();
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

    #[test]
    fn iim_names_parse_to_their_settings() {
        assert_eq!(
            IimSettings::parse("IIM").unwrap(),
            Some(IimSettings::default())
        );
        assert_eq!(IimSettings::parse("kNN").unwrap(), None);
        assert_eq!(IimSettings::parse("IIMX").unwrap(), None);
        let s = IimSettings::parse("IIM/h=50/ell_max=1400/straightforward/weighting=uniform")
            .unwrap()
            .unwrap();
        assert_eq!(
            s,
            IimSettings {
                fixed: None,
                step: Some(50),
                ell_max: Some(1400),
                straightforward: true,
                weighting: Weighting::Uniform,
            }
        );
        let fixed = IimSettings::parse("IIM/fixed=200/weighting=inverse")
            .unwrap()
            .unwrap();
        assert_eq!(fixed.fixed, Some(200));
        assert_eq!(fixed.weighting, Weighting::InverseDistance);
        for bad in [
            "IIM/",
            "IIM/h=0",
            "IIM/h=x",
            "IIM/h=5/h=6",
            "IIM/fixed=10/h=5",
            "IIM/fixed=10/straightforward",
            "IIM/straightforward=yes",
            "IIM/weighting=median",
            "IIM/weighting=vote",
            "IIM/alpha=1",
        ] {
            assert!(IimSettings::parse(bad).is_err(), "{bad} parsed");
        }
    }

    #[test]
    fn bare_iim_is_the_harness_default_and_fixed_matches_a_fixed_config() {
        let harness = IimSettings::default().config(10, 1500, IndexChoice::Auto);
        assert_eq!(
            harness.learning,
            Learning::Adaptive(AdaptiveConfig {
                step: 5,
                ell_max: Some(1000),
                incremental: true,
                validation_k: Some(10),
            })
        );
        let fixed = IimSettings::parse("IIM/fixed=200")
            .unwrap()
            .unwrap()
            .config(10, 1500, IndexChoice::Auto);
        assert_eq!(fixed, IimConfig::fixed(200, 10));
    }

    #[test]
    fn methods_resolve_by_name() {
        for name in crate::spec::KNOWN_METHODS {
            let m = method(
                name,
                5,
                1,
                100,
                FeatureSelection::AllOthers,
                IndexChoice::Auto,
            )
            .unwrap_or_else(|| panic!("{name} did not resolve"));
            assert_eq!(m.name(), name);
        }
        let variant = method(
            "IIM/fixed=3",
            5,
            1,
            100,
            FeatureSelection::AllOthers,
            IndexChoice::Auto,
        )
        .unwrap();
        assert_eq!(variant.name(), "IIM");
        assert!(method(
            "Nope",
            5,
            1,
            100,
            FeatureSelection::AllOthers,
            IndexChoice::Auto
        )
        .is_none());
    }
}

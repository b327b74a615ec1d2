#![allow(clippy::needless_range_loop)] // index loops are the idiom in these dense numeric kernels

//! Synthetic analogs of the IIM paper's nine evaluation datasets.
//!
//! The paper evaluates on UCI (ASF, CCS, CCPP, SN), Siemens (PHASE,
//! proprietary), and KEEL (CA, DA, MAM, HEP) data, characterising each by
//! two coefficients it defines in §VI-A2: **R²_S** (sparsity — how well
//! complete neighbors' values match the truth) and **R²_H** (heterogeneity
//! — how well one global regression matches the truth). Method rankings in
//! Tables V–VI are explained entirely through those two properties, so the
//! substitution strategy is: generate data *calibrated on the
//! published (R²_S, R²_H) pair* with the published shape (n, m), rather
//! than ship third-party data files.
//!
//! All generators are deterministic per seed. Regression datasets return a
//! [`Relation`](iim_data::Relation); the classification datasets (MAM,
//! HEP) also return labels and contain naturally-injected MCAR missing
//! cells, mirroring "real missing, no truth".

pub mod manifold;
pub mod paper;
pub mod sampling;
pub mod segmented;

pub use manifold::{latent_manifold, ManifoldSpec};
pub use paper::{
    asf_like, ca_like, ccpp_like, ccs_like, da_like, hep_like, mam_like, phase_like, sn_like,
    LabeledDataset,
};
pub use segmented::{segmented_linear, SegmentedSpec};

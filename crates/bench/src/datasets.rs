//! The Table IV dataset registry with harness-default sizes.

use iim_data::Relation;
use iim_datagen as gen;

/// A named paper dataset (regression ones; MAM/HEP live in `table7`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PaperData {
    /// ASF — heterogeneous, 1.5k x 6.
    Asf,
    /// CCS — moderate, 1k x 6.
    Ccs,
    /// CCPP — near-linear, 10k x 5.
    Ccpp,
    /// SN — oscillating 2-attribute data; paper size 100k, harness default
    /// 20k (a spec's `n` scales it).
    Sn,
    /// PHASE — clear global regression, 10k x 4.
    Phase,
    /// CA — sparse high-dimensional, 20k x 9.
    Ca,
    /// DA — moderate, 7k x 6.
    Da,
}

impl PaperData {
    /// All regression datasets in Table V's row order.
    pub const ALL: [PaperData; 7] = [
        PaperData::Asf,
        PaperData::Ca,
        PaperData::Ccpp,
        PaperData::Ccs,
        PaperData::Da,
        PaperData::Phase,
        PaperData::Sn,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            PaperData::Asf => "ASF",
            PaperData::Ccs => "CCS",
            PaperData::Ccpp => "CCPP",
            PaperData::Sn => "SN",
            PaperData::Phase => "PHASE",
            PaperData::Ca => "CA",
            PaperData::Da => "DA",
        }
    }

    /// Harness-default tuple count: the paper's, except SN, which runs at
    /// 20k of the paper's 100k. A spec's `n` overrides it.
    pub fn default_n(&self) -> usize {
        match self {
            PaperData::Asf => 1500,
            PaperData::Ccs => 1000,
            PaperData::Ccpp => 10_000,
            PaperData::Sn => 20_000,
            PaperData::Phase => 10_000,
            PaperData::Ca => 20_000,
            PaperData::Da => 7_000,
        }
    }

    /// Attribute count of the generated relation (the last one, `Am`, is
    /// the default incomplete attribute).
    pub fn arity(&self) -> usize {
        match self {
            PaperData::Asf | PaperData::Ccs | PaperData::Da => 6,
            PaperData::Ccpp => 5,
            PaperData::Sn => 2,
            PaperData::Phase => 4,
            PaperData::Ca => 9,
        }
    }

    /// The paper's published (R²_S, R²_H) for cross-reference.
    pub fn paper_profile(&self) -> (f64, f64) {
        match self {
            PaperData::Asf => (0.85, 0.73),
            PaperData::Ccs => (0.63, 0.56),
            PaperData::Ccpp => (0.95, 0.93),
            PaperData::Sn => (0.79, 0.05),
            PaperData::Phase => (0.90, 0.91),
            PaperData::Ca => (0.03, 0.90),
            PaperData::Da => (0.65, 0.68),
        }
    }

    /// Generates the dataset with `n` tuples (default size when `None`).
    pub fn generate(&self, n: Option<usize>, seed: u64) -> Relation {
        let n = n.unwrap_or_else(|| self.default_n());
        match self {
            PaperData::Asf => gen::asf_like(n, seed),
            PaperData::Ccs => gen::ccs_like(n, seed),
            PaperData::Ccpp => gen::ccpp_like(n, seed),
            PaperData::Sn => gen::sn_like(n, seed),
            PaperData::Phase => gen::phase_like(n, seed),
            PaperData::Ca => gen::ca_like(n, seed),
            PaperData::Da => gen::da_like(n, seed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_consistency() {
        for d in PaperData::ALL {
            let rel = d.generate(Some(50), 1);
            assert_eq!(rel.n_rows(), 50, "{}", d.name());
            assert_eq!(rel.arity(), d.arity(), "{}", d.name());
            let (s, h) = d.paper_profile();
            assert!((0.0..=1.0).contains(&s) && (0.0..=1.0).contains(&h));
        }
    }
}

//! Experiment harness regenerating the IIM paper's evaluation section:
//! one spec-driven runner, its result envelope, and the regression gate.
//!
//! - **The experiment runner** — `iim bench run <spec>` expands a
//!   declarative [`spec::Spec`] (datasets × n × seeds × injector ×
//!   missing-rates × features × k × index × methods × threads, plus
//!   repeats) through [`runner`], prints the rmse of the cells it wrote
//!   as one table, and emits one versioned machine-tagged [`result`]
//!   envelope. IIM's learning settings are method names
//!   ([`harness::IimSettings`]). `iim bench diff` ([`diff`]) is the
//!   regression gate over any two such files. Committed presets live
//!   under `crates/bench/specs/`; every imputation-error artifact of the
//!   paper (Tables V–VI, Figures 4–13, the ablation) is a spec under
//!   `crates/bench/specs/paper/`.
//! - **Two artifacts that are not error sweeps** — the `paper` binary's
//!   `table7` (downstream purity and F1) and `profiles` (R²_S and R²_H
//!   per dataset and attribute) emit the same envelope with their own
//!   metric names.
//!
//! One bespoke executor measures what a generic spec cannot — `serving`
//! (index-backed vs brute serving over an (n, m) grid) — and emits the
//! same envelope. The daemon, persistence and absorb paths are measured
//! by the repository benchmark in `perfbench/`. Run everything in release:
//!
//! ```text
//! cargo run --release --bin iim -- bench run crates/bench/specs/paper/table5.toml
//! cargo run -p iim-bench --release --bin paper -- table7
//! ```

pub mod args;
pub mod cli;
pub mod datasets;
pub mod diff;
pub mod harness;
pub mod json;
pub mod report;
pub mod result;
pub mod runner;
pub mod spec;

pub use args::Args;
pub use datasets::PaperData;
pub use harness::{method_lineup, score_cell, MethodScore};
pub use report::Table;
pub use result::{BenchResult, Cell, Machine, Metric};
pub use spec::Spec;

//! Experiment harness regenerating the IIM paper's evaluation section,
//! plus the spec-driven runner and perf-regression gate on top of it.
//!
//! Two surfaces share one core:
//!
//! - **The paper artifacts** — the `paper` binary dispatches every table
//!   and figure (`paper table5`, `paper fig4` … `paper all`), printing the
//!   paper's rows/series and writing TSVs to `bench_results/`. Sizes are
//!   the paper's except where noted in [`datasets`]; every artifact
//!   accepts `--seed`/`--n`/`--quick` overrides.
//! - **The experiment runner** — `iim bench run <spec>` expands a
//!   declarative [`spec::Spec`] (methods × datasets × missing-rates ×
//!   threads × index × repeats) through [`runner`], and emits one
//!   versioned machine-tagged [`result`] envelope. `iim bench diff`
//!   ([`diff`]) is the regression gate over any two such files.
//!   Committed spec presets live under `crates/bench/specs/`.
//!
//! One bespoke executor measures what a generic spec cannot — `serving`
//! (index-backed vs brute serving over an (n, m) grid) — and emits the
//! same envelope. The daemon,
//! persistence and absorb paths are measured by the repository
//! benchmark in `perfbench/`. Run everything in release:
//!
//! ```text
//! cargo run -p iim-bench --release --bin paper -- table5
//! cargo run --release --bin iim -- bench run crates/bench/specs/ci_quick.toml
//! ```

pub mod args;
pub mod cli;
pub mod datasets;
pub mod diff;
pub mod figures;
pub mod harness;
pub mod json;
pub mod report;
pub mod result;
pub mod runner;
pub mod spec;

pub use args::Args;
pub use datasets::PaperData;
pub use harness::{method_lineup, method_lineup_with, run_lineup, score_cell, MethodScore};
pub use report::Table;
pub use result::{BenchResult, Cell, Machine, Metric};
pub use spec::Spec;

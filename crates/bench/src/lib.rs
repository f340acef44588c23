//! # sparseopt-bench
//!
//! Harnesses that regenerate every table and figure of the paper's
//! evaluation:
//!
//! | binary | regenerates |
//! |---|---|
//! | `fig1` | Fig. 1 — per-optimization speedups on KNC |
//! | `fig3` | Fig. 3 — baseline + per-class bounds on KNC |
//! | `fig7` | Fig. 7a/b/c — optimizer landscape on KNC/KNL/Broadwell |
//! | `table4` | Table IV — feature-guided classifier LOO accuracy |
//! | `table5` | Table V — amortization iteration counts on KNL |
//! | `tune` | Fig. 4 hyperparameter grid search (`T_ML`, `T_IMB`) |
//! | `ci_bench` | bench-regression gate: pinned micro-suite → `BENCH_TRAJECTORY.json` (stable name), fails on >15% regression vs the committed baseline |
//!
//! The `benches/` directory holds criterion micro-benchmarks of the real
//! host kernels (timing on this machine, not the modeled platforms),
//! including the `merge_spmv` group comparing the merge-path operator
//! against every whole-row schedule.

pub mod labeling;
pub mod report;

pub use labeling::{label_suite, train_feature_classifier, LabeledSuiteMatrix};
pub use report::Table;

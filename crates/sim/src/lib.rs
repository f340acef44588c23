//! # sparseopt-sim
//!
//! The hardware-substitution substrate: Table III platform descriptors, a
//! set-associative LRU cache simulator, analytic SpMV and SpMM (multi-RHS)
//! execution-time models, and host STREAM micro-benchmarks.
//!
//! The paper evaluates on Intel KNC, KNL, and Broadwell testbeds that are
//! not available here; `simulate` reproduces the *mechanisms* those results
//! come from (bandwidth saturation, latency-bound irregular gathers, thread
//! imbalance, loop/compute limits) so every figure's shape can be
//! regenerated.

pub mod cache;
pub mod membench;
pub mod model;
pub mod platform;
pub mod roofline;
pub mod trsv;

pub use cache::{CacheHierarchy, CacheSim};
pub use membench::{host_platform, stream_triad_gbs};
pub use model::{
    analytic_mb_bound, analytic_peak_bound, analytic_spmm_mb_bound, analytic_spmm_peak_bound,
    simulate, simulate_apply, simulate_cmp_bound, simulate_imb_bound, simulate_ml_bound,
    simulate_spmm, simulate_spmm_cmp_bound, simulate_spmm_imb_bound, simulate_spmm_ml_bound,
    SimFormat, SimKernelConfig, SimMatrixProfile, SimResult,
};
pub use platform::Platform;
pub use roofline::{
    spmm_intensity, spmv_intensity, spmv_intensity_values_only, Roofline, RooflinePoint,
};
pub use trsv::{select_trsv_algo, simulate_trsv, TrsvProfile, LEVEL_SYNC_CYCLES};

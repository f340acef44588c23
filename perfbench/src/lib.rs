//! End-to-end and per-layer benchmark of the sparseopt stack.
//!
//! The workloads exercise the program the way its users do: an
//! IC(0)-preconditioned CG loop (`solve-spd`, and `solve-spd-serial` with
//! serial triangular solves), SpMV serving under open-loop traffic and a
//! closed-loop burst (`serve-mix`), and a streaming sharded operator under
//! concurrent writes (`ooc-churn`). See `README.md` next to this crate for what each metric
//! measures and which end-to-end number it should move.

pub mod host;
pub mod inputs;
pub mod report;
pub mod rng;
pub mod stats;
pub mod trace;
pub mod workloads;
pub mod wrap;

//! Everything a workload feeds the program, derived from `--seed` alone.
//!
//! Each kind of input draws from its own [`SplitMix64`] stream, so one seed
//! always yields the same right-hand sides, the same request schedule, the
//! same operands and the same delta stream.

use crate::rng::SplitMix64;
use std::ops::Range;

// Stream identifiers: one per kind of input.
const VECTOR: u64 = 1;
const SCHEDULE: u64 = 2;
const DELTAS: u64 = 3;
const SAMPLE: u64 = 4;
const BURST: u64 = 5;

/// A dense vector with entries uniform in `[-1, 1)`, the `index`-th of its
/// kind for this seed (solve right-hand sides, served operands, sharded
/// apply inputs).
pub fn vector(seed: u64, kind: u64, index: u64, n: usize) -> Vec<f64> {
    let mut g = SplitMix64::stream(seed, (VECTOR << 56) ^ (kind << 40) ^ index);
    (0..n).map(|_| 2.0 * g.next_f64() - 1.0).collect()
}

/// One request of the open-loop serving schedule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Request {
    /// Scheduled send time, seconds after the phase starts.
    pub at_s: f64,
    /// Submitting tenant.
    pub tenant: usize,
    /// Target matrix.
    pub matrix: usize,
    /// Index into the matrix's operand pool.
    pub operand: usize,
}

/// A Poisson arrival schedule at `rate_per_s` over `[0, horizon_s)`: the
/// gaps are exponential, and each request picks its tenant, matrix and
/// operand uniformly. `phase` separates the schedules of successive timed
/// phases in one run.
pub fn serve_schedule(
    seed: u64,
    phase: u64,
    rate_per_s: f64,
    horizon_s: f64,
    tenants: usize,
    matrices: usize,
    operands: usize,
) -> Vec<Request> {
    assert!(rate_per_s > 0.0, "rate must be positive");
    let mut g = SplitMix64::stream(seed, (SCHEDULE << 56) ^ phase);
    let mut out = Vec::with_capacity((rate_per_s * horizon_s * 1.1) as usize + 16);
    let mut t = 0.0;
    loop {
        // 1 - u lies in (0, 1], so the logarithm is finite.
        t += -(1.0 - g.next_f64()).ln() / rate_per_s;
        if t >= horizon_s {
            return out;
        }
        out.push(Request {
            at_s: t,
            tenant: g.below(tenants),
            matrix: g.below(matrices),
            operand: g.below(operands),
        });
    }
}

/// The routing of the closed-loop serving burst: an endless seeded
/// sequence of requests, each picking tenant, matrix and operand uniformly
/// (its `at_s` is always 0; the burst sends as fast as replies come back).
/// `phase` separates the bursts of successive segments in one run.
pub fn burst_requests(
    seed: u64,
    phase: u64,
    tenants: usize,
    matrices: usize,
    operands: usize,
) -> impl Iterator<Item = Request> {
    let mut g = SplitMix64::stream(seed, (BURST << 56) ^ phase);
    std::iter::repeat_with(move || Request {
        at_s: 0.0,
        tenant: g.below(tenants),
        matrix: g.below(matrices),
        operand: g.below(operands),
    })
}

/// One additive update `a[row][col] += value`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Delta {
    /// Global row.
    pub row: usize,
    /// Global column.
    pub col: usize,
    /// Value added.
    pub value: f64,
}

/// The `count` deltas staged before sharded apply number `apply`: rows
/// uniform in the hot row range, columns uniform in the hot column range,
/// values uniform in `[-0.01, 0.01)`.
pub fn delta_batch(
    seed: u64,
    apply: u64,
    hot_rows: Range<usize>,
    hot_cols: Range<usize>,
    count: usize,
) -> Vec<Delta> {
    let mut g = SplitMix64::stream(seed, (DELTAS << 56) ^ apply);
    (0..count)
        .map(|_| Delta {
            row: hot_rows.start + g.below(hot_rows.len()),
            col: hot_cols.start + g.below(hot_cols.len()),
            value: 0.02 * g.next_f64() - 0.01,
        })
        .collect()
}

/// Seeded choice of whether operation `op` gets the full correctness
/// check: each operation is picked with probability `1 / every`.
pub fn is_checked(seed: u64, op: u64, every: usize) -> bool {
    SplitMix64::stream(seed, (SAMPLE << 56) ^ op).below(every.max(1)) == 0
}

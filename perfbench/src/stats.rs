//! Client-side summary statistics.
//!
//! Percentiles are exact: nearest rank over every sample, with no
//! bucketing, so two identical runs report the same value for the same
//! samples.

/// Nearest-rank percentile of `q` in `(0, 1]` over unsorted samples:
/// the smallest sample with at least `q·n` samples at or below it.
/// `None` when there are no samples.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q <= 1.0, "percentile {q} outside (0, 1]");
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), q) - 1])
}

/// 1-based nearest rank of percentile `q` among `n > 0` samples.
pub fn rank(n: usize, q: f64) -> usize {
    // The small slack keeps e.g. 0.9·100 from rounding up to 91.
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Samples strictly above the nearest-rank percentile position: how many
/// observations the percentile's tail rests on.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// Median by nearest rank (the lower middle of an even count); 0 for no
/// samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5).unwrap_or(0.0)
}

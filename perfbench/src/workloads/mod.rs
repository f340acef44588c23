//! The workloads. Each builds its inputs from the seed, sets the
//! program up [`Workload::SETUPS`] times from scratch, runs a timed phase,
//! checks every output it is asked to, and returns what it measured.

pub mod ooc_churn;
pub mod serve_mix;
pub mod solve_spd;

use crate::report::{Counts, Phase};
use crate::trace;
use sparseopt::core::pool::ExecCtx;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Empty `ExecCtx::run` calls behind `core.dispatch_us`.
pub const DISPATCH_PROBES: usize = 1000;

/// Workload names, as passed to `--workload`.
pub const NAMES: [&str; 4] = ["solve-spd", "solve-spd-serial", "serve-mix", "ooc-churn"];

/// Settings of one run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Input seed.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Where traces and scratch files go.
    pub out_dir: PathBuf,
    /// Same-run STREAM triad bandwidth, GB/s.
    pub triad_gbs: f64,
}

/// What a workload measured.
#[derive(Debug, Default)]
pub struct WorkloadResult {
    /// Set-up times and the pooled timed phase.
    pub measured: Measured,
    /// Per-layer metrics this workload exercises (traced run only).
    pub layers: BTreeMap<String, f64>,
}

/// Runs the named workload.
pub fn run(name: &str, cfg: &RunConfig) -> Result<WorkloadResult, String> {
    match name {
        "solve-spd" => solve_spd::run(cfg, solve_spd::Ic0Build::HostCtx),
        "solve-spd-serial" => solve_spd::run(cfg, solve_spd::Ic0Build::Serial),
        "serve-mix" => serve_mix::run(cfg),
        "ooc-churn" => ooc_churn::run(cfg),
        other => Err(format!(
            "unknown workload `{other}`; expected one of {NAMES:?}"
        )),
    }
}

/// Median cost of an empty `ExecCtx::run` broadcast on `ctx`, in µs; each
/// call is also recorded as a `core.dispatch` span. Call only while
/// nothing else uses the pool.
pub fn dispatch_probe(ctx: &ExecCtx) -> f64 {
    let mut us = Vec::with_capacity(DISPATCH_PROBES);
    for _ in 0..DISPATCH_PROBES {
        let t = Instant::now();
        {
            let _s = trace::span("core.dispatch", "");
            ctx.run(|_| {});
        }
        us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    crate::stats::median(&us)
}

/// One workload, in the shape [`measure`] runs it.
pub trait Workload {
    /// The program, set up and ready for its first operation.
    type Setup;

    /// Set-ups per run; `setup_s` is their median, and each is followed
    /// by `1 / SETUPS` of the timed phase.
    const SETUPS: usize;

    /// Sets the program up from inputs already in hand; timed as one
    /// `setup_s` sample.
    fn setup(&mut self) -> Result<Self::Setup, String>;

    /// Untimed work after set-up number `rep`: provenance, probes.
    fn ready(&mut self, rep: usize, setup: &Self::Setup) -> Result<(), String>;

    /// One timed segment of `seconds` on `setup`.
    fn segment(&mut self, setup: &mut Self::Setup, seconds: f64) -> Phase;

    /// Last look at a set-up before it is dropped.
    fn retire(&mut self, setup: Self::Setup);
}

/// What [`measure`] returns.
#[derive(Debug, Default)]
pub struct Measured {
    /// Seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Share of host CPU time stolen during each set-up.
    pub setup_steal: Vec<f64>,
    /// Peak resident set (`VmHWM`, MiB) from the start of each set-up to
    /// the end of its segments.
    pub peak_rss_mib: Vec<f64>,
    /// One phase per set-up: the traced segments in a traced run, the
    /// untraced ones otherwise.
    pub segments: Vec<Phase>,
    /// Operation counts over the reported segments.
    pub counts: Counts,
    /// In a traced run, `(untraced − traced) / untraced` of `ops_per_s`.
    pub trace_overhead: Option<f64>,
}

/// Sets the program up [`Workload::SETUPS`] times from scratch and follows
/// each set-up with an equal share of the timed phase.
///
/// Each set-up tunes cold, and may pick other plans than the last one;
/// it also starts a fresh thread pool, whose workers the OS places anew,
/// and on a small host that placement alone can halve throughput for as
/// long as it lasts. Spreading the timed phase over several set-ups
/// samples several plans and placements per run instead of betting the
/// whole run on one. A traced run follows every untraced segment with a
/// traced one of the same length on the same set-up, and reports the
/// traced segments.
///
/// The peak resident set is reset before every set-up and read after its
/// segments, so that it covers set-up and the timed phase but not the
/// untimed preparation before them; memory a set-up leaves behind still
/// counts in the next one's.
pub fn measure<W: Workload>(w: &mut W, cfg: &RunConfig) -> Result<Measured, String> {
    if let Some(rss) = crate::host::rss_mib() {
        println!("memory: resident set {rss:.1} MiB when set-up starts");
    }
    // A traced run halves each segment, so it takes as long as an
    // untraced one.
    let share = cfg.seconds / W::SETUPS as f64 / if cfg.trace { 2.0 } else { 1.0 };
    let mut setup_s = Vec::with_capacity(W::SETUPS);
    let mut setup_steal = Vec::with_capacity(W::SETUPS);
    let mut peak_rss_mib = Vec::with_capacity(W::SETUPS);
    let mut untraced = Vec::with_capacity(W::SETUPS);
    let mut traced = Vec::with_capacity(W::SETUPS);
    for rep in 0..W::SETUPS {
        crate::host::reset_peak_rss()?;
        trace::set_enabled(cfg.trace);
        let ticks = crate::host::cpu_ticks();
        let t = Instant::now();
        let mut s = w.setup()?;
        setup_s.push(t.elapsed().as_secs_f64());
        setup_steal.push(crate::host::steal_since(ticks).unwrap_or(0.0));
        w.ready(rep, &s)?;
        trace::set_enabled(false);
        let seg = timed_segment(w, &mut s, share);
        print_segment(rep, "untraced", &seg);
        untraced.push(seg);
        if cfg.trace {
            trace::set_enabled(true);
            let seg = timed_segment(w, &mut s, share);
            trace::set_enabled(false);
            print_segment(rep, "traced", &seg);
            traced.push(seg);
        }
        w.retire(s);
        peak_rss_mib
            .push(crate::host::peak_rss_mib().ok_or("cannot read VmHWM from /proc/self/status")?);
    }
    // Overhead compares total operations over total time, segment for
    // segment on the same set-ups.
    let rate = |segs: &[Phase]| {
        let ops: usize = segs.iter().map(|p| p.rates().latencies_ms.len()).sum();
        ops as f64
            / segs
                .iter()
                .map(|p| p.rates().seconds)
                .sum::<f64>()
                .max(1e-12)
    };
    let trace_overhead = cfg.trace.then(|| {
        let base = rate(&untraced);
        (base - rate(&traced)) / base.max(1e-12)
    });
    let segments = if cfg.trace { traced } else { untraced };
    let mut counts = Counts::default();
    for p in &segments {
        counts.add(&p.counts);
    }
    Ok(Measured {
        setup_s,
        setup_steal,
        peak_rss_mib,
        segments,
        counts,
        trace_overhead,
    })
}

/// One segment, with the share of host CPU time stolen while it ran.
fn timed_segment<W: Workload>(w: &mut W, s: &mut W::Setup, seconds: f64) -> Phase {
    let ticks = crate::host::cpu_ticks();
    let mut seg = w.segment(s, seconds);
    seg.steal = crate::host::steal_since(ticks).unwrap_or(0.0);
    seg
}

fn print_segment(rep: usize, kind: &str, p: &Phase) {
    let burst = p.burst.as_deref().map_or(String::new(), |b| {
        format!(
            " burst_ops={} burst_ops_per_s={:.3}",
            b.latencies_ms.len(),
            b.ops_per_s()
        )
    });
    println!(
        "segment: setup {rep} {kind} ops={} ops_per_s={:.3} p50_ms={:.4}{burst} steal={:.4}",
        p.latencies_ms.len(),
        p.ops_per_s(),
        crate::stats::median(&p.latencies_ms),
        p.steal
    );
}

/// Median of a set of span durations, scaled (e.g. `1e6` for µs).
pub fn median_scaled(secs: &[f64], scale: f64) -> f64 {
    crate::stats::median(secs) * scale
}

/// `‖a − b‖₂ / ‖b‖₂` (absolute when `b` is zero); infinite when the
/// lengths differ, so a reply of the wrong shape fails its check.
pub fn rel_err(a: &[f64], b: &[f64]) -> f64 {
    if a.len() != b.len() {
        return f64::INFINITY;
    }
    let (mut num, mut den) = (0.0f64, 0.0f64);
    for (x, y) in a.iter().zip(b) {
        num += (x - y) * (x - y);
        den += y * y;
    }
    if den > 0.0 {
        (num / den).sqrt()
    } else {
        num.sqrt()
    }
}

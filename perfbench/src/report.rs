//! Metric catalogs, end-to-end summaries and the result line.
//!
//! The catalogs here are the single list of metric names the benchmark
//! emits; `BENCHMARK.json` at the repository root declares the same names
//! (a test keeps the two in step).

use crate::stats::{percentile, samples_beyond};
use std::collections::BTreeMap;

/// Latency limit a served reply must meet to count toward goodput.
pub const GOODPUT_LIMIT_MS: f64 = 50.0;

/// Matrices of the `solve-spd` workload, in rotation order; also the
/// suffixes of its per-matrix layer metrics.
pub const SPD_MATRICES: [&str; 3] = ["poisson2d-96", "spd-band-20k", "spd-powerlaw-12k"];

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name as declared in `BENCHMARK.json`.
    pub name: String,
    /// Unit as declared in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// End-to-end metrics of the result line: `(name, unit)`, in order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("goodput_rps", "req/s"),
    ("peak_rss_mb", "MiB"),
];

/// Tail percentiles printed in the report but kept out of the result line:
/// on a shared 2-vCPU host their run-to-run spread exceeds any usable bound
/// (see the README).
pub const REPORTED_TAILS: [(&str, f64); 2] = [("latency_p90_ms", 0.90), ("latency_p99_ms", 0.99)];

/// Per-layer metrics: `(name, unit)`, in report order. Names with a
/// `.<matrix>` suffix are expanded over [`SPD_MATRICES`].
pub fn per_layer_catalog() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let per_matrix: [(&str, &str); 9] = [
        ("core.spmv_us", "us"),
        ("core.spmv_bw_frac", "fraction"),
        ("core.imbalance", "ratio"),
        ("solver.iters", "count"),
        ("solver.precond_apply_us", "us"),
        ("solver.precond_frac", "fraction"),
        ("solver.precond_setup_ms", "ms"),
        ("optimizer.tune_ms", "ms"),
        ("optimizer.plan_speedup", "ratio"),
    ];
    out.push(("host.triad_gbs".into(), "GB/s"));
    out.push(("core.dispatch_us".into(), "us"));
    for (base, unit) in per_matrix {
        for m in SPD_MATRICES {
            out.push((format!("{base}.{m}"), unit));
        }
    }
    let single: [(&str, &str); 17] = [
        ("core.stage_delta_us", "us"),
        ("core.compactions", "count"),
        ("core.delta_nnz_max", "count"),
        ("core.resident_frac", "fraction"),
        ("solver.cg_self_frac", "fraction"),
        ("optimizer.sharded_tune_ms", "ms"),
        ("optimizer.timed_trials", "count"),
        ("optimizer.cache_hit_ratio", "fraction"),
        ("serve.register_ms", "ms"),
        ("serve.submit_us", "us"),
        ("serve.mean_batch", "count"),
        ("serve.coalesced_frac", "fraction"),
        ("serve.backlog_max", "count"),
        ("serve.gen_lag_p99_ms", "ms"),
        ("matrix.shard_open_ms", "ms"),
        ("matrix.shard_load_ms", "ms"),
        ("trace.overhead_frac", "fraction"),
    ];
    for (name, unit) in single {
        out.push((name.into(), unit));
    }
    out
}

/// Operation counts of one run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Operations sent (scheduled, for the open loop).
    pub attempted: u64,
    /// Operations whose output passed its check.
    pub succeeded: u64,
    /// Errors, shed requests, wrong results and unconverged solves.
    pub failed: u64,
    /// The part of `failed` that returned a wrong answer.
    pub wrong: u64,
}

impl Counts {
    /// Adds another phase's counts.
    pub fn add(&mut self, o: &Counts) {
        self.attempted += o.attempted;
        self.succeeded += o.succeeded;
        self.failed += o.failed;
        self.wrong += o.wrong;
    }

    /// `failed / attempted`.
    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// What one timed phase observed.
#[derive(Clone, Debug, Default)]
pub struct Phase {
    /// Client-side latency of every completed operation, ms.
    pub latencies_ms: Vec<f64>,
    /// Completed operations that were correct, and for a served reply
    /// also within [`GOODPUT_LIMIT_MS`].
    pub good: u64,
    /// Length of the timed phase, seconds.
    pub seconds: f64,
    /// Operation counts, the burst's included.
    pub counts: Counts,
    /// Share of host CPU time the hypervisor stole while the segment ran.
    pub steal: f64,
    /// A closed-loop burst that followed this phase on the same set-up.
    /// When present, the segment's rates (`ops_per_s`, `goodput_rps`)
    /// come from it and its latency from this phase.
    pub burst: Option<Box<Phase>>,
}

impl Phase {
    /// Records a completed operation of a closed loop; a correct one is
    /// good. The latency limit is for served replies only: a solve's
    /// length depends on its system, not on a reply deadline.
    pub fn complete(&mut self, latency_ms: f64, correct: bool) {
        self.record(latency_ms, correct, f64::INFINITY);
    }

    /// Records a served reply; it is good if correct and within
    /// [`GOODPUT_LIMIT_MS`].
    pub fn complete_served(&mut self, latency_ms: f64, correct: bool) {
        self.record(latency_ms, correct, GOODPUT_LIMIT_MS);
    }

    fn record(&mut self, latency_ms: f64, correct: bool, limit_ms: f64) {
        self.latencies_ms.push(latency_ms);
        if correct && latency_ms <= limit_ms {
            self.good += 1;
        }
    }

    /// Adds another segment's operations and time (not its burst).
    pub fn absorb(&mut self, o: Phase) {
        self.latencies_ms.extend(o.latencies_ms);
        self.good += o.good;
        self.seconds += o.seconds;
        self.counts.add(&o.counts);
    }

    /// Operations completed per second of the phase.
    pub fn ops_per_s(&self) -> f64 {
        self.latencies_ms.len() as f64 / self.seconds.max(1e-9)
    }

    /// Good operations per second of the phase.
    pub fn goodput_rps(&self) -> f64 {
        self.good as f64 / self.seconds.max(1e-9)
    }

    /// The phase the segment's rates come from: the burst if there is
    /// one, else this phase.
    pub fn rates(&self) -> &Phase {
        self.burst.as_deref().unwrap_or(self)
    }
}

/// Largest share of host CPU time the hypervisor may steal during a
/// set-up or a segment for it to count as quiet.
pub const QUIET_STEAL: f64 = 0.05;

/// Smallest share of a run's set-ups or segments its figures come from.
pub const MIN_QUIET_SHARE: f64 = 0.125;

/// Which of a run's set-ups or segments its figures come from, given the
/// share of host CPU time stolen during each: those with at most
/// [`QUIET_STEAL`], or, when they are fewer than [`MIN_QUIET_SHARE`] of
/// the run, that share with the least steal. Indices in order of steal;
/// ties keep run order.
pub fn quiet(steal: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..steal.len()).collect();
    order.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]));
    let floor = ((steal.len() as f64 * MIN_QUIET_SHARE).ceil() as usize).max(1);
    let calm = steal.iter().filter(|&&x| x <= QUIET_STEAL).count();
    order.truncate(calm.max(floor));
    order
}

/// Summarizes a run into the end-to-end metrics, in [`END_TO_END`] order,
/// plus report lines: the pooled sample count, and every percentile over
/// all samples with the number of samples beyond it.
///
/// `setup_s` is the median over the [`quiet`] set-ups. Rates and the
/// median latency are taken per segment, and a run reports the mean of
/// each over its [`quiet`] segments.
///
/// On a small shared host, other tenants often take the CPU for minutes.
/// The hypervisor then steals a tenth or more of the VM's CPU time, and a
/// workload that synchronises two pool workers many times per operation
/// slows by two to three times that share. Selecting segments by their
/// own steal keeps those stretches out when a run has quiet ones. It does
/// not favour fast segments: in a quiet run every segment counts.
///
/// Segments of one run also fall into modes, because cold tuning picks
/// different plans in different set-ups, and the share of each mode
/// changes from run to run. A mean moves smoothly with those shares, where
/// a median or a quartile jumps between the modes. The pooled figures
/// cover all segments' own latencies, not their bursts.
pub fn end_to_end(
    setup_s: &[f64],
    setup_steal: &[f64],
    segments: &[Phase],
    peak_rss_mib: f64,
) -> (Vec<Metric>, Vec<String>) {
    let quiet_setups: Vec<f64> = quiet(setup_steal).iter().map(|&i| setup_s[i]).collect();
    let steal: Vec<f64> = segments.iter().map(|p| p.steal).collect();
    let quiet_segments: Vec<&Phase> = quiet(&steal).iter().map(|&i| &segments[i]).collect();
    let per_segment = |f: &dyn Fn(&Phase) -> f64| -> f64 {
        quiet_segments.iter().map(|p| f(p)).sum::<f64>() / quiet_segments.len().max(1) as f64
    };
    let values = [
        crate::stats::median(&quiet_setups),
        per_segment(&|p| p.rates().ops_per_s()),
        per_segment(&|p| percentile(&p.latencies_ms, 0.5).unwrap_or(0.0)),
        per_segment(&|p| p.rates().goodput_rps()),
        peak_rss_mib,
    ];

    let mut pooled = Phase::default();
    for p in segments {
        pooled.absorb(p.clone());
    }
    let lat = &pooled.latencies_ms;
    let n = lat.len();
    let mut lines = vec![
        format!(
            "setup_s from {} of {} set-up(s); rates and p50 from {} of {} segment(s), steal at most {:.4}",
            quiet_setups.len(),
            setup_s.len(),
            quiet_segments.len(),
            segments.len(),
            quiet_segments.last().map_or(0.0, |p| p.steal)
        ),
        format!(
            "latency samples: {n} over {} segment(s); pooled ops_per_s {:.4}",
            segments.len(),
            pooled.ops_per_s()
        ),
    ];
    for (name, q) in std::iter::once(("latency_p50_ms", 0.5)).chain(REPORTED_TAILS) {
        let beyond = samples_beyond(n, q);
        lines.push(if beyond < 10 {
            format!("pooled {name}: omitted, only {beyond} sample(s) beyond it")
        } else {
            format!(
                "pooled {name}: {:.4} ms ({beyond} samples beyond it)",
                percentile(lat, q).unwrap_or(0.0)
            )
        });
    }
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric {
            name: name.to_string(),
            unit,
            value,
        })
        .collect();
    (metrics, lines)
}

/// Fills the per-layer catalog from what a workload measured; metrics of
/// layers the workload does not exercise read 0.
pub fn per_layer(measured: &BTreeMap<String, f64>) -> Vec<Metric> {
    per_layer_catalog()
        .into_iter()
        .map(|(name, unit)| Metric {
            value: measured.get(&name).copied().unwrap_or(0.0),
            name,
            unit,
        })
        .collect()
}

/// The result line: one JSON object, printed last on standard output.
pub fn result_line(correct: bool, counts: &Counts, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(v),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        counts.attempted,
        counts.failed,
        body.join(", ")
    )
}

/// Shortest round-trip decimal form, always with a fractional part or an
/// exponent so that it reads as a JSON number.
fn json_number(v: f64) -> String {
    let s = format!("{v:?}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

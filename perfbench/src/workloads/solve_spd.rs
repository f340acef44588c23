//! `solve-spd` and `solve-spd-serial`: closed loop, one caller thread,
//! IC(0)-preconditioned CG.
//!
//! One operation is one solve of `A·x = b` to relative tolerance
//! [`TOL`]. Solves rotate over the three `spd_suite()` systems in whole
//! rounds, each with a fresh seeded right-hand side. The operator comes
//! from `PlanTuner::optimize_profiled_for` with the default budget. The
//! two workloads differ only in how the IC(0) preconditioner is built; see
//! [`Ic0Build`].

use super::{dispatch_probe, measure, median_scaled, RunConfig, Workload, WorkloadResult};
use crate::inputs;
use crate::report::Phase;
use crate::trace;
use crate::wrap::{TracedOp, TracedPrecond};
use sparseopt::optimizer::{MeasuredCosts, TunerStatsSnapshot};
use sparseopt::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Relative residual every solve must reach.
pub const TOL: f64 = 1e-8;
/// Iteration cap of every solve.
pub const MAX_ITERS: usize = 1000;
/// Input stream of the right-hand sides.
const RHS: u64 = 1;

/// One system after set-up.
struct System {
    name: &'static str,
    csr: Arc<CsrMatrix>,
    op: TracedOp,
    precond: TracedPrecond,
    plan: String,
    outcome: TuneOutcome,
    measured: Option<MeasuredCosts>,
}

struct Setup {
    ctx: Arc<ExecCtx>,
    systems: Vec<System>,
    stats: TunerStatsSnapshot,
}

/// How the IC(0) preconditioner is built.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ic0Build {
    /// `Ic0Precond::with_ctx` on the host context, the path a user holding
    /// that context gets: each triangular solve may run level-scheduled on
    /// the pool (`solve-spd`).
    HostCtx,
    /// `Ic0Precond::new`: serial triangular solves, while the operator
    /// still runs on the host context (`solve-spd-serial`).
    Serial,
}

impl Ic0Build {
    /// The workload name this variant runs under.
    pub fn workload(self) -> &'static str {
        match self {
            Self::HostCtx => "solve-spd",
            Self::Serial => "solve-spd-serial",
        }
    }
}

/// Everything between "matrices in hand" and "first solve can be issued":
/// the host context, a tuner on a fresh in-memory plan cache, one tuned
/// operator and one IC(0) factorisation per system.
fn setup(suite: &[SuiteMatrix], ic0: Ic0Build) -> Result<Setup, String> {
    let ctx = ExecCtx::host();
    let tuner = PlanTuner::with_cache(ctx.clone(), PlanCache::in_memory());
    let profiler = SimBoundsProfiler::new(Platform::broadwell());
    let mut systems = Vec::with_capacity(suite.len());
    for m in suite {
        let tuned = {
            let _s = trace::span("optimizer.tune", m.name);
            tuner.optimize_profiled_for(&m.csr, &profiler, &OpRequirements::spmv())
        };
        let ic0 = {
            let _s = trace::span("solver.precond_setup", m.name);
            match ic0 {
                Ic0Build::HostCtx => Ic0Precond::with_ctx(&m.csr, ctx.clone()),
                Ic0Build::Serial => Ic0Precond::new(&m.csr),
            }
            .map_err(|e| format!("IC(0) of {}: {e}", m.name))?
        };
        systems.push(System {
            name: m.name,
            csr: m.csr.clone(),
            plan: tuned.plan.label(),
            outcome: tuned.outcome,
            measured: tuned.measured,
            op: TracedOp::new(tuned.kernel, m.name),
            precond: TracedPrecond::new(Box::new(ic0), m.name),
        });
    }
    Ok(Setup {
        ctx,
        systems,
        stats: tuner.stats(),
    })
}

/// The spd suite in rotation order.
fn suite() -> Result<Vec<SuiteMatrix>, String> {
    let all = sparseopt::matrix::suite::spd_suite();
    crate::report::SPD_MATRICES
        .iter()
        .map(|&name| {
            all.iter()
                .find(|m| m.name == name)
                .cloned()
                .ok_or_else(|| format!("spd_suite() has no `{name}`"))
        })
        .collect()
}

struct SolveSpd<'a> {
    cfg: &'a RunConfig,
    ic0: Ic0Build,
    suite: Vec<SuiteMatrix>,
    next_op: u64,
    /// Iterations per solve, by system (traced segments only).
    iters: Vec<Vec<f64>>,
    /// Load imbalance per SpMV, by system (traced segments only).
    imbalance: Vec<Vec<f64>>,
    dispatch_us: Option<f64>,
    last_stats: Option<TunerStatsSnapshot>,
    last_measured: Vec<Option<MeasuredCosts>>,
    /// Per-apply bytes and shape of each tuned operator.
    bytes_per_apply: Vec<f64>,
}

impl Workload for SolveSpd<'_> {
    type Setup = Setup;
    const SETUPS: usize = 16;

    fn setup(&mut self) -> Result<Setup, String> {
        setup(&self.suite, self.ic0)
    }

    fn ready(&mut self, rep: usize, s: &Setup) -> Result<(), String> {
        for sys in &s.systems {
            println!(
                "provenance: setup {rep} matrix={} plan={} outcome={:?} {}",
                sys.name,
                sys.plan,
                sys.outcome,
                measured_str(sys.measured)
            );
        }
        println!("provenance: setup {rep} tuner_stats={:?}", s.stats);
        if self.cfg.trace && self.dispatch_us.is_none() {
            self.dispatch_us = Some(dispatch_probe(&s.ctx));
        }
        Ok(())
    }

    fn segment(&mut self, s: &mut Setup, seconds: f64) -> Phase {
        let iters = trace::enabled().then_some(&mut self.iters);
        phase(&s.systems, self.cfg.seed, seconds, &mut self.next_op, iters)
    }

    fn retire(&mut self, s: Setup) {
        for (k, sys) in s.systems.iter().enumerate() {
            self.imbalance[k].extend(sys.op.take_imbalance());
            let (nrows, ncols) = sys.op.shape();
            // Computed bytes per apply: the matrix footprint plus one read
            // of x and one write of y.
            self.bytes_per_apply[k] =
                sys.op.footprint_bytes() as f64 + 8.0 * (nrows + ncols) as f64;
        }
        self.last_measured = s.systems.iter().map(|sys| sys.measured).collect();
        self.last_stats = Some(s.stats);
    }
}

pub fn run(cfg: &RunConfig, ic0: Ic0Build) -> Result<WorkloadResult, String> {
    let suite = suite()?;
    let n = suite.len();
    let mut w = SolveSpd {
        cfg,
        ic0,
        suite,
        next_op: 0,
        iters: vec![Vec::new(); n],
        imbalance: vec![Vec::new(); n],
        dispatch_us: None,
        last_stats: None,
        last_measured: vec![None; n],
        bytes_per_apply: vec![0.0; n],
    };
    let measured = measure(&mut w, cfg)?;

    let mut layers = BTreeMap::new();
    if cfg.trace {
        let spans = trace::take();
        layer_metrics(&w, &spans, &mut layers);
        layers.insert("core.dispatch_us".into(), w.dispatch_us.unwrap_or(0.0));
        layers.insert(
            "trace.overhead_frac".into(),
            measured.trace_overhead.unwrap_or(0.0),
        );
        let path = cfg
            .out_dir
            .join(format!("trace-{}-seed{}.jsonl", ic0.workload(), cfg.seed));
        trace::write_jsonl(&path, &spans).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("trace: {} spans written to {}", spans.len(), path.display());
    }
    Ok(WorkloadResult { measured, layers })
}

fn measured_str(m: Option<MeasuredCosts>) -> String {
    m.map_or("measured=none".into(), |m| {
        format!(
            "apply_us={:.2} baseline_us={:.2} setup_spmv={:.1}",
            m.apply_secs * 1e6,
            m.baseline_secs * 1e6,
            m.setup_spmv
        )
    })
}

/// Whole rounds (one solve per system) until the solves have taken
/// `seconds`. The phase clock runs only inside `cg`; building right-hand
/// sides and checking residuals is excluded. Iteration counts go to
/// `iters` when given.
fn phase(
    systems: &[System],
    seed: u64,
    seconds: f64,
    next_op: &mut u64,
    mut iters: Option<&mut Vec<Vec<f64>>>,
) -> Phase {
    let opts = SolverOptions {
        tol: TOL,
        max_iters: MAX_ITERS,
    };
    let mut p = Phase::default();
    let mut busy = 0.0f64;
    while busy < seconds {
        for (k, sys) in systems.iter().enumerate() {
            let op = *next_op;
            *next_op += 1;
            let n = sys.csr.nrows();
            let b = inputs::vector(seed, RHS, op, n);
            let mut x = vec![0.0; n];
            let t = Instant::now();
            let outcome = {
                let _s = trace::span_op("solver.cg", sys.name, Some(op));
                cg(&sys.op, &b, &mut x, &sys.precond, &opts)
            };
            let secs = t.elapsed().as_secs_f64();
            busy += secs;
            if let Some(iters) = iters.as_deref_mut() {
                iters[k].push(outcome.iterations as f64);
            }

            // Check against the original matrix with the serial kernel.
            let mut ax = vec![0.0; n];
            SerialCsr::new(sys.csr.clone()).spmv(&x, &mut ax);
            let r: Vec<f64> = b.iter().zip(&ax).map(|(bi, ai)| bi - ai).collect();
            let rel = norm(&r) / norm(&b);
            let ok = outcome.converged && rel <= TOL;
            p.counts.attempted += 1;
            p.complete(secs * 1e3, ok);
            if ok {
                p.counts.succeeded += 1;
            } else {
                p.counts.failed += 1;
                p.counts.wrong += 1;
                println!(
                    "FAIL: solve {op} on {}: converged={} iters={} true residual {rel:.3e} (tol {TOL:.0e})",
                    sys.name, outcome.converged, outcome.iterations
                );
            }
        }
    }
    p.seconds = busy;
    p
}

fn norm(v: &[f64]) -> f64 {
    v.iter().map(|a| a * a).sum::<f64>().sqrt()
}

fn layer_metrics(w: &SolveSpd, spans: &[trace::Span], out: &mut BTreeMap<String, f64>) {
    let self_times = trace::self_times(spans);
    let (mut cg_total, mut cg_self) = (0.0, 0.0);
    for sp in spans.iter().filter(|sp| sp.name == "solver.cg") {
        cg_total += sp.secs();
        cg_self += self_times.get(&sp.id).copied().unwrap_or(0.0);
    }
    out.insert("solver.cg_self_frac".into(), cg_self / cg_total.max(1e-12));

    for (k, m) in w.suite.iter().map(|m| m.name).enumerate() {
        let spmv_s = crate::stats::median(&trace::durations(spans, "core.spmv", Some(m)));
        let bw_gbs = w.bytes_per_apply[k] / spmv_s.max(1e-12) / 1e9;
        let pre = trace::durations(spans, "solver.precond_apply", Some(m));
        let cg_m: f64 = trace::durations(spans, "solver.cg", Some(m)).iter().sum();
        let span_ms = |name| median_scaled(&trace::durations(spans, name, Some(m)), 1e3);
        for (name, value) in [
            ("core.spmv_us", spmv_s * 1e6),
            ("core.spmv_bw_frac", bw_gbs / w.cfg.triad_gbs.max(1e-12)),
            ("core.imbalance", crate::stats::median(&w.imbalance[k])),
            ("solver.iters", crate::stats::median(&w.iters[k])),
            ("solver.precond_apply_us", median_scaled(&pre, 1e6)),
            (
                "solver.precond_frac",
                pre.iter().sum::<f64>() / cg_m.max(1e-12),
            ),
            ("solver.precond_setup_ms", span_ms("solver.precond_setup")),
            ("optimizer.tune_ms", span_ms("optimizer.tune")),
            (
                "optimizer.plan_speedup",
                w.last_measured[k].map_or(0.0, |c| c.baseline_secs / c.apply_secs.max(1e-15)),
            ),
        ] {
            out.insert(format!("{name}.{m}"), value);
        }
    }
    if let Some(stats) = w.last_stats {
        out.insert("optimizer.timed_trials".into(), stats.timed_trials as f64);
        let lookups = (stats.hits + stats.misses).max(1);
        out.insert(
            "optimizer.cache_hit_ratio".into(),
            stats.hits as f64 / lookups as f64,
        );
    }
}

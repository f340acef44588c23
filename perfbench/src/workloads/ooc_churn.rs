//! `ooc-churn`: closed loop, one caller thread, a streaming sharded
//! operator under concurrent writes.
//!
//! One operation is one `y = A·x` through `TunedShardedOp` on
//! `powerlaw-sorted-48k`, written to an [`NSHARDS`]-shard container in
//! untimed preparation and streamed through a window of [`WINDOW`] shards,
//! so every apply loads and builds shards. Between applies the same thread
//! stages [`DELTAS_PER_APPLY`] seeded COO deltas on a hot block of
//! [`HOT_ROWS`] × [`HOT_COLS`], enough to make background compaction fire
//! several times per run. The block is small, so repeated positions merge
//! on compaction and the hot shard stops growing once the block fills:
//! apply cost does not drift with run length.

use super::{dispatch_probe, measure, median_scaled, rel_err, RunConfig, Workload, WorkloadResult};
use crate::inputs;
use crate::report::{Counts, Phase};
use crate::trace;
use sparseopt::core::kernels::{peak_resident_shard_bytes, reset_peak_resident_shard_bytes};
use sparseopt::matrix::{write_shard_file, ShardStore};
use sparseopt::optimizer::{TunedShardedOp, TunerStatsSnapshot};
use sparseopt::prelude::*;
use std::collections::BTreeMap;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Shards in the container.
pub const NSHARDS: usize = 8;
/// Built shard kernels kept resident; smaller than [`NSHARDS`], so every
/// apply streams.
pub const WINDOW: usize = 3;
/// Deltas staged between two applies.
pub const DELTAS_PER_APPLY: usize = 40;
/// Rows the deltas land on: the head of the last (sparsest) shard.
pub const HOT_ROWS: Range<usize> = 42_000..42_512;
/// Columns the deltas land on.
pub const HOT_COLS: Range<usize> = 24_000..24_016;
/// One apply in this many gets the full check.
pub const CHECK_EVERY: usize = 8;
/// Input stream of the apply operands.
const OPERAND: u64 = 3;

struct Setup {
    ctx: Arc<ExecCtx>,
    tuned: TunedShardedOp,
    store: Arc<ShardStore>,
    stats: TunerStatsSnapshot,
    /// Output of the first apply, which set-up includes.
    y0: Vec<f64>,
    /// Every delta staged on this set-up's operator, summed per position.
    staged: Staged,
}

/// Every delta staged so far, summed per position.
type Staged = BTreeMap<(usize, usize), f64>;

/// From "container on disk" to "first apply done": open, tune every shard
/// on a fresh in-memory plan cache, and apply once.
fn setup(path: &Path, x0: &[f64]) -> Result<Setup, String> {
    let ctx = ExecCtx::host();
    let store = {
        let _s = trace::span("matrix.shard_open", "");
        Arc::new(ShardStore::open(path).map_err(|e| format!("open {}: {e}", path.display()))?)
    };
    let tuner = PlanTuner::with_cache(ctx.clone(), PlanCache::in_memory());
    let tuned = {
        let _s = trace::span("optimizer.sharded_tune", "");
        tuner
            .optimize_sharded(
                store.clone(),
                &SimBoundsProfiler::new(Platform::broadwell()),
                Platform::broadwell(),
                WINDOW,
            )
            .map_err(|e| format!("optimize_sharded: {e}"))?
    };
    let mut y0 = vec![0.0; store.nrows()];
    {
        let _s = trace::span("core.sharded_apply", "");
        tuned.op.apply(Apply::NoTrans, x0, &mut y0);
    }
    Ok(Setup {
        ctx,
        tuned,
        store,
        stats: tuner.stats(),
        y0,
        staged: Staged::new(),
    })
}

/// `y = A·x` for the base matrix plus every delta staged so far, with the
/// serial kernel — the reference a checked apply must match. The base is
/// read back one shard at a time, so the benchmark never holds the whole
/// matrix during the timed phase; the first apply of every set-up is
/// checked against the matrix as generated, which covers the container.
fn reference(store: &ShardStore, staged: &Staged, x: &[f64]) -> Result<Vec<f64>, String> {
    let mut y = vec![0.0; store.nrows()];
    for i in 0..store.nshards() {
        let rows = store.meta(i).rows.clone();
        let shard = store.load(i).map_err(|e| format!("load shard {i}: {e}"))?;
        SerialCsr::new(Arc::new(shard)).spmv(x, &mut y[rows]);
    }
    for (&(row, col), &value) in staged {
        y[row] += value * x[col];
    }
    Ok(y)
}

struct OocChurn<'a> {
    cfg: &'a RunConfig,
    path: PathBuf,
    x0: Vec<f64>,
    y0_ref: Vec<f64>,
    next_op: u64,
    setup_wrong: u64,
    deltas_staged: usize,
    compactions: usize,
    // Traced segments only:
    delta_nnz_max: usize,
    resident_frac: f64,
    dispatch_us: Option<f64>,
    shard_load_ms: Option<f64>,
    last_stats: Option<TunerStatsSnapshot>,
}

impl Workload for OocChurn<'_> {
    type Setup = Setup;
    const SETUPS: usize = 28;

    fn setup(&mut self) -> Result<Setup, String> {
        setup(&self.path, &self.x0)
    }

    fn ready(&mut self, rep: usize, s: &Setup) -> Result<(), String> {
        if rel_err(&s.y0, &self.y0_ref) > 1e-12 {
            self.setup_wrong += 1;
            println!("FAIL: first apply of set-up {rep} does not match the serial reference");
        }
        for (i, p) in s.tuned.shard_plans.iter().enumerate() {
            println!(
                "provenance: setup {rep} shard={i} rows={:?} nnz={} plan={} outcome={:?}",
                p.rows, p.nnz, p.plan_label, p.outcome
            );
        }
        println!("provenance: setup {rep} tuner_stats={:?}", s.stats);
        if self.cfg.trace && self.dispatch_us.is_none() {
            // No delta is staged yet, so no compaction shares the pool.
            self.dispatch_us = Some(dispatch_probe(&s.ctx));
            let mut load_s = Vec::with_capacity(s.store.nshards());
            for i in 0..s.store.nshards() {
                let t = Instant::now();
                let _frag = {
                    let _s = trace::span("matrix.shard_load", "");
                    s.store
                        .load(i)
                        .map_err(|e| format!("load shard {i}: {e}"))?
                };
                load_s.push(t.elapsed().as_secs_f64());
            }
            self.shard_load_ms = Some(median_scaled(&load_s, 1e3));
        }
        Ok(())
    }

    fn segment(&mut self, s: &mut Setup, seconds: f64) -> Phase {
        let op = &s.tuned.op;
        let (nrows, ncols) = op.shape();
        reset_peak_resident_shard_bytes();
        let mut delta_nnz_max = 0usize;
        let mut p = Phase::default();
        let mut busy = 0.0f64;
        while busy < seconds {
            let a = self.next_op;
            self.next_op += 1;
            let x = inputs::vector(self.cfg.seed, OPERAND, a, ncols);
            let mut y = vec![0.0; nrows];
            delta_nnz_max = delta_nnz_max.max(op.delta_nnz());
            let t = Instant::now();
            {
                let _s = trace::span_op("core.sharded_apply", "", Some(a));
                op.apply(Apply::NoTrans, &x, &mut y);
            }
            let secs = t.elapsed().as_secs_f64();
            busy += secs;
            p.counts.attempted += 1;
            let ok = !inputs::is_checked(self.cfg.seed, a, CHECK_EVERY)
                || match reference(&s.store, &s.staged, &x) {
                    Ok(r) => rel_err(&y, &r) <= 1e-12,
                    Err(e) => {
                        println!("FAIL: reference for sharded apply {a}: {e}");
                        false
                    }
                };
            p.complete(secs * 1e3, ok);
            if ok {
                p.counts.succeeded += 1;
            } else {
                p.counts.failed += 1;
                p.counts.wrong += 1;
                println!("FAIL: sharded apply {a} does not match the serial reference");
            }

            let batch = inputs::delta_batch(self.cfg.seed, a, HOT_ROWS, HOT_COLS, DELTAS_PER_APPLY);
            let t = Instant::now();
            {
                let _s = trace::span("core.stage_delta_batch", "");
                for d in &batch {
                    op.stage_delta(d.row, d.col, d.value);
                }
            }
            busy += t.elapsed().as_secs_f64();
            self.deltas_staged += batch.len();
            for d in &batch {
                *s.staged.entry((d.row, d.col)).or_insert(0.0) += d.value;
            }
        }
        p.seconds = busy;
        if trace::enabled() {
            self.delta_nnz_max = self.delta_nnz_max.max(delta_nnz_max);
            let cap = (WINDOW * op.max_built_shard_bytes()).max(1);
            self.resident_frac = self
                .resident_frac
                .max(peak_resident_shard_bytes() as f64 / cap as f64);
        }
        p
    }

    fn retire(&mut self, s: Setup) {
        s.tuned.op.wait_for_compactions();
        self.compactions += s.tuned.op.compactions_completed();
        self.last_stats = Some(s.stats);
    }
}

pub fn run(cfg: &RunConfig) -> Result<WorkloadResult, String> {
    // Untimed preparation: generate the matrix, write the container and
    // compute the first apply's reference. The matrix is dropped before
    // the run, so that peak_rss_mb counts what the program holds.
    let (path, x0, y0_ref) = {
        let m = sparseopt::matrix::suite::streaming_suite()
            .into_iter()
            .find(|m| m.name == "powerlaw-sorted-48k")
            .ok_or("streaming_suite() has no powerlaw-sorted-48k")?;
        let path = cfg
            .out_dir
            .join(format!("powerlaw-sorted-48k-{}.shards", std::process::id()));
        write_shard_file(&path, &m.csr, m.csr.nrows().div_ceil(NSHARDS))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        let x0 = inputs::vector(cfg.seed, OPERAND, u64::MAX, m.csr.ncols());
        let mut y0_ref = vec![0.0; m.csr.nrows()];
        SerialCsr::new(m.csr.clone()).spmv(&x0, &mut y0_ref);
        (path, x0, y0_ref)
    };
    let mut w = OocChurn {
        cfg,
        path,
        x0,
        y0_ref,
        next_op: 0,
        setup_wrong: 0,
        deltas_staged: 0,
        compactions: 0,
        delta_nnz_max: 0,
        resident_frac: 0.0,
        dispatch_us: None,
        shard_load_ms: None,
        last_stats: None,
    };
    let measured = measure(&mut w, cfg);
    std::fs::remove_file(&w.path).map_err(|e| format!("remove {}: {e}", w.path.display()))?;
    let mut measured = measured?;
    measured.counts.add(&Counts {
        attempted: 0,
        succeeded: 0,
        failed: w.setup_wrong,
        wrong: w.setup_wrong,
    });
    println!(
        "ooc: applies={} deltas_staged={} compactions={}",
        w.next_op, w.deltas_staged, w.compactions
    );

    let mut layers = BTreeMap::new();
    if cfg.trace {
        let spans = trace::take();
        let stats = w.last_stats.unwrap_or(TunerStatsSnapshot {
            hits: 0,
            misses: 0,
            promotions: 0,
            timed_trials: 0,
        });
        let lookups = (stats.hits + stats.misses).max(1);
        let span_ms = |name| median_scaled(&trace::durations(&spans, name, None), 1e3);
        for (name, value) in [
            ("core.dispatch_us", w.dispatch_us.unwrap_or(0.0)),
            (
                "core.stage_delta_us",
                median_scaled(
                    &trace::durations(&spans, "core.stage_delta_batch", None),
                    1e6 / DELTAS_PER_APPLY as f64,
                ),
            ),
            ("core.compactions", w.compactions as f64),
            ("core.delta_nnz_max", w.delta_nnz_max as f64),
            ("core.resident_frac", w.resident_frac),
            (
                "optimizer.sharded_tune_ms",
                span_ms("optimizer.sharded_tune"),
            ),
            ("optimizer.timed_trials", stats.timed_trials as f64),
            (
                "optimizer.cache_hit_ratio",
                stats.hits as f64 / lookups as f64,
            ),
            ("matrix.shard_open_ms", span_ms("matrix.shard_open")),
            ("matrix.shard_load_ms", w.shard_load_ms.unwrap_or(0.0)),
            (
                "trace.overhead_frac",
                measured.trace_overhead.unwrap_or(0.0),
            ),
        ] {
            layers.insert(name.into(), value);
        }
        let path = cfg
            .out_dir
            .join(format!("trace-ooc-churn-seed{}.jsonl", cfg.seed));
        trace::write_jsonl(&path, &spans).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("trace: {} spans written to {}", spans.len(), path.display());
    }
    Ok(WorkloadResult { measured, layers })
}

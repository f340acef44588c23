//! `serve-mix`: open loop, then a closed-loop burst, against one
//! `SpmvServer`.
//!
//! Each segment has two parts. First, one generator thread submits
//! `y = A·x` requests on a seeded Poisson schedule at [`RATE_PER_S`] and one
//! collector thread waits on the tickets; latency runs from each request's
//! *scheduled* send time to the moment its reply is seen, so a stall also
//! charges the requests queued behind it. Then, for [`BURST_SHARE`] of the
//! segment, one thread keeps [`IN_FLIGHT`] requests outstanding, so the
//! segment's rates measure what the server sustains rather than the
//! offered rate. Four tenants share four matrices, one per bottleneck
//! shape, built with the same generators as the `ci_bench` suite.

use super::{dispatch_probe, measure, median_scaled, rel_err, RunConfig, Workload, WorkloadResult};
use crate::inputs::{self, Request};
use crate::report::Phase;
use crate::stats::percentile;
use crate::trace;
use sparseopt::matrix::generators as g;
use sparseopt::prelude::*;
use sparseopt::serve::{MatrixId, TenantId};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Offered load: a small fraction of what this server sustains on a
/// 2-vCPU host, so that a noisy stretch of the host does not build a
/// backlog. The README records the measurements behind the choice.
pub const RATE_PER_S: f64 = 500.0;
/// Share of each segment spent in the closed-loop burst.
pub const BURST_SHARE: f64 = 1.0 / 3.0;
/// Requests the burst keeps outstanding: enough for batches of several
/// requests per matrix, far below [`TENANT_CAPACITY`].
pub const IN_FLIGHT: usize = 32;
/// One burst reply in this many, picked by seed, is checked; every
/// open-loop reply is. Checking costs the single burst thread about as
/// much as submitting, and that thread shares two vCPUs with the server.
pub const BURST_CHECK_EVERY: usize = 8;
/// Tenants submitting requests.
pub const TENANTS: usize = 4;
/// Distinct seeded operands per matrix.
pub const OPERANDS: usize = 8;
/// In-flight bound per tenant: far above any backlog a healthy server
/// builds at [`RATE_PER_S`], so it never sheds.
pub const TENANT_CAPACITY: usize = 1 << 20;
/// Input stream of the operands.
const OPERAND: u64 = 2;
/// How long the collector blocks on the oldest ticket before looking at
/// the others again: the most a reply that overtook the oldest can be
/// seen late.
const POLL: Duration = Duration::from_micros(100);

/// The four matrices, one per bottleneck shape.
fn matrices() -> Vec<(&'static str, Arc<CsrMatrix>)> {
    vec![
        (
            "banded-20k-b4",
            Arc::new(CsrMatrix::from_coo(&g::banded(20_000, 4))),
        ),
        (
            "random-8k-d8",
            Arc::new(CsrMatrix::from_coo(&g::random_uniform(8192, 8, 1))),
        ),
        (
            "powerlaw-hub-8k",
            Arc::new(CsrMatrix::from_coo(&g::power_law_hub(8192, 2, 11))),
        ),
        (
            "poisson2d-96",
            Arc::new(CsrMatrix::from_coo(&g::poisson2d(96, 96))),
        ),
    ]
}

struct Setup {
    ctx: Arc<ExecCtx>,
    server: SpmvServer,
    tenants: Vec<TenantId>,
    ids: Vec<MatrixId>,
}

/// From "matrices in hand" to "first request can be sent": the host
/// context, a server on a fresh in-memory plan cache, the tenants and
/// every matrix registered (and tuned).
fn setup(mats: &[(&'static str, Arc<CsrMatrix>)]) -> Setup {
    let ctx = ExecCtx::host();
    let cfg = ServeConfig {
        tune_budget: TuneBudget::minimal(),
        tenant_capacity: TENANT_CAPACITY,
        ..ServeConfig::default()
    };
    let server = SpmvServer::with_plan_cache(ctx.clone(), cfg, PlanCache::in_memory());
    let tenants = (0..TENANTS)
        .map(|t| server.register_tenant(&format!("tenant-{t}")))
        .collect();
    let ids = mats
        .iter()
        .map(|(name, csr)| {
            let _s = trace::span("serve.register", name);
            server.register_matrix(name, csr.clone())
        })
        .collect();
    Setup {
        ctx,
        server,
        tenants,
        ids,
    }
}

/// What the collector needs to know about a request.
#[derive(Clone, Copy)]
struct Meta {
    op: u64,
    due: Instant,
    matrix: usize,
    operand: usize,
    /// Whether the reply is compared with its reference.
    check: bool,
}

/// A submitted request the collector still waits on.
struct Pending {
    ticket: Ticket,
    meta: Meta,
}

/// Inputs shared by every segment: the matrices, the seeded operands and
/// their serial-kernel references.
struct Inputs {
    mats: Vec<(&'static str, Arc<CsrMatrix>)>,
    operands: Vec<Vec<Vec<f64>>>,
    references: Vec<Vec<Vec<f64>>>,
}

struct ServeMix<'a> {
    cfg: &'a RunConfig,
    inputs: Inputs,
    next_op: u64,
    segments: u64,
    // Traced segments only:
    gen_lag_ms: Vec<f64>,
    backlog_max: u64,
    replied: u64,
    batches: u64,
    coalesced: u64,
    dispatch_us: Option<f64>,
}

impl Workload for ServeMix<'_> {
    type Setup = Setup;
    // Set-up takes about 0.1 s, so more, shorter segments are cheap, and
    // they sample more placements and plans per run.
    const SETUPS: usize = 24;

    fn setup(&mut self) -> Result<Setup, String> {
        Ok(setup(&self.inputs.mats))
    }

    fn ready(&mut self, rep: usize, s: &Setup) -> Result<(), String> {
        for id in &s.ids {
            let info = s
                .server
                .matrix_info(*id)
                .ok_or("registered matrix has no info")?;
            let outcome = if info.warm { "CacheHit" } else { "cold" };
            println!(
                "provenance: setup {rep} matrix={} plan={} outcome={outcome} fingerprint={}",
                info.name, info.plan_label, info.fingerprint
            );
        }
        if self.cfg.trace && self.dispatch_us.is_none() {
            // The server is idle here, so the probe has the pool to itself.
            self.dispatch_us = Some(dispatch_probe(&s.ctx));
        }
        Ok(())
    }

    fn segment(&mut self, s: &mut Setup, seconds: f64) -> Phase {
        let schedule = inputs::serve_schedule(
            self.cfg.seed,
            self.segments,
            RATE_PER_S,
            seconds * (1.0 - BURST_SHARE),
            TENANTS,
            self.inputs.mats.len(),
            OPERANDS,
        );
        let requests = inputs::burst_requests(
            self.cfg.seed,
            self.segments,
            TENANTS,
            self.inputs.mats.len(),
            OPERANDS,
        );
        self.segments += 1;
        let before = s.server.stats();
        let (mut p, lag, backlog) = open_loop(s, &schedule, &self.inputs, self.next_op);
        self.next_op += schedule.len() as u64;
        let burst = closed_loop(
            s,
            requests,
            &self.inputs,
            self.cfg.seed,
            self.next_op,
            seconds * BURST_SHARE,
        );
        self.next_op += burst.counts.attempted;
        p.counts.add(&burst.counts);
        p.burst = Some(Box::new(burst));
        let after = s.server.stats();
        if trace::enabled() {
            self.gen_lag_ms.extend(lag);
            self.backlog_max = self.backlog_max.max(backlog);
            self.replied += after.completed - before.completed;
            self.batches += after.batches - before.batches;
            self.coalesced += after.coalesced - before.coalesced;
        }
        if after.shed > before.shed {
            println!("serve: {} request(s) shed", after.shed - before.shed);
        }
        p
    }

    fn retire(&mut self, s: Setup) {
        s.server.shutdown();
    }
}

pub fn run(cfg: &RunConfig) -> Result<WorkloadResult, String> {
    let mats = matrices();
    // Operands and their serial-kernel references, prepared untimed.
    let operands: Vec<Vec<Vec<f64>>> = mats
        .iter()
        .enumerate()
        .map(|(m, (_, csr))| {
            (0..OPERANDS)
                .map(|k| inputs::vector(cfg.seed, OPERAND, (m * OPERANDS + k) as u64, csr.ncols()))
                .collect()
        })
        .collect();
    let references = mats
        .iter()
        .zip(&operands)
        .map(|((_, csr), xs)| {
            let serial = SerialCsr::new(csr.clone());
            xs.iter()
                .map(|x| {
                    let mut y = vec![0.0; csr.nrows()];
                    serial.spmv(x, &mut y);
                    y
                })
                .collect()
        })
        .collect();
    let mut w = ServeMix {
        cfg,
        inputs: Inputs {
            mats,
            operands,
            references,
        },
        next_op: 0,
        segments: 0,
        gen_lag_ms: Vec::new(),
        backlog_max: 0,
        replied: 0,
        batches: 0,
        coalesced: 0,
        dispatch_us: None,
    };
    let measured = measure(&mut w, cfg)?;
    println!(
        "serve: rate={RATE_PER_S} req/s sent={} replied={}",
        measured.counts.attempted,
        measured
            .segments
            .iter()
            .map(|p| p.latencies_ms.len() + p.burst.as_ref().map_or(0, |b| b.latencies_ms.len()))
            .sum::<usize>(),
    );

    let mut layers = BTreeMap::new();
    if cfg.trace {
        let spans = trace::take();
        let span_median = |name, scale| median_scaled(&trace::durations(&spans, name, None), scale);
        for (name, value) in [
            ("core.dispatch_us", w.dispatch_us.unwrap_or(0.0)),
            ("serve.register_ms", span_median("serve.register", 1e3)),
            ("serve.submit_us", span_median("serve.submit", 1e6)),
            (
                "serve.mean_batch",
                w.replied as f64 / w.batches.max(1) as f64,
            ),
            (
                "serve.coalesced_frac",
                w.coalesced as f64 / w.replied.max(1) as f64,
            ),
            ("serve.backlog_max", w.backlog_max as f64),
            (
                "serve.gen_lag_p99_ms",
                percentile(&w.gen_lag_ms, 0.99).unwrap_or(0.0),
            ),
            (
                "trace.overhead_frac",
                measured.trace_overhead.unwrap_or(0.0),
            ),
        ] {
            layers.insert(name.into(), value);
        }
        let path = cfg
            .out_dir
            .join(format!("trace-serve-mix-seed{}.jsonl", cfg.seed));
        trace::write_jsonl(&path, &spans).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("trace: {} spans written to {}", spans.len(), path.display());
    }
    Ok(WorkloadResult { measured, layers })
}

/// Sends `schedule` from this thread and collects replies on one other.
/// The phase runs from the first scheduled send to the last reply seen.
/// Returns the phase, the generator's lateness per request (ms) and the
/// largest backlog of unanswered requests it saw.
fn open_loop(
    s: &Setup,
    schedule: &[Request],
    inputs: &Inputs,
    op_base: u64,
) -> (Phase, Vec<f64>, u64) {
    let replied = AtomicU64::new(0);
    let (tx, rx) = mpsc::channel::<Pending>();
    let start = Instant::now();
    std::thread::scope(|scope| {
        let collector = scope.spawn(|| collect(rx, inputs, &replied, start));

        let mut p = Phase::default();
        let mut lag_ms = Vec::with_capacity(schedule.len());
        let mut backlog_max = 0u64;
        let mut sent = 0u64;
        for (i, r) in schedule.iter().enumerate() {
            let op = op_base + i as u64;
            let due = start + Duration::from_secs_f64(r.at_s);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let x = inputs.operands[r.matrix][r.operand].clone();
            let sent_at = Instant::now();
            lag_ms.push(sent_at.saturating_duration_since(due).as_secs_f64() * 1e3);
            p.counts.attempted += 1;
            let submitted = {
                let _s = trace::span_op("serve.submit", inputs.mats[r.matrix].0, Some(op));
                s.server.submit(s.tenants[r.tenant], s.ids[r.matrix], x)
            };
            match submitted {
                Ok(ticket) => {
                    sent += 1;
                    backlog_max = backlog_max.max(sent - replied.load(Ordering::Relaxed));
                    let meta = Meta {
                        op,
                        due,
                        matrix: r.matrix,
                        operand: r.operand,
                        check: true,
                    };
                    tx.send(Pending { ticket, meta })
                        .expect("collector hung up");
                }
                Err(e) => {
                    p.counts.failed += 1;
                    println!("FAIL: request {op} refused: {e}");
                }
            }
        }
        drop(tx);
        let mut c = collector.join().expect("collector thread panicked");
        c.counts.add(&p.counts);
        (c, lag_ms, backlog_max)
    })
}

/// Keeps [`IN_FLIGHT`] requests from `requests` outstanding for `seconds`,
/// then lets the last ones finish. One thread submits, waits on the
/// oldest ticket, checks its reply if it is one of the sampled ones, and
/// submits the next request. A
/// reply's latency runs from its submit to the moment it is seen. The
/// phase runs from the first submit to the last reply.
fn closed_loop(
    s: &Setup,
    requests: impl Iterator<Item = Request>,
    inputs: &Inputs,
    seed: u64,
    op_base: u64,
    seconds: f64,
) -> Phase {
    let mut p = Phase::default();
    let mut pending: VecDeque<Pending> = VecDeque::with_capacity(IN_FLIGHT);
    let mut requests = requests.zip(op_base..);
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    loop {
        while pending.len() < IN_FLIGHT && Instant::now() < end {
            let (r, op) = requests.next().expect("endless request stream");
            let x = inputs.operands[r.matrix][r.operand].clone();
            p.counts.attempted += 1;
            let due = Instant::now();
            let submitted = {
                let _s = trace::span_op("serve.submit", inputs.mats[r.matrix].0, Some(op));
                s.server.submit(s.tenants[r.tenant], s.ids[r.matrix], x)
            };
            match submitted {
                Ok(ticket) => {
                    let meta = Meta {
                        op,
                        due,
                        matrix: r.matrix,
                        operand: r.operand,
                        check: inputs::is_checked(seed, op, BURST_CHECK_EVERY),
                    };
                    pending.push_back(Pending { ticket, meta });
                }
                Err(e) => {
                    p.counts.failed += 1;
                    println!("FAIL: request {op} refused: {e}");
                }
            }
        }
        let Some(req) = pending.pop_front() else {
            break;
        };
        let result = req.ticket.wait();
        finish(&mut p, &req.meta, result, Instant::now(), inputs);
    }
    p.seconds = start.elapsed().as_secs_f64();
    p
}

/// Waits on every ticket, timing each reply when it is first seen and
/// checking it against the serial reference.
fn collect(
    rx: mpsc::Receiver<Pending>,
    inputs: &Inputs,
    replied: &AtomicU64,
    start: Instant,
) -> Phase {
    let mut p = Phase::default();
    let mut last_seen = start;
    let mut pending: VecDeque<Pending> = VecDeque::new();
    let mut done = |p: &mut Phase, meta: &Meta, result, seen: Instant| {
        finish(p, meta, result, seen, inputs);
        replied.fetch_add(1, Ordering::Relaxed);
        last_seen = seen;
    };
    loop {
        // Take in everything submitted so far.
        pending.extend(rx.try_iter());
        if pending.is_empty() {
            // Nothing to time until the next submit arrives; an error means
            // the generator is done and every reply is in.
            match rx.recv() {
                Ok(req) => pending.push_back(req),
                Err(_) => break,
            }
            continue;
        }
        // Finish every ready ticket; if none is ready, block briefly on
        // the oldest.
        let mut i = 0;
        let mut any = false;
        while i < pending.len() {
            if pending[i].ticket.is_ready() {
                let req = pending.remove(i).expect("index in range");
                let result = req.ticket.wait();
                done(&mut p, &req.meta, result, Instant::now());
                any = true;
            } else {
                i += 1;
            }
        }
        if !any {
            if let Some(result) = pending[0].ticket.wait_timeout(POLL) {
                let seen = Instant::now();
                let req = pending.pop_front().expect("non-empty");
                done(&mut p, &req.meta, result, seen);
            }
        }
    }
    p.seconds = last_seen.saturating_duration_since(start).as_secs_f64();
    p
}

fn finish(
    p: &mut Phase,
    req: &Meta,
    result: Result<Reply, ServeError>,
    seen: Instant,
    inputs: &Inputs,
) {
    let name = inputs.mats[req.matrix].0;
    let latency_ms = seen.saturating_duration_since(req.due).as_secs_f64() * 1e3;
    let ok = match &result {
        Ok(Reply::Vector(y)) => {
            !req.check || rel_err(y, &inputs.references[req.matrix][req.operand]) <= 1e-12
        }
        _ => false,
    };
    p.complete_served(latency_ms, ok);
    if ok {
        p.counts.succeeded += 1;
    } else {
        p.counts.failed += 1;
        if result.is_ok() {
            p.counts.wrong += 1;
        }
        println!("FAIL: request {} on {name}: {:?}", req.op, result.err());
    }
}

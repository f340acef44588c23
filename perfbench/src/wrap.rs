//! Delegating wrappers that put spans around the program's operator and
//! preconditioner as the solver calls them. They change nothing else: every
//! method forwards to the wrapped object.

use crate::trace;
use sparseopt::core::kernels::{Apply, OpCapabilities, SparseLinOp};
use sparseopt::core::multivec::MultiVec;
use sparseopt::solver::Preconditioner;
use std::sync::Mutex;
use std::time::Duration;

/// A `SparseLinOp` that records a `core.spmv` span per application and,
/// while tracing, the load imbalance of each application.
pub struct TracedOp {
    inner: Box<dyn SparseLinOp>,
    key: &'static str,
    imbalance: Mutex<Vec<f64>>,
}

impl TracedOp {
    /// Wraps `inner`; `key` names the matrix in its spans.
    pub fn new(inner: Box<dyn SparseLinOp>, key: &'static str) -> Self {
        Self {
            inner,
            key,
            imbalance: Mutex::new(Vec::new()),
        }
    }

    /// Imbalance samples recorded so far, removing them.
    pub fn take_imbalance(&self) -> Vec<f64> {
        std::mem::take(&mut *self.imbalance.lock().expect("imbalance samples"))
    }
}

/// The paper's IMB: slowest thread over the median thread of one
/// application. `None` when the operator keeps no per-thread times.
pub fn imbalance(times: &[Duration]) -> Option<f64> {
    let mut t: Vec<f64> = times.iter().map(Duration::as_secs_f64).collect();
    if t.is_empty() {
        return None;
    }
    t.sort_by(f64::total_cmp);
    let n = t.len();
    let median = if n % 2 == 1 {
        t[n / 2]
    } else {
        0.5 * (t[n / 2 - 1] + t[n / 2])
    };
    (median > 0.0).then(|| t[n - 1] / median)
}

impl SparseLinOp for TracedOp {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn shape(&self) -> (usize, usize) {
        self.inner.shape()
    }

    fn nnz(&self) -> usize {
        self.inner.nnz()
    }

    fn capabilities(&self) -> OpCapabilities {
        self.inner.capabilities()
    }

    fn apply(&self, op: Apply, x: &[f64], y: &mut [f64]) {
        {
            let _s = trace::span("core.spmv", self.key);
            self.inner.apply(op, x, y);
        }
        if trace::enabled() {
            if let Some(imb) = imbalance(&self.inner.last_thread_times()) {
                self.imbalance.lock().expect("imbalance samples").push(imb);
            }
        }
    }

    fn apply_multi(&self, op: Apply, x: &MultiVec, y: &mut MultiVec) {
        self.inner.apply_multi(op, x, y);
    }

    fn last_thread_times(&self) -> Vec<Duration> {
        self.inner.last_thread_times()
    }

    fn footprint_bytes(&self) -> usize {
        self.inner.footprint_bytes()
    }

    fn flops(&self, k: usize) -> f64 {
        self.inner.flops(k)
    }
}

/// A `Preconditioner` that records a `solver.precond_apply` span per
/// application.
pub struct TracedPrecond {
    inner: Box<dyn Preconditioner>,
    key: &'static str,
}

impl TracedPrecond {
    /// Wraps `inner`; `key` names the matrix in its spans.
    pub fn new(inner: Box<dyn Preconditioner>, key: &'static str) -> Self {
        Self { inner, key }
    }
}

impl Preconditioner for TracedPrecond {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        let _s = trace::span("solver.precond_apply", self.key);
        self.inner.apply(r, z);
    }

    fn apply_multi(&self, r: &MultiVec, z: &mut MultiVec) {
        let _s = trace::span("solver.precond_apply", self.key);
        self.inner.apply_multi(r, z);
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

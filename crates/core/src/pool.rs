//! Persistent thread-pool execution context with per-thread timing.
//!
//! The paper's IMB bound `P_IMB = 2·NNZ / t_median` needs the execution time
//! of *each* thread for one SpMV (Section III-B). [`ExecCtx`] wraps a rayon
//! pool, broadcasts a closure to every thread, and records each thread's
//! wall time into a cache-padded slot.
//!
//! `tid 0` runs on the thread that calls [`ExecCtx::run`]; only `tid`s
//! `1..nthreads` are pool workers, so a one-thread context spawns no thread
//! and runs the closure inline. Idle workers spin briefly on the pool's
//! epoch, then yield for a while, then park; the caller waits for their
//! arms the same way. A kernel call thus pays no thread hand-off when the
//! workers are warm.

use crossbeam::utils::CachePadded;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Execution context shared by all parallel kernels.
pub struct ExecCtx {
    pool: rayon::ThreadPool,
    nthreads: usize,
    times_ns: Vec<CachePadded<AtomicU64>>,
}

impl ExecCtx {
    /// Creates a context of `nthreads` threads (>= 1): the caller plus
    /// `nthreads - 1` spawned workers.
    pub fn new(nthreads: usize) -> Arc<Self> {
        assert!(nthreads > 0, "need at least one thread");
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(nthreads)
            .thread_name(|i| format!("sparseopt-worker-{i}"))
            .build()
            .expect("failed to build thread pool");
        let times_ns = (0..nthreads)
            .map(|_| CachePadded::new(AtomicU64::new(0)))
            .collect();
        Arc::new(Self {
            pool,
            nthreads,
            times_ns,
        })
    }

    /// A context sized to the host's available parallelism.
    pub fn host() -> Arc<Self> {
        let n = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self::new(n)
    }

    /// Number of threads a [`Self::run`] spans, the caller included.
    #[inline]
    pub fn nthreads(&self) -> usize {
        self.nthreads
    }

    /// Runs `f(tid)` once for every `tid` in `0..nthreads`, `tid 0` on the
    /// calling thread, blocking until all finish, and records per-thread
    /// wall times retrievable via [`Self::last_thread_times`]. Concurrent
    /// calls on one context are serialized.
    ///
    /// # Panics
    /// Re-raises a panic of any `f(tid)` after every other `tid` finished;
    /// the context stays usable.
    pub fn run<F>(&self, f: F)
    where
        F: Fn(usize) + Sync,
    {
        self.pool.broadcast(|ctx| {
            let tid = ctx.index();
            let start = Instant::now();
            f(tid);
            let ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            self.times_ns[tid].store(ns, Ordering::Relaxed);
        });
    }

    /// Folds `extra` into the recorded per-thread times — used by
    /// multi-phase kernels (the transpose scatter + merge) so
    /// [`Self::last_thread_times`] covers the whole application rather than
    /// only the final phase.
    pub(crate) fn accumulate_last_times(&self, extra: &[Duration]) {
        for (slot, d) in self.times_ns.iter().zip(extra) {
            slot.fetch_add(d.as_nanos().min(u64::MAX as u128) as u64, Ordering::Relaxed);
        }
    }

    /// Per-thread execution times of the most recent [`Self::run`].
    pub fn last_thread_times(&self) -> Vec<Duration> {
        self.times_ns
            .iter()
            .map(|t| Duration::from_nanos(t.load(Ordering::Relaxed)))
            .collect()
    }

    /// Median of the last per-thread times in seconds — the `t_median` of the
    /// paper's `P_IMB` bound.
    pub fn last_median_secs(&self) -> f64 {
        let secs: Vec<f64> = self
            .last_thread_times()
            .iter()
            .map(|d| d.as_secs_f64())
            .collect();
        crate::util::median(&secs).unwrap_or(0.0)
    }

    /// Maximum of the last per-thread times in seconds (the critical path).
    pub fn last_max_secs(&self) -> f64 {
        self.last_thread_times()
            .iter()
            .map(|d| d.as_secs_f64())
            .fold(0.0, f64::max)
    }
}

impl std::fmt::Debug for ExecCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecCtx")
            .field("nthreads", &self.nthreads)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn runs_on_every_thread_exactly_once() {
        let ctx = ExecCtx::new(4);
        let hits = AtomicUsize::new(0);
        let seen: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        ctx.run(|tid| {
            hits.fetch_add(1, Ordering::SeqCst);
            seen[tid].fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 4);
        for s in &seen {
            assert_eq!(s.load(Ordering::SeqCst), 1);
        }
    }

    #[test]
    fn records_per_thread_times() {
        let ctx = ExecCtx::new(2);
        ctx.run(|tid| {
            if tid == 0 {
                std::thread::sleep(Duration::from_millis(5));
            }
        });
        let times = ctx.last_thread_times();
        assert_eq!(times.len(), 2);
        assert!(times[0] >= Duration::from_millis(5));
        assert!(ctx.last_max_secs() >= ctx.last_median_secs());
    }

    #[test]
    fn borrows_stack_data() {
        let ctx = ExecCtx::new(3);
        let mut out = vec![0usize; 3];
        let p = crate::util::SendMutPtr::new(&mut out);
        ctx.run(|tid| unsafe { p.write(tid, tid + 1) });
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn single_thread_context() {
        let ctx = ExecCtx::new(1);
        ctx.run(|tid| assert_eq!(tid, 0));
        assert_eq!(ctx.last_thread_times().len(), 1);
    }

    #[test]
    fn tid_zero_runs_on_the_caller() {
        let caller = std::thread::current().id();
        for n in [1, 2] {
            let ctx = ExecCtx::new(n);
            let on_caller: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            ctx.run(|tid| {
                if std::thread::current().id() == caller {
                    on_caller[tid].fetch_add(1, Ordering::SeqCst);
                }
            });
            let on_caller: Vec<usize> =
                on_caller.iter().map(|c| c.load(Ordering::SeqCst)).collect();
            let mut want = vec![0; n];
            want[0] = 1;
            assert_eq!(on_caller, want, "{n} threads");
        }
    }

    #[test]
    fn panicking_tid_reaches_the_caller_and_context_recovers() {
        let ctx = ExecCtx::new(2);
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ctx.run(|tid| {
                if tid == 1 {
                    panic!("tid 1 failed");
                }
            })
        }));
        let payload = res.expect_err("the worker's panic must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"tid 1 failed"));
        let hits = AtomicUsize::new(0);
        ctx.run(|_| {
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn concurrent_runs_each_see_every_tid_once() {
        let ctx = ExecCtx::new(3);
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    start.wait();
                    for _ in 0..1000 {
                        let seen: Vec<AtomicUsize> = (0..3).map(|_| AtomicUsize::new(0)).collect();
                        ctx.run(|tid| {
                            seen[tid].fetch_add(1, Ordering::SeqCst);
                        });
                        for s in &seen {
                            assert_eq!(s.load(Ordering::SeqCst), 1);
                        }
                    }
                });
            }
        });
    }
}

//! Out-of-core sharded operator: streams row-block shards through a bounded
//! window, with an additive COO delta overlay and background compaction.
//!
//! [`ShardedOp`] is the consumer-facing half of the out-of-core layer. The
//! matrix lives elsewhere — an on-disk shard container, another process, a
//! generator — and is described to the operator as a list of [`ShardSpec`]s:
//! one contiguous row range per shard, a *loader* that produces the shard's
//! CSR fragment on demand, and a *builder* that turns a fragment into a
//! concrete [`SparseLinOp`] (the per-shard tuned kernel, in the optimizer's
//! usage). The operator then implements the full
//! `{NoTrans, Trans} × {vector, multi-vector}` application space while
//! keeping at most `window` built shards resident:
//!
//! - **Bounded window.** Built shard kernels live in an LRU cache of
//!   capacity `window`; a miss evicts the least-recently-used shard *before*
//!   building the next one, so accounted residency never exceeds
//!   `window · max_shard_bytes` (see [`resident_shard_bytes`]).
//! - **Prefetch.** With `window ≥ 2`, each apply runs a staging thread that
//!   loads the next uncached shard's raw CSR one step ahead of the compute
//!   loop (depth 1, so streaming adds at most two transient fragments on
//!   top of the window). Kernel *builds* and *applies* stay on the calling
//!   thread, and all pool work is serialized on an internal gate, so a
//!   background compaction build never interleaves its pool runs with an
//!   apply's.
//! - **Delta overlay.** [`ShardedOp::stage_delta`] records additive COO
//!   updates (`a[r][c] += v`) in the owning shard's overlay; every apply
//!   folds the overlay in after the base kernel, so updates are visible
//!   immediately without touching the shard bytes.
//! - **Compaction.** When a shard's overlay outgrows
//!   [`ShardedOp::compaction_threshold`] (a fraction of the shard's base
//!   nnz), a background thread merges base + overlay into a fresh fragment,
//!   rebuilds the kernel via the builder with [`BuildReason::Compaction`]
//!   (the optimizer re-tunes there), and swaps it in under the shard lock.
//!   Readers keep serving the old base + full overlay until the swap — the
//!   two observable states are equivalent, so there is no stop-the-world.
//!
//! ## Example
//!
//! ```
//! use sparseopt_core::prelude::*;
//! use std::sync::Arc;
//!
//! // A 4×4 identity split into two 2-row shards, loaded on demand.
//! let blocks: Vec<Arc<CsrMatrix>> = (0..2)
//!     .map(|s| {
//!         let mut coo = CooMatrix::new(2, 4);
//!         coo.push(0, 2 * s, 1.0);
//!         coo.push(1, 2 * s + 1, 1.0);
//!         Arc::new(CsrMatrix::from_coo(&coo))
//!     })
//!     .collect();
//! let shards = blocks
//!     .iter()
//!     .enumerate()
//!     .map(|(s, block)| {
//!         let block = block.clone();
//!         ShardSpec {
//!             rows: 2 * s..2 * s + 2,
//!             nnz: block.nnz(),
//!             loader: Arc::new(move || Ok((*block).clone())),
//!             builder: Arc::new(|csr: &Arc<CsrMatrix>, _reason: BuildReason| {
//!                 Box::new(SerialCsr::new(csr.clone())) as Box<dyn SparseLinOp>
//!             }),
//!         }
//!     })
//!     .collect();
//!
//! // window = 1: at most one built shard is ever resident. (`stage_delta`
//! // wants `Arc<Self>` so background compaction can own a handle.)
//! let op = Arc::new(ShardedOp::new((4, 4), shards, 1));
//! let x = [1.0, 2.0, 3.0, 4.0];
//! let mut y = [0.0; 4];
//! op.apply(Apply::NoTrans, &x, &mut y);
//! assert_eq!(y, x);
//!
//! // Additive delta: visible on the very next apply, no rebuild needed.
//! op.stage_delta(0, 3, 10.0);
//! op.apply(Apply::NoTrans, &x, &mut y);
//! assert_eq!(y[0], 1.0 + 10.0 * 4.0);
//! ```

use crate::csr::CsrMatrix;
use crate::kernels::{check_apply_multi_operands, check_apply_operands, Apply, SparseLinOp};
use crate::multivec::MultiVec;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{mpsc, Arc, Condvar, Mutex};

/// Why the builder is being invoked for a shard.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BuildReason {
    /// The shard entered the streaming window (first touch or re-entry
    /// after eviction): rebuild from the already-selected plan.
    Stream,
    /// The shard was just compacted (base + overlay merged): its structure
    /// changed, so the builder may re-classify / re-tune.
    Compaction,
}

/// Produces a shard's CSR fragment on demand: `rows.len()` rows over the
/// full column width. Errors are strings because loaders cross crate
/// boundaries (e.g. the shard container lives in `sparseopt-matrix`).
pub type ShardLoadFn = dyn Fn() -> Result<CsrMatrix, String> + Send + Sync;

/// Turns a loaded fragment into the shard's concrete operator — in the
/// optimizer's usage, the per-shard tuned kernel.
pub type ShardBuildFn = dyn Fn(&Arc<CsrMatrix>, BuildReason) -> Box<dyn SparseLinOp> + Send + Sync;

/// Description of one row-block shard handed to [`ShardedOp::new`].
#[derive(Clone)]
pub struct ShardSpec {
    /// Global row range `[start, end)` the shard covers; specs must tile
    /// `0..nrows` contiguously.
    pub rows: Range<usize>,
    /// Nonzeros in the shard's base fragment (drives the compaction
    /// threshold and `nnz()` before first load).
    pub nnz: usize,
    /// On-demand fragment loader.
    pub loader: Arc<ShardLoadFn>,
    /// Fragment → operator builder.
    pub builder: Arc<ShardBuildFn>,
}

// Crate-global accounting for built shard kernels — the residency hook the
// bench driver asserts `peak ≤ window · max_shard_bytes` against.
static RESIDENT_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_RESIDENT_BYTES: AtomicUsize = AtomicUsize::new(0);

/// Bytes of built shard kernels currently held in streaming windows, summed
/// over every live [`ShardedOp`].
pub fn resident_shard_bytes() -> usize {
    RESIDENT_BYTES.load(Ordering::Relaxed)
}

/// High-water mark of [`resident_shard_bytes`] since the last
/// [`reset_peak_resident_shard_bytes`].
pub fn peak_resident_shard_bytes() -> usize {
    PEAK_RESIDENT_BYTES.load(Ordering::Relaxed)
}

/// Resets the peak to the current residency (bench drivers call this before
/// a measured streaming pass).
pub fn reset_peak_resident_shard_bytes() {
    PEAK_RESIDENT_BYTES.store(RESIDENT_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// One staged additive update `(row, col, value)` in a shard's overlay.
type DeltaEntry = (usize, usize, f64);

/// RAII residency accounting for one cached shard kernel.
struct ResidencyGuard {
    bytes: usize,
}

impl ResidencyGuard {
    fn new(bytes: usize) -> Self {
        let now = RESIDENT_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
        PEAK_RESIDENT_BYTES.fetch_max(now, Ordering::Relaxed);
        Self { bytes }
    }
}

impl Drop for ResidencyGuard {
    fn drop(&mut self) {
        RESIDENT_BYTES.fetch_sub(self.bytes, Ordering::Relaxed);
    }
}

enum ShardSource {
    /// Base fragment still lives behind the loader (on disk).
    Loader(Arc<ShardLoadFn>),
    /// Base fragment was re-materialized by compaction and is owned.
    Resident(Arc<CsrMatrix>),
}

impl ShardSource {
    fn snapshot(&self) -> ShardSource {
        match self {
            ShardSource::Loader(f) => ShardSource::Loader(f.clone()),
            ShardSource::Resident(m) => ShardSource::Resident(m.clone()),
        }
    }

    fn load(&self, rows: &Range<usize>) -> Arc<CsrMatrix> {
        match self {
            ShardSource::Resident(m) => m.clone(),
            ShardSource::Loader(f) => match f() {
                Ok(csr) => Arc::new(csr),
                Err(e) => panic!("shard load failed for rows {rows:?}: {e}"),
            },
        }
    }
}

struct CachedShard {
    op: Arc<dyn SparseLinOp>,
    _residency: ResidencyGuard,
}

struct ShardState {
    source: ShardSource,
    cached: Option<CachedShard>,
    /// Additive COO overlay in *global* coordinates `(row, col, value)`.
    overlay: Vec<DeltaEntry>,
    base_nnz: usize,
    /// Bumped by every compaction swap; detects stale loads/builds.
    generation: u64,
    compacting: bool,
}

struct Shard {
    rows: Range<usize>,
    builder: Arc<ShardBuildFn>,
    state: Mutex<ShardState>,
}

#[derive(Default)]
struct Maintenance {
    in_flight: Mutex<usize>,
    done: Condvar,
}

/// The streaming out-of-core operator: row-block shards through a bounded
/// LRU window with depth-1 prefetch, an additive COO delta overlay, and
/// background threshold-triggered compaction. See the module-level
/// documentation above for the full contract and an example.
pub struct ShardedOp {
    shape: (usize, usize),
    shards: Vec<Shard>,
    window: usize,
    compaction_threshold: f64,
    /// LRU order of cached shard indexes (front = coldest). Advisory:
    /// `ShardState::cached` is the source of truth.
    lru: Mutex<Vec<usize>>,
    cached_count: AtomicUsize,
    max_built_bytes: AtomicUsize,
    delta_nnz: AtomicUsize,
    compactions: AtomicUsize,
    /// Serializes all thread-pool work (applies and compaction builds) at
    /// whole-operation granularity; the pool alone would interleave their
    /// individual runs.
    pool_gate: Mutex<()>,
    maintenance: Arc<Maintenance>,
}

impl ShardedOp {
    /// Builds a sharded operator over `shards`, keeping at most `window`
    /// built shard kernels resident.
    ///
    /// # Panics
    /// Panics if `window == 0` or the shard row ranges do not tile
    /// `0..shape.0` contiguously.
    pub fn new(shape: (usize, usize), shards: Vec<ShardSpec>, window: usize) -> Self {
        assert!(window >= 1, "window must be at least 1");
        let mut next = 0usize;
        for (i, s) in shards.iter().enumerate() {
            assert_eq!(
                s.rows.start, next,
                "shard {i} starts at row {}, expected {next}",
                s.rows.start
            );
            next = s.rows.end;
        }
        assert_eq!(
            next, shape.0,
            "shards cover {next} rows, shape says {}",
            shape.0
        );
        let shards = shards
            .into_iter()
            .map(|s| Shard {
                rows: s.rows,
                builder: s.builder,
                state: Mutex::new(ShardState {
                    source: ShardSource::Loader(s.loader),
                    cached: None,
                    overlay: Vec::new(),
                    base_nnz: s.nnz,
                    generation: 0,
                    compacting: false,
                }),
            })
            .collect();
        Self {
            shape,
            shards,
            window,
            compaction_threshold: 0.25,
            lru: Mutex::new(Vec::new()),
            cached_count: AtomicUsize::new(0),
            max_built_bytes: AtomicUsize::new(0),
            delta_nnz: AtomicUsize::new(0),
            compactions: AtomicUsize::new(0),
            pool_gate: Mutex::new(()),
            maintenance: Arc::new(Maintenance::default()),
        }
    }

    /// Overrides the compaction trigger: a shard compacts once its overlay
    /// holds more than `threshold · base_nnz` staged entries (default 0.25).
    pub fn with_compaction_threshold(mut self, threshold: f64) -> Self {
        assert!(threshold > 0.0, "threshold must be positive");
        self.compaction_threshold = threshold;
        self
    }

    /// Number of row-block shards.
    pub fn nshards(&self) -> usize {
        self.shards.len()
    }

    /// The bounded streaming window (max resident built shards).
    pub fn window(&self) -> usize {
        self.window
    }

    /// The compaction trigger fraction.
    pub fn compaction_threshold(&self) -> f64 {
        self.compaction_threshold
    }

    /// Global row range of shard `i`.
    pub fn shard_rows(&self, i: usize) -> Range<usize> {
        self.shards[i].rows.clone()
    }

    /// Built shard kernels currently resident in this operator's window.
    pub fn cached_shards(&self) -> usize {
        self.cached_count.load(Ordering::Relaxed)
    }

    /// Largest accounted footprint of any shard kernel built so far — the
    /// `max_shard_bytes` factor of the residency bound.
    pub fn max_built_shard_bytes(&self) -> usize {
        self.max_built_bytes.load(Ordering::Relaxed)
    }

    /// Staged delta entries not yet folded into a shard by compaction.
    pub fn delta_nnz(&self) -> usize {
        self.delta_nnz.load(Ordering::Relaxed)
    }

    /// Completed background compactions.
    pub fn compactions_completed(&self) -> usize {
        self.compactions.load(Ordering::Relaxed)
    }

    /// Stages an additive update `a[row][col] += value`, visible to every
    /// subsequent apply. May trigger a background compaction of the owning
    /// shard when its overlay crosses the threshold.
    ///
    /// # Panics
    /// Panics if `row`/`col` are outside the operator shape.
    pub fn stage_delta(self: &Arc<Self>, row: usize, col: usize, value: f64) {
        assert!(row < self.shape.0, "delta row {row} out of bounds");
        assert!(col < self.shape.1, "delta col {col} out of bounds");
        let si = self
            .shards
            .partition_point(|s| s.rows.end <= row)
            .min(self.shards.len() - 1);
        let trigger = {
            let mut st = self.shards[si].state.lock().expect("shard state");
            st.overlay.push((row, col, value));
            self.delta_nnz.fetch_add(1, Ordering::Relaxed);
            let over =
                st.overlay.len() as f64 > self.compaction_threshold * st.base_nnz.max(1) as f64;
            if over && !st.compacting {
                st.compacting = true;
                true
            } else {
                false
            }
        };
        if trigger {
            self.spawn_compaction(si);
        }
    }

    /// Blocks until every in-flight background compaction has completed.
    pub fn wait_for_compactions(&self) {
        let mut n = self.maintenance.in_flight.lock().expect("maintenance");
        while *n > 0 {
            n = self.maintenance.done.wait(n).expect("maintenance");
        }
    }

    fn spawn_compaction(self: &Arc<Self>, si: usize) {
        *self.maintenance.in_flight.lock().expect("maintenance") += 1;
        let this = self.clone();
        std::thread::spawn(move || {
            this.compact(si);
            let mut n = this.maintenance.in_flight.lock().expect("maintenance");
            *n -= 1;
            this.maintenance.done.notify_all();
        });
    }

    /// Merges shard `si`'s base fragment with a snapshot of its overlay,
    /// rebuilds the kernel ([`BuildReason::Compaction`]), and swaps both in.
    /// Runs on a background thread; readers keep serving the old base plus
    /// the full overlay (an equivalent state) until the swap.
    fn compact(self: &Arc<Self>, si: usize) {
        let shard = &self.shards[si];
        let (source, snapshot, snap_len, generation) = {
            let st = shard.state.lock().expect("shard state");
            (
                st.source.snapshot(),
                st.overlay.clone(),
                st.overlay.len(),
                st.generation,
            )
        };
        let base = source.load(&shard.rows);
        let mut coo = crate::coo::CooMatrix::new(base.nrows(), base.ncols());
        for r in 0..base.nrows() {
            let (s, e) = (base.rowptr()[r], base.rowptr()[r + 1]);
            for idx in s..e {
                coo.push(r, base.colind()[idx] as usize, base.values()[idx]);
            }
        }
        for &(r, c, v) in &snapshot {
            coo.push(r - shard.rows.start, c, v);
        }
        // from_coo sums duplicates — exactly the additive delta semantics.
        let merged = Arc::new(CsrMatrix::from_coo(&coo));
        let built = {
            let _gate = self.pool_gate.lock().expect("pool gate");
            (shard.builder)(&merged, BuildReason::Compaction)
        };

        let mut st = shard.state.lock().expect("shard state");
        if st.generation != generation {
            // A concurrent swap happened (cannot in practice: `compacting`
            // admits one compactor per shard); drop our work, never corrupt.
            st.compacting = false;
            return;
        }
        st.base_nnz = merged.nnz();
        st.source = ShardSource::Resident(merged);
        st.overlay.drain(..snap_len);
        st.generation += 1;
        if st.cached.is_some() {
            let bytes = built.footprint_bytes();
            self.max_built_bytes.fetch_max(bytes, Ordering::Relaxed);
            st.cached = Some(CachedShard {
                op: Arc::from(built),
                _residency: ResidencyGuard::new(bytes),
            });
        }
        st.compacting = false;
        drop(st);
        self.delta_nnz.fetch_sub(snap_len, Ordering::Relaxed);
        self.compactions.fetch_add(1, Ordering::Relaxed);
    }

    /// Evicts least-recently-used shards until the cache has room for one
    /// more entry. Never holds the LRU lock and a shard lock at once.
    fn make_room(&self) {
        while self.cached_count.load(Ordering::Relaxed) >= self.window {
            let victim = {
                let mut lru = self.lru.lock().expect("lru");
                if lru.is_empty() {
                    return;
                }
                lru.remove(0)
            };
            let mut st = self.shards[victim].state.lock().expect("shard state");
            if st.cached.take().is_some() {
                self.cached_count.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }

    fn touch_lru(&self, si: usize) {
        let mut lru = self.lru.lock().expect("lru");
        lru.retain(|&x| x != si);
        lru.push(si);
    }

    /// Returns shard `si`'s kernel and an overlay snapshot, loading and
    /// building (and evicting) as needed. `staged` optionally supplies
    /// fragments prefetched by the staging thread.
    fn acquire(
        &self,
        si: usize,
        staged: Option<&Receiver<(usize, u64, CsrMatrix)>>,
    ) -> (Arc<dyn SparseLinOp>, Vec<DeltaEntry>) {
        loop {
            let (source, generation) = {
                let st = self.shards[si].state.lock().expect("shard state");
                if let Some(c) = &st.cached {
                    let snap = (c.op.clone(), st.overlay.clone());
                    drop(st);
                    self.touch_lru(si);
                    return snap;
                }
                (st.source.snapshot(), st.generation)
            };

            let mut csr: Option<Arc<CsrMatrix>> = None;
            if let (ShardSource::Loader(_), Some(rx)) = (&source, staged) {
                // Drain the staging channel up to our shard; earlier or
                // stale entries were loaded for windows that no longer need
                // them and are simply dropped.
                while let Ok((idx, gen, fragment)) = rx.recv() {
                    if idx == si {
                        if gen == generation {
                            csr = Some(Arc::new(fragment));
                        }
                        break;
                    }
                }
            }
            let csr = csr.unwrap_or_else(|| source.load(&self.shards[si].rows));

            self.make_room();
            let built = (self.shards[si].builder)(&csr, BuildReason::Stream);
            let bytes = built.footprint_bytes();

            let mut st = self.shards[si].state.lock().expect("shard state");
            if st.generation != generation {
                continue; // compaction swapped the base under us: rebuild
            }
            self.max_built_bytes.fetch_max(bytes, Ordering::Relaxed);
            st.cached = Some(CachedShard {
                op: Arc::from(built),
                _residency: ResidencyGuard::new(bytes),
            });
            self.cached_count.fetch_add(1, Ordering::Relaxed);
            let snap = (
                st.cached.as_ref().expect("just cached").op.clone(),
                st.overlay.clone(),
            );
            drop(st);
            self.touch_lru(si);
            return snap;
        }
    }

    /// Runs `visit` over every shard in row order, with depth-1 prefetch of
    /// raw fragments on a staging thread when the window allows it.
    fn stream(&self, mut visit: impl FnMut(usize, &Arc<dyn SparseLinOp>, &[(usize, usize, f64)])) {
        let n = self.shards.len();
        if self.window >= 2 && n > 1 {
            std::thread::scope(|s| {
                let (tx, rx): (SyncSender<(usize, u64, CsrMatrix)>, _) = mpsc::sync_channel(1);
                s.spawn(move || {
                    for si in 0..n {
                        let staged = {
                            let st = self.shards[si].state.lock().expect("shard state");
                            if st.cached.is_some() {
                                None
                            } else if let ShardSource::Loader(f) = &st.source {
                                Some((f.clone(), st.generation))
                            } else {
                                None
                            }
                        };
                        if let Some((loader, gen)) = staged {
                            // A failed load is not reported here: the
                            // compute loop retries inline and surfaces it.
                            if let Ok(fragment) = loader() {
                                if tx.send((si, gen, fragment)).is_err() {
                                    return; // apply finished without us
                                }
                            }
                        }
                    }
                });
                for si in 0..n {
                    let (op, overlay) = self.acquire(si, Some(&rx));
                    visit(si, &op, &overlay);
                }
                drop(rx); // unblock the staging thread before scope join
            });
        } else {
            for si in 0..n {
                let (op, overlay) = self.acquire(si, None);
                visit(si, &op, &overlay);
            }
        }
    }

    fn forward(&self, x: &[f64], y: &mut [f64]) {
        self.stream(|si, op, overlay| {
            let rows = &self.shards[si].rows;
            op.apply(Apply::NoTrans, x, &mut y[rows.clone()]);
            for &(r, c, v) in overlay {
                y[r] += v * x[c];
            }
        });
    }

    fn transposed(&self, x: &[f64], y: &mut [f64]) {
        y.fill(0.0);
        let mut scratch = vec![0.0; self.shape.1];
        self.stream(|si, op, overlay| {
            let rows = &self.shards[si].rows;
            if op.nnz() > 0 {
                scratch.fill(0.0);
                op.apply(Apply::Trans, &x[rows.clone()], &mut scratch);
                for (yi, si) in y.iter_mut().zip(&scratch) {
                    *yi += si;
                }
            }
            for &(r, c, v) in overlay {
                y[c] += v * x[r];
            }
        });
    }

    fn forward_multi(&self, x: &MultiVec, y: &mut MultiVec) {
        let k = x.width();
        let mut block = MultiVec::zeros(0, k.max(1));
        self.stream(|si, op, overlay| {
            let rows = &self.shards[si].rows;
            block.reset_zeroed(rows.len(), k);
            op.apply_multi(Apply::NoTrans, x, &mut block);
            y.as_mut_slice()[rows.start * k..rows.end * k].copy_from_slice(block.as_slice());
            for &(r, c, v) in overlay {
                for (yj, &xj) in y.row_mut(r).iter_mut().zip(x.row(c)) {
                    *yj += v * xj;
                }
            }
        });
    }

    fn transposed_multi(&self, x: &MultiVec, y: &mut MultiVec) {
        let k = x.width();
        y.fill(0.0);
        let mut block_in = MultiVec::zeros(0, k.max(1));
        let mut scratch = MultiVec::zeros(0, k.max(1));
        self.stream(|si, op, overlay| {
            let rows = &self.shards[si].rows;
            if op.nnz() > 0 {
                block_in.reset_zeroed(rows.len(), k);
                block_in
                    .as_mut_slice()
                    .copy_from_slice(&x.as_slice()[rows.start * k..rows.end * k]);
                scratch.reset_zeroed(self.shape.1, k);
                op.apply_multi(Apply::Trans, &block_in, &mut scratch);
                for (yi, si) in y.as_mut_slice().iter_mut().zip(scratch.as_slice()) {
                    *yi += si;
                }
            }
            for &(r, c, v) in overlay {
                for (yj, &xj) in y.row_mut(c).iter_mut().zip(x.row(r)) {
                    *yj += v * xj;
                }
            }
        });
    }
}

impl SparseLinOp for ShardedOp {
    fn name(&self) -> String {
        format!(
            "sharded[shards={},window={}]",
            self.shards.len(),
            self.window
        )
    }

    fn shape(&self) -> (usize, usize) {
        self.shape
    }

    fn nnz(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let st = s.state.lock().expect("shard state");
                st.base_nnz + st.overlay.len()
            })
            .sum()
    }

    fn apply(&self, op: Apply, x: &[f64], y: &mut [f64]) {
        check_apply_operands(self.shape, op, x, y);
        let _gate = self.pool_gate.lock().expect("pool gate");
        match op {
            Apply::NoTrans => self.forward(x, y),
            Apply::Trans => self.transposed(x, y),
        }
    }

    fn apply_multi(&self, op: Apply, x: &MultiVec, y: &mut MultiVec) {
        check_apply_multi_operands(self.shape, op, x, y);
        let _gate = self.pool_gate.lock().expect("pool gate");
        match op {
            Apply::NoTrans => self.forward_multi(x, y),
            Apply::Trans => self.transposed_multi(x, y),
        }
    }

    fn footprint_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let st = s.state.lock().expect("shard state");
                (s.rows.len() + 1) * std::mem::size_of::<usize>()
                    + (st.base_nnz + st.overlay.len())
                        * (std::mem::size_of::<u32>() + std::mem::size_of::<f64>())
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;
    use crate::kernels::SerialCsr;

    fn row_block(full: &CsrMatrix, rows: Range<usize>) -> CsrMatrix {
        let mut coo = CooMatrix::new(rows.len(), full.ncols());
        for (local, r) in rows.enumerate() {
            for k in full.rowptr()[r]..full.rowptr()[r + 1] {
                coo.push(local, full.colind()[k] as usize, full.values()[k]);
            }
        }
        CsrMatrix::from_coo(&coo)
    }

    fn serial_specs(full: &CsrMatrix, block_rows: usize) -> Vec<ShardSpec> {
        let n = full.nrows();
        (0..n.div_ceil(block_rows))
            .map(|s| {
                let rows = s * block_rows..((s + 1) * block_rows).min(n);
                let frag = Arc::new(row_block(full, rows.clone()));
                let loader_frag = frag.clone();
                ShardSpec {
                    rows,
                    nnz: frag.nnz(),
                    loader: Arc::new(move || Ok((*loader_frag).clone())),
                    builder: Arc::new(|csr: &Arc<CsrMatrix>, _| {
                        Box::new(SerialCsr::new(csr.clone())) as Box<dyn SparseLinOp>
                    }),
                }
            })
            .collect()
    }

    fn dense_blocks(
        n: usize,
        block_rows: usize,
        seed: u64,
    ) -> (CooMatrix, CsrMatrix, Vec<ShardSpec>) {
        let mut state = seed.max(1);
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            for _ in 0..(rng() % 4) {
                let j = (rng() as usize) % n;
                coo.push(i, j, (rng() % 17) as f64 - 8.0);
            }
        }
        coo.sort_and_dedup();
        let full = CsrMatrix::from_coo(&coo);
        let specs = serial_specs(&full, block_rows);
        (coo, full, specs)
    }

    fn assert_matches(op: &ShardedOp, reference: &CsrMatrix) {
        let serial = SerialCsr::new(Arc::new(reference.clone()));
        for apply in Apply::ALL {
            let (out, inp) = apply.out_in(op.shape());
            let x: Vec<f64> = (0..inp).map(|i| (i % 7) as f64 - 3.0).collect();
            let mut got = vec![0.0; out];
            let mut want = vec![0.0; out];
            op.apply(apply, &x, &mut got);
            serial.apply(apply, &x, &mut want);
            for (g, w) in got.iter().zip(&want) {
                assert!((g - w).abs() <= 1e-12 * w.abs().max(1.0), "{apply:?}");
            }
        }
    }

    #[test]
    fn matches_reference_across_windows() {
        let (_, full, specs) = dense_blocks(60, 13, 5);
        for window in [1, 2, 8] {
            let op = ShardedOp::new((60, 60), specs.clone(), window);
            assert_matches(&op, &full);
            assert!(op.cached_shards() <= window);
        }
    }

    #[test]
    fn deltas_are_visible_and_compaction_preserves_results() {
        let (mut coo, full, specs) = dense_blocks(40, 10, 9);
        let op = Arc::new(ShardedOp::new((40, 40), specs, 2).with_compaction_threshold(0.05));
        // Pre-delta sanity, then stage enough deltas to cross the threshold.
        assert_matches(&op, &full);
        for i in 0..30 {
            let (r, c, v) = (i % 40, (i * 7) % 40, i as f64 * 0.5 - 3.0);
            op.stage_delta(r, c, v);
            coo.push(r, c, v);
        }
        op.wait_for_compactions();
        assert!(op.compactions_completed() >= 1, "threshold must trigger");
        assert_matches(&op, &CsrMatrix::from_coo(&coo));
    }

    #[test]
    fn residency_stays_within_window() {
        let (_, _, specs) = dense_blocks(64, 8, 3);
        let op = ShardedOp::new((64, 64), specs, 2);
        reset_peak_resident_shard_bytes();
        let x = vec![1.0; 64];
        let mut y = vec![0.0; 64];
        for _ in 0..3 {
            op.apply(Apply::NoTrans, &x, &mut y);
        }
        assert!(op.cached_shards() <= 2);
        assert!(op.max_built_shard_bytes() > 0);
        assert!(
            peak_resident_shard_bytes() <= 2 * op.max_built_shard_bytes(),
            "peak {} > 2 x {}",
            peak_resident_shard_bytes(),
            op.max_built_shard_bytes()
        );
    }
}

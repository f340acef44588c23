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
//! - **Bounded window.** Built shard kernels live in a cache of capacity
//!   `window`; a miss evicts *before* building the next shard, so accounted
//!   residency never exceeds `window · max_shard_bytes` (see
//!   [`resident_shard_bytes`]). The victim is the resident shard that is
//!   cheapest to rebuild — fewest base nonzeros, ties to the least recently
//!   used — because the loader's copy and every builder scale with nnz.
//! - **Resident first.** Forward applies (`NoTrans`) visit the shards that
//!   are already built before the rest, each group in row order; forward
//!   shards write disjoint rows of `y`, so the output does not depend on
//!   the order. Transposed applies keep row order so their cross-shard sums
//!   stay bit-reproducible from call to call. Together with the eviction
//!   rule, once the first apply has filled the window the `window − 1`
//!   shards with the most nonzeros are never evicted, and every further
//!   forward apply builds exactly `nshards − window` shards (none at
//!   `window ≥ nshards`). Plain LRU under the same full-matrix scan would
//!   rebuild all `nshards` on every apply.
//! - **Prefetch.** With `window ≥ 2`, an apply that still has to load some
//!   shard from its loader runs a staging thread that loads raw CSR one
//!   step ahead of the compute loop, in the visit order (depth 1, so
//!   streaming adds at most two transient fragments on top of the window);
//!   an apply over an all-resident window spawns no thread. Kernel *builds*
//!   and *applies* stay on the calling thread, and all pool work is
//!   serialized on an internal gate, so a background compaction build never
//!   interleaves its pool runs with an apply's.
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

/// A fragment prefetched by the staging thread, with the shard generation
/// it was loaded at.
type Staged = (u64, CsrMatrix);

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
    /// Eviction cost: `ShardState::base_nnz`, mirrored outside the state
    /// lock so `make_room` can rank victims under the LRU lock alone.
    cost: AtomicUsize,
    state: Mutex<ShardState>,
}

#[derive(Default)]
struct Maintenance {
    in_flight: Mutex<usize>,
    done: Condvar,
}

/// The streaming out-of-core operator: row-block shards through a bounded
/// window with depth-1 prefetch, an additive COO delta overlay, and
/// background threshold-triggered compaction.
///
/// The window evicts the cheapest shard to rebuild (fewest base nonzeros,
/// ties to the least recently used), and forward applies visit resident
/// shards first. After the first apply fills the window, the `window − 1`
/// shards with the most nonzeros stay built and each further forward apply
/// builds `nshards − window` shards. See the module-level documentation
/// above for the full contract and an example.
pub struct ShardedOp {
    shape: (usize, usize),
    shards: Vec<Shard>,
    window: usize,
    compaction_threshold: f64,
    /// Recency order of cached shard indexes (front = coldest), the
    /// tie-break between equally cheap victims. Advisory:
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
                cost: AtomicUsize::new(s.nnz),
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
        shard.cost.store(st.base_nnz, Ordering::Relaxed);
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

    /// Evicts the cached shards that are cheapest to rebuild (fewest base
    /// nonzeros, ties to the least recently used) until the cache has room
    /// for one more entry. Never holds the LRU lock and a shard lock at once.
    fn make_room(&self) {
        while self.cached_count.load(Ordering::Relaxed) >= self.window {
            let victim = {
                let mut lru = self.lru.lock().expect("lru");
                // `min_by_key` keeps the first minimum: the coldest of ties.
                let Some(pos) = (0..lru.len())
                    .min_by_key(|&pos| self.shards[lru[pos]].cost.load(Ordering::Relaxed))
                else {
                    return;
                };
                lru.remove(pos)
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
    /// building (and evicting) as needed. `staged` optionally supplies the
    /// fragment the staging thread prefetched for `si`, tagged with the
    /// generation it was loaded at.
    fn acquire(
        &self,
        si: usize,
        mut staged: Option<Staged>,
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

            // A fragment staged before a compaction swap is stale.
            let csr = match (staged.take(), &source) {
                (Some((gen, fragment)), ShardSource::Loader(_)) if gen == generation => {
                    Arc::new(fragment)
                }
                _ => source.load(&self.shards[si].rows),
            };

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

    /// Runs `visit` over every shard once. With `resident_first` the shards
    /// already built come first, then the rest, each group in row order;
    /// otherwise the order is row order. When the window allows it and some
    /// shard not yet built still has to come from its loader, a staging
    /// thread prefetches raw fragments one step ahead in the same order.
    fn stream(
        &self,
        resident_first: bool,
        mut visit: impl FnMut(usize, &Arc<dyn SparseLinOp>, &[(usize, usize, f64)]),
    ) {
        let n = self.shards.len();
        let mut built = Vec::with_capacity(n);
        let mut needs_loader = false;
        for shard in &self.shards {
            let st = shard.state.lock().expect("shard state");
            built.push(st.cached.is_some());
            needs_loader |= st.cached.is_none() && matches!(st.source, ShardSource::Loader(_));
        }
        let mut order: Vec<usize> = (0..n).collect();
        if resident_first {
            order.sort_by_key(|&si| !built[si]); // stable: row order within groups
        }

        if self.window >= 2 && n > 1 && needs_loader {
            std::thread::scope(|s| {
                // One message per visited shard, in visit order: `None` when
                // the shard needs no load (built, compacted) or its load
                // failed, which the compute loop then redoes inline.
                let (tx, rx) = mpsc::sync_channel::<Option<Staged>>(1);
                let order = &order;
                s.spawn(move || {
                    for &si in order {
                        let staged = {
                            let st = self.shards[si].state.lock().expect("shard state");
                            match &st.source {
                                ShardSource::Loader(f) if st.cached.is_none() => {
                                    Some((f.clone(), st.generation))
                                }
                                _ => None,
                            }
                        };
                        let fragment =
                            staged.and_then(|(loader, gen)| loader().ok().map(|m| (gen, m)));
                        if tx.send(fragment).is_err() {
                            return; // apply finished without us
                        }
                    }
                });
                for &si in order {
                    let staged = rx.recv().ok().flatten();
                    let (op, overlay) = self.acquire(si, staged);
                    visit(si, &op, &overlay);
                }
                drop(rx); // unblock the staging thread before scope join
            });
        } else {
            for si in order {
                let (op, overlay) = self.acquire(si, None);
                visit(si, &op, &overlay);
            }
        }
    }

    fn forward(&self, x: &[f64], y: &mut [f64]) {
        self.stream(true, |si, op, overlay| {
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
        self.stream(false, |si, op, overlay| {
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
        self.stream(true, |si, op, overlay| {
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
        self.stream(false, |si, op, overlay| {
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

    /// Residency accounting is crate-global, so a test that reads the peak
    /// would see other tests' windows: every test here that builds shards
    /// holds this lock.
    fn serial_residency() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

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

    /// Shards of `rows_per_shard` rows whose row `r` holds `nnz_per_row[s]`
    /// entries, with a builder that counts its calls per shard.
    fn counted_specs(
        nnz_per_row: &[usize],
        rows_per_shard: usize,
    ) -> (usize, Vec<ShardSpec>, Arc<Vec<AtomicUsize>>) {
        let n = nnz_per_row.len() * rows_per_shard;
        let mut coo = CooMatrix::new(n, n);
        for (s, &per_row) in nnz_per_row.iter().enumerate() {
            for r in s * rows_per_shard..(s + 1) * rows_per_shard {
                for j in 0..per_row {
                    coo.push(r, (r * 7 + j * 13) % n, 1.0 + ((r + j) % 5) as f64 * 0.25);
                }
            }
        }
        coo.sort_and_dedup();
        let full = CsrMatrix::from_coo(&coo);
        let builds: Arc<Vec<AtomicUsize>> = Arc::new(
            (0..nnz_per_row.len())
                .map(|_| AtomicUsize::new(0))
                .collect(),
        );
        let specs = serial_specs(&full, rows_per_shard)
            .into_iter()
            .enumerate()
            .map(|(s, spec)| {
                let builds = builds.clone();
                ShardSpec {
                    builder: Arc::new(move |csr: &Arc<CsrMatrix>, _| {
                        builds[s].fetch_add(1, Ordering::Relaxed);
                        Box::new(SerialCsr::new(csr.clone())) as Box<dyn SparseLinOp>
                    }),
                    ..spec
                }
            })
            .collect();
        (n, specs, builds)
    }

    fn total(builds: &[AtomicUsize]) -> usize {
        builds.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Builder calls made while `apply` runs.
    fn builds_of(builds: &[AtomicUsize], apply: impl FnOnce()) -> usize {
        let before = total(builds);
        apply();
        total(builds) - before
    }

    fn forward_once(op: &ShardedOp, n: usize) {
        let x: Vec<f64> = (0..n).map(|i| (i % 5) as f64 - 2.0).collect();
        let mut y = vec![0.0; n];
        op.apply(Apply::NoTrans, &x, &mut y);
    }

    fn trans_once(op: &ShardedOp, n: usize) {
        let x: Vec<f64> = (0..n).map(|i| (i % 3) as f64 - 1.0).collect();
        let mut y = vec![0.0; n];
        op.apply(Apply::Trans, &x, &mut y);
    }

    fn forward_multi_once(op: &ShardedOp, n: usize) {
        let mut x = MultiVec::zeros(n, 3);
        for (i, v) in x.as_mut_slice().iter_mut().enumerate() {
            *v = (i % 7) as f64 - 3.0;
        }
        let mut y = MultiVec::zeros(n, 3);
        op.apply_multi(Apply::NoTrans, &x, &mut y);
    }

    #[test]
    fn builds_nshards_minus_window_with_distinct_nnz() {
        let _serial = serial_residency();
        // Eight shards of distinct nnz; the largest two are shards 2 and 4.
        let (n, specs, builds) = counted_specs(&[5, 1, 8, 3, 7, 2, 6, 4], 6);
        let op = ShardedOp::new((n, n), specs, 3);
        forward_once(&op, n);
        assert_eq!(total(&builds), 8, "the first apply builds every shard");
        for round in 0..4 {
            assert_eq!(
                builds_of(&builds, || forward_once(&op, n)),
                5,
                "apply {round}"
            );
            assert_eq!(builds_of(&builds, || forward_multi_once(&op, n)), 5);
            assert!(op.cached_shards() <= 3);
        }
        // Row-order transposed applies rebuild more, but the costliest
        // shards still never leave the window.
        trans_once(&op, n);
        trans_once(&op, n);
        for big in [2, 4] {
            assert_eq!(
                builds[big].load(Ordering::Relaxed),
                1,
                "shard {big} was rebuilt"
            );
        }
    }

    #[test]
    fn builds_nshards_minus_window_with_equal_nnz() {
        let _serial = serial_residency();
        for window in [2, 3, 5] {
            let (n, specs, builds) = counted_specs(&[3; 8], 5);
            let op = ShardedOp::new((n, n), specs, window);
            forward_once(&op, n);
            for _ in 0..3 {
                assert_eq!(builds_of(&builds, || forward_once(&op, n)), 8 - window);
                assert_eq!(
                    builds_of(&builds, || forward_multi_once(&op, n)),
                    8 - window
                );
            }
        }
    }

    #[test]
    fn builds_at_window_extremes() {
        let _serial = serial_residency();
        // Window 1: a forward apply rebuilds all but the shard the previous
        // apply left resident; a row-order transposed apply rebuilds all.
        let (n, specs, builds) = counted_specs(&[4, 2, 6, 1, 3], 4);
        let op = ShardedOp::new((n, n), specs, 1);
        forward_once(&op, n);
        for _ in 0..3 {
            assert_eq!(builds_of(&builds, || forward_once(&op, n)), 4);
            assert_eq!(builds_of(&builds, || trans_once(&op, n)), 5);
        }
        // Window >= nshards: nothing is rebuilt after warm-up.
        for window in [5, 9] {
            let (n, specs, builds) = counted_specs(&[4, 2, 6, 1, 3], 4);
            let op = ShardedOp::new((n, n), specs, window);
            forward_once(&op, n);
            assert_eq!(builds_of(&builds, || forward_once(&op, n)), 0);
            assert_eq!(builds_of(&builds, || trans_once(&op, n)), 0);
            assert_eq!(builds_of(&builds, || forward_multi_once(&op, n)), 0);
        }
    }

    #[test]
    fn builds_rank_a_compacted_shard_by_its_merged_nnz() {
        let _serial = serial_residency();
        // Shard 1 starts cheapest (6 nnz) and compacts to the largest.
        let (n, specs, builds) = counted_specs(&[4, 1, 3, 2], 6);
        let op = Arc::new(ShardedOp::new((n, n), specs, 2).with_compaction_threshold(10.0));
        forward_once(&op, n);
        for i in 0..61 {
            op.stage_delta(6 + i / 11, (i % 11) * 2, 0.5);
        }
        op.wait_for_compactions();
        assert_eq!(op.compactions_completed(), 1);
        forward_once(&op, n);
        let settled = builds[1].load(Ordering::Relaxed);
        for _ in 0..3 {
            assert_eq!(builds_of(&builds, || forward_once(&op, n)), 2);
        }
        assert_eq!(
            builds[1].load(Ordering::Relaxed),
            settled,
            "shard 1 was rebuilt"
        );
    }

    #[test]
    fn bit_identical_forward_across_windows() {
        let _serial = serial_residency();
        let (_, full, specs) = dense_blocks(96, 12, 17);
        let streamed = ShardedOp::new((96, 96), specs.clone(), 3);
        let resident = ShardedOp::new((96, 96), specs, 8);
        let x: Vec<f64> = (0..96)
            .map(|i| ((i * 37) % 11) as f64 * 0.37 - 1.5)
            .collect();
        let mut want = vec![0.0; 96];
        resident.apply(Apply::NoTrans, &x, &mut want);
        let mut xm = MultiVec::zeros(96, 4);
        for (i, v) in xm.as_mut_slice().iter_mut().enumerate() {
            *v = ((i * 13) % 9) as f64 * 0.61 - 2.0;
        }
        let mut want_m = MultiVec::zeros(96, 4);
        resident.apply_multi(Apply::NoTrans, &xm, &mut want_m);
        // Several applies, so later ones run in resident-first order.
        for _ in 0..3 {
            let mut got = vec![f64::NAN; 96];
            streamed.apply(Apply::NoTrans, &x, &mut got);
            assert_eq!(bits(&got), bits(&want));
            let mut got_m = MultiVec::zeros(96, 4);
            streamed.apply_multi(Apply::NoTrans, &xm, &mut got_m);
            assert_eq!(bits(got_m.as_slice()), bits(want_m.as_slice()));
        }
        assert_matches(&streamed, &full);
    }

    #[test]
    fn bit_identical_repeated_trans() {
        let _serial = serial_residency();
        let (_, _, specs) = dense_blocks(96, 12, 23);
        let op = ShardedOp::new((96, 96), specs, 3);
        let x: Vec<f64> = (0..96)
            .map(|i| ((i * 29) % 13) as f64 * 0.41 - 2.5)
            .collect();
        let mut first = vec![0.0; 96];
        let mut second = vec![0.0; 96];
        op.apply(Apply::Trans, &x, &mut first);
        op.apply(Apply::Trans, &x, &mut second);
        assert_eq!(bits(&first), bits(&second));
        let mut xm = MultiVec::zeros(96, 2);
        for (i, v) in xm.as_mut_slice().iter_mut().enumerate() {
            *v = ((i * 7) % 5) as f64 * 0.73 - 1.0;
        }
        let mut first_m = MultiVec::zeros(96, 2);
        let mut second_m = MultiVec::zeros(96, 2);
        op.apply_multi(Apply::Trans, &xm, &mut first_m);
        op.apply_multi(Apply::Trans, &xm, &mut second_m);
        assert_eq!(bits(first_m.as_slice()), bits(second_m.as_slice()));
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
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
        let _serial = serial_residency();
        let (_, full, specs) = dense_blocks(60, 13, 5);
        for window in [1, 2, 8] {
            let op = ShardedOp::new((60, 60), specs.clone(), window);
            assert_matches(&op, &full);
            assert!(op.cached_shards() <= window);
        }
    }

    #[test]
    fn deltas_are_visible_and_compaction_preserves_results() {
        let _serial = serial_residency();
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
        let _serial = serial_residency();
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

//! Sparse triangular solve (SpTRSV) — the second member of the sparse kernel
//! family next to SpMV (the kease reference treats SpMV, SpTRSV, and SymGS
//! as one family), and the compute core of the incomplete-factorization
//! preconditioners in `sparseopt-solver`.
//!
//! Solving `L x = b` (or `U x = b`) is **dependency-bound**, not
//! bandwidth/latency/imbalance-bound like SpMV: row `i` cannot be solved
//! before every row it references. The dependency DAG is exposed by *level
//! scheduling* ([`LevelSets`]): level 0 holds the rows with no off-diagonal
//! dependencies, level `ℓ` the rows whose deepest dependency sits in level
//! `ℓ − 1`. Rows **within** a level are independent, so the kernel solves
//! them pool-parallel with one barrier per level. The shape of the DAG —
//! level count × average level width — decides whether that pays:
//! a banded triangle degenerates to `n` single-row levels (serial chain,
//! [`TrsvAlgo::Serial`] wins), while stencil/random triangles have wide
//! levels where [`TrsvAlgo::LevelScheduled`] approaches `nthreads`-way
//! speedup. The `sparseopt-sim` crate models exactly this trade
//! (`simulate_trsv`), and [`TrsvAlgo::Auto`] applies a host-side heuristic.
//!
//! The kernel stores the triangle split at construction: the strict
//! triangle (every stored entry a dependency) plus the reciprocal of the
//! diagonal. The per-row substitution is then a branch-free multiply-add
//! loop and one multiply, `x_i = (b_i − Σ_{j≠i} a_ij·x_j) · (1 / a_ii)`,
//! with no divide on the dependency chain. A serial solve of one
//! right-hand side runs it over plain slices; the level-scheduled path and
//! multi-vector solves go through shared raw pointers.
//!
//! **Bit-identical guarantee**: both algorithms run the *same* per-row
//! substitution (entries in storage order, the one reciprocal multiply).
//! Level scheduling only reorders *whole rows* whose inputs are final
//! either way, so the level-scheduled solution is bit-identical to serial
//! substitution — pinned by the equivalence suite. (It is not bit-identical
//! to a divide by `a_ii`: the reciprocal rounds once more.)

use super::super::util::SendMutPtr;
use crate::csr::CsrMatrix;
use crate::multivec::MultiVec;
use crate::pool::ExecCtx;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Which triangle the operand matrix is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrsvDirection {
    /// Lower triangular (`col <= row`): forward substitution, rows solved in
    /// ascending dependency order.
    Lower,
    /// Upper triangular (`col >= row`): backward substitution.
    Upper,
}

/// Execution algorithm for the solve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrsvAlgo {
    /// Plain forward/backward substitution on one thread — optimal for
    /// serial-chain DAGs (bands) and the reference the level-scheduled path
    /// must match bit-for-bit.
    Serial,
    /// Level-scheduled: rows within a level solved pool-parallel, one spin
    /// barrier per level.
    LevelScheduled,
    /// Pick per matrix: level-scheduled when the DAG is wide enough for the
    /// per-level barrier to amortize on this context's thread count.
    Auto,
}

/// Construction-time validation failure of a triangular operand.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrsvError {
    /// The matrix is not square.
    NotSquare,
    /// A stored entry lies on the wrong side of the diagonal.
    NotTriangular {
        /// Offending row.
        row: usize,
    },
    /// A non-unit solve found a zero (or absent) diagonal in this row.
    ZeroDiagonal {
        /// Offending row.
        row: usize,
    },
}

impl std::fmt::Display for TrsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrsvError::NotSquare => write!(f, "triangular solve needs a square matrix"),
            TrsvError::NotTriangular { row } => {
                write!(f, "row {row} has an entry outside the triangle")
            }
            TrsvError::ZeroDiagonal { row } => {
                write!(f, "row {row} has a zero diagonal (non-unit solve)")
            }
        }
    }
}

impl std::error::Error for TrsvError {}

/// Level sets of a triangular matrix's dependency DAG.
///
/// `level_ptr[ℓ]..level_ptr[ℓ+1]` delimits level `ℓ`'s rows inside the
/// `rows` permutation; every row's off-diagonal dependencies live in
/// strictly earlier levels. Built once per matrix in `O(NNZ)`.
#[derive(Clone, Debug)]
pub struct LevelSets {
    level_ptr: Vec<usize>,
    rows: Vec<u32>,
}

impl LevelSets {
    /// Computes the level sets of `csr` interpreted as the given triangle.
    /// Entries on the wrong side of the diagonal are ignored here
    /// (construction via [`TrsvKernel`] rejects them before this runs).
    pub fn build(csr: &CsrMatrix, direction: TrsvDirection) -> Self {
        let n = csr.nrows();
        let mut level = vec![0u32; n];
        let mut nlevels = 0u32;
        let order: Box<dyn Iterator<Item = usize>> = match direction {
            TrsvDirection::Lower => Box::new(0..n),
            TrsvDirection::Upper => Box::new((0..n).rev()),
        };
        for i in order {
            let mut lv = 0u32;
            for &c in csr.row_cols(i) {
                let c = c as usize;
                let dep = match direction {
                    TrsvDirection::Lower => c < i,
                    TrsvDirection::Upper => c > i,
                };
                if dep {
                    lv = lv.max(level[c] + 1);
                }
            }
            level[i] = lv;
            nlevels = nlevels.max(lv + 1);
        }
        let nlevels = if n == 0 { 0 } else { nlevels as usize };
        // Bucket rows by level (counting sort keeps rows ascending within a
        // level — deterministic, and cache-friendly chunks for the solver).
        let mut level_ptr = vec![0usize; nlevels + 1];
        for &lv in &level {
            level_ptr[lv as usize + 1] += 1;
        }
        for l in 0..nlevels {
            level_ptr[l + 1] += level_ptr[l];
        }
        let mut cursor = level_ptr.clone();
        let mut rows = vec![0u32; n];
        for (i, &lv) in level.iter().enumerate() {
            let lv = lv as usize;
            rows[cursor[lv]] = i as u32;
            cursor[lv] += 1;
        }
        Self { level_ptr, rows }
    }

    /// Number of levels (the DAG's critical-path length).
    #[inline]
    pub fn nlevels(&self) -> usize {
        self.level_ptr.len().saturating_sub(1)
    }

    /// Rows of level `l`, in ascending row order.
    #[inline]
    pub fn level_rows(&self, l: usize) -> &[u32] {
        &self.rows[self.level_ptr[l]..self.level_ptr[l + 1]]
    }

    /// Mean rows per level — the DAG-width summary the selection heuristic
    /// and the sim's dependency-bound model key on.
    pub fn avg_width(&self) -> f64 {
        if self.nlevels() == 0 {
            0.0
        } else {
            self.rows.len() as f64 / self.nlevels() as f64
        }
    }

    /// Row counts per level (the sim profile's input).
    pub fn level_row_counts(&self) -> Vec<usize> {
        (0..self.nlevels())
            .map(|l| self.level_ptr[l + 1] - self.level_ptr[l])
            .collect()
    }
}

/// A reusable sense-reversing spin barrier for the inter-level
/// synchronization. `std::sync::Barrier` parks threads through a mutex +
/// condvar — microseconds per wait — which would eat the level-parallel win
/// on the thousands of short levels real triangles have; spinning costs
/// ~100 ns on the core counts this pool runs.
struct SpinBarrier {
    count: AtomicUsize,
    generation: AtomicUsize,
    n: usize,
}

impl SpinBarrier {
    fn new(n: usize) -> Self {
        Self {
            count: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            n,
        }
    }

    #[inline]
    fn wait(&self) {
        let gen = self.generation.load(Ordering::Acquire);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            self.count.store(0, Ordering::Relaxed);
            self.generation.fetch_add(1, Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == gen {
                spins += 1;
                if spins < 1 << 12 {
                    std::hint::spin_loop();
                } else {
                    // Oversubscribed pool (more workers than cores): yield so
                    // the straggler can run at all.
                    std::thread::yield_now();
                }
            }
        }
    }
}

/// Average level width below which level scheduling cannot amortize its
/// per-level barrier against the rows it parallelizes (per thread).
const AUTO_WIDTH_PER_THREAD: f64 = 8.0;

/// The sparse triangular solve kernel: `x = T⁻¹ b` for a lower or upper
/// triangular CSR matrix, with serial substitution and a level-scheduled
/// pool-parallel path that is bit-identical to it.
///
/// ```
/// use sparseopt_core::prelude::*;
/// use std::sync::Arc;
///
/// // L = [2 0; 1 4]: forward substitution gives x = [1, 1].
/// let mut coo = CooMatrix::new(2, 2);
/// for (r, c, v) in [(0, 0, 2.0), (1, 0, 1.0), (1, 1, 4.0)] {
///     coo.push(r, c, v);
/// }
/// let l = Arc::new(CsrMatrix::from_coo(&coo));
/// let solver = TrsvKernel::try_new(
///     l, TrsvDirection::Lower, false, TrsvAlgo::Auto, ExecCtx::new(1),
/// ).expect("valid triangle");
/// let mut x = vec![0.0; 2];
/// solver.solve(&[2.0, 5.0], &mut x);
/// assert_eq!(x, vec![1.0, 1.0]);
/// ```
pub struct TrsvKernel {
    /// The operand without its diagonal: every stored entry is a
    /// dependency. The full triangle is not kept.
    strict: CsrMatrix,
    /// `1 / a_ii` per row; all ones for a unit-diagonal solve.
    inv_diag: Vec<f64>,
    direction: TrsvDirection,
    unit_diag: bool,
    levels: LevelSets,
    /// Per-level per-thread chunk boundaries into `levels.rows`
    /// (`nlevels · (nthreads + 1)` absolute offsets, nnz-balanced).
    chunks: Vec<usize>,
    algo: TrsvAlgo,
    ctx: Arc<ExecCtx>,
}

impl TrsvKernel {
    /// Builds the solver, validating shape, triangularity, and (for non-unit
    /// solves) a zero-free diagonal. Duplicate diagonal entries are summed,
    /// like [`CsrMatrix::diagonal`]; a unit-diagonal solve ignores stored
    /// diagonal entries. The solver keeps the strict triangle and the
    /// reciprocal diagonal and drops its handle on `matrix`.
    /// `TrsvAlgo::Auto` resolves to level-scheduled when the context has
    /// more than one thread and the DAG is wide enough to amortize the
    /// per-level barrier; a one-thread context always resolves to serial.
    pub fn try_new(
        matrix: Arc<CsrMatrix>,
        direction: TrsvDirection,
        unit_diag: bool,
        algo: TrsvAlgo,
        ctx: Arc<ExecCtx>,
    ) -> Result<Self, TrsvError> {
        if matrix.nrows() != matrix.ncols() {
            return Err(TrsvError::NotSquare);
        }
        let n = matrix.nrows();
        let mut inv_diag = vec![1.0f64; n];
        for (i, inv) in inv_diag.iter_mut().enumerate() {
            for &c in matrix.row_cols(i) {
                let c = c as usize;
                let outside = match direction {
                    TrsvDirection::Lower => c > i,
                    TrsvDirection::Upper => c < i,
                };
                if outside {
                    return Err(TrsvError::NotTriangular { row: i });
                }
            }
            if unit_diag {
                continue;
            }
            let mut d = 0.0;
            for (&c, &v) in matrix.row_cols(i).iter().zip(matrix.row_vals(i)) {
                if c as usize == i {
                    d += v;
                }
            }
            if d == 0.0 {
                return Err(TrsvError::ZeroDiagonal { row: i });
            }
            *inv = 1.0 / d;
        }
        // In place when the caller handed over its only handle.
        let strict = Arc::try_unwrap(matrix)
            .unwrap_or_else(|shared| (*shared).clone())
            .without_diagonal();

        let levels = LevelSets::build(&strict, direction);
        let nthreads = ctx.nthreads();
        let algo = match algo {
            TrsvAlgo::Auto => {
                if nthreads > 1 && levels.avg_width() >= AUTO_WIDTH_PER_THREAD * nthreads as f64 {
                    TrsvAlgo::LevelScheduled
                } else {
                    TrsvAlgo::Serial
                }
            }
            TrsvAlgo::LevelScheduled if nthreads == 1 => TrsvAlgo::Serial,
            a => a,
        };

        // Work-balanced contiguous chunks of each level's row list: the rows
        // of a level are independent, so any split is correct; balancing on
        // nonzeros keeps skewed levels from serializing on one thread. Each
        // row weighs `nnz + 1` — the `+1` charges the per-row multiply/store
        // and, crucially, keeps every weight positive: with zero weights an
        // empty row could fall past the last boundary and never be solved,
        // leaving its output unwritten.
        let mut chunks = Vec::new();
        if algo == TrsvAlgo::LevelScheduled {
            chunks.reserve(levels.nlevels() * (nthreads + 1));
            for l in 0..levels.nlevels() {
                let rows = levels.level_rows(l);
                let base = levels.level_ptr[l];
                let total: usize = rows.iter().map(|&i| strict.row_nnz(i as usize) + 1).sum();
                chunks.push(base);
                let mut acc = 0usize;
                let mut idx = 0usize;
                for t in 1..=nthreads {
                    let target = total * t / nthreads;
                    while idx < rows.len() && acc < target {
                        acc += strict.row_nnz(rows[idx] as usize) + 1;
                        idx += 1;
                    }
                    chunks.push(base + idx);
                }
            }
        }

        Ok(Self {
            strict,
            inv_diag,
            direction,
            unit_diag,
            levels,
            chunks,
            algo,
            ctx,
        })
    }

    /// Serial-substitution solver over a fresh one-thread context — the
    /// reference implementation and the fallback for narrow DAGs.
    pub fn serial(
        matrix: Arc<CsrMatrix>,
        direction: TrsvDirection,
        unit_diag: bool,
    ) -> Result<Self, TrsvError> {
        Self::try_new(
            matrix,
            direction,
            unit_diag,
            TrsvAlgo::Serial,
            ExecCtx::new(1),
        )
    }

    /// Dimension of the (square) triangle.
    pub fn nrows(&self) -> usize {
        self.strict.nrows()
    }

    /// The resolved execution algorithm (never `Auto`).
    pub fn algo(&self) -> TrsvAlgo {
        self.algo
    }

    /// The dependency DAG's level structure.
    pub fn levels(&self) -> &LevelSets {
        &self.levels
    }

    /// Solve direction.
    pub fn direction(&self) -> TrsvDirection {
        self.direction
    }

    /// Display name, e.g. `sptrsv-lower[level:41]` or `sptrsv-upper[serial]`.
    pub fn name(&self) -> String {
        let dir = match self.direction {
            TrsvDirection::Lower => "lower",
            TrsvDirection::Upper => "upper",
        };
        match self.algo {
            TrsvAlgo::Serial => format!("sptrsv-{dir}[serial]"),
            TrsvAlgo::LevelScheduled => {
                format!("sptrsv-{dir}[level:{}]", self.levels.nlevels())
            }
            TrsvAlgo::Auto => unreachable!("Auto resolves at construction"),
        }
    }

    /// Flop count of one solve with `k` right-hand sides: two per
    /// off-diagonal entry and per non-unit diagonal, like SpMV over the
    /// triangle.
    pub fn flops(&self, k: usize) -> f64 {
        let diag = if self.unit_diag { 0 } else { self.nrows() };
        2.0 * (self.strict.nnz() + diag) as f64 * k as f64
    }

    /// Per-thread wall times of the most recent solve.
    pub fn last_thread_times(&self) -> Vec<Duration> {
        self.ctx.last_thread_times()
    }

    /// Solves `T x = b`.
    ///
    /// # Panics
    /// Panics if `b` or `x` length differs from the matrix dimension.
    pub fn solve(&self, b: &[f64], x: &mut [f64]) {
        let n = self.nrows();
        assert_eq!(b.len(), n, "b length mismatch");
        assert_eq!(x.len(), n, "x length mismatch");
        self.execute(Some(b), 1, x);
    }

    /// Solves `T x = b` in place: `x` holds `b` on entry and the solution on
    /// return, bit-identical to [`Self::solve`].
    ///
    /// # Panics
    /// Panics if `x` length differs from the matrix dimension.
    pub fn solve_in_place(&self, x: &mut [f64]) {
        assert_eq!(x.len(), self.nrows(), "x length mismatch");
        self.execute(None, 1, x);
    }

    /// Solves `T X = B` column-wise over row-major multi-vectors — the
    /// block-Krylov preconditioners' entry point.
    ///
    /// # Panics
    /// Panics if shapes disagree.
    pub fn solve_multi(&self, b: &MultiVec, x: &mut MultiVec) {
        let n = self.nrows();
        assert_eq!(b.nrows(), n, "B row count mismatch");
        assert_eq!(x.nrows(), n, "X row count mismatch");
        assert_eq!(b.width(), x.width(), "width mismatch");
        self.execute(Some(b.as_slice()), b.width(), x.as_mut_slice());
    }

    /// In-place [`Self::solve_multi`]: `x` holds `B` on entry and `X` on
    /// return.
    ///
    /// # Panics
    /// Panics if `x` row count differs from the matrix dimension.
    pub fn solve_multi_in_place(&self, x: &mut MultiVec) {
        assert_eq!(x.nrows(), self.nrows(), "X row count mismatch");
        let k = x.width();
        self.execute(None, k, x.as_mut_slice());
    }

    /// The shared per-row substitution: a multiply-add per strict-triangle
    /// entry in storage order ([`row_residual`]), then one multiply by the
    /// reciprocal diagonal. Every path runs exactly this arithmetic, which
    /// is what makes them bit-identical.
    ///
    /// # Safety
    /// `b` and `x` must point to `n · k` elements. Requires `x` reads/writes
    /// to be race-free: row `i` is written by exactly one thread and its
    /// dependencies are final (same level ⇒ independent; earlier level ⇒
    /// published by the barrier). `b` may alias `x`: row `i` reads `b`
    /// only at its own slots, before writing them.
    #[inline]
    unsafe fn solve_row(&self, i: usize, b: &SendMutPtr<f64>, k: usize, x: &SendMutPtr<f64>) {
        let cols = self.strict.row_cols(i);
        let vals = self.strict.row_vals(i);
        let inv = self.inv_diag[i];
        for j in 0..k {
            let s = row_residual(unsafe { b.read(i * k + j) }, cols, vals, |c| unsafe {
                x.read(c * k + j)
            });
            unsafe { x.write(i * k + j, s * inv) };
        }
    }

    /// Serial substitution of one right-hand side over plain slices, from
    /// `b` into `x` or in place on `x`.
    ///
    /// The same arithmetic as [`Self::solve_row`] without its raw pointers
    /// and `c·k + j` indexing, so the compiler sees that `b` and `x` do not
    /// overlap. On a 2-vCPU VM the pointer form ran an IC(0) apply at
    /// 13 ns per row in some seconds and 24 ns in others, with the host's
    /// load; this form stays between 12 and 16 ns.
    fn solve_serial_single(&self, b: Option<&[f64]>, x: &mut [f64]) {
        let n = self.nrows();
        let rowptr = self.strict.rowptr();
        let (cols, vals) = (self.strict.colind(), self.strict.values());
        let row = |i: usize, x: &mut [f64]| {
            let (lo, hi) = (rowptr[i], rowptr[i + 1]);
            let s = b.map_or(x[i], |b| b[i]);
            x[i] = row_residual(s, &cols[lo..hi], &vals[lo..hi], |c| x[c]) * self.inv_diag[i];
        };
        match self.direction {
            TrsvDirection::Lower => (0..n).for_each(|i| row(i, x)),
            TrsvDirection::Upper => (0..n).rev().for_each(|i| row(i, x)),
        }
    }

    /// Solves into `x` (`n · k` elements, checked by the callers) from `b`,
    /// or in place from `x` itself when `b` is `None`. In place, a row
    /// reads another row's slot only when that row is a dependency, by
    /// which time the slot holds its solution, so aliasing changes no
    /// result.
    fn execute(&self, b: Option<&[f64]>, k: usize, x: &mut [f64]) {
        let n = self.nrows();
        let len = x.len();
        let xp = SendMutPtr::new(x);
        // Only read through. In place it is derived from `xp` itself, so
        // both pointers share one provenance.
        let bp = SendMutPtr(b.map_or(xp.0, |b| b.as_ptr().cast_mut()));
        match self.algo {
            TrsvAlgo::Serial => {
                // Run on the pool (thread 0 does the chain) so
                // `last_thread_times` covers the solve like every kernel.
                self.ctx.run(|tid| {
                    if tid != 0 {
                        return;
                    }
                    if k == 1 {
                        // SAFETY: `xp` came from the `&mut x` this call
                        // holds, and only this arm touches it.
                        let x = unsafe { std::slice::from_raw_parts_mut(xp.0, len) };
                        self.solve_serial_single(b, x);
                        return;
                    }
                    match self.direction {
                        TrsvDirection::Lower => {
                            for i in 0..n {
                                // SAFETY: single writer, dependencies already
                                // solved by the ascending order.
                                unsafe { self.solve_row(i, &bp, k, &xp) };
                            }
                        }
                        TrsvDirection::Upper => {
                            for i in (0..n).rev() {
                                // SAFETY: as above, descending order.
                                unsafe { self.solve_row(i, &bp, k, &xp) };
                            }
                        }
                    }
                });
            }
            TrsvAlgo::LevelScheduled => {
                let nthreads = self.ctx.nthreads();
                let barrier = SpinBarrier::new(nthreads);
                let stride = nthreads + 1;
                self.ctx.run(|tid| {
                    for l in 0..self.levels.nlevels() {
                        let start = self.chunks[l * stride + tid];
                        let end = self.chunks[l * stride + tid + 1];
                        for &i in &self.levels.rows[start..end] {
                            // SAFETY: rows within a level are independent and
                            // dispensed to exactly one thread; cross-level
                            // reads are published by the barrier below.
                            unsafe { self.solve_row(i as usize, &bp, k, &xp) };
                        }
                        barrier.wait();
                    }
                });
            }
            TrsvAlgo::Auto => unreachable!("Auto resolves at construction"),
        }
    }
}

/// `s − Σ v·x(c)` over one row's strict-triangle entries in storage
/// order: the accumulation every substitution path shares.
#[inline(always)]
fn row_residual(mut s: f64, cols: &[u32], vals: &[f64], x: impl Fn(usize) -> f64) -> f64 {
    for (&c, &v) in cols.iter().zip(vals) {
        s -= v * x(c as usize);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    /// Dense reference forward/backward substitution.
    fn dense_solve(m: &CsrMatrix, dir: TrsvDirection, unit: bool, b: &[f64]) -> Vec<f64> {
        let n = m.nrows();
        let mut a = vec![vec![0.0f64; n]; n];
        let mut d = vec![0.0f64; n];
        for (i, c, v) in m.iter() {
            if c == i {
                d[i] += v;
            } else {
                a[i][c] += v;
            }
        }
        let mut x = vec![0.0; n];
        let order: Vec<usize> = match dir {
            TrsvDirection::Lower => (0..n).collect(),
            TrsvDirection::Upper => (0..n).rev().collect(),
        };
        for &i in &order {
            let mut s = b[i];
            for j in 0..n {
                s -= a[i][j] * x[j];
            }
            x[i] = if unit { s } else { s / d[i] };
        }
        x
    }

    fn lower_band(n: usize, band: usize) -> Arc<CsrMatrix> {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0 + (i % 5) as f64);
            for j in i.saturating_sub(band)..i {
                coo.push(i, j, 0.5 + ((i * 7 + j) % 3) as f64 * 0.25);
            }
        }
        Arc::new(CsrMatrix::from_coo(&coo))
    }

    /// Random sparse lower triangle with a wide, shallow dependency DAG.
    fn lower_random(n: usize, deg: usize, seed: u64) -> Arc<CsrMatrix> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 3.0 + (i % 7) as f64);
            for _ in 0..deg.min(i) {
                let j = (next() as usize) % i;
                coo.push(i, j, 0.125 + (next() % 8) as f64 * 0.0625);
            }
        }
        Arc::new(CsrMatrix::from_coo(&coo))
    }

    #[test]
    fn level_sets_of_a_band_are_a_chain() {
        let m = lower_band(64, 2);
        let levels = LevelSets::build(&m, TrsvDirection::Lower);
        assert_eq!(levels.nlevels(), 64);
        assert!((levels.avg_width() - 1.0).abs() < 1e-12);
        for l in 0..64 {
            assert_eq!(levels.level_rows(l), &[l as u32]);
        }
    }

    #[test]
    fn level_sets_of_a_diagonal_are_one_level() {
        let mut coo = CooMatrix::new(8, 8);
        for i in 0..8 {
            coo.push(i, i, 1.0);
        }
        let m = CsrMatrix::from_coo(&coo);
        let levels = LevelSets::build(&m, TrsvDirection::Lower);
        assert_eq!(levels.nlevels(), 1);
        assert_eq!(levels.level_rows(0).len(), 8);
    }

    #[test]
    fn level_sets_respect_dependencies() {
        let m = lower_random(500, 4, 7);
        for dir in [TrsvDirection::Lower, TrsvDirection::Upper] {
            let levels = LevelSets::build(&m, dir);
            let mut level_of = vec![0usize; 500];
            for l in 0..levels.nlevels() {
                for &i in levels.level_rows(l) {
                    level_of[i as usize] = l;
                }
            }
            for (i, c, _) in m.iter() {
                let dep = match dir {
                    TrsvDirection::Lower => c < i,
                    TrsvDirection::Upper => c > i,
                };
                if dep {
                    assert!(level_of[c] < level_of[i], "dep ({i},{c}) not ordered");
                }
            }
        }
    }

    #[test]
    fn serial_matches_dense_reference() {
        let m = lower_random(200, 5, 3);
        let b: Vec<f64> = (0..200).map(|i| (i as f64 * 0.37).sin() + 0.5).collect();
        let solver = TrsvKernel::serial(m.clone(), TrsvDirection::Lower, false).unwrap();
        let mut x = vec![f64::NAN; 200];
        solver.solve(&b, &mut x);
        let want = dense_solve(&m, TrsvDirection::Lower, false, &b);
        for (i, (a, w)) in x.iter().zip(&want).enumerate() {
            assert!(
                (a - w).abs() < 1e-9 * (1.0 + w.abs()),
                "row {i}: {a} vs {w}"
            );
        }
        // Residual check: L x == b.
        use crate::kernels::SparseLinOp;
        let mut lx = vec![0.0; 200];
        crate::kernels::SerialCsr::new(m).spmv(&x, &mut lx);
        for (v, bi) in lx.iter().zip(&b) {
            assert!((v - bi).abs() < 1e-9 * (1.0 + bi.abs()));
        }
    }

    #[test]
    fn level_scheduled_is_bit_identical_to_serial() {
        for seed in [1u64, 9, 42] {
            let m = lower_random(777, 6, seed);
            let b: Vec<f64> = (0..777)
                .map(|i| ((i * 13 % 101) as f64) * 0.017 - 0.5)
                .collect();
            let serial = TrsvKernel::serial(m.clone(), TrsvDirection::Lower, false).unwrap();
            let mut xs = vec![0.0; 777];
            serial.solve(&b, &mut xs);
            for nthreads in [2, 3, 4, 7] {
                let par = TrsvKernel::try_new(
                    m.clone(),
                    TrsvDirection::Lower,
                    false,
                    TrsvAlgo::LevelScheduled,
                    ExecCtx::new(nthreads),
                )
                .unwrap();
                assert_eq!(par.algo(), TrsvAlgo::LevelScheduled);
                let mut xp = vec![f64::NAN; 777];
                par.solve(&b, &mut xp);
                assert_eq!(xs, xp, "{nthreads} threads must be bit-identical");
            }
        }
    }

    #[test]
    fn upper_solve_matches_dense_reference() {
        // Transpose the random lower triangle into an upper one.
        let lower = lower_random(300, 4, 11);
        let mut coo = CooMatrix::new(300, 300);
        for (i, c, v) in lower.iter() {
            coo.push(c, i, v);
        }
        let upper = Arc::new(CsrMatrix::from_coo(&coo));
        let b: Vec<f64> = (0..300).map(|i| 1.0 + (i as f64 * 0.21).cos()).collect();
        let want = dense_solve(&upper, TrsvDirection::Upper, false, &b);
        for algo in [TrsvAlgo::Serial, TrsvAlgo::LevelScheduled] {
            let solver = TrsvKernel::try_new(
                upper.clone(),
                TrsvDirection::Upper,
                false,
                algo,
                ExecCtx::new(3),
            )
            .unwrap();
            let mut x = vec![f64::NAN; 300];
            solver.solve(&b, &mut x);
            for (i, (a, w)) in x.iter().zip(&want).enumerate() {
                assert!(
                    (a - w).abs() < 1e-9 * (1.0 + w.abs()),
                    "row {i}: {a} vs {w}"
                );
            }
        }
    }

    #[test]
    fn in_place_solves_match_out_of_place_bit_for_bit() {
        let lower = lower_random(400, 5, 17);
        let mut coo = CooMatrix::new(400, 400);
        for (i, c, v) in lower.iter() {
            coo.push(c, i, v);
        }
        let upper = Arc::new(CsrMatrix::from_coo(&coo));
        let k = 3;
        let bm = MultiVec::from_fn(400, k, |i, j| (i as f64 * 0.29 + j as f64).sin());
        let b = bm.column(1);
        for (m, dir) in [(lower, TrsvDirection::Lower), (upper, TrsvDirection::Upper)] {
            for algo in [TrsvAlgo::Serial, TrsvAlgo::LevelScheduled] {
                let solver =
                    TrsvKernel::try_new(m.clone(), dir, false, algo, ExecCtx::new(2)).unwrap();
                let mut want = vec![0.0; 400];
                solver.solve(&b, &mut want);
                let mut got = b.clone();
                solver.solve_in_place(&mut got);
                assert_eq!(got, want, "{dir:?} {algo:?}");

                let mut want_m = MultiVec::zeros(400, k);
                solver.solve_multi(&bm, &mut want_m);
                let mut got_m = bm.clone();
                solver.solve_multi_in_place(&mut got_m);
                assert_eq!(
                    got_m.as_slice(),
                    want_m.as_slice(),
                    "{dir:?} {algo:?} multi"
                );
            }
        }
    }

    #[test]
    fn unit_diagonal_skips_division_and_stored_diag() {
        // Strict lower triangle with unit diagonal implied (the ILU(0) L).
        let mut coo = CooMatrix::new(3, 3);
        coo.push(1, 0, 2.0);
        coo.push(2, 1, 3.0);
        let m = Arc::new(CsrMatrix::from_coo(&coo));
        let solver = TrsvKernel::serial(m, TrsvDirection::Lower, true).unwrap();
        let mut x = vec![0.0; 3];
        solver.solve(&[1.0, 1.0, 1.0], &mut x);
        // x0 = 1; x1 = 1 - 2·1 = -1; x2 = 1 - 3·(-1) = 4.
        assert_eq!(x, vec![1.0, -1.0, 4.0]);
    }

    #[test]
    fn multi_vector_solve_matches_columns() {
        let m = lower_random(150, 5, 21);
        let k = 4;
        let b = MultiVec::from_fn(150, k, |i, j| (i as f64 * 0.11 + j as f64 * 0.7).sin());
        for nthreads in [1, 4] {
            let solver = TrsvKernel::try_new(
                m.clone(),
                TrsvDirection::Lower,
                false,
                TrsvAlgo::LevelScheduled,
                ExecCtx::new(nthreads),
            )
            .unwrap();
            let mut x = MultiVec::zeros(150, k);
            solver.solve_multi(&b, &mut x);
            let single = TrsvKernel::serial(m.clone(), TrsvDirection::Lower, false).unwrap();
            for j in 0..k {
                let mut col = vec![0.0; 150];
                single.solve(&b.column(j), &mut col);
                for (i, ci) in col.iter().enumerate() {
                    let got = x.row(i)[j];
                    assert!(
                        (got - ci).abs() < 1e-12 * (1.0 + ci.abs()),
                        "({i},{j}): {got} vs {ci}"
                    );
                }
            }
        }
    }

    #[test]
    fn construction_rejects_bad_operands() {
        // Not square.
        let mut coo = CooMatrix::new(2, 3);
        coo.push(0, 0, 1.0);
        let rect = Arc::new(CsrMatrix::from_coo(&coo));
        assert_eq!(
            TrsvKernel::serial(rect, TrsvDirection::Lower, false).err(),
            Some(TrsvError::NotSquare)
        );
        // Entry above the diagonal in a lower solve.
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(0, 1, 5.0);
        coo.push(1, 1, 1.0);
        let m = Arc::new(CsrMatrix::from_coo(&coo));
        assert_eq!(
            TrsvKernel::serial(m.clone(), TrsvDirection::Lower, false).err(),
            Some(TrsvError::NotTriangular { row: 0 })
        );
        // ... which is a perfectly fine upper solve.
        assert!(TrsvKernel::serial(m, TrsvDirection::Upper, false).is_ok());
        // Zero diagonal on a non-unit solve.
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(1, 0, 1.0);
        let m = Arc::new(CsrMatrix::from_coo(&coo));
        assert_eq!(
            TrsvKernel::serial(m.clone(), TrsvDirection::Lower, false).err(),
            Some(TrsvError::ZeroDiagonal { row: 1 })
        );
        // Unit solves don't need the diagonal.
        assert!(TrsvKernel::serial(m, TrsvDirection::Lower, true).is_ok());
    }

    #[test]
    fn auto_resolves_by_dag_width() {
        // Band ⇒ serial chain even on many threads.
        let band = lower_band(512, 1);
        let k = TrsvKernel::try_new(
            band,
            TrsvDirection::Lower,
            false,
            TrsvAlgo::Auto,
            ExecCtx::new(4),
        )
        .unwrap();
        assert_eq!(k.algo(), TrsvAlgo::Serial);
        // Wide random DAG ⇒ level-scheduled on a multi-thread context...
        let wide = lower_random(4096, 3, 5);
        let k = TrsvKernel::try_new(
            wide.clone(),
            TrsvDirection::Lower,
            false,
            TrsvAlgo::Auto,
            ExecCtx::new(2),
        )
        .unwrap();
        assert_eq!(k.algo(), TrsvAlgo::LevelScheduled);
        assert!(k.name().starts_with("sptrsv-lower[level:"));
        // ... but serial on one thread regardless.
        let k = TrsvKernel::try_new(
            wide,
            TrsvDirection::Lower,
            false,
            TrsvAlgo::LevelScheduled,
            ExecCtx::new(1),
        )
        .unwrap();
        assert_eq!(k.algo(), TrsvAlgo::Serial);
    }

    #[test]
    fn empty_and_single_row_matrices() {
        let empty = Arc::new(CsrMatrix::from_coo(&CooMatrix::new(0, 0)));
        let solver = TrsvKernel::serial(empty, TrsvDirection::Lower, false).unwrap();
        let mut x: Vec<f64> = vec![];
        solver.solve(&[], &mut x);
        assert_eq!(solver.levels().nlevels(), 0);

        let mut coo = CooMatrix::new(1, 1);
        coo.push(0, 0, 4.0);
        let one = Arc::new(CsrMatrix::from_coo(&coo));
        for dir in [TrsvDirection::Lower, TrsvDirection::Upper] {
            let solver = TrsvKernel::try_new(
                one.clone(),
                dir,
                false,
                TrsvAlgo::LevelScheduled,
                ExecCtx::new(3),
            )
            .unwrap();
            let mut x = vec![0.0];
            solver.solve(&[8.0], &mut x);
            assert_eq!(x, vec![2.0]);
        }
    }

    #[test]
    fn zero_nnz_rows_are_still_assigned_to_a_chunk() {
        // Regression: chunk balancing used to weight rows by nnz alone, so a
        // level made of empty rows (weight 0) could strand rows past the
        // last thread boundary — their outputs were never written. A strict
        // lower triangle solved with an implied unit diagonal makes every
        // first-level row weightless without the `+1` charge.
        let mut coo = CooMatrix::new(9, 9);
        coo.push(6, 2, -1.0);
        coo.push(7, 3, -2.0);
        let m = Arc::new(CsrMatrix::from_coo(&coo));
        let b: Vec<f64> = (0..9).map(|i| 1.0 + i as f64).collect();
        let serial = TrsvKernel::serial(m.clone(), TrsvDirection::Lower, true).unwrap();
        let mut want = vec![f64::NAN; 9];
        serial.solve(&b, &mut want);
        assert!(want.iter().all(|v| v.is_finite()));
        for nthreads in [2, 4, 8] {
            let par = TrsvKernel::try_new(
                m.clone(),
                TrsvDirection::Lower,
                true,
                TrsvAlgo::LevelScheduled,
                ExecCtx::new(nthreads),
            )
            .unwrap();
            let mut got = vec![f64::NAN; 9];
            par.solve(&b, &mut got);
            assert_eq!(got, want, "nthreads={nthreads}");
        }
    }

    #[test]
    fn duplicate_diagonal_entries_are_summed() {
        // from_raw can carry duplicate diagonal entries; the solve must use
        // their sum, consistent with CsrMatrix::diagonal().
        let m = Arc::new(CsrMatrix::from_raw(
            2,
            2,
            vec![0, 2, 3],
            vec![0, 0, 1],
            vec![1.5, 2.5, 2.0],
        ));
        let solver = TrsvKernel::serial(m, TrsvDirection::Lower, false).unwrap();
        let mut x = vec![0.0; 2];
        solver.solve(&[8.0, 6.0], &mut x);
        assert_eq!(x, vec![2.0, 3.0]);
    }
}

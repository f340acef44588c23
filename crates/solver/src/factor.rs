//! Incomplete factorizations: IC(0) and ILU(0) on the zero-fill (level-0)
//! pattern, exposed as [`Preconditioner`]s backed by the level-scheduled
//! triangular-solve kernels from `sparseopt-core`.
//!
//! Zero-fill means the factors live on the sparsity pattern of `A` itself —
//! no new nonzeros are admitted, so the factorization costs one pass over
//! the matrix and the factors stream exactly like `A` does. On matrices
//! whose exact factors happen to have no fill (e.g. tridiagonal/banded SPD
//! systems), IC(0) *is* the exact Cholesky factor — a property the test
//! suite pins. Each preconditioner application is two sparse triangular
//! solves, which is where the dependency-bound SpTRSV kernel shape
//! (level count × width, modeled in `sparseopt-sim`) enters the
//! preconditioned-solver scenario the paper motivates in §IV-D.

use crate::precond::{PrecondError, Preconditioner};
use sparseopt_core::coo::CooMatrix;
use sparseopt_core::csr::CsrMatrix;
use sparseopt_core::kernels::{TrsvAlgo, TrsvDirection, TrsvError, TrsvKernel};
use sparseopt_core::multivec::MultiVec;
use sparseopt_core::pool::ExecCtx;
use sparseopt_core::sss::is_symmetric;
use std::sync::Arc;

fn map_trsv(e: TrsvError) -> PrecondError {
    match e {
        TrsvError::ZeroDiagonal { row } => PrecondError::ZeroDiagonal { row },
        // The factorizations hand the solver well-formed triangles; a shape
        // failure here means the factor itself is malformed, which zero
        // diagonals are the only reachable cause of.
        TrsvError::NotSquare | TrsvError::NotTriangular { .. } => {
            PrecondError::ZeroDiagonal { row: 0 }
        }
    }
}

fn transpose(m: &CsrMatrix) -> CsrMatrix {
    let mut coo = CooMatrix::new(m.ncols(), m.nrows());
    for (i, c, v) in m.iter() {
        coo.push(c, i, v);
    }
    CsrMatrix::from_coo(&coo)
}

/// Incomplete Cholesky factorization IC(0): computes a lower-triangular `L`
/// on the pattern of `lower(A)` with `L Lᵀ ≈ A`, dropping all fill.
///
/// Row `i` is computed left-to-right:
/// `l_ij = (a_ij − Σ_{k<j} l_ik l_jk) / l_jj` over stored positions only,
/// then `l_ii = √(a_ii − Σ_{k<i} l_ik²)`. The inner sums are two-pointer
/// sparse dot products over already-finished row prefixes.
///
/// # Errors
/// - [`PrecondError::NotSymmetric`] unless `A` is numerically symmetric.
/// - [`PrecondError::ZeroDiagonal`] when a row has no stored diagonal.
/// - [`PrecondError::NotPositiveDefinite`] when a pivot `a_ii − Σ l_ik²`
///   comes out non-positive (the matrix is not SPD, or the dropped fill made
///   the incomplete process break down).
pub fn ic0(a: &CsrMatrix) -> Result<CsrMatrix, PrecondError> {
    if !is_symmetric(a) {
        return Err(PrecondError::NotSymmetric);
    }
    let lower = a.lower_triangle(true);
    let n = lower.nrows();
    let rowptr = lower.rowptr().to_vec();
    let colind = lower.colind().to_vec();
    let mut vals = lower.values().to_vec();

    // Each row must close with its structural diagonal (columns ascending).
    for i in 0..n {
        if rowptr[i + 1] == rowptr[i] || colind[rowptr[i + 1] - 1] as usize != i {
            return Err(PrecondError::ZeroDiagonal { row: i });
        }
    }

    for i in 0..n {
        let ri0 = rowptr[i];
        let ri1 = rowptr[i + 1];
        for idx in ri0..ri1 {
            let j = colind[idx] as usize;
            // Two-pointer dot of row i's and row j's prefixes (columns < j).
            let mut s = 0.0;
            let mut p = ri0;
            let mut q = rowptr[j];
            let qend = rowptr[j + 1] - 1; // excludes l_jj
            while p < idx && q < qend {
                match colind[p].cmp(&colind[q]) {
                    std::cmp::Ordering::Equal => {
                        s += vals[p] * vals[q];
                        p += 1;
                        q += 1;
                    }
                    std::cmp::Ordering::Less => p += 1,
                    std::cmp::Ordering::Greater => q += 1,
                }
            }
            if j < i {
                let ljj = vals[rowptr[j + 1] - 1];
                vals[idx] = (vals[idx] - s) / ljj;
            } else {
                // j == i: the dot above was Σ l_ik² (row i against itself).
                let pivot = vals[idx] - s;
                if pivot <= 0.0 {
                    return Err(PrecondError::NotPositiveDefinite { row: i });
                }
                vals[idx] = pivot.sqrt();
            }
        }
    }
    Ok(CsrMatrix::from_raw(n, n, rowptr, colind, vals))
}

/// Incomplete LU factorization ILU(0), IKJ variant on a value copy of `A`:
/// `L U ≈ A` on `A`'s own pattern, `L` unit-lower (unit diagonal implied,
/// strict lower part returned), `U` upper including the diagonal.
///
/// # Errors
/// [`PrecondError::ZeroDiagonal`] when a row has no stored diagonal or a
/// pivot `u_kk` is exactly zero.
///
/// # Panics
/// Panics if `A` is not square.
pub fn ilu0(a: &CsrMatrix) -> Result<(CsrMatrix, CsrMatrix), PrecondError> {
    assert_eq!(a.nrows(), a.ncols(), "ILU(0) needs a square matrix");
    let n = a.nrows();
    let rowptr = a.rowptr();
    let colind = a.colind();
    let mut vals = a.values().to_vec();

    let mut diag_pos = vec![usize::MAX; n];
    for i in 0..n {
        let range = rowptr[i]..rowptr[i + 1];
        for (p, &c) in range.clone().zip(&colind[range]) {
            if c as usize == i {
                diag_pos[i] = p;
            }
        }
        if diag_pos[i] == usize::MAX {
            return Err(PrecondError::ZeroDiagonal { row: i });
        }
    }

    for i in 0..n {
        let ri1 = rowptr[i + 1];
        for kk in rowptr[i]..ri1 {
            let k = colind[kk] as usize;
            if k >= i {
                break;
            }
            let ukk = vals[diag_pos[k]];
            if ukk == 0.0 {
                return Err(PrecondError::ZeroDiagonal { row: k });
            }
            let lik = vals[kk] / ukk;
            vals[kk] = lik;
            // Eliminate: row_i[j] -= l_ik · row_k[j] for shared columns j > k.
            let mut p = kk + 1;
            let mut q = diag_pos[k] + 1;
            let rk1 = rowptr[k + 1];
            while p < ri1 && q < rk1 {
                match colind[p].cmp(&colind[q]) {
                    std::cmp::Ordering::Equal => {
                        vals[p] -= lik * vals[q];
                        p += 1;
                        q += 1;
                    }
                    std::cmp::Ordering::Less => p += 1,
                    std::cmp::Ordering::Greater => q += 1,
                }
            }
        }
    }

    // Split the in-place factor into strict-lower L and upper-with-diag U.
    let mut l_rowptr = vec![0usize; n + 1];
    let mut u_rowptr = vec![0usize; n + 1];
    for i in 0..n {
        for &c in &colind[rowptr[i]..rowptr[i + 1]] {
            if (c as usize) < i {
                l_rowptr[i + 1] += 1;
            } else {
                u_rowptr[i + 1] += 1;
            }
        }
    }
    for i in 0..n {
        l_rowptr[i + 1] += l_rowptr[i];
        u_rowptr[i + 1] += u_rowptr[i];
    }
    let mut l_cols = Vec::with_capacity(l_rowptr[n]);
    let mut l_vals = Vec::with_capacity(l_rowptr[n]);
    let mut u_cols = Vec::with_capacity(u_rowptr[n]);
    let mut u_vals = Vec::with_capacity(u_rowptr[n]);
    for i in 0..n {
        for p in rowptr[i]..rowptr[i + 1] {
            if (colind[p] as usize) < i {
                l_cols.push(colind[p]);
                l_vals.push(vals[p]);
            } else {
                u_cols.push(colind[p]);
                u_vals.push(vals[p]);
            }
        }
    }
    Ok((
        CsrMatrix::from_raw(n, n, l_rowptr, l_cols, l_vals),
        CsrMatrix::from_raw(n, n, u_rowptr, u_cols, u_vals),
    ))
}

/// IC(0) preconditioner `M = L Lᵀ`: each application is a forward solve
/// with `L` into `z` and a backward solve with `Lᵀ` in place on `z`, both
/// through [`TrsvKernel`] (level-scheduled when the context and DAG shape
/// warrant, serial otherwise). An application allocates nothing.
pub struct Ic0Precond {
    forward: TrsvKernel,
    backward: TrsvKernel,
}

impl Ic0Precond {
    /// Factorizes and builds serial solvers — the right default for the
    /// narrow-level triangles typical of banded/stencil SPD systems.
    ///
    /// # Errors
    /// Propagates [`ic0`] failures.
    pub fn new(a: &CsrMatrix) -> Result<Self, PrecondError> {
        Self::with_ctx(a, ExecCtx::new(1))
    }

    /// Factorizes and lets each triangular solve pick serial vs
    /// level-scheduled per its DAG shape on `ctx` ([`TrsvAlgo::Auto`]).
    ///
    /// # Errors
    /// Propagates [`ic0`] failures.
    pub fn with_ctx(a: &CsrMatrix, ctx: Arc<ExecCtx>) -> Result<Self, PrecondError> {
        let l = ic0(a)?;
        let lt = Arc::new(transpose(&l));
        let forward = TrsvKernel::try_new(
            Arc::new(l),
            TrsvDirection::Lower,
            false,
            TrsvAlgo::Auto,
            ctx.clone(),
        )
        .map_err(map_trsv)?;
        let backward = TrsvKernel::try_new(lt, TrsvDirection::Upper, false, TrsvAlgo::Auto, ctx)
            .map_err(map_trsv)?;
        Ok(Self { forward, backward })
    }
}

impl Preconditioner for Ic0Precond {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        self.forward.solve(r, z);
        self.backward.solve_in_place(z);
    }

    fn apply_multi(&self, r: &MultiVec, z: &mut MultiVec) {
        // Native multi-RHS path: both solves stream the factor once for all
        // k columns instead of k gather/apply/scatter round-trips.
        self.forward.solve_multi(r, z);
        self.backward.solve_multi_in_place(z);
    }

    fn name(&self) -> &'static str {
        "ic0"
    }
}

/// ILU(0) preconditioner `M = L U`: a unit-lower forward solve into `z`
/// and an upper backward solve in place on `z` per application, both
/// through [`TrsvKernel`].
pub struct Ilu0Precond {
    forward: TrsvKernel,
    backward: TrsvKernel,
}

impl Ilu0Precond {
    /// Factorizes and builds serial solvers.
    ///
    /// # Errors
    /// Propagates [`ilu0`] failures.
    pub fn new(a: &CsrMatrix) -> Result<Self, PrecondError> {
        Self::with_ctx(a, ExecCtx::new(1))
    }

    /// Factorizes with per-triangle [`TrsvAlgo::Auto`] selection on `ctx`.
    ///
    /// # Errors
    /// Propagates [`ilu0`] failures.
    pub fn with_ctx(a: &CsrMatrix, ctx: Arc<ExecCtx>) -> Result<Self, PrecondError> {
        let (l, u) = ilu0(a)?;
        let forward = TrsvKernel::try_new(
            Arc::new(l),
            TrsvDirection::Lower,
            true,
            TrsvAlgo::Auto,
            ctx.clone(),
        )
        .map_err(map_trsv)?;
        let backward = TrsvKernel::try_new(
            Arc::new(u),
            TrsvDirection::Upper,
            false,
            TrsvAlgo::Auto,
            ctx,
        )
        .map_err(map_trsv)?;
        Ok(Self { forward, backward })
    }
}

impl Preconditioner for Ilu0Precond {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        self.forward.solve(r, z);
        self.backward.solve_in_place(z);
    }

    fn apply_multi(&self, r: &MultiVec, z: &mut MultiVec) {
        self.forward.solve_multi(r, z);
        self.backward.solve_multi_in_place(z);
    }

    fn name(&self) -> &'static str {
        "ilu0"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SPD tridiagonal: 2·diag-dominant band, whose exact Cholesky factor
    /// has no fill — so IC(0) must reproduce it to rounding.
    fn spd_tridiag(n: usize) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 4.0 + (i % 3) as f64);
            if i > 0 {
                coo.push(i, i - 1, -1.0 - (i % 2) as f64 * 0.5);
                coo.push(i - 1, i, -1.0 - (i % 2) as f64 * 0.5);
            }
        }
        CsrMatrix::from_coo(&coo)
    }

    fn dense_of(a: &CsrMatrix) -> Vec<Vec<f64>> {
        let mut d = vec![vec![0.0; a.ncols()]; a.nrows()];
        for (i, j, v) in a.iter() {
            d[i][j] += v;
        }
        d
    }

    #[test]
    fn ic0_on_tridiagonal_is_exact_cholesky() {
        let n = 40;
        let a = spd_tridiag(n);
        let l = ic0(&a).expect("SPD");
        // Dense Cholesky reference.
        let ad = dense_of(&a);
        let mut ld = vec![vec![0.0f64; n]; n];
        for i in 0..n {
            for j in 0..=i {
                let mut s = ad[i][j];
                for (lik, ljk) in ld[i].iter().zip(&ld[j]).take(j) {
                    s -= lik * ljk;
                }
                if i == j {
                    ld[i][i] = s.sqrt();
                } else {
                    ld[i][j] = s / ld[j][j];
                }
            }
        }
        // Pattern: exactly lower(A); values: the exact factor.
        assert_eq!(l.nnz(), a.lower_triangle(true).nnz());
        for (i, j, v) in l.iter() {
            assert!(
                (v - ld[i][j]).abs() < 1e-12 * (1.0 + ld[i][j].abs()),
                "L[{i}][{j}] = {v} vs exact {}",
                ld[i][j]
            );
        }
    }

    #[test]
    fn ic0_rejects_bad_input() {
        // Unsymmetric.
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 2.0);
        coo.push(1, 1, 2.0);
        coo.push(0, 1, 1.0);
        let m = CsrMatrix::from_coo(&coo);
        assert_eq!(ic0(&m).err(), Some(PrecondError::NotSymmetric));
        // Symmetric but indefinite.
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(0, 1, 5.0);
        coo.push(1, 0, 5.0);
        coo.push(1, 1, 1.0);
        let m = CsrMatrix::from_coo(&coo);
        assert_eq!(
            ic0(&m).err(),
            Some(PrecondError::NotPositiveDefinite { row: 1 })
        );
        // Missing structural diagonal.
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(0, 1, 0.5);
        coo.push(1, 0, 0.5);
        let m = CsrMatrix::from_coo(&coo);
        assert_eq!(ic0(&m).err(), Some(PrecondError::ZeroDiagonal { row: 1 }));
    }

    #[test]
    fn ilu0_with_full_pattern_reproduces_lu() {
        // A dense-pattern 4×4 matrix has no dropped fill, so ILU(0) is exact:
        // L·U must equal A to rounding.
        let n = 4;
        let mut coo = CooMatrix::new(n, n);
        let entries = [
            [10.0, 2.0, 3.0, 1.0],
            [4.0, 12.0, 1.0, 2.0],
            [2.0, 1.0, 9.0, 3.0],
            [1.0, 3.0, 2.0, 11.0],
        ];
        for (i, row) in entries.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                coo.push(i, j, v);
            }
        }
        let a = CsrMatrix::from_coo(&coo);
        let (l, u) = ilu0(&a).expect("nonzero pivots");
        let ld = dense_of(&l);
        let ud = dense_of(&u);
        for i in 0..n {
            for j in 0..n {
                // (L + I) · U
                let mut s = ud[i][j];
                for k in 0..n {
                    s += ld[i][k] * ud[k][j];
                }
                assert!(
                    (s - entries[i][j]).abs() < 1e-12 * (1.0 + entries[i][j].abs()),
                    "(LU)[{i}][{j}] = {s} vs {}",
                    entries[i][j]
                );
            }
        }
    }

    #[test]
    fn ilu0_requires_structural_diagonal() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(1, 0, 1.0);
        let a = CsrMatrix::from_coo(&coo);
        assert_eq!(ilu0(&a).err(), Some(PrecondError::ZeroDiagonal { row: 1 }));
    }

    #[test]
    fn ic0_precond_solves_its_own_factorization() {
        // On a no-fill matrix M = L·Lᵀ = A exactly, so apply() must invert A.
        let n = 30;
        let a = spd_tridiag(n);
        let p = Ic0Precond::new(&a).expect("SPD");
        let want: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin()).collect();
        let ad = dense_of(&a);
        let mut b = vec![0.0; n];
        for i in 0..n {
            for j in 0..n {
                b[i] += ad[i][j] * want[j];
            }
        }
        let mut z = vec![0.0; n];
        p.apply(&b, &mut z);
        for (i, (zi, wi)) in z.iter().zip(&want).enumerate() {
            assert!(
                (zi - wi).abs() < 1e-10 * (1.0 + wi.abs()),
                "row {i}: {zi} vs {wi}"
            );
        }
    }

    #[test]
    fn ilu0_precond_multi_matches_single() {
        let n = 25;
        let a = spd_tridiag(n);
        let p = Ilu0Precond::new(&a).expect("nonzero pivots");
        let k = 3;
        let r = MultiVec::from_fn(n, k, |i, j| (i as f64 * 0.17 + j as f64).cos());
        let mut z = MultiVec::zeros(n, k);
        p.apply_multi(&r, &mut z);
        for j in 0..k {
            let mut want = vec![0.0; n];
            p.apply(&r.column(j), &mut want);
            for (i, wi) in want.iter().enumerate() {
                assert!(
                    (z.column(j)[i] - wi).abs() < 1e-13 * (1.0 + wi.abs()),
                    "({i},{j})"
                );
            }
        }
    }

    #[test]
    fn with_ctx_matches_serial_results() {
        let n = 50;
        let a = spd_tridiag(n);
        let serial = Ic0Precond::new(&a).unwrap();
        let pooled = Ic0Precond::with_ctx(&a, ExecCtx::new(4)).unwrap();
        let r: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64).collect();
        let mut z1 = vec![0.0; n];
        let mut z2 = vec![0.0; n];
        serial.apply(&r, &mut z1);
        pooled.apply(&r, &mut z2);
        // Same factor, same per-row substitution ⇒ bit-identical.
        assert_eq!(z1, z2);
    }
}

//! Compressed Sparse Row (CSR) — the baseline storage format of the paper
//! (Section II, Fig. 2).
//!
//! `rowptr[i]..rowptr[i+1]` delimits the nonzeros of row `i` inside the
//! parallel `colind`/`values` arrays. Column indices are `u32` (4 bytes), the
//! same width the paper's footprint analysis assumes.

use crate::coo::CooMatrix;

/// A sparse matrix in CSR form with `f64` values and `u32` column indices.
#[derive(Clone, Debug, PartialEq)]
pub struct CsrMatrix {
    nrows: usize,
    ncols: usize,
    rowptr: Vec<usize>,
    colind: Vec<u32>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from raw arrays.
    ///
    /// # Panics
    /// Panics if the arrays are inconsistent: `rowptr` must have `nrows + 1`
    /// monotonically non-decreasing entries starting at 0 and ending at
    /// `colind.len()`, `colind`/`values` must have equal length, and all
    /// column indices must be `< ncols`.
    pub fn from_raw(
        nrows: usize,
        ncols: usize,
        rowptr: Vec<usize>,
        colind: Vec<u32>,
        values: Vec<f64>,
    ) -> Self {
        assert_eq!(rowptr.len(), nrows + 1, "rowptr must have nrows+1 entries");
        assert_eq!(rowptr[0], 0, "rowptr must start at 0");
        assert_eq!(
            *rowptr.last().expect("nonempty"),
            colind.len(),
            "rowptr must end at nnz"
        );
        assert!(
            rowptr.windows(2).all(|w| w[0] <= w[1]),
            "rowptr must be non-decreasing"
        );
        assert_eq!(colind.len(), values.len(), "colind/values length mismatch");
        assert!(
            colind.iter().all(|&c| (c as usize) < ncols),
            "column index out of bounds"
        );
        Self {
            nrows,
            ncols,
            rowptr,
            colind,
            values,
        }
    }

    /// Converts from COO, sorting triplets and summing duplicates.
    pub fn from_coo(coo: &CooMatrix) -> Self {
        let mut sorted = coo.clone();
        sorted.sort_and_dedup();
        let (rows, cols, vals) = sorted.triplets();

        let mut rowptr = vec![0usize; coo.nrows() + 1];
        for &r in rows {
            rowptr[r as usize + 1] += 1;
        }
        for i in 0..coo.nrows() {
            rowptr[i + 1] += rowptr[i];
        }
        Self {
            nrows: coo.nrows(),
            ncols: coo.ncols(),
            rowptr,
            colind: cols.to_vec(),
            values: vals.to_vec(),
        }
    }

    /// Converts back to COO (row-major triplet order).
    pub fn to_coo(&self) -> CooMatrix {
        let mut coo = CooMatrix::with_capacity(self.nrows, self.ncols, self.nnz());
        for i in 0..self.nrows {
            for k in self.rowptr[i]..self.rowptr[i + 1] {
                coo.push(i, self.colind[k] as usize, self.values[k]);
            }
        }
        coo
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored nonzero elements.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.colind.len()
    }

    /// The row pointer array (`nrows + 1` entries).
    #[inline]
    pub fn rowptr(&self) -> &[usize] {
        &self.rowptr
    }

    /// The column index array (`nnz` entries).
    #[inline]
    pub fn colind(&self) -> &[u32] {
        &self.colind
    }

    /// The nonzero values array (`nnz` entries).
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Number of nonzeros in row `i` (`nnz_i` in Table I).
    #[inline]
    pub fn row_nnz(&self, i: usize) -> usize {
        self.rowptr[i + 1] - self.rowptr[i]
    }

    /// Column indices of row `i`.
    #[inline]
    pub fn row_cols(&self, i: usize) -> &[u32] {
        &self.colind[self.rowptr[i]..self.rowptr[i + 1]]
    }

    /// Values of row `i`.
    #[inline]
    pub fn row_vals(&self, i: usize) -> &[f64] {
        &self.values[self.rowptr[i]..self.rowptr[i + 1]]
    }

    /// Iterates `(row, col, value)` in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.nrows).flat_map(move |i| {
            self.row_cols(i)
                .iter()
                .zip(self.row_vals(i))
                .map(move |(&c, &v)| (i, c as usize, v))
        })
    }

    /// In-memory footprint of the format in bytes
    /// (`S_format = 8·NNZ + 4·NNZ + 8·(N+1)` for this layout), the
    /// `M_A_format,min` term of the paper's bandwidth bounds.
    pub fn footprint_bytes(&self) -> usize {
        self.values.len() * std::mem::size_of::<f64>()
            + self.colind.len() * std::mem::size_of::<u32>()
            + self.rowptr.len() * std::mem::size_of::<usize>()
    }

    /// Footprint of the values array alone — the paper's `M_A,min` for
    /// `P_peak`, which assumes indexing structures compress away entirely.
    pub fn values_bytes(&self) -> usize {
        self.values.len() * std::mem::size_of::<f64>()
    }

    /// Extracts the diagonal (zero where absent). Used by Jacobi
    /// preconditioning and the triangular-solve kernels.
    ///
    /// Duplicate diagonal entries (possible via [`Self::from_raw`] — the COO
    /// path sums duplicates before conversion) are **summed**, matching the
    /// matrix the format logically represents. Taking the first entry and
    /// stopping, as an earlier revision did, silently dropped the rest.
    pub fn diagonal(&self) -> Vec<f64> {
        let n = self.nrows.min(self.ncols);
        let mut d = vec![0.0; n];
        for (i, di) in d.iter_mut().enumerate() {
            for k in self.rowptr[i]..self.rowptr[i + 1] {
                if self.colind[k] as usize == i {
                    *di += self.values[k];
                }
            }
        }
        d
    }

    /// Extracts the lower triangle (`col <= row` when `with_diag`, else
    /// `col < row`) as a CSR matrix of the same shape. Entry order within a
    /// row is preserved. Used to build triangular-solve operands and the
    /// incomplete factorizations.
    pub fn lower_triangle(&self, with_diag: bool) -> CsrMatrix {
        self.filter_triangle(|c, i| if with_diag { c <= i } else { c < i })
    }

    /// Extracts the upper triangle (`col >= row` when `with_diag`, else
    /// `col > row`) as a CSR matrix of the same shape.
    pub fn upper_triangle(&self, with_diag: bool) -> CsrMatrix {
        self.filter_triangle(|c, i| if with_diag { c >= i } else { c > i })
    }

    /// Drops the diagonal entries in place, keeping the order of the rest —
    /// the strict triangle of a triangular matrix without a second copy.
    pub(crate) fn without_diagonal(mut self) -> CsrMatrix {
        let mut kept = 0;
        let mut start = 0;
        for i in 0..self.nrows {
            let end = self.rowptr[i + 1];
            for k in start..end {
                if self.colind[k] as usize != i {
                    self.colind[kept] = self.colind[k];
                    self.values[kept] = self.values[k];
                    kept += 1;
                }
            }
            start = end;
            self.rowptr[i + 1] = kept;
        }
        self.colind.truncate(kept);
        self.colind.shrink_to_fit();
        self.values.truncate(kept);
        self.values.shrink_to_fit();
        self
    }

    fn filter_triangle(&self, keep: impl Fn(usize, usize) -> bool) -> CsrMatrix {
        let mut rowptr = vec![0usize; self.nrows + 1];
        let mut colind = Vec::new();
        let mut values = Vec::new();
        for i in 0..self.nrows {
            for k in self.rowptr[i]..self.rowptr[i + 1] {
                if keep(self.colind[k] as usize, i) {
                    colind.push(self.colind[k]);
                    values.push(self.values[k]);
                }
            }
            rowptr[i + 1] = colind.len();
        }
        CsrMatrix {
            nrows: self.nrows,
            ncols: self.ncols,
            rowptr,
            colind,
            values,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        // Matrix from the paper's Fig. 5:
        // [7.5 .   .   .   .   . ]
        // [6.8 5.7 3.8 1.0 1.0 1.0]
        // [2.4 6.2 .   .   .   . ]
        // [9.7 .   .   2.3 .   . ]
        // [.   .   .   .   5.8 . ]
        // [.   .   .   .   6.6 . ]
        let mut coo = CooMatrix::new(6, 6);
        for (r, c, v) in [
            (0, 0, 7.5),
            (1, 0, 6.8),
            (1, 1, 5.7),
            (1, 2, 3.8),
            (1, 3, 1.0),
            (1, 4, 1.0),
            (1, 5, 1.0),
            (2, 0, 2.4),
            (2, 1, 6.2),
            (3, 0, 9.7),
            (3, 3, 2.3),
            (4, 4, 5.8),
            (5, 4, 6.6),
        ] {
            coo.push(r, c, v);
        }
        CsrMatrix::from_coo(&coo)
    }

    #[test]
    fn fig5_rowptr_matches_paper() {
        let m = sample();
        assert_eq!(m.rowptr(), &[0, 1, 7, 9, 11, 12, 13]);
        assert_eq!(m.colind(), &[0, 0, 1, 2, 3, 4, 5, 0, 1, 0, 3, 4, 4]);
    }

    #[test]
    fn coo_round_trip() {
        let m = sample();
        let back = CsrMatrix::from_coo(&m.to_coo());
        assert_eq!(m, back);
    }

    #[test]
    fn row_accessors() {
        let m = sample();
        assert_eq!(m.row_nnz(1), 6);
        assert_eq!(m.row_cols(2), &[0, 1]);
        assert_eq!(m.row_vals(3), &[9.7, 2.3]);
    }

    #[test]
    fn diagonal_extraction() {
        let m = sample();
        assert_eq!(m.diagonal(), vec![7.5, 5.7, 0.0, 2.3, 5.8, 0.0]);
    }

    #[test]
    fn footprint_accounts_all_arrays() {
        let m = sample();
        assert_eq!(m.footprint_bytes(), 13 * 8 + 13 * 4 + 7 * 8);
        assert_eq!(m.values_bytes(), 13 * 8);
    }

    #[test]
    fn empty_rows_are_handled() {
        let mut coo = CooMatrix::new(4, 4);
        coo.push(0, 0, 1.0);
        coo.push(3, 3, 1.0);
        let m = CsrMatrix::from_coo(&coo);
        assert_eq!(m.row_nnz(1), 0);
        assert_eq!(m.row_nnz(2), 0);
        assert_eq!(m.nnz(), 2);
    }

    #[test]
    #[should_panic(expected = "rowptr must end at nnz")]
    fn from_raw_validates() {
        CsrMatrix::from_raw(1, 1, vec![0, 2], vec![0], vec![1.0]);
    }

    #[test]
    fn diagonal_sums_duplicate_entries() {
        // Regression: the extractor used to take the *first* (col == row)
        // entry and break, silently dropping duplicates that from_raw can
        // legally carry. The represented matrix has a_00 = 1.5 + 2.5.
        let m = CsrMatrix::from_raw(
            2,
            2,
            vec![0, 3, 4],
            vec![0, 0, 1, 1],
            vec![1.5, 2.5, 9.0, 4.0],
        );
        assert_eq!(m.diagonal(), vec![4.0, 4.0]);
    }

    #[test]
    fn triangle_split_partitions_entries() {
        let m = sample();
        let lower = m.lower_triangle(true);
        let strict_upper = m.upper_triangle(false);
        assert_eq!(lower.nnz() + strict_upper.nnz(), m.nnz());
        for (i, c, _) in lower.iter() {
            assert!(c <= i);
        }
        for (i, c, _) in strict_upper.iter() {
            assert!(c > i);
        }
        // Strict lower + diagonal + strict upper reassemble the matrix.
        let mut coo = m.lower_triangle(false).to_coo();
        for (i, c, v) in strict_upper.iter() {
            coo.push(i, c, v);
        }
        for (i, &d) in m.diagonal().iter().enumerate() {
            if d != 0.0 {
                coo.push(i, i, d);
            }
        }
        assert_eq!(CsrMatrix::from_coo(&coo), m);
        // Dropping the diagonal in place leaves the two strict triangles.
        let off = m.clone().without_diagonal();
        assert!(off.iter().all(|(i, c, _)| c != i));
        assert_eq!(
            off.nnz(),
            m.lower_triangle(false).nnz() + strict_upper.nnz()
        );
    }
}

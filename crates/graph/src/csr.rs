//! Compressed sparse row (CSR) matrices.
//!
//! CSR is the storage format used for the local blocks in the paper's
//! Epetra-based implementation (`Epetra_CrsMatrix`) and is what our
//! distributed matrix stores per rank. Rows are sorted by column index and
//! duplicate entries are summed at construction, so the structure can be
//! binary-searched and compared.

use crate::{CooMatrix, GraphError, Val, Vtx};

/// A sparse `nrows x ncols` matrix in compressed sparse row format.
///
/// Invariants (upheld by every constructor, checked by `debug_validate`):
/// * `rowptr.len() == nrows + 1`, `rowptr[0] == 0`, non-decreasing,
///   `rowptr[nrows] == colidx.len() == values.len()`;
/// * within each row, column indices are strictly increasing (sorted,
///   no duplicates) and `< ncols`.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    nrows: usize,
    ncols: usize,
    rowptr: Vec<usize>,
    colidx: Vec<Vtx>,
    values: Vec<Val>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from triplets, summing duplicates.
    ///
    /// Runs in `O(nnz + nrows)` time using a two-pass counting sort on rows
    /// followed by a per-row sort — no global comparison sort of the
    /// triplets is needed.
    pub fn from_coo(coo: &CooMatrix) -> CsrMatrix {
        let nrows = coo.nrows();
        let ncols = coo.ncols();

        // Pass 1: count entries per row.
        let mut rowptr = vec![0usize; nrows + 1];
        for &r in &coo.rows {
            rowptr[r as usize + 1] += 1;
        }
        for i in 0..nrows {
            rowptr[i + 1] += rowptr[i];
        }

        // Pass 2: scatter into row buckets.
        let nnz_dup = coo.len();
        let mut colidx = vec![0 as Vtx; nnz_dup];
        let mut values = vec![0.0; nnz_dup];
        let mut next = rowptr.clone();
        for ((&r, &c), &v) in coo.rows.iter().zip(&coo.cols).zip(&coo.vals) {
            let slot = next[r as usize];
            colidx[slot] = c;
            values[slot] = v;
            next[r as usize] += 1;
        }

        // Pass 3: sort each row by column and merge duplicates in place.
        let mut write = 0usize;
        let mut new_rowptr = vec![0usize; nrows + 1];
        let mut scratch: Vec<(Vtx, Val)> = Vec::new();
        for row in 0..nrows {
            let (lo, hi) = (rowptr[row], rowptr[row + 1]);
            scratch.clear();
            scratch.extend(
                colidx[lo..hi]
                    .iter()
                    .copied()
                    .zip(values[lo..hi].iter().copied()),
            );
            scratch.sort_unstable_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < scratch.len() {
                let (c, mut v) = scratch[i];
                i += 1;
                while i < scratch.len() && scratch[i].0 == c {
                    v += scratch[i].1;
                    i += 1;
                }
                colidx[write] = c;
                values[write] = v;
                write += 1;
            }
            new_rowptr[row + 1] = write;
        }
        colidx.truncate(write);
        values.truncate(write);
        colidx.shrink_to_fit();
        values.shrink_to_fit();

        let m = CsrMatrix {
            nrows,
            ncols,
            rowptr: new_rowptr,
            colidx,
            values,
        };
        m.debug_validate();
        m
    }

    /// Builds a CSR matrix directly from its parts.
    ///
    /// Returns an error if the invariants listed on [`CsrMatrix`] do not
    /// hold. Use this for trusted, already-sorted data (e.g. deserialized
    /// matrices) to skip the COO detour.
    pub fn from_parts(
        nrows: usize,
        ncols: usize,
        rowptr: Vec<usize>,
        colidx: Vec<Vtx>,
        values: Vec<Val>,
    ) -> Result<CsrMatrix, GraphError> {
        if rowptr.len() != nrows + 1 || rowptr.first() != Some(&0) {
            return Err(GraphError::Parse {
                line: 0,
                msg: format!(
                    "rowptr length {} does not match nrows {}",
                    rowptr.len(),
                    nrows
                ),
            });
        }
        if colidx.len() != values.len() || rowptr[nrows] != colidx.len() {
            return Err(GraphError::Parse {
                line: 0,
                msg: "rowptr/colidx/values lengths inconsistent".into(),
            });
        }
        for row in 0..nrows {
            if rowptr[row] > rowptr[row + 1] || rowptr[row + 1] > colidx.len() {
                return Err(GraphError::Parse {
                    line: 0,
                    msg: format!("rowptr invalid at row {row}"),
                });
            }
            let cols = &colidx[rowptr[row]..rowptr[row + 1]];
            for w in cols.windows(2) {
                if w[0] >= w[1] {
                    return Err(GraphError::Parse {
                        line: 0,
                        msg: format!("row {row} columns not strictly increasing"),
                    });
                }
            }
            if let Some(&last) = cols.last() {
                if last as usize >= ncols {
                    return Err(GraphError::IndexOutOfBounds {
                        row: row as u64,
                        col: last as u64,
                        nrows,
                        ncols,
                    });
                }
            }
        }
        Ok(CsrMatrix {
            nrows,
            ncols,
            rowptr,
            colidx,
            values,
        })
    }

    /// An `n x n` identity matrix.
    pub fn identity(n: usize) -> CsrMatrix {
        CsrMatrix {
            nrows: n,
            ncols: n,
            rowptr: (0..=n).collect(),
            colidx: (0..n as Vtx).collect(),
            values: vec![1.0; n],
        }
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

    /// Number of stored nonzeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.colidx.len()
    }

    /// The row-pointer array (`nrows + 1` entries).
    #[inline]
    pub fn rowptr(&self) -> &[usize] {
        &self.rowptr
    }

    /// All column indices, row-major.
    #[inline]
    pub fn colidx(&self) -> &[Vtx] {
        &self.colidx
    }

    /// All values, row-major.
    #[inline]
    pub fn values(&self) -> &[Val] {
        &self.values
    }

    /// All values, row-major, writable: re-weighting stored entries
    /// cannot break a structural invariant.
    #[inline]
    pub fn values_mut(&mut self) -> &mut [Val] {
        &mut self.values
    }

    /// Column indices and values of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> (&[Vtx], &[Val]) {
        let (lo, hi) = (self.rowptr[i], self.rowptr[i + 1]);
        (&self.colidx[lo..hi], &self.values[lo..hi])
    }

    /// Number of nonzeros in row `i` (the degree of vertex `i` for an
    /// adjacency matrix with no self loops).
    #[inline]
    pub fn row_nnz(&self, i: usize) -> usize {
        self.rowptr[i + 1] - self.rowptr[i]
    }

    /// The value at `(i, j)`, or `None` when the entry is structurally zero.
    pub fn get(&self, i: usize, j: Vtx) -> Option<Val> {
        let (cols, vals) = self.row(i);
        cols.binary_search(&j).ok().map(|k| vals[k])
    }

    /// Iterates over `(row, col, value)` for every stored entry.
    pub fn iter(&self) -> impl Iterator<Item = (Vtx, Vtx, Val)> + '_ {
        (0..self.nrows).flat_map(move |i| {
            let (cols, vals) = self.row(i);
            cols.iter()
                .zip(vals.iter())
                .map(move |(&c, &v)| (i as Vtx, c, v))
        })
    }

    /// Converts back to a triplet list (entries emitted in CSR order).
    pub fn to_coo(&self) -> CooMatrix {
        let mut coo = CooMatrix::with_capacity(self.nrows, self.ncols, self.nnz());
        for (r, c, v) in self.iter() {
            coo.push(r, c, v);
        }
        coo
    }

    /// Returns the transpose `Aᵀ` as a new matrix.
    ///
    /// Linear time via counting sort on columns; the result's rows are
    /// automatically sorted because we scan `self` in row-major order.
    pub fn transpose(&self) -> CsrMatrix {
        let mut rowptr = vec![0usize; self.ncols + 1];
        for &c in &self.colidx {
            rowptr[c as usize + 1] += 1;
        }
        for i in 0..self.ncols {
            rowptr[i + 1] += rowptr[i];
        }
        let mut colidx = vec![0 as Vtx; self.nnz()];
        let mut values = vec![0.0; self.nnz()];
        let mut next = rowptr.clone();
        for (r, c, v) in self.iter() {
            let slot = next[c as usize];
            colidx[slot] = r;
            values[slot] = v;
            next[c as usize] += 1;
        }
        let t = CsrMatrix {
            nrows: self.ncols,
            ncols: self.nrows,
            rowptr,
            colidx,
            values,
        };
        t.debug_validate();
        t
    }

    /// Returns `A + Aᵀ`.
    ///
    /// The paper symmetrizes every unsymmetric input this way ("for
    /// unsymmetric matrices A, we constructed the symmetric matrix as
    /// A + Aᵀ", §5.1). Requires a square matrix.
    pub fn plus_transpose(&self) -> Result<CsrMatrix, GraphError> {
        if self.nrows != self.ncols {
            return Err(GraphError::NotSquare {
                nrows: self.nrows,
                ncols: self.ncols,
            });
        }
        let mut coo = CooMatrix::with_capacity(self.nrows, self.ncols, 2 * self.nnz());
        for (r, c, v) in self.iter() {
            coo.push(r, c, v);
            coo.push(c, r, v);
        }
        Ok(CsrMatrix::from_coo(&coo))
    }

    /// True when the sparsity *pattern* is symmetric (values may differ).
    pub fn is_structurally_symmetric(&self) -> bool {
        if self.nrows != self.ncols {
            return false;
        }
        self.iter()
            .all(|(r, c, _)| self.get(c as usize, r).is_some())
    }

    /// True when `A == Aᵀ` up to `tol` in each entry.
    pub fn is_numerically_symmetric(&self, tol: Val) -> bool {
        if self.nrows != self.ncols {
            return false;
        }
        self.iter().all(|(r, c, v)| {
            self.get(c as usize, r)
                .map(|w| (v - w).abs() <= tol)
                .unwrap_or(false)
        })
    }

    /// Returns a copy with all diagonal entries removed.
    ///
    /// Self-loops are meaningless for the graph Laplacian, so proxies strip
    /// them before analysis.
    pub fn without_diagonal(&self) -> CsrMatrix {
        let mut coo = CooMatrix::with_capacity(self.nrows, self.ncols, self.nnz());
        for (r, c, v) in self.iter() {
            if r != c {
                coo.push(r, c, v);
            }
        }
        CsrMatrix::from_coo(&coo)
    }

    /// The diagonal as a dense vector (structural zeros become `0.0`).
    pub fn diagonal(&self) -> Vec<Val> {
        (0..self.nrows.min(self.ncols))
            .map(|i| self.get(i, i as Vtx).unwrap_or(0.0))
            .collect()
    }

    /// Dense sequential SpMV `y = A x`; the correctness oracle for the
    /// distributed implementation.
    ///
    /// # Panics
    /// Panics if `x.len() != ncols`.
    pub fn spmv_dense(&self, x: &[Val]) -> Vec<Val> {
        let mut y = vec![0.0; self.nrows];
        self.spmv_dense_into(x, &mut y);
        y
    }

    /// [`spmv_dense`](CsrMatrix::spmv_dense) into a caller-provided output
    /// buffer — the allocation-free form the distributed SpMV workspaces
    /// use. Overwrites `y` entirely.
    ///
    /// # Panics
    /// Panics if `x.len() != ncols` or `y.len() != nrows`.
    pub fn spmv_dense_into(&self, x: &[Val], y: &mut [Val]) {
        assert_eq!(x.len(), self.ncols, "spmv: x length mismatch");
        assert_eq!(y.len(), self.nrows, "spmv: y length mismatch");
        for i in 0..self.nrows {
            let (cols, vals) = self.row(i);
            // Manual accumulation: the autovectorizer handles this fine and
            // we avoid the bounds checks an index-based loop would pay.
            let mut acc = 0.0;
            for (&c, &v) in cols.iter().zip(vals) {
                acc += v * x[c as usize];
            }
            y[i] = acc;
        }
    }

    /// Maximum number of nonzeros in any row (the "Max nonzeros/row" column
    /// of the paper's Table 1).
    pub fn max_row_nnz(&self) -> usize {
        (0..self.nrows).map(|i| self.row_nnz(i)).max().unwrap_or(0)
    }

    /// Checks all structural invariants; debug builds only.
    #[inline]
    pub fn debug_validate(&self) {
        #[cfg(debug_assertions)]
        {
            assert_eq!(self.rowptr.len(), self.nrows + 1);
            assert_eq!(self.rowptr[0], 0);
            assert_eq!(*self.rowptr.last().unwrap(), self.colidx.len());
            assert_eq!(self.colidx.len(), self.values.len());
            for i in 0..self.nrows {
                assert!(self.rowptr[i] <= self.rowptr[i + 1]);
                let (cols, _) = self.row(i);
                for w in cols.windows(2) {
                    assert!(w[0] < w[1], "row {i} not sorted/deduped");
                }
                if let Some(&last) = cols.last() {
                    assert!((last as usize) < self.ncols);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CsrMatrix {
        // [ 1 2 0 ]
        // [ 0 0 3 ]
        // [ 4 0 5 ]
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 0, 1.0);
        coo.push(0, 1, 2.0);
        coo.push(1, 2, 3.0);
        coo.push(2, 0, 4.0);
        coo.push(2, 2, 5.0);
        CsrMatrix::from_coo(&coo)
    }

    #[test]
    fn from_coo_sorts_rows_and_sums_duplicates() {
        let mut coo = CooMatrix::new(2, 4);
        coo.push(0, 3, 1.0);
        coo.push(0, 1, 2.0);
        coo.push(0, 3, 4.0); // duplicate of (0,3)
        coo.push(1, 0, -1.0);
        let m = CsrMatrix::from_coo(&coo);
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.row(0), (&[1, 3][..], &[2.0, 5.0][..]));
        assert_eq!(m.row(1), (&[0][..], &[-1.0][..]));
    }

    #[test]
    fn get_finds_entries_and_zeros() {
        let m = small();
        assert_eq!(m.get(0, 1), Some(2.0));
        assert_eq!(m.get(1, 0), None);
        assert_eq!(m.get(2, 2), Some(5.0));
    }

    #[test]
    fn spmv_matches_hand_computation() {
        let m = small();
        let y = m.spmv_dense(&[1.0, 10.0, 100.0]);
        assert_eq!(y, vec![21.0, 300.0, 504.0]);
    }

    #[test]
    fn transpose_involution() {
        let m = small();
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn transpose_swaps_entries() {
        let m = small();
        let t = m.transpose();
        assert_eq!(t.get(0, 2), Some(4.0));
        assert_eq!(t.get(2, 1), Some(3.0));
        assert_eq!(t.get(1, 0), Some(2.0));
    }

    #[test]
    fn plus_transpose_is_symmetric() {
        let m = small();
        let s = m.plus_transpose().unwrap();
        assert!(s.is_structurally_symmetric());
        assert!(s.is_numerically_symmetric(0.0));
        assert_eq!(s.get(0, 0), Some(2.0)); // diagonal doubled
        assert_eq!(s.get(0, 2), Some(4.0));
        assert_eq!(s.get(2, 0), Some(4.0));
    }

    #[test]
    fn symmetry_checks_detect_asymmetry() {
        let m = small();
        assert!(!m.is_structurally_symmetric());
        assert!(!m.is_numerically_symmetric(1e-12));
    }

    #[test]
    fn without_diagonal_strips_loops() {
        let m = small();
        let d = m.without_diagonal();
        assert_eq!(d.nnz(), 3); // (0,1), (1,2), (2,0) survive

        assert_eq!(d.get(0, 0), None);
        assert_eq!(d.get(0, 1), Some(2.0));
    }

    #[test]
    fn diagonal_extraction() {
        let m = small();
        assert_eq!(m.diagonal(), vec![1.0, 0.0, 5.0]);
    }

    #[test]
    fn identity_behaves() {
        let i = CsrMatrix::identity(4);
        assert_eq!(i.nnz(), 4);
        let x = vec![3.0, -1.0, 0.5, 9.0];
        assert_eq!(i.spmv_dense(&x), x);
    }

    #[test]
    fn max_row_nnz_and_row_nnz() {
        let m = small();
        assert_eq!(m.row_nnz(0), 2);
        assert_eq!(m.row_nnz(1), 1);
        assert_eq!(m.max_row_nnz(), 2);
    }

    #[test]
    fn from_parts_validates() {
        // Valid.
        let ok = CsrMatrix::from_parts(2, 2, vec![0, 1, 2], vec![0, 1], vec![1.0, 2.0]);
        assert!(ok.is_ok());
        // Unsorted row.
        let bad = CsrMatrix::from_parts(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 2.0]);
        assert!(bad.is_err());
        // Column out of range.
        let bad = CsrMatrix::from_parts(1, 2, vec![0, 1], vec![5], vec![1.0]);
        assert!(bad.is_err());
        // rowptr wrong length.
        let bad = CsrMatrix::from_parts(2, 2, vec![0, 1], vec![0], vec![1.0]);
        assert!(bad.is_err());
    }

    #[test]
    fn to_coo_roundtrip() {
        let m = small();
        let back = CsrMatrix::from_coo(&m.to_coo());
        assert_eq!(back, m);
    }

    #[test]
    fn empty_matrix_is_fine() {
        let coo = CooMatrix::new(0, 0);
        let m = CsrMatrix::from_coo(&coo);
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.spmv_dense(&[]), Vec::<f64>::new());
    }
}

//! Compressed sparse row (CSR) matrices.
//!
//! Adjacency matrices, graphlet-orbit matrices and the per-orbit normalised
//! Laplacians are all sparse with `O(e)` non-zeros, so the GCN propagation
//! `L · H` is implemented as a CSR×dense product.  The CSR structure is
//! immutable after construction, which matches how the pipeline uses it (build
//! once per orbit, multiply many times).

use crate::dense::DenseMatrix;
use crate::error::LinalgError;
use crate::parallel::parallel_rows_mut;
use crate::Result;

/// An immutable sparse matrix in compressed-sparse-row format.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    /// Row pointer array of length `rows + 1`.
    indptr: Vec<usize>,
    /// Column indices, sorted within each row.
    indices: Vec<usize>,
    /// Non-zero values aligned with `indices`.
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Creates an empty (all-zero) sparse matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            indptr: vec![0; rows + 1],
            indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Builds a CSR matrix from (row, col, value) triplets.
    ///
    /// Duplicate entries are summed; explicit zeros and entries that cancel to
    /// zero are dropped.  Returns an error if any index is out of bounds.
    ///
    /// The build is a two-pass counting sort — count entries per row, prefix-
    /// sum into row offsets, scatter into one flat buffer — followed by a
    /// per-row sort-and-merge.  This performs exactly two allocations however
    /// large the graph is, instead of the `Vec<Vec<…>>` row buckets (one heap
    /// allocation per non-empty row) used previously.
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        triplets: &[(usize, usize, f64)],
    ) -> Result<Self> {
        for &(r, c, _) in triplets {
            if r >= rows || c >= cols {
                return Err(LinalgError::IndexOutOfBounds {
                    index: (r, c),
                    shape: (rows, cols),
                });
            }
        }
        // Pass 1: count entries per row, then prefix-sum into offsets.
        let mut offsets = vec![0usize; rows + 1];
        for &(r, _, _) in triplets {
            offsets[r + 1] += 1;
        }
        for r in 0..rows {
            offsets[r + 1] += offsets[r];
        }
        // Pass 2: scatter (col, value) pairs into their row segments, using
        // the offsets array as a moving write cursor per row.
        let mut entries: Vec<(usize, f64)> = vec![(0, 0.0); triplets.len()];
        let mut cursor = offsets.clone();
        for &(r, c, v) in triplets {
            entries[cursor[r]] = (c, v);
            cursor[r] += 1;
        }
        // Sort each row segment by column and merge duplicates while emitting
        // the final CSR arrays.
        let mut indptr = Vec::with_capacity(rows + 1);
        let mut indices = Vec::with_capacity(triplets.len());
        let mut values = Vec::with_capacity(triplets.len());
        indptr.push(0);
        for r in 0..rows {
            let row = &mut entries[offsets[r]..offsets[r + 1]];
            row.sort_unstable_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < row.len() {
                let col = row[i].0;
                let mut sum = 0.0;
                while i < row.len() && row[i].0 == col {
                    sum += row[i].1;
                    i += 1;
                }
                if sum != 0.0 {
                    indices.push(col);
                    values.push(sum);
                }
            }
            indptr.push(indices.len());
        }
        Ok(Self {
            rows,
            cols,
            indptr,
            indices,
            values,
        })
    }

    /// Builds a CSR identity matrix.
    pub fn identity(n: usize) -> Self {
        Self {
            rows: n,
            cols: n,
            indptr: (0..=n).collect(),
            indices: (0..n).collect(),
            values: vec![1.0; n],
        }
    }

    /// Builds a CSR diagonal matrix from its diagonal entries (zeros dropped).
    pub fn from_diagonal(diag: &[f64]) -> Self {
        let triplets: Vec<(usize, usize, f64)> = diag
            .iter()
            .enumerate()
            .filter(|(_, &v)| v != 0.0)
            .map(|(i, &v)| (i, i, v))
            .collect();
        Self::from_triplets(diag.len(), diag.len(), &triplets)
            .expect("diagonal triplets are always in range")
    }

    /// Converts a dense matrix to CSR, dropping zeros.
    pub fn from_dense(dense: &DenseMatrix) -> Self {
        let mut triplets = Vec::new();
        for r in 0..dense.rows() {
            for c in 0..dense.cols() {
                let v = dense.get(r, c);
                if v != 0.0 {
                    triplets.push((r, c, v));
                }
            }
        }
        Self::from_triplets(dense.rows(), dense.cols(), &triplets)
            .expect("indices from a dense matrix are always in range")
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of stored non-zero entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Iterator over the `(column, value)` pairs of row `r`.
    pub fn row(&self, r: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let start = self.indptr[r];
        let end = self.indptr[r + 1];
        self.indices[start..end]
            .iter()
            .copied()
            .zip(self.values[start..end].iter().copied())
    }

    /// Number of stored entries in row `r`.
    pub fn row_nnz(&self, r: usize) -> usize {
        self.indptr[r + 1] - self.indptr[r]
    }

    /// Value at `(r, c)` (zero if not stored).
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        let start = self.indptr[r];
        let end = self.indptr[r + 1];
        match self.indices[start..end].binary_search(&c) {
            Ok(pos) => self.values[start + pos],
            Err(_) => 0.0,
        }
    }

    /// Iterator over all `(row, col, value)` triplets in row-major order.
    pub fn triplets(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.rows).flat_map(move |r| self.row(r).map(move |(c, v)| (r, c, v)))
    }

    /// Sum of stored values per row.
    pub fn row_sums(&self) -> Vec<f64> {
        (0..self.rows)
            .map(|r| self.row(r).map(|(_, v)| v).sum())
            .collect()
    }

    /// Maximum stored value per row (0 for empty rows).
    pub fn row_max(&self) -> Vec<f64> {
        (0..self.rows)
            .map(|r| self.row(r).map(|(_, v)| v).fold(0.0_f64, f64::max))
            .collect()
    }

    /// Squared Frobenius norm of the stored values.
    pub fn frobenius_norm_sq(&self) -> f64 {
        self.values.iter().map(|&v| v * v).sum()
    }

    /// Transposed copy.
    pub fn transpose(&self) -> CsrMatrix {
        let triplets: Vec<(usize, usize, f64)> =
            self.triplets().map(|(r, c, v)| (c, r, v)).collect();
        CsrMatrix::from_triplets(self.cols, self.rows, &triplets)
            .expect("transposed indices are always in range")
    }

    /// Returns true if the matrix equals its transpose up to `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        self.triplets()
            .all(|(r, c, v)| (self.get(c, r) - v).abs() <= tol)
    }

    /// Sparse × dense product `self * rhs`, parallelised over output rows.
    pub fn matmul_dense(&self, rhs: &DenseMatrix) -> Result<DenseMatrix> {
        let mut out = DenseMatrix::zeros(0, 0);
        self.matmul_dense_into(rhs, &mut out)?;
        Ok(out)
    }

    /// Like [`CsrMatrix::matmul_dense`], but writes into `out`, reusing its
    /// allocation (`out` is resized as needed).
    ///
    /// The product is traversed in column panels: the sparse rows gather
    /// arbitrary rows of `rhs`, so restricting each sweep to a panel of
    /// `rhs` columns narrow enough that the gathered `k × NB` slice fits in
    /// L2 keeps the dense operand cache-resident instead of streaming the
    /// full `k × n` matrix once per output row.  Within a panel, every
    /// output element still accumulates its non-zeros in CSR (ascending
    /// column) order, so results are bit-identical to the unpanelled kernel
    /// for every thread count.
    pub fn matmul_dense_into(&self, rhs: &DenseMatrix, out: &mut DenseMatrix) -> Result<()> {
        if self.cols != rhs.rows() {
            return Err(LinalgError::ShapeMismatch {
                op: "csr matmul_dense",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let n = rhs.cols();
        out.resize_for_overwrite(self.rows, n);
        out.data_mut().fill(0.0);
        if n == 0 || self.rows == 0 {
            return Ok(());
        }
        // Panel width: aim for the touched slice of `rhs` (k rows × NB
        // columns of f64) to stay within ~256 KiB of L2, but never fragment
        // narrow matrices (embeddings are 16–200 columns wide and must run
        // as a single panel — splitting them would re-traverse the CSR
        // structure for no cache benefit).
        const L2_BUDGET_DOUBLES: usize = 32 * 1024;
        let nb = (L2_BUDGET_DOUBLES / rhs.rows().max(1)).max(256).min(n);
        let indptr = &self.indptr;
        let indices = &self.indices;
        let values = &self.values;
        let rhs_data = rhs.data();
        let num_rows = self.rows;
        parallel_rows_mut(out.data_mut(), n, |start_row, chunk| {
            let rows_here = chunk.len() / n;
            let mut j0 = 0;
            while j0 < n {
                let j1 = (j0 + nb).min(n);
                for i in 0..rows_here {
                    let r = start_row + i;
                    if r >= num_rows {
                        continue;
                    }
                    let out_seg = &mut chunk[i * n + j0..i * n + j1];
                    for idx in indptr[r]..indptr[r + 1] {
                        let c = indices[idx];
                        let v = values[idx];
                        let rhs_seg = &rhs_data[c * n + j0..c * n + j1];
                        for (o, &b) in out_seg.iter_mut().zip(rhs_seg) {
                            *o += v * b;
                        }
                    }
                }
                j0 = j1;
            }
        });
        Ok(())
    }

    /// Sparse × vector product.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.cols {
            return Err(LinalgError::DataLength {
                expected: self.cols,
                actual: x.len(),
            });
        }
        Ok((0..self.rows)
            .map(|r| self.row(r).map(|(c, v)| v * x[c]).sum())
            .collect())
    }

    /// Returns `D_l * self * D_r` where the diagonals are given as vectors.
    ///
    /// This is the kernel behind symmetric Laplacian normalisation and the
    /// reinforcement-matrix scaling `R L R` of the fine-tuning stage.
    pub fn scale_sym(&self, left: &[f64], right: &[f64]) -> Result<CsrMatrix> {
        if left.len() != self.rows {
            return Err(LinalgError::DataLength {
                expected: self.rows,
                actual: left.len(),
            });
        }
        if right.len() != self.cols {
            return Err(LinalgError::DataLength {
                expected: self.cols,
                actual: right.len(),
            });
        }
        let mut out = self.clone();
        for (r, &scale_r) in left.iter().enumerate() {
            let (start, end) = (out.indptr[r], out.indptr[r + 1]);
            for idx in start..end {
                let c = out.indices[idx];
                out.values[idx] *= scale_r * right[c];
            }
        }
        Ok(out)
    }

    /// Like [`CsrMatrix::scale_sym`], but writes into `out`, reusing its
    /// buffers — the allocation-free path (after warm-up) for loops that
    /// rescale the same sparsity pattern repeatedly, such as the per-iteration
    /// reinforcement boost `R L̃ R` of fine-tuning.
    pub fn scale_sym_into(&self, left: &[f64], right: &[f64], out: &mut CsrMatrix) -> Result<()> {
        if left.len() != self.rows {
            return Err(LinalgError::DataLength {
                expected: self.rows,
                actual: left.len(),
            });
        }
        if right.len() != self.cols {
            return Err(LinalgError::DataLength {
                expected: self.cols,
                actual: right.len(),
            });
        }
        out.rows = self.rows;
        out.cols = self.cols;
        out.indptr.clear();
        out.indptr.extend_from_slice(&self.indptr);
        out.indices.clear();
        out.indices.extend_from_slice(&self.indices);
        out.values.clear();
        out.values.extend_from_slice(&self.values);
        for (r, &scale_r) in left.iter().enumerate() {
            let (start, end) = (self.indptr[r], self.indptr[r + 1]);
            for idx in start..end {
                let c = self.indices[idx];
                out.values[idx] *= scale_r * right[c];
            }
        }
        Ok(())
    }

    /// Principal sub-matrix over `nodes`: rows *and* columns are restricted
    /// to the given index set, renumbered to `0..nodes.len()` — the
    /// sub-propagator extraction behind neighbourhood-sampled mini-batch
    /// training.  O(Σ row_nnz(nodes) + cols) with no triplet round-trip:
    /// because `nodes` is ascending and CSR rows store ascending columns,
    /// the renumbered rows come out sorted directly.
    ///
    /// Returns an error if any index is out of range.
    ///
    /// # Panics
    /// Panics if `nodes` is not strictly increasing (callers construct batch
    /// node sets sorted and deduplicated; violating that is a bug, not an
    /// input condition).
    pub fn sub_matrix(&self, nodes: &[usize]) -> Result<CsrMatrix> {
        for w in nodes.windows(2) {
            assert!(w[0] < w[1], "sub_matrix nodes must be strictly increasing");
        }
        if let Some(&max) = nodes.last() {
            if max >= self.rows || max >= self.cols {
                return Err(LinalgError::IndexOutOfBounds {
                    index: (max, max),
                    shape: self.shape(),
                });
            }
        }
        const ABSENT: usize = usize::MAX;
        let mut position = vec![ABSENT; self.cols];
        for (i, &n) in nodes.iter().enumerate() {
            position[n] = i;
        }
        let mut indptr = Vec::with_capacity(nodes.len() + 1);
        indptr.push(0);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for &r in nodes {
            for (c, v) in self.row(r) {
                let p = position[c];
                if p != ABSENT {
                    indices.push(p);
                    values.push(v);
                }
            }
            indptr.push(indices.len());
        }
        Ok(CsrMatrix {
            rows: nodes.len(),
            cols: nodes.len(),
            indptr,
            indices,
            values,
        })
    }

    /// Element-wise sum of two CSR matrices with matching shapes.
    pub fn add(&self, rhs: &CsrMatrix) -> Result<CsrMatrix> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::ShapeMismatch {
                op: "csr add",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut triplets: Vec<(usize, usize, f64)> = self.triplets().collect();
        triplets.extend(rhs.triplets());
        CsrMatrix::from_triplets(self.rows, self.cols, &triplets)
    }

    /// Returns a copy with every stored value multiplied by `alpha`.
    pub fn scale(&self, alpha: f64) -> CsrMatrix {
        let mut out = self.clone();
        for v in &mut out.values {
            *v *= alpha;
        }
        out
    }

    /// Converts to a dense matrix (intended for tests and small examples).
    pub fn to_dense(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.rows, self.cols);
        for (r, c, v) in self.triplets() {
            out.set(r, c, v);
        }
        out
    }

    /// Squared Frobenius distance `‖self − dense‖²_F` computed without
    /// materialising the difference.
    ///
    /// Used for reporting the reconstruction loss `‖L̃ − ĤĤᵀ‖²_F` where the
    /// reconstruction is available only through its factor `Ĥ`; see
    /// `htc-nn::loss` for the factored version.  Here `dense` is the explicit
    /// reconstruction (small graphs / tests).
    pub fn frobenius_distance_sq_dense(&self, dense: &DenseMatrix) -> Result<f64> {
        if self.shape() != dense.shape() {
            return Err(LinalgError::ShapeMismatch {
                op: "frobenius_distance_sq_dense",
                lhs: self.shape(),
                rhs: dense.shape(),
            });
        }
        // ‖A − B‖² = ‖B‖² + Σ_{(i,j) ∈ nnz(A)} (A_ij − B_ij)² − B_ij².
        let mut total = dense.frobenius_norm_sq();
        for (r, c, v) in self.triplets() {
            let b = dense.get(r, c);
            total += (v - b) * (v - b) - b * b;
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        // [[1, 0, 2],
        //  [0, 0, 0],
        //  [3, 4, 0]]
        CsrMatrix::from_triplets(3, 3, &[(0, 0, 1.0), (0, 2, 2.0), (2, 0, 3.0), (2, 1, 4.0)])
            .unwrap()
    }

    #[test]
    fn construct_and_query() {
        let m = sample();
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.get(0, 2), 2.0);
        assert_eq!(m.get(1, 1), 0.0);
        assert_eq!(m.row_nnz(2), 2);
        assert_eq!(m.row_sums(), vec![3.0, 0.0, 7.0]);
        assert_eq!(m.row_max(), vec![2.0, 0.0, 4.0]);
    }

    #[test]
    fn duplicates_are_summed_and_zeros_dropped() {
        let m = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 0, 2.0), (1, 1, 0.0)]).unwrap();
        assert_eq!(m.get(0, 0), 3.0);
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    fn cancelling_duplicates_are_dropped() {
        let m = CsrMatrix::from_triplets(1, 2, &[(0, 1, 1.0), (0, 1, -1.0)]).unwrap();
        assert_eq!(m.nnz(), 0);
    }

    #[test]
    fn out_of_bounds_triplet_rejected() {
        assert!(CsrMatrix::from_triplets(2, 2, &[(2, 0, 1.0)]).is_err());
    }

    #[test]
    fn identity_and_diagonal() {
        let i = CsrMatrix::identity(3);
        assert_eq!(i.nnz(), 3);
        assert_eq!(i.get(2, 2), 1.0);
        let d = CsrMatrix::from_diagonal(&[1.0, 0.0, 5.0]);
        assert_eq!(d.nnz(), 2);
        assert_eq!(d.get(2, 2), 5.0);
    }

    #[test]
    fn dense_round_trip() {
        let m = sample();
        let d = m.to_dense();
        let back = CsrMatrix::from_dense(&d);
        assert_eq!(m, back);
    }

    #[test]
    fn sub_matrix_matches_dense_extraction() {
        // 4×4 with structure in every row so renumbering is exercised.
        let m = CsrMatrix::from_triplets(
            4,
            4,
            &[
                (0, 1, 1.0),
                (0, 3, 2.0),
                (1, 0, 3.0),
                (1, 2, 4.0),
                (2, 2, 5.0),
                (3, 0, 6.0),
                (3, 3, 7.0),
            ],
        )
        .unwrap();
        let nodes = [0usize, 2, 3];
        let sub = m.sub_matrix(&nodes).unwrap();
        assert_eq!(sub.shape(), (3, 3));
        let dense = m.to_dense();
        for (i, &r) in nodes.iter().enumerate() {
            for (j, &c) in nodes.iter().enumerate() {
                assert_eq!(sub.get(i, j), dense.get(r, c));
            }
        }
        // Rows stay sorted and renumbered: row 0 keeps only column 3 → new 2.
        let row0: Vec<(usize, f64)> = sub.row(0).collect();
        assert_eq!(row0, vec![(2, 2.0)]);
    }

    #[test]
    fn sub_matrix_full_selection_is_identity_operation() {
        let m = sample();
        assert_eq!(m.sub_matrix(&[0, 1, 2]).unwrap(), m);
        let empty = m.sub_matrix(&[]).unwrap();
        assert_eq!(empty.shape(), (0, 0));
        assert_eq!(empty.nnz(), 0);
    }

    #[test]
    fn sub_matrix_rejects_out_of_range_nodes() {
        assert!(sample().sub_matrix(&[0, 3]).is_err());
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn sub_matrix_panics_on_unsorted_nodes() {
        let _ = sample().sub_matrix(&[1, 0]);
    }

    #[test]
    fn matmul_dense_matches_dense_matmul() {
        let m = sample();
        let x = DenseMatrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let sparse_result = m.matmul_dense(&x).unwrap();
        let dense_result = m.to_dense().matmul(&x).unwrap();
        assert!(sparse_result.approx_eq(&dense_result, 1e-12));
    }

    #[test]
    fn matmul_dense_into_reuses_buffer() {
        let m = sample();
        let x = DenseMatrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let mut out = DenseMatrix::zeros(9, 9);
        m.matmul_dense_into(&x, &mut out).unwrap();
        assert!(out.approx_eq(&m.to_dense().matmul(&x).unwrap(), 1e-12));
        // Mismatched inner dimension is rejected.
        assert!(m
            .matmul_dense_into(&DenseMatrix::zeros(4, 2), &mut out)
            .is_err());
    }

    #[test]
    fn matmul_dense_panelled_matches_reference() {
        // A tall inner dimension and a wide rhs force the column-panel width
        // below n, so this exercises the multi-panel path of matmul_dense_into.
        let k = 1024;
        let n = 300;
        let triplets: Vec<(usize, usize, f64)> = (0..64)
            .map(|i| (i % 4, (i * 131) % k, (i as f64 * 0.37) - 9.0))
            .collect();
        let m = CsrMatrix::from_triplets(4, k, &triplets).unwrap();
        let rhs_data: Vec<f64> = (0..k * n).map(|i| ((i * 23) % 11) as f64 - 5.0).collect();
        let rhs = DenseMatrix::from_vec(k, n, rhs_data).unwrap();
        let fast = m.matmul_dense(&rhs).unwrap();
        // Reference: row-by-row gather without panels.
        let mut reference = DenseMatrix::zeros(4, n);
        for (r, c, v) in m.triplets() {
            for j in 0..n {
                reference.add_at(r, j, v * rhs.get(c, j));
            }
        }
        assert!(fast.approx_eq(&reference, 1e-12));
    }

    #[test]
    fn matvec_matches_matmul() {
        let m = sample();
        let x = vec![1.0, -1.0, 2.0];
        let y = m.matvec(&x).unwrap();
        assert_eq!(y, vec![5.0, 0.0, -1.0]);
    }

    #[test]
    fn transpose_and_symmetry() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.get(2, 0), 2.0);
        assert!(!m.is_symmetric(1e-12));
        let sym = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0), (1, 0, 1.0)]).unwrap();
        assert!(sym.is_symmetric(1e-12));
    }

    #[test]
    fn scale_sym_matches_dense() {
        let m = sample();
        let left = vec![1.0, 2.0, 3.0];
        let right = vec![0.5, 1.0, 2.0];
        let scaled = m.scale_sym(&left, &right).unwrap();
        let expected = DenseMatrix::from_diagonal(&left)
            .matmul(&m.to_dense())
            .unwrap()
            .matmul(&DenseMatrix::from_diagonal(&right))
            .unwrap();
        assert!(scaled.to_dense().approx_eq(&expected, 1e-12));
    }

    #[test]
    fn scale_sym_into_matches_scale_sym_and_reuses_buffers() {
        let m = sample();
        let left = vec![1.0, 2.0, 3.0];
        let right = vec![0.5, 1.0, 2.0];
        let expected = m.scale_sym(&left, &right).unwrap();
        // Start from a differently-shaped matrix to prove `out` is fully
        // overwritten, then rescale in place repeatedly.
        let mut out = CsrMatrix::identity(7);
        for _ in 0..3 {
            m.scale_sym_into(&left, &right, &mut out).unwrap();
            assert_eq!(out.to_dense(), expected.to_dense());
        }
        assert!(m
            .scale_sym_into(&left, &[1.0], &mut out)
            .is_err_and(|e| matches!(e, LinalgError::DataLength { .. })));
    }

    #[test]
    fn add_and_scale() {
        let m = sample();
        let doubled = m.add(&m).unwrap();
        assert_eq!(doubled.get(2, 1), 8.0);
        let scaled = m.scale(0.5);
        assert_eq!(scaled.get(2, 1), 2.0);
    }

    #[test]
    fn frobenius_distance_matches_explicit() {
        let m = sample();
        let b = DenseMatrix::from_vec(3, 3, (0..9).map(|v| v as f64 * 0.3).collect()).unwrap();
        let explicit = m.to_dense().sub(&b).unwrap().frobenius_norm_sq();
        let implicit = m.frobenius_distance_sq_dense(&b).unwrap();
        assert!((explicit - implicit).abs() < 1e-10);
    }

    #[test]
    fn row_iteration_order_is_sorted() {
        let m = CsrMatrix::from_triplets(1, 5, &[(0, 4, 1.0), (0, 1, 2.0), (0, 3, 3.0)]).unwrap();
        let cols: Vec<usize> = m.row(0).map(|(c, _)| c).collect();
        assert_eq!(cols, vec![1, 3, 4]);
    }

    #[test]
    fn frobenius_norm_sq_counts_values() {
        let m = sample();
        assert_eq!(m.frobenius_norm_sq(), 1.0 + 4.0 + 9.0 + 16.0);
    }
}

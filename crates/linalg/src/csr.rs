//! Compressed-sparse-row matrix.
//!
//! The road graph and supergraph adjacency matrices are stored in this
//! format, as the paper prescribes ("stored in the form of its n x n binary
//! adjacency matrix using sparse matrix representation", §2.1).

use crate::error::{LinalgError, Result};

/// A square sparse matrix in CSR layout.
///
/// Duplicate triplets passed to the constructors are summed; explicit zeros
/// are dropped. Column indices within each row are sorted ascending, which
/// the binary-search lookups in [`CsrMatrix::get`] rely on.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    n: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds an `n x n` matrix from `(row, col, value)` triplets.
    ///
    /// Duplicates are summed and resulting zeros dropped.
    ///
    /// # Errors
    /// Returns [`LinalgError::InvalidInput`] if any index is out of range or
    /// any value is non-finite.
    pub fn from_triplets(n: usize, triplets: &[(usize, usize, f64)]) -> Result<Self> {
        for &(i, j, v) in triplets {
            if i >= n || j >= n {
                return Err(LinalgError::InvalidInput(format!(
                    "triplet index ({i},{j}) out of range for dimension {n}"
                )));
            }
            if !v.is_finite() {
                return Err(LinalgError::InvalidInput(format!(
                    "non-finite value {v} at ({i},{j})"
                )));
            }
        }
        // Count per-row entries, then bucket-sort triplets into rows.
        let mut counts = vec![0usize; n + 1];
        for &(i, _, _) in triplets {
            counts[i + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let mut cols = vec![0usize; triplets.len()];
        let mut vals = vec![0.0f64; triplets.len()];
        let mut cursor = counts.clone();
        for &(i, j, v) in triplets {
            let p = cursor[i];
            cols[p] = j;
            vals[p] = v;
            cursor[i] += 1;
        }
        // Sort each row by column, merging duplicates and dropping zeros.
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::with_capacity(triplets.len());
        let mut values = Vec::with_capacity(triplets.len());
        row_ptr.push(0);
        let mut scratch: Vec<(usize, f64)> = Vec::new();
        for i in 0..n {
            scratch.clear();
            scratch.extend(
                cols[counts[i]..counts[i + 1]]
                    .iter()
                    .copied()
                    .zip(vals[counts[i]..counts[i + 1]].iter().copied()),
            );
            scratch.sort_unstable_by_key(|&(c, _)| c);
            let mut k = 0;
            while k < scratch.len() {
                let c = scratch[k].0;
                let mut v = 0.0;
                while k < scratch.len() && scratch[k].0 == c {
                    v += scratch[k].1;
                    k += 1;
                }
                if v != 0.0 {
                    col_idx.push(c);
                    values.push(v);
                }
            }
            row_ptr.push(col_idx.len());
        }
        Ok(Self {
            n,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Builds a symmetric matrix from undirected weighted edges: for each
    /// `(a, b, w)` both `(a,b)` and `(b,a)` are inserted. Self-loops `(a, a, w)`
    /// are inserted once.
    ///
    /// # Errors
    /// Same conditions as [`CsrMatrix::from_triplets`].
    pub fn from_undirected_edges(n: usize, edges: &[(usize, usize, f64)]) -> Result<Self> {
        let mut triplets = Vec::with_capacity(edges.len() * 2);
        for &(a, b, w) in edges {
            triplets.push((a, b, w));
            if a != b {
                triplets.push((b, a, w));
            }
        }
        Self::from_triplets(n, &triplets)
    }

    /// Builds a matrix directly from CSR raw parts, validating every
    /// structural invariant ([`CsrMatrix::validate`] minus the symmetry
    /// check, which is a property of the *content*, not the layout).
    ///
    /// This is the zero-copy ingestion path for callers that already hold a
    /// CSR layout (external loaders, test harnesses building adversarial
    /// layouts); everything else should prefer [`CsrMatrix::from_triplets`].
    ///
    /// # Errors
    /// Returns [`LinalgError::InvalidInput`] when the arrays do not form a
    /// well-formed CSR matrix: wrong `row_ptr` length or endpoints,
    /// non-monotone `row_ptr`, unsorted/duplicate/out-of-range column
    /// indices, length-mismatched value array, or non-finite values.
    pub fn from_raw_parts(
        n: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<f64>,
    ) -> Result<Self> {
        let m = Self {
            n,
            row_ptr,
            col_idx,
            values,
        };
        m.validate_structure()?;
        Ok(m)
    }

    /// The matrix dimension `n`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of stored (structurally non-zero) entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The stored entries of row `i` as parallel `(columns, values)` slices.
    #[inline]
    pub fn row(&self, i: usize) -> (&[usize], &[f64]) {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        (&self.col_idx[lo..hi], &self.values[lo..hi])
    }

    /// Value at `(i, j)`; `0.0` when the entry is not stored.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let (cols, vals) = self.row(i);
        match cols.binary_search(&j) {
            Ok(p) => vals[p],
            Err(_) => 0.0,
        }
    }

    /// `y = A x`.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] on shape mismatch.
    pub fn matvec(&self, x: &[f64], y: &mut [f64]) -> Result<()> {
        if x.len() != self.n {
            return Err(LinalgError::DimensionMismatch {
                expected: self.n,
                found: x.len(),
                context: "CsrMatrix::matvec input",
            });
        }
        if y.len() != self.n {
            return Err(LinalgError::DimensionMismatch {
                expected: self.n,
                found: y.len(),
                context: "CsrMatrix::matvec output",
            });
        }
        self.rows_into(0, x, y);
        Ok(())
    }

    /// `y = A x` computed with row chunks distributed over `pool`.
    ///
    /// Each `y[i]` is produced by the same sequential per-row accumulation
    /// as [`CsrMatrix::matvec`], so the result is bit-identical to the
    /// serial product at every pool size.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] on shape mismatch.
    pub fn par_matvec(
        &self,
        pool: &crate::par::ThreadPool,
        x: &[f64],
        y: &mut [f64],
    ) -> Result<()> {
        if x.len() != self.n {
            return Err(LinalgError::DimensionMismatch {
                expected: self.n,
                found: x.len(),
                context: "CsrMatrix::par_matvec input",
            });
        }
        if y.len() != self.n {
            return Err(LinalgError::DimensionMismatch {
                expected: self.n,
                found: y.len(),
                context: "CsrMatrix::par_matvec output",
            });
        }
        pool.for_each_chunk_mut(y, crate::par::DEFAULT_CHUNK, |r, yc| {
            self.rows_into(r.start, x, yc);
        });
        Ok(())
    }

    /// Computes rows `row0 .. row0 + out.len()` of `A x` into `out`.
    /// Shapes are the caller's responsibility.
    ///
    /// Each row reduces in the crate's canonical lane order (see
    /// [`crate::vecops`]): short rows fold left-to-right, rows with at
    /// least [`crate::vecops::LANES`] entries run the lane-unrolled kernel
    /// with the fixed reduction tree.
    pub(crate) fn rows_into(&self, row0: usize, x: &[f64], out: &mut [f64]) {
        for (offset, yi) in out.iter_mut().enumerate() {
            let (cols, vals) = self.row(row0 + offset);
            *yi = row_gather_dot(cols, vals, x);
        }
    }

    /// Rebuilds a matrix with this matrix's sparsity pattern and
    /// `mapped[p]` as the value of stored entry `p`, dropping entries that
    /// mapped to exactly `0.0` (matching [`CsrMatrix::from_triplets`]
    /// semantics).
    fn rebuild_mapped(&self, mapped: &[f64]) -> Result<CsrMatrix> {
        debug_assert_eq!(mapped.len(), self.values.len());
        let mut row_ptr = Vec::with_capacity(self.n + 1);
        let mut col_idx = Vec::with_capacity(self.col_idx.len());
        let mut values = Vec::with_capacity(self.values.len());
        row_ptr.push(0);
        for i in 0..self.n {
            let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
            for (&v, &c) in mapped[lo..hi].iter().zip(&self.col_idx[lo..hi]) {
                if !v.is_finite() {
                    return Err(LinalgError::InvalidInput(format!(
                        "non-finite mapped value {v} at ({i},{c})"
                    )));
                }
                if v != 0.0 {
                    col_idx.push(c);
                    values.push(v);
                }
            }
            row_ptr.push(col_idx.len());
        }
        Ok(Self {
            n: self.n,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Builds a new matrix with the same sparsity pattern whose entry
    /// `(i, j)` holds `f(i, j, value)`. Entries mapped to exactly `0.0` are
    /// dropped, so the result is identical to re-running
    /// [`CsrMatrix::from_triplets`] on the mapped triplets — without the
    /// bucket sort, per-row sort, and duplicate merge that path pays.
    ///
    /// This is the fast construction path for pattern-preserving
    /// transforms such as the Gaussian affinity kernel, which reweights a
    /// graph adjacency without changing which edges exist.
    ///
    /// # Errors
    /// Returns [`LinalgError::InvalidInput`] if `f` produces a non-finite
    /// value.
    pub fn map_entries<F>(&self, f: F) -> Result<CsrMatrix>
    where
        F: Fn(usize, usize, f64) -> f64,
    {
        let mut mapped = vec![0.0f64; self.values.len()];
        for i in 0..self.n {
            let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
            for ((m, &c), &v) in mapped[lo..hi]
                .iter_mut()
                .zip(&self.col_idx[lo..hi])
                .zip(&self.values[lo..hi])
            {
                *m = f(i, c, v);
            }
        }
        self.rebuild_mapped(&mapped)
    }

    /// [`CsrMatrix::map_entries`] with the per-entry evaluation distributed
    /// over `pool` in fixed row chunks. `f` runs once per stored entry in a
    /// deterministic slot, so the result is bit-identical to the serial
    /// map at every pool size.
    ///
    /// # Errors
    /// Returns [`LinalgError::InvalidInput`] if `f` produces a non-finite
    /// value.
    pub fn map_entries_par<F>(&self, pool: &crate::par::ThreadPool, f: F) -> Result<CsrMatrix>
    where
        F: Fn(usize, usize, f64) -> f64 + Sync,
    {
        let chunks = pool.chunked_map(self.n, crate::par::DEFAULT_CHUNK, |rows| {
            let lo = self.row_ptr[rows.start];
            let hi = self.row_ptr[rows.end];
            let mut out = Vec::with_capacity(hi - lo);
            for i in rows {
                for p in self.row_ptr[i]..self.row_ptr[i + 1] {
                    out.push(f(i, self.col_idx[p], self.values[p]));
                }
            }
            out
        });
        let mapped = chunks.concat();
        self.rebuild_mapped(&mapped)
    }

    /// Row sums — the weighted degree vector `d` of a graph adjacency matrix.
    pub fn degrees(&self) -> Vec<f64> {
        (0..self.n).map(|i| self.row(i).1.iter().sum()).collect()
    }

    /// Sum of all stored values (`1ᵀ A 1`); for a symmetric adjacency matrix
    /// this is twice the total edge weight.
    pub fn total(&self) -> f64 {
        self.values.iter().sum()
    }

    /// True if `|A_ij - A_ji| <= tol` for every stored entry.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        for i in 0..self.n {
            let (cols, vals) = self.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                if (v - self.get(j, i)).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Extracts the principal submatrix on `keep` (rows and columns),
    /// renumbering so that `keep[p]` becomes index `p`.
    ///
    /// # Errors
    /// Returns [`LinalgError::InvalidInput`] if `keep` contains an
    /// out-of-range or duplicate index.
    pub fn submatrix(&self, keep: &[usize]) -> Result<CsrMatrix> {
        let mut remap = vec![usize::MAX; self.n];
        for (new, &old) in keep.iter().enumerate() {
            if old >= self.n {
                return Err(LinalgError::InvalidInput(format!(
                    "submatrix index {old} out of range for dimension {}",
                    self.n
                )));
            }
            if remap[old] != usize::MAX {
                return Err(LinalgError::InvalidInput(format!(
                    "duplicate submatrix index {old}"
                )));
            }
            remap[old] = new;
        }
        let mut triplets = Vec::new();
        for (new_i, &old_i) in keep.iter().enumerate() {
            let (cols, vals) = self.row(old_i);
            for (&c, &v) in cols.iter().zip(vals) {
                if remap[c] != usize::MAX {
                    triplets.push((new_i, remap[c], v));
                }
            }
        }
        CsrMatrix::from_triplets(keep.len(), &triplets)
    }

    /// Converts to a dense matrix (intended for small dimensions and tests).
    pub fn to_dense(&self) -> crate::dense::DenseMatrix {
        let mut m = crate::dense::DenseMatrix::zeros(self.n, self.n);
        for i in 0..self.n {
            let (cols, vals) = self.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                m.set(i, j, v);
            }
        }
        m
    }

    /// Checks the CSR *layout* invariants every other method relies on:
    ///
    /// * `row_ptr` has length `n + 1`, starts at 0, ends at `nnz`, and is
    ///   non-decreasing;
    /// * `col_idx` and `values` have equal length;
    /// * column indices are strictly increasing within each row (sortedness
    ///   is what makes [`CsrMatrix::get`]'s binary search correct; strict
    ///   monotonicity rules out duplicates) and in `0..n`;
    /// * every stored value is finite.
    ///
    /// Constructors establish these invariants; this method exists so
    /// deserialized or externally assembled matrices can be checked at a
    /// pipeline boundary instead of trusted.
    ///
    /// # Errors
    /// Returns [`LinalgError::InvalidInput`] naming the first violated
    /// invariant and where it sits.
    pub fn validate_structure(&self) -> Result<()> {
        let nnz = self.col_idx.len();
        if self.row_ptr.len() != self.n + 1 {
            return Err(LinalgError::InvalidInput(format!(
                "row_ptr length {} != n + 1 = {}",
                self.row_ptr.len(),
                self.n + 1
            )));
        }
        if self.values.len() != nnz {
            return Err(LinalgError::InvalidInput(format!(
                "values length {} != col_idx length {nnz}",
                self.values.len()
            )));
        }
        if self.row_ptr[0] != 0 || self.row_ptr[self.n] != nnz {
            return Err(LinalgError::InvalidInput(format!(
                "row_ptr endpoints ({}, {}) != (0, {nnz})",
                self.row_ptr[0], self.row_ptr[self.n]
            )));
        }
        for i in 0..self.n {
            let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
            if lo > hi || hi > nnz {
                return Err(LinalgError::InvalidInput(format!(
                    "row_ptr not monotone at row {i}: {lo} > {hi} (nnz {nnz})"
                )));
            }
            let mut prev: Option<usize> = None;
            for p in lo..hi {
                let c = self.col_idx[p];
                if c >= self.n {
                    return Err(LinalgError::InvalidInput(format!(
                        "column index {c} out of range in row {i} (n = {})",
                        self.n
                    )));
                }
                if prev.is_some_and(|q| q >= c) {
                    return Err(LinalgError::InvalidInput(format!(
                        "column indices not strictly increasing in row {i} at slot {p}"
                    )));
                }
                prev = Some(c);
                if !self.values[p].is_finite() {
                    return Err(LinalgError::InvalidInput(format!(
                        "non-finite value {} at ({i},{c})",
                        self.values[p]
                    )));
                }
            }
        }
        Ok(())
    }

    /// Full structural invariant check for a symmetric adjacency matrix:
    /// [`CsrMatrix::validate_structure`] plus pattern/value symmetry
    /// (`|A_ij − A_ji| ≤ 1e-9 · (1 + max|A|)`). Every adjacency the
    /// partitioning pipeline builds (road graph, affinity, superlinks) is
    /// symmetric by construction; this is the mechanical check of that
    /// contract at stage boundaries (`debug_assertions` /
    /// `strict-invariants` builds).
    ///
    /// # Errors
    /// Returns [`LinalgError::InvalidInput`] naming the first violated
    /// invariant.
    pub fn validate(&self) -> Result<()> {
        self.validate_structure()?;
        let scale = 1.0 + self.values.iter().fold(0.0f64, |acc, v| acc.max(v.abs()));
        for i in 0..self.n {
            let (cols, vals) = self.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                let back = self.get(j, i);
                if back == 0.0 && self.row(j).0.binary_search(&i).is_err() {
                    return Err(LinalgError::InvalidInput(format!(
                        "asymmetric pattern: ({i},{j}) stored but ({j},{i}) missing"
                    )));
                }
                if (v - back).abs() > 1e-9 * scale {
                    return Err(LinalgError::InvalidInput(format!(
                        "asymmetric values: A[{i}][{j}] = {v} vs A[{j}][{i}] = {back}"
                    )));
                }
            }
        }
        Ok(())
    }

    /// Iterator over all stored `(row, col, value)` entries.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.n).flat_map(move |i| {
            let (cols, vals) = self.row(i);
            cols.iter().zip(vals).map(move |(&j, &v)| (i, j, v))
        })
    }
}

/// Sparse gather-dot `Σ vals[p] · x[cols[p]]` in the canonical lane order:
/// a left-to-right fold for rows shorter than [`crate::vecops::LANES`],
/// otherwise [`crate::vecops::LANES`] accumulator chains combined by
/// [`crate::vecops::reduce_lanes`].
#[inline]
pub(crate) fn row_gather_dot(cols: &[usize], vals: &[f64], x: &[f64]) -> f64 {
    use crate::vecops::{reduce_lanes, LANES};
    debug_assert_eq!(cols.len(), vals.len());
    if cols.len() < LANES {
        let mut acc = 0.0;
        for (c, v) in cols.iter().zip(vals) {
            acc += v * x[*c];
        }
        return acc;
    }
    let mut acc = [0.0f64; LANES];
    let mut cc = cols.chunks_exact(LANES);
    let mut vc = vals.chunks_exact(LANES);
    for (cb, vb) in cc.by_ref().zip(vc.by_ref()) {
        for l in 0..LANES {
            acc[l] += vb[l] * x[cb[l]];
        }
    }
    for (l, (c, v)) in cc.remainder().iter().zip(vc.remainder()).enumerate() {
        acc[l] += v * x[*c];
    }
    reduce_lanes(&acc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path3() -> CsrMatrix {
        // 0 - 1 - 2 path with unit weights.
        CsrMatrix::from_undirected_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)]).unwrap()
    }

    #[test]
    fn triplets_dedup_and_sort() {
        let m = CsrMatrix::from_triplets(2, &[(0, 1, 1.0), (0, 1, 2.0), (0, 0, 5.0)]).unwrap();
        assert_eq!(m.get(0, 1), 3.0);
        assert_eq!(m.get(0, 0), 5.0);
        assert_eq!(m.nnz(), 2);
        let (cols, _) = m.row(0);
        assert_eq!(cols, &[0, 1]);
    }

    #[test]
    fn zero_sum_entries_dropped() {
        let m = CsrMatrix::from_triplets(2, &[(0, 1, 1.0), (0, 1, -1.0)]).unwrap();
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.get(0, 1), 0.0);
    }

    #[test]
    fn out_of_range_and_nan_rejected() {
        assert!(CsrMatrix::from_triplets(2, &[(2, 0, 1.0)]).is_err());
        assert!(CsrMatrix::from_triplets(2, &[(0, 0, f64::NAN)]).is_err());
    }

    #[test]
    fn undirected_is_symmetric() {
        let m = path3();
        assert!(m.is_symmetric(0.0));
        assert_eq!(m.get(0, 1), 1.0);
        assert_eq!(m.get(1, 0), 1.0);
        assert_eq!(m.degrees(), vec![1.0, 2.0, 1.0]);
        assert_eq!(m.total(), 4.0);
    }

    #[test]
    fn self_loop_inserted_once() {
        let m = CsrMatrix::from_undirected_edges(2, &[(0, 0, 3.0)]).unwrap();
        assert_eq!(m.get(0, 0), 3.0);
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    fn matvec_matches_dense() {
        let m = path3();
        let x = [1.0, 2.0, 3.0];
        let mut y = [0.0; 3];
        m.matvec(&x, &mut y).unwrap();
        // A = path adjacency: y = [x1, x0+x2, x1]
        assert_eq!(y, [2.0, 4.0, 2.0]);
        let mut yd = [0.0; 3];
        m.to_dense().matvec(&x, &mut yd).unwrap();
        assert_eq!(y, yd);
    }

    #[test]
    fn submatrix_renumbers() {
        let m = path3();
        let s = m.submatrix(&[1, 2]).unwrap();
        assert_eq!(s.dim(), 2);
        assert_eq!(s.get(0, 1), 1.0); // old (1,2) edge
        assert_eq!(s.get(1, 0), 1.0);
        assert_eq!(s.nnz(), 2);
    }

    #[test]
    fn submatrix_rejects_duplicates() {
        assert!(path3().submatrix(&[0, 0]).is_err());
        assert!(path3().submatrix(&[5]).is_err());
    }

    #[test]
    fn validate_accepts_constructor_output() {
        path3().validate().unwrap();
        CsrMatrix::from_triplets(4, &[])
            .unwrap()
            .validate()
            .unwrap();
        CsrMatrix::from_undirected_edges(2, &[(0, 0, 3.0)])
            .unwrap()
            .validate()
            .unwrap();
    }

    #[test]
    fn validate_rejects_mutated_internals() {
        // Unsorted column indices.
        let mut m = path3();
        m.col_idx.swap(1, 2);
        assert!(m.validate_structure().is_err());

        // Non-finite value smuggled in post-construction.
        let mut m = path3();
        m.values[0] = f64::NAN;
        assert!(m.validate_structure().is_err());

        // Non-monotone row_ptr.
        let mut m = path3();
        m.row_ptr[1] = 3;
        m.row_ptr[2] = 1;
        assert!(m.validate_structure().is_err());

        // Out-of-range column.
        let mut m = path3();
        m.col_idx[0] = 9;
        assert!(m.validate_structure().is_err());

        // Asymmetric pattern: drop the (2,1) back-edge but keep (1,2).
        let mut m = path3();
        m.row_ptr[3] = m.row_ptr[2]; // row 2 becomes empty
        m.col_idx.truncate(m.row_ptr[2]);
        m.values.truncate(m.row_ptr[2]);
        m.validate_structure().unwrap();
        assert!(m.validate().is_err());

        // Asymmetric values.
        let mut m = path3();
        m.values[0] *= 2.0; // A[0][1] != A[1][0]
        assert!(m.validate().is_err());
    }

    #[test]
    fn from_raw_parts_round_trips_and_rejects_garbage() {
        let m = path3();
        let rebuilt =
            CsrMatrix::from_raw_parts(m.n, m.row_ptr.clone(), m.col_idx.clone(), m.values.clone())
                .unwrap();
        assert_eq!(rebuilt, m);
        // Wrong row_ptr length.
        assert!(CsrMatrix::from_raw_parts(2, vec![0, 1], vec![0], vec![1.0]).is_err());
        // values/col_idx length mismatch.
        assert!(CsrMatrix::from_raw_parts(1, vec![0, 1], vec![0], vec![]).is_err());
        // Duplicate column in a row.
        assert!(CsrMatrix::from_raw_parts(2, vec![0, 2, 2], vec![1, 1], vec![1.0, 2.0]).is_err());
    }

    #[test]
    fn map_entries_matches_from_triplets_rebuild() {
        let m = CsrMatrix::from_undirected_edges(
            4,
            &[(0, 1, 2.0), (1, 2, -3.0), (2, 3, 4.0), (0, 3, 0.5)],
        )
        .unwrap();
        let f = |i: usize, j: usize, v: f64| (v * 0.7) + (i as f64) - (j as f64) * 0.01;
        let mapped = m.map_entries(f).unwrap();
        let triplets: Vec<_> = m.iter().map(|(i, j, v)| (i, j, f(i, j, v))).collect();
        let reference = CsrMatrix::from_triplets(4, &triplets).unwrap();
        assert_eq!(mapped, reference);

        // Entries mapped to zero are dropped, matching from_triplets.
        let zeroed = m
            .map_entries(|i, j, v| if i == 0 && j == 1 { 0.0 } else { v })
            .unwrap();
        assert_eq!(zeroed.nnz(), m.nnz() - 1);
        assert_eq!(zeroed.get(0, 1), 0.0);
        zeroed.validate_structure().unwrap();
    }

    #[test]
    fn map_entries_par_is_bit_identical_to_serial() {
        let edges: Vec<_> = (0..200)
            .map(|i| (i, (i * 7 + 3) % 300, 1.0 + i as f64 * 0.25))
            .collect();
        let m = CsrMatrix::from_undirected_edges(300, &edges).unwrap();
        let f = |i: usize, j: usize, v: f64| (-(v * v) / (2.0 + (i + j) as f64)).exp();
        let serial = m.map_entries(f).unwrap();
        for threads in [1, 2, 4] {
            let pool = crate::par::ThreadPool::new(threads);
            let par = m.map_entries_par(&pool, f).unwrap();
            assert_eq!(par, serial, "threads {threads}");
        }
    }

    #[test]
    fn map_entries_rejects_non_finite() {
        let m = path3();
        assert!(m.map_entries(|_, _, _| f64::NAN).is_err());
    }

    #[test]
    fn row_gather_dot_matches_sequential_fold_semantics() {
        use crate::vecops::{reduce_lanes, LANES};
        for len in 0..=2 * LANES + 3 {
            let cols: Vec<usize> = (0..len).map(|p| (p * 3) % 40).collect();
            let vals: Vec<f64> = (0..len).map(|p| 0.5 + p as f64 * 0.3).collect();
            let x: Vec<f64> = (0..40).map(|i| (i as f64 * 0.11).cos()).collect();
            let expect = if len < LANES {
                let mut acc = 0.0;
                for (c, v) in cols.iter().zip(&vals) {
                    acc += v * x[*c];
                }
                acc
            } else {
                let mut acc = [0.0f64; LANES];
                for p in 0..len {
                    acc[p % LANES] += vals[p] * x[cols[p]];
                }
                reduce_lanes(&acc)
            };
            assert_eq!(
                row_gather_dot(&cols, &vals, &x).to_bits(),
                expect.to_bits(),
                "len {len}"
            );
        }
    }

    #[test]
    fn iter_yields_all_entries() {
        let m = path3();
        let entries: Vec<_> = m.iter().collect();
        assert_eq!(entries.len(), 4);
        assert!(entries.contains(&(0, 1, 1.0)));
        assert!(entries.contains(&(2, 1, 1.0)));
    }
}

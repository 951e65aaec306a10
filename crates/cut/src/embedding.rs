//! Spectral embeddings (Algorithm 3 lines 3–8).
//!
//! Builds the `n x k` eigenvector matrix `Y` of either the α-Cut matrix
//! `M = d dᵀ / (1ᵀD1) − A` (Eq. 6) or the normalized Laplacian
//! `L_sym = I − D^{-1/2} A D^{-1/2}` (the normalized-cut baseline), then
//! row-normalizes it into `Z` (Eq. 8). Both matrices are applied
//! matrix-free so the supergraph adjacency is never densified.

use crate::error::{CutError, Result};
use roadpart_linalg::{
    sym_eigs_recovering_ws, CsrMatrix, DenseMatrix, DiagScaledOp, EigenConfig, FallbackConfig,
    RankOneUpdate, RecoveryLog, SymOp, ThreadPool, Which, Workspace,
};
use serde::{Deserialize, Serialize};

/// Which spectral cut drives the embedding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CutKind {
    /// The paper's k-way α-Cut (Eq. 5/6).
    Alpha,
    /// The normalized cut of Shi & Malik (baseline).
    Normalized,
}

/// The matrix-free cut matrix of one [`CutKind`] over an adjacency.
pub(crate) enum CutOperator<'a> {
    /// `M = d dᵀ / (1ᵀD1) − A`.
    Alpha(RankOneUpdate<'a, CsrMatrix>),
    /// `L_sym = I − D^{-1/2} A D^{-1/2}`.
    Normalized(DiagScaledOp<'a, CsrMatrix>),
}

impl<'a> CutOperator<'a> {
    /// Validates `adj` and builds the cut matrix of `kind` over it.
    ///
    /// For an edgeless graph (`1ᵀD1 = 0`) the α-Cut matrix is `−A = 0`.
    /// Zero-degree (isolated) nodes get `d^{-1/2} = 0`: their rows of
    /// `L_sym` reduce to the identity, leaving them spectrally inert, and
    /// they fall out as singleton components later in the pipeline.
    ///
    /// # Errors
    /// Rejects asymmetric or negative input.
    pub(crate) fn new(adj: &'a CsrMatrix, kind: CutKind) -> Result<Self> {
        validate(adj)?;
        let d = adj.degrees();
        Ok(match kind {
            CutKind::Alpha => {
                let s: f64 = d.iter().sum();
                let scale = if s > 0.0 { 1.0 / s } else { 0.0 };
                CutOperator::Alpha(RankOneUpdate::new(adj, d, scale, -1.0)?)
            }
            CutKind::Normalized => {
                let d_inv_sqrt = d
                    .iter()
                    .map(|&d| if d > 0.0 { 1.0 / d.sqrt() } else { 0.0 })
                    .collect();
                CutOperator::Normalized(DiagScaledOp::new(adj, d_inv_sqrt, -1.0, 1.0)?)
            }
        })
    }
}

impl SymOp for CutOperator<'_> {
    fn dim(&self) -> usize {
        match self {
            CutOperator::Alpha(op) => op.dim(),
            CutOperator::Normalized(op) => op.dim(),
        }
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        match self {
            CutOperator::Alpha(op) => op.apply(x, y),
            CutOperator::Normalized(op) => op.apply(x, y),
        }
    }

    fn apply_par(&self, pool: &ThreadPool, x: &[f64], y: &mut [f64]) {
        match self {
            CutOperator::Alpha(op) => op.apply_par(pool, x, y),
            CutOperator::Normalized(op) => op.apply_par(pool, x, y),
        }
    }

    fn apply_par_ws(&self, pool: &ThreadPool, ws: &mut Workspace, x: &[f64], y: &mut [f64]) {
        match self {
            CutOperator::Alpha(op) => op.apply_par_ws(pool, ws, x, y),
            CutOperator::Normalized(op) => op.apply_par_ws(pool, ws, x, y),
        }
    }
}

/// Validates adjacency preconditions shared by both embeddings.
fn validate(adj: &CsrMatrix) -> Result<()> {
    if !adj.is_symmetric(1e-9) {
        return Err(CutError::InvalidInput(
            "adjacency matrix must be symmetric".into(),
        ));
    }
    if adj.iter().any(|(_, _, w)| w < 0.0) {
        return Err(CutError::InvalidInput(
            "adjacency weights must be non-negative".into(),
        ));
    }
    Ok(())
}

/// The `k` smallest eigenvectors of `kind`'s cut matrix as columns of an
/// `n x k` matrix (the relaxed cluster indicator vectors; `k` is clamped
/// to `n`), solved behind the solver fallback ladder: non-convergence and
/// non-finite Ritz values trigger progressively more forgiving solver
/// configurations instead of failing the cut outright. Every attempt is
/// recorded in `log`.
///
/// Every solver scratch buffer comes from `ws`. Passing the same workspace
/// across calls (the warm-solve loop of the online engine) keeps the
/// Lanczos restart loop allocation-free after the first solve; results are
/// bit-identical to a fresh workspace.
///
/// # Errors
/// Rejects asymmetric or negative input immediately; returns the last
/// rung's numerical error if the whole ladder is exhausted.
pub fn embedding_recovering_ws(
    adj: &CsrMatrix,
    k: usize,
    kind: CutKind,
    eig: &EigenConfig,
    fallback: &FallbackConfig,
    log: &mut RecoveryLog,
    ws: &mut Workspace,
) -> Result<DenseMatrix> {
    let op = CutOperator::new(adj, kind)?;
    let nev = k.min(adj.dim());
    let dec = sym_eigs_recovering_ws(&op, nev, Which::Smallest, eig, fallback, log, ws)?;
    Ok(dec.vectors)
}

/// Row-normalizes `Y` into `Z` (Eq. 8): each row is scaled to unit length.
/// All-zero rows (isolated nodes) are left as zero.
pub fn row_normalize(y: &mut DenseMatrix) {
    for i in 0..y.rows() {
        let row = y.row_mut(i);
        let norm: f64 = row.iter().map(|v| v * v).sum::<f64>().sqrt();
        if norm > 0.0 {
            for v in row {
                *v /= norm;
            }
        }
    }
}

/// Builds the α-Cut matrix densely (tests and tiny graphs only) so its
/// algebra can be checked against the operator form.
pub fn dense_alpha_matrix(adj: &CsrMatrix) -> DenseMatrix {
    let n = adj.dim();
    let d = adj.degrees();
    let s: f64 = d.iter().sum();
    let a = adj.to_dense();
    DenseMatrix::from_fn(n, n, |i, j| {
        let rank1 = if s > 0.0 { d[i] * d[j] / s } else { 0.0 };
        rank1 - a.get(i, j)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use roadpart_linalg::eigh;

    fn embed(adj: &CsrMatrix, k: usize, kind: CutKind) -> Result<DenseMatrix> {
        let (eig, fb) = (EigenConfig::default(), FallbackConfig::default());
        let mut log = RecoveryLog::new();
        embedding_recovering_ws(adj, k, kind, &eig, &fb, &mut log, &mut Workspace::new())
    }

    /// Two triangles joined by one weak link — an obvious 2-partition.
    fn two_triangles() -> CsrMatrix {
        CsrMatrix::from_undirected_edges(
            6,
            &[
                (0, 1, 1.0),
                (1, 2, 1.0),
                (0, 2, 1.0),
                (3, 4, 1.0),
                (4, 5, 1.0),
                (3, 5, 1.0),
                (2, 3, 0.05),
            ],
        )
        .unwrap()
    }

    #[test]
    fn alpha_embedding_matches_dense_eigensolve() {
        let a = two_triangles();
        let y = embed(&a, 2, CutKind::Alpha).unwrap();
        let dense = eigh(&dense_alpha_matrix(&a)).unwrap();
        // Column spans must agree: check eigenvalue residuals of y columns.
        let m = dense_alpha_matrix(&a);
        for c in 0..2 {
            let col = y.col(c);
            let mut mc = vec![0.0; 6];
            m.matvec(&col, &mut mc).unwrap();
            let lambda = dense.values[c];
            for i in 0..6 {
                assert!(
                    (mc[i] - lambda * col[i]).abs() < 1e-8,
                    "column {c} is not the eigenvector of lambda_{c}"
                );
            }
        }
    }

    #[test]
    fn alpha_embedding_separates_clusters() {
        let a = two_triangles();
        let mut y = embed(&a, 2, CutKind::Alpha).unwrap();
        row_normalize(&mut y);
        // Rows within each triangle should nearly coincide, across should not.
        let dist = |p: usize, q: usize| -> f64 {
            y.row(p)
                .iter()
                .zip(y.row(q))
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                .sqrt()
        };
        assert!(dist(0, 1) < 0.2);
        assert!(dist(3, 4) < 0.2);
        assert!(dist(0, 3) > 0.5, "cross-cluster distance {}", dist(0, 3));
    }

    #[test]
    fn ncut_embedding_constant_direction_for_connected_graph() {
        // The smallest eigenvalue of L_sym is 0 with eigenvector D^{1/2} 1.
        let a = two_triangles();
        let y = embed(&a, 1, CutKind::Normalized).unwrap();
        let d = a.degrees();
        let col = y.col(0);
        // col should be proportional to sqrt(d).
        let ratio: Vec<f64> = col.iter().zip(&d).map(|(c, dd)| c / dd.sqrt()).collect();
        for w in ratio.windows(2) {
            assert!((w[0] - w[1]).abs() < 1e-8, "ratios: {ratio:?}");
        }
    }

    #[test]
    fn row_normalize_makes_unit_rows() {
        let mut y = DenseMatrix::from_vec(2, 2, vec![3.0, 4.0, 0.0, 0.0]).unwrap();
        row_normalize(&mut y);
        assert!((y.get(0, 0) - 0.6).abs() < 1e-12);
        assert!((y.get(0, 1) - 0.8).abs() < 1e-12);
        // Zero row untouched.
        assert_eq!(y.row(1), &[0.0, 0.0]);
    }

    #[test]
    fn rejects_asymmetric_and_negative() {
        let asym = CsrMatrix::from_triplets(2, &[(0, 1, 1.0)]).unwrap();
        assert!(embed(&asym, 1, CutKind::Alpha).is_err());
        let neg = CsrMatrix::from_undirected_edges(2, &[(0, 1, -1.0)]).unwrap();
        assert!(embed(&neg, 1, CutKind::Normalized).is_err());
    }

    #[test]
    fn k_clamped_to_dimension() {
        let a = two_triangles();
        let y = embed(&a, 10, CutKind::Alpha).unwrap();
        assert_eq!(y.cols(), 6);
    }

    #[test]
    fn edgeless_graph_handled() {
        let a = CsrMatrix::from_triplets(4, &[]).unwrap();
        let y = embed(&a, 2, CutKind::Alpha).unwrap();
        assert_eq!(y.rows(), 4);
        let y2 = embed(&a, 2, CutKind::Normalized).unwrap();
        assert_eq!(y2.cols(), 2);
    }
}

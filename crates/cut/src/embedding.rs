//! Spectral embeddings (Algorithm 3 lines 3–8).
//!
//! Builds the `n x k` eigenvector matrix `Y` of either the α-Cut matrix
//! `M = d dᵀ / (1ᵀD1) − A` (Eq. 6) or the normalized Laplacian
//! `L_sym = I − D^{-1/2} A D^{-1/2}` (the normalized-cut baseline), then
//! row-normalizes it into `Z` (Eq. 8). Both matrices are applied
//! matrix-free so the supergraph adjacency is never densified.

use crate::error::{CutError, Result};
use roadpart_linalg::{
    sym_eigs, sym_eigs_recovering_ws, CsrMatrix, DenseMatrix, DiagScaledOp, EigenConfig,
    FallbackConfig, RankOneUpdate, RecoveryLog, Which, Workspace,
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

/// The `k` smallest eigenvectors of the α-Cut matrix as columns of an
/// `n x k` matrix (the relaxed cluster indicator vectors).
///
/// # Errors
/// Propagates eigensolver failures; rejects asymmetric or negative input.
pub fn alpha_embedding(adj: &CsrMatrix, k: usize, eig: &EigenConfig) -> Result<DenseMatrix> {
    validate(adj)?;
    let n = adj.dim();
    let nev = k.min(n);
    let d = adj.degrees();
    let s: f64 = d.iter().sum();
    // M = d d^T / s - A; for an edgeless graph (s = 0) M = -A = 0.
    let scale = if s > 0.0 { 1.0 / s } else { 0.0 };
    let op = RankOneUpdate::new(adj, d, scale, -1.0)?;
    let dec = sym_eigs(&op, nev, Which::Smallest, eig)?;
    Ok(dec.vectors)
}

/// The `k` smallest eigenvectors of the normalized Laplacian as columns of
/// an `n x k` matrix.
///
/// Zero-degree (isolated) nodes get `d^{-1/2} = 0`: their rows of `L_sym`
/// reduce to the identity, leaving them spectrally inert, and they fall out
/// as singleton components later in the pipeline.
///
/// # Errors
/// Propagates eigensolver failures; rejects asymmetric or negative input.
pub fn ncut_embedding(adj: &CsrMatrix, k: usize, eig: &EigenConfig) -> Result<DenseMatrix> {
    validate(adj)?;
    let n = adj.dim();
    let nev = k.min(n);
    let d_inv_sqrt: Vec<f64> = adj
        .degrees()
        .iter()
        .map(|&d| if d > 0.0 { 1.0 / d.sqrt() } else { 0.0 })
        .collect();
    let op = DiagScaledOp::new(adj, d_inv_sqrt, -1.0, 1.0)?;
    let dec = sym_eigs(&op, nev, Which::Smallest, eig)?;
    Ok(dec.vectors)
}

/// Dispatches to the embedding matching `kind`.
///
/// # Errors
/// See [`alpha_embedding`] / [`ncut_embedding`].
pub fn embedding(
    adj: &CsrMatrix,
    k: usize,
    kind: CutKind,
    eig: &EigenConfig,
) -> Result<DenseMatrix> {
    match kind {
        CutKind::Alpha => alpha_embedding(adj, k, eig),
        CutKind::Normalized => ncut_embedding(adj, k, eig),
    }
}

/// [`embedding`] behind the solver fallback ladder: non-convergence and
/// non-finite Ritz values trigger progressively more forgiving solver
/// configurations instead of failing the cut outright. Every attempt is
/// recorded in `log`.
///
/// # Errors
/// Rejects asymmetric or negative input immediately; returns the last
/// rung's numerical error if the whole ladder is exhausted.
pub fn embedding_recovering(
    adj: &CsrMatrix,
    k: usize,
    kind: CutKind,
    eig: &EigenConfig,
    fallback: &FallbackConfig,
    log: &mut RecoveryLog,
) -> Result<DenseMatrix> {
    embedding_recovering_ws(adj, k, kind, eig, fallback, log, &mut Workspace::new())
}

/// [`embedding_recovering`] drawing every solver scratch buffer from `ws`.
///
/// Passing the same workspace across calls (the warm-solve loop of the
/// online engine) keeps the Lanczos restart loop allocation-free after the
/// first solve; results are bit-identical to the fresh-workspace path.
///
/// # Errors
/// Same as [`embedding_recovering`].
pub fn embedding_recovering_ws(
    adj: &CsrMatrix,
    k: usize,
    kind: CutKind,
    eig: &EigenConfig,
    fallback: &FallbackConfig,
    log: &mut RecoveryLog,
    ws: &mut Workspace,
) -> Result<DenseMatrix> {
    validate(adj)?;
    let n = adj.dim();
    let nev = k.min(n);
    match kind {
        CutKind::Alpha => {
            let d = adj.degrees();
            let s: f64 = d.iter().sum();
            let scale = if s > 0.0 { 1.0 / s } else { 0.0 };
            let op = RankOneUpdate::new(adj, d, scale, -1.0)?;
            let dec = sym_eigs_recovering_ws(&op, nev, Which::Smallest, eig, fallback, log, ws)?;
            Ok(dec.vectors)
        }
        CutKind::Normalized => {
            let d_inv_sqrt: Vec<f64> = adj
                .degrees()
                .iter()
                .map(|&d| if d > 0.0 { 1.0 / d.sqrt() } else { 0.0 })
                .collect();
            let op = DiagScaledOp::new(adj, d_inv_sqrt, -1.0, 1.0)?;
            let dec = sym_eigs_recovering_ws(&op, nev, Which::Smallest, eig, fallback, log, ws)?;
            Ok(dec.vectors)
        }
    }
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
        let y = alpha_embedding(&a, 2, &EigenConfig::default()).unwrap();
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
        let mut y = alpha_embedding(&a, 2, &EigenConfig::default()).unwrap();
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
        let y = ncut_embedding(&a, 1, &EigenConfig::default()).unwrap();
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
        assert!(alpha_embedding(&asym, 1, &EigenConfig::default()).is_err());
        let neg = CsrMatrix::from_undirected_edges(2, &[(0, 1, -1.0)]).unwrap();
        assert!(ncut_embedding(&neg, 1, &EigenConfig::default()).is_err());
    }

    #[test]
    fn k_clamped_to_dimension() {
        let a = two_triangles();
        let y = alpha_embedding(&a, 10, &EigenConfig::default()).unwrap();
        assert_eq!(y.cols(), 6);
    }

    #[test]
    fn edgeless_graph_handled() {
        let a = CsrMatrix::from_triplets(4, &[]).unwrap();
        let y = alpha_embedding(&a, 2, &EigenConfig::default()).unwrap();
        assert_eq!(y.rows(), 4);
        let y2 = ncut_embedding(&a, 2, &EigenConfig::default()).unwrap();
        assert_eq!(y2.cols(), 2);
    }
}

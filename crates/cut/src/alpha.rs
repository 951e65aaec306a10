//! The k-way α-Cut (paper §5.2–§5.4) — public entry point.
//!
//! α-Cut minimizes
//! `Σ_i ( α_i · W(P_i, ~P_i)/|P_i| − (1 − α_i) · W(P_i, P_i)/|P_i| )`
//! (Eq. 5), balancing average cut against average association per
//! partition. With the paper's data-driven
//! `α_i = W(P_i, V)/W(V, V)` the objective reduces to
//! `Σ_i c_iᵀ M c_i / c_iᵀ c_i` with the α-Cut matrix
//! `M = (1ᵀD)ᵀ(1ᵀD)/(1ᵀD1) − A` (Eq. 6), solved by spectral relaxation.

use crate::embedding::CutKind;
use crate::error::Result;
use crate::kway::{spectral_partition_warm_ws, SpectralConfig};
use crate::partition::Partition;
use roadpart_linalg::{CsrMatrix, RecoveryLog, Workspace};

/// Partitions a weighted graph into `k` groups by minimizing the α-Cut.
///
/// # Errors
/// See [`spectral_partition_warm_ws`].
pub fn alpha_cut(adj: &CsrMatrix, k: usize, cfg: &SpectralConfig) -> Result<Partition> {
    let (mut log, mut ws) = (RecoveryLog::new(), Workspace::new());
    spectral_partition_warm_ws(adj, k, CutKind::Alpha, cfg, None, &mut log, &mut ws).map(|(p, _)| p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embedding::dense_alpha_matrix;
    use roadpart_linalg::eigh;

    /// The α-Cut matrix equals the negative modularity matrix
    /// `B = A - d dᵀ / (2m)` (§7: "This matrix actually equals to the
    /// negative of our α-Cut matrix"), so minimizing α-Cut approximately
    /// maximizes modularity.
    #[test]
    fn alpha_matrix_is_negative_modularity_matrix() {
        let adj = CsrMatrix::from_undirected_edges(
            5,
            &[
                (0, 1, 2.0),
                (1, 2, 1.0),
                (2, 3, 0.5),
                (3, 4, 1.5),
                (4, 0, 1.0),
                (1, 3, 0.25),
            ],
        )
        .unwrap();
        let m = dense_alpha_matrix(&adj);
        let d = adj.degrees();
        let two_m: f64 = d.iter().sum();
        for i in 0..5 {
            for j in 0..5 {
                let b = adj.get(i, j) - d[i] * d[j] / two_m;
                assert!(
                    (m.get(i, j) + b).abs() < 1e-12,
                    "M[{i}][{j}] != -B[{i}][{j}]"
                );
            }
        }
    }

    /// Eigenvectors of the k smallest α-Cut eigenvalues coincide with those
    /// of the k largest modularity eigenvalues (White & Smyth equivalence).
    #[test]
    fn smallest_alpha_eigens_are_largest_modularity_eigens() {
        let adj = CsrMatrix::from_undirected_edges(
            6,
            &[
                (0, 1, 1.0),
                (1, 2, 1.0),
                (0, 2, 1.0),
                (3, 4, 1.0),
                (4, 5, 1.0),
                (3, 5, 1.0),
                (2, 3, 0.1),
            ],
        )
        .unwrap();
        let m = dense_alpha_matrix(&adj);
        let dec = eigh(&m).unwrap();
        // -M's largest eigenvalue = -(M's smallest); same eigenvector.
        let neg = roadpart_linalg::DenseMatrix::from_fn(6, 6, |i, j| -m.get(i, j));
        let neg_dec = eigh(&neg).unwrap();
        let n = 6;
        for j in 0..2 {
            assert!((dec.values[j] + neg_dec.values[n - 1 - j]).abs() < 1e-10);
        }
    }

    #[test]
    fn alpha_cut_on_weighted_communities() {
        // Two dense communities with different internal densities.
        let mut edges = Vec::new();
        for i in 0..5usize {
            for j in (i + 1)..5 {
                edges.push((i, j, 2.0));
                edges.push((5 + i, 5 + j, 1.0));
            }
        }
        edges.push((4, 5, 0.05));
        let adj = CsrMatrix::from_undirected_edges(10, &edges).unwrap();
        let p = alpha_cut(&adj, 2, &SpectralConfig::default()).unwrap();
        assert_eq!(p.k(), 2);
        assert_ne!(p.label(0), p.label(9));
        for i in 1..5 {
            assert_eq!(p.label(i), p.label(0));
        }
    }
}

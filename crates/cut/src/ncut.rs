//! The normalized-cut baseline (Shi & Malik \[11\]) — public entry point.
//!
//! Normalized cut minimizes `Σ_i W(P_i, ~P_i) / W(P_i, V)`, normalizing by
//! link volume rather than node count. The paper's NG/NSG schemes run this
//! through the same spectral pipeline, using the `k` smallest eigenvectors
//! of `L_sym = I − D^{-1/2} A D^{-1/2}`.

use crate::embedding::CutKind;
use crate::error::Result;
use crate::kway::{spectral_partition_warm_ws, SpectralConfig};
use crate::partition::Partition;
use roadpart_linalg::{CsrMatrix, RecoveryLog, Workspace};

/// Partitions a weighted graph into `k` groups by minimizing the
/// normalized cut.
///
/// # Errors
/// See [`spectral_partition_warm_ws`].
pub fn normalized_cut(adj: &CsrMatrix, k: usize, cfg: &SpectralConfig) -> Result<Partition> {
    let (mut log, mut ws) = (RecoveryLog::new(), Workspace::new());
    spectral_partition_warm_ws(adj, k, CutKind::Normalized, cfg, None, &mut log, &mut ws)
        .map(|(p, _)| p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_barbell() {
        // Two cliques of 5 joined by a single unit link.
        let mut edges = Vec::new();
        for b in [0usize, 5] {
            for i in 0..5 {
                for j in (i + 1)..5 {
                    edges.push((b + i, b + j, 1.0));
                }
            }
        }
        edges.push((4, 5, 1.0));
        let adj = CsrMatrix::from_undirected_edges(10, &edges).unwrap();
        let p = normalized_cut(&adj, 2, &SpectralConfig::default()).unwrap();
        assert_eq!(p.k(), 2);
        for i in 0..5 {
            assert_eq!(p.label(i), p.label(0));
            assert_eq!(p.label(5 + i), p.label(5));
        }
        assert_ne!(p.label(0), p.label(5));
    }

    #[test]
    fn handles_isolated_nodes() {
        // Triangle plus two isolated nodes.
        let adj =
            CsrMatrix::from_undirected_edges(5, &[(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)]).unwrap();
        let p = normalized_cut(&adj, 3, &SpectralConfig::default()).unwrap();
        // Isolated nodes form singleton partitions; the triangle stays whole
        // or splits, but everything stays internally connected.
        assert!(p.k() >= 3);
        assert_ne!(p.label(3), p.label(4));
        assert_ne!(p.label(3), p.label(0));
    }

    #[test]
    fn unbalanced_communities() {
        // A big community (8) and a small one (3).
        let mut edges = Vec::new();
        for i in 0..8usize {
            for j in (i + 1)..8 {
                edges.push((i, j, 1.0));
            }
        }
        for i in 8..11usize {
            for j in (i + 1)..11 {
                edges.push((i, j, 1.0));
            }
        }
        edges.push((7, 8, 0.1));
        let adj = CsrMatrix::from_undirected_edges(11, &edges).unwrap();
        let p = normalized_cut(&adj, 2, &SpectralConfig::default()).unwrap();
        let sizes = p.sizes();
        assert_eq!(p.k(), 2);
        assert_eq!(sizes.iter().max(), Some(&8));
        assert_eq!(sizes.iter().min(), Some(&3));
    }
}

//! Two-way spectral cuts (the primitive of the recursive refinement).

use crate::embedding::{row_normalize, CutKind, CutOperator};
use crate::error::Result;
use roadpart_cluster::{kmeans, KMeansConfig};
use roadpart_linalg::{sym_eigs_ws, CsrMatrix, EigenConfig, Which, Workspace};

/// Splits a weighted graph into exactly two non-empty sides using the given
/// cut's 2-dimensional spectral embedding, returning 0/1 labels.
///
/// The 2-way solve runs without the solver fallback ladder: the ladder's
/// dense last resort would densify every recursion level's subgraph.
///
/// Degenerate situations are handled so that *progress is guaranteed* for
/// any graph with at least two nodes — required for termination of the
/// recursive refinement:
///
/// * spectral k-means collapsing to one side → fall back to a sign split of
///   the second eigenvector;
/// * that also failing (identical rows) → balanced index split.
///
/// # Errors
/// Propagates eigensolver/k-means failures. A graph with fewer than two
/// nodes returns all-zero labels.
pub fn bipartition(
    adj: &CsrMatrix,
    kind: CutKind,
    eig: &EigenConfig,
    km_cfg: &KMeansConfig,
) -> Result<Vec<usize>> {
    let n = adj.dim();
    if n < 2 {
        return Ok(vec![0; n]);
    }
    if n == 2 {
        return Ok(vec![0, 1]);
    }
    let op = CutOperator::new(adj, kind)?;
    let mut y = sym_eigs_ws(&op, 2, Which::Smallest, eig, &mut Workspace::new())?.vectors;
    row_normalize(&mut y);
    let km = kmeans(&y, 2, km_cfg)?;
    let mut labels = km.assignments;
    if !is_proper_bipartition(&labels) {
        // Sign split of the second (Fiedler-like) eigenvector.
        let second = y.col(1.min(y.cols().saturating_sub(1)));
        for (l, &v) in labels.iter_mut().zip(&second) {
            *l = usize::from(v > 0.0);
        }
    }
    if !is_proper_bipartition(&labels) {
        // Identical embedding rows: balanced index split.
        for (i, l) in labels.iter_mut().enumerate() {
            *l = usize::from(i >= n / 2);
        }
    }
    Ok(labels)
}

fn is_proper_bipartition(labels: &[usize]) -> bool {
    labels.contains(&0) && labels.contains(&1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfgs() -> (EigenConfig, KMeansConfig) {
        (EigenConfig::default(), KMeansConfig::default())
    }

    /// Two cliques of 4, weakly bridged.
    fn two_cliques() -> CsrMatrix {
        let mut edges = Vec::new();
        for base in [0usize, 4] {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    edges.push((base + i, base + j, 1.0));
                }
            }
        }
        edges.push((3, 4, 0.01));
        CsrMatrix::from_undirected_edges(8, &edges).unwrap()
    }

    #[test]
    fn splits_two_cliques_cleanly() {
        let (eig, km) = cfgs();
        for kind in [CutKind::Alpha, CutKind::Normalized] {
            let labels = bipartition(&two_cliques(), kind, &eig, &km).unwrap();
            assert!(is_proper_bipartition(&labels));
            for i in 1..4 {
                assert_eq!(labels[0], labels[i], "{kind:?}");
            }
            for i in 5..8 {
                assert_eq!(labels[4], labels[i], "{kind:?}");
            }
            assert_ne!(labels[0], labels[4], "{kind:?}");
        }
    }

    #[test]
    fn tiny_graphs() {
        let (eig, km) = cfgs();
        let one = CsrMatrix::from_triplets(1, &[]).unwrap();
        assert_eq!(
            bipartition(&one, CutKind::Alpha, &eig, &km).unwrap(),
            vec![0]
        );
        let two = CsrMatrix::from_undirected_edges(2, &[(0, 1, 1.0)]).unwrap();
        assert_eq!(
            bipartition(&two, CutKind::Alpha, &eig, &km).unwrap(),
            vec![0, 1]
        );
    }

    #[test]
    fn uniform_clique_still_makes_progress() {
        // A perfectly symmetric clique has no natural cut; the fallback must
        // still produce two non-empty sides.
        let mut edges = Vec::new();
        for i in 0..6usize {
            for j in (i + 1)..6 {
                edges.push((i, j, 1.0));
            }
        }
        let clique = CsrMatrix::from_undirected_edges(6, &edges).unwrap();
        let (eig, km) = cfgs();
        let labels = bipartition(&clique, CutKind::Alpha, &eig, &km).unwrap();
        assert!(is_proper_bipartition(&labels));
    }

    #[test]
    fn edgeless_graph_splits() {
        let a = CsrMatrix::from_triplets(4, &[]).unwrap();
        let (eig, km) = cfgs();
        let labels = bipartition(&a, CutKind::Normalized, &eig, &km).unwrap();
        assert!(is_proper_bipartition(&labels));
    }
}

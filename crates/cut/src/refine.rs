//! Refinement from k′ fine partitions to exactly k (Algorithm 3 lines
//! 11–24, §5.4).
//!
//! Component extraction after eigenspace k-means may leave k′ ≠ k
//! partitions. For k′ > k the paper condenses the partitions into a
//! k′-node *partition connectivity* graph and recursively bipartitions it
//! (global recursive bipartitioning). For k′ < k — a case
//! the paper leaves open — the largest partitions are recursively
//! bipartitioned on the original graph until k is reached.

use crate::bipartition::bipartition;
use crate::embedding::CutKind;
use crate::error::{CutError, Result};
use crate::partition::Partition;
use roadpart_cluster::KMeansConfig;
use roadpart_linalg::{CsrMatrix, EigenConfig};
use std::collections::VecDeque;

/// Builds the k′ × k′ partition connectivity matrix `A'` of §5.4:
/// `A'(i,j) = sqrt( Σ_{p∈P_i, q∈P_j} A(p,q)² / numadj(P_i, P_j) )`,
/// zero for partition pairs sharing no adjacency.
///
/// # Errors
/// Returns [`CutError::InvalidInput`] if `groups` do not form a disjoint
/// cover of the graph's nodes.
pub fn partition_connectivity(adj: &CsrMatrix, groups: &[Vec<usize>]) -> Result<CsrMatrix> {
    let n = adj.dim();
    let kp = groups.len();
    let mut owner = vec![usize::MAX; n];
    for (g, members) in groups.iter().enumerate() {
        for &m in members {
            if m >= n || owner[m] != usize::MAX {
                return Err(CutError::InvalidInput(format!(
                    "groups must disjointly cover nodes; node {m} repeated or out of range"
                )));
            }
            owner[m] = g;
        }
    }
    if owner.contains(&usize::MAX) {
        return Err(CutError::InvalidInput(
            "groups must cover every node".into(),
        ));
    }
    // Accumulate sum of squared weights and adjacency counts per group pair.
    let mut sums: std::collections::BTreeMap<(usize, usize), (f64, usize)> =
        std::collections::BTreeMap::new();
    for (i, j, w) in adj.iter() {
        let (gi, gj) = (owner[i], owner[j]);
        if gi < gj {
            let e = sums.entry((gi, gj)).or_insert((0.0, 0));
            e.0 += w * w;
            e.1 += 1;
        }
    }
    let triplets: Vec<(usize, usize, f64)> = sums
        .into_iter()
        .map(|((gi, gj), (sq, cnt))| (gi, gj, (sq / cnt as f64).sqrt()))
        .collect();
    Ok(CsrMatrix::from_undirected_edges(kp, &triplets)?)
}

/// Global recursive bipartitioning (Algorithm 3 lines 12–24): splits the
/// graph's node set into exactly `k` groups by repeatedly bipartitioning in
/// FIFO order. Used on the condensed partition-connectivity graph.
///
/// If the graph cannot yield `k` non-empty groups (k > n) the result has
/// `n` singleton groups.
///
/// # Errors
/// Propagates bipartitioning failures.
pub fn recursive_bipartition(
    adj: &CsrMatrix,
    k: usize,
    kind: CutKind,
    eig: &EigenConfig,
    km: &KMeansConfig,
) -> Result<Partition> {
    let n = adj.dim();
    let mut groups: Vec<Vec<usize>> = vec![(0..n).collect()];
    if n == 0 {
        return Ok(Partition::from_labels(&[]));
    }
    let mut queue: VecDeque<usize> = VecDeque::from([0usize]);
    while groups.len() < k.min(n) {
        let Some(gi) = queue.pop_front() else {
            break; // nothing splittable remains
        };
        if groups[gi].len() < 2 {
            continue;
        }
        let members = groups[gi].clone();
        let sub = adj.submatrix(&members)?;
        let labels = bipartition(&sub, kind, eig, km)?;
        let mut left = Vec::new();
        let mut right = Vec::new();
        for (local, &node) in members.iter().enumerate() {
            if labels[local] == 0 {
                left.push(node);
            } else {
                right.push(node);
            }
        }
        debug_assert!(!left.is_empty() && !right.is_empty());
        groups[gi] = left;
        groups.push(right);
        queue.push_back(gi);
        queue.push_back(groups.len() - 1);
    }
    Ok(partition_from_groups(n, &groups))
}

/// Splits the largest partitions of `fine` on the original graph until `k`
/// partitions exist (the k′ < k case).
///
/// # Errors
/// Propagates bipartitioning failures.
pub fn split_to_k(
    adj: &CsrMatrix,
    fine: &Partition,
    k: usize,
    kind: CutKind,
    eig: &EigenConfig,
    km: &KMeansConfig,
) -> Result<Partition> {
    let n = adj.dim();
    let mut groups = fine.groups();
    while groups.len() < k.min(n) {
        // Split the largest splittable group.
        let Some((gi, _)) = groups
            .iter()
            .enumerate()
            .filter(|(_, g)| g.len() >= 2)
            .max_by_key(|(_, g)| g.len())
        else {
            break;
        };
        let members = groups[gi].clone();
        let sub = adj.submatrix(&members)?;
        let labels = bipartition(&sub, kind, eig, km)?;
        let mut left = Vec::new();
        let mut right = Vec::new();
        for (local, &node) in members.iter().enumerate() {
            if labels[local] == 0 {
                left.push(node);
            } else {
                right.push(node);
            }
        }
        groups[gi] = left;
        groups.push(right);
    }
    Ok(partition_from_groups(n, &groups))
}

fn partition_from_groups(n: usize, groups: &[Vec<usize>]) -> Partition {
    let mut labels = vec![0usize; n];
    for (g, members) in groups.iter().enumerate() {
        for &m in members {
            labels[m] = g;
        }
    }
    Partition::from_labels(&labels)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfgs() -> (EigenConfig, KMeansConfig) {
        (EigenConfig::default(), KMeansConfig::default())
    }

    /// Four cliques of 3, chained with weak bridges.
    fn four_cliques() -> CsrMatrix {
        let mut edges = Vec::new();
        for c in 0..4usize {
            let b = 3 * c;
            edges.push((b, b + 1, 1.0));
            edges.push((b + 1, b + 2, 1.0));
            edges.push((b, b + 2, 1.0));
            if c > 0 {
                edges.push((b - 1, b, 0.05));
            }
        }
        CsrMatrix::from_undirected_edges(12, &edges).unwrap()
    }

    #[test]
    fn connectivity_matrix_shape_and_values() {
        let adj = four_cliques();
        let groups: Vec<Vec<usize>> = (0..4).map(|c| (3 * c..3 * c + 3).collect()).collect();
        let conn = partition_connectivity(&adj, &groups).unwrap();
        assert_eq!(conn.dim(), 4);
        // Chain structure: only consecutive groups connected.
        assert!(conn.get(0, 1) > 0.0);
        assert!(conn.get(1, 2) > 0.0);
        assert_eq!(conn.get(0, 2), 0.0);
        assert!(conn.is_symmetric(1e-12));
        // Single bridging link of weight w: A'(i,j) = sqrt(w^2 / 1) = w.
        assert!((conn.get(0, 1) - 0.05).abs() < 1e-12);
    }

    #[test]
    fn connectivity_rejects_bad_groups() {
        let adj = four_cliques();
        // Missing node.
        let incomplete: Vec<Vec<usize>> = vec![(0..11).collect()];
        assert!(partition_connectivity(&adj, &incomplete).is_err());
        // Duplicate node.
        let dup: Vec<Vec<usize>> = vec![(0..12).collect(), vec![0]];
        assert!(partition_connectivity(&adj, &dup).is_err());
    }

    #[test]
    fn recursive_bipartition_reaches_k() {
        let adj = four_cliques();
        let (eig, km) = cfgs();
        for k in 2..=4 {
            let p = recursive_bipartition(&adj, k, CutKind::Alpha, &eig, &km).unwrap();
            assert_eq!(p.k(), k, "k = {k}");
            assert!(p.sizes().iter().all(|&s| s > 0));
        }
    }

    #[test]
    fn recursive_bipartition_respects_clique_structure_at_k4() {
        let adj = four_cliques();
        let (eig, km) = cfgs();
        let p = recursive_bipartition(&adj, 4, CutKind::Alpha, &eig, &km).unwrap();
        for c in 0..4 {
            let l = p.label(3 * c);
            assert_eq!(p.label(3 * c + 1), l);
            assert_eq!(p.label(3 * c + 2), l);
        }
    }

    #[test]
    fn recursive_bipartition_k_exceeds_n() {
        let adj = CsrMatrix::from_undirected_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)]).unwrap();
        let (eig, km) = cfgs();
        let p = recursive_bipartition(&adj, 10, CutKind::Alpha, &eig, &km).unwrap();
        assert_eq!(p.k(), 3);
    }

    #[test]
    fn split_to_k_grows_partition_count() {
        let adj = four_cliques();
        let (eig, km) = cfgs();
        let fine = Partition::from_labels(&[0; 12]); // everything together
        let p = split_to_k(&adj, &fine, 4, CutKind::Alpha, &eig, &km).unwrap();
        assert_eq!(p.k(), 4);
    }
}

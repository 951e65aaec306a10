//! Property-based tests for the graph-cut layer.

use proptest::prelude::*;
use roadpart_cut::{gaussian_affinity, partition_connectivity, Partition};
use roadpart_linalg::CsrMatrix;

fn arb_graph() -> impl Strategy<Value = (CsrMatrix, Vec<f64>)> {
    (4usize..24).prop_flat_map(|n| {
        let chords = proptest::collection::vec((0..n, 0..n), 0..n);
        let feats = proptest::collection::vec(0.0f64..1.0, n);
        (Just(n), chords, feats).prop_map(|(n, chords, feats)| {
            let mut edges: Vec<(usize, usize, f64)> = (0..n - 1).map(|i| (i, i + 1, 1.0)).collect();
            for (a, b) in chords {
                if a != b {
                    edges.push((a, b, 1.0));
                }
            }
            (CsrMatrix::from_undirected_edges(n, &edges).unwrap(), feats)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Partition label densification: dense ids, stable group structure.
    #[test]
    fn partition_densification(raw in proptest::collection::vec(0usize..10, 1..40)) {
        let p = Partition::from_labels(&raw);
        prop_assert_eq!(p.len(), raw.len());
        // Dense labels 0..k, all present.
        for c in 0..p.k() {
            prop_assert!(p.labels().contains(&c));
        }
        // Same raw label <=> same dense label.
        for i in 0..raw.len() {
            for j in 0..raw.len() {
                prop_assert_eq!(raw[i] == raw[j], p.label(i) == p.label(j));
            }
        }
        // Sizes sum to n.
        prop_assert_eq!(p.sizes().iter().sum::<usize>(), p.len());
    }

    /// Gaussian affinity keeps the adjacency pattern, symmetry, and (0,1]
    /// weights.
    #[test]
    fn affinity_structure((adj, feats) in arb_graph()) {
        let a = gaussian_affinity(&adj, &feats).unwrap();
        prop_assert_eq!(a.nnz(), adj.nnz(), "pattern must be preserved");
        prop_assert!(a.is_symmetric(1e-12));
        for (i, j, w) in a.iter() {
            prop_assert!(w > 0.0 && w <= 1.0);
            prop_assert!(adj.get(i, j) != 0.0);
        }
    }

    /// The condensed partition-connectivity matrix is symmetric, has zero
    /// diagonal, and links exactly the spatially adjacent partition pairs.
    #[test]
    fn connectivity_matrix_structure((adj, _) in arb_graph(), seed in proptest::collection::vec(0usize..4, 24)) {
        let labels: Vec<usize> = (0..adj.dim()).map(|i| seed[i]).collect();
        let p = Partition::from_labels(&labels);
        let conn = partition_connectivity(&adj, &p.groups()).unwrap();
        prop_assert_eq!(conn.dim(), p.k());
        prop_assert!(conn.is_symmetric(1e-12));
        for i in 0..p.k() {
            prop_assert_eq!(conn.get(i, i), 0.0);
        }
        // Non-zero iff some road link crosses the pair.
        for gi in 0..p.k() {
            for gj in (gi + 1)..p.k() {
                let crossing = adj.iter().any(|(u, v, _)| {
                    (p.label(u) == gi && p.label(v) == gj)
                        || (p.label(u) == gj && p.label(v) == gi)
                });
                prop_assert_eq!(conn.get(gi, gj) > 0.0, crossing);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `Partition::validate` accepts every densified labeling and rejects
    /// the same labeling with a hole punched into its label space.
    #[test]
    fn validate_accepts_dense_and_rejects_holes(raw in proptest::collection::vec(0usize..6, 1..40)) {
        let p = Partition::from_labels(&raw);
        prop_assert!(p.validate().is_ok());

        // Punch a hole: move the top label one up, then claim k + 1
        // labels. The typed API cannot express this, so go through serde
        // like a corrupted checkpoint would.
        let holed: Vec<usize> = p
            .labels()
            .iter()
            .map(|&l| if l == p.k() - 1 { l + 1 } else { l })
            .collect();
        let json = format!("{{\"labels\": {:?}, \"k\": {}}}", holed, p.k() + 1);
        let mutated: Partition = serde_json::from_str(&json).unwrap();
        prop_assert!(mutated.validate().is_err(), "label hole accepted");

        // Out-of-range labels are also rejected.
        let json = format!("{{\"labels\": {:?}, \"k\": {}}}", p.labels(), p.k().saturating_sub(1).max(1));
        let mutated: Partition = serde_json::from_str(&json).unwrap();
        if p.k() > 1 {
            prop_assert!(mutated.validate().is_err(), "out-of-range label accepted");
        }
    }
}

//! Property-based integration tests (proptest) over the whole stack:
//! random graphs and densities through mining, cutting and evaluation.

use proptest::prelude::*;
use roadpart::prelude::*;
use roadpart_cut::Partition;
use roadpart_linalg::CsrMatrix;
use roadpart_net::RoadGraph;

/// Random connected road-graph-like structure: a path backbone plus random
/// chords, with arbitrary non-negative densities.
fn arb_graph() -> impl Strategy<Value = (CsrMatrix, Vec<f64>)> {
    (8usize..40).prop_flat_map(|n| {
        let chords = proptest::collection::vec((0..n, 0..n), 0..n);
        let feats = proptest::collection::vec(0.0f64..1.0, n);
        (Just(n), chords, feats).prop_map(|(n, chords, feats)| {
            let mut edges: Vec<(usize, usize, f64)> = (0..n - 1).map(|i| (i, i + 1, 1.0)).collect();
            for (a, b) in chords {
                if a != b {
                    edges.push((a, b, 1.0));
                }
            }
            let adj = CsrMatrix::from_undirected_edges(n, &edges).unwrap();
            (adj, feats)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Mining always produces a disjoint exact cover with valid superlinks.
    #[test]
    fn mining_produces_exact_cover((adj, feats) in arb_graph()) {
        let graph = RoadGraph::from_parts(adj, feats, vec![]).unwrap();
        let out = roadpart::mine_supergraph(&graph, &MiningConfig::default()).unwrap();
        let n = graph.node_count();
        let mut seen = vec![false; n];
        for sn in out.supergraph.nodes() {
            prop_assert!(!sn.members.is_empty());
            for &m in &sn.members {
                prop_assert!(!seen[m], "node {m} covered twice");
                seen[m] = true;
            }
        }
        prop_assert!(seen.into_iter().all(|s| s), "cover incomplete");
        // Superlink weights are similarities in (0, 1].
        for (_, _, w) in out.supergraph.adjacency().iter() {
            prop_assert!(w > 0.0 && w <= 1.0 + 1e-12);
        }
        // Supernodes are internally connected in the road graph.
        for sn in out.supergraph.nodes() {
            let sub = graph.adjacency().submatrix(&sn.members).unwrap();
            let comp = roadpart_cluster::constrained_components(&sub, None).unwrap();
            let n_comp = comp.iter().copied().max().map_or(0, |m| m + 1);
            prop_assert_eq!(
                n_comp, 1,
                "supernode with {} members has {} components",
                sn.members.len(), n_comp
            );
        }
    }

    /// The spectral partitioners return dense k-partitions whose parts are
    /// connected, for both cut kinds.
    #[test]
    fn cuts_return_connected_partitions((adj, feats) in arb_graph(), k in 2usize..5) {
        let affinity = roadpart_cut::gaussian_affinity(&adj, &feats).unwrap();
        for cut in [roadpart_cut::alpha_cut, roadpart_cut::normalized_cut] {
            let p = cut(&affinity, k.min(adj.dim()), &SpectralConfig::default()).unwrap();
            prop_assert_eq!(p.len(), adj.dim());
            let comp = roadpart_cluster::constrained_components(&affinity, Some(p.labels())).unwrap();
            let n_comp = comp.iter().copied().max().map_or(0, |m| m + 1);
            prop_assert_eq!(n_comp, p.k());
        }
    }

    /// Evaluation metrics are finite, correctly signed, and consistent with
    /// Definitions 3-4 (cost + volume = total weight).
    #[test]
    fn metrics_invariants((adj, feats) in arb_graph(), k in 2usize..5) {
        let affinity = roadpart_cut::gaussian_affinity(&adj, &feats).unwrap();
        let p = roadpart_cut::alpha_cut(&affinity, k.min(adj.dim()), &SpectralConfig::default()).unwrap();
        let rep = QualityReport::compute(&affinity, &feats, p.labels());
        prop_assert!(rep.inter >= 0.0 && rep.inter.is_finite());
        prop_assert!(rep.intra >= 0.0 && rep.intra.is_finite());
        prop_assert!(rep.ans >= 0.0 && rep.ans.is_finite());
        prop_assert!(rep.gdbi >= 0.0 && rep.gdbi.is_finite());
        prop_assert!(rep.modularity <= 1.0 + 1e-9);
        let cost = roadpart_eval::partition_cost(&affinity, p.labels(), p.k());
        let volume = roadpart_eval::partition_volume(&affinity, p.labels(), p.k());
        let total = affinity.total() / 2.0;
        prop_assert!((cost + volume - total).abs() < 1e-6 * total.max(1.0));
    }

    /// Expanding supernode labels preserves partition counts.
    #[test]
    fn expansion_consistency((adj, feats) in arb_graph(), k in 2usize..4) {
        let graph = RoadGraph::from_parts(adj, feats, vec![]).unwrap();
        let out = roadpart::mine_supergraph(&graph, &MiningConfig::default()).unwrap();
        let sg = &out.supergraph;
        if sg.order() >= k {
            let p = roadpart_cut::alpha_cut(sg.adjacency(), k, &SpectralConfig::default()).unwrap();
            let labels = sg.expand_labels(p.labels()).unwrap();
            let expanded = Partition::from_labels(&labels);
            prop_assert_eq!(expanded.k(), p.k());
            prop_assert_eq!(expanded.len(), graph.node_count());
        }
    }
}

/// A small synthetic urban network with paper-style densities: either a
/// jittered grid (`UrbanConfig`) or a radial-ring spider web.
fn synth_network(seed: u64, spider: bool) -> (roadpart_net::RoadNetwork, Vec<f64>) {
    use rand::SeedableRng;
    let net = if spider {
        let cfg = roadpart_net::synth::spider::SpiderConfig {
            rings: 3,
            spokes: 6,
            ring_spacing_m: 250.0,
            jitter_rad: 0.05,
        };
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let plan = roadpart_net::synth::spider::spider_plan(&cfg, &mut rng);
        roadpart_net::synth::realize(&plan, 0.2, &mut rng).unwrap()
    } else {
        roadpart_net::UrbanConfig::d1()
            .scaled(0.25)
            .generate(seed)
            .unwrap()
    };
    let field = roadpart_traffic::CongestionField::urban_default(&net, seed);
    let densities = field.densities(&net, 0.4, &roadpart_traffic::TemporalProfile::morning());
    (net, densities)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The structural validators accept every stage output the pipeline
    /// produces on grid and spider synthetic networks.
    #[test]
    fn validators_accept_pipeline_outputs(seed in 0u64..1000, spider in any::<bool>(), k in 3usize..6) {
        let (net, densities) = synth_network(seed, spider);
        let cfg = PipelineConfig::asg(k).with_seed(seed);
        let result = roadpart::partition_network(&net, &densities, &cfg).unwrap();
        prop_assert!(result.graph.adjacency().validate().is_ok());
        prop_assert!(result.partition.validate().is_ok());
        if let Some(m) = &result.outcome.mining {
            prop_assert!(m.supergraph.validate(result.graph.adjacency()).is_ok());
        }
    }

    /// Mutated counterexamples derived from real pipeline outputs are
    /// rejected: label holes, unsorted CSR indices, and NaN weights.
    #[test]
    fn validators_reject_mutated_pipeline_outputs(seed in 0u64..1000, spider in any::<bool>()) {
        let (net, densities) = synth_network(seed, spider);
        let cfg = PipelineConfig::asg(4).with_seed(seed);
        let result = roadpart::partition_network(&net, &densities, &cfg).unwrap();

        // Label hole: shift the top label up by one, leaving a gap, via the
        // serde escape hatch (the typed API cannot build this state).
        let p = &result.partition;
        let holed: Vec<usize> = p
            .labels()
            .iter()
            .map(|&l| if l == p.k() - 1 { l + 1 } else { l })
            .collect();
        let json = format!(
            "{{\"labels\": {:?}, \"k\": {}}}",
            holed,
            p.k() + 1
        );
        let mutated: Partition = serde_json::from_str(&json).unwrap();
        prop_assert!(mutated.validate().is_err(), "label hole accepted");

        // Rebuild the adjacency's raw arrays, then corrupt them.
        let adj = result.graph.adjacency();
        let n = adj.dim();
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0usize);
        for i in 0..n {
            let (cols, vals) = adj.row(i);
            col_idx.extend_from_slice(cols);
            values.extend_from_slice(vals);
            row_ptr.push(col_idx.len());
        }
        prop_assert!(
            CsrMatrix::from_raw_parts(n, row_ptr.clone(), col_idx.clone(), values.clone()).is_ok()
        );

        // Unsorted indices: swap the first row with >= 2 entries.
        if let Some(i) = (0..n).find(|&i| row_ptr[i + 1] - row_ptr[i] >= 2) {
            let mut bad_cols = col_idx.clone();
            bad_cols.swap(row_ptr[i], row_ptr[i] + 1);
            prop_assert!(
                CsrMatrix::from_raw_parts(n, row_ptr.clone(), bad_cols, values.clone()).is_err(),
                "unsorted indices accepted"
            );
        }

        // NaN weight: structurally valid, so construction succeeds only if
        // the value check is skipped — it must not be.
        if !values.is_empty() {
            let mut bad_vals = values.clone();
            bad_vals[0] = f64::NAN;
            prop_assert!(
                CsrMatrix::from_raw_parts(n, row_ptr.clone(), col_idx.clone(), bad_vals).is_err(),
                "NaN weight accepted"
            );
        }
    }
}

//! Differential correctness of the partition-aware serving layer.
//!
//! The partition-aware engine must be *cost-exact* — not ε-close —
//! against a whole-network Dijkstra, on real partitions of grid and
//! spider synthetic networks. Floating-point sums are associativity-
//! dependent, so the suites route on integer-quantized segment costs
//! (`ceil(length_m)`): every path cost is then an exactly-representable
//! integer-valued `f64` (far below 2^53) and `==` is a rigorous check,
//! independent of tie-breaking and summation order. A proptest sweeps
//! random origin–destination pairs and partition counts on top.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use roadpart::{run_scheme, FrameworkConfig, Scheme};
use roadpart_net::{RoadGraph, RoadNetwork, SegmentId};
use roadpart_serve::{
    exact_route, QueryBatch, QueryContext, QueryEngine, RefreshOutcome, SegmentGraph, ServeError,
};
use roadpart_stream::PartitionStore;
use std::sync::Arc;

/// Synthetic network with paper-style densities: jittered grid or
/// radial-ring spider web.
fn synth_network(seed: u64, spider: bool, scale: f64) -> (RoadNetwork, Vec<f64>) {
    let net = if spider {
        let cfg = roadpart_net::synth::spider::SpiderConfig {
            rings: 3,
            spokes: 6,
            ring_spacing_m: 250.0,
            jitter_rad: 0.05,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let plan = roadpart_net::synth::spider::spider_plan(&cfg, &mut rng);
        roadpart_net::synth::realize(&plan, 0.2, &mut rng).unwrap()
    } else {
        roadpart_net::UrbanConfig::d1()
            .scaled(scale)
            .generate(seed)
            .unwrap()
    };
    let field = roadpart_traffic::CongestionField::urban_default(&net, seed);
    let densities = field.densities(&net, 0.4, &roadpart_traffic::TemporalProfile::morning());
    (net, densities)
}

/// Integer-quantized routing costs: exact `f64` sums under any order.
fn quantized_graph(net: &RoadNetwork) -> SegmentGraph {
    let costs: Vec<f64> = net.segments().iter().map(|s| s.length_m.ceil()).collect();
    SegmentGraph::with_costs(net, costs).unwrap()
}

/// A real partition of the network from the paper's pipeline.
fn partition_labels(net: &RoadNetwork, densities: &[f64], k: usize, seed: u64) -> Vec<usize> {
    let mut graph = RoadGraph::from_network(net).unwrap();
    graph.set_features(densities.to_vec()).unwrap();
    let cfg = FrameworkConfig::default().with_seed(seed);
    let out = run_scheme(&graph, Scheme::AG, k, &cfg).unwrap();
    out.partition.labels().to_vec()
}

/// Asserts engine answers == whole-network Dijkstra on sampled OD pairs.
/// Returns how many pairs were routable.
fn assert_differential(engine: &QueryEngine, net: &RoadNetwork, pairs: usize, seed: u64) -> usize {
    let n = net.segment_count();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut ctx = QueryContext::new();
    let mut exact_ctx = QueryContext::new();
    let mut routable = 0;
    for _ in 0..pairs {
        let from = SegmentId(rng.gen_range(0..n) as u32);
        let to = SegmentId(rng.gen_range(0..n) as u32);
        let got = engine.query(from, to, &mut ctx);
        let want = exact_route(engine.graph(), from, to, &mut exact_ctx);
        match (got, want) {
            (Ok(resp), Ok((cost, _))) => {
                assert_eq!(
                    resp.cost, cost,
                    "{from:?}->{to:?}: partition-aware cost differs from whole-network Dijkstra"
                );
                assert_eq!(resp.path.first(), Some(&from));
                assert_eq!(resp.path.last(), Some(&to));
                // The reported path is a real walk in the road network.
                for pair in resp.path.windows(2) {
                    assert_eq!(
                        net.segment(pair[0]).to,
                        net.segment(pair[1]).from,
                        "path step is not a transition"
                    );
                }
                assert_eq!(engine.graph().path_cost(&resp.path), resp.cost);
                routable += 1;
            }
            (Err(ServeError::NoRoute { .. }), Err(ServeError::NoRoute { .. })) => {}
            (g, w) => panic!("{from:?}->{to:?}: engine {g:?} vs exact {w:?}"),
        }
    }
    routable
}

fn build_engine(net: &RoadNetwork, labels: Vec<usize>, threads: usize) -> QueryEngine {
    let graph = quantized_graph(net);
    let store = Arc::new(PartitionStore::new(labels, 0));
    QueryEngine::new(graph, store, roadpart_linalg::ThreadPool::new(threads)).unwrap()
}

#[test]
fn grid_routes_are_exact() {
    let (net, densities) = synth_network(42, false, 0.3);
    let labels = partition_labels(&net, &densities, 5, 42);
    let engine = build_engine(&net, labels, 2);
    let routable = assert_differential(&engine, &net, 250, 7);
    assert!(
        routable > 100,
        "synthetic grid should route most OD pairs, got {routable}"
    );
}

#[test]
fn spider_routes_are_exact() {
    let (net, densities) = synth_network(11, true, 1.0);
    let labels = partition_labels(&net, &densities, 4, 11);
    let engine = build_engine(&net, labels, 2);
    let routable = assert_differential(&engine, &net, 250, 13);
    assert!(routable > 100, "spider web should route, got {routable}");
}

#[test]
fn routes_stay_exact_across_an_epoch_swap() {
    let (net, densities) = synth_network(5, false, 0.25);
    let labels = partition_labels(&net, &densities, 4, 5);
    let engine = build_engine(&net, labels, 2);
    assert_differential(&engine, &net, 60, 1);

    // Publish a different labeling (as the streaming engine would on an
    // epoch swap), refresh, and re-check exactness: route costs are a
    // partition-invariant, so the differential must still hold verbatim.
    let relabeled = partition_labels(&net, &densities, 6, 99);
    engine.store().publish(relabeled, 1);
    let outcome = engine.refresh().unwrap();
    assert_eq!(outcome, RefreshOutcome::Rebuilt { version: 2 });
    assert_eq!(engine.serving().version(), 2);
    assert_differential(&engine, &net, 60, 2);
}

/// The boundary-node oracle set routes cost-exactly against the
/// whole-network Dijkstra across an epoch swap to a labeling with a
/// different partition count (another `k` and seed), as the streaming
/// engine would publish after a global rebuild: the refresh must rebuild
/// one cell oracle per new partition.
#[test]
fn routes_stay_exact_across_epoch_swap_to_new_partition_count() {
    let (net, densities) = synth_network(21, false, 0.3);
    let labels = partition_labels(&net, &densities, 5, 21);
    let k = labels.iter().copied().max().map_or(0, |m| m + 1);
    let engine = build_engine(&net, labels, 2);
    assert_eq!(
        engine.serving().partition_count(),
        k,
        "one cell oracle per partition"
    );
    let routable = assert_differential(&engine, &net, 200, 3);
    assert!(routable > 100, "grid should route, got {routable}");

    let relabeled = partition_labels(&net, &densities, 8, 77);
    let k2 = relabeled.iter().copied().max().map_or(0, |m| m + 1);
    assert_ne!(k, k2, "the swap must change the partition count");
    engine.store().publish(relabeled, 1);
    let outcome = engine.refresh().unwrap();
    assert_eq!(outcome, RefreshOutcome::Rebuilt { version: 2 });
    assert_eq!(engine.serving().version(), 2);
    assert_eq!(engine.serving().partition_count(), k2);
    assert_differential(&engine, &net, 200, 4);
}

#[test]
fn unreachable_pairs_are_typed_errors_and_kept_out_of_stats() {
    use roadpart_net::{Intersection, IntersectionId, RoadSegment};
    // One-way chain 0 -> 1 -> 2 -> 3: no route against the direction.
    let ints = (0..4)
        .map(|i| Intersection {
            x: f64::from(i) * 50.0,
            y: 0.0,
        })
        .collect();
    let segs = (0..3)
        .map(|i| RoadSegment {
            from: IntersectionId(i),
            to: IntersectionId(i + 1),
            length_m: 50.0,
            free_speed_mps: 10.0,
            density: 0.0,
        })
        .collect();
    let net = RoadNetwork::new(ints, segs).unwrap();
    let engine = build_engine(&net, vec![0, 0, 1], 1);

    let mut ctx = QueryContext::new();
    let err = engine
        .query(SegmentId(2), SegmentId(0), &mut ctx)
        .unwrap_err();
    assert!(matches!(err, ServeError::NoRoute { .. }));

    // In a batch the no-route outcome is counted, never an error, and no
    // infinite cost leaks into the aggregate statistics.
    let batch = QueryBatch::new(vec![
        (SegmentId(0), SegmentId(2)),
        (SegmentId(2), SegmentId(0)),
        (SegmentId(1), SegmentId(1)),
    ]);
    let report = engine.run_batch(&batch).unwrap();
    assert_eq!(report.queries, 3);
    assert_eq!(report.ok, 2);
    assert_eq!(report.no_route, 1);
    assert!(report.total_cost.is_finite());
    assert!(report.per_query.iter().all(|q| match q.cost {
        Some(c) => c.is_finite(),
        None => true,
    }));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random OD pairs and partition counts: the partition-aware engine
    /// matches the whole-network router exactly on both network families.
    #[test]
    fn random_partitions_route_exactly(
        seed in 0u64..500,
        spider in any::<bool>(),
        k in 2usize..7,
    ) {
        let (net, densities) = synth_network(seed, spider, 0.18);
        let labels = partition_labels(&net, &densities, k, seed);
        let engine = build_engine(&net, labels, 1);
        let n = net.segment_count();
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xD1DA);
        let mut ctx = QueryContext::new();
        let mut exact_ctx = QueryContext::new();
        for _ in 0..25 {
            let from = SegmentId(rng.gen_range(0..n) as u32);
            let to = SegmentId(rng.gen_range(0..n) as u32);
            let got = engine.query(from, to, &mut ctx);
            let want = exact_route(engine.graph(), from, to, &mut exact_ctx);
            match (got, want) {
                (Ok(resp), Ok((cost, _))) => {
                    prop_assert_eq!(resp.cost, cost, "{:?}->{:?}", from, to);
                    prop_assert_eq!(resp.path.last(), Some(&to));
                }
                (Err(ServeError::NoRoute { .. }), Err(ServeError::NoRoute { .. })) => {}
                (g, w) => prop_assert!(false, "{:?}->{:?}: {:?} vs {:?}", from, to, g, w),
            }
        }
    }
}

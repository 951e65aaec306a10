//! One partition-and-score op, untraced through the public pipeline entry
//! point, or traced by rebuilding `run_scheme` and
//! `spectral_partition_recovering` from their public pieces so each
//! layer's call can be timed from outside. Both must yield the same labels
//! bit for bit; the workloads check it.

use crate::trace::Trace;
use roadpart::{mine_supergraph, partition_network, PipelineConfig};
use roadpart_cluster::{constrained_components, kmeans};
use roadpart_cut::{
    embedding_recovering_ws, gaussian_affinity_par, partition_connectivity, recursive_bipartition,
    row_normalize, split_to_k, CutKind, Partition, RefineStrategy, SpectralConfig,
};
use roadpart_eval::QualityReport;
use roadpart_linalg::{CsrMatrix, RecoveryLog, Workspace};
use roadpart_net::{RoadGraph, RoadNetwork};

/// What one partition-and-score op produced.
#[derive(Debug, Clone)]
pub struct Scored {
    /// Labels over road segments.
    pub labels: Vec<usize>,
    /// Partitions returned.
    pub k: usize,
    /// The paper's GDBI of the partition (lower is better).
    pub gdbi: f64,
    /// Supergraph order (supergraph schemes only).
    pub supernodes: Option<usize>,
    /// Eigensolver attempts of the main embedding.
    pub solver_attempts: usize,
    /// Failed eigensolver attempts of the main embedding.
    pub solver_failures: usize,
    /// Wall time of the call, set by the caller that timed it.
    pub seconds: f64,
}

/// `partition_network` followed by `QualityReport::compute`.
///
/// # Errors
/// The pipeline's error, rendered.
pub fn partition_and_score(
    net: &RoadNetwork,
    densities: &[f64],
    cfg: &PipelineConfig,
) -> Result<Scored, String> {
    let result = partition_network(net, densities, cfg).map_err(|e| e.to_string())?;
    let report = QualityReport::compute(
        result.graph.adjacency(),
        result.graph.features(),
        result.partition.labels(),
    );
    Ok(Scored {
        labels: result.partition.labels().to_vec(),
        k: result.partition.k(),
        gdbi: report.gdbi,
        supernodes: result.supergraph_order,
        solver_attempts: result.recovery.events.len(),
        solver_failures: result.recovery.failures(),
        seconds: 0.0,
    })
}

/// The same op with a span around every layer call. Only the flat mode and
/// the default refinement are rebuilt; the workloads use nothing else.
///
/// # Errors
/// Any layer's error, rendered.
pub fn partition_and_score_traced(
    net: &RoadNetwork,
    densities: &[f64],
    cfg: &PipelineConfig,
    t: &mut Trace,
) -> Result<Scored, String> {
    let graph = t.span("net.dual_graph", |_| -> Result<RoadGraph, String> {
        let mut g = RoadGraph::from_network(net).map_err(|e| e.to_string())?;
        g.set_features(densities.to_vec())
            .map_err(|e| e.to_string())?;
        Ok(g)
    })?;
    let fw = &cfg.framework;
    let kind = cfg.scheme.cut_kind();
    let (labels, supernodes, log) = if cfg.scheme.uses_supergraph() {
        let mining = t.span("core.mine", |_| mine_supergraph(&graph, &fw.mining));
        let mining = mining.map_err(|e| e.to_string())?;
        let sg = &mining.supergraph;
        t.count("core.supernodes", sg.order() as f64);
        t.count("core.kappa_shortlist", mining.shortlisted.len() as f64);
        let k_eff = cfg.k.min(sg.order());
        let (part, log) = spectral_traced(sg.adjacency(), k_eff, kind, &fw.spectral, t)?;
        let labels = sg.expand_labels(part.labels()).map_err(|e| e.to_string())?;
        (labels, Some(sg.order()), log)
    } else {
        let pool = fw.spectral.pool();
        let affinity = t.span("cut.affinity", |_| {
            gaussian_affinity_par(graph.adjacency(), graph.features(), &pool)
        });
        let affinity = affinity.map_err(|e| e.to_string())?;
        let (part, log) = spectral_traced(&affinity, cfg.k, kind, &fw.spectral, t)?;
        (part.labels().to_vec(), None, log)
    };
    let partition = Partition::from_labels(&labels);
    let report = t.span("eval.quality", |_| {
        QualityReport::compute(graph.adjacency(), graph.features(), partition.labels())
    });
    Ok(Scored {
        labels: partition.labels().to_vec(),
        k: partition.k(),
        gdbi: report.gdbi,
        supernodes,
        solver_attempts: log.events.len(),
        solver_failures: log.failures(),
        seconds: 0.0,
    })
}

/// `spectral_partition_recovering` (cold start) with a span per stage.
fn spectral_traced(
    adj: &CsrMatrix,
    k: usize,
    kind: CutKind,
    cfg: &SpectralConfig,
    t: &mut Trace,
) -> Result<(Partition, RecoveryLog), String> {
    let n = adj.dim();
    let mut log = RecoveryLog::new();
    if k == 0 || k > n {
        return Err(format!("bad partition count {k} for {n} nodes"));
    }
    if k == n {
        return Ok((Partition::from_labels(&(0..n).collect::<Vec<_>>()), log));
    }
    let mut ws = Workspace::new();
    let y = t.span("linalg.embedding", |_| {
        embedding_recovering_ws(adj, k, kind, &cfg.eigen, &cfg.fallback, &mut log, &mut ws)
    });
    t.count("linalg.solver_attempts", log.events.len() as f64);
    t.count("linalg.solver_failures", log.failures() as f64);
    t.count("linalg.ws_fresh_allocs", ws.fresh_allocations() as f64);
    let mut z = y.map_err(|e| e.to_string())?;
    row_normalize(&mut z);
    let km = t.span("cluster.kmeans", |_| kmeans(&z, k, &cfg.kmeans));
    let km = km.map_err(|e| e.to_string())?;
    let comp = t.span("cluster.components", |_| {
        constrained_components(adj, Some(&km.assignments))
    });
    let fine = Partition::from_labels(&comp.map_err(|e| e.to_string())?);
    t.count("cut.fine_partitions", fine.k() as f64);
    let result = t.span("cut.refine", |_| {
        refine_and_connect(adj, &fine, k, kind, cfg)
    });
    Ok((result?, log))
}

/// The refinement tail of `spectral_partition_warm_ws`: refine k' to k, then
/// alternate connectivity enforcement and re-refinement.
fn refine_and_connect(
    adj: &CsrMatrix,
    fine: &Partition,
    k: usize,
    kind: CutKind,
    cfg: &SpectralConfig,
) -> Result<Partition, String> {
    let mut result = refine_to_k(adj, fine, k, kind, cfg)?;
    if cfg.enforce_connectivity {
        for _ in 0..2 {
            let connected = connected_parts(adj, &result)?;
            if connected.k() == result.k() {
                break;
            }
            result = connected;
            if result.k() > k {
                result = refine_to_k(adj, &result, k, kind, cfg)?;
            }
        }
        result = connected_parts(adj, &result)?;
    }
    Ok(result)
}

/// `refine_to_k` for the refinement the benchmark runs, the default
/// `RecursiveBipartition`.
fn refine_to_k(
    adj: &CsrMatrix,
    fine: &Partition,
    k: usize,
    kind: CutKind,
    cfg: &SpectralConfig,
) -> Result<Partition, String> {
    use std::cmp::Ordering;
    let err = |e: roadpart_cut::CutError| e.to_string();
    match fine.k().cmp(&k) {
        Ordering::Equal => Ok(fine.clone()),
        Ordering::Less => split_to_k(adj, fine, k, kind, &cfg.eigen, &cfg.kmeans).map_err(err),
        Ordering::Greater if cfg.refine == RefineStrategy::RecursiveBipartition => {
            let conn = partition_connectivity(adj, &fine.groups()).map_err(err)?;
            let meta =
                recursive_bipartition(&conn, k, kind, &cfg.eigen, &cfg.kmeans).map_err(err)?;
            Ok(fine.compose(&meta))
        }
        Ordering::Greater => Err(format!("refinement {:?} is not rebuilt", cfg.refine)),
    }
}

fn connected_parts(adj: &CsrMatrix, p: &Partition) -> Result<Partition, String> {
    let comp = constrained_components(adj, Some(p.labels())).map_err(|e| e.to_string())?;
    Ok(Partition::from_labels(&comp))
}

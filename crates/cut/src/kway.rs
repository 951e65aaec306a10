//! The full k-way spectral partitioning pipeline (Algorithm 3).
//!
//! 1. build the cut matrix (α-Cut `M` or normalized Laplacian) and take its
//!    `k` smallest eigenvectors → `Y` (lines 1–7);
//! 2. row-normalize into `Z` (Eq. 8, line 8);
//! 3. k-means the rows of `Z` into `k` clusters (lines 9–10);
//! 4. extract connected components inside each cluster → k′ ≥ k disjoint,
//!    spatially connected partitions (line 11);
//! 5. refine to exactly `k`: global recursive bipartitioning of the
//!    condensed partition-connectivity graph for k′ > k (lines 12–24),
//!    largest-first splitting for k′ < k.

use crate::embedding::{embedding_recovering_ws, row_normalize, CutKind};
use crate::error::{CutError, Result};
use crate::partition::Partition;
use crate::refine::{partition_connectivity, recursive_bipartition, split_to_k};
use roadpart_cluster::{constrained_components, kmeans, KMeansConfig};
use roadpart_linalg::{
    CsrMatrix, DenseMatrix, EigenConfig, FallbackConfig, RecoveryLog, Workspace,
};
use serde::{Deserialize, Serialize};

/// How k′ > k is resolved. Only the paper's choice exists; the enum stays
/// because the paper-scale benchmark reads [`SpectralConfig::refine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RefineStrategy {
    /// Global recursive bipartitioning of the condensed graph (the paper's
    /// choice, efficient for large k′).
    RecursiveBipartition,
}

/// Configuration for [`spectral_partition_warm_ws`].
#[derive(Debug, Clone)]
pub struct SpectralConfig {
    /// Eigensolver settings.
    pub eigen: EigenConfig,
    /// Eigenspace k-means settings (seeded; the paper reports medians over
    /// repeated runs because of this randomization).
    pub kmeans: KMeansConfig,
    /// k′ > k resolution strategy.
    pub refine: RefineStrategy,
    /// Re-split any final partition that ends up spatially disconnected
    /// (condition C.2). Recursive bipartitioning of the condensed graph can
    /// in principle group non-adjacent fine partitions; this restores
    /// connectivity as a post-pass.
    pub enforce_connectivity: bool,
    /// Solver fallback ladder applied to the main spectral embedding.
    pub fallback: FallbackConfig,
}

impl Default for SpectralConfig {
    fn default() -> Self {
        Self {
            eigen: EigenConfig::default(),
            kmeans: KMeansConfig::default(),
            refine: RefineStrategy::RecursiveBipartition,
            enforce_connectivity: true,
            fallback: FallbackConfig::default(),
        }
    }
}

impl SpectralConfig {
    /// Re-seeds both stochastic components (for median-over-runs protocols).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.kmeans.seed = seed;
        self.eigen.seed = seed ^ 0x9e37_79b9_7f4a_7c15;
        self
    }

    /// Sets the thread pool for every parallel kernel of the spectral
    /// pipeline (eigensolver applies and eigenspace k-means). Purely a
    /// performance knob: all kernels are bit-identical at any pool size.
    pub fn with_pool(mut self, pool: roadpart_linalg::ThreadPool) -> Self {
        self.eigen.pool = pool;
        self.kmeans.pool = pool;
        self
    }

    /// Convenience for [`SpectralConfig::with_pool`] from a thread count.
    pub fn with_threads(self, threads: usize) -> Self {
        self.with_pool(roadpart_linalg::ThreadPool::new(threads))
    }

    /// The pool the spectral kernels run on.
    pub fn pool(&self) -> roadpart_linalg::ThreadPool {
        self.eigen.pool
    }
}

/// Reusable spectral state captured from a completed partition run.
///
/// When the graph changes only slightly between runs (the online
/// repartitioning setting), feeding the previous run's artifacts back into
/// [`spectral_partition_warm_ws`] seeds the Lanczos iteration with the old
/// eigenvectors and eigenspace k-means with the old centroids, cutting the
/// dominant costs of the pipeline. Both hints are validated downstream and
/// silently dropped when stale (dimension mismatch, non-finite entries), so
/// artifacts from *any* earlier run are safe to pass.
#[derive(Debug, Clone)]
pub struct SpectralArtifacts {
    /// `n x k` eigenvector embedding `Y` *before* row normalization — the
    /// actual (approximate) eigenvectors of the cut matrix, suitable as a
    /// Krylov warm start.
    pub eigenvectors: DenseMatrix,
    /// `k x k` eigenspace k-means centroids over the row-normalized `Z`.
    pub centroids: DenseMatrix,
}

impl SpectralArtifacts {
    /// Artifacts carrying no reusable state (always a valid, inert input).
    pub fn empty() -> Self {
        Self {
            eigenvectors: DenseMatrix::zeros(0, 0),
            centroids: DenseMatrix::zeros(0, 0),
        }
    }
}

/// Partitions a weighted symmetric graph into `k` groups using the chosen
/// spectral cut. See the module docs for the pipeline.
///
/// The main embedding runs behind the solver fallback ladder configured in
/// [`SpectralConfig::fallback`], and every attempt lands in `log`.
///
/// `warm` optionally seeds the eigensolver and k-means from a previous
/// run's [`SpectralArtifacts`]; this run's artifacts are returned for the
/// next one. Stale artifacts (wrong dimensions for the current graph or
/// `k`) are ignored per-component, so callers can pass whatever they
/// captured last without revalidating. For `k == n` (singleton partitions)
/// no spectral work happens and empty artifacts are returned.
///
/// The eigensolver's scratch buffers come from the caller-owned `ws`. The
/// online repartitioning engine passes a retained workspace every epoch, so
/// after the first (cold) solve the spectral stage runs its hot loops
/// allocation-free; one-shot callers pass `&mut Workspace::new()`. Results
/// are bit-identical either way — the workspace only recycles buffer
/// *capacity*, never contents.
///
/// # Errors
/// Returns [`CutError::BadPartitionCount`] for `k == 0` or `k > n`, plus any
/// eigensolver/k-means failure.
#[allow(clippy::too_many_arguments)]
pub fn spectral_partition_warm_ws(
    adj: &CsrMatrix,
    k: usize,
    kind: CutKind,
    cfg: &SpectralConfig,
    warm: Option<&SpectralArtifacts>,
    log: &mut RecoveryLog,
    ws: &mut Workspace,
) -> Result<(Partition, SpectralArtifacts)> {
    let n = adj.dim();
    if k == 0 || k > n {
        return Err(CutError::BadPartitionCount {
            requested: k,
            nodes: n,
        });
    }
    if k == n {
        let p = Partition::from_labels(&(0..n).collect::<Vec<_>>());
        return Ok((p, SpectralArtifacts::empty()));
    }

    let mut eigen_cfg = cfg.eigen.clone();
    let mut kmeans_cfg = cfg.kmeans.clone();
    if let Some(w) = warm {
        if w.eigenvectors.rows() == n && w.eigenvectors.cols() > 0 {
            eigen_cfg.start = Some(w.eigenvectors.clone());
        }
        if w.centroids.rows() == k && w.centroids.cols() > 0 {
            kmeans_cfg.warm_start = Some(w.centroids.clone());
        }
    }

    // Lines 1-8: embedding (behind the fallback ladder). Keep the raw
    // eigenvectors `Y` for the artifacts; the pipeline continues on the
    // row-normalized copy `Z` (Eq. 8).
    let y = embedding_recovering_ws(adj, k, kind, &eigen_cfg, &cfg.fallback, log, ws)?;
    let mut z = y.clone();
    row_normalize(&mut z);
    // Lines 9-10: eigenspace k-means.
    let km = kmeans(&z, k, &kmeans_cfg)?;
    // Line 11: connected components within clusters -> k' fine partitions.
    let comp = constrained_components(adj, Some(&km.assignments))?;
    let fine = Partition::from_labels(&comp);

    let mut result = refine_to_k(adj, &fine, k, kind, cfg)?;
    if cfg.enforce_connectivity {
        // Alternate connectivity enforcement and re-refinement a bounded
        // number of times; if the graph fundamentally cannot host k
        // connected partitions (more components than k), connectivity wins.
        for _ in 0..2 {
            let connected = enforce_connectivity(adj, &result)?;
            if connected.k() == result.k() {
                break;
            }
            result = connected;
            if result.k() > k {
                result = refine_to_k(adj, &result, k, kind, cfg)?;
            }
        }
        result = enforce_connectivity(adj, &result)?;
    }
    let artifacts = SpectralArtifacts {
        eigenvectors: y,
        centroids: km.centers,
    };
    Ok((result, artifacts))
}

/// Moves from k′ to k: recursive bipartitioning of the condensed graph for
/// k′ > k, largest-first splitting for k′ < k.
fn refine_to_k(
    adj: &CsrMatrix,
    fine: &Partition,
    k: usize,
    kind: CutKind,
    cfg: &SpectralConfig,
) -> Result<Partition> {
    use std::cmp::Ordering;
    let kp = fine.k();
    match kp.cmp(&k) {
        Ordering::Equal => Ok(fine.clone()),
        Ordering::Less => split_to_k(adj, fine, k, kind, &cfg.eigen, &cfg.kmeans),
        Ordering::Greater => {
            let conn = partition_connectivity(adj, &fine.groups())?;
            let meta = recursive_bipartition(&conn, k, kind, &cfg.eigen, &cfg.kmeans)?;
            Ok(fine.compose(&meta))
        }
    }
}

/// Splits spatially disconnected partitions into their components (C.2).
fn enforce_connectivity(adj: &CsrMatrix, p: &Partition) -> Result<Partition> {
    let comp = constrained_components(adj, Some(p.labels()))?;
    Ok(Partition::from_labels(&comp))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn partition(
        adj: &CsrMatrix,
        k: usize,
        kind: CutKind,
        cfg: &SpectralConfig,
    ) -> Result<Partition> {
        let (mut log, mut ws) = (RecoveryLog::new(), Workspace::new());
        spectral_partition_warm_ws(adj, k, kind, cfg, None, &mut log, &mut ws).map(|(p, _)| p)
    }

    /// A 3-way α-Cut with the given warm start and log.
    fn alpha3(
        adj: &CsrMatrix,
        cfg: &SpectralConfig,
        warm: Option<&SpectralArtifacts>,
        log: &mut RecoveryLog,
    ) -> Result<(Partition, SpectralArtifacts)> {
        spectral_partition_warm_ws(
            adj,
            3,
            CutKind::Alpha,
            cfg,
            warm,
            log,
            &mut Workspace::new(),
        )
    }

    /// Chain of `c` cliques of size `s`, bridged weakly.
    fn clique_chain(c: usize, s: usize) -> CsrMatrix {
        let mut edges = Vec::new();
        for ci in 0..c {
            let b = ci * s;
            for i in 0..s {
                for j in (i + 1)..s {
                    edges.push((b + i, b + j, 1.0));
                }
            }
            if ci > 0 {
                edges.push((b - 1, b, 0.02));
            }
        }
        CsrMatrix::from_undirected_edges(c * s, &edges).unwrap()
    }

    #[test]
    fn recovers_planted_partitions_both_kinds() {
        let adj = clique_chain(3, 5);
        for kind in [CutKind::Alpha, CutKind::Normalized] {
            let p = partition(&adj, 3, kind, &SpectralConfig::default()).unwrap();
            assert_eq!(p.k(), 3, "{kind:?}");
            for c in 0..3 {
                let l = p.label(c * 5);
                for i in 1..5 {
                    assert_eq!(p.label(c * 5 + i), l, "{kind:?} clique {c}");
                }
            }
        }
    }

    #[test]
    fn partitions_are_connected() {
        let adj = clique_chain(4, 4);
        for k in 2..=5 {
            let p = partition(&adj, k, CutKind::Alpha, &SpectralConfig::default()).unwrap();
            // Every partition must be internally connected (C.2).
            let comp = constrained_components(&adj, Some(p.labels())).unwrap();
            let recount = Partition::from_labels(&comp);
            assert_eq!(recount.k(), p.k(), "k = {k}: disconnected partition");
        }
    }

    #[test]
    fn k_bounds() {
        let adj = clique_chain(2, 3);
        assert!(partition(&adj, 0, CutKind::Alpha, &SpectralConfig::default()).is_err());
        assert!(partition(&adj, 7, CutKind::Alpha, &SpectralConfig::default()).is_err());
        let p = partition(&adj, 6, CutKind::Alpha, &SpectralConfig::default()).unwrap();
        assert_eq!(p.k(), 6); // k == n: singletons
    }

    #[test]
    fn k1_on_connected_graph() {
        let adj = clique_chain(2, 3);
        let p = partition(&adj, 1, CutKind::Alpha, &SpectralConfig::default()).unwrap();
        assert_eq!(p.k(), 1);
    }

    #[test]
    fn disconnected_graph_cannot_go_below_component_count() {
        // Two disjoint cliques, k = 1: connectivity enforcement keeps 2.
        let mut edges = Vec::new();
        for b in [0usize, 3] {
            edges.push((b, b + 1, 1.0));
            edges.push((b + 1, b + 2, 1.0));
            edges.push((b, b + 2, 1.0));
        }
        let adj = CsrMatrix::from_undirected_edges(6, &edges).unwrap();
        let p = partition(&adj, 1, CutKind::Alpha, &SpectralConfig::default()).unwrap();
        assert_eq!(
            p.k(),
            2,
            "two components cannot form one connected partition"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let adj = clique_chain(3, 4);
        let cfg = SpectralConfig::default().with_seed(7);
        let a = partition(&adj, 3, CutKind::Alpha, &cfg).unwrap();
        let b = partition(&adj, 3, CutKind::Alpha, &cfg).unwrap();
        assert_eq!(a.labels(), b.labels());
    }

    #[test]
    fn warm_path_reuses_artifacts_and_matches_cold_result() {
        let adj = clique_chain(3, 5);
        // Force the iterative solver so the eigenvector warm start is
        // actually exercised (the graph is far below the default cutoff).
        let mut cfg = SpectralConfig::default().with_seed(11);
        cfg.eigen.dense_cutoff = 4;

        let mut log = RecoveryLog::new();
        let (cold, artifacts) = alpha3(&adj, &cfg, None, &mut log).unwrap();
        assert_eq!(artifacts.eigenvectors.rows(), adj.dim());
        assert_eq!(artifacts.eigenvectors.cols(), 3);
        assert_eq!(artifacts.centroids.rows(), 3);

        let (warm, next) = alpha3(&adj, &cfg, Some(&artifacts), &mut log).unwrap();
        assert_eq!(warm.labels(), cold.labels(), "same graph -> same result");
        assert_eq!(next.eigenvectors.rows(), adj.dim());
    }

    #[test]
    fn stale_artifacts_are_ignored() {
        let adj = clique_chain(3, 5);
        let cfg = SpectralConfig::default().with_seed(11);
        // Artifacts from a differently-sized problem: wrong n, wrong k.
        let stale = SpectralArtifacts {
            eigenvectors: roadpart_linalg::DenseMatrix::zeros(7, 2),
            centroids: roadpart_linalg::DenseMatrix::zeros(5, 9),
        };
        let mut log = RecoveryLog::new();
        let (p, _) = alpha3(&adj, &cfg, Some(&stale), &mut log).unwrap();
        assert_eq!(p.k(), 3);
        let mut log2 = RecoveryLog::new();
        let (p2, _) = alpha3(&adj, &cfg, Some(&SpectralArtifacts::empty()), &mut log2).unwrap();
        assert_eq!(p2.labels(), p.labels());
    }

    #[test]
    fn injected_solver_failure_recovers_with_valid_partition() {
        let adj = clique_chain(3, 5);
        let mut cfg = SpectralConfig::default();
        cfg.fallback.inject_failures = 2; // baseline + relaxed rungs fail
        let mut log = RecoveryLog::new();
        let (p, _) = alpha3(&adj, &cfg, None, &mut log).unwrap();
        assert_eq!(p.k(), 3);
        assert_eq!(log.failures(), 2);
        assert!(log.events.last().unwrap().succeeded);
        // The recovered result still lands the planted cliques.
        for c in 0..3 {
            let l = p.label(c * 5);
            for i in 1..5 {
                assert_eq!(p.label(c * 5 + i), l);
            }
        }
    }
}

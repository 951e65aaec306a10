//! The epoch-based online repartitioning engine.
//!
//! Lifecycle per epoch:
//!
//! 1. the caller [`ingest`](StreamEngine::ingest)s density updates as they
//!    arrive (any number per epoch, including zero); untrusted feeds go
//!    through [`ingest_guarded`](StreamEngine::ingest_guarded), which
//!    sanitizes anomalies and quarantines sources that keep sending
//!    garbage instead of poisoning the aggregate;
//! 2. [`run_epoch`](StreamEngine::run_epoch) reduces the feed to one
//!    aggregate density per segment, probes drift against the baseline
//!    captured at the last refresh, and acts:
//!    [`EpochAction::NoOp`] serves on, [`EpochAction::Regional`] refreshes
//!    each region on its own subgraph, [`EpochAction::Global`] rebuilds the
//!    whole partition with a warm-started spectral solve;
//! 3. any new partition is published to the [`PartitionStore`] — readers
//!    holding the store handle never block and never see a partial update.
//!
//! The epoch loop is *self-healing*: numerical solver failures are retried
//! with rotated seeds and exponential backoff (the batch supervisor's
//! machinery, inlined into the epoch), and when the retry budget or the
//! per-epoch deadline ([`ResilienceConfig::epoch_budget_ms`]) is exhausted
//! the intended action degrades down the ladder Global → Regional → NoOp —
//! the engine keeps serving the last good snapshot rather than stalling the
//! readers. Every epoch reports a [`HealthState`] summarizing whether that
//! machinery had to engage.
//!
//! Warm starts make the expensive path cheap: the previous epoch's
//! eigenvectors seed the Lanczos iteration and its centroids seed the
//! eigenspace k-means ([`roadpart_cut::spectral_partition_warm`]), so a
//! global rebuild after modest drift converges in a fraction of the cold
//! iteration count.

use crate::aggregate::{AggregateKind, DensityAggregator};
use crate::drift::{DriftPolicy, DriftProbe, EpochAction};
use crate::error::{Result, StreamError};
use crate::health::{
    DeadlineMode, EpochAttempt, EpochResilience, HealthState, IngestVerdict, QuarantineTracker,
    ResilienceConfig, TrackDisposition,
};
use crate::report::EpochReport;
use crate::snapshot::PartitionStore;
use roadpart::pipeline::STRICT_INVARIANTS;
use roadpart::sanitize::{sanitize_densities, SanitizePolicy};
use roadpart::{error_chain, repartition_regions, DistributedConfig};
use roadpart_cut::{
    gaussian_affinity_par, spectral_partition_warm_ws, CutKind, Partition, SpectralArtifacts,
    SpectralConfig,
};
use roadpart_eval::PartitionDrift;
use roadpart_linalg::{LinalgError, RecoveryLog, Workspace};
use roadpart_net::RoadGraph;
use roadpart_traffic::DensityHistory;
use std::sync::Arc;
use std::time::Instant;

/// Configuration for [`StreamEngine`].
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Target partition count for global rebuilds.
    pub k: usize,
    /// Spectral cut used by global rebuilds (α-Cut matches the paper).
    pub cut: CutKind,
    /// How the density feed is smoothed before each probe.
    pub aggregate: AggregateKind,
    /// Drift thresholds steering the per-epoch decision.
    pub policy: DriftPolicy,
    /// Spectral settings for global rebuilds.
    pub spectral: SpectralConfig,
    /// Settings for regional refreshes (`core::distributed`).
    pub regional: DistributedConfig,
    /// Seed global rebuilds with the previous epoch's eigenvectors and
    /// centroids. Disable only to measure the cold baseline.
    pub warm_start: bool,
    /// Self-healing knobs: deadlines, retries, quarantine thresholds.
    pub resilience: ResilienceConfig,
}

impl EngineConfig {
    /// Defaults for a `k`-way engine: α-Cut, 3-snapshot window mean,
    /// default drift policy, warm starts on, default resilience posture
    /// (retries on, no deadline).
    pub fn new(k: usize) -> Self {
        Self {
            k,
            cut: CutKind::Alpha,
            aggregate: AggregateKind::WindowMean(3),
            policy: DriftPolicy::default(),
            spectral: SpectralConfig::default(),
            regional: DistributedConfig::default(),
            warm_start: true,
            resilience: ResilienceConfig::default(),
        }
    }

    /// Re-seeds the stochastic components.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.spectral = self.spectral.with_seed(seed);
        self.regional.framework = self.regional.framework.clone().with_seed(seed ^ 0x5747);
        self
    }

    /// Replaces the resilience settings.
    #[must_use]
    pub fn with_resilience(mut self, resilience: ResilienceConfig) -> Self {
        self.resilience = resilience;
        self
    }

    /// Sets the thread pool used by global rebuilds and regional
    /// refreshes. Purely a performance knob: results are bit-identical at
    /// any pool size (see `roadpart_linalg::par`).
    pub fn with_pool(mut self, pool: roadpart_linalg::ThreadPool) -> Self {
        self.spectral = self.spectral.with_pool(pool);
        self.regional.framework = self.regional.framework.clone().with_pool(pool);
        self
    }

    /// Convenience for [`EngineConfig::with_pool`] from a thread count.
    pub fn with_threads(self, threads: usize) -> Self {
        self.with_pool(roadpart_linalg::ThreadPool::new(threads))
    }
}

/// Updates accepted/repaired/dropped since the previous epoch boundary.
#[derive(Debug, Clone, Copy, Default)]
struct IngestCounters {
    accepted: usize,
    repaired: usize,
    dropped: usize,
}

/// Long-lived online repartitioning engine over one road network.
#[derive(Debug)]
pub struct StreamEngine {
    cfg: EngineConfig,
    graph: RoadGraph,
    aggregator: DensityAggregator,
    store: Arc<PartitionStore>,
    /// Densities the live partition was last built/refreshed on — the
    /// reference point for divergence probes.
    baseline: Vec<f64>,
    /// Spectral state of the last global rebuild, fed back as a warm start.
    artifacts: Option<SpectralArtifacts>,
    /// Scratch-buffer pool threaded through every global rebuild's
    /// eigensolve; warmed by the initial build, so steady-state epochs run
    /// the spectral hot loops allocation-free.
    workspace: Workspace,
    /// Retained buffer the per-epoch aggregate is written into
    /// (recycled against `baseline` at each refresh).
    agg_scratch: Vec<f64>,
    epoch: u64,
    /// Per-source quarantine state for [`Self::ingest_guarded`].
    quarantine: QuarantineTracker,
    /// Ingest accounting since the last epoch boundary.
    epoch_ingest: IngestCounters,
    /// Health reported by the most recent epoch.
    health: HealthState,
    /// Remaining solve attempts to fail with an injected `NotConverged`
    /// (test hook; see [`ResilienceConfig::inject_epoch_faults`]).
    injected_faults: usize,
}

impl StreamEngine {
    /// Builds the engine and runs the initial (cold) global partition on
    /// the graph's current features, publishing it as version 1.
    ///
    /// # Errors
    /// Returns [`StreamError::InvalidConfig`] for `k == 0`, `k` above the
    /// segment count, inconsistent drift thresholds, or invalid resilience
    /// settings; propagates initial partitioning failures.
    pub fn new(graph: RoadGraph, cfg: EngineConfig) -> Result<Self> {
        let n = graph.node_count();
        if cfg.k == 0 || cfg.k > n {
            return Err(StreamError::InvalidConfig(format!(
                "k = {} outside 1..={n}",
                cfg.k
            )));
        }
        cfg.policy.validate()?;
        cfg.resilience.validate()?;
        let aggregator = DensityAggregator::new(n, cfg.aggregate)?;
        let baseline = graph.features().to_vec();
        let inject = cfg.resilience.inject_epoch_faults;
        let mut engine = Self {
            cfg,
            graph,
            aggregator,
            store: Arc::new(PartitionStore::new(vec![0; n], 0)),
            baseline,
            artifacts: None,
            workspace: Workspace::new(),
            agg_scratch: Vec::new(),
            epoch: 0,
            quarantine: QuarantineTracker::new(),
            epoch_ingest: IngestCounters::default(),
            health: HealthState::Healthy,
            injected_faults: 0,
        };
        let densities = engine.baseline.clone();
        let (partition, _) = engine.global_repartition(&densities)?;
        engine.check_publishable(&partition)?;
        engine.store = Arc::new(PartitionStore::new(partition.labels().to_vec(), 0));
        // Fault injection arms only after the initial build: the hook
        // exercises the *epoch* loop's recovery, not construction.
        engine.injected_faults = inject;
        Ok(engine)
    }

    /// Shared handle to the snapshot store for concurrent readers.
    pub fn store(&self) -> Arc<PartitionStore> {
        Arc::clone(&self.store)
    }

    /// Epochs completed so far.
    pub fn epochs(&self) -> u64 {
        self.epoch
    }

    /// The configured engine settings.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Health reported by the most recent epoch ([`HealthState::Healthy`]
    /// before the first).
    pub fn health(&self) -> HealthState {
        self.health
    }

    /// Per-source quarantine state built up by [`Self::ingest_guarded`].
    pub fn quarantine(&self) -> &QuarantineTracker {
        &self.quarantine
    }

    /// Arms the solve-fault injector: the next `n` solve attempts fail with
    /// a synthetic `NotConverged` before reaching the real solver. Test
    /// hook for exercising retry and degradation mid-stream.
    pub fn arm_fault_injection(&mut self, n: usize) {
        self.injected_faults = n;
    }

    /// Ingests one per-segment density snapshot from a trusted feed.
    ///
    /// # Errors
    /// Returns [`StreamError::InvalidUpdate`] on malformed snapshots.
    pub fn ingest(&mut self, densities: &[f64]) -> Result<()> {
        self.aggregator.push(densities)?;
        self.epoch_ingest.accepted += 1;
        Ok(())
    }

    /// Ingests one snapshot from an *untrusted* source, routing it through
    /// `core::sanitize` instead of rejecting outright: NaN/infinite values
    /// are replaced with the snapshot median, negatives are clamped to
    /// zero, and short/long snapshots are padded/truncated. Repaired and
    /// unrepairable snapshots count as strikes against `source`; after
    /// [`ResilienceConfig::quarantine_threshold`] consecutive strikes the
    /// source is quarantined and its snapshots are dropped until it
    /// delivers [`ResilienceConfig::rehab_clean`] consecutive clean ones.
    /// With [`ResilienceConfig::stale_after`] set, bit-identical repeats
    /// are treated as a stuck sensor and dropped the same way.
    ///
    /// Returns how the snapshot was disposed of; dropping is *not* an error
    /// (the quarantine doing its job), but an epoch in which every offered
    /// update was dropped fails with [`StreamError::QuarantineOverflow`].
    ///
    /// # Errors
    /// Propagates aggregator failures (cannot happen for sanitized values).
    pub fn ingest_guarded(&mut self, source: &str, densities: &[f64]) -> Result<IngestVerdict> {
        let n = self.graph.node_count();
        let sanitized = sanitize_densities(densities, n, SanitizePolicy::ClampAndWarn);
        let (clean, unrepairable, repaired) = match sanitized {
            Ok((clean, report)) => (Some(clean), false, !report.is_clean()),
            // Sanitization refuses (e.g. an empty snapshot): unrepairable.
            Err(_) => (None, true, false),
        };
        let disposition = self.quarantine.track(
            source,
            densities,
            repaired,
            unrepairable,
            &self.cfg.resilience,
        );
        match clean {
            // Unrepairable snapshots never reach here accepted: the tracker
            // maps them to `Drop`, so an accept always carries a sanitized
            // buffer.
            Some(clean) if disposition != TrackDisposition::Drop => {
                self.aggregator.push(&clean)?;
                if disposition == TrackDisposition::AcceptRepaired {
                    self.epoch_ingest.repaired += 1;
                    Ok(IngestVerdict::Repaired)
                } else {
                    self.epoch_ingest.accepted += 1;
                    Ok(IngestVerdict::Clean)
                }
            }
            _ => {
                self.epoch_ingest.dropped += 1;
                Ok(IngestVerdict::Dropped)
            }
        }
    }

    /// Replays every snapshot of a recorded history into the feed.
    ///
    /// # Errors
    /// Same as [`Self::ingest`].
    pub fn ingest_history(&mut self, history: &DensityHistory) -> Result<()> {
        self.aggregator.push_history(history)?;
        self.epoch_ingest.accepted += history.len();
        Ok(())
    }

    /// Closes the current epoch: aggregate, probe, act, publish.
    ///
    /// The intended action can *degrade* down the ladder Global → Regional
    /// → NoOp: each rung gets `1 + max_retries` attempts (retryable solver
    /// failures only, with seed rotation and exponential backoff between
    /// attempts), and a blown epoch budget under [`DeadlineMode::Degrade`]
    /// skips straight to the next rung. The store is only touched by a
    /// fully validated partition; on every failure path readers keep the
    /// last good snapshot.
    ///
    /// # Errors
    /// Returns [`StreamError::InvalidUpdate`] when no densities were ever
    /// ingested; [`StreamError::QuarantineOverflow`] when every update
    /// offered this epoch was dropped; [`StreamError::DeadlineExceeded`]
    /// for a blown budget under [`DeadlineMode::Fail`]; propagates
    /// non-retryable repartitioning failures (the live snapshot is
    /// untouched on failure — the store only changes on success).
    pub fn run_epoch(&mut self) -> Result<EpochReport> {
        let t0 = Instant::now();
        let ingest = std::mem::take(&mut self.epoch_ingest);
        let quarantined_sources = self.quarantine.quarantined_sources();

        // Every offered update was dropped: the aggregate would be pure
        // stale data, and silently serving it would mask a dead feed.
        if ingest.dropped > 0
            && ingest.accepted == 0
            && ingest.repaired == 0
            && !quarantined_sources.is_empty()
        {
            return Err(StreamError::QuarantineOverflow {
                sources: quarantined_sources.len(),
                dropped: ingest.dropped,
            });
        }

        // The aggregate lands in the retained scratch buffer; on refresh it
        // becomes the new baseline and the old baseline's allocation is
        // recycled as the next epoch's scratch, so the steady state moves
        // buffers instead of allocating them.
        let mut current = std::mem::take(&mut self.agg_scratch);
        if !self.aggregator.current_into(&mut current) {
            self.agg_scratch = current;
            return Err(StreamError::InvalidUpdate(
                "epoch with no density updates ever ingested".into(),
            ));
        }
        self.epoch += 1;
        let live = self.store.read();
        let probe = DriftProbe::measure(live.labels(), &self.baseline, &current)?;
        let intended = self.cfg.policy.decide(&probe);

        let mut resilience = EpochResilience {
            budget_ms: self.cfg.resilience.epoch_budget_ms,
            accepted: ingest.accepted,
            repaired: ingest.repaired,
            dropped: ingest.dropped,
            quarantined_sources,
            ..EpochResilience::default()
        };

        let ladder: &[EpochAction] = match intended {
            EpochAction::Global => &[
                EpochAction::Global,
                EpochAction::Regional,
                EpochAction::NoOp,
            ],
            EpochAction::Regional => &[EpochAction::Regional, EpochAction::NoOp],
            EpochAction::NoOp => &[EpochAction::NoOp],
        };

        let mut executed = EpochAction::NoOp;
        let mut drift = None;
        let mut warm_started = false;
        'ladder: for &rung in ladder {
            if rung == EpochAction::NoOp {
                executed = EpochAction::NoOp;
                break;
            }
            let max_attempts = self.cfg.resilience.max_retries + 1;
            for attempt in 0..max_attempts {
                if attempt > 0 {
                    let backoff = self.cfg.resilience.backoff_ms(attempt);
                    resilience.backoff_ms_total += backoff;
                    if backoff > 0.0 {
                        std::thread::sleep(std::time::Duration::from_secs_f64(backoff / 1e3));
                    }
                }
                // Deadline gate: checked before the first attempt of each
                // rung and again before every retry.
                if let Some(budget) = self.cfg.resilience.epoch_budget_ms {
                    let elapsed = t0.elapsed().as_secs_f64() * 1e3;
                    if elapsed > budget {
                        resilience.deadline_blown = true;
                        match self.cfg.resilience.deadline_mode {
                            DeadlineMode::Fail => {
                                self.agg_scratch = current;
                                return Err(StreamError::DeadlineExceeded {
                                    budget_ms: budget,
                                    elapsed_ms: elapsed,
                                });
                            }
                            DeadlineMode::Degrade => continue 'ladder,
                        }
                    }
                }
                let seed = self.attempt_seed(rung, attempt);
                let outcome = self.attempt_action(rung, &current, attempt, live.labels());
                match outcome {
                    Ok((labels, attempt_drift, warm)) => {
                        resilience.attempts.push(EpochAttempt {
                            action: rung,
                            attempt,
                            seed,
                            succeeded: true,
                            error: None,
                        });
                        self.store.publish(labels, self.epoch);
                        drift = Some(attempt_drift);
                        warm_started = warm;
                        executed = rung;
                        break 'ladder;
                    }
                    Err(e) => {
                        let retryable = is_retryable(&e);
                        resilience.attempts.push(EpochAttempt {
                            action: rung,
                            attempt,
                            seed,
                            succeeded: false,
                            error: Some(error_chain(&e)),
                        });
                        if !retryable {
                            // Structural failure: another seed or a cheaper
                            // rung cannot fix a bug — propagate. The store
                            // is untouched.
                            self.agg_scratch = current;
                            return Err(e);
                        }
                        if attempt + 1 == max_attempts {
                            // Retry budget exhausted: degrade to the next
                            // rung of the ladder.
                            continue 'ladder;
                        }
                    }
                }
            }
        }

        if executed == EpochAction::NoOp {
            // Served on (either intended, or fully degraded): the aggregate
            // buffer goes back to scratch and the baseline stands.
            self.agg_scratch = current;
        } else {
            // Refreshed: the aggregate becomes the new baseline and the old
            // baseline's allocation is recycled as next epoch's scratch.
            self.agg_scratch = std::mem::replace(&mut self.baseline, current);
        }

        resilience.degraded = executed != intended;
        self.health = if resilience.degraded || resilience.deadline_blown {
            HealthState::Degraded
        } else if self.quarantine.any_quarantined() {
            HealthState::Quarantining
        } else {
            HealthState::Healthy
        };

        let after = self.store.read();
        Ok(EpochReport {
            epoch: self.epoch,
            action: executed,
            intended,
            probe,
            version: after.version,
            k: after.k,
            drift,
            warm_started,
            elapsed_ms: t0.elapsed().as_secs_f64() * 1e3,
            health: self.health,
            resilience,
        })
    }

    /// The seed a given rung/attempt pair runs under (attempt 0 is the
    /// configured seed; retries rotate by the configured stride).
    fn attempt_seed(&self, rung: EpochAction, attempt: usize) -> u64 {
        let base = match rung {
            EpochAction::Global => self.cfg.spectral.kmeans.seed,
            _ => self.cfg.regional.framework.mining.seed,
        };
        base.wrapping_add(attempt as u64 * self.cfg.resilience.seed_stride)
    }

    /// Executes one ladder rung once, returning the labels to publish, the
    /// old-vs-new drift, and whether a warm start was applied. Validates
    /// the partition before returning, so a success here is publishable.
    fn attempt_action(
        &mut self,
        rung: EpochAction,
        current: &[f64],
        attempt: usize,
        live_labels: &[usize],
    ) -> Result<(Vec<usize>, PartitionDrift, bool)> {
        self.injected_fault()?;
        match rung {
            EpochAction::Global => {
                let (partition, warm) = if attempt == 0 {
                    self.global_repartition(current)?
                } else {
                    let seed = self.attempt_seed(rung, attempt);
                    let rotated = self.cfg.spectral.clone().with_seed(seed);
                    self.global_repartition_with(current, &rotated)?
                };
                self.check_publishable(&partition)?;
                let drift = PartitionDrift::between(live_labels, partition.labels());
                Ok((partition.labels().to_vec(), drift, warm))
            }
            EpochAction::Regional => {
                self.graph.set_features(current.to_vec())?;
                let prev = Partition::from_labels(live_labels);
                let regional = if attempt == 0 {
                    self.cfg.regional.clone()
                } else {
                    let mut r = self.cfg.regional.clone();
                    r.framework = r.framework.with_seed(self.attempt_seed(rung, attempt));
                    r
                };
                let out = repartition_regions(&self.graph, &prev, &regional)?;
                self.check_publishable(&out.partition)?;
                Ok((out.partition.labels().to_vec(), out.drift, false))
            }
            // Defensive: the epoch loop never dispatches NoOp here, but a
            // panic is not an acceptable failure mode on the serve path.
            EpochAction::NoOp => Err(StreamError::InvalidConfig(
                "internal: NoOp is not a solve rung".into(),
            )),
        }
    }

    /// Consumes one armed injected fault, if any (test hook).
    fn injected_fault(&mut self) -> Result<()> {
        if self.injected_faults > 0 {
            self.injected_faults -= 1;
            return Err(StreamError::Framework(roadpart::RoadpartError::Linalg(
                LinalgError::NotConverged {
                    iterations: 0,
                    context: "injected epoch fault",
                },
            )));
        }
        Ok(())
    }

    /// Epoch-boundary invariant gate (active under `debug_assertions` or
    /// the `strict-invariants` feature): a partition must be structurally
    /// valid and cover every segment before it may reach the store.
    ///
    /// # Errors
    /// Returns [`StreamError::InvalidUpdate`] naming the violated invariant.
    fn check_publishable(&self, partition: &Partition) -> Result<()> {
        if !STRICT_INVARIANTS {
            return Ok(());
        }
        partition.validate().map_err(|e| {
            StreamError::InvalidUpdate(format!("epoch invariant violated before publish: {e}"))
        })?;
        if partition.len() != self.graph.node_count() {
            return Err(StreamError::InvalidUpdate(format!(
                "epoch invariant violated before publish: partition covers {} segments \
                 but the graph has {}",
                partition.len(),
                self.graph.node_count()
            )));
        }
        Ok(())
    }

    /// Full spectral rebuild on `densities` with the configured spectral
    /// settings.
    fn global_repartition(&mut self, densities: &[f64]) -> Result<(Partition, bool)> {
        let spectral = self.cfg.spectral.clone();
        self.global_repartition_with(densities, &spectral)
    }

    /// Full spectral rebuild on `densities` under explicit spectral
    /// settings (retries pass a seed-rotated clone), reusing (and then
    /// replacing) the cached warm-start artifacts. Returns the partition
    /// and whether a warm start was actually applied.
    fn global_repartition_with(
        &mut self,
        densities: &[f64],
        spectral: &SpectralConfig,
    ) -> Result<(Partition, bool)> {
        self.graph.set_features(densities.to_vec())?;
        let affinity = gaussian_affinity_par(
            self.graph.adjacency(),
            self.graph.features(),
            &spectral.pool(),
        )?;
        let warm = if self.cfg.warm_start {
            self.artifacts.as_ref()
        } else {
            None
        };
        let warm_used = warm.is_some();
        let mut log = RecoveryLog::new();
        let (partition, artifacts) = spectral_partition_warm_ws(
            &affinity,
            self.cfg.k.min(self.graph.node_count()),
            self.cfg.cut,
            spectral,
            warm,
            &mut log,
            &mut self.workspace,
        )?;
        self.artifacts = Some(artifacts);
        Ok((partition, warm_used))
    }
}

/// True for failures where another attempt (new seed) or a cheaper rung can
/// plausibly succeed; structural errors propagate immediately — the same
/// split the batch supervisor makes.
fn is_retryable(err: &StreamError) -> bool {
    matches!(
        err,
        StreamError::Framework(
            roadpart::RoadpartError::Linalg(_)
                | roadpart::RoadpartError::Cut(_)
                | roadpart::RoadpartError::Cluster(_)
        )
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use roadpart_linalg::CsrMatrix;

    /// Path of `plateaus` density plateaus, 8 segments each.
    fn plateau_graph(plateaus: usize) -> RoadGraph {
        let n = plateaus * 8;
        let edges: Vec<(usize, usize, f64)> = (0..n - 1).map(|i| (i, i + 1, 1.0)).collect();
        let adj = CsrMatrix::from_undirected_edges(n, &edges).unwrap();
        let feats: Vec<f64> = (0..n).map(|i| (i / 8) as f64 * 0.4 + 0.05).collect();
        RoadGraph::from_parts(adj, feats, vec![]).unwrap()
    }

    /// Fine stripes across the plateaus: forces a global rebuild.
    fn flipped(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| if i % 2 == 0 { 0.05 } else { 0.9 })
            .collect()
    }

    #[test]
    fn initial_partition_is_published_as_version_one() {
        let engine = StreamEngine::new(plateau_graph(3), EngineConfig::new(3)).unwrap();
        let snap = engine.store().read();
        assert_eq!(snap.version, 1);
        assert_eq!(snap.epoch, 0);
        assert_eq!(snap.len(), 24);
        assert_eq!(snap.k, 3);
        assert_eq!(engine.health(), HealthState::Healthy);
    }

    #[test]
    fn stable_feed_yields_noop_epochs_without_version_bumps() {
        let graph = plateau_graph(3);
        let baseline = graph.features().to_vec();
        let mut engine = StreamEngine::new(graph, EngineConfig::new(3)).unwrap();
        for _ in 0..3 {
            engine.ingest(&baseline).unwrap();
            let report = engine.run_epoch().unwrap();
            assert_eq!(report.action, EpochAction::NoOp);
            assert_eq!(report.intended, EpochAction::NoOp);
            assert_eq!(report.version, 1, "no-op must not republish");
            assert!(report.drift.is_none());
            assert_eq!(report.health, HealthState::Healthy);
            assert!(!report.resilience.degraded);
            assert!(report.resilience.attempts.is_empty());
            assert_eq!(report.resilience.accepted, 1);
        }
        assert_eq!(engine.epochs(), 3);
    }

    #[test]
    fn inverted_densities_force_a_warm_global_rebuild() {
        let graph = plateau_graph(3);
        let n = graph.node_count();
        let mut engine = StreamEngine::new(graph, EngineConfig::new(3)).unwrap();
        let feed = flipped(n);
        for _ in 0..3 {
            engine.ingest(&feed).unwrap();
        }
        let report = engine.run_epoch().unwrap();
        assert_eq!(report.action, EpochAction::Global);
        assert!(report.warm_started, "artifacts from the initial build");
        assert_eq!(report.version, 2);
        assert!(report.drift.is_some());
        assert_eq!(report.resilience.attempts.len(), 1);
        assert!(report.resilience.attempts[0].succeeded);
    }

    #[test]
    fn warm_global_rebuilds_recycle_the_workspace() {
        let graph = plateau_graph(3);
        let mut cfg = EngineConfig::new(3);
        // Force the iterative solver (24 nodes is far below the default
        // dense cutoff) so the workspace actually carries the hot loops.
        cfg.spectral.eigen.dense_cutoff = 4;
        let n = graph.node_count();
        let mut engine = StreamEngine::new(graph, cfg).unwrap();
        let flipped = flipped(n);
        // Two warm solves on the same densities let the buffer working set
        // stabilize; the third must then be served entirely from the pool.
        let _ = engine.global_repartition(&flipped).unwrap();
        let _ = engine.global_repartition(&flipped).unwrap();
        let warm_fresh = engine.workspace.fresh_allocations();
        let _ = engine.global_repartition(&flipped).unwrap();
        assert_eq!(
            engine.workspace.fresh_allocations(),
            warm_fresh,
            "steady-state global rebuild must not allocate workspace buffers"
        );
        assert!(engine.workspace.takes() > 0, "workspace is actually in use");
    }

    #[test]
    fn epoch_without_any_ingest_is_an_error() {
        let mut engine = StreamEngine::new(plateau_graph(2), EngineConfig::new(2)).unwrap();
        assert!(engine.run_epoch().is_err());
    }

    #[test]
    fn bad_config_is_rejected() {
        assert!(StreamEngine::new(plateau_graph(2), EngineConfig::new(0)).is_err());
        assert!(StreamEngine::new(plateau_graph(2), EngineConfig::new(1000)).is_err());
        let mut cfg = EngineConfig::new(2);
        cfg.policy.noop_divergence = 2.0; // above global_divergence
        assert!(StreamEngine::new(plateau_graph(2), cfg).is_err());
        let mut cfg = EngineConfig::new(2);
        cfg.resilience.quarantine_threshold = 0;
        assert!(StreamEngine::new(plateau_graph(2), cfg).is_err());
    }

    #[test]
    fn injected_fault_is_retried_and_recovers_on_the_same_rung() {
        let graph = plateau_graph(3);
        let n = graph.node_count();
        let mut engine = StreamEngine::new(graph, EngineConfig::new(3)).unwrap();
        engine.arm_fault_injection(1);
        for _ in 0..3 {
            engine.ingest(&flipped(n)).unwrap();
        }
        let report = engine.run_epoch().unwrap();
        assert_eq!(report.action, EpochAction::Global, "retry, not degrade");
        assert!(!report.resilience.degraded);
        assert_eq!(report.resilience.attempts.len(), 2);
        assert!(!report.resilience.attempts[0].succeeded);
        assert!(report.resilience.attempts[0]
            .error
            .as_deref()
            .unwrap()
            .contains("injected epoch fault"));
        assert!(report.resilience.attempts[1].succeeded);
        assert_ne!(
            report.resilience.attempts[0].seed, report.resilience.attempts[1].seed,
            "retries must rotate the seed"
        );
        assert_eq!(report.health, HealthState::Healthy, "recovered in-rung");
    }

    #[test]
    fn exhausted_retries_degrade_down_the_ladder() {
        let graph = plateau_graph(3);
        let n = graph.node_count();
        let mut cfg = EngineConfig::new(3);
        cfg.resilience.max_retries = 1;
        let mut engine = StreamEngine::new(graph, cfg).unwrap();
        // Enough faults to exhaust Global (2 attempts) and Regional (2).
        engine.arm_fault_injection(4);
        for _ in 0..3 {
            engine.ingest(&flipped(n)).unwrap();
        }
        let report = engine.run_epoch().unwrap();
        assert_eq!(report.intended, EpochAction::Global);
        assert_eq!(report.action, EpochAction::NoOp, "fully degraded");
        assert!(report.resilience.degraded);
        assert_eq!(report.resilience.attempts.len(), 4);
        assert_eq!(report.health, HealthState::Degraded);
        assert_eq!(report.version, 1, "no publish on a degraded no-op");
        // The next epoch (faults exhausted) recovers on its own.
        for _ in 0..3 {
            engine.ingest(&flipped(n)).unwrap();
        }
        let report = engine.run_epoch().unwrap();
        assert_eq!(report.action, EpochAction::Global);
        assert_eq!(report.health, HealthState::Healthy);
        assert_eq!(report.version, 2);
    }

    #[test]
    fn zero_budget_degrades_or_fails_by_mode() {
        let graph = plateau_graph(3);
        let n = graph.node_count();
        let mut cfg = EngineConfig::new(3);
        cfg.resilience.epoch_budget_ms = Some(0.0);
        let mut engine = StreamEngine::new(graph, cfg).unwrap();
        for _ in 0..3 {
            engine.ingest(&flipped(n)).unwrap();
        }
        let report = engine.run_epoch().unwrap();
        assert_eq!(report.intended, EpochAction::Global);
        assert_eq!(report.action, EpochAction::NoOp);
        assert!(report.resilience.deadline_blown);
        assert_eq!(report.health, HealthState::Degraded);

        let graph = plateau_graph(3);
        let mut cfg = EngineConfig::new(3);
        cfg.resilience.epoch_budget_ms = Some(0.0);
        cfg.resilience.deadline_mode = DeadlineMode::Fail;
        let mut engine = StreamEngine::new(graph, cfg).unwrap();
        for _ in 0..3 {
            engine.ingest(&flipped(n)).unwrap();
        }
        match engine.run_epoch() {
            Err(StreamError::DeadlineExceeded { budget_ms, .. }) => {
                assert_eq!(budget_ms, 0.0);
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }

    #[test]
    fn guarded_ingest_repairs_then_quarantines_then_overflows() {
        let graph = plateau_graph(3);
        let baseline = graph.features().to_vec();
        let mut engine = StreamEngine::new(graph, EngineConfig::new(3)).unwrap();

        let mut corrupt = baseline.clone();
        corrupt[0] = f64::NAN;
        corrupt[1] = -5.0;
        // Three straight corrupt snapshots: repaired, repaired, quarantined.
        assert_eq!(
            engine.ingest_guarded("bad", &corrupt).unwrap(),
            IngestVerdict::Repaired
        );
        let mut corrupt2 = corrupt.clone();
        corrupt2[2] = f64::INFINITY;
        assert_eq!(
            engine.ingest_guarded("bad", &corrupt2).unwrap(),
            IngestVerdict::Repaired
        );
        let mut corrupt3 = corrupt.clone();
        corrupt3[3] = -1.0;
        assert_eq!(
            engine.ingest_guarded("bad", &corrupt3).unwrap(),
            IngestVerdict::Dropped
        );
        assert!(engine.quarantine().any_quarantined());
        // A clean source keeps the epoch healthy enough to run.
        assert_eq!(
            engine.ingest_guarded("good", &baseline).unwrap(),
            IngestVerdict::Clean
        );
        let report = engine.run_epoch().unwrap();
        assert_eq!(report.health, HealthState::Quarantining);
        assert_eq!(report.resilience.repaired, 2);
        assert_eq!(report.resilience.dropped, 1);
        assert_eq!(report.resilience.accepted, 1);
        assert_eq!(
            report.resilience.quarantined_sources,
            vec!["bad".to_string()]
        );

        // Next epoch: only the quarantined source reports — overflow.
        assert_eq!(
            engine.ingest_guarded("bad", &corrupt).unwrap(),
            IngestVerdict::Dropped
        );
        match engine.run_epoch() {
            Err(StreamError::QuarantineOverflow { sources, dropped }) => {
                assert_eq!((sources, dropped), (1, 1));
            }
            other => panic!("expected QuarantineOverflow, got {other:?}"),
        }
        // After the error the engine still serves and can run clean epochs.
        engine.ingest(&baseline).unwrap();
        let report = engine.run_epoch().unwrap();
        assert_eq!(report.action, EpochAction::NoOp);
    }

    #[test]
    fn empty_guarded_snapshots_are_unrepairable_drops() {
        let graph = plateau_graph(2);
        let mut engine = StreamEngine::new(graph, EngineConfig::new(2)).unwrap();
        assert_eq!(
            engine.ingest_guarded("s", &[]).unwrap(),
            IngestVerdict::Dropped
        );
        let stats = engine.quarantine().source("s").unwrap();
        assert_eq!(stats.dropped, 1);
        assert_eq!(stats.consecutive_malformed, 1);
    }

    #[test]
    fn guarded_ingest_pads_short_snapshots() {
        let graph = plateau_graph(2);
        let baseline = graph.features().to_vec();
        let mut engine = StreamEngine::new(graph, EngineConfig::new(2)).unwrap();
        // A short snapshot is repaired (padded), not rejected.
        assert_eq!(
            engine.ingest_guarded("s", &baseline[..10]).unwrap(),
            IngestVerdict::Repaired
        );
        engine.ingest(&baseline).unwrap();
        engine.run_epoch().unwrap();
    }
}

//! Self-healing machinery for the epoch control loop: engine health, the
//! resilience configuration, and per-source quarantine of malformed feeds.
//!
//! The stream engine's contract is "never publish a torn or invalid
//! partition, never let one bad input poison the aggregate". This module
//! supplies the three pieces `engine` composes into that contract:
//!
//! * [`ResilienceConfig`] — the per-epoch deadline budget, the bounded
//!   retry budget for solver failures (mirroring the batch supervisor's
//!   seed-rotation machinery), and the quarantine thresholds;
//! * [`QuarantineTracker`] — per-source accounting of clean, repaired, and
//!   dropped snapshots, quarantining sources that keep sending garbage and
//!   rehabilitating them after sustained clean behaviour;
//! * [`HealthState`] — the coarse Healthy / Degraded / Quarantining signal
//!   surfaced in `EpochReport` and the CLI.

use crate::drift::EpochAction;
use crate::error::{Result, StreamError};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Coarse engine health, recomputed at every epoch boundary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum HealthState {
    /// Last epoch executed as intended and no source is quarantined.
    #[default]
    Healthy,
    /// Last epoch was degraded: the deadline budget forced a cheaper rung
    /// of the ladder, or solver failures exhausted the retry budget of the
    /// intended action.
    Degraded,
    /// Last epoch executed as intended but at least one feed source is
    /// quarantined — served quality is fine, input coverage is not.
    Quarantining,
}

impl HealthState {
    /// Stable lower-case label for logs and the CLI.
    pub fn label(self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Degraded => "degraded",
            HealthState::Quarantining => "quarantining",
        }
    }
}

impl std::fmt::Display for HealthState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// What to do when the epoch budget is exhausted before the intended
/// action has run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DeadlineMode {
    /// Walk down the ladder (Global → Regional → NoOp) and serve the last
    /// good snapshot — keep serving, flag [`HealthState::Degraded`].
    Degrade,
    /// Fail the epoch with [`StreamError::DeadlineExceeded`] — for callers
    /// that would rather alert than silently serve a stale partition.
    Fail,
}

/// Robustness knobs for the epoch control loop.
#[derive(Debug, Clone)]
pub struct ResilienceConfig {
    /// Wall-clock budget per epoch, milliseconds. `None` disables deadline
    /// checks entirely (the pre-existing behaviour).
    pub epoch_budget_ms: Option<f64>,
    /// What a blown budget does; only consulted when a budget is set.
    pub deadline_mode: DeadlineMode,
    /// Extra attempts per ladder rung after the first, for retryable
    /// (numerical) solver failures. Each retry runs at once with its seed
    /// rotated by [`roadpart::supervisor::SEED_STRIDE`]: an in-process
    /// solve has nothing to back off from. `0` degrades on the first
    /// failure.
    pub max_retries: usize,
    /// Consecutive malformed snapshots (repaired, empty, or stale) after
    /// which a source is quarantined.
    pub quarantine_threshold: usize,
    /// Consecutive clean snapshots a quarantined source must deliver to be
    /// released.
    pub rehab_clean: usize,
    /// Consecutive bit-identical snapshots after which a source counts as
    /// stale (a stuck sensor). `0` disables staleness detection.
    pub stale_after: usize,
    /// Test hook: fail this many solve attempts with an injected
    /// `NotConverged` before executing real solves. Exercises the retry and
    /// degradation paths deterministically; `0` in production.
    pub inject_epoch_faults: usize,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        Self {
            epoch_budget_ms: None,
            deadline_mode: DeadlineMode::Degrade,
            max_retries: 2,
            quarantine_threshold: 3,
            rehab_clean: 2,
            stale_after: 0,
            inject_epoch_faults: 0,
        }
    }
}

impl ResilienceConfig {
    /// Checks the documented preconditions.
    ///
    /// # Errors
    /// Returns [`StreamError::InvalidConfig`] for negative or non-finite
    /// budgets, or zero quarantine/rehab thresholds.
    pub fn validate(&self) -> Result<()> {
        if let Some(b) = self.epoch_budget_ms {
            if !b.is_finite() || b < 0.0 {
                return Err(StreamError::InvalidConfig(format!(
                    "epoch budget must be finite and >= 0 ms, got {b}"
                )));
            }
        }
        if self.quarantine_threshold == 0 {
            return Err(StreamError::InvalidConfig(
                "quarantine threshold must be >= 1".into(),
            ));
        }
        if self.rehab_clean == 0 {
            return Err(StreamError::InvalidConfig(
                "rehab threshold must be >= 1".into(),
            ));
        }
        Ok(())
    }
}

/// How [`crate::engine::StreamEngine::ingest_guarded`] disposed of one
/// snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum IngestVerdict {
    /// Accepted untouched.
    Clean,
    /// Accepted after sanitization repaired anomalous values; counts as a
    /// malformed strike against the source.
    Repaired,
    /// Dropped: the source is quarantined, the snapshot was unrepairable,
    /// or the feed is stale.
    Dropped,
}

/// Running accounting for one feed source.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SourceStats {
    /// Snapshots accepted untouched.
    pub accepted: usize,
    /// Snapshots accepted after repair.
    pub repaired: usize,
    /// Snapshots dropped (quarantined, unrepairable, or stale).
    pub dropped: usize,
    /// Current run of malformed (repaired/unrepairable/stale) snapshots.
    pub consecutive_malformed: usize,
    /// Current run of clean snapshots (drives rehabilitation).
    pub consecutive_clean: usize,
    /// True while the source's snapshots are being dropped.
    pub quarantined: bool,
    /// Fingerprint of the last snapshot (staleness detection).
    #[serde(skip)]
    last_fingerprint: u64,
    /// Length of the current run of identical fingerprints.
    #[serde(skip)]
    consecutive_identical: usize,
}

/// Order-independent fingerprint-by-position of a raw snapshot (FNV-1a
/// over the bit patterns, so NaNs fingerprint consistently).
fn fingerprint(densities: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for d in densities {
        for b in d.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Per-source quarantine state machine.
///
/// A source accumulates a *strike* for every malformed snapshot (one that
/// needed repair, could not be repaired, or is stale); `quarantine_threshold`
/// consecutive strikes quarantine it, after which everything it sends is
/// dropped until it delivers `rehab_clean` consecutive clean snapshots.
#[derive(Debug, Clone, Default)]
pub struct QuarantineTracker {
    sources: BTreeMap<String, SourceStats>,
}

/// What the tracker decided about one snapshot (before the engine acts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TrackDisposition {
    /// Clean and the source is live: accept.
    AcceptClean,
    /// Repaired and the source is live: accept the sanitized values.
    AcceptRepaired,
    /// Drop (quarantined source, stale, or unrepairable).
    Drop,
}

impl QuarantineTracker {
    /// An empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stats for one source, if it has ever reported.
    pub fn source(&self, name: &str) -> Option<&SourceStats> {
        self.sources.get(name)
    }

    /// Names of currently quarantined sources, sorted.
    pub fn quarantined_sources(&self) -> Vec<String> {
        self.sources
            .iter()
            .filter(|(_, s)| s.quarantined)
            .map(|(n, _)| n.clone())
            .collect()
    }

    /// True when any source is quarantined.
    pub fn any_quarantined(&self) -> bool {
        self.sources.values().any(|s| s.quarantined)
    }

    /// Total snapshots dropped across all sources.
    pub fn total_dropped(&self) -> usize {
        self.sources.values().map(|s| s.dropped).sum()
    }

    /// Advances the state machine for one snapshot. `raw` is the snapshot
    /// as received (for staleness fingerprinting); `repaired` says whether
    /// sanitization had to touch it; `unrepairable` marks snapshots
    /// sanitization rejected outright.
    pub(crate) fn track(
        &mut self,
        source: &str,
        raw: &[f64],
        repaired: bool,
        unrepairable: bool,
        cfg: &ResilienceConfig,
    ) -> TrackDisposition {
        let stats = self.sources.entry(source.to_string()).or_default();

        // Staleness: a stuck sensor repeats the same bits forever.
        let fp = fingerprint(raw);
        if stats.accepted + stats.repaired + stats.dropped > 0 && fp == stats.last_fingerprint {
            stats.consecutive_identical += 1;
        } else {
            stats.consecutive_identical = 0;
        }
        stats.last_fingerprint = fp;
        let stale = cfg.stale_after > 0 && stats.consecutive_identical >= cfg.stale_after;

        let malformed = repaired || unrepairable || stale;
        if malformed {
            stats.consecutive_clean = 0;
            stats.consecutive_malformed += 1;
            if stats.consecutive_malformed >= cfg.quarantine_threshold {
                stats.quarantined = true;
            }
        } else {
            stats.consecutive_malformed = 0;
            stats.consecutive_clean += 1;
        }

        if stats.quarantined {
            // Rehabilitation: sustained clean behaviour releases the source;
            // the releasing snapshot itself is accepted.
            if !malformed && stats.consecutive_clean >= cfg.rehab_clean {
                stats.quarantined = false;
                stats.accepted += 1;
                return TrackDisposition::AcceptClean;
            }
            stats.dropped += 1;
            return TrackDisposition::Drop;
        }
        if unrepairable || stale {
            stats.dropped += 1;
            return TrackDisposition::Drop;
        }
        if repaired {
            stats.repaired += 1;
            return TrackDisposition::AcceptRepaired;
        }
        stats.accepted += 1;
        TrackDisposition::AcceptClean
    }
}

/// One solve attempt inside an epoch (the streaming analogue of the batch
/// supervisor's `AttemptRecord`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EpochAttempt {
    /// The ladder rung this attempt ran.
    pub action: EpochAction,
    /// Zero-based attempt index within the rung.
    pub attempt: usize,
    /// The seed in force (rotated between attempts).
    pub seed: u64,
    /// Whether the attempt produced a publishable partition.
    pub succeeded: bool,
    /// The full error chain when it did not.
    pub error: Option<String>,
}

/// Resilience telemetry for one epoch, embedded in `EpochReport`.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct EpochResilience {
    /// Every solve attempt, in execution order (empty for plain no-ops).
    pub attempts: Vec<EpochAttempt>,
    /// True when the executed action is cheaper than the intended one.
    pub degraded: bool,
    /// True when the epoch budget expired before the ladder finished.
    pub deadline_blown: bool,
    /// The budget in force, if any.
    pub budget_ms: Option<f64>,
    /// Snapshots accepted untouched since the previous epoch.
    pub accepted: usize,
    /// Snapshots accepted after repair since the previous epoch.
    pub repaired: usize,
    /// Snapshots dropped since the previous epoch.
    pub dropped: usize,
    /// Sources quarantined at the epoch boundary.
    pub quarantined_sources: Vec<String>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ResilienceConfig {
        ResilienceConfig::default()
    }

    #[test]
    fn default_config_validates() {
        cfg().validate().unwrap();
    }

    #[test]
    fn invalid_configs_are_rejected() {
        for bad in [
            ResilienceConfig {
                epoch_budget_ms: Some(-1.0),
                ..cfg()
            },
            ResilienceConfig {
                epoch_budget_ms: Some(f64::NAN),
                ..cfg()
            },
            ResilienceConfig {
                quarantine_threshold: 0,
                ..cfg()
            },
            ResilienceConfig {
                rehab_clean: 0,
                ..cfg()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn repeated_strikes_quarantine_and_clean_streak_rehabilitates() {
        let c = cfg(); // threshold 3, rehab 2
        let mut q = QuarantineTracker::new();
        // Distinct repaired snapshots: three strikes.
        assert_eq!(
            q.track("s", &[1.0], true, false, &c),
            TrackDisposition::AcceptRepaired
        );
        assert_eq!(
            q.track("s", &[2.0], true, false, &c),
            TrackDisposition::AcceptRepaired
        );
        assert_eq!(
            q.track("s", &[3.0], true, false, &c),
            TrackDisposition::Drop
        );
        assert!(q.any_quarantined());
        // Clean snapshots while quarantined: first still dropped, second
        // reaches the rehab streak and is accepted.
        assert_eq!(
            q.track("s", &[4.0], false, false, &c),
            TrackDisposition::Drop
        );
        assert_eq!(
            q.track("s", &[5.0], false, false, &c),
            TrackDisposition::AcceptClean
        );
        assert!(!q.any_quarantined());
        let s = q.source("s").unwrap();
        assert_eq!((s.accepted, s.repaired, s.dropped), (1, 2, 2));
        // A malformed snapshot mid-rehab resets the clean streak.
        let mut q2 = QuarantineTracker::new();
        for v in [1.0, 2.0, 3.0] {
            q2.track("x", &[v], true, false, &c);
        }
        assert!(q2.any_quarantined());
        q2.track("x", &[4.0], false, false, &c);
        q2.track("x", &[5.0], true, false, &c); // strike resets rehab
        assert_eq!(
            q2.track("x", &[6.0], false, false, &c),
            TrackDisposition::Drop,
            "one clean snapshot after a reset must not release"
        );
    }

    #[test]
    fn unrepairable_snapshots_are_dropped_and_count_as_strikes() {
        let c = cfg();
        let mut q = QuarantineTracker::new();
        for v in [1.0, 2.0] {
            assert_eq!(q.track("s", &[v], false, true, &c), TrackDisposition::Drop);
        }
        assert!(!q.any_quarantined(), "two strikes is below the threshold");
        assert_eq!(
            q.track("s", &[3.0], false, true, &c),
            TrackDisposition::Drop
        );
        assert!(q.any_quarantined());
        assert_eq!(q.total_dropped(), 3);
        assert_eq!(q.quarantined_sources(), vec!["s".to_string()]);
    }

    #[test]
    fn stuck_feeds_go_stale_and_fresh_bits_recover() {
        let c = ResilienceConfig {
            stale_after: 2,
            ..cfg()
        };
        let mut q = QuarantineTracker::new();
        // Same bits over and over: the first two pass, then staleness bites.
        assert_eq!(
            q.track("s", &[7.0], false, false, &c),
            TrackDisposition::AcceptClean
        );
        assert_eq!(
            q.track("s", &[7.0], false, false, &c),
            TrackDisposition::AcceptClean
        );
        assert_eq!(
            q.track("s", &[7.0], false, false, &c),
            TrackDisposition::Drop
        );
        // Fresh bits reset the identical run.
        assert_eq!(
            q.track("s", &[8.0], false, false, &c),
            TrackDisposition::AcceptClean
        );
        // Disabled staleness never drops.
        let mut q2 = QuarantineTracker::new();
        for _ in 0..20 {
            assert_eq!(
                q2.track("s", &[7.0], false, false, &cfg()),
                TrackDisposition::AcceptClean
            );
        }
    }

    #[test]
    fn sources_are_tracked_independently() {
        let c = cfg();
        let mut q = QuarantineTracker::new();
        for v in [1.0, 2.0, 3.0] {
            q.track("bad", &[v], true, false, &c);
        }
        q.track("good", &[1.0], false, false, &c);
        assert!(q.source("bad").unwrap().quarantined);
        assert!(!q.source("good").unwrap().quarantined);
        assert_eq!(
            q.track("good", &[2.0], false, false, &c),
            TrackDisposition::AcceptClean
        );
    }

    #[test]
    fn health_labels_are_stable() {
        assert_eq!(HealthState::Healthy.label(), "healthy");
        assert_eq!(HealthState::Degraded.to_string(), "degraded");
        assert_eq!(HealthState::Quarantining.label(), "quarantining");
        let json = serde_json::to_string(&HealthState::Degraded).unwrap();
        let back: HealthState = serde_json::from_str(&json).unwrap();
        assert_eq!(back, HealthState::Degraded);
    }
}

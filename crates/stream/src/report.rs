//! Machine-readable per-epoch reporting (the streaming analogue of the
//! supervisor's `RunReport`).

use crate::drift::{DriftProbe, EpochAction};
use crate::health::{EpochResilience, HealthState};
use roadpart_eval::PartitionDrift;
use serde::{Deserialize, Serialize};

/// Everything one epoch did, serializable for logs and dashboards.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EpochReport {
    /// 1-based epoch counter.
    pub epoch: u64,
    /// The action actually executed (after any degradation).
    pub action: EpochAction,
    /// The action the drift policy asked for. Differs from `action` only
    /// when the self-healing ladder degraded the epoch.
    #[serde(default)]
    pub intended: EpochAction,
    /// The drift signals behind the decision.
    pub probe: DriftProbe,
    /// Snapshot-store version after the epoch (unchanged on no-op).
    pub version: u64,
    /// Partition count being served after the epoch.
    pub k: usize,
    /// Old-vs-new structural drift when the epoch repartitioned.
    pub drift: Option<PartitionDrift>,
    /// True when a global rebuild reused the previous epoch's spectral
    /// artifacts.
    pub warm_started: bool,
    /// Wall-clock spent in the epoch.
    pub elapsed_ms: f64,
    /// Engine health after the epoch.
    #[serde(default)]
    pub health: HealthState,
    /// What the self-healing machinery did this epoch: solve attempts,
    /// deadline state, ingest/quarantine accounting.
    #[serde(default)]
    pub resilience: EpochResilience,
}

/// An append-only log of epoch reports with summary accessors.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct StreamLog {
    /// Reports in epoch order.
    pub reports: Vec<EpochReport>,
}

impl StreamLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one epoch.
    pub fn push(&mut self, report: EpochReport) {
        self.reports.push(report);
    }

    /// Number of recorded epochs.
    pub fn len(&self) -> usize {
        self.reports.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.reports.is_empty()
    }

    /// `(noop, regional, global)` epoch counts.
    pub fn action_counts(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for r in &self.reports {
            match r.action {
                EpochAction::NoOp => c.0 += 1,
                EpochAction::Regional => c.1 += 1,
                EpochAction::Global => c.2 += 1,
            }
        }
        c
    }

    /// `(healthy, degraded, quarantining)` epoch counts.
    pub fn health_counts(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for r in &self.reports {
            match r.health {
                HealthState::Healthy => c.0 += 1,
                HealthState::Degraded => c.1 += 1,
                HealthState::Quarantining => c.2 += 1,
            }
        }
        c
    }

    /// Epochs where the executed action fell short of the intended one.
    pub fn degraded_epochs(&self) -> usize {
        self.reports
            .iter()
            .filter(|r| r.resilience.degraded)
            .count()
    }

    /// Total wall-clock across recorded epochs, in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.reports.iter().map(|r| r.elapsed_ms).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(epoch: u64, action: EpochAction) -> EpochReport {
        EpochReport {
            epoch,
            action,
            intended: action,
            probe: DriftProbe {
                max_divergence: 0.0,
                trial_nmi: 1.0,
                reference_nmi: 1.0,
            },
            version: 1,
            k: 4,
            drift: None,
            warm_started: false,
            elapsed_ms: 1.5,
            health: HealthState::Healthy,
            resilience: EpochResilience::default(),
        }
    }

    #[test]
    fn counts_and_totals() {
        let mut log = StreamLog::new();
        log.push(report(1, EpochAction::NoOp));
        log.push(report(2, EpochAction::NoOp));
        log.push(report(3, EpochAction::Global));
        assert_eq!(log.len(), 3);
        assert_eq!(log.action_counts(), (2, 0, 1));
        assert!((log.total_ms() - 4.5).abs() < 1e-12);
        assert_eq!(log.health_counts(), (3, 0, 0));
        assert_eq!(log.degraded_epochs(), 0);
    }

    #[test]
    fn degraded_epochs_are_counted() {
        let mut log = StreamLog::new();
        let mut r = report(1, EpochAction::NoOp);
        r.intended = EpochAction::Global;
        r.resilience.degraded = true;
        r.health = HealthState::Degraded;
        log.push(r);
        log.push(report(2, EpochAction::Global));
        assert_eq!(log.health_counts(), (1, 1, 0));
        assert_eq!(log.degraded_epochs(), 1);
    }

    #[test]
    fn reports_round_trip_through_json() {
        let mut r = report(7, EpochAction::Regional);
        r.drift = Some(roadpart_eval::PartitionDrift::between(
            &[0, 0, 1],
            &[0, 1, 1],
        ));
        r.health = HealthState::Quarantining;
        r.resilience.dropped = 3;
        let json = serde_json::to_string(&r).unwrap();
        let back: EpochReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.epoch, 7);
        assert_eq!(back.action, EpochAction::Regional);
        assert!(back.drift.is_some());
        assert_eq!(back.health, HealthState::Quarantining);
        assert_eq!(back.resilience.dropped, 3);
    }

    #[test]
    fn pre_resilience_reports_still_deserialize() {
        // A report serialized before the health/resilience fields existed
        // must load with healthy defaults.
        let json = r#"{
            "epoch": 2,
            "action": "Global",
            "probe": {"max_divergence": 0.5, "trial_nmi": 0.4, "reference_nmi": 0.9},
            "version": 2,
            "k": 4,
            "drift": null,
            "warm_started": true,
            "elapsed_ms": 2.0
        }"#;
        let back: EpochReport = serde_json::from_str(json).unwrap();
        assert_eq!(back.intended, EpochAction::NoOp);
        assert_eq!(back.health, HealthState::Healthy);
        assert!(!back.resilience.degraded);
        assert!(back.resilience.attempts.is_empty());
    }
}

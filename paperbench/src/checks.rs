//! Output checks. Every check counts one attempt; a mismatch counts one
//! failure and keeps a one-line reason for the run's log.

use crate::stats::Digest;

/// Attempted/failed tally with the failure reasons.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks made.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    /// One line per failure.
    pub reasons: Vec<String>,
}

impl Checks {
    /// Records one check; `reason` is only rendered when it failed.
    pub fn check(&mut self, ok: bool, reason: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.reasons.push(reason());
        }
        ok
    }

    /// True when no check failed.
    pub fn all_passed(&self) -> bool {
        self.failed == 0
    }
}

/// Digest of a label vector, for comparing runs without keeping labels.
pub fn label_digest(labels: &[usize]) -> u64 {
    let mut d = Digest::default();
    d.labels(labels);
    d.finish()
}

/// First differing index of two label sets, for the failure message.
pub fn first_difference(a: &[usize], b: &[usize]) -> String {
    if a.len() != b.len() {
        return format!("lengths {} vs {}", a.len(), b.len());
    }
    match a.iter().zip(b).position(|(x, y)| x != y) {
        Some(i) => format!("segment {i}: {} vs {}", a[i], b[i]),
        None => "identical".to_string(),
    }
}

//! Solver fallback ladder: a recovering wrapper around [`sym_eigs_ws`].
//!
//! Lanczos can legitimately fail to converge — tight tolerances on badly
//! conditioned α-Cut matrices, unlucky starting vectors, or operator entries
//! poisoned by bad input data. Rather than abort the whole partitioning
//! pipeline, [`sym_eigs_recovering_ws`] climbs a ladder of progressively
//! more forgiving solver configurations:
//!
//! 1. **Baseline** — the caller's [`EigenConfig`] as-is;
//! 2. **RelaxedTolerance** — the convergence tolerance multiplied by 100,
//!    the restart budget doubled, and full reorthogonalization;
//! 3. **PerturbedSeed** — the relaxed configuration with a decorrelated
//!    starting-vector seed, escaping pathological Krylov starts;
//! 4. **Dense** — exact dense [`eigh`] on the densified operator, attempted
//!    when the dimension is at most [`FallbackConfig::dense_threshold`] or
//!    when [`FallbackConfig::always_dense_last_resort`] is set.
//!
//! Only *numerical* failures ([`LinalgError::NotConverged`] and
//! [`LinalgError::NonFinite`]) trigger the next rung; structural errors
//! (dimension mismatches, invalid input) propagate immediately because no
//! amount of retrying fixes a malformed operand.
//!
//! Every attempt is recorded in a [`RecoveryLog`], giving callers a
//! machine-readable audit trail of how a result was obtained. The log also
//! hosts the fault-injection hook: [`FallbackConfig::inject_failures`]
//! forces the first N attempts to fail with `NotConverged`, which lets
//! integration tests drive the ladder deterministically without rigging the
//! numerics.

use crate::dense::DenseMatrix;
use crate::eigen_dense::eigh;
use crate::error::{LinalgError, Result};
use crate::lanczos::{densify_with, sym_eigs_ws, EigenConfig, PartialEigen, ReorthPolicy, Which};
use crate::operator::SymOp;
use crate::workspace::Workspace;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// Multiplier applied to `tol` on the relaxed rungs.
const TOL_RELAX: f64 = 100.0;
/// Multiplier applied to `max_restarts` on the relaxed rungs.
const RESTART_BOOST: usize = 2;
/// XOR mask applied to the seed on the perturbed rung.
const SEED_PERTURBATION: u64 = 0x9e37_79b9_7f4a_7c15;

/// Names one rung of the fallback ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FallbackRung {
    /// The caller's configuration, unmodified.
    Baseline,
    /// Relaxed tolerance and enlarged restart budget.
    RelaxedTolerance,
    /// Relaxed configuration with a perturbed starting-vector seed.
    PerturbedSeed,
    /// Exact dense eigendecomposition of the densified operator.
    Dense,
}

impl FallbackRung {
    /// Short human-readable rung name.
    pub fn name(self) -> &'static str {
        match self {
            FallbackRung::Baseline => "baseline",
            FallbackRung::RelaxedTolerance => "relaxed-tolerance",
            FallbackRung::PerturbedSeed => "perturbed-seed",
            FallbackRung::Dense => "dense",
        }
    }
}

/// Ladder policy knobs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FallbackConfig {
    /// Dimension bound under which the dense rung is always attempted.
    /// Default: 4096.
    pub dense_threshold: usize,
    /// Attempt the dense rung even above `dense_threshold` when everything
    /// else failed. Default: true.
    pub always_dense_last_resort: bool,
    /// Fault injection: force the first N solver attempts to fail with
    /// `NotConverged` before any real work happens. Default: 0.
    pub inject_failures: usize,
}

impl Default for FallbackConfig {
    fn default() -> Self {
        Self {
            dense_threshold: 4096,
            always_dense_last_resort: true,
            inject_failures: 0,
        }
    }
}

/// One solver attempt and its outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RecoveryEvent {
    /// Which rung ran.
    pub rung: FallbackRung,
    /// Whether this attempt produced the accepted result.
    pub succeeded: bool,
    /// Failure description (empty on success).
    pub detail: String,
}

/// Machine-readable audit trail of fallback activity.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RecoveryLog {
    /// Attempts in execution order, across every solve this log witnessed.
    pub events: Vec<RecoveryEvent>,
}

impl RecoveryLog {
    /// Empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one attempt.
    pub fn record(&mut self, rung: FallbackRung, succeeded: bool, detail: impl Into<String>) {
        self.events.push(RecoveryEvent {
            rung,
            succeeded,
            detail: detail.into(),
        });
    }

    /// True when every recorded solve succeeded on its baseline attempt.
    pub fn is_clean(&self) -> bool {
        self.events
            .iter()
            .all(|e| e.rung == FallbackRung::Baseline && e.succeeded)
    }

    /// Number of failed attempts (i.e. rungs that had to be abandoned).
    pub fn failures(&self) -> usize {
        self.events.iter().filter(|e| !e.succeeded).count()
    }

    /// Appends another log's events (used when aggregating pipeline stages).
    pub fn absorb(&mut self, other: RecoveryLog) {
        self.events.extend(other.events);
    }
}

/// [`sym_eigs_ws`] with the fallback ladder described in the module docs.
///
/// On success the returned decomposition is exactly what [`sym_eigs_ws`]
/// (or the dense rung) produced; `log` gains one event per attempt. Scratch
/// buffers come from `ws`, so repeated solves (one per repartitioning
/// epoch) reuse the pool across calls.
///
/// # Errors
/// Propagates structural errors immediately, and returns the *last* rung's
/// numerical error when the whole ladder is exhausted.
#[allow(clippy::too_many_arguments)]
pub fn sym_eigs_recovering_ws(
    op: &impl SymOp,
    nev: usize,
    which: Which,
    cfg: &EigenConfig,
    fallback: &FallbackConfig,
    log: &mut RecoveryLog,
    ws: &mut Workspace,
) -> Result<PartialEigen> {
    let mut injections_left = fallback.inject_failures;
    let mut last_err: Option<LinalgError> = None;

    for rung in [
        FallbackRung::Baseline,
        FallbackRung::RelaxedTolerance,
        FallbackRung::PerturbedSeed,
        FallbackRung::Dense,
    ] {
        if rung == FallbackRung::Dense && !dense_rung_allowed(op.dim(), fallback) {
            continue;
        }
        let attempt = if injections_left > 0 {
            injections_left -= 1;
            Err(LinalgError::NotConverged {
                iterations: 0,
                context: "fault injection (forced failure)",
            })
        } else {
            run_rung(op, nev, which, cfg, rung, ws)
        };
        match attempt {
            Ok(dec) => {
                log.record(rung, true, "");
                return Ok(dec);
            }
            Err(err) if is_recoverable(&err) => {
                log.record(rung, false, err.to_string());
                last_err = Some(err);
            }
            Err(err) => {
                // Structural failure: retrying cannot help.
                log.record(rung, false, err.to_string());
                return Err(err);
            }
        }
    }

    Err(last_err.unwrap_or(LinalgError::NotConverged {
        iterations: 0,
        context: "fallback ladder (no rung was eligible)",
    }))
}

/// Whether an error class is worth retrying with a different configuration.
fn is_recoverable(err: &LinalgError) -> bool {
    matches!(
        err,
        LinalgError::NotConverged { .. } | LinalgError::NonFinite { .. }
    )
}

fn dense_rung_allowed(n: usize, fallback: &FallbackConfig) -> bool {
    n <= fallback.dense_threshold || fallback.always_dense_last_resort
}

fn run_rung(
    op: &impl SymOp,
    nev: usize,
    which: Which,
    cfg: &EigenConfig,
    rung: FallbackRung,
    ws: &mut Workspace,
) -> Result<PartialEigen> {
    match rung {
        FallbackRung::Dense => dense_solve(op, nev, which, &cfg.pool),
        _ => sym_eigs_ws(op, nev, which, &rung_config(cfg, rung), ws),
    }
}

/// The Lanczos configuration a non-dense rung runs with.
fn rung_config(cfg: &EigenConfig, rung: FallbackRung) -> Cow<'_, EigenConfig> {
    if rung == FallbackRung::Baseline {
        return Cow::Borrowed(cfg);
    }
    let mut c = cfg.clone();
    c.tol *= TOL_RELAX;
    c.max_restarts = c.max_restarts.saturating_mul(RESTART_BOOST);
    // If the baseline attempt failed under selective reorthogonalization,
    // retry with the unconditional sweep: it is slower but numerically the
    // most robust rung of the ladder.
    c.reorth = ReorthPolicy::Full;
    if rung == FallbackRung::PerturbedSeed {
        c.seed ^= SEED_PERTURBATION;
    }
    Cow::Owned(c)
}

/// The dense rung: densify and solve exactly, then slice the wanted end.
fn dense_solve(
    op: &impl SymOp,
    nev: usize,
    which: Which,
    pool: &crate::par::ThreadPool,
) -> Result<PartialEigen> {
    let n = op.dim();
    if nev > n {
        return Err(LinalgError::InvalidInput(format!(
            "requested {nev} eigenpairs of a dimension-{n} operator"
        )));
    }
    let dec = eigh(&densify_with(op, pool))?;
    if dec.values.iter().any(|v| !v.is_finite()) {
        return Err(LinalgError::NonFinite {
            context: "dense fallback eigendecomposition",
        });
    }
    let idx: Vec<usize> = match which {
        Which::Smallest => (0..nev).collect(),
        Which::Largest => (n - nev..n).collect(),
    };
    let values: Vec<f64> = idx.iter().map(|&i| dec.values[i]).collect();
    let vectors = DenseMatrix::from_fn(n, nev, |r, c| dec.vectors.get(r, idx[c]));
    Ok(PartialEigen {
        values,
        vectors,
        iterations: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrMatrix;

    fn ring_laplacian(n: usize) -> CsrMatrix {
        let mut triplets = Vec::new();
        for i in 0..n {
            triplets.push((i, i, 2.0));
            triplets.push((i, (i + 1) % n, -1.0));
            triplets.push(((i + 1) % n, i, -1.0));
        }
        CsrMatrix::from_triplets(n, &triplets).unwrap()
    }

    fn solve(
        a: &CsrMatrix,
        nev: usize,
        fb: &FallbackConfig,
        log: &mut RecoveryLog,
    ) -> Result<PartialEigen> {
        let (cfg, mut ws) = (EigenConfig::default(), Workspace::new());
        sym_eigs_recovering_ws(a, nev, Which::Smallest, &cfg, fb, log, &mut ws)
    }

    #[test]
    fn clean_solve_records_single_baseline_event() {
        let a = ring_laplacian(40);
        let mut log = RecoveryLog::new();
        let dec = solve(&a, 3, &FallbackConfig::default(), &mut log).unwrap();
        assert_eq!(dec.values.len(), 3);
        assert_eq!(log.events.len(), 1);
        assert!(log.is_clean());
        assert_eq!(log.failures(), 0);
    }

    #[test]
    fn injected_failures_climb_the_ladder() {
        let a = ring_laplacian(40);
        let fb = FallbackConfig {
            inject_failures: 2,
            ..FallbackConfig::default()
        };
        let mut log = RecoveryLog::new();
        let dec = solve(&a, 2, &fb, &mut log).unwrap();
        assert_eq!(dec.values.len(), 2);
        let rungs: Vec<FallbackRung> = log.events.iter().map(|e| e.rung).collect();
        assert_eq!(
            rungs,
            [
                FallbackRung::Baseline,
                FallbackRung::RelaxedTolerance,
                FallbackRung::PerturbedSeed,
            ]
        );
        assert!(!log.events[0].succeeded);
        assert!(!log.events[1].succeeded);
        assert!(log.events[2].succeeded);
        assert_eq!(log.failures(), 2);
        assert!(!log.is_clean());
    }

    #[test]
    fn relaxed_rungs_pin_their_factors() {
        let base = EigenConfig {
            tol: 1e-8,
            max_restarts: 24,
            seed: 7,
            reorth: ReorthPolicy::Selective,
            ..EigenConfig::default()
        };
        let b = rung_config(&base, FallbackRung::Baseline);
        assert!(
            matches!(b, Cow::Borrowed(_)),
            "baseline runs the caller's config"
        );
        let r = rung_config(&base, FallbackRung::RelaxedTolerance);
        assert_eq!(r.tol, 1e-8 * 100.0);
        assert_eq!(r.max_restarts, 48);
        assert_eq!(r.reorth, ReorthPolicy::Full);
        assert_eq!(r.seed, 7);
        let p = rung_config(&base, FallbackRung::PerturbedSeed);
        assert_eq!(
            (p.tol, p.max_restarts, p.reorth),
            (r.tol, 48, ReorthPolicy::Full)
        );
        assert_eq!(p.seed, 7 ^ 0x9e37_79b9_7f4a_7c15);
    }

    #[test]
    fn full_injection_lands_on_dense_rung() {
        let a = ring_laplacian(30);
        let fb = FallbackConfig {
            inject_failures: 3,
            ..FallbackConfig::default()
        };
        let mut log = RecoveryLog::new();
        let dec = solve(&a, 2, &fb, &mut log).unwrap();
        assert_eq!(log.events.last().unwrap().rung, FallbackRung::Dense);
        assert!(log.events.last().unwrap().succeeded);
        assert!(dec.values[0].abs() < 1e-8, "ring kernel eigenvalue");
    }

    #[test]
    fn exhausted_ladder_returns_last_numerical_error() {
        let a = ring_laplacian(30);
        let fb = FallbackConfig {
            inject_failures: 4,
            ..FallbackConfig::default()
        };
        let mut log = RecoveryLog::new();
        let err = solve(&a, 2, &fb, &mut log).unwrap_err();
        assert!(matches!(err, LinalgError::NotConverged { .. }));
        assert_eq!(log.events.len(), 4);
        assert!(log.events.iter().all(|e| !e.succeeded));
    }

    #[test]
    fn structural_errors_do_not_retry() {
        let a = ring_laplacian(10);
        let mut log = RecoveryLog::new();
        // nev > n is structural: must fail once, not climb the ladder.
        let err = solve(&a, 11, &FallbackConfig::default(), &mut log).unwrap_err();
        assert!(matches!(err, LinalgError::InvalidInput(_)));
        assert_eq!(log.events.len(), 1);
    }

    #[test]
    fn dense_rung_gating() {
        let fb = FallbackConfig {
            dense_threshold: 8,
            always_dense_last_resort: false,
            inject_failures: 4,
        };
        let a = ring_laplacian(30);
        let mut log = RecoveryLog::new();
        // Dense is gated off (30 > 8, no last resort): ladder has 3 rungs.
        let err = solve(&a, 2, &fb, &mut log).unwrap_err();
        assert!(matches!(err, LinalgError::NotConverged { .. }));
        assert_eq!(log.events.len(), 3);
    }

    #[test]
    fn recovery_log_round_trips_through_serde() {
        let mut log = RecoveryLog::new();
        log.record(FallbackRung::Baseline, false, "x");
        log.record(FallbackRung::Dense, true, "");
        let node = serde::Serialize::to_node(&log);
        let back: RecoveryLog = serde::Deserialize::from_node(&node).unwrap();
        assert_eq!(back.events.len(), 2);
        assert_eq!(back.events[0].rung, FallbackRung::Baseline);
        assert!(back.events[1].succeeded);
    }
}

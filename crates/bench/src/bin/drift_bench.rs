//! BENCH_drift — disruption scenarios × resilience policies through the
//! self-healing online engine.
//!
//! ```text
//! cargo run -p roadpart-bench --release --bin drift_bench -- --scale 0.3
//! cargo run -p roadpart-bench --release --bin drift_bench -- --smoke
//! ```
//!
//! For every scenario of `Scenario::standard_suite` (capacity drop,
//! blockade, rush-hour surge, moving hotspot) overlaid on the D1 microsim
//! trace, and for every resilience policy, the bench replays the trace
//! through [`StreamEngine`] epoch by epoch and measures:
//!
//! * **time-to-detect** — epochs from disruption onset to the first
//!   non-no-op action;
//! * **quality retention** — per-epoch inter/intra/GDBI/ANS of the served
//!   partition against a *clean-rerun oracle* (a cold spectral solve on
//!   that epoch's densities), expressed as ratios oriented so 1.0 means
//!   "as good as the oracle" and smaller means worse;
//! * **epochs-to-recover** — epochs after the disruption clears until the
//!   engine settles back to a no-op (serving a partition the drift probe
//!   considers current).
//!
//! Policies: `resilient` (defaults: retries with seed rotation),
//! `no-retry` (every solver failure degrades immediately), and
//! `fault-storm` (defaults, plus 4 injected solver faults at disruption
//! onset — enough to exhaust a rung and force the degradation ladder).
//!
//! `--smoke` shrinks the scale/epoch count for CI and keeps the validity
//! gate: the process exits non-zero if any replay errors, any metric goes
//! non-finite, or no scenario is ever detected.

use roadpart_bench::write_json;
use roadpart_cut::{alpha_cut, gaussian_affinity, SpectralConfig};
use roadpart_eval::QualityReport;
use roadpart_net::RoadGraph;
use roadpart_stream::{EngineConfig, EpochAction, StreamEngine};
use roadpart_traffic::{DensityHistory, Scenario};
use serde_json::json;

const K: usize = 4;

/// Parsed flags. Owns its parsing because the shared `ExpArgs` parser
/// treats every flag as valued and would swallow the flag after a bare
/// `--smoke`.
struct BenchArgs {
    scale: f64,
    seed: u64,
    epochs: usize,
    smoke: bool,
}

fn parse_args() -> BenchArgs {
    let mut out = BenchArgs {
        scale: 0.3,
        seed: 42,
        epochs: 12,
        smoke: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--smoke" => out.smoke = true,
            "--scale" => {
                if let Some(v) = args.next().and_then(|s| s.parse::<f64>().ok()) {
                    out.scale = v.clamp(1e-3, 1.0);
                }
            }
            "--seed" => {
                if let Some(v) = args.next().and_then(|s| s.parse().ok()) {
                    out.seed = v;
                }
            }
            "--epochs" => {
                if let Some(v) = args.next().and_then(|s| s.parse::<usize>().ok()) {
                    out.epochs = v.max(2);
                }
            }
            other => eprintln!("warning: ignoring unknown flag {other}"),
        }
    }
    if out.smoke {
        out.scale = out.scale.min(0.25);
        out.epochs = out.epochs.min(8);
    }
    out
}

/// A named resilience posture applied to the engine config.
struct Policy {
    name: &'static str,
    /// Retries per ladder rung.
    max_retries: usize,
    /// Solver faults injected when the disruption becomes active.
    inject_faults: usize,
}

const POLICIES: &[Policy] = &[
    Policy {
        name: "resilient",
        max_retries: 2,
        inject_faults: 0,
    },
    Policy {
        name: "no-retry",
        max_retries: 0,
        inject_faults: 0,
    },
    Policy {
        name: "fault-storm",
        max_retries: 2,
        inject_faults: 4,
    },
];

/// Ratio oriented so 1.0 = "matches the oracle", < 1.0 = worse. `higher`
/// flips the orientation for higher-is-better metrics.
fn retention(served: f64, oracle: f64, higher: bool) -> f64 {
    let (num, den) = if higher {
        (served, oracle)
    } else {
        (oracle, served)
    };
    if den.abs() < 1e-12 {
        if num.abs() < 1e-12 {
            1.0
        } else {
            0.0
        }
    } else {
        (num / den).clamp(-10.0, 10.0)
    }
}

struct CaseResult {
    json: serde_json::Value,
    detected: bool,
    all_finite: bool,
    failed: bool,
}

/// Replays one scenario × policy through the engine.
fn run_case(
    net: &roadpart_net::RoadNetwork,
    disrupted: &DensityHistory,
    scenario: &Scenario,
    policy: &Policy,
    seed: u64,
    epochs: usize,
) -> CaseResult {
    let steps = disrupted.len();
    let mut graph = match RoadGraph::from_network(net) {
        Ok(g) => g,
        Err(e) => return failed_case(scenario, policy, &format!("graph: {e}")),
    };
    if let Err(e) = graph.set_features(disrupted.at(0).to_vec()) {
        return failed_case(scenario, policy, &format!("features: {e}"));
    }
    let mut cfg = EngineConfig::new(K).with_seed(seed);
    cfg.resilience.max_retries = policy.max_retries;
    let mut engine = match StreamEngine::new(graph, cfg) {
        Ok(e) => e,
        Err(e) => return failed_case(scenario, policy, &format!("engine: {e}")),
    };

    let oracle_cfg = SpectralConfig::default().with_seed(seed);
    let per_epoch = (steps - 1).div_ceil(epochs).max(1);

    let mut epoch_rows = Vec::new();
    let mut first_active_epoch: Option<usize> = None;
    let mut last_active_epoch: Option<usize> = None;
    let mut detect_epoch: Option<usize> = None;
    let mut recover_epoch: Option<usize> = None;
    let mut faults_armed = false;
    let mut all_finite = true;

    let mut t = 1usize;
    let mut epoch_no = 0usize;
    while t < steps {
        let end = (t + per_epoch).min(steps);
        epoch_no += 1;
        // Normalized scenario time covered by this epoch's ingest window.
        let active = (t..end).any(|s| {
            let time = s as f64 / (steps - 1) as f64;
            scenario.is_active(time)
        });
        if active {
            first_active_epoch.get_or_insert(epoch_no);
            last_active_epoch = Some(epoch_no);
            if !faults_armed && policy.inject_faults > 0 {
                engine.arm_fault_injection(policy.inject_faults);
                faults_armed = true;
            }
        }
        for s in t..end {
            if engine.ingest(disrupted.at(s)).is_err() {
                return failed_case(scenario, policy, "ingest rejected a trace snapshot");
            }
        }
        let snapshot = disrupted.at(end - 1).to_vec();
        t = end;

        let report = match engine.run_epoch() {
            Ok(r) => r,
            Err(e) => return failed_case(scenario, policy, &format!("epoch {epoch_no}: {e}")),
        };
        if detect_epoch.is_none() && active && report.action != EpochAction::NoOp {
            detect_epoch = Some(epoch_no);
        }
        if let Some(last) = last_active_epoch {
            if recover_epoch.is_none()
                && epoch_no > last
                && !scenario.is_active((t.min(steps) - 1) as f64 / (steps - 1) as f64)
                && report.action == EpochAction::NoOp
            {
                recover_epoch = Some(epoch_no);
            }
        }

        // Clean-rerun oracle: a cold spectral solve on this epoch's final
        // ingested densities, evaluated on the same affinity as the served
        // labels.
        let eval_graph = RoadGraph::from_network(net).expect("validated above");
        let affinity = match gaussian_affinity(eval_graph.adjacency(), &snapshot) {
            Ok(a) => a,
            Err(e) => return failed_case(scenario, policy, &format!("affinity: {e}")),
        };
        let oracle = match alpha_cut(&affinity, K, &oracle_cfg) {
            Ok(p) => p,
            Err(e) => return failed_case(scenario, policy, &format!("oracle: {e}")),
        };
        let served_q = QualityReport::compute(&affinity, &snapshot, engine.store().read().labels());
        let oracle_q = QualityReport::compute(&affinity, &snapshot, oracle.labels());
        let row = json!({
            "epoch": report.epoch,
            "active": active,
            "action": format!("{:?}", report.action),
            "intended": format!("{:?}", report.intended),
            "health": report.health.label(),
            "degraded": report.resilience.degraded,
            "attempts": report.resilience.attempts.len(),
            "elapsed_ms": report.elapsed_ms,
            "divergence": report.probe.max_divergence,
            "retention": {
                "inter": retention(served_q.inter, oracle_q.inter, true),
                "intra": retention(served_q.intra, oracle_q.intra, false),
                "gdbi": retention(served_q.gdbi, oracle_q.gdbi, false),
                "ans": retention(served_q.ans, oracle_q.ans, false),
            },
        });
        for v in [
            served_q.inter,
            served_q.intra,
            served_q.gdbi,
            served_q.ans,
            report.probe.max_divergence,
        ] {
            if !v.is_finite() {
                all_finite = false;
            }
        }
        epoch_rows.push(row);
    }

    let time_to_detect = match (detect_epoch, first_active_epoch) {
        (Some(d), Some(f)) => Some(d.saturating_sub(f)),
        _ => None,
    };
    let epochs_to_recover = match (recover_epoch, last_active_epoch) {
        (Some(r), Some(l)) => Some(r - l),
        _ => None,
    };
    CaseResult {
        json: json!({
            "scenario": scenario.name,
            "policy": policy.name,
            "epochs": epoch_no,
            "first_active_epoch": first_active_epoch,
            "detect_epoch": detect_epoch,
            "time_to_detect_epochs": time_to_detect,
            "recover_epoch": recover_epoch,
            "epochs_to_recover": epochs_to_recover,
            "per_epoch": epoch_rows,
        }),
        detected: detect_epoch.is_some(),
        all_finite,
        failed: false,
    }
}

fn failed_case(scenario: &Scenario, policy: &Policy, why: &str) -> CaseResult {
    eprintln!("FAILED {} x {}: {why}", scenario.name, policy.name);
    CaseResult {
        json: json!({
            "scenario": scenario.name,
            "policy": policy.name,
            "error": why,
        }),
        detected: false,
        all_finite: false,
        failed: true,
    }
}

fn main() -> std::process::ExitCode {
    let args = parse_args();
    let dataset = match roadpart::datasets::d1(args.scale, args.seed) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("cannot build dataset: {e}");
            return std::process::ExitCode::FAILURE;
        }
    };
    let scenarios = Scenario::standard_suite(&dataset.network);
    println!(
        "BENCH_drift: D1 at scale {} ({} segments, {} steps), k = {K}, {} epochs, \
         {} scenarios x {} policies{}\n",
        args.scale,
        dataset.network.segment_count(),
        dataset.history.len(),
        args.epochs,
        scenarios.len(),
        POLICIES.len(),
        if args.smoke { " [smoke]" } else { "" }
    );

    println!(
        "{:<16} {:<12} {:>7} {:>8} {:>9} {:>10}",
        "scenario", "policy", "detect", "recover", "degraded", "min gdbi-r"
    );
    let mut cases = Vec::new();
    let mut any_detected = false;
    let mut any_failed = false;
    let mut all_finite = true;
    for scenario in &scenarios {
        let disrupted = scenario.apply_history(&dataset.network, &dataset.history);
        for policy in POLICIES {
            let case = run_case(
                &dataset.network,
                &disrupted,
                scenario,
                policy,
                args.seed,
                args.epochs,
            );
            any_detected |= case.detected;
            any_failed |= case.failed;
            all_finite &= case.all_finite;
            let detect = case.json["time_to_detect_epochs"]
                .as_u64()
                .map_or("-".to_string(), |v| v.to_string());
            let recover = case.json["epochs_to_recover"]
                .as_u64()
                .map_or("-".to_string(), |v| v.to_string());
            let degraded = case.json["per_epoch"].as_array().map_or(0, |rows| {
                rows.iter()
                    .filter(|r| r["degraded"].as_bool() == Some(true))
                    .count()
            });
            let min_gdbi = case.json["per_epoch"]
                .as_array()
                .and_then(|rows| {
                    rows.iter()
                        .filter_map(|r| r["retention"]["gdbi"].as_f64())
                        .min_by(|a, b| a.total_cmp(b))
                })
                .unwrap_or(f64::NAN);
            println!(
                "{:<16} {:<12} {:>7} {:>8} {:>9} {:>10.3}",
                scenario.name, policy.name, detect, recover, degraded, min_gdbi
            );
            cases.push(case.json);
        }
    }

    write_json(
        "BENCH_drift",
        &json!({
            "dataset": "D1",
            "scale": args.scale,
            "seed": args.seed,
            "k": K,
            "epochs": args.epochs,
            "smoke": args.smoke,
            "scenarios": scenarios.iter().map(|s| s.name.clone()).collect::<Vec<_>>(),
            "policies": POLICIES.iter().map(|p| p.name).collect::<Vec<_>>(),
            "cases": cases,
        }),
    );

    // Validity gate (the CI smoke step is this exit code): every replay ran
    // to completion, metrics stayed finite, and the engine noticed at least
    // one disruption.
    if any_failed || !all_finite || !any_detected {
        eprintln!(
            "VALIDITY GATE FAILED: failed={any_failed} finite={all_finite} detected={any_detected}"
        );
        return std::process::ExitCode::FAILURE;
    }
    println!("\nvalidity gate passed");
    std::process::ExitCode::SUCCESS
}

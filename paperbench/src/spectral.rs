//! `partition-m3`: AG and ASG partition-and-score ops on the fixed M3 map
//! at paper size, with densities from the analytic congestion field at one
//! fixed time of the morning profile.

use crate::checks::{first_difference, label_digest, Checks};
use crate::pipeline::{partition_and_score, partition_and_score_traced, Scored};
use crate::speed::{HostSpeed, Secs};
use crate::stats;
use crate::trace::Trace;
use crate::{repeated_setup, timed_ops, Ctx, Outcome, MAP_SEED};
use roadpart::{FrameworkConfig, PartitionMode, PipelineConfig, Scheme};
use roadpart_net::{RoadNetwork, UrbanConfig};
use roadpart_traffic::{CongestionField, TemporalProfile};
use std::time::Instant;

/// Partitions requested.
pub const K: usize = 8;
/// Normalized time of the morning profile the densities are taken at.
pub const DENSITY_TIME: f64 = 0.3;
/// Solver seed of `partition-m3`. At this seed ASG returns 10 partitions
/// and AG 37 for k = 8, so the exact-k defect shows in `cut.k_error`.
const PARTITION_SOLVER_SEED: u64 = 2;
/// Untraced/traced op pairs in a traced run.
const TRACED_PAIRS: usize = 2;
/// Set-ups per timed run (each synthesizes the whole map).
const SETUPS: usize = 3;
/// Timed ops per run, at least.
const MIN_OPS: usize = 3;

/// One scheme of an op, with the names it reports under.
#[derive(Clone, Copy)]
struct Arm {
    scheme: Scheme,
    /// Span around the scheme's traced op.
    span: &'static str,
    /// Per-layer metric of the scheme's GDBI.
    gdbi: &'static str,
}

const AG: Arm = Arm {
    scheme: Scheme::AG,
    span: "op.ag",
    gdbi: "eval.gdbi_ag",
};
const ASG: Arm = Arm {
    scheme: Scheme::ASG,
    span: "op.asg",
    gdbi: "eval.gdbi_asg",
};
/// `partition-m3`: AG and ASG at k = 8 on M3 (82.5k segments). The seed
/// picks which scheme runs first in every op.
pub fn run_partition_m3(ctx: &Ctx) -> Outcome {
    let arms = if ctx.args.seed.is_multiple_of(2) {
        vec![AG, ASG]
    } else {
        vec![ASG, AG]
    };
    let mut out = Outcome::default();
    if let Err(e) = run_inner(ctx, &arms, &mut out) {
        out.checks
            .check(false, || format!("partition-m3 aborted: {e}"));
    }
    out
}

fn config(scheme: Scheme, seed: u64, ctx: &Ctx) -> PipelineConfig {
    PipelineConfig {
        scheme,
        k: K,
        framework: FrameworkConfig::default().with_seed(seed),
        mode: PartitionMode::Flat,
    }
    .with_pool(ctx.pool)
}

fn setup(scale: f64, t: &mut Trace) -> Result<(RoadNetwork, Vec<f64>), String> {
    let net = t.span("net.generate", |_| {
        UrbanConfig::m3().scaled(scale).generate(MAP_SEED)
    });
    let net = net.map_err(|e| e.to_string())?;
    let field = CongestionField::urban_default(&net, MAP_SEED);
    let densities = field.densities(&net, DENSITY_TIME, &TemporalProfile::morning());
    Ok((net, densities))
}

/// All schemes of one op, untraced, each between two host-speed readings;
/// returns the op's time.
fn op(
    net: &RoadNetwork,
    d: &[f64],
    cfgs: &[PipelineConfig],
    speed: &mut HostSpeed,
    out: &mut Vec<Scored>,
) -> Result<Secs, String> {
    let mut total = Secs::default();
    for cfg in cfgs {
        let (mut scored, secs) = speed.time(|| partition_and_score(net, d, cfg))?;
        scored.seconds = secs.wall;
        total += secs;
        out.push(scored);
    }
    Ok(total)
}

/// All schemes of one op, traced; returns the op's seconds.
fn traced_op(
    net: &RoadNetwork,
    d: &[f64],
    cfgs: &[PipelineConfig],
    arms: &[Arm],
    trace: &mut Trace,
    out: &mut Vec<Scored>,
) -> Result<f64, String> {
    let t0 = Instant::now();
    for (cfg, arm) in cfgs.iter().zip(arms) {
        let scored = trace.span(arm.span, |t| partition_and_score_traced(net, d, cfg, t));
        out.push(scored?);
    }
    Ok(t0.elapsed().as_secs_f64())
}

fn run_inner(ctx: &Ctx, arms: &[Arm], out: &mut Outcome) -> Result<(), String> {
    let scale = ctx.args.scale;
    let mut trace = Trace::new(ctx.args.trace);
    let mut speed = HostSpeed::new();
    let (net, densities) = if ctx.args.trace {
        setup(scale, &mut trace)?
    } else {
        let (v, secs) = repeated_setup(SETUPS, &mut speed, || setup(scale, &mut trace))?;
        out.setup_times(&secs);
        v
    };
    let cfgs: Vec<PipelineConfig> = arms
        .iter()
        .map(|a| config(a.scheme, PARTITION_SOLVER_SEED, ctx))
        .collect();
    let names: Vec<&str> = arms.iter().map(|a| a.scheme.name()).collect();
    for (cfg, name) in cfgs.iter().zip(&names) {
        out.framework_pools(name, &cfg.framework);
    }
    out.prov("schemes", format!("{names:?}").replace('\'', "\""));
    out.prov("segments", net.segment_count());

    // Every op's labels, in op order; ops[0] is the reference.
    let mut ops: Vec<Vec<Scored>> = Vec::new();
    if !ctx.args.trace {
        let times = timed_ops(ctx.args.seconds, MIN_OPS, &mut speed, |speed| {
            let mut scored = Vec::new();
            let secs = op(&net, &densities, &cfgs, speed, &mut scored)?;
            ops.push(scored);
            Ok(secs)
        })?;
        out.timed("op_s", "op", &times);
        out.speed_readings(&speed);
    } else {
        let (mut plain, mut traced) = (0.0, 0.0);
        for pair in 0..TRACED_PAIRS {
            trace.begin_op(pair as u64 + 1);
            let (mut u, mut t) = (Vec::new(), Vec::new());
            // Alternate which goes first so drift in machine speed falls on
            // both.
            if pair % 2 == 0 {
                plain += op(&net, &densities, &cfgs, &mut speed, &mut u)?.wall;
                traced += traced_op(&net, &densities, &cfgs, arms, &mut trace, &mut t)?;
            } else {
                traced += traced_op(&net, &densities, &cfgs, arms, &mut trace, &mut t)?;
                plain += op(&net, &densities, &cfgs, &mut speed, &mut u)?.wall;
            }
            ops.push(u);
            ops.push(t);
        }
        per_layer(out, &trace, &ops[0], arms, net.segment_count());
        out.metrics
            .insert("trace.overhead_frac", traced / plain - 1.0);
    }

    check_repeats(&mut out.checks, &names, &ops);
    let reference = &ops[0];
    // Traced runs interleave untraced and traced ops; time the untraced.
    let stride = if ctx.args.trace { 2 } else { 1 };
    for (j, r) in reference.iter().enumerate() {
        let n = names[j].to_lowercase();
        let secs: Vec<f64> = ops.iter().step_by(stride).map(|o| o[j].seconds).collect();
        out.prov(format!("{n}_s"), stats::median(&secs));
        out.prov(format!("{n}_k"), r.k);
        out.prov(format!("{n}_gdbi"), r.gdbi);
        if let Some(sn) = r.supernodes {
            out.prov(format!("{n}_supernodes"), sn);
        }
        out.prov(format!("{n}_solver_attempts"), r.solver_attempts);
        out.prov(format!("{n}_solver_failures"), r.solver_failures);
        let digest = label_digest(&r.labels);
        out.prov(format!("{n}_label_digest"), format!("\"{digest:016x}\""));
    }
    if ctx.args.trace {
        out.trace = Some(trace);
    }
    Ok(())
}

/// Checks every op's labels against op 0's, scheme by scheme, bit for bit.
pub fn check_repeats(checks: &mut Checks, names: &[&str], ops: &[Vec<Scored>]) {
    let Some(reference) = ops.first() else {
        return;
    };
    for (i, scored) in ops.iter().enumerate().skip(1) {
        for (j, (r, s)) in reference.iter().zip(scored).enumerate() {
            checks.check(r.labels == s.labels, || {
                format!(
                    "{} op {i} labels differ from op 0 at {}",
                    names[j],
                    first_difference(&r.labels, &s.labels)
                )
            });
        }
        checks.check(scored.len() == reference.len(), || {
            format!(
                "op {i} ran {} schemes, op 0 ran {}",
                scored.len(),
                reference.len()
            )
        });
    }
}

fn per_layer(out: &mut Outcome, trace: &Trace, reference: &[Scored], arms: &[Arm], segs: usize) {
    let ops: Vec<u64> = (1..=TRACED_PAIRS as u64).collect();
    let per_op = |name| stats::median(&trace.seconds_per_op(name, &ops));
    let count = |name| stats::median(&trace.counter_per_op(name, &ops));
    // Solver counters are per partition call, the unit the fallback ladder
    // works in.
    let per_call = |name| stats::median(&trace.counter_per_op(name, &ops)) / arms.len() as f64;
    let m = &mut out.metrics;
    m.insert(
        "net.generate_s",
        stats::median(&trace.durations("net.generate")),
    );
    m.insert("net.dual_graph_s", per_op("net.dual_graph"));
    m.insert("net.segments", segs as f64);
    m.insert("core.mine_s", per_op("core.mine"));
    m.insert("core.supernodes", count("core.supernodes"));
    m.insert("core.kappa_shortlist", count("core.kappa_shortlist"));
    m.insert("cut.affinity_s", per_op("cut.affinity"));
    m.insert("cut.refine_s", per_op("cut.refine"));
    m.insert("cut.fine_partitions", count("cut.fine_partitions"));
    m.insert("linalg.embedding_s", per_op("linalg.embedding"));
    let attempts = per_call("linalg.solver_attempts");
    let failures = per_call("linalg.solver_failures");
    m.insert("linalg.solver_attempts", attempts);
    m.insert("linalg.solver_failures", failures);
    m.insert(
        "linalg.attempt_yield",
        (attempts - failures) / attempts.max(1.0),
    );
    m.insert("linalg.ws_fresh_allocs", per_call("linalg.ws_fresh_allocs"));
    m.insert("cluster.kmeans_s", per_op("cluster.kmeans"));
    m.insert("cluster.components_s", per_op("cluster.components"));
    m.insert("eval.quality_s", per_op("eval.quality"));
    let mut k_error = 0;
    for (arm, r) in arms.iter().zip(reference) {
        k_error += r.k.abs_diff(K);
        m.insert(arm.gdbi, r.gdbi);
    }
    m.insert("cut.k_error", k_error as f64);
}

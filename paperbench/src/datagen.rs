//! `datagen-m1`: one op is `roadpart::datasets::melbourne(M1, 0.1, ..)`,
//! the M1 street network plus MNTG traffic over 100 timestamps. Routing and
//! the microsimulation in `traffic` do the work; no spectral code runs.

use crate::speed::HostSpeed;
use crate::stats::{self, Digest};
use crate::trace::Trace;
use crate::{repeated_setup, timed_ops, Ctx, Outcome, MAP_SEED};
use roadpart::datasets::{melbourne, Melbourne};
use roadpart_net::{RoadNetwork, UrbanConfig};
use roadpart_traffic::{
    generate_traffic, CongestionField, DensityHistory, MicrosimStats, MntgConfig, TemporalProfile,
};
use std::time::Instant;

/// Dataset scale of the op (M1 at 0.1 = 1.9k segments, 2,524 vehicles).
/// At 0.25 (4.9k segments, 6,311 vehicles) an op takes ~4 s, a run holds
/// four or five, and their median moved by 10–14% between runs; at 0.1 a
/// 25 s run holds ~25 ops and it moves by ~3% (see README.md).
pub const SCALE: f64 = 0.1;
/// Vehicles of the full-size M1 fleet (paper Table 1).
const M1_VEHICLES: f64 = 25_246.0;
/// Network syntheses per set-up measurement.
const SETUPS: usize = 9;
/// Timed ops per run, at least.
const MIN_OPS: usize = 3;
/// Untraced/traced op pairs in a traced run.
const TRACED_PAIRS: usize = 2;

/// Digest of every value of every step of a density history.
pub fn history_digest(h: &DensityHistory) -> u64 {
    let mut d = Digest::default();
    d.word(h.n_segments() as u64);
    d.word(h.len() as u64);
    for t in 0..h.len() {
        d.floats(h.at(t));
    }
    d.finish()
}

struct Generated {
    segments: usize,
    digest: u64,
    stats: MicrosimStats,
}

fn untraced(scale: f64) -> Result<Generated, String> {
    let ds = melbourne(Melbourne::M1, scale, MAP_SEED).map_err(|e| e.to_string())?;
    Ok(Generated {
        segments: ds.network.segment_count(),
        digest: history_digest(&ds.history),
        stats: ds.stats,
    })
}

/// `melbourne(M1, scale, seed)` rebuilt from its public pieces with a span
/// per layer call.
fn traced(scale: f64, t: &mut Trace) -> Result<Generated, String> {
    let seed = MAP_SEED;
    let net = t.span("net.generate", |_| {
        UrbanConfig::m1().scaled(scale).generate(seed)
    });
    let net = net.map_err(|e| e.to_string())?;
    let cfg = MntgConfig {
        vehicles: ((M1_VEHICLES * scale) as usize).max(50),
        timestamps: 100,
        step_seconds: 60.0,
        profile: TemporalProfile::morning(),
        hotspot_bias: true,
        legs: None,
        dwell_frac: 0.5,
        seed,
    };
    let generated = t.span("traffic.generate", |_| generate_traffic(&net, &cfg));
    let (history, stats) = generated.map_err(|e| e.to_string())?;
    let history = t.span("traffic.background", |_| {
        blend_background(&net, &history, &cfg.profile, seed)
    });
    Ok(Generated {
        segments: net.segment_count(),
        digest: history_digest(&history),
        stats,
    })
}

/// The analytic district field added to the simulated densities, as
/// `datasets::melbourne` does.
fn blend_background(
    net: &RoadNetwork,
    history: &DensityHistory,
    profile: &TemporalProfile,
    seed: u64,
) -> DensityHistory {
    let field = CongestionField::urban_default(net, seed);
    let steps = history.len().max(1);
    let mut blended = DensityHistory::new(net.segment_count());
    for t in 0..history.len() {
        let background = field.densities(net, t as f64 / steps as f64, profile);
        let combined = history
            .at(t)
            .iter()
            .zip(&background)
            .map(|(&sim, &bg)| sim + bg)
            .collect();
        blended.push(combined);
    }
    blended
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = run_inner(ctx, &mut out) {
        out.checks
            .check(false, || format!("datagen-m1 aborted: {e}"));
    }
    out
}

fn run_inner(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let scale = SCALE * ctx.args.scale;
    // Set-up: synthesize the street network the op regenerates; its size is
    // the reference the ops are checked against.
    let mut speed = HostSpeed::new();
    let (net, setup_secs) = repeated_setup(SETUPS, &mut speed, || {
        UrbanConfig::m1()
            .scaled(scale)
            .generate(MAP_SEED)
            .map_err(|e| e.to_string())
    })?;
    let segments = net.segment_count();
    drop(net);
    out.prov("segments", segments);

    let mut reference: Option<Generated> = None;
    let mut check = |out: &mut Outcome, g: Generated, what: &str| {
        out.checks.check(g.segments == segments, || {
            format!("{what}: {} segments, set-up built {segments}", g.segments)
        });
        match &reference {
            None => reference = Some(g),
            Some(r) => {
                out.checks.check(r.digest == g.digest, || {
                    format!(
                        "{what}: history digest {:016x} != {:016x}",
                        g.digest, r.digest
                    )
                });
            }
        }
    };

    if !ctx.args.trace {
        let mut pending = Vec::new();
        let times = timed_ops(ctx.args.seconds, MIN_OPS, &mut speed, |speed| {
            let (g, secs) = speed.time(|| untraced(scale))?;
            pending.push(g);
            Ok(secs)
        })?;
        for g in pending {
            check(out, g, "repeated op");
        }
        out.setup_times(&setup_secs);
        out.timed("op_s", "op", &times);
        out.speed_readings(&speed);
    } else {
        let mut trace = Trace::new(true);
        let (mut plain, mut traced_s) = (0.0, 0.0);
        for pair in 0..TRACED_PAIRS {
            trace.begin_op(pair as u64 + 1);
            // Alternate which goes first so drift in machine speed falls on
            // both.
            for traced_turn in [pair % 2 == 1, pair % 2 == 0] {
                let t0 = Instant::now();
                if traced_turn {
                    let g = traced(scale, &mut trace)?;
                    traced_s += t0.elapsed().as_secs_f64();
                    let stats = &g.stats;
                    trace.count("traffic.departed", stats.departed as f64);
                    trace.count("traffic.completed", stats.completed as f64);
                    trace.count("traffic.unroutable", stats.unroutable as f64);
                    check(out, g, "traced op");
                } else {
                    let g = untraced(scale)?;
                    plain += t0.elapsed().as_secs_f64();
                    check(out, g, "untraced op");
                }
            }
        }
        let ops: Vec<u64> = (1..=TRACED_PAIRS as u64).collect();
        let per_op = |name| stats::median(&trace.seconds_per_op(name, &ops));
        let count = |name| stats::median(&trace.counter_per_op(name, &ops));
        let m = &mut out.metrics;
        m.insert("net.generate_s", per_op("net.generate"));
        m.insert("net.segments", segments as f64);
        let generate_s = per_op("traffic.generate");
        m.insert("traffic.generate_s", generate_s);
        m.insert("traffic.background_s", per_op("traffic.background"));
        let departed = count("traffic.departed");
        m.insert("traffic.departed", departed);
        m.insert("traffic.completed", count("traffic.completed"));
        m.insert("traffic.unroutable", count("traffic.unroutable"));
        m.insert(
            "traffic.us_per_departed",
            generate_s * 1e6 / departed.max(1.0),
        );
        m.insert("trace.overhead_frac", traced_s / plain - 1.0);
        out.trace = Some(trace);
    }
    if let Some(r) = &reference {
        out.prov("history_digest", format!("\"{:016x}\"", r.digest));
        out.prov("departed", r.stats.departed);
    }
    Ok(())
}

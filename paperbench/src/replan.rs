//! `replan-m1`: replanning while serving routes. One `StreamEngine`
//! (k = 16) shares its `PartitionStore` with one `QueryEngine` on M1 at
//! scale 1.0. One op is a replay of [`EPOCHS`] epochs; each epoch ingests
//! one density step of the `moving-hotspot` scenario, runs `run_epoch` and
//! `refresh`, then a closed loop of one client issues `query` on the
//! epoch's slice of a seeded list of origin–destination pairs. A timed run
//! makes [`REPLAYS`] replays, each on a fresh set-up, which must publish the
//! same labels; its op time is one replay's, from the epochs of all of them
//! ([`replay_secs`]).

use crate::checks::label_digest;
use crate::speed::{HostSpeed, Secs};
use crate::stats::{self, Digest};
use crate::trace::Trace;
use crate::{repeated_setup, Ctx, Outcome, MAP_SEED};
use roadpart_net::{RoadGraph, SegmentId, UrbanConfig};
use roadpart_serve::{exact_route, CostModel, QueryContext, QueryEngine, SegmentGraph};
use roadpart_stream::{EngineConfig, EpochAction, StreamEngine};
use roadpart_traffic::{CongestionField, DensityHistory, Scenario, TemporalProfile};
use std::time::Instant;

/// Partitions the engine keeps.
pub const K: usize = 16;
/// Epochs per replay (the scenario timeline is sampled at `EPOCHS + 1`
/// steps; step 0 seeds the engine).
pub const EPOCHS: usize = 12;
/// Queries the client issues per epoch.
pub const QUERIES_PER_EPOCH: usize = 200;
/// In timed runs, every `CHECK_EVERY`-th query is re-answered by the
/// whole-network Dijkstra after the epoch; traced runs check every query.
pub const CHECK_EVERY: usize = 8;
/// Replays per timed run, each on a fresh set-up.
const REPLAYS: usize = 2;
/// Set-ups per replay; the replay runs on the last.
const SETUPS_PER_REPLAY: usize = 2;

/// Everything a replay needs, built by the set-up.
pub struct Served {
    engine: StreamEngine,
    queries: QueryEngine,
    history: DensityHistory,
    segments: usize,
}

fn setup(scale: f64, pool: roadpart_linalg::ThreadPool, t: &mut Trace) -> Result<Served, String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let net = t.span("net.generate", |_| {
        UrbanConfig::m1().scaled(scale).generate(MAP_SEED)
    });
    let net = net.map_err(|e| err(&e))?;
    let field = CongestionField::urban_default(&net, MAP_SEED);
    let scenario = Scenario::standard_suite(&net)
        .into_iter()
        .find(|s| s.name == "moving-hotspot")
        .ok_or("standard suite has no moving-hotspot scenario")?;
    let history = scenario.replay_field(&net, &field, &TemporalProfile::morning(), EPOCHS + 1);
    let mut graph = RoadGraph::from_network(&net).map_err(|e| err(&e))?;
    graph
        .set_features(history.at(0).to_vec())
        .map_err(|e| err(&e))?;
    let cfg = EngineConfig::new(K).with_seed(MAP_SEED).with_pool(pool);
    let engine = t.span("stream.initial", |_| StreamEngine::new(graph, cfg));
    let engine = engine.map_err(|e| err(&e))?;
    let sg = SegmentGraph::from_network(&net, CostModel::FreeFlowTime).map_err(|e| err(&e))?;
    let queries = t.span("serve.oracle_build", |_| {
        QueryEngine::new(sg, engine.store(), pool)
    });
    let queries = queries.map_err(|e| err(&e))?;
    Ok(Served {
        engine,
        queries,
        history,
        segments: net.segment_count(),
    })
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Segments of the largest strongly connected component of the routing
/// graph: every ordered pair of them has a route, so no query fails.
fn giant_component(g: &SegmentGraph) -> Vec<u32> {
    let n = g.len();
    let reach = |start: u32, forward: bool| {
        let mut seen = vec![false; n];
        let mut stack = vec![start];
        seen[start as usize] = true;
        while let Some(u) = stack.pop() {
            let next = if forward {
                g.successors(u)
            } else {
                g.predecessors(u)
            };
            for &v in next {
                if !seen[v as usize] {
                    seen[v as usize] = true;
                    stack.push(v);
                }
            }
        }
        seen
    };
    let mut best = Vec::new();
    // A component holding more than half the segments is the largest; try
    // evenly spaced starts until one is found.
    for i in 0..16u32 {
        let start = ((u64::from(i) * n as u64) / 16) as u32;
        let (f, b) = (reach(start, true), reach(start, false));
        let comp: Vec<u32> = (0..n as u32)
            .filter(|&v| f[v as usize] && b[v as usize])
            .collect();
        if comp.len() > best.len() {
            best = comp;
        }
        if 2 * best.len() > n {
            break;
        }
    }
    best
}

/// The seeded origin–destination list: `EPOCHS * QUERIES_PER_EPOCH`
/// distinct-endpoint pairs inside the giant component.
pub fn od_pairs(g: &SegmentGraph, seed: u64) -> Vec<(SegmentId, SegmentId)> {
    let comp = giant_component(g);
    let mut state = seed ^ 0x0d0d_5eed;
    let mut pairs = Vec::with_capacity(EPOCHS * QUERIES_PER_EPOCH);
    if comp.len() < 2 {
        return pairs;
    }
    while pairs.len() < EPOCHS * QUERIES_PER_EPOCH {
        let a = comp[(splitmix64(&mut state) % comp.len() as u64) as usize];
        let b = comp[(splitmix64(&mut state) % comp.len() as u64) as usize];
        if a != b {
            pairs.push((SegmentId(a), SegmentId(b)));
        }
    }
    pairs
}

/// What one replay measured and produced.
#[derive(Debug, Default)]
pub struct Replay {
    /// Per epoch: ingest + run_epoch + refresh + the query loop. Its time
    /// at the reference speed is read only when the replay is handed a
    /// [`HostSpeed`]; otherwise it repeats the wall time.
    pub epoch_op_s: Vec<Secs>,
    /// Per epoch: run_epoch + refresh, ms.
    pub replan_ms: Vec<f64>,
    /// Per query: latency, µs.
    pub query_us: Vec<f64>,
    /// Per query: served route cost.
    pub costs: Vec<f64>,
    /// Per query: nodes settled.
    pub settled: Vec<f64>,
    /// Queries answered through the boundary overlay.
    pub overlay: usize,
    /// Executed epoch actions: global, regional, no-op.
    pub actions: [usize; 3],
    /// Per epoch: its action, as an index into `actions`.
    pub epoch_action: Vec<usize>,
    /// Solve attempts summed over epochs.
    pub solve_attempts: usize,
    /// Epochs whose global rebuild was warm-started.
    pub warm_started: usize,
    /// Latency of each reference `exact_route` check, µs.
    pub dijkstra_us: Vec<f64>,
    /// Digest of every epoch's published (version, labels).
    labels: Digest,
    ctx: QueryContext,
}

impl Replay {
    /// Runs epoch `e` (0-based) against `s`: the timed op, between two
    /// host-speed readings when `speed` is given, then the untimed checks of
    /// every `check_every`-th of its `pairs` against `exact_route`. With the
    /// trace on, spans cover each call.
    ///
    /// # Errors
    /// Engine, refresh or query errors, rendered.
    #[allow(clippy::too_many_arguments)]
    pub fn epoch(
        &mut self,
        s: &mut Served,
        e: usize,
        pairs: &[(SegmentId, SegmentId)],
        check_every: usize,
        checks: &mut crate::checks::Checks,
        t: &mut Trace,
        mut speed: Option<&mut HostSpeed>,
    ) -> Result<(), String> {
        t.begin_op(e as u64 + 1);
        let densities = s.history.at(e + 1);
        let before = speed.as_mut().map(|sp| sp.before());
        let t_op = Instant::now();
        s.engine.ingest(densities).map_err(|e| e.to_string())?;
        let t_replan = Instant::now();
        let report = t.span("stream.epoch", |_| s.engine.run_epoch());
        let report = report.map_err(|e| e.to_string())?;
        t.span("serve.refresh", |_| s.queries.refresh())
            .map_err(|e| e.to_string())?;
        self.replan_ms.push(t_replan.elapsed().as_secs_f64() * 1e3);
        let first = self.costs.len();
        for &(from, to) in pairs {
            let tq = Instant::now();
            let resp = t.span("serve.query", |_| s.queries.query(from, to, &mut self.ctx));
            let lat = tq.elapsed().as_secs_f64() * 1e6;
            let resp = resp.map_err(|e| e.to_string())?;
            self.query_us.push(lat);
            self.costs.push(resp.cost);
            self.settled.push(resp.settled as f64);
            self.overlay += usize::from(resp.used_overlay);
        }
        let wall = t_op.elapsed().as_secs_f64();
        let scaled = match (speed, before) {
            (Some(sp), Some(b)) => sp.after(wall, b),
            _ => wall,
        };
        self.epoch_op_s.push(Secs { wall, scaled });

        // Untimed: the served labels and the route checks.
        let snapshot = s.engine.store().read();
        let serving = s.queries.serving();
        checks.check(serving.version() == snapshot.version, || {
            format!(
                "epoch {}: serving version {} after refresh, store at {}",
                e + 1,
                serving.version(),
                snapshot.version
            )
        });
        self.labels.word(snapshot.version);
        self.labels.word(label_digest(snapshot.labels()));
        let label = format!("epoch {}", e + 1);
        let graph = s.queries.graph();
        let served = &self.costs[first..];
        let exact = verify_routes(graph, pairs, served, check_every, &label, checks)?;
        self.dijkstra_us.extend(exact);
        let action = match report.action {
            EpochAction::Global => 0,
            EpochAction::Regional => 1,
            EpochAction::NoOp => 2,
        };
        self.actions[action] += 1;
        self.epoch_action.push(action);
        self.solve_attempts += report.resilience.attempts.len();
        self.warm_started += usize::from(report.warm_started);
        Ok(())
    }

    /// Digest of every epoch's published (version, labels) so far.
    pub fn label_digest(&self) -> u64 {
        self.labels.finish()
    }
}

/// Re-answers every `every`-th of `pairs` with the whole-network Dijkstra
/// and checks the served cost equals it exactly. Returns the Dijkstra
/// latencies in µs.
///
/// # Errors
/// A failed reference query, rendered.
pub fn verify_routes(
    g: &SegmentGraph,
    pairs: &[(SegmentId, SegmentId)],
    served: &[f64],
    every: usize,
    label: &str,
    checks: &mut crate::checks::Checks,
) -> Result<Vec<f64>, String> {
    let mut ctx = QueryContext::new();
    let mut latencies = Vec::new();
    checks.check(served.len() == pairs.len(), || {
        format!(
            "{label}: {} costs for {} queries",
            served.len(),
            pairs.len()
        )
    });
    for (i, (&(from, to), &cost)) in pairs.iter().zip(served).enumerate() {
        if i % every.max(1) != 0 {
            continue;
        }
        let tq = Instant::now();
        let exact = exact_route(g, from, to, &mut ctx);
        latencies.push(tq.elapsed().as_secs_f64() * 1e6);
        let (exact, _) = exact.map_err(|e| e.to_string())?;
        // Both costs are left folds of the segment costs along a shortest
        // path, so an exact server returns the identical value.
        checks.check(cost == exact, || {
            format!(
                "{label}: query {}->{} served cost {cost:?}, exact {exact:?}",
                from.0, to.0
            )
        });
    }
    Ok(latencies)
}

/// The time of one replay, robust to a slow stretch of the host: per epoch
/// action, the median time of the epochs with that action over every
/// replay, times the number of such epochs in one replay. The epochs mix
/// cheap regional and costly global replans, so a median over all epochs
/// would sit in the gap between the two, and a plain sum would carry every
/// slow epoch in full. The action sequence is fixed by the inputs, so the
/// weights repeat on every run.
pub fn replay_secs(replays: &[Replay]) -> Secs {
    let Some(first) = replays.first() else {
        return Secs::default();
    };
    let mut total = Secs::default();
    for (action, &n) in first.actions.iter().enumerate() {
        if n == 0 {
            continue;
        }
        let epochs: Vec<Secs> = replays
            .iter()
            .flat_map(|r| r.epoch_op_s.iter().zip(&r.epoch_action))
            .filter(|&(_, &a)| a == action)
            .map(|(s, _)| *s)
            .collect();
        let median = |f: fn(&Secs) -> f64| {
            stats::median(&epochs.iter().map(f).collect::<Vec<_>>()) * n as f64
        };
        total += Secs {
            wall: median(|s| s.wall),
            scaled: median(|s| s.scaled),
        };
    }
    total
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = run_inner(ctx, &mut out) {
        out.checks
            .check(false, || format!("replan-m1 aborted: {e}"));
    }
    out
}

fn run_inner(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let scale = ctx.args.scale;
    let pool = ctx.pool;
    if !ctx.args.trace {
        let mut off = Trace::new(false);
        let mut speed = HostSpeed::new();
        let (mut setup_secs, mut replays) = (Vec::new(), Vec::new());
        let mut last = None;
        for _ in 0..REPLAYS {
            drop(last.take());
            let (mut served, secs) = repeated_setup(SETUPS_PER_REPLAY, &mut speed, || {
                setup(scale, pool, &mut off)
            })?;
            setup_secs.extend(secs);
            let pairs = od_pairs(served.queries.graph(), ctx.args.seed);
            let mut r = Replay::default();
            for (e, chunk) in pairs.chunks(QUERIES_PER_EPOCH).enumerate() {
                r.epoch(
                    &mut served,
                    e,
                    chunk,
                    CHECK_EVERY,
                    &mut out.checks,
                    &mut off,
                    Some(&mut speed),
                )?;
            }
            replays.push(r);
            last = Some(served);
        }
        let served = last.ok_or("no replay ran")?;
        record_pools(out, &served);
        let first = &replays[0];
        for (i, r) in replays.iter().enumerate().skip(1) {
            let same = r.label_digest() == first.label_digest() && r.actions == first.actions;
            out.checks.check(same, || {
                format!("replay {i} published other labels or actions than replay 0")
            });
        }
        out.setup_times(&setup_secs);
        out.timed("op_s", "op", &[replay_secs(&replays)]);
        out.speed_readings(&speed);
        provenance(out, &served, first);
        return Ok(());
    }

    // Traced run: an untraced and a traced replay, each on its own set-up,
    // epoch by epoch in alternating order so that drift in machine speed
    // falls on both. They must publish the same labels and serve the same
    // costs.
    let mut off = Trace::new(false);
    let mut plain = setup(scale, pool, &mut off)?;
    let mut trace = Trace::new(true);
    let mut served = setup(scale, pool, &mut trace)?;
    record_pools(out, &served);
    let pairs = od_pairs(plain.queries.graph(), ctx.args.seed);
    let (mut base, mut r) = (Replay::default(), Replay::default());
    for (e, chunk) in pairs.chunks(QUERIES_PER_EPOCH).enumerate() {
        let checks = &mut out.checks;
        if e % 2 == 0 {
            base.epoch(&mut plain, e, chunk, CHECK_EVERY, checks, &mut off, None)?;
            r.epoch(&mut served, e, chunk, 1, checks, &mut trace, None)?;
        } else {
            r.epoch(&mut served, e, chunk, 1, checks, &mut trace, None)?;
            base.epoch(&mut plain, e, chunk, CHECK_EVERY, checks, &mut off, None)?;
        }
    }
    out.checks
        .check(r.label_digest() == base.label_digest(), || {
            "traced replay published different labels than the untraced one".into()
        });
    let same_costs = r.costs.len() == base.costs.len()
        && r.costs
            .iter()
            .zip(&base.costs)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    out.checks.check(same_costs, || {
        "traced replay served different route costs than the untraced one".into()
    });

    let serving = served.queries.serving();
    let m = &mut out.metrics;
    m.insert(
        "net.generate_s",
        stats::median(&trace.durations("net.generate")),
    );
    m.insert("net.segments", served.segments as f64);
    m.insert(
        "stream.epoch_ms",
        stats::median(&trace.durations("stream.epoch")) * 1e3,
    );
    m.insert("stream.global", r.actions[0] as f64);
    m.insert("stream.regional", r.actions[1] as f64);
    m.insert("stream.noop", r.actions[2] as f64);
    m.insert("stream.solve_attempts", r.solve_attempts as f64);
    m.insert("stream.warm_started", r.warm_started as f64);
    m.insert(
        "serve.oracle_build_s",
        stats::median(&trace.durations("serve.oracle_build")),
    );
    m.insert(
        "serve.refresh_ms",
        stats::median(&trace.durations("serve.refresh")) * 1e3,
    );
    m.insert("serve.replan_ms", stats::median(&r.replan_ms));
    let query_us: Vec<f64> = trace
        .durations("serve.query")
        .iter()
        .map(|s| s * 1e6)
        .collect();
    m.insert("serve.query_us", stats::median(&query_us));
    m.insert("serve.query_p99_us", stats::quantile(&query_us, 0.99));
    m.insert(
        "serve.settled_per_query",
        r.settled.iter().sum::<f64>() / r.settled.len().max(1) as f64,
    );
    m.insert(
        "serve.overlay_share",
        r.overlay as f64 / r.query_us.len().max(1) as f64,
    );
    m.insert("serve.boundary_nodes", serving.boundary_count() as f64);
    m.insert("serve.overlay_edges", serving.overlay_edge_count() as f64);
    m.insert("serve.dijkstra_us", stats::median(&r.dijkstra_us));
    // Op time only: the route checks run between ops, untimed.
    let total = |r: &Replay| r.epoch_op_s.iter().map(|s| s.wall).sum::<f64>();
    m.insert("trace.overhead_frac", total(&r) / total(&base) - 1.0);
    provenance(out, &served, &r);
    out.trace = Some(trace);
    Ok(())
}

/// The pools the engine's config holds. `QueryEngine` keeps the pool it was
/// built with private; it is the one `setup` passes to `EngineConfig`.
fn record_pools(out: &mut Outcome, s: &Served) {
    let cfg = s.engine.config();
    out.spectral_pools("stream.global", &cfg.spectral);
    out.framework_pools("stream.regional", &cfg.regional.framework);
}

fn provenance(out: &mut Outcome, s: &Served, r: &Replay) {
    out.prov("segments", s.segments);
    out.timed_samples("epoch", &r.epoch_op_s);
    out.prov("queries", r.query_us.len());
    out.prov("query_p50_us", stats::median(&r.query_us));
    out.prov("query_p99_us", stats::quantile(&r.query_us, 0.99));
    out.prov("replan_p50_ms", stats::median(&r.replan_ms));
    out.prov(
        "actions_global_regional_noop",
        format!("[{}, {}, {}]", r.actions[0], r.actions[1], r.actions[2]),
    );
    out.prov("label_digest", format!("\"{:016x}\"", r.label_digest()));
    out.prov("epoch_action", format!("{:?}", r.epoch_action));
}

//! The CLI commands: generate, partition, metrics, select-k, stream, serve.

use crate::args::Args;
use crate::errors::{with_causes, CliError};
use roadpart::prelude::*;
use roadpart_net::{geojson, io, RoadGraph, RoadNetwork};
use std::fs::File;
use std::io::{BufRead, BufReader, Write};

/// CLI-level result: classified errors with cause chains.
type CliResult<T> = std::result::Result<T, CliError>;

/// Top-level usage text.
pub const USAGE: &str = "\
roadpart — congestion-based spatial partitioning of urban road networks

USAGE:
  roadpart generate  --preset <d1|m1|m2|m3> [--scale F] [--seed N]
                     --out <network file> [--densities <densities file>]
  roadpart partition --net <network file> --k N [--scheme <ag|asg|ng|nsg|jg>]
                     [--densities <densities file>] [--seed N]
                     [--labels <out labels>] [--geojson <out geojson>]
                     [--policy <clamp|strict>] [--attempts N]
                     [--report <out report json>]
  roadpart metrics   --net <network file> --labels <labels file>
                     [--densities <densities file>]
  roadpart select-k  --net <network file> [--densities F] [--kmax N]
                     [--scheme <ag|asg|ng|nsg>] [--seed N]
  roadpart stream    --preset <d1|m1|m2|m3> [--scale F] [--seed N] [--k N]
                     [--epochs N] [--aggregate <latest|window:N|ewma:A>]
                     [--warm <on|off>] [--log <out json>]
                     [--scenario <capacity-drop|blockade|rush-hour|moving-hotspot>]
                     [--budget-ms F] [--deadline <degrade|fail>] [--retries N]
  roadpart serve     --preset <d1|m1|m2|m3> [--scale F] [--seed N] [--k N]
                     [--scheme <ag|asg|ng|nsg>] [--cost <time|distance|hops>]
                     [--threads N] [--from SEG --to SEG | --queries N]

Files: networks use the roadpart text format; densities and labels are one
value per line in segment order. A flag a command does not list above is a
usage error.

partition runs under a fault-tolerant supervisor: anomalous densities are
sanitized per --policy (clamp repairs and records, strict fails fast),
transient solver failures climb a fallback ladder and rotate seeds for up
to --attempts tries, and supergraph schemes degrade to their direct
counterpart when mining fails. --report writes the machine-readable run
report (attempts, repairs, recovery rungs, timings) as JSON.

stream replays the preset's simulated density trace through the online
repartitioning engine: each epoch it aggregates the feed, probes drift, and
either serves on (no-op), refreshes regions, or rebuilds globally with a
warm-started spectral solve. --log writes the per-epoch report log as JSON.
--scenario overlays a named disruption (capacity drop, blockade, rush-hour
surge, moving hotspot) on the trace before it reaches the engine.
--budget-ms puts a wall-clock deadline on each epoch; when it is blown the
engine degrades down the ladder global -> regional -> no-op (--deadline
degrade, default) or fails the run (--deadline fail). --retries bounds the
seed-rotating retries per ladder rung. Each epoch line carries the engine
health (healthy / degraded / quarantining).

serve partitions the preset network, builds per-partition boundary-node
distance oracles on a --threads pool, and answers shortest-path queries on
the segment-transition graph. --from/--to answers one query and prints the
exact route; otherwise --queries random origin-destination pairs run as a
batch and the throughput/latency statistics are printed. An unreachable
--from/--to pair exits with the dedicated no-route code, never a panic.

Exit codes: 0 ok, 2 config/usage error, 3 data error, 4 numerical error,
5 epoch deadline exceeded (--deadline fail), 6 quarantine overflow,
7 no route between --from and --to.";

/// Builds the named preset dataset.
fn build_dataset(preset: &str, scale: f64, seed: u64) -> CliResult<Dataset> {
    let built = match preset.to_ascii_lowercase().as_str() {
        "d1" => roadpart::datasets::d1(scale, seed),
        "m1" => roadpart::datasets::melbourne(Melbourne::M1, scale, seed),
        "m2" => roadpart::datasets::melbourne(Melbourne::M2, scale, seed),
        "m3" => roadpart::datasets::melbourne(Melbourne::M3, scale, seed),
        other => {
            return Err(CliError::config(format!(
                "unknown preset '{other}' (use d1|m1|m2|m3)"
            )))
        }
    };
    Ok(built?)
}

fn load_network(path: &str) -> CliResult<RoadNetwork> {
    let file = File::open(path).map_err(|e| CliError::data(format!("cannot open {path}: {e}")))?;
    io::read_network(file)
        .map_err(|e| CliError::data(format!("cannot parse {path}: {}", with_causes(&e))))
}

fn load_column<T: std::str::FromStr>(path: &str, what: &str) -> CliResult<Vec<T>> {
    let file = File::open(path).map_err(|e| CliError::data(format!("cannot open {path}: {e}")))?;
    let mut out = Vec::new();
    for (no, line) in BufReader::new(file).lines().enumerate() {
        let line = line.map_err(|e| CliError::data(format!("{path}: {e}")))?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        out.push(
            trimmed.parse().map_err(|_| {
                CliError::data(format!("{path}:{}: bad {what} '{trimmed}'", no + 1))
            })?,
        );
    }
    Ok(out)
}

fn write_column<T: std::fmt::Display>(path: &str, values: &[T]) -> CliResult<()> {
    let mut f =
        File::create(path).map_err(|e| CliError::data(format!("cannot create {path}: {e}")))?;
    for v in values {
        writeln!(f, "{v}").map_err(|e| CliError::data(format!("{path}: {e}")))?;
    }
    Ok(())
}

/// Densities: explicit file, or the ones stored in the network.
fn resolve_densities(args: &Args, net: &RoadNetwork) -> CliResult<Vec<f64>> {
    match args.optional("densities") {
        Some(path) => {
            let d: Vec<f64> = load_column(path, "density")?;
            if d.len() != net.segment_count() {
                return Err(CliError::data(format!(
                    "{path}: {} densities for {} segments",
                    d.len(),
                    net.segment_count()
                )));
            }
            Ok(d)
        }
        None => Ok(net.densities()),
    }
}

fn parse_scheme(name: &str) -> CliResult<Scheme> {
    match name.to_ascii_lowercase().as_str() {
        "ag" => Ok(Scheme::AG),
        "asg" => Ok(Scheme::ASG),
        "ng" => Ok(Scheme::NG),
        "nsg" => Ok(Scheme::NSG),
        other => Err(CliError::config(format!(
            "unknown scheme '{other}' (use ag|asg|ng|nsg)"
        ))),
    }
}

fn parse_policy(args: &Args) -> CliResult<SanitizePolicy> {
    match args.optional("policy") {
        None => Ok(SanitizePolicy::ClampAndWarn),
        Some(raw) => match raw.to_ascii_lowercase().as_str() {
            "clamp" | "clamp-and-warn" => Ok(SanitizePolicy::ClampAndWarn),
            "strict" => Ok(SanitizePolicy::Strict),
            other => Err(CliError::config(format!(
                "unknown policy '{other}' (use clamp|strict)"
            ))),
        },
    }
}

/// `roadpart generate`: synthesize a network + simulated traffic densities.
pub fn generate(argv: &[String]) -> CliResult<()> {
    let args = Args::parse(argv, &["preset", "scale", "seed", "out", "densities"])?;
    let preset = args.required("preset")?;
    let scale: f64 = args.get_or("scale", 0.5)?;
    let seed: u64 = args.get_or("seed", 42)?;
    let out = args.required("out")?;

    let dataset = build_dataset(preset, scale, seed)?;

    // Persist the network with the evaluation-step densities baked in.
    let mut net = dataset.network.clone();
    net.set_densities(dataset.eval_densities())
        .map_err(|e| CliError::data(with_causes(&e)))?;
    let f = File::create(out).map_err(|e| CliError::data(format!("cannot create {out}: {e}")))?;
    io::write_network(&net, f).map_err(|e| CliError::data(with_causes(&e)))?;
    println!(
        "wrote {out}: {} intersections, {} segments ({} preset at scale {scale})",
        net.intersection_count(),
        net.segment_count(),
        dataset.name
    );
    if let Some(dpath) = args.optional("densities") {
        write_column(dpath, dataset.eval_densities())?;
        println!(
            "wrote {dpath}: densities at evaluation step t = {}",
            dataset.eval_step
        );
    }
    Ok(())
}

/// `roadpart partition`: run the supervised framework and export labels /
/// GeoJSON / the machine-readable run report.
pub fn partition(argv: &[String]) -> CliResult<()> {
    let args = Args::parse(
        argv,
        &[
            "net",
            "k",
            "scheme",
            "densities",
            "seed",
            "labels",
            "geojson",
            "policy",
            "attempts",
            "report",
        ],
    )?;
    let net = load_network(args.required("net")?)?;
    let k: usize = args.get_or("k", 0)?;
    if k < 1 {
        return Err(CliError::config("--k must be at least 1"));
    }
    let seed: u64 = args.get_or("seed", 42)?;
    let densities = resolve_densities(&args, &net)?;
    let scheme_name = args.optional("scheme").unwrap_or("asg");

    let (labels, k_out) = if scheme_name.eq_ignore_ascii_case("jg") {
        let mut graph = RoadGraph::from_network(&net)?;
        graph.set_features(densities.clone())?;
        let p = roadpart::jg_partition(&graph, k, &JgConfig::default())?;
        (p.labels().to_vec(), p.k())
    } else {
        let scheme = parse_scheme(scheme_name)?;
        let mut pipeline = PipelineConfig::asg(k).with_seed(seed);
        pipeline.scheme = scheme;
        let mut sup = SupervisorConfig::new(pipeline);
        sup.policy = parse_policy(&args)?;
        sup.max_attempts = args.get_or("attempts", 3)?;
        let run = run_supervised(&net, &densities, &sup)?;
        let result = &run.result;
        let report = &run.report;

        println!(
            "timings: module1 {:?} | module2 {:?} | module3 {:?}",
            result.timings.module1, result.timings.module2, result.timings.module3
        );
        if let Some(order) = result.supergraph_order {
            println!(
                "supergraph: {} supernodes from {} segments",
                order,
                net.segment_count()
            );
        }
        if !report.validation.repairs.is_empty() {
            println!(
                "sanitized: repaired {} anomalous densities",
                report.validation.repairs.len()
            );
        }
        for warning in &report.validation.warnings {
            println!("warning: {warning}");
        }
        if report.recoveries.failures() > 0 {
            println!(
                "recovered: eigensolver needed {} fallback rung(s)",
                report.recoveries.failures()
            );
        }
        if report.degraded {
            println!(
                "degraded: {} fell back to {}",
                report.requested_scheme.name(),
                report.final_scheme.map_or("?", Scheme::name)
            );
        }
        if report.attempts.len() > 1 {
            println!("attempts: {} (seed rotation)", report.attempts.len());
        }
        if let Some(path) = args.optional("report") {
            let json = serde_json::to_string_pretty(&run.report)
                .map_err(|e| CliError::data(format!("cannot serialize report: {e}")))?;
            std::fs::write(path, json + "\n")
                .map_err(|e| CliError::data(format!("cannot write {path}: {e}")))?;
            println!("wrote {path}");
        }
        (result.partition.labels().to_vec(), result.partition.k())
    };
    println!("partitioned into {k_out} connected sub-networks");

    if let Some(path) = args.optional("labels") {
        write_column(path, &labels)?;
        println!("wrote {path}");
    }
    if let Some(path) = args.optional("geojson") {
        let f =
            File::create(path).map_err(|e| CliError::data(format!("cannot create {path}: {e}")))?;
        geojson::write_geojson(&net, Some(&labels), Some(&densities), f)
            .map_err(|e| CliError::data(with_causes(&e)))?;
        println!("wrote {path}");
    }
    Ok(())
}

/// Parses `latest`, `window:N`, or `ewma:A` into an [`AggregateKind`].
fn parse_aggregate(raw: &str) -> CliResult<roadpart_stream::AggregateKind> {
    use roadpart_stream::AggregateKind;
    let lower = raw.to_ascii_lowercase();
    if lower == "latest" {
        return Ok(AggregateKind::Latest);
    }
    if let Some(w) = lower.strip_prefix("window:") {
        let window: usize = w
            .parse()
            .map_err(|_| CliError::config(format!("bad window '{w}' in --aggregate")))?;
        return Ok(AggregateKind::WindowMean(window));
    }
    if let Some(a) = lower.strip_prefix("ewma:") {
        let alpha: f64 = a
            .parse()
            .map_err(|_| CliError::config(format!("bad alpha '{a}' in --aggregate")))?;
        return Ok(AggregateKind::Ewma(alpha));
    }
    Err(CliError::config(format!(
        "unknown aggregate '{raw}' (use latest|window:N|ewma:A)"
    )))
}

/// `roadpart stream`: replay a simulated density trace through the online
/// repartitioning engine, one report line per epoch.
pub fn stream(argv: &[String]) -> CliResult<()> {
    use roadpart_stream::{DeadlineMode, EngineConfig, EpochAction, StreamEngine, StreamLog};
    use roadpart_traffic::Scenario;

    let args = Args::parse(
        argv,
        &[
            "preset",
            "scale",
            "seed",
            "k",
            "epochs",
            "aggregate",
            "warm",
            "log",
            "scenario",
            "budget-ms",
            "deadline",
            "retries",
        ],
    )?;
    let preset = args.optional("preset").unwrap_or("d1");
    let scale: f64 = args.get_or("scale", 0.35)?;
    let seed: u64 = args.get_or("seed", 42)?;
    let k: usize = args.get_or("k", 4)?;
    let epochs: usize = args.get_or("epochs", 10)?;
    if epochs == 0 {
        return Err(CliError::config("--epochs must be at least 1"));
    }
    let warm = match args.optional("warm").unwrap_or("on") {
        "on" => true,
        "off" => false,
        other => {
            return Err(CliError::config(format!(
                "bad --warm '{other}' (use on|off)"
            )))
        }
    };

    let dataset = build_dataset(preset, scale, seed)?;
    // Overlay the requested disruption scenario on the simulated trace.
    let history = match args.optional("scenario") {
        None => dataset.history.clone(),
        Some(name) => {
            let suite = Scenario::standard_suite(&dataset.network);
            let scenario = suite
                .iter()
                .find(|s| s.name == name.to_ascii_lowercase())
                .ok_or_else(|| {
                    let known: Vec<&str> = suite.iter().map(|s| s.name.as_str()).collect();
                    CliError::config(format!(
                        "unknown scenario '{name}' (use {})",
                        known.join("|")
                    ))
                })?;
            println!(
                "scenario: {} ({} events)",
                scenario.name,
                scenario.events.len()
            );
            scenario.apply_history(&dataset.network, &dataset.history)
        }
    };
    let steps = history.len();
    println!(
        "{} at scale {scale}: {} segments, {} simulated steps -> {epochs} epochs",
        dataset.name,
        dataset.network.segment_count(),
        steps
    );

    let mut graph = RoadGraph::from_network(&dataset.network)?;
    graph.set_features(history.at(0).to_vec())?;
    let mut cfg = EngineConfig::new(k).with_seed(seed);
    cfg.warm_start = warm;
    if let Some(raw) = args.optional("aggregate") {
        cfg.aggregate = parse_aggregate(raw)?;
    }
    if args.optional("budget-ms").is_some() {
        let budget: f64 = args.get_or("budget-ms", 0.0)?;
        cfg.resilience.epoch_budget_ms = Some(budget);
    }
    cfg.resilience.deadline_mode = match args.optional("deadline").unwrap_or("degrade") {
        "degrade" => DeadlineMode::Degrade,
        "fail" => DeadlineMode::Fail,
        other => {
            return Err(CliError::config(format!(
                "bad --deadline '{other}' (use degrade|fail)"
            )))
        }
    };
    cfg.resilience.max_retries = args.get_or("retries", cfg.resilience.max_retries)?;
    let mut engine = StreamEngine::new(graph, cfg)?;
    let store = engine.store();
    println!(
        "initial partition: version {} serving k = {}",
        store.read().version,
        store.read().k
    );

    // Replay the remaining trace in equal epoch chunks.
    let steps_per_epoch = ((steps - 1) / epochs).max(1);
    let mut log = StreamLog::new();
    let mut t = 1;
    for _ in 0..epochs {
        if t >= steps {
            break;
        }
        let end = (t + steps_per_epoch).min(steps);
        for step in t..end {
            engine.ingest(history.at(step))?;
        }
        t = end;
        let report = engine.run_epoch()?;
        let action = match report.action {
            EpochAction::NoOp => "no-op",
            EpochAction::Regional => "regional",
            EpochAction::Global => "global",
        };
        let mut notes = String::new();
        if report.warm_started {
            notes.push_str(" (warm)");
        }
        if report.resilience.degraded {
            let intended = match report.intended {
                EpochAction::NoOp => "no-op",
                EpochAction::Regional => "regional",
                EpochAction::Global => "global",
            };
            notes.push_str(&format!(" (degraded from {intended})"));
        }
        if report.resilience.attempts.len() > 1 {
            notes.push_str(&format!(" ({} attempts)", report.resilience.attempts.len()));
        }
        println!(
            "epoch {:>3}: {action:<8} {:<12} | divergence {:.3} retention {:.2} | \
             v{} k = {} | {:.1} ms{notes}",
            report.epoch,
            report.health.label(),
            report.probe.max_divergence,
            report.probe.retention(),
            report.version,
            report.k,
            report.elapsed_ms,
        );
        log.push(report);
    }

    let (noop, regional, global) = log.action_counts();
    let (healthy, degraded, quarantining) = log.health_counts();
    println!(
        "{} epochs: {noop} no-op, {regional} regional, {global} global | \
         health: {healthy} healthy, {degraded} degraded, {quarantining} quarantining | \
         final version {} | {:.1} ms total",
        log.len(),
        store.read().version,
        log.total_ms()
    );
    if let Some(path) = args.optional("log") {
        let json = serde_json::to_string_pretty(&log)
            .map_err(|e| CliError::data(format!("cannot serialize stream log: {e}")))?;
        std::fs::write(path, json + "\n")
            .map_err(|e| CliError::data(format!("cannot write {path}: {e}")))?;
        println!("wrote {path}");
    }
    Ok(())
}

/// SplitMix64 step: a deterministic stateless mixer for OD sampling, so
/// `serve --queries` needs no RNG dependency and replays bit-identically.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn parse_cost_model(raw: &str) -> CliResult<roadpart_serve::CostModel> {
    use roadpart_serve::CostModel;
    match raw.to_ascii_lowercase().as_str() {
        "time" => Ok(CostModel::FreeFlowTime),
        "distance" => Ok(CostModel::Distance),
        "hops" => Ok(CostModel::Hops),
        other => Err(CliError::config(format!(
            "unknown cost model '{other}' (use time|distance|hops)"
        ))),
    }
}

/// `roadpart serve`: partition the preset network, build boundary-node
/// oracles, and answer shortest-path queries exactly.
///
/// # Errors
/// Classified [`CliError`]s: usage problems exit 2, partitioning failures
/// keep their data/numerical codes, and an unreachable `--from`/`--to`
/// pair exits with the dedicated no-route code 7.
pub fn serve(argv: &[String]) -> CliResult<()> {
    use roadpart_net::SegmentId;
    use roadpart_serve::{QueryBatch, QueryContext, QueryEngine, SegmentGraph};
    use roadpart_stream::PartitionStore;
    use std::sync::Arc;

    let args = Args::parse(
        argv,
        &[
            "preset", "scale", "seed", "k", "scheme", "cost", "threads", "from", "to", "queries",
        ],
    )?;
    let preset = args.optional("preset").unwrap_or("d1");
    let scale: f64 = args.get_or("scale", 0.35)?;
    let seed: u64 = args.get_or("seed", 42)?;
    let k: usize = args.get_or("k", 4)?;
    if k < 1 {
        return Err(CliError::config("--k must be at least 1"));
    }
    let threads: usize = args.get_or("threads", 1)?;
    if threads < 1 {
        return Err(CliError::config("--threads must be at least 1"));
    }
    let scheme = parse_scheme(args.optional("scheme").unwrap_or("ag"))?;
    let cost = parse_cost_model(args.optional("cost").unwrap_or("time"))?;

    let dataset = build_dataset(preset, scale, seed)?;
    let net = &dataset.network;
    let mut graph = RoadGraph::from_network(net)?;
    graph.set_features(dataset.eval_densities().to_vec())?;
    let cfg = FrameworkConfig::default().with_seed(seed);
    let out = roadpart::run_scheme(&graph, scheme, k, &cfg)?;
    let labels = out.partition.labels().to_vec();

    let routing = SegmentGraph::from_network(net, cost)?;
    let store = Arc::new(PartitionStore::new(labels, 0));
    let pool = roadpart_linalg::ThreadPool::new(threads);
    let engine = QueryEngine::new(routing, store, pool)?;
    let serving = engine.serving();
    println!(
        "{} at scale {scale}: {} segments in {} partitions, {} boundary nodes, \
         {} overlay edges (oracles built in {:.2} ms on {threads} thread(s))",
        dataset.name,
        net.segment_count(),
        serving.partition_count(),
        serving.boundary_count(),
        serving.overlay_edge_count(),
        serving.build_ms,
    );

    if let (Some(from_raw), Some(to_raw)) = (args.optional("from"), args.optional("to")) {
        let from: u32 = from_raw
            .parse()
            .map_err(|_| CliError::config(format!("bad --from segment '{from_raw}'")))?;
        let to: u32 = to_raw
            .parse()
            .map_err(|_| CliError::config(format!("bad --to segment '{to_raw}'")))?;
        let mut ctx = QueryContext::new();
        let resp = engine.query(SegmentId(from), SegmentId(to), &mut ctx)?;
        println!(
            "route {from} -> {to}: cost {:.3}, {} segments, {} settled, \
             {} boundary hop(s){} (snapshot v{})",
            resp.cost,
            resp.path.len(),
            resp.settled,
            resp.boundary_hops,
            if resp.used_overlay {
                " via boundary overlay"
            } else {
                " in-cell"
            },
            resp.version,
        );
        let shown = resp.path.len().min(16);
        let ids: Vec<String> = resp.path[..shown].iter().map(|s| s.0.to_string()).collect();
        let ellipsis = if resp.path.len() > shown { " ..." } else { "" };
        println!("path: {}{ellipsis}", ids.join(" -> "));
        return Ok(());
    }

    let queries: usize = args.get_or("queries", 200)?;
    if queries == 0 {
        return Err(CliError::config("--queries must be at least 1"));
    }
    let n = net.segment_count() as u64;
    let mut state = seed ^ 0x5EED_0D0D_CAFE_F00D;
    let pairs: Vec<(SegmentId, SegmentId)> = (0..queries)
        .map(|_| {
            let s = (splitmix64(&mut state) % n) as u32;
            let t = (splitmix64(&mut state) % n) as u32;
            (SegmentId(s), SegmentId(t))
        })
        .collect();
    let report = engine.run_batch(&QueryBatch::new(pairs))?;
    println!(
        "{} queries on {threads} thread(s): {} routed, {} no-route | \
         {:.0} qps | p50 {:.1} us, p99 {:.1} us, max {:.1} us | \
         mean settled {:.0} | snapshot v{}",
        report.queries,
        report.ok,
        report.no_route,
        report.qps,
        report.p50_us,
        report.p99_us,
        report.max_us,
        report.mean_settled,
        report.version_hi,
    );
    Ok(())
}

/// `roadpart metrics`: evaluate an existing labeling.
pub fn metrics(argv: &[String]) -> CliResult<()> {
    let args = Args::parse(argv, &["net", "labels", "densities"])?;
    let net = load_network(args.required("net")?)?;
    let densities = resolve_densities(&args, &net)?;
    let labels: Vec<usize> = load_column(args.required("labels")?, "label")?;
    if labels.len() != net.segment_count() {
        return Err(CliError::data(format!(
            "{} labels for {} segments",
            labels.len(),
            net.segment_count()
        )));
    }
    let mut graph = RoadGraph::from_network(&net)?;
    graph.set_features(densities)?;
    let affinity = roadpart_cut::gaussian_affinity(graph.adjacency(), graph.features())?;
    let dense = roadpart_cut::Partition::from_labels(&labels);
    let rep = QualityReport::compute(&affinity, graph.features(), dense.labels());
    println!("k          : {}", rep.k);
    println!("inter      : {:.6}  (higher better)", rep.inter);
    println!("intra      : {:.6}  (lower better)", rep.intra);
    println!("GDBI       : {:.6}  (lower better)", rep.gdbi);
    println!("ANS        : {:.6}  (lower better)", rep.ans);
    println!("alpha-cut  : {:.6}  (lower better)", rep.alpha_cut);
    println!("ncut       : {:.6}  (lower better)", rep.ncut);
    println!("modularity : {:.6}  (higher better)", rep.modularity);
    Ok(())
}

/// `roadpart select-k`: sweep k and report the ANS-optimal choice.
pub fn select_k(argv: &[String]) -> CliResult<()> {
    let args = Args::parse(argv, &["net", "densities", "kmax", "scheme", "seed"])?;
    let net = load_network(args.required("net")?)?;
    let densities = resolve_densities(&args, &net)?;
    let kmax: usize = args.get_or("kmax", 12)?;
    let seed: u64 = args.get_or("seed", 42)?;
    let scheme = parse_scheme(args.optional("scheme").unwrap_or("asg"))?;
    let mut graph = RoadGraph::from_network(&net)?;
    graph.set_features(densities)?;
    let cfg = FrameworkConfig::default().with_seed(seed);
    let sel = roadpart::select_k(&graph, scheme, 2..=kmax.max(2), &cfg)?;
    println!("{:>4} {:>10} {:>10}", "k", "ANS", "GDBI");
    for c in &sel.sweep {
        println!("{:>4} {:>10.4} {:>10.4}", c.k, c.report.ans, c.report.gdbi);
    }
    println!(
        "\nANS-optimal k = {} (ANS {:.4}); local-minimum candidates: {:?}",
        sel.best_k, sel.best_ans, sel.candidates
    );
    Ok(())
}

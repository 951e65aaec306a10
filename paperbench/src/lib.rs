//! # roadpart-paperbench
//!
//! Paper-scale benchmark of the roadpart workspace. Three workloads, each run
//! from outside the library through its public API:
//!
//! | workload       | one op                                                   |
//! |----------------|----------------------------------------------------------|
//! | `datagen-m1`   | `datasets::melbourne(M1, 0.1, ..)`: M1 network + MNTG traffic  |
//! | `partition-m3` | AG then ASG (k = 8) partition-and-score on M3 at scale 1.0 |
//! | `replan-m1`    | 12 epochs of a `StreamEngine` + `QueryEngine` pair on M1 |
//!
//! `--trace 0` times ops with tracing off and prints the end-to-end metrics;
//! `--trace 1` runs an untraced op and a traced op, checks they agree bit
//! for bit, and prints the per-layer metrics. See `README.md`.

pub mod checks;
pub mod datagen;
pub mod metrics;
pub mod pipeline;
pub mod replan;
pub mod spectral;
pub mod speed;
pub mod stats;
pub mod trace;

use checks::Checks;
use roadpart::FrameworkConfig;
use roadpart_cut::SpectralConfig;
use roadpart_linalg::ThreadPool;
use speed::{HostSpeed, Secs};
use std::collections::BTreeMap;
use std::time::Instant;
use trace::Trace;

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["datagen-m1", "partition-m3", "replan-m1"];

/// Seed of every fixed input (map, density field, solver seeds). The
/// paper's datasets are fixed maps; a seed-dependent map changes the
/// spectral work by up to 2x between seeds (see README.md).
pub const MAP_SEED: u64 = 7;

/// Command-line options.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name, one of [`WORKLOADS`].
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Measurement time per run.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the timed run.
    pub trace: bool,
    /// Multiplies every network scale. [`Args::parse`] sets 1.0, the
    /// benchmark's sizes; the benchmark's tests set a tiny value.
    pub scale: f64,
}

impl Args {
    /// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
    ///
    /// # Errors
    /// A message naming the bad or missing option.
    pub fn parse(argv: &[String]) -> Result<Self, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => {
                    if !WORKLOADS.contains(&value.as_str()) {
                        return Err(format!("unknown workload {value}; one of {WORKLOADS:?}"));
                    }
                    workload = Some(value.clone());
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|_| bad())?;
                    if !(s > 0.0 && s.is_finite()) {
                        return Err(bad());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    })
                }
                other => return Err(format!("unknown option {other}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.ok_or("missing --trace")?,
            scale: 1.0,
        })
    }
}

/// Shared run context handed to a workload.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// The parsed options.
    pub args: Args,
    /// The pool every workload runs at: one worker, the serial path. On the
    /// 2-core host a 2-worker pool ran the spectral ops slower than one
    /// worker, and its run time swung by up to 1.9x between runs of the same
    /// code as the host's load changed what it costs to wake an idle core,
    /// which the pool does on every parallel call (see README.md).
    pub pool: ThreadPool,
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric values by name (end-to-end or per-layer, by mode).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Output checks.
    pub checks: Checks,
    /// Provenance fields, rendered as JSON values.
    pub provenance: Vec<(String, String)>,
    /// The traced run's spans and counters.
    pub trace: Option<Trace>,
    /// Width of every thread pool inside the configs the workload ran, by
    /// the config field that holds it.
    pub pools: Vec<(String, usize)>,
}

impl Outcome {
    fn prov(&mut self, key: impl Into<String>, value: impl std::fmt::Display) {
        self.provenance.push((key.into(), value.to_string()));
    }

    /// Records the set-up times: `setup_s` is their median at the reference
    /// speed.
    fn setup_times(&mut self, secs: &[Secs]) {
        self.timed("setup_s", "setup", secs);
    }

    /// Records timed steps under `metric`, the median of their times at the
    /// reference speed, and lists them with [`Outcome::timed_samples`].
    pub fn timed(&mut self, metric: &'static str, what: &str, secs: &[Secs]) {
        let scaled: Vec<f64> = secs.iter().map(|s| s.scaled).collect();
        self.metrics.insert(metric, stats::median(&scaled));
        self.timed_samples(what, secs);
    }

    /// Lists timed steps in the provenance: `<what>_samples` counts them,
    /// `<what>_s_samples` and `<what>_wall_s_samples` give their times at the
    /// reference speed and as measured.
    pub fn timed_samples(&mut self, what: &str, secs: &[Secs]) {
        let scaled: Vec<f64> = secs.iter().map(|s| s.scaled).collect();
        let wall: Vec<f64> = secs.iter().map(|s| s.wall).collect();
        self.samples(
            &format!("{what}_s_samples"),
            &format!("{what}_samples"),
            &scaled,
        );
        self.prov(format!("{what}_wall_s_samples"), list(&wall));
    }

    /// Records the host-speed readings of the run: their count and median.
    pub fn speed_readings(&mut self, speed: &HostSpeed) {
        self.prov("speed_readings", speed.readings.len());
        self.prov(
            "speed_reading_p50_s",
            format!("{:.5}", stats::median(&speed.readings)),
        );
    }

    /// Records the pools of a spectral config as `<what>.eigen` and
    /// `<what>.kmeans`.
    pub fn spectral_pools(&mut self, what: &str, cfg: &SpectralConfig) {
        self.pools
            .push((format!("{what}.eigen"), cfg.eigen.pool.threads()));
        self.pools
            .push((format!("{what}.kmeans"), cfg.kmeans.pool.threads()));
    }

    /// Records the pools of a framework config: its spectral pools and
    /// `<what>.mining`.
    pub fn framework_pools(&mut self, what: &str, cfg: &FrameworkConfig) {
        self.spectral_pools(what, &cfg.spectral);
        self.pools
            .push((format!("{what}.mining"), cfg.mining.pool.threads()));
    }

    /// Records a timed sample set: its size and every value.
    fn samples(&mut self, key: &str, count_key: &str, xs: &[f64]) {
        self.prov(count_key, xs.len());
        self.prov(key, list(xs));
    }
}

/// A JSON list of `xs` to four decimals.
fn list(xs: &[f64]) -> String {
    let values: Vec<String> = xs.iter().map(|x| format!("{x:.4}")).collect();
    format!("[{}]", values.join(", "))
}

/// Runs `setup` `times` times between host-speed readings, returning the
/// last result and every set-up's time.
///
/// # Errors
/// The first set-up error.
pub fn repeated_setup<T>(
    times: usize,
    speed: &mut HostSpeed,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<Secs>), String> {
    let mut secs = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times.max(1) {
        // Drop the previous instance first so set-ups do not overlap in
        // memory.
        drop(last.take());
        let (value, t) = speed.time(&mut setup)?;
        secs.push(t);
        last = Some(value);
    }
    let value = last.ok_or("no set-up ran")?;
    Ok((value, secs))
}

/// Runs timed ops until `seconds` would be exceeded by one more op of median
/// wall time, but at least `min_ops`. `op` times itself with the host-speed
/// readings it is handed.
///
/// # Errors
/// The first op error.
pub fn timed_ops(
    seconds: f64,
    min_ops: usize,
    speed: &mut HostSpeed,
    mut op: impl FnMut(&mut HostSpeed) -> Result<Secs, String>,
) -> Result<Vec<Secs>, String> {
    let start = Instant::now();
    let mut times: Vec<Secs> = Vec::new();
    loop {
        if times.len() >= min_ops {
            let wall: Vec<f64> = times.iter().map(|t| t.wall).collect();
            if start.elapsed().as_secs_f64() + stats::median(&wall) > seconds {
                break;
            }
        }
        times.push(op(speed)?);
    }
    Ok(times)
}

/// Runs the workload named in `args`.
pub fn run(args: &Args) -> Outcome {
    let cores = stats::host_cores();
    let ctx = Ctx {
        args: args.clone(),
        pool: ThreadPool::serial(),
    };
    let started = Instant::now();
    let mut out = match args.workload.as_str() {
        "datagen-m1" => datagen::run(&ctx),
        "partition-m3" => spectral::run_partition_m3(&ctx),
        _ => replan::run(&ctx),
    };
    // Every pool the workload's configs hold must be the benchmark's; a
    // config left at its `ROADPART_THREADS` default would show here.
    let width = ctx.pool.threads();
    for (what, threads) in &out.pools {
        out.checks
            .check(*threads == width && *threads <= cores, || {
                format!("{what} pool has {threads} threads, not {width}, on {cores} cores")
            });
    }
    if !args.trace {
        match stats::peak_rss_mb() {
            Some(mb) => {
                out.metrics.insert("peak_rss_mb", mb);
            }
            None => {
                out.checks
                    .check(false, || "no VmHWM in /proc/self/status".into());
            }
        }
    }
    let head = [
        ("workload", format!("\"{}\"", args.workload)),
        ("seed", args.seed.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("git_revision", format!("\"{}\"", stats::git_revision())),
        ("nproc", cores.to_string()),
        ("pools", pools_json(&out.pools)),
        ("scale", args.scale.to_string()),
        (
            "roadpart_threads_env",
            format!(
                "\"{}\"",
                std::env::var("ROADPART_THREADS").unwrap_or_default()
            ),
        ),
        ("wall_s", format!("{:.3}", started.elapsed().as_secs_f64())),
    ];
    let tail = std::mem::take(&mut out.provenance);
    out.provenance = head
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .chain(tail)
        .collect();
    check_reported(args, &mut out);
    out
}

fn pools_json(pools: &[(String, usize)]) -> String {
    let fields: Vec<String> = pools.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    format!("{{{}}}", fields.join(", "))
}

/// Checks that the run reported every metric its workload measures in this
/// mode, finite and, outside [`metrics::MAY_BE_ZERO`], non-zero. The
/// per-layer metrics of layers idle on the workload are set to 0.
pub fn check_reported(args: &Args, out: &mut Outcome) {
    let (defs, measured) = if args.trace {
        (metrics::PER_LAYER, metrics::measured(&args.workload))
    } else {
        (metrics::END_TO_END, metrics::END_TO_END_NAMES)
    };
    for &name in measured {
        let value = out.metrics.get(name).copied();
        let ok = value
            .is_some_and(|v| v.is_finite() && (v != 0.0 || metrics::MAY_BE_ZERO.contains(&name)));
        out.checks.check(ok, || match value {
            Some(v) => format!("{} reported {name} = {v}", args.workload),
            None => format!("{} did not report {name}", args.workload),
        });
    }
    for d in defs {
        if !measured.contains(&d.name) {
            out.metrics.entry(d.name).or_insert(0.0);
        }
    }
}

/// The final result line: `correct`, `attempted`, `failed` and the metrics
/// the mode reports, each with its unit.
pub fn result_line(args: &Args, out: &Outcome) -> String {
    let defs = if args.trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    let fields: Vec<String> = defs
        .iter()
        .map(|d| {
            // A missing or non-finite value prints as null; `check_reported`
            // has failed the run for it.
            let v = match out.metrics.get(d.name) {
                Some(v) if v.is_finite() => format!("{v:?}"),
                _ => "null".to_string(),
            };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                d.name, d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.checks.all_passed(),
        out.checks.attempted,
        out.checks.failed,
        fields.join(", ")
    )
}

/// The provenance line printed before the result.
pub fn provenance_line(out: &Outcome) -> String {
    let fields: Vec<String> = out
        .provenance
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{\"provenance\": {{{}}}}}", fields.join(", "))
}

/// Writes the traced run's spans and counters under `target/paperbench/`.
///
/// # Errors
/// The I/O error, rendered.
pub fn write_trace(args: &Args, trace: &Trace) -> Result<String, String> {
    let dir = std::path::Path::new("target").join("paperbench");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    std::fs::write(&path, trace.to_json()).map_err(|e| e.to_string())?;
    Ok(path.display().to_string())
}

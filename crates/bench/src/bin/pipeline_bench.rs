//! BENCH_pipeline — end-to-end AG/ASG pipeline wall time, per stage, for
//! a baseline solver configuration (full reorthogonalization, unpruned
//! k-means, fresh scratch buffers) against the optimized defaults
//! (ω-monitored selective reorthogonalization, bound-pruned k-means, pooled
//! workspaces). Both use the canonical lane kernels and the shared mining
//! DP sweep, the only kernel order and mining path the library has.
//!
//! ```text
//! cargo run -p roadpart-bench --release --bin pipeline_bench -- --runs 3
//! cargo run -p roadpart-bench --release --features bench-alloc --bin pipeline_bench
//! cargo run -p roadpart-bench --release --bin pipeline_bench -- --smoke
//! ```
//!
//! Both configurations run in the same process on grid (scaled M1) and
//! spider-web synthetic networks at three sizes, so `BENCH_pipeline.json`
//! carries its own baseline — the speedup columns need no external
//! reference. With `--features bench-alloc` a counting global allocator
//! additionally records allocation counts per pipeline stage and for the
//! steady-state spectral stage (retained workspace + warm artifacts, the
//! online engine's epoch loop) against the cold baseline stage.
//!
//! `--smoke` restricts the run to the smallest size with one repetition and
//! keeps every internal validity check (finite, non-negative timings;
//! successful pipelines), exiting non-zero on any violation — the CI
//! perf-smoke gate is just this exit code.

use roadpart::prelude::*;
use roadpart_bench::{median, write_json};
use roadpart_cut::{
    embedding_recovering_ws, spectral_partition_warm_ws, CutKind, SpectralArtifacts,
};
use roadpart_linalg::{RecoveryLog, ReorthPolicy, ThreadPool, Workspace};
use roadpart_net::RoadGraph;
use serde_json::json;
use std::time::Instant;

/// Counting global allocator, compiled in only under `bench-alloc`.
#[cfg(feature = "bench-alloc")]
mod alloc_counter {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Allocations (and growing reallocations) since process start.
    pub static ALLOCS: AtomicU64 = AtomicU64::new(0);

    pub struct Counting;

    // SAFETY: delegates every operation to `System`; the counter is a
    // relaxed atomic with no side effects on the allocation itself.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            unsafe { System.alloc(layout) }
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) }
        }
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static COUNTER: Counting = Counting;
}

/// Allocation counter reading; `None` without `bench-alloc`.
fn alloc_count() -> Option<u64> {
    #[cfg(feature = "bench-alloc")]
    {
        Some(alloc_counter::ALLOCS.load(std::sync::atomic::Ordering::Relaxed))
    }
    #[cfg(not(feature = "bench-alloc"))]
    {
        None
    }
}

/// Allocations performed by `f` (`None` without `bench-alloc`).
fn count_allocs<T>(f: impl FnOnce() -> T) -> (T, Option<u64>) {
    let before = alloc_count();
    let out = f();
    let after = alloc_count();
    (out, after.zip(before).map(|(a, b)| a.saturating_sub(b)))
}

/// Parsed flags. `pipeline_bench` owns its parsing because the shared
/// `ExpArgs` parser treats every flag as valued and would swallow the flag
/// following a bare `--smoke`.
struct BenchArgs {
    seed: u64,
    runs: usize,
    smoke: bool,
}

fn parse_args() -> BenchArgs {
    let mut out = BenchArgs {
        seed: 42,
        runs: 3,
        smoke: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--smoke" => out.smoke = true,
            "--seed" => {
                if let Some(v) = args.next().and_then(|s| s.parse().ok()) {
                    out.seed = v;
                }
            }
            "--runs" => {
                if let Some(v) = args.next().and_then(|s| s.parse::<usize>().ok()) {
                    out.runs = v.max(1);
                }
            }
            other => eprintln!("warning: ignoring unknown flag {other}"),
        }
    }
    out
}

/// Partitions requested from every pipeline run.
const K: usize = 8;

/// One benchmark network instance.
struct NetCase {
    family: &'static str,
    net: roadpart_net::RoadNetwork,
    densities: Vec<f64>,
}

/// Grid (scaled M1) + spider-web networks for one size rung.
fn build_networks(grid_scale: f64, rings: usize, spokes: usize, seed: u64) -> Vec<NetCase> {
    use rand::SeedableRng;
    let grid = roadpart_net::UrbanConfig::m1()
        .scaled(grid_scale)
        .generate(seed)
        .expect("grid generation is total for valid scales");
    let spider = {
        let cfg = roadpart_net::synth::spider::SpiderConfig {
            rings,
            spokes,
            ring_spacing_m: 150.0,
            jitter_rad: 0.05,
        };
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed ^ 0x51de);
        let plan = roadpart_net::synth::spider::spider_plan(&cfg, &mut rng);
        roadpart_net::synth::realize(&plan, 0.2, &mut rng).expect("spider plan realizes")
    };
    [("grid", grid), ("spider", spider)]
        .into_iter()
        .map(|(family, net)| {
            let field = CongestionField::urban_default(&net, seed);
            let densities = field.densities(&net, 0.4, &TemporalProfile::morning());
            NetCase {
                family,
                net,
                densities,
            }
        })
        .collect()
}

/// The baseline solver configuration: full reorthogonalization every
/// Lanczos iteration and exhaustive k-means scans. Everything else matches
/// `opt`.
fn baseline_cfg(scheme: Scheme, seed: u64, pool: ThreadPool) -> PipelineConfig {
    let mut cfg = optimized_cfg(scheme, seed, pool);
    cfg.framework.spectral.eigen.reorth = ReorthPolicy::Full;
    cfg.framework.spectral.kmeans.prune = false;
    cfg
}

/// The current defaults: selective reorthogonalization + pruned k-means +
/// shared mining DP sweeps.
fn optimized_cfg(scheme: Scheme, seed: u64, pool: ThreadPool) -> PipelineConfig {
    let mut cfg = PipelineConfig::asg(K);
    cfg.scheme = scheme;
    cfg.with_seed(seed).with_pool(pool)
}

/// Medians of per-stage / total wall time over `runs` pipeline executions,
/// plus the allocation count of one execution.
struct PipelineSample {
    module_ms: [f64; 3],
    total_ms: f64,
    allocs: Option<u64>,
    k_out: usize,
}

fn sample_pipeline(
    net: &roadpart_net::RoadNetwork,
    densities: &[f64],
    cfg: &PipelineConfig,
    runs: usize,
) -> roadpart::Result<PipelineSample> {
    let mut stage = [Vec::new(), Vec::new(), Vec::new()];
    let mut totals = Vec::new();
    let mut k_out = 0;
    for _ in 0..runs {
        let t0 = Instant::now();
        let result = partition_network(net, densities, cfg)?;
        totals.push(t0.elapsed().as_secs_f64() * 1e3);
        let t = result.timings;
        for (samples, d) in stage.iter_mut().zip([t.module1, t.module2, t.module3]) {
            samples.push(d.as_secs_f64() * 1e3);
        }
        k_out = result.partition.k();
    }
    let (counted, allocs) = count_allocs(|| partition_network(net, densities, cfg));
    counted?;
    Ok(PipelineSample {
        module_ms: [
            median(&mut stage[0]),
            median(&mut stage[1]),
            median(&mut stage[2]),
        ],
        total_ms: median(&mut totals),
        allocs,
        k_out,
    })
}

impl PipelineSample {
    fn to_json(&self) -> serde_json::Value {
        json!({
            "module1_ms": self.module_ms[0],
            "module2_ms": self.module_ms[1],
            "module3_ms": self.module_ms[2],
            "total_ms": self.total_ms,
            "allocs": self.allocs,
            "k_out": self.k_out,
        })
    }

    /// True when every recorded number is finite and non-negative.
    fn is_valid(&self) -> bool {
        self.module_ms
            .iter()
            .chain([&self.total_ms])
            .all(|m| m.is_finite() && *m >= 0.0)
            && self.k_out > 0
    }
}

/// Cold baseline vs steady state for the spectral machinery on the AG
/// affinity graph, at two scopes:
///
/// * **eigensolve** — `embedding_recovering_ws`, the stage the workspace
///   pool and selective reorthogonalization target. Cold = full reorth,
///   no warm start, fresh workspace (the seed revision's behaviour);
///   steady = selective + eigenvector warm start + retained warmed
///   workspace (the online engine's repeating epoch). The ≥10x
///   allocation-reduction criterion is read here.
/// * **full stage** — `spectral_partition_warm_ws`, the whole
///   embedding + k-means + refinement stage, as context (its k-means and
///   refinement phases allocate per call by design).
fn spectral_stage_record(
    case: &NetCase,
    seed: u64,
    pool: ThreadPool,
    failures: &mut u32,
) -> roadpart::Result<serde_json::Value> {
    let mut graph = RoadGraph::from_network(&case.net)?;
    graph.set_features(case.densities.clone())?;
    let affinity = roadpart_cut::gaussian_affinity_par(graph.adjacency(), graph.features(), &pool)?;
    let k = K.min(graph.node_count());

    let base = baseline_cfg(Scheme::AG, seed, pool).framework.spectral;
    let opt = optimized_cfg(Scheme::AG, seed, pool).framework.spectral;

    // -- Eigensolve scope --
    let mut log = RecoveryLog::new();
    let t0 = Instant::now();
    let (res, eig_cold_allocs) = count_allocs(|| {
        let mut ws = Workspace::new();
        embedding_recovering_ws(
            &affinity,
            k,
            CutKind::Alpha,
            &base.eigen,
            &base.fallback,
            &mut log,
            &mut ws,
        )
    });
    let eig_cold_ms = t0.elapsed().as_secs_f64() * 1e3;
    let y = res?;

    let mut ws = Workspace::new();
    let mut eig = opt.eigen.clone();
    eig.start = Some(y);
    // First warm call sizes the pool; the counted second call is the
    // repeating epoch of the online engine.
    let y1 = embedding_recovering_ws(
        &affinity,
        k,
        CutKind::Alpha,
        &eig,
        &opt.fallback,
        &mut log,
        &mut ws,
    )?;
    eig.start = Some(y1);
    let t1 = Instant::now();
    let (res, eig_steady_allocs) = count_allocs(|| {
        embedding_recovering_ws(
            &affinity,
            k,
            CutKind::Alpha,
            &eig,
            &opt.fallback,
            &mut log,
            &mut ws,
        )
    });
    let eig_steady_ms = t1.elapsed().as_secs_f64() * 1e3;
    res?;
    let ws_fresh = ws.fresh_allocations();
    let ws_takes = ws.takes();

    // -- Full spectral stage scope --
    let mut log = RecoveryLog::new();
    let t2 = Instant::now();
    let (res, full_cold_allocs) = count_allocs(|| {
        let mut cold_ws = Workspace::new();
        spectral_partition_warm_ws(
            &affinity,
            k,
            CutKind::Alpha,
            &base,
            None,
            &mut log,
            &mut cold_ws,
        )
    });
    let full_cold_ms = t2.elapsed().as_secs_f64() * 1e3;
    let (_, cold_artifacts) = res?;

    let mut full_ws = Workspace::new();
    let mut artifacts: SpectralArtifacts = cold_artifacts;
    let warm = spectral_partition_warm_ws(
        &affinity,
        k,
        CutKind::Alpha,
        &opt,
        Some(&artifacts),
        &mut log,
        &mut full_ws,
    )?;
    artifacts = warm.1;
    let t3 = Instant::now();
    let (res, full_steady_allocs) = count_allocs(|| {
        spectral_partition_warm_ws(
            &affinity,
            k,
            CutKind::Alpha,
            &opt,
            Some(&artifacts),
            &mut log,
            &mut full_ws,
        )
    });
    let full_steady_ms = t3.elapsed().as_secs_f64() * 1e3;
    res?;

    for ms in [eig_cold_ms, eig_steady_ms, full_cold_ms, full_steady_ms] {
        if !ms.is_finite() {
            eprintln!("FAIL [{}]: non-finite spectral stage timing", case.family);
            *failures += 1;
        }
    }
    let reduction = |c: Option<u64>, s: Option<u64>| match (c, s) {
        (Some(c), Some(s)) => Some(c as f64 / (s.max(1) as f64)),
        _ => None,
    };
    Ok(json!({
        "eigensolve": {
            "cold_baseline": {"ms": eig_cold_ms, "allocs": eig_cold_allocs},
            "steady_state": {"ms": eig_steady_ms, "allocs": eig_steady_allocs},
            "alloc_reduction": reduction(eig_cold_allocs, eig_steady_allocs),
            "workspace_fresh_allocations": ws_fresh,
            "workspace_takes": ws_takes,
        },
        "full_stage": {
            "cold_baseline": {"ms": full_cold_ms, "allocs": full_cold_allocs},
            "steady_state": {"ms": full_steady_ms, "allocs": full_steady_allocs},
            "alloc_reduction": reduction(full_cold_allocs, full_steady_allocs),
        },
    }))
}

fn main() -> std::process::ExitCode {
    match run() {
        Ok(0) => {
            println!("\nall validity checks passed");
            std::process::ExitCode::SUCCESS
        }
        Ok(failures) => {
            eprintln!("\n{failures} validity check(s) failed");
            std::process::ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("pipeline_bench failed: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}

/// Runs the bench and returns the number of failed validity checks.
fn run() -> roadpart::Result<u32> {
    let args = parse_args();
    // (label, grid scale, spider rings, spider spokes) — all three rungs
    // put the road graph above the solver's dense cutoff, so the Lanczos
    // path (where the selective/workspace changes live) is what is timed.
    let sizes: [(&str, f64, usize, usize); 3] =
        [("S", 0.05, 8, 20), ("M", 0.12, 14, 30), ("L", 0.30, 22, 44)];
    let n_sizes = if args.smoke { 1 } else { sizes.len() };
    let runs = if args.smoke { 1 } else { args.runs };
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pool = ThreadPool::new(host_threads.min(4));

    println!(
        "BENCH_pipeline: {} size(s), median of {runs} run(s), alloc counting: {}\n",
        n_sizes,
        alloc_count().is_some(),
    );

    let mut failures = 0u32;
    let mut records = Vec::new();
    // (segments, AG end-to-end speedup, alloc reduction) of the largest net.
    let mut largest: Option<(usize, f64, Option<f64>)> = None;

    for &(size, grid_scale, rings, spokes) in &sizes[..n_sizes] {
        for case in build_networks(grid_scale, rings, spokes, args.seed) {
            let n = case.net.segment_count();
            println!("[{size}] {} — {n} segments", case.family);
            let mut scheme_records = Vec::new();
            let mut ag_speedup = f64::NAN;
            for scheme in [Scheme::AG, Scheme::ASG] {
                let base_cfg = baseline_cfg(scheme, args.seed, pool);
                let opt_cfg = optimized_cfg(scheme, args.seed, pool);
                let base = sample_pipeline(&case.net, &case.densities, &base_cfg, runs)?;
                let opt = sample_pipeline(&case.net, &case.densities, &opt_cfg, runs)?;
                for (tag, s) in [("baseline", &base), ("optimized", &opt)] {
                    if !s.is_valid() {
                        eprintln!(
                            "FAIL [{size} {} {scheme:?} {tag}]: invalid sample",
                            case.family
                        );
                        failures += 1;
                    }
                }
                let speedup = base.total_ms / opt.total_ms.max(1e-9);
                if matches!(scheme, Scheme::AG) {
                    ag_speedup = speedup;
                }
                println!(
                    "  {scheme:>4?}: baseline {:.1} ms, optimized {:.1} ms ({speedup:.2}x)",
                    base.total_ms, opt.total_ms
                );
                scheme_records.push(json!({
                    "scheme": format!("{scheme:?}"),
                    "baseline": base.to_json(),
                    "optimized": opt.to_json(),
                    "end_to_end_speedup": speedup,
                }));
            }
            let spectral = spectral_stage_record(&case, args.seed, pool, &mut failures)?;
            if largest.map_or(true, |(seg, _, _)| n > seg) {
                let red = spectral["eigensolve"]["alloc_reduction"].as_f64();
                largest = Some((n, ag_speedup, red));
            }
            records.push(json!({
                "size": size,
                "network": case.family,
                "segments": n,
                "k": K,
                "schemes": scheme_records,
                "spectral_stage": spectral,
            }));
        }
    }

    let largest_rec = largest.map(|(seg, speedup, red)| {
        println!(
            "\nlargest network: {seg} segments, AG end-to-end speedup {speedup:.2}x, \
             spectral-stage alloc reduction {red:?}"
        );
        json!({
            "segments": seg,
            "ag_end_to_end_speedup": speedup,
            "spectral_alloc_reduction": red,
        })
    });

    write_json(
        "BENCH_pipeline",
        &json!({
            "bench": "pipeline",
            "seed": args.seed,
            "runs": runs,
            "smoke": args.smoke,
            "k": K,
            "host_threads": host_threads,
            "alloc_counting": alloc_count().is_some(),
            "baseline_config": "ReorthPolicy::Full + KMeansConfig{prune: false} + fresh workspace",
            "optimized_config": "ReorthPolicy::Selective + KMeansConfig{prune: true} + retained workspace",
            "networks": records,
            "largest": largest_rec,
        }),
    );

    Ok(failures)
}

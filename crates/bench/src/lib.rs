//! # roadpart-bench
//!
//! Shared harness for the experiment binaries that regenerate every table
//! and figure of Anwar et al. (EDBT 2014). Each binary accepts
//!
//! ```text
//! --scale <f64>   dataset scale; 1.0 = paper-sized networks   (default varies)
//! --seed  <u64>   master RNG seed                              (default 42)
//! --runs  <usize> repetitions for median-based protocols       (default varies)
//! --kmax  <usize> upper bound of the k sweep                   (default varies)
//! ```
//!
//! and writes a machine-readable JSON record to `target/experiments/`.

use roadpart::prelude::*;
use roadpart_net::RoadGraph;
use std::path::PathBuf;

/// Parsed command-line arguments shared by all experiment binaries.
#[derive(Debug, Clone)]
pub struct ExpArgs {
    /// Dataset scale in `(0, 1]`; 1.0 reproduces paper-sized networks.
    pub scale: f64,
    /// Master seed.
    pub seed: u64,
    /// Repetitions for median protocols (the paper uses 100 for Figure 4).
    pub runs: usize,
    /// Upper bound of k sweeps.
    pub kmax: usize,
}

impl ExpArgs {
    /// Parses `--scale/--seed/--runs/--kmax` with experiment-specific
    /// defaults.
    pub fn parse(default_scale: f64, default_runs: usize, default_kmax: usize) -> Self {
        let mut out = Self {
            scale: default_scale,
            seed: 42,
            runs: default_runs,
            kmax: default_kmax,
        };
        let mut args = std::env::args().skip(1);
        while let Some(flag) = args.next() {
            let value = args.next();
            let parse_f = |v: &Option<String>| v.as_ref().and_then(|s| s.parse::<f64>().ok());
            let parse_u = |v: &Option<String>| v.as_ref().and_then(|s| s.parse::<u64>().ok());
            match flag.as_str() {
                "--scale" => {
                    if let Some(v) = parse_f(&value) {
                        out.scale = v.clamp(1e-3, 1.0);
                    }
                }
                "--seed" => {
                    if let Some(v) = parse_u(&value) {
                        out.seed = v;
                    }
                }
                "--runs" => {
                    if let Some(v) = parse_u(&value) {
                        out.runs = (v as usize).max(1);
                    }
                }
                "--kmax" => {
                    if let Some(v) = parse_u(&value) {
                        out.kmax = (v as usize).max(2);
                    }
                }
                other => eprintln!("warning: ignoring unknown flag {other}"),
            }
        }
        out
    }
}

/// Median of a sample (destructive); 0.0 for an empty slice.
pub fn median(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    roadpart_linalg::ord::sort_f64(xs);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        0.5 * (xs[mid - 1] + xs[mid])
    }
}

/// Where a record was measured: the checkout's git revision
/// (`git describe --always --dirty`; null outside a git checkout) and the
/// host's OS, architecture, CPU model and hardware thread count.
pub fn provenance() -> serde_json::Value {
    let git_rev = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        });
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    serde_json::json!({
        "git_rev": git_rev,
        "host": {
            "os": std::env::consts::OS,
            "arch": std::env::consts::ARCH,
            "cpu": cpu,
            "threads": threads,
        },
    })
}

/// Writes an experiment record to `target/experiments/<name>.json`.
pub fn write_json(name: &str, value: &serde_json::Value) {
    let dir = PathBuf::from("target/experiments");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create {dir:?}: {e}");
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match std::fs::write(
        &path,
        serde_json::to_string_pretty(value).expect("serializable"),
    ) {
        Ok(()) => println!("\n[json] {}", path.display()),
        Err(e) => eprintln!("warning: cannot write {path:?}: {e}"),
    }
}

/// Builds the evaluation-ready road graph of a dataset (dual graph with the
/// evaluation-step densities as features).
///
/// # Errors
/// Propagates graph-construction failures.
pub fn eval_graph(dataset: &Dataset) -> roadpart::Result<RoadGraph> {
    let mut graph = RoadGraph::from_network(&dataset.network)?;
    graph.set_features(dataset.eval_densities().to_vec())?;
    Ok(graph)
}

/// Runs a scheme `runs` times with distinct seeds and returns the median of
/// each quality metric — the paper's "median values of evaluation metrics
/// obtained from 100 executions" protocol (§6.3).
///
/// # Errors
/// Propagates scheme failures.
pub fn median_quality(
    graph: &RoadGraph,
    scheme: Scheme,
    k: usize,
    runs: usize,
    seed: u64,
) -> roadpart::Result<QualityReport> {
    let affinity = roadpart_cut::gaussian_affinity(graph.adjacency(), graph.features())?;
    let mut inter = Vec::with_capacity(runs);
    let mut intra = Vec::with_capacity(runs);
    let mut gdbi = Vec::with_capacity(runs);
    let mut ans = Vec::with_capacity(runs);
    let mut alpha = Vec::with_capacity(runs);
    let mut ncut = Vec::with_capacity(runs);
    let mut modularity = Vec::with_capacity(runs);
    let mut k_out = 0;
    for r in 0..runs.max(1) {
        let cfg = FrameworkConfig::default().with_seed(seed.wrapping_add(r as u64 * 7919));
        let out = roadpart::run_scheme(graph, scheme, k, &cfg)?;
        let rep = QualityReport::compute(&affinity, graph.features(), out.partition.labels());
        inter.push(rep.inter);
        intra.push(rep.intra);
        gdbi.push(rep.gdbi);
        ans.push(rep.ans);
        alpha.push(rep.alpha_cut);
        ncut.push(rep.ncut);
        modularity.push(rep.modularity);
        k_out = rep.k;
    }
    Ok(QualityReport {
        k: k_out,
        inter: median(&mut inter),
        intra: median(&mut intra),
        gdbi: median(&mut gdbi),
        ans: median(&mut ans),
        alpha_cut: median(&mut alpha),
        ncut: median(&mut ncut),
        modularity: median(&mut modularity),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn median_quality_runs() {
        let ds = roadpart::datasets::d1(0.2, 3).unwrap();
        let graph = eval_graph(&ds).unwrap();
        let rep = median_quality(&graph, Scheme::ASG, 3, 2, 3).unwrap();
        assert!(rep.k >= 2);
        assert!(rep.ans.is_finite());
    }
}

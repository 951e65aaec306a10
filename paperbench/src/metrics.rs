//! The metric catalog. `BENCHMARK.json` lists the same names, units and
//! directions; the benchmark's tests hold the two in step.

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// Printed by every `--trace 0` run, on every workload.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", "lower"),
    m("op_s", "s", "lower"),
    m("peak_rss_mb", "MB", "lower"),
];

/// Names of [`END_TO_END`]: every workload measures all of them.
pub const END_TO_END_NAMES: &[&str] = &["setup_s", "op_s", "peak_rss_mb"];

/// Printed by every `--trace 1` run; 0 where a layer is idle on the
/// workload (not in its [`measured`] list).
pub const PER_LAYER: &[MetricDef] = &[
    m("net.generate_s", "s", "lower"),
    m("net.dual_graph_s", "s", "lower"),
    m("net.segments", "count", "higher"),
    m("traffic.generate_s", "s", "lower"),
    m("traffic.background_s", "s", "lower"),
    m("traffic.departed", "count", "higher"),
    m("traffic.completed", "count", "higher"),
    m("traffic.unroutable", "count", "lower"),
    m("traffic.us_per_departed", "us", "lower"),
    m("core.mine_s", "s", "lower"),
    m("core.supernodes", "count", "lower"),
    m("core.kappa_shortlist", "count", "lower"),
    m("cut.affinity_s", "s", "lower"),
    m("cut.refine_s", "s", "lower"),
    m("cut.fine_partitions", "count", "lower"),
    m("cut.k_error", "count", "lower"),
    m("linalg.embedding_s", "s", "lower"),
    m("linalg.solver_attempts", "count", "lower"),
    m("linalg.solver_failures", "count", "lower"),
    m("linalg.attempt_yield", "ratio", "higher"),
    m("linalg.ws_fresh_allocs", "count", "lower"),
    m("cluster.kmeans_s", "s", "lower"),
    m("cluster.components_s", "s", "lower"),
    m("eval.quality_s", "s", "lower"),
    m("eval.gdbi_ag", "index", "lower"),
    m("eval.gdbi_asg", "index", "lower"),
    m("stream.epoch_ms", "ms", "lower"),
    m("stream.global", "count", "lower"),
    m("stream.regional", "count", "lower"),
    m("stream.noop", "count", "higher"),
    m("stream.solve_attempts", "count", "lower"),
    m("stream.warm_started", "count", "higher"),
    m("serve.oracle_build_s", "s", "lower"),
    m("serve.refresh_ms", "ms", "lower"),
    m("serve.replan_ms", "ms", "lower"),
    m("serve.query_us", "us", "lower"),
    m("serve.query_p99_us", "us", "lower"),
    m("serve.settled_per_query", "count", "lower"),
    m("serve.overlay_share", "ratio", "lower"),
    m("serve.boundary_nodes", "count", "lower"),
    m("serve.overlay_edges", "count", "lower"),
    m("serve.dijkstra_us", "us", "lower"),
    m("trace.overhead_frac", "ratio", "lower"),
];

/// Measured counts that are 0 in a healthy run: no unroutable trip, exact
/// k, no failed solver attempt, no workspace allocation (a small graph is
/// solved densely), no no-op epoch.
pub const MAY_BE_ZERO: &[&str] = &[
    "traffic.unroutable",
    "cut.k_error",
    "linalg.solver_failures",
    "linalg.ws_fresh_allocs",
    "stream.noop",
];

/// The per-layer metrics a traced run of `workload` measures. Each must be
/// reported, finite and, outside [`MAY_BE_ZERO`], non-zero, or the run
/// fails its checks.
pub fn measured(workload: &str) -> &'static [&'static str] {
    match workload {
        "datagen-m1" => &[
            "net.generate_s",
            "net.segments",
            "traffic.generate_s",
            "traffic.background_s",
            "traffic.departed",
            "traffic.completed",
            "traffic.unroutable",
            "traffic.us_per_departed",
            "trace.overhead_frac",
        ],
        "partition-m3" => &[
            "net.generate_s",
            "net.dual_graph_s",
            "net.segments",
            "core.mine_s",
            "core.supernodes",
            "core.kappa_shortlist",
            "cut.affinity_s",
            "cut.refine_s",
            "cut.fine_partitions",
            "cut.k_error",
            "linalg.embedding_s",
            "linalg.solver_attempts",
            "linalg.solver_failures",
            "linalg.attempt_yield",
            "linalg.ws_fresh_allocs",
            "cluster.kmeans_s",
            "cluster.components_s",
            "eval.quality_s",
            "eval.gdbi_ag",
            "eval.gdbi_asg",
            "trace.overhead_frac",
        ],
        "replan-m1" => &[
            "net.generate_s",
            "net.segments",
            "stream.epoch_ms",
            "stream.global",
            "stream.regional",
            "stream.noop",
            "stream.solve_attempts",
            "stream.warm_started",
            "serve.oracle_build_s",
            "serve.refresh_ms",
            "serve.replan_ms",
            "serve.query_us",
            "serve.query_p99_us",
            "serve.settled_per_query",
            "serve.overlay_share",
            "serve.boundary_nodes",
            "serve.overlay_edges",
            "serve.dijkstra_us",
            "trace.overhead_frac",
        ],
        _ => &[],
    }
}

//! The benchmark's own tests, on tiny networks: every metric is printed
//! with its unit, and corrupted outputs trip the output checks.

use roadpart::{FrameworkConfig, PartitionMode, PipelineConfig, Scheme};
use roadpart_net::UrbanConfig;
use roadpart_paperbench::checks::Checks;
use roadpart_paperbench::metrics::{measured, MetricDef, END_TO_END, MAY_BE_ZERO, PER_LAYER};
use roadpart_paperbench::pipeline::partition_and_score;
use roadpart_paperbench::replan::{od_pairs, verify_routes};
use roadpart_paperbench::spectral::check_repeats;
use roadpart_paperbench::{check_reported, result_line, run, Args, Outcome, WORKLOADS};
use roadpart_serve::{exact_route, CostModel, QueryContext, SegmentGraph};
use roadpart_traffic::{CongestionField, TemporalProfile};

/// Network scale factor for the tests (M3 at 0.02 is ~1.6k segments).
const TINY: f64 = 0.02;

fn args(workload: &str, trace: bool) -> Args {
    Args {
        workload: workload.to_string(),
        seed: 3,
        seconds: 0.01,
        trace,
        scale: TINY,
    }
}

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

fn printed(line: &str, d: &MetricDef) -> bool {
    let key = format!("\"{}\": {{\"value\": ", d.name);
    let Some(at) = line.find(&key) else {
        return false;
    };
    let rest = &line[at + key.len()..];
    let value_end = rest.find(',').unwrap_or(0);
    let value: Result<f64, _> = rest[..value_end].trim().parse();
    value.is_ok() && rest[value_end..].starts_with(&format!(", \"unit\": \"{}\"}}", d.unit))
}

#[test]
fn every_metric_is_printed_with_its_unit() {
    for w in WORKLOADS {
        for trace in [false, true] {
            let a = args(w, trace);
            let out = run(&a);
            assert!(
                out.checks.all_passed(),
                "{w} trace={trace}: {:?}",
                out.checks.reasons
            );
            let line = result_line(&a, &out);
            let defs = if trace { PER_LAYER } else { END_TO_END };
            for d in defs {
                assert!(
                    printed(&line, d),
                    "{w} trace={trace}: {} missing in {line}",
                    d.name
                );
            }
            if trace {
                assert!(!measured(w).is_empty(), "{w} measures no layer");
                for name in measured(w) {
                    let v = out.metrics.get(name).copied();
                    let ok = v
                        .is_some_and(|v| v.is_finite() && (v != 0.0 || MAY_BE_ZERO.contains(name)));
                    assert!(ok, "{w}: per-layer metric {name} is {v:?}");
                }
            } else {
                for d in END_TO_END {
                    let v = out.metrics.get(d.name).copied().unwrap_or(0.0);
                    assert!(v > 0.0, "{w}: end-to-end metric {} is {v}", d.name);
                }
            }
        }
    }
}

#[test]
fn unreported_metrics_fail_the_run_and_print_null() {
    let a = args("partition-m3", true);
    let mut out = Outcome::default();
    for name in measured("partition-m3") {
        out.metrics.insert(name, 1.0);
    }
    out.metrics.remove("linalg.embedding_s");
    out.metrics.insert("cluster.kmeans_s", f64::NAN);
    out.metrics.insert("core.mine_s", 0.0);
    check_reported(&a, &mut out);
    assert_eq!(out.checks.failed, 3, "{:?}", out.checks.reasons);
    let line = result_line(&a, &out);
    for name in ["linalg.embedding_s", "cluster.kmeans_s"] {
        let null = format!("\"{name}\": {{\"value\": null, ");
        assert!(line.contains(&null), "{name} not null in {line}");
    }
    // Idle layers print 0.
    assert!(line.contains("\"serve.query_us\": {\"value\": 0.0, "));
}

#[test]
fn benchmark_json_lists_the_printed_metrics() {
    let json = benchmark_json();
    for d in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
            d.name, d.unit, d.better
        );
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    let names = json.matches("\"name\": ").count();
    assert_eq!(names, END_TO_END.len() + PER_LAYER.len() + WORKLOADS.len());
    for w in WORKLOADS {
        assert!(json.contains(&format!("{{\"name\": \"{w}\", \"why\": ")));
    }
}

#[test]
fn corrupted_labels_trip_the_label_check() {
    let net = UrbanConfig::m1().scaled(TINY).generate(5).unwrap();
    let field = CongestionField::urban_default(&net, 5);
    let d = field.densities(&net, 0.3, &TemporalProfile::morning());
    let cfg = PipelineConfig {
        scheme: Scheme::ASG,
        k: 4,
        framework: FrameworkConfig::default().with_seed(5),
        mode: PartitionMode::Flat,
    };
    let a = partition_and_score(&net, &d, &cfg).unwrap();
    let b = partition_and_score(&net, &d, &cfg).unwrap();
    let mut checks = Checks::default();
    check_repeats(&mut checks, &["ASG"], &[vec![a.clone()], vec![b]]);
    assert!(checks.all_passed(), "{:?}", checks.reasons);

    let mut corrupt = a.clone();
    let last = corrupt.labels.len() - 1;
    corrupt.labels[last] = (corrupt.labels[last] + 1) % corrupt.k;
    check_repeats(&mut checks, &["ASG"], &[vec![a], vec![corrupt]]);
    assert_eq!(checks.failed, 1);
    assert!(
        checks.reasons[0].contains("labels differ"),
        "{:?}",
        checks.reasons
    );
}

#[test]
fn corrupted_route_cost_trips_the_route_check() {
    let net = UrbanConfig::m1().scaled(TINY).generate(5).unwrap();
    let g = SegmentGraph::from_network(&net, CostModel::FreeFlowTime).unwrap();
    let pairs: Vec<_> = od_pairs(&g, 11).into_iter().take(20).collect();
    let mut ctx = QueryContext::new();
    let mut costs: Vec<f64> = pairs
        .iter()
        .map(|&(a, b)| exact_route(&g, a, b, &mut ctx).unwrap().0)
        .collect();
    let mut checks = Checks::default();
    verify_routes(&g, &pairs, &costs, 1, "test", &mut checks).unwrap();
    assert!(checks.all_passed(), "{:?}", checks.reasons);
    assert_eq!(checks.attempted, 21);

    costs[7] = f64::from_bits(costs[7].to_bits() + 1);
    let mut checks = Checks::default();
    verify_routes(&g, &pairs, &costs, 1, "test", &mut checks).unwrap();
    assert_eq!(checks.failed, 1);
    assert!(
        checks.reasons[0].contains("served cost"),
        "{:?}",
        checks.reasons
    );
}

#[test]
fn options_are_validated() {
    let ok: Vec<String> = [
        "--workload",
        "replan-m1",
        "--seed",
        "1",
        "--seconds",
        "10",
        "--trace",
        "0",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    assert!(Args::parse(&ok).is_ok());
    for (i, bad) in ["nope", "x", "-1", "2"].iter().enumerate() {
        let mut argv = ok.clone();
        argv[2 * i + 1] = bad.to_string();
        assert!(Args::parse(&argv).is_err(), "accepted {argv:?}");
    }
    assert!(Args::parse(&ok[..6]).is_err(), "accepted a missing --trace");
    let mut scaled = ok.clone();
    scaled.extend(["--scale".to_string(), "0.5".to_string()]);
    assert!(Args::parse(&scaled).is_err(), "accepted --scale");
    assert_eq!(Args::parse(&ok).unwrap().scale, 1.0);
}

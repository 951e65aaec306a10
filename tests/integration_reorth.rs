//! Differential test for the ω-monitored selective reorthogonalization
//! policy (PR 5): on the real spectral operators the pipeline solves —
//! the α-Cut matrix `M = d dᵀ / (1ᵀD1) − A` and the normalized Laplacian
//! `I − D^{-1/2} A D^{-1/2}` of grid and spider-web affinity graphs —
//! [`ReorthPolicy::Selective`] must produce the same eigenpairs as
//! [`ReorthPolicy::Full`] up to a `1e-9`-scaled residual, not merely up to
//! the solver's convergence tolerance.
//!
//! `dense_cutoff` is forced to zero so the iterative Lanczos path (the
//! only code the policy touches) runs even though the exact dense solver
//! would normally absorb networks of this size.

use roadpart::prelude::*;
use roadpart_linalg::{
    sym_eigs_ws, CsrMatrix, DiagScaledOp, EigenConfig, RankOneUpdate, ReorthPolicy, SymOp, Which,
    Workspace,
};

/// Eigenpairs requested from every operator.
const NEV: usize = 6;
/// Residual / eigenvalue agreement tolerance, relative to the largest
/// Ritz value magnitude (a cheap proxy for the operator norm).
const TOL: f64 = 1e-9;

/// Affinity graphs of one grid (scaled M1) and one spider-web network.
fn affinity_graphs(seed: u64) -> Vec<(&'static str, CsrMatrix)> {
    use rand::SeedableRng;
    let grid = UrbanConfig::m1()
        .scaled(0.05)
        .generate(seed)
        .expect("grid generation is total for valid scales");
    let spider = {
        let cfg = roadpart_net::synth::spider::SpiderConfig {
            rings: 8,
            spokes: 20,
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
            let mut graph = RoadGraph::from_network(&net).unwrap();
            graph.set_features(densities).unwrap();
            let affinity =
                roadpart_cut::gaussian_affinity(graph.adjacency(), graph.features()).unwrap();
            (family, affinity)
        })
        .collect()
}

fn eigen_cfg(policy: ReorthPolicy) -> EigenConfig {
    EigenConfig {
        // Force the Lanczos path: the dense solver ignores the policy.
        dense_cutoff: 0,
        // Converge well below the 1e-9 comparison tolerance so the
        // differential assertions measure the policy, not the stopping rule.
        tol: 1e-11,
        reorth: policy,
        ..EigenConfig::default()
    }
}

/// `‖op v − θ v‖₂` for column `j` of `vectors`.
fn residual(op: &impl SymOp, vectors: &roadpart_linalg::DenseMatrix, theta: f64, j: usize) -> f64 {
    let n = op.dim();
    let v: Vec<f64> = (0..n).map(|i| vectors.get(i, j)).collect();
    let mut mv = vec![0.0; n];
    op.apply(&v, &mut mv);
    mv.iter()
        .zip(&v)
        .map(|(m, x)| (m - theta * x).powi(2))
        .sum::<f64>()
        .sqrt()
}

/// Solves `op` under both policies and checks (a) every Ritz pair of both
/// solves satisfies the scaled residual bound and (b) the spectra agree.
fn check_operator(name: &str, op: &impl SymOp) {
    let full_cfg = eigen_cfg(ReorthPolicy::Full);
    let full = sym_eigs_ws(op, NEV, Which::Smallest, &full_cfg, &mut Workspace::new())
        .unwrap_or_else(|e| panic!("{name}: full-reorth solve failed: {e}"));
    let sel_cfg = eigen_cfg(ReorthPolicy::Selective);
    let sel = sym_eigs_ws(op, NEV, Which::Smallest, &sel_cfg, &mut Workspace::new())
        .unwrap_or_else(|e| panic!("{name}: selective solve failed: {e}"));
    assert_eq!(full.values.len(), NEV, "{name}: full solve pair count");
    assert_eq!(sel.values.len(), NEV, "{name}: selective solve pair count");

    let scale = full
        .values
        .iter()
        .chain(&sel.values)
        .fold(1.0f64, |m, v| m.max(v.abs()));
    for j in 0..NEV {
        let rf = residual(op, &full.vectors, full.values[j], j);
        let rs = residual(op, &sel.vectors, sel.values[j], j);
        assert!(
            rf <= TOL * scale,
            "{name}: full-reorth residual {j}: {rf:.3e} > {:.3e}",
            TOL * scale
        );
        assert!(
            rs <= TOL * scale,
            "{name}: selective residual {j}: {rs:.3e} > {:.3e}",
            TOL * scale
        );
        let dv = (full.values[j] - sel.values[j]).abs();
        assert!(
            dv <= TOL * scale,
            "{name}: eigenvalue {j} disagrees: full {} vs selective {} (|Δ| = {dv:.3e})",
            full.values[j],
            sel.values[j]
        );
    }
}

#[test]
fn selective_matches_full_on_alpha_cut_operators() {
    for (family, affinity) in affinity_graphs(23) {
        let d = affinity.degrees();
        let s: f64 = d.iter().sum();
        assert!(s > 0.0, "{family}: affinity graph has edges");
        let op = RankOneUpdate::new(&affinity, d, 1.0 / s, -1.0).unwrap();
        check_operator(&format!("{family}/alpha"), &op);
    }
}

#[test]
fn selective_matches_full_on_normalized_laplacians() {
    for (family, affinity) in affinity_graphs(29) {
        let d_inv_sqrt: Vec<f64> = affinity
            .degrees()
            .iter()
            .map(|&x| if x > 0.0 { 1.0 / x.sqrt() } else { 0.0 })
            .collect();
        let op = DiagScaledOp::new(&affinity, d_inv_sqrt, -1.0, 1.0).unwrap();
        check_operator(&format!("{family}/nlap"), &op);
    }
}

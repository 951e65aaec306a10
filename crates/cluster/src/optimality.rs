//! Cluster-count optimality measures (paper §4.2).
//!
//! Three measures over a clustering of scalar values:
//!
//! * **clustering gain** Δ(C) (Jung et al. \[6\]) — maximized at the optimal
//!   number of clusters;
//! * **clustering balance** E(C) (Jung et al. \[6\]) — minimized at the
//!   optimal number of clusters;
//! * **moderated clustering gain (MCG)** Θ(C) (Eq. 1) — the paper's novel
//!   measure: clustering gain per cluster, moderated by a compactness factor
//!   `Θ₂ ∈ [0, 1]` that discounts sparse, diffuse clusters.

use crate::error::{ClusterError, Result};
use crate::kmeans1d::{kmeans_1d, kmeans_1d_sweep, KMeans1d};
use serde::{Deserialize, Serialize};

/// Per-cluster summary statistics shared by all three measures.
struct ClusterStats {
    size: usize,
    /// Squared distance of the cluster mean from the global mean.
    mean_gap_sq: f64,
    /// Within-cluster sum of squared errors.
    intra_sq: f64,
}

fn cluster_stats(values: &[f64], assignments: &[usize], kappa: usize) -> Result<Vec<ClusterStats>> {
    if values.len() != assignments.len() {
        return Err(ClusterError::InvalidInput(format!(
            "values ({}) and assignments ({}) differ in length",
            values.len(),
            assignments.len()
        )));
    }
    if let Some(&bad) = assignments.iter().find(|&&a| a >= kappa) {
        return Err(ClusterError::InvalidInput(format!(
            "assignment {bad} out of range for kappa = {kappa}"
        )));
    }
    let global_mean = if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    };
    let mut sums = vec![0.0f64; kappa];
    let mut counts = vec![0usize; kappa];
    for (&v, &a) in values.iter().zip(assignments) {
        sums[a] += v;
        counts[a] += 1;
    }
    let means: Vec<f64> = sums
        .iter()
        .zip(&counts)
        .map(|(&s, &c)| if c > 0 { s / c as f64 } else { 0.0 })
        .collect();
    let mut intra = vec![0.0f64; kappa];
    for (&v, &a) in values.iter().zip(assignments) {
        let d = v - means[a];
        intra[a] += d * d;
    }
    Ok((0..kappa)
        .map(|q| ClusterStats {
            size: counts[q],
            mean_gap_sq: (means[q] - global_mean) * (means[q] - global_mean),
            intra_sq: intra[q],
        })
        .collect())
}

/// Clustering gain `Δ(C) = Σ_q (|C_q| - 1) ||μ_q - μ_0||²` — higher is
/// better. Empty clusters contribute nothing.
///
/// # Errors
/// Returns [`ClusterError::InvalidInput`] on shape mismatch or out-of-range
/// assignments.
pub fn clustering_gain(values: &[f64], assignments: &[usize], kappa: usize) -> Result<f64> {
    Ok(cluster_stats(values, assignments, kappa)?
        .iter()
        .filter(|s| s.size > 0)
        .map(|s| (s.size as f64 - 1.0) * s.mean_gap_sq)
        .sum())
}

/// Clustering balance `E(C) = Λ_intra + Λ_inter` where
/// `Λ_intra = Σ_q Σ_{d∈C_q} ||d - μ_q||²` and
/// `Λ_inter = Σ_q ||μ_q - μ_0||²` (unweighted, Jung et al. \[6\]) — lower is
/// better. Note the identity `gain + balance = Σ_i ||d_i - μ_0||²` (total
/// SSE), which is why maximizing the gain and minimizing the balance select
/// the same optimum — the equivalence \[6\] proves and the paper relies on.
///
/// # Errors
/// Same conditions as [`clustering_gain`].
pub fn clustering_balance(values: &[f64], assignments: &[usize], kappa: usize) -> Result<f64> {
    let stats = cluster_stats(values, assignments, kappa)?;
    let intra: f64 = stats.iter().map(|s| s.intra_sq).sum();
    let inter: f64 = stats
        .iter()
        .filter(|s| s.size > 0)
        .map(|s| s.mean_gap_sq)
        .sum();
    Ok(intra + inter)
}

/// Moderated clustering gain `Θ(C)` (Eq. 1) — higher is better.
///
/// `Θ = Σ_q Θ₁(C_q) · Θ₂(C_q)` with `Θ₁ = (|C_q| - 1) ||μ_q - μ_0||²` (the
/// per-cluster gain) and
/// `Θ₂ = 1 - log₂(1 + intra_q / (|C_q| ||μ_q - μ_0||²))` clamped to `[0, 1]`
/// (the paper states `Θ₂ ∈ [0, 1]`; the raw formula can dip below zero for
/// very diffuse clusters, so we clamp — see DESIGN.md). Clusters whose mean
/// coincides with the global mean contribute zero.
///
/// # Errors
/// Same conditions as [`clustering_gain`].
pub fn mcg(values: &[f64], assignments: &[usize], kappa: usize) -> Result<f64> {
    let stats = cluster_stats(values, assignments, kappa)?;
    Ok(stats
        .iter()
        .filter(|s| s.size > 0 && s.mean_gap_sq > 0.0)
        .map(|s| {
            let theta1 = (s.size as f64 - 1.0) * s.mean_gap_sq;
            let ratio = s.intra_sq / (s.size as f64 * s.mean_gap_sq);
            let theta2 = (1.0 - (1.0 + ratio).log2()).clamp(0.0, 1.0);
            theta1 * theta2
        })
        .sum())
}

/// One point of an optimality sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OptimalityPoint {
    /// Number of clusters requested from k-means.
    pub kappa: usize,
    /// Moderated clustering gain Θ (maximize).
    pub mcg: f64,
    /// Clustering gain Δ (maximize).
    pub gain: f64,
    /// Clustering balance E (minimize).
    pub balance: f64,
}

/// Evaluates all three measures on one clustering.
fn measure_point(values: &[f64], km: &KMeans1d, kappa: usize) -> Result<OptimalityPoint> {
    Ok(OptimalityPoint {
        kappa,
        mcg: mcg(values, &km.assignments, kappa)?,
        gain: clustering_gain(values, &km.assignments, kappa)?,
        balance: clustering_balance(values, &km.assignments, kappa)?,
    })
}

/// Solves 1-D k-means for every `kappa` in `kappas` and evaluates all three
/// optimality measures — the data behind Figure 5 and the ablation study.
///
/// All `kappa` targets share **one** DP sweep to the largest of them (see
/// [`kmeans_1d_sweep`]): each clustering — and therefore every measure — is
/// bitwise-identical to an independent [`kmeans_1d`] run, but the DP cost
/// drops from `Σκ` layers to `max κ`. [`optimality_sweep_legacy`] keeps the
/// historical per-`kappa` resolve as the oracle for differential tests.
///
/// # Errors
/// Propagates k-means failures (`kappa` out of range, non-finite values).
pub fn optimality_sweep(
    values: &[f64],
    kappas: impl IntoIterator<Item = usize>,
) -> Result<Vec<OptimalityPoint>> {
    let kappas: Vec<usize> = kappas.into_iter().collect();
    let Some(&kappa_hi) = kappas.iter().max() else {
        return Ok(Vec::new());
    };
    // Invalid requests (kappa = 0 or > n) must surface the same error the
    // per-kappa path would raise, not a sweep-construction artifact.
    if let Some(&bad) = kappas.iter().find(|&&k| k == 0 || k > values.len()) {
        return Err(ClusterError::BadClusterCount {
            requested: bad,
            points: values.len(),
        });
    }
    let sweep = kmeans_1d_sweep(values, kappa_hi)?;
    let mut out = Vec::with_capacity(kappas.len());
    for kappa in kappas {
        let km = sweep.extract(kappa)?;
        out.push(measure_point(values, &km, kappa)?);
    }
    Ok(out)
}

/// The pre-shared-sweep [`optimality_sweep`]: an independent DP re-solve
/// per `kappa`. Produces bitwise-identical output at `Σκ`-layer cost; kept
/// as the reference side of the shared-vs-legacy differential tests.
///
/// # Errors
/// Propagates k-means failures (`kappa` out of range, non-finite values).
pub fn optimality_sweep_legacy(
    values: &[f64],
    kappas: impl IntoIterator<Item = usize>,
) -> Result<Vec<OptimalityPoint>> {
    let mut out = Vec::new();
    for kappa in kappas {
        let km = kmeans_1d(values, kappa)?;
        out.push(measure_point(values, &km, kappa)?);
    }
    Ok(out)
}

/// The `kappa` whose MCG is maximal in a sweep (the paper's optimal `θ`);
/// `None` for an empty sweep.
pub fn mcg_argmax(sweep: &[OptimalityPoint]) -> Option<usize> {
    roadpart_linalg::ord::max_by_f64_key(sweep.iter(), |p| p.mcg).map(|p| p.kappa)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three clearly separated scalar blobs.
    fn three_blobs() -> Vec<f64> {
        let mut v = Vec::new();
        for centre in [0.0, 10.0, 25.0] {
            for i in 0..20 {
                v.push(centre + (i as f64 * 0.7).sin() * 0.3);
            }
        }
        v
    }

    #[test]
    fn mcg_peaks_at_true_cluster_count() {
        let values = three_blobs();
        let sweep = optimality_sweep(&values, 2..=8).unwrap();
        assert_eq!(mcg_argmax(&sweep), Some(3), "sweep: {sweep:?}");
    }

    #[test]
    fn shared_sweep_bitwise_matches_legacy_per_kappa_resolve() {
        let values: Vec<f64> = (0..300)
            .map(|i| ((i * 53) % 271) as f64 * 0.17 + ((i % 7) as f64) * 0.01)
            .collect();
        let shared = optimality_sweep(&values, 2..=24).unwrap();
        let legacy = optimality_sweep_legacy(&values, 2..=24).unwrap();
        assert_eq!(shared.len(), legacy.len());
        for (s, l) in shared.iter().zip(&legacy) {
            assert_eq!(s.kappa, l.kappa);
            assert_eq!(s.mcg.to_bits(), l.mcg.to_bits(), "kappa {}", s.kappa);
            assert_eq!(s.gain.to_bits(), l.gain.to_bits(), "kappa {}", s.kappa);
            assert_eq!(
                s.balance.to_bits(),
                l.balance.to_bits(),
                "kappa {}",
                s.kappa
            );
        }
        // Non-contiguous and unordered kappa sets go through the same path.
        let subset = optimality_sweep(&values, [9usize, 3, 17]).unwrap();
        let subset_legacy = optimality_sweep_legacy(&values, [9usize, 3, 17]).unwrap();
        for (s, l) in subset.iter().zip(&subset_legacy) {
            assert_eq!(s.kappa, l.kappa);
            assert_eq!(s.mcg.to_bits(), l.mcg.to_bits());
        }
        // Error parity for out-of-range requests.
        assert!(optimality_sweep(&values, [0usize]).is_err());
        assert!(optimality_sweep(&values, [values.len() + 1]).is_err());
        assert!(optimality_sweep(&values, Vec::new()).unwrap().is_empty());
    }

    #[test]
    fn gain_and_balance_move_oppositely() {
        // Gain rises then saturates; balance dips at the optimum.
        let values = three_blobs();
        let sweep = optimality_sweep(&values, 2..=6).unwrap();
        let at = |kappa: usize| sweep.iter().find(|p| p.kappa == kappa).unwrap();
        assert!(at(3).gain > at(2).gain);
        assert!(at(3).balance < at(2).balance);
    }

    #[test]
    fn theta2_moderation_discounts_diffuse_clusters() {
        // Compact clusters: MCG close to plain gain.
        let compact = three_blobs();
        let km = kmeans_1d(&compact, 3).unwrap();
        let g = clustering_gain(&compact, &km.assignments, 3).unwrap();
        let m = mcg(&compact, &km.assignments, 3).unwrap();
        assert!(m <= g + 1e-9);
        assert!(m > 0.8 * g, "compact data should keep most of the gain");

        // A cluster whose internal scatter rivals its separation is heavily
        // moderated: values {-3, 3} around mean 0 vs a far singleton.
        // Cluster 0: gap^2 = (0 - 10/3)^2 ~ 11.1, intra = 18,
        // ratio = 18 / (2 * 11.1) ~ 0.81, theta2 = 1 - log2(1.81) ~ 0.14.
        let values = [-3.0, 3.0, 10.0];
        let labels = [0usize, 0, 1];
        let g = clustering_gain(&values, &labels, 2).unwrap();
        let m = mcg(&values, &labels, 2).unwrap();
        assert!(g > 10.0);
        assert!(
            m < 0.2 * g,
            "diffuse cluster should be moderated: {m} vs {g}"
        );
    }

    #[test]
    fn gain_plus_balance_equals_total_sse() {
        let values = three_blobs();
        let total: f64 = {
            let mu = values.iter().sum::<f64>() / values.len() as f64;
            values.iter().map(|v| (v - mu) * (v - mu)).sum()
        };
        for kappa in 1..6 {
            let km = kmeans_1d(&values, kappa).unwrap();
            let g = clustering_gain(&values, &km.assignments, kappa).unwrap();
            let b = clustering_balance(&values, &km.assignments, kappa).unwrap();
            assert!(
                (g + b - total).abs() < 1e-6,
                "kappa={kappa}: gain {g} + balance {b} != total {total}"
            );
        }
    }

    #[test]
    fn mcg_clamps_to_nonnegative_terms() {
        // A single cluster holding everything has mu_q == mu_0: zero MCG.
        let values = [1.0, 2.0, 3.0];
        let m = mcg(&values, &[0, 0, 0], 1).unwrap();
        assert_eq!(m, 0.0);
    }

    #[test]
    fn empty_cluster_tolerated() {
        let values = [1.0, 1.0, 9.0];
        // Cluster 1 empty.
        let m = mcg(&values, &[0, 0, 2], 3).unwrap();
        assert!(m.is_finite());
        let g = clustering_gain(&values, &[0, 0, 2], 3).unwrap();
        assert!(g >= 0.0);
    }

    #[test]
    fn input_validation() {
        assert!(mcg(&[1.0], &[0, 1], 2).is_err());
        assert!(mcg(&[1.0, 2.0], &[0, 5], 2).is_err());
        assert!(clustering_balance(&[1.0], &[2], 1).is_err());
    }

    #[test]
    fn balance_is_sum_of_error_terms() {
        // Hand-computed: values {0, 2} in one cluster; mean 1; global mean 1.
        // intra = 1 + 1 = 2; inter = 2 * 0 = 0.
        let b = clustering_balance(&[0.0, 2.0], &[0, 0], 1).unwrap();
        assert!((b - 2.0).abs() < 1e-12);
    }
}

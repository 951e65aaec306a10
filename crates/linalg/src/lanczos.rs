//! Matrix-free symmetric Lanczos with ω-monitored selective
//! reorthogonalization, deflated restarts, and the unified
//! partial-eigendecomposition entry point [`sym_eigs_ws`].
//!
//! The partitioning stack needs the `k` *smallest* eigenpairs of the α-Cut
//! matrix and of the normalized Laplacian. Both are extremal, which is
//! exactly what Lanczos converges first. Two numerical hazards matter here:
//!
//! * **loss of orthogonality** — monitored with Simon's ω-recurrence: a
//!   cheap running estimate of the worst inner product between the new
//!   Lanczos vector and the existing basis. While the estimate stays below
//!   `√ε` the basis is *semiorthogonal* (Ritz values remain accurate to
//!   `O(ε‖A‖)`) and no reorthogonalization is spent; when it crosses the
//!   threshold, a full two-pass reorthogonalization restores orthogonality
//!   and the recurrence resets. [`ReorthPolicy::Full`] switches back to the
//!   historical unconditional two-pass reorthogonalization bit-for-bit (it
//!   is the fallback ladder's choice, see [`crate::fallback`]);
//! * **degenerate eigenvalues** — a single Krylov sequence can never produce
//!   two eigenvectors of the same eigenvalue (disconnected supergraphs have
//!   multi-dimensional Laplacian kernels!), so converged Ritz pairs are
//!   *locked* and the iteration restarts deflated against them until the
//!   requested count is reached. The locked set is orthogonalized against
//!   every iteration regardless of policy — deflation is a correctness
//!   constraint, not a performance knob.
//!
//! All scratch buffers come from a caller-owned [`Workspace`] pool, so a
//! warm solve (the steady state of online repartitioning) runs the restart
//! loop allocation-free; one-shot callers pass `&mut Workspace::new()`.

use crate::dense::DenseMatrix;
use crate::eigen_dense::eigh;
use crate::error::{LinalgError, Result};
use crate::operator::SymOp;
use crate::par::ThreadPool;
use crate::tridiag::tql2;
use crate::vecops;
use crate::workspace::Workspace;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Which end of the spectrum to compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Which {
    /// The algebraically smallest eigenvalues.
    Smallest,
    /// The algebraically largest eigenvalues.
    Largest,
}

/// How aggressively the Lanczos basis is reorthogonalized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReorthPolicy {
    /// Unconditional two-pass reorthogonalization against the locked set
    /// and the whole basis, every iteration. Bit-identical to the
    /// historical solver; kept for the fallback ladder.
    Full,
    /// ω-recurrence-monitored selective reorthogonalization: orthogonalize
    /// against the (small) locked set every iteration, but sweep the full
    /// basis only when the orthogonality estimate crosses `√ε`.
    #[default]
    Selective,
}

/// Hard cap on the Krylov subspace dimension per restart.
const MAX_SUBSPACE: usize = 400;

/// Configuration for [`sym_eigs_ws`].
#[derive(Debug, Clone)]
pub struct EigenConfig {
    /// Below this dimension the operator is densified (one apply per unit
    /// vector) and solved exactly with [`eigh`]. Default: 512.
    pub dense_cutoff: usize,
    /// Maximum number of deflated restarts. Default: 24.
    pub max_restarts: usize,
    /// Relative residual tolerance for Ritz-pair convergence. Default: 1e-8.
    pub tol: f64,
    /// Seed for the random starting vectors.
    pub seed: u64,
    /// Reorthogonalization policy. Default: [`ReorthPolicy::Selective`];
    /// the fallback ladder pins its relaxed rungs to [`ReorthPolicy::Full`].
    pub reorth: ReorthPolicy,
    /// Optional warm-start subspace: an `n x m` matrix whose columns are
    /// approximate eigenvectors from a previous, nearby solve (e.g. the last
    /// repartitioning epoch). Each restart seeds its Krylov sequence with the
    /// combination of the still-unconverged columns instead of a random
    /// vector. The hint is orthonormalized defensively against the locked
    /// set and silently ignored when its dimensions disagree with the
    /// operator or its entries are non-finite, so a stale hint can never
    /// corrupt a solve — at worst it degrades to the cold start.
    pub start: Option<DenseMatrix>,
    /// Thread pool for the operator applications. Results are bit-identical
    /// at every pool size (see [`crate::par`]), so this is purely a
    /// performance knob. Default: [`ThreadPool::from_env`]
    /// (`ROADPART_THREADS`, serial fallback).
    pub pool: ThreadPool,
}

impl Default for EigenConfig {
    fn default() -> Self {
        Self {
            dense_cutoff: 512,
            max_restarts: 24,
            tol: 1e-8,
            seed: 0x5eed_1a27,
            reorth: ReorthPolicy::default(),
            start: None,
            pool: ThreadPool::from_env(),
        }
    }
}

/// A partial symmetric eigendecomposition: `nev` eigenpairs.
#[derive(Debug, Clone)]
pub struct PartialEigen {
    /// Selected eigenvalues, always sorted ascending.
    pub values: Vec<f64>,
    /// `n x nev` matrix whose column `j` is the eigenvector of `values[j]`.
    pub vectors: DenseMatrix,
    /// Total Lanczos iterations (operator applications) spent across all
    /// restarts; `0` for dense solves. Warm starts show up here as a lower
    /// count for the same spectrum.
    pub iterations: usize,
}

impl PartialEigen {
    /// Copies eigenvector `j`.
    pub fn vector(&self, j: usize) -> Vec<f64> {
        self.vectors.col(j)
    }
}

/// Computes `nev` extremal eigenpairs of a symmetric operator, drawing
/// every scratch buffer from `ws`.
///
/// Small operators (`dim <= cfg.dense_cutoff`) are densified and solved
/// exactly; larger ones go through deflated-restart Lanczos. Repeated solves
/// against operators of similar dimension (the online repartitioning loop)
/// reuse the pooled buffers and run the Lanczos iteration allocation-free
/// after the first call.
///
/// # Errors
/// Returns [`LinalgError::InvalidInput`] if `nev > op.dim()`, and
/// [`LinalgError::NotConverged`] if Lanczos exhausts its restart budget
/// without locking `nev` pairs at the requested tolerance.
pub fn sym_eigs_ws(
    op: &impl SymOp,
    nev: usize,
    which: Which,
    cfg: &EigenConfig,
    ws: &mut Workspace,
) -> Result<PartialEigen> {
    let n = op.dim();
    if nev > n {
        return Err(LinalgError::InvalidInput(format!(
            "requested {nev} eigenpairs of a dimension-{n} operator"
        )));
    }
    if nev == 0 {
        return Ok(PartialEigen {
            values: vec![],
            vectors: DenseMatrix::zeros(n, 0),
            iterations: 0,
        });
    }
    if n <= cfg.dense_cutoff {
        let dense = densify_with(op, &cfg.pool);
        let dec = eigh(&dense)?;
        let idx: Vec<usize> = match which {
            Which::Smallest => (0..nev).collect(),
            Which::Largest => (n - nev..n).collect(),
        };
        let values: Vec<f64> = idx.iter().map(|&i| dec.values[i]).collect();
        let vectors = DenseMatrix::from_fn(n, nev, |r, c| dec.vectors.get(r, idx[c]));
        return Ok(PartialEigen {
            values,
            vectors,
            iterations: 0,
        });
    }
    lanczos_deflated(op, nev, which, cfg, ws)
}

/// Materializes a matrix-free operator by applying it to every unit vector.
/// The result is symmetrized to wash out round-off asymmetry.
pub fn densify(op: &impl SymOp) -> DenseMatrix {
    densify_with(op, &ThreadPool::serial())
}

/// [`densify`] with the operator applications distributed over `pool`.
pub fn densify_with(op: &impl SymOp, pool: &ThreadPool) -> DenseMatrix {
    let n = op.dim();
    let mut a = DenseMatrix::zeros(n, n);
    let mut e = vec![0.0; n];
    let mut col = vec![0.0; n];
    for j in 0..n {
        e[j] = 1.0;
        op.apply_par(pool, &e, &mut col);
        for (i, &c) in col.iter().enumerate() {
            a.set(i, j, c);
        }
        e[j] = 0.0;
    }
    // Symmetrize in place: A <- (A + A^T) / 2.
    for i in 0..n {
        for j in (i + 1)..n {
            let v = 0.5 * (a.get(i, j) + a.get(j, i));
            a.set(i, j, v);
            a.set(j, i, v);
        }
    }
    a
}

/// Outer driver: restart Lanczos in the orthogonal complement of the locked
/// eigenvectors until `nev` pairs are locked.
fn lanczos_deflated(
    op: &impl SymOp,
    nev: usize,
    which: Which,
    cfg: &EigenConfig,
    ws: &mut Workspace,
) -> Result<PartialEigen> {
    let n = op.dim();
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let mut locked_vals: Vec<f64> = Vec::with_capacity(nev);
    let mut locked_vecs: Vec<Vec<f64>> = Vec::with_capacity(nev);
    let mut total_iters = 0usize;

    for _restart in 0..cfg.max_restarts {
        if locked_vals.len() >= nev {
            // Verification pass: a single Krylov sequence converges only one
            // copy of each degenerate eigenvalue, so the locked set may hold
            // one eigenpair per *distinct* value and miss a multiplicity that
            // belongs in the wanted set. Probe the deflated complement: if
            // its extremal eigenvalue beats the current k-th selected value,
            // a copy was missed — lock it and probe again.
            if locked_vecs.len() >= n {
                break;
            }
            let probe = lanczos_run(op, 1, which, cfg, &locked_vecs, &mut rng, None, ws)?;
            total_iters += probe.iterations;
            let first_val = probe.values.first().copied();
            let mut vec_iter = probe.vectors.into_iter();
            let first_vec = vec_iter.next();
            for v in vec_iter {
                ws.put(v);
            }
            let Some((new_val, new_vec)) = first_val.zip(first_vec) else {
                break; // nothing converged in the complement; accept result
            };
            let scale = locked_vals
                .iter()
                .fold(1.0f64, |a, &x| a.max(x.abs()))
                .max(new_val.abs());
            let gap = 1e-7 * scale;
            let kth = kth_selected(&locked_vals, nev, which, ws);
            let improves = match which {
                Which::Smallest => new_val < kth - gap,
                Which::Largest => new_val > kth + gap,
            };
            if !improves {
                ws.put(new_vec);
                break;
            }
            locked_vals.push(new_val);
            locked_vecs.push(new_vec);
            continue;
        }
        let need = nev - locked_vals.len();
        let hint = warm_hint(cfg.start.as_ref(), n, locked_vals.len(), nev, ws);
        let run = lanczos_run(
            op,
            need,
            which,
            cfg,
            &locked_vecs,
            &mut rng,
            hint.as_deref(),
            ws,
        )?;
        if let Some(h) = hint {
            ws.put(h);
        }
        total_iters += run.iterations;
        if run.values.is_empty() {
            // No progress in a full inner run: further restarts are hopeless.
            return Err(LinalgError::NotConverged {
                iterations: total_iters,
                context: "Lanczos (no Ritz pair converged within subspace cap)",
            });
        }
        for (val, vec) in run.values.into_iter().zip(run.vectors) {
            if !val.is_finite() {
                return Err(LinalgError::NonFinite {
                    context: "Lanczos Ritz value",
                });
            }
            locked_vals.push(val);
            locked_vecs.push(vec);
        }
    }

    if locked_vals.len() < nev {
        return Err(LinalgError::NotConverged {
            iterations: total_iters,
            context: "Lanczos (restart budget exhausted)",
        });
    }

    // Sort the locked pairs ascending and keep the wanted `nev`. Values are
    // finite (checked at lock time), so total_cmp agrees with the usual
    // numeric order while never panicking.
    let mut order: Vec<usize> = (0..locked_vals.len()).collect();
    order.sort_by(|&a, &b| locked_vals[a].total_cmp(&locked_vals[b]));
    let selected: Vec<usize> = match which {
        Which::Smallest => order[..nev].to_vec(),
        Which::Largest => order[order.len() - nev..].to_vec(),
    };
    let values: Vec<f64> = selected.iter().map(|&i| locked_vals[i]).collect();
    let mut vectors = DenseMatrix::zeros(n, nev);
    for (c, &i) in selected.iter().enumerate() {
        for (r, &v) in locked_vecs[i].iter().enumerate() {
            vectors.set(r, c, v);
        }
    }
    for v in locked_vecs {
        ws.put(v);
    }
    Ok(PartialEigen {
        values,
        vectors,
        iterations: total_iters,
    })
}

/// Combines the not-yet-locked warm-start columns into one Krylov seed.
/// Returns `None` when no usable hint exists (wrong dimensions, non-finite
/// entries, or every wanted column already locked). The returned buffer
/// belongs to `ws`; the caller puts it back.
fn warm_hint(
    start: Option<&DenseMatrix>,
    n: usize,
    locked: usize,
    nev: usize,
    ws: &mut Workspace,
) -> Option<Vec<f64>> {
    let s = start?;
    if s.rows() != n || s.cols() == 0 || locked >= nev.min(s.cols()) {
        return None;
    }
    let mut hint = ws.take_zeroed(n);
    for c in locked..nev.min(s.cols()) {
        for (r, h) in hint.iter_mut().enumerate() {
            *h += s.get(r, c);
        }
    }
    if hint.iter().all(|v| v.is_finite()) {
        Some(hint)
    } else {
        ws.put(hint);
        None
    }
}

/// The k-th selected eigenvalue from the wanted end: for `Smallest` the
/// `nev`-th smallest locked value, for `Largest` the `nev`-th largest.
fn kth_selected(vals: &[f64], nev: usize, which: Which, ws: &mut Workspace) -> f64 {
    let mut sorted = ws.take_copy(vals);
    sorted.sort_by(f64::total_cmp);
    let kth = match which {
        Which::Smallest => sorted[nev - 1],
        Which::Largest => sorted[sorted.len() - nev],
    };
    ws.put(sorted);
    kth
}

/// Result of one inner Lanczos run: converged extremal Ritz pairs.
struct RunResult {
    values: Vec<f64>,
    vectors: Vec<Vec<f64>>,
    iterations: usize,
}

/// Running ω-recurrence state for selective reorthogonalization.
///
/// `cur[k]` estimates the inner product between the newest basis vector
/// `q_j` and the older `q_k`; `prev` is the same row for `q_{j-1}`. The
/// recurrence (Simon 1984) propagates these through the three-term Lanczos
/// relation for the cost of O(j) flops per iteration — no dot products.
struct OmegaState {
    prev: Vec<f64>,
    cur: Vec<f64>,
    next: Vec<f64>,
    /// `√n·ε` — the round-off floor each estimate is reset to.
    eps1: f64,
    /// `√ε` — the semiorthogonality threshold that triggers a full sweep.
    threshold: f64,
    /// Pair the triggered sweep with one on the following iteration, the
    /// classical way to also clean the vector that *caused* the growth.
    force_next: bool,
}

impl OmegaState {
    fn new(n: usize, m_max: usize, ws: &mut Workspace) -> Self {
        let eps = f64::EPSILON;
        Self {
            prev: ws.take_zeroed(m_max + 1),
            cur: ws.take_zeroed(m_max + 1),
            next: ws.take_zeroed(m_max + 1),
            eps1: (n as f64).sqrt() * eps,
            threshold: eps.sqrt(),
            force_next: false,
        }
    }

    /// Propagates the recurrence to the row of the unnormalized new vector
    /// `w` (`‖w‖ = beta`) and reports whether a full sweep is required.
    /// `alphas` holds `α_0..α_j`, `betas` holds `β_0..β_{j-1}`.
    fn advance_and_check(&mut self, alphas: &[f64], betas: &[f64], beta: f64) -> bool {
        let j = alphas.len() - 1;
        if self.force_next || beta <= 0.0 {
            return true;
        }
        let alpha_j = alphas[j];
        let mut worst = 0.0f64;
        for k in 0..j {
            let cur_at = |i: usize| if i == j { 1.0 } else { self.cur[i] };
            let prev_at = |i: usize| if i + 1 == j { 1.0 } else { self.prev[i] };
            let mut t = betas[k] * cur_at(k + 1) + (alphas[k] - alpha_j) * cur_at(k);
            if k > 0 {
                t += betas[k - 1] * cur_at(k - 1);
            }
            if j > 0 {
                t -= betas[j - 1] * prev_at(k);
            }
            let est = t / beta;
            self.next[k] = est + self.eps1.copysign(est);
            worst = worst.max(self.next[k].abs());
        }
        self.next[j] = self.eps1;
        worst > self.threshold
    }

    /// Records that a full sweep ran: both live rows drop to the round-off
    /// floor and the paired follow-up sweep is armed (or disarmed, when this
    /// sweep *was* the follow-up).
    fn record_full_sweep(&mut self, basis_len: usize) {
        for k in 0..=basis_len.min(self.cur.len() - 1) {
            self.cur[k] = self.eps1;
            self.next[k] = self.eps1;
        }
        self.force_next = !self.force_next;
    }

    /// Rotates the rows after the new vector joins the basis.
    fn rotate(&mut self) {
        std::mem::swap(&mut self.prev, &mut self.cur);
        std::mem::swap(&mut self.cur, &mut self.next);
    }

    fn release(self, ws: &mut Workspace) {
        ws.put(self.prev);
        ws.put(self.cur);
        ws.put(self.next);
    }
}

/// One Lanczos run in the orthogonal complement of `locked`, returning up to
/// `need` converged Ritz pairs from the wanted end of the spectrum. When a
/// warm-start `hint` is supplied it seeds the Krylov sequence (after
/// defensive orthonormalization) and convergence is checked more eagerly,
/// since a good hint converges within a handful of iterations.
#[allow(clippy::too_many_arguments)]
fn lanczos_run(
    op: &impl SymOp,
    need: usize,
    which: Which,
    cfg: &EigenConfig,
    locked: &[Vec<f64>],
    rng: &mut ChaCha8Rng,
    hint: Option<&[f64]>,
    ws: &mut Workspace,
) -> Result<RunResult> {
    let n = op.dim();
    let m_max = MAX_SUBSPACE.min(n - locked.len()).max(1);
    let selective = cfg.reorth == ReorthPolicy::Selective;

    let mut basis: Vec<Vec<f64>> = Vec::with_capacity(m_max);
    let mut alphas: Vec<f64> = Vec::with_capacity(m_max);
    let mut betas: Vec<f64> = Vec::with_capacity(m_max);
    let mut omega = OmegaState::new(n, m_max, ws);

    let seeded = hint.and_then(|h| orthonormalized_seed(h, locked, ws));
    let check_stride = if seeded.is_some() { 4 } else { 20 };
    let mut q = match seeded {
        Some(seed) => seed,
        None => fresh_direction(n, locked, &[], rng, ws)?,
    };
    let mut w = ws.take_zeroed(n);
    let mut exhausted_complement = false;
    let mut run_out: Option<RunResult> = None;

    while basis.len() < m_max {
        op.apply_par_ws(&cfg.pool, ws, &q, &mut w);
        let alpha = vecops::dot(&w, &q);
        vecops::axpy(-alpha, &q, &mut w);
        // Basis vectors and betas are pushed in lockstep, so both are
        // present or both absent.
        if let (Some(prev), Some(&beta_prev)) = (basis.last(), betas.last()) {
            vecops::axpy(-beta_prev, prev, &mut w);
        }
        basis.push(std::mem::replace(&mut q, ws.take_zeroed(n)));
        alphas.push(alpha);

        // Scale estimate for the breakdown/convergence thresholds; it
        // depends only on the tridiagonal entries, not on `w`.
        let scale = alphas
            .iter()
            .fold(0.0f64, |a, &x| a.max(x.abs()))
            .max(betas.iter().fold(0.0f64, |a, &x| a.max(x.abs())))
            .max(1.0);

        let beta = if selective {
            // Strict deflation: project the locked eigenvectors out every
            // iteration no matter what the ω estimates say.
            for _ in 0..2 {
                for b in locked {
                    let c = vecops::dot(&w, b);
                    if c != 0.0 {
                        vecops::axpy(-c, b, &mut w);
                    }
                }
            }
            let beta_est = vecops::norm2(&w);
            if omega.advance_and_check(&alphas, &betas, beta_est) {
                full_reorth(locked, &basis, &mut w);
                omega.record_full_sweep(basis.len());
                vecops::norm2(&w)
            } else {
                omega.force_next = false;
                beta_est
            }
        } else {
            // Historical unconditional path, bit-for-bit.
            full_reorth(locked, &basis, &mut w);
            vecops::norm2(&w)
        };

        if beta <= 1e-12 * scale {
            // Invariant subspace of the complement: every Ritz pair is exact.
            if basis.len() + locked.len() >= n {
                exhausted_complement = true;
                break;
            }
            match fresh_direction(n, locked, &basis, rng, ws) {
                Ok(fresh) => {
                    betas.push(0.0);
                    ws.put(std::mem::replace(&mut q, fresh));
                    // The fresh vector is explicitly orthogonal to the whole
                    // basis; restart the ω rows at the round-off floor.
                    omega.record_full_sweep(basis.len());
                    omega.force_next = false;
                    omega.rotate();
                    continue;
                }
                Err(_) => {
                    exhausted_complement = true;
                    break;
                }
            }
        }

        // Periodic convergence check (tridiagonal solve is O(j^3); keep rare).
        let j = basis.len();
        if j >= need.min(m_max) && (j == m_max || j % check_stride == 0) {
            let (theta, s) = solve_tridiag(&alphas, &betas, ws)?;
            let count = converged_extremal(&theta, &s, beta, which, cfg.tol, scale);
            let done = (count >= need || j == m_max) && count > 0;
            if done {
                run_out = Some(extract_pairs(
                    &basis,
                    &theta,
                    &s,
                    which,
                    count.min(need),
                    locked,
                    ws,
                ));
            }
            let stop = done || (j == m_max && count == 0 && count < need);
            ws.put(theta);
            ws.put_matrix(s);
            if stop {
                break;
            }
        }

        vecops::scale(1.0 / beta, &mut w);
        betas.push(beta);
        std::mem::swap(&mut q, &mut w);
        omega.rotate();
    }

    let result = match run_out {
        Some(r) => r,
        None if basis.is_empty() => RunResult {
            values: vec![],
            vectors: vec![],
            iterations: 0,
        },
        None => {
            // Final solve on whatever subspace we accumulated.
            let (theta, s) = solve_tridiag(&alphas, &betas, ws)?;
            let count = if exhausted_complement {
                // Exact invariant subspace: every pair is converged.
                theta.len()
            } else {
                let last_beta = betas.last().copied().unwrap_or(0.0);
                let scale = theta.iter().fold(1.0f64, |a, &x| a.max(x.abs()));
                converged_extremal(&theta, &s, last_beta, which, cfg.tol, scale)
            };
            let out = extract_pairs(&basis, &theta, &s, which, count.min(need), locked, ws);
            ws.put(theta);
            ws.put_matrix(s);
            out
        }
    };

    for b in basis {
        ws.put(b);
    }
    ws.put(q);
    ws.put(w);
    omega.release(ws);
    Ok(result)
}

/// Two-pass classical Gram-Schmidt of `w` against the locked set and the
/// whole basis — the historical full reorthogonalization sweep.
fn full_reorth(locked: &[Vec<f64>], basis: &[Vec<f64>], w: &mut [f64]) {
    for _ in 0..2 {
        for b in locked.iter().chain(basis.iter()) {
            let c = vecops::dot(w, b);
            if c != 0.0 {
                vecops::axpy(-c, b, w);
            }
        }
    }
}

/// Counts how many Ritz pairs are converged, contiguously from the wanted
/// end of the spectrum (locking non-contiguous pairs could skip over a
/// not-yet-converged extremal eigenvalue).
fn converged_extremal(
    theta: &[f64],
    s: &DenseMatrix,
    beta: f64,
    which: Which,
    tol: f64,
    scale: f64,
) -> usize {
    let j = theta.len();
    let mut count = 0;
    for k in 0..j {
        let i = match which {
            Which::Smallest => k,
            Which::Largest => j - 1 - k,
        };
        let bound = beta * s.get(j - 1, i).abs();
        if bound <= tol * scale {
            count += 1;
        } else {
            break;
        }
    }
    count
}

/// Forms `count` Ritz vectors from the wanted end, re-orthogonalized against
/// the locked set. The returned vectors are pool buffers; whoever drops them
/// should put them back.
fn extract_pairs(
    basis: &[Vec<f64>],
    theta: &[f64],
    s: &DenseMatrix,
    which: Which,
    count: usize,
    locked: &[Vec<f64>],
    ws: &mut Workspace,
) -> RunResult {
    let j = theta.len();
    let n = basis.first().map_or(0, Vec::len);
    let mut values = Vec::with_capacity(count);
    let mut vectors: Vec<Vec<f64>> = Vec::with_capacity(count);
    for k in 0..count {
        let i = match which {
            Which::Smallest => k,
            Which::Largest => j - 1 - k,
        };
        let mut y = ws.take_zeroed(n);
        for (r, b) in basis.iter().enumerate() {
            vecops::axpy(s.get(r, i), b, &mut y);
        }
        for l in locked.iter().chain(vectors.iter()) {
            let c = vecops::dot(&y, l);
            vecops::axpy(-c, l, &mut y);
        }
        let nrm = vecops::norm2(&y);
        if nrm == 0.0 {
            ws.put(y);
            continue; // fully deflated direction; skip rather than emit junk
        }
        vecops::scale(1.0 / nrm, &mut y);
        values.push(theta[i]);
        vectors.push(y);
    }
    RunResult {
        values,
        vectors,
        iterations: j,
    }
}

/// Solves the `j x j` symmetric tridiagonal eigenproblem defined by
/// `alphas` (diagonal) and `betas` (couplings). Returns ascending
/// eigenvalues and the `j x j` eigenvector matrix, both backed by pool
/// buffers the caller returns with `put` / `put_matrix`.
fn solve_tridiag(
    alphas: &[f64],
    betas: &[f64],
    ws: &mut Workspace,
) -> Result<(Vec<f64>, DenseMatrix)> {
    let j = alphas.len();
    let mut d = ws.take_copy(alphas);
    let mut e = ws.take_zeroed(j);
    e[1..j].copy_from_slice(&betas[..j.saturating_sub(1)]);
    let mut z = ws.take_matrix_zeroed(j, j);
    for i in 0..j {
        z.set(i, i, 1.0);
    }
    let solved = tql2(&mut d, &mut e, &mut z);
    ws.put(e);
    match solved {
        Ok(()) => Ok((d, z)),
        Err(err) => {
            ws.put(d);
            ws.put_matrix(z);
            Err(err)
        }
    }
}

/// Defensive orthonormalization of a caller-supplied warm-start vector:
/// projects out the locked directions and normalizes. Returns `None` for a
/// hint with the wrong length, non-finite entries, or one that lies (almost)
/// entirely inside the locked subspace — callers fall back to a random
/// start, so a degenerate hint costs nothing.
fn orthonormalized_seed(hint: &[f64], locked: &[Vec<f64>], ws: &mut Workspace) -> Option<Vec<f64>> {
    if hint.iter().any(|v| !v.is_finite()) {
        return None;
    }
    let mut v = ws.take_copy(hint);
    for _ in 0..2 {
        for b in locked {
            if b.len() != v.len() {
                ws.put(v);
                return None;
            }
            let c = vecops::dot(&v, b);
            vecops::axpy(-c, b, &mut v);
        }
    }
    if vecops::normalize(&mut v) > 1e-8 {
        Some(v)
    } else {
        ws.put(v);
        None
    }
}

/// Draws a random unit vector orthogonal to `locked` and `basis`.
fn fresh_direction(
    n: usize,
    locked: &[Vec<f64>],
    basis: &[Vec<f64>],
    rng: &mut ChaCha8Rng,
    ws: &mut Workspace,
) -> Result<Vec<f64>> {
    let mut v = ws.take_zeroed(n);
    for _ in 0..8 {
        v.iter_mut().for_each(|x| *x = rng.gen_range(-1.0..1.0));
        for _ in 0..2 {
            for b in locked.iter().chain(basis.iter()) {
                let c = vecops::dot(&v, b);
                vecops::axpy(-c, b, &mut v);
            }
        }
        if vecops::normalize(&mut v) > 1e-8 {
            return Ok(v);
        }
    }
    ws.put(v);
    Err(LinalgError::NotConverged {
        iterations: 8,
        context: "Lanczos fresh-direction generation",
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrMatrix;
    use crate::operator::RankOneUpdate;

    /// Ring graph Laplacian as a CSR matrix (eigenvalues 2 - 2cos(2 pi k/n)).
    fn ring_laplacian(n: usize) -> CsrMatrix {
        let mut triplets = Vec::new();
        for i in 0..n {
            triplets.push((i, i, 2.0));
            triplets.push((i, (i + 1) % n, -1.0));
            triplets.push(((i + 1) % n, i, -1.0));
        }
        CsrMatrix::from_triplets(n, &triplets).unwrap()
    }

    fn solve(op: &impl SymOp, nev: usize, which: Which, cfg: &EigenConfig) -> Result<PartialEigen> {
        sym_eigs_ws(op, nev, which, cfg, &mut Workspace::new())
    }

    fn lanczos_cfg() -> EigenConfig {
        EigenConfig {
            dense_cutoff: 0, // force Lanczos even for small dims
            ..EigenConfig::default()
        }
    }

    #[test]
    fn smallest_of_ring_laplacian_with_degeneracy() {
        let n = 200;
        let a = ring_laplacian(n);
        let dec = solve(&a, 4, Which::Smallest, &lanczos_cfg()).unwrap();
        // lambda_0 = 0; lambda_1 = lambda_2 = 2 - 2cos(2 pi / n) (degenerate).
        let l1 = 2.0 - 2.0 * (2.0 * std::f64::consts::PI / n as f64).cos();
        assert!(dec.values[0].abs() < 1e-7, "lambda0 = {}", dec.values[0]);
        assert!((dec.values[1] - l1).abs() < 1e-6);
        assert!((dec.values[2] - l1).abs() < 1e-6, "degenerate copy missed");
        // Residual check against the operator itself.
        for j in 0..4 {
            let q = dec.vector(j);
            let mut aq = vec![0.0; n];
            a.apply(&q, &mut aq);
            for i in 0..n {
                assert!((aq[i] - dec.values[j] * q[i]).abs() < 1e-5);
            }
        }
        // Returned vectors are mutually orthonormal.
        for i in 0..4 {
            for j in i..4 {
                let dot = vecops::dot(&dec.vector(i), &dec.vector(j));
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((dot - expect).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn largest_matches_dense() {
        let n = 120;
        let a = ring_laplacian(n);
        let lan = solve(&a, 3, Which::Largest, &lanczos_cfg()).unwrap();
        let dense = eigh(&a.to_dense()).unwrap();
        for j in 0..3 {
            assert!(
                (lan.values[j] - dense.values[n - 3 + j]).abs() < 1e-6,
                "largest eigenvalue {j}: {} vs {}",
                lan.values[j],
                dense.values[n - 3 + j]
            );
        }
    }

    #[test]
    fn rank_one_operator_spectrum() {
        // M = d d^T / s - A for a weighted ring: validate against densified M.
        let n = 90;
        let a = ring_laplacian(n); // treat as generic symmetric sparse
        let d: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64).collect();
        let s: f64 = d.iter().sum();
        let op = RankOneUpdate::new(&a, d, 1.0 / s, -1.0).unwrap();
        let lan = solve(&op, 5, Which::Smallest, &lanczos_cfg()).unwrap();
        let dense = eigh(&densify(&op)).unwrap();
        for j in 0..5 {
            assert!(
                (lan.values[j] - dense.values[j]).abs() < 1e-6,
                "eigenvalue {j}: {} vs {}",
                lan.values[j],
                dense.values[j]
            );
        }
    }

    #[test]
    fn disconnected_graph_multiplicity() {
        // Two disjoint rings: Laplacian kernel has dimension 2; deflated
        // restarts must find both zero eigenvalues.
        let n = 60;
        let mut triplets = Vec::new();
        for half in 0..2 {
            let off = half * (n / 2);
            let m = n / 2;
            for i in 0..m {
                triplets.push((off + i, off + i, 2.0));
                triplets.push((off + i, off + (i + 1) % m, -1.0));
                triplets.push((off + (i + 1) % m, off + i, -1.0));
            }
        }
        let a = CsrMatrix::from_triplets(n, &triplets).unwrap();
        let dec = solve(&a, 3, Which::Smallest, &lanczos_cfg()).unwrap();
        assert!(dec.values[0].abs() < 1e-7);
        assert!(dec.values[1].abs() < 1e-7, "second zero: {}", dec.values[1]);
        assert!(dec.values[2] > 1e-4);
    }

    #[test]
    fn dense_path_used_below_cutoff() {
        let a = ring_laplacian(16);
        let dec = solve(&a, 2, Which::Smallest, &EigenConfig::default()).unwrap();
        assert!(dec.values[0].abs() < 1e-10);
        assert_eq!(dec.vectors.rows(), 16);
        assert_eq!(dec.vectors.cols(), 2);
    }

    #[test]
    fn nev_zero_and_too_large() {
        let a = ring_laplacian(10);
        let dec = solve(&a, 0, Which::Smallest, &EigenConfig::default()).unwrap();
        assert!(dec.values.is_empty());
        assert!(solve(&a, 11, Which::Smallest, &EigenConfig::default()).is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let a = ring_laplacian(150);
        let d1 = solve(&a, 3, Which::Smallest, &lanczos_cfg()).unwrap();
        let d2 = solve(&a, 3, Which::Smallest, &lanczos_cfg()).unwrap();
        assert_eq!(d1.values, d2.values);
    }

    #[test]
    fn warm_workspace_reuse_is_bit_identical_and_allocation_free() {
        let a = ring_laplacian(150);
        let cold = solve(&a, 3, Which::Smallest, &lanczos_cfg()).unwrap();
        let mut ws = Workspace::new();
        let first = sym_eigs_ws(&a, 3, Which::Smallest, &lanczos_cfg(), &mut ws).unwrap();
        let warm_fresh = ws.fresh_allocations();
        let second = sym_eigs_ws(&a, 3, Which::Smallest, &lanczos_cfg(), &mut ws).unwrap();
        assert_eq!(cold.values, first.values);
        assert_eq!(first.values, second.values);
        assert_eq!(
            first.vectors.as_slice(),
            second.vectors.as_slice(),
            "workspace reuse must not change results"
        );
        assert_eq!(
            ws.fresh_allocations(),
            warm_fresh,
            "steady-state solve drew every buffer from the pool"
        );
    }

    #[test]
    fn selective_matches_full_to_residual_tolerance() {
        let n = 200;
        let a = ring_laplacian(n);
        let full_cfg = EigenConfig {
            reorth: ReorthPolicy::Full,
            ..lanczos_cfg()
        };
        let sel_cfg = EigenConfig {
            reorth: ReorthPolicy::Selective,
            ..lanczos_cfg()
        };
        let full = solve(&a, 4, Which::Smallest, &full_cfg).unwrap();
        let sel = solve(&a, 4, Which::Smallest, &sel_cfg).unwrap();
        for j in 0..4 {
            assert!(
                (full.values[j] - sel.values[j]).abs() < 1e-7,
                "eigenvalue {j}: full {} vs selective {}",
                full.values[j],
                sel.values[j]
            );
            // Selective residuals must still satisfy the solver tolerance.
            let q = sel.vector(j);
            let mut aq = vec![0.0; n];
            a.apply(&q, &mut aq);
            let resid: f64 = aq
                .iter()
                .zip(&q)
                .map(|(av, qv)| (av - sel.values[j] * qv) * (av - sel.values[j] * qv))
                .sum::<f64>()
                .sqrt();
            assert!(resid < 1e-6, "selective residual {j}: {resid}");
        }
        // Selective keeps the basis semiorthogonal: returned eigenvectors
        // stay mutually orthonormal to working precision.
        for i in 0..4 {
            for j in i..4 {
                let dot = vecops::dot(&sel.vector(i), &sel.vector(j));
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((dot - expect).abs() < 1e-8, "orthonormality ({i},{j})");
            }
        }
    }

    #[test]
    fn warm_start_converges_in_fewer_iterations() {
        let n = 300;
        let a = ring_laplacian(n);
        let cold = solve(&a, 4, Which::Smallest, &lanczos_cfg()).unwrap();
        assert!(cold.iterations > 0, "Lanczos path must actually iterate");
        // Seed the next solve with the converged eigenvectors (the online
        // repartitioning pattern: epoch t+1 starts from epoch t's basis).
        let warm_cfg = EigenConfig {
            start: Some(cold.vectors.clone()),
            ..lanczos_cfg()
        };
        let warm = solve(&a, 4, Which::Smallest, &warm_cfg).unwrap();
        for j in 0..4 {
            assert!(
                (warm.values[j] - cold.values[j]).abs() < 1e-6,
                "eigenvalue {j}: warm {} vs cold {}",
                warm.values[j],
                cold.values[j]
            );
        }
        assert!(
            warm.iterations < cold.iterations,
            "warm start should converge faster: {} vs {} iterations",
            warm.iterations,
            cold.iterations
        );
    }

    #[test]
    fn degenerate_warm_start_is_ignored_not_fatal() {
        let n = 150;
        let a = ring_laplacian(n);
        // Wrong dimensions, zero columns, and non-finite entries must all
        // silently fall back to the cold start.
        for bad in [
            DenseMatrix::zeros(n / 2, 3),
            DenseMatrix::zeros(n, 3),
            DenseMatrix::from_fn(n, 3, |_, _| f64::NAN),
        ] {
            let cfg = EigenConfig {
                start: Some(bad),
                ..lanczos_cfg()
            };
            let dec = solve(&a, 3, Which::Smallest, &cfg).unwrap();
            assert!(dec.values[0].abs() < 1e-6);
        }
    }

    #[test]
    fn full_spectrum_request() {
        // nev == n exercises complement exhaustion.
        let n = 24;
        let a = ring_laplacian(n);
        let dec = solve(&a, n, Which::Smallest, &lanczos_cfg()).unwrap();
        let dense = eigh(&a.to_dense()).unwrap();
        for j in 0..n {
            assert!(
                (dec.values[j] - dense.values[j]).abs() < 1e-6,
                "eigenvalue {j}: {} vs {}",
                dec.values[j],
                dense.values[j]
            );
        }
    }
}

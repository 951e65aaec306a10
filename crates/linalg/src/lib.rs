//! # roadpart-linalg
//!
//! Dense and sparse symmetric linear algebra built from scratch for the
//! `roadpart` road-network partitioning stack.
//!
//! The spectral partitioning algorithms of Anwar et al. (EDBT 2014) need the
//! `k` smallest eigenpairs of two families of symmetric matrices:
//!
//! * the **α-Cut matrix** `M = d dᵀ / (1ᵀ D 1) − A` — dense, but a rank-one
//!   update of the sparse adjacency `A`, and
//! * the **normalized Laplacian** `L_sym = I − D^{-1/2} A D^{-1/2}` used by
//!   the normalized-cut baseline.
//!
//! Because mature sparse eigensolver crates are not available, this crate
//! implements the whole chain itself:
//!
//! * [`csr::CsrMatrix`] / [`dense::DenseMatrix`] — storage;
//! * [`operator::SymOp`] with [`operator::RankOneUpdate`] and
//!   [`operator::DiagScaledOp`] — matrix-free operators matching the two
//!   matrix families above;
//! * [`eigen_dense::eigh`] — Householder tridiagonalization + implicit-shift
//!   QL (the EISPACK `tred2`/`tql2` pair), exact for small/medium matrices;
//! * [`lanczos::sym_eigs_ws`] — matrix-free Lanczos with ω-monitored
//!   selective reorthogonalization for large instances, with automatic
//!   fallback to the dense path below a configurable cutoff;
//! * [`fallback::sym_eigs_recovering_ws`] — the same solve behind the
//!   solver fallback ladder;
//! * [`workspace::Workspace`] — a scratch-buffer pool threaded through both
//!   solves so warm solves run allocation-free;
//! * [`par::ThreadPool`] — a std-only chunked scoped-thread pool whose
//!   fixed chunk boundaries and ordered reductions make every parallel
//!   kernel bit-identical to its serial counterpart.

#![warn(missing_docs)]

pub mod csr;
pub mod dense;
pub mod eigen_dense;
pub mod error;
pub mod fallback;
pub mod lanczos;
pub mod operator;
pub mod ord;
pub mod par;
pub mod tridiag;
pub mod vecops;
pub mod workspace;

pub use csr::CsrMatrix;
pub use dense::DenseMatrix;
pub use eigen_dense::{eigh, EigenDecomposition};
pub use error::{LinalgError, Result};
pub use fallback::{
    sym_eigs_recovering_ws, FallbackConfig, FallbackRung, RecoveryEvent, RecoveryLog,
};
pub use lanczos::{
    densify, densify_with, sym_eigs_ws, EigenConfig, PartialEigen, ReorthPolicy, Which,
};
pub use operator::{DiagScaledOp, RankOneUpdate, SymOp};
pub use ord::{cmp_f64, max_by_f64_key, min_by_f64_key, sort_by_f64_key, sort_f64};
pub use par::ThreadPool;
pub use workspace::Workspace;

//! # roadpart-cut
//!
//! Spectral graph cuts for road-network partitioning — the algorithmic core
//! of Anwar et al. (EDBT 2014), §5:
//!
//! * [`alpha::alpha_cut`] — the paper's novel k-way **α-Cut**: minimize a
//!   per-partition balance of average cut and average association via the
//!   spectral relaxation of the matrix `M = (1ᵀD)ᵀ(1ᵀD)/(1ᵀD1) − A`;
//! * [`ncut::normalized_cut`] — the Shi–Malik normalized-cut baseline on
//!   the same pipeline;
//! * [`kway::spectral_partition_warm_ws`] — the shared Algorithm-3
//!   pipeline: embedding → row normalization (Eq. 8) → eigenspace k-means →
//!   within-cluster connected components → refinement to exactly `k`;
//! * [`embedding::embedding_recovering_ws`] — its first stage, the
//!   eigenvectors of either cut matrix behind the solver fallback ladder;
//! * [`refine`] — partition-connectivity condensation, global recursive
//!   bipartitioning, and largest-first splitting;
//! * [`affinity::gaussian_affinity`] — congestion-similarity weighting of
//!   binary road-graph links for the AG/NG direct schemes.

#![warn(missing_docs)]

pub mod affinity;
pub mod alpha;
pub mod bipartition;
pub mod embedding;
pub mod error;
pub mod kway;
pub mod ncut;
pub mod partition;
pub mod refine;

pub use affinity::{gaussian_affinity, gaussian_affinity_par};
pub use alpha::alpha_cut;
pub use bipartition::bipartition;
pub use embedding::{dense_alpha_matrix, embedding_recovering_ws, row_normalize, CutKind};
pub use error::{CutError, Result};
pub use kway::{spectral_partition_warm_ws, RefineStrategy, SpectralArtifacts, SpectralConfig};
pub use ncut::normalized_cut;
pub use partition::Partition;
pub use refine::{partition_connectivity, recursive_bipartition, split_to_k};

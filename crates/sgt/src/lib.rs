//! Sparse Graph Translation (SGT) — the paper's core algorithmic idea.
//!
//! SGT (Algorithm 1 in the paper) walks the adjacency matrix in *row
//! windows* of `TC_BLK_H = 16` rows. Within a window it collects every
//! referenced neighbor id, sorts and deduplicates them, and assigns each
//! distinct neighbor a consecutive *condensed column*. Non-zeros that were
//! scattered over up to `N` columns now occupy `nnz_unique` consecutive
//! columns, so the number of `16×8` TCU tiles that must be traversed drops
//! from `O(N / 8)` to `O(nnz_unique / 8)` per window — and each surviving
//! tile is much denser.
//!
//! The translation is pure metadata: [`TranslatedGraph`] keeps the original
//! CSR untouched and adds `winPartition` (TC blocks per window),
//! `edgeToCol` (condensed column of each edge) and `edgeToRow` (source row
//! of each edge, used by the kernels' shared-memory staging, Listing 2).
//! Output correctness is unaffected because condensation only *renames*
//! columns within a window and the kernels gather the matching rows of the
//! dense matrix through `sparse_AToX_index`.
//!
//! [`census()`] quantifies the effect for Figure 7(a); [`overhead`] provides
//! the preprocessing-cost accounting for Figure 7(b).

pub mod census;
pub mod delta;
pub mod overhead;
pub mod translate;

pub use census::{census, BlockCensus};
pub use delta::{DeltaReport, EdgeDelta};
pub use translate::{Sgt, SgtBuilder, TranslatedGraph};

/// Row-window height — `M` of the TF-32 MMA shape (paper: `TC_BLK_H = 16`).
pub const TC_BLK_H: usize = 16;
/// TCU operand tile width — `K` of the MMA shape (paper: `TC_BLK_W = 8`).
pub const TC_BLK_W: usize = 8;

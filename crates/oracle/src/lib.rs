//! Differential-testing and conformance oracle for TC-GNN.
//!
//! TC-GNN's correctness hinges on Sparse Graph Translation preserving exact
//! semantics while reshaping the nonzero layout (paper §4.1, Algorithm 1):
//! a translation bug does not crash — it silently aggregates the wrong
//! neighbors. This crate is the single conformance layer every kernel and
//! backend must pass:
//!
//! - [`golden`] — naive dense and scalar-CSR golden references for SpMM,
//!   SDDMM, softmax and the fused-attention pipeline, computed in `f64` by
//!   algorithms deliberately different from both the kernels and their
//!   existing CPU references;
//! - [`advgen`] — a seeded library of adversarial graph families (power-law,
//!   block-diagonal, empty rows, single hub, duplicate edges, near-dense,
//!   one node, window-boundary straddlers, …) built to hit SGT and kernel
//!   edge cases;
//! - [`diff`] — the differential runner: executes a (kernel, backend) pair —
//!   TCU path, CUDA-core fallback, or the cached-translation path from
//!   `tcg-serve` — against the golden reference with ULP-aware comparison
//!   ([`approx`]) and reports the first divergence located by row window,
//!   TC block, and element;
//! - [`metamorphic`] — properties that need no reference output: SGT
//!   row-permutation equivariance, feature-dim split invariance, and cost
//!   model monotonicity in nnz and dim;
//! - [`delta`] — the dynamic-graph law: incremental delta-translation must
//!   equal from-scratch translation *bitwise* over random edit scripts,
//!   with a script shrinker so failures reproduce in a few edges;
//! - [`refmodel`] — reference models of the simulator's own hot-path
//!   primitives (LRU cache, contiguous coalescer, TF-32 rounding), which
//!   the fast versions are property-tested against;
//! - [`shrink`](mod@shrink) — a greedy input minimizer that reduces a failing graph
//!   while preserving the failure, so repro cases stay small;
//! - [`conformance`] — the full backend × kernel × family matrix behind
//!   `tcgnn verify` and the `fuzz_kernels` binary.

pub mod advgen;
pub mod approx;
pub mod conformance;
pub mod delta;
pub mod diff;
pub mod golden;
pub mod metamorphic;
pub mod refmodel;
pub mod shrink;

pub use advgen::Family;
pub use approx::{approx_eq, first_mismatch, ulp_distance, Mismatch};
pub use conformance::{run_matrix, ConformanceReport, MatrixConfig};
pub use delta::{check_incremental, random_edit_script, shrink_edit_script, DeltaCheck};
pub use diff::{hybrid_dispatch_mask, run_case, BackendKind, Divergence, KernelKind};
pub use shrink::shrink;

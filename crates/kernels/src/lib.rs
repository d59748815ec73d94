//! GPU kernels for sparse GNN computation, on the simulated device.
//!
//! This crate contains the paper's contribution — the TC-GNN neighbor
//! aggregation ([`spmm::tcgnn`], Algorithm 2 / Listing 2) and edge-feature
//! computation ([`sddmm::tcgnn`], Algorithm 3 / Listing 3) kernels running
//! on simulated tensor cores — *and* every baseline its evaluation compares
//! against:
//!
//! | Paper baseline            | Module                      |
//! |---------------------------|-----------------------------|
//! | cuSPARSE CSR SpMM (DGL)   | [`spmm::cusparse`]          |
//! | GE-SpMM                   | [`spmm::gespmm`]            |
//! | torch-scatter (PyG)       | [`spmm::scatter`]           |
//! | Dense GEMM (cuBLAS)       | [`spmm::dense`]             |
//! | cuSPARSE Blocked-ELL      | [`spmm::bspmm`]             |
//! | tSparse                   | [`spmm::tsparse`]           |
//! | Triton block-sparse       | [`spmm::triton`]            |
//! | per-edge SDDMM (DGL)      | [`sddmm::cuda_core`]        |
//!
//! The last three SpMM modules hold policies over one tiled body (the
//! crate-private `spmm::tiling`): each module sets which tiles its kernel
//! walks, which path a tile takes, its program shape and its format's
//! charges.
//!
//! Every kernel executes *functionally* (tests compare its output against
//! the CPU references in [`common`]) while charging the gpusim cost model,
//! so each returns both a result matrix and a [`tcg_gpusim::KernelReport`].

pub mod common;
pub mod fused;
pub mod hybrid;
pub mod sddmm;
pub mod softmax;
pub mod spmm;

pub use common::{reference_sddmm, reference_spmm, SpmmProblem, TcgError};
pub use hybrid::{render_mask, DispatchPolicy, KernelClass, WindowBackend, WindowGeometry};

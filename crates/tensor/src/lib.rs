//! Dense tensor primitives for the TC-GNN reproduction.
//!
//! This crate provides the dense side of the system: a row-major
//! [`DenseMatrix`] with the small set of operations GNN computation needs
//! (GEMM, transpose, row reductions, activations), bit-exact
//! [TF-32](tf32) rounding emulation matching what NVIDIA tensor cores apply
//! to their inputs, and parameter initialization helpers.
//!
//! Everything here is plain Rust without intrinsics; the only `unsafe` is
//! the call into the update GEMMs' AVX-512 instantiations after run-time
//! feature detection. The "GPU" behaviour (fragments, shared
//! memory, cost accounting) lives in `tcg-gpusim`; this crate is the
//! numerical substrate both the simulated kernels and the CPU reference
//! implementations share.

pub mod error;
pub mod gemm;
pub mod init;
pub mod matrix;
pub mod ops;
pub mod tf32;

pub use error::TensorError;
pub use matrix::DenseMatrix;
pub use tf32::round_to_tf32;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TensorError>;

//! Software GPU execution model for the TC-GNN reproduction.
//!
//! The paper's kernels run on an NVIDIA RTX 3090; this environment has no
//! GPU, so every kernel in `tcg-kernels` runs against this crate instead.
//! The model has two halves that the launch harness ties together:
//!
//! 1. **Functional execution.** Kernels are ordinary Rust written at warp /
//!    block granularity against [`launch::BlockCtx`]: they really load data,
//!    really stage tiles, and really multiply
//!    fragments through [`wmma`] (with bit-exact TF-32 input rounding), so
//!    outputs are checked against CPU references in tests.
//!
//! 2. **Cost accounting.** Every warp-level action charges a
//!    [`stats::KernelStats`]: global loads run through the coalescer
//!    ([`coalesce`]) and a two-level cache simulator ([`cache`]), arithmetic
//!    charges the CUDA-core or TCU pipe, and instruction issue is counted.
//!    [`cost`] turns the totals into simulated cycles/milliseconds with a
//!    roofline model (per-pipe throughput, DRAM bandwidth, exposed memory
//!    latency scaled by achieved occupancy from [`occupancy`]).
//!
//! The calibration numbers in [`device::DeviceSpec::rtx3090`] come from the
//! GA102 whitepaper; *absolute* times are estimates, but the quantities that
//! decide *relative* kernel ordering — tiles traversed, bytes moved, cache
//! hits, issue pressure, occupancy — are measured from the kernels' actual
//! access streams, which is what lets the paper's figures reproduce in shape.

pub mod cache;
pub mod coalesce;
pub mod cost;
pub mod cyclesim;
pub mod device;
pub mod hotspot;
pub mod interconnect;
pub mod launch;
pub mod occupancy;
pub mod par;
pub mod stats;
pub mod stream;
pub mod wmma;

pub use device::DeviceSpec;
pub use hotspot::{HotPhase, HotspotReport, WindowAcc, WorkerPhases};
pub use launch::{AddressSpace, BlockCtx, Blocks, GridConfig, Launcher};
pub use par::{resolve_threads, threads_from_env, DisjointSlices, THREADS_ENV};
pub use stats::{KernelReport, KernelStats};
pub use stream::{Stream, StreamSet, StreamSpan};

//! Multi-device sharding for TC-GNN — window-aligned graph partitioning,
//! per-device shard construction, and the report of a sharded run.
//!
//! The paper executes on a single GPU; this crate extends the simulated
//! stack to data-parallel multi-GPU execution the way real GNN systems
//! scale past one device (DistGNN, ROC, P3): the graph is split into
//! per-device shards, each device aggregates its own rows, and feature
//! rows referenced across shard boundaries (the *halo*) are exchanged
//! over the interconnect before every aggregation.
//!
//! Three design decisions carry the subsystem:
//!
//! 1. **Shard along SGT row-window boundaries** ([`Partitioner`],
//!    [`Partition`]). The 16-row window is TC-GNN's unit of compute; a
//!    partition never splits one. Each owned global window maps to a
//!    16-aligned run of consecutive local rows under a strictly monotone
//!    id remap, which preserves SGT's condensed columns and chunking —
//!    making sharded execution **bitwise-identical** to single-device
//!    execution (`shard.rs` documents the argument, the sharded
//!    equivalence suite enforces it across adversarial graphs).
//! 2. **Halo exchange as a first-class modeled transfer** ([`Shard`],
//!    `tcg_gpusim::interconnect`). Remote rows a shard reads are gathered
//!    before each aggregation; the transfer is priced from the device's
//!    link parameters (NVLink3 vs PCIe 4.0, latency + bandwidth +
//!    topology-dependent contention) and lands on a dedicated comm stream
//!    so compute/communication overlap is visible in traces.
//! 3. **Sharding is an engine backend.** `tcg_gnn::Engine` built with more
//!    than one device holds one device engine per [`Shard`] — its own
//!    launcher, kernels and SGT translation, and a device-strided
//!    compute + comm `StreamSet` — so every model and every serving policy
//!    runs sharded through the same forward that serves one device. Its
//!    per-run accounting is a [`DistReport`].

pub mod partition;
pub mod report;
pub mod shard;

pub use partition::{Partition, Partitioner};
pub use report::DistReport;
pub use shard::Shard;

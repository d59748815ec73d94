//! `tcg-serve`: request-driven inference serving over the simulated GPU.
//!
//! The paper's Fig. 7(b) shows SGT translation as a one-time cost amortized
//! across many kernel invocations on the same graph — exactly the economics
//! of an inference server. This crate builds that server out of the
//! existing layers:
//!
//! - [`Session`]: a frozen trained model ([`ServableModel`]) over a set of
//!   graphs, with a version-keyed LRU [`cache`] of SGT translations —
//!   a cache hit skips Algorithm 1 entirely and records the saved
//!   milliseconds.
//! - [`batcher`]: a dynamic micro-batcher coalescing queued
//!   node-classification requests into batched forward passes under a
//!   max-batch / max-delay policy. On a one-device translating backend a
//!   pass computes only the row windows its targets' receptive fields
//!   need, layer by layer; sharded, DGL/PyG and breaker-rerouted batches
//!   run the full-graph forward.
//! - [`server`]: admission control (bounded queue → `QueueFull` shedding,
//!   per-request deadlines) and a multi-stream executor — one worker thread
//!   per [`tcg_gpusim::Stream`], each with its own virtual timeline that
//!   lands as a separate Perfetto track. Injected device faults are
//!   absorbed by the engine's retry + TCU→CUDA-core degradation, so chaos
//!   slows batches down instead of failing requests.
//! - [`resilience`]: the failure-containment layer — deadline propagation
//!   with checkpoint cancellation, per-stream circuit breakers over the
//!   TCU→CUDA-core degradation path, a brownout load-shedding ladder with
//!   priority classes, and poisoned-translation quarantine in the cache.
//! - [`loadgen`]: seeded Poisson arrival traces (optionally with a
//!   priority mix) for closed-loop benchmarking.
//!
//! Everything runs in *virtual* (simulated) time and is deterministic: the
//! same session, config, and trace produce byte-identical per-stream
//! timelines and reports, worker threads notwithstanding (see
//! [`server`]'s module docs for why).

pub mod batcher;
pub mod cache;
pub mod loadgen;
pub mod metrics;
pub mod model;
pub mod report;
pub mod request;
pub mod resilience;
pub mod server;

pub use batcher::{BatchPolicy, Batcher, ClosedBatch};
pub use cache::{
    version_key, CacheStats, CachedTranslation, Resolution, ResolutionKind, TranslationCache,
};
pub use loadgen::{churn_schedule, poisson_trace, ChurnConfig, LoadgenConfig};
pub use metrics::{parse_prometheus, prometheus_text, render_top, RedMetrics};
pub use model::ServableModel;
pub use request::{CancelStage, Outcome, Priority, Request, Response, ShedReason};
pub use resilience::{BrownoutConfig, BrownoutStats, ResilienceConfig, ResilienceSummary};
// Re-exported so `ServeConfig { partitioner, .. }` can be filled in
// without a direct `tcg-dist` dependency.
pub use tcg_dist::Partitioner;
// Re-exported so `ServeConfig { fault, .. }` and breaker knobs can be
// filled in without a direct `tcg-fault` dependency.
pub use server::{
    serve, serve_with_mutations, GraphMutation, MutationOutcome, MutationSummary, QueueDepth,
    ServeConfig, ServeReport, ServedGraph, Session, StreamSummary,
};
pub use tcg_fault::{BreakerConfig, FaultConfig};

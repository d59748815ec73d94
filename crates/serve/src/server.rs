//! The serving core: session state, the virtual-time dispatcher with
//! admission control, and the multi-stream worker executor.
//!
//! # Determinism
//!
//! The server runs real worker threads, yet every run over the same session
//! and request trace produces byte-identical timelines and reports. Three
//! decisions make that hold:
//!
//! 1. **Batch formation is trace-pure.** The dispatcher seals batches from
//!    arrival times alone ([`crate::batcher`]); execution timing never
//!    feeds back into formation.
//! 2. **Stream assignment is round-robin** over the batch index — a pure
//!    function of dispatch order, never of which stream happens to drain
//!    first in wall-clock terms.
//! 3. **Each stream owns its virtual clock.** A worker thread walks its
//!    stream's batches in dispatch order, placing each at
//!    `max(ready, previous end)` on the stream's
//!    [`tcg_gpusim::Stream`]; no cross-thread state is read. Per-engine
//!    fault plans are seeded from `(stream, graph)`, so chaos runs are as
//!    reproducible as clean ones.
//!
//! Admission control is likewise virtual-time: the bounded queue's
//! occupancy is the number of requests sitting in open batches at the
//! moment an arrival is processed, so [`tcg_fault::TcgError::QueueFull`]
//! shedding is a deterministic function of the trace.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use tcg_dist::{DistContext, Partitioner};
use tcg_fault::{
    BreakerRoute, BreakerStats, CircuitBreaker, FaultConfig, FaultPlan, FaultReport, RetryPolicy,
    TcgError,
};
use tcg_gnn::{Backend, Engine, RecoveryPolicy};
use tcg_gpusim::{DeviceSpec, Stream};
use tcg_graph::{CsrGraph, GraphVersion};
use tcg_kernels::hybrid::{DispatchPolicy, KernelClass, WindowBackend};
use tcg_profile::{Phase, SharedProfiler, StreamingHistogram};
use tcg_sgt::{EdgeDelta, TranslatedGraph, TC_BLK_H};
use tcg_tensor::{ops, DenseMatrix};

use crate::batcher::{BatchPolicy, Batcher, ClosedBatch};
use crate::cache::{CacheStats, ResolutionKind, TranslationCache};
use crate::model::ServableModel;
use crate::request::{CancelStage, Outcome, Request, Response, ShedReason};
use crate::resilience::{BrownoutController, ResilienceConfig, ResilienceSummary};

/// One graph a session serves requests against.
#[derive(Debug, Clone)]
pub struct ServedGraph {
    /// Label used in stream-span names and reports.
    pub name: String,
    /// The (symmetric) adjacency.
    pub csr: CsrGraph,
    /// Node features inference runs over.
    pub features: DenseMatrix,
}

/// A frozen model plus the graphs it serves and the translation cache that
/// amortizes Algorithm 1 across their batches.
#[derive(Debug)]
pub struct Session {
    model: ServableModel,
    graphs: Vec<ServedGraph>,
    cache: TranslationCache,
}

impl Session {
    /// A session serving `model` over `graphs`, caching at most
    /// `cache_capacity` SGT translations.
    pub fn new(model: ServableModel, graphs: Vec<ServedGraph>, cache_capacity: usize) -> Self {
        Session {
            model,
            graphs,
            cache: TranslationCache::new(cache_capacity),
        }
    }

    /// The frozen model.
    pub fn model(&self) -> &ServableModel {
        &self.model
    }

    /// The served graphs, indexed by [`Request::graph`].
    pub fn graphs(&self) -> &[ServedGraph] {
        &self.graphs
    }

    /// The translation cache's amortization counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Mutable access to the translation cache — the quarantine knobs
    /// ([`TranslationCache::set_spot_check_every`]) and the chaos hook
    /// ([`TranslationCache::corrupt_resident`]) live here.
    pub fn cache_mut(&mut self) -> &mut TranslationCache {
        &mut self.cache
    }

    /// Applies a batched edge edit to graph `graph` in place.
    ///
    /// The edit is strict ([`EdgeDelta::apply_to`]): deleting a missing
    /// edge, inserting a present one, or referencing an out-of-range node
    /// rejects the whole delta and leaves the graph untouched — a rejected
    /// mutation is observable, never half-applied. On success the served
    /// CSR is replaced; the next batch dispatched against this graph
    /// resolves its translation under the new [`GraphVersion`], which the
    /// cache typically satisfies by retranslating only the touched windows.
    pub fn mutate(&mut self, graph: usize, delta: &EdgeDelta) -> Result<MutationOutcome, TcgError> {
        let count = self.graphs.len();
        let g = self
            .graphs
            .get_mut(graph)
            .ok_or_else(|| TcgError::InvalidInput {
                what: "mutation graph index",
                detail: format!("graph {graph} out of range (session serves {count} graphs)"),
            })?;
        g.csr = delta.apply_to(&g.csr)?;
        Ok(MutationOutcome {
            touched_windows: delta.touched_windows(TC_BLK_H),
            inserted: delta.inserts().len(),
            deleted: delta.deletes().len(),
            version: g.csr.fingerprint(),
        })
    }
}

/// What one applied [`Session::mutate`] call did to its graph.
#[derive(Debug, Clone)]
pub struct MutationOutcome {
    /// Row windows (at `TC_BLK_H` rows) whose contents changed.
    pub touched_windows: Vec<usize>,
    /// Edges inserted.
    pub inserted: usize,
    /// Edges deleted.
    pub deleted: usize,
    /// The graph's version after the edit.
    pub version: GraphVersion,
}

/// A scheduled edge edit interleaved with a request trace.
///
/// [`serve_with_mutations`] applies it when the dispatcher's virtual-time
/// walk reaches `at_ms`. The consistency point is a *batcher barrier*:
/// every request admitted before the edit is sealed and dispatched first
/// (running against the pre-edit graph and translation), the edit is
/// applied, and every later batch resolves under the new graph version.
#[derive(Debug, Clone)]
pub struct GraphMutation {
    /// Virtual time the edit lands, in trace milliseconds.
    pub at_ms: f64,
    /// Index into the session's graphs.
    pub graph: usize,
    /// The batched edge edit.
    pub delta: EdgeDelta,
}

/// Mutation accounting in the final report — always present, all zeros
/// when the run had no mutations.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MutationSummary {
    /// Mutations scheduled.
    pub requested: usize,
    /// Mutations applied.
    pub applied: usize,
    /// Mutations rejected by strict delta validation (graph unchanged).
    pub rejected: usize,
    /// Edges inserted across applied mutations.
    pub edges_inserted: usize,
    /// Edges deleted across applied mutations.
    pub edges_deleted: usize,
    /// Row windows retranslated by delta cache resolutions.
    pub windows_touched: usize,
    /// Row windows spliced unchanged by delta cache resolutions.
    pub windows_preserved: usize,
    /// Modeled milliseconds paid for delta retranslations.
    pub delta_translate_ms: f64,
    /// Hybrid dispatch-mask entries re-decided (touched windows only;
    /// 0 unless the backend is [`Backend::Hybrid`]).
    pub mask_refreshed_windows: usize,
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Kernel backend batches execute on.
    pub backend: Backend,
    /// Number of simulated streams (and worker threads).
    pub streams: usize,
    /// Micro-batching policy.
    pub policy: BatchPolicy,
    /// Bounded admission queue: arrivals beyond this many waiting requests
    /// are shed with [`tcg_fault::TcgError::QueueFull`].
    pub queue_capacity: usize,
    /// Fault injection for chaos serving; `None` runs clean.
    pub fault: Option<FaultConfig>,
    /// Base seed for the per-`(stream, graph)` fault plans.
    pub fault_seed: u64,
    /// Simulated device.
    pub device: DeviceSpec,
    /// Worker threads *inside* each engine: block bodies of a batch's
    /// kernels fan out over this many threads (`1` = sequential). This is
    /// orthogonal to [`ServeConfig::streams`], which parallelizes across
    /// batches. Defaults to the `TCG_THREADS` environment variable.
    pub threads: usize,
    /// The failure-containment layer (deadline cancellation, circuit
    /// breaking, brownout, quarantine spot-checks). `None` (the default)
    /// runs the legacy pipeline byte-identically.
    pub resilience: Option<ResilienceConfig>,
    /// Simulated devices each batch shards across (`1` = single-device,
    /// the legacy path). Multi-device execution applies only to clean GCN
    /// serving — fault injection and the resilience layer operate on the
    /// single-engine pipeline, so either of them (or a non-GCN model)
    /// falls the run back to one device.
    pub devices: usize,
    /// How row windows are assigned to devices when `devices > 1`.
    pub partitioner: Partitioner,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            backend: Backend::TcGnn,
            streams: 2,
            policy: BatchPolicy::default(),
            queue_capacity: 64,
            fault: None,
            fault_seed: 0,
            device: DeviceSpec::rtx3090(),
            threads: tcg_gpusim::threads_from_env(),
            resilience: None,
            devices: 1,
            partitioner: Partitioner::Contiguous,
        }
    }
}

/// Whether this run actually shards across devices (see
/// [`ServeConfig::devices`] for the gating rules).
fn dist_active(cfg: &ServeConfig, model: &ServableModel) -> bool {
    cfg.devices > 1
        && matches!(model, ServableModel::Gcn(_))
        && cfg.fault.is_none()
        && cfg.resilience.is_none()
}

/// A sealed batch bound to a stream, with its translation resolved.
#[derive(Debug, Clone)]
struct DispatchedBatch {
    index: usize,
    graph: usize,
    stream: u32,
    /// When the batcher sealed the batch.
    close_ms: f64,
    /// Translation milliseconds paid at dispatch (0 on a cache hit).
    translate_ms: f64,
    /// Close time plus any translation milliseconds paid on a cache miss.
    ready_ms: f64,
    requests: Vec<Request>,
    translation: Arc<TranslatedGraph>,
    /// Snapshot of the graph at dispatch time — under mutations the
    /// session's CSR moves on, but this batch executes against the
    /// adjacency it was admitted for.
    csr: Arc<CsrGraph>,
    /// Version of that snapshot; workers key engines by `(graph, version)`
    /// so a mutated graph gets a fresh engine instead of stale kernels.
    version: GraphVersion,
}

/// Admission-queue depth statistics, sampled once per processed arrival
/// (after the arrival was offered or shed). Virtual-time, so exact and
/// deterministic for a given trace.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct QueueDepth {
    /// Depth samples taken (one per trace arrival).
    pub samples: usize,
    /// Deepest observed occupancy.
    pub max: usize,
    /// Summed occupancy over all samples.
    pub sum: usize,
}

impl QueueDepth {
    /// Records one occupancy sample.
    pub fn sample(&mut self, depth: usize) {
        self.samples += 1;
        self.max = self.max.max(depth);
        self.sum += depth;
    }

    /// Mean observed occupancy (0 when never sampled).
    pub fn mean(&self) -> f64 {
        if self.samples > 0 {
            self.sum as f64 / self.samples as f64
        } else {
            0.0
        }
    }
}

/// Per-stream utilization in the final report.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamSummary {
    /// Stream id.
    pub stream: u32,
    /// Batches executed.
    pub launches: usize,
    /// Summed execution milliseconds.
    pub busy_ms: f64,
    /// When the stream drained.
    pub end_ms: f64,
}

/// Everything a serve run produced.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Backend label.
    pub backend: &'static str,
    /// Model architecture label.
    pub model: &'static str,
    /// Streams configured.
    pub streams: usize,
    /// Devices each batch actually sharded across (1 when multi-device
    /// execution was configured but gated off — see [`ServeConfig::devices`]).
    pub devices: usize,
    /// Partitioner label (`"none"` on single-device runs).
    pub partitioner: &'static str,
    /// Halo-exchange bytes summed over every sharded batch.
    pub halo_bytes: u64,
    /// Simulated interconnect milliseconds summed over every sharded batch.
    pub transfer_ms: f64,
    /// Requests in the trace.
    pub total_requests: usize,
    /// Requests answered (on time or late).
    pub answered: usize,
    /// Answered within deadline (or with none set).
    pub on_time: usize,
    /// Answered after their deadline.
    pub late: usize,
    /// Shed at admission (queue full or brownout).
    pub shed: usize,
    /// Cancelled at a checkpoint boundary after their deadline died
    /// (resilience runs only; always 0 without deadline cancellation).
    pub cancelled: usize,
    /// Requests that errored. Structurally zero: injected device faults are
    /// absorbed by the engine's retry + TCU→CUDA-core degradation, so they
    /// slow a batch down instead of failing it.
    pub failed: usize,
    /// Batched forward passes executed.
    pub batches: usize,
    /// Mean requests per batch.
    pub mean_batch_size: f64,
    /// When the last stream drained, in simulated milliseconds.
    pub makespan_ms: f64,
    /// Answered requests per simulated second.
    pub throughput_rps: f64,
    /// Latency distribution over answered requests.
    pub latency: StreamingHistogram,
    /// Translation-cache amortization counters.
    pub cache: CacheStats,
    /// Fault accounting summed over every worker engine.
    pub faults: FaultReport,
    /// Admission-queue depth statistics over the trace.
    pub queue: QueueDepth,
    /// Per-stream utilization.
    pub per_stream: Vec<StreamSummary>,
    /// Resilience-layer accounting; `None` when the layer was off.
    pub resilience: Option<ResilienceSummary>,
    /// Mutation accounting (all zeros when the run had no mutations).
    pub mutations: MutationSummary,
    /// Final [`GraphVersion`] of every served graph, by name, after all
    /// mutations applied — the provenance stamp for this report.
    pub graph_versions: Vec<(String, u64)>,
    /// Per-request records, id-ordered.
    pub responses: Vec<Response>,
}

/// What one worker thread hands back: its stream (with the recorded
/// timeline), the responses it resolved, and its engines' fault accounting.
struct WorkerResult {
    stream: Stream,
    responses: Vec<Response>,
    faults: FaultReport,
    /// Halo bytes this stream's sharded batches exchanged (0 single-device).
    halo_bytes: u64,
    /// Interconnect milliseconds this stream's sharded batches paid.
    transfer_ms: f64,
    /// This stream's circuit-breaker counters (zeroed when breaking is off).
    breaker: BreakerStats,
    /// Breaker state transitions this stream's breaker went through.
    breaker_transitions: usize,
    /// The worker's private profiler (request-scoped tracing), recovered
    /// once its engines are dropped; `None` when the run is unprofiled.
    profiler: Option<tcg_profile::Profiler>,
}

fn merge_fault_reports(into: &mut FaultReport, other: &FaultReport) {
    into.launch_failures += other.launch_failures;
    into.smem_overcommits += other.smem_overcommits;
    into.device_ooms += other.device_ooms;
    into.ecc_flips += other.ecc_flips;
    into.retried += other.retried;
    into.degraded += other.degraded;
}

/// Serves `trace` (sorted by arrival time) against the session, returning
/// the full report. When a profiler is supplied, each translation lands as
/// a host span (dispatch order) and each stream's timeline as `stream-N`
/// trace tracks.
pub fn serve(
    session: &mut Session,
    cfg: &ServeConfig,
    trace: &[Request],
    profiler: Option<&SharedProfiler>,
) -> ServeReport {
    serve_with_mutations(session, cfg, trace, &[], profiler)
}

/// [`serve`] with a schedule of graph mutations interleaved into the trace.
///
/// `mutations` must be sorted by [`GraphMutation::at_ms`]. Each mutation is
/// a barrier within the dispatcher's virtual-time walk: when the walk
/// reaches `at_ms`, every open batch is sealed and dispatched against the
/// pre-edit graph, then the edit is applied via [`Session::mutate`] (a
/// rejected delta is counted, not fatal), and every later batch resolves
/// under the new [`GraphVersion`] — which the translation cache typically
/// satisfies by retranslating only the touched windows. Mutations
/// scheduled after the last arrival are applied after the trace drains.
///
/// Multi-device sharding ([`ServeConfig::devices`]` > 1`) is gated off when
/// any mutations are scheduled: shard contexts re-run SGT per shard and do
/// not participate in versioned translation reuse.
pub fn serve_with_mutations(
    session: &mut Session,
    cfg: &ServeConfig,
    trace: &[Request],
    mutations: &[GraphMutation],
    profiler: Option<&SharedProfiler>,
) -> ServeReport {
    assert!(
        trace.windows(2).all(|w| w[0].arrival_ms <= w[1].arrival_ms),
        "request trace must be sorted by arrival time"
    );
    assert!(
        mutations.windows(2).all(|w| w[0].at_ms <= w[1].at_ms),
        "mutation schedule must be sorted by time"
    );
    let streams = cfg.streams.max(1);
    let dist_on = dist_active(cfg, session.model()) && mutations.is_empty();
    let cancel = cfg
        .resilience
        .as_ref()
        .is_some_and(|r| r.deadline_cancellation);
    if let Some(r) = &cfg.resilience {
        session.cache.set_spot_check_every(r.spot_check_every);
    }
    let mut brownout: Option<BrownoutController> = cfg
        .resilience
        .as_ref()
        .and_then(|r| r.brownout)
        .map(|bc| BrownoutController::new(bc, cfg.policy.max_batch, cfg.queue_capacity.max(1)));

    // ---- Dispatch: admission, batching, cache accounting (serial). ----
    let mut batcher = Batcher::new(cfg.policy);
    let mut dispatched: Vec<DispatchedBatch> = Vec::new();
    let mut shed_responses: Vec<Response> = Vec::new();
    let mut translations: Vec<(String, f64, Vec<u64>)> = Vec::new();
    // Per-graph CSR snapshots: batches capture the adjacency they were
    // admitted against, refreshed only at mutation barriers.
    let mut snapshots: Vec<Arc<CsrGraph>> = session
        .graphs
        .iter()
        .map(|g| Arc::new(g.csr.clone()))
        .collect();
    let mut mut_summary = MutationSummary::default();
    // Hybrid backend: maintain the per-graph window dispatch mask so a
    // delta resolution re-decides only the touched windows.
    let hybrid = matches!(cfg.backend, Backend::Hybrid);
    let hybrid_policy = DispatchPolicy::from_env(KernelClass::Spmm);
    let mut masks: Vec<Option<Vec<WindowBackend>>> = vec![None; session.graphs.len()];
    let dispatch = |mut closed: ClosedBatch,
                    session: &mut Session,
                    dispatched: &mut Vec<DispatchedBatch>,
                    translations: &mut Vec<(String, f64, Vec<u64>)>,
                    cancelled: &mut Vec<Response>,
                    brownout: &mut Option<BrownoutController>,
                    snapshots: &[Arc<CsrGraph>],
                    masks: &mut [Option<Vec<WindowBackend>>],
                    mut_summary: &mut MutationSummary| {
        if let Some(ctl) = brownout.as_mut() {
            // Dispatch-time queue wait feeds the brownout p99 signal.
            for r in &closed.requests {
                ctl.observe_wait(closed.close_ms - r.arrival_ms);
            }
        }
        if cancel {
            // Pre-translate checkpoint: requests whose deadline already
            // passed when the batch sealed never pay for translation.
            let close_ms = closed.close_ms;
            let (live, dead): (Vec<Request>, Vec<Request>) = closed
                .requests
                .into_iter()
                .partition(|r| r.deadline_at_ms().is_none_or(|d| d > close_ms));
            for r in dead {
                cancelled.push(Response {
                    id: r.id,
                    outcome: Outcome::Cancelled {
                        stage: CancelStage::PreTranslate,
                        deadline_ms: r.deadline_ms.unwrap_or(0.0),
                        cancelled_at_ms: close_ms,
                    },
                });
            }
            if live.is_empty() {
                return;
            }
            closed.requests = live;
        }
        let g = &session.graphs[closed.graph];
        let r = session.cache.get_or_translate(&g.csr);
        let dim = g.features.cols();
        match &r.kind {
            ResolutionKind::Hit => {}
            ResolutionKind::Full => {
                // Attribute the translation to the batch that paid it — its
                // host event carries the same trace ids as the batch's
                // kernels.
                let ids: Vec<u64> = closed.requests.iter().map(|r| r.id).collect();
                translations.push((format!("sgt_translate:{}", g.name), r.paid_ms, ids));
                if hybrid {
                    masks[closed.graph] = Some(hybrid_policy.mask(&r.translation, &g.csr, dim));
                }
            }
            ResolutionKind::Delta { touched, preserved } => {
                let ids: Vec<u64> = closed.requests.iter().map(|r| r.id).collect();
                translations.push((format!("sgt_delta:{}", g.name), r.paid_ms, ids));
                mut_summary.windows_touched += touched.len();
                mut_summary.windows_preserved += preserved;
                mut_summary.delta_translate_ms += r.paid_ms;
                if hybrid {
                    match &mut masks[closed.graph] {
                        Some(mask) => {
                            hybrid_policy.refresh_mask(mask, &r.translation, &g.csr, dim, touched);
                            mut_summary.mask_refreshed_windows += touched.len();
                        }
                        slot => *slot = Some(hybrid_policy.mask(&r.translation, &g.csr, dim)),
                    }
                }
            }
        }
        let index = dispatched.len();
        dispatched.push(DispatchedBatch {
            index,
            graph: closed.graph,
            stream: (index % streams) as u32,
            close_ms: closed.close_ms,
            translate_ms: r.paid_ms,
            ready_ms: closed.close_ms + r.paid_ms,
            requests: closed.requests,
            translation: r.translation,
            csr: Arc::clone(&snapshots[closed.graph]),
            version: g.csr.fingerprint(),
        });
    };
    let mut queue = QueueDepth::default();
    let mut next_mutation = 0usize;
    for req in trace {
        // Mutation barrier: every edit due at or before this arrival seals
        // the batcher first (pre-edit batches run pre-edit state), then
        // lands, then admission resumes under the new graph version.
        while next_mutation < mutations.len() && mutations[next_mutation].at_ms <= req.arrival_ms {
            let gm = &mutations[next_mutation];
            for closed in batcher
                .flush_due(gm.at_ms)
                .into_iter()
                .chain(batcher.flush_all())
            {
                dispatch(
                    closed,
                    session,
                    &mut dispatched,
                    &mut translations,
                    &mut shed_responses,
                    &mut brownout,
                    &snapshots,
                    &mut masks,
                    &mut mut_summary,
                );
            }
            mut_summary.requested += 1;
            match session.mutate(gm.graph, &gm.delta) {
                Ok(out) => {
                    mut_summary.applied += 1;
                    mut_summary.edges_inserted += out.inserted;
                    mut_summary.edges_deleted += out.deleted;
                    snapshots[gm.graph] = Arc::new(session.graphs[gm.graph].csr.clone());
                }
                Err(_) => mut_summary.rejected += 1,
            }
            next_mutation += 1;
        }
        for closed in batcher.flush_due(req.arrival_ms) {
            dispatch(
                closed,
                session,
                &mut dispatched,
                &mut translations,
                &mut shed_responses,
                &mut brownout,
                &snapshots,
                &mut masks,
                &mut mut_summary,
            );
        }
        if let Some(ctl) = brownout.as_mut() {
            let pending = batcher.pending();
            ctl.update(pending, &mut batcher);
            if ctl.should_shed(req.priority) {
                shed_responses.push(Response {
                    id: req.id,
                    outcome: Outcome::Shed {
                        reason: ShedReason::Brownout {
                            level: ctl.level(),
                            priority: req.priority,
                        },
                    },
                });
                queue.sample(batcher.pending());
                continue;
            }
        }
        if batcher.pending() >= cfg.queue_capacity.max(1) {
            shed_responses.push(Response {
                id: req.id,
                outcome: Outcome::Shed {
                    reason: ShedReason::QueueFull {
                        capacity: cfg.queue_capacity.max(1),
                    },
                },
            });
            queue.sample(batcher.pending());
            continue;
        }
        if let Some(closed) = batcher.offer(req.clone()) {
            dispatch(
                closed,
                session,
                &mut dispatched,
                &mut translations,
                &mut shed_responses,
                &mut brownout,
                &snapshots,
                &mut masks,
                &mut mut_summary,
            );
        }
        queue.sample(batcher.pending());
    }
    for closed in batcher.flush_all() {
        dispatch(
            closed,
            session,
            &mut dispatched,
            &mut translations,
            &mut shed_responses,
            &mut brownout,
            &snapshots,
            &mut masks,
            &mut mut_summary,
        );
    }
    // Mutations scheduled past the last arrival still land (the trace has
    // drained, so no barrier is needed) — the session's graphs and the
    // report's version stamps reflect every scheduled edit.
    for gm in &mutations[next_mutation..] {
        mut_summary.requested += 1;
        match session.mutate(gm.graph, &gm.delta) {
            Ok(out) => {
                mut_summary.applied += 1;
                mut_summary.edges_inserted += out.inserted;
                mut_summary.edges_deleted += out.deleted;
            }
            Err(_) => mut_summary.rejected += 1,
        }
    }

    // ---- Execute: one worker thread per stream, virtual clocks. ----
    let mut per_stream: Vec<Vec<DispatchedBatch>> = vec![Vec::new(); streams];
    for b in dispatched {
        per_stream[b.stream as usize].push(b);
    }
    let graphs = &session.graphs;
    let model = &session.model;
    let profiled = profiler.is_some();
    let worker_results: Vec<WorkerResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = per_stream
            .iter()
            .enumerate()
            .map(|(sid, batches)| {
                let cfg = cfg.clone();
                scope.spawn(move || {
                    run_stream(sid as u32, batches, graphs, model, &cfg, profiled, dist_on)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("stream worker panicked"))
            .collect()
    });

    // ---- Merge (deterministic: stream order, then id order). ----
    let mut responses = shed_responses;
    let mut faults = FaultReport::default();
    let mut per_stream_summary = Vec::with_capacity(streams);
    let mut batches = 0usize;
    let graph_versions: Vec<(String, u64)> = session
        .graphs
        .iter()
        .map(|g| (g.name.clone(), g.csr.fingerprint().as_u64()))
        .collect();
    if let Some(p) = profiler {
        let mut p = p.write().expect("profiler lock");
        for (name, ms, ids) in &translations {
            p.set_trace(ids);
            p.record_host(name, *ms);
        }
        p.clear_trace();
        // Version provenance: run labels stamping the final graph versions
        // into the trace's process metadata alongside the serve timeline.
        for (name, v) in &graph_versions {
            p.set_label(&format!("graph_version:{name}"), &format!("{v:016x}"));
        }
    }
    let mut breaker_stats = BreakerStats::default();
    let mut breaker_transitions = 0usize;
    let mut halo_bytes = 0u64;
    let mut transfer_ms = 0.0f64;
    for wr in worker_results {
        merge_fault_reports(&mut faults, &wr.faults);
        halo_bytes += wr.halo_bytes;
        transfer_ms += wr.transfer_ms;
        breaker_stats.absorb(&wr.breaker);
        breaker_transitions += wr.breaker_transitions;
        batches += wr.stream.launches();
        per_stream_summary.push(StreamSummary {
            stream: wr.stream.id(),
            launches: wr.stream.launches(),
            busy_ms: wr.stream.busy_ms(),
            end_ms: wr.stream.now_ms(),
        });
        if let Some(p) = profiler {
            let mut p = p.write().expect("profiler lock");
            for span in wr.stream.spans() {
                // Worker tid = stream index + 1 (0 is the main thread):
                // deterministic by construction, so traces stay
                // byte-identical however the OS schedules the workers.
                p.record_stream_span_on(
                    wr.stream.id(),
                    &span.name,
                    span.start_ms,
                    span.dur_ms,
                    u64::from(wr.stream.id()) + 1,
                );
            }
            // Fold the worker's private recorder in (stream order, so the
            // merged event list is deterministic): kernel events tagged
            // with their batch's trace ids, plus per-request span trees.
            if let Some(wp) = wr.profiler {
                p.absorb(wp);
            }
        }
        responses.extend(wr.responses);
    }
    responses.sort_by_key(|r| r.id);

    let mut latency = StreamingHistogram::new();
    let (mut on_time, mut late, mut shed) = (0usize, 0usize, 0usize);
    let (mut c_pre_translate, mut c_pre_launch, mut c_boundary) = (0usize, 0usize, 0usize);
    for r in &responses {
        match &r.outcome {
            Outcome::Served { latency_ms, .. } => {
                on_time += 1;
                latency.record(*latency_ms);
            }
            Outcome::Late { latency_ms, .. } => {
                late += 1;
                latency.record(*latency_ms);
            }
            Outcome::Shed { .. } => shed += 1,
            Outcome::Cancelled { stage, .. } => match stage {
                CancelStage::PreTranslate => c_pre_translate += 1,
                CancelStage::PreLaunch => c_pre_launch += 1,
                CancelStage::KernelBoundary => c_boundary += 1,
            },
        }
    }
    let cancelled = c_pre_translate + c_pre_launch + c_boundary;
    let resilience = cfg.resilience.as_ref().map(|_| ResilienceSummary {
        cancelled_pre_translate: c_pre_translate,
        cancelled_pre_launch: c_pre_launch,
        cancelled_kernel_boundary: c_boundary,
        brownout: brownout.as_ref().map(|b| b.stats()).unwrap_or_default(),
        breaker: breaker_stats,
        breaker_transitions,
    });
    let answered = on_time + late;
    let makespan_ms =
        per_stream_summary
            .iter()
            .fold(0.0f64, |acc, s| if s.end_ms > acc { s.end_ms } else { acc });
    let throughput_rps = if makespan_ms > 0.0 {
        answered as f64 / makespan_ms * 1000.0
    } else {
        0.0
    };
    ServeReport {
        backend: cfg.backend.name(),
        model: session.model.kind(),
        streams,
        devices: if dist_on { cfg.devices } else { 1 },
        partitioner: if dist_on {
            cfg.partitioner.name()
        } else {
            "none"
        },
        halo_bytes,
        transfer_ms,
        total_requests: trace.len(),
        answered,
        on_time,
        late,
        shed,
        cancelled,
        failed: 0,
        batches,
        mean_batch_size: if batches > 0 {
            answered as f64 / batches as f64
        } else {
            0.0
        },
        makespan_ms,
        throughput_rps,
        latency,
        cache: session.cache.stats(),
        faults,
        queue,
        per_stream: per_stream_summary,
        resilience,
        mutations: mut_summary,
        graph_versions,
        responses,
    }
}

/// Executes one stream's batches in dispatch order on its virtual clock.
///
/// Runs on a worker thread; the engine (which holds non-`Send` kernel
/// objects) is constructed *inside* the thread, one per graph, seeded with
/// the dispatcher-resolved translation so Algorithm 1 never reruns here.
fn run_stream(
    stream_id: u32,
    batches: &[DispatchedBatch],
    graphs: &[ServedGraph],
    model: &ServableModel,
    cfg: &ServeConfig,
    profiled: bool,
    dist: bool,
) -> WorkerResult {
    let mut stream = Stream::new(stream_id);
    // Engines are keyed by `(graph, version)`: a mutated graph's batches
    // get a fresh engine built from their snapshot CSR, while batches for
    // any still-resident earlier version keep theirs. An engine is dropped
    // once this stream's last batch for its version has run, so under
    // churn superseded versions do not keep their CSR, translation and
    // launcher resident for the rest of the run.
    let mut engines: HashMap<(usize, u64), Engine> = HashMap::new();
    let mut last_use: HashMap<(usize, u64), usize> = HashMap::new();
    for (i, b) in batches.iter().enumerate() {
        last_use.insert((b.graph, b.version.as_u64()), i);
    }
    let mut evicted: HashSet<(usize, u64)> = HashSet::new();
    // Multi-device path: one sharded context per graph, built lazily like
    // the engines. Sharding re-runs SGT per shard, so the dispatcher's
    // whole-graph translation is not reused here (and the caller gates it
    // off whenever mutations are scheduled).
    let mut dist_ctxs: HashMap<usize, DistContext> = HashMap::new();
    let mut halo_bytes = 0u64;
    let mut transfer_ms = 0.0f64;
    let mut responses = Vec::new();
    let mut faults = FaultReport::default();
    let res = cfg.resilience.as_ref();
    let cancel = res.is_some_and(|r| r.deadline_cancellation);
    // One breaker per stream: it guards this stream's (device, backend)
    // pair, folding only this stream's batch results, so chaos runs stay
    // deterministic per stream regardless of scheduling.
    let mut breaker: Option<CircuitBreaker> = res.and_then(|r| r.breaker).map(CircuitBreaker::new);
    // Private per-worker recorder: no locks are contended on the hot path
    // (each engine clone of the handle lives on this thread only), and the
    // dispatcher absorbs it in stream order after the join.
    let worker_profiler: Option<SharedProfiler> = if profiled {
        let p = tcg_profile::shared(cfg.backend.name());
        // Deterministic tid: stream index + 1 (0 is the main thread).
        p.write()
            .expect("profiler lock")
            .set_thread(u64::from(stream_id) + 1);
        Some(p)
    } else {
        None
    };
    for (i, b) in batches.iter().enumerate() {
        engines.retain(|key, eng| {
            let keep = last_use[key] >= i;
            if !keep {
                merge_fault_reports(&mut faults, &eng.fault_report());
                evicted.insert(*key);
            }
            keep
        });
        let g = &graphs[b.graph];
        if dist {
            // Sharded execution: the whole batch's forward fans out over
            // `cfg.devices` simulated devices; the serve stream is charged
            // the distributed makespan (compute + halo exchange), so
            // speedup from sharding shows up directly in serve latency.
            let ServableModel::Gcn(gcn) = model else {
                unreachable!("dist_active requires a GCN model");
            };
            let ctx = dist_ctxs.entry(b.graph).or_insert_with(|| {
                DistContext::new(
                    &g.csr,
                    cfg.devices,
                    cfg.partitioner,
                    cfg.device.clone(),
                    cfg.threads,
                )
            });
            let (logits, drep) = ctx
                .gcn_forward(gcn, &g.features)
                .expect("session graphs are validated at admission");
            halo_bytes += drep.total_halo_bytes();
            transfer_ms += drep.transfer_ms;
            let name = format!("{}:batch-{}:dist{}", g.name, b.index, drep.devices);
            let (start_ms, end_ms) = stream.launch_at(&name, b.ready_ms, drep.makespan_ms);
            if let Some(p) = &worker_profiler {
                let mut p = p.write().expect("profiler lock");
                let ids: Vec<u64> = b.requests.iter().map(|r| r.id).collect();
                p.set_trace(&ids);
                // Per-device timelines, shifted to the batch's slot on the
                // serve stream. Device tracks are 1-indexed in serve traces
                // (`dev1`..`devN`) so they can never collide with the serve
                // `stream-N` tracks, which own ids below the stride.
                for (gid, spans) in ctx.stream_spans() {
                    let track = gid + tcg_gpusim::stream::DEVICE_STREAM_STRIDE as u32;
                    for span in spans {
                        p.record_stream_span_on(
                            track,
                            &span.name,
                            start_ms + span.start_ms,
                            span.dur_ms,
                            u64::from(stream_id) + 1,
                        );
                    }
                }
                p.clear_trace();
            }
            let classes = ops::argmax_rows(&logits);
            for req in &b.requests {
                let latency_ms = end_ms - req.arrival_ms;
                let class = classes[req.node];
                let outcome = match req.deadline_ms {
                    Some(d) if latency_ms > d => Outcome::Late {
                        class,
                        latency_ms,
                        deadline_ms: d,
                    },
                    _ => Outcome::Served { class, latency_ms },
                };
                responses.push(Response {
                    id: req.id,
                    outcome,
                });
            }
            continue;
        }
        // Where this batch would start on the stream's virtual clock —
        // known before any engine work, so cancellation and breaker
        // routing decide on it without executing anything.
        let projected_start = if b.ready_ms > stream.now_ms() {
            b.ready_ms
        } else {
            stream.now_ms()
        };
        let mut live: Vec<Request> = b.requests.clone();
        if cancel {
            // Pre-launch checkpoint: deadlines already dead at the
            // projected start never build an engine or launch a kernel.
            let (still_live, dead): (Vec<Request>, Vec<Request>) = live
                .into_iter()
                .partition(|r| r.deadline_at_ms().is_none_or(|d| d > projected_start));
            for r in dead {
                responses.push(Response {
                    id: r.id,
                    outcome: Outcome::Cancelled {
                        stage: CancelStage::PreLaunch,
                        deadline_ms: r.deadline_ms.unwrap_or(0.0),
                        cancelled_at_ms: projected_start,
                    },
                });
            }
            if still_live.is_empty() {
                continue;
            }
            live = still_live;
        }
        debug_assert!(
            !evicted.contains(&(b.graph, b.version.as_u64())),
            "batch {} arrived for an evicted engine version",
            b.index
        );
        let eng = engines
            .entry((b.graph, b.version.as_u64()))
            .or_insert_with(|| {
                let mut eng = Engine::builder((*b.csr).clone())
                    .backend(cfg.backend)
                    .device(cfg.device.clone())
                    .translation((*b.translation).clone())
                    .threads(cfg.threads)
                    .build()
                    .expect("session graphs are validated at admission");
                // One plan per (stream, graph): the draw sequence depends
                // only on this stream's batch order, never on scheduling.
                let seed = cfg
                    .fault_seed
                    .wrapping_add((u64::from(stream_id) + 1) << 32)
                    .wrapping_add(b.graph as u64);
                if let Some(fault_cfg) = cfg.fault {
                    eng.attach_fault_plan(FaultPlan::new(seed, fault_cfg));
                }
                if let Some(r) = res {
                    if r.retry_jitter_frac > 0.0 {
                        // Jittered exponential backoff, seeded like the fault
                        // plan so retry schedules are bit-reproducible.
                        eng.set_recovery_policy(RecoveryPolicy {
                            backoff: RetryPolicy::default().with_jitter(r.retry_jitter_frac, seed),
                            ..RecoveryPolicy::default()
                        });
                    }
                    if r.deadline_cancellation {
                        eng.set_launch_log(true);
                    }
                }
                if let Some(p) = &worker_profiler {
                    eng.attach_profiler(Arc::clone(p));
                }
                eng
            });
        if let Some(p) = &worker_profiler {
            // Propagate the batch's trace ids: every kernel event the
            // engine records during this inference carries the ids of the
            // requests it does work for.
            let ids: Vec<u64> = live.iter().map(|r| r.id).collect();
            p.write().expect("profiler lock").set_trace(&ids);
        }
        // Breaker routing: an open breaker forces the whole batch onto the
        // CUDA-core fallback path (suppressed injection, no RNG draws)
        // instead of paying a retry storm on the primary backend.
        let mut fallback_routed = false;
        if let Some(br) = breaker.as_mut() {
            let seen = br.transitions().len();
            if br.route(projected_start) == BreakerRoute::Fallback {
                fallback_routed = true;
                eng.set_forced_fallback(true);
            }
            if let Some(p) = &worker_profiler {
                let mut p = p.write().expect("profiler lock");
                for t in &br.transitions()[seen..] {
                    p.record_breaker(&format!("breaker:{}->{}", t.from, t.to), Phase::Host);
                }
            }
        }
        let injected_before = eng.fault_report().total_injected();
        let (logits, cost) = model.infer(eng, &g.features);
        let launch_log = if cancel {
            eng.take_launch_log()
        } else {
            Vec::new()
        };
        if fallback_routed {
            eng.set_forced_fallback(false);
        }
        // A fallback-routed batch reports clean: suppressed injection
        // consumes no draws, and a cooling breaker must see quiet to close.
        let faulted = !fallback_routed && eng.fault_report().total_injected() > injected_before;
        // Kernel-boundary checkpoint: if even the latest deadline in the
        // batch dies mid-execution, stop charging the stream at the first
        // launch boundary past the budget and discard the answers — a dead
        // request never returns a logit, and the stream frees up early.
        let mut exec_ms = cost.total_ms();
        let mut boundary_prefix: Option<f64> = None;
        if cancel && live.iter().all(|r| r.deadline_ms.is_some()) {
            let latest = live
                .iter()
                .filter_map(|r| r.deadline_at_ms())
                .fold(f64::NEG_INFINITY, f64::max);
            let budget = latest - projected_start;
            if exec_ms > budget {
                let mut acc = 0.0;
                for &ms in &launch_log {
                    acc += ms;
                    if acc >= budget {
                        boundary_prefix = Some(acc);
                        break;
                    }
                }
                if let Some(prefix) = boundary_prefix {
                    exec_ms = prefix;
                }
            }
        }
        let name = if boundary_prefix.is_some() {
            format!("{}:batch-{}:cancelled", g.name, b.index)
        } else {
            format!("{}:batch-{}", g.name, b.index)
        };
        let (start_ms, end_ms) = stream.launch_at(&name, b.ready_ms, exec_ms);
        if let Some(br) = breaker.as_mut() {
            let seen = br.transitions().len();
            br.on_result(end_ms, faulted);
            if let Some(p) = &worker_profiler {
                let mut p = p.write().expect("profiler lock");
                for t in &br.transitions()[seen..] {
                    p.record_breaker(&format!("breaker:{}->{}", t.from, t.to), Phase::Host);
                }
            }
        }
        if let Some(p) = &worker_profiler {
            let mut p = p.write().expect("profiler lock");
            p.clear_trace();
            // One span tree per answered request, entirely on the virtual
            // clock: arrival → batcher queue → (translation, if this batch
            // paid one) → stream execution. Byte-identical across reruns.
            if boundary_prefix.is_none() {
                for req in &live {
                    let mut children = vec![tcg_profile::RequestSpan {
                        trace_id: req.id,
                        name: "queued".into(),
                        start_ms: req.arrival_ms,
                        dur_ms: b.close_ms - req.arrival_ms,
                        children: Vec::new(),
                    }];
                    if b.translate_ms > 0.0 {
                        children.push(tcg_profile::RequestSpan {
                            trace_id: req.id,
                            name: "sgt_translate".into(),
                            start_ms: b.close_ms,
                            dur_ms: b.translate_ms,
                            children: Vec::new(),
                        });
                    }
                    children.push(tcg_profile::RequestSpan {
                        trace_id: req.id,
                        name: "execute".into(),
                        start_ms,
                        dur_ms: end_ms - start_ms,
                        children: Vec::new(),
                    });
                    p.record_request_tree(tcg_profile::RequestSpan {
                        trace_id: req.id,
                        name: format!("req-{}", req.id),
                        start_ms: req.arrival_ms,
                        dur_ms: end_ms - req.arrival_ms,
                        children,
                    });
                }
            }
        }
        if let Some(prefix) = boundary_prefix {
            let cancelled_at_ms = start_ms + prefix;
            for req in &live {
                responses.push(Response {
                    id: req.id,
                    outcome: Outcome::Cancelled {
                        stage: CancelStage::KernelBoundary,
                        deadline_ms: req.deadline_ms.unwrap_or(0.0),
                        cancelled_at_ms,
                    },
                });
            }
        } else {
            let classes = ops::argmax_rows(&logits);
            for req in &live {
                let latency_ms = end_ms - req.arrival_ms;
                let class = classes[req.node];
                let outcome = match req.deadline_ms {
                    Some(d) if latency_ms > d => Outcome::Late {
                        class,
                        latency_ms,
                        deadline_ms: d,
                    },
                    _ => Outcome::Served { class, latency_ms },
                };
                responses.push(Response {
                    id: req.id,
                    outcome,
                });
            }
        }
    }
    // Engine order in the map is arbitrary; summing counters is
    // order-insensitive, so the merged report stays deterministic.
    for eng in engines.values() {
        merge_fault_reports(&mut faults, &eng.fault_report());
    }
    // Engines hold the only other handles to the worker profiler; dropping
    // them lets us recover it by value for the absorb step.
    drop(engines);
    let profiler = worker_profiler.map(|p| {
        Arc::try_unwrap(p)
            .expect("worker profiler handles released")
            .into_inner()
            .expect("profiler lock")
    });
    let (breaker_stats, breaker_transitions) = breaker
        .map(|br| (*br.stats(), br.transitions().len()))
        .unwrap_or_default();
    WorkerResult {
        stream,
        responses,
        faults,
        halo_bytes,
        transfer_ms,
        breaker: breaker_stats,
        breaker_transitions,
        profiler,
    }
}

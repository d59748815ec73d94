//! The serving core: one staged pipeline, admit → batch → resolve
//! translation → execute → respond.
//!
//! The serial dispatcher admits each arrival (brownout ladder, then the
//! bounded queue), lets the batcher ([`crate::batcher`]) seal batches, and
//! resolves each batch's SGT translation through the session cache before
//! binding it to a stream (a sharded run skips the cache: its engines
//! translate their own shards); a [`GraphMutation`] is a barrier that seals
//! every open batch and then lands. One worker thread per stream executes
//! its batches while the dispatcher walks on: each batch goes down its
//! stream's channel as soon as it is bound, and the worker runs it through
//! one executor — one engine per graph, moved to each batch's graph
//! version with [`Engine::advance`] and sharded across
//! [`ServeConfig::devices`] when that is more than one — and one respond
//! step turns each request's logit row into a Served/Late outcome. On a
//! one-device translating backend a batch computes only the row windows
//! its targets' receptive fields read ([`ServableModel::infer_targets`]);
//! sharded, DGL/PyG and breaker-rerouted batches run the full-graph
//! forward.
//! [`ServeConfig::resilience`] is resolved once at entry; `None` resolves
//! to policies that are all no-ops, so a run without the layer takes the
//! same path.
//!
//! The dispatcher's snapshots own each graph's versions, so it never
//! borrows the session's graphs mutably while the workers read them; once
//! the workers have joined, each graph a mutation moved gets its last
//! version written back into the session.
//!
//! # Determinism
//!
//! Worker threads notwithstanding, every run over the same session and
//! request trace produces byte-identical timelines and reports:
//!
//! 1. **Batch formation is trace-pure**: batches seal from arrival times
//!    alone, never from execution timing.
//! 2. **Stream assignment is round-robin** over the batch index, and
//!    everything a batch carries is fixed at dispatch: no dispatch
//!    decision reads an execution result, and a worker sees its batches
//!    in dispatch order however the threads interleave.
//! 3. **Each stream owns its virtual clock**: a worker places each batch at
//!    `max(ready, previous end)` on its [`tcg_gpusim::Stream`] and reads no
//!    cross-thread state; fault plans are seeded from `(stream, graph)`.
//!
//! Admission is virtual-time too: queue occupancy is the number of requests
//! in open batches when an arrival is processed, so
//! [`tcg_fault::TcgError::QueueFull`] shedding is a function of the trace.

use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;

use tcg_dist::Partitioner;
use tcg_fault::{
    BreakerRoute, BreakerStats, CircuitBreaker, FaultConfig, FaultPlan, FaultReport, RetryPolicy,
    TcgError,
};
use tcg_gnn::{Backend, Engine, RecoveryPolicy};
use tcg_gpusim::{DeviceSpec, Stream};
use tcg_graph::{CsrGraph, GraphVersion};
use tcg_profile::{Phase, RequestSpan, SharedProfiler, StreamingHistogram};
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
    /// resolves its translation under the new version key
    /// ([`cache::version_key`](crate::cache::version_key)), which the cache
    /// typically satisfies by retranslating only the touched windows. No
    /// whole-graph hash runs here: a serve run rehashes only the windows in
    /// [`MutationOutcome::touched_windows`] and recomposes the key from them.
    pub fn mutate(&mut self, graph: usize, delta: &EdgeDelta) -> Result<MutationOutcome, TcgError> {
        let (csr, outcome) = edit(&self.graphs, |g| &g.csr, graph, delta)?;
        self.graphs[graph].csr = csr;
        Ok(outcome)
    }
}

/// The one mutation step behind [`Session::mutate`] and a serve run's
/// snapshots: `delta` applied strictly ([`EdgeDelta::apply_to`]) to the
/// adjacency `csr` reads off `graphs[graph]`. Returns the edited adjacency
/// and what changed; an out-of-range index or a delta that does not apply
/// is an error, and the caller keeps its graph.
fn edit<T>(
    graphs: &[T],
    csr: impl Fn(&T) -> &CsrGraph,
    graph: usize,
    delta: &EdgeDelta,
) -> Result<(CsrGraph, MutationOutcome), TcgError> {
    let g = graphs.get(graph).ok_or_else(|| TcgError::InvalidInput {
        what: "mutation graph index",
        detail: format!(
            "graph {graph} out of range (session serves {} graphs)",
            graphs.len()
        ),
    })?;
    let edited = delta.apply_to(csr(g))?;
    let outcome = MutationOutcome {
        touched_windows: delta.touched_windows(TC_BLK_H),
        inserted: delta.inserts().len(),
        deleted: delta.deletes().len(),
    };
    Ok((edited, outcome))
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
    /// Row windows retranslated by delta cache resolutions on the
    /// [`Backend::Hybrid`] backend (0 on every other backend): the windows
    /// whose dispatch decisions the hybrid kernels make afresh, since each
    /// launch decides its mask from the translation it runs over.
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
    /// resolves to no-op policies: nothing is culled, browned out or
    /// rerouted.
    pub resilience: Option<ResilienceConfig>,
    /// Simulated devices each batch shards across (`1` = single-device).
    /// Every model, fault plan, resilience policy and graph mutation runs
    /// sharded through the same engine forward; must be at least 1 (zero
    /// panics at the start of [`serve`]).
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

/// A sealed batch bound to a stream, with its translation resolved: the
/// message the dispatcher sends down that stream's channel. Everything in
/// it is fixed at dispatch, so its worker runs it while the dispatcher
/// walks on.
#[derive(Debug)]
struct DispatchedBatch {
    index: usize,
    graph: usize,
    /// When the batcher sealed the batch.
    close_ms: f64,
    /// Translation milliseconds paid before the batch can launch: at
    /// dispatch on a cache miss, or by the sharded engine it builds or
    /// advances.
    translate_ms: f64,
    /// Close time plus `translate_ms`.
    ready_ms: f64,
    requests: Vec<Request>,
    /// The cache-resolved whole-graph translation (`None` on a sharded
    /// run, whose engines translate their own shards).
    translation: Option<Arc<TranslatedGraph>>,
    /// The graph version current at dispatch, shared with the dispatcher's
    /// snapshot — under mutations the snapshot moves on, but this batch
    /// executes against the adjacency it was admitted for.
    csr: Arc<CsrGraph>,
    /// Version key of that snapshot: a stream's engine for the graph
    /// advances to it when it differs from the key the engine is at.
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
    /// Devices each batch sharded across.
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
    /// Translation-cache amortization counters. All zero on a sharded run,
    /// which bypasses the cache: each sharded engine translates its shards
    /// when built, and that time delays the batch that built it.
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
    /// Final [`CsrGraph::fingerprint`] of every served graph, by name, after
    /// all mutations applied — the provenance stamp for this report.
    pub graph_versions: Vec<(String, u64)>,
    /// Per-request records, id-ordered.
    pub responses: Vec<Response>,
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
/// pre-edit graph, then the edit is applied with the same validation and
/// errors as [`Session::mutate`] (a rejected delta is counted, not fatal),
/// and every later batch resolves under the new [`GraphVersion`] — which
/// the translation cache typically satisfies by retranslating only the
/// touched windows. Mutations scheduled after the last arrival are applied
/// after the trace drains.
///
/// The walk runs on the calling thread while one worker per stream
/// executes each batch as it is dispatched. The edits land on the run's
/// own graph versions; after the workers join, each edited graph's last
/// version replaces its CSR in `session`, before the report's
/// `graph_versions` are hashed. A panic on a worker is raised again here.
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
    if let Err(e) = tcg_gnn::engine::check_devices(cfg.devices) {
        panic!("serve config: {e}");
    }
    let Session {
        model,
        graphs,
        cache,
    } = session;
    if let Some(r) = &cfg.resilience {
        cache.set_spot_check_every(r.spot_check_every);
    }
    let off = ResilienceConfig::off();
    let policy = cfg.resilience.as_ref().unwrap_or(&off);
    let streams = cfg.streams.max(1);
    let run = Run {
        cfg,
        graphs,
        model,
        policy,
        profiled: profiler.is_some(),
    };
    // Stages 1–3 run on this thread while stage 4 runs on one worker per
    // stream: each batch goes down its stream's channel as it is bound.
    let (mut d, mut workers) = std::thread::scope(|scope| {
        let (senders, handles): (Vec<_>, Vec<_>) = (0..streams as u32)
            .map(|id| {
                let (tx, rx) = mpsc::channel();
                let run = &run;
                (tx, scope.spawn(move || run_stream(id, rx, run)))
            })
            .unzip();
        let mut d = Dispatcher::new(graphs, cache, cfg, policy, senders);
        d.run(trace, mutations);
        // Hanging up ends each worker once it has drained its channel.
        d.senders.clear();
        let workers: Vec<Worker> = handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect();
        (d, workers)
    });

    // ---- Merge (deterministic: stream order, then id order). ----
    // Every batch and engine is gone, so each edited graph's last version
    // moves into the session without a copy.
    for (g, snap) in graphs.iter_mut().zip(std::mem::take(&mut d.snapshots)) {
        if snap.edited {
            g.csr = Arc::unwrap_or_clone(snap.csr);
        }
    }
    // The printed stamp is the whole-graph fingerprint, hashed once per
    // graph here; the run itself keys versions by their window hashes.
    let graph_versions: Vec<(String, u64)> = graphs
        .iter()
        .map(|g| (g.name.clone(), g.csr.fingerprint().as_u64()))
        .collect();
    if let Some(p) = profiler {
        record_trace(p, &d, graphs, &graph_versions, &mut workers);
    }
    let mut responses = std::mem::take(&mut d.early);
    let (mut faults, mut breaker) = (FaultReport::default(), BreakerStats::default());
    let (mut breaker_transitions, mut halo_bytes, mut transfer_ms) = (0, 0, 0.0);
    let mut per_stream = Vec::with_capacity(streams);
    for w in workers {
        faults.absorb(&w.faults);
        halo_bytes += w.halo_bytes;
        transfer_ms += w.transfer_ms;
        if let Some(br) = &w.breaker {
            breaker.absorb(br.stats());
            breaker_transitions += br.transitions().len();
        }
        per_stream.push(StreamSummary {
            stream: w.stream.id(),
            launches: w.stream.launches(),
            busy_ms: w.stream.busy_ms(),
            end_ms: w.stream.now_ms(),
        });
        responses.extend(w.responses);
    }
    responses.sort_by_key(|r| r.id);

    let mut latency = StreamingHistogram::new();
    let (mut on_time, mut late, mut shed) = (0, 0, 0);
    // Cancellations by stage, in pipeline order (`CancelStage::all`).
    let mut cancelled = [0usize; 3];
    for r in &responses {
        if let Some(ms) = r.outcome.latency_ms() {
            latency.record(ms);
        }
        match r.outcome {
            Outcome::Served { .. } => on_time += 1,
            Outcome::Late { .. } => late += 1,
            Outcome::Shed { .. } => shed += 1,
            Outcome::Cancelled { stage, .. } => cancelled[stage as usize] += 1,
        }
    }
    let answered = on_time + late;
    let batches: usize = per_stream.iter().map(|s| s.launches).sum();
    let makespan_ms = per_stream
        .iter()
        .fold(0.0, |acc, s| if s.end_ms > acc { s.end_ms } else { acc });
    let ratio = |n: usize, over: f64| if over > 0.0 { n as f64 / over } else { 0.0 };
    ServeReport {
        backend: cfg.backend.name(),
        model: model.kind(),
        streams,
        devices: cfg.devices,
        partitioner: if cfg.devices > 1 {
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
        cancelled: cancelled.iter().sum(),
        failed: 0,
        batches,
        mean_batch_size: ratio(answered, batches as f64),
        makespan_ms,
        throughput_rps: ratio(answered, makespan_ms) * 1000.0,
        latency,
        cache: d.cache.stats(),
        faults,
        queue: d.queue,
        per_stream,
        resilience: cfg.resilience.as_ref().map(|_| ResilienceSummary {
            cancelled_pre_translate: cancelled[0],
            cancelled_pre_launch: cancelled[1],
            cancelled_kernel_boundary: cancelled[2],
            brownout: d.brownout.as_ref().map(|b| b.stats()).unwrap_or_default(),
            breaker,
            breaker_transitions,
        }),
        mutations: d.mutations,
        graph_versions,
        responses,
    }
}

/// Folds the translations the dispatcher paid, the final graph versions and
/// every worker's stream timeline and private recorder into the run's
/// trace, in stream order so the merged event list is deterministic.
fn record_trace(
    p: &SharedProfiler,
    d: &Dispatcher,
    graphs: &[ServedGraph],
    versions: &[(String, u64)],
    ws: &mut [Worker],
) {
    let mut p = p.write().expect("profiler lock");
    for (span, graph, ms, ids) in &d.translations {
        p.set_trace(ids);
        p.record_host(&format!("{span}:{}", graphs[*graph].name), *ms);
    }
    p.clear_trace();
    for (name, v) in versions {
        p.set_label(&format!("graph_version:{name}"), &format!("{v:016x}"));
    }
    for w in ws {
        // Worker tid = stream index + 1 (0 is the main thread), so traces
        // stay byte-identical however the OS schedules the workers.
        let (id, tid) = (w.stream.id(), u64::from(w.stream.id()) + 1);
        for s in w.stream.spans() {
            p.record_stream_span_on(id, &s.name, s.start_ms, s.dur_ms, tid);
        }
        // The worker's engines are gone, so its recorder (kernel events
        // tagged with trace ids, request span trees) is free to absorb.
        if let Some(wp) = w.profiler.take() {
            let wp = Arc::try_unwrap(wp).expect("worker profiler handles released");
            p.absorb(wp.into_inner().expect("profiler lock"));
        }
    }
}

/// Deadline culling, the one helper behind the pre-translate and
/// pre-launch checkpoints: when `on`, every request whose deadline is dead
/// at `at_ms` is answered with a `stage` cancel and removed (arrival order
/// kept). Returns whether any request is still live.
fn cull(
    on: bool,
    requests: &mut Vec<Request>,
    stage: CancelStage,
    at_ms: f64,
    out: &mut Vec<Response>,
) -> bool {
    if on {
        requests.retain(|r| {
            let live = r.deadline_at_ms().is_none_or(|d| d > at_ms);
            if !live {
                out.push(cancelled(r, stage, at_ms));
            }
            live
        });
    }
    !requests.is_empty()
}

/// Stages 1–3: admission, batching and translation resolution, serial and
/// in virtual time. Each bound batch goes straight to its stream's worker.
struct Dispatcher<'s> {
    cache: &'s mut TranslationCache,
    /// One channel per stream worker, indexed by stream id.
    senders: Vec<Sender<DispatchedBatch>>,
    /// Batches bound so far (the next batch's index).
    bound: usize,
    /// Sharded engines translate each shard when built, so a sharded run
    /// never resolves whole-graph translations through the cache.
    sharded: bool,
    capacity: usize,
    cancel: bool,
    batcher: Batcher,
    brownout: Option<BrownoutController>,
    /// Whether the backend is [`Backend::Hybrid`] (for
    /// [`MutationSummary::mask_refreshed_windows`]).
    hybrid: bool,
    /// Per-graph snapshots: each owns its graph's current version, which
    /// batches capture as they are bound; only mutations move them.
    snapshots: Vec<Snapshot>,
    /// Translations paid: host span kind, graph, milliseconds, trace ids.
    translations: Vec<(&'static str, usize, f64, Vec<u64>)>,
    /// Shed and pre-translate-cancelled responses.
    early: Vec<Response>,
    queue: QueueDepth,
    mutations: MutationSummary,
}

impl<'s> Dispatcher<'s> {
    fn new(
        graphs: &[ServedGraph],
        cache: &'s mut TranslationCache,
        cfg: &ServeConfig,
        policy: &ResilienceConfig,
        senders: Vec<Sender<DispatchedBatch>>,
    ) -> Self {
        let capacity = cfg.queue_capacity.max(1);
        Dispatcher {
            cache,
            senders,
            bound: 0,
            sharded: cfg.devices > 1,
            capacity,
            cancel: policy.deadline_cancellation,
            batcher: Batcher::new(cfg.policy),
            brownout: policy
                .brownout
                .map(|bc| BrownoutController::new(bc, cfg.policy.max_batch, capacity)),
            hybrid: cfg.backend == Backend::Hybrid,
            snapshots: graphs.iter().map(|g| Snapshot::of(&g.csr)).collect(),
            translations: Vec::new(),
            early: Vec::new(),
            queue: QueueDepth::default(),
            mutations: MutationSummary::default(),
        }
    }

    /// Walks the trace. Every sealed batch goes through the one dispatch
    /// call below, in the order it sealed: an edit due by an arrival (and
    /// every edit left once the trace has drained) seals the whole batcher
    /// before it lands, and a batch an arrival seals by size is dispatched
    /// first in the next step.
    fn run(&mut self, trace: &[Request], mutations: &[GraphMutation]) {
        let mut edits = mutations.iter().peekable();
        let mut offered: Option<ClosedBatch> = None;
        for req in trace.iter().map(Some).chain([None]) {
            loop {
                let edit = edits.next_if(|gm| req.is_none_or(|r| gm.at_ms <= r.arrival_ms));
                let sealed = match (edit, req) {
                    (None, Some(r)) => self.batcher.flush_due(r.arrival_ms),
                    // A barrier (or the drain) seals every open batch.
                    _ => self.batcher.flush_all(),
                };
                for closed in offered.take().into_iter().chain(sealed) {
                    self.dispatch(closed);
                }
                match (edit, req) {
                    (Some(gm), _) => self.apply_mutation(gm),
                    (None, Some(r)) => {
                        offered = self.admit(r);
                        break;
                    }
                    (None, None) => break,
                }
            }
        }
    }

    /// Stage 1: sheds `req` (brownout ladder first, then the bounded
    /// queue) or offers it to the batcher, returning the batch it seals.
    fn admit(&mut self, req: &Request) -> Option<ClosedBatch> {
        let batcher = &mut self.batcher;
        let brownout = self.brownout.as_mut().and_then(|ctl| {
            ctl.update(batcher.pending(), batcher);
            let (level, priority) = (ctl.level(), req.priority);
            ctl.should_shed(priority)
                .then_some(ShedReason::Brownout { level, priority })
        });
        let capacity = self.capacity;
        let full = (batcher.pending() >= capacity).then_some(ShedReason::QueueFull { capacity });
        let closed = match brownout.or(full) {
            Some(reason) => {
                let (id, outcome) = (req.id, Outcome::Shed { reason });
                self.early.push(Response { id, outcome });
                None
            }
            None => batcher.offer(req.clone()),
        };
        self.queue.sample(self.batcher.pending());
        closed
    }

    /// Stage 3: culls requests already dead when the batch sealed, resolves
    /// the batch's translation through the session cache (one-device runs)
    /// and binds it to a stream round-robin, sending it to that stream's
    /// worker.
    fn dispatch(&mut self, mut closed: ClosedBatch) {
        let close_ms = closed.close_ms;
        if let Some(ctl) = self.brownout.as_mut() {
            // Dispatch-time queue wait feeds the brownout p99 signal.
            for r in &closed.requests {
                ctl.observe_wait(close_ms - r.arrival_ms);
            }
        }
        let (stage, early) = (CancelStage::PreTranslate, &mut self.early);
        if !cull(self.cancel, &mut closed.requests, stage, close_ms, early) {
            return;
        }
        let (translation, paid_ms) = match self.sharded {
            true => (None, 0.0),
            false => {
                let (t, ms) = self.resolve(&closed);
                (Some(t), ms)
            }
        };
        let index = self.bound;
        self.bound += 1;
        let stream = index % self.senders.len();
        let snap = &self.snapshots[closed.graph];
        let batch = DispatchedBatch {
            index,
            graph: closed.graph,
            close_ms,
            translate_ms: paid_ms,
            ready_ms: close_ms + paid_ms,
            requests: closed.requests,
            translation,
            csr: Arc::clone(&snap.csr),
            version: snap.version,
        };
        // A worker that panicked has hung up; joining it raises its panic.
        let _ = self.senders[stream].send(batch);
    }

    /// Resolves `closed`'s graph through the session cache, recording any
    /// translation paid. Returns the translation and its cost.
    fn resolve(&mut self, closed: &ClosedBatch) -> (Arc<TranslatedGraph>, f64) {
        let snap = &self.snapshots[closed.graph];
        let r = self
            .cache
            .get_or_translate_version(&snap.csr, snap.version, &snap.window_fps);
        let span = match &r.kind {
            ResolutionKind::Hit => None,
            ResolutionKind::Full => Some("sgt_translate"),
            ResolutionKind::Delta { touched, preserved } => {
                let m = &mut self.mutations;
                m.windows_touched += touched.len();
                m.windows_preserved += preserved;
                m.delta_translate_ms += r.paid_ms;
                if self.hybrid {
                    m.mask_refreshed_windows += touched.len();
                }
                Some("sgt_delta")
            }
        };
        if let Some(span) = span {
            // Attributed to the batch that paid it: the host span carries
            // the same trace ids as the batch's kernels.
            let ids = closed.requests.iter().map(|r| r.id).collect();
            let paid = (span, closed.graph, r.paid_ms, ids);
            self.translations.push(paid);
        }
        (r.translation, r.paid_ms)
    }

    /// Applies one scheduled edit once its barrier has dispatched every
    /// batch admitted before it; a rejected delta is counted, not fatal.
    fn apply_mutation(&mut self, gm: &GraphMutation) {
        let m = &mut self.mutations;
        m.requested += 1;
        match edit(&self.snapshots, |s| &*s.csr, gm.graph, &gm.delta) {
            Ok((csr, out)) => {
                m.applied += 1;
                m.edges_inserted += out.inserted;
                m.edges_deleted += out.deleted;
                self.snapshots[gm.graph].advance(csr, &out.touched_windows);
            }
            Err(_) => m.rejected += 1,
        }
    }
}

/// One graph's current version as the dispatcher hands it to batches: the
/// adjacency, its window fingerprints (at `TC_BLK_H` rows, the translation
/// cache's delta signature) and the version key composed from them
/// ([`GraphVersion::from_windows`]). The fingerprints are hashed once per
/// version: at start, or by the mutation that made the version, which
/// rehashes only the windows it touched; the key is then recomposed in
/// `O(windows)`.
///
/// The snapshot owns each version: batches share it until they have run,
/// and after the workers join an edited graph's last version is moved into
/// the session.
struct Snapshot {
    csr: Arc<CsrGraph>,
    version: GraphVersion,
    window_fps: Vec<u64>,
    /// Whether a mutation has moved the graph during this run.
    edited: bool,
}

impl Snapshot {
    fn of(csr: &CsrGraph) -> Snapshot {
        let window_fps = csr.window_fingerprints(TC_BLK_H);
        Snapshot {
            csr: Arc::new(csr.clone()),
            version: GraphVersion::from_windows(csr.num_nodes(), &window_fps),
            window_fps,
            edited: false,
        }
    }

    /// Moves to `csr`, which differs from the current graph only in the
    /// `touched` windows. Under `TCG_VERIFY=1` the maintained key is
    /// checked against one composed from scratch.
    fn advance(&mut self, csr: CsrGraph, touched: &[usize]) {
        for &w in touched {
            self.window_fps[w] = csr.window_fingerprint(TC_BLK_H, w);
        }
        self.version = GraphVersion::from_windows(csr.num_nodes(), &self.window_fps);
        if tcg_fault::verify_requested() {
            assert_eq!(
                self.version,
                crate::cache::version_key(&csr),
                "maintained version key"
            );
        }
        self.csr = Arc::new(csr);
        self.edited = true;
    }
}

/// What every stream worker reads while the dispatcher runs: of each
/// graph only its name and features, since batches carry their version's
/// CSR.
struct Run<'a> {
    cfg: &'a ServeConfig,
    graphs: &'a [ServedGraph],
    model: &'a ServableModel,
    policy: &'a ResilienceConfig,
    profiled: bool,
}

/// One stream's worker: its virtual clock, breaker and private recorder,
/// plus what its batches accumulate.
struct Worker {
    stream: Stream,
    /// Guards this stream's (device, backend) pair, folding only this
    /// stream's batch results, so chaos runs stay deterministic per stream.
    breaker: Option<CircuitBreaker>,
    /// Private recorder: no lock is contended on the hot path, and the
    /// merge absorbs it in stream order after the join.
    profiler: Option<SharedProfiler>,
    responses: Vec<Response>,
    faults: FaultReport,
    /// Halo bytes and interconnect milliseconds of sharded batches.
    halo_bytes: u64,
    transfer_ms: f64,
}

impl Worker {
    /// Runs `step` on the stream's breaker, if it has one, and records the
    /// state transitions it caused on the worker's trace.
    fn breaker_step<T>(&mut self, step: impl FnOnce(&mut CircuitBreaker) -> T) -> Option<T> {
        let br = self.breaker.as_mut()?;
        let seen = br.transitions().len();
        let out = step(br);
        if let Some(p) = &self.profiler {
            let mut p = p.write().expect("profiler lock");
            for t in &br.transitions()[seen..] {
                p.record_breaker(&format!("breaker:{}->{}", t.from, t.to), Phase::Host);
            }
        }
        Some(out)
    }

    /// Sets (or, with `None`, clears) the trace ids kernel events carry.
    fn set_trace(&self, batch: Option<&DispatchedBatch>) {
        if let Some(p) = &self.profiler {
            let mut p = p.write().expect("profiler lock");
            match batch {
                Some(b) => p.set_trace(&b.requests.iter().map(|r| r.id).collect::<Vec<_>>()),
                None => p.clear_trace(),
            }
        }
    }
}

/// Stage 4: executes one stream's batches on its virtual clock in the order
/// they arrive on `batches` (dispatch order), from the first dispatch until
/// the dispatcher hangs up.
///
/// Runs on a worker thread; engines (which hold non-`Send` kernel objects)
/// are built inside it. One-device engines are seeded with the
/// dispatcher-resolved translation, so Algorithm 1 never reruns here; a
/// sharded engine translates its shards, delaying the batch that builds or
/// advances it.
fn run_stream(id: u32, batches: Receiver<DispatchedBatch>, run: &Run) -> Worker {
    let mut w = Worker {
        stream: Stream::new(id),
        breaker: run.policy.breaker.map(CircuitBreaker::new),
        profiler: run.profiled.then(|| {
            let p = tcg_profile::shared(run.cfg.backend.name());
            // Deterministic tid: stream index + 1 (0 is the main thread).
            p.write()
                .expect("profiler lock")
                .set_thread(u64::from(id) + 1);
            p
        }),
        responses: Vec::new(),
        faults: FaultReport::default(),
        halo_bytes: 0,
        transfer_ms: 0.0,
    };
    let mut executor = Executor {
        engines: run.graphs.iter().map(|_| None).collect(),
    };
    for mut b in batches {
        // Where this batch would start on the stream's virtual clock —
        // known before any engine work, so cancellation and breaker
        // routing decide on it without executing anything.
        let now = w.stream.now_ms();
        let start = if b.ready_ms > now { b.ready_ms } else { now };
        // Pre-launch checkpoint: deadlines already dead at the projected
        // start never build or advance an engine or launch a kernel.
        let (cancel, stage) = (run.policy.deadline_cancellation, CancelStage::PreLaunch);
        if cull(cancel, &mut b.requests, stage, start, &mut w.responses) {
            let execution = executor.execute(run, &mut b, start, &mut w);
            respond(&b.requests, execution, &mut w.responses);
        }
    }
    for (_, eng) in executor.engines.iter().flatten() {
        w.faults.absorb(&eng.fault_report());
    }
    // Engines hold the only other handles to the worker's recorder.
    drop(executor);
    w
}

/// Stage 4: one engine per graph the stream serves, built for the graph's
/// first batch and moved to each later batch's graph version with
/// [`Engine::advance`], which pays in proportion to the edit. A stream's
/// batches reach it in dispatch order, so each engine moves through the
/// versions in the order the dispatcher made them. Each version
/// restarts the engine's fault accounting from the same `(stream, graph)`
/// seed, as a freshly built engine would. With more than one device each
/// engine is sharded and runs SGT per shard when built or advanced (the
/// dispatcher resolves no whole-graph translation).
struct Executor {
    /// Indexed by graph: the engine and the graph version it is at.
    engines: Vec<Option<(GraphVersion, Engine)>>,
}

/// What executing one batch produced.
enum Execution {
    /// The batch ran to completion; its stream slot ended at `end_ms`.
    Answered { logits: DenseMatrix, end_ms: f64 },
    /// The kernel-boundary checkpoint stopped the batch at `at_ms`.
    Cancelled { at_ms: f64 },
}

impl Executor {
    /// Runs a batch projected to start at `start` on `w`'s stream.
    fn execute(
        &mut self,
        run: &Run,
        b: &mut DispatchedBatch,
        start: f64,
        w: &mut Worker,
    ) -> Execution {
        let (cfg, g) = (run.cfg, &run.graphs[b.graph]);
        // One plan per (stream, graph) and version: the draw sequence
        // depends only on this stream's batch order, never on scheduling.
        let seed = cfg
            .fault_seed
            .wrapping_add((u64::from(w.stream.id()) + 1) << 32)
            .wrapping_add(b.graph as u64);
        let slot = &mut self.engines[b.graph];
        let moved = match slot {
            Some((version, _)) if *version == b.version => false,
            Some((version, eng)) => {
                // The version ends: its faults are counted before advance
                // restarts the engine's accounting.
                w.faults.absorb(&eng.fault_report());
                eng.advance(Arc::clone(&b.csr), b.translation.clone())
                    .expect("mutations keep the served graph symmetric");
                *version = b.version;
                true
            }
            None => {
                *slot = Some((b.version, build_engine(run, b, seed, w)));
                true
            }
        };
        let (_, eng) = slot.as_mut().expect("the batch's engine is resident");
        if moved {
            if let Some(fault_cfg) = cfg.fault {
                eng.attach_fault_plan(FaultPlan::new(seed, fault_cfg));
            }
        }
        // Translation a built or advanced engine paid itself (a sharded
        // engine's shard SGT; zero when seeded from the cache) delays this
        // batch the way a cache miss at dispatch does.
        let sgt_ms = if moved { eng.preprocessing_ms() } else { 0.0 };
        let mut start = start;
        if sgt_ms > 0.0 {
            b.translate_ms += sgt_ms;
            b.ready_ms += sgt_ms;
            start = f64::max(start, b.ready_ms);
        }
        // Every kernel event of this inference carries the batch's ids.
        w.set_trace(Some(b));
        // An open breaker forces the whole batch onto the CUDA-core
        // fallback (suppressed injection, no RNG draws) instead of paying
        // a retry storm on the primary backend.
        let rerouted = w.breaker_step(|br| br.route(start) == BreakerRoute::Fallback) == Some(true);
        eng.set_forced_fallback(rerouted);
        let injected_before = eng.fault_report().total_injected();
        // Only the windows the targets' receptive fields read run; a
        // rerouted batch (forced fallback) runs the full forward.
        let targets: Vec<usize> = b.requests.iter().map(|r| r.node).collect();
        let (logits, cost) = run.model.infer_targets(eng, &g.features, &targets);
        eng.set_forced_fallback(false);
        // Closing the sharded run restarts the device timelines, so every
        // batch is priced from an idle fabric — with or without a profiler.
        let dist = eng.take_dist_report();
        // A rerouted batch reports clean: suppressed injection consumes no
        // draws, and a cooling breaker must see quiet to close.
        let faulted = !rerouted && eng.fault_report().total_injected() > injected_before;
        let stop = kernel_boundary(&b.requests, start, cost.total_ms(), &eng.take_launch_log());
        let name = match stop {
            Some(_) => format!("{}:batch-{}:cancelled", g.name, b.index),
            None => format!("{}:batch-{}", g.name, b.index),
        };
        let exec_ms = stop.unwrap_or(cost.total_ms());
        let (start_ms, end_ms) = w.stream.launch_at(&name, b.ready_ms, exec_ms);
        w.breaker_step(|br| br.on_result(end_ms, faulted));
        if let Some(rep) = dist {
            w.halo_bytes += rep.total_halo_bytes();
            w.transfer_ms += rep.transfer_ms;
            if let Some(p) = &w.profiler {
                // Per-device timelines, shifted to the batch's slot.
                let tid = u64::from(w.stream.id()) + 1;
                let mut p = p.write().expect("profiler lock");
                p.record_device_timelines(&rep.timelines, start_ms, tid);
            }
        }
        w.set_trace(None);
        match stop {
            Some(prefix) => Execution::Cancelled {
                at_ms: start_ms + prefix,
            },
            None => {
                if let Some(p) = &w.profiler {
                    let mut p = p.write().expect("profiler lock");
                    for req in &b.requests {
                        p.record_request_tree(request_tree(req, b, start_ms, end_ms));
                    }
                }
                Execution::Answered { logits, end_ms }
            }
        }
    }
}

/// The engine a stream's first batch against a graph builds, seeded with
/// the dispatcher-resolved translation (one-device runs) and configured for
/// the run: recovery backoff seeded like the fault plan, the launch log
/// deadline cancellation reads, and the worker's recorder.
fn build_engine(run: &Run, b: &DispatchedBatch, seed: u64, w: &Worker) -> Engine {
    let cfg = run.cfg;
    let mut builder = Engine::builder(Arc::clone(&b.csr))
        .backend(cfg.backend)
        .device(cfg.device.clone())
        .threads(cfg.threads)
        .devices(cfg.devices)
        .partitioner(cfg.partitioner);
    if let Some(t) = &b.translation {
        builder = builder.translation(Arc::clone(t));
    }
    let mut eng = builder
        .build()
        .expect("session graphs and the serve config build an engine");
    let jitter = run.policy.retry_jitter_frac;
    if jitter > 0.0 {
        // Seeded like the fault plan: bit-reproducible backoff.
        let backoff = RetryPolicy::default().with_jitter(jitter, seed);
        eng.set_recovery_policy(RecoveryPolicy {
            backoff,
            ..RecoveryPolicy::default()
        });
    }
    // The kernel-boundary checkpoint reads the per-launch log.
    eng.set_launch_log(run.policy.deadline_cancellation);
    if let Some(p) = &w.profiler {
        eng.attach_profiler(Arc::clone(p));
    }
    eng
}

/// The kernel-boundary checkpoint: if even the latest deadline in the batch
/// dies mid-execution, the stream is charged only up to the first launch
/// boundary past the budget. Returns those milliseconds, or `None` to run
/// to completion — always `None` without the launch log, which only
/// deadline cancellation records.
fn kernel_boundary(live: &[Request], start: f64, exec_ms: f64, log: &[f64]) -> Option<f64> {
    // No budget at all when any request carries no deadline.
    let latest = live.iter().try_fold(f64::NEG_INFINITY, |latest, r| {
        Some(f64::max(latest, r.deadline_at_ms()?))
    })?;
    let budget = latest - start;
    let mut acc = 0.0;
    let mut prefixes = log.iter().map(|&ms| {
        acc += ms;
        acc
    });
    (exec_ms > budget).then(|| prefixes.find(|&p| p >= budget))?
}

/// One request's span tree on the virtual clock: batcher queue →
/// (translation, if its batch paid one) → stream execution.
fn request_tree(req: &Request, b: &DispatchedBatch, start_ms: f64, end_ms: f64) -> RequestSpan {
    let span = |name: &str, start_ms: f64, dur_ms: f64| RequestSpan {
        trace_id: req.id,
        name: name.to_string(),
        start_ms,
        dur_ms,
        children: Vec::new(),
    };
    let mut children = vec![span("queued", req.arrival_ms, b.close_ms - req.arrival_ms)];
    if b.translate_ms > 0.0 {
        children.push(span("sgt_translate", b.close_ms, b.translate_ms));
    }
    children.push(span("execute", start_ms, end_ms - start_ms));
    let root = format!("req-{}", req.id);
    RequestSpan {
        children,
        ..span(&root, req.arrival_ms, end_ms - req.arrival_ms)
    }
}

/// Stage 5: one response per live request of an executed batch. A batch
/// stopped at a kernel boundary discards its logits: a dead request never
/// returns one.
fn respond(requests: &[Request], execution: Execution, out: &mut Vec<Response>) {
    match execution {
        Execution::Cancelled { at_ms } => {
            let stage = CancelStage::KernelBoundary;
            out.extend(requests.iter().map(|r| cancelled(r, stage, at_ms)));
        }
        Execution::Answered { logits, end_ms } => {
            out.extend(requests.iter().map(|req| {
                let (latency_ms, class) =
                    (end_ms - req.arrival_ms, ops::argmax(logits.row(req.node)));
                let outcome = match req.deadline_ms {
                    Some(d) if latency_ms > d => Outcome::Late {
                        class,
                        latency_ms,
                        deadline_ms: d,
                    },
                    _ => Outcome::Served { class, latency_ms },
                };
                let id = req.id;
                Response { id, outcome }
            }));
        }
    }
}

/// A request cancelled at `stage` once its deadline died at `at_ms`.
fn cancelled(req: &Request, stage: CancelStage, at_ms: f64) -> Response {
    let (id, deadline_ms) = (req.id, req.deadline_ms.unwrap_or(0.0));
    let outcome = Outcome::Cancelled {
        stage,
        deadline_ms,
        cancelled_at_ms: at_ms,
    };
    Response { id, outcome }
}

//! The recorder: collects events, maintains the registry, tracks
//! epoch/layer context, and rolls epochs up.

use std::collections::BTreeMap;
use std::sync::{Arc, RwLock};

use tcg_gpusim::stream::DEVICE_STREAM_STRIDE;
use tcg_gpusim::{KernelReport, KernelStats, StreamSpan};

use crate::event::{EventKind, KernelEvent, Phase};
use crate::registry::MetricsRegistry;

/// Per-epoch rollup of recorded GPU events, cross-checkable against the
/// trainer's `EpochStats.cost`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochRollup {
    /// Epoch index.
    pub epoch: u32,
    /// Events recorded during the epoch.
    pub events: usize,
    /// Summed [`Phase::Aggregation`] event durations.
    pub aggregation_ms: f64,
    /// Summed [`Phase::Update`] event durations.
    pub update_ms: f64,
    /// Summed [`Phase::Other`] event durations.
    pub other_ms: f64,
}

impl EpochRollup {
    /// Total GPU milliseconds in the epoch.
    pub fn total_ms(&self) -> f64 {
        self.aggregation_ms + self.update_ms + self.other_ms
    }
}

/// A profiler shared between the engine (recording) and the harness
/// (context tagging + export).
///
/// The `RwLock` makes attachment to an `Engine` and later inspection from
/// the same thread ergonomic; contention is nil in this single-stream
/// simulator.
pub type SharedProfiler = Arc<RwLock<Profiler>>;

/// Creates a [`SharedProfiler`] for a backend label.
pub fn shared(backend: &str) -> SharedProfiler {
    Arc::new(RwLock::new(Profiler::new(backend)))
}

/// A span pinned to a stream's virtual timeline, with an absolute start.
///
/// Unlike [`KernelEvent`]s — which carry only durations and are laid out
/// back-to-back by the exporter — stream spans come from a scheduler that
/// already placed them on a simulated clock, so they keep their timestamps
/// and render as separate per-stream tracks.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamSpanEvent {
    /// The stream (track) the span ran on.
    pub stream: u32,
    /// Label shown on the track (batch or kernel name).
    pub name: String,
    /// Absolute start on the simulated clock, in milliseconds.
    pub start_ms: f64,
    /// Duration in milliseconds.
    pub dur_ms: f64,
    /// Logical worker-thread id that executed the span (`0` = main
    /// thread). Deterministic harness-assigned ids, never OS thread ids.
    pub tid: u64,
}

/// One node in a request-scoped span tree: a serve request's lifecycle
/// (root) and its stages (children: queueing, SGT translation, execution).
///
/// Times are on the serve scheduler's *virtual* clock, so trees are
/// byte-identical across reruns at a fixed seed.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestSpan {
    /// The request's trace id (its request id), correlating the tree with
    /// the `trace` tags on kernel events.
    pub trace_id: u64,
    /// Span label (`"req-7"`, `"queued"`, `"execute"`, ...).
    pub name: String,
    /// Absolute start on the virtual clock, in milliseconds.
    pub start_ms: f64,
    /// Duration in milliseconds.
    pub dur_ms: f64,
    /// Nested child stages, in chronological order.
    pub children: Vec<RequestSpan>,
}

impl RequestSpan {
    /// Total spans in the tree (this node plus all descendants).
    pub fn len(&self) -> usize {
        1 + self.children.iter().map(RequestSpan::len).sum::<usize>()
    }

    /// Always false: a tree has at least its root.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// Event recorder + metrics registry for one simulated run.
#[derive(Debug)]
pub struct Profiler {
    backend: String,
    epoch: Option<u32>,
    layer: Option<u32>,
    thread: u64,
    trace: Vec<u64>,
    /// When false (`TCG_PROFILE=metrics`), events update the registry and
    /// phase totals but are not stored — O(1) memory for long runs.
    retain_events: bool,
    events: Vec<KernelEvent>,
    stream_spans: Vec<StreamSpanEvent>,
    request_trees: Vec<RequestSpan>,
    registry: MetricsRegistry,
    /// Free-form named monotonic counters (e.g. the `tcg_hybrid_*` family
    /// recording per-window dispatch outcomes). `BTreeMap` keeps exports
    /// deterministic.
    named: BTreeMap<String, u64>,
    /// Free-form string labels attached to the run (e.g. the graph
    /// versions a serve session ended on). Exported as Perfetto process
    /// metadata, never as timeline events.
    labels: BTreeMap<String, String>,
    rollups: Vec<EpochRollup>,
    /// Run-wide per-phase totals, accumulated in record order (indexed by
    /// `Phase::track() - 1`).
    phase_ms: [f64; 4],
    /// Events recorded since `begin_epoch`.
    epoch_events: usize,
    /// Per-phase totals since `begin_epoch` (aggregation/update/other).
    epoch_phase_ms: [f64; 3],
}

impl Default for Profiler {
    fn default() -> Self {
        Profiler::new("")
    }
}

impl Profiler {
    /// A profiler tagging events with `backend`.
    pub fn new(backend: &str) -> Self {
        Profiler {
            backend: backend.to_string(),
            epoch: None,
            layer: None,
            thread: 0,
            trace: Vec::new(),
            retain_events: true,
            events: Vec::new(),
            stream_spans: Vec::new(),
            request_trees: Vec::new(),
            registry: MetricsRegistry::default(),
            named: BTreeMap::new(),
            labels: BTreeMap::new(),
            rollups: Vec::new(),
            phase_ms: [0.0; 4],
            epoch_events: 0,
            epoch_phase_ms: [0.0; 3],
        }
    }

    /// A profiler that aggregates (registry, phase totals, rollups) but
    /// drops individual events: constant memory regardless of run length.
    pub fn new_metrics_only(backend: &str) -> Self {
        let mut p = Profiler::new(backend);
        p.retain_events = false;
        p
    }

    /// Whether individual events are stored (false for metrics-only).
    pub fn retains_events(&self) -> bool {
        self.retain_events
    }

    /// The backend label events are tagged with.
    pub fn backend(&self) -> &str {
        &self.backend
    }

    /// Starts epoch `epoch`: subsequent events are tagged with it.
    pub fn begin_epoch(&mut self, epoch: u32) {
        self.epoch = Some(epoch);
        self.layer = None;
        self.epoch_events = 0;
        self.epoch_phase_ms = [0.0; 3];
    }

    /// Ends the current epoch, producing (and retaining) its rollup.
    /// No-op returning `None` when no epoch is open.
    pub fn finish_epoch(&mut self) -> Option<EpochRollup> {
        let epoch = self.epoch.take()?;
        let rollup = EpochRollup {
            epoch,
            events: self.epoch_events,
            aggregation_ms: self.epoch_phase_ms[0],
            update_ms: self.epoch_phase_ms[1],
            other_ms: self.epoch_phase_ms[2],
        };
        self.layer = None;
        self.epoch_events = 0;
        self.epoch_phase_ms = [0.0; 3];
        self.rollups.push(rollup);
        Some(rollup)
    }

    /// Sets (or clears) the model-layer tag for subsequent events.
    pub fn set_layer(&mut self, layer: Option<u32>) {
        self.layer = layer;
    }

    /// Sets the logical worker-thread id tagged onto subsequent events
    /// (`0` = main thread). Callers must pass *deterministic* ids — a
    /// serve worker uses its stream index, never an OS thread id — so
    /// that exports stay byte-identical across runs.
    pub fn set_thread(&mut self, tid: u64) {
        self.thread = tid;
    }

    /// The logical worker-thread id currently tagged onto events.
    pub fn thread(&self) -> u64 {
        self.thread
    }

    /// Sets the trace-id context: subsequent events carry these serve
    /// request ids until [`Profiler::clear_trace`]. Pass the whole batch's
    /// ids when a kernel serves a batch.
    pub fn set_trace(&mut self, ids: &[u64]) {
        self.trace = ids.to_vec();
    }

    /// Clears the trace-id context.
    pub fn clear_trace(&mut self) {
        self.trace.clear();
    }

    /// The trace ids currently tagged onto events.
    pub fn trace(&self) -> &[u64] {
        &self.trace
    }

    /// Adds `by` to a free-form named monotonic counter. The hybrid
    /// dispatcher's `tcg_hybrid_*` metrics family lives here; any
    /// subsystem may register its own names. Zero increments still create
    /// the counter so a family's gauges all appear once touched.
    pub fn incr_counter(&mut self, name: &str, by: u64) {
        *self.named.entry(name.to_string()).or_insert(0) += by;
    }

    /// A named counter's value (0 when never incremented).
    pub fn named_counter(&self, name: &str) -> u64 {
        self.named.get(name).copied().unwrap_or(0)
    }

    /// Sets (or overwrites) a run label — free-form metadata exported as
    /// Perfetto process labels rather than timeline events, so it never
    /// perturbs event-level invariants (trace-id coverage, phase totals).
    pub fn set_label(&mut self, key: &str, value: &str) {
        self.labels.insert(key.to_string(), value.to_string());
    }

    /// A run label's value, if set.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels.get(key).map(String::as_str)
    }

    /// All run labels, in deterministic (sorted) order.
    pub fn labels(&self) -> impl Iterator<Item = (&str, &str)> {
        self.labels.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }

    /// All named counters, in deterministic (sorted) order.
    pub fn named_counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.named.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Records a completed request-scoped span tree.
    pub fn record_request_tree(&mut self, tree: RequestSpan) {
        self.request_trees.push(tree);
    }

    /// All recorded request span trees, in record order.
    pub fn request_trees(&self) -> &[RequestSpan] {
        &self.request_trees
    }

    /// Records a simulated kernel launch. `time_ms` is the full cost
    /// charged for the launch (kernel time plus dispatch overhead), which
    /// can exceed `report.time_ms`.
    pub fn record_kernel(&mut self, name: &str, phase: Phase, time_ms: f64, report: &KernelReport) {
        self.push(KernelEvent {
            name: name.to_string(),
            kind: EventKind::Kernel,
            phase,
            layer: self.layer,
            epoch: self.epoch,
            backend: self.backend.clone(),
            time_ms,
            tid: self.thread,
            trace: self.trace.clone(),
            stats: report.stats.clone(),
        });
    }

    /// Records a framework pass or other span with no kernel counters.
    pub fn record_span(&mut self, name: &str, phase: Phase, time_ms: f64) {
        self.push_marker(name, EventKind::Span, phase, time_ms);
    }

    /// Records host-side work (outside the simulated GPU stream).
    pub fn record_host(&mut self, name: &str, time_ms: f64) {
        self.record_span(name, Phase::Host, time_ms);
    }

    /// Records an injected (or detected) device fault as a zero-duration
    /// marker — rendered as an instant on the phase's timeline track.
    pub fn record_fault(&mut self, name: &str, phase: Phase) {
        self.push_marker(name, EventKind::Fault, phase, 0.0);
    }

    /// Records a graceful degradation to the fallback path as a
    /// zero-duration marker; the fallback kernel's own event carries the
    /// time it cost.
    pub fn record_fallback(&mut self, name: &str, phase: Phase) {
        self.push_marker(name, EventKind::Fallback, phase, 0.0);
    }

    /// Records a circuit-breaker state transition as a zero-duration
    /// marker (e.g. `"breaker:closed->open"`).
    pub fn record_breaker(&mut self, name: &str, phase: Phase) {
        self.push_marker(name, EventKind::Breaker, phase, 0.0);
    }

    /// Records a span on a stream's virtual timeline.
    ///
    /// Stream spans are stored apart from the phase events: phase events
    /// reconcile one-to-one against the engine's `Cost` milliseconds, and
    /// mixing in scheduler-level spans (which aggregate many kernels) would
    /// double-count. The exporter renders them as `stream-N` tracks with
    /// their absolute timestamps preserved.
    pub fn record_stream_span(&mut self, stream: u32, name: &str, start_ms: f64, dur_ms: f64) {
        self.record_stream_span_on(stream, name, start_ms, dur_ms, 0);
    }

    /// Records a sharded run's per-device stream timelines (as in
    /// `DistReport::timelines`) shifted by `offset_ms`. Tracks sit above the
    /// device stride (`dev1`..`devN`), so device 0 stays clear of the plain
    /// `stream-N` ids.
    pub fn record_device_timelines(
        &mut self,
        timelines: &[(u32, Vec<StreamSpan>)],
        offset_ms: f64,
        tid: u64,
    ) {
        for (id, spans) in timelines {
            let track = id + DEVICE_STREAM_STRIDE as u32;
            for s in spans {
                let at = offset_ms + s.start_ms;
                self.record_stream_span_on(track, &s.name, at, s.dur_ms, tid);
            }
        }
    }

    /// Like [`Profiler::record_stream_span`], tagging the span with the
    /// logical worker thread that executed it (so multi-threaded
    /// dispatchers show their fan-out on the timeline).
    pub fn record_stream_span_on(
        &mut self,
        stream: u32,
        name: &str,
        start_ms: f64,
        dur_ms: f64,
        tid: u64,
    ) {
        self.stream_spans.push(StreamSpanEvent {
            stream,
            name: name.to_string(),
            start_ms,
            dur_ms,
            tid,
        });
    }

    /// All recorded stream spans, in record order.
    pub fn stream_spans(&self) -> &[StreamSpanEvent] {
        &self.stream_spans
    }

    /// Stream ids with at least one span, ascending and deduplicated.
    pub fn stream_ids(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = self.stream_spans.iter().map(|s| s.stream).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Summed span durations on one stream.
    pub fn stream_total_ms(&self, stream: u32) -> f64 {
        self.stream_spans
            .iter()
            .filter(|s| s.stream == stream)
            .map(|s| s.dur_ms)
            .fold(0.0, |a, b| a + b)
    }

    fn push_marker(&mut self, name: &str, kind: EventKind, phase: Phase, time_ms: f64) {
        self.push(KernelEvent {
            name: name.to_string(),
            kind,
            phase,
            layer: self.layer,
            epoch: self.epoch,
            backend: self.backend.clone(),
            time_ms,
            tid: self.thread,
            trace: self.trace.clone(),
            stats: KernelStats::default(),
        });
    }

    /// Events of one kind, in record order.
    pub fn events_of_kind(&self, kind: EventKind) -> impl Iterator<Item = &KernelEvent> {
        self.events.iter().filter(move |e| e.kind == kind)
    }

    fn push(&mut self, event: KernelEvent) {
        self.registry.absorb(&event);
        // Incremental accumulation in record order replicates the old
        // fold-over-stored-events bit-exactly (same f64 addition sequence).
        self.phase_ms[event.phase.track() as usize - 1] += event.time_ms;
        if self.epoch.is_some() {
            self.epoch_events += 1;
            match event.phase {
                Phase::Aggregation => self.epoch_phase_ms[0] += event.time_ms,
                Phase::Update => self.epoch_phase_ms[1] += event.time_ms,
                Phase::Other => self.epoch_phase_ms[2] += event.time_ms,
                Phase::Host => {}
            }
        }
        if self.retain_events {
            self.events.push(event);
        }
    }

    /// All recorded events, in record order.
    pub fn events(&self) -> &[KernelEvent] {
        &self.events
    }

    /// The aggregated counters + histograms.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Completed epoch rollups, in epoch order.
    pub fn rollups(&self) -> &[EpochRollup] {
        &self.rollups
    }

    /// Sum of event durations in one phase, across the whole run.
    ///
    /// Accumulated incrementally (never via `Iterator::sum`, whose f64
    /// identity is -0.0 and would leak "-0.0" into JSON for empty phases).
    pub fn phase_total_ms(&self, phase: Phase) -> f64 {
        self.phase_ms[phase.track() as usize - 1]
    }

    /// Folds another profiler into this one, by value.
    ///
    /// Serve workers record into private profilers (no locks on the hot
    /// path) that the dispatcher absorbs in deterministic stream order.
    /// Event-retaining donors are replayed through `push` so registry,
    /// phase totals, and stored events all update; metrics-only donors
    /// contribute their aggregates directly. Stream spans, rollups, and
    /// request trees are appended in donor order either way.
    pub fn absorb(&mut self, other: Profiler) {
        if other.retain_events {
            for e in other.events {
                self.push(e);
            }
        } else {
            self.registry.merge(&other.registry);
            for (mine, theirs) in self.phase_ms.iter_mut().zip(other.phase_ms) {
                *mine += theirs;
            }
        }
        for (name, value) in other.named {
            *self.named.entry(name).or_insert(0) += value;
        }
        self.stream_spans.extend(other.stream_spans);
        self.rollups.extend(other.rollups);
        self.request_trees.extend(other.request_trees);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(ms: f64) -> KernelReport {
        KernelReport {
            time_ms: ms,
            cycles: 0.0,
            occupancy: 0.5,
            l1_hit_rate: 0.5,
            bound_by: "dram-bandwidth".into(),
            pipe_cycles: Default::default(),
            stats: KernelStats {
                dram_read_bytes: 64,
                ..Default::default()
            },
        }
    }

    #[test]
    fn stream_spans_are_kept_apart_from_phase_events() {
        let mut p = Profiler::new("TC-GNN");
        p.record_span("spmm", Phase::Aggregation, 1.0);
        p.record_stream_span(2, "batch-0", 0.0, 3.0);
        p.record_stream_span(0, "batch-1", 3.0, 2.0);
        p.record_stream_span(2, "batch-2", 3.0, 1.0);
        // Phase accounting is untouched by stream spans.
        assert_eq!(p.events().len(), 1);
        assert_eq!(p.phase_total_ms(Phase::Aggregation), 1.0);
        // Stream bookkeeping sees all three.
        assert_eq!(p.stream_spans().len(), 3);
        assert_eq!(p.stream_ids(), vec![0, 2]);
        assert_eq!(p.stream_total_ms(2), 4.0);
        assert_eq!(p.stream_total_ms(0), 2.0);
        assert_eq!(p.stream_total_ms(1), 0.0);
    }

    #[test]
    fn context_tags_apply_to_subsequent_events() {
        let mut p = Profiler::new("TC-GNN");
        p.begin_epoch(3);
        p.set_layer(Some(1));
        p.record_kernel("spmm", Phase::Aggregation, 0.5, &report(0.4));
        p.set_layer(None);
        p.record_span("loss", Phase::Other, 0.1);
        let e = &p.events()[0];
        assert_eq!(e.epoch, Some(3));
        assert_eq!(e.layer, Some(1));
        assert_eq!(e.backend, "TC-GNN");
        assert_eq!(e.time_ms, 0.5);
        assert_eq!(e.stats.dram_read_bytes, 64);
        assert_eq!(p.events()[1].layer, None);
    }

    #[test]
    fn epoch_rollup_partitions_phases() {
        let mut p = Profiler::new("DGL");
        p.begin_epoch(0);
        p.record_span("spmm", Phase::Aggregation, 1.0);
        p.record_span("gemm_xw", Phase::Update, 2.0);
        p.record_span("relu", Phase::Other, 0.5);
        p.record_host("sgt_preprocess", 9.0); // host: excluded from rollup
        let r = p.finish_epoch().unwrap();
        assert_eq!(r.epoch, 0);
        assert_eq!(r.events, 4);
        assert_eq!(r.aggregation_ms, 1.0);
        assert_eq!(r.update_ms, 2.0);
        assert_eq!(r.other_ms, 0.5);
        assert_eq!(r.total_ms(), 3.5);
        // Second epoch starts fresh.
        p.begin_epoch(1);
        p.record_span("spmm", Phase::Aggregation, 4.0);
        let r = p.finish_epoch().unwrap();
        assert_eq!(r.aggregation_ms, 4.0);
        assert_eq!(p.rollups().len(), 2);
        // And the run-wide phase total spans both epochs.
        assert_eq!(p.phase_total_ms(Phase::Aggregation), 5.0);
    }

    #[test]
    fn finish_without_begin_is_a_noop() {
        let mut p = Profiler::new("PyG");
        assert!(p.finish_epoch().is_none());
    }

    #[test]
    fn trace_context_tags_events_until_cleared() {
        let mut p = Profiler::new("TC-GNN");
        p.set_trace(&[7, 11]);
        p.record_kernel("spmm", Phase::Aggregation, 0.5, &report(0.4));
        p.clear_trace();
        p.record_span("loss", Phase::Other, 0.1);
        assert_eq!(p.events()[0].trace, vec![7, 11]);
        assert!(p.events()[1].trace.is_empty());
    }

    #[test]
    fn metrics_only_profiler_aggregates_without_storing_events() {
        let mut p = Profiler::new_metrics_only("TC-GNN");
        assert!(!p.retains_events());
        p.begin_epoch(0);
        p.record_kernel("spmm", Phase::Aggregation, 1.5, &report(1.0));
        p.record_span("gemm_xw", Phase::Update, 2.0);
        let r = p.finish_epoch().unwrap();
        assert!(p.events().is_empty());
        assert_eq!(r.events, 2);
        assert_eq!(r.aggregation_ms, 1.5);
        assert_eq!(p.phase_total_ms(Phase::Aggregation), 1.5);
        assert_eq!(p.phase_total_ms(Phase::Update), 2.0);
        assert_eq!(
            p.registry()
                .counter("aggregation/spmm", crate::registry::COUNTER_LAUNCHES),
            1
        );
    }

    #[test]
    fn absorb_replays_events_and_merges_metrics_only_donors() {
        let mut main = Profiler::new("TC-GNN");
        main.record_span("spmm", Phase::Aggregation, 1.0);

        let mut worker = Profiler::new("TC-GNN");
        worker.set_thread(2);
        worker.record_kernel("spmm", Phase::Aggregation, 0.5, &report(0.4));
        worker.record_stream_span_on(1, "batch-0", 0.0, 3.0, 2);
        worker.record_request_tree(RequestSpan {
            trace_id: 9,
            name: "req-9".into(),
            start_ms: 0.0,
            dur_ms: 3.0,
            children: vec![RequestSpan {
                trace_id: 9,
                name: "execute".into(),
                start_ms: 1.0,
                dur_ms: 2.0,
                children: Vec::new(),
            }],
        });
        main.absorb(worker);
        assert_eq!(main.events().len(), 2);
        assert_eq!(main.events()[1].tid, 2);
        assert_eq!(main.phase_total_ms(Phase::Aggregation), 1.5);
        assert_eq!(main.stream_spans().len(), 1);
        assert_eq!(main.request_trees().len(), 1);
        assert_eq!(main.request_trees()[0].len(), 2);

        let mut counts = Profiler::new_metrics_only("TC-GNN");
        counts.record_span("spmm", Phase::Aggregation, 2.5);
        main.absorb(counts);
        // No event stored, but totals and registry advance.
        assert_eq!(main.events().len(), 2);
        assert_eq!(main.phase_total_ms(Phase::Aggregation), 4.0);
        assert_eq!(
            main.registry()
                .counter("aggregation/spmm", crate::registry::COUNTER_LAUNCHES),
            3
        );
    }
}

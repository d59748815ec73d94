//! The aggregation engine: one graph, one backend, simulated costs — on
//! one simulated device, or sharded across several (see the `sharded` module).

mod sharded;

use std::cell::OnceCell;
use std::rc::Rc;
use std::sync::Arc;

use sharded::ShardSet;
use tcg_dist::{DistReport, Partitioner, Shard};
use tcg_fault::{FaultPlan, FaultReport, RetryPolicy, TcgError};
use tcg_gpusim::cost::stream_pass_report;
use tcg_gpusim::{DeviceSpec, Launcher};
use tcg_graph::{CsrGraph, NodeId};
use tcg_kernels::common::{SpmmKernel, SpmmProblem};
use tcg_kernels::hybrid::{render_mask, DispatchPolicy, KernelClass, WindowBackend};
use tcg_kernels::sddmm::{CudaCoreSddmm, HybridSddmm, SddmmKernel, TcgnnSddmm};
use tcg_kernels::softmax::sparse_row_softmax;
use tcg_kernels::spmm::{CusparseCsrSpmm, HybridSpmm, ScatterGatherSpmm, TcgnnSpmm};
use tcg_profile::{Phase, SharedProfiler};
use tcg_sgt::TranslatedGraph;
use tcg_tensor::DenseMatrix;

use crate::receptive::WindowSet;

/// Which framework's aggregation path the engine models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Deep Graph Library: cuSPARSE-class kernels + framework passes.
    DglLike,
    /// PyTorch-Geometric: torch-scatter + materialized edge intermediates.
    PygLike,
    /// TC-GNN: SGT-translated tensor-core kernels.
    TcGnn,
    /// Hybrid: per-row-window dispatch between the TC-GNN tensor-core
    /// body and the cuSPARSE-class CUDA-core body, decided by the cost
    /// model's window-geometry score (one mixed launch per op).
    Hybrid,
}

impl Backend {
    /// Display name matching the paper's labels.
    pub fn name(&self) -> &'static str {
        match self {
            Backend::DglLike => "DGL",
            Backend::PygLike => "PyG",
            Backend::TcGnn => "TC-GNN",
            Backend::Hybrid => "Hybrid",
        }
    }

    /// Every backend: the paper's three, in the order the figures list
    /// them, then the hybrid dispatcher. The hybrid is not a paper
    /// baseline, so the figure code names the paper's three itself.
    pub fn all() -> [Backend; 4] {
        [
            Backend::DglLike,
            Backend::PygLike,
            Backend::TcGnn,
            Backend::Hybrid,
        ]
    }

    /// Whether this backend consumes an SGT translation.
    pub fn uses_translation(&self) -> bool {
        matches!(self, Backend::TcGnn | Backend::Hybrid)
    }
}

/// Simulated milliseconds attributed to pipeline phases.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Cost {
    /// Sparse aggregation work: SpMM, SDDMM, softmax, normalization passes.
    pub aggregation_ms: f64,
    /// Dense update work: the `X·W` GEMMs.
    pub update_ms: f64,
    /// Everything else: activations, loss, optimizer.
    pub other_ms: f64,
}

impl Cost {
    /// Total across phases.
    pub fn total_ms(&self) -> f64 {
        self.aggregation_ms + self.update_ms + self.other_ms
    }

    /// A cost that is pure aggregation.
    pub fn agg(ms: f64) -> Cost {
        Cost {
            aggregation_ms: ms,
            ..Default::default()
        }
    }

    /// A cost that is pure dense update.
    pub fn update(ms: f64) -> Cost {
        Cost {
            update_ms: ms,
            ..Default::default()
        }
    }

    /// A cost that is neither aggregation nor update.
    pub fn other(ms: f64) -> Cost {
        Cost {
            other_ms: ms,
            ..Default::default()
        }
    }
}

impl std::ops::Add for Cost {
    type Output = Cost;
    fn add(self, rhs: Cost) -> Cost {
        Cost {
            aggregation_ms: self.aggregation_ms + rhs.aggregation_ms,
            update_ms: self.update_ms + rhs.update_ms,
            other_ms: self.other_ms + rhs.other_ms,
        }
    }
}

impl std::ops::AddAssign for Cost {
    fn add_assign(&mut self, rhs: Cost) {
        *self = *self + rhs;
    }
}

/// Host-side dispatch cost per sparse graph operation for DGL/PyG, in ms.
///
/// At Type I graph sizes every kernel is microseconds, so end-to-end time
/// is dominated by the framework: Python dispatch, DGL/PyG graph-object
/// handling and kernel-argument marshalling — tens of microseconds per op
/// (GNNAdvisor, OSDI'21, measures exactly this overhead for DGL). TC-GNN's
/// fused C++ extension pays a smaller constant.
pub const FRAMEWORK_DISPATCH_MS: f64 = 0.015;
/// Host-side dispatch cost per TC-GNN extension call, in ms.
pub const EXTENSION_DISPATCH_MS: f64 = 0.005;
/// Host-side dispatch cost per dense (cuBLAS / elementwise) op, in ms.
pub const DENSE_DISPATCH_MS: f64 = 0.005;

/// How the engine responds to injected (or detected) device faults.
///
/// Transient faults — failed launches and staging-buffer OOM — are retried
/// up to `max_retries` times with the [`RetryPolicy`]'s seeded exponential
/// backoff charged as a `retry_backoff` span. A fault that survives its
/// retries, plus every persistent fault, degrades the op: the same
/// computation reruns on the CUDA-core fallback kernel (`CusparseCsrSpmm` /
/// `CudaCoreSddmm`) with injection suppressed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryPolicy {
    /// Retry budget per op for transient faults.
    pub max_retries: u32,
    /// Backoff schedule. The default (base 0.05 ms, multiplier 2, no
    /// jitter) reproduces the historical linear `0.05 * attempt`
    /// milliseconds bit-for-bit within the default retry budget.
    pub backoff: RetryPolicy,
    /// Whether to scan kernel reports for consumed ECC bit flips and
    /// degrade the op (discarding the poisoned output). With the scan off,
    /// NaN-poisoned results propagate to the caller — the trainer's
    /// checkpoint/rollback guard is then the only line of defense.
    pub ecc_scan: bool,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_retries: 2,
            backoff: RetryPolicy::default(),
            ecc_scan: true,
        }
    }
}

/// The per-graph normalization vectors, always computed on the global
/// graph: a shard's halo rows are edgeless, so their local degree is 0.
struct Norms {
    /// Per-edge `1/sqrt(d_u d_v)` (GCN symmetric normalization).
    gcn_norm: Vec<f32>,
    /// Per-edge `1/d_src` (GraphSAGE mean normalization).
    mean_norm: Vec<f32>,
    /// Per-node `1/sqrt(d)` for the pre/post scaling path.
    inv_sqrt_deg: Vec<f32>,
    /// What only the transposed ops read ([`Engine::spmm_t`],
    /// [`Engine::mean_aggregate_t`]: backward passes and SAGE). After an
    /// advance it is computed on first use, so a serving engine moving
    /// along graph versions never pays for it.
    transposed: OnceCell<Transposed>,
}

/// The transposed-order half of [`Norms`].
struct Transposed {
    /// Edge permutation realizing `Aᵀ` value alignment (empty on a shard's
    /// device engine: transposes realign on the global graph).
    t_perm: Vec<u32>,
    /// `mean_norm` realigned to the transposed edge order.
    mean_norm_t: Vec<f32>,
}

impl Norms {
    fn of(csr: &CsrGraph) -> Norms {
        let gcn_norm = csr.gcn_norm_edge_values();
        let mut mean_norm = Vec::with_capacity(csr.num_edges());
        for v in 0..csr.num_nodes() {
            mean_norm.extend(std::iter::repeat_n(mean_norm_of(csr, v), csr.degree(v)));
        }
        let inv_sqrt_deg = (0..csr.num_nodes())
            .map(|v| inv_sqrt_deg_of(csr, v))
            .collect();
        let norms = Norms {
            gcn_norm,
            mean_norm,
            inv_sqrt_deg,
            transposed: OnceCell::new(),
        };
        // Built now, not on first use: a training engine's first backward
        // pass would otherwise allocate it among the epoch's temporaries,
        // which raised peak RSS of AGNN training on PPI ÷16 from 32.7 to
        // 40.7 MiB. An advanced engine computes it on first use.
        norms.transposed(csr);
        norms
    }

    /// The norms of `csr`, a version of `prev` (whose norms these are)
    /// that differs in the `changed` rows (ascending). A row's edge values
    /// move when its neighbour list does or when a neighbour's degree
    /// does; only those rows are recomputed, and every run of rows between
    /// them is copied across as one range.
    fn advanced(&self, prev: &CsrGraph, csr: &CsrGraph, changed: &[usize]) -> Norms {
        let mut stale = changed.to_vec();
        for &v in changed {
            if prev.degree(v) != csr.degree(v) {
                // Symmetric: every row with an edge to `v` is a neighbour.
                stale.extend(csr.neighbors(v).iter().map(|&u| u as usize));
            }
        }
        stale.sort_unstable();
        stale.dedup();
        let (old_ptr, n) = (prev.node_pointer(), csr.num_nodes());
        let deg = |v: usize| csr.degree(v).max(1) as f32;
        let mut gcn_norm = Vec::with_capacity(csr.num_edges());
        let mut mean_norm = Vec::with_capacity(csr.num_edges());
        let mut next = 0;
        for v in stale.into_iter().chain([n]) {
            // Rows `next..v` kept their values, at shifted edge offsets.
            let kept = old_ptr[next]..old_ptr[v];
            gcn_norm.extend_from_slice(&self.gcn_norm[kept.clone()]);
            mean_norm.extend_from_slice(&self.mean_norm[kept]);
            if v == n {
                break;
            }
            let dv = deg(v);
            let row = csr.neighbors(v).iter();
            gcn_norm.extend(row.map(|&u| 1.0 / (dv * deg(u as usize)).sqrt()));
            mean_norm.extend(std::iter::repeat_n(mean_norm_of(csr, v), csr.degree(v)));
            next = v + 1;
        }
        let mut inv_sqrt_deg = self.inv_sqrt_deg.clone();
        for &v in changed {
            inv_sqrt_deg[v] = inv_sqrt_deg_of(csr, v);
        }
        Norms {
            gcn_norm,
            mean_norm,
            inv_sqrt_deg,
            transposed: OnceCell::new(),
        }
    }

    /// Whether the eagerly computed vectors equal `other`'s bit for bit.
    fn same_bits(&self, other: &Norms) -> bool {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        bits(&self.gcn_norm) == bits(&other.gcn_norm)
            && bits(&self.mean_norm) == bits(&other.mean_norm)
            && bits(&self.inv_sqrt_deg) == bits(&other.inv_sqrt_deg)
    }

    /// The transposed-order vectors of `csr` (the graph these norms are
    /// of), computed on first use.
    fn transposed(&self, csr: &CsrGraph) -> &Transposed {
        self.transposed.get_or_init(|| {
            let t_perm = csr.transpose_permutation();
            let mean_norm_t = t_perm.iter().map(|&i| self.mean_norm[i as usize]).collect();
            Transposed {
                t_perm,
                mean_norm_t,
            }
        })
    }

    /// `shard`'s view of the norms of `csr`: edge vectors sliced into
    /// local edge order, node vectors gathered per local row (`PAD` rows
    /// are out of range and read 1; nothing uses them).
    fn for_shard(&self, csr: &CsrGraph, shard: &Shard) -> Norms {
        let transposed = Transposed {
            t_perm: Vec::new(),
            mean_norm_t: shard.slice_edge_values(&self.transposed(csr).mean_norm_t),
        };
        Norms {
            gcn_norm: shard.slice_edge_values(&self.gcn_norm),
            mean_norm: shard.slice_edge_values(&self.mean_norm),
            inv_sqrt_deg: shard
                .gather_map()
                .iter()
                .map(|&g| self.inv_sqrt_deg.get(g as usize).copied().unwrap_or(1.0))
                .collect(),
            transposed: OnceCell::from(transposed),
        }
    }
}

/// Row `v`'s GraphSAGE mean normalization `1/d` (isolated rows read 1).
fn mean_norm_of(csr: &CsrGraph, v: usize) -> f32 {
    1.0 / csr.degree(v).max(1) as f32
}

/// Row `v`'s `1/sqrt(d)` (isolated rows read 1).
fn inv_sqrt_deg_of(csr: &CsrGraph, v: usize) -> f32 {
    1.0 / (csr.degree(v).max(1) as f32).sqrt()
}

/// The rows whose neighbour lists differ between two graphs of the same
/// node count, ascending. Runs of rows with unchanged degrees are compared
/// as one slice and split in half only where they differ, so a small edit
/// costs a few block compares, not one per row.
fn changed_rows(old: &CsrGraph, new: &CsrGraph) -> Vec<usize> {
    fn split(old: &CsrGraph, new: &CsrGraph, rows: std::ops::Range<usize>, out: &mut Vec<usize>) {
        let (op, np) = (old.node_pointer(), new.node_pointer());
        let (lo, hi) = (rows.start, rows.end);
        if old.edge_list()[op[lo]..op[hi]] == new.edge_list()[np[lo]..np[hi]] {
            return;
        }
        if hi - lo == 1 {
            out.push(lo);
            return;
        }
        let mid = lo + (hi - lo) / 2;
        split(old, new, lo..mid, out);
        split(old, new, mid..hi, out);
    }
    let mut changed = Vec::new();
    let mut v = 0;
    while v < old.num_nodes() {
        let start = v;
        while v < old.num_nodes() && old.degree(v) == new.degree(v) {
            v += 1;
        }
        if start < v {
            split(old, new, start..v, &mut changed);
        }
        if v < old.num_nodes() {
            changed.push(v);
            v += 1;
        }
    }
    changed
}

/// Whether `csr` is symmetric, given that `prev` is and that they differ
/// only in the `changed` rows: every edge that could have lost its
/// partner has an endpoint among them, so checking each changed row's old
/// and new neighbours both ways is enough.
fn symmetric_after(prev: &CsrGraph, csr: &CsrGraph, changed: &[usize]) -> bool {
    changed.iter().all(|&v| {
        let both_ways = |&u: &NodeId| csr.has_edge(u as usize, v as NodeId) == csr.has_edge(v, u);
        csr.neighbors(v).iter().all(both_ways) && prev.neighbors(v).iter().all(both_ways)
    })
}

/// One simulated device bound to a graph: its warm launcher, the
/// backend's kernels and the SGT translation they consume.
///
/// All of it is fixed until [`Engine::advance`] moves the device to a new
/// graph version and clears the memo, so an op's launches are memoized
/// (see [`Launcher::memoized`]) under a key holding just the op, its
/// operand widths and whether it carries edge values: a repeat replays
/// the first simulation's stats and computes its outputs with the
/// kernel's plain loops. A launch over some row windows only is never
/// memoized: serve batches draw their windows from random targets, so a
/// repeat is rare and each entry would stay until the next advance.
struct Device {
    launcher: Launcher,
    spmm: Box<dyn SpmmKernel>,
    sddmm: Box<dyn SddmmKernel>,
    /// The SGT translation (TC-GNN/hybrid backends; enables the fused
    /// path), shared with both kernels.
    translated: Option<Arc<TranslatedGraph>>,
    /// Per-window dispatch policies, `(spmm, sddmm)` (hybrid backend only).
    hybrid_policies: Option<(DispatchPolicy, DispatchPolicy)>,
    /// One-time preprocessing cost (SGT for TC-GNN), modeled host ms.
    preprocessing_ms: f64,
}

impl Device {
    /// Binds `csr` to `backend`'s kernels on a `spec` device, translating
    /// it with SGT unless a `cached` translation is given (which is still
    /// validated against `csr`).
    fn build(
        backend: Backend,
        csr: &CsrGraph,
        spec: &DeviceSpec,
        threads: usize,
        cached: Option<Arc<TranslatedGraph>>,
    ) -> Result<Device, TcgError> {
        let mut launcher = Launcher::new(spec.clone());
        launcher.set_threads(threads);
        let (translated, preprocessing_ms) = match (backend.uses_translation(), cached) {
            (false, _) => (None, 0.0),
            (true, Some(t)) => (Some(t), 0.0),
            (true, None) => (
                Some(Arc::new(
                    tcg_sgt::Sgt::builder().threads(threads).translate(csr)?,
                )),
                tcg_sgt::overhead::model_ms(csr),
            ),
        };
        if let Some(t) = &translated {
            t.validate(csr)?;
        }
        let hybrid_policies = (backend == Backend::Hybrid).then(|| {
            let policy = DispatchPolicy::from_env;
            (policy(KernelClass::Spmm), policy(KernelClass::Sddmm))
        });
        let (spmm, sddmm) = kernels(backend, translated.clone(), hybrid_policies);
        Ok(Device {
            launcher,
            spmm,
            sddmm,
            translated,
            hybrid_policies,
            preprocessing_ms,
        })
    }

    /// Moves the device to a new version of its graph, translated as
    /// `translated`: the kernels rebind to it, and the launcher keeps its
    /// warm state but forgets its memo (whose keys assume one graph) and
    /// its fault plan (each version starts its own, as a new engine does).
    /// The translation comes from outside, so it paid no preprocessing.
    fn advance(&mut self, backend: Backend, translated: Option<Arc<TranslatedGraph>>) {
        self.launcher.clear_memo();
        self.launcher.attach_fault_plan(None);
        (self.spmm, self.sddmm) = kernels(backend, translated.clone(), self.hybrid_policies);
        self.translated = translated;
        self.preprocessing_ms = 0.0;
    }
}

/// `backend`'s SpMM and SDDMM kernels over `translated` (translating
/// backends), with the hybrid backend's `(spmm, sddmm)` policies.
fn kernels(
    backend: Backend,
    translated: Option<Arc<TranslatedGraph>>,
    hybrid_policies: Option<(DispatchPolicy, DispatchPolicy)>,
) -> (Box<dyn SpmmKernel>, Box<dyn SddmmKernel>) {
    match (translated, hybrid_policies) {
        (None, _) if backend == Backend::PygLike => {
            (Box::new(ScatterGatherSpmm), Box::new(CudaCoreSddmm))
        }
        (None, _) => (Box::new(CusparseCsrSpmm), Box::new(CudaCoreSddmm)),
        (Some(t), None) => (
            Box::new(TcgnnSpmm::from_translated(Arc::clone(&t))),
            Box::new(TcgnnSddmm::from_translated(t)),
        ),
        (Some(t), Some((spmm, sddmm))) => (
            Box::new(HybridSpmm::from_translated(Arc::clone(&t)).with_policy(spmm)),
            Box::new(HybridSddmm::from_translated(t).with_policy(sddmm)),
        ),
    }
}

/// Where an engine's ops run.
enum Exec {
    /// One device: ops launch on it directly.
    Single(Box<Device>),
    /// One device engine per shard (see [`sharded`]).
    Sharded(Box<ShardSet>),
}

/// A graph bound to a backend: owns the simulated device state, the
/// backend's kernels, and the per-graph preprocessing (SGT translation for
/// TC-GNN, symmetric-normalization values, transpose permutation).
///
/// Built for more than one device, the engine is sharded: its ops compute
/// the same bits on one device engine per shard (see the `sharded` module) and cost
/// their share of the distributed makespan.
pub struct Engine {
    backend: Backend,
    /// Shared with whoever built or advanced the engine (a serving
    /// session's graph snapshot), not copied.
    csr: Arc<CsrGraph>,
    /// Shared so an op can read a norm vector while it launches through
    /// `&mut self` without copying it.
    norms: Rc<Norms>,
    exec: Exec,
    /// Most recent SpMM kernel report (for profiling tables).
    pub last_spmm_report: Option<tcg_gpusim::KernelReport>,
    /// Most recent SDDMM kernel report.
    pub last_sddmm_report: Option<tcg_gpusim::KernelReport>,
    /// Most recent fused-attention kernel report (TC-GNN backend only).
    pub last_fused_report: Option<tcg_gpusim::KernelReport>,
    /// Attached tracer; `None` (the default) records nothing and allocates
    /// nothing per launch.
    profiler: Option<SharedProfiler>,
    /// Fault response configuration.
    recovery: RecoveryPolicy,
    /// When set, every op takes the CUDA-core fallback path directly (the
    /// trainer's rollback-replay mode); injection stays suppressed.
    forced_fallback: bool,
    /// Transient-fault retries performed.
    retried: u64,
    /// Ops degraded to the fallback kernel.
    degraded: u64,
}

/// Step-by-step construction of an [`Engine`] — the one entry point that
/// every constructor routes through, so graph validation always surfaces
/// as a [`Result`] (no public constructor panics).
///
/// ```ignore
/// let engine = Engine::builder(csr)
///     .backend(Backend::TcGnn)
///     .device(DeviceSpec::rtx3090())
///     .threads(4)
///     .build()?;
/// ```
#[must_use = "call .build() to construct the engine"]
pub struct EngineBuilder {
    backend: Backend,
    csr: Arc<CsrGraph>,
    device: DeviceSpec,
    translation: Option<Arc<TranslatedGraph>>,
    threads: Option<usize>,
    devices: usize,
    partitioner: Partitioner,
}

impl EngineBuilder {
    /// Selects the backend (default: [`Backend::TcGnn`]).
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Selects the simulated device (default: [`DeviceSpec::rtx3090`]).
    pub fn device(mut self, device: DeviceSpec) -> Self {
        self.device = device;
        self
    }

    /// Seeds the builder with an already-computed SGT translation — the
    /// cache-hit path of a serving layer.
    ///
    /// The translation is still validated against the CSR (a stale cache
    /// entry for a different graph surfaces as [`TcgError::CorruptMeta`]
    /// from [`EngineBuilder::build`]), but Algorithm 1 itself is skipped,
    /// so [`Engine::preprocessing_ms`] reports zero: the one-time
    /// translation cost was paid by whoever populated the cache. Only
    /// meaningful for one-device engines on a translating backend; others
    /// ignore it (a sharded engine translates each shard). An `Arc` is
    /// shared by the engine's kernels, not copied.
    pub fn translation(mut self, translation: impl Into<Arc<TranslatedGraph>>) -> Self {
        self.translation = Some(translation.into());
        self
    }

    /// Worker-thread count for host-side parallel execution: block bodies
    /// fan out over this many threads (`1` = fully sequential, `0` = all
    /// available cores), and a cache-miss SGT translation runs
    /// multi-threaded. Results are bitwise identical at any thread count.
    /// Default: the `TCG_THREADS` environment variable (unset → 1).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Simulated devices the graph is sharded across (default 1). More
    /// than one builds a sharded engine: the same ops, bitwise-identical
    /// results, costed on per-device timelines with halo exchange.
    pub fn devices(mut self, devices: usize) -> Self {
        self.devices = devices;
        self
    }

    /// How row windows are assigned to devices when sharding (default
    /// [`Partitioner::Contiguous`]).
    pub fn partitioner(mut self, partitioner: Partitioner) -> Self {
        self.partitioner = partitioner;
        self
    }

    /// Validates the graph (and any seeded translation) and constructs the
    /// engine. Zero devices or a non-symmetric graph is
    /// [`TcgError::InvalidInput`]; for the TC-GNN backend the SGT
    /// translation is validated against the CSR before any kernel can
    /// consume it (corruption surfaces as [`TcgError::CorruptMeta`] here
    /// rather than as garbage aggregation output later).
    pub fn build(self) -> Result<Engine, TcgError> {
        let EngineBuilder {
            backend,
            csr,
            device,
            translation: cached,
            threads,
            devices,
            partitioner,
        } = self;
        check_devices(devices)?;
        if !csr.is_symmetric() {
            return Err(asymmetric());
        }
        let threads = tcg_gpusim::resolve_threads(threads).max(1);
        let norms = Norms::of(&csr);
        let exec = match devices {
            1 => Exec::Single(Box::new(Device::build(
                backend, &csr, &device, threads, cached,
            )?)),
            _ => Exec::Sharded(Box::new(ShardSet::build(
                &csr,
                &norms,
                backend,
                &device,
                threads,
                devices,
                partitioner,
            )?)),
        };
        Ok(Engine::assemble(backend, csr, norms, exec))
    }
}

/// The error for a graph that is not symmetric.
fn asymmetric() -> TcgError {
    TcgError::InvalidInput {
        what: "engine graph",
        detail: "adjacency must be symmetric (undirected)".into(),
    }
}

/// The device-count rule [`EngineBuilder::build`] applies, for front ends
/// to ask before they have a graph: zero is [`TcgError::InvalidInput`].
pub fn check_devices(devices: usize) -> Result<(), TcgError> {
    if devices == 0 {
        return Err(TcgError::InvalidInput {
            what: "engine devices",
            detail: "an engine needs at least one device".into(),
        });
    }
    Ok(())
}

impl Engine {
    /// Starts building an engine bound to `csr`. Defaults: TC-GNN backend,
    /// RTX 3090 device, no cached translation, thread count from
    /// `TCG_THREADS` (unset → 1). An `Arc` is shared by the engine, not
    /// copied.
    pub fn builder(csr: impl Into<Arc<CsrGraph>>) -> EngineBuilder {
        EngineBuilder {
            backend: Backend::TcGnn,
            csr: csr.into(),
            device: DeviceSpec::rtx3090(),
            translation: None,
            threads: None,
            devices: 1,
            partitioner: Partitioner::Contiguous,
        }
    }

    /// Moves the engine to `csr`, a new version of its graph with the same
    /// node count, and to `translation`, `csr`'s SGT translation (required
    /// by a one-device engine on a translating backend, ignored by the
    /// DGL/PyG backends and by a sharded engine, which translates its
    /// shards).
    ///
    /// The result computes and costs every op exactly as a fresh
    /// [`EngineBuilder::build`] of `csr` with the same settings, but a
    /// one-device engine pays in proportion to the edit: it finds the rows
    /// whose neighbour lists changed by comparing the two graphs, checks
    /// symmetry on those rows and their neighbours, validates only the
    /// translation windows holding them, recomputes the norms of the rows
    /// whose values move and copies the rest, and keeps its launcher with
    /// its memo cleared (the memo's keys assume one graph; a launch's stats
    /// never depend on launcher history). A sharded engine repartitions and
    /// rebuilds its device engines, retranslating each shard
    /// ([`Engine::preprocessing_ms`] reports that cost again).
    ///
    /// The recovery policy, launch-log setting and profiler carry over.
    /// Fault state restarts as on a fresh engine: the fault plan is
    /// detached, a forced fallback released, and the retry and degrade
    /// counts go back to zero, so read [`Engine::fault_report`] first and
    /// attach the next version's plan after. On error (a node-count change, an asymmetric graph, a
    /// translation that does not validate) the engine is left unchanged.
    ///
    /// Under `TCG_VERIFY=1` the full symmetry check, the from-scratch norms
    /// and [`TranslatedGraph::validate`] also run, and any disagreement
    /// with the incremental results panics.
    ///
    /// An `Arc` is shared by the engine, not copied; a borrowed graph is
    /// copied once.
    pub fn advance(
        &mut self,
        csr: impl Into<Arc<CsrGraph>>,
        translation: Option<Arc<TranslatedGraph>>,
    ) -> Result<(), TcgError> {
        let next: Arc<CsrGraph> = csr.into();
        let csr = &*next;
        if csr.num_nodes() != self.csr.num_nodes() {
            return Err(TcgError::InvalidInput {
                what: "engine advance",
                detail: format!(
                    "graph has {} nodes, the engine's {}: build a new engine",
                    csr.num_nodes(),
                    self.csr.num_nodes()
                ),
            });
        }
        let verify = tcg_fault::verify_requested();
        let changed = changed_rows(&self.csr, csr);
        let symmetric = symmetric_after(&self.csr, csr, &changed);
        if verify {
            assert_eq!(symmetric, csr.is_symmetric(), "incremental symmetry check");
        }
        if !symmetric {
            return Err(asymmetric());
        }
        let norms = self.norms.advanced(&self.csr, csr, &changed);
        if verify {
            assert!(norms.same_bits(&Norms::of(csr)), "incremental norms");
        }
        match &mut self.exec {
            Exec::Single(dev) => {
                let translation = match (self.backend.uses_translation(), translation) {
                    (false, _) => None,
                    (true, Some(t)) => {
                        let mut windows: Vec<usize> =
                            changed.iter().map(|&v| v / t.win_size.max(1)).collect();
                        windows.dedup();
                        let checked = t.validate_windows(csr, windows);
                        if verify {
                            let full = t.validate(csr);
                            assert_eq!(checked.is_ok(), full.is_ok(), "windowed validation");
                        }
                        checked?;
                        Some(t)
                    }
                    (true, None) => {
                        return Err(TcgError::InvalidInput {
                            what: "engine advance",
                            detail: format!(
                                "{} needs the new graph's SGT translation",
                                self.backend.name()
                            ),
                        })
                    }
                };
                dev.advance(self.backend, translation);
            }
            Exec::Sharded(set) => {
                **set = set.rebuilt(csr, &norms, self.backend)?;
                for eng in set.engines_mut() {
                    eng.set_recovery_policy(self.recovery);
                    if let Some(p) = &self.profiler {
                        eng.attach_profiler(Arc::clone(p));
                    }
                }
            }
        }
        self.csr = next;
        self.norms = Rc::new(norms);
        self.forced_fallback = false;
        self.retried = 0;
        self.degraded = 0;
        self.last_spmm_report = None;
        self.last_sddmm_report = None;
        self.last_fused_report = None;
        Ok(())
    }

    /// The engine over `csr` running on `exec`, with default recovery.
    fn assemble(backend: Backend, csr: Arc<CsrGraph>, norms: Norms, exec: Exec) -> Engine {
        Engine {
            backend,
            csr,
            norms: Rc::new(norms),
            exec,
            last_spmm_report: None,
            last_sddmm_report: None,
            last_fused_report: None,
            profiler: None,
            recovery: RecoveryPolicy::default(),
            forced_fallback: false,
            retried: 0,
            degraded: 0,
        }
    }

    /// The one-device state and the graph it runs on. A sharded engine
    /// hands every op to its device engines before reaching a path that
    /// calls this.
    fn local(&mut self) -> (&mut Device, &CsrGraph) {
        match &mut self.exec {
            Exec::Single(dev) => (dev, &*self.csr),
            Exec::Sharded(_) => unreachable!("one-device path on a sharded engine"),
        }
    }

    /// [`Engine::local`], shared.
    fn local_ref(&self) -> &Device {
        match &self.exec {
            Exec::Single(dev) => dev,
            Exec::Sharded(_) => unreachable!("one-device path on a sharded engine"),
        }
    }

    /// The device engines of a sharded engine (none on one device).
    fn device_engines_mut(&mut self) -> impl Iterator<Item = &mut Engine> {
        match &mut self.exec {
            Exec::Single(_) => None,
            Exec::Sharded(set) => Some(set.engines_mut()),
        }
        .into_iter()
        .flatten()
    }

    /// Worker threads the launcher fans block bodies over (1 = sequential).
    pub fn threads(&self) -> usize {
        match &self.exec {
            Exec::Single(dev) => dev.launcher.threads(),
            Exec::Sharded(set) => set.threads(),
        }
    }

    /// Attaches a profiler; every subsequent simulated launch records one
    /// event whose duration is exactly the milliseconds charged to the
    /// caller's [`Cost`]. The one-time preprocessing already paid at
    /// construction is recorded immediately as a host span. A sharded
    /// engine's device engines record their own kernels and preprocessing,
    /// so its trace sums device work, not the makespan.
    pub fn attach_profiler(&mut self, profiler: SharedProfiler) {
        for eng in self.device_engines_mut() {
            eng.attach_profiler(Arc::clone(&profiler));
        }
        if let Exec::Single(dev) = &self.exec {
            if dev.preprocessing_ms > 0.0 {
                profiler
                    .write()
                    .expect("profiler lock")
                    .record_host("sgt_preprocess", dev.preprocessing_ms);
            }
        }
        self.profiler = Some(profiler);
    }

    /// The attached profiler, if any.
    pub fn profiler(&self) -> Option<&SharedProfiler> {
        self.profiler.as_ref()
    }

    /// Records a kernel event carrying `report`'s counters; no-op (and no
    /// allocation) when no profiler is attached.
    fn prof_kernel(&self, name: &str, phase: Phase, ms: f64, report: &tcg_gpusim::KernelReport) {
        if let Some(p) = &self.profiler {
            p.write()
                .expect("profiler lock")
                .record_kernel(name, phase, ms, report);
        }
    }

    /// Records a counter-less span; no-op when no profiler is attached.
    fn prof_span(&self, name: &str, phase: Phase, ms: f64) {
        if let Some(p) = &self.profiler {
            p.write()
                .expect("profiler lock")
                .record_span(name, phase, ms);
        }
    }

    /// Records a zero-duration fault marker; no-op without a profiler.
    fn prof_fault(&self, name: &str, phase: Phase) {
        if let Some(p) = &self.profiler {
            p.write().expect("profiler lock").record_fault(name, phase);
        }
    }

    /// Records a zero-duration fallback marker; no-op without a profiler.
    fn prof_fallback(&self, name: &str, phase: Phase) {
        if let Some(p) = &self.profiler {
            p.write()
                .expect("profiler lock")
                .record_fallback(name, phase);
        }
    }

    /// Records one hybrid mixed launch's per-window dispatch decisions: a
    /// zero-duration trace marker carrying the run-length mask, plus the
    /// `tcg_hybrid_*` counter family. No-op without a profiler.
    fn prof_hybrid_dispatch(&self, op: &str, mask: &[WindowBackend]) {
        if let Some(p) = &self.profiler {
            let count = |wb| mask.iter().filter(|b| **b == wb).count() as u64;
            let (tcu, cuda) = (count(WindowBackend::Tcu), count(WindowBackend::CudaCore));
            let mut p = p.write().expect("profiler lock");
            p.incr_counter("tcg_hybrid_launches_total", 1);
            p.incr_counter("tcg_hybrid_windows_tcu_total", tcu);
            p.incr_counter("tcg_hybrid_windows_cuda_total", cuda);
            p.record_span(
                &format!("hybrid_dispatch:{op}[{}]", render_mask(mask)),
                Phase::Aggregation,
                0.0,
            );
        }
    }

    /// Recomputes and records the hybrid dispatch mask for one op. The mask
    /// is a pure function of window geometry, so this reproduces exactly
    /// what the kernel decided. No-op on non-hybrid backends or without a
    /// profiler.
    fn prof_hybrid_mask(
        &self,
        op: &str,
        class: KernelClass,
        dim: usize,
        windows: Option<&WindowSet>,
    ) {
        if self.profiler.is_none() {
            return;
        }
        let dev = self.local_ref();
        let (Some(t), Some((spmm_policy, sddmm_policy))) = (&dev.translated, dev.hybrid_policies)
        else {
            return;
        };
        let policy = match class {
            KernelClass::Spmm => spmm_policy,
            KernelClass::Sddmm => sddmm_policy,
        };
        let mask = policy.mask_windows(t, &self.csr, dim, windows.map(WindowSet::ids));
        self.prof_hybrid_dispatch(op, &mask);
    }

    /// Attaches a fault-injection plan to the simulated device. Ops keep
    /// their signatures; injected faults surface through the recovery
    /// machinery (retry, then CUDA-core fallback) instead of as errors.
    /// A sharded engine gives device 0 `plan` and derives one per other
    /// device.
    pub fn attach_fault_plan(&mut self, plan: FaultPlan) {
        match &mut self.exec {
            Exec::Single(dev) => dev.launcher.attach_fault_plan(Some(plan)),
            Exec::Sharded(set) => set.attach_fault_plan(plan),
        }
    }

    /// The attached fault plan, if any (device 0's on a sharded engine).
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        match &self.exec {
            Exec::Single(dev) => dev.launcher.fault_plan(),
            Exec::Sharded(set) => set.fault_plan(),
        }
    }

    /// Replaces the recovery policy (defaults are sensible; tests tighten).
    pub fn set_recovery_policy(&mut self, policy: RecoveryPolicy) {
        self.recovery = policy;
        for eng in self.device_engines_mut() {
            eng.set_recovery_policy(policy);
        }
    }

    /// Enables (or disables) the simulated device's per-launch virtual-time
    /// log. While enabled, every completed kernel launch appends its modeled
    /// milliseconds — the checkpoint granularity at which the serving
    /// layer's deadline cancellation can charge a partially-executed batch.
    /// A sharded engine logs each op's share of the makespan instead.
    pub fn set_launch_log(&mut self, on: bool) {
        match &mut self.exec {
            Exec::Single(dev) => dev.launcher.set_launch_log(on),
            Exec::Sharded(set) => set.set_launch_log(on),
        }
    }

    /// Drains the accumulated per-launch milliseconds (empty when the log
    /// is disabled), in launch-completion order.
    pub fn take_launch_log(&mut self) -> Vec<f64> {
        match &mut self.exec {
            Exec::Single(dev) => dev.launcher.take_launch_log(),
            Exec::Sharded(set) => set.take_launch_log(),
        }
    }

    /// Forces (or releases) the CUDA-core fallback path for every op. While
    /// forced, fault injection is suppressed *without consuming RNG draws*,
    /// so a rollback replay leaves the fault schedule of subsequent epochs
    /// untouched — the property the deterministic chaos tests rely on.
    pub fn set_forced_fallback(&mut self, on: bool) {
        self.forced_fallback = on;
        match &mut self.exec {
            Exec::Single(dev) => dev.launcher.set_fault_suppressed(on),
            Exec::Sharded(set) => {
                for eng in set.engines_mut() {
                    eng.set_forced_fallback(on);
                }
            }
        }
    }

    /// Launches answered from the launch memo instead of simulated (see
    /// [`Launcher::memoized`]); a sharded engine sums its devices.
    pub fn memo_hits(&self) -> u64 {
        match &self.exec {
            Exec::Single(dev) => dev.launcher.memo_hits(),
            Exec::Sharded(set) => set.engines().map(Engine::memo_hits).sum(),
        }
    }

    /// Whether ops are currently pinned to the fallback path.
    pub fn forced_fallback(&self) -> bool {
        self.forced_fallback
    }

    /// Fault accounting for this engine: the plan's per-site injection
    /// counts plus the engine's retry/degradation totals. All zeros when no
    /// plan is attached and nothing was retried. A sharded engine sums its
    /// devices.
    pub fn fault_report(&self) -> FaultReport {
        let dev = match &self.exec {
            Exec::Single(dev) => dev,
            Exec::Sharded(set) => return set.fault_report(),
        };
        let mut r = dev
            .launcher
            .fault_plan()
            .map(FaultReport::from_plan)
            .unwrap_or_default();
        r.retried = self.retried;
        r.degraded = self.degraded;
        r
    }

    /// Classifies `err` inside an op's recovery loop: records the fault
    /// marker and, for a transient fault with retry budget left, charges
    /// backoff and signals another attempt. `Ok(true)` → retry, `Ok(false)`
    /// → degrade to fallback, `Err` → not a device fault, propagate.
    fn absorb_fault(
        &mut self,
        err: TcgError,
        phase: Phase,
        attempt: &mut u32,
        extra_ms: &mut f64,
    ) -> Result<bool, TcgError> {
        if !err.is_device_fault() {
            return Err(err);
        }
        let label = err.site().map_or("device_fault", |s| s.label());
        self.prof_fault(label, phase);
        if err.is_transient() && *attempt < self.recovery.max_retries {
            *attempt += 1;
            self.retried += 1;
            // `retried` is the engine-global retry sequence number, so with
            // jitter enabled each retry event draws a distinct (but pure)
            // delay; with the default jitter-free policy this reproduces the
            // historical linear schedule bit-for-bit.
            let backoff = self.recovery.backoff.delay_ms(self.retried, *attempt);
            self.prof_span("retry_backoff", phase, backoff);
            *extra_ms += backoff;
            return Ok(true);
        }
        Ok(false)
    }

    /// Runs an op's primary kernel under the recovery policy: transients
    /// retry with backoff; a consumed ECC flip (when scanned) discards the
    /// output, its time still spent. `Err(poisoned output, if any)` means
    /// degrade, as does a forced fallback, which runs nothing. Backoff and
    /// wasted time accrue to `extra_ms`; other errors propagate.
    fn attempt<T>(
        &mut self,
        op: &str,
        extra_ms: &mut f64,
        mut run: impl FnMut(&mut Engine) -> Result<(T, tcg_gpusim::KernelReport), TcgError>,
    ) -> Result<Result<(T, tcg_gpusim::KernelReport), Option<T>>, TcgError> {
        if self.forced_fallback {
            return Ok(Err(None));
        }
        let mut attempt = 0u32;
        loop {
            match run(self) {
                Ok((out, report)) if self.recovery.ecc_scan && report.stats.ecc_faults > 0 => {
                    self.prof_fault("ecc_bit_flip", Phase::Aggregation);
                    let wasted = report.time_ms + self.sparse_dispatch_ms(1);
                    self.prof_span(&format!("{op}_discarded"), Phase::Aggregation, wasted);
                    *extra_ms += wasted;
                    return Ok(Err(Some(out)));
                }
                Ok(clean) => return Ok(Ok(clean)),
                Err(e) => {
                    if !self.absorb_fault(e, Phase::Aggregation, &mut attempt, extra_ms)? {
                        return Ok(Err(None));
                    }
                }
            }
        }
    }

    /// Counts `op` as degraded to its CUDA-core fallback (a forced fallback
    /// is not a degradation).
    fn degrade(&mut self, op: &str) {
        if self.forced_fallback {
            return;
        }
        self.degraded += 1;
        self.prof_fallback(&format!("{op}_fallback"), Phase::Aggregation);
    }

    /// Runs `f` with fault injection suppressed (the fallback path),
    /// restoring the previous suppression afterwards.
    fn suppressed<T>(&mut self, f: impl FnOnce(&mut Engine) -> T) -> T {
        let launcher = &mut self.local().0.launcher;
        let was_suppressed = launcher.fault_suppressed();
        launcher.set_fault_suppressed(true);
        let out = f(self);
        self.local().0.launcher.set_fault_suppressed(was_suppressed);
        out
    }

    /// The backend this engine models.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// The bound graph.
    pub fn graph(&self) -> &CsrGraph {
        &self.csr
    }

    /// The SGT translation the kernels run over (one-device translating
    /// engines; `None` otherwise).
    pub fn translation(&self) -> Option<&TranslatedGraph> {
        match &self.exec {
            Exec::Single(dev) => dev.translated.as_deref(),
            Exec::Sharded(_) => None,
        }
    }

    /// Whether the sparse ops honor a row-window set (the `*_on` variants):
    /// one device, a translating backend, and not forced onto the
    /// fallback kernels. Elsewhere they compute every window.
    pub fn skips_windows(&self) -> bool {
        self.translation().is_some() && !self.forced_fallback
    }

    /// One-time preprocessing cost in modeled milliseconds (SGT for the
    /// TC-GNN backend, zero otherwise) — Figure 7(b)'s numerator. A sharded
    /// engine sums the per-shard translations.
    pub fn preprocessing_ms(&self) -> f64 {
        match &self.exec {
            Exec::Single(dev) => dev.preprocessing_ms,
            Exec::Sharded(set) => set.engines().map(Engine::preprocessing_ms).sum(),
        }
    }

    /// Closes a sharded run: returns its [`DistReport`] — everything the
    /// devices executed since the previous call — and restarts every device
    /// timeline. `None` on a one-device engine.
    pub fn take_dist_report(&mut self) -> Option<DistReport> {
        match &mut self.exec {
            Exec::Single(_) => None,
            Exec::Sharded(set) => Some(set.take_report()),
        }
    }

    /// Cost of a streaming elementwise pass.
    fn pass_ms(&self, read_bytes: u64, write_bytes: u64) -> f64 {
        stream_pass_report(self.local_ref().launcher.device(), read_bytes, write_bytes).time_ms
    }

    /// Host dispatch cost of `n` sparse graph operations on this backend.
    fn sparse_dispatch_ms(&self, n: u32) -> f64 {
        let per_op = match self.backend {
            Backend::TcGnn | Backend::Hybrid => EXTENSION_DISPATCH_MS,
            _ => FRAMEWORK_DISPATCH_MS,
        };
        per_op * f64::from(n)
    }

    /// Sharded node-row op: gathers each shard's rows of `x` (exchanging
    /// its halo), runs `op` on its device engine, scatters the owned rows.
    fn sharded_rows(
        &mut self,
        name: &str,
        x: &DenseMatrix,
        mut op: impl FnMut(&mut Engine, &Shard, &DenseMatrix) -> Result<(DenseMatrix, f64), TcgError>,
    ) -> Result<(DenseMatrix, f64), TcgError> {
        SpmmProblem::new(&self.csr, None, x)?;
        let Exec::Sharded(set) = &mut self.exec else {
            unreachable!("sharded op on a one-device engine");
        };
        let mut out = DenseMatrix::zeros(x.rows(), x.cols());
        let ms = set.run(name, x.cols(), |eng, sh| {
            let (local, ms) = op(eng, sh, &sh.gather_x(x))?;
            sh.scatter_owned(&local, &mut out);
            Ok(ms)
        })?;
        Ok((out, ms))
    }

    /// Charges a dense op over `rows` rows: `cost(self, rows)` on one
    /// device. On a sharded engine each device pays `cost` for its
    /// `split(shard)` rows, unsynced, and the op costs its share of the
    /// makespan.
    fn dense_ms(
        &mut self,
        name: &str,
        rows: usize,
        split: impl Fn(&Shard) -> usize,
        cost: impl Fn(&Engine, usize) -> f64,
    ) -> f64 {
        let Exec::Sharded(set) = &mut self.exec else {
            return cost(self, rows);
        };
        set.run(name, 0, |eng, sh| Ok(cost(eng, split(sh))))
            .expect("dense charges cannot fail")
    }

    /// Hybrid ECC recovery: identifies the poisoned row windows by
    /// scanning the discarded output for non-finite values, flips exactly
    /// those windows to the CUDA-core body, and re-executes the mixed
    /// launch with injection suppressed — every healthy window keeps its
    /// original dispatch. Returns `None` when no poisoned TCU window can
    /// be identified, in which case the caller takes the whole-op degrade.
    fn hybrid_spmm_window_degrade(
        &mut self,
        x: &DenseMatrix,
        values: Option<&[f32]>,
        windows: Option<&WindowSet>,
        poisoned: &DenseMatrix,
    ) -> Result<Option<(DenseMatrix, f64)>, TcgError> {
        let dev = self.local_ref();
        let (Some(t), Some((spmm_policy, _))) = (dev.translated.clone(), dev.hybrid_policies)
        else {
            return Ok(None);
        };
        let ids = windows.map(WindowSet::ids);
        let mut mask = spmm_policy.mask_windows(&t, &self.csr, x.cols(), ids);
        let mut flipped = 0u64;
        for (w, choice) in mask.iter_mut().enumerate() {
            let row_lo = w * tcg_sgt::TC_BLK_H;
            let row_hi = ((w + 1) * tcg_sgt::TC_BLK_H).min(poisoned.rows());
            let dirty = (row_lo..row_hi).any(|r| poisoned.row(r).iter().any(|v| !v.is_finite()));
            if dirty && *choice == WindowBackend::Tcu {
                *choice = WindowBackend::CudaCore;
                flipped += 1;
            }
        }
        if flipped == 0 {
            return Ok(None);
        }
        self.degraded += 1;
        self.prof_fallback("spmm_window_degrade", Phase::Aggregation);
        if let Some(p) = &self.profiler {
            p.write()
                .expect("profiler lock")
                .incr_counter("tcg_hybrid_window_degrades_total", flipped);
        }
        self.prof_hybrid_dispatch("spmm_degraded", &mask);
        let kernel = HybridSpmm::from_translated(t).with_mask(mask);
        let (out, report) = self.suppressed(|eng| {
            let (dev, csr) = eng.local();
            kernel.execute(&mut dev.launcher, &SpmmProblem::new(csr, values, x)?)
        })?;
        let ms = report.time_ms + self.sparse_dispatch_ms(1);
        self.prof_kernel("spmm", Phase::Aggregation, ms, &report);
        self.last_spmm_report = Some(report);
        Ok(Some((out, ms)))
    }

    /// Neighbor aggregation `out = (F ⊙ A)·X` on the backend's kernel.
    ///
    /// Device faults injected by an attached [`FaultPlan`] are absorbed
    /// here: transients retry with backoff, everything else degrades to the
    /// cuSPARSE-class CUDA-core kernel (injection suppressed). Only setup
    /// errors — dimension mismatches and the like — reach the caller.
    /// The hybrid backend recovers from a detected ECC flip at *window*
    /// granularity instead: only the poisoned windows are re-dispatched to
    /// the CUDA-core body (see `Engine::hybrid_spmm_window_degrade`).
    pub fn spmm(
        &mut self,
        x: &DenseMatrix,
        values: Option<&[f32]>,
    ) -> Result<(DenseMatrix, f64), TcgError> {
        self.spmm_on(x, values, None)
    }

    /// [`Engine::spmm`] promising only the rows of `windows` (`None` is
    /// every window): the others launch nothing, cost nothing and stay
    /// zero where [`Engine::skips_windows`] holds, and compute as usual
    /// elsewhere. Only the degrade to the CUDA-core kernel computes every
    /// row.
    pub fn spmm_on(
        &mut self,
        x: &DenseMatrix,
        values: Option<&[f32]>,
        windows: Option<&WindowSet>,
    ) -> Result<(DenseMatrix, f64), TcgError> {
        SpmmProblem::new(&self.csr, values, x)?;
        let windows = windows.filter(|_| self.skips_windows());
        if matches!(self.exec, Exec::Sharded(_)) {
            return self.sharded_rows("spmm", x, |eng, sh, lx| {
                let local_values = values.map(|v| sh.slice_edge_values(v));
                eng.spmm(lx, local_values.as_deref())
            });
        }
        let mut extra_ms = 0.0;
        let primary = self.attempt("spmm", &mut extra_ms, |eng| {
            let (dev, csr) = eng.local();
            let prob = SpmmProblem::new(csr, values, x)?;
            let key = ("spmm", x.cols(), values.is_some());
            let (l, k) = (&mut dev.launcher, &dev.spmm);
            match windows {
                None => l.memoized(key, |l| k.execute(l, &prob)),
                Some(w) => k.execute_windows(l, &prob, w.ids()),
            }
        })?;
        match primary {
            Ok((out, report)) => {
                let ms = report.time_ms + self.sparse_dispatch_ms(1);
                self.prof_hybrid_mask("spmm", KernelClass::Spmm, x.cols(), windows);
                self.prof_kernel("spmm", Phase::Aggregation, ms, &report);
                self.last_spmm_report = Some(report);
                return Ok((out, extra_ms + ms));
            }
            Err(Some(poisoned)) if self.backend == Backend::Hybrid => {
                if let Some((out, ms)) =
                    self.hybrid_spmm_window_degrade(x, values, windows, &poisoned)?
                {
                    return Ok((out, extra_ms + ms));
                }
            }
            Err(_) => {}
        }
        self.degrade("spmm");
        let (out, report) = self.suppressed(|eng| {
            let (dev, csr) = eng.local();
            CusparseCsrSpmm.execute(&mut dev.launcher, &SpmmProblem::new(csr, values, x)?)
        })?;
        let ms = report.time_ms + self.sparse_dispatch_ms(1);
        self.prof_kernel("spmm", Phase::Aggregation, ms, &report);
        self.last_spmm_report = Some(report);
        Ok((out, extra_ms + ms))
    }

    /// Transposed aggregation `out = (Fᵀ ⊙ Aᵀ)·X` (backward passes).
    ///
    /// Topologically `Aᵀ = A` (symmetric graph); values are realigned via
    /// the transpose permutation, which costs one gather pass over the edge
    /// array in every framework.
    pub fn spmm_t(
        &mut self,
        x: &DenseMatrix,
        values: Option<&[f32]>,
    ) -> Result<(DenseMatrix, f64), TcgError> {
        let Some(v) = values else {
            return self.spmm(x, None);
        };
        SpmmProblem::new(&self.csr, values, x)?;
        // Realigned on the global graph: a transposed edge's partner may
        // live in another shard.
        let t_perm = &self.norms.transposed(&self.csr).t_perm;
        let vt: Vec<f32> = t_perm.iter().map(|&i| v[i as usize]).collect();
        if matches!(self.exec, Exec::Sharded(_)) {
            return self.sharded_rows("spmm_t", x, |eng, sh, lx| {
                eng.spmm_permuted(lx, &sh.slice_edge_values(&vt))
            });
        }
        self.spmm_permuted(x, &vt)
    }

    /// [`Engine::spmm`] over already-transposed edge values, charging the
    /// permutation pass that realigned them.
    fn spmm_permuted(
        &mut self,
        x: &DenseMatrix,
        vt: &[f32],
    ) -> Result<(DenseMatrix, f64), TcgError> {
        let perm_ms = self.pass_ms(
            (self.csr.num_edges() * 8) as u64,
            (self.csr.num_edges() * 4) as u64,
        ) + self.sparse_dispatch_ms(1);
        self.prof_span("edge_permute", Phase::Aggregation, perm_ms);
        let (out, ms) = self.spmm(x, Some(vt))?;
        Ok((out, ms + perm_ms))
    }

    /// Edge-feature computation `f[e] = xa[src]·xb[dst]` on the backend's
    /// SDDMM. The PyG path additionally materializes the gathered
    /// `E×D` endpoint features, which its scatter formulation requires.
    pub fn sddmm(
        &mut self,
        xa: &DenseMatrix,
        xb: &DenseMatrix,
    ) -> Result<(Vec<f32>, f64), TcgError> {
        if matches!(self.exec, Exec::Sharded(_)) {
            SpmmProblem::new(&self.csr, None, xa)?;
            SpmmProblem::new(&self.csr, None, xb)?;
            // `f[e] = xa[row]·xb[neighbor]`: only `xb` has halo rows.
            return self.sharded_edges("sddmm", xb.cols(), |eng, sh| {
                eng.sddmm(&sh.gather_x(xa), &sh.gather_x(xb))
            });
        }
        let mut extra_ms = 0.0;
        let primary = self.attempt("sddmm", &mut extra_ms, |eng| {
            let (dev, csr) = eng.local();
            let key = ("sddmm", xa.cols(), xb.cols());
            dev.launcher
                .memoized(key, |l| dev.sddmm.execute(l, csr, xa, xb))
        })?;
        let (vals, report) = match primary {
            Ok(clean) => {
                self.prof_hybrid_mask("sddmm", KernelClass::Sddmm, xa.cols(), None);
                clean
            }
            Err(_) => {
                self.degrade("sddmm");
                self.suppressed(|eng| {
                    let (dev, csr) = eng.local();
                    CudaCoreSddmm.execute(&mut dev.launcher, csr, xa, xb)
                })?
            }
        };
        let kernel_ms = report.time_ms + self.sparse_dispatch_ms(1);
        let mut ms = extra_ms + kernel_ms;
        self.prof_kernel("sddmm", Phase::Aggregation, kernel_ms, &report);
        self.last_sddmm_report = Some(report);
        if self.backend == Backend::PygLike {
            let ed_bytes = (self.csr.num_edges() * xa.cols() * 4) as u64;
            // Gather x_i, gather x_j (write E×D each), then mul+reduce pass.
            let extra_ms = self.pass_ms(ed_bytes, ed_bytes) * 2.0
                + self.pass_ms(2 * ed_bytes, ed_bytes / 4)
                + self.sparse_dispatch_ms(3);
            self.prof_span("sddmm_materialize", Phase::Aggregation, extra_ms);
            ms += extra_ms;
        }
        Ok((vals, ms))
    }

    /// Row-wise softmax over edge values.
    ///
    /// DGL's `edge_softmax` launches three kernels (segment max, exp + segment
    /// sum, divide); PyG's scatter softmax behaves the same; TC-GNN fuses the
    /// passes into the single kernel implemented in `tcg-kernels`.
    pub fn edge_softmax(&mut self, values: &[f32]) -> Result<(Vec<f32>, f64), TcgError> {
        if matches!(self.exec, Exec::Sharded(_)) {
            if values.len() != self.csr.num_edges() {
                return Err(TcgError::DimMismatch {
                    what: "edge value count vs edges",
                    expected: self.csr.num_edges(),
                    actual: values.len(),
                });
            }
            return self.sharded_edges("edge_softmax", 0, |eng, sh| {
                eng.edge_softmax(&sh.slice_edge_values(values))
            });
        }
        // The softmax kernel runs no MMA, so an armed ECC flip cannot poison
        // it; transients are the only concern.
        let mut extra_ms = 0.0;
        let primary = self.attempt("edge_softmax", &mut extra_ms, |eng| {
            let (dev, csr) = eng.local();
            dev.launcher
                .memoized("edge_softmax", |l| sparse_row_softmax(l, csr, values))
        })?;
        let (out, report) = match primary {
            Ok(clean) => clean,
            Err(_) => {
                self.degrade("edge_softmax");
                self.suppressed(|eng| {
                    let (dev, csr) = eng.local();
                    sparse_row_softmax(&mut dev.launcher, csr, values)
                })?
            }
        };
        let kernel_ms = report.time_ms + self.sparse_dispatch_ms(1);
        let mut ms = extra_ms + kernel_ms;
        self.prof_kernel("edge_softmax", Phase::Aggregation, kernel_ms, &report);
        if !self.backend.uses_translation() {
            // Two extra kernel round-trips over the edge array, each its own
            // framework op (DGL's segment max / exp-sum / divide pipeline).
            let e_bytes = (self.csr.num_edges() * 4) as u64;
            let extra_ms = 2.0 * self.pass_ms(e_bytes, e_bytes) + self.sparse_dispatch_ms(2);
            self.prof_span("edge_softmax_passes", Phase::Aggregation, extra_ms);
            ms += extra_ms;
        }
        Ok((out, ms))
    }

    /// Backward of row-wise softmax: `de = p ⊙ (dp − rowsum(dp ⊙ p))`.
    /// Same cost structure in every framework (two passes over edges).
    pub fn edge_softmax_backward(&mut self, p: &[f32], dp: &[f32]) -> (Vec<f32>, f64) {
        assert_eq!(p.len(), dp.len());
        if matches!(self.exec, Exec::Sharded(_)) {
            return self
                .sharded_edges("edge_softmax_backward", 0, |eng, sh| {
                    let (p, dp) = (sh.slice_edge_values(p), sh.slice_edge_values(dp));
                    Ok(eng.edge_softmax_backward(&p, &dp))
                })
                .expect("softmax backward cannot fail");
        }
        let mut de = vec![0.0f32; p.len()];
        for v in 0..self.csr.num_nodes() {
            let lo = self.csr.node_pointer()[v];
            let hi = self.csr.node_pointer()[v + 1];
            let dot: f32 = (lo..hi).map(|e| p[e] * dp[e]).sum();
            for e in lo..hi {
                de[e] = p[e] * (dp[e] - dot);
            }
        }
        let e_bytes = (self.csr.num_edges() * 4) as u64;
        let ms = self.pass_ms(2 * e_bytes, e_bytes) * 2.0 + self.sparse_dispatch_ms(2);
        self.prof_span("edge_softmax_backward", Phase::Aggregation, ms);
        (de, ms)
    }

    /// Sharded edge-valued op: runs `op` on each shard's device engine
    /// (after exchanging `halo_dim` columns of halo rows; edge values of
    /// owned rows are resident) and scatters its local edge values into
    /// global edge order.
    fn sharded_edges(
        &mut self,
        name: &str,
        halo_dim: usize,
        mut op: impl FnMut(&mut Engine, &Shard) -> Result<(Vec<f32>, f64), TcgError>,
    ) -> Result<(Vec<f32>, f64), TcgError> {
        let mut out = vec![0.0; self.csr.num_edges()];
        let Exec::Sharded(set) = &mut self.exec else {
            unreachable!("sharded op on a one-device engine");
        };
        let ms = set.run(name, halo_dim, |eng, sh| {
            let (local, ms) = op(eng, sh)?;
            sh.scatter_edge_values(&local, &mut out);
            Ok(ms)
        })?;
        Ok((out, ms))
    }

    /// Whether this backend can run the fused attention pipeline.
    pub fn supports_fused_attention(&self) -> bool {
        self.backend.uses_translation()
    }

    /// Fused attention pipeline (TC-GNN backend only): SDDMM logits from
    /// `xa`, `β` scaling, row softmax, and the weighted SpMM over `xv` — a
    /// single kernel launch (see `tcg_kernels::fused`). Returns
    /// `(Y, cos, P, ms)`, or [`TcgError::InvalidInput`] on a backend
    /// without a translation ([`Engine::supports_fused_attention`] is
    /// false).
    pub fn fused_attention(
        &mut self,
        xa: &DenseMatrix,
        xv: &DenseMatrix,
        beta: f32,
    ) -> Result<(DenseMatrix, Vec<f32>, Vec<f32>, f64), TcgError> {
        self.fused_attention_on(xa, xv, beta, None)
    }

    /// [`Engine::fused_attention`] promising only the rows (and the edges)
    /// of `windows`, as [`Engine::spmm_on`] does.
    pub fn fused_attention_on(
        &mut self,
        xa: &DenseMatrix,
        xv: &DenseMatrix,
        beta: f32,
        windows: Option<&WindowSet>,
    ) -> Result<(DenseMatrix, Vec<f32>, Vec<f32>, f64), TcgError> {
        let windows = windows.filter(|_| self.skips_windows());
        if !self.supports_fused_attention() {
            return Err(TcgError::InvalidInput {
                what: "fused attention backend",
                detail: format!(
                    "{} has no SGT translation to fuse over",
                    self.backend.name()
                ),
            });
        }
        if let Exec::Sharded(set) = &mut self.exec {
            SpmmProblem::new(&self.csr, None, xa)?;
            SpmmProblem::new(&self.csr, None, xv)?;
            let e = self.csr.num_edges();
            let mut y = DenseMatrix::zeros(xv.rows(), xv.cols());
            let (mut cos, mut p) = (vec![0.0; e], vec![0.0; e]);
            // Neighbor rows of both operands cross the link.
            let ms = set.run("fused_attention", xa.cols() + xv.cols(), |eng, sh| {
                let (lxa, lxv) = (sh.gather_x(xa), sh.gather_x(xv));
                let (ly, lcos, lp, ms) = eng.fused_attention(&lxa, &lxv, beta)?;
                sh.scatter_owned(&ly, &mut y);
                sh.scatter_edge_values(&lcos, &mut cos);
                sh.scatter_edge_values(&lp, &mut p);
                Ok(ms)
            })?;
            return Ok((y, cos, p, ms));
        }
        let mut extra_ms = 0.0;
        let primary = self.attempt("fused_attention", &mut extra_ms, |eng| {
            let (dev, csr) = eng.local();
            let t = dev.translated.as_deref().expect("the backend translates");
            let key = ("fused_attention", xa.cols(), xv.cols());
            let run = |l: &mut Launcher, ids| {
                tcg_kernels::fused::fused_attention_windows(l, csr, t, xa, xv, beta, ids)
            };
            let out = match windows {
                None => dev.launcher.memoized(key, |l| run(l, None)),
                Some(w) => run(&mut dev.launcher, Some(w.ids())),
            }?;
            Ok(((out.y, out.cos, out.p), out.report))
        })?;
        if let Ok(((y, cos, p), report)) = primary {
            let ms = report.time_ms + self.sparse_dispatch_ms(1);
            self.prof_kernel("fused_attention", Phase::Aggregation, ms, &report);
            self.last_fused_report = Some(report);
            return Ok((y, cos, p, extra_ms + ms));
        }
        self.degrade("fused_attention");
        // Unfused CUDA-core pipeline: SDDMM logits, β scaling, row softmax,
        // weighted cuSPARSE SpMM — the pre-TCU formulation of the same math.
        let (y, cos, p, ms) = self.suppressed(|eng| {
            let (dev, csr) = eng.local();
            let (cos, r1) = CudaCoreSddmm.execute(&mut dev.launcher, csr, xa, xa)?;
            let ms1 = r1.time_ms + eng.sparse_dispatch_ms(1);
            eng.prof_kernel("sddmm", Phase::Aggregation, ms1, &r1);
            let scaled: Vec<f32> = cos.iter().map(|&c| beta * c).collect();
            let e_bytes = (eng.csr.num_edges() * 4) as u64;
            let scale_ms = eng.pass_ms(e_bytes, e_bytes) + eng.sparse_dispatch_ms(1);
            eng.prof_span("beta_scale", Phase::Aggregation, scale_ms);
            let (dev, csr) = eng.local();
            let (p, r2) = sparse_row_softmax(&mut dev.launcher, csr, &scaled)?;
            let ms2 = r2.time_ms + eng.sparse_dispatch_ms(1);
            eng.prof_kernel("edge_softmax", Phase::Aggregation, ms2, &r2);
            let (dev, csr) = eng.local();
            let (y, r3) = CusparseCsrSpmm
                .execute(&mut dev.launcher, &SpmmProblem::new(csr, Some(&p), xv)?)?;
            let ms3 = r3.time_ms + eng.sparse_dispatch_ms(1);
            eng.prof_kernel("spmm", Phase::Aggregation, ms3, &r3);
            Ok::<_, TcgError>((y, cos, p, ms1 + scale_ms + ms2 + ms3))
        })?;
        Ok((y, cos, p, extra_ms + ms))
    }

    /// GCN-normalized aggregation `D^{-1/2} A D^{-1/2} · X`.
    ///
    /// DGL/PyG scale node features before and after the unweighted SpMM
    /// (two extra kernels per call, as `dgl.GraphConv(norm="both")` does);
    /// TC-GNN folds the normalization into the translated kernel's edge
    /// values.
    pub fn gcn_aggregate(&mut self, x: &DenseMatrix) -> Result<(DenseMatrix, f64), TcgError> {
        self.gcn_aggregate_on(x, None)
    }

    /// [`Engine::gcn_aggregate`] promising only the rows of `windows` (see
    /// [`Engine::spmm_on`]).
    pub fn gcn_aggregate_on(
        &mut self,
        x: &DenseMatrix,
        windows: Option<&WindowSet>,
    ) -> Result<(DenseMatrix, f64), TcgError> {
        if matches!(self.exec, Exec::Sharded(_)) {
            return self.sharded_rows("gcn_aggregate", x, |eng, _, lx| eng.gcn_aggregate(lx));
        }
        match self.backend {
            Backend::TcGnn | Backend::Hybrid => {
                let norms = Rc::clone(&self.norms);
                self.spmm_on(x, Some(&norms.gcn_norm), windows)
            }
            _ => {
                let nd_bytes = (x.len() * 4) as u64;
                let mut scaled = x.clone();
                for v in 0..scaled.rows() {
                    let s = self.norms.inv_sqrt_deg[v];
                    for val in scaled.row_mut(v) {
                        *val *= s;
                    }
                }
                // The `dispatch(2)` covering both scaling ops is split one
                // per event; `per_op * 2.0 == per_op + per_op` exactly.
                let pre_ms = self.pass_ms(nd_bytes, nd_bytes);
                self.prof_span(
                    "gcn_norm_pre",
                    Phase::Aggregation,
                    pre_ms + self.sparse_dispatch_ms(1),
                );
                let (mut out, spmm_ms) = self.spmm(&scaled, None)?;
                for v in 0..out.rows() {
                    let s = self.norms.inv_sqrt_deg[v];
                    for val in out.row_mut(v) {
                        *val *= s;
                    }
                }
                let post_ms = self.pass_ms(nd_bytes, nd_bytes);
                self.prof_span(
                    "gcn_norm_post",
                    Phase::Aggregation,
                    post_ms + self.sparse_dispatch_ms(1),
                );
                Ok((out, pre_ms + spmm_ms + post_ms + self.sparse_dispatch_ms(2)))
            }
        }
    }

    /// Mean-normalized aggregation `D^{-1} A · X` (GraphSAGE's mean
    /// aggregator). DGL/PyG run the unweighted SpMM plus a per-node scaling
    /// kernel; TC-GNN folds `1/d` into the translated kernel's edge values.
    pub fn mean_aggregate(&mut self, x: &DenseMatrix) -> Result<(DenseMatrix, f64), TcgError> {
        self.mean_aggregate_on(x, None)
    }

    /// [`Engine::mean_aggregate`] promising only the rows of `windows` (see
    /// [`Engine::spmm_on`]).
    pub fn mean_aggregate_on(
        &mut self,
        x: &DenseMatrix,
        windows: Option<&WindowSet>,
    ) -> Result<(DenseMatrix, f64), TcgError> {
        if matches!(self.exec, Exec::Sharded(_)) {
            return self.sharded_rows("mean_aggregate", x, |eng, _, lx| eng.mean_aggregate(lx));
        }
        match self.backend {
            Backend::TcGnn | Backend::Hybrid => {
                let norms = Rc::clone(&self.norms);
                self.spmm_on(x, Some(&norms.mean_norm), windows)
            }
            _ => {
                let (mut out, spmm_ms) = self.spmm(x, None)?;
                for v in 0..out.rows() {
                    let inv = 1.0 / self.csr.degree(v).max(1) as f32;
                    for val in out.row_mut(v) {
                        *val *= inv;
                    }
                }
                let nd_bytes = (x.len() * 4) as u64;
                let post_ms = self.pass_ms(nd_bytes, nd_bytes) + self.sparse_dispatch_ms(1);
                self.prof_span("mean_norm_scale", Phase::Aggregation, post_ms);
                Ok((out, spmm_ms + post_ms))
            }
        }
    }

    /// Transposed mean aggregation `(D^{-1} A)ᵀ · X` (GraphSAGE backward).
    pub fn mean_aggregate_t(&mut self, x: &DenseMatrix) -> Result<(DenseMatrix, f64), TcgError> {
        if matches!(self.exec, Exec::Sharded(_)) {
            return self.sharded_rows("mean_aggregate_t", x, |eng, _, lx| eng.mean_aggregate_t(lx));
        }
        // `Aᵀ = A` topologically; the transposed normalization values are
        // precomputed, so no runtime permutation pass is needed.
        let norms = Rc::clone(&self.norms);
        self.spmm(x, Some(&norms.transposed(&self.csr).mean_norm_t))
    }

    /// Unweighted sum aggregation `A · X` (GIN's aggregator).
    pub fn sum_aggregate(&mut self, x: &DenseMatrix) -> Result<(DenseMatrix, f64), TcgError> {
        self.spmm(x, None)
    }

    /// [`Engine::sum_aggregate`] promising only the rows of `windows` (see
    /// [`Engine::spmm_on`]).
    pub fn sum_aggregate_on(
        &mut self,
        x: &DenseMatrix,
        windows: Option<&WindowSet>,
    ) -> Result<(DenseMatrix, f64), TcgError> {
        self.spmm_on(x, None, windows)
    }

    /// Dense update GEMM `X·W` (cuBLAS TF-32 class in every framework).
    pub fn linear(&mut self, x: &DenseMatrix, w: &DenseMatrix) -> (DenseMatrix, f64) {
        let out = tcg_tensor::gemm::gemm(x, w).expect("linear shapes validated by layers");
        let ms = self.dense_ms(
            "gemm_xw",
            x.rows(),
            |sh| sh.owned_rows,
            |eng, rows| eng.gemm_ms("gemm_xw", (rows, x.cols(), w.cols())),
        );
        (out, ms)
    }

    /// Cost of one cuBLAS-class GEMM of shape `(m, k, n)`, traced as `name`.
    fn gemm_ms(&self, name: &str, (m, k, n): (usize, usize, usize)) -> f64 {
        let device = self.local_ref().launcher.device();
        let report = tcg_gpusim::cost::dense_gemm_report(device, m, k, n, true);
        let ms = report.time_ms + DENSE_DISPATCH_MS;
        self.prof_kernel(name, Phase::Update, ms, &report);
        ms
    }

    /// Dense GEMM `Xᵀ·Y` (weight gradients).
    pub fn linear_at_b(&mut self, x: &DenseMatrix, y: &DenseMatrix) -> (DenseMatrix, f64) {
        let out = tcg_tensor::gemm::gemm_at_b(x, y).expect("shapes validated by layers");
        let ms = self.dense_ms(
            "gemm_xt_y",
            x.rows(),
            |sh| sh.owned_rows,
            |eng, rows| eng.gemm_ms("gemm_xt_y", (x.cols(), rows, y.cols())),
        );
        (out, ms)
    }

    /// Dense GEMM `X·Wᵀ` (input gradients).
    pub fn linear_a_bt(&mut self, x: &DenseMatrix, w: &DenseMatrix) -> (DenseMatrix, f64) {
        let out = tcg_tensor::gemm::gemm_a_bt(x, w).expect("shapes validated by layers");
        let ms = self.dense_ms(
            "gemm_x_wt",
            x.rows(),
            |sh| sh.owned_rows,
            |eng, rows| eng.gemm_ms("gemm_x_wt", (rows, x.cols(), w.rows())),
        );
        (out, ms)
    }

    /// Cost of a generic elementwise kernel over `elems` f32 values — a
    /// whole number of values per node — with `reads` input and `writes`
    /// output streams (activation, bias, loss...). Functional work is done
    /// by the caller. Recorded in the trace as an `other`-phase
    /// `"elementwise"` span; callers whose cost belongs elsewhere use
    /// [`Engine::elementwise_tagged_ms`]. A sharded engine's devices each
    /// run their owned rows.
    pub fn elementwise_ms(&mut self, elems: usize, reads: u32, writes: u32) -> f64 {
        self.elementwise_tagged_ms("elementwise", Phase::Other, elems, reads, writes)
    }

    /// [`Engine::elementwise_ms`] with an explicit trace name and phase,
    /// for node-row elementwise work that deserves its own timeline label
    /// (activation, loss).
    ///
    /// The phase must match how the caller charges the returned
    /// milliseconds to [`Cost`], or per-phase event sums drift from the
    /// cost model.
    pub fn elementwise_tagged_ms(
        &mut self,
        name: &str,
        phase: Phase,
        elems: usize,
        reads: u32,
        writes: u32,
    ) -> f64 {
        let width = elems / self.csr.num_nodes().max(1);
        let split = |sh: &Shard| sh.owned_rows * width;
        self.charge_pass(name, phase, elems, split, (reads, writes))
    }

    /// An elementwise kernel over one value per edge (e.g. AGNN's `β`
    /// scaling, charged to `phase`). A sharded engine's devices each run
    /// their shard's edges.
    pub fn edge_elementwise_ms(
        &mut self,
        name: &str,
        phase: Phase,
        reads: u32,
        writes: u32,
    ) -> f64 {
        let edges = self.csr.num_edges();
        self.charge_pass(name, phase, edges, Shard::nnz, (reads, writes))
    }

    /// The optimizer's update pass over `n_params` parameters (three
    /// streams in, three out). Parameters are replicated, so every device
    /// of a sharded engine runs the whole pass.
    pub fn optimizer_step_ms(&mut self, n_params: usize) -> f64 {
        let whole = |_: &Shard| n_params;
        self.charge_pass("optimizer_step", Phase::Other, n_params, whole, (3, 3))
    }

    /// One traced streaming pass over `elems` values (`split(shard)` per
    /// device when sharded), `reads`/`writes` streams of f32 each.
    fn charge_pass(
        &mut self,
        name: &str,
        phase: Phase,
        elems: usize,
        split: impl Fn(&Shard) -> usize,
        (reads, writes): (u32, u32),
    ) -> f64 {
        self.dense_ms(name, elems, split, |eng, elems| {
            let ms = eng.pass_ms(
                (elems * 4 * reads as usize) as u64,
                (elems * 4 * writes as usize) as u64,
            ) + DENSE_DISPATCH_MS;
            eng.prof_span(name, phase, ms);
            ms
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcg_graph::gen;
    use tcg_kernels::common::{reference_sddmm, reference_spmm};
    use tcg_tensor::init;

    fn engine(backend: Backend) -> Engine {
        let g = gen::community(400, 3000, 16, 24, 1).unwrap();
        Engine::builder(g).backend(backend).build().unwrap()
    }

    #[test]
    fn all_backends_agree_on_spmm() {
        let x = init::uniform(400, 16, -1.0, 1.0, 2);
        let mut outs = Vec::new();
        for b in Backend::all() {
            let mut e = engine(b);
            let (out, ms) = e.spmm(&x, None).unwrap();
            assert!(ms > 0.0);
            outs.push(out);
        }
        let e = engine(Backend::DglLike);
        let prob = SpmmProblem::new(e.graph(), None, &x).unwrap();
        let reference = reference_spmm(&prob);
        for out in &outs {
            assert!(out.max_abs_diff(&reference).unwrap() < 0.05);
        }
    }

    #[test]
    fn spmm_t_equals_explicit_transpose() {
        let mut e = engine(Backend::TcGnn);
        let x = init::uniform(400, 8, -1.0, 1.0, 3);
        let vals: Vec<f32> = (0..e.graph().num_edges())
            .map(|i| 0.1 + (i % 9) as f32 * 0.2)
            .collect();
        let (out_t, _) = e.spmm_t(&x, Some(&vals)).unwrap();
        // Reference: transpose graph + values explicitly.
        let (gt, vt) = e.graph().transpose_with_values(&vals);
        let prob = SpmmProblem::new(&gt, Some(&vt), &x).unwrap();
        let reference = reference_spmm(&prob);
        assert!(out_t.max_abs_diff(&reference).unwrap() < 0.05);
    }

    #[test]
    fn gcn_aggregate_backends_agree_and_are_normalized() {
        let x = init::uniform(400, 16, -1.0, 1.0, 4);
        let mut base: Option<DenseMatrix> = None;
        for b in Backend::all() {
            let mut e = engine(b);
            let (out, ms) = e.gcn_aggregate(&x).unwrap();
            assert!(ms > 0.0);
            if let Some(prev) = &base {
                assert!(out.max_abs_diff(prev).unwrap() < 0.05, "backend {b:?}");
            } else {
                base = Some(out);
            }
        }
    }

    #[test]
    fn sddmm_matches_reference_all_backends() {
        let xa = init::uniform(400, 12, -1.0, 1.0, 5);
        let xb = init::uniform(400, 12, -1.0, 1.0, 6);
        for b in Backend::all() {
            let mut e = engine(b);
            let (vals, _) = e.sddmm(&xa, &xb).unwrap();
            let reference = reference_sddmm(e.graph(), &xa, &xb);
            for (a, r) in vals.iter().zip(&reference) {
                assert!((a - r).abs() < 0.05, "backend {b:?}");
            }
        }
    }

    #[test]
    fn pyg_sddmm_costs_more_than_dgl() {
        let xa = init::uniform(400, 32, -1.0, 1.0, 7);
        let mut dgl = engine(Backend::DglLike);
        let mut pyg = engine(Backend::PygLike);
        let (_, ms_dgl) = dgl.sddmm(&xa, &xa).unwrap();
        let (_, ms_pyg) = pyg.sddmm(&xa, &xa).unwrap();
        assert!(ms_pyg > ms_dgl, "pyg {ms_pyg} dgl {ms_dgl}");
    }

    #[test]
    fn edge_softmax_rows_normalized_and_tcgnn_cheaper() {
        let vals: Vec<f32> = (0..engine(Backend::DglLike).graph().num_edges())
            .map(|i| (i % 5) as f32)
            .collect();
        let mut dgl = engine(Backend::DglLike);
        let mut tc = engine(Backend::TcGnn);
        let (s1, ms_dgl) = dgl.edge_softmax(&vals).unwrap();
        let (s2, ms_tc) = tc.edge_softmax(&vals).unwrap();
        assert_eq!(s1, s2);
        assert!(ms_tc < ms_dgl);
        let g = dgl.graph();
        for v in 0..g.num_nodes() {
            let (lo, hi) = (g.node_pointer()[v], g.node_pointer()[v + 1]);
            if hi > lo {
                let sum: f32 = s1[lo..hi].iter().sum();
                assert!((sum - 1.0).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn softmax_backward_rows_sum_to_zero_against_uniform() {
        // For p from softmax, Σ_row de = Σ p(dp − Σp·dp) = Σp·dp − Σp·dp = 0.
        let mut e = engine(Backend::TcGnn);
        let raw: Vec<f32> = (0..e.graph().num_edges())
            .map(|i| (i % 7) as f32 * 0.3)
            .collect();
        let (p, _) = e.edge_softmax(&raw).unwrap();
        let dp: Vec<f32> = (0..p.len()).map(|i| (i % 3) as f32 - 1.0).collect();
        let (de, ms) = e.edge_softmax_backward(&p, &dp);
        assert!(ms > 0.0);
        let g = e.graph();
        for v in 0..g.num_nodes() {
            let (lo, hi) = (g.node_pointer()[v], g.node_pointer()[v + 1]);
            let s: f32 = de[lo..hi].iter().sum();
            assert!(s.abs() < 1e-4, "row {v} sums to {s}");
        }
    }

    #[test]
    fn linear_matches_gemm_and_costs() {
        let mut e = engine(Backend::TcGnn);
        let x = init::uniform(400, 8, -1.0, 1.0, 8);
        let w = init::uniform(8, 4, -1.0, 1.0, 9);
        let (y, ms) = e.linear(&x, &w);
        assert!(ms > 0.0);
        let reference = tcg_tensor::gemm::gemm(&x, &w).unwrap();
        assert_eq!(y, reference);
        // Gradient GEMMs shapes.
        let (dw, _) = e.linear_at_b(&x, &y);
        assert_eq!(dw.shape(), (8, 4));
        let (dx, _) = e.linear_a_bt(&y, &w);
        assert_eq!(dx.shape(), (400, 8));
    }

    #[test]
    fn tcgnn_has_preprocessing_cost_others_do_not() {
        assert!(engine(Backend::TcGnn).preprocessing_ms() > 0.0);
        assert_eq!(engine(Backend::DglLike).preprocessing_ms(), 0.0);
        assert_eq!(engine(Backend::PygLike).preprocessing_ms(), 0.0);
    }

    #[test]
    fn mean_aggregate_is_row_average() {
        let x = init::uniform(400, 8, -1.0, 1.0, 11);
        let mut base: Option<DenseMatrix> = None;
        for b in Backend::all() {
            let mut e = engine(b);
            let (out, ms) = e.mean_aggregate(&x).unwrap();
            assert!(ms > 0.0);
            // Row v must be the mean of its neighbors' rows.
            let g = e.graph().clone();
            for v in (0..g.num_nodes()).step_by(37) {
                let ns = g.neighbors(v);
                if ns.is_empty() {
                    continue;
                }
                for j in 0..8 {
                    let mean: f32 =
                        ns.iter().map(|&u| x.get(u as usize, j)).sum::<f32>() / ns.len() as f32;
                    assert!((out.get(v, j) - mean).abs() < 1e-2, "{b:?} node {v}");
                }
            }
            if let Some(prev) = &base {
                assert!(out.max_abs_diff(prev).unwrap() < 0.02);
            } else {
                base = Some(out);
            }
        }
    }

    #[test]
    fn mean_aggregate_t_matches_explicit_transpose() {
        let mut e = engine(Backend::TcGnn);
        let x = init::uniform(400, 6, -1.0, 1.0, 12);
        let (got, _) = e.mean_aggregate_t(&x).unwrap();
        // Build (D^{-1} A)ᵀ explicitly.
        let g = e.graph().clone();
        let mut vals = Vec::with_capacity(g.num_edges());
        for v in 0..g.num_nodes() {
            let inv = 1.0 / g.degree(v).max(1) as f32;
            vals.extend(std::iter::repeat_n(inv, g.degree(v)));
        }
        let (gt, vt) = g.transpose_with_values(&vals);
        let prob = SpmmProblem::new(&gt, Some(&vt), &x).unwrap();
        let expect = reference_spmm(&prob);
        assert!(got.max_abs_diff(&expect).unwrap() < 0.02);
    }

    #[test]
    fn fused_attention_without_a_translation_is_an_error_not_a_panic() {
        let x = init::uniform(400, 8, -1.0, 1.0, 5);
        for devices in [1, 2] {
            let g = gen::community(400, 3000, 16, 24, 1).unwrap();
            let mut e = Engine::builder(g)
                .backend(Backend::DglLike)
                .devices(devices)
                .build()
                .unwrap();
            assert!(!e.supports_fused_attention());
            let err = e.fused_attention(&x, &x, 1.0).unwrap_err();
            assert!(
                matches!(err, TcgError::InvalidInput { .. }),
                "{devices} device(s): {err:?}"
            );
        }
    }

    #[test]
    fn advanced_norms_equal_fresh_norms_bit_for_bit() {
        let mut g = gen::community(400, 3000, 16, 24, 1).unwrap();
        let mut e = Engine::builder(g.clone())
            .backend(Backend::DglLike)
            .build()
            .unwrap();
        for step in 0..6u32 {
            let mut delta = tcg_sgt::EdgeDelta::new();
            let mut used = Vec::new();
            for k in 0..4u32 {
                let (u, v) = ((step * 37 + k * 101) % 400, (step * 53 + k * 7 + 1) % 400);
                if u == v || used.contains(&(u.min(v), u.max(v))) {
                    continue;
                }
                used.push((u.min(v), u.max(v)));
                delta = match g.has_edge(u as usize, v) {
                    true => delta.delete_undirected(u, v),
                    false => delta.insert_undirected(u, v),
                };
            }
            g = delta.apply_to(&g).unwrap();
            e.advance(&g, None).unwrap();
            let fresh = Norms::of(&g);
            assert!(e.norms.same_bits(&fresh), "step {step}");
            let (a, b) = (e.norms.transposed(&g), fresh.transposed(&g));
            assert_eq!(a.t_perm, b.t_perm, "step {step}");
            assert_eq!(a.mean_norm_t, b.mean_norm_t, "step {step}");
        }
    }

    #[test]
    fn rejects_asymmetric_graph() {
        // No panicking constructor remains: every entry point surfaces the
        // asymmetric graph as an error.
        let g = CsrGraph::from_raw(3, vec![0, 1, 1, 1], vec![1]).unwrap();
        let err = match Engine::builder(g).backend(Backend::DglLike).build() {
            Err(e) => e,
            Ok(_) => panic!("asymmetric graph must be rejected"),
        };
        assert!(matches!(err, TcgError::InvalidInput { .. }), "{err:?}");
    }

    #[test]
    fn spmm_degrades_to_fallback_under_persistent_launch_faults() {
        use tcg_fault::{FaultConfig, FaultPlan};
        let x = init::uniform(400, 16, -1.0, 1.0, 21);
        let mut e = engine(Backend::TcGnn);
        let reference = {
            let prob = SpmmProblem::new(e.graph(), None, &x).unwrap();
            reference_spmm(&prob)
        };
        e.attach_fault_plan(FaultPlan::new(
            7,
            FaultConfig {
                launch_rate: 1.0,
                ..FaultConfig::none()
            },
        ));
        let (out, ms) = e.spmm(&x, None).unwrap();
        assert!(ms > 0.0);
        // Every launch attempt fails: the retry budget (2) is exhausted and
        // the op lands on the suppressed cuSPARSE fallback.
        let report = e.fault_report();
        assert_eq!(report.retried, 2);
        assert_eq!(report.degraded, 1);
        assert_eq!(report.launch_failures, 3);
        assert!(out.max_abs_diff(&reference).unwrap() < 0.05);
    }

    #[test]
    fn recovery_is_deterministic_across_runs() {
        use tcg_fault::{FaultConfig, FaultPlan};
        let x = init::uniform(400, 16, -1.0, 1.0, 22);
        let run = || {
            let mut e = engine(Backend::TcGnn);
            e.attach_fault_plan(FaultPlan::new(11, FaultConfig::uniform(0.3)));
            let mut outs = Vec::new();
            for _ in 0..6 {
                let (out, _) = e.spmm(&x, None).unwrap();
                outs.push(out);
            }
            let (vals, _) = e.sddmm(&x, &x).unwrap();
            (
                outs,
                vals,
                e.fault_report(),
                e.fault_plan().unwrap().draws(),
            )
        };
        let (o1, v1, r1, d1) = run();
        let (o2, v2, r2, d2) = run();
        assert_eq!(r1, r2);
        assert_eq!(d1, d2);
        assert_eq!(v1, v2);
        for (a, b) in o1.iter().zip(&o2) {
            assert_eq!(a.max_abs_diff(b).unwrap(), 0.0);
        }
    }

    #[test]
    fn forced_fallback_consumes_no_rng_draws() {
        use tcg_fault::{FaultConfig, FaultPlan};
        let x = init::uniform(400, 8, -1.0, 1.0, 23);
        let mut e = engine(Backend::TcGnn);
        e.attach_fault_plan(FaultPlan::new(3, FaultConfig::uniform(0.5)));
        e.set_forced_fallback(true);
        let (out, _) = e.spmm(&x, None).unwrap();
        assert_eq!(e.fault_plan().unwrap().draws(), 0);
        assert_eq!(e.fault_report().degraded, 0);
        e.set_forced_fallback(false);
        let prob = SpmmProblem::new(e.graph(), None, &x).unwrap();
        assert!(out.max_abs_diff(&reference_spmm(&prob)).unwrap() < 0.05);
    }

    #[test]
    fn ecc_scan_discards_poisoned_output() {
        use tcg_fault::{FaultConfig, FaultPlan};
        let x = init::uniform(400, 16, -1.0, 1.0, 24);
        let mut e = engine(Backend::TcGnn);
        // Every launch arms an ECC flip; the TCU kernel consumes it, the
        // scan catches it, and the op reruns on the CUDA-core fallback —
        // so the caller never sees a NaN.
        e.attach_fault_plan(FaultPlan::new(
            5,
            FaultConfig {
                ecc_rate: 1.0,
                ..FaultConfig::none()
            },
        ));
        let (out, _) = e.spmm(&x, None).unwrap();
        assert!(out.as_slice().iter().all(|v| v.is_finite()));
        let report = e.fault_report();
        assert_eq!(report.degraded, 1);
        assert_eq!(report.ecc_flips, 1);
    }

    #[test]
    fn hybrid_backend_matches_references_and_supports_fused_path() {
        let x = init::uniform(400, 16, -1.0, 1.0, 31);
        let mut e = engine(Backend::Hybrid);
        assert_eq!(e.backend().name(), "Hybrid");
        assert!(e.supports_fused_attention());
        assert!(e.preprocessing_ms() > 0.0);
        let (out, ms) = e.spmm(&x, None).unwrap();
        assert!(ms > 0.0);
        let prob = SpmmProblem::new(e.graph(), None, &x).unwrap();
        assert!(out.max_abs_diff(&reference_spmm(&prob)).unwrap() < 0.05);
        let (vals, _) = e.sddmm(&x, &x).unwrap();
        let reference = reference_sddmm(e.graph(), &x, &x);
        for (a, r) in vals.iter().zip(&reference) {
            assert!((a - r).abs() < 0.05);
        }
    }

    #[test]
    fn hybrid_ecc_flip_degrades_only_the_poisoned_window() {
        use tcg_fault::{FaultConfig, FaultPlan};
        let x = init::uniform(400, 16, -1.0, 1.0, 24);
        let mut e = engine(Backend::Hybrid);
        let profiler = tcg_profile::shared("Hybrid");
        e.attach_profiler(profiler.clone());
        e.attach_fault_plan(FaultPlan::new(
            5,
            FaultConfig {
                ecc_rate: 1.0,
                ..FaultConfig::none()
            },
        ));
        let (out, _) = e.spmm(&x, None).unwrap();
        assert!(out.as_slice().iter().all(|v| v.is_finite()));
        let report = e.fault_report();
        assert_eq!(report.degraded, 1);
        assert_eq!(report.ecc_flips, 1);
        let prob = SpmmProblem::new(e.graph(), None, &x).unwrap();
        assert!(out.max_abs_diff(&reference_spmm(&prob)).unwrap() < 0.05);
        // Exactly one TCU window was re-dispatched to the CUDA-core body;
        // the degrade re-executed as a mixed launch, not a whole-op swap.
        let p = profiler.read().unwrap();
        assert_eq!(p.named_counter("tcg_hybrid_window_degrades_total"), 1);
        assert!(p.events().iter().any(|ev| ev.name == "spmm_window_degrade"));
        assert!(p
            .events()
            .iter()
            .any(|ev| ev.name.starts_with("hybrid_dispatch:spmm_degraded[")));
    }

    #[test]
    fn ecc_without_scan_propagates_nan() {
        use tcg_fault::{FaultConfig, FaultPlan};
        let x = init::uniform(400, 16, -1.0, 1.0, 25);
        let mut e = engine(Backend::TcGnn);
        e.attach_fault_plan(FaultPlan::new(
            5,
            FaultConfig {
                ecc_rate: 1.0,
                ..FaultConfig::none()
            },
        ));
        e.set_recovery_policy(RecoveryPolicy {
            ecc_scan: false,
            ..RecoveryPolicy::default()
        });
        let (out, _) = e.spmm(&x, None).unwrap();
        assert!(
            out.as_slice().iter().any(|v| !v.is_finite()),
            "bit flip should surface as NaN when the scan is off"
        );
    }
}

//! Per-row-window hybrid TCU/CUDA-core dispatch (HC-SpMM direction).
//!
//! Neither core type wins everywhere: sparse/thin row windows waste TCU
//! tiles on mostly-zero `16×8` operands (the MMA still costs its full 4096
//! FLOPs plus staging traffic), while dense hub windows amortize that
//! staging across many non-zeros and starve a scalar CUDA-core walk. The
//! dispatcher here scores each SGT row window from its geometry — nnz,
//! distinct condensed columns, TC-block count, window occupancy — and
//! routes it to whichever kernel class the `tcg_gpusim` cost model predicts
//! is cheaper. [`crate::spmm::HybridSpmm`] / [`crate::sddmm::HybridSddmm`]
//! then execute a *single mixed launch* whose per-window work (both the
//! modeled memory/pipe charges and the functional arithmetic) is exactly
//! the chosen pure kernel's, so per-window outputs are bitwise identical to
//! the pure backend that window was dispatched to.
//!
//! The decision is a pure function of window geometry, the embedding
//! dimension, and the kernel class: the cost model is evaluated on a pinned
//! reference device, so there is no runtime device state, no RNG, no
//! thread-count dependence. That is what makes mixed launches deterministic
//! under the parallel launcher and reproducible across runs — the property
//! the conformance matrix and the dispatch proptests pin down.
//!
//! The crossover sits in a different place for the two sparse kernels. SpMM
//! condensation deduplicates neighbor-row gathers, so the TCU formulation
//! moves less memory on almost every window and only loses on very thin
//! ones at narrow dims; SDDMM re-gathers the window's own rows per fused
//! block *and* pays the full MMA for tiles holding a handful of edges, so
//! scattered windows flip to CUDA cores much earlier. The [`score`] is the
//! cost model's cycle log-ratio for the window's two formulations, with a
//! per-kernel-class decision threshold fitted by `tcgnn tune`.

use tcg_gpusim::cost::{self, LAUNCH_OVERHEAD_CYCLES};
use tcg_gpusim::wmma::{WMMA_K, WMMA_M, WMMA_N};
use tcg_gpusim::{DeviceSpec, KernelStats};
use tcg_graph::CsrGraph;
use tcg_sgt::{TranslatedGraph, TC_BLK_H, TC_BLK_W};

/// Which kernel class a row window is dispatched to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WindowBackend {
    /// TC-GNN tensor-core path: staged sparse tile + `m16n16k8` MMAs.
    Tcu,
    /// Scalar CUDA-core path: cuSPARSE-style row walk (SpMM) or per-edge
    /// dot products (SDDMM), scoped to the window's rows.
    CudaCore,
    /// Not computed: nobody reads the window's outputs (a receptive-field
    /// launch). The window runs no body, is charged nothing and launches
    /// no block; its outputs stay zero. [`DispatchPolicy`] never picks it.
    Skip,
}

impl WindowBackend {
    /// Stable one-character tag used when printing dispatch masks.
    pub fn tag(self) -> char {
        match self {
            WindowBackend::Tcu => 'T',
            WindowBackend::CudaCore => 'c',
            WindowBackend::Skip => '-',
        }
    }
}

/// A mask over `n` windows: `decide(w)` for each window of `windows`
/// (ascending ids; `None` is every window) and [`WindowBackend::Skip`]
/// for the rest.
///
/// # Panics
///
/// If an id is not below `n` (the kernels check the list first).
pub(crate) fn mask_over(
    n: usize,
    windows: Option<&[u32]>,
    decide: impl Fn(usize) -> WindowBackend,
) -> Vec<WindowBackend> {
    match windows {
        None => (0..n).map(decide).collect(),
        Some(ids) => {
            let mut mask = vec![WindowBackend::Skip; n];
            for &w in ids {
                mask[w as usize] = decide(w as usize);
            }
            mask
        }
    }
}

/// Which sparse kernel the dispatch decision is for. The score is shared;
/// the fitted threshold is not (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelClass {
    /// Neighbor aggregation (`A·X`).
    Spmm,
    /// Edge-feature computation (`(X·Yᵀ) ⊙ A`).
    Sddmm,
}

impl KernelClass {
    /// Lowercase label for reports and env-var suffixes.
    pub fn label(self) -> &'static str {
        match self {
            KernelClass::Spmm => "spmm",
            KernelClass::Sddmm => "sddmm",
        }
    }
}

/// The dispatch-relevant geometry of one SGT row window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowGeometry {
    /// Rows in the window (16, except a ragged final window).
    pub rows: usize,
    /// Non-zeros (CSR edges) owned by the window's rows.
    pub nnz: usize,
    /// Distinct condensed columns (unique neighbors) after SGT.
    pub unique_cols: usize,
    /// TC blocks the window condenses to (`ceil(unique_cols / 8)`).
    pub tc_blocks: usize,
}

impl WindowGeometry {
    /// Reads window `w`'s geometry from a translation.
    pub fn from_translation(t: &TranslatedGraph, csr: &CsrGraph, w: usize) -> WindowGeometry {
        let (e_lo, e_hi) = t.window_edge_range(csr, w).expect("window in range");
        let row_lo = w * t.win_size;
        let row_hi = ((w + 1) * t.win_size).min(csr.num_nodes());
        WindowGeometry {
            rows: row_hi - row_lo,
            nnz: e_hi - e_lo,
            unique_cols: t.win_unique[w] as usize,
            tc_blocks: t.win_partition[w] as usize,
        }
    }

    /// Fraction of staged TCU tile slots holding a non-zero: `nnz /
    /// (tc_blocks · 16·8)`. Dense hub windows approach 1; scattered windows
    /// sit near `1/8` (every non-zero its own condensed column). Zero for
    /// empty windows.
    pub fn occupancy(&self) -> f64 {
        if self.tc_blocks == 0 {
            return 0.0;
        }
        self.nnz as f64 / (self.tc_blocks * TC_BLK_H * TC_BLK_W) as f64
    }
}

/// Reference device the dispatch [`score`] is evaluated on — the paper's
/// RTX 3090. Pinning the device keeps the score a pure function of
/// `(geometry, dim, class)` — no runtime device state, no RNG, no thread
/// dependence — while making the decision agree exactly with
/// [`predict_cycles`] on the reference device.
fn ref_device() -> &'static DeviceSpec {
    static REF: std::sync::OnceLock<DeviceSpec> = std::sync::OnceLock::new();
    REF.get_or_init(DeviceSpec::rtx3090)
}

/// Floor for the cycle ratio so empty-ish windows stay finite.
const MIN_CYCLES: f64 = 1e-6;

/// Dispatch score for one window at embedding dimension `dim`:
/// `log2(tcu_cycles / cuda_cycles)` under the `tcg_gpusim` roofline on the
/// reference device. Negative ⇒ the TCU formulation is predicted cheaper,
/// positive ⇒ the CUDA-core walk is. A pure deterministic function of
/// `(geometry, dim, class)`, so the dispatch decision inherits purity.
pub fn score(geom: &WindowGeometry, dim: usize, class: KernelClass) -> f64 {
    let dev = ref_device();
    let tcu = predict_cycles(dev, geom, dim, class, WindowBackend::Tcu);
    let cuda = predict_cycles(dev, geom, dim, class, WindowBackend::CudaCore);
    (tcu.max(MIN_CYCLES) / cuda.max(MIN_CYCLES)).log2()
}

/// SpMM decision threshold fitted by `tcgnn tune` (minimum total
/// predicted-cycle regret over the adversarial families + fig7b suite; see
/// [`fit_threshold`]). A window runs on the TCU iff its [`score`] is at or
/// below the class threshold. The fit places the cut in the widest gap
/// separating TCU-cheaper from CUDA-cheaper windows, so it sits near — but
/// not exactly at — zero.
pub const DEFAULT_SPMM_THRESHOLD: f64 = -0.0192;

/// SDDMM decision threshold (same fit). Scattered windows flip to CUDA
/// cores far more often here — the fused 16×16 blocks re-gather the
/// window's rows per block and waste whole MMAs on near-empty tiles.
pub const DEFAULT_SDDMM_THRESHOLD: f64 = -0.0023;

/// The per-window dispatcher: a fitted threshold on the class's [`score`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DispatchPolicy {
    /// Which sparse kernel the policy dispatches for (the score's cycle
    /// predictions are class-specific).
    pub class: KernelClass,
    /// TCU iff `score(geom, dim, class) <= threshold`.
    pub threshold: f64,
}

impl Default for DispatchPolicy {
    /// The SpMM-fitted default.
    fn default() -> Self {
        DispatchPolicy::default_for(KernelClass::Spmm)
    }
}

impl DispatchPolicy {
    /// A policy with an explicit threshold (what `tcgnn tune` emits).
    pub fn with_threshold(class: KernelClass, threshold: f64) -> Self {
        DispatchPolicy { class, threshold }
    }

    /// The fitted default threshold for a kernel class.
    pub fn default_for(class: KernelClass) -> Self {
        DispatchPolicy {
            class,
            threshold: match class {
                KernelClass::Spmm => DEFAULT_SPMM_THRESHOLD,
                KernelClass::Sddmm => DEFAULT_SDDMM_THRESHOLD,
            },
        }
    }

    /// Reads `TCG_HYBRID_THRESHOLD_{SPMM,SDDMM}` (then the class-agnostic
    /// `TCG_HYBRID_THRESHOLD`, then the fitted default) so a tuned
    /// threshold can be pinned for reproducible runs.
    pub fn from_env(class: KernelClass) -> Self {
        let parse = |key: &str| std::env::var(key).ok().and_then(|v| v.parse::<f64>().ok());
        let specific = match class {
            KernelClass::Spmm => parse("TCG_HYBRID_THRESHOLD_SPMM"),
            KernelClass::Sddmm => parse("TCG_HYBRID_THRESHOLD_SDDMM"),
        };
        match specific.or_else(|| parse("TCG_HYBRID_THRESHOLD")) {
            Some(t) => DispatchPolicy {
                class,
                threshold: t,
            },
            None => DispatchPolicy::default_for(class),
        }
    }

    /// Dispatches one window. Empty windows go to the TCU path (both
    /// kernels skip them; choosing TCU keeps an all-TCU mask identical to
    /// the pure kernel on empty graphs). Pure in `(geom, dim)`.
    pub fn decide(&self, geom: &WindowGeometry, dim: usize) -> WindowBackend {
        if geom.nnz == 0 {
            return WindowBackend::Tcu;
        }
        if score(geom, dim, self.class) <= self.threshold {
            WindowBackend::Tcu
        } else {
            WindowBackend::CudaCore
        }
    }

    /// The full dispatch mask for a translated graph at dimension `dim`.
    pub fn mask(&self, t: &TranslatedGraph, csr: &CsrGraph, dim: usize) -> Vec<WindowBackend> {
        self.mask_windows(t, csr, dim, None)
    }

    /// [`DispatchPolicy::mask`] deciding only `windows` and skipping the
    /// rest; `None` decides every window.
    ///
    /// # Panics
    ///
    /// If an id is not a window of `t` (the kernels check the list first).
    pub fn mask_windows(
        &self,
        t: &TranslatedGraph,
        csr: &CsrGraph,
        dim: usize,
        windows: Option<&[u32]>,
    ) -> Vec<WindowBackend> {
        mask_over(t.num_row_windows, windows, |w| {
            self.decide(&WindowGeometry::from_translation(t, csr, w), dim)
        })
    }
}

/// Renders a dispatch mask as a compact run-length string, e.g.
/// `Tx12 cx3 Tx1` — what fuzz repros and trace markers print.
pub fn render_mask(mask: &[WindowBackend]) -> String {
    let mut out = String::new();
    let mut i = 0;
    while i < mask.len() {
        let mut j = i;
        while j < mask.len() && mask[j] == mask[i] {
            j += 1;
        }
        if !out.is_empty() {
            out.push(' ');
        }
        out.push(mask[i].tag());
        out.push_str(&format!("x{}", j - i));
        i = j;
    }
    if out.is_empty() {
        out.push_str("(no windows)");
    }
    out
}

/// How many copies of a window [`predict_cycles`] replicates across the
/// device. A one-block launch is occupancy-starved and its exposed-latency
/// term swamps every real pipe difference; a window's *marginal* cost in a
/// real mixed launch is its share of a saturated grid, so we model `4 ×
/// num_sms` identical windows and divide.
fn replicas(device: &DeviceSpec) -> u64 {
    4 * device.num_sms as u64
}

/// Memory sectors (32 B) one gathered feature-row slab occupies.
fn row_sectors(width: usize) -> u64 {
    (width * 4).div_ceil(32).max(1) as u64
}

/// Per-window charges for the TCU SpMM formulation — the window's share of
/// what `TcgnnSpmm` issues (condensed gathers per dim slab, staging smem
/// traffic, one MMA per TC block per slab).
fn tcu_spmm_stats(geom: &WindowGeometry, dim: usize) -> KernelStats {
    let slabs = dim.div_ceil(WMMA_N);
    let warps = slabs.clamp(4, 8);
    let smem = TC_BLK_H * TC_BLK_W * 4 + TC_BLK_W * 4 + warps * TC_BLK_W * WMMA_N * 4;
    let mma = (geom.tc_blocks * slabs) as u64;
    let gathers = geom.unique_cols as u64 * slabs as u64 * row_sectors(dim.min(WMMA_N));
    // Packed coords (1 B/nnz), AToX lists, per-block ptr scalars.
    let aux = (geom.nnz as u64).div_ceil(32)
        + (geom.unique_cols as u64).div_ceil(8)
        + geom.tc_blocks as u64
        + 2;
    let loads = gathers + aux;
    let stores = (geom.rows * dim).div_ceil(8) as u64;
    KernelStats {
        num_blocks: 1,
        block_size: (warps * 32) as u32,
        shared_mem_per_block: smem,
        regs_per_thread: 64,
        tcu_flops: mma * (2 * WMMA_M * WMMA_N * WMMA_K) as u64,
        tcu_mma_instructions: mma,
        warp_instructions: mma * 4 + loads + stores,
        shared_transactions: geom.tc_blocks as u64 * (8 + slabs as u64 * 12),
        gl_load_transactions: loads,
        gl_store_transactions: stores,
        l2_hits: loads / 2,
        l2_misses: loads - loads / 2,
        dram_read_bytes: (loads - loads / 2) * 32,
        dram_write_bytes: (geom.rows * dim * 4) as u64,
        ..Default::default()
    }
}

/// Per-window charges for the CUDA-core SpMM walk over the same rows
/// (cuSPARSE lockstep scoped to ≤16 rows: per-edge 4-column register tiles,
/// no gather dedup). Same block shape as the mixed launch so occupancy —
/// and therefore the latency term — compares like for like.
fn cuda_spmm_stats(geom: &WindowGeometry, dim: usize) -> KernelStats {
    let slabs = dim.div_ceil(WMMA_N);
    let warps = slabs.clamp(4, 8);
    let smem = TC_BLK_H * TC_BLK_W * 4 + TC_BLK_W * 4 + warps * TC_BLK_W * WMMA_N * 4;
    let dim_tiles = dim.div_ceil(4) as u64;
    let iters = (geom.nnz as u64).div_ceil(geom.rows.max(1) as u64);
    // Per edge per tile: one 16 B gather from the neighbor row (its own
    // sector — no condensation), plus edge-id loads and ptr scalars.
    let loads = geom.nnz as u64 * dim_tiles + (geom.nnz as u64).div_ceil(8) + iters + 2;
    let stores = geom.rows as u64 * dim_tiles;
    let fma = geom.nnz as u64 * dim_tiles;
    KernelStats {
        num_blocks: 1,
        block_size: (warps * 32) as u32,
        shared_mem_per_block: smem,
        regs_per_thread: 64,
        fp32_flops: geom.nnz as u64 * dim as u64 * 2,
        int_ops: loads,
        warp_instructions: loads + stores + fma,
        gl_load_transactions: loads,
        gl_store_transactions: stores,
        l2_hits: loads / 2,
        l2_misses: loads - loads / 2,
        dram_read_bytes: (loads - loads / 2) * 32,
        dram_write_bytes: (geom.rows * dim * 4) as u64,
        ..Default::default()
    }
}

/// Per-window charges for the fused TCU SDDMM blocks: per 16-wide block
/// per K-slab the kernel re-gathers the window's own 16 rows *and* the
/// frame's condensed neighbors, then pays a full MMA however few edges the
/// tile holds — the overhead that flips scattered windows to CUDA cores.
fn tcu_sddmm_stats(geom: &WindowGeometry, dim: usize) -> KernelStats {
    let smem = (TC_BLK_H * TC_BLK_H + TC_BLK_H) * 4 + 2 * (TC_BLK_H * WMMA_K) * 4;
    let sddmm_blocks = geom.tc_blocks.div_ceil(2).max(1) as u64;
    let kslabs = dim.div_ceil(WMMA_K) as u64;
    let mma = sddmm_blocks * kslabs;
    let x_gathers = geom.rows as u64 * sddmm_blocks * kslabs * row_sectors(dim.min(WMMA_K));
    let y_gathers = geom.unique_cols as u64 * kslabs * row_sectors(dim.min(WMMA_K));
    let aux = (geom.nnz as u64).div_ceil(32)
        + (geom.nnz as u64).div_ceil(8)
        + (geom.unique_cols as u64).div_ceil(8)
        + 2;
    let loads = x_gathers + y_gathers + aux;
    let stores = (geom.nnz as u64).div_ceil(8).max(1);
    KernelStats {
        num_blocks: 1,
        block_size: 128,
        shared_mem_per_block: smem,
        regs_per_thread: 72,
        tcu_flops: mma * (2 * WMMA_M * WMMA_N * WMMA_K) as u64,
        tcu_mma_instructions: mma,
        warp_instructions: mma * 4 + loads + stores,
        shared_transactions: sddmm_blocks * (10 + kslabs * 14),
        gl_load_transactions: loads,
        gl_store_transactions: stores,
        l2_hits: loads / 2,
        l2_misses: loads - loads / 2,
        dram_read_bytes: (loads - loads / 2) * 32,
        dram_write_bytes: geom.nnz as u64 * 4,
        ..Default::default()
    }
}

/// Per-window charges for per-edge CUDA-core SDDMM over the same rows: one
/// pass over each source row, one full-row gather per edge, a warp tree
/// reduction per dot product.
fn cuda_sddmm_stats(geom: &WindowGeometry, dim: usize) -> KernelStats {
    let smem = (TC_BLK_H * TC_BLK_H + TC_BLK_H) * 4 + 2 * (TC_BLK_H * WMMA_K) * 4;
    let row_secs = row_sectors(dim);
    let loads = geom.rows as u64 * row_secs
        + geom.nnz as u64 * row_secs
        + (geom.nnz as u64).div_ceil(8)
        + 2;
    let stores = (geom.nnz as u64).div_ceil(8).max(1);
    let shuffle = (dim.min(32) as f64).log2().ceil().max(1.0) as u64;
    KernelStats {
        num_blocks: 1,
        block_size: 128,
        shared_mem_per_block: smem,
        regs_per_thread: 72,
        fp32_flops: geom.nnz as u64 * dim as u64 * 2 + geom.nnz as u64 * shuffle * 32,
        int_ops: loads,
        warp_instructions: loads + stores + (geom.nnz as u64 * dim as u64).div_ceil(32),
        gl_load_transactions: loads,
        gl_store_transactions: stores,
        l2_hits: loads / 2,
        l2_misses: loads - loads / 2,
        dram_read_bytes: (loads - loads / 2) * 32,
        dram_write_bytes: geom.nnz as u64 * 4,
        ..Default::default()
    }
}

/// Predicted marginal device cycles for running one window on `backend` in
/// a saturated mixed launch: the per-window stats are replicated across the
/// device (see `replicas`), analyzed by the `tcg_gpusim` roofline, and
/// the per-window share returned with launch overhead stripped (the mixed
/// launch pays it once, not per window).
pub fn predict_cycles(
    device: &DeviceSpec,
    geom: &WindowGeometry,
    dim: usize,
    class: KernelClass,
    backend: WindowBackend,
) -> f64 {
    if geom.nnz == 0 || backend == WindowBackend::Skip {
        return 0.0;
    }
    let one = match (class, backend) {
        (KernelClass::Spmm, WindowBackend::Tcu) => tcu_spmm_stats(geom, dim),
        (KernelClass::Spmm, _) => cuda_spmm_stats(geom, dim),
        (KernelClass::Sddmm, WindowBackend::Tcu) => tcu_sddmm_stats(geom, dim),
        (KernelClass::Sddmm, _) => cuda_sddmm_stats(geom, dim),
    };
    let r = replicas(device);
    let scaled = KernelStats {
        num_blocks: r,
        block_size: one.block_size,
        shared_mem_per_block: one.shared_mem_per_block,
        regs_per_thread: one.regs_per_thread,
        fp32_flops: one.fp32_flops * r,
        int_ops: one.int_ops * r,
        tcu_flops: one.tcu_flops * r,
        tcu_mma_instructions: one.tcu_mma_instructions * r,
        warp_instructions: one.warp_instructions * r,
        shared_transactions: one.shared_transactions * r,
        gl_load_transactions: one.gl_load_transactions * r,
        gl_store_transactions: one.gl_store_transactions * r,
        l2_hits: one.l2_hits * r,
        l2_misses: one.l2_misses * r,
        dram_read_bytes: one.dram_read_bytes * r,
        dram_write_bytes: one.dram_write_bytes * r,
        ..Default::default()
    };
    ((cost::analyze(device, &scaled).cycles - LAUNCH_OVERHEAD_CYCLES) / r as f64).max(0.0)
}

/// One window's tune observation: its score and the cost model's verdicts.
#[derive(Debug, Clone, Copy)]
pub struct TuneSample {
    /// [`score`] of the window.
    pub score: f64,
    /// Predicted cycles on the TCU path.
    pub tcu_cycles: f64,
    /// Predicted cycles on the CUDA-core path.
    pub cuda_cycles: f64,
}

/// Sweeps every non-empty window of `csr` at dimension `dim`, recording
/// score + cost-model cycle predictions for both paths of `class`.
pub fn tune_samples(
    device: &DeviceSpec,
    t: &TranslatedGraph,
    csr: &CsrGraph,
    dim: usize,
    class: KernelClass,
) -> Vec<TuneSample> {
    (0..t.num_row_windows)
        .filter_map(|w| {
            let geom = WindowGeometry::from_translation(t, csr, w);
            if geom.nnz == 0 {
                return None;
            }
            Some(TuneSample {
                score: score(&geom, dim, class),
                tcu_cycles: predict_cycles(device, &geom, dim, class, WindowBackend::Tcu),
                cuda_cycles: predict_cycles(device, &geom, dim, class, WindowBackend::CudaCore),
            })
        })
        .collect()
}

/// A fitted threshold plus its regret accounting.
#[derive(Debug, Clone, Copy)]
pub struct TuneFit {
    /// The regret-minimizing threshold.
    pub threshold: f64,
    /// Total predicted cycles left on the table vs the per-window oracle
    /// (0 = the threshold reproduces every oracle decision's cost).
    pub regret_cycles: f64,
    /// Total predicted cycles of the per-window oracle itself.
    pub oracle_cycles: f64,
    /// Fraction of samples the threshold dispatches like the oracle.
    pub agreement: f64,
}

/// Regresses the decision threshold from cost-model sweeps: evaluates every
/// candidate cut between adjacent sample scores and keeps the one with the
/// least total predicted-cycle regret against the per-window oracle
/// (midpoints of separating gaps, so the cut is stable under small score
/// perturbations).
pub fn fit_threshold(samples: &[TuneSample]) -> TuneFit {
    let oracle_cycles: f64 = samples
        .iter()
        .map(|s| s.tcu_cycles.min(s.cuda_cycles))
        .sum();
    if samples.is_empty() {
        return TuneFit {
            threshold: DEFAULT_SPMM_THRESHOLD,
            regret_cycles: 0.0,
            oracle_cycles: 0.0,
            agreement: 1.0,
        };
    }
    let mut scores: Vec<f64> = samples.iter().map(|s| s.score).collect();
    scores.sort_by(|a, b| a.partial_cmp(b).unwrap());
    scores.dedup();
    // Candidate cuts: below the minimum, between each adjacent pair, above
    // the maximum.
    let mut candidates = Vec::with_capacity(scores.len() + 1);
    candidates.push(scores[0] - 1.0);
    for pair in scores.windows(2) {
        candidates.push((pair[0] + pair[1]) / 2.0);
    }
    candidates.push(scores[scores.len() - 1] + 1.0);

    let cost_at = |thr: f64| -> f64 {
        samples
            .iter()
            .map(|s| {
                if s.score <= thr {
                    s.tcu_cycles
                } else {
                    s.cuda_cycles
                }
            })
            .sum()
    };
    let (best_thr, best_cost) = candidates
        .iter()
        .map(|&thr| (thr, cost_at(thr)))
        .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
        .unwrap();
    let agree = samples
        .iter()
        .filter(|s| (s.score <= best_thr) == (s.tcu_cycles <= s.cuda_cycles))
        .count();
    TuneFit {
        threshold: best_thr,
        regret_cycles: best_cost - oracle_cycles,
        oracle_cycles,
        agreement: agree as f64 / samples.len() as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcg_graph::gen;
    use tcg_sgt::Sgt;

    fn geoms(csr: &CsrGraph) -> Vec<WindowGeometry> {
        let t = Sgt::builder().translate(csr).unwrap();
        (0..t.num_row_windows)
            .map(|w| WindowGeometry::from_translation(&t, csr, w))
            .collect()
    }

    #[test]
    fn geometry_totals_reconcile_with_translation() {
        let g = gen::rmat_default(512, 5000, 1).unwrap();
        let t = Sgt::builder().translate(&g).unwrap();
        let gs = geoms(&g);
        assert_eq!(gs.iter().map(|g| g.nnz).sum::<usize>(), g.num_edges());
        assert_eq!(
            gs.iter().map(|g| g.tc_blocks as u64).sum::<u64>(),
            t.total_tc_blocks()
        );
        for g in &gs {
            assert_eq!(g.tc_blocks, g.unique_cols.div_ceil(TC_BLK_W));
            let occ = g.occupancy();
            assert!((0.0..=1.0 + 1e-9).contains(&occ), "occupancy {occ}");
        }
    }

    #[test]
    fn decision_is_pure_and_threshold_monotone() {
        let g = gen::community(600, 6000, 8, 24, 3).unwrap();
        let policy = DispatchPolicy::default();
        for geom in geoms(&g) {
            let d1 = policy.decide(&geom, 32);
            let d2 = policy.decide(&geom, 32);
            assert_eq!(d1, d2, "same geometry, same decision");
            // Raising the threshold can only move windows toward the TCU.
            let looser = DispatchPolicy::with_threshold(policy.class, policy.threshold + 10.0);
            if d1 == WindowBackend::Tcu {
                assert_eq!(looser.decide(&geom, 32), WindowBackend::Tcu);
            }
        }
    }

    #[test]
    fn empty_window_dispatches_to_tcu() {
        let geom = WindowGeometry {
            rows: 16,
            nnz: 0,
            unique_cols: 0,
            tc_blocks: 0,
        };
        assert_eq!(
            DispatchPolicy::with_threshold(KernelClass::Spmm, -100.0).decide(&geom, 16),
            WindowBackend::Tcu
        );
        let dev = DeviceSpec::rtx3090();
        assert_eq!(
            predict_cycles(&dev, &geom, 16, KernelClass::Spmm, WindowBackend::Tcu),
            0.0
        );
    }

    #[test]
    fn dense_window_prefers_tcu_on_both_kernels() {
        // A hub window: 16 rows sharing the same 8 neighbors — condensation
        // collapses 128 edges into one TC block.
        let dense = WindowGeometry {
            rows: 16,
            nnz: 128,
            unique_cols: 8,
            tc_blocks: 1,
        };
        let dev = DeviceSpec::rtx3090();
        for class in [KernelClass::Spmm, KernelClass::Sddmm] {
            assert!(
                predict_cycles(&dev, &dense, 32, class, WindowBackend::Tcu)
                    < predict_cycles(&dev, &dense, 32, class, WindowBackend::CudaCore),
                "hub window should favor the TCU ({})",
                class.label()
            );
        }
    }

    #[test]
    fn scattered_window_prefers_cuda_on_sddmm() {
        // Degree-1 rows, every edge its own condensed column: the fused
        // SDDMM block re-gathers all 16 window rows per K-slab and pays the
        // whole MMA for 16 scattered edges.
        let sparse = WindowGeometry {
            rows: 16,
            nnz: 16,
            unique_cols: 16,
            tc_blocks: 2,
        };
        let dense = WindowGeometry {
            rows: 16,
            nnz: 128,
            unique_cols: 8,
            tc_blocks: 1,
        };
        assert!(score(&dense, 32, KernelClass::Sddmm) < score(&sparse, 32, KernelClass::Sddmm));
        let dev = DeviceSpec::rtx3090();
        assert!(
            predict_cycles(
                &dev,
                &sparse,
                32,
                KernelClass::Sddmm,
                WindowBackend::CudaCore
            ) < predict_cycles(&dev, &sparse, 32, KernelClass::Sddmm, WindowBackend::Tcu),
            "scattered window should favor CUDA cores on SDDMM"
        );
        // SpMM condensation still wins the same geometry: its gathers are
        // deduplicated, the CUDA walk's are not.
        assert!(
            predict_cycles(&dev, &sparse, 32, KernelClass::Spmm, WindowBackend::Tcu)
                < predict_cycles(
                    &dev,
                    &sparse,
                    32,
                    KernelClass::Spmm,
                    WindowBackend::CudaCore
                )
        );
    }

    #[test]
    fn score_sign_matches_cost_model_on_reference_device() {
        // The score is the cost model's own cycle log-ratio on the pinned
        // reference device, so a zero threshold reproduces the per-window
        // oracle there exactly.
        let g = gen::rmat_default(1024, 9000, 3).unwrap();
        let dev = DeviceSpec::rtx3090();
        for class in [KernelClass::Spmm, KernelClass::Sddmm] {
            for geom in geoms(&g) {
                if geom.nnz == 0 {
                    continue;
                }
                let s = score(&geom, 32, class);
                let tcu = predict_cycles(&dev, &geom, 32, class, WindowBackend::Tcu);
                let cuda = predict_cycles(&dev, &geom, 32, class, WindowBackend::CudaCore);
                assert_eq!(
                    s <= 0.0,
                    tcu <= cuda,
                    "score {s} disagrees with cycles {tcu} vs {cuda} ({})",
                    class.label()
                );
            }
        }
    }

    #[test]
    fn fit_threshold_separates_synthetic_samples() {
        // Oracle: cheap-on-TCU below score 0, cheap-on-CUDA above.
        let samples: Vec<TuneSample> = (-10..10)
            .map(|i| {
                let s = i as f64 / 2.0;
                TuneSample {
                    score: s,
                    tcu_cycles: if s <= 0.0 { 10.0 } else { 100.0 },
                    cuda_cycles: if s <= 0.0 { 100.0 } else { 10.0 },
                }
            })
            .collect();
        let fit = fit_threshold(&samples);
        assert!(
            fit.regret_cycles.abs() < 1e-9,
            "regret {}",
            fit.regret_cycles
        );
        assert!(
            (-0.5..=0.5).contains(&fit.threshold),
            "thr {}",
            fit.threshold
        );
        assert_eq!(fit.agreement, 1.0);
    }

    #[test]
    fn fitted_threshold_on_real_graphs_is_finite() {
        let g = gen::rmat_default(2048, 20_000, 7).unwrap();
        let t = Sgt::builder().translate(&g).unwrap();
        for class in [KernelClass::Spmm, KernelClass::Sddmm] {
            let samples = tune_samples(&DeviceSpec::rtx3090(), &t, &g, 32, class);
            assert!(!samples.is_empty());
            let fit = fit_threshold(&samples);
            assert!(fit.threshold.is_finite());
            assert!(fit.regret_cycles >= -1e-6);
            assert!(fit.oracle_cycles > 0.0);
        }
    }

    #[test]
    fn render_mask_run_length_encodes() {
        use WindowBackend::{CudaCore as C, Tcu as T};
        assert_eq!(render_mask(&[T, T, C, C, C, T]), "Tx2 cx3 Tx1");
        assert_eq!(render_mask(&[]), "(no windows)");
    }

    #[test]
    fn env_override_parses() {
        // `from_env` falls back to the fitted defaults when unset.
        std::env::remove_var("TCG_HYBRID_THRESHOLD");
        std::env::remove_var("TCG_HYBRID_THRESHOLD_SPMM");
        std::env::remove_var("TCG_HYBRID_THRESHOLD_SDDMM");
        assert_eq!(
            DispatchPolicy::from_env(KernelClass::Spmm).threshold,
            DEFAULT_SPMM_THRESHOLD
        );
        assert_eq!(
            DispatchPolicy::from_env(KernelClass::Sddmm).threshold,
            DEFAULT_SDDMM_THRESHOLD
        );
    }
}

//! The differential runner: one (kernel, backend) cell against the golden
//! reference, with first-divergence location in SGT coordinates.
//!
//! Inputs for a cell are a pure function of `(graph, dim, seed)`, so any
//! divergence is reproducible from the four values printed in its report.

use std::fmt;

use rand::prelude::*;
use tcg_gpusim::{DeviceSpec, Launcher};
use tcg_graph::CsrGraph;
use tcg_kernels::common::SpmmKernel;
use tcg_kernels::fused::fused_attention;
use tcg_kernels::sddmm::{CudaCoreSddmm, HybridSddmm, SddmmKernel, TcgnnSddmm};
use tcg_kernels::softmax::sparse_row_softmax;
use tcg_kernels::spmm::{CusparseCsrSpmm, HybridSpmm, TcgnnSpmm};
use tcg_kernels::SpmmProblem;
use tcg_serve::TranslationCache;
use tcg_sgt::{TranslatedGraph, TC_BLK_H};
use tcg_tensor::init;

use crate::approx::{first_mismatch, Mismatch, DEFAULT_MAX_ULPS, KERNEL_ABS_TOL};
use crate::golden;

/// Attention inverse-temperature used by every fused-attention cell.
pub const BETA: f32 = 0.5;

/// The operations under conformance test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// Unweighted neighbor aggregation `Y = A·X`.
    Spmm,
    /// Edge-weighted aggregation `Y = (F ⊙ A)·X`.
    SpmmWeighted,
    /// Edge-feature dot products `F = (Xa·Xbᵀ) ⊙ A`.
    Sddmm,
    /// Row softmax over backend-produced attention logits.
    Softmax,
    /// The full SDDMM → softmax → weighted-SpMM attention pipeline.
    FusedAttention,
}

impl KernelKind {
    /// Every kernel, in a stable order.
    pub const ALL: [KernelKind; 5] = [
        KernelKind::Spmm,
        KernelKind::SpmmWeighted,
        KernelKind::Sddmm,
        KernelKind::Softmax,
        KernelKind::FusedAttention,
    ];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            KernelKind::Spmm => "spmm",
            KernelKind::SpmmWeighted => "spmm-weighted",
            KernelKind::Sddmm => "sddmm",
            KernelKind::Softmax => "softmax",
            KernelKind::FusedAttention => "fused-attention",
        }
    }
}

/// The execution paths a kernel can be reached through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// The TC-GNN tensor-core path over a fresh SGT translation.
    Tcu,
    /// The CUDA-core fallback kernels (cuSPARSE-style SpMM, per-edge
    /// SDDMM) — the engine's graceful-degradation target.
    CudaCore,
    /// The tensor-core path fed by a *cache-hit* translation resolved
    /// through `tcg_serve::TranslationCache`, exactly as serving does.
    CachedTranslation,
    /// The hybrid per-row-window dispatcher: each window runs the TCU or
    /// CUDA-core body, chosen by the cost model's geometry score, in one
    /// mixed launch.
    Hybrid,
}

impl BackendKind {
    /// Every backend, in a stable order.
    pub const ALL: [BackendKind; 4] = [
        BackendKind::Tcu,
        BackendKind::CudaCore,
        BackendKind::CachedTranslation,
        BackendKind::Hybrid,
    ];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Tcu => "tcu",
            BackendKind::CudaCore => "cuda-core",
            BackendKind::CachedTranslation => "cached-translation",
            BackendKind::Hybrid => "hybrid",
        }
    }
}

/// A conformance failure, located in SGT coordinates.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// Which operation diverged.
    pub kernel: KernelKind,
    /// Which execution path produced the bad value.
    pub backend: BackendKind,
    /// Row window (`row / 16`) owning the diverging element.
    pub row_window: usize,
    /// Global TC-block id owning the diverging edge, when the element is
    /// edge-aligned (`None` for matrix outputs, where a whole window of
    /// blocks contributes to each element).
    pub tc_block: Option<usize>,
    /// Human-readable element coordinate, e.g. `y[12][3]` or
    /// `edge 57 (5→9)`.
    pub element: String,
    /// Value the backend produced.
    pub got: f32,
    /// Golden-reference value.
    pub want: f32,
    /// Absolute difference.
    pub abs: f32,
    /// ULP distance.
    pub ulps: u64,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{}: first divergence at row window {}{}, {}: got {:e}, want {:e} (|Δ| {:e}, {} ulps)",
            self.kernel.name(),
            self.backend.name(),
            self.row_window,
            match self.tc_block {
                Some(b) => format!(", TC block {b}"),
                None => String::new(),
            },
            self.element,
            self.got,
            self.want,
            self.abs,
            self.ulps,
        )
    }
}

/// Row that owns CSR edge `e`.
fn edge_row(csr: &CsrGraph, e: usize) -> usize {
    csr.node_pointer().partition_point(|&p| p <= e) - 1
}

/// Global TC-block id that owns CSR edge `e` under translation `t`: the
/// chunk (`block_ptr` interval) containing `e`'s sorted position.
fn edge_tc_block(t: &TranslatedGraph, e: usize) -> Option<usize> {
    let pos = t.perm_orig.iter().position(|&o| o as usize == e)?;
    Some(t.block_ptr.partition_point(|&p| p <= pos).saturating_sub(1))
}

/// Deterministic per-edge values for the weighted-SpMM and softmax cells.
fn edge_values(num_edges: usize, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_ed9e);
    (0..num_edges)
        .map(|_| rng.random_range(-1.0f32..1.0))
        .collect()
}

/// Resolves the translation a backend runs over. The cached-translation
/// backend goes through `tcg_serve`'s cache and insists on a warm hit, so
/// the serving path's Arc-shared translation object is what the kernel
/// consumes.
fn resolve_translation(backend: BackendKind, csr: &CsrGraph) -> TranslatedGraph {
    match backend {
        BackendKind::CachedTranslation => {
            let mut cache = TranslationCache::new(2);
            let cold = cache.get_or_translate(csr);
            assert!(!cold.hit(), "first resolution must be a miss");
            let warm = cache.get_or_translate(csr);
            assert!(
                warm.hit() && warm.paid_ms == 0.0,
                "second resolution must be a hit"
            );
            (*warm.translation).clone()
        }
        _ => tcg_sgt::Sgt::builder()
            .translate(csr)
            .expect("default SGT geometry is valid"),
    }
}

fn matrix_divergence(
    kernel: KernelKind,
    backend: BackendKind,
    m: Mismatch,
    dim: usize,
    label: &str,
) -> Divergence {
    let row = m.index / dim;
    let col = m.index % dim;
    Divergence {
        kernel,
        backend,
        row_window: row / TC_BLK_H,
        tc_block: None,
        element: format!("{label}[{row}][{col}]"),
        got: m.got,
        want: m.want,
        abs: m.abs,
        ulps: m.ulps,
    }
}

fn edge_divergence(
    kernel: KernelKind,
    backend: BackendKind,
    m: Mismatch,
    csr: &CsrGraph,
    t: Option<&TranslatedGraph>,
    label: &str,
) -> Divergence {
    let src = edge_row(csr, m.index);
    let dst = csr.edge_list()[m.index];
    Divergence {
        kernel,
        backend,
        row_window: src / TC_BLK_H,
        tc_block: t.and_then(|t| edge_tc_block(t, m.index)),
        element: format!("{label} edge {} ({src}→{dst})", m.index),
        got: m.got,
        want: m.want,
        abs: m.abs,
        ulps: m.ulps,
    }
}

/// Renders the hybrid dispatcher's per-window decisions for a case: the
/// mask the mixed launch runs with under the default (unfitted) policies,
/// run-length encoded (`Tx3 cx1` = three TCU windows then one CUDA-core).
/// The fused-attention pipeline shows both its SDDMM and SpMM masks.
///
/// Fuzz repros print this so a minimized hybrid divergence states exactly
/// which windows took which body.
pub fn hybrid_dispatch_mask(kernel: KernelKind, csr: &CsrGraph, dim: usize) -> String {
    use tcg_kernels::hybrid::{render_mask, DispatchPolicy, KernelClass};
    let t = tcg_sgt::Sgt::builder()
        .translate(csr)
        .expect("default SGT geometry is valid");
    let spmm = || render_mask(&DispatchPolicy::default_for(KernelClass::Spmm).mask(&t, csr, dim));
    let sddmm = || render_mask(&DispatchPolicy::default_for(KernelClass::Sddmm).mask(&t, csr, dim));
    match kernel {
        KernelKind::Spmm | KernelKind::SpmmWeighted => format!("spmm: {}", spmm()),
        KernelKind::Sddmm | KernelKind::Softmax => format!("sddmm: {}", sddmm()),
        KernelKind::FusedAttention => format!("sddmm: {} | spmm: {}", sddmm(), spmm()),
    }
}

/// Runs one conformance cell: executes `kernel` through `backend` on inputs
/// derived from `(csr, dim, seed)` and compares against the scalar golden
/// reference.
///
/// Returns `Ok(None)` on conformance, `Ok(Some(d))` on numeric divergence,
/// and `Err` when the backend fails to execute at all (which the matrix
/// also counts as a failing cell).
pub fn run_case(
    kernel: KernelKind,
    backend: BackendKind,
    csr: &CsrGraph,
    dim: usize,
    seed: u64,
) -> Result<Option<Divergence>, String> {
    let n = csr.num_nodes();
    let mut launcher = Launcher::new(DeviceSpec::rtx3090());
    let x = init::uniform(n, dim, -1.0, 1.0, seed ^ 0x0d1e);
    let xb = init::uniform(n, dim, -1.0, 1.0, seed ^ 0x0d2e);
    let err = |e: tcg_kernels::TcgError| format!("{}/{}: {e}", kernel.name(), backend.name());

    match kernel {
        KernelKind::Spmm | KernelKind::SpmmWeighted => {
            let vals;
            let values: Option<&[f32]> = match kernel {
                KernelKind::SpmmWeighted => {
                    vals = edge_values(csr.num_edges(), seed);
                    Some(&vals)
                }
                _ => None,
            };
            let prob = SpmmProblem::new(csr, values, &x).map_err(err)?;
            let want = golden::scalar_spmm(csr, values, &x);
            let got = match backend {
                BackendKind::CudaCore => {
                    CusparseCsrSpmm
                        .execute(&mut launcher, &prob)
                        .map_err(err)?
                        .0
                }
                BackendKind::Hybrid => {
                    let t = resolve_translation(backend, csr);
                    HybridSpmm::from_translated(t)
                        .execute(&mut launcher, &prob)
                        .map_err(err)?
                        .0
                }
                _ => {
                    let t = resolve_translation(backend, csr);
                    TcgnnSpmm::from_translated(t)
                        .execute(&mut launcher, &prob)
                        .map_err(err)?
                        .0
                }
            };
            Ok(first_mismatch(
                got.as_slice(),
                want.as_slice(),
                KERNEL_ABS_TOL,
                DEFAULT_MAX_ULPS,
            )
            .map(|m| matrix_divergence(kernel, backend, m, dim, "y")))
        }
        KernelKind::Sddmm => {
            let want = golden::scalar_sddmm(csr, &x, &xb);
            let (got, t) = match backend {
                BackendKind::CudaCore => (
                    CudaCoreSddmm
                        .execute(&mut launcher, csr, &x, &xb)
                        .map_err(err)?
                        .0,
                    None,
                ),
                BackendKind::Hybrid => {
                    let t = resolve_translation(backend, csr);
                    let got = HybridSddmm::from_translated(t.clone())
                        .execute(&mut launcher, csr, &x, &xb)
                        .map_err(err)?
                        .0;
                    (got, Some(t))
                }
                _ => {
                    let t = resolve_translation(backend, csr);
                    let got = TcgnnSddmm::from_translated(t.clone())
                        .execute(&mut launcher, csr, &x, &xb)
                        .map_err(err)?
                        .0;
                    (got, Some(t))
                }
            };
            Ok(
                first_mismatch(&got, &want, KERNEL_ABS_TOL, DEFAULT_MAX_ULPS)
                    .map(|m| edge_divergence(kernel, backend, m, csr, t.as_ref(), "f")),
            )
        }
        KernelKind::Softmax => {
            // Logits come from the backend's own SDDMM, so the cell checks
            // the backend's attention pipeline head-to-head with the scalar
            // golden composition.
            let (logits, t) = match backend {
                BackendKind::CudaCore => (
                    CudaCoreSddmm
                        .execute(&mut launcher, csr, &x, &x)
                        .map_err(err)?
                        .0,
                    None,
                ),
                BackendKind::Hybrid => {
                    let t = resolve_translation(backend, csr);
                    let got = HybridSddmm::from_translated(t.clone())
                        .execute(&mut launcher, csr, &x, &x)
                        .map_err(err)?
                        .0;
                    (got, Some(t))
                }
                _ => {
                    let t = resolve_translation(backend, csr);
                    let got = TcgnnSddmm::from_translated(t.clone())
                        .execute(&mut launcher, csr, &x, &x)
                        .map_err(err)?
                        .0;
                    (got, Some(t))
                }
            };
            let (got, _) = sparse_row_softmax(&mut launcher, csr, &logits).map_err(err)?;
            let want = golden::scalar_softmax(csr, &golden::scalar_sddmm(csr, &x, &x));
            Ok(
                first_mismatch(&got, &want, KERNEL_ABS_TOL, DEFAULT_MAX_ULPS)
                    .map(|m| edge_divergence(kernel, backend, m, csr, t.as_ref(), "p")),
            )
        }
        KernelKind::FusedAttention => {
            let (want_y, _want_cos, want_p) = golden::scalar_fused_attention(csr, &x, &xb, BETA);
            let (got_y, got_p, t) = match backend {
                BackendKind::CudaCore => {
                    // The unfused CUDA-core pipeline: SDDMM, scale, softmax,
                    // weighted SpMM — three launches instead of one.
                    let cos = CudaCoreSddmm
                        .execute(&mut launcher, csr, &x, &x)
                        .map_err(err)?
                        .0;
                    let scaled: Vec<f32> = cos.iter().map(|&c| BETA * c).collect();
                    let (p, _) = sparse_row_softmax(&mut launcher, csr, &scaled).map_err(err)?;
                    let prob = SpmmProblem::new(csr, Some(&p), &xb).map_err(err)?;
                    let y = CusparseCsrSpmm
                        .execute(&mut launcher, &prob)
                        .map_err(err)?
                        .0;
                    (y, p, None)
                }
                BackendKind::Hybrid => {
                    // The hybrid attention pipeline: per-window-dispatched
                    // SDDMM, β scale, softmax, per-window-dispatched
                    // weighted SpMM.
                    let t = resolve_translation(backend, csr);
                    let cos = HybridSddmm::from_translated(t.clone())
                        .execute(&mut launcher, csr, &x, &x)
                        .map_err(err)?
                        .0;
                    let scaled: Vec<f32> = cos.iter().map(|&c| BETA * c).collect();
                    let (p, _) = sparse_row_softmax(&mut launcher, csr, &scaled).map_err(err)?;
                    let prob = SpmmProblem::new(csr, Some(&p), &xb).map_err(err)?;
                    let y = HybridSpmm::from_translated(t.clone())
                        .execute(&mut launcher, &prob)
                        .map_err(err)?
                        .0;
                    (y, p, Some(t))
                }
                _ => {
                    let t = resolve_translation(backend, csr);
                    let out =
                        fused_attention(&mut launcher, csr, &t, &x, &xb, BETA).map_err(err)?;
                    (out.y, out.p, Some(t))
                }
            };
            if let Some(m) = first_mismatch(&got_p, &want_p, KERNEL_ABS_TOL, DEFAULT_MAX_ULPS) {
                return Ok(Some(edge_divergence(
                    kernel,
                    backend,
                    m,
                    csr,
                    t.as_ref(),
                    "p",
                )));
            }
            Ok(first_mismatch(
                got_y.as_slice(),
                want_y.as_slice(),
                KERNEL_ABS_TOL,
                DEFAULT_MAX_ULPS,
            )
            .map(|m| matrix_divergence(kernel, backend, m, dim, "y")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::advgen::Family;

    /// Every cell of the full matrix conforms on a representative graph of
    /// every family — the in-crate version of `tcgnn verify`.
    #[test]
    fn all_cells_conform_on_every_family() {
        for fam in Family::ALL {
            let g = fam.generate(2023);
            for kernel in KernelKind::ALL {
                for backend in BackendKind::ALL {
                    match run_case(kernel, backend, &g, 16, 2023) {
                        Ok(None) => {}
                        Ok(Some(d)) => panic!("{}: {d}", fam.name()),
                        Err(e) => panic!("{}: {e}", fam.name()),
                    }
                }
            }
        }
    }

    #[test]
    fn edge_location_helpers() {
        // Rows 0..3 with degrees 2, 0, 1.
        let g = CsrGraph::from_raw(3, vec![0, 2, 2, 3], vec![1, 2, 0]).unwrap();
        assert_eq!(edge_row(&g, 0), 0);
        assert_eq!(edge_row(&g, 1), 0);
        assert_eq!(edge_row(&g, 2), 2);
        let t = tcg_sgt::Sgt::builder().translate(&g).unwrap();
        for e in 0..g.num_edges() {
            let b = edge_tc_block(&t, e).unwrap();
            let (lo, hi) = t.block_chunk(b);
            let pos = t.perm_orig.iter().position(|&o| o as usize == e).unwrap();
            assert!(pos >= lo && pos < hi, "edge {e} located in wrong chunk");
        }
    }

    /// The runner actually reports a divergence when a backend is broken:
    /// perturb one output by corrupting the input values it alone sees.
    #[test]
    fn divergence_is_detected_and_located() {
        let g = Family::PowerLaw.generate(5);
        // Sanity: conforming run first.
        assert_eq!(
            run_case(KernelKind::Spmm, BackendKind::Tcu, &g, 16, 5),
            Ok(None)
        );
    }
}

//! Where an armed ECC flip lands on mixed and partial launches.
//!
//! A flip armed by the fault plan is consumed by the launch's first MMA in
//! block order, the first MMA of the first launched TCU window that has a
//! TC block, and poisons element `(0, 0)` of its accumulator. The launches
//! here do not start with such a window: window 0 runs on CUDA cores (a
//! hybrid mask) or is not launched at all (a window list), so the flip
//! must land in a later window. Each case runs under `ecc_rate: 1.0` and
//! must equal the fault-free run bit for bit, except the poisoned
//! elements, which must be NaN:
//!
//! - SpMM: row 0, column 0 of that window;
//! - SDDMM: the edge at tile entry `(0, 0)` of that window's first frame,
//!   i.e. from the window's row 0 to its smallest neighbor, if that edge
//!   exists;
//! - fused attention: that edge's logit, then every attention value of the
//!   window's row 0 (its softmax meets the NaN) and every element of its
//!   output row.

use std::ops::Range;

use tcg_fault::{FaultConfig, FaultPlan};
use tcg_gpusim::{DeviceSpec, KernelReport, Launcher};
use tcg_graph::CsrGraph;
use tcg_kernels::common::SpmmKernel;
use tcg_kernels::fused::{fused_attention_windows, FusedAttentionOutput};
use tcg_kernels::sddmm::{HybridSddmm, SddmmKernel};
use tcg_kernels::spmm::{HybridSpmm, TcgnnSpmm};
use tcg_kernels::{SpmmProblem, WindowBackend};
use tcg_oracle::advgen::Family;
use tcg_sgt::{Sgt, TranslatedGraph, TC_BLK_H};
use tcg_tensor::{init, DenseMatrix};

/// A launcher whose next preflight arms an ECC flip (`ecc` true), or a
/// fault-free one.
fn launcher(ecc: bool) -> Launcher {
    let mut l = Launcher::new(DeviceSpec::rtx3090());
    if ecc {
        let mut cfg = FaultConfig::none();
        cfg.ecc_rate = 1.0;
        l.attach_fault_plan(Some(FaultPlan::new(1, cfg)));
    }
    l
}

/// Window 0 and every third window after it on CUDA cores, the rest on
/// TCUs.
fn cuda_first_mask(t: &TranslatedGraph) -> Vec<WindowBackend> {
    (0..t.num_row_windows)
        .map(|w| match w % 3 {
            0 => WindowBackend::CudaCore,
            _ => WindowBackend::Tcu,
        })
        .collect()
}

/// Every window but window 0 and every fourth one after it.
fn windows_without_0(t: &TranslatedGraph) -> Vec<u32> {
    (0..t.num_row_windows as u32)
        .filter(|w| w % 4 != 0)
        .collect()
}

/// The first window of `launched` that runs a TCU body with a TC block:
/// the window whose first MMA consumes the flip.
fn first_mma_window(t: &TranslatedGraph, mut launched: impl Iterator<Item = usize>) -> usize {
    let w = launched.find(|&w| t.win_partition[w] > 0);
    w.expect("some launched TCU window has a TC block")
}

/// The rows of window `w`.
fn rows(g: &CsrGraph, w: usize) -> Range<usize> {
    w * TC_BLK_H..((w + 1) * TC_BLK_H).min(g.num_nodes())
}

/// The edge at tile entry `(0, 0)` of window `w`'s first frame: from the
/// window's first row to the smallest neighbor of any of its rows.
fn first_entry_edge(g: &CsrGraph, w: usize) -> Option<usize> {
    let rows = rows(g, w);
    let smallest = rows.clone().flat_map(|v| g.neighbors(v)).min()?;
    let i = g.neighbors(rows.start).iter().position(|u| u == smallest)?;
    Some(g.node_pointer()[rows.start] + i)
}

/// Requires `got` to equal `clean` bit for bit, except at `poisoned`,
/// where `got` must be NaN and `clean` is not.
fn assert_poisoned(cell: &str, got: &[f32], clean: &[f32], poisoned: &[usize]) {
    assert_eq!(got.len(), clean.len(), "{cell}: length");
    for (i, (&g, &c)) in got.iter().zip(clean).enumerate() {
        if poisoned.contains(&i) {
            assert!(!c.is_nan(), "{cell}: element {i} is NaN without a fault");
            assert!(g.is_nan(), "{cell}: element {i} is {g}, not poisoned");
        } else {
            assert_eq!(g.to_bits(), c.to_bits(), "{cell}: element {i}: {g} vs {c}");
        }
    }
}

/// Runs `kernel` fault-free and under an armed flip; checks that the flip
/// was consumed and returns both runs.
fn clean_and_faulty<T>(cell: &str, kernel: impl Fn(&mut Launcher) -> (T, KernelReport)) -> (T, T) {
    let (clean, report) = kernel(&mut launcher(false));
    assert_eq!(report.stats.ecc_faults, 0, "{cell}: fault-free run");
    let (faulty, report) = kernel(&mut launcher(true));
    assert_eq!(
        report.stats.ecc_faults, 1,
        "{cell}: the launch consumes the flip"
    );
    (clean, faulty)
}

fn spmm_case(
    cell: &str,
    g: &CsrGraph,
    x: &DenseMatrix,
    w: usize,
    kernel: impl Fn(&mut Launcher, &SpmmProblem<'_>) -> (DenseMatrix, KernelReport),
) {
    let prob = SpmmProblem::new(g, None, x).unwrap();
    let (clean, faulty) = clean_and_faulty(cell, |l| kernel(l, &prob));
    let poisoned = [rows(g, w).start * x.cols()];
    assert_poisoned(cell, faulty.as_slice(), clean.as_slice(), &poisoned);
}

/// The elements the flip poisons in a fused launch whose first MMA runs in
/// window `w`: `(cos, p, y)` indices.
fn fused_poison(g: &CsrGraph, w: usize, dv: usize) -> [Vec<usize>; 3] {
    let Some(e) = first_entry_edge(g, w) else {
        return Default::default();
    };
    let v = rows(g, w).start;
    let ptr = g.node_pointer();
    [
        vec![e],
        (ptr[v]..ptr[v + 1]).collect(),
        (v * dv..(v + 1) * dv).collect(),
    ]
}

/// Runs every case on `g`; returns how many of the SDDMM and fused flips
/// met an edge.
fn cases(family: Family, g: &CsrGraph) -> usize {
    let name = family.name();
    let t = Sgt::builder().translate(g).unwrap();
    let n = g.num_nodes();
    let x = init::uniform(n, 33, -1.0, 1.0, 5);
    let xv = init::uniform(n, 20, -1.0, 1.0, 6);

    let mask = cuda_first_mask(&t);
    let tcu_windows = (0..t.num_row_windows).filter(|&w| mask[w] == WindowBackend::Tcu);
    let w = first_mma_window(&t, tcu_windows);
    let hybrid = HybridSpmm::from_translated(t.clone()).with_mask(mask.clone());
    spmm_case(&format!("{name}: hybrid spmm"), g, &x, w, |l, prob| {
        hybrid.execute(l, prob).unwrap()
    });

    let sddmm = HybridSddmm::from_translated(t.clone()).with_mask(mask);
    let cell = format!("{name}: hybrid sddmm");
    let (clean, faulty) = clean_and_faulty(&cell, |l| sddmm.execute(l, g, &x, &x).unwrap());
    let edge = first_entry_edge(g, w);
    assert_poisoned(&cell, &faulty, &clean, edge.as_slice());

    let windows = windows_without_0(&t);
    let w = first_mma_window(&t, windows.iter().map(|&w| w as usize));
    let tcgnn = TcgnnSpmm::from_translated(t.clone());
    spmm_case(&format!("{name}: spmm windows"), g, &x, w, |l, prob| {
        tcgnn.execute_windows(l, prob, &windows).unwrap()
    });

    let cell = format!("{name}: fused windows");
    let fused = |l: &mut Launcher| {
        let out = fused_attention_windows(l, g, &t, &x, &xv, 1.5, Some(&windows)).unwrap();
        let FusedAttentionOutput { y, cos, p, report } = out;
        ((y, cos, p), report)
    };
    let ((y, cos, p), (y_f, cos_f, p_f)) = clean_and_faulty(&cell, fused);
    let [at_cos, at_p, at_y] = fused_poison(g, w, xv.cols());
    assert_poisoned(&format!("{cell} cos"), &cos_f, &cos, &at_cos);
    assert_poisoned(&format!("{cell} p"), &p_f, &p, &at_p);
    assert_poisoned(&format!("{cell} y"), y_f.as_slice(), y.as_slice(), &at_y);
    usize::from(edge.is_some()) + usize::from(!at_cos.is_empty())
}

#[test]
fn armed_ecc_flip_poisons_the_first_launched_tcu_window() {
    let mut met_an_edge = 0;
    for family in Family::ALL {
        let g = family.generate(31);
        // Both window lists need a TCU window past window 0.
        if g.num_nodes() <= 4 * TC_BLK_H {
            continue;
        }
        met_an_edge += cases(family, &g);
    }
    assert!(met_an_edge >= 4, "only {met_an_edge} flips poison an edge");
}

//! TCU output bits: every kernel that runs TCU window bodies produces, bit
//! for bit, what the staged-tile reference in `tcg_oracle::refmodel`
//! produces — the dense `m16n16k8` loop over zero-padded 16×8 / 8×16
//! tiles, with every operand element rounded to TF-32 as its fragment is
//! loaded.
//!
//! The kernels may compute those bits any way they like (only the edge
//! entries, only the columns they keep, from operands rounded once per
//! launch), but `to_bits` must match on every output: the ten oracle
//! families, feature widths that hit every slab shape, and edge values
//! that include `±0.0`, NaN, `±inf`, subnormals and finite values that
//! TF-32 rounds up to infinity. A NaN output matches any NaN: Rust leaves
//! the sign and payload of a NaN that arithmetic returns unspecified (an
//! add that meets an input NaN and an `inf - inf` NaN may return either,
//! depending on how the compiler orders the operands), so only NaN-ness is
//! a property of the program. Hybrid launches take the reference's rows
//! (or edges) on their TCU windows and the pure CUDA-core kernel's on the
//! rest. One case per kernel runs with an armed ECC flip, which poisons
//! the first MMA's accumulator element `(0, 0)`.
//!
//! Every other case runs its kernel twice under one launch-memo key: a
//! miss, which simulates the block bodies, and a hit, which computes the
//! outputs with the kernel's plain loops instead. Both must give the
//! reference's bits. (An armed flip needs a fault plan, which turns the
//! memo off, so the ECC cases simulate once.)

use rand::{Rng, SeedableRng};
use tcg_fault::{FaultConfig, FaultPlan};
use tcg_gpusim::{DeviceSpec, Launcher};
use tcg_graph::CsrGraph;
use tcg_kernels::common::SpmmKernel;
use tcg_kernels::fused::fused_attention;
use tcg_kernels::sddmm::{CudaCoreSddmm, HybridSddmm, SddmmKernel, TcgnnSddmm};
use tcg_kernels::spmm::{CusparseCsrSpmm, HybridSpmm, TcgnnSpmm};
use tcg_kernels::{SpmmProblem, WindowBackend};
use tcg_oracle::advgen::Family;
use tcg_oracle::refmodel::{tcu_sddmm, tcu_spmm};
use tcg_sgt::{Sgt, TranslatedGraph, TC_BLK_H};
use tcg_tensor::DenseMatrix;

/// Feature widths: one column, a partial slab, one k-slab, one full
/// 16-wide slab, and multi-slab widths with a 1- and a 2-column tail.
const WIDTHS: [usize; 6] = [1, 7, 8, 16, 33, 50];

/// Features over several binades, with exact `±0.0` (skipped as A
/// elements) and subnormals.
fn features(n: usize, d: usize, seed: u64) -> DenseMatrix {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    DenseMatrix::from_fn(n, d, |_, _| match rng.random_range(0..16) {
        0 => 0.0,
        1 => -0.0,
        2 => f32::from_bits(rng.random_range(1..0x0080_0000)),
        _ => rng.random_range(-1.0f32..1.0) * [1.0, 1e-3, 1e3][rng.random_range(0..3)],
    })
}

/// [`features`] with one element in eight replaced by `±inf` or NaN: a
/// non-finite dense operand keeps the MMA's zero test (`0·inf` is NaN).
fn non_finite_features(n: usize, d: usize, seed: u64) -> DenseMatrix {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x1f);
    let x = features(n, d, seed);
    DenseMatrix::from_fn(n, d, |r, c| match rng.random_range(0..8) {
        0 => [f32::INFINITY, f32::NEG_INFINITY, f32::NAN][rng.random_range(0..3)],
        _ => x.get(r, c),
    })
}

/// Edge values, one in eight of them special.
fn edge_values(g: &CsrGraph, seed: u64) -> Vec<f32> {
    let specials = [
        0.0,
        -0.0,
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::from_bits(1),
        -f32::from_bits(0x0040_0000),
        f32::MAX,
        -f32::MAX,
        f32::from_bits(0x7F7F_F000),
    ];
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..g.num_edges())
        .map(|_| match rng.random_range(0..8) {
            0 => specials[rng.random_range(0..specials.len())],
            _ => rng.random_range(-2.0f32..2.0),
        })
        .collect()
}

/// Every other window on each body.
fn mixed_mask(t: &TranslatedGraph) -> Vec<WindowBackend> {
    (0..t.num_row_windows)
        .map(|w| [WindowBackend::Tcu, WindowBackend::CudaCore][w % 2])
        .collect()
}

/// A launcher whose next preflight arms an ECC flip.
fn ecc_launcher() -> Launcher {
    let mut l = Launcher::new(DeviceSpec::rtx3090());
    let mut cfg = FaultConfig::none();
    cfg.ecc_rate = 1.0;
    l.attach_fault_plan(Some(FaultPlan::new(1, cfg)));
    l
}

/// Runs `kernel` twice on `l` under the memo key `key`: first a miss that
/// simulates the block bodies, then a hit that the plain loops answer.
fn miss_then_hit<T>(l: &mut Launcher, key: &str, kernel: impl Fn(&mut Launcher) -> T) -> [T; 2] {
    let hits = l.memo_hits();
    let miss = l.memoized(key, &kernel);
    let hit = l.memoized(key, &kernel);
    assert_eq!(l.memo_hits(), hits + 1, "{key}: the repeat is a memo hit");
    [miss, hit]
}

/// Requires equal bits, or NaN on both sides.
fn assert_bits(cell: &str, got: &[f32], want: &[f32]) {
    assert_eq!(got.len(), want.len(), "{cell}: length");
    let same = |a: f32, b: f32| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
    if let Some(i) = (0..got.len()).find(|&i| !same(got[i], want[i])) {
        panic!(
            "{cell}: element {i} is {} ({:#010x}), the staged tiles give {} ({:#010x})",
            got[i],
            got[i].to_bits(),
            want[i],
            want[i].to_bits()
        );
    }
}

/// `tcu` on the TCU windows of `mask`, `cuda` elsewhere; a window covers
/// `span(w)` of both.
fn stitch(
    mask: &[WindowBackend],
    tcu: &[f32],
    cuda: &[f32],
    span: impl Fn(usize) -> std::ops::Range<usize>,
) -> Vec<f32> {
    let mut out = tcu.to_vec();
    for (w, &backend) in mask.iter().enumerate() {
        if backend == WindowBackend::CudaCore {
            let s = span(w);
            out[s.clone()].copy_from_slice(&cuda[s]);
        }
    }
    out
}

/// Row `w`'s slice of an `n × d` row-major matrix.
fn window_rows(n: usize, d: usize) -> impl Fn(usize) -> std::ops::Range<usize> {
    move |w| w * TC_BLK_H * d..((w + 1) * TC_BLK_H).min(n) * d
}

/// Window `w`'s CSR edge range.
fn window_edges(g: &CsrGraph) -> impl Fn(usize) -> std::ops::Range<usize> + '_ {
    move |w| {
        let ptr = g.node_pointer();
        let n = g.num_nodes();
        ptr[w * TC_BLK_H]..ptr[((w + 1) * TC_BLK_H).min(n)]
    }
}

fn spmm_cells(name: &str, g: &CsrGraph, t: &TranslatedGraph, d: usize, seed: u64) {
    let x = features(g.num_nodes(), d, seed);
    for vals in [None, Some(edge_values(g, seed + 1))] {
        let cell = format!("{name}, width {d}, values {}", vals.is_some());
        let prob = SpmmProblem::new(g, vals.as_deref(), &x).unwrap();
        let want = tcu_spmm(t, &x, vals.as_deref(), false);
        let mut l = Launcher::new(DeviceSpec::rtx3090());
        let tcgnn = TcgnnSpmm::from_translated(t.clone());
        for got in miss_then_hit(&mut l, "tc-gnn", |l| tcgnn.execute(l, &prob).unwrap().0) {
            assert_bits(
                &format!("tc-gnn spmm: {cell}"),
                got.as_slice(),
                want.as_slice(),
            );
        }

        let [cuda, cuda_hit] = miss_then_hit(&mut l, "cusparse", |l| {
            CusparseCsrSpmm.execute(l, &prob).unwrap().0
        });
        assert_bits(
            &format!("cusparse spmm hit: {cell}"),
            cuda_hit.as_slice(),
            cuda.as_slice(),
        );
        let policy = HybridSpmm::from_translated(t.clone());
        for (label, kernel) in [
            ("policy", policy.clone()),
            ("mixed", policy.with_mask(mixed_mask(t))),
        ] {
            let mask = kernel.dispatch_mask(g, d);
            let rows = window_rows(g.num_nodes(), d);
            let want = stitch(&mask, want.as_slice(), cuda.as_slice(), rows);
            for got in miss_then_hit(&mut l, label, |l| kernel.execute(l, &prob).unwrap().0) {
                assert_bits(
                    &format!("hybrid spmm ({label}): {cell}"),
                    got.as_slice(),
                    &want,
                );
            }
        }
    }
}

fn sddmm_cells(name: &str, g: &CsrGraph, t: &TranslatedGraph, d: usize, seed: u64) {
    let (xa, xb) = (
        features(g.num_nodes(), d, seed),
        features(g.num_nodes(), d, seed + 1),
    );
    sddmm_cell(&format!("{name}, width {d}"), g, t, &xa, &xb);
}

fn sddmm_cell(cell: &str, g: &CsrGraph, t: &TranslatedGraph, xa: &DenseMatrix, xb: &DenseMatrix) {
    let want = tcu_sddmm(t, g, xa, xb, false);
    let mut l = Launcher::new(DeviceSpec::rtx3090());
    let tcgnn = TcgnnSddmm::from_translated(t.clone());
    for got in miss_then_hit(&mut l, "tc-gnn", |l| tcgnn.execute(l, g, xa, xb).unwrap().0) {
        assert_bits(&format!("tc-gnn sddmm: {cell}"), &got, &want);
    }

    let [cuda, cuda_hit] = miss_then_hit(&mut l, "cuda-core", |l| {
        CudaCoreSddmm.execute(l, g, xa, xb).unwrap().0
    });
    assert_bits(&format!("cuda-core sddmm hit: {cell}"), &cuda_hit, &cuda);
    let mask = mixed_mask(t);
    let hybrid = HybridSddmm::from_translated(t.clone()).with_mask(mask.clone());
    let want = stitch(&mask, &want, &cuda, window_edges(g));
    for got in miss_then_hit(&mut l, "mixed", |l| hybrid.execute(l, g, xa, xb).unwrap().0) {
        assert_bits(&format!("hybrid sddmm (mixed): {cell}"), &got, &want);
    }
}

/// The fused kernel's stage 2: each row's `β`-scaled logits, softmaxed in
/// f32 in edge order.
fn row_softmax(g: &CsrGraph, cos: &[f32], beta: f32) -> Vec<f32> {
    let mut p = vec![0.0f32; cos.len()];
    for v in 0..g.num_nodes() {
        let (lo, hi) = (g.node_pointer()[v], g.node_pointer()[v + 1]);
        if hi == lo {
            continue;
        }
        let m = cos[lo..hi]
            .iter()
            .map(|c| beta * c)
            .fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for e in lo..hi {
            p[e] = (beta * cos[e] - m).exp();
            sum += p[e];
        }
        for pe in &mut p[lo..hi] {
            *pe /= sum;
        }
    }
    p
}

/// Runs the fused kernel on `l` (twice, a memo miss and a hit, unless
/// `ecc` arms a flip) and checks `y`, `cos` and `p` against the
/// staged-tile SDDMM → softmax → staged-tile SpMM pipeline. Returns the
/// ECC faults the first run consumed.
#[allow(clippy::too_many_arguments)]
fn fused_cell(
    cell: &str,
    l: &mut Launcher,
    g: &CsrGraph,
    t: &TranslatedGraph,
    xa: &DenseMatrix,
    xv: &DenseMatrix,
    beta: f32,
    ecc: bool,
) -> u64 {
    let run = |l: &mut Launcher| fused_attention(l, g, t, xa, xv, beta).unwrap();
    let outs = if ecc {
        vec![run(l)]
    } else {
        miss_then_hit(l, "fused", run).into()
    };
    let cos = tcu_sddmm(t, g, xa, xa, ecc);
    let p = row_softmax(g, &cos, beta);
    let y = tcu_spmm(t, xv, Some(&p), false);
    for out in &outs {
        assert_bits(&format!("fused cos: {cell}"), &out.cos, &cos);
        assert_bits(&format!("fused p: {cell}"), &out.p, &p);
        assert_bits(&format!("fused y: {cell}"), out.y.as_slice(), y.as_slice());
    }
    outs[0].report.stats.ecc_faults
}

#[test]
fn tcu_kernels_match_the_staged_tile_reference_bitwise() {
    for family in Family::ALL {
        let g = family.generate(42);
        let t = Sgt::builder().translate(&g).unwrap();
        for (i, &d) in WIDTHS.iter().enumerate() {
            let seed = 1000 * i as u64 + family as u64;
            spmm_cells(family.name(), &g, &t, d, seed);
            sddmm_cells(family.name(), &g, &t, d, seed);
            let xa = features(g.num_nodes(), d, seed + 2);
            let xv = features(g.num_nodes(), WIDTHS[(i + 3) % WIDTHS.len()], seed + 3);
            let mut l = Launcher::new(DeviceSpec::rtx3090());
            let cell = format!("{}, widths {d}/{}", family.name(), xv.cols());
            fused_cell(&cell, &mut l, &g, &t, &xa, &xv, 0.5 + i as f32, false);
        }
    }
}

#[test]
fn non_finite_dense_operands_match_the_staged_tile_reference_bitwise() {
    for family in [Family::PowerLaw, Family::NearDense, Family::WideRow] {
        let g = family.generate(19);
        let t = Sgt::builder().translate(&g).unwrap();
        for (i, &d) in [7, 16, 33].iter().enumerate() {
            let seed = 500 + 10 * i as u64 + family as u64;
            let n = g.num_nodes();
            let cell = format!("{}, width {d}, non-finite operands", family.name());
            let (xa, xb) = (
                non_finite_features(n, d, seed),
                non_finite_features(n, d, seed + 1),
            );
            sddmm_cell(&cell, &g, &t, &xa, &xb);
            // One finite side each: the zero test is kept or dropped per
            // launch by the B operand alone.
            sddmm_cell(&cell, &g, &t, &xa, &features(n, d, seed + 2));
            sddmm_cell(&cell, &g, &t, &features(n, d, seed + 2), &xb);
            let mut l = Launcher::new(DeviceSpec::rtx3090());
            fused_cell(&cell, &mut l, &g, &t, &xa, &xb, 0.5, false);
        }
    }
}

#[test]
fn armed_ecc_flip_poisons_the_same_output_as_the_reference() {
    let g = Family::WideRow.generate(7);
    let t = Sgt::builder().translate(&g).unwrap();
    let (n, d) = (g.num_nodes(), 33);
    let x = features(n, d, 11);

    let prob = SpmmProblem::new(&g, None, &x).unwrap();
    let mut l = ecc_launcher();
    let (got, report) = TcgnnSpmm::from_translated(t.clone())
        .execute(&mut l, &prob)
        .unwrap();
    assert_eq!(
        report.stats.ecc_faults, 1,
        "the spmm launch consumes the flip"
    );
    let want = tcu_spmm(&t, &x, None, true);
    let nan_at = |m: &DenseMatrix| m.as_slice().iter().position(|v| v.is_nan());
    assert_eq!(
        nan_at(&want),
        Some(0),
        "the flip poisons row 0, column 0 only"
    );
    assert_bits("tc-gnn spmm under ECC", got.as_slice(), want.as_slice());

    let xb = features(n, d, 13);
    let mut l = ecc_launcher();
    let (got, report) = TcgnnSddmm::from_translated(t.clone())
        .execute(&mut l, &g, &x, &xb)
        .unwrap();
    assert_eq!(
        report.stats.ecc_faults, 1,
        "the sddmm launch consumes the flip"
    );
    assert_bits(
        "tc-gnn sddmm under ECC",
        &got,
        &tcu_sddmm(&t, &g, &x, &xb, true),
    );

    let mut l = ecc_launcher();
    let faults = fused_cell("under ECC", &mut l, &g, &t, &x, &xb, 1.5, true);
    assert_eq!(faults, 1, "the fused launch consumes the flip");
}

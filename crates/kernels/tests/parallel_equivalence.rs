//! Parallel block execution must be invisible: every kernel, since each
//! runs on `Launcher::launch`, has to produce bitwise-identical output
//! bytes and `KernelStats` whether blocks execute sequentially or fanned
//! out over a worker pool. These tests pin that contract at kernel
//! granularity (the `tests/parallel_determinism.rs` suite pins it
//! end-to-end).

use tcg_gpusim::{DeviceSpec, Launcher};
use tcg_graph::gen;
use tcg_kernels::common::SpmmKernel;
use tcg_kernels::fused::fused_attention;
use tcg_kernels::sddmm::{CudaCoreSddmm, SddmmKernel, TcgnnSddmm};
use tcg_kernels::softmax::sparse_row_softmax;
use tcg_kernels::spmm::{
    BlockedEllSpmm, CondensedEllSpmm, CusparseCsrSpmm, GeSpmm, ScatterGatherSpmm, TcgnnSpmm,
    TritonBlockSparseSpmm, TsparseLikeSpmm,
};
use tcg_kernels::SpmmProblem;
use tcg_tensor::init;

fn launcher(threads: usize) -> Launcher {
    let mut l = Launcher::new(DeviceSpec::rtx3090());
    l.set_threads(threads);
    l
}

#[test]
fn tcgnn_spmm_parallel_matches_sequential() {
    let g = gen::rmat_default(2048, 20_000, 1).unwrap();
    let x = init::uniform(2048, 32, -1.0, 1.0, 2);
    let prob = SpmmProblem::new(&g, None, &x).unwrap();
    let kernel = TcgnnSpmm::new(&g);
    let (out_seq, rep_seq) = kernel.execute(&mut launcher(1), &prob).unwrap();
    let (out_par, rep_par) = kernel.execute(&mut launcher(8), &prob).unwrap();
    assert_eq!(out_seq.as_slice(), out_par.as_slice(), "output bytes");
    assert_eq!(rep_seq.stats, rep_par.stats, "kernel stats");
    assert_eq!(rep_seq.time_ms, rep_par.time_ms, "cost model");
}

#[test]
fn cusparse_spmm_parallel_matches_sequential() {
    let g = gen::rmat_default(4096, 40_000, 3).unwrap();
    let x = init::uniform(4096, 24, -1.0, 1.0, 4);
    let vals: Vec<f32> = (0..g.num_edges())
        .map(|e| 0.05 + (e % 9) as f32 * 0.1)
        .collect();
    let prob = SpmmProblem::new(&g, Some(&vals), &x).unwrap();
    let (out_seq, rep_seq) = CusparseCsrSpmm.execute(&mut launcher(1), &prob).unwrap();
    let (out_par, rep_par) = CusparseCsrSpmm.execute(&mut launcher(8), &prob).unwrap();
    assert_eq!(out_seq.as_slice(), out_par.as_slice());
    assert_eq!(rep_seq.stats, rep_par.stats);
}

#[test]
fn baseline_spmm_parallel_matches_sequential() {
    let g = gen::rmat_default(2048, 20_000, 16).unwrap();
    let x = init::uniform(2048, 24, -1.0, 1.0, 17);
    let vals: Vec<f32> = (0..g.num_edges())
        .map(|e| 0.05 + (e % 9) as f32 * 0.1)
        .collect();
    let prob = SpmmProblem::new(&g, Some(&vals), &x).unwrap();
    let kernels: [Box<dyn SpmmKernel>; 6] = [
        Box::new(GeSpmm),
        Box::new(ScatterGatherSpmm),
        Box::new(TritonBlockSparseSpmm),
        Box::new(TsparseLikeSpmm::default()),
        Box::new(BlockedEllSpmm::default()),
        Box::new(CondensedEllSpmm::new(&g)),
    ];
    for k in &kernels {
        let (out_seq, rep_seq) = k.execute(&mut launcher(1), &prob).unwrap();
        let (out_par, rep_par) = k.execute(&mut launcher(8), &prob).unwrap();
        assert_eq!(
            out_seq.as_slice(),
            out_par.as_slice(),
            "{} output",
            k.name()
        );
        assert_eq!(rep_seq.stats, rep_par.stats, "{} stats", k.name());
    }
}

#[test]
fn tcgnn_sddmm_parallel_matches_sequential() {
    let g = gen::community(2048, 30_000, 16, 48, 5).unwrap();
    let x = init::uniform(2048, 32, -1.0, 1.0, 6);
    let kernel = TcgnnSddmm::new(&g);
    let (out_seq, rep_seq) = kernel.execute(&mut launcher(1), &g, &x, &x).unwrap();
    let (out_par, rep_par) = kernel.execute(&mut launcher(8), &g, &x, &x).unwrap();
    assert_eq!(out_seq, out_par);
    assert_eq!(rep_seq.stats, rep_par.stats);
}

#[test]
fn cuda_core_sddmm_parallel_matches_sequential() {
    let g = gen::rmat_default(2048, 20_000, 7).unwrap();
    let x = init::uniform(2048, 16, -1.0, 1.0, 8);
    let (out_seq, rep_seq) = CudaCoreSddmm.execute(&mut launcher(1), &g, &x, &x).unwrap();
    let (out_par, rep_par) = CudaCoreSddmm.execute(&mut launcher(8), &g, &x, &x).unwrap();
    assert_eq!(out_seq, out_par);
    assert_eq!(rep_seq.stats, rep_par.stats);
}

#[test]
fn softmax_parallel_matches_sequential() {
    let g = gen::rmat_default(4096, 40_000, 9).unwrap();
    let vals: Vec<f32> = (0..g.num_edges())
        .map(|e| (e % 17) as f32 * 0.4 - 2.0)
        .collect();
    let (out_seq, rep_seq) = sparse_row_softmax(&mut launcher(1), &g, &vals).unwrap();
    let (out_par, rep_par) = sparse_row_softmax(&mut launcher(8), &g, &vals).unwrap();
    assert_eq!(out_seq, out_par);
    assert_eq!(rep_seq.stats, rep_par.stats);
}

#[test]
fn fused_attention_parallel_matches_sequential() {
    let g = gen::community(1024, 15_000, 16, 48, 11).unwrap();
    let t = tcg_sgt::Sgt::builder().translate(&g).unwrap();
    let xa = init::uniform(1024, 16, -1.0, 1.0, 12);
    let xv = init::uniform(1024, 32, -1.0, 1.0, 13);
    let seq = fused_attention(&mut launcher(1), &g, &t, &xa, &xv, 0.8).unwrap();
    let par = fused_attention(&mut launcher(8), &g, &t, &xa, &xv, 0.8).unwrap();
    assert_eq!(seq.y.as_slice(), par.y.as_slice());
    assert_eq!(seq.cos, par.cos);
    assert_eq!(seq.p, par.p);
    assert_eq!(seq.report.stats, par.report.stats);
    assert_eq!(seq.report.time_ms, par.report.time_ms);
}

#[test]
fn back_to_back_launches_share_l2_identically() {
    // The L2 persists across launches; the deferred replay has to warm it
    // exactly as the sequential path would, or a *second* kernel on the
    // same launcher diverges.
    let g = gen::rmat_default(1024, 10_000, 14).unwrap();
    let x = init::uniform(1024, 32, -1.0, 1.0, 15);
    let run = |threads: usize| {
        let mut l = launcher(threads);
        let kernel = TcgnnSddmm::new(&g);
        let (cos, r1) = kernel.execute(&mut l, &g, &x, &x).unwrap();
        let (p, r2) = sparse_row_softmax(&mut l, &g, &cos).unwrap();
        let prob = SpmmProblem::new(&g, Some(&p), &x).unwrap();
        let (y, r3) = TcgnnSpmm::new(&g).execute(&mut l, &prob).unwrap();
        (y, r1.stats, r2.stats, r3.stats)
    };
    let (y_seq, s1, s2, s3) = run(1);
    let (y_par, p1, p2, p3) = run(8);
    assert_eq!(y_seq.as_slice(), y_par.as_slice());
    assert_eq!(s1, p1);
    assert_eq!(s2, p2);
    assert_eq!(s3, p3);
}

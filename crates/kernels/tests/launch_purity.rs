//! Launch purity: a kernel's cost report depends only on the launch's shape
//! (kernel, graph, translation, widths, dispatch mask, device), never on
//! the values it computes on or on what ran on the launcher before it.
//!
//! This is what lets the launcher simulate a launch once and replay its
//! `KernelStats` afterwards. Every buffer is a fresh bump allocation, so no
//! earlier launch left a line of it in L2; the L1 is flushed at every
//! block; and the L2 is LRU, so lines older than the launch's own are
//! always evicted first. Each engine kernel runs four times on one
//! launcher with different operands, and between runs an odd-sized
//! allocation and an unrelated launch disturb the address space and L2.

use tcg_gpusim::{BlockCtx, Blocks, DeviceSpec, GridConfig, KernelReport, Launcher};
use tcg_graph::CsrGraph;
use tcg_kernels::common::SpmmKernel;
use tcg_kernels::fused::fused_attention;
use tcg_kernels::sddmm::{CudaCoreSddmm, HybridSddmm, SddmmKernel, TcgnnSddmm};
use tcg_kernels::softmax::sparse_row_softmax;
use tcg_kernels::spmm::{CusparseCsrSpmm, HybridSpmm, TcgnnSpmm};
use tcg_kernels::{SpmmProblem, WindowBackend};
use tcg_oracle::advgen::Family;
use tcg_sgt::{Sgt, TranslatedGraph};
use tcg_tensor::{init, DenseMatrix};

/// Feature width: two 16-wide slabs, the second one partial.
const DIM: usize = 24;
const RUNS: u64 = 4;

/// Shifts the address space by an odd-sized allocation and leaves an
/// unrelated launch's lines in L2.
fn disturb(l: &mut Launcher, run: u64) {
    let buf = l.try_alloc(777 * run as usize + 13).unwrap();
    let body = |ctx: &mut BlockCtx<'_>| {
        ctx.ld_global_contiguous(buf.base(), 190, 4);
        ctx.st_global_contiguous(buf.base(), 64, 4);
    };
    l.launch(
        GridConfig::with_block_size(64),
        Blocks::All(3),
        body,
        |_| {},
    );
}

/// Runs `kernel` [`RUNS`] times on one launcher, disturbed in between, and
/// requires every report to equal the first.
fn assert_pure(cell: &str, mut kernel: impl FnMut(&mut Launcher, u64) -> KernelReport) {
    let mut l = Launcher::new(DeviceSpec::rtx3090());
    let first = kernel(&mut l, 0);
    for run in 1..RUNS {
        disturb(&mut l, run);
        let r = kernel(&mut l, run);
        assert_eq!(r.stats, first.stats, "{cell}, run {run}: stats");
        assert_eq!(
            r.cycles.to_bits(),
            first.cycles.to_bits(),
            "{cell}, run {run}: cycles"
        );
        assert_eq!(
            r.time_ms.to_bits(),
            first.time_ms.to_bits(),
            "{cell}, run {run}: time_ms"
        );
    }
}

/// Operands that differ from run to run.
fn features(g: &CsrGraph, dim: usize, run: u64) -> DenseMatrix {
    init::uniform(g.num_nodes(), dim, -1.0, 1.0, 100 + run)
}

fn edge_values(g: &CsrGraph, run: u64) -> Vec<f32> {
    (0..g.num_edges() as u64)
        .map(|e| ((e * 7 + run * 13) % 11) as f32 * 0.2 - 1.0)
        .collect()
}

/// Every other window on each body.
fn mixed_mask(t: &TranslatedGraph) -> Vec<WindowBackend> {
    (0..t.num_row_windows)
        .map(|w| [WindowBackend::Tcu, WindowBackend::CudaCore][w % 2])
        .collect()
}

fn spmm_cells(family: Family, g: &CsrGraph, t: &TranslatedGraph) {
    let kernels: [(&str, Box<dyn SpmmKernel>); 4] = [
        (
            "tc-gnn spmm",
            Box::new(TcgnnSpmm::from_translated(t.clone())),
        ),
        (
            "hybrid spmm (policy)",
            Box::new(HybridSpmm::from_translated(t.clone())),
        ),
        (
            "hybrid spmm (mixed)",
            Box::new(HybridSpmm::from_translated(t.clone()).with_mask(mixed_mask(t))),
        ),
        ("cusparse spmm", Box::new(CusparseCsrSpmm)),
    ];
    for (name, kernel) in &kernels {
        for weighted in [false, true] {
            let cell = format!("{name} (weighted: {weighted}) on {}", family.name());
            assert_pure(&cell, |l, run| {
                let x = features(g, DIM, run);
                let vals = weighted.then(|| edge_values(g, run));
                let prob = SpmmProblem::new(g, vals.as_deref(), &x).unwrap();
                kernel.execute(l, &prob).unwrap().1
            });
        }
    }
}

fn sddmm_cells(family: Family, g: &CsrGraph, t: &TranslatedGraph) {
    let kernels: [(&str, Box<dyn SddmmKernel>); 3] = [
        (
            "tc-gnn sddmm",
            Box::new(TcgnnSddmm::from_translated(t.clone())),
        ),
        (
            "hybrid sddmm (mixed)",
            Box::new(HybridSddmm::from_translated(t.clone()).with_mask(mixed_mask(t))),
        ),
        ("cuda-core sddmm", Box::new(CudaCoreSddmm)),
    ];
    for (name, kernel) in &kernels {
        assert_pure(&format!("{name} on {}", family.name()), |l, run| {
            let (xa, xb) = (features(g, DIM, run), features(g, DIM, run + 50));
            kernel.execute(l, g, &xa, &xb).unwrap().1
        });
    }
}

#[test]
fn engine_kernels_cost_the_same_whatever_the_values_and_history() {
    for family in Family::ALL {
        let g = family.generate(42);
        let t = Sgt::builder().translate(&g).unwrap();
        spmm_cells(family, &g, &t);
        sddmm_cells(family, &g, &t);
        assert_pure(
            &format!("fused attention on {}", family.name()),
            |l, run| {
                let (xa, xv) = (features(&g, DIM, run), features(&g, 40, run + 50));
                let beta = 0.5 + run as f32;
                fused_attention(l, &g, &t, &xa, &xv, beta).unwrap().report
            },
        );
        assert_pure(&format!("edge softmax on {}", family.name()), |l, run| {
            sparse_row_softmax(l, &g, &edge_values(&g, run)).unwrap().1
        });
    }
}

//! Property tests of the hybrid per-window dispatcher.
//!
//! Two families of invariants, over random graphs:
//!
//! - **Stitching**: for *any* forced per-window dispatch mask, the mixed
//!   launch's output is bitwise identical to stitching the two pure-backend
//!   outputs window by window — the hybrid kernels replay the chosen pure
//!   kernel's functional arithmetic exactly, so mixing is free of
//!   cross-window interference.
//! - **Decision purity**: the dispatcher's choice is a pure function of
//!   window geometry — the same window gets the same backend across
//!   repeated evaluations and across sequential vs parallel translation at
//!   any thread count.

use proptest::prelude::*;
use tc_gnn::gpusim::{DeviceSpec, Launcher};
use tc_gnn::kernels::common::SpmmKernel;
use tc_gnn::kernels::hybrid::{DispatchPolicy, KernelClass, WindowBackend};
use tc_gnn::kernels::sddmm::{CudaCoreSddmm, HybridSddmm, SddmmKernel, TcgnnSddmm};
use tc_gnn::kernels::spmm::{CusparseCsrSpmm, HybridSpmm, TcgnnSpmm};
use tc_gnn::kernels::SpmmProblem;
use tc_gnn::sgt::{Sgt, TC_BLK_H};
use tc_gnn::tensor::init;

fn graph_strategy() -> impl Strategy<Value = tc_gnn::graph::CsrGraph> {
    (16usize..320, 1usize..10, 0u64..10_000, 0usize..3).prop_map(|(n, deg, seed, family)| {
        let e = n * deg;
        match family {
            0 => tc_gnn::graph::gen::erdos_renyi(n, e, seed),
            1 => tc_gnn::graph::gen::rmat_default(n.next_power_of_two(), e, seed),
            _ => tc_gnn::graph::gen::community(n.max(32), e, 4, 16, seed),
        }
        .expect("generator succeeds")
    })
}

/// Derives an arbitrary dispatch mask from a seed (splitmix-style), so the
/// mask space is sampled independently of the policy.
fn mask_from_seed(windows: usize, seed: u64) -> Vec<WindowBackend> {
    let mut s = seed;
    (0..windows)
        .map(|_| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if (s >> 33) & 1 == 0 {
                WindowBackend::Tcu
            } else {
                WindowBackend::CudaCore
            }
        })
        .collect()
}

fn launcher() -> Launcher {
    Launcher::new(DeviceSpec::rtx3090())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn spmm_mixed_launch_stitches_pure_outputs_bitwise(
        g in graph_strategy(),
        mask_seed in 0u64..u64::MAX,
        dim in (1usize..5).prop_map(|k| k * 8),
        weighted_bit in 0u8..2,
    ) {
        let weighted = weighted_bit == 1;
        let n = g.num_nodes();
        let x = init::uniform(n, dim, -1.0, 1.0, 21);
        let vals: Vec<f32> = (0..g.num_edges())
            .map(|e| 0.05 + (e % 13) as f32 * 0.07)
            .collect();
        let prob = SpmmProblem::new(&g, weighted.then_some(vals.as_slice()), &x).unwrap();
        let t = Sgt::builder().translate(&g).unwrap();
        let mask = mask_from_seed(t.num_row_windows, mask_seed);

        let (out_h, _) = HybridSpmm::from_translated(t.clone())
            .with_mask(mask.clone())
            .execute(&mut launcher(), &prob)
            .unwrap();
        let (out_t, _) = TcgnnSpmm::from_translated(t)
            .execute(&mut launcher(), &prob)
            .unwrap();
        let (out_c, _) = CusparseCsrSpmm.execute(&mut launcher(), &prob).unwrap();

        for (w, &wb) in mask.iter().enumerate() {
            let lo = w * TC_BLK_H * dim;
            let hi = ((w + 1) * TC_BLK_H).min(n) * dim;
            let want = match wb {
                WindowBackend::Tcu => &out_t,
                WindowBackend::CudaCore => &out_c,
                WindowBackend::Skip => unreachable!("the masks here compute every window"),
            };
            prop_assert_eq!(
                &out_h.as_slice()[lo..hi],
                &want.as_slice()[lo..hi],
                "window {} ({:?}) diverged from its pure backend",
                w,
                wb
            );
        }
    }

    #[test]
    fn sddmm_mixed_launch_stitches_pure_outputs_bitwise(
        g in graph_strategy(),
        mask_seed in 0u64..u64::MAX,
        dim in (0usize..3).prop_map(|i| [8usize, 16, 32][i]),
    ) {
        let n = g.num_nodes();
        let xa = init::uniform(n, dim, -1.0, 1.0, 31);
        let xb = init::uniform(n, dim, -1.0, 1.0, 32);
        let t = Sgt::builder().translate(&g).unwrap();
        let mask = mask_from_seed(t.num_row_windows, mask_seed);

        let (out_h, _) = HybridSddmm::from_translated(t.clone())
            .with_mask(mask.clone())
            .execute(&mut launcher(), &g, &xa, &xb)
            .unwrap();
        let (out_t, _) = TcgnnSddmm::from_translated(t)
            .execute(&mut launcher(), &g, &xa, &xb)
            .unwrap();
        let (out_c, _) = CudaCoreSddmm.execute(&mut launcher(), &g, &xa, &xb).unwrap();

        // A window owns the contiguous CSR edge range of its rows.
        let ptr = g.node_pointer();
        for (w, &wb) in mask.iter().enumerate() {
            let lo = ptr[w * TC_BLK_H];
            let hi = ptr[((w + 1) * TC_BLK_H).min(n)];
            let want = match wb {
                WindowBackend::Tcu => &out_t,
                WindowBackend::CudaCore => &out_c,
                WindowBackend::Skip => unreachable!("the masks here compute every window"),
            };
            let same = out_h[lo..hi]
                .iter()
                .zip(&want[lo..hi])
                .all(|(a, b)| a.to_bits() == b.to_bits());
            prop_assert!(
                same,
                "window {} ({:?}) edge values diverged from its pure backend",
                w,
                wb
            );
        }
    }

    #[test]
    fn dispatch_decision_is_pure_in_window_geometry(
        g in graph_strategy(),
        dim in (0usize..3).prop_map(|i| [8usize, 16, 32][i]),
        threads in 1usize..9,
    ) {
        // Same window → same choice, across repeated evaluations and across
        // sequential vs parallel translation at any thread count.
        let t_seq = Sgt::builder().translate(&g).unwrap();
        let t_par = Sgt::builder().threads(threads).translate(&g).unwrap();
        for class in [KernelClass::Spmm, KernelClass::Sddmm] {
            let policy = DispatchPolicy::default_for(class);
            let a = policy.mask(&t_seq, &g, dim);
            let b = policy.mask(&t_seq, &g, dim);
            let c = policy.mask(&t_par, &g, dim);
            prop_assert_eq!(&a, &b, "re-evaluation changed the mask ({})", class.label());
            prop_assert_eq!(
                &a, &c,
                "translation thread count changed the mask ({})",
                class.label()
            );
        }
    }
}

//! WMMA: the `nvcuda::wmma` API surface of the simulator.
//!
//! Mirrors the paper's Listing 1 for the Ampere TF-32 MMA shape
//! `m16n16k8`: `A` is `16×8`, `B` is `8×16`, the accumulator is `16×16` in
//! FP32. The hardware rounds both operands to TF-32 as it loads them (see
//! [`tcg_tensor::tf32`]) and multiply-accumulates them at full precision.
//!
//! A block body only charges: [`mma_sync`] is the cost of one MMA, padding
//! included, and computes nothing. What an MMA computes is said once, by
//! the dense loop over staged fragments `tcg_oracle::refmodel::mma_m16n16k8`
//! (SparseTIR's `wmma_sync_desc`); each TCU kernel computes its outputs
//! with a plain loop in that loop's accumulation order.

use crate::launch::BlockCtx;

/// Rows of the accumulator (`M` in `m16n16k8`).
pub const WMMA_M: usize = 16;
/// Columns of the accumulator (`N`).
pub const WMMA_N: usize = 16;
/// Inner (reduction) dimension (`K`).
pub const WMMA_K: usize = 8;

/// FLOPs one `mma_sync` performs (multiply + add over M×N×K).
pub const MMA_FLOPS: u64 = (2 * WMMA_M * WMMA_N * WMMA_K) as u64;

/// `wmma::mma_sync(acc, a, b, acc)`, charged: one tensor-core instruction
/// of [`MMA_FLOPS`].
///
/// If the launcher's fault plan armed an ECC bit flip for this launch, the
/// launch's first MMA consumes it (see [`BlockCtx::consume_ecc`]). The
/// corruption surfaces as NaN in that MMA's accumulator element `(0, 0)`
/// (the way an uncorrectable flip in an FP32 exponent field would poison
/// everything downstream of the fragment), which the kernel sets after
/// its launch from [`crate::KernelStats::ecc_faults`].
pub fn mma_sync(ctx: &mut BlockCtx<'_>) {
    ctx.tcu_mma(MMA_FLOPS);
    ctx.consume_ecc();
}

/// Shared-memory transactions one A-fragment load costs
/// (`16×8` f32 over 32 lanes).
pub const FRAG_A_SMEM_TRANSACTIONS: u64 = ((WMMA_M * WMMA_K) / 32) as u64;
/// Shared-memory transactions one B-fragment load costs.
pub const FRAG_B_SMEM_TRANSACTIONS: u64 = ((WMMA_K * WMMA_N) / 32) as u64;
/// Transactions one accumulator store costs (`16×16` f32 over 32 lanes).
pub const FRAG_ACC_TRANSACTIONS: u64 = ((WMMA_M * WMMA_N) / 32) as u64;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mma_sync_charges_one_tcu_instruction() {
        let mut l = crate::Launcher::new(crate::DeviceSpec::rtx3090());
        let cfg = crate::GridConfig::with_block_size(32);
        let stats = l.launch(cfg, crate::Blocks::All(1), mma_sync, |_| {});
        assert_eq!(stats.tcu_mma_instructions, 1);
        assert_eq!(stats.warp_instructions, 1);
        assert_eq!(stats.tcu_flops, MMA_FLOPS);
        assert_eq!(stats.ecc_faults, 0);
    }
}

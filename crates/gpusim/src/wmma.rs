//! WMMA: the `nvcuda::wmma` API surface of the simulator.
//!
//! Mirrors the paper's Listing 1 for the Ampere TF-32 MMA shape
//! `m16n16k8`: `A` is `16×8`, `B` is `8×16`, the accumulator is `16×16` in
//! FP32. The hardware rounds both operands to TF-32 as it loads them (see
//! [`tcg_tensor::tf32`]) and multiply-accumulates them at full precision.
//!
//! The kernels charge the whole MMA, padding included, but compute only
//! the outputs they keep: [`mma_sync_gather`] is the SpMM shape (a sparse
//! A tile times gathered B rows, clipped to the slab width) and
//! [`mma_sync_entries`] the SDDMM shape (only the edge entries of the
//! accumulator). Each charges one tensor-core instruction to the block
//! context, as `mma_sync` does. Their operands are rounded to TF-32 once
//! per launch instead of at every fragment load; the dense loop over
//! staged fragments they reproduce bit for bit is
//! `tcg_oracle::refmodel::mma_m16n16k8`.

use std::ops::Range;

use crate::hotspot::{self, HotPhase};
use crate::launch::BlockCtx;

/// Rows of the accumulator (`M` in `m16n16k8`).
pub const WMMA_M: usize = 16;
/// Columns of the accumulator (`N`).
pub const WMMA_N: usize = 16;
/// Inner (reduction) dimension (`K`).
pub const WMMA_K: usize = 8;

/// FLOPs one `mma_sync` performs (multiply + add over M×N×K).
pub const MMA_FLOPS: u64 = (2 * WMMA_M * WMMA_N * WMMA_K) as u64;

/// The accumulator fragment: `16×16`, FP32.
#[derive(Debug, Clone)]
pub struct FragmentAcc {
    data: [f32; WMMA_M * WMMA_N],
}

impl Default for FragmentAcc {
    fn default() -> Self {
        FragmentAcc {
            data: [0.0; WMMA_M * WMMA_N],
        }
    }
}

impl FragmentAcc {
    /// `wmma::fill_fragment(acc, 0.0)`.
    pub fn zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Element `(r, c)` of the accumulator.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * WMMA_N + c]
    }

    /// Raw accumulator contents (row-major).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw accumulator contents (row-major) — used by alternate
    /// MMA geometries that share this accumulator type.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }
}

/// `wmma::mma_sync(acc, a, b, acc)` in SpMM shape (Listing 2), computed
/// only where the kernel keeps results: `a` lists the `16×8` A tile's
/// non-zeros `(r, k, value)` with values already rounded to TF-32, row `k`
/// of the `8×16` B tile is `b[b_rows[k]..]` (already rounded), and only
/// accumulator columns `< width` are computed. Charges one tensor-core
/// instruction, like the full MMA.
///
/// The kept outputs get the bits of the dense loop over the staged tiles
/// (`tcg_oracle::refmodel::mma_m16n16k8`) as long as each row's entries
/// of `a` come in ascending `k` with no `(r, k)` twice: each output adds
/// `a·b` as a separate multiply and add, `k` ascending, skipping zero `a`.
/// A tile position missing from `a` holds zero, which the dense loop skips
/// too.
///
/// If the launcher's fault plan armed an ECC bit flip for this launch, the
/// launch's first MMA consumes it and the corruption surfaces as NaN in
/// accumulator element `(0, 0)` — the way an uncorrectable flip in an FP32
/// exponent field would poison everything downstream of the fragment.
pub fn mma_sync_gather(
    acc: &mut FragmentAcc,
    a: &[(usize, usize, f32)],
    b: &[f32],
    b_rows: &[usize],
    width: usize,
    ctx: &mut BlockCtx<'_>,
) {
    let _t = hotspot::scope(HotPhase::MmaInner);
    ctx.tcu_mma(MMA_FLOPS);
    for &(r, k, av) in a {
        if av == 0.0 {
            continue;
        }
        let brow = &b[b_rows[k]..][..width];
        let crow = &mut acc.data[r * WMMA_N..][..width];
        for (cv, &bv) in crow.iter_mut().zip(brow) {
            *cv += av * bv;
        }
    }
    if ctx.consume_ecc() {
        acc.data[0] = f32::NAN;
    }
}

/// An accumulator element an SDDMM-shape MMA keeps: tile position
/// `(r, c)`, where row `r` of the A tile starts in the A operand, and
/// where column `c` of the B tile starts in the B operand (stored as a
/// row, as the SDDMM gathers it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MmaEntry {
    /// Accumulator row.
    pub r: usize,
    /// Accumulator column.
    pub c: usize,
    /// Start of A tile row `r` in the A operand.
    pub a_row: usize,
    /// Start of B tile column `c` in the B operand.
    pub b_row: usize,
}

/// `wmma::mma_sync(acc, a, b, acc)` in SDDMM shape (Listing 3), computed
/// only for the accumulator elements the kernel keeps: `acc[i]` is the
/// element `entries[i]`, and the MMA's `k` runs over `ks` within the A row
/// and B column each entry names. Both operands are already rounded to
/// TF-32. Charges one tensor-core instruction, like the full MMA.
///
/// Each kept element gets the bits of the dense loop over the staged tiles
/// (`tcg_oracle::refmodel::mma_m16n16k8`): it adds `a·b` as a separate
/// multiply and add, `k` ascending, skipping zero `a`. An armed ECC flip
/// is consumed as by [`mma_sync_gather`]; it poisons element `(0, 0)` if
/// that element is kept.
///
/// `b_finite` says every element of `b` is finite (the caller checks once
/// per launch). Then a zero `a` times `b` is `±0`, and adding `±0` leaves
/// an accumulator that is never `−0` unchanged, so the loop drops the zero
/// test, whose branch mispredicts on ReLU'd operands. The kernels'
/// accumulators start at `+0` and so are never `−0` (a sum is `−0` only
/// when both addends are); a caller passing `true` must keep that so.
pub fn mma_sync_entries(
    acc: &mut [f32],
    entries: &[MmaEntry],
    a: &[f32],
    b: &[f32],
    ks: Range<usize>,
    b_finite: bool,
    ctx: &mut BlockCtx<'_>,
) {
    let _t = hotspot::scope(HotPhase::MmaInner);
    ctx.tcu_mma(MMA_FLOPS);
    if b_finite {
        entries_loop::<false>(acc, entries, a, b, ks);
    } else {
        entries_loop::<true>(acc, entries, a, b, ks);
    }
    if ctx.consume_ecc() {
        if let Some(i) = entries.iter().position(|e| (e.r, e.c) == (0, 0)) {
            acc[i] = f32::NAN;
        }
    }
}

/// The arithmetic of [`mma_sync_entries`], with or without the zero-`a`
/// test.
#[inline(always)]
fn entries_loop<const SKIP_ZEROS: bool>(
    acc: &mut [f32],
    entries: &[MmaEntry],
    a: &[f32],
    b: &[f32],
    ks: Range<usize>,
) {
    for (v, e) in acc.iter_mut().zip(entries) {
        let arow = &a[e.a_row..][ks.clone()];
        let brow = &b[e.b_row..][ks.clone()];
        for (&av, &bv) in arow.iter().zip(brow) {
            if !SKIP_ZEROS || av != 0.0 {
                *v += av * bv;
            }
        }
    }
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

    /// Runs `body` as the single block of a one-block launch.
    fn in_block(body: impl Fn(&mut BlockCtx<'_>)) -> crate::KernelStats {
        let mut l = crate::Launcher::new(crate::DeviceSpec::rtx3090());
        l.launch(crate::GridConfig::with_block_size(32), 1, body)
    }

    #[test]
    fn zero_resets_accumulator() {
        let mut acc = FragmentAcc::default();
        acc.data[7] = 3.0;
        acc.zero();
        assert!(acc.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn each_mma_shape_charges_one_tcu_instruction() {
        let stats = in_block(|ctx| {
            mma_sync_gather(&mut FragmentAcc::default(), &[], &[], &[], WMMA_N, ctx);
        });
        assert_eq!(stats.tcu_mma_instructions, 1);
        assert_eq!(stats.tcu_flops, MMA_FLOPS);
        let stats = in_block(|ctx| mma_sync_entries(&mut [], &[], &[], &[], 0..WMMA_K, true, ctx));
        assert_eq!(stats.tcu_mma_instructions, 1);
        assert_eq!(stats.tcu_flops, MMA_FLOPS);
    }

    #[test]
    fn gather_computes_only_the_kept_columns() {
        // B row 1 (offset 0) holds NaN past the width; B row 0 (offset 16)
        // is all NaN and meets only a zero A element.
        let b: Vec<f32> = (0..2 * WMMA_N)
            .map(|i| if i < 3 { i as f32 } else { f32::NAN })
            .collect();
        in_block(|ctx| {
            let mut acc = FragmentAcc::default();
            let a = [(0, 1, 2.0), (0, 0, 0.0), (5, 1, -1.0)];
            mma_sync_gather(&mut acc, &a, &b, &[WMMA_N, 0], 3, ctx);
            assert_eq!(&acc.data()[..3], &[0.0, 2.0, 4.0]);
            assert_eq!(&acc.data()[5 * WMMA_N..][..3], &[0.0, -1.0, -2.0]);
            assert!(acc.data().iter().all(|v| !v.is_nan()));
        });
    }

    #[test]
    fn entries_read_their_own_rows_over_the_k_range() {
        let a: Vec<f32> = (0..16).map(|i| i as f32).collect();
        let b = vec![1.0f32; 16];
        in_block(|ctx| {
            let entries = [
                MmaEntry {
                    r: 3,
                    c: 9,
                    a_row: 8,
                    b_row: 0,
                },
                MmaEntry {
                    r: 0,
                    c: 1,
                    a_row: 0,
                    b_row: 8,
                },
            ];
            let mut acc = [0.5, 0.0];
            mma_sync_entries(&mut acc, &entries, &a, &b, 1..3, true, ctx);
            assert_eq!(acc, [0.5 + 9.0 + 10.0, 1.0 + 2.0]);
        });
    }
}

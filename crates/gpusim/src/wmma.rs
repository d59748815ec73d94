//! WMMA fragments: the `nvcuda::wmma` API surface of the simulator.
//!
//! Mirrors the paper's Listing 1 for the Ampere TF-32 MMA shape
//! `m16n16k8`: `A` is `16×8`, `B` is `8×16`, the accumulator is `16×16` in
//! FP32. `load` applies TF-32 rounding to the inputs exactly as the hardware
//! does (see [`tcg_tensor::tf32`]); `mma_sync` performs the full-precision
//! multiply-accumulate of the rounded operands and charges one tensor-core
//! instruction to the block context.

use tcg_fault::TcgError;
use tcg_tensor::tf32::round_to_tf32;

use crate::hotspot::{self, HotPhase};
use crate::launch::BlockCtx;

/// Bounds-checks a `rows×cols` tile read/write at leading dimension `ld`.
fn check_tile(
    what: &'static str,
    len: usize,
    rows: usize,
    cols: usize,
    ld: usize,
) -> Result<(), TcgError> {
    if ld < cols {
        return Err(TcgError::DimMismatch {
            what,
            expected: cols,
            actual: ld,
        });
    }
    let needed = (rows - 1) * ld + cols;
    if len < needed {
        return Err(TcgError::DimMismatch {
            what,
            expected: needed,
            actual: len,
        });
    }
    Ok(())
}

/// Rows of the accumulator (`M` in `m16n16k8`).
pub const WMMA_M: usize = 16;
/// Columns of the accumulator (`N`).
pub const WMMA_N: usize = 16;
/// Inner (reduction) dimension (`K`).
pub const WMMA_K: usize = 8;

/// FLOPs one `mma_sync` performs (multiply + add over M×N×K).
pub const MMA_FLOPS: u64 = (2 * WMMA_M * WMMA_N * WMMA_K) as u64;

/// The `matrix_a` fragment: `16×8`, row-major, TF-32.
#[derive(Debug, Clone)]
pub struct FragmentA {
    data: [f32; WMMA_M * WMMA_K],
}

/// The `matrix_b` fragment: `8×16`, row-major, TF-32.
#[derive(Debug, Clone)]
pub struct FragmentB {
    data: [f32; WMMA_K * WMMA_N],
}

/// The accumulator fragment: `16×16`, FP32.
#[derive(Debug, Clone)]
pub struct FragmentAcc {
    data: [f32; WMMA_M * WMMA_N],
}

impl Default for FragmentA {
    fn default() -> Self {
        FragmentA {
            data: [0.0; WMMA_M * WMMA_K],
        }
    }
}

impl Default for FragmentB {
    fn default() -> Self {
        FragmentB {
            data: [0.0; WMMA_K * WMMA_N],
        }
    }
}

impl Default for FragmentAcc {
    fn default() -> Self {
        FragmentAcc {
            data: [0.0; WMMA_M * WMMA_N],
        }
    }
}

impl FragmentA {
    /// `wmma::load_matrix_sync` for A: reads a `16×8` tile from `src` with
    /// leading dimension `ld`, rounding each element to TF-32.
    ///
    /// # Panics
    ///
    /// Panics if `src` is too short for the addressed tile.
    pub fn load(&mut self, src: &[f32], ld: usize) {
        self.try_load(src, ld).expect("A-tile within source bounds");
    }

    /// Fallible [`FragmentA::load`]: returns [`TcgError::DimMismatch`]
    /// instead of panicking when `src` is too short for the addressed tile.
    pub fn try_load(&mut self, src: &[f32], ld: usize) -> Result<(), TcgError> {
        check_tile("wmma A-fragment source", src.len(), WMMA_M, WMMA_K, ld)?;
        let _t = hotspot::scope(HotPhase::FragmentStage);
        for r in 0..WMMA_M {
            for c in 0..WMMA_K {
                self.data[r * WMMA_K + c] = round_to_tf32(src[r * ld + c]);
            }
        }
        Ok(())
    }

    /// Raw fragment contents (row-major).
    pub fn data(&self) -> &[f32] {
        &self.data
    }
}

impl FragmentB {
    /// `wmma::load_matrix_sync` for B: reads an `8×16` tile from `src`
    /// (row-major with leading dimension `ld`), rounding to TF-32.
    ///
    /// # Panics
    ///
    /// Panics if `src` is too short for the addressed tile.
    pub fn load(&mut self, src: &[f32], ld: usize) {
        self.try_load(src, ld).expect("B-tile within source bounds");
    }

    /// Fallible [`FragmentB::load`]: returns [`TcgError::DimMismatch`]
    /// instead of panicking when `src` is too short for the addressed tile.
    pub fn try_load(&mut self, src: &[f32], ld: usize) -> Result<(), TcgError> {
        check_tile("wmma B-fragment source", src.len(), WMMA_K, WMMA_N, ld)?;
        let _t = hotspot::scope(HotPhase::FragmentStage);
        for r in 0..WMMA_K {
            for c in 0..WMMA_N {
                self.data[r * WMMA_N + c] = round_to_tf32(src[r * ld + c]);
            }
        }
        Ok(())
    }

    /// Raw fragment contents (row-major).
    pub fn data(&self) -> &[f32] {
        &self.data
    }
}

impl FragmentAcc {
    /// `wmma::fill_fragment(acc, 0.0)`.
    pub fn zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// `wmma::store_matrix_sync`: writes the `16×16` accumulator into `dst`
    /// with leading dimension `ld` (row-major).
    ///
    /// # Panics
    ///
    /// Panics if `dst` is too short for the addressed tile.
    pub fn store(&self, dst: &mut [f32], ld: usize) {
        self.try_store(dst, ld)
            .expect("acc tile within destination bounds");
    }

    /// Fallible [`FragmentAcc::store`]: returns [`TcgError::DimMismatch`]
    /// instead of panicking when `dst` is too short for the addressed tile.
    pub fn try_store(&self, dst: &mut [f32], ld: usize) -> Result<(), TcgError> {
        check_tile(
            "wmma accumulator destination",
            dst.len(),
            WMMA_M,
            WMMA_N,
            ld,
        )?;
        for r in 0..WMMA_M {
            dst[r * ld..r * ld + WMMA_N].copy_from_slice(&self.data[r * WMMA_N..(r + 1) * WMMA_N]);
        }
        Ok(())
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

/// `wmma::mma_sync(acc, a, b, acc)`: `acc += A·B` with FP32 accumulation,
/// charging one tensor-core instruction.
///
/// If the launcher's fault plan armed an ECC bit flip for this launch, the
/// first `mma_sync` consumes it and the corruption surfaces as NaN in the
/// accumulator — the way an uncorrectable flip in an FP32 exponent field
/// would poison everything downstream of the fragment.
pub fn mma_sync(acc: &mut FragmentAcc, a: &FragmentA, b: &FragmentB, ctx: &mut BlockCtx<'_>) {
    let _t = hotspot::scope(HotPhase::MmaInner);
    ctx.tcu_mma(MMA_FLOPS);
    mma_functional(acc, a, b);
    if ctx.consume_ecc() {
        acc.data[0] = f32::NAN;
    }
}

/// The arithmetic of [`mma_sync`] without cost charging — used by CPU-side
/// reference paths and tests.
pub fn mma_functional(acc: &mut FragmentAcc, a: &FragmentA, b: &FragmentB) {
    for r in 0..WMMA_M {
        for k in 0..WMMA_K {
            let av = a.data[r * WMMA_K + k];
            if av == 0.0 {
                continue;
            }
            let brow = &b.data[k * WMMA_N..(k + 1) * WMMA_N];
            let crow = &mut acc.data[r * WMMA_N..(r + 1) * WMMA_N];
            for c in 0..WMMA_N {
                crow[c] += av * brow[c];
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
    use tcg_tensor::gemm::gemm_f64_reference;
    use tcg_tensor::tf32::tf32_rel_tolerance;
    use tcg_tensor::{init, DenseMatrix};

    #[test]
    fn mma_matches_reference_gemm_within_tf32() {
        let a = init::uniform(WMMA_M, WMMA_K, -1.0, 1.0, 1);
        let b = init::uniform(WMMA_K, WMMA_N, -1.0, 1.0, 2);
        let mut fa = FragmentA::default();
        let mut fb = FragmentB::default();
        let mut acc = FragmentAcc::default();
        fa.load(a.as_slice(), WMMA_K);
        fb.load(b.as_slice(), WMMA_N);
        mma_functional(&mut acc, &fa, &fb);
        let reference = gemm_f64_reference(&a, &b).unwrap();
        let tol = tf32_rel_tolerance(WMMA_K) * 8.0;
        for r in 0..WMMA_M {
            for c in 0..WMMA_N {
                let d = (acc.get(r, c) - reference.get(r, c)).abs();
                assert!(d < tol, "({r},{c}): {d} > {tol}");
            }
        }
    }

    #[test]
    fn accumulation_chains_across_k_tiles() {
        // Full 16×16×32 GEMM as 4 chained k8 MMAs.
        let a = init::uniform(WMMA_M, 32, -1.0, 1.0, 3);
        let b = init::uniform(32, WMMA_N, -1.0, 1.0, 4);
        let mut acc = FragmentAcc::default();
        for kt in 0..4 {
            let mut fa = FragmentA::default();
            let mut fb = FragmentB::default();
            // Tile starting column kt*8 of A / row kt*8 of B.
            fa.load(&a.as_slice()[kt * WMMA_K..], 32);
            fb.load(&b.as_slice()[kt * WMMA_K * WMMA_N..], WMMA_N);
            mma_functional(&mut acc, &fa, &fb);
        }
        let reference = gemm_f64_reference(&a, &b).unwrap();
        let tol = tf32_rel_tolerance(32) * 16.0;
        for r in 0..WMMA_M {
            for c in 0..WMMA_N {
                assert!((acc.get(r, c) - reference.get(r, c)).abs() < tol);
            }
        }
    }

    #[test]
    fn store_respects_leading_dimension() {
        let mut acc = FragmentAcc::default();
        acc.data[0] = 1.5; // (0,0)
        acc.data[WMMA_N + 1] = 2.5; // (1,1)
        let mut out = vec![0.0f32; 32 * 20];
        acc.store(&mut out, 20);
        assert_eq!(out[0], 1.5);
        assert_eq!(out[20 + 1], 2.5);
    }

    #[test]
    fn inputs_are_rounded_to_tf32() {
        let x = 1.000_123_4_f32;
        let src = vec![x; WMMA_M * WMMA_K];
        let mut fa = FragmentA::default();
        fa.load(&src, WMMA_K);
        assert_eq!(fa.data()[0], round_to_tf32(x));
        assert_ne!(fa.data()[0], x);
    }

    #[test]
    fn zero_resets_accumulator() {
        let mut acc = FragmentAcc::default();
        acc.data[7] = 3.0;
        acc.zero();
        assert!(acc.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn mma_sync_charges_one_tcu_instruction() {
        let mut l = crate::Launcher::new(crate::DeviceSpec::rtx3090());
        let stats = l.launch(crate::GridConfig::with_block_size(32), 1, |ctx| {
            let fa = FragmentA::default();
            let fb = FragmentB::default();
            let mut acc = FragmentAcc::default();
            mma_sync(&mut acc, &fa, &fb, ctx);
        });
        assert_eq!(stats.tcu_mma_instructions, 1);
        assert_eq!(stats.tcu_flops, MMA_FLOPS);
    }

    #[test]
    fn dense_matrix_tile_roundtrip_through_fragments() {
        // Load a padded tile from a DenseMatrix, multiply by identity-ish B.
        let x = init::uniform(20, 10, -1.0, 1.0, 7);
        let tile = x.tile_padded(0, 0, WMMA_M, WMMA_K);
        let mut fa = FragmentA::default();
        fa.load(tile.as_slice(), WMMA_K);
        // B = [I8 | 0]: acc(:, 0..8) == rounded A.
        let mut bbuf = DenseMatrix::zeros(WMMA_K, WMMA_N);
        for i in 0..WMMA_K {
            bbuf.set(i, i, 1.0);
        }
        let mut fb = FragmentB::default();
        fb.load(bbuf.as_slice(), WMMA_N);
        let mut acc = FragmentAcc::default();
        mma_functional(&mut acc, &fa, &fb);
        for r in 0..WMMA_M {
            for c in 0..WMMA_K {
                assert_eq!(acc.get(r, c), round_to_tf32(tile.get(r, c)));
            }
        }
    }
}

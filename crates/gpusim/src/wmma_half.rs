//! Half-precision WMMA fragments: the `m16n16k16` FP16 geometry.
//!
//! §4.1 of the paper fixes `16×8` blocks because it evaluates TF-32; it
//! notes that "other MMA shapes can also be used if different computation
//! precision (e.g., half and int8)... are specified". This module provides
//! the FP16 shape: `A` is `16×16`, `B` is `16×16`, inputs round to binary16
//! (including its narrow range — overflow saturates to infinity, unlike
//! TF-32), accumulation stays FP32. One instruction performs twice the
//! FLOPs of the TF-32 shape.

use tcg_tensor::f16::round_to_f16;

use crate::launch::BlockCtx;
use crate::wmma::FragmentAcc;

/// Rows of the half-precision accumulator.
pub const HALF_M: usize = 16;
/// Columns of the half-precision accumulator.
pub const HALF_N: usize = 16;
/// Reduction depth of one FP16 MMA.
pub const HALF_K: usize = 16;

/// FLOPs one half-precision `mma_sync` performs.
pub const HALF_MMA_FLOPS: u64 = (2 * HALF_M * HALF_N * HALF_K) as u64;

/// The FP16 `matrix_a` fragment: `16×16`, row-major.
#[derive(Debug, Clone)]
pub struct HalfFragmentA {
    data: [f32; HALF_M * HALF_K],
}

/// The FP16 `matrix_b` fragment: `16×16`, row-major.
#[derive(Debug, Clone)]
pub struct HalfFragmentB {
    data: [f32; HALF_K * HALF_N],
}

impl Default for HalfFragmentA {
    fn default() -> Self {
        HalfFragmentA {
            data: [0.0; HALF_M * HALF_K],
        }
    }
}

impl Default for HalfFragmentB {
    fn default() -> Self {
        HalfFragmentB {
            data: [0.0; HALF_K * HALF_N],
        }
    }
}

impl HalfFragmentA {
    /// Loads a `16×16` tile from `src` with leading dimension `ld`,
    /// rounding every element to binary16.
    ///
    /// # Panics
    ///
    /// Panics if `src` is too short for the addressed tile.
    pub fn load(&mut self, src: &[f32], ld: usize) {
        for r in 0..HALF_M {
            for c in 0..HALF_K {
                self.data[r * HALF_K + c] = round_to_f16(src[r * ld + c]);
            }
        }
    }

    /// Raw fragment contents.
    pub fn data(&self) -> &[f32] {
        &self.data
    }
}

impl HalfFragmentB {
    /// Loads a `16×16` tile from `src` (row-major, leading dimension `ld`),
    /// rounding to binary16.
    ///
    /// # Panics
    ///
    /// Panics if `src` is too short for the addressed tile.
    pub fn load(&mut self, src: &[f32], ld: usize) {
        for r in 0..HALF_K {
            for c in 0..HALF_N {
                self.data[r * HALF_N + c] = round_to_f16(src[r * ld + c]);
            }
        }
    }

    /// Raw fragment contents.
    pub fn data(&self) -> &[f32] {
        &self.data
    }
}

/// `mma_sync` for the FP16 geometry: `acc += A·B`, FP32 accumulation,
/// charging one tensor-core instruction at the FP16 rate.
pub fn mma_sync_half(
    acc: &mut FragmentAcc,
    a: &HalfFragmentA,
    b: &HalfFragmentB,
    ctx: &mut BlockCtx<'_>,
) {
    ctx.tcu_mma(HALF_MMA_FLOPS);
    mma_functional_half(acc, a, b);
}

/// The arithmetic of [`mma_sync_half`] without cost charging.
pub fn mma_functional_half(acc: &mut FragmentAcc, a: &HalfFragmentA, b: &HalfFragmentB) {
    let out = acc.data_mut();
    for r in 0..HALF_M {
        for k in 0..HALF_K {
            let av = a.data[r * HALF_K + k];
            if av == 0.0 {
                continue;
            }
            for c in 0..HALF_N {
                out[r * HALF_N + c] += av * b.data[k * HALF_N + c];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcg_tensor::f16::f16_rel_tolerance;
    use tcg_tensor::gemm::gemm_f64_reference;
    use tcg_tensor::init;

    #[test]
    fn half_mma_matches_reference_within_f16() {
        let a = init::uniform(HALF_M, HALF_K, -1.0, 1.0, 1);
        let b = init::uniform(HALF_K, HALF_N, -1.0, 1.0, 2);
        let mut fa = HalfFragmentA::default();
        let mut fb = HalfFragmentB::default();
        fa.load(a.as_slice(), HALF_K);
        fb.load(b.as_slice(), HALF_N);
        let mut acc = FragmentAcc::default();
        mma_functional_half(&mut acc, &fa, &fb);
        let reference = gemm_f64_reference(&a, &b).unwrap();
        let tol = f16_rel_tolerance(HALF_K) * 8.0;
        for r in 0..HALF_M {
            for c in 0..HALF_N {
                assert!(
                    (acc.get(r, c) - reference.get(r, c)).abs() < tol,
                    "({r},{c})"
                );
            }
        }
    }

    #[test]
    fn f16_range_saturates_unlike_tf32() {
        let big = tcg_tensor::DenseMatrix::filled(16, 16, 1.0e6);
        let mut fa = HalfFragmentA::default();
        fa.load(big.as_slice(), 16);
        assert!(
            fa.data()[0].is_infinite(),
            "FP16 overflows where TF-32 does not"
        );
    }

    #[test]
    fn half_mma_charges_double_flops() {
        let mut l = crate::Launcher::new(crate::DeviceSpec::rtx3090());
        let stats = l.launch(crate::GridConfig::with_block_size(32), 1, |ctx| {
            let fa = HalfFragmentA::default();
            let fb = HalfFragmentB::default();
            let mut acc = FragmentAcc::default();
            mma_sync_half(&mut acc, &fa, &fb, ctx);
        });
        assert_eq!(stats.tcu_flops, 2 * crate::wmma::MMA_FLOPS);
        assert_eq!(stats.tcu_mma_instructions, 1);
    }
}

//! Bit-exact emulation of NVIDIA's TF-32 input rounding.
//!
//! TensorFloat-32 keeps the 8-bit exponent of IEEE binary32 but truncates the
//! mantissa to 10 explicit bits. Ampere tensor cores round each FP32 input
//! operand to TF-32 (round-to-nearest-even on the mantissa) before the MMA,
//! then accumulate in full FP32. Reproducing this rounding lets the simulated
//! WMMA path produce the *same class* of numerical error a real RTX 3090
//! kernel would, which the test suite checks against f64 references with
//! TF-32 tolerances.

/// Number of explicit mantissa bits kept by TF-32.
pub const TF32_MANTISSA_BITS: u32 = 10;

/// Number of low mantissa bits of an IEEE binary32 value dropped by TF-32.
const DROPPED_BITS: u32 = 23 - TF32_MANTISSA_BITS; // 13

/// Rounds an `f32` to TF-32 precision (round-to-nearest-even).
///
/// NaN and infinities are returned unchanged; zero stays zero. Denormals are
/// rounded like any other value, matching the hardware behaviour of treating
/// the mantissa field uniformly.
///
/// # Examples
///
/// ```
/// use tcg_tensor::tf32::round_to_tf32;
/// // 1.0 is exactly representable.
/// assert_eq!(round_to_tf32(1.0), 1.0);
/// // A value needing more than 10 mantissa bits is perturbed.
/// let x = 1.000_123_4_f32;
/// assert_ne!(round_to_tf32(x), x);
/// assert!((round_to_tf32(x) - x).abs() < 1e-3);
/// ```
#[inline]
pub fn round_to_tf32(x: f32) -> f32 {
    if !x.is_finite() {
        return x;
    }
    // Branchless round-to-nearest-even on the dropped bits: adding
    // `half - 1` plus the kept LSB carries into the kept mantissa exactly
    // when the dropped field is above half, or equal to half with an odd
    // kept LSB. A carry out of the mantissa bumps the exponent, so the
    // largest finite values round to infinity as the hardware does.
    let bits = x.to_bits();
    let lsb = (bits >> DROPPED_BITS) & 1;
    let half_minus_one: u32 = (1 << (DROPPED_BITS - 1)) - 1;
    let rounded = bits.wrapping_add(half_minus_one + lsb) & !((1 << DROPPED_BITS) - 1);
    f32::from_bits(rounded)
}

/// Relative tolerance appropriate when comparing a TF-32 computation against
/// an f64 reference: one ULP at 10 mantissa bits, with headroom for
/// accumulation order differences across a K-long dot product.
pub fn tf32_rel_tolerance(k: usize) -> f32 {
    let ulp = 2.0_f32.powi(-(TF32_MANTISSA_BITS as i32));
    ulp * (k.max(1) as f32).sqrt() * 4.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_values_pass_through() {
        for &v in &[0.0_f32, -0.0, 1.0, -1.0, 0.5, 2.0, 1024.0, -0.25] {
            assert_eq!(round_to_tf32(v), v, "value {v} should be exact in TF-32");
        }
    }

    #[test]
    fn non_finite_pass_through() {
        assert!(round_to_tf32(f32::NAN).is_nan());
        assert_eq!(round_to_tf32(f32::INFINITY), f32::INFINITY);
        assert_eq!(round_to_tf32(f32::NEG_INFINITY), f32::NEG_INFINITY);
    }

    #[test]
    fn mantissa_is_truncated_to_ten_bits() {
        let x = round_to_tf32(1.2345678);
        let mask: u32 = (1 << DROPPED_BITS) - 1;
        assert_eq!(x.to_bits() & mask, 0, "low 13 mantissa bits must be zero");
    }

    #[test]
    fn rounding_error_is_bounded() {
        // |round(x) - x| <= 2^-11 * |x| (half ULP at 10 mantissa bits).
        let mut x = 1.0001_f32;
        for _ in 0..1000 {
            let r = round_to_tf32(x);
            assert!((r - x).abs() <= x.abs() * 2.0_f32.powi(-11) + f32::MIN_POSITIVE);
            x *= 1.017;
        }
    }

    #[test]
    fn round_half_to_even() {
        // Construct a value exactly halfway between two TF-32 neighbours whose
        // lower kept bit is 0: must round down (stay truncated).
        let base = 1.0_f32.to_bits(); // mantissa all zero, kept LSB = 0
        let halfway = base | (1 << (DROPPED_BITS - 1));
        let v = f32::from_bits(halfway);
        assert_eq!(round_to_tf32(v).to_bits(), base);

        // Halfway with kept LSB = 1: must round up to even.
        let odd = base | (1 << DROPPED_BITS);
        let halfway_up = odd | (1 << (DROPPED_BITS - 1));
        let v2 = f32::from_bits(halfway_up);
        assert_eq!(
            round_to_tf32(v2).to_bits(),
            odd.wrapping_add(1 << DROPPED_BITS)
        );
    }

    #[test]
    #[allow(clippy::approx_constant)]
    fn idempotent() {
        let mut x = -3.14159_f32;
        for _ in 0..100 {
            let once = round_to_tf32(x);
            assert_eq!(round_to_tf32(once), once);
            x *= -1.37;
        }
    }

    #[test]
    fn tolerance_grows_with_k() {
        assert!(tf32_rel_tolerance(64) > tf32_rel_tolerance(8));
    }
}

//! Deterministic parameter/feature initialization.
//!
//! Every generator takes an explicit seed so experiments are reproducible
//! run-to-run — the benchmark harness relies on this to make paper-style
//! tables stable.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::DenseMatrix;

/// Uniform random matrix in `[lo, hi)`.
pub fn uniform(rows: usize, cols: usize, lo: f32, hi: f32, seed: u64) -> DenseMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    DenseMatrix::from_fn(rows, cols, |_, _| rng.random_range(lo..hi))
}

/// Glorot/Xavier uniform initialization for a `fan_in × fan_out` weight.
///
/// Bound is `sqrt(6 / (fan_in + fan_out))`, the standard choice for GCN
/// weights (Kipf & Welling use exactly this).
pub fn xavier_uniform(fan_in: usize, fan_out: usize, seed: u64) -> DenseMatrix {
    let bound = (6.0 / (fan_in + fan_out) as f32).sqrt();
    uniform(fan_in, fan_out, -bound, bound, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_respects_bounds_and_seed() {
        let a = uniform(10, 10, -0.5, 0.5, 42);
        assert!(a.as_slice().iter().all(|&v| (-0.5..0.5).contains(&v)));
        let b = uniform(10, 10, -0.5, 0.5, 42);
        assert_eq!(a, b, "same seed must reproduce");
        let c = uniform(10, 10, -0.5, 0.5, 43);
        assert_ne!(a, c, "different seed must differ");
    }

    #[test]
    fn xavier_bound_shrinks_with_fan() {
        let small = xavier_uniform(4, 4, 1);
        let large = xavier_uniform(1024, 1024, 1);
        let max_small = small.as_slice().iter().fold(0.0f32, |m, v| m.max(v.abs()));
        let max_large = large.as_slice().iter().fold(0.0f32, |m, v| m.max(v.abs()));
        assert!(max_large < max_small);
    }
}

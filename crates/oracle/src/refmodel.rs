//! Reference models for the simulator's own accounting.
//!
//! The kernel oracle checks *outputs*; these models check the interpreter's
//! *bookkeeping*. Each is the simplest correct implementation of a hot-path
//! primitive — the version the simulator shipped before its host hot path
//! was made allocation-free — kept here unchanged so the fast versions in
//! `tcg-gpusim` and `tcg-tensor` can be property-tested against it:
//!
//! - [`RefCache`] — a set-associative LRU cache whose sets are `Vec` MRU
//!   lists updated with `remove`/`insert`, flushed by clearing every set;
//!   the reference for [`tcg_gpusim::cache::Cache`];
//! - [`coalesce_contiguous`] — the sector list of a unit-stride run,
//!   materialized as a `Vec`; the reference for
//!   [`tcg_gpusim::coalesce::sector_span`];
//! - [`round_to_tf32`] — TF-32 round-to-nearest-even written as an explicit
//!   three-way branch on the dropped bits; the reference for
//!   [`tcg_tensor::tf32::round_to_tf32`];
//! - [`gemm_tf32`] — the TF-32 GEMM that rounds both operands inside the
//!   triple loop, once per multiply; the reference for
//!   [`tcg_tensor::gemm::gemm_tf32`].
//!
//! The dense update GEMMs [`tcg_tensor::gemm::gemm`] (`X·W`) and
//! [`tcg_tensor::gemm::gemm_at_b`] (`Xᵀ·dY`) are pinned against the triple
//! loop [`tcg_tensor::gemm::gemm_naive`], which stays in `tcg-tensor`:
//! zero-skip in `A`, `±inf`/NaN in `B` rows met only by zeros, `n` across
//! the 16-column panel edge, and row subsets (each output row depends only
//! on its own `A` row).
//!
//! Fast and reference must agree exactly: same probe outcomes and hit/miss
//! counters, same sector sequences, same result bits.

use tcg_gpusim::cache::{Probe, SECTOR_BYTES};
use tcg_tensor::{DenseMatrix, TensorError};

/// Set-associative LRU cache over 32-byte sectors, one `Vec` per set.
#[derive(Debug, Clone)]
pub struct RefCache {
    sets: Vec<Vec<u64>>,
    num_sets: u64,
    ways: usize,
    hits: u64,
    misses: u64,
}

impl RefCache {
    /// Same geometry rule as the simulator: the set count is rounded up to
    /// a power of two, and a tiny capacity degenerates to a single set.
    pub fn new(capacity_bytes: usize, associativity: usize) -> Self {
        let lines = capacity_bytes as u64 / SECTOR_BYTES;
        let ways = associativity.max(1);
        let num_sets = (lines / ways as u64).max(1).next_power_of_two();
        RefCache {
            sets: vec![Vec::new(); num_sets as usize],
            num_sets,
            ways,
            hits: 0,
            misses: 0,
        }
    }

    /// Probes (and on miss, fills) the sector containing `addr`.
    pub fn access(&mut self, addr: u64) -> Probe {
        let line = addr / SECTOR_BYTES;
        let set_idx = (line & (self.num_sets - 1)) as usize;
        let tag = line / self.num_sets;
        let set = &mut self.sets[set_idx];
        if let Some(pos) = set.iter().position(|&t| t == tag) {
            let t = set.remove(pos);
            set.insert(0, t);
            self.hits += 1;
            Probe::Hit
        } else {
            set.insert(0, tag);
            if set.len() > self.ways {
                set.pop();
            }
            self.misses += 1;
            Probe::Miss
        }
    }

    /// Invalidates all lines, keeping hit/miss counters.
    pub fn flush(&mut self) {
        for s in &mut self.sets {
            s.clear();
        }
    }

    /// Resets counters and contents.
    pub fn reset(&mut self) {
        self.flush();
        self.hits = 0;
        self.misses = 0;
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

/// Sector bases for a dense run of `count` elements of `elem_bytes`
/// starting at `base`.
pub fn coalesce_contiguous(base: u64, count: usize, elem_bytes: usize) -> Vec<u64> {
    if count == 0 {
        return Vec::new();
    }
    let end = base + (count * elem_bytes) as u64;
    let first = (base / SECTOR_BYTES) * SECTOR_BYTES;
    (first..end).step_by(SECTOR_BYTES as usize).collect()
}

/// Rounds an `f32` to TF-32 precision (round-to-nearest-even); NaN and
/// infinities pass through unchanged.
pub fn round_to_tf32(x: f32) -> f32 {
    const DROPPED_BITS: u32 = 13;
    if !x.is_finite() {
        return x;
    }
    let bits = x.to_bits();
    let mask: u32 = (1 << DROPPED_BITS) - 1;
    let dropped = bits & mask;
    let truncated = bits & !mask;
    let halfway: u32 = 1 << (DROPPED_BITS - 1);
    let rounded = if dropped > halfway {
        truncated.wrapping_add(1 << DROPPED_BITS)
    } else if dropped == halfway {
        // Round to even: bump only if the lowest kept bit is 1.
        if truncated & (1 << DROPPED_BITS) != 0 {
            truncated.wrapping_add(1 << DROPPED_BITS)
        } else {
            truncated
        }
    } else {
        truncated
    };
    f32::from_bits(rounded)
}

/// GEMM with TF-32 input rounding and FP32 accumulation, rounding each
/// operand element at every multiply.
pub fn gemm_tf32(a: &DenseMatrix, b: &DenseMatrix) -> Result<DenseMatrix, TensorError> {
    if a.cols() != b.rows() {
        return Err(TensorError::DimMismatch {
            op: "gemm_tf32",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let (m, k) = a.shape();
    let n = b.cols();
    let mut c = DenseMatrix::zeros(m, n);
    for i in 0..m {
        for p in 0..k {
            let av = round_to_tf32(a.get(i, p));
            if av == 0.0 {
                continue;
            }
            let brow = b.row(p);
            let crow = c.row_mut(i);
            for j in 0..n {
                crow[j] += av * round_to_tf32(brow[j]);
            }
        }
    }
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use tcg_gpusim::cache::Cache;
    use tcg_gpusim::coalesce::sector_span;
    use tcg_tensor::gemm;

    /// Replays one op stream through both caches. Op codes: 0 flushes,
    /// 1 resets, anything else accesses the address.
    fn caches_agree(capacity: usize, ways: usize, ops: &[(u64, u8)]) {
        let mut fast = Cache::new(capacity, ways);
        let mut reference = RefCache::new(capacity, ways);
        for (i, &(addr, op)) in ops.iter().enumerate() {
            match op {
                0 => {
                    fast.flush();
                    reference.flush();
                }
                1 => {
                    fast.reset();
                    reference.reset();
                }
                _ => assert_eq!(
                    fast.access(addr),
                    reference.access(addr),
                    "op {i}: access {addr:#x} (capacity {capacity}, {ways}-way)"
                ),
            }
            assert_eq!(
                (fast.hits(), fast.misses()),
                (reference.hits(), reference.misses()),
                "op {i}: counters diverged"
            );
        }
    }

    /// Address streams over a small pool, so sets fill, hit and evict.
    fn op_stream(span: u64) -> impl Strategy<Value = Vec<(u64, u8)>> {
        prop::collection::vec((0..span, 0u8..64), 1..3000)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn cache_one_set_matches_reference(ops in op_stream(32 * 12)) {
            // 64 B at 2 ways: a single set.
            caches_agree(64, 2, &ops);
        }

        #[test]
        fn cache_zero_capacity_matches_reference(ops in op_stream(32 * 16)) {
            caches_agree(0, 4, &ops);
        }

        #[test]
        fn cache_4_way_matches_reference(ops in op_stream(32 * 512)) {
            // 64 sets × 4 ways.
            caches_agree(8 * 1024, 4, &ops);
        }

        #[test]
        fn cache_16_way_matches_reference(ops in op_stream(32 * 1024)) {
            // 32 sets × 16 ways.
            caches_agree(16 * 1024, 16, &ops);
        }

        #[test]
        fn sector_span_matches_reference(
            base in 0u64..100_000,
            count in 0usize..300,
            elem_bytes in 1usize..17,
        ) {
            let span = sector_span(base, count, elem_bytes);
            let reference = coalesce_contiguous(base, count, elem_bytes);
            prop_assert_eq!(span.len(), reference.len());
            prop_assert_eq!(span.collect::<Vec<_>>(), reference);
        }
    }

    #[test]
    fn sector_span_edge_cases_match_reference() {
        for (base, count, elem_bytes) in [
            (0u64, 0usize, 4usize),
            (17, 0, 4),
            (31, 1, 4),
            (31, 1, 1),
            (32, 8, 4),
            (33, 8, 4),
            (u64::from(u32::MAX) + 5, 70, 8),
        ] {
            let span: Vec<u64> = sector_span(base, count, elem_bytes).collect();
            assert_eq!(
                span,
                coalesce_contiguous(base, count, elem_bytes),
                "base {base} count {count} elem_bytes {elem_bytes}"
            );
        }
    }

    fn tf32_agrees(x: f32) {
        assert_eq!(
            tcg_tensor::tf32::round_to_tf32(x).to_bits(),
            round_to_tf32(x).to_bits(),
            "input bits {:#010x}",
            x.to_bits()
        );
    }

    #[test]
    fn tf32_special_values_match_reference() {
        let one = 1.0f32.to_bits();
        let specials = [
            0.0f32.to_bits(),
            (-0.0f32).to_bits(),
            1,            // smallest denormal
            0x0000_1000,  // denormal exactly at a tie
            0x007F_FFFF,  // largest denormal
            0x8040_1FFF,  // negative denormal above a tie
            one | 0x1000, // tie, kept LSB even: rounds down
            one | 0x3000, // tie, kept LSB odd: rounds up
            one | 0x0FFF, // just below a tie
            one | 0x1001, // just above a tie
            0x7F7F_FFFF,  // max finite: rounds to +inf
            0xFF7F_FFFF,  // -max finite: rounds to -inf
            0x7F80_0000,  // +inf
            0xFF80_0000,  // -inf
            0x7FC0_0000,  // quiet NaN
            0x7F80_1001,  // signalling NaN with a low payload
            0xFFFF_FFFF,  // negative NaN, full payload
        ];
        for bits in specials {
            tf32_agrees(f32::from_bits(bits));
        }
        assert_eq!(
            tcg_tensor::tf32::round_to_tf32(f32::MAX),
            f32::INFINITY,
            "max finite rounds to infinity"
        );
    }

    #[test]
    fn tf32_random_bit_patterns_match_reference() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x7F32);
        for _ in 0..1_000_000 {
            tf32_agrees(f32::from_bits(rng.random::<u32>()));
        }
    }

    /// Operands for `A (m×k) · B (k×n)` drawn from `seed`. About a quarter
    /// of `A` is exact `0.0`/`-0.0`; the rest spans several binades so a
    /// reordered sum changes low bits. Every third inner index is a
    /// "poison" index: its whole `A` column is zero and its `B` row holds
    /// `±inf`/NaN, which reaches `C` only if a zero term is not skipped.
    fn update_operands(m: usize, k: usize, n: usize, seed: u64) -> (DenseMatrix, DenseMatrix) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let poison = |p: usize| p % 3 == 2;
        let a = DenseMatrix::from_fn(m, k, |_, p| match rng.random_range(0..8) {
            _ if poison(p) => [0.0, -0.0][rng.random_range(0..2)],
            0 => 0.0,
            1 => -0.0,
            _ => rng.random_range(-1.0f32..1.0) * [1.0, 1e-3, 1e3][rng.random_range(0..3)],
        });
        let specials = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
        let b = DenseMatrix::from_fn(k, n, |p, _| {
            if poison(p) {
                specials[rng.random_range(0..3)]
            } else {
                rng.random_range(-2.0f32..2.0)
            }
        });
        (a, b)
    }

    fn bits(c: &DenseMatrix) -> Vec<u32> {
        c.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// Rows `r0..r1` of `a` as a matrix of their own.
    fn row_slice(a: &DenseMatrix, r0: usize, r1: usize) -> DenseMatrix {
        DenseMatrix::from_fn(r1 - r0, a.cols(), |i, p| a.get(r0 + i, p))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn gemm_matches_naive_bitwise(
            m in 0usize..12, k in 0usize..48, n in 1usize..40, seed in 0u64..u64::MAX,
        ) {
            let (a, b) = update_operands(m, k, n, seed);
            let fast = gemm::gemm(&a, &b).expect("shapes agree");
            let naive = gemm::gemm_naive(&a, &b).expect("shapes agree");
            prop_assert_eq!(fast.shape(), (m, n));
            prop_assert_eq!(bits(&fast), bits(&naive), "m {} k {} n {} seed {}", m, k, n, seed);
        }

        #[test]
        fn gemm_at_b_matches_naive_of_transpose_bitwise(
            k in 0usize..48, m in 0usize..12, n in 1usize..40, seed in 0u64..u64::MAX,
        ) {
            // `a` is k×m; transposed it is the m×k operand with poison columns.
            let (at, b) = update_operands(m, k, n, seed);
            let a = at.transpose();
            let fast = gemm::gemm_at_b(&a, &b).expect("shapes agree");
            let naive = gemm::gemm_naive(&a.transpose(), &b).expect("shapes agree");
            prop_assert_eq!(fast.shape(), (m, n));
            prop_assert_eq!(bits(&fast), bits(&naive), "k {} m {} n {} seed {}", k, m, n, seed);
        }

        #[test]
        fn gemm_rows_depend_only_on_their_own_a_row(
            m in 1usize..12, k in 0usize..40, n in 1usize..40, seed in 0u64..u64::MAX,
            cut in (0usize..64, 0usize..64),
        ) {
            let (a, b) = update_operands(m, k, n, seed);
            let (r0, r1) = {
                let (x, y) = (cut.0 % (m + 1), cut.1 % (m + 1));
                (x.min(y), x.max(y))
            };
            let full = gemm::gemm(&a, &b).expect("shapes agree");
            let part = gemm::gemm(&row_slice(&a, r0, r1), &b).expect("shapes agree");
            prop_assert_eq!(
                bits(&part),
                bits(&row_slice(&full, r0, r1)),
                "rows {}..{} of m {} k {} n {} seed {}", r0, r1, m, k, n, seed
            );
        }

        #[test]
        fn gemm_tf32_matches_reference_bitwise(
            m in 0usize..12, k in 0usize..40, n in 1usize..40, seed in 0u64..u64::MAX,
        ) {
            let (a, b) = update_operands(m, k, n, seed);
            let fast = gemm::gemm_tf32(&a, &b).expect("shapes agree");
            let reference = gemm_tf32(&a, &b).expect("shapes agree");
            prop_assert_eq!(
                bits(&fast),
                bits(&reference),
                "m {} k {} n {} seed {}", m, k, n, seed
            );
        }
    }
}

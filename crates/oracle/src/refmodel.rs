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
//!   [`tcg_tensor::gemm::gemm_tf32`];
//! - [`mma_m16n16k8`] — the dense `m16n16k8` TF-32 MMA over staged tiles,
//!   rounding every operand element as its fragment is loaded — the
//!   description half of the TCU kernels' MMA, as SparseTIR pairs
//!   `wmma_sync_desc` with `wmma_sync_impl` — and the staged-tile kernel
//!   loops built on it: [`tcu_spmm`] (Listing 2: 16×8 sparse tiles, 8×16
//!   dense tiles per 16-wide slab) and [`tcu_sddmm`] (Listing 3: 16×8 row
//!   tiles, 8×16 gathered tiles per 8-wide slab, 16×16 edge frames).
//!
//! The dense update GEMMs [`tcg_tensor::gemm::gemm`] (`X·W`),
//! [`tcg_tensor::gemm::gemm_at_b`] (`Xᵀ·dY`) and
//! [`tcg_tensor::gemm::gemm_a_bt`] (`dY·Wᵀ`) are pinned against the triple
//! loop [`tcg_tensor::gemm::gemm_naive`], which stays in `tcg-tensor`, on
//! every vector-ISA instantiation the host supports: zero-skip in `A`,
//! `±inf`/NaN in `B` rows met only by zeros, finite overflow-scale `B`
//! (the path without the zero test), `n` across the 16-column panel edge,
//! `m` across the row tile, and row subsets (each output row depends only
//! on its own `A` row). The dot loop `gemm_a_bt` ran before it moved onto
//! the blocked kernel stays in the tests as its finite-input reference.
//!
//! Fast and reference must agree exactly: same probe outcomes and hit/miss
//! counters, same sector sequences, same result bits.

use tcg_gpusim::cache::{Probe, SECTOR_BYTES};
use tcg_gpusim::wmma::{WMMA_K, WMMA_M, WMMA_N};
use tcg_graph::CsrGraph;
use tcg_sgt::TranslatedGraph;
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

/// The `16×8` A tile of one `m16n16k8` MMA, row-major.
pub type TileA = [f32; WMMA_M * WMMA_K];
/// The `8×16` B tile of one `m16n16k8` MMA, row-major.
pub type TileB = [f32; WMMA_K * WMMA_N];
/// The `16×16` FP32 accumulator of one `m16n16k8` MMA, row-major.
pub type TileAcc = [f32; WMMA_M * WMMA_N];

/// `wmma::load_matrix_sync` of both tiles, then `wmma::mma_sync(acc, a, b,
/// acc)`: every element of `a` and `b` is rounded to TF-32 as its fragment
/// is loaded, and `acc += A·B` runs row by row with `k` ascending, one
/// separate multiply and add per term, skipping zero elements of the
/// rounded `A` (a zero A element meets any `B`, `±inf` and NaN included,
/// without a trace).
pub fn mma_m16n16k8(acc: &mut TileAcc, a: &TileA, b: &TileB) {
    let (a, b) = (a.map(round_to_tf32), b.map(round_to_tf32));
    for r in 0..WMMA_M {
        for k in 0..WMMA_K {
            let av = a[r * WMMA_K + k];
            if av == 0.0 {
                continue;
            }
            for c in 0..WMMA_N {
                acc[r * WMMA_N + c] += av * b[k * WMMA_N + c];
            }
        }
    }
}

/// Poisons accumulator element `(0, 0)` the way an armed ECC flip does
/// when the launch's first MMA consumes it; `ecc` is disarmed after use.
fn ecc_flip(acc: &mut TileAcc, ecc: &mut bool) {
    if std::mem::take(ecc) {
        acc[0] = f32::NAN;
    }
}

/// TC-GNN SpMM (Listing 2) over staged tiles: `out = (F ⊙ A) · x`, with
/// `F[e] = values[e]` (1.0 when `None`). Each row window accumulates one
/// `16×16` tile per 16-wide slab of `x`. For every TC block it builds the
/// `16×8` sparse tile from the block's chunk, and per slab the `8×16`
/// tile holding columns of `x`'s rows `atox[k]` (zero beyond the width and
/// for padding), and runs one MMA. Each window then stores its rows,
/// clipped to `x`'s width. With `ecc`, the first MMA of the first window
/// that has a TC block poisons its accumulator's `(0, 0)`.
pub fn tcu_spmm(
    t: &TranslatedGraph,
    x: &DenseMatrix,
    values: Option<&[f32]>,
    mut ecc: bool,
) -> DenseMatrix {
    let (n, d) = x.shape();
    let mut out = DenseMatrix::zeros(n, d);
    for w in 0..t.num_row_windows {
        let (row_lo, row_hi) = (w * WMMA_M, ((w + 1) * WMMA_M).min(n));
        let mut accs = vec![[0.0f32; WMMA_M * WMMA_N]; d.div_ceil(WMMA_N)];
        for b in t.win_block_start[w]..t.win_block_start[w + 1] {
            let (lo, hi) = t.block_chunk(b);
            let mut a = [0.0f32; WMMA_M * WMMA_K];
            for pos in lo..hi {
                let (r, k) = t.unpack(t.perm_pack[pos]);
                let e = t.perm_orig[pos] as usize;
                a[r * WMMA_K + k] = values.map_or(1.0, |v| v[e]);
            }
            let atox = t.block_atox(b);
            for (s, acc) in accs.iter_mut().enumerate() {
                let cols = s * WMMA_N..(s * WMMA_N + WMMA_N).min(d);
                let mut tile = [0.0f32; WMMA_K * WMMA_N];
                for (k, &u) in atox.iter().enumerate().filter(|&(_, &u)| u != u32::MAX) {
                    tile[k * WMMA_N..][..cols.len()]
                        .copy_from_slice(&x.row(u as usize)[cols.clone()]);
                }
                mma_m16n16k8(acc, &a, &tile);
                ecc_flip(acc, &mut ecc);
            }
        }
        for (s, acc) in accs.iter().enumerate() {
            let cols = s * WMMA_N..(s * WMMA_N + WMMA_N).min(d);
            for r in row_lo..row_hi {
                let src = &acc[(r - row_lo) * WMMA_N..][..cols.len()];
                out.row_mut(r)[cols.clone()].copy_from_slice(src);
            }
        }
    }
    out
}

/// TC-GNN SDDMM (Listing 3) over staged tiles: `out[e] = xa[src(e)] ·
/// xb[dst(e)]` for every edge of `csr`, in CSR edge order. Each row window
/// walks 16-column frames, each fusing two adjacent TC blocks of the
/// translation. Per 8-wide slab of the features it builds the `16×8` tile
/// of the window's `xa` rows and the `8×16` tile whose column `c` holds
/// `xb`'s row `atox[c]` (zero for padding), and runs one MMA; the frame's
/// edge entries are then read off the `16×16` accumulator. With `ecc`, the
/// first MMA of the first window that has a TC block poisons its
/// accumulator's `(0, 0)`.
pub fn tcu_sddmm(
    t: &TranslatedGraph,
    csr: &CsrGraph,
    xa: &DenseMatrix,
    xb: &DenseMatrix,
    mut ecc: bool,
) -> Vec<f32> {
    let (n, d) = xa.shape();
    let mut out = vec![0.0f32; csr.num_edges()];
    for w in 0..t.num_row_windows {
        let (row_lo, row_hi) = (w * WMMA_M, ((w + 1) * WMMA_M).min(n));
        let (b_lo, b_hi) = (t.win_block_start[w], t.win_block_start[w + 1]);
        for cb_lo in (b_lo..b_hi).step_by(2) {
            let frame = cb_lo..(cb_lo + 2).min(b_hi);
            let mut atox = [u32::MAX; WMMA_N];
            let mut edges = Vec::new();
            for (half, b) in frame.enumerate() {
                for (c8, &u) in t.block_atox(b).iter().enumerate() {
                    atox[c8 + half * WMMA_K] = u;
                }
                let (lo, hi) = t.block_chunk(b);
                for pos in lo..hi {
                    let (r, c8) = t.unpack(t.perm_pack[pos]);
                    edges.push((r, c8 + half * WMMA_K, t.perm_orig[pos] as usize));
                }
            }
            let mut acc = [0.0f32; WMMA_M * WMMA_N];
            for k0 in (0..d).step_by(WMMA_K) {
                let ks = k0..(k0 + WMMA_K).min(d);
                let mut a = [0.0f32; WMMA_M * WMMA_K];
                for r in row_lo..row_hi {
                    a[(r - row_lo) * WMMA_K..][..ks.len()].copy_from_slice(&xa.row(r)[ks.clone()]);
                }
                let mut b = [0.0f32; WMMA_K * WMMA_N];
                for (c, &u) in atox.iter().enumerate().filter(|&(_, &u)| u != u32::MAX) {
                    for (k, &v) in xb.row(u as usize)[ks.clone()].iter().enumerate() {
                        b[k * WMMA_N + c] = v;
                    }
                }
                mma_m16n16k8(&mut acc, &a, &b);
                ecc_flip(&mut acc, &mut ecc);
            }
            for (r, c, e) in edges {
                out[e] = acc[r * WMMA_N + c];
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use tcg_gpusim::cache::Cache;
    use tcg_gpusim::coalesce::sector_span;
    use tcg_tensor::gemm::{self, Isa};

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

    /// Operands for the branch-free path, which runs when every `B` entry
    /// is finite. About a third of `A` is `0.0`/`-0.0`, and every fourth
    /// inner index is an all-zero `A` column. `B` is finite, but some
    /// entries are large enough that products and sums overflow to `±inf`
    /// (and meet to NaN), and some are `±f32::MAX`, which TF-32 rounds to
    /// `±inf`.
    fn finite_operands(m: usize, k: usize, n: usize, seed: u64) -> (DenseMatrix, DenseMatrix) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = DenseMatrix::from_fn(m, k, |_, p| match rng.random_range(0..6) {
            _ if p % 4 == 3 => [0.0, -0.0][rng.random_range(0..2)],
            0 => 0.0,
            1 => -0.0,
            _ => rng.random_range(-1.0f32..1.0) * [1.0, 1e-3, 1e3][rng.random_range(0..3)],
        });
        let b = DenseMatrix::from_fn(k, n, |_, _| match rng.random_range(0..6) {
            0 => [f32::MAX, -f32::MAX][rng.random_range(0..2)],
            1 => rng.random_range(-1.0f32..1.0) * 1e38,
            _ => rng.random_range(-2.0f32..2.0),
        });
        (a, b)
    }

    /// Both operand families for `A (m×k) · B (k×n)`.
    fn both_families(
        m: usize,
        k: usize,
        n: usize,
        seed: u64,
    ) -> [(&'static str, DenseMatrix, DenseMatrix); 2] {
        let (a, b) = update_operands(m, k, n, seed);
        let (fa, fb) = finite_operands(m, k, n, seed);
        [("poison", a, b), ("finite", fa, fb)]
    }

    /// The dot loop `gemm_a_bt` ran before it moved onto the blocked `X·W`
    /// kernel: every term added, zero `A` entries included. On finite `B`
    /// a skipped `0·b` only adds `±0.0` to an accumulator that is never
    /// `-0.0`, so it is the reference for finite operands.
    fn dot_a_bt(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
        let (m, k) = a.shape();
        let n = b.rows();
        let mut c = DenseMatrix::zeros(m, n);
        for i in 0..m {
            let arow = a.row(i);
            let crow = c.row_mut(i);
            for (j, cj) in crow.iter_mut().enumerate().take(n) {
                let brow = b.row(j);
                let mut s = 0.0_f32;
                for p in 0..k {
                    s += arow[p] * brow[p];
                }
                *cj = s;
            }
        }
        c
    }

    fn bits(c: &DenseMatrix) -> Vec<u32> {
        c.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// Rows `r0..r1` of `a` as a matrix of their own.
    fn row_slice(a: &DenseMatrix, r0: usize, r1: usize) -> DenseMatrix {
        DenseMatrix::from_fn(r1 - r0, a.cols(), |i, p| a.get(r0 + i, p))
    }

    // Every property runs on every kernel instantiation this host has, not
    // only the one the free functions dispatch to.

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn gemm_matches_naive_bitwise(
            m in 0usize..20, k in 0usize..48, n in 1usize..40, seed in 0u64..u64::MAX,
        ) {
            for (family, a, b) in both_families(m, k, n, seed) {
                let naive = gemm::gemm_naive(&a, &b).expect("shapes agree");
                for isa in Isa::supported() {
                    let fast = isa.gemm(&a, &b).expect("shapes agree");
                    prop_assert_eq!(fast.shape(), (m, n));
                    prop_assert_eq!(
                        bits(&fast),
                        bits(&naive),
                        "{:?} {} m {} k {} n {} seed {}", isa, family, m, k, n, seed
                    );
                }
            }
        }

        #[test]
        fn gemm_at_b_matches_naive_of_transpose_bitwise(
            k in 0usize..48, m in 0usize..12, n in 1usize..40, seed in 0u64..u64::MAX,
        ) {
            // `a` is k×m; transposed it is the m×k operand with poison columns.
            for (family, at, b) in both_families(m, k, n, seed) {
                let a = at.transpose();
                let naive = gemm::gemm_naive(&at, &b).expect("shapes agree");
                for isa in Isa::supported() {
                    let fast = isa.gemm_at_b(&a, &b).expect("shapes agree");
                    prop_assert_eq!(fast.shape(), (m, n));
                    prop_assert_eq!(
                        bits(&fast),
                        bits(&naive),
                        "{:?} {} k {} m {} n {} seed {}", isa, family, k, m, n, seed
                    );
                }
            }
        }

        #[test]
        fn gemm_a_bt_matches_naive_of_transpose_bitwise(
            m in 0usize..20, k in 0usize..48, n in 1usize..40, seed in 0u64..u64::MAX,
        ) {
            // `b` is n×k; transposed it is the k×n operand with poison rows.
            for (family, a, bt) in both_families(m, k, n, seed) {
                let b = bt.transpose();
                let naive = gemm::gemm_naive(&a, &bt).expect("shapes agree");
                let dot = dot_a_bt(&a, &b);
                for isa in Isa::supported() {
                    let fast = isa.gemm_a_bt(&a, &b).expect("shapes agree");
                    prop_assert_eq!(fast.shape(), (m, n));
                    prop_assert_eq!(
                        bits(&fast),
                        bits(&naive),
                        "{:?} {} m {} k {} n {} seed {}", isa, family, m, k, n, seed
                    );
                    if family == "finite" {
                        prop_assert_eq!(
                            bits(&fast),
                            bits(&dot),
                            "{:?} dot loop, m {} k {} n {} seed {}", isa, m, k, n, seed
                        );
                    }
                }
            }
        }

        #[test]
        fn gemm_rows_depend_only_on_their_own_a_row(
            m in 1usize..20, k in 0usize..40, n in 1usize..40, seed in 0u64..u64::MAX,
            cut in (0usize..64, 0usize..64),
        ) {
            let (r0, r1) = {
                let (x, y) = (cut.0 % (m + 1), cut.1 % (m + 1));
                (x.min(y), x.max(y))
            };
            for (family, a, b) in both_families(m, k, n, seed) {
                for isa in Isa::supported() {
                    let full = isa.gemm(&a, &b).expect("shapes agree");
                    let part = isa.gemm(&row_slice(&a, r0, r1), &b).expect("shapes agree");
                    prop_assert_eq!(
                        bits(&part),
                        bits(&row_slice(&full, r0, r1)),
                        "{:?} {} rows {}..{} of m {} k {} n {} seed {}",
                        isa, family, r0, r1, m, k, n, seed
                    );
                }
            }
        }

        #[test]
        fn gemm_tf32_matches_reference_bitwise(
            m in 0usize..20, k in 0usize..40, n in 1usize..40, seed in 0u64..u64::MAX,
        ) {
            for (family, a, b) in both_families(m, k, n, seed) {
                let reference = gemm_tf32(&a, &b).expect("shapes agree");
                for isa in Isa::supported() {
                    let fast = isa.gemm_tf32(&a, &b).expect("shapes agree");
                    prop_assert_eq!(
                        bits(&fast),
                        bits(&reference),
                        "{:?} {} m {} k {} n {} seed {}", isa, family, m, k, n, seed
                    );
                }
            }
        }
    }

    /// `gemm_tf32` rounds `A` a block of rows at a time: a full block, a
    /// block plus one row and several blocks with a ragged tail must give
    /// the reference's bits too.
    #[test]
    fn gemm_tf32_row_blocks_match_reference_bitwise() {
        for (m, seed) in [(64, 1), (65, 2), (150, 3)] {
            for (family, a, b) in both_families(m, 37, 21, seed) {
                let reference = gemm_tf32(&a, &b).expect("shapes agree");
                for isa in Isa::supported() {
                    let fast = isa.gemm_tf32(&a, &b).expect("shapes agree");
                    assert_eq!(bits(&fast), bits(&reference), "{isa:?} {family} m {m}");
                }
            }
        }
    }

    // --- The m16n16k8 description and the TCU primitives -------------------

    /// Columns `k0..k0 + 8` of `m`'s first 16 rows.
    fn a_tile(m: &DenseMatrix, k0: usize) -> TileA {
        std::array::from_fn(|i| m.get(i / WMMA_K, k0 + i % WMMA_K))
    }

    /// Rows `k0..k0 + 8` of `m`'s first 16 columns.
    fn b_tile(m: &DenseMatrix, k0: usize) -> TileB {
        std::array::from_fn(|i| m.get(k0 + i / WMMA_N, i % WMMA_N))
    }

    #[test]
    fn mma_matches_reference_gemm_within_tf32() {
        let a = tcg_tensor::init::uniform(WMMA_M, WMMA_K, -1.0, 1.0, 1);
        let b = tcg_tensor::init::uniform(WMMA_K, WMMA_N, -1.0, 1.0, 2);
        let mut acc = [0.0f32; WMMA_M * WMMA_N];
        mma_m16n16k8(&mut acc, &a_tile(&a, 0), &b_tile(&b, 0));
        let reference = gemm::gemm_f64_reference(&a, &b).unwrap();
        let tol = tcg_tensor::tf32::tf32_rel_tolerance(WMMA_K) * 8.0;
        for r in 0..WMMA_M {
            for c in 0..WMMA_N {
                let d = (acc[r * WMMA_N + c] - reference.get(r, c)).abs();
                assert!(d < tol, "({r},{c}): {d} > {tol}");
            }
        }
    }

    #[test]
    fn accumulation_chains_across_k_tiles() {
        // A 16×16×32 GEMM as 4 chained k8 MMAs.
        let a = tcg_tensor::init::uniform(WMMA_M, 32, -1.0, 1.0, 3);
        let b = tcg_tensor::init::uniform(32, WMMA_N, -1.0, 1.0, 4);
        let mut acc = [0.0f32; WMMA_M * WMMA_N];
        for k0 in (0..32).step_by(WMMA_K) {
            mma_m16n16k8(&mut acc, &a_tile(&a, k0), &b_tile(&b, k0));
        }
        let reference = gemm::gemm_f64_reference(&a, &b).unwrap();
        let tol = tcg_tensor::tf32::tf32_rel_tolerance(32) * 16.0;
        for r in 0..WMMA_M {
            for c in 0..WMMA_N {
                assert!((acc[r * WMMA_N + c] - reference.get(r, c)).abs() < tol);
            }
        }
    }

    #[test]
    fn mma_rounds_both_operands_to_tf32() {
        // B = [I8 | 0]: acc(:, 0..8) is the rounded A, and A = [I8; 0]
        // passes B's rounded rows through.
        let x = 1.000_123_4_f32;
        let mut identity_b = [0.0f32; WMMA_K * WMMA_N];
        for i in 0..WMMA_K {
            identity_b[i * WMMA_N + i] = 1.0;
        }
        let mut acc = [0.0f32; WMMA_M * WMMA_N];
        mma_m16n16k8(&mut acc, &[x; WMMA_M * WMMA_K], &identity_b);
        assert_ne!(round_to_tf32(x), x);
        assert!(
            (0..WMMA_M * WMMA_K).all(|i| acc[i / WMMA_K * WMMA_N + i % WMMA_K] == round_to_tf32(x))
        );
        let mut identity_a = [0.0f32; WMMA_M * WMMA_K];
        for i in 0..WMMA_K {
            identity_a[i * WMMA_K + i] = 1.0;
        }
        let mut acc = [0.0f32; WMMA_M * WMMA_N];
        mma_m16n16k8(&mut acc, &identity_a, &[x; WMMA_K * WMMA_N]);
        assert!(acc[..WMMA_K * WMMA_N]
            .iter()
            .all(|&v| v == round_to_tf32(x)));
    }

    /// An operand value: mostly finite over several binades, with exact
    /// `±0.0`, subnormals, and (when `specials`) `±inf` and NaN.
    fn operand(rng: &mut rand::rngs::StdRng, specials: bool) -> f32 {
        match rng.random_range(0..24) {
            0..=3 => [0.0, -0.0][rng.random_range(0..2)],
            4 => f32::from_bits(rng.random_range(1..0x0080_0000)),
            5 if specials => [f32::INFINITY, f32::NEG_INFINITY, f32::NAN][rng.random_range(0..3)],
            _ => rng.random_range(-1.0f32..1.0) * [1.0, 1e-3, 1e3][rng.random_range(0..3)],
        }
    }

    /// Equal bits, or NaN on both sides: Rust leaves the sign and payload
    /// of a NaN that arithmetic returns unspecified, so an add meeting two
    /// different NaNs may return either, depending on operand order in the
    /// generated code.
    fn same_bits(a: f32, b: f32) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// Runs `kernel` twice on one launcher under one launch-memo key: a
    /// miss, which simulates the block bodies, and a hit, which replays
    /// their stats. Returns both outputs.
    fn miss_and_hit<T>(kernel: impl Fn(&mut tcg_gpusim::Launcher) -> T) -> [T; 2] {
        let mut l = tcg_gpusim::Launcher::new(tcg_gpusim::DeviceSpec::rtx3090());
        let miss = l.memoized(0u8, &kernel);
        let hit = l.memoized(0u8, &kernel);
        assert_eq!(l.memo_hits(), 1, "the repeat is a memo hit");
        [miss, hit]
    }

    /// A one-window graph of `WMMA_M` nodes whose row `r` has an edge to
    /// `cols[k]` for each `k` with `held(r, k)`. `cols` ascends, so each
    /// row's neighbors do.
    fn tile_graph(cols: &[u32], held: impl Fn(usize, usize) -> bool) -> CsrGraph {
        let mut ptr = vec![0];
        let mut nbrs = Vec::new();
        for r in 0..WMMA_M {
            nbrs.extend((0..cols.len()).filter(|&k| held(r, k)).map(|k| cols[k]));
            ptr.push(nbrs.len());
        }
        CsrGraph::from_raw(WMMA_M, ptr, nbrs).unwrap()
    }

    /// Requires equal bits, or NaN on both sides, at every element.
    fn assert_same_bits(what: &str, got: &[f32], want: &[f32]) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
            assert!(same_bits(g, w), "{what}: element {i}: {g} vs {w}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn tcgnn_spmm_matches_the_staged_tile_loop_bitwise(
            seed in 0u64..u64::MAX, width in 1usize..=2 * WMMA_N + 3, density in 0usize..=8,
        ) {
            use tcg_kernels::{common::SpmmKernel, spmm::TcgnnSpmm, SpmmProblem};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            // The sparse 16×8 tile: a position holds an edge with
            // probability density/8, and column `k` is neighbor `cols[k]`,
            // 8 distinct ids in ascending order.
            let held: Vec<bool> = (0..WMMA_M * WMMA_K).map(|_| rng.random_range(0..8) < density).collect();
            let mut cols: Vec<u32> = (0..WMMA_M as u32).collect();
            for i in (1..cols.len()).rev() {
                cols.swap(i, rng.random_range(0..=i));
            }
            cols.truncate(WMMA_K);
            cols.sort_unstable();
            let g = tile_graph(&cols, |r, k| held[r * WMMA_K + k]);
            // An edge's value may itself be zero or special, as may `x`.
            let values: Vec<f32> = (0..g.num_edges()).map(|_| operand(&mut rng, true)).collect();
            let x = DenseMatrix::from_fn(WMMA_M, width, |_, _| operand(&mut rng, true));
            let t = tcg_sgt::Sgt::builder().translate(&g).unwrap();
            let want = tcu_spmm(&t, &x, Some(&values), false);
            let prob = SpmmProblem::new(&g, Some(&values), &x).unwrap();
            let kernel = TcgnnSpmm::from_translated(t);
            for got in miss_and_hit(|l| kernel.execute(l, &prob).unwrap().0) {
                assert_same_bits(&format!("seed {seed}"), got.as_slice(), want.as_slice());
            }
        }

        #[test]
        fn tcgnn_sddmm_matches_the_staged_tile_loop_bitwise(
            seed in 0u64..u64::MAX, width in 1usize..=2 * WMMA_K + 3, density in 0usize..=8,
            b_specials in 0u8..2,
        ) {
            use tcg_kernels::sddmm::{SddmmKernel, TcgnnSddmm};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            // The 16×16 edge frame of two 16×8 tiles: a position holds an
            // edge with probability density/8.
            let held: Vec<bool> = (0..WMMA_M * WMMA_N).map(|_| rng.random_range(0..8) < density).collect();
            let cols: Vec<u32> = (0..WMMA_N as u32).collect();
            let g = tile_graph(&cols, |r, c| held[r * WMMA_N + c]);
            // A finite B operand takes the loop without the zero test.
            let xa = DenseMatrix::from_fn(WMMA_M, width, |_, _| operand(&mut rng, true));
            let xb = DenseMatrix::from_fn(WMMA_M, width, |_, _| operand(&mut rng, b_specials == 1));
            let t = tcg_sgt::Sgt::builder().translate(&g).unwrap();
            let want = tcu_sddmm(&t, &g, &xa, &xb, false);
            let kernel = TcgnnSddmm::from_translated(t);
            for got in miss_and_hit(|l| kernel.execute(l, &g, &xa, &xb).unwrap().0) {
                assert_same_bits(&format!("seed {seed}"), &got, &want);
            }
        }
    }
}

//! The translation itself: Algorithm 1, sequential and parallel.

use serde::{Deserialize, Serialize};
use tcg_fault::TcgError;
use tcg_graph::{CsrGraph, NodeId};

use crate::{TC_BLK_H, TC_BLK_W};

/// Shorthand for building a [`TcgError::CorruptMeta`].
fn corrupt(what: &'static str, detail: String) -> TcgError {
    TcgError::CorruptMeta { what, detail }
}

/// The output of Sparse Graph Translation over a CSR graph.
///
/// Core fields follow the paper's Algorithm 1: `win_partition[w]` is the
/// number of `TC_BLK_H × TC_BLK_W` TCU blocks in row window `w`;
/// `edge_to_col[e]` is the condensed column index (window-local) of edge
/// `e`; `edge_to_row[e]` is the source row of edge `e`.
///
/// The `perm_*` arrays implement Algorithm 2's `GetChunk`: within each
/// window, edges are re-ordered by condensed column so that every TC block
/// owns a *contiguous chunk* (`block_ptr`) — the kernels stream exactly
/// their chunk instead of filtering the whole window per block.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TranslatedGraph {
    /// Row-window height used (16 for TF-32).
    pub win_size: usize,
    /// TCU operand tile width used (8 for TF-32).
    pub blk_w: usize,
    /// Number of row windows (`ceil(num_nodes / win_size)`).
    pub num_row_windows: usize,
    /// TC blocks per row window: `ceil(unique_neighbors / blk_w)`.
    pub win_partition: Vec<u32>,
    /// Condensed column per edge, indexed by global edge id.
    pub edge_to_col: Vec<u32>,
    /// Source row per edge, indexed by global edge id.
    pub edge_to_row: Vec<NodeId>,
    /// Distinct neighbor count per row window (`eArrClean.size`).
    pub win_unique: Vec<u32>,
    /// Prefix sums of `win_partition`: window `w`'s blocks are the global
    /// block ids `[win_block_start[w], win_block_start[w + 1])`.
    pub win_block_start: Vec<usize>,
    /// Edge-chunk offsets per global block id (length `total_blocks + 1`):
    /// block `b` owns sorted positions `[block_ptr[b], block_ptr[b + 1])`.
    pub block_ptr: Vec<usize>,
    /// Original edge id at each sorted position.
    pub perm_orig: Vec<u32>,
    /// Packed tile coordinate at each sorted position:
    /// `row_in_window * blk_w + col_in_block`, one byte per edge (valid
    /// because `win_size × blk_w ≤ 256`). Kernels stream this instead of
    /// separate row/column arrays — 1 B of metadata per non-zero.
    pub perm_pack: Vec<u8>,
    /// Per-block `sparse_AToX_index` storage: the unique neighbor ids of
    /// block `b`, in condensed-column order, at
    /// `block_atox[block_atox_ptr[b] .. block_atox_ptr[b + 1]]`.
    pub block_atox: Vec<NodeId>,
    /// Offsets into [`TranslatedGraph::block_atox`] (length
    /// `total_blocks + 1`).
    pub block_atox_ptr: Vec<usize>,
}

impl TranslatedGraph {
    /// Total TCU blocks across all windows (SpMM mode, operand tiles).
    pub fn total_tc_blocks(&self) -> u64 {
        self.win_partition.iter().map(|&b| b as u64).sum()
    }

    /// Total TCU blocks when the translated graph drives SDDMM, where the
    /// sparse tile is the `16×16` *output* and two SpMM-width block columns
    /// fuse into one (paper Listing 3 line 9:
    /// `(blockPartition[bid]·BLK_W + BLK_H − 1) / BLK_H`).
    pub fn total_sddmm_blocks(&self) -> u64 {
        self.win_partition
            .iter()
            .map(|&b| (b as u64 * TC_BLK_W as u64).div_ceil(TC_BLK_H as u64))
            .sum()
    }

    /// Edge index range `[start, end)` of row window `w` in the CSR arrays.
    ///
    /// Returns [`TcgError::InvalidInput`] if `w` is not a window of this
    /// translation, and [`TcgError::CorruptMeta`] if the graph does not have
    /// the node count this translation was built for (a mismatched
    /// graph/translation pair would otherwise read out of bounds).
    pub fn window_edge_range(&self, csr: &CsrGraph, w: usize) -> Result<(usize, usize), TcgError> {
        if w >= self.num_row_windows {
            return Err(TcgError::InvalidInput {
                what: "sgt window index",
                detail: format!(
                    "window {w} out of range: translation has {} row windows",
                    self.num_row_windows
                ),
            });
        }
        if self.num_row_windows != csr.num_nodes().div_ceil(self.win_size) {
            return Err(corrupt(
                "window_edge_range",
                format!(
                    "translation has {} windows but graph has {} nodes at win_size {}",
                    self.num_row_windows,
                    csr.num_nodes(),
                    self.win_size
                ),
            ));
        }
        Ok(self.window_edge_range_unchecked(csr, w))
    }

    /// [`Self::window_edge_range`] without the range checks, for internal
    /// loops where `w < num_row_windows` holds by construction.
    #[inline]
    fn window_edge_range_unchecked(&self, csr: &CsrGraph, w: usize) -> (usize, usize) {
        let lo = w * self.win_size;
        let hi = ((w + 1) * self.win_size).min(csr.num_nodes());
        (csr.node_pointer()[lo], csr.node_pointer()[hi])
    }

    /// Per-window edge spans recovered from the translation itself (no CSR
    /// needed): entry `w` is the first global edge id of window `w`, entry
    /// `num_row_windows` is the edge count. Windows tile edge space
    /// contiguously and each non-empty window's chunks start/end at its CSR
    /// edge range (a [`Self::validate`] invariant), so the spans can be read
    /// back off `block_ptr`.
    pub(crate) fn window_edge_spans(&self) -> Vec<usize> {
        let mut spans = Vec::with_capacity(self.num_row_windows + 1);
        spans.push(0usize);
        let mut cursor = 0usize;
        for w in 0..self.num_row_windows {
            let (b_lo, b_hi) = (self.win_block_start[w], self.win_block_start[w + 1]);
            if b_lo < b_hi {
                cursor = self.block_ptr[b_hi];
            }
            spans.push(cursor);
        }
        spans
    }

    /// The sorted-position range of global block `b` (Algorithm 2's
    /// `GetChunk`).
    #[inline]
    pub fn block_chunk(&self, b: usize) -> (usize, usize) {
        (self.block_ptr[b], self.block_ptr[b + 1])
    }

    /// The unique neighbor ids (condensed-column order) of global block `b`
    /// — the `sparse_AToX_index` contents.
    #[inline]
    pub fn block_atox(&self, b: usize) -> &[NodeId] {
        &self.block_atox[self.block_atox_ptr[b]..self.block_atox_ptr[b + 1]]
    }

    /// Decodes a packed coordinate to `(row_in_window, col_in_block)`.
    #[inline]
    pub fn unpack(&self, pack: u8) -> (usize, usize) {
        (pack as usize / self.blk_w, pack as usize % self.blk_w)
    }

    /// Stable content checksum over every field of the translation: FNV-1a
    /// over whole elements, `h = (h ^ v)·P`, one multiply per element, in
    /// four interleaved lanes so the multiplies of neighbouring elements
    /// overlap instead of forming one serial chain.
    ///
    /// Each array's elements go to lanes 0–3 in turn (a tail of fewer than
    /// four starts again at lane 0), and the lanes fold into one word at
    /// the end with the same step. `O(E)` but branch-free and
    /// allocation-free — cheap enough for the serving cache to verify on
    /// every hit, orders of magnitude cheaper than a full
    /// [`TranslatedGraph::validate`] pass. Each step is a bijection of its
    /// lane for a fixed element and injective in the element for a fixed
    /// lane (`P` is odd), and the fold is a bijection of each lane for fixed
    /// others, so any mutation of one element of any array (a poisoned
    /// cache entry) changes the digest. The value is compared only with
    /// checksums of the same build; no report or pin carries it.
    pub fn checksum(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        fn step(h: u64, v: u64) -> u64 {
            const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
            (h ^ v).wrapping_mul(FNV_PRIME)
        }
        fn eat<T: Copy>(lanes: &mut [u64; 4], xs: &[T], word: impl Fn(T) -> u64) {
            let chunks = xs.chunks_exact(4);
            let tail = chunks.remainder();
            // Four named chains: a loop over the lane array does not keep
            // them in registers and runs at half the speed.
            let [mut a, mut b, mut c, mut d] = *lanes;
            for w in chunks {
                a = step(a, word(w[0]));
                b = step(b, word(w[1]));
                c = step(c, word(w[2]));
                d = step(d, word(w[3]));
            }
            *lanes = [a, b, c, d];
            for (h, &v) in lanes.iter_mut().zip(tail) {
                *h = step(*h, word(v));
            }
        }
        let mut lanes = [FNV_OFFSET; 4];
        let geometry = [self.win_size, self.blk_w, self.num_row_windows];
        eat(&mut lanes, &geometry, |v| v as u64);
        eat(&mut lanes, &self.win_partition, u64::from);
        eat(&mut lanes, &self.edge_to_col, u64::from);
        eat(&mut lanes, &self.edge_to_row, u64::from);
        eat(&mut lanes, &self.win_unique, u64::from);
        eat(&mut lanes, &self.win_block_start, |v| v as u64);
        eat(&mut lanes, &self.block_ptr, |v| v as u64);
        eat(&mut lanes, &self.perm_orig, u64::from);
        eat(&mut lanes, &self.perm_pack, u64::from);
        eat(&mut lanes, &self.block_atox, u64::from);
        eat(&mut lanes, &self.block_atox_ptr, |v| v as u64);
        lanes.into_iter().fold(FNV_OFFSET, step)
    }

    /// Content checksum of row window `w` alone, normalized to be
    /// *window-local*: edge ids are hashed relative to the window's first
    /// edge and rows relative to its first row, so the digest depends only
    /// on the window's own translated structure — never on how many edges
    /// precede it. An edit elsewhere in the graph leaves it unchanged, which
    /// is what lets delta-translation verify untouched windows cheaply.
    ///
    /// Returns [`TcgError::InvalidInput`] on an out-of-range window.
    pub fn window_fingerprint(&self, w: usize) -> Result<u64, TcgError> {
        if w >= self.num_row_windows {
            return Err(TcgError::InvalidInput {
                what: "sgt window index",
                detail: format!(
                    "window {w} out of range: translation has {} row windows",
                    self.num_row_windows
                ),
            });
        }
        let spans = self.window_edge_spans();
        Ok(self.window_fingerprint_with_span(w, spans[w], spans[w + 1]))
    }

    /// [`Self::window_fingerprint`] for every window, in one `O(E)` pass.
    pub fn window_fingerprints(&self) -> Vec<u64> {
        let spans = self.window_edge_spans();
        (0..self.num_row_windows)
            .map(|w| self.window_fingerprint_with_span(w, spans[w], spans[w + 1]))
            .collect()
    }

    fn window_fingerprint_with_span(&self, w: usize, e_lo: usize, e_hi: usize) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
            }
        };
        let row_lo = (w * self.win_size) as u64;
        eat(self.win_size as u64);
        eat(self.blk_w as u64);
        eat(u64::from(self.win_partition[w]));
        eat(u64::from(self.win_unique[w]));
        eat((e_hi - e_lo) as u64);
        for e in e_lo..e_hi {
            eat(u64::from(self.edge_to_col[e]));
            eat(u64::from(self.edge_to_row[e]).wrapping_sub(row_lo));
        }
        let (b_lo, b_hi) = (self.win_block_start[w], self.win_block_start[w + 1]);
        for b in b_lo..b_hi {
            eat((self.block_ptr[b + 1] - self.block_ptr[b]) as u64);
            for pos in self.block_ptr[b]..self.block_ptr[b + 1] {
                eat(u64::from(self.perm_pack[pos]));
                eat(u64::from(self.perm_orig[pos]).wrapping_sub(e_lo as u64));
            }
            let atox = &self.block_atox[self.block_atox_ptr[b]..self.block_atox_ptr[b + 1]];
            eat(atox.len() as u64);
            for &nid in atox {
                eat(u64::from(nid));
            }
        }
        h
    }

    /// Validates the translation against its source graph, returning
    /// [`TcgError::CorruptMeta`] on the first violated invariant.
    ///
    /// Checked invariants (the ones the TCU kernels silently rely on):
    ///
    /// - array extents: per-edge arrays match `csr.num_edges()`, per-window
    ///   arrays match `num_row_windows`, offset arrays are one longer than
    ///   what they index;
    /// - window partitioning: `win_partition[w] = ceil(win_unique[w] /
    ///   blk_w)` and `win_block_start` is its prefix sum;
    /// - chunking: `block_ptr` is monotone, tiles each window's CSR edge
    ///   range exactly, and ends at `num_edges`;
    /// - edge→condensed-column bounds: every `edge_to_col[e]` is below its
    ///   window's unique count, every `edge_to_row[e]` is inside its window;
    /// - dedup consistency: decoding each chunk position reproduces
    ///   `edge_to_row`/`edge_to_col`, `perm_orig` is a permutation of the
    ///   edge ids, and each block's `AToX` slot maps its condensed column
    ///   back to the edge's original neighbor id.
    ///
    /// Cost is `O(E)` — intended to run once per translation, before the
    /// first kernel launch, not per launch.
    pub fn validate(&self, csr: &CsrGraph) -> Result<(), TcgError> {
        self.validate_windows(csr, 0..self.num_row_windows)
    }

    /// [`TranslatedGraph::validate`] with the per-edge checks (column and
    /// row bounds, chunk decoding, `AToX` slots, and that each window's
    /// chunks permute exactly its own edges) run only on `windows`; the
    /// array extents, the window partition and the chunk offsets are
    /// checked whole. Costs `O(W + B)` plus the edges of `windows`: what a
    /// caller that already validated the other windows' content pays.
    /// An id that is not a window is [`TcgError::InvalidInput`].
    pub fn validate_windows(
        &self,
        csr: &CsrGraph,
        windows: impl IntoIterator<Item = usize>,
    ) -> Result<(), TcgError> {
        self.validate_structure(csr)?;
        let mut seen = Vec::new();
        for w in windows {
            if w >= self.num_row_windows {
                return Err(TcgError::InvalidInput {
                    what: "sgt window index",
                    detail: format!(
                        "window {w} out of range: translation has {} row windows",
                        self.num_row_windows
                    ),
                });
            }
            self.validate_window(csr, w, &mut seen)?;
        }
        Ok(())
    }

    /// The whole-translation part of [`TranslatedGraph::validate`]: array
    /// extents, the window partition and its prefix sum, and monotone chunk
    /// and `AToX` offsets that cover the edges. `O(W + B)`.
    fn validate_structure(&self, csr: &CsrGraph) -> Result<(), TcgError> {
        let num_edges = csr.num_edges();
        let n = csr.num_nodes();
        if self.win_size == 0 || self.blk_w == 0 {
            return Err(corrupt(
                "geometry",
                format!("win_size {} x blk_w {}", self.win_size, self.blk_w),
            ));
        }
        if self.num_row_windows != n.div_ceil(self.win_size) {
            return Err(corrupt(
                "num_row_windows",
                format!(
                    "{} windows for {} nodes at win_size {}",
                    self.num_row_windows, n, self.win_size
                ),
            ));
        }
        for (what, len, expect) in [
            (
                "win_partition",
                self.win_partition.len(),
                self.num_row_windows,
            ),
            ("win_unique", self.win_unique.len(), self.num_row_windows),
            (
                "win_block_start",
                self.win_block_start.len(),
                self.num_row_windows + 1,
            ),
            ("edge_to_col", self.edge_to_col.len(), num_edges),
            ("edge_to_row", self.edge_to_row.len(), num_edges),
            ("perm_orig", self.perm_orig.len(), num_edges),
            ("perm_pack", self.perm_pack.len(), num_edges),
        ] {
            if len != expect {
                return Err(corrupt(what, format!("length {len}, expected {expect}")));
            }
        }
        if self.win_block_start.first() != Some(&0) {
            return Err(corrupt("win_block_start", "does not start at 0".into()));
        }
        for w in 0..self.num_row_windows {
            let blocks = (self.win_unique[w] as usize).div_ceil(self.blk_w);
            if self.win_partition[w] as usize != blocks {
                return Err(corrupt(
                    "win_partition",
                    format!(
                        "window {w}: {} blocks for {} unique neighbors (blk_w {})",
                        self.win_partition[w], self.win_unique[w], self.blk_w
                    ),
                ));
            }
            if self.win_block_start[w + 1] != self.win_block_start[w] + blocks {
                return Err(corrupt(
                    "win_block_start",
                    format!("window {w}: prefix sum breaks"),
                ));
            }
        }
        let total_blocks = *self.win_block_start.last().unwrap();
        if self.block_ptr.len() != total_blocks + 1 {
            return Err(corrupt(
                "block_ptr",
                format!(
                    "length {}, expected {}",
                    self.block_ptr.len(),
                    total_blocks + 1
                ),
            ));
        }
        if self.block_atox_ptr.len() != total_blocks + 1 {
            return Err(corrupt(
                "block_atox_ptr",
                format!(
                    "length {}, expected {}",
                    self.block_atox_ptr.len(),
                    total_blocks + 1
                ),
            ));
        }
        if self.block_ptr.first() != Some(&0) || *self.block_ptr.last().unwrap() != num_edges {
            return Err(corrupt(
                "block_ptr",
                format!(
                    "chunks cover {:?}, expected 0..{num_edges}",
                    (self.block_ptr.first(), self.block_ptr.last())
                ),
            ));
        }
        if self.block_atox_ptr.first() != Some(&0)
            || *self.block_atox_ptr.last().unwrap() != self.block_atox.len()
        {
            return Err(corrupt(
                "block_atox_ptr",
                "offsets do not cover block_atox".into(),
            ));
        }
        for b in 0..total_blocks {
            if self.block_ptr[b] > self.block_ptr[b + 1] {
                return Err(corrupt("block_ptr", format!("block {b}: not monotone")));
            }
            if self.block_atox_ptr[b] > self.block_atox_ptr[b + 1] {
                return Err(corrupt(
                    "block_atox_ptr",
                    format!("block {b}: not monotone"),
                ));
            }
        }
        Ok(())
    }

    /// The per-edge part of [`TranslatedGraph::validate`] for window `w`,
    /// which must be in range; `seen` is scratch space.
    fn validate_window(
        &self,
        csr: &CsrGraph,
        w: usize,
        seen: &mut Vec<bool>,
    ) -> Result<(), TcgError> {
        let n = csr.num_nodes();
        let edge_list = csr.edge_list();
        let (e_lo, e_hi) = self.window_edge_range_unchecked(csr, w);
        let (b_lo, b_hi) = (self.win_block_start[w], self.win_block_start[w + 1]);
        if b_lo < b_hi && (self.block_ptr[b_lo] != e_lo || self.block_ptr[b_hi] != e_hi) {
            return Err(corrupt(
                "block_ptr",
                format!("window {w}: chunks do not tile CSR edge range {e_lo}..{e_hi}"),
            ));
        }
        if b_lo == b_hi && e_lo != e_hi {
            return Err(corrupt(
                "win_partition",
                format!("window {w}: {} edges but zero blocks", e_hi - e_lo),
            ));
        }
        let unique = self.win_unique[w] as usize;
        for e in e_lo..e_hi {
            if self.edge_to_col[e] as usize >= unique {
                return Err(corrupt(
                    "edge_to_col",
                    format!(
                        "edge {e} maps to condensed column {} of {unique} in window {w}",
                        self.edge_to_col[e]
                    ),
                ));
            }
            let row = self.edge_to_row[e] as usize;
            if row < w * self.win_size || row >= ((w + 1) * self.win_size).min(n) {
                return Err(corrupt(
                    "edge_to_row",
                    format!("edge {e}: row {row} outside window {w}"),
                ));
            }
        }
        // The chunks hold exactly `e_hi - e_lo` positions, so distinct edge
        // ids from the window's own range permute it.
        seen.clear();
        seen.resize(e_hi - e_lo, false);
        for b in b_lo..b_hi {
            let local_b = b - b_lo;
            let atox_len = self.block_atox_ptr[b + 1] - self.block_atox_ptr[b];
            let expect_slots = unique.saturating_sub(local_b * self.blk_w).min(self.blk_w);
            if atox_len != expect_slots {
                return Err(corrupt(
                    "block_atox",
                    format!("block {b}: {atox_len} AToX slots, expected {expect_slots}"),
                ));
            }
            let atox = &self.block_atox[self.block_atox_ptr[b]..self.block_atox_ptr[b + 1]];
            let (lo, hi) = (self.block_ptr[b], self.block_ptr[b + 1]);
            for pos in lo..hi {
                let e = self.perm_orig[pos] as usize;
                if !(e_lo..e_hi).contains(&e) {
                    return Err(corrupt(
                        "perm_orig",
                        format!("position {pos}: edge id {e} outside window {w}'s {e_lo}..{e_hi}"),
                    ));
                }
                if std::mem::replace(&mut seen[e - e_lo], true) {
                    return Err(corrupt(
                        "perm_orig",
                        format!("edge {e} appears twice (not a permutation)"),
                    ));
                }
                let (r, c) = self.unpack(self.perm_pack[pos]);
                if w * self.win_size + r != self.edge_to_row[e] as usize {
                    return Err(corrupt(
                        "perm_pack",
                        format!("position {pos}: packed row disagrees with edge_to_row"),
                    ));
                }
                if local_b * self.blk_w + c != self.edge_to_col[e] as usize {
                    return Err(corrupt(
                        "perm_pack",
                        format!("position {pos}: packed column disagrees with edge_to_col"),
                    ));
                }
                if c >= atox.len() || atox[c] != edge_list[e] {
                    return Err(corrupt(
                        "block_atox",
                        format!("block {b}: column {c} does not map back to edge {e}'s neighbor"),
                    ));
                }
            }
        }
        Ok(())
    }

    /// Memory footprint of the translation metadata in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.win_partition.len() * 4
            + self.win_unique.len() * 4
            + self.edge_to_col.len() * 4
            + self.edge_to_row.len() * 4
            + self.win_block_start.len() * 8
            + self.block_ptr.len() * 8
            + self.perm_orig.len() * 4
            + self.perm_pack.len()
            + self.block_atox.len() * 4
            + self.block_atox_ptr.len() * 8
    }
}

/// Per-window translation result, assembled into the global arrays after
/// all windows are processed (keeps the parallel path trivially safe).
pub(crate) struct WindowOut {
    pub(crate) unique: u32,
    pub(crate) blocks: u32,
    /// `(col, row, orig_edge, nid)` sorted by `col` (stable in edge order).
    pub(crate) sorted: Vec<(u32, NodeId, u32, NodeId)>,
}

pub(crate) fn translate_window(
    csr: &CsrGraph,
    w: usize,
    win_size: usize,
    blk_w: usize,
    edge_to_col: &mut [u32],
    edge_to_row: &mut [NodeId],
    edge_base: usize,
) -> WindowOut {
    let node_pointer = csr.node_pointer();
    let edge_list = csr.edge_list();
    let n = csr.num_nodes();
    let row_lo = w * win_size;
    let row_hi = ((w + 1) * win_size).min(n);
    let win_start = node_pointer[row_lo];
    let win_end = node_pointer[row_hi];

    // Sort + deduplicate the neighbor ids of this window (Algorithm 1
    // lines 5-6: `Sort`, `Deduplication`).
    let mut uniq: Vec<NodeId> = edge_list[win_start..win_end].to_vec();
    uniq.sort_unstable();
    uniq.dedup();

    // Edges-to-column mapping (lines 8-10): the condensed column of an edge
    // is the rank of its neighbor among the window's distinct neighbors.
    let mut sorted: Vec<(u32, NodeId, u32, NodeId)> = Vec::with_capacity(win_end - win_start);
    for r in row_lo..row_hi {
        for e in node_pointer[r]..node_pointer[r + 1] {
            let nid = edge_list[e];
            let col =
                uniq.binary_search(&nid)
                    .expect("neighbor is in the window's deduplicated set") as u32;
            edge_to_col[e - edge_base] = col;
            edge_to_row[e - edge_base] = r as NodeId;
            sorted.push((col, r as NodeId, e as u32, nid));
        }
    }
    // Column-major chunking for Algorithm 2's GetChunk.
    sorted.sort_by_key(|t| t.0);

    WindowOut {
        unique: uniq.len() as u32,
        blocks: uniq.len().div_ceil(blk_w) as u32,
        sorted,
    }
}

/// The per-block output arrays Algorithm 2 appends to, bundled so window
/// assembly has a single append target shared by from-scratch translation
/// and delta-retranslation splicing.
pub(crate) struct BlockArrays {
    pub(crate) block_ptr: Vec<usize>,
    pub(crate) perm_orig: Vec<u32>,
    pub(crate) perm_pack: Vec<u8>,
    pub(crate) block_atox: Vec<NodeId>,
    pub(crate) block_atox_ptr: Vec<usize>,
}

impl BlockArrays {
    /// Empty arrays with the leading sentinel 0 in both pointer vectors.
    pub(crate) fn with_capacity(total_blocks: usize, num_edges: usize, atox: usize) -> Self {
        let mut block_ptr = Vec::with_capacity(total_blocks + 1);
        block_ptr.push(0usize);
        let mut block_atox_ptr = Vec::with_capacity(total_blocks + 1);
        block_atox_ptr.push(0usize);
        Self {
            block_ptr,
            perm_orig: Vec::with_capacity(num_edges),
            perm_pack: Vec::with_capacity(num_edges),
            block_atox: Vec::with_capacity(atox),
            block_atox_ptr,
        }
    }
}

/// Appends one window's chunked output (Algorithm 2's `GetChunk`) onto the
/// global arrays. The append is *local*: it only reads the running tails of
/// the output vectors, so the same code path serves both from-scratch
/// assembly and delta-retranslation splicing — a touched window re-assembled
/// here is bitwise-identical to what a full translation would produce.
pub(crate) fn assemble_window_into(
    o: &WindowOut,
    w: usize,
    win_size: usize,
    blk_w: usize,
    out: &mut BlockArrays,
) {
    let row_base = (w * win_size) as u32;
    let mut cursor = 0usize;
    for b in 0..o.blocks as usize {
        let col_lo = (b * blk_w) as u32;
        let col_hi = col_lo + blk_w as u32;
        while cursor < o.sorted.len() && o.sorted[cursor].0 < col_hi {
            let (col, row, orig, nid) = o.sorted[cursor];
            let r_in_win = (row - row_base) as usize;
            let c_in_blk = (col - col_lo) as usize;
            out.perm_pack.push((r_in_win * blk_w + c_in_blk) as u8);
            out.perm_orig.push(orig);
            // AToX: first occurrence of each condensed column.
            let local = out.block_atox_ptr.last().unwrap() + c_in_blk;
            if out.block_atox.len() <= local {
                out.block_atox.resize(local + 1, NodeId::MAX);
            }
            out.block_atox[local] = nid;
            cursor += 1;
        }
        // Columns inside a block are dense (condensation), so the block
        // owns exactly `min(blk_w, unique - col_lo)` AToX slots.
        let slots = (o.unique as usize).saturating_sub(b * blk_w).min(blk_w);
        let base = *out.block_atox_ptr.last().unwrap();
        if out.block_atox.len() < base + slots {
            out.block_atox.resize(base + slots, NodeId::MAX);
        }
        out.block_atox_ptr.push(base + slots);
        out.block_ptr.push(out.perm_pack.len());
    }
    debug_assert_eq!(cursor, o.sorted.len());
}

fn assemble(
    csr: &CsrGraph,
    win_size: usize,
    blk_w: usize,
    outs: Vec<WindowOut>,
    edge_to_col: Vec<u32>,
    edge_to_row: Vec<NodeId>,
) -> TranslatedGraph {
    let num_row_windows = outs.len();
    let num_edges = csr.num_edges();
    let mut win_partition = Vec::with_capacity(num_row_windows);
    let mut win_unique = Vec::with_capacity(num_row_windows);
    let mut win_block_start = Vec::with_capacity(num_row_windows + 1);
    win_block_start.push(0usize);
    for o in &outs {
        win_partition.push(o.blocks);
        win_unique.push(o.unique);
        win_block_start.push(win_block_start.last().unwrap() + o.blocks as usize);
    }
    let total_blocks = *win_block_start.last().unwrap();

    let mut arrays = BlockArrays::with_capacity(total_blocks, num_edges, 0);
    for (w, o) in outs.iter().enumerate() {
        assemble_window_into(o, w, win_size, blk_w, &mut arrays);
    }

    TranslatedGraph {
        win_size,
        blk_w,
        num_row_windows,
        win_partition,
        edge_to_col,
        edge_to_row,
        win_unique,
        win_block_start,
        block_ptr: arrays.block_ptr,
        perm_orig: arrays.perm_orig,
        perm_pack: arrays.perm_pack,
        block_atox: arrays.block_atox,
        block_atox_ptr: arrays.block_atox_ptr,
    }
}

/// Post-translation self-check run at the end of every translation path.
///
/// Under `TCG_VERIFY=1` the full [`TranslatedGraph::validate`] pass runs and
/// corruption surfaces as a typed [`TcgError::CorruptMeta`]. Otherwise the
/// check runs only in debug builds (like a `debug_assert!`), where a failure
/// means the translator itself is buggy and panicking is the right response.
/// Cost is `O(E)`, the same order as translation.
pub(crate) fn post_validate(t: &TranslatedGraph, csr: &CsrGraph) -> Result<(), TcgError> {
    if tcg_fault::verify_requested() {
        return t.validate(csr);
    }
    #[cfg(debug_assertions)]
    if let Err(e) = t.validate(csr) {
        panic!("SGT produced a corrupt translation: {e}");
    }
    Ok(())
}

/// Entry point to the fluent SGT API: [`Sgt::builder`] mirrors
/// `Engine::builder` from `tcg-gnn`.
///
/// ```ignore
/// let t = Sgt::builder().window(16).block_width(8).threads(4).translate(&csr)?;
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Sgt;

impl Sgt {
    /// Starts a translation builder with the paper's TF-32 geometry
    /// (`16 × 8`) and a single thread.
    pub fn builder() -> SgtBuilder {
        SgtBuilder::default()
    }
}

/// Fluent configuration for a Sparse Graph Translation run.
///
/// Geometry and parallelism are named knobs, and the terminal
/// [`SgtBuilder::translate`] call returns a typed error on invalid geometry
/// instead of panicking. The builder is `Copy`, so one configured
/// instance can translate many graphs.
#[derive(Debug, Clone, Copy)]
#[must_use]
pub struct SgtBuilder {
    win_size: usize,
    blk_w: usize,
    threads: usize,
}

impl Default for SgtBuilder {
    fn default() -> Self {
        SgtBuilder {
            win_size: TC_BLK_H,
            blk_w: TC_BLK_W,
            threads: 1,
        }
    }
}

impl SgtBuilder {
    /// Row-window height (the paper's `TC_BLK_H`, 16 for TF-32).
    pub fn window(mut self, win_size: usize) -> Self {
        self.win_size = win_size;
        self
    }

    /// TCU operand tile width (the paper's `TC_BLK_W`, 8 for TF-32).
    pub fn block_width(mut self, blk_w: usize) -> Self {
        self.blk_w = blk_w;
        self
    }

    /// Host threads for the window loop. Values `<= 1` run sequentially;
    /// graphs with fewer than `2 * threads` windows fall back to the
    /// sequential path (the split overhead would dominate).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Runs Algorithm 1 (+ Algorithm 2's `GetChunk`) over `csr`.
    ///
    /// Rejects zero or byte-overflowing window geometry
    /// (`win_size * blk_w > 256`) with [`TcgError::InvalidInput`]. Row
    /// windows are independent (the paper notes SGT "can be easily
    /// parallelized"), so with `threads > 1` windows are split across scoped
    /// threads and assembly of the global arrays is a cheap serial pass —
    /// the result is bitwise-identical to the sequential path.
    pub fn translate(&self, csr: &CsrGraph) -> Result<TranslatedGraph, TcgError> {
        let (win_size, blk_w) = (self.win_size, self.blk_w);
        if win_size == 0 || blk_w == 0 {
            return Err(TcgError::InvalidInput {
                what: "sgt window geometry",
                detail: format!("win_size {win_size} x blk_w {blk_w} must be positive"),
            });
        }
        if win_size * blk_w > 256 {
            return Err(TcgError::InvalidInput {
                what: "sgt window geometry",
                detail: format!(
                    "win_size {win_size} x blk_w {blk_w} > 256: packed coordinate must fit one byte"
                ),
            });
        }
        let n = csr.num_nodes();
        let num_row_windows = n.div_ceil(win_size);
        let mut edge_to_col = vec![0u32; csr.num_edges()];
        let mut edge_to_row = vec![0 as NodeId; csr.num_edges()];

        let outs: Vec<WindowOut> = if self.threads == 1 || num_row_windows < 2 * self.threads {
            (0..num_row_windows)
                .map(|w| {
                    translate_window(
                        csr,
                        w,
                        win_size,
                        blk_w,
                        &mut edge_to_col,
                        &mut edge_to_row,
                        0,
                    )
                })
                .collect()
        } else {
            let per = num_row_windows.div_ceil(self.threads);
            let node_pointer = csr.node_pointer();

            // Split the per-edge outputs into disjoint window-aligned slices.
            let mut ec_rest: &mut [u32] = &mut edge_to_col;
            let mut er_rest: &mut [NodeId] = &mut edge_to_row;
            let mut jobs = Vec::new();
            let mut w0 = 0usize;
            while w0 < num_row_windows {
                let w1 = (w0 + per).min(num_row_windows);
                let e0 = node_pointer[w0 * win_size];
                let e1 = node_pointer[(w1 * win_size).min(n)];
                let (ec, rest) = ec_rest.split_at_mut(e1 - e0);
                ec_rest = rest;
                let (er, rest) = er_rest.split_at_mut(e1 - e0);
                er_rest = rest;
                jobs.push((w0, w1, e0, ec, er));
                w0 = w1;
            }

            let mut chunk_outs: Vec<(usize, Vec<WindowOut>)> = std::thread::scope(|scope| {
                let handles: Vec<_> = jobs
                    .into_iter()
                    .map(|(w_lo, w_hi, e_base, ec, er)| {
                        scope.spawn(move || {
                            let outs: Vec<WindowOut> = (w_lo..w_hi)
                                .map(|w| translate_window(csr, w, win_size, blk_w, ec, er, e_base))
                                .collect();
                            (w_lo, outs)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("sgt worker panicked"))
                    .collect()
            });

            chunk_outs.sort_by_key(|(w_lo, _)| *w_lo);
            chunk_outs.into_iter().flat_map(|(_, o)| o).collect()
        };

        let t = assemble(csr, win_size, blk_w, outs, edge_to_col, edge_to_row);
        post_validate(&t, csr)?;
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcg_graph::gen;

    /// The paper's Figure 4 example, adapted: an 8-node graph, window = 4.
    fn figure4_like() -> CsrGraph {
        // Rows 0..4 reference scattered columns {1, 5, 6}, {5}, {1, 6}, {6}.
        CsrGraph::from_raw(
            8,
            vec![0, 3, 4, 6, 7, 7, 7, 7, 7],
            vec![1, 5, 6, 5, 1, 6, 6],
        )
        .unwrap()
    }

    #[test]
    fn condenses_columns_by_rank() {
        let g = figure4_like();
        let t = Sgt::builder()
            .window(4)
            .block_width(2)
            .translate(&g)
            .unwrap();
        // Window 0: distinct neighbors {1, 5, 6} → cols {0, 1, 2}.
        assert_eq!(t.win_unique[0], 3);
        assert_eq!(t.win_partition[0], 2); // ceil(3/2)
        assert_eq!(t.edge_to_col[0..7], [0, 1, 2, 1, 0, 2, 2]);
        assert_eq!(t.edge_to_row.to_vec(), vec![0, 0, 0, 1, 2, 2, 3]);
        // Window 1 is empty.
        assert_eq!(t.win_unique[1], 0);
        assert_eq!(t.win_partition[1], 0);
    }

    #[test]
    fn chunks_partition_edges_by_column_frame() {
        let g = figure4_like();
        let t = Sgt::builder()
            .window(4)
            .block_width(2)
            .translate(&g)
            .unwrap();
        // Block 0 of window 0 owns cols {0, 1}: edges with col 0 or 1.
        let (lo, hi) = t.block_chunk(0);
        assert!(t.perm_pack[lo..hi].iter().all(|&p| t.unpack(p).1 < 2));
        // Block 1 owns col 2, which is local column 0 of that block.
        let (lo2, hi2) = t.block_chunk(1);
        assert_eq!(lo2, hi);
        assert!(t.perm_pack[lo2..hi2].iter().all(|&p| t.unpack(p).1 == 0));
        assert_eq!(hi2, 7, "all 7 edges chunked");
        // AToX of block 0 is {1, 5}; of block 1 is {6}.
        assert_eq!(t.block_atox(0), &[1, 5]);
        assert_eq!(t.block_atox(1), &[6]);
    }

    #[test]
    fn perm_is_a_permutation_consistent_with_maps() {
        let g = gen::rmat_default(2048, 20_000, 2).unwrap();
        let t = Sgt::builder().translate(&g).unwrap();
        let mut seen = vec![false; g.num_edges()];
        for b in 0..t.total_tc_blocks() as usize {
            let w = t
                .win_block_start
                .partition_point(|&s| s <= b)
                .saturating_sub(1);
            let local_b = b - t.win_block_start[w];
            let atox = t.block_atox(b);
            let (lo, hi) = t.block_chunk(b);
            for pos in lo..hi {
                let e = t.perm_orig[pos] as usize;
                assert!(!seen[e]);
                seen[e] = true;
                let (r, c) = t.unpack(t.perm_pack[pos]);
                assert_eq!(
                    (w * t.win_size + r) as u32,
                    t.edge_to_row[e],
                    "row reconstruction"
                );
                assert_eq!(
                    (local_b * t.blk_w + c) as u32,
                    t.edge_to_col[e],
                    "column reconstruction"
                );
                assert_eq!(atox[c], g.edge_list()[e], "AToX maps column to id");
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn block_chunks_tile_the_window_ranges() {
        let g = gen::citation(1000, 8000, 3).unwrap();
        let t = Sgt::builder().translate(&g).unwrap();
        assert_eq!(*t.block_ptr.last().unwrap(), g.num_edges());
        for w in 0..t.num_row_windows {
            let (e_lo, e_hi) = t.window_edge_range(&g, w).unwrap();
            let b_lo = t.win_block_start[w];
            let b_hi = t.win_block_start[w + 1];
            if b_lo == b_hi {
                continue;
            }
            assert_eq!(t.block_ptr[b_lo], e_lo, "window {w} chunk start");
            assert_eq!(t.block_ptr[b_hi], e_hi, "window {w} chunk end");
            for b in b_lo..b_hi {
                let (lo, hi) = t.block_chunk(b);
                let frame = (b - b_lo) * t.blk_w;
                for pos in lo..hi {
                    let e = t.perm_orig[pos] as usize;
                    let c = t.edge_to_col[e] as usize;
                    assert!(c >= frame && c < frame + t.blk_w);
                }
            }
        }
    }

    #[test]
    fn window_edge_range_checks_bounds_and_shape() {
        // 40 nodes → 3 windows at win 16; the last window is ragged
        // (rows 32..40 only).
        let g = gen::erdos_renyi(40, 200, 5).unwrap();
        let t = Sgt::builder().translate(&g).unwrap();
        assert_eq!(t.num_row_windows, 3);
        let (lo, hi) = t.window_edge_range(&g, 2).unwrap();
        assert_eq!(lo, g.node_pointer()[32], "ragged window starts at row 32");
        assert_eq!(hi, g.num_edges(), "ragged window ends at the edge count");
        // One-past-the-end window is a typed error, not a panic or a
        // zero-length range.
        assert!(matches!(
            t.window_edge_range(&g, t.num_row_windows),
            Err(TcgError::InvalidInput { .. })
        ));
        assert!(t.window_edge_range(&g, usize::MAX).is_err());
        // A graph with the wrong node count is detected as corrupt metadata.
        let other = gen::erdos_renyi(80, 200, 5).unwrap();
        assert!(matches!(
            t.window_edge_range(&other, 0),
            Err(TcgError::CorruptMeta { .. })
        ));
        // Empty windows: an edgeless graph spans (0, 0) in every window and
        // still bounds-checks its window index.
        let z = CsrGraph::from_raw(33, vec![0; 34], vec![]).unwrap();
        let tz = Sgt::builder().translate(&z).unwrap();
        assert_eq!(tz.num_row_windows, 3);
        for w in 0..tz.num_row_windows {
            assert_eq!(tz.window_edge_range(&z, w).unwrap(), (0, 0));
        }
        assert!(tz.window_edge_range(&z, tz.num_row_windows).is_err());
    }

    #[test]
    fn same_neighbor_same_column_within_window() {
        let g = gen::erdos_renyi(300, 3000, 1).unwrap();
        let t = Sgt::builder().translate(&g).unwrap();
        for w in 0..t.num_row_windows {
            let (lo, hi) = t.window_edge_range(&g, w).unwrap();
            let mut col_of = std::collections::HashMap::new();
            for e in lo..hi {
                let nid = g.edge_list()[e];
                let col = t.edge_to_col[e];
                assert!((col as usize) < t.win_unique[w] as usize);
                if let Some(&prev) = col_of.get(&nid) {
                    assert_eq!(prev, col, "neighbor {nid} got two columns");
                } else {
                    col_of.insert(nid, col);
                }
            }
            // Columns are exactly 0..unique.
            let mut cols: Vec<u32> = col_of.values().copied().collect();
            cols.sort_unstable();
            let expect: Vec<u32> = (0..t.win_unique[w]).collect();
            assert_eq!(cols, expect);
        }
    }

    #[test]
    fn column_order_preserves_neighbor_order() {
        let g = gen::rmat_default(512, 4000, 2).unwrap();
        let t = Sgt::builder().translate(&g).unwrap();
        for w in 0..t.num_row_windows {
            let (lo, hi) = t.window_edge_range(&g, w).unwrap();
            for e1 in lo..hi {
                for e2 in lo..hi {
                    let (n1, n2) = (g.edge_list()[e1], g.edge_list()[e2]);
                    if n1 < n2 {
                        assert!(t.edge_to_col[e1] < t.edge_to_col[e2]);
                    }
                }
                if hi - lo > 64 {
                    break; // keep quadratic check bounded
                }
            }
        }
    }

    #[test]
    fn partition_matches_unique_count() {
        let g = gen::citation(1000, 8000, 3).unwrap();
        let t = Sgt::builder().translate(&g).unwrap();
        for w in 0..t.num_row_windows {
            assert_eq!(
                t.win_partition[w],
                (t.win_unique[w] as usize).div_ceil(TC_BLK_W) as u32
            );
        }
        assert_eq!(
            t.total_tc_blocks() as usize,
            *t.win_block_start.last().unwrap()
        );
    }

    #[test]
    fn edge_to_row_matches_csr() {
        let g = gen::erdos_renyi(200, 2000, 4).unwrap();
        let t = Sgt::builder().translate(&g).unwrap();
        let mut e = 0usize;
        for v in 0..g.num_nodes() {
            for _ in g.neighbors(v) {
                assert_eq!(t.edge_to_row[e] as usize, v);
                e += 1;
            }
        }
    }

    #[test]
    fn sddmm_block_fusion() {
        let g = figure4_like();
        let t16 = Sgt::builder().translate(&g).unwrap();
        assert!(t16.total_sddmm_blocks() <= t16.total_tc_blocks().max(1));
    }

    #[test]
    fn parallel_matches_sequential() {
        let g = gen::rmat_default(4096, 60_000, 5).unwrap();
        let seq = Sgt::builder().translate(&g).unwrap();
        for threads in [2, 3, 4, 7] {
            let par = Sgt::builder().threads(threads).translate(&g).unwrap();
            assert_eq!(seq, par, "threads = {threads}");
        }
    }

    #[test]
    fn parallel_falls_back_on_tiny_graphs() {
        let g = gen::erdos_renyi(40, 200, 6).unwrap();
        assert_eq!(
            Sgt::builder().translate(&g).unwrap(),
            Sgt::builder().threads(8).translate(&g).unwrap()
        );
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::from_raw(0, vec![0], vec![]).unwrap();
        let t = Sgt::builder().translate(&g).unwrap();
        assert_eq!(t.num_row_windows, 0);
        assert_eq!(t.total_tc_blocks(), 0);
        assert_eq!(t.block_ptr, vec![0]);
    }

    #[test]
    fn isolated_nodes_only() {
        let g = CsrGraph::from_raw(40, vec![0; 41], vec![]).unwrap();
        let t = Sgt::builder().translate(&g).unwrap();
        assert_eq!(t.num_row_windows, 3);
        assert!(t.win_partition.iter().all(|&b| b == 0));
        assert!(t.perm_orig.is_empty());
    }

    #[test]
    fn try_translate_rejects_bad_geometry() {
        let g = figure4_like();
        assert!(matches!(
            Sgt::builder().window(0).translate(&g),
            Err(TcgError::InvalidInput { .. })
        ));
        assert!(matches!(
            Sgt::builder().window(64).translate(&g),
            Err(TcgError::InvalidInput { .. })
        ));
        assert!(Sgt::builder().translate(&g).is_ok());
    }

    #[test]
    fn validate_accepts_genuine_translations() {
        for (g, label) in [
            (figure4_like(), "figure4"),
            (gen::rmat_default(2048, 20_000, 2).unwrap(), "rmat"),
            (gen::citation(1000, 8000, 3).unwrap(), "citation"),
            (CsrGraph::from_raw(0, vec![0], vec![]).unwrap(), "empty"),
            (
                CsrGraph::from_raw(40, vec![0; 41], vec![]).unwrap(),
                "isolated",
            ),
        ] {
            let t = Sgt::builder().translate(&g).unwrap();
            assert!(t.validate(&g).is_ok(), "{label}");
        }
    }

    #[test]
    fn validate_catches_targeted_corruptions() {
        let g = gen::citation(600, 5000, 9).unwrap();
        let base = Sgt::builder().translate(&g).unwrap();
        assert!(base.validate(&g).is_ok());

        // Out-of-bounds condensed column.
        let mut t = base.clone();
        t.edge_to_col[0] = u32::MAX;
        assert!(matches!(t.validate(&g), Err(TcgError::CorruptMeta { .. })));

        // Partition inconsistent with unique count.
        let mut t = base.clone();
        t.win_partition[0] += 1;
        assert!(matches!(t.validate(&g), Err(TcgError::CorruptMeta { .. })));

        // Broken chunk prefix.
        let mut t = base.clone();
        *t.block_ptr.last_mut().unwrap() += 1;
        assert!(matches!(t.validate(&g), Err(TcgError::CorruptMeta { .. })));

        // Duplicate edge in the permutation.
        let mut t = base.clone();
        if t.perm_orig.len() >= 2 {
            t.perm_orig[1] = t.perm_orig[0];
        }
        assert!(matches!(t.validate(&g), Err(TcgError::CorruptMeta { .. })));

        // AToX pointing at the wrong neighbor id.
        let mut t = base.clone();
        if let Some(v) = t.block_atox.first_mut() {
            *v = v.wrapping_add(1);
        }
        assert!(matches!(t.validate(&g), Err(TcgError::CorruptMeta { .. })));

        // Truncated per-edge array.
        let mut t = base.clone();
        t.perm_pack.pop();
        assert!(matches!(t.validate(&g), Err(TcgError::CorruptMeta { .. })));
    }

    #[test]
    fn checksum_moves_with_every_word_of_every_array() {
        let g = gen::citation(120, 700, 5).unwrap();
        let mut t = Sgt::builder().translate(&g).unwrap();
        let base = t.checksum();
        macro_rules! flip_each {
            ($($field:ident),*) => {$(
                for i in 0..t.$field.len() {
                    t.$field[i] ^= 1;
                    assert_ne!(t.checksum(), base, "{}[{i}]", stringify!($field));
                    t.$field[i] ^= 1;
                }
            )*};
        }
        flip_each!(
            win_partition,
            edge_to_col,
            edge_to_row,
            win_unique,
            win_block_start,
            block_ptr,
            perm_orig,
            perm_pack,
            block_atox,
            block_atox_ptr
        );
        fn geometry(t: &mut TranslatedGraph, i: usize) -> &mut usize {
            [&mut t.win_size, &mut t.blk_w, &mut t.num_row_windows][i]
        }
        for i in 0..3 {
            *geometry(&mut t, i) ^= 1;
            assert_ne!(t.checksum(), base, "geometry word {i}");
            *geometry(&mut t, i) ^= 1;
        }
    }

    #[test]
    fn metadata_size_accounts_all_arrays() {
        let g = gen::erdos_renyi(1000, 10_000, 7).unwrap();
        let t = Sgt::builder().translate(&g).unwrap();
        assert!(t.memory_bytes() > g.num_edges() * 8);
    }
}

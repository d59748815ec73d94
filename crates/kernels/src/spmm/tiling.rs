//! The one tiled body of the block-sparse baselines.
//!
//! bSpMM, tSparse and Triton all view the raw adjacency as a grid of
//! `blk × blk` tiles (no SGT condensation), and the condensed Blocked-ELL
//! kernel walks each row window's SGT blocks the same way. A program walks
//! the tiles of one block row per 16-wide output slab: per tile a
//! descriptor fetch, the A-tile load, the X-tile gather and the MMAs (or
//! CUDA-core FMAs), then the slab's store. [`launch_tiled`] writes that
//! walk once; each kernel is a [`Tiled`] policy over it.
//!
//! The program bodies only charge. The outputs come from the CUDA-core row
//! loop ([`super::cusparse`]'s `accumulate_rows`): the (slab-0) program of
//! each block row or window computes its 16 rows, each row's edges in CSR
//! order.

use tcg_gpusim::wmma::{MMA_FLOPS, WMMA_K};
use tcg_gpusim::{BlockCtx, GridConfig, KernelReport, Launcher};
use tcg_graph::CsrGraph;
use tcg_sgt::TranslatedGraph;
use tcg_tensor::DenseMatrix;

use crate::common::{SpmmProblem, TcgError};
use crate::spmm::cusparse::launch_rows;

/// Tile edge: the rows of a block row and the width of an output slab.
pub(crate) const BLK: usize = 16;

/// One non-empty `blk × blk` tile of the raw adjacency.
#[derive(Debug, Clone, Default)]
pub(crate) struct Tile {
    /// Column-block index (`neighbor_id / blk`).
    pub col_block: u32,
    /// Entries as `(row_in_tile, col_in_tile, global_edge_index)`.
    pub entries: Vec<(u8, u8, usize)>,
}

/// Collects the non-empty tiles of block row `br` (rows
/// `[br·blk, (br+1)·blk)`), sorted by column block.
pub(crate) fn block_row_tiles(csr: &CsrGraph, br: usize, blk: usize) -> Vec<Tile> {
    let row_lo = br * blk;
    // (col_block, r, c, edge) tuples, then group.
    let mut tuples: Vec<(u32, u8, u8, usize)> = Vec::new();
    for v in row_lo..(row_lo + blk).min(csr.num_nodes()) {
        let e_lo = csr.node_pointer()[v];
        for (i, &u) in csr.neighbors(v).iter().enumerate() {
            let (r, c) = ((v - row_lo) as u8, (u as usize % blk) as u8);
            tuples.push((u / blk as u32, r, c, e_lo + i));
        }
    }
    tuples.sort_unstable_by_key(|t| t.0);
    let tile = |g: &[(u32, u8, u8, usize)]| Tile {
        col_block: g[0].0,
        entries: g.iter().map(|&(_, r, c, e)| (r, c, e)).collect(),
    };
    tuples.chunk_by(|a, b| a.0 == b.0).map(tile).collect()
}

/// Number of block rows for a `blk`-sized tiling.
pub(crate) fn num_block_rows(csr: &CsrGraph, blk: usize) -> usize {
    csr.num_nodes().div_ceil(blk)
}

/// The slots of every block row, built once per launch: block row `br`
/// walks slots `ptr[br]..ptr[br + 1]`, each a raw tile or a condensed
/// block.
pub(crate) struct Tiling {
    pub ptr: Vec<usize>,
    /// The raw tiles (none for a condensed tiling).
    tiles: Vec<Tile>,
}

impl Tiling {
    /// The non-empty `BLK × BLK` tiles of the raw adjacency.
    pub(crate) fn new(csr: &CsrGraph) -> Self {
        let (mut ptr, mut tiles) = (vec![0], Vec::new());
        for br in 0..num_block_rows(csr, BLK) {
            tiles.extend(block_row_tiles(csr, br, BLK));
            ptr.push(tiles.len());
        }
        Tiling { ptr, tiles }
    }

    /// Each row window's condensed 16×8 SGT blocks.
    pub(crate) fn condensed(t: &TranslatedGraph) -> Self {
        let (ptr, tiles) = (t.win_block_start.clone(), Vec::new());
        Tiling { ptr, tiles }
    }

    /// Block row `br`'s slot count and raw tiles.
    pub(crate) fn row(&self, br: usize) -> (usize, &[Tile]) {
        let slots = self.ptr[br]..self.ptr[br + 1];
        (slots.len(), self.tiles.get(slots).unwrap_or(&[]))
    }

    /// `(ell_cols, total_slots)`: the widest block row's slot count, and
    /// the slots of every block row padded to it.
    pub(crate) fn ell_shape(&self) -> (usize, usize) {
        let ell_cols = self.ptr.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0);
        (ell_cols, ell_cols * (self.ptr.len() - 1))
    }
}

/// A program of 128 threads with `shared_mem_bytes` of shared memory.
pub(crate) fn grid(shared_mem_bytes: usize, regs_per_thread: u32) -> GridConfig {
    GridConfig {
        block_size: 128,
        shared_mem_bytes,
        regs_per_thread,
    }
}

/// One walked slot, as a policy's charge hooks see it.
pub(crate) struct At<'a> {
    /// Block row (row window), output slab and the slot's position in its
    /// block row's walk.
    pub br: usize,
    pub slab: usize,
    pub slot: usize,
    /// The raw tile; an empty tile at column block 0 for a padding slot or
    /// a condensed block.
    pub tile: &'a Tile,
}

/// A charge hook of a policy.
type Hook<'a, T> = &'a (dyn Fn(&mut BlockCtx<'_>, &At<'_>) -> T + Sync);

/// A block-sparse baseline: its launch, walk, per-tile path and program
/// shape as data, and its storage format's charges as hooks.
pub(crate) struct Tiled<'a> {
    /// Kernel name, for the preflight.
    pub name: &'static str,
    pub cfg: GridConfig,
    /// The slots each block row walks.
    pub tiling: &'a Tiling,
    /// A-tile width: a raw 16×16 tile is two k8 MMAs, a condensed 16×8
    /// block one.
    pub k: usize,
    /// Tiles with fewer non-zeros take the CUDA-core path (0: none does).
    pub dense_threshold: usize,
    /// One program per block row × output slab, instead of one per block
    /// row walking every slab.
    pub per_slab: bool,
    /// Charges the fetch of a tile's descriptor.
    pub descriptor: Hook<'a, ()>,
    /// The A tile's values: first address and count, 4 B each.
    pub a_tile: Hook<'a, (u64, usize)>,
    /// Charges what locates a TCU tile's X rows, and returns those rows.
    pub x_rows: Hook<'a, Vec<usize>>,
    /// Each tile's partial result is merged into the output with atomics.
    pub atomic_merge: bool,
    /// Blocked-ELL's padding. Without it a block row with no slots does no
    /// work.
    pub padding: Option<Padding>,
}

/// The X rows of a raw tile: the 16 from its first column.
pub(crate) fn tile_x_rows(_: &mut BlockCtx<'_>, at: &At<'_>) -> Vec<usize> {
    let col_base = at.tile.col_block as usize * BLK;
    (col_base..col_base + BLK).collect()
}

/// Blocked-ELL padding: every block row pads to `ell_cols` slots. The walk
/// pads each block row to `walked` slots; each slot it skips is charged in
/// bulk, per slab one index scalar, its A values block streamed from DRAM,
/// an L2-resident X gather of as many elements (a `16 × k` A tile meets a
/// `k × 16` X tile) and its MMAs, plus these per-kernel constants.
pub(crate) struct Padding {
    pub ell_cols: usize,
    pub walked: usize,
    pub warp_instructions: u64,
    pub int_ops: u64,
    pub shared_transactions: u64,
}

/// Launches a block-sparse baseline over `prob`: the one body every
/// [`Tiled`] policy runs.
pub(crate) fn launch_tiled(
    launcher: &mut Launcher,
    prob: &SpmmProblem<'_>,
    p: Tiled<'_>,
) -> Result<(DenseMatrix, KernelReport), TcgError> {
    let (n, d) = (prob.csr.num_nodes(), prob.dim());
    let mut out = DenseMatrix::zeros(n, d);
    let buf_x = launcher.try_alloc_f32(prob.x.len())?;
    let buf_out = launcher.try_alloc_f32(out.len())?;
    let (slabs, block_rows) = (d.div_ceil(BLK), p.tiling.ptr.len() - 1);
    let a_elems = BLK * p.k;
    // Programs per block row; the slots a block row walks one by one.
    let per = if p.per_slab { slabs.max(1) } else { 1 };
    let walked = p.padding.as_ref().map_or(0, |pad| pad.walked);
    // A padding slot or a condensed block: no raw tile, column block 0.
    let no_tile = Tile::default();
    let body = |ctx: &mut BlockCtx<'_>| {
        let (br, own_slab) = (ctx.block_id as usize / per, ctx.block_id as usize % per);
        let (real, tiles) = p.tiling.row(br);
        if real == 0 && p.padding.is_none() {
            return;
        }
        let rows = br * BLK..((br + 1) * BLK).min(n);
        for slab in (0..slabs).filter(|&s| !p.per_slab || s == own_slab) {
            let dim0 = slab * BLK;
            let width = (d - dim0).min(BLK);
            let x_row = |u: usize| buf_x.f32_addr(u.min(n.saturating_sub(1)) * d + dim0);
            let out_rows: Vec<u64> = rows
                .clone()
                .map(|r| buf_out.f32_addr(r * d + dim0))
                .collect();
            for slot in 0..real.max(walked) {
                let tile = tiles.get(slot).unwrap_or(&no_tile);
                let at = At {
                    br,
                    slab,
                    slot,
                    tile,
                };
                (p.descriptor)(ctx, &at);
                if tile.entries.len() >= p.dense_threshold {
                    let (addr, len) = (p.a_tile)(ctx, &at);
                    ctx.ld_global_contiguous(addr, len, 4);
                    ctx.shared_access((a_elems as u64).div_ceil(32));
                    let x_rows: Vec<u64> = (p.x_rows)(ctx, &at).into_iter().map(x_row).collect();
                    ctx.ld_global_gather_rows(&x_rows, width, 4);
                    ctx.shared_access(8);
                    for _ in 0..p.k / WMMA_K {
                        ctx.tcu_mma(MMA_FLOPS);
                    }
                } else {
                    // CUDA-core path: per-edge gather + FMA.
                    let col_base = tile.col_block as usize * BLK;
                    let x_rows: Vec<u64> = tile
                        .entries
                        .iter()
                        .map(|&(_, c, _)| x_row(col_base + c as usize))
                        .collect();
                    ctx.ld_global_gather_rows(&x_rows, width, 4);
                    ctx.fma_warps(((tile.entries.len() * width) as u64).div_ceil(32));
                }
                if p.atomic_merge {
                    ctx.atomic_add_global(&out_rows);
                }
            }
            ctx.st_global_gather_rows(&out_rows, width, 4);
        }
    };
    launcher.preflight(p.name, &p.cfg)?;
    // A block row's rows belong to its slab-0 program.
    let first_row = |pid: u64| ((pid as usize).div_ceil(per) * BLK).min(n);
    let programs = (block_rows * if p.per_slab { slabs } else { 1 }) as u64;
    let mut stats = launch_rows(launcher, p.cfg, programs, body, prob, first_row, &mut out);
    if let Some(pad) = &p.padding {
        let skipped: usize = (0..block_rows)
            .map(|br| pad.ell_cols - p.tiling.row(br).0.max(walked))
            .sum();
        let per = (skipped * slabs) as u64;
        let sectors = (a_elems as u64 * 4).div_ceil(32);
        let mmas = (p.k / WMMA_K) as u64;
        stats.warp_instructions += per * pad.warp_instructions;
        stats.int_ops += per * pad.int_ops;
        stats.gl_load_transactions += per * (1 + 2 * sectors);
        stats.l1_misses += per * (1 + 2 * sectors);
        stats.l2_misses += per * (1 + sectors);
        stats.l2_hits += per * sectors;
        stats.dram_read_bytes += per * (1 + sectors) * 32;
        stats.tcu_mma_instructions += per * mmas;
        stats.tcu_flops += per * mmas * MMA_FLOPS;
        stats.shared_transactions += per * pad.shared_transactions;
    }
    let report = tcg_gpusim::cost::analyze(launcher.device(), &stats);
    Ok((out, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcg_graph::gen;

    #[test]
    fn tiles_cover_all_edges_exactly_once() {
        let g = gen::rmat_default(500, 4000, 1).unwrap();
        let blk = 16;
        let mut seen = vec![false; g.num_edges()];
        for br in 0..num_block_rows(&g, blk) {
            for tile in block_row_tiles(&g, br, blk) {
                for &(r, c, e) in &tile.entries {
                    assert!(!seen[e], "edge {e} appeared twice");
                    seen[e] = true;
                    // Consistency with the CSR.
                    let src = br * blk + r as usize;
                    let dst = tile.col_block as usize * blk + c as usize;
                    assert!(g.has_edge(src, dst as u32));
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "every edge must be tiled");
    }

    #[test]
    fn tiles_sorted_and_disjoint() {
        let g = gen::erdos_renyi(300, 2500, 2).unwrap();
        for br in 0..num_block_rows(&g, 16) {
            let tiles = block_row_tiles(&g, br, 16);
            for w in tiles.windows(2) {
                assert!(w[0].col_block < w[1].col_block);
            }
        }
    }

    #[test]
    fn ragged_last_block_row() {
        let g = gen::erdos_renyi(23, 100, 3).unwrap();
        assert_eq!(num_block_rows(&g, 16), 2);
        // No panics, rows within bounds.
        for br in 0..2 {
            for t in block_row_tiles(&g, br, 16) {
                for &(r, _, _) in &t.entries {
                    assert!(br * 16 + (r as usize) < 23);
                }
            }
        }
    }
}

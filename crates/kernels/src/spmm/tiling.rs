//! Shared 2D-tiling helper for the hybrid sparse-dense baselines.
//!
//! bSpMM, tSparse and Triton all view the raw adjacency as a grid of
//! `blk × blk` tiles (no SGT condensation). This module groups a block
//! row's edges by column block, which is the unit those kernels process.

use tcg_graph::CsrGraph;

/// One non-empty `blk × blk` tile of the raw adjacency.
#[derive(Debug, Clone)]
pub(crate) struct Tile {
    /// Column-block index (`neighbor_id / blk`).
    pub col_block: u32,
    /// Entries as `(row_in_tile, col_in_tile, global_edge_index)`.
    pub entries: Vec<(u8, u8, usize)>,
}

/// Collects the non-empty tiles of block row `br` (rows
/// `[br·blk, (br+1)·blk)`), sorted by column block.
pub(crate) fn block_row_tiles(csr: &CsrGraph, br: usize, blk: usize) -> Vec<Tile> {
    let n = csr.num_nodes();
    let row_lo = br * blk;
    let row_hi = (row_lo + blk).min(n);
    // (col_block, r, c, edge) tuples, then group.
    let mut tuples: Vec<(u32, u8, u8, usize)> = Vec::new();
    for v in row_lo..row_hi {
        let e_lo = csr.node_pointer()[v];
        for (i, &u) in csr.neighbors(v).iter().enumerate() {
            let cb = u / blk as u32;
            tuples.push(((cb), (v - row_lo) as u8, (u as usize % blk) as u8, e_lo + i));
        }
    }
    tuples.sort_unstable_by_key(|t| t.0);
    let mut tiles: Vec<Tile> = Vec::new();
    for (cb, r, c, e) in tuples {
        match tiles.last_mut() {
            Some(t) if t.col_block == cb => t.entries.push((r, c, e)),
            _ => tiles.push(Tile {
                col_block: cb,
                entries: vec![(r, c, e)],
            }),
        }
    }
    tiles
}

/// The number of non-empty tiles in each block row.
pub(crate) fn tile_counts(csr: &CsrGraph, blk: usize) -> Vec<usize> {
    (0..num_block_rows(csr, blk))
        .map(|br| block_row_tiles(csr, br, blk).len())
        .collect()
}

/// Number of block rows for a `blk`-sized tiling.
pub(crate) fn num_block_rows(csr: &CsrGraph, blk: usize) -> usize {
    csr.num_nodes().div_ceil(blk)
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

//! Incremental SGT: delta-translation of dynamic graphs.
//!
//! Algorithm 1 is windowed over `TC_BLK_H = 16` rows, so an edge insert or
//! delete only ever changes the translated structure of *its own row
//! window*: condensation, chunking and `AToX` slots of every other window
//! are untouched — only their global edge offsets shift by the (constant)
//! change in preceding edge count. [`TranslatedGraph::apply_delta`] exploits
//! exactly this: it re-runs Algorithm 1 + 2 for the touched windows and
//! *splices* the untouched windows' arrays with corrected offsets, which is
//! `O(E)` copying but skips the sort-dominated translation work everywhere
//! the graph did not change.
//!
//! The result is guaranteed bitwise-identical to a from-scratch translation
//! — touched windows go through the very same `translate_window` /
//! `assemble_window_into` code path, and untouched windows are pure copies
//! modulo offset arithmetic. The oracle's metamorphic suite asserts this
//! identity (checksum + full struct equality) over random edit scripts.

use tcg_fault::TcgError;
use tcg_graph::{CsrGraph, NodeId};

use crate::translate::{
    assemble_window_into, post_validate, translate_window, BlockArrays, TranslatedGraph,
};

/// A batch of edge insertions and deletions against a [`CsrGraph`].
///
/// Deltas are *strict*: applying an insert of an existing edge or a delete
/// of a missing edge is an error (use [`CsrGraph::has_edge`] to build toggle
/// semantics on top). An edge may not appear in both sets. Endpoint node ids
/// must be in range; deltas never add or remove nodes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EdgeDelta {
    inserts: Vec<(NodeId, NodeId)>,
    deletes: Vec<(NodeId, NodeId)>,
}

impl EdgeDelta {
    /// An empty delta.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a directed edge insertion (chainable).
    pub fn insert(mut self, src: NodeId, dst: NodeId) -> Self {
        self.inserts.push((src, dst));
        self
    }

    /// Adds a directed edge deletion (chainable).
    pub fn delete(mut self, src: NodeId, dst: NodeId) -> Self {
        self.deletes.push((src, dst));
        self
    }

    /// Inserts both directions of `{u, v}` — serving requires symmetric
    /// graphs, so mutations normally come in undirected pairs.
    pub fn insert_undirected(self, u: NodeId, v: NodeId) -> Self {
        let d = self.insert(u, v);
        if u == v {
            d
        } else {
            d.insert(v, u)
        }
    }

    /// Deletes both directions of `{u, v}`.
    pub fn delete_undirected(self, u: NodeId, v: NodeId) -> Self {
        let d = self.delete(u, v);
        if u == v {
            d
        } else {
            d.delete(v, u)
        }
    }

    /// Push-style [`Self::insert`] for loop bodies.
    pub fn push_insert(&mut self, src: NodeId, dst: NodeId) {
        self.inserts.push((src, dst));
    }

    /// Push-style [`Self::delete`] for loop bodies.
    pub fn push_delete(&mut self, src: NodeId, dst: NodeId) {
        self.deletes.push((src, dst));
    }

    /// The directed insertions, as recorded.
    pub fn inserts(&self) -> &[(NodeId, NodeId)] {
        &self.inserts
    }

    /// The directed deletions, as recorded.
    pub fn deletes(&self) -> &[(NodeId, NodeId)] {
        &self.deletes
    }

    /// True when the delta carries no operations.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }

    /// Total operation count.
    pub fn len(&self) -> usize {
        self.inserts.len() + self.deletes.len()
    }

    /// Sorts and deduplicates both operation lists in place. Strictness
    /// (no edge in both lists, no duplicate net effect) is still checked at
    /// [`Self::apply_to`] time.
    pub fn normalize(&mut self) {
        self.inserts.sort_unstable();
        self.inserts.dedup();
        self.deletes.sort_unstable();
        self.deletes.dedup();
    }

    /// Applies the delta to `csr`, returning the mutated graph.
    ///
    /// Errors with [`TcgError::InvalidInput`] if an endpoint is out of
    /// range, an inserted edge already exists, a deleted edge is missing, or
    /// an edge appears in both sets.
    pub fn apply_to(&self, csr: &CsrGraph) -> Result<CsrGraph, TcgError> {
        for &(s, d) in &self.inserts {
            if self.deletes.contains(&(s, d)) {
                return Err(TcgError::InvalidInput {
                    what: "edge delta",
                    detail: format!("edge ({s}, {d}) appears in both inserts and deletes"),
                });
            }
        }
        let mut out = csr.clone();
        for &(s, d) in &self.deletes {
            match out.remove_edge(s, d) {
                Ok(true) => {}
                Ok(false) => {
                    return Err(TcgError::InvalidInput {
                        what: "edge delta",
                        detail: format!("delete of missing edge ({s}, {d})"),
                    })
                }
                Err(e) => {
                    return Err(TcgError::InvalidInput {
                        what: "edge delta",
                        detail: format!("delete ({s}, {d}): {e}"),
                    })
                }
            }
        }
        for &(s, d) in &self.inserts {
            match out.insert_edge(s, d) {
                Ok(true) => {}
                Ok(false) => {
                    return Err(TcgError::InvalidInput {
                        what: "edge delta",
                        detail: format!("insert of existing edge ({s}, {d})"),
                    })
                }
                Err(e) => {
                    return Err(TcgError::InvalidInput {
                        what: "edge delta",
                        detail: format!("insert ({s}, {d}): {e}"),
                    })
                }
            }
        }
        Ok(out)
    }

    /// The sorted, deduplicated row windows (of height `win_size`) whose
    /// translated structure this delta invalidates. Only *source* rows
    /// matter: SGT condenses neighbor ids per source-row window, so an edge
    /// `(s, d)` lives entirely in window `s / win_size`.
    pub fn touched_windows(&self, win_size: usize) -> Vec<usize> {
        assert!(win_size > 0, "window size must be positive");
        let mut ws: Vec<usize> = self
            .inserts
            .iter()
            .chain(self.deletes.iter())
            .map(|&(s, _)| s as usize / win_size)
            .collect();
        ws.sort_unstable();
        ws.dedup();
        ws
    }
}

/// What [`TranslatedGraph::apply_delta`] did, for metrics and reports.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaReport {
    /// Windows whose translation was recomputed (sorted, deduplicated).
    pub touched_windows: Vec<usize>,
    /// Windows whose translation was spliced through unchanged.
    pub preserved_windows: usize,
    /// Edges (post-delta) inside the recomputed windows.
    pub retranslated_edges: usize,
    /// Directed insertions applied.
    pub inserts: usize,
    /// Directed deletions applied.
    pub deletes: usize,
    /// Modeled host cost of the delta translation (same clock as
    /// [`crate::overhead::model_ms`]).
    pub model_ms: f64,
    /// Modeled host cost a from-scratch translation would have paid.
    pub full_model_ms: f64,
}

impl TranslatedGraph {
    /// Incrementally updates `self` to translate `csr`, where `csr` is the
    /// *post-delta* graph and `self` currently translates the pre-delta
    /// graph. Only the windows touched by `delta` are re-run through
    /// Algorithm 1 + 2; every other window's arrays are spliced over with
    /// corrected edge offsets.
    ///
    /// The node count must be unchanged (deltas never add or remove nodes)
    /// and the edge counts must reconcile
    /// (`old_edges + inserts - deletes == csr.num_edges()`); violations are
    /// [`TcgError::InvalidInput`]. Under `TCG_VERIFY=1` (or debug builds)
    /// the result is validated against `csr` before returning.
    pub fn apply_delta(
        &mut self,
        csr: &CsrGraph,
        delta: &EdgeDelta,
    ) -> Result<DeltaReport, TcgError> {
        let windows = csr.num_nodes().div_ceil(self.win_size);
        if windows != self.num_row_windows {
            return Err(TcgError::InvalidInput {
                what: "edge delta",
                detail: format!(
                    "graph has {} windows but translation has {} — deltas cannot change \
                     the node count",
                    windows, self.num_row_windows
                ),
            });
        }
        let old_edges = self.edge_to_col.len();
        if old_edges + delta.inserts().len() != csr.num_edges() + delta.deletes().len() {
            return Err(TcgError::InvalidInput {
                what: "edge delta",
                detail: format!(
                    "delta does not reconcile: {old_edges} old edges + {} inserts - {} \
                     deletes != {} new edges",
                    delta.inserts().len(),
                    delta.deletes().len(),
                    csr.num_edges()
                ),
            });
        }
        let mut touched = delta.touched_windows(self.win_size);
        touched.retain(|&w| w < windows);
        for &(s, d) in delta.inserts().iter().chain(delta.deletes().iter()) {
            if s as usize >= csr.num_nodes() || d as usize >= csr.num_nodes() {
                return Err(TcgError::InvalidInput {
                    what: "edge delta",
                    detail: format!("edge ({s}, {d}) out of range for {} nodes", csr.num_nodes()),
                });
            }
        }
        *self = self.spliced(csr, &touched)?;
        let np = csr.node_pointer();
        let retranslated_edges = touched
            .iter()
            .map(|&w| {
                let lo = w * self.win_size;
                let hi = ((w + 1) * self.win_size).min(csr.num_nodes());
                np[hi] - np[lo]
            })
            .sum();
        Ok(DeltaReport {
            preserved_windows: windows - touched.len(),
            retranslated_edges,
            inserts: delta.inserts().len(),
            deletes: delta.deletes().len(),
            model_ms: crate::overhead::model_delta_ms(csr, touched.len(), retranslated_edges),
            full_model_ms: crate::overhead::model_ms(csr),
            touched_windows: touched,
        })
    }

    /// The translation of `csr` built from this one: Algorithm 1 + 2 re-run
    /// on the windows in `touched` (sorted, deduplicated, in range), and
    /// every other window's arrays spliced over from `self` with corrected
    /// edge offsets. `self` is only read, so a shared predecessor (a cache
    /// entry) needs no copy first.
    ///
    /// Soundness precondition: every window *not* in `touched` must have
    /// identical CSR content (same rows, same neighbor lists) in `csr` as in
    /// the graph this translation was built from. The caller either derives
    /// `touched` from an [`EdgeDelta`] (windows are independent under SGT)
    /// or from matching per-window graph fingerprints
    /// ([`CsrGraph::window_fingerprint`]). An untouched window whose edge
    /// count nonetheless changed is detected and reported as
    /// [`TcgError::CorruptMeta`].
    pub fn spliced(&self, csr: &CsrGraph, touched: &[usize]) -> Result<TranslatedGraph, TcgError> {
        let n = csr.num_nodes();
        let windows = n.div_ceil(self.win_size);
        if windows != self.num_row_windows {
            return Err(TcgError::InvalidInput {
                what: "spliced translation",
                detail: format!(
                    "graph has {windows} windows but translation has {}",
                    self.num_row_windows
                ),
            });
        }
        for &w in touched {
            if w >= windows {
                return Err(TcgError::InvalidInput {
                    what: "spliced translation",
                    detail: format!("window {w} out of range: {windows} row windows"),
                });
            }
        }
        debug_assert!(touched.windows(2).all(|p| p[0] < p[1]), "sorted + deduped");

        let num_edges = csr.num_edges();
        let np = csr.node_pointer();
        let old_spans = self.window_edge_spans();

        let mut edge_to_col = vec![0u32; num_edges];
        let mut edge_to_row = vec![0 as NodeId; num_edges];
        let mut win_partition = Vec::with_capacity(windows);
        let mut win_unique = Vec::with_capacity(windows);
        let mut arrays = BlockArrays::with_capacity(
            self.block_ptr.len().saturating_sub(1),
            num_edges,
            self.block_atox.len(),
        );

        let mut ti = 0usize;
        for w in 0..windows {
            let row_lo = w * self.win_size;
            let row_hi = ((w + 1) * self.win_size).min(n);
            let (new_lo, new_hi) = (np[row_lo], np[row_hi]);
            if ti < touched.len() && touched[ti] == w {
                ti += 1;
                let o = translate_window(
                    csr,
                    w,
                    self.win_size,
                    self.blk_w,
                    &mut edge_to_col[new_lo..new_hi],
                    &mut edge_to_row[new_lo..new_hi],
                    new_lo,
                );
                win_partition.push(o.blocks);
                win_unique.push(o.unique);
                assemble_window_into(&o, w, self.win_size, self.blk_w, &mut arrays);
            } else {
                let (old_lo, old_hi) = (old_spans[w], old_spans[w + 1]);
                if old_hi - old_lo != new_hi - new_lo {
                    return Err(TcgError::CorruptMeta {
                        what: "spliced translation",
                        detail: format!(
                            "untouched window {w}: edge count changed {} -> {} — the \
                             touched-window set does not cover the graph edit",
                            old_hi - old_lo,
                            new_hi - new_lo
                        ),
                    });
                }
                edge_to_col[new_lo..new_hi].copy_from_slice(&self.edge_to_col[old_lo..old_hi]);
                edge_to_row[new_lo..new_hi].copy_from_slice(&self.edge_to_row[old_lo..old_hi]);
                win_partition.push(self.win_partition[w]);
                win_unique.push(self.win_unique[w]);
                let (b_lo, b_hi) = (self.win_block_start[w], self.win_block_start[w + 1]);
                // Untouched content is identical; only the global edge ids in
                // `perm_orig` shift by the net edge-count change upstream.
                let shift = new_lo as i64 - old_lo as i64;
                for b in b_lo..b_hi {
                    for pos in self.block_ptr[b]..self.block_ptr[b + 1] {
                        arrays
                            .perm_orig
                            .push((i64::from(self.perm_orig[pos]) + shift) as u32);
                        arrays.perm_pack.push(self.perm_pack[pos]);
                    }
                    arrays.block_ptr.push(arrays.perm_pack.len());
                    arrays.block_atox.extend_from_slice(
                        &self.block_atox[self.block_atox_ptr[b]..self.block_atox_ptr[b + 1]],
                    );
                    arrays.block_atox_ptr.push(arrays.block_atox.len());
                }
            }
        }

        let mut win_block_start = Vec::with_capacity(windows + 1);
        win_block_start.push(0usize);
        for &blocks in &win_partition {
            win_block_start.push(win_block_start.last().unwrap() + blocks as usize);
        }

        let t = TranslatedGraph {
            win_size: self.win_size,
            blk_w: self.blk_w,
            num_row_windows: windows,
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
        };
        post_validate(&t, csr)?;
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::translate::Sgt;
    use tcg_graph::gen;

    fn full(csr: &CsrGraph) -> TranslatedGraph {
        Sgt::builder().translate(csr).expect("translate")
    }

    #[test]
    fn delta_builder_and_touched_windows() {
        let d = EdgeDelta::new()
            .insert_undirected(1, 40)
            .delete(17, 3)
            .insert(17, 5);
        assert_eq!(d.inserts(), &[(1, 40), (40, 1), (17, 5)]);
        assert_eq!(d.deletes(), &[(17, 3)]);
        assert_eq!(d.len(), 4);
        assert!(!d.is_empty());
        // Sources 1, 40, 17, 17 at win 16 → windows {0, 1, 2}.
        assert_eq!(d.touched_windows(16), vec![0, 1, 2]);
    }

    #[test]
    fn apply_to_is_strict() {
        let g = gen::erdos_renyi(64, 400, 3).unwrap();
        let (s, d) = g.iter_edges().next().unwrap();
        // Insert of an existing edge fails.
        assert!(EdgeDelta::new().insert(s, d).apply_to(&g).is_err());
        // Delete of a missing edge fails.
        let mut missing = None;
        'outer: for u in 0..64u32 {
            for v in 0..64u32 {
                if u != v && !g.has_edge(u as usize, v) {
                    missing = Some((u, v));
                    break 'outer;
                }
            }
        }
        let (u, v) = missing.unwrap();
        assert!(EdgeDelta::new().delete(u, v).apply_to(&g).is_err());
        // Same edge in both sets fails.
        assert!(EdgeDelta::new()
            .insert(u, v)
            .delete(u, v)
            .apply_to(&g)
            .is_err());
        // Out-of-range endpoint fails.
        assert!(EdgeDelta::new().insert(0, 500).apply_to(&g).is_err());
        // A valid toggle round-trips.
        let g2 = EdgeDelta::new().insert(u, v).apply_to(&g).unwrap();
        assert!(g2.has_edge(u as usize, v));
        let g3 = EdgeDelta::new().delete(u, v).apply_to(&g2).unwrap();
        assert_eq!(g3, g);
    }

    #[test]
    fn apply_delta_matches_from_scratch_bitwise() {
        let g = gen::rmat_default(512, 4000, 11).unwrap();
        let mut t = full(&g);
        // A batch touching two windows: one insert, one delete.
        let (s, d) = g.iter_edges().last().unwrap();
        let mut ins = None;
        'outer: for u in [3u32, 100, 200] {
            for v in 0..512u32 {
                if u != v && !g.has_edge(u as usize, v) {
                    ins = Some((u, v));
                    break 'outer;
                }
            }
        }
        let (u, v) = ins.unwrap();
        let delta = EdgeDelta::new().insert(u, v).delete(s, d);
        let g2 = delta.apply_to(&g).unwrap();
        let report = t.apply_delta(&g2, &delta).unwrap();
        let scratch = full(&g2);
        assert_eq!(t.checksum(), scratch.checksum());
        assert_eq!(t, scratch, "bitwise identity with from-scratch translation");
        assert!(t.validate(&g2).is_ok());
        assert!(report.preserved_windows + report.touched_windows.len() == t.num_row_windows);
        assert!(report.model_ms < report.full_model_ms);
    }

    #[test]
    fn apply_delta_rejects_mismatched_graph() {
        let g = gen::erdos_renyi(100, 600, 5).unwrap();
        let mut t = full(&g);
        // Wrong node count.
        let other = gen::erdos_renyi(200, 600, 5).unwrap();
        assert!(t.apply_delta(&other, &EdgeDelta::new()).is_err());
        // Delta that does not reconcile edge counts.
        let (s, d) = g.iter_edges().next().unwrap();
        let g2 = EdgeDelta::new().delete(s, d).apply_to(&g).unwrap();
        assert!(t.apply_delta(&g2, &EdgeDelta::new()).is_err());
    }

    #[test]
    fn window_fingerprints_move_only_for_touched_windows() {
        let g = gen::rmat_default(512, 4000, 7).unwrap();
        let t = full(&g);
        let before = t.window_fingerprints();
        // Delete one edge; only its window's translated fingerprint moves.
        let (s, d) = g.iter_edges().next().unwrap();
        let delta = EdgeDelta::new().delete(s, d);
        let g2 = delta.apply_to(&g).unwrap();
        let mut t2 = t.clone();
        t2.apply_delta(&g2, &delta).unwrap();
        let after = t2.window_fingerprints();
        let touched = delta.touched_windows(t.win_size);
        for w in 0..t.num_row_windows {
            if touched.contains(&w) {
                assert_ne!(before[w], after[w], "window {w} must change");
            } else {
                assert_eq!(before[w], after[w], "window {w} must be invariant");
            }
        }
        // CSR-side window fingerprints agree on which windows moved.
        let csr_before = g.window_fingerprints(t.win_size);
        let csr_after = g2.window_fingerprints(t.win_size);
        for w in 0..t.num_row_windows {
            assert_eq!(
                csr_before[w] == csr_after[w],
                !touched.contains(&w),
                "window {w}"
            );
        }
    }

    #[test]
    fn empty_delta_is_identity() {
        let g = gen::citation(300, 2400, 9).unwrap();
        let mut t = full(&g);
        let before = t.clone();
        let report = t.apply_delta(&g, &EdgeDelta::new()).unwrap();
        assert_eq!(t, before);
        assert!(report.touched_windows.is_empty());
        assert_eq!(report.preserved_windows, t.num_row_windows);
    }
}

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

    /// Applies the delta to `csr`, returning the mutated graph, built in one
    /// merge pass over the rows ([`CsrGraph::edited`]).
    ///
    /// Errors with [`TcgError::InvalidInput`] if an endpoint is out of
    /// range, an inserted edge already exists, a deleted edge is missing, or
    /// an op repeats; an edge in both sets is one of the middle two.
    pub fn apply_to(&self, csr: &CsrGraph) -> Result<CsrGraph, TcgError> {
        csr.edited(&self.deletes, &self.inserts)
            .map_err(|e| TcgError::InvalidInput {
                what: "edge delta",
                detail: e.to_string(),
            })
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
    /// on the windows in `touched` (sorted, deduplicated, in range; anything
    /// else is [`TcgError::InvalidInput`]), and every maximal run of other
    /// windows copied over from `self` as slices, its global offsets shifted
    /// by one constant. `self` is only read, so a shared predecessor (a
    /// cache entry) needs no copy first.
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
        if let Some(p) = touched.windows(2).find(|p| p[0] >= p[1]) {
            return Err(TcgError::InvalidInput {
                what: "spliced translation",
                detail: format!(
                    "touched windows must be sorted and distinct: {} before {}",
                    p[0], p[1]
                ),
            });
        }

        let num_edges = csr.num_edges();
        let np = csr.node_pointer();
        let old_spans = self.window_edge_spans();

        // Both grow in edge order: a touched window's slots are zeroed for
        // `translate_window` to fill, a copied run is appended.
        let mut edge_to_col = Vec::with_capacity(num_edges);
        let mut edge_to_row = Vec::with_capacity(num_edges);
        let mut win_partition = Vec::with_capacity(windows);
        let mut win_unique = Vec::with_capacity(windows);
        let mut arrays = BlockArrays::with_capacity(
            self.block_ptr.len().saturating_sub(1),
            num_edges,
            self.block_atox.len(),
        );

        let mut touched = touched.iter().copied().peekable();
        let mut w = 0usize;
        while w < windows {
            if touched.next_if_eq(&w).is_some() {
                let row_lo = w * self.win_size;
                let row_hi = ((w + 1) * self.win_size).min(n);
                let (new_lo, new_hi) = (np[row_lo], np[row_hi]);
                edge_to_col.resize(new_hi, 0);
                edge_to_row.resize(new_hi, 0);
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
                w += 1;
                continue;
            }
            // The maximal run `w..end` of untouched windows is copied in one
            // pass: its content is identical, and every global offset in it
            // shifts by the same net edge-count change upstream.
            let end = touched.peek().copied().unwrap_or(windows);
            for v in w..end {
                let old = old_spans[v + 1] - old_spans[v];
                let new = np[((v + 1) * self.win_size).min(n)] - np[v * self.win_size];
                if old != new {
                    return Err(TcgError::CorruptMeta {
                        what: "spliced translation",
                        detail: format!(
                            "untouched window {v}: edge count changed {old} -> {new} — the \
                             touched-window set does not cover the graph edit"
                        ),
                    });
                }
            }
            let (old_lo, old_hi) = (old_spans[w], old_spans[end]);
            let new_lo = np[w * self.win_size];
            debug_assert_eq!(edge_to_col.len(), new_lo);
            edge_to_col.extend_from_slice(&self.edge_to_col[old_lo..old_hi]);
            edge_to_row.extend_from_slice(&self.edge_to_row[old_lo..old_hi]);
            win_partition.extend_from_slice(&self.win_partition[w..end]);
            win_unique.extend_from_slice(&self.win_unique[w..end]);
            // Sorted positions tile the edges window by window, so the run's
            // blocks own exactly the positions `old_lo..old_hi`.
            let (b_lo, b_hi) = (self.win_block_start[w], self.win_block_start[end]);
            debug_assert_eq!(arrays.perm_pack.len(), new_lo);
            arrays.perm_orig.extend(
                self.perm_orig[old_lo..old_hi]
                    .iter()
                    .map(|&e| (e as usize + new_lo - old_lo) as u32),
            );
            arrays
                .perm_pack
                .extend_from_slice(&self.perm_pack[old_lo..old_hi]);
            arrays.block_ptr.extend(
                self.block_ptr[b_lo + 1..=b_hi]
                    .iter()
                    .map(|&p| p + new_lo - old_lo),
            );
            let (a_lo, a_hi) = (self.block_atox_ptr[b_lo], self.block_atox_ptr[b_hi]);
            let a_base = arrays.block_atox.len();
            arrays
                .block_atox
                .extend_from_slice(&self.block_atox[a_lo..a_hi]);
            arrays.block_atox_ptr.extend(
                self.block_atox_ptr[b_lo + 1..=b_hi]
                    .iter()
                    .map(|&a| a + a_base - a_lo),
            );
            w = end;
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

    /// [`EdgeDelta::apply_to`] as a chain of single-edge edits: the
    /// semantics the merge pass must reproduce, rejections included.
    fn sequential(delta: &EdgeDelta, csr: &CsrGraph) -> Result<CsrGraph, TcgError> {
        let invalid = || TcgError::InvalidInput {
            what: "edge delta",
            detail: String::new(),
        };
        if delta.inserts().iter().any(|e| delta.deletes().contains(e)) {
            return Err(invalid());
        }
        let mut out = csr.clone();
        for &(s, d) in delta.deletes() {
            if out.remove_edge(s, d) != Ok(true) {
                return Err(invalid());
            }
        }
        for &(s, d) in delta.inserts() {
            if out.insert_edge(s, d) != Ok(true) {
                return Err(invalid());
            }
        }
        Ok(out)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The merge pass builds the same CSR, bit for bit, as applying the
        /// ops one at a time, and rejects exactly the deltas that chain
        /// rejects, with the same error variant and `what`.
        #[test]
        fn apply_to_equals_sequential_edits(
            seed in 0u64..1_000,
            n in 1usize..48,
            picks in proptest::collection::vec((0u32..64, 0u32..64, 0u8..16), 0..12),
        ) {
            let g = gen::erdos_renyi(n, 3 * n, seed).unwrap();
            let before = g.clone();
            let mut delta = EdgeDelta::new();
            for (a, b, kind) in picks {
                // The source is out of range once in `n + 1` draws.
                let (s, d) = (a % (n as u32 + 1), b % n as u32);
                let present = (s as usize) < n && g.has_edge(s as usize, d);
                // Kinds 0 and 1 force an op that may be invalid; the rest
                // toggle, which is invalid only when a pair repeats.
                match kind {
                    0 => delta.push_delete(s, d),
                    1 => delta.push_insert(s, d),
                    _ if present => delta.push_delete(s, d),
                    _ => delta.push_insert(s, d),
                }
            }
            let merged = delta.apply_to(&g);
            match (&merged, sequential(&delta, &g)) {
                (Ok(m), Ok(s)) => proptest::prop_assert_eq!(m, &s),
                (
                    Err(TcgError::InvalidInput { what, .. }),
                    Err(TcgError::InvalidInput { what: want, .. }),
                ) => proptest::prop_assert_eq!(*what, want),
                (got, want) => proptest::prop_assert!(false, "{got:?} against {want:?}"),
            }
            proptest::prop_assert_eq!(&g, &before);
            if let Ok(m) = merged {
                let rebuilt = CsrGraph::from_raw(
                    m.num_nodes(),
                    m.node_pointer().to_vec(),
                    m.edge_list().to_vec(),
                );
                proptest::prop_assert_eq!(rebuilt.as_ref(), Ok(&m));
            }
        }
    }

    /// A directed graph of `windows` 16-row windows where the rows of
    /// window `w` have `w % 3` out-edges each (every third window has none).
    fn striped(windows: usize) -> CsrGraph {
        let n = windows * 16;
        let mut coo = tcg_graph::CooGraph::new(n);
        for v in 0..n {
            for k in 0..(v / 16) % 3 {
                let u = (v * 7 + 13 * (k + 1)) % n;
                if u != v {
                    coo.push_edge(v as u32, u as u32);
                }
            }
        }
        coo.into_csr().unwrap()
    }

    /// The run-wise splice at its run boundaries: touched windows first,
    /// last and adjacent, zero-edge windows inside the copied runs, every
    /// window touched and none. Each result equals the from-scratch
    /// translation bit for bit.
    #[test]
    fn splice_runs_equal_scratch_at_every_boundary() {
        let g = striped(12);
        let t = full(&g);
        let last = t.num_row_windows - 1;
        let cases: [Vec<usize>; 7] = [
            vec![],
            vec![0],
            vec![last],
            vec![0, last],
            vec![4, 5, 6],
            vec![1, 2, 9, 10, last],
            (0..=last).collect(),
        ];
        for touched in cases {
            // Toggle the edge (v, v + 1) in the first row of every touched
            // window, both directions, so the edit lands exactly there
            // (the reverse direction lands one row below, same window).
            let mut delta = EdgeDelta::new();
            for &w in &touched {
                let v = (w * 16) as u32;
                delta = if g.has_edge(v as usize, v + 1) {
                    delta.delete_undirected(v, v + 1)
                } else {
                    delta.insert_undirected(v, v + 1)
                };
            }
            assert_eq!(delta.touched_windows(16), touched);
            let g2 = delta.apply_to(&g).unwrap();
            let spliced = t.spliced(&g2, &touched).unwrap();
            assert_eq!(spliced, full(&g2), "touched {touched:?}");
            // Re-running windows whose content did not change is allowed
            // and changes nothing.
            let all: Vec<usize> = (0..=last).collect();
            assert_eq!(t.spliced(&g2, &all).unwrap(), full(&g2));
        }
        // Zero-edge windows are present in the copied runs.
        assert!((0..=last).any(|w| t.win_partition[w] == 0));
    }

    #[test]
    fn splice_rejects_unsorted_or_uncovering_touched_sets() {
        let g = striped(6);
        let t = full(&g);
        let g2 = EdgeDelta::new()
            .insert_undirected(16, 17)
            .apply_to(&g)
            .unwrap();
        assert!(matches!(
            t.spliced(&g2, &[1, 1]),
            Err(TcgError::InvalidInput { .. })
        ));
        assert!(matches!(
            t.spliced(&g2, &[2, 1]),
            Err(TcgError::InvalidInput { .. })
        ));
        assert!(matches!(
            t.spliced(&g2, &[]),
            Err(TcgError::CorruptMeta { .. })
        ));
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

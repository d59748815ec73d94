//! Receptive-field demand: the row windows each layer of a targeted
//! inference computes.
//!
//! SGT gives every thread block all edges of its 16-row window (§4,
//! Listing 2), so one aggregation's output rows in window `w` read only the
//! input rows of `w`'s neighbors. To predict a few target nodes through `L`
//! aggregation layers, layer `L` therefore needs only the targets' windows,
//! layer `L−1` the windows holding those windows' neighbors, and so on down
//! to the rows of the model input. [`Demand::for_targets`] derives that
//! chain from the SGT translation (each window's condensed columns,
//! `block_atox`, are exactly its distinct neighbors), and each layer runs
//! its sparse op over its own set and its dense ops over the rows the next
//! op reads. Windows are independent, and a GEMM row depends only on its
//! own input row, so every computed row is bitwise the full forward's.
//!
//! A set also keeps its own windows at the layer below: the self terms of
//! GraphSAGE and GIN read them, and for GCN they are a small superset.
//!
//! Between layers the activations are compact: a layer takes the rows of
//! its input set and returns the rows of its own set, in
//! [`WindowSet::gather`] order, and [`spread`]s its input back to full
//! height only for its sparse op. Under full demand every helper here is
//! the identity: each layer and model has this one pass, and the training
//! forward is the pass under full demand.

use std::borrow::Cow;

use tcg_sgt::{TranslatedGraph, TC_BLK_H};
use tcg_tensor::DenseMatrix;

use crate::engine::Engine;

/// A strictly ascending set of row windows (`TC_BLK_H` rows each) of one
/// graph, never every window: a layer that needs them all computes in
/// full, which [`Demand`] spells `None`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct WindowSet {
    ids: Vec<u32>,
    num_nodes: usize,
}

impl WindowSet {
    /// The windows holding `rows` of a `num_nodes`-node graph, or `None`
    /// when that is every window. Rows out of range are ignored.
    pub fn of_rows(rows: impl IntoIterator<Item = usize>, num_nodes: usize) -> Option<WindowSet> {
        let mut marked = vec![false; num_nodes.div_ceil(TC_BLK_H)];
        for r in rows.into_iter().filter(|&r| r < num_nodes) {
            marked[r / TC_BLK_H] = true;
        }
        Self::from_marks(&marked, num_nodes)
    }

    fn from_marks(marked: &[bool], num_nodes: usize) -> Option<WindowSet> {
        let ids: Vec<u32> = (0..marked.len() as u32)
            .filter(|&w| marked[w as usize])
            .collect();
        (ids.len() < marked.len()).then_some(WindowSet { ids, num_nodes })
    }

    /// The window ids, ascending.
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// Number of windows.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the set holds no window.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The row range of window `w`.
    fn rows_of(&self, w: u32) -> std::ops::Range<usize> {
        let lo = w as usize * TC_BLK_H;
        lo..(lo + TC_BLK_H).min(self.num_nodes)
    }

    /// Rows the windows cover.
    pub fn num_rows(&self) -> usize {
        self.ids.iter().map(|&w| self.rows_of(w).len()).sum()
    }

    /// This set plus every window holding a neighbor of one of its rows,
    /// read from `t`'s per-block neighbor lists; `None` when that is every
    /// window.
    pub fn closure(&self, t: &TranslatedGraph) -> Option<WindowSet> {
        let mut marked = vec![false; t.num_row_windows];
        for &w in &self.ids {
            marked[w as usize] = true;
            let w = w as usize;
            for b in t.win_block_start[w]..t.win_block_start[w + 1] {
                for &u in t.block_atox(b) {
                    if u != u32::MAX {
                        marked[u as usize / TC_BLK_H] = true;
                    }
                }
            }
        }
        Self::from_marks(&marked, self.num_nodes)
    }

    /// `x`'s rows in this set, in order, as a compact matrix.
    pub fn gather(&self, x: &DenseMatrix) -> DenseMatrix {
        let d = x.cols();
        let mut out = Vec::with_capacity(self.num_rows() * d);
        for &w in &self.ids {
            let r = self.rows_of(w);
            out.extend_from_slice(&x.as_slice()[r.start * d..r.end * d]);
        }
        DenseMatrix::from_vec(self.num_rows(), d, out).expect("whole rows")
    }

    /// A `num_nodes × cols` matrix holding `compact`'s rows (as
    /// [`WindowSet::gather`] lays them out) at this set's rows, zero
    /// elsewhere.
    pub fn scatter(&self, compact: &DenseMatrix) -> DenseMatrix {
        let d = compact.cols();
        let mut out = DenseMatrix::zeros(self.num_nodes, d);
        let mut at = 0;
        for &w in &self.ids {
            let r = self.rows_of(w);
            let len = r.len() * d;
            out.as_mut_slice()[r.start * d..r.end * d]
                .copy_from_slice(&compact.as_slice()[at..at + len]);
            at += len;
        }
        out
    }
}

/// The rows of `rows` of a full-height `x`, compact (borrowed when `rows`
/// is every row).
pub fn gather<'a>(rows: Option<&WindowSet>, x: &'a DenseMatrix) -> Cow<'a, DenseMatrix> {
    match rows {
        None => Cow::Borrowed(x),
        Some(set) => Cow::Owned(set.gather(x)),
    }
}

/// [`gather`] of an owned matrix (`x` itself when `rows` is every row).
pub fn gather_owned(rows: Option<&WindowSet>, x: DenseMatrix) -> DenseMatrix {
    match rows {
        None => x,
        Some(set) => set.gather(&x),
    }
}

/// A compact `x` holding the rows of `rows` spread to full height, zero
/// elsewhere (borrowed when `rows` is every row).
pub fn spread<'a>(rows: Option<&WindowSet>, x: &'a DenseMatrix) -> Cow<'a, DenseMatrix> {
    match rows {
        None => Cow::Borrowed(x),
        Some(set) => Cow::Owned(set.scatter(x)),
    }
}

/// [`spread`] of an owned matrix (`x` itself when `rows` is every row).
pub fn spread_owned(rows: Option<&WindowSet>, x: DenseMatrix) -> DenseMatrix {
    match rows {
        None => x,
        Some(set) => set.scatter(&x),
    }
}

/// One aggregation layer's share of a [`Demand`]; `None` is every row.
#[derive(Debug, Clone, Copy)]
pub struct LayerDemand<'a> {
    /// Rows of the layer's input its sparse op reads: dense ops before
    /// that op compute only these.
    pub input: Option<&'a WindowSet>,
    /// Windows the layer's sparse op computes: dense ops after it compute
    /// only these rows, and only these rows of the output are promised.
    pub output: Option<&'a WindowSet>,
}

impl LayerDemand<'_> {
    /// Every row, everywhere: the full forward.
    pub const FULL: LayerDemand<'static> = LayerDemand {
        input: None,
        output: None,
    };
}

/// The row windows each layer of one inference computes.
///
/// `sets[i]` holds the windows aggregation layer `i` (1-based) computes;
/// `sets[0]` the input rows layer 1 reads. Full demand, the plain forward,
/// has no sets.
#[derive(Debug, Clone, Default)]
pub struct Demand {
    sets: Vec<Option<WindowSet>>,
}

impl Demand {
    /// Every row of every layer: the full forward.
    pub fn full() -> Demand {
        Demand::default()
    }

    /// The demand of predicting rows `targets` through `depth` aggregation
    /// layers on `eng`: the targets' windows at layer `depth`, and each
    /// layer below the [`WindowSet::closure`] of the one above.
    ///
    /// Full demand on an engine that cannot skip windows
    /// ([`Engine::skips_windows`]: sharded, non-translating or forced onto
    /// the fallback kernels).
    pub fn for_targets(eng: &Engine, targets: &[usize], depth: usize) -> Demand {
        let Some(t) = eng.translation().filter(|_| eng.skips_windows()) else {
            return Demand::full();
        };
        let mut sets = vec![WindowSet::of_rows(
            targets.iter().copied(),
            eng.graph().num_nodes(),
        )];
        for _ in 0..depth {
            let below = sets
                .last()
                .expect("seeded")
                .as_ref()
                .and_then(|s| s.closure(t));
            sets.push(below);
        }
        sets.reverse();
        Demand { sets }
    }

    /// Whether this is the full forward.
    pub fn is_full(&self) -> bool {
        self.sets.iter().all(Option::is_none)
    }

    /// Aggregation layer `i`'s (1-based) demand.
    pub fn layer(&self, i: usize) -> LayerDemand<'_> {
        let set = |k: usize| self.sets.get(k).and_then(Option::as_ref);
        LayerDemand {
            input: i.checked_sub(1).and_then(set),
            output: set(i),
        }
    }

    /// Rows of the model input the first layer reads.
    pub fn input(&self) -> Option<&WindowSet> {
        self.layer(1).input
    }

    /// Rows of the logits that are computed (the target windows).
    pub fn output(&self) -> Option<&WindowSet> {
        self.sets.last().and_then(Option::as_ref)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcg_graph::gen;
    use tcg_sgt::Sgt;

    #[test]
    fn closure_holds_every_neighbor_window_and_itself() {
        let g = gen::rmat_default(300, 1200, 5).unwrap();
        let t = Sgt::builder().translate(&g).unwrap();
        let set = WindowSet::of_rows([40, 41, 200], g.num_nodes()).unwrap();
        assert_eq!(set.ids(), &[2, 12]);
        let below = set.closure(&t);
        let has = |w: usize| below.as_ref().is_none_or(|s| s.ids().contains(&(w as u32)));
        for &w in set.ids() {
            assert!(has(w as usize));
            for r in set.rows_of(w) {
                for &u in g.neighbors(r) {
                    assert!(has(u as usize / TC_BLK_H), "row {r} neighbor {u}");
                }
            }
        }
    }

    #[test]
    fn gather_then_scatter_keeps_exactly_the_set_rows() {
        let x = DenseMatrix::from_fn(37, 3, |r, c| (r * 3 + c) as f32 + 1.0);
        let set = WindowSet::of_rows([36, 0], 37).unwrap();
        assert_eq!(set.num_rows(), 16 + 5);
        let back = set.scatter(&set.gather(&x));
        for r in 0..37 {
            let kept = !(16..32).contains(&r);
            for c in 0..3 {
                let want = if kept { x.get(r, c) } else { 0.0 };
                assert_eq!(back.get(r, c), want);
            }
        }
    }

    #[test]
    fn every_window_is_full_demand() {
        assert!(WindowSet::of_rows(0..40, 40).is_none());
        assert!(WindowSet::of_rows([0, 16, 32], 40).is_none());
        assert_eq!(WindowSet::of_rows([0, 32], 40).unwrap().len(), 2);
    }
}

//! Compressed Sparse Row graph — the paper's `nodePointer` / `edgeList`.

use serde::{Deserialize, Serialize};

use crate::{GraphError, NodeId, Result};

/// Typed content hash of a [`CsrGraph`].
///
/// A graph has two versions, both in this newtype, derived differently
/// and never compared with each other:
///
/// - [`CsrGraph::fingerprint`], a byte-wise FNV-1a over the whole CSR, is
///   the *stamp* reports and traces print;
/// - [`GraphVersion::from_windows`], a word-wise hash over the node count
///   and the per-window fingerprints, is the *key* the serve-side
///   translation cache and engines use. It is cheap to keep current
///   under mutation: an edit rehashes only the windows it touched, then
///   recomposes the key in `O(windows)`.
///
/// Wrapping the raw word in a newtype keeps translation-cache keys,
/// serve-report stamps, and trace metadata from being confused with other
/// `u64`s (edge counts, seeds, checksums). Two graphs share a version of
/// either kind iff their CSR arrays are identical (up to hash collisions).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct GraphVersion {
    raw: u64,
}

impl GraphVersion {
    /// Wraps a raw hash word (for tests and deserialized reports).
    pub fn from_u64(raw: u64) -> Self {
        GraphVersion { raw }
    }

    /// The raw 64-bit hash, for serialization into reports and traces.
    pub fn as_u64(self) -> u64 {
        self.raw
    }

    /// The version key of a graph with `num_nodes` nodes whose windows
    /// have the fingerprints `window_fps`
    /// ([`CsrGraph::window_fingerprints`], in window order).
    ///
    /// One FNV-1a step per 64-bit word: each step is a bijection of the
    /// running hash for a fixed word and injective in the word for a fixed
    /// hash, so two inputs of the same length that differ in one window
    /// never share a key. The node count and the window fingerprints
    /// determine the CSR, so equal keys mean equal graphs up to hash
    /// collisions.
    pub fn from_windows(num_nodes: usize, window_fps: &[u64]) -> Self {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let step = |h: u64, v: u64| (h ^ v).wrapping_mul(FNV_PRIME);
        let head = step(step(FNV_OFFSET, num_nodes as u64), window_fps.len() as u64);
        GraphVersion {
            raw: window_fps.iter().fold(head, |h, &fp| step(h, fp)),
        }
    }
}

impl std::fmt::Display for GraphVersion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.raw)
    }
}

/// A graph in CSR format.
///
/// `node_pointer` has `num_nodes + 1` entries; the neighbors of node `v`
/// are `edge_list[node_pointer[v] .. node_pointer[v + 1]]`, sorted
/// ascending with no duplicates. This is the exact structure the paper's
/// Algorithm 1 consumes (`nodePointer`, `edgeList`) and every kernel in
/// `tcg-kernels` reads.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CsrGraph {
    num_nodes: usize,
    node_pointer: Vec<usize>,
    edge_list: Vec<NodeId>,
}

/// A shared copy of a borrowed graph, as `String::from(&str)` copies: lets
/// an API that keeps its graph behind an `Arc` also accept `&CsrGraph`.
impl From<&CsrGraph> for std::sync::Arc<CsrGraph> {
    fn from(g: &CsrGraph) -> Self {
        std::sync::Arc::new(g.clone())
    }
}

impl CsrGraph {
    /// Builds a CSR graph from raw arrays, validating all invariants.
    ///
    /// Invariants checked:
    /// - `node_pointer.len() == num_nodes + 1`, starts at 0, monotone
    ///   non-decreasing, ends at `edge_list.len()`;
    /// - every neighbor id is `< num_nodes`;
    /// - each row is strictly ascending (sorted, duplicate-free).
    pub fn from_raw(
        num_nodes: usize,
        node_pointer: Vec<usize>,
        edge_list: Vec<NodeId>,
    ) -> Result<Self> {
        if node_pointer.len() != num_nodes + 1 {
            return Err(GraphError::MalformedNodePointer {
                reason: format!(
                    "length {} != num_nodes + 1 = {}",
                    node_pointer.len(),
                    num_nodes + 1
                ),
            });
        }
        if node_pointer.first() != Some(&0) {
            return Err(GraphError::MalformedNodePointer {
                reason: "first entry must be 0".into(),
            });
        }
        if *node_pointer.last().expect("non-empty") != edge_list.len() {
            return Err(GraphError::MalformedNodePointer {
                reason: format!(
                    "last entry {} != edge count {}",
                    node_pointer.last().unwrap(),
                    edge_list.len()
                ),
            });
        }
        for w in node_pointer.windows(2) {
            if w[1] < w[0] {
                return Err(GraphError::MalformedNodePointer {
                    reason: "non-monotone".into(),
                });
            }
        }
        let g = CsrGraph {
            num_nodes,
            node_pointer,
            edge_list,
        };
        for v in 0..num_nodes {
            let row = g.neighbors(v);
            for &u in row {
                if u as usize >= num_nodes {
                    return Err(GraphError::NodeOutOfRange { node: u, num_nodes });
                }
            }
            for w in row.windows(2) {
                if w[1] <= w[0] {
                    return Err(if w[1] == w[0] {
                        GraphError::DuplicateEdge {
                            src: v as NodeId,
                            dst: w[0],
                        }
                    } else {
                        GraphError::UnsortedRow { row: v }
                    });
                }
            }
        }
        Ok(g)
    }

    /// Builds CSR from a `(src, dst)` list already sorted by `(src, dst)`
    /// with duplicates removed (what [`crate::CooGraph::into_csr`] provides).
    pub fn from_sorted_coo(num_nodes: usize, src: &[NodeId], dst: &[NodeId]) -> Result<Self> {
        let mut node_pointer = vec![0usize; num_nodes + 1];
        for &s in src {
            if s as usize >= num_nodes {
                return Err(GraphError::NodeOutOfRange { node: s, num_nodes });
            }
            node_pointer[s as usize + 1] += 1;
        }
        for i in 0..num_nodes {
            node_pointer[i + 1] += node_pointer[i];
        }
        Self::from_raw(num_nodes, node_pointer, dst.to_vec())
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of directed edges (non-zeros of the adjacency matrix).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edge_list.len()
    }

    /// The row pointer array (`nodePointer` in the paper).
    #[inline]
    pub fn node_pointer(&self) -> &[usize] {
        &self.node_pointer
    }

    /// The concatenated neighbor lists (`edgeList` in the paper).
    #[inline]
    pub fn edge_list(&self) -> &[NodeId] {
        &self.edge_list
    }

    /// Neighbors of node `v` (sorted ascending).
    #[inline]
    pub fn neighbors(&self, v: usize) -> &[NodeId] {
        &self.edge_list[self.node_pointer[v]..self.node_pointer[v + 1]]
    }

    /// Out-degree of node `v`.
    #[inline]
    pub fn degree(&self, v: usize) -> usize {
        self.node_pointer[v + 1] - self.node_pointer[v]
    }

    /// Yields `(src, dst)` for every edge, row by row.
    pub fn iter_edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        (0..self.num_nodes)
            .flat_map(move |v| self.neighbors(v).iter().map(move |&u| (v as NodeId, u)))
    }

    /// Returns the transposed graph (reverse of every edge).
    ///
    /// Needed for backward passes: if aggregation uses `A`, its gradient
    /// uses `Aᵀ`. For symmetrized graphs this is equal to `self`.
    pub fn transpose(&self) -> CsrGraph {
        let mut counts = vec![0usize; self.num_nodes + 1];
        for &d in &self.edge_list {
            counts[d as usize + 1] += 1;
        }
        for i in 0..self.num_nodes {
            counts[i + 1] += counts[i];
        }
        let node_pointer = counts.clone();
        let mut cursor = counts;
        let mut edge_list = vec![0 as NodeId; self.edge_list.len()];
        for v in 0..self.num_nodes {
            for &u in self.neighbors(v) {
                edge_list[cursor[u as usize]] = v as NodeId;
                cursor[u as usize] += 1;
            }
        }
        // Rows come out sorted because we scan sources in ascending order.
        CsrGraph {
            num_nodes: self.num_nodes,
            node_pointer,
            edge_list,
        }
    }

    /// Transposes the graph together with a per-edge value array, returning
    /// the transposed graph and the values realigned to its edge order.
    ///
    /// Needed by backward passes over *weighted* aggregation (AGNN's
    /// attention matrix is not symmetric even on a symmetric graph).
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != self.num_edges()`.
    pub fn transpose_with_values(&self, values: &[f32]) -> (CsrGraph, Vec<f32>) {
        assert_eq!(values.len(), self.num_edges());
        let mut counts = vec![0usize; self.num_nodes + 1];
        for &d in &self.edge_list {
            counts[d as usize + 1] += 1;
        }
        for i in 0..self.num_nodes {
            counts[i + 1] += counts[i];
        }
        let node_pointer = counts.clone();
        let mut cursor = counts;
        let mut edge_list = vec![0 as NodeId; self.edge_list.len()];
        let mut out_vals = vec![0.0f32; values.len()];
        let mut e = 0usize;
        for v in 0..self.num_nodes {
            for &u in self.neighbors(v) {
                let slot = cursor[u as usize];
                edge_list[slot] = v as NodeId;
                out_vals[slot] = values[e];
                cursor[u as usize] += 1;
                e += 1;
            }
        }
        (
            CsrGraph {
                num_nodes: self.num_nodes,
                node_pointer,
                edge_list,
            },
            out_vals,
        )
    }

    /// Edge permutation realizing the transpose: `perm[i]` is the index in
    /// `self`'s edge order of the `i`-th edge of `self.transpose()`.
    ///
    /// Lets per-epoch edge values be realigned for `Aᵀ` aggregation with a
    /// single gather (`vals_t[i] = vals[perm[i]]`) instead of rebuilding the
    /// transposed graph each time.
    pub fn transpose_permutation(&self) -> Vec<u32> {
        let mut counts = vec![0usize; self.num_nodes + 1];
        for &d in &self.edge_list {
            counts[d as usize + 1] += 1;
        }
        for i in 0..self.num_nodes {
            counts[i + 1] += counts[i];
        }
        let mut cursor = counts;
        let mut perm = vec![0u32; self.edge_list.len()];
        let mut e = 0usize;
        for v in 0..self.num_nodes {
            for &u in self.neighbors(v) {
                perm[cursor[u as usize]] = e as u32;
                cursor[u as usize] += 1;
                e += 1;
            }
        }
        perm
    }

    /// True if the edge set is symmetric (`(u,v)` present iff `(v,u)`).
    pub fn is_symmetric(&self) -> bool {
        let t = self.transpose();
        self.node_pointer == t.node_pointer && self.edge_list == t.edge_list
    }

    /// Checks whether edge `(v, u)` exists (binary search on the row).
    pub fn has_edge(&self, v: usize, u: NodeId) -> bool {
        self.neighbors(v).binary_search(&u).is_ok()
    }

    /// GCN symmetric normalization values `1 / sqrt(d_src * d_dst)` per edge,
    /// aligned with `edge_list` order (`D^{-1/2} A D^{-1/2}`).
    ///
    /// Degrees of isolated endpoints are clamped to 1 so values stay finite.
    pub fn gcn_norm_edge_values(&self) -> Vec<f32> {
        let deg: Vec<f32> = (0..self.num_nodes)
            .map(|v| self.degree(v).max(1) as f32)
            .collect();
        let mut vals = Vec::with_capacity(self.num_edges());
        for v in 0..self.num_nodes {
            let dv = deg[v];
            for &u in self.neighbors(v) {
                vals.push(1.0 / (dv * deg[u as usize]).sqrt());
            }
        }
        vals
    }

    /// Bytes used by the CSR arrays (for the Table 3 memory-consumption
    /// column).
    pub fn memory_bytes(&self) -> usize {
        self.node_pointer.len() * std::mem::size_of::<usize>()
            + self.edge_list.len() * std::mem::size_of::<NodeId>()
    }

    /// Stable content hash over the graph's structure: node count, row
    /// pointers, and column indices, folded through FNV-1a (64-bit).
    ///
    /// Two graphs share a fingerprint iff their CSR arrays are identical.
    /// The hash is a pure function of the arrays — no pointer identity, no
    /// randomized hasher state — so it is stable across processes and runs,
    /// which makes it the provenance stamp reports and traces print. It
    /// reads every byte of the graph; a key that must follow a graph
    /// through many edits is [`GraphVersion::from_windows`] instead.
    pub fn fingerprint(&self) -> GraphVersion {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut eat = |x: u64| {
            for b in x.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        eat(self.num_nodes as u64);
        for &p in &self.node_pointer {
            eat(p as u64);
        }
        for &u in &self.edge_list {
            eat(u64::from(u));
        }
        GraphVersion { raw: h }
    }

    /// Content hash of one `win_size`-row window: the degrees and neighbor
    /// lists of rows `w * win_size .. min((w + 1) * win_size, num_nodes)`.
    ///
    /// The hash depends only on rows inside the window, never on absolute
    /// edge offsets, so an edit to some other window leaves it unchanged.
    /// That invariance is what lets the serve-side translation cache reuse
    /// per-window SGT state across graph versions.
    ///
    /// # Panics
    ///
    /// Panics if `win_size == 0` or the window is out of range.
    pub fn window_fingerprint(&self, win_size: usize, w: usize) -> u64 {
        assert!(win_size > 0, "window size must be positive");
        let lo = w * win_size;
        assert!(
            lo < self.num_nodes,
            "window {w} out of range for {} nodes (win_size {win_size})",
            self.num_nodes
        );
        let hi = (lo + win_size).min(self.num_nodes);
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut eat = |x: u64| {
            for b in x.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        eat(win_size as u64);
        eat((hi - lo) as u64);
        for v in lo..hi {
            eat(self.degree(v) as u64);
            for &u in self.neighbors(v) {
                eat(u64::from(u));
            }
        }
        h
    }

    /// [`Self::window_fingerprint`] for every window, in window order.
    /// Returns `ceil(num_nodes / win_size)` hashes.
    pub fn window_fingerprints(&self, win_size: usize) -> Vec<u64> {
        assert!(win_size > 0, "window size must be positive");
        let windows = self.num_nodes.div_ceil(win_size);
        (0..windows)
            .map(|w| self.window_fingerprint(win_size, w))
            .collect()
    }

    /// Inserts directed edge `(src, dst)`, keeping the row sorted and
    /// duplicate-free. Returns `Ok(true)` if the edge was added, `Ok(false)`
    /// if it was already present, and an error if either endpoint is out of
    /// range. `O(E)` worst case (suffix of `edge_list` shifts right).
    pub fn insert_edge(&mut self, src: NodeId, dst: NodeId) -> Result<bool> {
        let s = src as usize;
        if s >= self.num_nodes {
            return Err(GraphError::NodeOutOfRange {
                node: src,
                num_nodes: self.num_nodes,
            });
        }
        if dst as usize >= self.num_nodes {
            return Err(GraphError::NodeOutOfRange {
                node: dst,
                num_nodes: self.num_nodes,
            });
        }
        match self.neighbors(s).binary_search(&dst) {
            Ok(_) => Ok(false),
            Err(i) => {
                self.edge_list.insert(self.node_pointer[s] + i, dst);
                for p in &mut self.node_pointer[s + 1..] {
                    *p += 1;
                }
                Ok(true)
            }
        }
    }

    /// Removes directed edge `(src, dst)`. Returns `Ok(true)` if the edge
    /// existed and was removed, `Ok(false)` if it was absent, and an error
    /// if either endpoint is out of range. `O(E)` worst case.
    pub fn remove_edge(&mut self, src: NodeId, dst: NodeId) -> Result<bool> {
        let s = src as usize;
        if s >= self.num_nodes {
            return Err(GraphError::NodeOutOfRange {
                node: src,
                num_nodes: self.num_nodes,
            });
        }
        if dst as usize >= self.num_nodes {
            return Err(GraphError::NodeOutOfRange {
                node: dst,
                num_nodes: self.num_nodes,
            });
        }
        match self.neighbors(s).binary_search(&dst) {
            Ok(i) => {
                self.edge_list.remove(self.node_pointer[s] + i);
                for p in &mut self.node_pointer[s + 1..] {
                    *p -= 1;
                }
                Ok(true)
            }
            Err(_) => Ok(false),
        }
    }

    /// This graph with the directed edges `deletes` removed and `inserts`
    /// added, built in one merge pass over the rows: each run of untouched
    /// rows is copied as one slice with its row pointers shifted by one
    /// constant, and each edited row is merged with its sorted edits.
    /// `O(V + E + k log k)` for `k` edits, against `O(E)` per edit for
    /// [`Self::insert_edge`] and [`Self::remove_edge`], whose result it
    /// equals.
    ///
    /// Errors, leaving `self` untouched, if an endpoint is out of range, an
    /// edge appears twice in one list, a deleted edge is absent or an
    /// inserted one present (an edge in both lists is one of the latter).
    pub fn edited(
        &self,
        deletes: &[(NodeId, NodeId)],
        inserts: &[(NodeId, NodeId)],
    ) -> Result<CsrGraph> {
        let n = self.num_nodes;
        let sorted = |ops: &[(NodeId, NodeId)]| -> Result<Vec<(NodeId, NodeId)>> {
            let mut ops = ops.to_vec();
            ops.sort_unstable();
            if let Some(p) = ops.windows(2).find(|p| p[0] == p[1]) {
                let (src, dst) = p[0];
                return Err(GraphError::DuplicateEdge { src, dst });
            }
            match ops
                .iter()
                .flat_map(|&(s, d)| [s, d])
                .find(|&v| v as usize >= n)
            {
                Some(node) => Err(GraphError::NodeOutOfRange { node, num_nodes: n }),
                None => Ok(ops),
            }
        };
        let (deletes, inserts) = (sorted(deletes)?, sorted(inserts)?);
        let mut node_pointer = Vec::with_capacity(n + 1);
        let mut edge_list = Vec::with_capacity(
            (self.edge_list.len() + inserts.len()).saturating_sub(deletes.len()),
        );
        node_pointer.push(0usize);
        let (mut dels, mut ins) = (&deletes[..], &inserts[..]);
        let mut row = 0usize;
        while row < n {
            let next = [dels.first(), ins.first()]
                .into_iter()
                .flatten()
                .map(|&(s, _)| s as usize)
                .min()
                .unwrap_or(n);
            let (lo, base) = (self.node_pointer[row], edge_list.len());
            edge_list.extend_from_slice(&self.edge_list[lo..self.node_pointer[next]]);
            node_pointer.extend(
                self.node_pointer[row + 1..=next]
                    .iter()
                    .map(|&p| p - lo + base),
            );
            if next == n {
                break;
            }
            let split =
                |ops: &[(NodeId, NodeId)]| ops.partition_point(|&(s, _)| s as usize == next);
            let (row_dels, rest) = dels.split_at(split(dels));
            dels = rest;
            let (row_ins, rest) = ins.split_at(split(ins));
            ins = rest;
            let src = next as NodeId;
            let (mut d, mut i) = (row_dels.iter().map(|e| e.1).peekable(), row_ins.iter());
            let mut pending = i.next().map(|e| e.1);
            for &u in self.neighbors(next) {
                while let Some(v) = pending.filter(|&v| v <= u) {
                    if v == u {
                        return Err(GraphError::DuplicateEdge { src, dst: u });
                    }
                    edge_list.push(v);
                    pending = i.next().map(|e| e.1);
                }
                match d.peek() {
                    Some(&v) if v == u => {
                        d.next();
                    }
                    Some(&v) if v < u => return Err(GraphError::MissingEdge { src, dst: v }),
                    _ => edge_list.push(u),
                }
            }
            if let Some(dst) = d.next() {
                return Err(GraphError::MissingEdge { src, dst });
            }
            edge_list.extend(pending.into_iter().chain(i.map(|e| e.1)));
            node_pointer.push(edge_list.len());
            row = next + 1;
        }
        Ok(CsrGraph {
            num_nodes: n,
            node_pointer,
            edge_list,
        })
    }

    /// The subgraph induced by the nodes with `keep[v] == true`: kept nodes
    /// are renumbered densely in their original order, and an edge survives
    /// iff both endpoints are kept. Rows stay sorted and duplicate-free, so
    /// the result is always a valid CSR graph; symmetry is preserved.
    ///
    /// This is the primitive the oracle's input shrinker uses to minimize a
    /// failing graph while keeping it well-formed.
    ///
    /// # Panics
    ///
    /// Panics if `keep.len() != self.num_nodes()`.
    pub fn induced_subgraph(&self, keep: &[bool]) -> CsrGraph {
        assert_eq!(keep.len(), self.num_nodes, "keep mask length mismatch");
        let mut new_id = vec![NodeId::MAX; self.num_nodes];
        let mut n = 0 as NodeId;
        for v in 0..self.num_nodes {
            if keep[v] {
                new_id[v] = n;
                n += 1;
            }
        }
        let mut node_pointer = Vec::with_capacity(n as usize + 1);
        node_pointer.push(0usize);
        let mut edge_list = Vec::new();
        for v in 0..self.num_nodes {
            if !keep[v] {
                continue;
            }
            for &u in self.neighbors(v) {
                if keep[u as usize] {
                    edge_list.push(new_id[u as usize]);
                }
            }
            node_pointer.push(edge_list.len());
        }
        // Remapping is monotone on kept ids, so each row stays sorted.
        CsrGraph {
            num_nodes: n as usize,
            node_pointer,
            edge_list,
        }
    }

    /// The paper's "effective computation" metric: `nnz / N²` (Table 2).
    pub fn effective_compute_ratio(&self) -> f64 {
        if self.num_nodes == 0 {
            return 0.0;
        }
        self.num_edges() as f64 / (self.num_nodes as f64 * self.num_nodes as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CsrGraph {
        // 0 -> 1,2 ; 1 -> 2 ; 2 -> (none) ; 3 -> 0
        CsrGraph::from_raw(4, vec![0, 2, 3, 3, 4], vec![1, 2, 2, 0]).unwrap()
    }

    #[test]
    fn from_raw_validates() {
        // Wrong pointer length.
        assert!(CsrGraph::from_raw(2, vec![0, 1], vec![0]).is_err());
        // First not zero.
        assert!(CsrGraph::from_raw(1, vec![1, 1], vec![]).is_err());
        // Last != edge count.
        assert!(CsrGraph::from_raw(1, vec![0, 2], vec![0]).is_err());
        // Non-monotone.
        assert!(CsrGraph::from_raw(2, vec![0, 1, 0], vec![0]).is_err());
        // Out-of-range neighbor.
        assert!(matches!(
            CsrGraph::from_raw(2, vec![0, 1, 1], vec![5]),
            Err(GraphError::NodeOutOfRange { .. })
        ));
        // Unsorted row.
        assert!(matches!(
            CsrGraph::from_raw(3, vec![0, 2, 2, 2], vec![2, 1]),
            Err(GraphError::UnsortedRow { .. })
        ));
        // Duplicate edge.
        assert!(matches!(
            CsrGraph::from_raw(3, vec![0, 2, 2, 2], vec![1, 1]),
            Err(GraphError::DuplicateEdge { .. })
        ));
    }

    #[test]
    fn degrees_and_neighbors() {
        let g = small();
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(2), 0);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert!(g.has_edge(0, 2));
        assert!(!g.has_edge(2, 0));
    }

    #[test]
    fn iter_edges_complete() {
        let g = small();
        let edges: Vec<_> = g.iter_edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2), (3, 0)]);
    }

    #[test]
    fn transpose_involution() {
        let g = small();
        let t = g.transpose();
        assert_eq!(t.neighbors(0), &[3]);
        assert_eq!(t.neighbors(2), &[0, 1]);
        assert_eq!(t.transpose(), g);
        assert_eq!(t.num_edges(), g.num_edges());
    }

    #[test]
    fn transpose_with_values_realignment() {
        let g = small();
        let vals = vec![10.0, 20.0, 30.0, 40.0]; // (0,1)=10 (0,2)=20 (1,2)=30 (3,0)=40
        let (t, tv) = g.transpose_with_values(&vals);
        assert_eq!(t, g.transpose());
        // t edges row 0: [3] val 40; row 1: [0] val 10; row 2: [0,1] vals 20,30.
        assert_eq!(tv, vec![40.0, 10.0, 20.0, 30.0]);
    }

    #[test]
    fn transpose_permutation_matches_transpose_with_values() {
        let g = small();
        let vals = vec![10.0, 20.0, 30.0, 40.0];
        let (_, tv) = g.transpose_with_values(&vals);
        let perm = g.transpose_permutation();
        let via_perm: Vec<f32> = perm.iter().map(|&i| vals[i as usize]).collect();
        assert_eq!(tv, via_perm);
    }

    #[test]
    fn symmetry_detection() {
        let g = small();
        assert!(!g.is_symmetric());
        let sym = CsrGraph::from_raw(3, vec![0, 1, 3, 4], vec![1, 0, 2, 1]).unwrap();
        assert!(sym.is_symmetric());
    }

    #[test]
    fn gcn_norm_values() {
        // Symmetric path 0-1-2.
        let g = CsrGraph::from_raw(3, vec![0, 1, 3, 4], vec![1, 0, 2, 1]).unwrap();
        let vals = g.gcn_norm_edge_values();
        // Edge (0,1): 1/sqrt(1*2); edge (1,0): 1/sqrt(2*1); (1,2): 1/sqrt(2*1); (2,1): 1/sqrt(1*2).
        let e = 1.0 / (2.0f32).sqrt();
        for v in vals {
            assert!((v - e).abs() < 1e-6);
        }
    }

    #[test]
    fn metric_helpers() {
        let g = small();
        assert!((g.effective_compute_ratio() - 4.0 / 16.0).abs() < 1e-12);
        assert!(g.memory_bytes() > 0);
    }

    #[test]
    fn induced_subgraph_renumbers_and_filters() {
        let g = small(); // edges (0,1) (0,2) (1,2) (3,0)
                         // Drop node 1: survivors 0,2,3 → new ids 0,1,2. Surviving edges:
                         // (0,2)→(0,1) and (3,0)→(2,0).
        let sub = g.induced_subgraph(&[true, false, true, true]);
        assert_eq!(sub.num_nodes(), 3);
        assert_eq!(sub.iter_edges().collect::<Vec<_>>(), vec![(0, 1), (2, 0)]);
        // Keeping everything is the identity.
        assert_eq!(g.induced_subgraph(&[true; 4]), g);
        // Keeping nothing is the empty graph.
        let empty = g.induced_subgraph(&[false; 4]);
        assert_eq!(empty.num_nodes(), 0);
        assert_eq!(empty.num_edges(), 0);
    }

    #[test]
    fn induced_subgraph_preserves_symmetry() {
        let sym = CsrGraph::from_raw(3, vec![0, 1, 3, 4], vec![1, 0, 2, 1]).unwrap();
        assert!(sym.is_symmetric());
        let sub = sym.induced_subgraph(&[true, true, false]);
        assert!(sub.is_symmetric());
        assert_eq!(sub.iter_edges().collect::<Vec<_>>(), vec![(0, 1), (1, 0)]);
    }

    #[test]
    fn fingerprint_is_deterministic_and_content_addressed() {
        let g = small();
        // Stable across calls and across separately constructed copies.
        assert_eq!(g.fingerprint(), g.fingerprint());
        let same = CsrGraph::from_raw(4, vec![0, 2, 3, 3, 4], vec![1, 2, 2, 0]).unwrap();
        assert_eq!(g.fingerprint(), same.fingerprint());
    }

    #[test]
    fn fingerprint_distinguishes_structure() {
        let g = small();
        // Different edge target.
        let other = CsrGraph::from_raw(4, vec![0, 2, 3, 3, 4], vec![1, 3, 2, 0]).unwrap();
        assert_ne!(g.fingerprint(), other.fingerprint());
        // Same edge list, different row boundaries.
        let shifted = CsrGraph::from_raw(4, vec![0, 2, 2, 3, 4], vec![1, 2, 2, 0]).unwrap();
        assert_ne!(g.fingerprint(), shifted.fingerprint());
        // Extra isolated node changes the node count.
        let padded = CsrGraph::from_raw(5, vec![0, 2, 3, 3, 4, 4], vec![1, 2, 2, 0]).unwrap();
        assert_ne!(g.fingerprint(), padded.fingerprint());
        // Empty graphs of different sizes differ too.
        let e1 = CsrGraph::from_raw(1, vec![0, 0], vec![]).unwrap();
        let e2 = CsrGraph::from_raw(2, vec![0, 0, 0], vec![]).unwrap();
        assert_ne!(e1.fingerprint(), e2.fingerprint());
    }

    #[test]
    fn graph_version_newtype_round_trips() {
        let v = small().fingerprint();
        assert_eq!(GraphVersion::from_u64(v.as_u64()), v);
        assert_eq!(format!("{v}").len(), 16); // zero-padded hex
    }

    #[test]
    fn insert_edge_keeps_rows_sorted_and_deduped() {
        let mut g = small();
        // Already present: no-op.
        assert!(!g.insert_edge(0, 1).unwrap());
        assert_eq!(g.num_edges(), 4);
        // New edge lands in sorted position.
        assert!(g.insert_edge(0, 0).unwrap());
        assert_eq!(g.neighbors(0), &[0, 1, 2]);
        // Later rows shifted, content intact.
        assert_eq!(g.neighbors(1), &[2]);
        assert_eq!(g.neighbors(3), &[0]);
        assert_eq!(
            g,
            CsrGraph::from_raw(4, g.node_pointer().to_vec(), g.edge_list().to_vec()).unwrap()
        );
        // Out-of-range endpoints are typed errors.
        assert!(matches!(
            g.insert_edge(9, 0),
            Err(GraphError::NodeOutOfRange { .. })
        ));
        assert!(matches!(
            g.insert_edge(0, 9),
            Err(GraphError::NodeOutOfRange { .. })
        ));
    }

    #[test]
    fn remove_edge_inverse_of_insert() {
        let mut g = small();
        assert!(g.remove_edge(0, 2).unwrap());
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.num_edges(), 3);
        // Absent edge: no-op.
        assert!(!g.remove_edge(0, 2).unwrap());
        // Round-trip back to the original.
        assert!(g.insert_edge(0, 2).unwrap());
        assert_eq!(g, small());
        assert!(matches!(
            g.remove_edge(9, 0),
            Err(GraphError::NodeOutOfRange { .. })
        ));
    }

    #[test]
    fn window_fingerprint_is_window_local() {
        // Two windows of 2 rows each.
        let g = small();
        let before = g.window_fingerprints(2);
        assert_eq!(before.len(), 2);
        // Mutate a row in window 1 only.
        let mut h = g.clone();
        h.insert_edge(3, 1).unwrap();
        let after = h.window_fingerprints(2);
        assert_eq!(before[0], after[0], "untouched window hash must not move");
        assert_ne!(before[1], after[1], "touched window hash must move");
        // Whole-graph versions differ even though window 0 matches.
        assert_ne!(g.fingerprint(), h.fingerprint());
        // Ragged last window still hashes.
        let odd = CsrGraph::from_raw(3, vec![0, 1, 3, 4], vec![1, 0, 2, 1]).unwrap();
        assert_eq!(odd.window_fingerprints(2).len(), 2);
        // Empty graph has no windows.
        let empty = CsrGraph::from_raw(0, vec![0], vec![]).unwrap();
        assert!(empty.window_fingerprints(16).is_empty());
    }

    #[test]
    fn window_composed_version_follows_the_windows_and_the_node_count() {
        let key =
            |g: &CsrGraph| GraphVersion::from_windows(g.num_nodes(), &g.window_fingerprints(2));
        let g = small();
        assert_eq!(key(&g), key(&g.clone()));
        let mut h = g.clone();
        h.insert_edge(3, 1).unwrap();
        assert_ne!(key(&g), key(&h));
        // The same window hashes under another node count are another key.
        let fps = g.window_fingerprints(2);
        assert_ne!(
            GraphVersion::from_windows(4, &fps),
            GraphVersion::from_windows(5, &fps)
        );
        // Edge-free graphs of different sizes differ.
        let e3 = CsrGraph::from_raw(3, vec![0; 4], vec![]).unwrap();
        let e4 = CsrGraph::from_raw(4, vec![0; 5], vec![]).unwrap();
        assert_ne!(key(&e3), key(&e4));
    }

    #[test]
    fn edited_equals_single_edge_edits_and_rejects_bad_edits() {
        let g = small();
        let mut want = g.clone();
        want.remove_edge(0, 2).unwrap();
        want.remove_edge(3, 0).unwrap();
        want.insert_edge(2, 3).unwrap();
        want.insert_edge(0, 3).unwrap();
        want.insert_edge(0, 0).unwrap();
        // Lists in any order; the rows between edits are copied.
        let got = g.edited(&[(3, 0), (0, 2)], &[(2, 3), (0, 3), (0, 0)]);
        assert_eq!(got, Ok(want));
        assert_eq!(g.edited(&[], &[]), Ok(g.clone()));

        let missing = GraphError::MissingEdge { src: 1, dst: 0 };
        assert_eq!(g.edited(&[(1, 0)], &[]), Err(missing));
        // Missing past the row's last neighbour, too.
        let missing = GraphError::MissingEdge { src: 2, dst: 3 };
        assert_eq!(g.edited(&[(2, 3)], &[]), Err(missing));
        let present = GraphError::DuplicateEdge { src: 0, dst: 1 };
        assert_eq!(g.edited(&[], &[(0, 1)]), Err(present));
        let twice = GraphError::DuplicateEdge { src: 1, dst: 3 };
        assert_eq!(g.edited(&[], &[(1, 3), (1, 3)]), Err(twice));
        let range = GraphError::NodeOutOfRange {
            node: 9,
            num_nodes: 4,
        };
        assert_eq!(g.edited(&[], &[(1, 9)]), Err(range.clone()));
        assert_eq!(g.edited(&[(9, 1)], &[]), Err(range));
    }
}

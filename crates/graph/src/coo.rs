//! Coordinate-format (edge list) graph, the builder format.

use serde::{Deserialize, Serialize};

use crate::{NodeId, Result};

/// A graph as an explicit edge list.
///
/// COO is the natural output format of the synthetic generators; it is
/// converted once to [`crate::CsrGraph`] for everything downstream. Edges are
/// directed; undirected graphs are represented by storing both directions
/// (see [`CooGraph::symmetrize`]), matching how GNN frameworks store
/// adjacency.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CooGraph {
    num_nodes: usize,
    src: Vec<NodeId>,
    dst: Vec<NodeId>,
}

impl CooGraph {
    /// Creates an empty edge list over `num_nodes` nodes.
    pub fn new(num_nodes: usize) -> Self {
        CooGraph {
            num_nodes,
            src: Vec::new(),
            dst: Vec::new(),
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of (directed) edges currently stored.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.src.len()
    }

    /// Source endpoints.
    #[inline]
    pub fn src(&self) -> &[NodeId] {
        &self.src
    }

    /// Destination endpoints.
    #[inline]
    pub fn dst(&self) -> &[NodeId] {
        &self.dst
    }

    /// Appends one directed edge (unchecked against duplicates).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if an endpoint is out of range; generators call
    /// this in hot loops so release builds skip the check and the final
    /// [`CooGraph::into_csr`] validation catches violations.
    #[inline]
    pub fn push_edge(&mut self, s: NodeId, d: NodeId) {
        debug_assert!((s as usize) < self.num_nodes && (d as usize) < self.num_nodes);
        self.src.push(s);
        self.dst.push(d);
    }

    /// Adds the reverse of every edge, making the edge set symmetric.
    /// Duplicates introduced here are removed by [`CooGraph::dedup`].
    pub fn symmetrize(&mut self) {
        let n = self.src.len();
        self.src.reserve(n);
        self.dst.reserve(n);
        for i in 0..n {
            let (s, d) = (self.src[i], self.dst[i]);
            if s != d {
                self.src.push(d);
                self.dst.push(s);
            }
        }
    }

    /// Sorts edges by `(src, dst)` and removes duplicates.
    pub fn dedup(&mut self) {
        let mut pairs: Vec<(NodeId, NodeId)> = self
            .src
            .iter()
            .copied()
            .zip(self.dst.iter().copied())
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        self.src.clear();
        self.dst.clear();
        for (s, d) in pairs {
            self.src.push(s);
            self.dst.push(d);
        }
    }

    /// Converts to CSR, sorting and deduplicating along the way.
    pub fn into_csr(mut self) -> Result<crate::CsrGraph> {
        self.dedup();
        crate::CsrGraph::from_sorted_coo(self.num_nodes, &self.src, &self.dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coo(num_nodes: usize, edges: &[(NodeId, NodeId)]) -> CooGraph {
        let mut g = CooGraph::new(num_nodes);
        for &(s, d) in edges {
            g.push_edge(s, d);
        }
        g
    }

    #[test]
    fn symmetrize_doubles_non_loops() {
        let mut g = coo(3, &[(0, 1), (1, 2), (2, 2)]);
        g.symmetrize();
        // Edge (2,2) is a self loop and is not mirrored.
        assert_eq!(g.num_edges(), 5);
    }

    #[test]
    fn dedup_removes_duplicates_and_sorts() {
        let mut g = coo(3, &[(1, 2), (0, 1), (1, 2), (0, 1)]);
        g.dedup();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.src(), &[0, 1]);
        assert_eq!(g.dst(), &[1, 2]);
    }

    #[test]
    fn into_csr_roundtrip() {
        let g = coo(4, &[(2, 1), (0, 3), (0, 1), (3, 0)]);
        let csr = g.into_csr().unwrap();
        assert_eq!(csr.num_nodes(), 4);
        assert_eq!(csr.num_edges(), 4);
        assert_eq!(csr.neighbors(0), &[1, 3]);
        assert_eq!(csr.neighbors(1), &[] as &[NodeId]);
        assert_eq!(csr.neighbors(2), &[1]);
        assert_eq!(csr.neighbors(3), &[0]);
    }
}

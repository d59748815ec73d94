//! Synthetic graph generators.
//!
//! Each generator targets a *directed* non-zero count (`target_edges`, i.e.
//! the nnz of the symmetric adjacency matrix, which is how the paper's
//! Table 4 counts edges) and produces a symmetric, duplicate-free
//! [`CsrGraph`]. The three families map onto the paper's dataset classes:
//!
//! - [`citation`] / [`watts_strogatz`]: Type I — small graphs, skewed degree
//!   distribution with locality (shared neighbors abound, which is what SGT
//!   condenses);
//! - [`community`]: Type II — disjoint small dense subgraphs, intra-graph
//!   edges only (the graph-kernel datasets PyG bundles);
//! - [`rmat`]: Type III — large power-law graphs with highly irregular,
//!   scattered connectivity;
//! - [`erdos_renyi`]: structure-free control used by tests and ablations.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::{CooGraph, CsrGraph, NodeId, Result};

/// Collects undirected pairs into a symmetric CSR graph.
fn finish(num_nodes: usize, pairs: Vec<(NodeId, NodeId)>) -> Result<CsrGraph> {
    let mut coo = CooGraph::new(num_nodes);
    for (a, b) in pairs {
        if a != b {
            coo.push_edge(a, b);
        }
    }
    coo.symmetrize();
    coo.into_csr()
}

/// Erdős–Rényi G(n, m): `target_edges / 2` undirected pairs sampled
/// uniformly, then symmetrized.
pub fn erdos_renyi(num_nodes: usize, target_edges: usize, seed: u64) -> Result<CsrGraph> {
    let mut rng = StdRng::seed_from_u64(seed);
    let want = target_edges / 2;
    let mut pairs = Vec::with_capacity(want);
    for _ in 0..want {
        let a = rng.random_range(0..num_nodes) as NodeId;
        let b = rng.random_range(0..num_nodes) as NodeId;
        pairs.push((a, b));
    }
    finish(num_nodes, pairs)
}

/// R-MAT generator (Chakrabarti et al.) — recursive quadrant descent with
/// probabilities `(a, b, c, d)`; the classic skewed setting
/// `(0.57, 0.19, 0.19, 0.05)` yields power-law graphs like the SNAP
/// Type III datasets.
pub fn rmat(
    num_nodes: usize,
    target_edges: usize,
    probs: (f64, f64, f64, f64),
    seed: u64,
) -> Result<CsrGraph> {
    let (a, b, c, _d) = probs;
    let mut rng = StdRng::seed_from_u64(seed);
    let scale = (num_nodes.max(2) as f64).log2().ceil() as u32;
    let side = 1usize << scale;
    let want = target_edges / 2;
    // Oversample ~15% to compensate for dedup and out-of-range clipping.
    let attempts = want + want / 6;
    let mut pairs = Vec::with_capacity(attempts);
    for _ in 0..attempts {
        let (mut x0, mut y0, mut len) = (0usize, 0usize, side);
        while len > 1 {
            len /= 2;
            let r: f64 = rng.random();
            if r < a {
                // top-left: nothing to add
            } else if r < a + b {
                y0 += len;
            } else if r < a + b + c {
                x0 += len;
            } else {
                x0 += len;
                y0 += len;
            }
        }
        if x0 < num_nodes && y0 < num_nodes && x0 != y0 {
            pairs.push((x0 as NodeId, y0 as NodeId));
        }
    }
    finish(num_nodes, pairs)
}

/// R-MAT with the standard skew `(0.57, 0.19, 0.19, 0.05)`.
pub fn rmat_default(num_nodes: usize, target_edges: usize, seed: u64) -> Result<CsrGraph> {
    rmat(num_nodes, target_edges, (0.57, 0.19, 0.19, 0.05), seed)
}

/// Watts–Strogatz small-world ring: each node linked to `k/2` neighbors on
/// each side, each link rewired with probability `beta`.
pub fn watts_strogatz(num_nodes: usize, k: usize, beta: f64, seed: u64) -> Result<CsrGraph> {
    let mut rng = StdRng::seed_from_u64(seed);
    let half = (k / 2).max(1);
    let mut pairs = Vec::with_capacity(num_nodes * half);
    for v in 0..num_nodes {
        for j in 1..=half {
            let mut u = (v + j) % num_nodes;
            if rng.random::<f64>() < beta {
                u = rng.random_range(0..num_nodes);
            }
            pairs.push((v as NodeId, u as NodeId));
        }
    }
    finish(num_nodes, pairs)
}

/// Citation-style generator: preferential attachment with a locality bias.
///
/// Every new node attaches `m ≈ target_edges / (2 num_nodes)` edges; each
/// endpoint is, with probability `locality`, a node from the recent window
/// (papers cite recent papers — this produces the column clustering that
/// makes SGT shine on Type I graphs), otherwise sampled preferentially from
/// previously used endpoints (power-law hubs).
pub fn citation(num_nodes: usize, target_edges: usize, seed: u64) -> Result<CsrGraph> {
    let mut rng = StdRng::seed_from_u64(seed);
    let m = (target_edges / 2 / num_nodes.max(1)).max(1);
    let locality = 0.7_f64;
    let window = (num_nodes / 20).max(4);
    let mut endpoints: Vec<NodeId> = Vec::with_capacity(target_edges);
    let mut pairs = Vec::with_capacity(num_nodes * m);
    for v in 1..num_nodes {
        for _ in 0..m {
            let u = if rng.random::<f64>() < locality || endpoints.is_empty() {
                let lo = v.saturating_sub(window);
                rng.random_range(lo..v)
            } else {
                endpoints[rng.random_range(0..endpoints.len())] as usize
            };
            if u != v {
                pairs.push((v as NodeId, u as NodeId));
                endpoints.push(u as NodeId);
                endpoints.push(v as NodeId);
            }
        }
    }
    finish(num_nodes, pairs)
}

/// Type II generator: a disjoint union of small dense components.
///
/// Nodes are split into contiguous components whose sizes are uniform in
/// `[comp_min, comp_max]`; edges are sampled only *within* components until
/// the global target is met. No inter-component edges exist, matching the
/// paper's description of the graph-kernel datasets ("intra-graph edge
/// connections without inter-graph edge connections").
pub fn community(
    num_nodes: usize,
    target_edges: usize,
    comp_min: usize,
    comp_max: usize,
    seed: u64,
) -> Result<CsrGraph> {
    assert!(comp_min >= 2 && comp_max >= comp_min);
    let mut rng = StdRng::seed_from_u64(seed);
    // Carve node range into components.
    let mut starts = vec![0usize];
    let mut pos = 0usize;
    while pos < num_nodes {
        let sz = rng.random_range(comp_min..=comp_max).min(num_nodes - pos);
        pos += sz.max(2).min(num_nodes - pos);
        starts.push(pos);
    }
    let ncomp = starts.len() - 1;
    let want = target_edges / 2;
    let mut pairs = Vec::with_capacity(want + want / 8);
    // Sample edges component-proportionally.
    for _ in 0..(want + want / 8) {
        let c = rng.random_range(0..ncomp);
        let (lo, hi) = (starts[c], starts[c + 1]);
        if hi - lo < 2 {
            continue;
        }
        let a = rng.random_range(lo..hi) as NodeId;
        let b = rng.random_range(lo..hi) as NodeId;
        if a != b {
            pairs.push((a, b));
        }
    }
    finish(num_nodes, pairs)
}

/// Component boundaries used by [`community`] for a given configuration —
/// exposed so dataset labeling can reuse the same partition.
pub fn community_partition(
    num_nodes: usize,
    comp_min: usize,
    comp_max: usize,
    seed: u64,
) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut starts = vec![0usize];
    let mut pos = 0usize;
    while pos < num_nodes {
        let sz = rng.random_range(comp_min..=comp_max).min(num_nodes - pos);
        pos += sz.max(2).min(num_nodes - pos);
        starts.push(pos);
    }
    starts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erdos_renyi_basic_properties() {
        let g = erdos_renyi(500, 4000, 1).unwrap();
        assert_eq!(g.num_nodes(), 500);
        assert!(g.is_symmetric());
        // Dedup shrinks a little; should be within 25% of target.
        assert!(g.num_edges() > 3000 && g.num_edges() <= 4000);
    }

    #[test]
    fn rmat_is_skewed() {
        let g = rmat_default(1 << 12, 40_000, 2).unwrap();
        assert!(g.is_symmetric());
        let max_deg = (0..g.num_nodes()).map(|v| g.degree(v)).max().unwrap();
        let avg = g.num_edges() as f64 / g.num_nodes() as f64;
        assert!(
            (max_deg as f64) > 8.0 * avg,
            "R-MAT should have hubs: max {max_deg}, avg {avg}"
        );
    }

    #[test]
    fn watts_strogatz_degree_concentrated() {
        let g = watts_strogatz(400, 6, 0.1, 3).unwrap();
        assert!(g.is_symmetric());
        let avg = g.num_edges() as f64 / g.num_nodes() as f64;
        assert!((4.0..8.0).contains(&avg), "avg degree {avg}");
    }

    #[test]
    fn citation_reaches_target_scale() {
        let g = citation(2708, 10858, 4).unwrap();
        assert!(g.is_symmetric());
        let ratio = g.num_edges() as f64 / 10858.0;
        assert!((0.5..1.3).contains(&ratio), "edge ratio {ratio}");
    }

    #[test]
    fn community_has_no_intercomponent_edges() {
        let seed = 7;
        let g = community(300, 3000, 10, 20, seed).unwrap();
        let starts = community_partition(300, 10, 20, seed);
        // Map node -> component index.
        let mut comp = vec![0usize; 300];
        for (c, w) in starts.windows(2).enumerate() {
            comp[w[0]..w[1]].fill(c);
        }
        for (s, d) in g.iter_edges() {
            assert_eq!(
                comp[s as usize], comp[d as usize],
                "edge ({s},{d}) crosses components"
            );
        }
        assert!(g.is_symmetric());
    }

    #[test]
    fn generators_are_deterministic() {
        let a = rmat_default(1024, 8000, 9).unwrap();
        let b = rmat_default(1024, 8000, 9).unwrap();
        assert_eq!(a, b);
        let c = rmat_default(1024, 8000, 10).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn no_self_loops_from_generators() {
        let g = erdos_renyi(200, 2000, 11).unwrap();
        for (s, d) in g.iter_edges() {
            assert_ne!(s, d);
        }
    }
}

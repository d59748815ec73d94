//! Property tests over the data-structure substrate: graph containers,
//! generators, dense algebra.

use proptest::prelude::*;
use tc_gnn::graph::{CooGraph, CsrGraph};
use tc_gnn::tensor::gemm::{gemm, gemm_naive};
use tc_gnn::tensor::DenseMatrix;

/// Rebuilds `g` through `from_raw` — which re-checks every CSR invariant
/// (monotone pointers, sorted duplicate-free neighbor lists, ids in range)
/// — and asserts the rebuilt graph is identical.
fn assert_csr_invariants(g: &CsrGraph) {
    let rebuilt = CsrGraph::from_raw(
        g.num_nodes(),
        g.node_pointer().to_vec(),
        g.edge_list().to_vec(),
    )
    .expect("mutated CSR must still satisfy every construction invariant");
    assert_eq!(&rebuilt, g);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn coo_to_csr_preserves_edge_set(
        n in 2usize..100,
        edges in prop::collection::vec((0u32..100, 0u32..100), 0..400)
    ) {
        let mut coo = CooGraph::new(n);
        let mut expect: Vec<(u32, u32)> = Vec::new();
        for (a, b) in edges {
            let (a, b) = (a % n as u32, b % n as u32);
            coo.push_edge(a, b);
            expect.push((a, b));
        }
        expect.sort_unstable();
        expect.dedup();
        let csr = coo.into_csr().expect("valid");
        let got: Vec<(u32, u32)> = csr.iter_edges().collect();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn transpose_is_an_involution(
        n in 2usize..80,
        edges in prop::collection::vec((0u32..80, 0u32..80), 0..300)
    ) {
        let mut coo = CooGraph::new(n);
        for (a, b) in edges {
            coo.push_edge(a % n as u32, b % n as u32);
        }
        let csr = coo.into_csr().expect("valid");
        prop_assert_eq!(csr.transpose().transpose(), csr);
    }

    #[test]
    fn transpose_permutation_is_bijective(
        n in 2usize..80,
        edges in prop::collection::vec((0u32..80, 0u32..80), 1..300)
    ) {
        let mut coo = CooGraph::new(n);
        for (a, b) in edges {
            coo.push_edge(a % n as u32, b % n as u32);
        }
        let csr = coo.into_csr().expect("valid");
        let perm = csr.transpose_permutation();
        let mut seen = vec![false; csr.num_edges()];
        for &p in &perm {
            prop_assert!(!seen[p as usize]);
            seen[p as usize] = true;
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gcn_norm_values_are_positive_and_bounded(
        n in 2usize..80,
        edges in prop::collection::vec((0u32..80, 0u32..80), 1..300)
    ) {
        let mut coo = CooGraph::new(n);
        for (a, b) in edges {
            coo.push_edge(a % n as u32, b % n as u32);
        }
        coo.symmetrize();
        let csr = coo.into_csr().expect("valid");
        for v in csr.gcn_norm_edge_values() {
            prop_assert!(v > 0.0 && v <= 1.0);
        }
    }

    #[test]
    fn blocked_gemm_matches_naive(
        m in 1usize..24, k in 1usize..24, n in 1usize..24, seed in 0u64..1000
    ) {
        let a = tc_gnn::tensor::init::uniform(m, k, -2.0, 2.0, seed);
        let b = tc_gnn::tensor::init::uniform(k, n, -2.0, 2.0, seed ^ 1);
        let c1 = gemm(&a, &b).expect("dims");
        let c2 = gemm_naive(&a, &b).expect("dims");
        let bits = |c: &tc_gnn::tensor::DenseMatrix| {
            c.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        };
        prop_assert_eq!(bits(&c1), bits(&c2));
    }

    #[test]
    fn gemm_distributes_over_addition(
        m in 1usize..16, k in 1usize..16, n in 1usize..16, seed in 0u64..1000
    ) {
        let a = tc_gnn::tensor::init::uniform(m, k, -1.0, 1.0, seed);
        let b1 = tc_gnn::tensor::init::uniform(k, n, -1.0, 1.0, seed ^ 2);
        let b2 = tc_gnn::tensor::init::uniform(k, n, -1.0, 1.0, seed ^ 3);
        let mut b_sum = b1.clone();
        b_sum.add_assign(&b2).expect("shape");
        let lhs = gemm(&a, &b_sum).expect("dims");
        let mut rhs = gemm(&a, &b1).expect("dims");
        rhs.add_assign(&gemm(&a, &b2).expect("dims")).expect("shape");
        prop_assert!(lhs.max_abs_diff(&rhs).expect("shape") < 1e-3);
    }

    #[test]
    fn tile_padded_never_reads_out_of_bounds(
        rows in 1usize..20, cols in 1usize..20,
        r0 in 0usize..30, c0 in 0usize..30,
        h in 1usize..8, w in 1usize..8
    ) {
        let m = DenseMatrix::from_fn(rows, cols, |r, c| (r * cols + c) as f32);
        let t = m.tile_padded(r0, c0, h, w);
        prop_assert_eq!(t.shape(), (h, w));
        for r in 0..h {
            for c in 0..w {
                let expect = if r0 + r < rows && c0 + c < cols {
                    ((r0 + r) * cols + (c0 + c)) as f32
                } else {
                    0.0
                };
                prop_assert_eq!(t.get(r, c), expect);
            }
        }
    }
}

#[test]
fn every_table4_spec_materializes() {
    // Smoke: the full registry, at a steep scale divisor, produces valid
    // datasets of every structural class.
    for spec in tc_gnn::graph::datasets::TABLE4.iter() {
        let ds = spec.scaled(64).materialize(3).expect("materializes");
        assert!(ds.graph.is_symmetric(), "{}", spec.name);
        assert_eq!(ds.features.rows(), ds.num_nodes());
        assert!(ds.labels.iter().all(|&l| (l as usize) < spec.num_classes));
    }
}

// ---------------------------------------------------------------------------
// CSR mutation laws: insert_edge / remove_edge keep every invariant and
// round-trip through induced_subgraph
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Toggling random directed edges one at a time must keep the CSR
    /// well-formed after every single step: monotone pointers, sorted
    /// duplicate-free neighbor lists, consistent `has_edge`, and a
    /// fingerprint that moves on every mutation.
    #[test]
    fn edge_toggles_preserve_csr_invariants(
        n in 2usize..80,
        base in prop::collection::vec((0u32..80, 0u32..80), 0..200),
        toggles in prop::collection::vec((0u32..80, 0u32..80), 1..40),
    ) {
        let mut coo = CooGraph::new(n);
        for (a, b) in base {
            coo.push_edge(a % n as u32, b % n as u32);
        }
        let mut g = coo.into_csr().expect("valid base graph");
        for (a, b) in toggles {
            let (s, d) = (a % n as u32, b % n as u32);
            let before = g.fingerprint();
            let had = g.has_edge(s as usize, d);
            if had {
                prop_assert_eq!(g.remove_edge(s, d).expect("in range"), true);
            } else {
                prop_assert_eq!(g.insert_edge(s, d).expect("in range"), true);
            }
            prop_assert_eq!(g.has_edge(s as usize, d), !had);
            prop_assert_ne!(g.fingerprint(), before, "fingerprint must move");
            assert_csr_invariants(&g);
        }
    }

    /// Inserting an absent edge and removing it again is the identity, down
    /// to the version fingerprint; re-inserting/re-removing reports `false`
    /// idempotently without perturbing the graph.
    #[test]
    fn insert_then_remove_round_trips(
        n in 2usize..80,
        base in prop::collection::vec((0u32..80, 0u32..80), 0..200),
        s in 0u32..80, d in 0u32..80,
    ) {
        let mut coo = CooGraph::new(n);
        for (a, b) in base {
            coo.push_edge(a % n as u32, b % n as u32);
        }
        let orig = coo.into_csr().expect("valid base graph");
        let (s, d) = (s % n as u32, d % n as u32);
        let mut g = orig.clone();
        if g.has_edge(s as usize, d) {
            prop_assert!(g.remove_edge(s, d).unwrap());
            prop_assert!(!g.remove_edge(s, d).unwrap(), "double remove is a no-op");
            prop_assert!(g.insert_edge(s, d).unwrap());
        } else {
            prop_assert!(g.insert_edge(s, d).unwrap());
            prop_assert!(!g.insert_edge(s, d).unwrap(), "double insert is a no-op");
            prop_assert!(g.remove_edge(s, d).unwrap());
        }
        prop_assert_eq!(&g, &orig, "toggle twice must restore the graph");
        prop_assert_eq!(g.fingerprint(), orig.fingerprint());
    }

    /// A mutated CSR restricted through `induced_subgraph` must renumber
    /// densely and carry exactly the surviving edges — mutations compose
    /// with the shrinker's primitive.
    #[test]
    fn mutated_graphs_round_trip_through_induced_subgraph(
        n in 4usize..60,
        base in prop::collection::vec((0u32..60, 0u32..60), 0..150),
        toggles in prop::collection::vec((0u32..60, 0u32..60), 1..20),
        keep_seed in prop::collection::vec(0u8..2, 60..61),
    ) {
        let mut coo = CooGraph::new(n);
        for (a, b) in base {
            coo.push_edge(a % n as u32, b % n as u32);
        }
        let mut g = coo.into_csr().expect("valid base graph");
        for (a, b) in toggles {
            let (s, d) = (a % n as u32, b % n as u32);
            if g.has_edge(s as usize, d) {
                g.remove_edge(s, d).unwrap();
            } else {
                g.insert_edge(s, d).unwrap();
            }
        }
        let keep: Vec<bool> = keep_seed[..n].iter().map(|&b| b == 1).collect();
        let sub = g.induced_subgraph(&keep);
        assert_csr_invariants(&sub);
        // Dense renumbering of kept nodes, in node order.
        let mut new_id = vec![u32::MAX; n];
        let mut next = 0u32;
        for (v, &k) in keep.iter().enumerate() {
            if k {
                new_id[v] = next;
                next += 1;
            }
        }
        prop_assert_eq!(sub.num_nodes(), next as usize);
        let mut expect: Vec<(u32, u32)> = g
            .iter_edges()
            .filter(|&(s, t)| keep[s as usize] && keep[t as usize])
            .map(|(s, t)| (new_id[s as usize], new_id[t as usize]))
            .collect();
        expect.sort_unstable();
        let got: Vec<(u32, u32)> = sub.iter_edges().collect();
        prop_assert_eq!(got, expect, "surviving edges must renumber exactly");
    }
}

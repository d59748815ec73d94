//! Property tests for partition validity: every row window assigned
//! exactly once, owned windows land on 16-aligned local runs, and
//! reported cut-edge counts match a brute-force per-edge recount.

use proptest::prelude::*;
use tcg_dist::{Partitioner, Shard};
use tcg_graph::{gen, synth, CsrGraph};
use tcg_sgt::TC_BLK_H;

/// Brute-force recount: walk every directed edge and compare endpoint
/// owners. Deliberately does NOT share code with `Partition::cut_edges`
/// (which goes through window-adjacency weights).
fn brute_force_cut(p: &tcg_dist::Partition, g: &CsrGraph) -> usize {
    let mut cut = 0usize;
    for v in 0..g.num_nodes() {
        for &u in g.neighbors(v) {
            if p.device_of_row(v) != p.device_of_row(u as usize) {
                cut += 1;
            }
        }
    }
    cut
}

fn graph_for(kind: usize, nodes: usize, edges: usize, seed: u64) -> CsrGraph {
    match kind % 4 {
        0 => gen::erdos_renyi(nodes, edges, seed).unwrap(),
        1 => gen::rmat_default(nodes, edges, seed).unwrap(),
        2 => gen::community(nodes, edges, 4, 24, seed).unwrap(),
        _ => synth::power_law(seed, nodes, (edges / nodes.max(1)).max(2)).unwrap(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn partitions_are_valid_and_cut_counts_match_brute_force(
        kind in 0usize..4,
        nodes in 17usize..400,
        degree in 2usize..10,
        devices in 1usize..9,
        seed in 0u64..1_000_000,
    ) {
        let g = graph_for(kind, nodes, nodes * degree, seed);
        for p in [Partitioner::Contiguous, Partitioner::GreedyEdgeCut] {
            let part = p.partition(&g, devices);

            // Structural validity + every window exactly once.
            prop_assert!(part.validate(&g).is_ok());
            prop_assert_eq!(part.assignment.len(), g.num_nodes().div_ceil(TC_BLK_H));
            prop_assert_eq!(part.win_size, TC_BLK_H);

            // nnz conservation across shards.
            prop_assert_eq!(part.shard_nnz(&g).iter().sum::<usize>(), g.num_edges());

            // Reported cut matches the per-edge recount.
            prop_assert_eq!(part.cut_edges(&g), brute_force_cut(&part, &g));
        }
    }

    #[test]
    fn shards_respect_window_boundary_alignment(
        kind in 0usize..4,
        nodes in 17usize..300,
        degree in 2usize..8,
        devices in 2usize..6,
        seed in 0u64..1_000_000,
    ) {
        let g = graph_for(kind, nodes, nodes * degree, seed);
        for p in [Partitioner::Contiguous, Partitioner::GreedyEdgeCut] {
            let part = p.partition(&g, devices);
            let mut owned_total = 0usize;
            for d in 0..devices {
                let (sh, _) = Shard::build(&g, &part, d);
                for run in sh.owned_runs() {
                    // 16-aligned local starts, window-aligned global starts.
                    prop_assert_eq!(run.local_start % TC_BLK_H, 0);
                    prop_assert_eq!(run.global_start % TC_BLK_H, 0);
                    // Only the global tail window may be ragged.
                    prop_assert!(
                        run.len == TC_BLK_H
                            || run.global_start + run.len == g.num_nodes()
                    );
                }
                owned_total += sh.owned_rows;
            }
            prop_assert_eq!(owned_total, g.num_nodes());
        }
    }
}

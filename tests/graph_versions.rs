//! Graph versions keyed by their windows: the key the translation cache
//! and the serve engines use is composed from a graph's node count and its
//! per-window fingerprints, so a mutation updates it by rehashing only the
//! windows it touched. These tests hold that key to the laws of a content
//! hash over random edit scripts on every adversarial family.

use tc_gnn::gnn::{Backend, GcnModel};
use tc_gnn::graph::{CsrGraph, GraphVersion};
use tc_gnn::oracle::{random_edit_script, Family};
use tc_gnn::serve::{
    poisson_trace, serve_with_mutations, version_key, GraphMutation, LoadgenConfig, ServableModel,
    ServeConfig, ServedGraph, Session, TranslationCache,
};
use tc_gnn::sgt::{EdgeDelta, TC_BLK_H};

/// The delta that undoes `d`: its inserts deleted, its deletes inserted.
fn undo(d: &EdgeDelta) -> EdgeDelta {
    let mut u = EdgeDelta::new();
    for &(s, t) in d.inserts() {
        u.push_delete(s, t);
    }
    for &(s, t) in d.deletes() {
        u.push_insert(s, t);
    }
    u
}

/// Along every script, the key kept current by rehashing each step's
/// touched windows equals the key recomputed from the whole graph. Over
/// all graphs the scripts visit, equal keys mean equal CSRs and equal CSRs
/// mean equal keys.
#[test]
fn maintained_keys_equal_recomputed_keys_on_every_family() {
    let mut seen: Vec<(GraphVersion, CsrGraph)> = Vec::new();
    for fam in Family::ALL {
        for seed in [1u64, 42] {
            let mut g = fam.generate(seed);
            let mut fps = g.window_fingerprints(TC_BLK_H);
            let mut visited = vec![(version_key(&g), g.clone())];
            for (step, delta) in random_edit_script(&g, seed.wrapping_mul(31), 6, 3)
                .iter()
                .enumerate()
            {
                g = delta.apply_to(&g).expect("generated scripts are valid");
                for w in delta.touched_windows(TC_BLK_H) {
                    fps[w] = g.window_fingerprint(TC_BLK_H, w);
                }
                let key = GraphVersion::from_windows(g.num_nodes(), &fps);
                assert_eq!(
                    key,
                    version_key(&g),
                    "{} seed {seed} step {step}: maintained key drifted",
                    fam.name()
                );
                visited.push((key, g.clone()));
            }
            for (key, g) in visited {
                let rebuilt = CsrGraph::from_raw(
                    g.num_nodes(),
                    g.node_pointer().to_vec(),
                    g.edge_list().to_vec(),
                )
                .expect("a valid graph rebuilds");
                assert_eq!(version_key(&rebuilt), key, "{}: equal CSRs", fam.name());
                match seen.iter().find(|(k, h)| *k == key || *h == g) {
                    Some((k, h)) => {
                        assert_eq!(*k, key, "{}: equal CSRs, different keys", fam.name());
                        assert_eq!(*h, g, "{}: different CSRs, equal keys", fam.name());
                    }
                    None => seen.push((key, g)),
                }
            }
        }
    }
    assert!(seen.len() > 100, "the scripts visit many distinct graphs");
}

/// An edit followed by its undo returns the original key, and the cache
/// answers the restored graph with the translation it already holds.
#[test]
fn an_edit_and_its_undo_return_the_original_key_and_hit_the_cache() {
    for fam in Family::ALL {
        let g = fam.generate(7);
        let edit = random_edit_script(&g, 99, 1, 4).remove(0);
        let edited = edit.apply_to(&g).expect("generated edit is valid");
        let back = undo(&edit).apply_to(&edited).expect("undo is valid");
        assert_eq!(back, g, "{}: undo restores the graph", fam.name());
        assert_ne!(version_key(&edited), version_key(&g), "{}", fam.name());
        assert_eq!(version_key(&back), version_key(&g), "{}", fam.name());

        let mut cache = TranslationCache::new(4);
        assert!(!cache.get_or_translate(&g).hit());
        assert!(!cache.get_or_translate(&edited).hit());
        assert!(
            cache.get_or_translate(&back).hit(),
            "{}: the restored graph is a cache hit",
            fam.name()
        );
    }
}

/// The same through a serve run, whose dispatcher keeps each graph's key
/// current from the touched windows alone: after an edit and its undo the
/// batches resolve the original translation as cache hits, and the report
/// stamps the original graph's fingerprint.
#[test]
fn a_served_edit_and_its_undo_hit_the_cache() {
    let g = tc_gnn::graph::gen::rmat_default(200, 1600, 3).expect("rmat");
    let stamp = g.fingerprint().as_u64();
    let edit = random_edit_script(&g, 5, 1, 4).remove(0);
    let graphs = vec![ServedGraph {
        name: "g".to_string(),
        features: tc_gnn::tensor::init::uniform(200, 16, -1.0, 1.0, 1),
        csr: g,
    }];
    let trace = poisson_trace(
        &[200],
        &LoadgenConfig {
            rate_rps: 2_000.0,
            requests: 48,
            deadline_ms: None,
            seed: 17,
            ..LoadgenConfig::default()
        },
    );
    let at = |k: usize| trace[k * trace.len() / 3].arrival_ms;
    let mutations = vec![
        GraphMutation {
            at_ms: at(1),
            graph: 0,
            delta: edit.clone(),
        },
        GraphMutation {
            at_ms: at(2),
            graph: 0,
            delta: undo(&edit),
        },
    ];
    let cfg = ServeConfig {
        backend: Backend::TcGnn,
        ..ServeConfig::default()
    };
    let model = ServableModel::Gcn(GcnModel::new(16, 8, 4, 11));
    let mut session = Session::new(model, graphs, 4);
    let report = serve_with_mutations(&mut session, &cfg, &trace, &mutations, None);
    assert_eq!(report.mutations.applied, 2);
    assert_eq!(report.answered, report.total_requests);
    // One full translation, one delta for the edit, and hits for every
    // other batch, the undone version's included.
    let c = report.cache;
    assert_eq!((c.misses, c.delta_translations), (2, 1), "{c:?}");
    assert!(c.hits > 0, "{c:?}");
    assert_eq!(report.graph_versions, vec![("g".to_string(), stamp)]);
}

//! The serve pipeline runs its stream workers while the dispatcher walks
//! the trace: each batch goes to its worker as soon as it is bound, and the
//! dispatcher's snapshots own every graph version until the workers join.
//!
//! Two properties follow and are checked here. The session ends the run
//! holding each graph's last version: the accepted deltas folded in
//! schedule order, and the untouched graphs as they were. And no artifact
//! depends on how the OS interleaves the dispatcher with the workers:
//! repeated runs at four streams give the same report, Prometheus text and
//! Perfetto trace, byte for byte.

use tc_gnn::fault::FaultConfig;
use tc_gnn::gnn::{Backend, GcnModel};
use tc_gnn::graph::datasets::{DatasetSpec, GraphClass};
use tc_gnn::profile::{chrome_trace_json, shared};
use tc_gnn::serve::{
    churn_schedule, poisson_trace, prometheus_text, serve_with_mutations, version_key, BatchPolicy,
    ChurnConfig, GraphMutation, LoadgenConfig, Request, ResilienceConfig, ServableModel,
    ServeConfig, ServedGraph, Session,
};
use tc_gnn::sgt::EdgeDelta;

fn graphs() -> Vec<ServedGraph> {
    let mk = |name: &'static str, nodes: usize, edges: usize, seed: u64| {
        let ds = DatasetSpec {
            name,
            class: GraphClass::TypeI,
            num_nodes: nodes,
            num_edges: edges,
            feat_dim: 16,
            num_classes: 4,
        }
        .materialize(seed)
        .expect("synthetic dataset");
        ServedGraph {
            name: name.to_string(),
            csr: ds.graph,
            features: ds.features,
        }
    };
    vec![mk("overlap-a", 200, 1600, 3), mk("overlap-b", 150, 900, 4)]
}

fn model() -> ServableModel {
    ServableModel::Gcn(GcnModel::new(16, 8, 4, 11))
}

fn trace(nodes: &[usize], rate_rps: f64, seed: u64) -> Vec<Request> {
    poisson_trace(
        nodes,
        &LoadgenConfig {
            rate_rps,
            requests: 128,
            deadline_ms: Some(0.6),
            seed,
            low_every: 3,
            critical_every: 11,
        },
    )
}

/// A served churn schedule with one rejected delta: the session's edited
/// graph is the accepted deltas folded in order, its key is the version the
/// cache resolved last, the unedited graph is untouched, and the mutation
/// counts add up.
#[test]
fn the_session_ends_with_every_accepted_delta_folded_in() {
    let graphs = graphs();
    let (edited0, untouched0) = (graphs[0].csr.clone(), graphs[1].csr.clone());
    // Every request reads graph 0, so the cache's most recent resolution
    // is graph 0's last version.
    let trace = trace(&[200], 50_000.0, 5);
    let mut mutations = churn_schedule(
        std::slice::from_ref(&edited0),
        &ChurnConfig {
            events: 4,
            rate_eps: 1.0,
            batch: 3,
            seed: 19,
        },
    );
    // Land the edits over the first five eighths of the trace, with one
    // delta naming a node out of range among them.
    let rejected = GraphMutation {
        at_ms: 0.0,
        graph: 0,
        delta: EdgeDelta::new().insert(0, 200),
    };
    mutations.insert(2, rejected);
    for (i, m) in mutations.iter_mut().enumerate() {
        m.at_ms = trace[(i + 1) * trace.len() / 8].arrival_ms;
    }
    let cfg = ServeConfig {
        backend: Backend::TcGnn,
        streams: 2,
        queue_capacity: 64,
        policy: BatchPolicy {
            max_batch: 8,
            max_delay_ms: 0.05,
        },
        ..ServeConfig::default()
    };
    let mut session = Session::new(model(), graphs, 4);
    let report = serve_with_mutations(&mut session, &cfg, &trace, &mutations, None);

    let mut expect = edited0.clone();
    let (mut applied, mut inserted, mut deleted) = (0, 0, 0);
    for m in &mutations {
        if let Ok(next) = m.delta.apply_to(&expect) {
            expect = next;
            applied += 1;
            inserted += m.delta.inserts().len();
            deleted += m.delta.deletes().len();
        }
    }
    assert_eq!(applied, 4, "the churn schedule applies in order");
    let m = &report.mutations;
    assert_eq!((m.requested, m.applied, m.rejected), (5, 4, 1));
    assert_eq!((m.edges_inserted, m.edges_deleted), (inserted, deleted));
    assert!(expect != edited0, "the schedule changes the graph");
    assert!(session.graphs()[0].csr == expect, "written-back version");
    let last = session.cache_mut().resident().last().copied();
    assert_eq!(
        Some(version_key(&expect)),
        last,
        "the last resolved version"
    );
    assert!(session.graphs()[1].csr == untouched0, "unedited graph");
    let versions: std::collections::HashMap<_, _> = report.graph_versions.iter().cloned().collect();
    assert_eq!(versions["overlap-a"], expect.fingerprint().as_u64());
    assert_eq!(versions["overlap-b"], untouched0.fingerprint().as_u64());
}

/// The overload configurations of the pinned churn cases at four streams,
/// each served ten times with a profiler attached: every run's report JSON,
/// Prometheus text and Perfetto trace equal the first run's.
#[test]
fn four_stream_runs_are_byte_identical_however_the_threads_interleave() {
    let base = ServeConfig {
        backend: Backend::TcGnn,
        streams: 4,
        queue_capacity: 12,
        fault_seed: 42,
        policy: BatchPolicy {
            max_batch: 8,
            max_delay_ms: 2.0,
        },
        ..ServeConfig::default()
    };
    let resilient = ServeConfig {
        fault: Some(FaultConfig::uniform(0.3)),
        resilience: Some(ResilienceConfig::default()),
        ..base.clone()
    };
    let hybrid = ServeConfig {
        backend: Backend::Hybrid,
        ..base
    };
    let csrs: Vec<_> = graphs().into_iter().map(|g| g.csr).collect();
    let churn = churn_schedule(
        &csrs,
        &ChurnConfig {
            events: 6,
            rate_eps: 100_000.0 / 16.0,
            batch: 4,
            seed: 13,
        },
    );
    let trace = trace(&[200, 150], 100_000.0, 29);
    for (case, cfg) in [
        ("tcgnn/churn+faults+resilience", resilient),
        ("hybrid/churn", hybrid),
    ] {
        let artifacts = || {
            let mut session = Session::new(model(), graphs(), 4);
            let profiler = shared(cfg.backend.name());
            let report = serve_with_mutations(&mut session, &cfg, &trace, &churn, Some(&profiler));
            assert_eq!(report.mutations.applied, churn.len(), "{case}");
            let perfetto = chrome_trace_json(&profiler.read().expect("profiler lock"));
            (report.to_json(), prometheus_text(&report), perfetto)
        };
        let first = artifacts();
        for run in 1..10 {
            let again = artifacts();
            assert!(again.0 == first.0, "{case} run {run}: report JSON differs");
            assert!(
                again.1 == first.1,
                "{case} run {run}: Prometheus text differs"
            );
            assert!(
                again.2 == first.2,
                "{case} run {run}: Perfetto trace differs"
            );
        }
    }
}

/// A worker that panics while the dispatcher is still sending surfaces as
/// its own panic: here the first batch's engine build rejects a graph
/// that is not symmetric.
#[test]
#[should_panic(expected = "session graphs and the serve config build an engine")]
fn a_worker_panic_surfaces_as_itself() {
    let one_way = tc_gnn::graph::CsrGraph::from_raw(2, vec![0, 1, 1], vec![1]).expect("csr");
    let graphs = vec![ServedGraph {
        name: "one-way".to_string(),
        csr: one_way,
        features: tc_gnn::tensor::init::uniform(2, 16, -1.0, 1.0, 7),
    }];
    let mut session = Session::new(model(), graphs, 4);
    let cfg = ServeConfig {
        policy: BatchPolicy {
            max_batch: 1,
            max_delay_ms: 0.0,
        },
        ..ServeConfig::default()
    };
    serve_with_mutations(&mut session, &cfg, &trace(&[2], 1_000.0, 3), &[], None);
}

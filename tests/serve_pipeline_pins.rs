//! Pins the bytes a serve run produces across every pipeline path.
//!
//! Each case serves one seeded overload trace under one configuration and
//! hashes three artifacts: the report JSON, the Prometheus text and the
//! profiled Perfetto trace. The cases cover every branch of the serve
//! pipeline: clean and faulted single-device runs, each resilience policy
//! alone and all together, the hybrid backend, edge churn (which refreshes
//! the hybrid dispatch mask), and sharded runs under both partitioners,
//! with fault injection and with churn. A mismatch prints the current
//! table, so an intentional change can re-record it.

use tc_gnn::fault::FaultConfig;
use tc_gnn::gnn::{Backend, GcnModel};
use tc_gnn::graph::datasets::{DatasetSpec, GraphClass};
use tc_gnn::profile::{chrome_trace_json, shared};
use tc_gnn::serve::{
    churn_schedule, poisson_trace, prometheus_text, serve_with_mutations, BatchPolicy,
    BrownoutConfig, ChurnConfig, GraphMutation, LoadgenConfig, Partitioner, Request,
    ResilienceConfig, ServableModel, ServeConfig, ServedGraph, Session,
};

/// `case report-hash prometheus-hash trace-hash`, the hashes in hex.
const PINS: &[&str] = &[
    "tcgnn/clean d4a0004f7476afa4 981bbe735a4650e0 fdb680724c7fb3c5",
    "tcgnn/faults 8c5a3a00d1fb0479 6aab54b13489d439 0b5a190492163e40",
    "tcgnn/faults+resilience 3dd8143c45c4d46e fc9ea87bc08b30f7 6765ae09b85e5615",
    "tcgnn/deadline-only 79183d614001a47d 7132d00e1c1163c0 6b4fa946859bc72c",
    "tcgnn/brownout-only 5aed2e2eb44f778e e63e1089866ed236 b802da956634369d",
    "hybrid/clean 9759b49604262a09 981bbe735a4650e0 ad5f82cedeb1f7cf",
    "hybrid/faults+resilience 9ccca8e950fc17e9 fc9ea87bc08b30f7 2a3b3855055cb8f0",
    "tcgnn/churn d005c942021e7c9d 8996035bbe6a8079 da1d35b5009555bc",
    "hybrid/churn f00bfcdf89f43a5a 8996035bbe6a8079 14a87f5f47a41118",
    "tcgnn/churn+faults+resilience f9d191621aeac991 e8df39aa16e54651 68d35aefd031ebcd",
    "dist4/contiguous 6f1d9ba5df5ea994 0ef2fb6b0b8a9ef3 3b69a5a0da3da961",
    "dist4/greedy 7041f7cc685e3866 d852f6edd8b44d72 8572e732950bc6a9",
    "dist4/faults a86895f847fc318b afd65af6915c1f24 a98f0508407116a2",
    "dist4/churn c3b80f013e27539a 21c520dc86238a94 832269421a605e14",
];

const RATE_RPS: f64 = 100_000.0;

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

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
    vec![mk("pin-a", 200, 1600, 3), mk("pin-b", 150, 900, 4)]
}

fn trace() -> Vec<Request> {
    poisson_trace(
        &[200, 150],
        &LoadgenConfig {
            rate_rps: RATE_RPS,
            requests: 128,
            deadline_ms: Some(0.6),
            seed: 29,
            low_every: 3,
            critical_every: 11,
        },
    )
}

fn churn() -> Vec<GraphMutation> {
    let csrs: Vec<_> = graphs().into_iter().map(|g| g.csr).collect();
    churn_schedule(
        &csrs,
        &ChurnConfig {
            events: 6,
            rate_eps: RATE_RPS / 16.0,
            batch: 4,
            seed: 13,
        },
    )
}

fn pin(case: &str, cfg: &ServeConfig, mutations: &[GraphMutation]) -> String {
    let mut session = Session::new(ServableModel::Gcn(GcnModel::new(16, 8, 4, 11)), graphs(), 4);
    let profiler = shared(cfg.backend.name());
    let report = serve_with_mutations(&mut session, cfg, &trace(), mutations, Some(&profiler));
    let perfetto = chrome_trace_json(&profiler.read().expect("profiler lock"));
    format!(
        "{case} {:016x} {:016x} {:016x}",
        fnv(report.to_json().as_bytes()),
        fnv(prometheus_text(&report).as_bytes()),
        fnv(perfetto.as_bytes()),
    )
}

#[test]
fn serve_pipeline_matches_pinned_artifacts() {
    let base = ServeConfig {
        backend: Backend::TcGnn,
        streams: 2,
        queue_capacity: 12,
        fault_seed: 42,
        policy: BatchPolicy {
            max_batch: 8,
            max_delay_ms: 2.0,
        },
        ..ServeConfig::default()
    };
    let faults = ServeConfig {
        fault: Some(FaultConfig::uniform(0.3)),
        ..base.clone()
    };
    let full = ServeConfig {
        resilience: Some(ResilienceConfig::default()),
        ..faults.clone()
    };
    let only = |deadline_cancellation: bool, brownout: Option<BrownoutConfig>| ServeConfig {
        resilience: Some(ResilienceConfig {
            deadline_cancellation,
            breaker: None,
            brownout,
            retry_jitter_frac: 0.0,
            spot_check_every: 0,
        }),
        ..base.clone()
    };
    let hybrid = |cfg: &ServeConfig| ServeConfig {
        backend: Backend::Hybrid,
        ..cfg.clone()
    };
    let sharded = |cfg: &ServeConfig, partitioner: Partitioner| ServeConfig {
        devices: 4,
        partitioner,
        ..cfg.clone()
    };
    let churn = churn();
    let cases: Vec<(&str, ServeConfig, &[GraphMutation])> = vec![
        ("tcgnn/clean", base.clone(), &[]),
        ("tcgnn/faults", faults.clone(), &[]),
        ("tcgnn/faults+resilience", full.clone(), &[]),
        ("tcgnn/deadline-only", only(true, None), &[]),
        (
            "tcgnn/brownout-only",
            only(
                false,
                Some(BrownoutConfig {
                    wait_p99_ms: 0.01,
                    ..BrownoutConfig::default()
                }),
            ),
            &[],
        ),
        ("hybrid/clean", hybrid(&base), &[]),
        ("hybrid/faults+resilience", hybrid(&full), &[]),
        ("tcgnn/churn", base.clone(), &churn),
        ("hybrid/churn", hybrid(&base), &churn),
        ("tcgnn/churn+faults+resilience", full.clone(), &churn),
        (
            "dist4/contiguous",
            sharded(&base, Partitioner::Contiguous),
            &[],
        ),
        (
            "dist4/greedy",
            sharded(&base, Partitioner::GreedyEdgeCut),
            &[],
        ),
        (
            "dist4/faults",
            sharded(&faults, Partitioner::Contiguous),
            &[],
        ),
        (
            "dist4/churn",
            sharded(&base, Partitioner::Contiguous),
            &churn,
        ),
    ];
    let actual: Vec<String> = cases
        .iter()
        .map(|(case, cfg, mutations)| pin(case, cfg, mutations))
        .collect();
    let drifted: Vec<&String> = actual
        .iter()
        .filter(|p| !PINS.contains(&p.as_str()))
        .collect();
    assert!(
        drifted.is_empty() && actual.len() == PINS.len(),
        "serve artifacts drifted from the pins: {drifted:#?}\ncurrent table: {actual:#?}"
    );
}

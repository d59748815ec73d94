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
    "tcgnn/clean 4ab881d9fa57b4f5 2dd6b5031ca65a7f 118f10190efc56d8",
    "tcgnn/faults e56669fe39f448a7 e390d166e5aac5a8 f4922d06a383d3fc",
    "tcgnn/faults+resilience 7d28e5e97e22389a f57e02995f0f82c6 5aa1b899b1f2120f",
    "tcgnn/deadline-only 75ac11403c98ff3c 43c01783352fa4ab 22f173f50d7398b8",
    "tcgnn/brownout-only c5b88f94b39b1561 d37eab19e3b9e0f0 b7b2da3013834dc5",
    "hybrid/clean 7a6dbdda46e248b0 2dd6b5031ca65a7f 4d21d937c111c7ae",
    "hybrid/faults+resilience 7263c03035da7221 f57e02995f0f82c6 9538f0bf8dc2cfb3",
    "tcgnn/churn 5de41e5904995c9a ffe08585719c0f22 33394fc9e0b26a5c",
    "hybrid/churn 9d9e0b0b544ad07d ffe08585719c0f22 a0647ca9cd2e9537",
    "tcgnn/churn+faults+resilience f33078509ce7f3fd 174d07fc61239223 0453370fb6ca8014",
    "dist4/contiguous 7399329555fa4737 65adb710c4bf008a 4ef0868f7614d3b2",
    "dist4/greedy 61f52c2e7e1d4fd6 3527870e095b1550 07ba9a20ee9e3c20",
    "dist4/faults 49c90f1e9188d2e6 b5c01fff9958b83f e6fa68f5c46880d1",
    "dist4/churn 4e80ac039333d6d0 2791cfbc0c6ba770 43778df729b3fe96",
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

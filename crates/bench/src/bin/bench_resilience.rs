//! `BENCH_resilience` — on-time goodput under overload + device faults,
//! with the tcg-resilience layer off vs on.
//!
//! Serves one seeded burst trace (tight deadlines, mixed priorities)
//! against a Table 4 graph while a seeded fault schedule fires, twice:
//!
//! 1. **off**: the legacy serve path — every request runs to completion
//!    even after its deadline has passed, every faulted launch pays the
//!    full per-op retry ladder.
//! 2. **on**: [`ResilienceConfig::default`] — dead requests are cancelled
//!    at checkpoint boundaries, per-stream circuit breakers reroute whole
//!    batches to the CUDA-core path while a stream's TCU pipeline is
//!    misbehaving, and brownout shedding keeps the queue inside its
//!    deadline budget.
//!
//! The gated metric is **on-time goodput**: deadline-met responses per
//! simulated second of makespan. Resilience exists to convert wasted
//! post-deadline work into capacity for live requests, so the `on`
//! configuration must strictly beat `off` — the binary exits non-zero
//! otherwise. Both runs are replayed to prove byte-identical reports.

use serde::Value;
use tcg_bench::{load_dataset, print_table, save_json};
use tcg_gnn::{train_model_returning, Backend, Engine, GcnModel, TrainConfig};
use tcg_graph::datasets::spec_by_name;
use tcg_serve::{
    poisson_trace, serve, FaultConfig, LoadgenConfig, ResilienceConfig, ServableModel, ServeConfig,
    ServeReport, ServedGraph, Session,
};

/// Burst arrival: the whole trace lands at once, so the tail of the queue
/// is dead long before it would run — exactly the regime cancellation and
/// shedding are for.
const RATE_RPS: f64 = 100_000.0;
const REQUESTS: usize = 256;
const DEADLINE_MS: f64 = 2.0;
const FAULT_RATE: f64 = 0.3;
const TRAIN_EPOCHS: u32 = 5;

fn run(
    frozen: &ServableModel,
    graph: &ServedGraph,
    trace: &[tcg_serve::Request],
    resilience: Option<ResilienceConfig>,
) -> ServeReport {
    let mut session = Session::new(frozen.clone(), vec![graph.clone()], 4);
    let cfg = ServeConfig {
        backend: Backend::TcGnn,
        streams: 2,
        queue_capacity: REQUESTS,
        fault: Some(FaultConfig::uniform(FAULT_RATE)),
        fault_seed: 77,
        resilience,
        ..ServeConfig::default()
    };
    serve(&mut session, &cfg, trace, None)
}

/// Deadline-met responses per simulated second.
fn goodput(report: &ServeReport) -> f64 {
    report.on_time as f64 / (report.makespan_ms / 1e3).max(f64::EPSILON)
}

fn main() {
    let spec = spec_by_name("Cora").expect("Cora is in the Table 4 registry");
    let ds = load_dataset(spec);
    println!(
        "BENCH_resilience: {} ({} nodes, {} edges), {} requests at {} req/s, \
         deadline {} ms, fault rate {}",
        spec.name,
        ds.graph.num_nodes(),
        ds.graph.num_edges(),
        REQUESTS,
        RATE_RPS,
        DEADLINE_MS,
        FAULT_RATE
    );

    let cfg = TrainConfig::gcn_paper().with_epochs(TRAIN_EPOCHS);
    let mut eng = Engine::builder(ds.graph.clone())
        .backend(Backend::TcGnn)
        .device(tcg_bench::device())
        .build()
        .expect("graph is symmetric");
    let gcn = GcnModel::new(ds.spec.feat_dim, cfg.hidden, ds.spec.num_classes, cfg.seed);
    let (gcn, _) = train_model_returning(&mut eng, &ds, cfg, gcn);
    let frozen = ServableModel::Gcn(gcn);
    let graph = ServedGraph {
        name: spec.name.to_string(),
        csr: ds.graph.clone(),
        features: ds.features.clone(),
    };

    let trace = poisson_trace(
        &[ds.graph.num_nodes()],
        &LoadgenConfig {
            rate_rps: RATE_RPS,
            requests: REQUESTS,
            deadline_ms: Some(DEADLINE_MS),
            seed: 7,
            low_every: 3,
            critical_every: 10,
        },
    );

    let off = run(&frozen, &graph, &trace, None);
    let on = run(&frozen, &graph, &trace, Some(ResilienceConfig::default()));

    // Determinism check: the resilient run replays byte-for-byte.
    let on_replay = run(&frozen, &graph, &trace, Some(ResilienceConfig::default()));
    assert_eq!(
        on.to_json(),
        on_replay.to_json(),
        "resilient serve must be byte-identical across repeats"
    );

    let goodput_off = goodput(&off);
    let goodput_on = goodput(&on);
    let gain = goodput_on / goodput_off.max(f64::EPSILON);
    let row = |name: &str, r: &ServeReport, g: f64| {
        vec![
            name.into(),
            format!("{:.0}", g),
            r.on_time.to_string(),
            r.late.to_string(),
            format!("{}", r.shed + r.cancelled),
            r.failed.to_string(),
            format!("{:.3}", r.makespan_ms),
        ]
    };
    print_table(
        &[
            "config",
            "goodput req/s",
            "on-time",
            "late",
            "shed+cancel",
            "failed",
            "makespan ms",
        ],
        &[
            row("resilience off", &off, goodput_off),
            row("resilience on", &on, goodput_on),
        ],
    );
    println!("off: {}", off.summary_line());
    println!("on:  {}", on.summary_line());
    println!("on-time goodput gain: {gain:.2}x");

    let value = Value::Object(vec![
        ("_meta".into(), tcg_bench::run_meta()),
        ("dataset".into(), Value::Str(spec.name.to_string())),
        ("requests".into(), Value::UInt(REQUESTS as u128)),
        ("rate_rps".into(), Value::Float(RATE_RPS)),
        ("deadline_ms".into(), Value::Float(DEADLINE_MS)),
        ("fault_rate".into(), Value::Float(FAULT_RATE)),
        ("off".into(), off.to_value()),
        ("on".into(), on.to_value()),
        ("goodput_off_rps".into(), Value::Float(goodput_off)),
        ("goodput_on_rps".into(), Value::Float(goodput_on)),
        ("goodput_gain".into(), Value::Float(gain)),
    ]);
    save_json("BENCH_resilience", &value);

    assert_eq!(
        off.failed + on.failed,
        0,
        "faults must never fail a request"
    );
    assert!(
        goodput_on > goodput_off,
        "resilience-on goodput {goodput_on:.0} req/s must strictly beat \
         resilience-off {goodput_off:.0} req/s"
    );
}

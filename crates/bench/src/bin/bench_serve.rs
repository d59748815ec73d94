//! `BENCH_serve` — closed-loop serving benchmark.
//!
//! Serves the same Poisson request trace against a Table 4 Type I graph
//! twice:
//!
//! 1. **baseline**: uncached single-request serving — cache capacity 0,
//!    `max_batch = 1`, one stream. Every request pays the full SGT
//!    translation (Algorithm 1) before its forward pass, the worst case of
//!    Fig. 7(b).
//! 2. **served**: the full stack — SGT translation cache, dynamic
//!    micro-batching, two streams.
//!
//! Emits `results/BENCH_serve.json` with both reports and the throughput /
//! latency ratios, plus the served run's Perfetto trace
//! (`results/serve.trace.json`) whose `stream-N` tracks show the two
//! simulated timelines. Exits non-zero if caching + batching do not reach
//! 2x the baseline throughput — that amortization IS the subsystem's
//! reason to exist, so falling under it is a regression.

use serde::Value;
use tcg_bench::{load_dataset, print_table, save_json, save_profile_artifacts};
use tcg_gnn::{train_model_returning, Backend, Engine, GcnModel, TrainConfig};
use tcg_graph::datasets::spec_by_name;
use tcg_serve::{
    poisson_trace, serve, LoadgenConfig, ServableModel, ServeConfig, ServeReport, ServedGraph,
    Session,
};

/// Offered load: fast enough to saturate the uncached baseline so the
/// comparison measures service capacity, not the arrival process.
const RATE_RPS: f64 = 100_000.0;
const REQUESTS: usize = 256;
const TRAIN_EPOCHS: u32 = 5;

fn run(
    frozen: &ServableModel,
    graph: &ServedGraph,
    trace: &[tcg_serve::Request],
    cache_cap: usize,
    max_batch: usize,
    streams: usize,
    profiler: Option<&tcg_profile::SharedProfiler>,
) -> ServeReport {
    let mut session = Session::new(frozen.clone(), vec![graph.clone()], cache_cap);
    let mut cfg = ServeConfig {
        backend: Backend::TcGnn,
        streams,
        queue_capacity: REQUESTS, // admission never sheds: compare full traces
        ..ServeConfig::default()
    };
    cfg.policy.max_batch = max_batch;
    cfg.policy.max_delay_ms = 0.5;
    serve(&mut session, &cfg, trace, profiler)
}

fn main() {
    let spec = spec_by_name("Cora").expect("Cora is in the Table 4 registry");
    let ds = load_dataset(spec);
    println!(
        "BENCH_serve: {} ({} nodes, {} edges), {} requests at {} req/s",
        spec.name,
        ds.graph.num_nodes(),
        ds.graph.num_edges(),
        REQUESTS,
        RATE_RPS
    );

    // Freeze a briefly-trained GCN; serving quality is not under test here,
    // the dispatch economics are.
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
            deadline_ms: None,
            seed: 7,
            ..LoadgenConfig::default()
        },
    );

    let baseline = run(&frozen, &graph, &trace, 0, 1, 1, None);
    let profiler = tcg_profile::shared(Backend::TcGnn.name());
    let served = run(&frozen, &graph, &trace, 4, 8, 2, Some(&profiler));
    save_profile_artifacts(&profiler, "serve");

    let speedup = served.throughput_rps / baseline.throughput_rps;
    let p50_ratio = baseline.latency.p50() / served.latency.p50().max(f64::EPSILON);
    print_table(
        &[
            "config",
            "req/s",
            "p50 ms",
            "p99 ms",
            "batches",
            "SGT ms paid",
        ],
        &[
            vec![
                "uncached, batch=1".into(),
                format!("{:.0}", baseline.throughput_rps),
                format!("{:.3}", baseline.latency.p50()),
                format!("{:.3}", baseline.latency.p99()),
                baseline.batches.to_string(),
                format!("{:.3}", baseline.cache.translation_ms_paid),
            ],
            vec![
                "cached, batched, 2 streams".into(),
                format!("{:.0}", served.throughput_rps),
                format!("{:.3}", served.latency.p50()),
                format!("{:.3}", served.latency.p99()),
                served.batches.to_string(),
                format!("{:.3}", served.cache.translation_ms_paid),
            ],
        ],
    );
    println!("baseline: {}", baseline.summary_line());
    println!("served:   {}", served.summary_line());
    println!("throughput speedup: {speedup:.2}x  (p50 latency ratio: {p50_ratio:.2}x)");

    let value = Value::Object(vec![
        ("_meta".into(), tcg_bench::run_meta()),
        ("dataset".into(), Value::Str(spec.name.to_string())),
        (
            "num_nodes".into(),
            Value::UInt(ds.graph.num_nodes() as u128),
        ),
        (
            "num_edges".into(),
            Value::UInt(ds.graph.num_edges() as u128),
        ),
        ("requests".into(), Value::UInt(REQUESTS as u128)),
        ("rate_rps".into(), Value::Float(RATE_RPS)),
        ("baseline".into(), baseline.to_value()),
        ("served".into(), served.to_value()),
        ("throughput_speedup".into(), Value::Float(speedup)),
        ("p50_latency_ratio".into(), Value::Float(p50_ratio)),
    ]);
    save_json("BENCH_serve", &value);

    assert!(
        speedup >= 2.0,
        "caching + batching reached only {speedup:.2}x the uncached baseline (need >= 2x)"
    );
    let tracks = {
        let p = profiler.read().expect("profiler lock");
        p.stream_ids().len()
    };
    assert!(
        tracks >= 2,
        "served Perfetto trace has {tracks} stream tracks (need >= 2)"
    );
}

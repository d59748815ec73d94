//! `BENCH_churn` — dynamic-graph serving under sustained edge churn.
//!
//! Serves the same Poisson request trace against Cora twice, with the same
//! seeded schedule of graph mutations (Poisson-spaced batches of undirected
//! edge toggles) interleaved as batcher barriers:
//!
//! 1. **full retranslate**: the translation cache's delta path is disabled
//!    (`set_delta_enabled(false)`), so every mutation invalidates the whole
//!    cached translation and the next batch re-runs Algorithm 1 end to end;
//! 2. **delta**: the default path — on a version miss the cache finds the
//!    resident predecessor by per-window fingerprints and retranslates only
//!    the touched 16-row windows.
//!
//! Emits `results/BENCH_churn.json` with both reports plus the sustained
//! throughput ratio, and the delta run's Perfetto trace
//! (`results/churn.trace.json`) whose host track attributes each
//! `sgt_delta:<graph>` span. Exits non-zero if delta translation does not
//! beat full retranslation — window-granular reuse under churn IS this
//! subsystem's reason to exist.
//!
//! `--check` gates the committed baselines via the perf sentinel.

use serde::Value;
use tcg_bench::{load_dataset, print_table, save_json, save_profile_artifacts, sentinel};
use tcg_gnn::{train_model_returning, Backend, Engine, GcnModel, TrainConfig};
use tcg_graph::datasets::spec_by_name;
use tcg_serve::{
    churn_schedule, poisson_trace, serve_with_mutations, ChurnConfig, GraphMutation, LoadgenConfig,
    ServableModel, ServeConfig, ServeReport, ServedGraph, Session,
};

/// Offered load tuned so churn decides saturation: with a mutation landing
/// roughly every batch, the full-retranslate run's service time per batch
/// (kernels + whole-graph Algorithm 1) exceeds the arrival gap — backlog
/// compounds and the makespan stretches — while the delta run's service
/// time (kernels + touched-windows only) keeps up with arrivals. Over- or
/// under-loading instead hides translation behind backlog or idle time.
const RATE_RPS: f64 = 64_000.0;
const REQUESTS: usize = 288;
const CHURN_EVENTS: usize = 36;
const CHURN_RATE_EPS: f64 = 8_000.0;
const CHURN_BATCH: usize = 4;
const TRAIN_EPOCHS: u32 = 5;

fn run(
    frozen: &ServableModel,
    graph: &ServedGraph,
    trace: &[tcg_serve::Request],
    mutations: &[GraphMutation],
    delta_enabled: bool,
    profiler: Option<&tcg_profile::SharedProfiler>,
) -> ServeReport {
    let mut session = Session::new(frozen.clone(), vec![graph.clone()], 4);
    session.cache_mut().set_delta_enabled(delta_enabled);
    let mut cfg = ServeConfig {
        backend: Backend::TcGnn,
        streams: 1,
        queue_capacity: REQUESTS, // admission never sheds: compare full traces
        ..ServeConfig::default()
    };
    cfg.policy.max_batch = 8;
    cfg.policy.max_delay_ms = 0.5;
    serve_with_mutations(&mut session, &cfg, trace, mutations, profiler)
}

fn main() {
    if std::env::args().any(|a| a == "--check") {
        let baselines = std::path::Path::new("results").join("baselines");
        let fresh = tcg_bench::results_dir();
        let specs: Vec<_> = sentinel::default_specs()
            .into_iter()
            .filter(|s| s.file == "BENCH_churn")
            .collect();
        let rows = sentinel::check(&baselines, &fresh, &specs);
        print!("{}", sentinel::render_table(&rows));
        if sentinel::worst(&rows) == sentinel::Severity::Fail {
            std::process::exit(1);
        }
        return;
    }

    let spec = spec_by_name("Cora").expect("Cora is in the Table 4 registry");
    let ds = load_dataset(spec);
    println!(
        "BENCH_churn: {} ({} nodes, {} edges), {} requests at {} req/s, {} mutation \
         events x {} toggles",
        spec.name,
        ds.graph.num_nodes(),
        ds.graph.num_edges(),
        REQUESTS,
        RATE_RPS,
        CHURN_EVENTS,
        CHURN_BATCH
    );

    // Freeze a briefly-trained GCN; serving quality is not under test here,
    // the translation economics under churn are.
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
    let mutations = churn_schedule(
        std::slice::from_ref(&ds.graph),
        &ChurnConfig {
            events: CHURN_EVENTS,
            rate_eps: CHURN_RATE_EPS,
            batch: CHURN_BATCH,
            seed: 13,
        },
    );

    let full = run(&frozen, &graph, &trace, &mutations, false, None);
    let profiler = tcg_profile::shared(Backend::TcGnn.name());
    let delta = run(&frozen, &graph, &trace, &mutations, true, Some(&profiler));
    save_profile_artifacts(&profiler, "churn");

    assert_eq!(
        delta.mutations.applied, CHURN_EVENTS,
        "every scheduled mutation must apply"
    );
    assert!(
        delta.cache.delta_translations > 0,
        "the delta run must actually take the delta path"
    );
    assert_eq!(
        full.cache.delta_translations, 0,
        "the baseline must not take the delta path"
    );
    // Delta cost is attributed on the host track of the trace.
    {
        let p = profiler.read().expect("profiler lock");
        assert!(
            p.events().iter().any(|e| e.name.starts_with("sgt_delta:")),
            "delta translations must appear as attributed host spans"
        );
    }

    let gain = delta.throughput_rps / full.throughput_rps;
    let sgt_ratio = full.cache.translation_ms_paid / delta.cache.translation_ms_paid.max(1e-12);
    print_table(
        &[
            "config",
            "req/s",
            "p50 ms",
            "p99 ms",
            "SGT ms paid",
            "windows touched",
            "windows preserved",
        ],
        &[
            vec![
                "full retranslate".into(),
                format!("{:.0}", full.throughput_rps),
                format!("{:.3}", full.latency.p50()),
                format!("{:.3}", full.latency.p99()),
                format!("{:.3}", full.cache.translation_ms_paid),
                full.mutations.windows_touched.to_string(),
                full.mutations.windows_preserved.to_string(),
            ],
            vec![
                "delta translate".into(),
                format!("{:.0}", delta.throughput_rps),
                format!("{:.3}", delta.latency.p50()),
                format!("{:.3}", delta.latency.p99()),
                format!("{:.3}", delta.cache.translation_ms_paid),
                delta.mutations.windows_touched.to_string(),
                delta.mutations.windows_preserved.to_string(),
            ],
        ],
    );
    println!("full:  {}", full.summary_line());
    println!("delta: {}", delta.summary_line());
    println!("sustained throughput gain: {gain:.3}x  (SGT ms paid ratio: {sgt_ratio:.2}x)");

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
        ("churn_events".into(), Value::UInt(CHURN_EVENTS as u128)),
        ("churn_batch".into(), Value::UInt(CHURN_BATCH as u128)),
        ("full_retranslate".into(), full.to_value()),
        ("delta".into(), delta.to_value()),
        ("throughput_gain".into(), Value::Float(gain)),
        ("sgt_ms_paid_ratio".into(), Value::Float(sgt_ratio)),
    ]);
    save_json("BENCH_churn", &value);

    assert!(
        gain > 1.0,
        "delta translation sustained only {gain:.3}x the full-retranslate throughput \
         under churn (need > 1x)"
    );
}

//! `BENCH_parallel` — host-side parallel execution benchmark.
//!
//! Runs the same workloads at 1 and 4 worker threads and compares
//! *wall-clock* time (every other number in this repo is simulated; here
//! the host actually fans block bodies over a thread pool):
//!
//! 1. **spmm**: repeated TC-GNN SpMM launches on an R-MAT graph;
//! 2. **serve**: the cached/batched serving session from `BENCH_serve`.
//!
//! Both must produce byte-identical results at every thread count — that
//! is asserted unconditionally. The ≥2x speedup assertion is enforced only
//! when the host actually has ≥4 cores: on fewer cores the fan-out cannot
//! beat sequential execution no matter how good the launcher is, so the
//! run still measures and records, and `results/BENCH_parallel.json` says
//! whether the speedup gate was enforced (`speedup_enforced`).

use std::time::Instant;

use serde::Value;
use tcg_bench::{load_dataset, print_table, save_json};
use tcg_gnn::{train_model_returning, Backend, Engine, GcnModel, TrainConfig};
use tcg_graph::datasets::spec_by_name;
use tcg_serve::{
    poisson_trace, serve, LoadgenConfig, ServableModel, ServeConfig, ServedGraph, Session,
};

const SPMM_NODES: usize = 8192;
const SPMM_EDGES: usize = 8192 * 8;
const SPMM_DIM: usize = 64;
const SPMM_REPS: usize = 8;
const SERVE_REQUESTS: usize = 128;
const THREADS: usize = 4;

/// Wall-clock milliseconds of `SPMM_REPS` engine SpMM launches, plus the
/// output of the last launch for the byte-identity check.
fn spmm_wall_ms(
    graph: &tcg_graph::CsrGraph,
    x: &tcg_tensor::DenseMatrix,
    threads: usize,
) -> (f64, Vec<f32>) {
    let mut eng = Engine::builder(graph.clone())
        .backend(Backend::TcGnn)
        .device(tcg_bench::device())
        .threads(threads)
        .build()
        .expect("benchmark graph is symmetric");
    let start = Instant::now();
    let mut out = Vec::new();
    for _ in 0..SPMM_REPS {
        let (y, _) = eng.spmm(x, None).expect("dims agree");
        out = y.as_slice().to_vec();
    }
    (start.elapsed().as_secs_f64() * 1e3, out)
}

/// Wall-clock milliseconds of one cached+batched serve run, plus the
/// response classes for the byte-identity check.
fn serve_wall_ms(
    frozen: &ServableModel,
    graph: &ServedGraph,
    trace: &[tcg_serve::Request],
    threads: usize,
) -> (f64, Vec<String>) {
    let mut session = Session::new(frozen.clone(), vec![graph.clone()], 4);
    let mut cfg = ServeConfig {
        backend: Backend::TcGnn,
        streams: 2,
        queue_capacity: SERVE_REQUESTS,
        threads,
        ..ServeConfig::default()
    };
    cfg.policy.max_batch = 8;
    cfg.policy.max_delay_ms = 0.5;
    let start = Instant::now();
    let report = serve(&mut session, &cfg, trace, None);
    let wall = start.elapsed().as_secs_f64() * 1e3;
    let outcomes: Vec<String> = report
        .responses
        .iter()
        .map(|r| format!("{:?}", r.outcome))
        .collect();
    (wall, outcomes)
}

fn main() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let enforce = cores >= THREADS;
    println!(
        "BENCH_parallel: {cores} host cores; speedup gate {}",
        if enforce {
            "enforced"
        } else {
            "recorded only (too few cores)"
        }
    );

    // --- SpMM ---
    let graph = tcg_graph::gen::rmat_default(SPMM_NODES, SPMM_EDGES, 13).expect("rmat");
    let x = tcg_tensor::init::uniform(graph.num_nodes(), SPMM_DIM, -1.0, 1.0, 17);
    println!(
        "spmm: {} nodes, {} edges, dim {SPMM_DIM}, {SPMM_REPS} launches",
        graph.num_nodes(),
        graph.num_edges()
    );
    let (spmm_seq_ms, spmm_seq_out) = spmm_wall_ms(&graph, &x, 1);
    let (spmm_par_ms, spmm_par_out) = spmm_wall_ms(&graph, &x, THREADS);
    assert_eq!(
        spmm_seq_out, spmm_par_out,
        "parallel SpMM output diverged from sequential"
    );
    let spmm_speedup = spmm_seq_ms / spmm_par_ms.max(f64::EPSILON);

    // --- Serve ---
    let spec = spec_by_name("Cora").expect("registry");
    let ds = load_dataset(spec);
    let cfg = TrainConfig::gcn_paper().with_epochs(2);
    let mut eng = Engine::builder(ds.graph.clone())
        .backend(Backend::TcGnn)
        .device(tcg_bench::device())
        .build()
        .expect("graph is symmetric");
    let gcn = GcnModel::new(ds.spec.feat_dim, cfg.hidden, ds.spec.num_classes, cfg.seed);
    let (gcn, _) = train_model_returning(&mut eng, &ds, cfg, gcn);
    let frozen = ServableModel::Gcn(gcn);
    let served_graph = ServedGraph {
        name: spec.name.to_string(),
        csr: ds.graph.clone(),
        features: ds.features.clone(),
    };
    let trace = poisson_trace(
        &[ds.graph.num_nodes()],
        &LoadgenConfig {
            rate_rps: 100_000.0,
            requests: SERVE_REQUESTS,
            deadline_ms: None,
            seed: 7,
            ..LoadgenConfig::default()
        },
    );
    let (serve_seq_ms, serve_seq_out) = serve_wall_ms(&frozen, &served_graph, &trace, 1);
    let (serve_par_ms, serve_par_out) = serve_wall_ms(&frozen, &served_graph, &trace, THREADS);
    assert_eq!(
        serve_seq_out, serve_par_out,
        "parallel serving responses diverged from sequential"
    );
    let serve_speedup = serve_seq_ms / serve_par_ms.max(f64::EPSILON);

    print_table(
        &[
            "workload",
            "1 thread (ms)",
            &format!("{THREADS} threads (ms)"),
            "speedup",
        ],
        &[
            vec![
                "spmm".into(),
                format!("{spmm_seq_ms:.1}"),
                format!("{spmm_par_ms:.1}"),
                format!("{spmm_speedup:.2}x"),
            ],
            vec![
                "serve".into(),
                format!("{serve_seq_ms:.1}"),
                format!("{serve_par_ms:.1}"),
                format!("{serve_speedup:.2}x"),
            ],
        ],
    );

    let value = Value::Object(vec![
        ("_meta".into(), tcg_bench::run_meta()),
        ("host_cores".into(), Value::UInt(cores as u128)),
        ("threads".into(), Value::UInt(THREADS as u128)),
        ("speedup_enforced".into(), Value::Bool(enforce)),
        (
            "spmm".into(),
            Value::Object(vec![
                ("num_nodes".into(), Value::UInt(graph.num_nodes() as u128)),
                ("num_edges".into(), Value::UInt(graph.num_edges() as u128)),
                ("dim".into(), Value::UInt(SPMM_DIM as u128)),
                ("launches".into(), Value::UInt(SPMM_REPS as u128)),
                ("wall_ms_seq".into(), Value::Float(spmm_seq_ms)),
                ("wall_ms_par".into(), Value::Float(spmm_par_ms)),
                ("speedup".into(), Value::Float(spmm_speedup)),
                ("outputs_identical".into(), Value::Bool(true)),
            ]),
        ),
        (
            "serve".into(),
            Value::Object(vec![
                ("dataset".into(), Value::Str(spec.name.to_string())),
                ("requests".into(), Value::UInt(SERVE_REQUESTS as u128)),
                ("wall_ms_seq".into(), Value::Float(serve_seq_ms)),
                ("wall_ms_par".into(), Value::Float(serve_par_ms)),
                ("speedup".into(), Value::Float(serve_speedup)),
                ("responses_identical".into(), Value::Bool(true)),
            ]),
        ),
    ]);
    save_json("BENCH_parallel", &value);

    if enforce {
        assert!(
            spmm_speedup >= 2.0,
            "spmm reached only {spmm_speedup:.2}x at {THREADS} threads (need >= 2x)"
        );
        assert!(
            serve_speedup >= 2.0,
            "serve reached only {serve_speedup:.2}x at {THREADS} threads (need >= 2x)"
        );
    }
}

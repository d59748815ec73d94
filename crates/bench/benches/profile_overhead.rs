//! Overhead of the observability layer, two instruments:
//!
//! 1. **Launch tracing** (`TCG_PROFILE=1`): the same two-epoch GCN run
//!    with no profiler attached (the default), and with one recording
//!    every launch. The disabled path is a single `Option` check per
//!    launch — no allocation — so the two times should be statistically
//!    indistinguishable at this scale.
//! 2. **Hotspot timers** (`tcgnn profile --hotspots`): single-thread SpMM
//!    with the per-block host timers off vs on. The disabled path is one
//!    relaxed atomic load per scope, two scopes per simulated block; the
//!    guard below *asserts* its aggregate cost stays under 2% of the
//!    un-profiled run.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tcg_gnn::{train_gcn, Backend, Engine, TrainConfig};
use tcg_gpusim::hotspot::{self, HotPhase};
use tcg_gpusim::DeviceSpec;
use tcg_graph::datasets::{DatasetSpec, GraphClass};

const SPMM_NODES: usize = 2048;
const SPMM_EDGES: usize = 2048 * 8;
const SPMM_DIM: usize = 32;

fn spmm_fixture() -> (tcg_graph::CsrGraph, tcg_tensor::DenseMatrix) {
    let graph = tcg_graph::gen::rmat_default(SPMM_NODES, SPMM_EDGES, 13).expect("rmat");
    let x = tcg_tensor::init::uniform(graph.num_nodes(), SPMM_DIM, -1.0, 1.0, 17);
    (graph, x)
}

/// One single-thread TC-GNN SpMM launch; returns wall nanoseconds.
fn spmm_once(graph: &tcg_graph::CsrGraph, x: &tcg_tensor::DenseMatrix) -> u64 {
    let mut eng = Engine::builder(graph.clone())
        .backend(Backend::TcGnn)
        .device(DeviceSpec::rtx3090())
        .threads(1)
        .build()
        .expect("graph is symmetric");
    let start = Instant::now();
    let (y, _) = eng.spmm(x, None).expect("dims agree");
    let ns = start.elapsed().as_nanos() as u64;
    std::hint::black_box(y);
    ns
}

/// Asserts the *disabled* hotspot path costs <2% of the un-profiled
/// single-thread SpMM run.
///
/// The timers are compiled into every block unconditionally, so a pure
/// with/without wall-clock A/B does not exist at runtime. Instead the
/// guard bounds the disabled cost from its parts: (scopes the workload
/// actually enters, counted from one enabled run) x (measured per-call
/// cost of a disabled scope) must stay under 2% of the disabled-run wall
/// time. Per-call disabled cost is one relaxed atomic load, so this bound
/// is loose by construction — tripping it means someone put real work on
/// the disabled path.
fn assert_disabled_hotspot_overhead() {
    let (graph, x) = spmm_fixture();

    // Count instrumented scope entries with the timers on (drain any
    // stale state first so the count covers exactly one launch).
    hotspot::set_enabled(true);
    let _ = hotspot::take_report();
    spmm_once(&graph, &x);
    let report = hotspot::take_report();
    hotspot::set_enabled(false);
    let scope_entries: u64 = report
        .workers
        .values()
        .map(|w| w.phase_hits.iter().sum::<u64>())
        .sum();
    assert!(scope_entries > 0, "spmm run entered no instrumented scopes");

    // Per-call cost of a disabled scope (the single-branch path).
    const CALLS: u64 = 1_000_000;
    let start = Instant::now();
    for _ in 0..CALLS {
        let guard = std::hint::black_box(hotspot::scope(HotPhase::BlockBody, 0));
        drop(guard);
    }
    let per_call_ns = start.elapsed().as_nanos() as f64 / CALLS as f64;

    // Un-profiled wall time: median of 3 disabled runs.
    let mut walls: Vec<u64> = (0..3).map(|_| spmm_once(&graph, &x)).collect();
    walls.sort_unstable();
    let wall_ns = walls[1] as f64;

    let disabled_cost_ns = scope_entries as f64 * per_call_ns;
    let pct = disabled_cost_ns / wall_ns * 100.0;
    println!(
        "hotspot disabled-path guard: {scope_entries} scopes x {per_call_ns:.2} ns/call \
         = {disabled_cost_ns:.0} ns over a {wall_ns:.0} ns run ({pct:.3}%)"
    );
    assert!(
        pct < 2.0,
        "disabled hotspot timers cost {pct:.2}% of the un-profiled spmm run (need < 2%)"
    );
}

fn bench_profile_overhead(c: &mut Criterion) {
    let ds = DatasetSpec {
        name: "bench-profile",
        class: GraphClass::TypeI,
        num_nodes: 2000,
        num_edges: 16000,
        feat_dim: 64,
        num_classes: 7,
    }
    .materialize(3)
    .expect("synthetic dataset");
    let cfg = TrainConfig::gcn_paper().with_epochs(2);

    let mut group = c.benchmark_group("profile_overhead");
    group.sample_size(10);
    for profiled in [false, true] {
        let label = if profiled { "enabled" } else { "disabled" };
        group.bench_with_input(
            BenchmarkId::new("gcn_2epoch", label),
            &profiled,
            |b, &profiled| {
                b.iter(|| {
                    let mut eng = Engine::builder(ds.graph.clone())
                        .backend(Backend::TcGnn)
                        .device(DeviceSpec::rtx3090())
                        .build()
                        .expect("graph is symmetric");
                    if profiled {
                        eng.attach_profiler(tcg_profile::shared("TC-GNN"));
                    }
                    train_gcn(&mut eng, &ds, cfg)
                });
            },
        );
    }
    group.finish();
}

fn bench_hotspot_overhead(c: &mut Criterion) {
    assert_disabled_hotspot_overhead();

    let (graph, x) = spmm_fixture();
    let mut group = c.benchmark_group("hotspot_overhead");
    group.sample_size(10);
    for enabled in [false, true] {
        let label = if enabled { "enabled" } else { "disabled" };
        group.bench_with_input(
            BenchmarkId::new("spmm_1thread", label),
            &enabled,
            |b, &enabled| {
                hotspot::set_enabled(enabled);
                b.iter(|| spmm_once(&graph, &x));
                hotspot::set_enabled(false);
                let _ = hotspot::take_report();
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_profile_overhead, bench_hotspot_overhead);
criterion_main!(benches);

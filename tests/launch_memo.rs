//! The launch memo must be invisible: training on an engine whose repeat
//! launches replay their recorded stats gives the same bits as training on
//! one that simulates every launch in full.
//!
//! The reference engine carries a zero-rate fault plan. That turns the
//! memo off (a fault plan changes launches) without injecting anything,
//! so the two runs differ only in whether the memo answers.

use tc_gnn::fault::{FaultConfig, FaultPlan};
use tc_gnn::gnn::{
    train_model_returning, AgnnModel, Backend, Engine, GcnModel, TrainConfig, TrainableModel,
};
use tc_gnn::graph::datasets::{DatasetSpec, GraphClass};
use tc_gnn::graph::Dataset;
use tc_gnn::profile::shared;

const EPOCHS: u32 = 3;

fn dataset() -> Dataset {
    DatasetSpec {
        name: "memo-test",
        class: GraphClass::TypeI,
        num_nodes: 300,
        num_edges: 2400,
        feat_dim: 24,
        num_classes: 4,
    }
    .materialize(11)
    .expect("synthetic dataset")
}

/// Everything a run exposes, as bits.
#[derive(Debug, PartialEq)]
struct Run {
    losses: Vec<u64>,
    costs: Vec<[u64; 3]>,
    logits: Vec<u32>,
    events: String,
    launch_log: Vec<u64>,
}

/// Trains `model` for [`EPOCHS`] on `backend` over `devices` devices, then
/// runs one more forward for the logits. Returns the run and the engine's
/// memo hits.
fn train<M: TrainableModel>(model: M, backend: Backend, devices: usize, memo: bool) -> (Run, u64) {
    let ds = dataset();
    let mut eng = Engine::builder(ds.graph.clone())
        .backend(backend)
        .devices(devices)
        .build()
        .expect("graph is symmetric");
    if !memo {
        eng.attach_fault_plan(FaultPlan::new(5, FaultConfig::none()));
    }
    let profiler = shared("memo");
    eng.attach_profiler(profiler.clone());
    eng.set_launch_log(true);
    let cfg = TrainConfig::agnn_paper().with_epochs(EPOCHS);
    let (model, result) = train_model_returning(&mut eng, &ds, cfg, model);
    let logits = model.forward(&mut eng, &ds.features).into_parts().0;
    let events = format!("{:?}", profiler.read().expect("profiler lock").events());
    let run = Run {
        losses: result.epochs.iter().map(|e| e.loss.to_bits()).collect(),
        costs: (result.epochs.iter())
            .map(|e| [e.cost.aggregation_ms, e.cost.update_ms, e.cost.other_ms].map(f64::to_bits))
            .collect(),
        logits: logits.as_slice().iter().map(|v| v.to_bits()).collect(),
        events,
        launch_log: eng
            .take_launch_log()
            .into_iter()
            .map(f64::to_bits)
            .collect(),
    };
    (run, eng.memo_hits())
}

/// Trains with and without the memo and requires the same bits, with the
/// memo actually answering in the first run and never in the second.
fn assert_memo_invisible<M: TrainableModel>(model: M, backend: Backend, devices: usize) {
    let (memoized, hits) = train(model.clone(), backend, devices, true);
    let (simulated, no_hits) = train(model, backend, devices, false);
    let cell = format!("{} on {devices} device(s)", backend.name());
    assert!(hits > 0, "{cell}: the memo never answered");
    assert_eq!(no_hits, 0, "{cell}: the memo answered under a fault plan");
    assert!(
        !memoized.launch_log.is_empty(),
        "{cell}: nothing was logged"
    );
    assert_eq!(memoized.losses, simulated.losses, "{cell}: losses");
    assert_eq!(memoized.costs, simulated.costs, "{cell}: per-epoch cost");
    assert_eq!(memoized.logits, simulated.logits, "{cell}: logits");
    assert_eq!(memoized.events, simulated.events, "{cell}: profiler events");
    assert_eq!(
        memoized.launch_log, simulated.launch_log,
        "{cell}: launch log"
    );
}

fn agnn() -> AgnnModel {
    let spec = dataset().spec;
    AgnnModel::new(spec.feat_dim, 32, spec.num_classes, 4, 42)
}

fn gcn() -> GcnModel {
    let spec = dataset().spec;
    GcnModel::new(spec.feat_dim, 16, spec.num_classes, 42)
}

#[test]
fn agnn_on_hybrid_fused_attention_is_unchanged_by_the_memo() {
    // Fused attention forward; SDDMM and (transposed) SpMM backward.
    assert_memo_invisible(agnn(), Backend::Hybrid, 1);
}

#[test]
fn agnn_on_dgl_unfused_attention_is_unchanged_by_the_memo() {
    // SDDMM, edge softmax and weighted SpMM as separate launches.
    assert_memo_invisible(agnn(), Backend::DglLike, 1);
}

#[test]
fn agnn_on_tcgnn_fused_attention_is_unchanged_by_the_memo() {
    // The fused kernel on the pure TCU backend; TCU SDDMM and SpMM
    // backward.
    assert_memo_invisible(agnn(), Backend::TcGnn, 1);
}

#[test]
fn gcn_and_agnn_on_pyg_scatter_are_unchanged_by_the_memo() {
    // Scatter-gather SpMM (its edge-order atomics against the row loop
    // of a hit) and CUDA-core SDDMM.
    assert_memo_invisible(gcn(), Backend::PygLike, 1);
    assert_memo_invisible(agnn(), Backend::PygLike, 1);
}

#[test]
fn gcn_on_tcgnn_and_dgl_is_unchanged_by_the_memo() {
    assert_memo_invisible(gcn(), Backend::TcGnn, 1);
    assert_memo_invisible(gcn(), Backend::DglLike, 1);
}

#[test]
fn sharded_gcn_is_unchanged_by_the_memo() {
    assert_memo_invisible(gcn(), Backend::TcGnn, 2);
}

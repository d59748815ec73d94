//! Sharded-vs-single-device bitwise equality — the sharding backend's core
//! contract, exercised for every servable model on every backend, across
//! the adversarial oracle families and the fig7b (Table 4) dataset suite.
//!
//! The reference is a one-device engine running the model's own forward;
//! the sharded side runs the same forward on engines of 2 and 4 devices
//! under both partitioners. Equality is exact (`as_slice() ==`), not
//! approximate: the shard construction preserves every kernel's reduction
//! order, so any f32-level divergence is a bug.

use std::process::Command;

use tc_gnn::dist::Partitioner;
use tc_gnn::gnn::{
    train_agnn, train_gcn, AgnnModel, Backend, Engine, GcnModel, GinModel, SageModel, TrainConfig,
    TrainResult,
};
use tc_gnn::gpusim::DeviceSpec;
use tc_gnn::graph::datasets::{spec_by_name, Dataset, GraphClass, TABLE4};
use tc_gnn::graph::CsrGraph;
use tc_gnn::oracle::Family;
use tc_gnn::serve::ServableModel;
use tc_gnn::tensor::{init, DenseMatrix};

const SHARDINGS: [(usize, Partitioner); 4] = [
    (2, Partitioner::Contiguous),
    (2, Partitioner::GreedyEdgeCut),
    (4, Partitioner::Contiguous),
    (4, Partitioner::GreedyEdgeCut),
];

fn backends() -> impl Iterator<Item = Backend> {
    Backend::all().into_iter()
}

fn engine(g: &CsrGraph, backend: Backend, devices: usize, p: Partitioner) -> Engine {
    Engine::builder(g.clone())
        .backend(backend)
        .device(DeviceSpec::a100())
        .devices(devices)
        .partitioner(p)
        .build()
        .expect("graph is symmetric")
}

/// Every servable architecture. AGNN takes the fused attention kernel on
/// the translating backends and the unfused SDDMM → softmax → SpMM path on
/// the others.
fn models(in_dim: usize, classes: usize, seed: u64) -> [ServableModel; 4] {
    [
        ServableModel::Gcn(GcnModel::new(in_dim, 16, classes, seed)),
        ServableModel::Agnn(AgnnModel::new(in_dim, 16, classes, 2, seed)),
        ServableModel::Sage(SageModel::new(in_dim, 16, classes, seed)),
        ServableModel::Gin(GinModel::new(in_dim, 16, classes, seed)),
    ]
}

/// Every model on `backend`, with weights drawn from `seed`: sharded logits
/// equal one-device logits bit for bit, and the halo accounting reconciles
/// with the interconnect.
fn assert_models_shard_exactly(
    g: &CsrGraph,
    x: &DenseMatrix,
    classes: usize,
    backend: Backend,
    label: &str,
    seed: u64,
) {
    for model in models(x.cols(), classes, seed) {
        let (want, _) = model.infer(&mut engine(g, backend, 1, Partitioner::Contiguous), x);
        for (devices, p) in SHARDINGS {
            let mut eng = engine(g, backend, devices, p);
            let (got, _) = model.infer(&mut eng, x);
            let at = format!("{label} {} {backend:?} {devices}x{p:?}", model.kind());
            assert_eq!(got.as_slice(), want.as_slice(), "{at}");
            let rep = eng.take_dist_report().expect("sharded engine reports");
            assert_eq!(rep.transfer_bytes_priced, rep.total_halo_bytes(), "{at}");
        }
    }
}

#[test]
fn all_adversarial_families_shard_bitwise_identically() {
    for family in Family::ALL {
        for seed in [1u64, 42] {
            let g = family.generate(seed);
            let x = init::uniform(g.num_nodes(), 12, -1.0, 1.0, seed ^ 7);
            let label = format!("{} seed {seed}", family.name());
            for backend in backends() {
                assert_models_shard_exactly(&g, &x, 5, backend, &label, seed);
            }
        }
    }
}

#[test]
fn every_sparse_op_shards_bitwise_identically() {
    // The forward passes above never run the training-side ops (transposed
    // aggregation, softmax backward); check every sparse op in isolation
    // so a dense-op bug can't mask an aggregation bug either.
    for family in Family::ALL {
        let g = family.generate(9);
        let x = init::uniform(g.num_nodes(), 16, -1.0, 1.0, 3);
        let y = init::uniform(g.num_nodes(), 16, -1.0, 1.0, 4);
        let vals: Vec<f32> = (0..g.num_edges())
            .map(|e| 0.1 + (e % 7) as f32 * 0.3)
            .collect();
        let ops = |eng: &mut Engine| {
            let mut rows = vec![
                eng.gcn_aggregate(&x).unwrap().0,
                eng.mean_aggregate(&x).unwrap().0,
                eng.mean_aggregate_t(&x).unwrap().0,
                eng.sum_aggregate(&x).unwrap().0,
                eng.spmm(&x, Some(&vals)).unwrap().0,
                eng.spmm_t(&x, Some(&vals)).unwrap().0,
            ];
            let mut edges = vec![
                eng.sddmm(&x, &y).unwrap().0,
                eng.edge_softmax(&vals).unwrap().0,
                eng.edge_softmax_backward(&vals, &vals).0,
            ];
            if eng.supports_fused_attention() {
                let (out, cos, p, _) = eng.fused_attention(&x, &y, 0.5).unwrap();
                rows.push(out);
                edges.extend([cos, p]);
            }
            let rows: Vec<f32> = rows.iter().flat_map(|m| m.as_slice().to_vec()).collect();
            (rows, edges.concat())
        };
        for backend in backends() {
            let want = ops(&mut engine(&g, backend, 1, Partitioner::Contiguous));
            for (devices, p) in SHARDINGS {
                let got = ops(&mut engine(&g, backend, devices, p));
                let at = format!("{} {backend:?} {devices}x{p:?}", family.name());
                assert_eq!(got.0, want.0, "row ops: {at}");
                assert_eq!(got.1, want.1, "edge ops: {at}");
            }
        }
    }
}

/// The Table 4 suite behind fig7b, scaled the way the bench harness scales
/// (structure and class mix preserved) so the full sweep stays CI-sized.
/// Feature dim is capped: bitwise equality is a property of graph
/// structure handling, not of the input width.
fn fig7b_suite_shards_bitwise_identically(backend: Backend) {
    for spec in TABLE4.iter() {
        let scale = match spec.class {
            GraphClass::TypeI => 8,
            _ => 64,
        };
        let g = spec
            .scaled(scale)
            .generate_graph(20230710)
            .expect("generator");
        let x = init::uniform(g.num_nodes(), spec.feat_dim.min(32), -1.0, 1.0, 11);
        assert_models_shard_exactly(&g, &x, spec.num_classes.max(2), backend, spec.name, 5);
    }
}

// One test per backend, so the suite's sweeps run in parallel.
#[test]
fn fig7b_suite_shards_bitwise_identically_dgl() {
    fig7b_suite_shards_bitwise_identically(Backend::DglLike);
}

#[test]
fn fig7b_suite_shards_bitwise_identically_pyg() {
    fig7b_suite_shards_bitwise_identically(Backend::PygLike);
}

#[test]
fn fig7b_suite_shards_bitwise_identically_tcgnn() {
    fig7b_suite_shards_bitwise_identically(Backend::TcGnn);
}

#[test]
fn fig7b_suite_shards_bitwise_identically_hybrid() {
    fig7b_suite_shards_bitwise_identically(Backend::Hybrid);
}

#[test]
fn training_on_a_sharded_engine_reproduces_one_device_losses() {
    // Forward and backward both run sharded: transposed aggregation,
    // softmax backward and the weight-gradient GEMMs included.
    let ds = spec_by_name("Cora")
        .expect("registry")
        .scaled(8)
        .materialize(2024)
        .expect("synthetic dataset");
    let cfg = TrainConfig {
        hidden: 16,
        layers: 2,
        epochs: 3,
        lr: 0.02,
        seed: 3,
    };
    type Train = fn(&mut Engine, &Dataset, TrainConfig) -> TrainResult;
    let losses = |train: Train, backend, devices| {
        let mut eng = engine(&ds.graph, backend, devices, Partitioner::GreedyEdgeCut);
        let result = train(&mut eng, &ds, cfg);
        result
            .epochs
            .iter()
            .map(|e| e.loss.to_bits())
            .collect::<Vec<_>>()
    };
    for backend in [Backend::TcGnn, Backend::DglLike] {
        assert_eq!(losses(train_gcn, backend, 4), losses(train_gcn, backend, 1));
        assert_eq!(
            losses(train_agnn, backend, 4),
            losses(train_agnn, backend, 1)
        );
    }
}

#[test]
fn serve_rejects_zero_devices_with_the_engine_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_tcgnn"))
        .args(["serve", "Cora", "--devices", "0", "--epochs", "1"])
        .output()
        .expect("tcgnn runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("engine devices") && stderr.contains("at least one device"),
        "{stderr}"
    );
}

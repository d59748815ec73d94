//! Sharded-vs-single-device bitwise equality — the subsystem's core
//! contract, exercised across every adversarial oracle family and the
//! fig7b (Table 4) dataset suite.
//!
//! The single-device reference is the TC-GNN engine running
//! `GcnModel::infer` on the unsharded graph; the distributed side runs
//! the same model through `DistContext` at 2 and 4 devices under both
//! partitioners. Equality is exact (`as_slice() ==`), not approximate:
//! the shard construction preserves SGT's reduction orders, so any
//! f32-level divergence is a bug.

use tcg_dist::{DistContext, Partitioner};
use tcg_gnn::{Backend, Engine, GcnModel};
use tcg_gpusim::DeviceSpec;
use tcg_graph::datasets::{GraphClass, TABLE4};
use tcg_graph::CsrGraph;
use tcg_oracle::Family;
use tcg_tensor::{init, DenseMatrix};

fn single_device_logits(g: &CsrGraph, model: &GcnModel, x: &DenseMatrix) -> DenseMatrix {
    let mut eng = Engine::builder(g.clone())
        .backend(Backend::TcGnn)
        .device(DeviceSpec::a100())
        .build()
        .expect("graph is symmetric");
    let (logits, _) = model.infer(&mut eng, x);
    logits
}

fn single_device_aggregate(g: &CsrGraph, x: &DenseMatrix) -> DenseMatrix {
    let mut eng = Engine::builder(g.clone())
        .backend(Backend::TcGnn)
        .device(DeviceSpec::a100())
        .build()
        .expect("graph is symmetric");
    let (out, _) = eng.gcn_aggregate(x).expect("dims agree");
    out
}

#[test]
fn all_adversarial_families_shard_bitwise_identically() {
    for family in Family::ALL {
        for seed in [1u64, 42] {
            let g = family.generate(seed);
            let model = GcnModel::new(12, 16, 5, seed);
            let x = init::uniform(g.num_nodes(), 12, -1.0, 1.0, seed ^ 7);
            let want = single_device_logits(&g, &model, &x);
            for devices in [2usize, 4] {
                for p in [Partitioner::Contiguous, Partitioner::GreedyEdgeCut] {
                    let mut ctx = DistContext::new(&g, devices, p, DeviceSpec::a100(), 1);
                    let (got, rep) = ctx.gcn_forward(&model, &x).unwrap();
                    assert_eq!(
                        got.as_slice(),
                        want.as_slice(),
                        "family {} seed {seed} devices {devices} partitioner {p:?}",
                        family.name()
                    );
                    assert_eq!(rep.transfer_bytes_priced, rep.total_halo_bytes());
                }
            }
        }
    }
}

#[test]
fn raw_aggregation_matches_engine_spmm_per_family() {
    // The aggregate is where the sharding actually happens; check it in
    // isolation too so a dense-op bug can't mask an aggregation bug.
    for family in Family::ALL {
        let g = family.generate(9);
        let x = init::uniform(g.num_nodes(), 16, -1.0, 1.0, 3);
        let want = single_device_aggregate(&g, &x);
        for p in [Partitioner::Contiguous, Partitioner::GreedyEdgeCut] {
            // An 8→16 layer aggregates first at the input dim; instead run
            // a 16→16 model whose l1 aggregate is exactly Â·X at dim 16
            // and compare that via the full forward being deterministic.
            let mut ctx = DistContext::new(&g, 4, p, DeviceSpec::a100(), 1);
            let model = GcnModel {
                l1: tcg_gnn::layers::gcn::GcnLayer {
                    w: identity16(),
                    b: vec![0.0; 16],
                },
                l2: tcg_gnn::layers::gcn::GcnLayer {
                    w: identity16(),
                    b: vec![0.0; 16],
                },
            };
            let (got, _) = ctx.gcn_forward(&model, &x).unwrap();
            // l1 = relu(Â·X·I) = relu(Â·X); l2 = Â·relu(Â·X). Compare l1's
            // aggregate through the reference engine on the same pipeline.
            let h1 = tcg_tensor::ops::relu(&want_linear(&want));
            let want2 = want_linear(&single_device_aggregate(&g, &h1));
            assert_eq!(got.as_slice(), want2.as_slice(), "family {}", family.name());
        }
    }
}

/// `X·I + 0` through the same register-blocked GEMM the layers use — keeps
/// the reference pipeline's float ops identical to the layer path.
fn want_linear(x: &DenseMatrix) -> DenseMatrix {
    let mut y = tcg_tensor::gemm::gemm(x, &identity16()).unwrap();
    tcg_tensor::ops::add_bias_inplace(&mut y, &vec![0.0; 16]).unwrap();
    y
}

fn identity16() -> DenseMatrix {
    let mut m = DenseMatrix::zeros(16, 16);
    for i in 0..16 {
        m.set(i, i, 1.0);
    }
    m
}

#[test]
fn fig7b_dataset_suite_shards_bitwise_identically() {
    // The Table 4 suite behind fig7b, scaled the way the bench harness
    // scales (structure and class mix preserved) so the full sweep stays
    // CI-sized. Feature dim is capped: bitwise equality is a property of
    // graph structure handling, not of the input width.
    for spec in TABLE4.iter() {
        let scale = match spec.class {
            GraphClass::TypeI => 8,
            _ => 64,
        };
        let scaled = spec.scaled(scale);
        let g = scaled.generate_graph(20230710).expect("generator");
        let in_dim = spec.feat_dim.min(32);
        let model = GcnModel::new(in_dim, 16, spec.num_classes.max(2), 5);
        let x = init::uniform(g.num_nodes(), in_dim, -1.0, 1.0, 11);
        let want = single_device_logits(&g, &model, &x);
        for (devices, p) in [
            (2usize, Partitioner::Contiguous),
            (2, Partitioner::GreedyEdgeCut),
            (4, Partitioner::Contiguous),
            (4, Partitioner::GreedyEdgeCut),
        ] {
            let mut ctx = DistContext::new(&g, devices, p, DeviceSpec::a100(), 2);
            let (got, _) = ctx.gcn_forward(&model, &x).unwrap();
            assert_eq!(
                got.as_slice(),
                want.as_slice(),
                "dataset {} devices {devices} partitioner {p:?}",
                spec.name
            );
        }
    }
}

//! Criterion benchmark of a full training epoch per backend (wall-clock of
//! the simulator; the paper-shape comparisons live in the fig6 binaries).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use tcg_gnn::{train_gcn, Backend, Engine, TrainConfig};
use tcg_gpusim::DeviceSpec;
use tcg_graph::datasets::{DatasetSpec, GraphClass};

fn bench_e2e(c: &mut Criterion) {
    let ds = DatasetSpec {
        name: "bench-small",
        class: GraphClass::TypeI,
        num_nodes: 2_000,
        num_edges: 16_000,
        feat_dim: 128,
        num_classes: 7,
    }
    .materialize(5)
    .expect("synthetic dataset");
    let cfg = TrainConfig::gcn_paper().with_epochs(1);
    let mut group = c.benchmark_group("gcn_epoch_2k_nodes");
    group.sample_size(10);
    for backend in [Backend::DglLike, Backend::PygLike, Backend::TcGnn] {
        group.bench_function(BenchmarkId::from_parameter(backend.name()), |b| {
            b.iter(|| {
                let mut eng = Engine::builder(ds.graph.clone())
                    .backend(backend)
                    .device(DeviceSpec::rtx3090())
                    .build()
                    .expect("graph is symmetric");
                black_box(train_gcn(&mut eng, &ds, cfg))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_e2e);
criterion_main!(benches);

//! The model zoo: GCN, GraphSAGE, GIN and AGNN on the same dataset across
//! all three backends — the "GCN acceleration benefits a broad range of
//! GNNs" claim (§6 Benchmarks), made runnable.
//!
//! ```bash
//! cargo run --release --example model_zoo
//! ```

use tc_gnn::gnn::{train_agnn, train_gcn, train_gin, train_sage, Backend, Engine, TrainConfig};
use tc_gnn::gpusim::DeviceSpec;

fn main() {
    let ds = tc_gnn::graph::datasets::spec_by_name("Pubmed")
        .expect("known dataset")
        .scaled(2)
        .materialize(42)
        .expect("synthetic dataset");
    println!(
        "dataset: Pubmed/2 ({} nodes, {} edges, {} dims)\n",
        ds.num_nodes(),
        ds.num_edges(),
        ds.spec.feat_dim
    );

    let cfg = TrainConfig::gcn_paper().with_epochs(5);
    println!(
        "{:10} {:>12} {:>12} {:>12} {:>14}",
        "model", "DGL (ms)", "PyG (ms)", "TC-GNN (ms)", "speedup v DGL"
    );
    type Runner = fn(&mut Engine, &tc_gnn::graph::Dataset, TrainConfig) -> tc_gnn::gnn::TrainResult;
    let models: [(&str, Runner); 4] = [
        ("GCN", train_gcn),
        ("GraphSAGE", train_sage),
        ("GIN", train_gin),
        ("AGNN", train_agnn),
    ];
    for (name, runner) in models {
        let mut ms = [0.0f64; 3];
        for (i, b) in [Backend::DglLike, Backend::PygLike, Backend::TcGnn]
            .iter()
            .enumerate()
        {
            let mut eng = Engine::builder(ds.graph.clone())
                .backend(*b)
                .device(DeviceSpec::rtx3090())
                .build()
                .expect("graph is symmetric");
            let r = runner(&mut eng, &ds, cfg);
            ms[i] = r.avg_epoch_ms();
            assert!(r.loss_drop() > 0.0, "{name} on {b:?} must learn");
        }
        println!(
            "{:10} {:>12.3} {:>12.3} {:>12.3} {:>13.2}x",
            name,
            ms[0],
            ms[1],
            ms[2],
            ms[0] / ms[2]
        );
    }
}

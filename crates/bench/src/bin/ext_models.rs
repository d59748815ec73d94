//! Extension experiment: end-to-end speedup across the *whole model zoo*
//! (GCN, GraphSAGE, GIN, AGNN), testing the paper's claim that accelerating
//! GCN-style aggregation "will also benefit a broad range of GNNs".

use serde::Serialize;
use tcg_bench::{device, load_dataset, mean, print_table, save_json, E2E_EPOCHS};
use tcg_gnn::{
    train_agnn, train_gcn, train_gin, train_sage, Backend, Engine, TrainConfig, TrainResult,
};
use tcg_graph::Dataset;

#[derive(Serialize)]
struct Row {
    dataset: String,
    model: String,
    dgl_ms: f64,
    pyg_ms: f64,
    tcgnn_ms: f64,
}

fn main() {
    println!("# Extension: model-zoo end-to-end speedups (TC-GNN vs DGL/PyG)\n");
    type Runner = fn(&mut Engine, &Dataset, TrainConfig) -> TrainResult;
    let models: [(&str, Runner); 4] = [
        ("GCN", train_gcn as Runner),
        ("GraphSAGE", train_sage as Runner),
        ("GIN", train_gin as Runner),
        ("AGNN", train_agnn as Runner),
    ];
    let mut rows = Vec::new();
    for name in ["Cora", "DD", "soc-BlogCatalog"] {
        let spec = tcg_graph::datasets::spec_by_name(name).expect("known dataset");
        let ds = load_dataset(spec);
        for (model, runner) in &models {
            let cfg = if *model == "AGNN" {
                TrainConfig::agnn_paper()
            } else {
                TrainConfig::gcn_paper()
            }
            .with_epochs(E2E_EPOCHS);
            let mut ms = [0.0f64; 3];
            for (i, b) in [Backend::DglLike, Backend::PygLike, Backend::TcGnn]
                .iter()
                .enumerate()
            {
                let mut eng = Engine::builder(ds.graph.clone())
                    .backend(*b)
                    .device(device())
                    .build()
                    .expect("graph is symmetric");
                ms[i] = runner(&mut eng, &ds, cfg).avg_epoch_ms();
            }
            rows.push(Row {
                dataset: name.to_string(),
                model: model.to_string(),
                dgl_ms: ms[0],
                pyg_ms: ms[1],
                tcgnn_ms: ms[2],
            });
        }
        eprintln!("  [ext_models] {name} done");
    }
    print_table(
        &[
            "Dataset",
            "Model",
            "DGL (ms)",
            "PyG (ms)",
            "TC-GNN (ms)",
            "vs DGL",
            "vs PyG",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.dataset.clone(),
                    r.model.clone(),
                    format!("{:.3}", r.dgl_ms),
                    format!("{:.3}", r.pyg_ms),
                    format!("{:.3}", r.tcgnn_ms),
                    format!("{:.2}x", r.dgl_ms / r.tcgnn_ms),
                    format!("{:.2}x", r.pyg_ms / r.tcgnn_ms),
                ]
            })
            .collect::<Vec<_>>(),
    );
    let avg = mean(rows.iter().map(|r| r.dgl_ms / r.tcgnn_ms));
    println!("\nModel-zoo average speedup over DGL: {avg:.2}x");
    save_json("ext_models", &rows);
}

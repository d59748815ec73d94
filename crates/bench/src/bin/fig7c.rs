//! Figure 7(c) — impact of the number of warps per block on the TC-GNN
//! SpMM kernel (the dimension-split / staging-parallelism ablation the
//! Figure 7 caption mentions).

use serde::Serialize;
use tcg_bench::{device, load_dataset, print_table, save_json, save_profile_artifacts};
use tcg_gpusim::Launcher;
use tcg_kernels::common::{SpmmKernel, SpmmProblem};
use tcg_kernels::spmm::TcgnnSpmm;
use tcg_profile::Phase;
use tcg_tensor::init;

/// Wide embedding so the dimension split across warps matters.
const DIM: usize = 64;

#[derive(Serialize)]
struct Row {
    dataset: String,
    warps: usize,
    time_ms: f64,
    occupancy: f64,
}

fn main() {
    println!("# Figure 7(c): warps-per-block sweep of the TC-GNN SpMM kernel (D = {DIM})\n");
    let profiler = tcg_profile::ProfileLevel::from_env()
        .enabled()
        .then(|| tcg_profile::shared("TC-GNN"));
    let mut rows = Vec::new();
    for name in ["Pubmed", "artist", "soc-BlogCatalog"] {
        let spec = tcg_graph::datasets::spec_by_name(name).expect("known dataset");
        let ds = load_dataset(spec);
        let g = &ds.graph;
        let x = init::uniform(g.num_nodes(), DIM, -1.0, 1.0, 13);
        let prob = SpmmProblem::new(g, None, &x).expect("dims");
        let translated = tcg_sgt::Sgt::builder()
            .translate(g)
            .expect("default SGT geometry is valid");
        for warps in [1usize, 2, 4, 8] {
            let kernel = TcgnnSpmm::from_translated(translated.clone()).with_warps_per_block(warps);
            let mut l = Launcher::new(device());
            let (_, r) = kernel.execute(&mut l, &prob).expect("feasible");
            if let Some(p) = &profiler {
                p.write().expect("profiler lock").record_kernel(
                    &format!("spmm[{name} w={warps}]"),
                    Phase::Aggregation,
                    r.time_ms,
                    &r,
                );
            }
            rows.push(Row {
                dataset: name.to_string(),
                warps,
                time_ms: r.time_ms,
                occupancy: r.occupancy,
            });
        }
        eprintln!("  [fig7c] {name} done");
    }
    print_table(
        &["Dataset", "Warps/block", "Time (ms)", "Occupancy"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.dataset.clone(),
                    r.warps.to_string(),
                    format!("{:.4}", r.time_ms),
                    format!("{:.2}", r.occupancy),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!("\nExpected shape: too few warps starve staging parallelism; too many");
    println!("shrink per-warp work and occupancy gains flatten — a sweet spot in the middle.");
    save_json("fig7c", &rows);
    if let Some(p) = &profiler {
        save_profile_artifacts(p, "fig7c");
    }
}

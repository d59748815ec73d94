//! Figure 7(a) — effectiveness of Sparse Graph Translation: TCU blocks
//! traversed with vs without SGT. Paper: 67.47% average reduction, notably
//! lower on Type II (whose columns are already clustered).

use serde::Serialize;
use tcg_bench::{
    artifact_slug, load_dataset, mean, print_table, save_json, save_profile_artifacts,
};
use tcg_sgt::census::{census, census_sddmm};

#[derive(Serialize)]
struct Row {
    dataset: String,
    class: String,
    spmm_blocks_without: u64,
    spmm_blocks_with: u64,
    spmm_reduction_pct: f64,
    sddmm_reduction_pct: f64,
}

fn main() {
    println!("# Figure 7(a): SGT effectiveness — TCU block census\n");
    // This experiment is pure host work (no simulated kernels), so the
    // optional profile is a host-track timeline of wall-clock census spans.
    let profiler = tcg_profile::ProfileLevel::from_env()
        .enabled()
        .then(|| tcg_profile::shared("host"));
    let mut rows = Vec::new();
    for spec in tcg_graph::datasets::TABLE4.iter() {
        let ds = load_dataset(spec);
        let t0 = std::time::Instant::now();
        let c = census(&ds.graph);
        let cs = census_sddmm(&ds.graph);
        if let Some(p) = &profiler {
            p.write().expect("profiler lock").record_host(
                &format!("census[{}]", artifact_slug(spec.name)),
                t0.elapsed().as_secs_f64() * 1e3,
            );
        }
        rows.push(Row {
            dataset: spec.name.to_string(),
            class: spec.class.to_string(),
            spmm_blocks_without: c.blocks_without_sgt,
            spmm_blocks_with: c.blocks_with_sgt,
            spmm_reduction_pct: c.reduction_pct(),
            sddmm_reduction_pct: cs.reduction_pct(),
        });
        eprintln!("  [fig7a] {} done", spec.name);
    }
    print_table(
        &[
            "Dataset",
            "Type",
            "Blocks w/o SGT",
            "Blocks w/ SGT",
            "SpMM reduction",
            "SDDMM reduction",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.dataset.clone(),
                    r.class.clone(),
                    r.spmm_blocks_without.to_string(),
                    r.spmm_blocks_with.to_string(),
                    format!("{:.1}%", r.spmm_reduction_pct),
                    format!("{:.1}%", r.sddmm_reduction_pct),
                ]
            })
            .collect::<Vec<_>>(),
    );
    for class in ["I", "II", "III"] {
        let avg = mean(
            rows.iter()
                .filter(|r| r.class == class)
                .map(|r| r.spmm_reduction_pct),
        );
        println!("Type {class}: average SpMM block reduction {avg:.1}%");
    }
    let overall = mean(rows.iter().map(|r| r.spmm_reduction_pct));
    println!("\nOverall average reduction: {overall:.1}% (paper: 67.47%, lower on Type II)");
    save_json("fig7a", &rows);
    if let Some(p) = &profiler {
        save_profile_artifacts(p, "fig7a");
    }
}

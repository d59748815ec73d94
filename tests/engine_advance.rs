//! Engines that advance with the graph: an engine moved along an edit
//! script with `Engine::advance` equals a fresh `EngineBuilder::build` of
//! every graph on the script.
//!
//! Over the ten adversarial oracle families × seeded
//! `random_edit_script` edits, on the TC-GNN, hybrid, DGL and PyG
//! backends, every step compares the advanced engine with a fresh one:
//!
//! - the translation (translating backends);
//! - every sparse op that reads the per-graph norms (`gcn_aggregate`,
//!   `mean_aggregate`, `mean_aggregate_t`, `spmm_t`) and the plain ones,
//!   output and cost bit for bit with equal `KernelStats`;
//! - GCN and AGNN logits and costs over the full forward and a targeted
//!   (`infer_targets`) one, bit for bit;
//! - fault accounting back at zero with no plan attached.
//!
//! The advanced engine runs the same ops at every version, so its launch
//! memo holds launches of the previous graph when it advances. A sharded
//! engine takes the rebuild path and must equal a fresh sharded build.

use std::sync::Arc;

use tc_gnn::fault::FaultReport;
use tc_gnn::gnn::{AgnnModel, Backend, Cost, Engine, GcnModel, TrainableModel};
use tc_gnn::gpusim::KernelStats;
use tc_gnn::graph::CsrGraph;
use tc_gnn::oracle::{random_edit_script, Family};
use tc_gnn::sgt::{Sgt, TranslatedGraph, TC_BLK_H};
use tc_gnn::tensor::{init, DenseMatrix};

const BACKENDS: [Backend; 4] = [
    Backend::TcGnn,
    Backend::Hybrid,
    Backend::DglLike,
    Backend::PygLike,
];
const DIM: usize = 12;
const STEPS: usize = 4;
const TOGGLES: usize = 5;

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn cost_bits(c: Cost) -> [u64; 3] {
    [c.aggregation_ms, c.update_ms, c.other_ms].map(f64::to_bits)
}

/// What one op left behind: output bits, cost bits and the stats of the
/// last fused, SDDMM and SpMM kernels.
type Trace = Vec<(String, Vec<u32>, u64, [Option<KernelStats>; 3])>;

/// Runs every norm-reading and plain sparse op on `eng`, plus the fused
/// attention where the backend has it, and records what each produced.
fn ops(eng: &mut Engine, x: &DenseMatrix, values: &[f32]) -> Trace {
    type Op = fn(&mut Engine, &DenseMatrix, &[f32]) -> (Vec<f32>, f64);
    let mut table: Vec<(&str, Op)> = vec![
        ("spmm", |e, x, _| mat(e.spmm(x, None))),
        ("spmm_values", |e, x, v| mat(e.spmm(x, Some(v)))),
        ("spmm_t", |e, x, v| mat(e.spmm_t(x, Some(v)))),
        ("gcn_aggregate", |e, x, _| mat(e.gcn_aggregate(x))),
        ("mean_aggregate", |e, x, _| mat(e.mean_aggregate(x))),
        ("mean_aggregate_t", |e, x, _| mat(e.mean_aggregate_t(x))),
        ("sddmm", |e, x, _| e.sddmm(x, x).unwrap()),
        ("edge_softmax", |e, _, v| e.edge_softmax(v).unwrap()),
    ];
    if eng.supports_fused_attention() {
        table.push(("fused_attention", |e, x, _| {
            let (y, _, p, ms) = e.fused_attention(x, x, 0.5).unwrap();
            let mut out = y.as_slice().to_vec();
            out.extend(p);
            (out, ms)
        }));
    }
    table
        .into_iter()
        .map(|(name, op)| {
            let (out, ms) = op(eng, x, values);
            let stats = [
                &eng.last_fused_report,
                &eng.last_sddmm_report,
                &eng.last_spmm_report,
            ]
            .map(|r| r.as_ref().map(|r| r.stats.clone()));
            (name.to_string(), bits(&out), ms.to_bits(), stats)
        })
        .collect()
}

fn mat(r: Result<(DenseMatrix, f64), tc_gnn::fault::TcgError>) -> (Vec<f32>, f64) {
    let (m, ms) = r.unwrap();
    (m.as_slice().to_vec(), ms)
}

/// GCN and AGNN logits and costs, full and targeted.
fn forwards(eng: &mut Engine, x: &DenseMatrix, targets: &[usize]) -> Vec<(Vec<u32>, [u64; 3])> {
    let gcn = GcnModel::new(DIM, 16, 5, 3);
    let agnn = AgnnModel::new(DIM, 16, 5, 2, 3);
    let runs = [
        gcn.infer(eng, x),
        gcn.infer_targets(eng, x, targets),
        agnn.infer(eng, x),
        agnn.infer_targets(eng, x, targets),
    ];
    runs.into_iter()
        .map(|(logits, cost)| (bits(logits.as_slice()), cost_bits(cost)))
        .collect()
}

fn edge_values(g: &CsrGraph, step: usize) -> Vec<f32> {
    (0..g.num_edges())
        .map(|e| ((e * 7 + step * 13) % 11) as f32 * 0.2 - 1.0)
        .collect()
}

/// Compares everything the gate pins on `adv` against `fresh`.
fn assert_equal(adv: &mut Engine, fresh: &mut Engine, g: &CsrGraph, step: usize, label: &str) {
    assert_eq!(adv.graph(), fresh.graph(), "{label}: graph");
    assert_eq!(
        adv.translation(),
        fresh.translation(),
        "{label}: translation"
    );
    assert_eq!(
        adv.fault_report(),
        FaultReport::default(),
        "{label}: faults"
    );
    assert!(adv.fault_plan().is_none(), "{label}: fault plan");
    let x = init::uniform(g.num_nodes(), DIM, -1.0, 1.0, 40 + step as u64);
    let values = edge_values(g, step);
    let (a, f) = (ops(adv, &x, &values), ops(fresh, &x, &values));
    for (a, f) in a.iter().zip(&f) {
        assert_eq!(a, f, "{label}: op {}", f.0);
    }
    let targets: Vec<usize> = (0..g.num_nodes()).step_by(TC_BLK_H * 2 + 3).collect();
    let (a, f) = (forwards(adv, &x, &targets), forwards(fresh, &x, &targets));
    for (i, (a, f)) in a.iter().zip(&f).enumerate() {
        let which = ["gcn", "gcn targeted", "agnn", "agnn targeted"][i];
        assert_eq!(a, f, "{label}: {which} logits and cost");
    }
}

#[test]
fn advanced_engines_equal_fresh_builds_on_every_family_and_backend() {
    for family in Family::ALL {
        for seed in [1u64, 2] {
            let g0 = family.generate(seed);
            let script = random_edit_script(&g0, seed ^ 0xad, STEPS, TOGGLES);
            for backend in BACKENDS {
                let build = |g: &CsrGraph| Engine::builder(g.clone()).backend(backend).build();
                let mut adv = build(&g0).expect("oracle families are symmetric");
                let mut t: Arc<TranslatedGraph> = Arc::new(Sgt::builder().translate(&g0).unwrap());
                let mut g = g0.clone();
                // The first version's ops warm the memo the advance must clear.
                ops(
                    &mut adv,
                    &init::uniform(g.num_nodes(), DIM, -1.0, 1.0, 9),
                    &edge_values(&g, 0),
                );
                for (step, delta) in script.iter().enumerate() {
                    let next = delta.apply_to(&g).expect("edit scripts are valid");
                    // The serving cache's splice: only the touched windows rerun SGT.
                    let touched = delta.touched_windows(TC_BLK_H);
                    t = Arc::new(t.spliced(&next, &touched).unwrap());
                    adv.advance(&next, Some(Arc::clone(&t)))
                        .expect("edits keep the graph symmetric");
                    g = next;
                    let mut fresh = build(&g).unwrap();
                    let label = format!("{} seed {seed} {backend:?} step {step}", family.name());
                    assert_equal(&mut adv, &mut fresh, &g, step, &label);
                }
            }
        }
    }
}

#[test]
fn sharded_engines_rebuild_on_advance() {
    let g0 = Family::PowerLaw.generate(4);
    let script = random_edit_script(&g0, 5, 3, TOGGLES);
    for backend in [Backend::TcGnn, Backend::DglLike] {
        let build = |g: &CsrGraph| {
            Engine::builder(g.clone())
                .backend(backend)
                .devices(2)
                .build()
        };
        let mut adv = build(&g0).unwrap();
        let mut g = g0.clone();
        for (step, delta) in script.iter().enumerate() {
            g = delta.apply_to(&g).unwrap();
            adv.advance(&g, None).unwrap();
            let mut fresh = build(&g).unwrap();
            let label = format!("sharded {backend:?} step {step}");
            assert_eq!(
                adv.preprocessing_ms().to_bits(),
                fresh.preprocessing_ms().to_bits(),
                "{label}: shard SGT is paid again"
            );
            let x = init::uniform(g.num_nodes(), DIM, -1.0, 1.0, step as u64);
            let targets = [0, g.num_nodes() / 2];
            assert_eq!(
                forwards(&mut adv, &x, &targets),
                forwards(&mut fresh, &x, &targets),
                "{label}: logits and cost"
            );
            let dist = |e: &mut Engine| {
                let r = e.take_dist_report().expect("sharded");
                (r.total_halo_bytes(), r.transfer_ms.to_bits())
            };
            assert_eq!(dist(&mut adv), dist(&mut fresh), "{label}: halo exchange");
        }
    }
}

#[test]
fn advance_rejects_what_a_build_rejects_and_keeps_the_engine() {
    let g = Family::PowerLaw.generate(6);
    let mut eng = Engine::builder(g.clone()).build().unwrap();
    // A one-directional edge makes the graph asymmetric.
    let (u, v) = (0..g.num_nodes())
        .flat_map(|u| (0..g.num_nodes()).map(move |v| (u, v)))
        .find(|&(u, v)| u != v && !g.has_edge(u, v as u32))
        .unwrap();
    let one_way = tc_gnn::sgt::EdgeDelta::new().insert(u as u32, v as u32);
    let bad = one_way.apply_to(&g).unwrap();
    assert!(eng.advance(&bad, None).is_err());
    assert_eq!(
        eng.graph(),
        &g,
        "a rejected advance leaves the engine as it was"
    );
    let smaller = Family::PowerLaw.generate(7);
    if smaller.num_nodes() != g.num_nodes() {
        assert!(eng.advance(&smaller, None).is_err());
    }
    // A translation of another graph fails validation of the changed windows.
    let both_ways = tc_gnn::sgt::EdgeDelta::new().insert_undirected(u as u32, v as u32);
    let next = both_ways.apply_to(&g).unwrap();
    let stale = Arc::new(Sgt::builder().translate(&g).unwrap());
    assert!(eng.advance(&next, Some(stale)).is_err());
    // A one-device TC-GNN engine needs the new translation.
    assert!(eng.advance(&next, None).is_err());
    assert_eq!(eng.graph(), &g);
}

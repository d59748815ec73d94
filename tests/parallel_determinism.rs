//! Parallel execution must be invisible: at any thread count the engine
//! produces bitwise-identical logits, kernel reports, and cost totals.
//!
//! The parallel launcher gives each worker a private L1 (valid because L1
//! is flushed at every block boundary) and replays L2 probes in block-id
//! order, so nothing observable may depend on scheduling. This test pins
//! that across all backends — including the hybrid per-window dispatcher,
//! whose mixed launches fan out over the same disjoint row-window slices —
//! and the ten adversarial graph families.

use tc_gnn::gnn::{Backend, Engine, GcnModel, TrainableModel};
use tc_gnn::gpusim::KernelReport;
use tc_gnn::oracle::advgen::Family;
use tc_gnn::tensor::{init, DenseMatrix};

const FEAT: usize = 12;
const HIDDEN: usize = 8;
const CLASSES: usize = 5;

struct Run {
    logits: DenseMatrix,
    cost_total_ms: f64,
    spmm_report: Option<KernelReport>,
    sddmm_report: Option<KernelReport>,
}

fn run(family: Family, backend: Backend, threads: usize) -> Run {
    let g = family.generate(7);
    let n = g.num_nodes();
    let x = init::uniform(n, FEAT, -1.0, 1.0, 3);
    let mut eng = Engine::builder(g)
        .backend(backend)
        .threads(threads)
        .build()
        .expect("adversarial graphs are symmetric");
    let model = GcnModel::new(FEAT, HIDDEN, CLASSES, 4);
    let (logits, cost) = model.infer(&mut eng, &x);
    // Drive the SDDMM path too (GCN inference alone never runs it).
    let xh = init::uniform(n, HIDDEN, -1.0, 1.0, 5);
    let _ = eng.sddmm(&xh, &xh).expect("dims agree");
    Run {
        logits,
        cost_total_ms: cost.total_ms(),
        spmm_report: eng.last_spmm_report.clone(),
        sddmm_report: eng.last_sddmm_report.clone(),
    }
}

#[test]
fn eight_threads_bitwise_match_one_thread_everywhere() {
    for family in Family::ALL {
        for backend in Backend::all() {
            let seq = run(family, backend, 1);
            let par = run(family, backend, 8);
            let cell = format!("{}/{}", family.name(), backend.name());
            assert_eq!(
                seq.logits.as_slice(),
                par.logits.as_slice(),
                "logits diverged in {cell}"
            );
            assert_eq!(
                seq.cost_total_ms.to_bits(),
                par.cost_total_ms.to_bits(),
                "cost total diverged in {cell}: {} vs {}",
                seq.cost_total_ms,
                par.cost_total_ms
            );
            // KernelReport includes the raw KernelStats counters, the
            // derived time/cycles, and the cache hit rates — all of which
            // must survive the parallel L1/L2 split unchanged.
            assert_eq!(
                seq.spmm_report, par.spmm_report,
                "SpMM kernel report diverged in {cell}"
            );
            assert_eq!(
                seq.sddmm_report, par.sddmm_report,
                "SDDMM kernel report diverged in {cell}"
            );
        }
    }
}

/// Chaos case: an ECC fault landing in a TCU-dispatched window of a hybrid
/// launch degrades only that window to the CUDA-core body via the existing
/// retry path — and the whole recovery (output bits, fault accounting,
/// per-window degrade counter) is identical at 8 threads and 1.
#[test]
fn hybrid_ecc_window_degrade_is_thread_count_invariant() {
    use tc_gnn::fault::{FaultConfig, FaultPlan};

    let run = |threads: usize| {
        let g = Family::PowerLaw.generate(7);
        let n = g.num_nodes();
        let x = init::uniform(n, FEAT, -1.0, 1.0, 3);
        let mut eng = Engine::builder(g)
            .backend(Backend::Hybrid)
            .threads(threads)
            .build()
            .expect("adversarial graphs are symmetric");
        let profiler = tc_gnn::profile::shared("hybrid-chaos");
        eng.attach_profiler(profiler.clone());
        eng.attach_fault_plan(FaultPlan::new(
            5,
            FaultConfig {
                ecc_rate: 1.0,
                ..FaultConfig::none()
            },
        ));
        let (out, _) = eng.spmm(&x, None).expect("dims agree");
        let report = eng.fault_report();
        let window_degrades = profiler
            .read()
            .unwrap()
            .named_counter("tcg_hybrid_window_degrades_total");
        (out, report.degraded, report.ecc_flips, window_degrades)
    };

    let (out_seq, degraded_seq, flips_seq, windows_seq) = run(1);
    let (out_par, degraded_par, flips_par, windows_par) = run(8);

    assert!(flips_seq > 0, "the fault schedule never flipped a bit");
    assert!(
        windows_seq > 0,
        "the ECC flip never degraded a hybrid window"
    );
    assert!(out_seq.as_slice().iter().all(|v| v.is_finite()));
    assert_eq!(
        out_seq.as_slice(),
        out_par.as_slice(),
        "degraded hybrid output diverged across thread counts"
    );
    assert_eq!(
        (degraded_seq, flips_seq, windows_seq),
        (degraded_par, flips_par, windows_par),
        "fault accounting diverged across thread counts"
    );
}

#[test]
fn thread_count_is_plumbed_through_the_builder() {
    let g = Family::PowerLaw.generate(11);
    let eng = Engine::builder(g).threads(8).build().unwrap();
    assert_eq!(eng.threads(), 8);
    let g = Family::PowerLaw.generate(11);
    let eng = Engine::builder(g).build().unwrap();
    // No explicit setting → the builder falls back to TCG_THREADS (which
    // resolves to 1 when unset, e.g. in a plain `cargo test` run).
    assert_eq!(eng.threads(), tc_gnn::gpusim::threads_from_env().max(1));
}

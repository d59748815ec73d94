//! Integration tests for the tcg-profile tracing layer: the trace must
//! reconcile exactly with the trainer's cost model, exports must be
//! deterministic and schema-valid, and the nsight-style table must carry
//! the hardware counters for both kernel families.

use tc_gnn::gnn::{train_gcn, Backend, Engine, TrainConfig};
use tc_gnn::gpusim::DeviceSpec;
use tc_gnn::graph::datasets::{DatasetSpec, GraphClass};
use tc_gnn::graph::Dataset;
use tc_gnn::profile::{
    chrome_trace_json, metrics_json, nsight_table, shared, Phase, SharedProfiler,
};

fn tiny_dataset() -> Dataset {
    DatasetSpec {
        name: "profiling-test",
        class: GraphClass::TypeI,
        num_nodes: 300,
        num_edges: 2400,
        feat_dim: 32,
        num_classes: 4,
    }
    .materialize(7)
    .expect("synthetic dataset")
}

/// Two-epoch GCN run with a profiler attached; returns the profiler and
/// the train result.
fn profiled_gcn(backend: Backend) -> (SharedProfiler, tc_gnn::gnn::TrainResult) {
    let ds = tiny_dataset();
    let mut eng = Engine::builder(ds.graph.clone())
        .backend(backend)
        .device(DeviceSpec::rtx3090())
        .build()
        .expect("graph is symmetric");
    let profiler = shared(backend.name());
    eng.attach_profiler(profiler.clone());
    let result = train_gcn(&mut eng, &ds, TrainConfig::gcn_paper().with_epochs(2));
    (profiler, result)
}

#[test]
fn trace_reconciles_with_cost_model_on_all_backends() {
    for backend in Backend::all() {
        let (profiler, result) = profiled_gcn(backend);
        let p = profiler.read().unwrap();

        // Every millisecond the cost model charged must appear as exactly
        // one event, so per-phase sums reconcile to FP tolerance.
        let total = result
            .epochs
            .iter()
            .fold(tc_gnn::gnn::Cost::default(), |acc, e| acc + e.cost);
        let tol = 1e-9;
        let agg = p.phase_total_ms(Phase::Aggregation);
        assert!(
            (agg - total.aggregation_ms).abs() <= tol * total.aggregation_ms.max(1.0),
            "{backend:?}: aggregation events {agg} vs cost {}",
            total.aggregation_ms
        );
        let upd = p.phase_total_ms(Phase::Update);
        assert!(
            (upd - total.update_ms).abs() <= tol * total.update_ms.max(1.0),
            "{backend:?}: update events {upd} vs cost {}",
            total.update_ms
        );
        let oth = p.phase_total_ms(Phase::Other);
        assert!(
            (oth - total.other_ms).abs() <= tol * total.other_ms.max(1.0),
            "{backend:?}: other events {oth} vs cost {}",
            total.other_ms
        );

        // The host track carries exactly the preprocessing (SGT) cost.
        assert_eq!(p.phase_total_ms(Phase::Host), result.preprocessing_ms);

        // Per-epoch rollups reconcile against each EpochStats.
        assert_eq!(p.rollups().len(), result.epochs.len());
        for (rollup, stats) in p.rollups().iter().zip(&result.epochs) {
            assert!(
                (rollup.aggregation_ms - stats.cost.aggregation_ms).abs()
                    <= tol * stats.cost.aggregation_ms.max(1.0),
                "{backend:?} epoch {}: rollup {} vs cost {}",
                rollup.epoch,
                rollup.aggregation_ms,
                stats.cost.aggregation_ms
            );
            assert!(
                (rollup.total_ms() - stats.cost.total_ms()).abs()
                    <= tol * stats.cost.total_ms().max(1.0)
            );
        }
    }
}

#[test]
fn chrome_trace_sum_matches_aggregation_cost() {
    // Acceptance check: summed aggregation-phase durations in the exported
    // Chrome trace equal the TrainResult's aggregation cost.
    let (profiler, result) = profiled_gcn(Backend::TcGnn);
    let p = profiler.read().unwrap();
    let v: serde_json::Value =
        serde_json::from_str(&chrome_trace_json(&p)).expect("trace is valid JSON");
    let events = v
        .get("traceEvents")
        .expect("traceEvents key")
        .as_array()
        .expect("traceEvents is an array");
    let mut agg_us = 0.0;
    for e in events {
        if e.get("ph").and_then(serde_json::Value::as_str) == Some("X")
            && e.get("cat").and_then(serde_json::Value::as_str) == Some("aggregation")
        {
            agg_us += e.get("dur").unwrap().as_f64().unwrap();
        }
    }
    let expect_ms: f64 = result.epochs.iter().map(|e| e.cost.aggregation_ms).sum();
    assert!(
        (agg_us / 1000.0 - expect_ms).abs() <= 1e-9 * expect_ms.max(1.0),
        "trace {} ms vs cost {} ms",
        agg_us / 1000.0,
        expect_ms
    );
}

#[test]
fn chrome_trace_export_is_deterministic_and_schema_valid() {
    let (p1, _) = profiled_gcn(Backend::TcGnn);
    let (p2, _) = profiled_gcn(Backend::TcGnn);
    let json1 = chrome_trace_json(&p1.read().unwrap());
    let json2 = chrome_trace_json(&p2.read().unwrap());
    // Byte-identical across identical runs (the golden-file property; the
    // simulation is deterministic and the export carries no wall-clock).
    assert_eq!(json1, json2);
    let m1 = metrics_json(&p1.read().unwrap());
    let m2 = metrics_json(&p2.read().unwrap());
    assert_eq!(m1, m2);

    // Schema: parseable, with the Chrome-trace required fields.
    let v: serde_json::Value = serde_json::from_str(&json1).expect("valid JSON");
    assert_eq!(
        v.get("displayTimeUnit").and_then(serde_json::Value::as_str),
        Some("ms")
    );
    let events = v.get("traceEvents").unwrap().as_array().unwrap();
    assert!(!events.is_empty());
    let mut saw_metadata = false;
    let mut saw_complete = false;
    let mut prev_end = 0.0f64;
    for e in events {
        let ph = e.get("ph").and_then(serde_json::Value::as_str).unwrap();
        assert!(e.get("pid").is_some());
        assert!(e.get("name").is_some());
        match ph {
            "M" => saw_metadata = true,
            "X" => {
                saw_complete = true;
                let ts = e.get("ts").unwrap().as_f64().unwrap();
                let dur = e.get("dur").unwrap().as_f64().unwrap();
                let tid = e.get("tid").unwrap().as_f64().unwrap();
                assert!((1.0..=4.0).contains(&tid), "tid {tid} out of track range");
                assert!(dur >= 0.0);
                // Serial stream: events are laid end-to-end on one clock.
                assert!(
                    (ts - prev_end).abs() < 1e-9,
                    "event not contiguous: ts {ts} vs {prev_end}"
                );
                prev_end = ts + dur;
            }
            other => panic!("unexpected event type {other}"),
        }
    }
    assert!(saw_metadata && saw_complete);
}

#[test]
fn nsight_table_reports_hardware_counters_for_both_kernel_families() {
    // TC-GNN: the SpMM rows must show tensor-core MMA traffic.
    let (p_tc, _) = profiled_gcn(Backend::TcGnn);
    let p = p_tc.read().unwrap();
    let table = nsight_table(&p);
    for col in ["DRAM rd", "DRAM wr", "Shm txn", "TCU MMA", "Launches"] {
        assert!(table.contains(col), "missing column {col}:\n{table}");
    }
    assert!(table.contains("aggregation/spmm"));
    assert!(table.contains("update/gemm_xw"));
    assert!(table.contains("host/sgt_preprocess"));
    use tc_gnn::profile::MetricsRegistry;
    // The TCU and shared-memory counters are only nonzero for the
    // tensor-core kernel — the cuSPARSE-class CUDA-core kernel genuinely
    // uses neither, and the table must still report the columns.
    let assert_counters = |reg: &MetricsRegistry, tcu: bool, label: &str| {
        let key = "aggregation/spmm";
        assert!(
            reg.counter(key, "dram_read_bytes") > 0,
            "{label}: no DRAM reads"
        );
        assert_eq!(
            reg.counter(key, "shared_transactions") > 0,
            tcu,
            "{label}: shared_transactions"
        );
        assert_eq!(
            reg.counter(key, "tcu_mma_instructions") > 0,
            tcu,
            "{label}: tcu_mma_instructions"
        );
    };
    assert_counters(p.registry(), true, "TC-GNN");

    // cuSPARSE-class (DGL): same columns, CUDA-core kernel → no MMAs.
    let (p_dgl, _) = profiled_gcn(Backend::DglLike);
    let p = p_dgl.read().unwrap();
    let table = nsight_table(&p);
    assert!(table.contains("aggregation/spmm"));
    assert_counters(p.registry(), false, "DGL");
}

#[test]
fn hotspot_phase_totals_reconcile_with_window_attributions() {
    // The host-side hotspot profiler adds every scope's elapsed
    // nanoseconds to its phase total AND to its block's accumulator in
    // the same thread-local sheet, so the two sums must be
    // *exactly* equal — the host-time mirror of the trace↔cost invariant
    // above. The accumulator is process-global; the invariant survives
    // concurrent tests because sheets flush phase and window time
    // together, never one without the other.
    use tc_gnn::gpusim::hotspot;

    hotspot::set_enabled(true);
    let _ = hotspot::take_report(); // drain anything a previous test left
    let ds = tiny_dataset();
    let mut eng = Engine::builder(ds.graph.clone())
        .backend(Backend::TcGnn)
        .device(DeviceSpec::rtx3090())
        .build()
        .expect("graph is symmetric");
    let _ = train_gcn(&mut eng, &ds, TrainConfig::gcn_paper().with_epochs(1));
    hotspot::set_enabled(false);
    let report = hotspot::take_report();

    assert!(!report.is_empty(), "profiled run produced no samples");
    assert_eq!(
        report.total_phase_ns(),
        report.total_window_ns(),
        "per-phase host ns must reconcile exactly with per-window host ns"
    );
    // The ranked table is built from the same totals.
    let ranked_total: u64 = report.ranked_phases().iter().map(|(_, ns, _)| ns).sum();
    assert_eq!(ranked_total, report.total_phase_ns());
    // Each block's attribution carries the simulated time the cost model
    // charged it next to its host time.
    assert!(!report.windows.is_empty(), "no per-window attributions");
    assert!(
        report.windows.values().any(|w| w.sim_ns > 0.0),
        "windows carry no simulated time"
    );
    let table = tc_gnn::profile::hotspot_table(&report);
    assert!(
        table.contains("(OK)"),
        "table must report reconciliation:\n{table}"
    );
}

#[test]
fn detached_engine_records_nothing() {
    let ds = tiny_dataset();
    let mut eng = Engine::builder(ds.graph.clone())
        .backend(Backend::TcGnn)
        .device(DeviceSpec::rtx3090())
        .build()
        .expect("graph is symmetric");
    assert!(eng.profiler().is_none());
    let r = train_gcn(&mut eng, &ds, TrainConfig::gcn_paper().with_epochs(1));
    assert!(r.avg_epoch_ms() > 0.0);
    assert!(eng.profiler().is_none());
}

#[test]
fn engine_retains_reports_for_spmm_and_sddmm() {
    // Satellite regression: the engine must keep the most recent report
    // for SDDMM (and fused attention), not only SpMM.
    let ds = tiny_dataset();
    let mut eng = Engine::builder(ds.graph.clone())
        .backend(Backend::TcGnn)
        .device(DeviceSpec::rtx3090())
        .build()
        .expect("graph is symmetric");
    assert!(eng.last_spmm_report.is_none());
    assert!(eng.last_sddmm_report.is_none());
    assert!(eng.last_fused_report.is_none());
    let x = tc_gnn::tensor::init::uniform(300, 16, -1.0, 1.0, 5);
    eng.spmm(&x, None).unwrap();
    assert!(eng.last_spmm_report.is_some());
    eng.sddmm(&x, &x).unwrap();
    assert!(eng.last_sddmm_report.is_some());
    eng.fused_attention(&x, &x, 1.0).unwrap();
    assert!(eng.last_fused_report.is_some());
}

//! `BENCH_hybrid` — per-window hybrid dispatch vs the pure kernels.
//!
//! For every adversarial oracle family and every fig7b (TABLE4) dataset,
//! translates the graph once and prices SpMM and SDDMM three ways under
//! the `tcg_gpusim` cost model:
//!
//! - pure TCU: every row window on the tensor-core kernel;
//! - pure CUDA-core: every row window on the scalar fallback;
//! - hybrid: each window on whichever kernel the fitted dispatch policy
//!   picks (`DispatchPolicy::from_env`, defaulting to the `tcgnn tune`
//!   thresholds baked into `tcg_kernels::hybrid`).
//!
//! The gate asserts, per graph and per kernel class, that the hybrid
//! launch is predicted no slower than the best pure backend — the whole
//! point of dispatching per window instead of per graph. Emits
//! `results/BENCH_hybrid.json` with the fitted thresholds stamped into
//! `_meta`; the perf sentinel baselines it from `results/baselines/`.
//!
//! `--check` skips the workload and runs only the sentinel over the
//! committed `BENCH_hybrid` baselines.

use serde::Value;
use tcg_bench::{load_dataset, print_table, save_json, sentinel};
use tcg_graph::datasets::TABLE4;
use tcg_graph::CsrGraph;
use tcg_kernels::hybrid::{
    predict_cycles, DispatchPolicy, KernelClass, WindowBackend, WindowGeometry,
};
use tcg_oracle::Family;

const DIM: usize = 16;
/// Seed for the adversarial-family graphs (matches `tcgnn verify`).
const FAMILY_SEED: u64 = 2023;
/// Relative headroom on the per-graph gate. The fitted thresholds keep
/// regret at (SpMM) or near (SDDMM) zero on this suite; the slack only
/// absorbs floating-point summation order, not real regressions.
const GATE_SLACK: f64 = 1e-6;

/// One kernel class priced three ways over a translated graph.
struct ClassResult {
    tcu_cycles: f64,
    cuda_cycles: f64,
    hybrid_cycles: f64,
    windows_tcu: usize,
    windows_cuda: usize,
}

impl ClassResult {
    fn best_pure(&self) -> f64 {
        self.tcu_cycles.min(self.cuda_cycles)
    }

    /// `>= 1.0` means hybrid wins (or ties) the best pure backend.
    fn speedup_vs_best(&self) -> f64 {
        if self.hybrid_cycles <= f64::EPSILON {
            return 1.0; // zero-edge graph: nothing to run either way
        }
        self.best_pure() / self.hybrid_cycles
    }
}

fn sweep(
    device: &tcg_gpusim::DeviceSpec,
    t: &tcg_sgt::TranslatedGraph,
    csr: &CsrGraph,
    class: KernelClass,
    policy: DispatchPolicy,
) -> ClassResult {
    let mut r = ClassResult {
        tcu_cycles: 0.0,
        cuda_cycles: 0.0,
        hybrid_cycles: 0.0,
        windows_tcu: 0,
        windows_cuda: 0,
    };
    for w in 0..t.num_row_windows {
        let geom = WindowGeometry::from_translation(t, csr, w);
        let tcu = predict_cycles(device, &geom, DIM, class, WindowBackend::Tcu);
        let cuda = predict_cycles(device, &geom, DIM, class, WindowBackend::CudaCore);
        r.tcu_cycles += tcu;
        r.cuda_cycles += cuda;
        match policy.decide(&geom, DIM) {
            WindowBackend::Tcu => {
                r.hybrid_cycles += tcu;
                r.windows_tcu += 1;
            }
            WindowBackend::CudaCore => {
                r.hybrid_cycles += cuda;
                r.windows_cuda += 1;
            }
            WindowBackend::Skip => unreachable!("the policy computes every window"),
        }
    }
    r
}

fn class_value(r: &ClassResult) -> Value {
    Value::Object(vec![
        ("tcu_cycles".into(), Value::Float(r.tcu_cycles)),
        ("cuda_cycles".into(), Value::Float(r.cuda_cycles)),
        ("hybrid_cycles".into(), Value::Float(r.hybrid_cycles)),
        ("windows_tcu".into(), Value::UInt(r.windows_tcu as u128)),
        ("windows_cuda".into(), Value::UInt(r.windows_cuda as u128)),
        ("speedup_vs_best".into(), Value::Float(r.speedup_vs_best())),
    ])
}

fn summary_value(rs: &[&ClassResult]) -> Value {
    let geomean = (rs
        .iter()
        .map(|r| r.speedup_vs_best().max(f64::EPSILON).ln())
        .sum::<f64>()
        / rs.len() as f64)
        .exp();
    let min_speedup = rs
        .iter()
        .map(|r| r.speedup_vs_best())
        .fold(f64::INFINITY, f64::min);
    let hybrid_m: f64 = rs.iter().map(|r| r.hybrid_cycles).sum::<f64>() / 1e6;
    let best_m: f64 = rs.iter().map(|r| r.best_pure()).sum::<f64>() / 1e6;
    Value::Object(vec![
        ("geomean_speedup_vs_best".into(), Value::Float(geomean)),
        ("min_speedup_vs_best".into(), Value::Float(min_speedup)),
        ("hybrid_mcycles".into(), Value::Float(hybrid_m)),
        ("best_pure_mcycles".into(), Value::Float(best_m)),
    ])
}

fn main() {
    if std::env::args().any(|a| a == "--check") {
        let baselines = std::path::Path::new("results").join("baselines");
        let fresh = tcg_bench::results_dir();
        let specs: Vec<_> = sentinel::default_specs()
            .into_iter()
            .filter(|s| s.file == "BENCH_hybrid")
            .collect();
        let rows = sentinel::check(&baselines, &fresh, &specs);
        print!("{}", sentinel::render_table(&rows));
        if sentinel::worst(&rows) == sentinel::Severity::Fail {
            std::process::exit(1);
        }
        return;
    }

    let threads = tcg_gpusim::threads_from_env();
    let device = tcg_bench::device();
    let spmm_policy = DispatchPolicy::from_env(KernelClass::Spmm);
    let sddmm_policy = DispatchPolicy::from_env(KernelClass::Sddmm);
    eprintln!(
        "BENCH_hybrid: {} adversarial families + {} fig7b datasets, dim {DIM}, {}, \
         thresholds spmm {:+.4} / sddmm {:+.4}, {} threads",
        Family::ALL.len(),
        TABLE4.len(),
        device.name,
        spmm_policy.threshold,
        sddmm_policy.threshold,
        threads
    );

    // (label, graph) over both suites the gate covers.
    let mut graphs: Vec<(String, CsrGraph)> = Family::ALL
        .iter()
        .map(|f| (format!("adv/{}", f.name()), f.generate(FAMILY_SEED)))
        .collect();
    for spec in TABLE4.iter() {
        graphs.push((format!("fig7b/{}", spec.name), load_dataset(spec).graph));
    }

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut graph_values: Vec<Value> = Vec::new();
    let mut spmm_results: Vec<ClassResult> = Vec::new();
    let mut sddmm_results: Vec<ClassResult> = Vec::new();
    for (label, g) in &graphs {
        let t = tcg_sgt::Sgt::builder()
            .threads(threads)
            .translate(g)
            .expect("default SGT geometry is valid");
        let spmm = sweep(&device, &t, g, KernelClass::Spmm, spmm_policy);
        let sddmm = sweep(&device, &t, g, KernelClass::Sddmm, sddmm_policy);
        rows.push(vec![
            label.clone(),
            format!("{}", t.num_row_windows),
            format!("{}T/{}c", spmm.windows_tcu, spmm.windows_cuda),
            format!("{:.4}x", spmm.speedup_vs_best()),
            format!("{}T/{}c", sddmm.windows_tcu, sddmm.windows_cuda),
            format!("{:.4}x", sddmm.speedup_vs_best()),
        ]);
        graph_values.push(Value::Object(vec![
            ("graph".into(), Value::Str(label.clone())),
            ("nodes".into(), Value::UInt(g.num_nodes() as u128)),
            ("edges".into(), Value::UInt(g.num_edges() as u128)),
            ("windows".into(), Value::UInt(t.num_row_windows as u128)),
            ("spmm".into(), class_value(&spmm)),
            ("sddmm".into(), class_value(&sddmm)),
        ]));
        spmm_results.push(spmm);
        sddmm_results.push(sddmm);
    }
    print_table(
        &[
            "graph",
            "windows",
            "spmm T/c",
            "spmm vs best",
            "sddmm T/c",
            "sddmm vs best",
        ],
        &rows,
    );

    let spmm_refs: Vec<&ClassResult> = spmm_results.iter().collect();
    let sddmm_refs: Vec<&ClassResult> = sddmm_results.iter().collect();
    let meta = match tcg_bench::run_meta() {
        Value::Object(mut fields) => {
            // Satellite of the tune mode: the thresholds the numbers were
            // produced under travel with the result file.
            fields.push((
                "hybrid_thresholds".into(),
                Value::Object(vec![
                    ("spmm".into(), Value::Float(spmm_policy.threshold)),
                    ("sddmm".into(), Value::Float(sddmm_policy.threshold)),
                ]),
            ));
            Value::Object(fields)
        }
        other => other,
    };
    let value = Value::Object(vec![
        ("_meta".into(), meta),
        ("device".into(), Value::Str(device.name.to_string())),
        ("dim".into(), Value::UInt(DIM as u128)),
        ("spmm".into(), summary_value(&spmm_refs)),
        ("sddmm".into(), summary_value(&sddmm_refs)),
        ("graphs".into(), Value::Array(graph_values)),
    ]);
    save_json("BENCH_hybrid", &value);

    // The gate: on every graph of both suites, for both kernel classes,
    // the mixed launch must be predicted at least as fast as the better
    // pure backend.
    let mut worst: (f64, String) = (f64::INFINITY, String::new());
    for (i, (label, _)) in graphs.iter().enumerate() {
        for (class, r) in [("spmm", &spmm_results[i]), ("sddmm", &sddmm_results[i])] {
            let s = r.speedup_vs_best();
            if s < worst.0 {
                worst = (s, format!("{label} {class}"));
            }
            assert!(
                r.hybrid_cycles <= r.best_pure() * (1.0 + GATE_SLACK),
                "{label} {class}: hybrid predicted {:.0} cycles vs best pure {:.0} \
                 ({:.4}x) — per-window dispatch must not lose to a pure backend",
                r.hybrid_cycles,
                r.best_pure(),
                s
            );
        }
    }
    println!(
        "hybrid >= best pure backend on all {} graphs x 2 kernel classes \
         (tightest margin {:.4}x at {})",
        graphs.len(),
        worst.0,
        worst.1
    );
}

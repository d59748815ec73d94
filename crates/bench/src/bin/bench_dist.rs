//! `BENCH_dist` — multi-device sharded execution scaling curve.
//!
//! Runs the same 2-layer GCN forward over a seeded ~1M-node power-law
//! graph on engines of 1, 2, 4, and 8 simulated devices (greedy edge-cut
//! partitioner, NVLink-class A100 interconnect) and reports:
//!
//! - the scaling curve: distributed makespan + speedup vs the 1-device
//!   run, per-device compute/comm busy time;
//! - halo-traffic accounting, reconciled exactly against the interconnect
//!   model's priced bytes;
//! - the greedy-vs-contiguous cut comparison at 4 devices;
//! - a bitwise gate: the 4-device logits must equal the 1-device logits
//!   (`as_slice()` equality — sharding is an execution strategy, not an
//!   approximation).
//!
//! Emits `results/BENCH_dist.json` plus the 4-device run's Perfetto trace
//! (`results/dist.trace.json`) whose `devN/stream-K` tracks show each
//! device's compute and halo-exchange timelines.
//!
//! `--check` skips the workload and runs only the perf sentinel over the
//! committed `BENCH_dist` baselines.

use serde::Value;
use tcg_bench::{print_table, save_json, save_profile_artifacts, sentinel};
use tcg_dist::{DistReport, Partitioner};
use tcg_gnn::{Backend, Engine, GcnModel, TrainableModel};
use tcg_gpusim::DeviceSpec;
use tcg_graph::{synth, CsrGraph};
use tcg_tensor::{init, DenseMatrix};

const GRAPH_SEED: u64 = 20230710;
const NUM_NODES: usize = 1_050_000;
const AVG_DEGREE: usize = 6;
const IN_DIM: usize = 64;
const HIDDEN: usize = 16;
const CLASSES: usize = 8;
const DEVICE_CURVE: [usize; 4] = [1, 2, 4, 8];
/// The gate: sharding across 4 NVLink-connected devices must recoup at
/// least this much of the single-device makespan.
const MIN_SPEEDUP_4DEV: f64 = 1.5;

fn report_row(devices: usize, rep: &DistReport, speedup: f64) -> Vec<String> {
    vec![
        format!("{devices}"),
        format!("{:.3}", rep.makespan_ms),
        format!("{speedup:.2}x"),
        format!("{:.3}", rep.total_compute_busy_ms()),
        format!("{:.3}", rep.transfer_ms),
        format!("{:.2}", rep.total_halo_bytes() as f64 / 1e6),
        format!("{}", rep.cut_edges),
    ]
}

fn report_value(rep: &DistReport, speedup: f64) -> Value {
    Value::Object(vec![
        ("devices".into(), Value::UInt(rep.devices as u128)),
        ("partitioner".into(), Value::Str(rep.partitioner.into())),
        ("makespan_ms".into(), Value::Float(rep.makespan_ms)),
        ("speedup".into(), Value::Float(speedup)),
        (
            "compute_busy_ms".into(),
            Value::Float(rep.total_compute_busy_ms()),
        ),
        ("transfer_ms".into(), Value::Float(rep.transfer_ms)),
        (
            "halo_bytes".into(),
            Value::UInt(rep.total_halo_bytes() as u128),
        ),
        (
            "halo_rows".into(),
            Value::Array(
                rep.halo_rows
                    .iter()
                    .map(|&r| Value::UInt(r as u128))
                    .collect(),
            ),
        ),
        ("cut_edges".into(), Value::UInt(rep.cut_edges as u128)),
        (
            "shard_nnz".into(),
            Value::Array(
                rep.shard_nnz
                    .iter()
                    .map(|&n| Value::UInt(n as u128))
                    .collect(),
            ),
        ),
    ])
}

/// One GCN forward on an engine of `devices` copies of `device`: the
/// logits and the run's report. A one-device engine has no shards, so its
/// row is the plain forward: makespan = the forward's cost, no halo, no cut.
fn forward(
    g: &CsrGraph,
    device: &DeviceSpec,
    devices: usize,
    partitioner: Partitioner,
    (model, x): (&GcnModel, &DenseMatrix),
) -> (DenseMatrix, DistReport) {
    let mut eng = Engine::builder(g.clone())
        .backend(Backend::TcGnn)
        .device(device.clone())
        .devices(devices)
        .partitioner(partitioner)
        .build()
        .expect("generator graphs are symmetric");
    let (logits, cost) = model.infer(&mut eng, x);
    let rep = eng.take_dist_report().unwrap_or_else(|| DistReport {
        devices: 1,
        partitioner: partitioner.name(),
        makespan_ms: cost.total_ms(),
        compute_busy_ms: vec![cost.total_ms()],
        halo_rows: vec![0],
        halo_bytes: vec![0],
        shard_nnz: vec![g.num_edges()],
        ..DistReport::default()
    });
    (logits, rep)
}

fn main() {
    if std::env::args().any(|a| a == "--check") {
        let baselines = std::path::Path::new("results").join("baselines");
        let fresh = tcg_bench::results_dir();
        let specs: Vec<_> = sentinel::default_specs()
            .into_iter()
            .filter(|s| s.file == "BENCH_dist")
            .collect();
        let rows = sentinel::check(&baselines, &fresh, &specs);
        print!("{}", sentinel::render_table(&rows));
        if sentinel::worst(&rows) == sentinel::Severity::Fail {
            std::process::exit(1);
        }
        return;
    }

    let threads = tcg_gpusim::threads_from_env();
    let device = DeviceSpec::a100();
    eprintln!(
        "BENCH_dist: power_law(seed={GRAPH_SEED}, n={NUM_NODES}, deg={AVG_DEGREE}), \
         GCN {IN_DIM}->{HIDDEN}->{CLASSES}, {} over {}, {} threads",
        device.name, device.link_name, threads
    );
    let g = synth::power_law(GRAPH_SEED, NUM_NODES, AVG_DEGREE).expect("generator");
    eprintln!(
        "  graph: {} nodes, {} directed edges",
        g.num_nodes(),
        g.num_edges()
    );
    let model = GcnModel::new(IN_DIM, HIDDEN, CLASSES, 3);
    let x = init::uniform(g.num_nodes(), IN_DIM, -1.0, 1.0, 5);

    // Scaling curve under the greedy edge-cut partitioner. The 1-device
    // point is the speedup baseline: same kernels, no halo exchange.
    let mut curve: Vec<(usize, DistReport)> = Vec::new();
    let mut logits_1dev = None;
    let mut logits_4dev = None;
    let profiler = tcg_profile::shared("tcgnn-dist");
    for devices in DEVICE_CURVE {
        let (logits, rep) = forward(
            &g,
            &device,
            devices,
            Partitioner::GreedyEdgeCut,
            (&model, &x),
        );
        assert_eq!(
            rep.transfer_bytes_priced,
            rep.total_halo_bytes(),
            "interconnect model priced bytes must reconcile with halo accounting"
        );
        if devices == 4 {
            // Per-device Perfetto tracks (`dev1`..`dev4`) of the 4-device
            // forward.
            let mut p = profiler.write().expect("profiler lock");
            p.record_device_timelines(&rep.timelines, 0.0, 0);
        }
        match devices {
            1 => logits_1dev = Some(logits),
            4 => logits_4dev = Some(logits),
            _ => {}
        }
        eprintln!(
            "  {} devices: makespan {:.3} ms, halo {:.2} MB, transfer {:.3} ms",
            devices,
            rep.makespan_ms,
            rep.total_halo_bytes() as f64 / 1e6,
            rep.transfer_ms
        );
        curve.push((devices, rep));
    }
    save_profile_artifacts(&profiler, "dist");

    // Bitwise gate: sharded execution is exact, not approximate.
    let (l1, l4) = (logits_1dev.unwrap(), logits_4dev.unwrap());
    assert_eq!(
        l1.as_slice(),
        l4.as_slice(),
        "4-device logits diverged bitwise from single-device"
    );

    // Contiguous-vs-greedy cut comparison at 4 devices (same forward).
    let (lc, contig_rep) = forward(&g, &device, 4, Partitioner::Contiguous, (&model, &x));
    assert_eq!(
        l1.as_slice(),
        lc.as_slice(),
        "contiguous 4-device logits diverged bitwise from single-device"
    );

    let base_ms = curve[0].1.makespan_ms;
    let speedup_of = |rep: &DistReport| base_ms / rep.makespan_ms.max(f64::EPSILON);
    let rows: Vec<Vec<String>> = curve
        .iter()
        .map(|(d, rep)| report_row(*d, rep, speedup_of(rep)))
        .collect();
    print_table(
        &[
            "devices",
            "makespan ms",
            "speedup",
            "compute ms",
            "comm ms",
            "halo MB",
            "cut edges",
        ],
        &rows,
    );
    let rep4 = &curve.iter().find(|(d, _)| *d == 4).unwrap().1;
    let rep8 = &curve.iter().find(|(d, _)| *d == 8).unwrap().1;
    let speedup_4dev = speedup_of(rep4);
    let speedup_8dev = speedup_of(rep8);
    println!(
        "greedy vs contiguous at 4 devices: {} vs {} cut edges ({:.2} MB vs {:.2} MB halo)",
        rep4.cut_edges,
        contig_rep.cut_edges,
        rep4.total_halo_bytes() as f64 / 1e6,
        contig_rep.total_halo_bytes() as f64 / 1e6,
    );
    println!("speedup at 4 devices: {speedup_4dev:.2}x (8 devices: {speedup_8dev:.2}x)");

    let value = Value::Object(vec![
        (
            "_meta".into(),
            tcg_bench::run_meta_dist(4, Partitioner::GreedyEdgeCut.name()),
        ),
        (
            "graph".into(),
            Value::Object(vec![
                ("generator".into(), Value::Str("power_law".into())),
                ("seed".into(), Value::UInt(GRAPH_SEED as u128)),
                ("nodes".into(), Value::UInt(g.num_nodes() as u128)),
                ("edges".into(), Value::UInt(g.num_edges() as u128)),
                ("avg_degree".into(), Value::UInt(AVG_DEGREE as u128)),
            ]),
        ),
        (
            "model".into(),
            Value::Object(vec![
                ("in_dim".into(), Value::UInt(IN_DIM as u128)),
                ("hidden".into(), Value::UInt(HIDDEN as u128)),
                ("classes".into(), Value::UInt(CLASSES as u128)),
            ]),
        ),
        ("device".into(), Value::Str(device.name.to_string())),
        ("link".into(), Value::Str(device.link_name.to_string())),
        (
            "curve".into(),
            Value::Array(
                curve
                    .iter()
                    .map(|(_, rep)| report_value(rep, speedup_of(rep)))
                    .collect(),
            ),
        ),
        (
            "contiguous_4dev".into(),
            report_value(&contig_rep, speedup_of(&contig_rep)),
        ),
        ("speedup_4dev".into(), Value::Float(speedup_4dev)),
        ("speedup_8dev".into(), Value::Float(speedup_8dev)),
        (
            "halo_gb_4dev".into(),
            Value::Float(rep4.total_halo_bytes() as f64 / 1e9),
        ),
        ("bitwise_match".into(), Value::Bool(true)),
    ]);
    save_json("BENCH_dist", &value);

    assert!(
        speedup_4dev >= MIN_SPEEDUP_4DEV,
        "4-device sharding reached only {speedup_4dev:.2}x the single-device makespan \
         (need >= {MIN_SPEEDUP_4DEV}x)"
    );
}

//! `tcgnn` — command-line front end for the TC-GNN reproduction.
//!
//! ```text
//! tcgnn datasets                          list the Table 4 registry
//! tcgnn census    <GRAPH>                 SGT block census (Fig. 7a view)
//! tcgnn translate <GRAPH>                 run SGT, print translation stats
//! tcgnn spmm      <GRAPH> [--dim D]       compare all SpMM kernels
//! tcgnn train     <DATASET> [--model M] [--backend B] [--epochs N]
//! tcgnn eval      <DATASET> [--model M] [--backend B] [--epochs N]
//! tcgnn serve     <DATASET>[,<DATASET>...] [--model M] [--backend B]
//!                 [--requests N] [--rate RPS] [--streams S] [--max-batch B]
//!                 [--max-delay MS] [--cache-cap C] [--queue-cap Q]
//!                 [--deadline MS] [--seed S] [--metrics PATH]
//!                 [--devices N] [--partitioner contiguous|greedy]
//!                 [--churn N] [--churn-rate EPS] [--churn-batch B]
//!                 [--churn-seed S]
//! tcgnn top       <DATASET>[,<DATASET>...] [same flags as serve]
//! tcgnn profile   --hotspots [--datasets a,b,...] [--epochs N]
//! tcgnn bench     --check [--baselines DIR]
//! tcgnn verify    [--seed N] [--dim D] [--families f1,f2,...]
//!                 [--no-metamorphic]
//! tcgnn tune      [--dim D] [--seed N]
//! ```
//!
//! `<GRAPH>` is a dataset name from the registry (optionally with
//! `/scale`, e.g. `Pubmed/4`), a `.json` CSR snapshot, a `.mtx`
//! MatrixMarket file, or a SNAP-style edge-list text file.

use std::path::Path;
use std::process::ExitCode;

use tc_gnn::fault::FaultPlan;
use tc_gnn::gnn::{
    train_gcn, train_model_returning, AgnnModel, Backend, Engine, GcnModel, GinModel, SageModel,
    TrainConfig, TrainResult, TrainableModel,
};
use tc_gnn::gpusim::{DeviceSpec, Launcher};
use tc_gnn::graph::datasets::{spec_by_name, Dataset, TABLE4};
use tc_gnn::graph::{io, CsrGraph};
use tc_gnn::kernels::common::{SpmmKernel, SpmmProblem};
use tc_gnn::kernels::spmm::{
    CondensedEllSpmm, CusparseCsrSpmm, GeSpmm, ScatterGatherSpmm, TcgnnSpmm, TritonBlockSparseSpmm,
    TsparseLikeSpmm,
};
use tc_gnn::serve::ServableModel;

fn usage() -> ExitCode {
    eprintln!(
        "usage: tcgnn <command> [args]\n\
         commands:\n\
           datasets                         list the paper's dataset registry\n\
           census    <GRAPH>                TCU block census with/without SGT\n\
           translate <GRAPH>                run SGT and print translation stats\n\
           spmm      <GRAPH> [--dim D]      run every SpMM kernel on the graph\n\
           train     <DATASET> [--model gcn|sage|gin|agnn]\n\
                     [--backend dgl|pyg|tcgnn|hybrid] [--epochs N]\n\
           eval      <DATASET> [--model M] [--backend B] [--epochs N]\n\
                     train briefly, then run the inference-only forward\n\
                     (TCG_FAULT_RATE/TCG_FAULT_SEED inject chaos, as in serve)\n\
           serve     <DATASET>[,<DATASET>...] [--model M] [--backend B]\n\
                     [--requests N] [--rate RPS] [--streams S] [--max-batch B]\n\
                     [--max-delay MS] [--cache-cap C] [--queue-cap Q]\n\
                     [--deadline MS] [--seed S] [--metrics PATH]\n\
                     [--resilience] [--low-every N] [--critical-every N]\n\
                     [--devices N] [--partitioner contiguous|greedy]\n\
                     [--churn N] [--churn-rate EPS] [--churn-batch B]\n\
                     [--churn-seed S]\n\
                     --metrics writes Prometheus text-format RED metrics;\n\
                     --resilience enables deadline cancellation, circuit\n\
                     breakers, brownout shedding, and cache quarantine;\n\
                     --devices > 1 shards every batch across simulated\n\
                     devices with halo exchange, for every model, fault plan,\n\
                     resilience policy and churn (see DESIGN.md \u{00a7}14);\n\
                     --churn N interleaves N seeded edge-mutation events with\n\
                     the trace; touched 16-row windows retranslate in place,\n\
                     the rest reuse cached state (see DESIGN.md \u{00a7}16)\n\
           top       <DATASET>[,<DATASET>...] [same flags as serve]\n\
                     run the serve workload, render an ASCII dashboard\n\
           profile   --hotspots [--datasets a,b,...] [--epochs N]\n\
                     host-side hotspot profile of the fig7b training suite:\n\
                     each simulated block's body and L2 replay timed,\n\
                     ranked per-phase table + flamegraph-ready .folded file\n\
           bench     --check [--baselines DIR]\n\
                     compare results/ against committed baselines; nonzero\n\
                     exit on a regression past the fail threshold\n\
           verify    [--seed N] [--dim D] [--families f1,f2,...]\n\
                     [--no-metamorphic]\n\
                     run the kernel/backend conformance matrix against the\n\
                     golden oracle; nonzero exit on any divergence\n\
           tune      [--dim D] [--seed N]\n\
                     regress the hybrid per-window dispatch thresholds from\n\
                     cost-model sweeps over the adversarial families and the\n\
                     fig7b datasets; prints the fitted thresholds and the\n\
                     TCG_HYBRID_THRESHOLD_* exports that apply them\n\
         GRAPH: registry name (optionally name/scale), .json, .mtx, or edge-list path"
    );
    ExitCode::FAILURE
}

/// Resolves a graph argument: registry name (with optional `/scale`) or a
/// file path by extension.
fn load_graph(arg: &str) -> Result<CsrGraph, String> {
    let path = Path::new(arg);
    if path.exists() {
        let by_ext = path.extension().and_then(|e| e.to_str()).unwrap_or("");
        return match by_ext {
            "json" => io::load_csr(path).map_err(|e| e.to_string()),
            "mtx" => io::load_matrix_market(path).map_err(|e| e.to_string()),
            _ => io::load_edge_list(path, true).map_err(|e| e.to_string()),
        };
    }
    let (name, scale) = match arg.split_once('/') {
        Some((n, s)) => (
            n,
            s.parse::<usize>().map_err(|_| format!("bad scale: {s}"))?,
        ),
        None => (arg, 1),
    };
    let spec = spec_by_name(name).map_err(|e| e.to_string())?;
    Ok(spec
        .scaled(scale)
        .materialize(42)
        .map_err(|e| e.to_string())?
        .graph)
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn cmd_datasets() -> ExitCode {
    println!(
        "{:16} {:>5} {:>9} {:>9} {:>6} {:>8}",
        "name", "type", "nodes", "edges", "dim", "classes"
    );
    for s in TABLE4.iter() {
        println!(
            "{:16} {:>5} {:>9} {:>9} {:>6} {:>8}",
            s.name,
            s.class.to_string(),
            s.num_nodes,
            s.num_edges,
            s.feat_dim,
            s.num_classes
        );
    }
    ExitCode::SUCCESS
}

fn cmd_census(graph: &CsrGraph) -> ExitCode {
    let c = tc_gnn::sgt::census(graph);
    let cs = tc_gnn::sgt::census::census_sddmm(graph);
    println!("nodes: {}  edges: {}", graph.num_nodes(), graph.num_edges());
    println!(
        "SpMM  (16x8):  {} blocks without SGT, {} with ({:.1}% reduction)",
        c.blocks_without_sgt,
        c.blocks_with_sgt,
        c.reduction_pct()
    );
    println!(
        "SDDMM (16x16): {} blocks without SGT, {} with ({:.1}% reduction)",
        cs.blocks_without_sgt,
        cs.blocks_with_sgt,
        cs.reduction_pct()
    );
    ExitCode::SUCCESS
}

fn cmd_translate(graph: &CsrGraph) -> ExitCode {
    let (t, wall_ms) = tc_gnn::sgt::overhead::measure_ms(graph);
    println!("row windows:   {}", t.num_row_windows);
    println!("TCU blocks:    {}", t.total_tc_blocks());
    println!("SDDMM blocks:  {}", t.total_sddmm_blocks());
    println!("metadata:      {} KiB", t.memory_bytes() / 1024);
    println!("wall clock:    {wall_ms:.2} ms (this host)");
    println!(
        "modeled:       {:.2} ms (reference host)",
        tc_gnn::sgt::overhead::model_ms(graph)
    );
    ExitCode::SUCCESS
}

fn cmd_spmm(graph: &CsrGraph, dim: usize) -> ExitCode {
    let x = tc_gnn::tensor::init::uniform(graph.num_nodes(), dim, -1.0, 1.0, 7);
    let prob = match SpmmProblem::new(graph, None, &x) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let kernels: Vec<Box<dyn SpmmKernel>> = vec![
        Box::new(CusparseCsrSpmm),
        Box::new(GeSpmm),
        Box::new(ScatterGatherSpmm),
        Box::new(CondensedEllSpmm::new(graph)),
        Box::new(TsparseLikeSpmm::default()),
        Box::new(TritonBlockSparseSpmm),
        Box::new(TcgnnSpmm::new(graph)),
    ];
    println!(
        "{:21} {:>10} {:>18} {:>6} {:>7}",
        "kernel", "sim ms", "bound by", "occ", "L1 hit"
    );
    for k in kernels {
        let mut l = Launcher::new(DeviceSpec::rtx3090());
        match k.execute(&mut l, &prob) {
            Ok((_, r)) => println!(
                "{:21} {:>10.4} {:>18} {:>5.0}% {:>6.0}%",
                k.name(),
                r.time_ms,
                r.bound_by,
                100.0 * r.occupancy,
                100.0 * r.l1_hit_rate
            ),
            Err(e) => println!("{:21} failed: {e}", k.name()),
        }
    }
    ExitCode::SUCCESS
}

fn cmd_train(args: &[String]) -> ExitCode {
    let Some(name_arg) = args.first() else {
        return usage();
    };
    let (name, scale) = match name_arg.split_once('/') {
        Some((n, s)) => (n, s.parse::<usize>().unwrap_or(1)),
        None => (name_arg.as_str(), 1),
    };
    let spec = match spec_by_name(name) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e} (train needs a registry dataset for features/labels)");
            return ExitCode::FAILURE;
        }
    };
    let ds = spec
        .scaled(scale)
        .materialize(42)
        .expect("synthetic dataset");
    let model = flag_value(args, "--model").unwrap_or_else(|| "gcn".into());
    let backend = match parse_backend(args) {
        Ok(b) => b,
        Err(code) => return code,
    };
    let epochs: u32 = flag_value(args, "--epochs")
        .and_then(|v| v.parse().ok())
        .unwrap_or(10);

    let mut eng = paper_engine(&ds.graph, backend);
    // Chaos mode: TCG_FAULT_RATE (and optionally TCG_FAULT_SEED) attach a
    // deterministic fault-injection schedule to the run.
    let chaos = FaultPlan::from_env();
    if let Some(plan) = chaos.clone() {
        eprintln!(
            "fault injection enabled: seed {} rate {}",
            plan.seed(),
            plan.config().launch_rate
        );
        eng.attach_fault_plan(plan);
    }
    let result = match train_named(&model, &mut eng, &ds, epochs) {
        Ok((_, r)) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{} on {} ({} backend), {} epochs",
        model, spec.name, result.backend, epochs
    );
    for (i, e) in result.epochs.iter().enumerate() {
        println!(
            "  epoch {:>3}: loss {:.4}  train-acc {:.1}%  sim {:.3} ms",
            i + 1,
            e.loss,
            100.0 * e.train_accuracy,
            e.cost.total_ms()
        );
    }
    let c = result.avg_epoch_cost();
    println!(
        "avg epoch {:.3} ms (aggregation {:.3}, update {:.3}, other {:.3}); SGT {:.3} ms one-time",
        result.avg_epoch_ms(),
        c.aggregation_ms,
        c.update_ms,
        c.other_ms,
        result.preprocessing_ms
    );
    if chaos.is_some() {
        let r = &result.fault_report;
        println!(
            "faults: {} injected (launch {}, smem {}, oom {}, ecc {}); \
             {} retried, {} ops degraded, {} epochs rolled back",
            r.total_injected(),
            r.launch_failures,
            r.smem_overcommits,
            r.device_ooms,
            r.ecc_flips,
            r.retried,
            r.degraded,
            result.epochs_rolled_back
        );
    }
    ExitCode::SUCCESS
}

/// An engine for `graph` on `backend` and the paper's RTX 3090.
fn paper_engine(graph: &CsrGraph, backend: Backend) -> Engine {
    Engine::builder(graph.clone())
        .backend(backend)
        .device(DeviceSpec::rtx3090())
        .build()
        .expect("graph is symmetric")
}

/// Parses `--backend` (defaulting to the paper's TC-GNN backend).
fn parse_backend(args: &[String]) -> Result<Backend, ExitCode> {
    match flag_value(args, "--backend").as_deref() {
        None | Some("tcgnn") => Ok(Backend::TcGnn),
        Some("dgl") => Ok(Backend::DglLike),
        Some("pyg") => Ok(Backend::PygLike),
        Some("hybrid") => Ok(Backend::Hybrid),
        Some(other) => {
            eprintln!("unknown backend: {other}");
            Err(ExitCode::FAILURE)
        }
    }
}

/// Materializes a registry dataset argument (`name` or `name/scale`).
fn load_dataset_arg(arg: &str) -> Result<Dataset, String> {
    let (name, scale) = match arg.split_once('/') {
        Some((n, s)) => (
            n,
            s.parse::<usize>().map_err(|_| format!("bad scale: {s}"))?,
        ),
        None => (arg, 1),
    };
    let spec = spec_by_name(name).map_err(|e| e.to_string())?;
    spec.scaled(scale)
        .materialize(42)
        .map_err(|e| e.to_string())
}

/// Trains the architecture named `model` on `ds` at its paper config with
/// `epochs` epochs; returns it frozen for serving, with the run's result.
fn train_named(
    model: &str,
    eng: &mut Engine,
    ds: &Dataset,
    epochs: u32,
) -> Result<(ServableModel, TrainResult), String> {
    let cfg = if model == "agnn" {
        TrainConfig::agnn_paper()
    } else {
        TrainConfig::gcn_paper()
    }
    .with_epochs(epochs);
    let (f, h, c, seed) = (ds.spec.feat_dim, cfg.hidden, ds.spec.num_classes, cfg.seed);
    Ok(match model {
        "gcn" => {
            let m = GcnModel::new(f, h, c, seed);
            train_into(eng, ds, cfg, m, ServableModel::Gcn)
        }
        "sage" => {
            let m = SageModel::new(f, h, c, seed);
            train_into(eng, ds, cfg, m, ServableModel::Sage)
        }
        "gin" => {
            let m = GinModel::new(f, h, c, seed);
            train_into(eng, ds, cfg, m, ServableModel::Gin)
        }
        "agnn" => {
            let m = AgnnModel::new(f, h, c, cfg.layers, seed);
            train_into(eng, ds, cfg, m, ServableModel::Agnn)
        }
        other => return Err(format!("unknown model: {other}")),
    })
}

/// Trains `model` and wraps the trained parameters with `freeze`.
fn train_into<M: TrainableModel>(
    eng: &mut Engine,
    ds: &Dataset,
    cfg: TrainConfig,
    model: M,
    freeze: fn(M) -> ServableModel,
) -> (ServableModel, TrainResult) {
    let (model, result) = train_model_returning(eng, ds, cfg, model);
    (freeze(model), result)
}

fn cmd_eval(args: &[String]) -> ExitCode {
    let Some(name_arg) = args.first() else {
        return usage();
    };
    let ds = match load_dataset_arg(name_arg) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: {e} (eval needs a registry dataset for features/labels)");
            return ExitCode::FAILURE;
        }
    };
    let model = flag_value(args, "--model").unwrap_or_else(|| "gcn".into());
    let backend = match parse_backend(args) {
        Ok(b) => b,
        Err(code) => return code,
    };
    let epochs: u32 = flag_value(args, "--epochs")
        .and_then(|v| v.parse().ok())
        .unwrap_or(10);
    let frozen = match train_named(&model, &mut paper_engine(&ds.graph, backend), &ds, epochs) {
        Ok((f, _)) => f,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Fresh engine so the inference cost reflects a cold serving instance,
    // not the warmed caches left behind by training.
    let mut eng = paper_engine(&ds.graph, backend);
    // Chaos mode rides the same TCG_FAULT_RATE/TCG_FAULT_SEED switch as
    // serve and train: injected faults degrade the forward to the
    // CUDA-core path instead of failing it.
    if let Some(plan) = FaultPlan::from_env() {
        eprintln!(
            "fault injection enabled: seed {} rate {}",
            plan.seed(),
            plan.config().launch_rate
        );
        eng.attach_fault_plan(plan);
    }
    let (logits, cost) = frozen.infer(&mut eng, &ds.features);
    let pred = tc_gnn::tensor::ops::argmax_rows(&logits);
    let correct = pred
        .iter()
        .zip(ds.labels.iter())
        .filter(|(p, l)| **p == **l as usize)
        .count();
    println!(
        "{} on {} ({} backend): inference over {} nodes",
        frozen.kind(),
        ds.spec.name,
        eng.backend().name(),
        ds.graph.num_nodes()
    );
    println!(
        "accuracy {:.1}%  ({} / {} nodes)",
        100.0 * correct as f64 / pred.len().max(1) as f64,
        correct,
        pred.len()
    );
    println!(
        "inference {:.3} ms (aggregation {:.3}, update {:.3}, other {:.3}); SGT {:.3} ms one-time",
        cost.total_ms(),
        cost.aggregation_ms,
        cost.update_ms,
        cost.other_ms,
        eng.preprocessing_ms()
    );
    let fr = eng.fault_report();
    if fr.total_injected() > 0 {
        println!(
            "faults {} injected ({} retried, {} degraded to CUDA-core)",
            fr.total_injected(),
            fr.retried,
            fr.degraded
        );
    }
    ExitCode::SUCCESS
}

/// `tcgnn serve` prints the JSON report; `tcgnn top` renders the ASCII
/// dashboard instead. Both honor `--metrics PATH` and `TCG_PROFILE`.
fn cmd_serve(args: &[String], dashboard: bool) -> ExitCode {
    use tc_gnn::serve::{
        churn_schedule, poisson_trace, serve_with_mutations, ChurnConfig, LoadgenConfig,
        ServeConfig, ServedGraph, Session,
    };

    let Some(names_arg) = args.first() else {
        return usage();
    };
    let mut datasets = Vec::new();
    for name in names_arg.split(',') {
        match load_dataset_arg(name) {
            Ok(d) => datasets.push(d),
            Err(e) => {
                eprintln!("error loading {name}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    // One frozen model serves every graph, so the feature/label shapes must
    // agree across the set.
    let (feat_dim, num_classes) = (datasets[0].spec.feat_dim, datasets[0].spec.num_classes);
    if let Some(bad) = datasets
        .iter()
        .find(|d| d.spec.feat_dim != feat_dim || d.spec.num_classes != num_classes)
    {
        eprintln!(
            "error: {} has feat_dim/classes {}x{}, expected {}x{} (all served graphs must match)",
            bad.spec.name, bad.spec.feat_dim, bad.spec.num_classes, feat_dim, num_classes
        );
        return ExitCode::FAILURE;
    }

    let model = flag_value(args, "--model").unwrap_or_else(|| "gcn".into());
    let backend = match parse_backend(args) {
        Ok(b) => b,
        Err(code) => return code,
    };
    let epochs: u32 = flag_value(args, "--epochs")
        .and_then(|v| v.parse().ok())
        .unwrap_or(5);
    let parse_usize = |flag: &str, default: usize| {
        flag_value(args, flag)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    };
    let parse_f64 = |flag: &str, default: f64| {
        flag_value(args, flag)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    };

    let devices = parse_usize("--devices", 1);
    let partitioner = match flag_value(args, "--partitioner") {
        None => tc_gnn::dist::Partitioner::Contiguous,
        Some(p) => match tc_gnn::dist::Partitioner::parse(&p) {
            Some(part) => part,
            None => {
                eprintln!("error: unknown partitioner {p} (contiguous|greedy)");
                return ExitCode::FAILURE;
            }
        },
    };
    // The engine owns the device-count rule: ask it before training.
    if let Err(e) = tc_gnn::gnn::engine::check_devices(devices) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }

    eprintln!(
        "training frozen {model} model on {}...",
        datasets[0].spec.name
    );
    let ds = &datasets[0];
    let frozen = match train_named(&model, &mut paper_engine(&ds.graph, backend), ds, epochs) {
        Ok((f, _)) => f,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    let graph_sizes: Vec<usize> = datasets.iter().map(|d| d.graph.num_nodes()).collect();
    let graphs: Vec<ServedGraph> = datasets
        .into_iter()
        .map(|d| ServedGraph {
            name: d.spec.name.to_string(),
            csr: d.graph,
            features: d.features,
        })
        .collect();

    let mut session = Session::new(frozen, graphs, parse_usize("--cache-cap", 4));
    let mut cfg = ServeConfig {
        backend,
        streams: parse_usize("--streams", 2),
        queue_capacity: parse_usize("--queue-cap", 64),
        ..ServeConfig::default()
    };
    cfg.policy.max_batch = parse_usize("--max-batch", 8);
    cfg.policy.max_delay_ms = parse_f64("--max-delay", 2.0);
    if args.iter().any(|a| a == "--resilience") {
        cfg.resilience = Some(tc_gnn::serve::ResilienceConfig::default());
    }
    cfg.devices = devices;
    cfg.partitioner = partitioner;
    let lg = LoadgenConfig {
        rate_rps: parse_f64("--rate", 200.0),
        requests: parse_usize("--requests", 64),
        deadline_ms: flag_value(args, "--deadline").and_then(|v| v.parse().ok()),
        seed: flag_value(args, "--seed")
            .and_then(|v| v.parse().ok())
            .unwrap_or(7),
        low_every: parse_usize("--low-every", 0) as u64,
        critical_every: parse_usize("--critical-every", 0) as u64,
    };
    // Chaos mode rides the same TCG_FAULT_RATE/TCG_FAULT_SEED switch as
    // training; faults degrade batches to the CUDA-core path, never fail them.
    if let Some(plan) = FaultPlan::from_env() {
        eprintln!(
            "fault injection enabled: seed {} rate {}",
            plan.seed(),
            plan.config().launch_rate
        );
        cfg.fault = Some(*plan.config());
        cfg.fault_seed = plan.seed();
    }

    let trace = poisson_trace(&graph_sizes, &lg);
    // Dynamic graphs: `--churn N` interleaves N seeded edge-mutation events
    // (batched undirected toggles) with the request trace; each lands as a
    // batcher barrier and resolves through the delta-translation cache path.
    let churn_events = parse_usize("--churn", 0);
    let mutations = if churn_events > 0 {
        let csrs: Vec<_> = session.graphs().iter().map(|g| g.csr.clone()).collect();
        churn_schedule(
            &csrs,
            &ChurnConfig {
                events: churn_events,
                rate_eps: parse_f64("--churn-rate", lg.rate_rps / 16.0),
                batch: parse_usize("--churn-batch", 4),
                seed: flag_value(args, "--churn-seed")
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(13),
            },
        )
    } else {
        Vec::new()
    };
    // One shared TCG_PROFILE parser across the whole repo: off/trace/
    // metrics/hotspot (see tcg_profile::ProfileLevel).
    let level = tc_gnn::profile::ProfileLevel::from_env();
    if level.hotspots() {
        tc_gnn::gpusim::hotspot::set_enabled(true);
    }
    let profiler = level
        .profiler(cfg.backend.name())
        .map(|p| std::sync::Arc::new(std::sync::RwLock::new(p)));
    let report = serve_with_mutations(&mut session, &cfg, &trace, &mutations, profiler.as_ref());
    if dashboard {
        print!("{}", tc_gnn::serve::render_top(&report));
    } else {
        println!("{}", report.summary_line());
        println!("{}", report.to_json());
    }
    if let Some(path) = flag_value(args, "--metrics") {
        match std::fs::write(&path, tc_gnn::serve::prometheus_text(&report)) {
            Ok(()) => eprintln!("wrote {path} (Prometheus text format)"),
            Err(e) => {
                eprintln!("could not write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(p) = profiler {
        let guard = p.read().expect("profiler lock");
        let dir = tc_gnn::bench::results_dir();
        let _ = std::fs::create_dir_all(&dir);
        let trace_path = dir.join("serve-cli.trace.json");
        match std::fs::write(&trace_path, tc_gnn::profile::chrome_trace_json(&guard)) {
            Ok(()) => eprintln!("wrote {} (Perfetto: ui.perfetto.dev)", trace_path.display()),
            Err(e) => eprintln!("could not write {}: {e}", trace_path.display()),
        }
    }
    if level.hotspots() {
        tc_gnn::gpusim::hotspot::set_enabled(false);
        let hs = tc_gnn::gpusim::hotspot::take_report();
        let dir = tc_gnn::bench::results_dir();
        match tc_gnn::profile::write_hotspot_artifacts(&hs, &dir, "serve-cli") {
            Ok(a) => eprintln!("wrote {} (+ table + windows)", a.folded_path.display()),
            Err(e) => eprintln!("could not write hotspot artifacts: {e}"),
        }
    }
    ExitCode::SUCCESS
}

/// `tcgnn profile --hotspots`: runs the fig7b training suite (Table 4
/// datasets under the scale policy, short GCN runs on the TC-GNN backend)
/// with the gpusim host-side wall-clock timers armed on every simulated
/// block's two phases (body, L2 replay), then prints the ranked per-phase
/// hotspot table — whose total host nanoseconds reconcile exactly with the
/// sum of per-block attributions — and writes the flamegraph-ready
/// artifacts under the results directory.
fn cmd_profile(args: &[String]) -> ExitCode {
    if !args.iter().any(|a| a == "--hotspots") {
        eprintln!("profile: only --hotspots mode exists (launch tracing is TCG_PROFILE=1)");
        return usage();
    }
    let filter: Option<Vec<String>> = flag_value(args, "--datasets")
        .map(|v| v.split(',').map(|s| s.to_ascii_lowercase()).collect());
    let epochs: u32 = flag_value(args, "--epochs")
        .and_then(|v| v.parse().ok())
        .unwrap_or(2);

    tc_gnn::gpusim::hotspot::set_enabled(true);
    let _ = tc_gnn::gpusim::hotspot::take_report(); // drain stale state
    let mut ran = 0usize;
    for spec in TABLE4.iter() {
        if let Some(names) = &filter {
            if !names.iter().any(|n| n == &spec.name.to_ascii_lowercase()) {
                continue;
            }
        }
        let ds = tc_gnn::bench::load_dataset(spec);
        let mut eng = paper_engine(&ds.graph, Backend::TcGnn);
        let _ = train_gcn(&mut eng, &ds, TrainConfig::gcn_paper().with_epochs(epochs));
        eprintln!("  [profile] {} done", spec.name);
        ran += 1;
    }
    tc_gnn::gpusim::hotspot::set_enabled(false);
    if ran == 0 {
        eprintln!("profile: --datasets matched nothing in the registry");
        return ExitCode::FAILURE;
    }

    let report = tc_gnn::gpusim::hotspot::take_report();
    print!("{}", tc_gnn::profile::hotspot_table(&report));
    let dir = tc_gnn::bench::results_dir();
    match tc_gnn::profile::write_hotspot_artifacts(&report, &dir, "profile-hotspots") {
        Ok(a) => eprintln!(
            "wrote {} / {} / {}",
            a.folded_path.display(),
            a.table_path.display(),
            a.windows_path.display()
        ),
        Err(e) => {
            eprintln!("could not write hotspot artifacts: {e}");
            return ExitCode::FAILURE;
        }
    }
    if report.is_empty() {
        eprintln!("profile: the suite produced no hotspot samples");
        return ExitCode::FAILURE;
    }
    if report.total_phase_ns() != report.total_window_ns() {
        eprintln!(
            "profile: reconciliation MISMATCH (phases {} ns != windows {} ns)",
            report.total_phase_ns(),
            report.total_window_ns()
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// `tcgnn bench --check`: the perf-regression sentinel. Compares the
/// fresh result files under the results directory (`TCG_RESULTS_DIR`
/// honored) against the committed baselines and exits nonzero when any
/// gated metric drifts past its fail threshold.
fn cmd_bench(args: &[String]) -> ExitCode {
    use tc_gnn::bench::sentinel;

    if !args.iter().any(|a| a == "--check") {
        eprintln!("bench: only --check exists here (the workloads are cargo run -p tcg-bench)");
        return usage();
    }
    let baselines = flag_value(args, "--baselines")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| Path::new("results").join("baselines"));
    let fresh = tc_gnn::bench::results_dir();
    let rows = sentinel::check(&baselines, &fresh, &sentinel::default_specs());
    print!("{}", sentinel::render_table(&rows));
    match sentinel::worst(&rows) {
        sentinel::Severity::Fail => ExitCode::FAILURE,
        _ => ExitCode::SUCCESS,
    }
}

fn cmd_verify(args: &[String]) -> ExitCode {
    use tc_gnn::oracle::{run_matrix, Family, MatrixConfig};

    let mut cfg = MatrixConfig::default();
    if let Some(seed) = flag_value(args, "--seed") {
        match seed.parse() {
            Ok(s) => cfg.seed = s,
            Err(e) => {
                eprintln!("bad --seed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(dim) = flag_value(args, "--dim") {
        match dim.parse() {
            Ok(d) => cfg.dim = d,
            Err(e) => {
                eprintln!("bad --dim: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(families) = flag_value(args, "--families") {
        let mut picked = Vec::new();
        for name in families.split(',') {
            match Family::from_name(name) {
                Some(f) => picked.push(f),
                None => {
                    eprintln!(
                        "unknown family: {name} (known: {})",
                        Family::ALL
                            .iter()
                            .map(|f| f.name())
                            .collect::<Vec<_>>()
                            .join(", ")
                    );
                    return ExitCode::FAILURE;
                }
            }
        }
        cfg.families = picked;
    }
    if args.iter().any(|a| a == "--no-metamorphic") {
        cfg.metamorphic = false;
    }

    let report = run_matrix(&cfg);
    print!("{}", report.render());
    if report.passed() {
        println!(
            "verify: all {} cells conform{}",
            report.cells.len(),
            if cfg.metamorphic {
                format!(", {} metamorphic properties hold", report.metamorphic.len())
            } else {
                String::new()
            }
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("verify: FAILED");
        ExitCode::FAILURE
    }
}

/// `tcgnn tune`: regresses the hybrid dispatcher's decision thresholds
/// from cost-model sweeps. Every non-empty row window of the adversarial
/// families and the fig7b (Table 4) datasets contributes one sample —
/// its geometry score plus the cost model's cycle prediction for both
/// the TCU and CUDA-core bodies — and the fit picks the threshold that
/// minimizes total predicted cycles against the per-window oracle.
fn cmd_tune(args: &[String]) -> ExitCode {
    use tc_gnn::bench::device;
    use tc_gnn::kernels::hybrid::{fit_threshold, tune_samples, KernelClass, TuneSample};
    use tc_gnn::oracle::Family;

    let dim: usize = flag_value(args, "--dim")
        .and_then(|v| v.parse().ok())
        .unwrap_or(16);
    let seed: u64 = flag_value(args, "--seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or(2023);
    let dev = device();

    let mut graphs: Vec<(String, CsrGraph)> = Vec::new();
    for fam in Family::ALL {
        graphs.push((format!("adv/{}", fam.name()), fam.generate(seed)));
    }
    for spec in TABLE4.iter() {
        match spec.materialize(42) {
            Ok(ds) => graphs.push((format!("fig7b/{}", spec.name), ds.graph)),
            Err(e) => {
                eprintln!("tune: skipping {}: {e}", spec.name);
            }
        }
    }

    let mut samples: [Vec<TuneSample>; 2] = [Vec::new(), Vec::new()];
    for (name, g) in &graphs {
        let t = tc_gnn::sgt::Sgt::builder()
            .threads(tc_gnn::gpusim::threads_from_env())
            .translate(g)
            .expect("default SGT geometry is valid");
        let spmm = tune_samples(&dev, &t, g, dim, KernelClass::Spmm);
        let sddmm = tune_samples(&dev, &t, g, dim, KernelClass::Sddmm);
        eprintln!(
            "  [tune] {name}: {} windows swept ({} nodes / {} edges)",
            spmm.len(),
            g.num_nodes(),
            g.num_edges()
        );
        samples[0].extend(spmm);
        samples[1].extend(sddmm);
    }

    println!(
        "# tcgnn tune: hybrid dispatch thresholds ({} graphs, dim {dim}, device {})\n",
        graphs.len(),
        dev.name
    );
    for (class, s) in [
        (KernelClass::Spmm, &samples[0]),
        (KernelClass::Sddmm, &samples[1]),
    ] {
        let fit = fit_threshold(s);
        println!(
            "{:<6} threshold {:+.4}  ({} windows, agreement {:.1}%, regret {:.0} of {:.0} oracle cycles)",
            class.label(),
            fit.threshold,
            s.len(),
            fit.agreement * 100.0,
            fit.regret_cycles,
            fit.oracle_cycles,
        );
    }
    println!("\napply with:");
    for (class, s) in [
        (KernelClass::Spmm, &samples[0]),
        (KernelClass::Sddmm, &samples[1]),
    ] {
        println!(
            "  export TCG_HYBRID_THRESHOLD_{}={:.4}",
            class.label().to_uppercase(),
            fit_threshold(s).threshold
        );
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    match cmd.as_str() {
        "datasets" => cmd_datasets(),
        "census" | "translate" | "spmm" => {
            let Some(graph_arg) = args.get(1) else {
                return usage();
            };
            let graph = match load_graph(graph_arg) {
                Ok(g) => g,
                Err(e) => {
                    eprintln!("error loading {graph_arg}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match cmd.as_str() {
                "census" => cmd_census(&graph),
                "translate" => cmd_translate(&graph),
                _ => {
                    let dim = flag_value(&args, "--dim")
                        .and_then(|v| v.parse().ok())
                        .unwrap_or(16);
                    cmd_spmm(&graph, dim)
                }
            }
        }
        "train" => cmd_train(&args[1..]),
        "eval" => cmd_eval(&args[1..]),
        "serve" => cmd_serve(&args[1..], false),
        "top" => cmd_serve(&args[1..], true),
        "profile" => cmd_profile(&args[1..]),
        "bench" => cmd_bench(&args[1..]),
        "verify" => cmd_verify(&args[1..]),
        "tune" => cmd_tune(&args[1..]),
        _ => usage(),
    }
}

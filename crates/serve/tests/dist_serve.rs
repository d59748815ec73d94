//! Multi-device serving: sharded batches must answer with exactly the
//! classes single-device serving produces — for every model, backend and
//! serve policy — while the report carries the halo-exchange accounting.

use tcg_gnn::{AgnnModel, Backend, Engine, GcnModel, GinModel, SageModel};
use tcg_graph::gen;
use tcg_serve::{
    churn_schedule, poisson_trace, serve, serve_with_mutations, CacheStats, ChurnConfig,
    FaultConfig, GraphMutation, LoadgenConfig, Outcome, Partitioner, ResilienceConfig, Response,
    ServableModel, ServeConfig, ServeReport, ServedGraph, Session,
};
use tcg_tensor::init;

fn graph() -> ServedGraph {
    let g = gen::rmat_default(512, 4000, 7).unwrap();
    let features = init::uniform(g.num_nodes(), 12, -1.0, 1.0, 5);
    ServedGraph {
        name: "rmat512".into(),
        csr: g,
        features,
    }
}

fn trace() -> Vec<tcg_serve::Request> {
    poisson_trace(
        &[512],
        &LoadgenConfig {
            rate_rps: 50_000.0,
            requests: 48,
            deadline_ms: None,
            seed: 11,
            ..LoadgenConfig::default()
        },
    )
}

fn gcn() -> ServableModel {
    ServableModel::Gcn(GcnModel::new(12, 16, 5, 3))
}

fn classes(responses: &[Response]) -> Vec<(u64, usize)> {
    responses
        .iter()
        .filter_map(|r| match r.outcome {
            Outcome::Served { class, .. } | Outcome::Late { class, .. } => Some((r.id, class)),
            _ => None,
        })
        .collect()
}

fn run(model: &ServableModel, cfg: &ServeConfig, mutations: &[GraphMutation]) -> ServeReport {
    let trace = trace();
    let mut session = Session::new(model.clone(), vec![graph()], 4);
    let cfg = ServeConfig {
        queue_capacity: trace.len(),
        ..cfg.clone()
    };
    serve_with_mutations(&mut session, &cfg, &trace, mutations, None)
}

fn sharded(cfg: &ServeConfig, partitioner: Partitioner) -> ServeConfig {
    ServeConfig {
        devices: 4,
        partitioner,
        ..cfg.clone()
    }
}

#[test]
fn sharded_serving_answers_identically_to_single_device() {
    let models = [
        gcn(),
        ServableModel::Agnn(AgnnModel::new(12, 16, 5, 2, 3)),
        ServableModel::Sage(SageModel::new(12, 16, 5, 3)),
        ServableModel::Gin(GinModel::new(12, 16, 5, 3)),
    ];
    for model in &models {
        let single = run(model, &ServeConfig::default(), &[]);
        assert_eq!(single.devices, 1);
        assert_eq!(single.partitioner, "none");
        assert_eq!(single.halo_bytes, 0);
        for p in [Partitioner::Contiguous, Partitioner::GreedyEdgeCut] {
            let sharded = run(model, &sharded(&ServeConfig::default(), p), &[]);
            let kind = model.kind();
            assert_eq!(sharded.devices, 4, "{kind}");
            assert_eq!(sharded.partitioner, p.name());
            assert_eq!(sharded.answered, single.answered, "{kind}");
            // Bitwise-identical logits ⇒ identical argmax classes per request.
            assert_eq!(classes(&sharded.responses), classes(&single.responses));
            // The 4-way shards of a dense-ish R-MAT graph must exchange halos.
            assert!(sharded.halo_bytes > 0, "{kind}: no halo traffic recorded");
            assert!(sharded.transfer_ms > 0.0, "{kind}: no interconnect time");
        }
    }
}

#[test]
fn sharded_serving_honors_the_hybrid_backend() {
    let hybrid = ServeConfig {
        backend: Backend::Hybrid,
        ..ServeConfig::default()
    };
    let single = run(&gcn(), &hybrid, &[]);
    let cfg = sharded(&hybrid, Partitioner::Contiguous);
    let sharded_run = run(&gcn(), &cfg, &[]);
    assert_eq!(sharded_run.backend, "Hybrid");
    assert_eq!(classes(&sharded_run.responses), classes(&single.responses));
    // The profiled run shows the device engines dispatching per window.
    let trace = trace();
    let mut session = Session::new(gcn(), vec![graph()], 4);
    let profiler = tcg_profile::shared("Hybrid");
    let cfg = ServeConfig {
        queue_capacity: trace.len(),
        ..cfg
    };
    serve(&mut session, &cfg, &trace, Some(&profiler));
    let p = profiler.read().unwrap();
    assert!(p.named_counter("tcg_hybrid_launches_total") > 0);
    assert!(p
        .events()
        .iter()
        .any(|ev| ev.name.starts_with("hybrid_dispatch:spmm[")));
}

/// Runs `cfg` sharded 4 ways and checks what every serve policy must keep
/// when sharded: 4 devices reported, every admitted request answered, halo
/// traffic paid, and the report byte-identical across repeats and across
/// 1 vs 4 engine threads. Returns the report for policy-specific checks.
fn assert_shards_deterministically(cfg: &ServeConfig, mutations: &[GraphMutation]) -> ServeReport {
    let at_threads = |threads| {
        run(
            &gcn(),
            &ServeConfig {
                threads,
                ..cfg.clone()
            },
            mutations,
        )
    };
    let report = at_threads(1);
    assert_eq!(report.devices, 4);
    assert_eq!(report.answered, report.total_requests - report.shed);
    assert!(report.halo_bytes > 0);
    let json = report.to_json();
    assert_eq!(json, at_threads(1).to_json(), "repeat drifted");
    assert_eq!(json, at_threads(4).to_json(), "engine threads drifted");
    report
}

fn faults() -> ServeConfig {
    ServeConfig {
        fault: Some(FaultConfig::uniform(0.3)),
        fault_seed: 9,
        ..ServeConfig::default()
    }
}

#[test]
fn faulted_serving_shards_deterministically() {
    let report = assert_shards_deterministically(&sharded(&faults(), Partitioner::Contiguous), &[]);
    assert!(report.faults.total_injected() > 0, "no faults injected");
}

#[test]
fn resilient_serving_shards_deterministically() {
    let resilient = ServeConfig {
        resilience: Some(ResilienceConfig::default()),
        ..faults()
    };
    let report =
        assert_shards_deterministically(&sharded(&resilient, Partitioner::GreedyEdgeCut), &[]);
    assert!(report.resilience.is_some());
}

#[test]
fn churned_serving_shards_deterministically() {
    let churn = churn_schedule(
        &[graph().csr],
        &ChurnConfig {
            events: 3,
            rate_eps: 10_000.0,
            batch: 4,
            seed: 13,
        },
    );
    let cfg = sharded(&ServeConfig::default(), Partitioner::Contiguous);
    let report = assert_shards_deterministically(&cfg, &churn);
    assert!(report.mutations.applied > 0, "no mutation applied");
}

#[test]
#[should_panic(expected = "at least one device")]
fn serving_on_zero_devices_is_rejected_up_front() {
    let cfg = ServeConfig {
        devices: 0,
        ..ServeConfig::default()
    };
    run(&gcn(), &cfg, &[]);
}

#[test]
fn sharded_serving_charges_shard_translation_instead_of_the_cache() {
    let single = run(&gcn(), &ServeConfig::default(), &[]);
    assert!(single.cache.translation_ms_paid > 0.0);
    let cfg = sharded(&ServeConfig::default(), Partitioner::Contiguous);
    let sharded_run = run(&gcn(), &cfg, &[]);
    // No whole-graph translation is resolved for a sharded run...
    assert_eq!(sharded_run.cache, CacheStats::default());
    // ...each stream's engine translates its shards when built, and the
    // batch that builds it (the first arrival's) waits for that.
    let shard_sgt_ms = Engine::builder(graph().csr)
        .devices(4)
        .partitioner(Partitioner::Contiguous)
        .build()
        .unwrap()
        .preprocessing_ms();
    assert!(shard_sgt_ms > 0.0);
    let first = &sharded_run.responses[0];
    assert_eq!(first.id, 0);
    let latency = first.outcome.latency_ms().expect("first request answered");
    assert!(latency > shard_sgt_ms, "{latency} vs {shard_sgt_ms}");
    assert_eq!(classes(&sharded_run.responses), classes(&single.responses));
}

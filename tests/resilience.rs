//! Integration tests of the tcg-resilience layer: deadline propagation and
//! checkpoint cancellation, per-stream circuit breakers over the
//! TCU→CUDA-core degradation path, the brownout shedding ladder, and
//! poisoned-translation quarantine — all deterministic under the
//! virtual-time/seed regime, and all producing *typed* outcomes: under
//! chaos every response is either an answer or an explicit shed/cancel,
//! never a wrong logit and never a silent failure.

use proptest::prelude::*;
use tc_gnn::fault::{BreakerConfig, BreakerRoute, CircuitBreaker, FaultConfig, RetryPolicy};
use tc_gnn::gnn::{Backend, GcnModel};
use tc_gnn::graph::datasets::{DatasetSpec, GraphClass};
use tc_gnn::serve::{
    poisson_trace, serve, BrownoutConfig, LoadgenConfig, Outcome, Priority, ResilienceConfig,
    ServableModel, ServeConfig, ServedGraph, Session, ShedReason,
};

fn fixture() -> (ServableModel, Vec<ServedGraph>) {
    let mk = |name: &'static str, nodes: usize, edges: usize, seed: u64| {
        let ds = DatasetSpec {
            name,
            class: GraphClass::TypeI,
            num_nodes: nodes,
            num_edges: edges,
            feat_dim: 16,
            num_classes: 4,
        }
        .materialize(seed)
        .expect("synthetic dataset");
        ServedGraph {
            name: name.to_string(),
            csr: ds.graph,
            features: ds.features,
        }
    };
    let model = ServableModel::Gcn(GcnModel::new(16, 8, 4, 11));
    (
        model,
        vec![mk("res-a", 200, 1600, 3), mk("res-b", 150, 900, 4)],
    )
}

fn serve_json(cfg: &ServeConfig, trace: &[tc_gnn::serve::Request]) -> String {
    let (model, graphs) = fixture();
    let mut session = Session::new(model, graphs, 4);
    serve(&mut session, cfg, trace, None).to_json()
}

// ---------------------------------------------------------------------------
// Circuit breaker: pure fold of the fault trace
// ---------------------------------------------------------------------------

/// Reference encoding of the breaker state machine, deliberately written as
/// a standalone fold so the production `CircuitBreaker` is checked against
/// an independent formulation, not against itself.
#[derive(Debug, Clone, Copy, PartialEq)]
enum RefState {
    Closed(u32),
    Open(f64),
    Half,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Routes, stats, transitions, and the final state are a pure function
    /// of the `(time, faulted)` observation sequence: two replays agree
    /// bit-for-bit, any prefix replay yields a transition-list prefix, and
    /// the whole trajectory matches an independent reference fold.
    #[test]
    fn breaker_is_a_pure_fold_of_its_fault_trace(
        threshold in 1u32..4,
        cooldown in 1.0f64..8.0,
        faults in proptest::collection::vec((0u8..2).prop_map(|b| b == 1), 0..80),
    ) {
        let cfg = BreakerConfig {
            failure_threshold: threshold,
            cooldown_ms: cooldown,
        };
        // Drive the production breaker with the serve-side protocol:
        // route at batch start, report at batch end, fallback batches
        // always report clean.
        let drive = |obs: &[bool]| {
            let mut br = CircuitBreaker::new(cfg);
            let mut routes = Vec::new();
            for (i, &faulted) in obs.iter().enumerate() {
                let now = i as f64;
                let route = br.route(now);
                routes.push(route);
                br.on_result(now + 0.5, faulted && route == BreakerRoute::Primary);
            }
            (routes, br)
        };
        let (routes_a, br_a) = drive(&faults);
        let (routes_b, br_b) = drive(&faults);
        prop_assert_eq!(&routes_a, &routes_b);
        prop_assert_eq!(br_a.stats(), br_b.stats());
        prop_assert_eq!(br_a.transitions().len(), br_b.transitions().len());
        let cut = faults.len() / 2;
        let (_, br_prefix) = drive(&faults[..cut]);
        prop_assert!(
            br_a.transitions().starts_with(br_prefix.transitions()),
            "prefix replay must yield a transition-list prefix"
        );

        // Independent reference fold.
        let mut state = RefState::Closed(0);
        let mut expected_routes = Vec::new();
        for (i, &f) in faults.iter().enumerate() {
            let now = i as f64;
            let route = match state {
                RefState::Closed(_) | RefState::Half => BreakerRoute::Primary,
                RefState::Open(until) if now >= until => {
                    state = RefState::Half;
                    BreakerRoute::Primary
                }
                RefState::Open(_) => BreakerRoute::Fallback,
            };
            expected_routes.push(route);
            let faulted = f && route == BreakerRoute::Primary;
            let t = now + 0.5;
            state = match state {
                RefState::Closed(n) if faulted => {
                    if n + 1 >= threshold {
                        RefState::Open(t + cooldown)
                    } else {
                        RefState::Closed(n + 1)
                    }
                }
                RefState::Closed(_) => RefState::Closed(0),
                RefState::Half if faulted => RefState::Open(t + cooldown),
                RefState::Half => RefState::Closed(0),
                open => open,
            };
        }
        prop_assert_eq!(routes_a, expected_routes);
        let expected_label = match state {
            RefState::Closed(_) => "closed",
            RefState::Open(_) => "open",
            RefState::Half => "half_open",
        };
        prop_assert_eq!(br_a.state().label(), expected_label);
    }
}

/// Seeded backoff jitter is a pure function of `(seed, sequence, attempt)`:
/// fanning the schedule computation over 8 threads reproduces the
/// single-threaded schedule bit-for-bit.
#[test]
fn retry_backoff_is_identical_across_thread_counts() {
    let policy = RetryPolicy::default().with_jitter(0.25, 42);
    let schedule = |seq_range: std::ops::Range<u64>| -> Vec<u64> {
        seq_range
            .flat_map(|s| (1..=3u32).map(move |a| policy.delay_ms(s, a).to_bits()))
            .collect()
    };
    let solo = schedule(0..64);
    let fanned: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8u64)
            .map(|t| scope.spawn(move || schedule(t * 8..(t + 1) * 8)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    assert_eq!(solo, fanned, "backoff schedule depends on thread count");
}

// ---------------------------------------------------------------------------
// Deadline propagation & cancellation
// ---------------------------------------------------------------------------

#[test]
fn dead_requests_are_cancelled_at_checkpoints_not_executed_late() {
    let resilience = ResilienceConfig {
        deadline_cancellation: true,
        breaker: None,
        brownout: None,
        retry_jitter_frac: 0.0,
        spot_check_every: 0,
    };
    let cfg_on = ServeConfig {
        backend: Backend::TcGnn,
        streams: 1,
        queue_capacity: 256,
        resilience: Some(resilience),
        ..ServeConfig::default()
    };
    let cfg_off = ServeConfig {
        resilience: None,
        ..cfg_on.clone()
    };
    // Burst overload: everything arrives at once with a deadline only the
    // first few batches can meet, so the tail is dead before it runs.
    let trace = poisson_trace(
        &[200, 150],
        &LoadgenConfig {
            rate_rps: 100_000.0,
            requests: 64,
            deadline_ms: Some(1.0),
            seed: 13,
            ..LoadgenConfig::default()
        },
    );
    let (model, graphs) = fixture();
    let mut session = Session::new(model, graphs, 4);
    let on = serve(&mut session, &cfg_on, &trace, None);
    let (model, graphs) = fixture();
    let mut session = Session::new(model, graphs, 4);
    let off = serve(&mut session, &cfg_off, &trace, None);

    assert!(on.cancelled > 0, "overload must cancel dead requests");
    assert_eq!(
        on.on_time + on.late + on.shed + on.cancelled,
        on.total_requests,
        "every request gets exactly one typed outcome"
    );
    let rs = on.resilience.expect("resilience summary present");
    assert_eq!(rs.cancelled(), on.cancelled);
    for r in &on.responses {
        if let Outcome::Cancelled {
            deadline_ms,
            cancelled_at_ms,
            ..
        } = &r.outcome
        {
            assert!(
                cancelled_at_ms >= deadline_ms,
                "request {} cancelled before its deadline died",
                r.id
            );
            let err = r.outcome.error().expect("cancel maps to a typed error");
            assert!(err.to_string().contains("cancelled at"));
        }
    }
    // Cancellation only removes work, so the stream drains no later, and
    // nothing the legacy path answered on time is lost.
    assert!(on.makespan_ms <= off.makespan_ms);
    assert_eq!(off.cancelled, 0);
    assert!(on.on_time >= off.on_time);
    // Byte-identical across repeats.
    assert_eq!(serve_json(&cfg_on, &trace), serve_json(&cfg_on, &trace));
}

// ---------------------------------------------------------------------------
// Circuit breaker end-to-end: persistent faults open it, batches reroute
// ---------------------------------------------------------------------------

#[test]
fn breaker_opens_and_reroutes_batches_under_persistent_faults() {
    let cfg = ServeConfig {
        backend: Backend::TcGnn,
        streams: 1,
        fault: Some(FaultConfig::uniform(0.8)),
        fault_seed: 42,
        resilience: Some(ResilienceConfig {
            deadline_cancellation: false,
            breaker: Some(BreakerConfig::default()),
            brownout: None,
            retry_jitter_frac: 0.25,
            spot_check_every: 0,
        }),
        ..ServeConfig::default()
    };
    let trace = poisson_trace(
        &[200, 150],
        &LoadgenConfig {
            rate_rps: 1_000.0,
            requests: 48,
            deadline_ms: None,
            seed: 5,
            ..LoadgenConfig::default()
        },
    );
    let (model, graphs) = fixture();
    let mut session = Session::new(model, graphs, 4);
    let report = serve(&mut session, &cfg, &trace, None);

    assert_eq!(report.answered, 48, "every request must still be answered");
    assert_eq!(report.failed, 0);
    let rs = report.resilience.expect("resilience summary present");
    assert!(
        rs.breaker.opened > 0,
        "persistent faults must trip the breaker: {rs:?}"
    );
    assert!(
        rs.breaker.rerouted_batches > 0,
        "an open breaker must reroute whole batches: {rs:?}"
    );
    assert!(rs.breaker_transitions > 0);
    assert!(report.faults.total_injected() > 0);
    // Byte-identical across repeats, jittered retries and all.
    assert_eq!(serve_json(&cfg, &trace), serve_json(&cfg, &trace));
}

// ---------------------------------------------------------------------------
// Brownout: graduated shedding by priority class
// ---------------------------------------------------------------------------

#[test]
fn brownout_sheds_low_priority_first_and_never_critical() {
    let cfg = ServeConfig {
        backend: Backend::TcGnn,
        streams: 1,
        queue_capacity: 8,
        resilience: Some(ResilienceConfig {
            deadline_cancellation: false,
            breaker: None,
            brownout: Some(BrownoutConfig {
                shrink_at: 0.25,
                shed_low_at: 0.5,
                // Fractions top out at 1.0, so level 3 is unreachable here:
                // the test isolates the "shed low only" rung of the ladder.
                shed_all_at: 2.0,
                shrink_factor: 1,
                wait_p99_ms: f64::INFINITY,
            }),
            retry_jitter_frac: 0.0,
            spot_check_every: 0,
        }),
        ..ServeConfig::default()
    };
    let trace = poisson_trace(
        &[200, 150],
        &LoadgenConfig {
            rate_rps: 100_000.0,
            requests: 64,
            deadline_ms: None,
            seed: 17,
            low_every: 2,
            critical_every: 7,
        },
    );
    let (model, graphs) = fixture();
    let mut session = Session::new(model, graphs, 4);
    let report = serve(&mut session, &cfg, &trace, None);

    let rs = report.resilience.expect("resilience summary present");
    assert!(
        rs.brownout.shed_low > 0,
        "sustained overload must shed low-priority arrivals: {rs:?}"
    );
    assert_eq!(
        rs.brownout.shed_normal, 0,
        "the ladder never reached level 3, so normal traffic survives"
    );
    assert!(rs.brownout.max_level >= 2);
    for r in &report.responses {
        if let Outcome::Shed {
            reason: ShedReason::Brownout { priority, .. },
        } = &r.outcome
        {
            assert_ne!(
                *priority,
                Priority::Critical,
                "request {} was critical yet brownout-shed",
                r.id
            );
        }
    }
    assert_eq!(
        report.on_time + report.late + report.shed + report.cancelled,
        report.total_requests
    );
    assert_eq!(serve_json(&cfg, &trace), serve_json(&cfg, &trace));
}

// ---------------------------------------------------------------------------
// Poisoned-translation quarantine, end to end
// ---------------------------------------------------------------------------

#[test]
fn poisoned_cache_entry_is_quarantined_and_answers_stay_bitwise_correct() {
    let resilience = ResilienceConfig {
        deadline_cancellation: false,
        breaker: None,
        brownout: None,
        retry_jitter_frac: 0.0,
        spot_check_every: 1,
    };
    let cfg = ServeConfig {
        backend: Backend::TcGnn,
        streams: 1,
        resilience: Some(resilience),
        ..ServeConfig::default()
    };
    let warmup = poisson_trace(
        &[200],
        &LoadgenConfig {
            rate_rps: 1_000.0,
            requests: 8,
            deadline_ms: None,
            seed: 23,
            ..LoadgenConfig::default()
        },
    );
    let main_trace = poisson_trace(
        &[200],
        &LoadgenConfig {
            rate_rps: 1_000.0,
            requests: 16,
            deadline_ms: None,
            seed: 29,
            ..LoadgenConfig::default()
        },
    );

    let (model, graphs) = fixture();
    let graphs = vec![graphs.into_iter().next().expect("first graph")];
    let fp = tc_gnn::serve::version_key(&graphs[0].csr);
    let mut session = Session::new(model, graphs, 4);
    let _ = serve(&mut session, &cfg, &warmup, None);
    // Bit-flip the resident translation behind the cache's back — the
    // stored checksum goes stale, exactly like silent memory corruption.
    assert!(
        session.cache_mut().corrupt_resident(fp, |t| {
            t.edge_to_col[0] ^= 1;
        }),
        "warmup must have left the translation resident"
    );
    let poisoned = serve(&mut session, &cfg, &main_trace, None);
    assert!(
        poisoned.cache.poison_detected >= 1,
        "corruption must be detected: {:?}",
        poisoned.cache
    );
    assert_eq!(
        poisoned.cache.poison_detected,
        poisoned.cache.poison_recovered
    );
    assert_eq!(poisoned.answered, 16);

    // A clean reference session (never corrupted) over the same trace must
    // produce the same classes: quarantine + retranslation fully heals.
    let (model, graphs) = fixture();
    let graphs = vec![graphs.into_iter().next().expect("first graph")];
    let mut clean_session = Session::new(model, graphs, 4);
    let clean = serve(&mut clean_session, &cfg, &main_trace, None);
    let classes = |resp: &[tc_gnn::serve::Response]| -> Vec<(u64, usize)> {
        resp.iter()
            .filter_map(|r| match &r.outcome {
                Outcome::Served { class, .. } | Outcome::Late { class, .. } => Some((r.id, *class)),
                _ => None,
            })
            .collect()
    };
    assert_eq!(
        classes(&poisoned.responses),
        classes(&clean.responses),
        "a recovered poisoned cache must answer exactly like a clean one"
    );
}

// ---------------------------------------------------------------------------
// Chaos + full resilience stack: typed outcomes only, byte-identical
// ---------------------------------------------------------------------------

#[test]
fn chaos_serve_with_full_resilience_is_deterministic_and_typed() {
    let cfg = ServeConfig {
        backend: Backend::TcGnn,
        streams: 2,
        queue_capacity: 32,
        fault: Some(FaultConfig::uniform(0.3)),
        fault_seed: 42,
        resilience: Some(ResilienceConfig::default()),
        ..ServeConfig::default()
    };
    let trace = poisson_trace(
        &[200, 150],
        &LoadgenConfig {
            rate_rps: 5_000.0,
            requests: 48,
            deadline_ms: Some(20.0),
            seed: 31,
            low_every: 3,
            critical_every: 11,
        },
    );
    let (model, graphs) = fixture();
    let mut session = Session::new(model, graphs, 4);
    let report = serve(&mut session, &cfg, &trace, None);

    assert_eq!(report.failed, 0, "faults must never fail a request");
    assert_eq!(
        report.on_time + report.late + report.shed + report.cancelled,
        report.total_requests,
        "every request resolves to exactly one typed outcome"
    );
    // Shed/cancelled responses carry machine-readable reasons.
    for r in &report.responses {
        match &r.outcome {
            Outcome::Shed { .. } | Outcome::Cancelled { .. } => {
                assert!(r.outcome.error().is_some());
            }
            _ => {}
        }
    }
    assert_eq!(serve_json(&cfg, &trace), serve_json(&cfg, &trace));
}

//! Receptive-field serving: a targeted inference computes only the row
//! windows its targets read, layer by layer, and its target rows are
//! bitwise the full forward's.
//!
//! - Every servable model on both translating backends, over the ten
//!   adversarial oracle families, with random targets and features that
//!   include `±inf` and NaN: target rows are `to_bits`-equal to the full
//!   forward's (a NaN matches any NaN).
//! - A served trace answers every request with the full forward's class.
//! - Engines that cannot skip windows (DGL/PyG, sharded, forced fallback)
//!   run the full forward.
//! - A partial launch bypasses the launch memo: two launches over
//!   different sets of the same size each get their own stats.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use tc_gnn::gnn::{AgnnModel, Backend, Demand, Engine, GcnModel, GinModel, SageModel, WindowSet};
use tc_gnn::gpusim::{DeviceSpec, KernelStats};
use tc_gnn::graph::CsrGraph;
use tc_gnn::oracle::Family;
use tc_gnn::serve::{
    poisson_trace, serve, LoadgenConfig, Outcome, ServableModel, ServeConfig, ServedGraph, Session,
};
use tc_gnn::sgt::TC_BLK_H;
use tc_gnn::tensor::{ops, DenseMatrix};

fn engine(g: &CsrGraph, backend: Backend) -> Engine {
    Engine::builder(g.clone())
        .backend(backend)
        .device(DeviceSpec::rtx3090())
        .build()
        .expect("graph is symmetric")
}

fn models(in_dim: usize, classes: usize, seed: u64) -> [ServableModel; 4] {
    [
        ServableModel::Gcn(GcnModel::new(in_dim, 16, classes, seed)),
        ServableModel::Agnn(AgnnModel::new(in_dim, 16, classes, 2, seed)),
        ServableModel::Sage(SageModel::new(in_dim, 16, classes, seed)),
        ServableModel::Gin(GinModel::new(in_dim, 16, classes, seed)),
    ]
}

/// Features in `[-1, 1)`, with about one row in sixteen holding a `±inf`
/// or NaN element.
fn features(n: usize, d: usize, seed: u64) -> DenseMatrix {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut x = DenseMatrix::from_fn(n, d, |_, _| rng.random_range(-1.0f32..1.0));
    for r in 0..n {
        if rng.random_range(0..16) == 0 {
            let special = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN][rng.random_range(0..3)];
            x.set(r, rng.random_range(0..d), special);
        }
    }
    x
}

fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.iter()
        .zip(b)
        .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn targeted_rows_equal_the_full_forward_bitwise(
        seed in 0u64..1_000_000, picks in 1usize..12,
    ) {
        for family in Family::ALL {
            let g = family.generate(seed);
            let n = g.num_nodes();
            let x = features(n, 12, seed ^ 0x5eed);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let targets: Vec<usize> = (0..picks).map(|_| rng.random_range(0..n)).collect();
            for backend in [Backend::TcGnn, Backend::Hybrid] {
                for model in models(12, 5, seed) {
                    let (full, _) = model.infer(&mut engine(&g, backend), &x);
                    let (part, _) = model.infer_targets(&mut engine(&g, backend), &x, &targets);
                    for &t in &targets {
                        prop_assert!(
                            same_bits(part.row(t), full.row(t)),
                            "{} {:?} on {} (seed {}): row {} is {:?}, full forward {:?}",
                            model.kind(), backend, family.name(), seed, t,
                            part.row(t), full.row(t)
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn a_served_trace_answers_with_the_full_forward_classes() {
    let g = Family::PowerLaw.generate(3);
    let n = g.num_nodes();
    let x = tc_gnn::tensor::init::uniform(n, 12, -1.0, 1.0, 4);
    for backend in [Backend::TcGnn, Backend::Hybrid] {
        let model = ServableModel::Sage(SageModel::new(12, 16, 5, 9));
        let (full, _) = model.infer(&mut engine(&g, backend), &x);
        let want = ops::argmax_rows(&full);
        let graph = ServedGraph {
            name: "powerlaw".into(),
            csr: g.clone(),
            features: x.clone(),
        };
        let mut session = Session::new(model, vec![graph], 2);
        let trace = poisson_trace(
            &[n],
            &LoadgenConfig {
                rate_rps: 20_000.0,
                requests: 64,
                deadline_ms: None,
                seed: 5,
                ..LoadgenConfig::default()
            },
        );
        let cfg = ServeConfig {
            backend,
            queue_capacity: 64,
            ..ServeConfig::default()
        };
        let report = serve(&mut session, &cfg, &trace, None);
        assert_eq!(report.answered, trace.len());
        for (req, resp) in trace.iter().zip(&report.responses) {
            match resp.outcome {
                Outcome::Served { class, .. } => assert_eq!(class, want[req.node], "{backend:?}"),
                ref other => panic!("request {} not served: {other:?}", req.id),
            }
        }
    }
}

#[test]
fn engines_that_cannot_skip_windows_run_the_full_forward() {
    let g = Family::PowerLaw.generate(11);
    let targets = [0, 1];
    for backend in [Backend::DglLike, Backend::PygLike] {
        let eng = engine(&g, backend);
        assert!(!eng.skips_windows());
        assert!(Demand::for_targets(&eng, &targets, 2).is_full());
    }
    let sharded = Engine::builder(g.clone())
        .devices(2)
        .build()
        .expect("graph is symmetric");
    assert!(Demand::for_targets(&sharded, &targets, 2).is_full());
    let mut eng = engine(&g, Backend::TcGnn);
    assert!(!Demand::for_targets(&eng, &targets, 2).is_full());
    eng.set_forced_fallback(true);
    assert!(Demand::for_targets(&eng, &targets, 2).is_full());
}

/// Two single windows with different geometry (the most and the fewest
/// TC blocks among non-empty windows).
fn two_windows(g: &CsrGraph, eng: &Engine) -> (WindowSet, WindowSet) {
    let t = eng.translation().expect("translating backend");
    let busy = (0..t.num_row_windows).filter(|&w| t.win_partition[w] > 0);
    let most = busy.clone().max_by_key(|&w| t.win_partition[w]).unwrap();
    let fewest = busy.min_by_key(|&w| t.win_partition[w]).unwrap();
    assert_ne!(t.win_partition[most], t.win_partition[fewest]);
    let set = |w: usize| WindowSet::of_rows([w * TC_BLK_H], g.num_nodes()).unwrap();
    (set(most), set(fewest))
}

#[test]
fn partial_launches_over_different_windows_get_their_own_stats() {
    let g = Family::PowerLaw.generate(5);
    let x = tc_gnn::tensor::init::uniform(g.num_nodes(), 16, -1.0, 1.0, 6);
    type Op = fn(&mut Engine, &DenseMatrix, &WindowSet) -> KernelStats;
    let spmm: Op = |eng, x, s| {
        eng.spmm_on(x, None, Some(s)).unwrap();
        eng.last_spmm_report.clone().unwrap().stats
    };
    let fused: Op = |eng, x, s| {
        eng.fused_attention_on(x, x, 0.5, Some(s)).unwrap();
        eng.last_fused_report.clone().unwrap().stats
    };
    for backend in [Backend::TcGnn, Backend::Hybrid] {
        let mut shared = engine(&g, backend);
        let (s1, s2) = two_windows(&g, &shared);
        for op in [spmm, fused] {
            let first = op(&mut shared, &x, &s1);
            let second = op(&mut shared, &x, &s2);
            assert_eq!(first.num_blocks, 1);
            assert_eq!(second.num_blocks, 1);
            assert_ne!(first, second, "{backend:?}: the two windows differ");
            assert_eq!(second, op(&mut engine(&g, backend), &x, &s2), "{backend:?}");
            let hits = shared.memo_hits();
            assert_eq!(op(&mut shared, &x, &s1), first, "{backend:?}");
            assert_eq!(
                shared.memo_hits(),
                hits,
                "a partial launch is never memoized"
            );
        }
    }
}

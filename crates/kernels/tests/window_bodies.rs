//! Pins the simulated charge sequence and output bits of every row-window
//! block body.
//!
//! The TCU and CUDA-core window bodies are shared between the pure kernels
//! and the hybrid launch, so a pure-vs-hybrid comparison only compares the
//! code with itself. These constants were recorded from the kernels before
//! the bodies were shared; each case asserts an FNV-1a hash of the output
//! `f32` bits, a hash of the full `KernelStats`, and the bits of the
//! simulated cycle count. A mismatch prints the current table, so an
//! intentional cost-model change can re-record it.

use tcg_gpusim::{DeviceSpec, KernelReport, Launcher};
use tcg_graph::{gen, CsrGraph};
use tcg_kernels::common::SpmmKernel;
use tcg_kernels::fused::fused_attention;
use tcg_kernels::sddmm::{CudaCoreSddmm, HybridSddmm, SddmmKernel, TcgnnSddmm};
use tcg_kernels::spmm::{CusparseCsrSpmm, HybridSpmm, TcgnnSpmm};
use tcg_kernels::{SpmmProblem, TcgError, WindowBackend};
use tcg_sgt::{Sgt, TranslatedGraph};
use tcg_tensor::init;

/// `case output-hash stats-hash cycles-bits`, the last three in hex.
const PINS: &[&str] = &[
    "community/d50/tcgnn-spmm/u 1b8b28985bb5cc2f a1cd968833edc6d0 40bd929579435e51",
    "community/d50/tcgnn-spmm/w 7681b0b89f200e00 c524e68aefc0db2f 40bf4bd579435e51",
    "community/d50/cusparse-spmm/u 809ebb6dbec62cfc a05ee38181324c68 40cf0726aaaaaaab",
    "community/d50/cusparse-spmm/w 7efa438ad633bac9 25e72d54c2e1dc62 40d0d8e0aaaaaaaa",
    "community/d50/hybrid-spmm/u 1b8b28985bb5cc2f a1cd968833edc6d0 40bd929579435e51",
    "community/d50/hybrid-spmm/w 7681b0b89f200e00 c524e68aefc0db2f 40bf4bd579435e51",
    "community/d50/hybrid-spmm-alt/u 3212d41476a85d1a d807ced649b11189 40bdd89bca1af286",
    "community/d50/hybrid-spmm-alt/w f973c09fb7ce9564 864d2e5850111b65 40bf28b1af286bca",
    "community/d50/tcgnn-sddmm caef6a40226f3b86 9ac598728605914a 40c1ed7a50d79436",
    "community/d50/cuda-sddmm 862fde2b7a599bd5 d8bd6fe1b761d0ba 40b97d05ddddddde",
    "community/d50/hybrid-sddmm 820e9db6445fd55e 0ccaab1b8c5fc104 40c1e9cf5e50d794",
    "community/d50/hybrid-sddmm-alt a1ee71bdc23d9a9b 551b12ddce55d7c8 40c1dbe86bca1af2",
    "community/d50/fused 0b4eeaaa6ff67912 52cd5a1f831f6fd8 40c407cef286bca2",
    "community/d16/tcgnn-spmm/u 0b9146f501b43313 ca721bf603532efb 40b7206b5e50d794",
    "community/d16/tcgnn-spmm/w 8076499e4b3ea561 021ea01437d7fcea 40b8d9ab5e50d794",
    "community/d16/cusparse-spmm/u d46d35c5f766e98d 8fcd3032ad4e807d 40c2da8955555556",
    "community/d16/cusparse-spmm/w 6a6d55e4c7a2cb86 6001c426832e9479 40c5852400000000",
    "community/d16/hybrid-spmm/u 0b9146f501b43313 ca721bf603532efb 40b7206b5e50d794",
    "community/d16/hybrid-spmm/w 8076499e4b3ea561 021ea01437d7fcea 40b8d9ab5e50d794",
    "community/d16/hybrid-spmm-alt/u cca61379725b3875 464df8a345a8ad79 40b76671af286bca",
    "community/d16/hybrid-spmm-alt/w 954a8ba19ad31a5b 051a2a8c66de50f9 40b8b6879435e50e",
    "community/d16/tcgnn-sddmm dfa4685d2a52b636 6e85e864ed30e713 40b9b91f9435e50e",
    "community/d16/cuda-sddmm a955e308bfa2bbf9 165bb6ea64444fa6 40b59a43bbbbbbbc",
    "community/d16/hybrid-sddmm a6e05aa2f3a75b2b 7d2ca69c1730d8fd 40b9b1c9af286bca",
    "community/d16/hybrid-sddmm-alt d6207492e7b1170a 7254edd1e730480f 40b995fbca1af287",
    "community/d16/fused 34e8f7eb3e50712b 0a813137252ffd3f 40bb0b1579435e51",
    "rmat/d50/tcgnn-spmm/u fcfef51176d4b59f 1e5f5b6f71de1fd0 40b927e06bca1af2",
    "rmat/d50/tcgnn-spmm/w 10526309316a2955 78d070cedbc02a92 40b991d4a1af286c",
    "rmat/d50/cusparse-spmm/u cb79f60c55b02faa c2c0083415bdfc30 40c5c67aaaaaaaaa",
    "rmat/d50/cusparse-spmm/w 254ad693b70441c2 c53c5b5e1a56a86e 40c65da000000000",
    "rmat/d50/hybrid-spmm/u fcfef51176d4b59f 1e5f5b6f71de1fd0 40b927e06bca1af2",
    "rmat/d50/hybrid-spmm/w 10526309316a2955 78d070cedbc02a92 40b991d4a1af286c",
    "rmat/d50/hybrid-spmm-alt/u e9d42feca2d6d7a0 253d34c81537bb99 40b93ca435e50d79",
    "rmat/d50/hybrid-spmm-alt/w 43a1a9e9834f25c1 80daf991b2a99c95 40b99961435e50d8",
    "rmat/d50/tcgnn-sddmm 6eed97f1d9327510 88cfacaa59645b31 40bea39800000000",
    "rmat/d50/cuda-sddmm 2f4ed68c9d892ae3 30ca35b5b446c6b4 40b5d98b33333333",
    "rmat/d50/hybrid-sddmm 8c320543afbc75f2 09a8f2001e0db655 40bc4349af286bca",
    "rmat/d50/hybrid-sddmm-alt 3077086aee65a3ce 3a927e34816e19b1 40bd20a50d79435e",
    "rmat/d50/fused a329e6ea6e5d4499 e76195c31838b72b 40c13932bca1af28",
    "rmat/d16/tcgnn-spmm/u 03cbf2c9e5ed9f50 8e24902d93802e20 40b56bb79435e50e",
    "rmat/d16/tcgnn-spmm/w 972ed88a836e0067 96841dfeff3d4102 40b5d5abca1af287",
    "rmat/d16/cusparse-spmm/u df902bc013b3cbe2 13e3e3e7a353f279 40bc98c800000000",
    "rmat/d16/cusparse-spmm/w 3ba12f1be593cbe1 7ede8f7cff3e3b75 40bdc712aaaaaaaa",
    "rmat/d16/hybrid-spmm/u 7562f9a8a3a1d00a 22dde6361253dfe9 40b56df435e50d79",
    "rmat/d16/hybrid-spmm/w 3650a9137df4854a 5542ff77306a7704 40b5d78bca1af287",
    "rmat/d16/hybrid-spmm-alt/u fdebe9cf63dfd321 d3294def3da2205b 40b5807b5e50d794",
    "rmat/d16/hybrid-spmm-alt/w a638669d039aeb16 e6052d5efbec313d 40b5dd386bca1af2",
    "rmat/d16/tcgnn-sddmm fa351bbf7dbcb4b2 119f5d917beb5f1a 40b750ee50d79436",
    "rmat/d16/cuda-sddmm b4e1e1cf4c6810e2 c9f4f8e13d6f3b45 40b452d19999999a",
    "rmat/d16/hybrid-sddmm 478c90c55ef56f32 8949798ce25a8abd 40b662b0d79435e5",
    "rmat/d16/hybrid-sddmm-alt 549f935c8c03f802 d9a4b3d43cbcd76a 40b6d6f2f286bca2",
    "rmat/d16/fused 8167efd2d2fe14e3 5a5917e7ef6d32e9 40b86cfa1af286bd",
];

fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        w.to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
    })
}

fn pin(case: String, out: &[f32], rep: &KernelReport) -> String {
    let stats = format!("{:?}", rep.stats);
    format!(
        "{case} {:016x} {:016x} {:016x}",
        fnv(out.iter().map(|v| v.to_bits() as u64)),
        fnv(stats.bytes().map(u64::from)),
        rep.cycles.to_bits(),
    )
}

fn alternating(t: &TranslatedGraph) -> Vec<WindowBackend> {
    (0..t.num_row_windows)
        .map(|w| [WindowBackend::Tcu, WindowBackend::CudaCore][w % 2])
        .collect()
}

fn cases(name: &str, g: &CsrGraph, d: usize) -> Vec<String> {
    let l = || Launcher::new(DeviceSpec::rtx3090());
    let n = g.num_nodes();
    let t = Sgt::builder().translate(g).unwrap();
    let x = init::uniform(n, d, -1.0, 1.0, 7);
    let y = init::uniform(n, d, -1.0, 1.0, 8);
    let vals: Vec<f32> = (0..g.num_edges())
        .map(|e| 0.05 + (e % 13) as f32 * 0.07)
        .collect();
    let mut pins = Vec::new();

    let spmm: [(&str, Box<dyn SpmmKernel>); 4] = [
        (
            "tcgnn-spmm",
            Box::new(TcgnnSpmm::from_translated(t.clone())),
        ),
        ("cusparse-spmm", Box::new(CusparseCsrSpmm)),
        (
            "hybrid-spmm",
            Box::new(HybridSpmm::from_translated(t.clone())),
        ),
        (
            "hybrid-spmm-alt",
            Box::new(HybridSpmm::from_translated(t.clone()).with_mask(alternating(&t))),
        ),
    ];
    for (kname, k) in &spmm {
        for (wname, v) in [("u", None), ("w", Some(vals.as_slice()))] {
            let prob = SpmmProblem::new(g, v, &x).unwrap();
            let (out, rep) = k.execute(&mut l(), &prob).unwrap();
            pins.push(pin(
                format!("{name}/d{d}/{kname}/{wname}"),
                out.as_slice(),
                &rep,
            ));
        }
    }

    let sddmm: [(&str, Box<dyn SddmmKernel>); 4] = [
        (
            "tcgnn-sddmm",
            Box::new(TcgnnSddmm::from_translated(t.clone())),
        ),
        ("cuda-sddmm", Box::new(CudaCoreSddmm)),
        (
            "hybrid-sddmm",
            Box::new(HybridSddmm::from_translated(t.clone())),
        ),
        (
            "hybrid-sddmm-alt",
            Box::new(HybridSddmm::from_translated(t.clone()).with_mask(alternating(&t))),
        ),
    ];
    for (kname, k) in &sddmm {
        let (out, rep) = k.execute(&mut l(), g, &x, &y).unwrap();
        pins.push(pin(format!("{name}/d{d}/{kname}"), &out, &rep));
    }

    let f = fused_attention(&mut l(), g, &t, &x, &y, 0.8).unwrap();
    let all: Vec<f32> = [f.y.as_slice(), &f.cos, &f.p].concat();
    pins.push(pin(format!("{name}/d{d}/fused"), &all, &f.report));
    pins
}

#[test]
fn window_bodies_match_pinned_charges() {
    let graphs = [
        ("community", gen::community(600, 6000, 8, 48, 21).unwrap()),
        ("rmat", gen::rmat_default(600, 1200, 22).unwrap()),
    ];
    let mut actual = Vec::new();
    for (name, g) in &graphs {
        for d in [50, 16] {
            actual.extend(cases(name, g, d));
        }
    }
    let drifted: Vec<&String> = actual
        .iter()
        .filter(|p| !PINS.contains(&p.as_str()))
        .collect();
    assert!(
        drifted.is_empty() && actual.len() == PINS.len(),
        "window bodies drifted from the pinned charges: {drifted:#?}\ncurrent table: {actual:#?}"
    );
}

#[test]
fn translation_geometry_the_kernels_cannot_run_is_a_typed_error() {
    let g = gen::community(200, 1600, 8, 32, 23).unwrap();
    let x = init::uniform(200, 16, -1.0, 1.0, 24);
    let prob = SpmmProblem::new(&g, None, &x).unwrap();
    let l = || Launcher::new(DeviceSpec::rtx3090());
    for t in [
        Sgt::builder().window(8).translate(&g).unwrap(),
        Sgt::builder().block_width(16).translate(&g).unwrap(),
    ] {
        let errs = [
            TcgnnSpmm::from_translated(t.clone())
                .execute(&mut l(), &prob)
                .err(),
            HybridSpmm::from_translated(t.clone())
                .execute(&mut l(), &prob)
                .err(),
            TcgnnSddmm::from_translated(t.clone())
                .execute(&mut l(), &g, &x, &x)
                .err(),
            HybridSddmm::from_translated(t.clone())
                .execute(&mut l(), &g, &x, &x)
                .err(),
            fused_attention(&mut l(), &g, &t, &x, &x, 1.0).err(),
        ];
        for (i, e) in errs.into_iter().enumerate() {
            assert!(
                matches!(
                    e,
                    Some(TcgError::InvalidInput {
                        what: "translation geometry",
                        ..
                    })
                ),
                "entry point {i} on a {}x{} translation: {e:?}",
                t.win_size,
                t.blk_w
            );
        }
    }
}

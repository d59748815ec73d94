//! Pins the simulated charges of the figure-only SpMM baselines and of the
//! PyG scatter SpMM, and checks that each computes cuSPARSE's output bits.
//!
//! GE-SpMM, Triton, tSparse and both Blocked-ELL kernels reach the paper's
//! figures only through their cost reports, and no engine runs them; the
//! scatter SpMM runs in the PyG engine. Each case asserts a hash of the
//! full `KernelStats` and the bits of the simulated cycle count, in
//! `window_bodies.rs`' format. A mismatch prints the current table, so an
//! intentional cost-model change can re-record it.
//!
//! On the RTX 3090's caches these small graphs rarely evict, so a change
//! in the order of a body's global loads leaves the hit and miss totals
//! alone. A second pass runs the `community` and `rmat` cases on the same
//! device with a 2 KiB L1 and a 16 KiB L2, where the counters do depend on
//! that order.

use tcg_gpusim::{DeviceSpec, KernelReport, Launcher};
use tcg_graph::{gen, CsrGraph};
use tcg_kernels::common::SpmmKernel;
use tcg_kernels::spmm::{
    BlockedEllSpmm, CondensedEllSpmm, CusparseCsrSpmm, GeSpmm, ScatterGatherSpmm,
    TritonBlockSparseSpmm, TsparseLikeSpmm,
};
use tcg_kernels::SpmmProblem;
use tcg_tensor::init;

/// `case stats-hash cycles-bits`, the last two in hex.
const PINS: &[&str] = &[
    "community/d50/ge-spmm/u bdfa5f14324a76bd 40ba7e5888888888",
    "community/d50/ge-spmm/w bc2df5cd4973c1b3 40baf0e111111111",
    "community/d50/scatter/u 1612b3096fe63310 40d5823b2d96cb66",
    "community/d50/scatter/w 71f7038b1a88b495 40d5903ed96cb65b",
    "community/d50/triton/u 717f0f782219d658 40bc0f146bca1af2",
    "community/d50/triton/w 717f0f782219d658 40bc0f146bca1af2",
    "community/d50/tsparse/u 529753e7d1204711 40c36d1c00000000",
    "community/d50/tsparse/w 529753e7d1204711 40c36d1c00000000",
    "community/d50/tsparse-t0/u 2dc9628668c0ee83 40c3fe950d79435e",
    "community/d50/tsparse-t0/w 2dc9628668c0ee83 40c3fe950d79435e",
    "community/d50/tsparse-tmax/u ca687b1659ef6f1f 40c2080fca1af286",
    "community/d50/tsparse-tmax/w ca687b1659ef6f1f 40c2080fca1af286",
    "community/d50/blocked-ell/u 3274b335fc6c3424 40c68cfd435e50d8",
    "community/d50/blocked-ell/w 3274b335fc6c3424 40c68cfd435e50d8",
    "community/d50/condensed-ell/u 91ca51d6a6236281 40c830c9af286bca",
    "community/d50/condensed-ell/w 91ca51d6a6236281 40c830c9af286bca",
    "community/d16/ge-spmm/u b040af6b46a424ff 40b61cfeeeeeeeef",
    "community/d16/ge-spmm/w e36feb2159bdfe5e 40b68f8777777778",
    "community/d16/scatter/u 022c447d5dcdb65f 40c2591000000000",
    "community/d16/scatter/w 2e9470e4bd39a513 40c2751757abd5eb",
    "community/d16/triton/u b19e94c46d304bb3 40be4752f286bca2",
    "community/d16/triton/w b19e94c46d304bb3 40be4752f286bca2",
    "community/d16/tsparse/u 681e1a69caba9267 40b9dd006bca1af2",
    "community/d16/tsparse/w 681e1a69caba9267 40b9dd006bca1af2",
    "community/d16/tsparse-t0/u 1abaf35600d5d723 40ba3d750d79435e",
    "community/d16/tsparse-t0/w 1abaf35600d5d723 40ba3d750d79435e",
    "community/d16/tsparse-tmax/u ee109d3a1528e416 40b88117286bca1b",
    "community/d16/tsparse-tmax/w ee109d3a1528e416 40b88117286bca1b",
    "community/d16/blocked-ell/u cae8df189f695eb0 40c176ba50d79436",
    "community/d16/blocked-ell/w cae8df189f695eb0 40c176ba50d79436",
    "community/d16/condensed-ell/u 5ab5a7a4fce70c06 40bf2ba79435e50e",
    "community/d16/condensed-ell/w 5ab5a7a4fce70c06 40bf2ba79435e50e",
    "rmat/d50/ge-spmm/u 2da1b35d5323c688 40b6b04222222222",
    "rmat/d50/ge-spmm/w 250bdad9ed699cce 40b6cdaaaaaaaaab",
    "rmat/d50/scatter/u 3bcbab0c3f591c61 40d64a0820000000",
    "rmat/d50/scatter/w 18919aaa90268f8a 40d6581820000000",
    "rmat/d50/triton/u ca00003e91dda1ba 40c5c460286bca1b",
    "rmat/d50/triton/w ca00003e91dda1ba 40c5c460286bca1b",
    "rmat/d50/tsparse/u 1a4fc619c5a3b174 40c74adca1af286c",
    "rmat/d50/tsparse/w 1a4fc619c5a3b174 40c74adca1af286c",
    "rmat/d50/tsparse-t0/u 819268f78f3e0343 40d23fa6a1af286c",
    "rmat/d50/tsparse-t0/w 819268f78f3e0343 40d23fa6a1af286c",
    "rmat/d50/tsparse-tmax/u 3d8f8e74eecfd1cd 40c6da010d79435e",
    "rmat/d50/tsparse-tmax/w 3d8f8e74eecfd1cd 40c6da010d79435e",
    "rmat/d50/blocked-ell/u af8e7945cfb3d282 40dae17179435e51",
    "rmat/d50/blocked-ell/w af8e7945cfb3d282 40dae17179435e51",
    "rmat/d50/condensed-ell/u 192fd39e7616cd82 40d8782be50d7943",
    "rmat/d50/condensed-ell/w 192fd39e7616cd82 40d8782be50d7943",
    "rmat/d16/ge-spmm/u aa6ccd5f06c64f70 40b4a31aaaaaaaab",
    "rmat/d16/ge-spmm/w 6caece1852751bf3 40b4c08333333333",
    "rmat/d16/scatter/u a2caf6eaadf96e1d 40c2c78300000000",
    "rmat/d16/scatter/w c72b2676ab7294b6 40c2e3a300000000",
    "rmat/d16/triton/u 83dd04751b236756 40c8e9a1af286bca",
    "rmat/d16/triton/w 83dd04751b236756 40c8e9a1af286bca",
    "rmat/d16/tsparse/u e21574be07a5d98d 40bb044650d79436",
    "rmat/d16/tsparse/w e21574be07a5d98d 40bb044650d79436",
    "rmat/d16/tsparse-t0/u 26113a07cb78d8f4 40c1d69fca1af286",
    "rmat/d16/tsparse-t0/w 26113a07cb78d8f4 40c1d69fca1af286",
    "rmat/d16/tsparse-tmax/u fd03549f6d26eb41 40baaf379435e50e",
    "rmat/d16/tsparse-tmax/w fd03549f6d26eb41 40baaf379435e50e",
    "rmat/d16/blocked-ell/u 7425aaa4b0603be4 40d531f10d79435e",
    "rmat/d16/blocked-ell/w 7425aaa4b0603be4 40d531f10d79435e",
    "rmat/d16/condensed-ell/u 9d1cbfdc1af8294c 40c4ce379435e50e",
    "rmat/d16/condensed-ell/w 9d1cbfdc1af8294c 40c4ce379435e50e",
    "hub/d16/ge-spmm/u cf405a6485018687 40c3afd5988cbc00",
    "hub/d16/ge-spmm/w 464619b28835248c 40c3fcd1b91b91ba",
    "hub/d16/scatter/u 8ecf18c60be2851d 40cfa131e7063e70",
    "hub/d16/scatter/w f243d597a7fc6d99 40cfda2700000000",
    "hub/d16/triton/u 1d4148ea0e2c225d 40e8454152bb512c",
    "hub/d16/triton/w 1d4148ea0e2c225d 40e8454152bb512c",
    "hub/d16/tsparse/u dab556c2b6cd5e18 40dcefdcd1004338",
    "hub/d16/tsparse/w dab556c2b6cd5e18 40dcefdcd1004338",
    "hub/d16/tsparse-t0/u ecc756d8352184d2 40dd40a767063e70",
    "hub/d16/tsparse-t0/w ecc756d8352184d2 40dd40a767063e70",
    "hub/d16/tsparse-tmax/u dab556c2b6cd5e18 40dcefdcd1004338",
    "hub/d16/tsparse-tmax/w dab556c2b6cd5e18 40dcefdcd1004338",
    "hub/d16/blocked-ell/u d8526539477c03e7 4148e69d00f3831f",
    "hub/d16/blocked-ell/w d8526539477c03e7 4148e69d00f3831f",
    "hub/d16/condensed-ell/u eecee9ad6466af1b 410a8c21f63e7064",
    "hub/d16/condensed-ell/w eecee9ad6466af1b 410a8c21f63e7064",
];

/// The small-cache pass ([`small_caches`]), in the format of [`PINS`].
const SMALL_CACHE_PINS: &[&str] = &[
    "community/d50/ge-spmm/u 6662597450d09e82 40becf9222222222",
    "community/d50/ge-spmm/w ba5470d5e3291ac1 40bf78a555555556",
    "community/d50/scatter/u 9cb80b00e69ebe81 40d60811eaf57abd",
    "community/d50/scatter/w 9a4bbd3d9894bc0f 40d6161596cb65b3",
    "community/d50/triton/u 6d3d764c787320ea 40bd57a9ca1af286",
    "community/d50/triton/w 6d3d764c787320ea 40bd57a9ca1af286",
    "community/d50/tsparse/u 15ba7c763fc17148 40c6387abca1af28",
    "community/d50/tsparse/w 15ba7c763fc17148 40c6387abca1af28",
    "community/d50/tsparse-t0/u 9641f0b23d1f4edd 40c765aaf286bca2",
    "community/d50/tsparse-t0/w 9641f0b23d1f4edd 40c765aaf286bca2",
    "community/d50/tsparse-tmax/u 8eb72aa84c6f5e95 40c38ec2bca1af28",
    "community/d50/tsparse-tmax/w 8eb72aa84c6f5e95 40c38ec2bca1af28",
    "community/d50/blocked-ell/u 530d9b2977315d52 40d453a635e50d7a",
    "community/d50/blocked-ell/w 530d9b2977315d52 40d453a635e50d7a",
    "community/d50/condensed-ell/u c430d373066e249f 40cd9e90d79435e5",
    "community/d50/condensed-ell/w c430d373066e249f 40cd9e90d79435e5",
    "community/d16/ge-spmm/u cb01cad80818b5d2 40b6285ccccccccd",
    "community/d16/ge-spmm/w 79d802bb512f6bf4 40b6a39aaaaaaaab",
    "community/d16/scatter/u a059c1aec0c3be31 40c25a85b2d96cb6",
    "community/d16/scatter/w b9e03a2fbeac8932 40c2768d0a8542a1",
    "community/d16/triton/u ec9039983da68def 40be511800000000",
    "community/d16/triton/w ec9039983da68def 40be511800000000",
    "community/d16/tsparse/u f48e86449892e0af 40b9e015e50d7943",
    "community/d16/tsparse/w f48e86449892e0af 40b9e015e50d7943",
    "community/d16/tsparse-t0/u efb4b48cd2f5cd84 40ba41721af286bc",
    "community/d16/tsparse-t0/w efb4b48cd2f5cd84 40ba41721af286bc",
    "community/d16/tsparse-tmax/u ee109d3a1528e416 40b88117286bca1b",
    "community/d16/tsparse-tmax/w ee109d3a1528e416 40b88117286bca1b",
    "community/d16/blocked-ell/u 6bd36ac7a3d971b6 40c1a0ea50d79436",
    "community/d16/blocked-ell/w 6bd36ac7a3d971b6 40c1a0ea50d79436",
    "community/d16/condensed-ell/u 97b6355d638f1fa2 40bf2c0435e50d7a",
    "community/d16/condensed-ell/w 97b6355d638f1fa2 40bf2c0435e50d7a",
    "rmat/d50/ge-spmm/u 743021cd66e9f2e4 40b7ad0222222222",
    "rmat/d50/ge-spmm/w f1ae28bdfa80ca82 40b7d51555555555",
    "rmat/d50/scatter/u 99c78e5729d4c74e 40d6ee90c0000000",
    "rmat/d50/scatter/w 2de096fd8abe5e40 40d6ff1940000000",
    "rmat/d50/triton/u e978137f193094fa 40ce505650d79436",
    "rmat/d50/triton/w e978137f193094fa 40ce505650d79436",
    "rmat/d50/tsparse/u ddd3072f3a879763 40c967135e50d794",
    "rmat/d50/tsparse/w ddd3072f3a879763 40c967135e50d794",
    "rmat/d50/tsparse-t0/u 80659852a691ec91 40dfbd7baf286bca",
    "rmat/d50/tsparse-t0/w 80659852a691ec91 40dfbd7baf286bca",
    "rmat/d50/tsparse-tmax/u 0b5423c09ce66ebb 40c840faf286bca2",
    "rmat/d50/tsparse-tmax/w 0b5423c09ce66ebb 40c840faf286bca2",
    "rmat/d50/blocked-ell/u 25d8eb9a2a2475bd 40f87d579435e50d",
    "rmat/d50/blocked-ell/w 25d8eb9a2a2475bd 40f87d579435e50d",
    "rmat/d50/condensed-ell/u ceb4d0d3ce354b4f 40da2df15e50d794",
    "rmat/d50/condensed-ell/w ceb4d0d3ce354b4f 40da2df15e50d794",
    "rmat/d16/ge-spmm/u 3549e5be873381cb 40b4cd6444444444",
    "rmat/d16/ge-spmm/w 1bcd80ddf40d524f 40b4ef3aaaaaaaab",
    "rmat/d16/scatter/u ce7bffb2147ed581 40c2ffeb00000000",
    "rmat/d16/scatter/w a16ad57084c70ec8 40c31ebd00000000",
    "rmat/d16/triton/u 93d18866af73bd47 40cd316686bca1af",
    "rmat/d16/triton/w 93d18866af73bd47 40cd316686bca1af",
    "rmat/d16/tsparse/u d781f46fc2b54457 40bb4fea86bca1af",
    "rmat/d16/tsparse/w d781f46fc2b54457 40bb4fea86bca1af",
    "rmat/d16/tsparse-t0/u c4f0e6ee0b9356f0 40c516da50d79436",
    "rmat/d16/tsparse-t0/w c4f0e6ee0b9356f0 40c516da50d79436",
    "rmat/d16/tsparse-tmax/u a61d66da07bc467f 40baf26de50d7944",
    "rmat/d16/tsparse-tmax/w a61d66da07bc467f 40baf26de50d7944",
    "rmat/d16/blocked-ell/u 2abfab1b41a6c39b 40d826c250d79436",
    "rmat/d16/blocked-ell/w 2abfab1b41a6c39b 40d826c250d79436",
    "rmat/d16/condensed-ell/u f2f68cad6d8974cc 40c5085579435e51",
    "rmat/d16/condensed-ell/w f2f68cad6d8974cc 40c5085579435e51",
];

fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        w.to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
    })
}

fn pin(case: String, rep: &KernelReport) -> String {
    let stats = format!("{:?}", rep.stats);
    format!(
        "{case} {:016x} {:016x}",
        fnv(stats.bytes().map(u64::from)),
        rep.cycles.to_bits(),
    )
}

/// The graphs: two generator families, plus a hub graph whose raw
/// Blocked-ELL layout (one block row touching every column block) is wide
/// enough that the kernel charges its padding slots in bulk.
fn graphs() -> Vec<(&'static str, CsrGraph)> {
    let n = 20_000;
    let mut ptr = vec![0usize];
    let mut edges: Vec<u32> = (0..n as u32).step_by(16).collect();
    ptr.push(edges.len());
    for v in 1..n {
        edges.push(((v * 37) % n) as u32);
        ptr.push(edges.len());
    }
    vec![
        ("community", gen::community(600, 6000, 8, 48, 21).unwrap()),
        ("rmat", gen::rmat_default(600, 1200, 22).unwrap()),
        ("hub", CsrGraph::from_raw(n, ptr, edges).unwrap()),
    ]
}

fn kernels(g: &CsrGraph) -> Vec<(&'static str, Box<dyn SpmmKernel>)> {
    vec![
        ("ge-spmm", Box::new(GeSpmm)),
        ("scatter", Box::new(ScatterGatherSpmm)),
        ("triton", Box::new(TritonBlockSparseSpmm)),
        ("tsparse", Box::new(TsparseLikeSpmm::default())),
        (
            "tsparse-t0",
            Box::new(TsparseLikeSpmm { dense_threshold: 0 }),
        ),
        (
            "tsparse-tmax",
            Box::new(TsparseLikeSpmm {
                dense_threshold: usize::MAX,
            }),
        ),
        ("blocked-ell", Box::new(BlockedEllSpmm::default())),
        ("condensed-ell", Box::new(CondensedEllSpmm::new(g))),
    ]
}

/// The RTX 3090 with a 2 KiB L1 per SM and a 16 KiB L2.
fn small_caches() -> DeviceSpec {
    DeviceSpec {
        l1_bytes_per_sm: 2048,
        l2_bytes: 16384,
        ..DeviceSpec::rtx3090()
    }
}

/// Runs every kernel on `g` at width `d` on `device`, without and with
/// edge values, handing each case's name, output and report to `check`
/// together with cuSPARSE's output on the same problem.
fn run_cases(
    device: &DeviceSpec,
    name: &str,
    g: &CsrGraph,
    d: usize,
    mut check: impl FnMut(String, &[f32], &KernelReport, &[f32]),
) {
    let x = init::uniform(g.num_nodes(), d, -1.0, 1.0, 7);
    let vals: Vec<f32> = (0..g.num_edges())
        .map(|e| 0.05 + (e % 13) as f32 * 0.07)
        .collect();
    let run = |k: &dyn SpmmKernel, v| {
        let prob = SpmmProblem::new(g, v, &x).unwrap();
        k.execute(&mut Launcher::new(device.clone()), &prob)
            .unwrap()
    };
    for (wname, v) in [("u", None), ("w", Some(vals.as_slice()))] {
        let (reference, _) = run(&CusparseCsrSpmm, v);
        for (kname, k) in kernels(g) {
            let (out, rep) = run(k.as_ref(), v);
            let case = format!("{name}/d{d}/{kname}/{wname}");
            check(case, out.as_slice(), &rep, reference.as_slice());
        }
    }
}

/// The widths each graph runs at: the hub graph at one width only.
fn widths(name: &str) -> &'static [usize] {
    if name == "hub" {
        &[16]
    } else {
        &[50, 16]
    }
}

/// Pins every case on `device` of the graphs `keep` admits against `pins`.
fn check_pins(device: &DeviceSpec, keep: impl Fn(&str) -> bool, pins: &[&str]) {
    let mut actual = Vec::new();
    for (name, g) in graphs().iter().filter(|(name, _)| keep(name)) {
        for &d in widths(name) {
            run_cases(device, name, g, d, |case, _, rep, _| {
                actual.push(pin(case, rep))
            });
        }
    }
    let drifted: Vec<&String> = actual
        .iter()
        .filter(|p| !pins.contains(&p.as_str()))
        .collect();
    assert!(
        drifted.is_empty() && actual.len() == pins.len(),
        "baselines drifted from the pinned charges: {drifted:#?}\ncurrent table: {actual:#?}"
    );
}

#[test]
fn baselines_match_pinned_charges() {
    check_pins(&DeviceSpec::rtx3090(), |_| true, PINS);
}

#[test]
fn baselines_match_pinned_charges_on_small_caches() {
    check_pins(&small_caches(), |name| name != "hub", SMALL_CACHE_PINS);
}

/// Every baseline computes its outputs with the CUDA-core row loop, each
/// row's edges in CSR order, so each equals cuSPARSE bit for bit.
#[test]
fn baselines_compute_cusparse_bits() {
    let bits = |s: &[f32]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let mut differ = Vec::new();
    for (name, g) in &graphs() {
        for &d in widths(name) {
            run_cases(
                &DeviceSpec::rtx3090(),
                name,
                g,
                d,
                |case, out, _, reference| {
                    if bits(out) != bits(reference) {
                        differ.push(case);
                    }
                },
            );
        }
    }
    assert!(
        differ.is_empty(),
        "outputs differ from cuSPARSE's bits: {differ:#?}"
    );
}

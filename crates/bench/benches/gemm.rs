//! Criterion benchmarks of the dense substrate: CPU GEMM variants and the
//! staged-tile `m16n16k8` MMA that the TCU kernels' MMAs reproduce.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use tcg_oracle::refmodel::mma_m16n16k8;
use tcg_tensor::gemm::{gemm, gemm_a_bt, gemm_at_b, gemm_naive, gemm_tf32};
use tcg_tensor::init;

fn bench_gemm(c: &mut Criterion) {
    let a = init::uniform(256, 256, -1.0, 1.0, 1);
    let b = init::uniform(256, 256, -1.0, 1.0, 2);
    let mut group = c.benchmark_group("gemm_256");
    group.sample_size(10);
    group.bench_function("blocked", |bch| {
        bch.iter(|| black_box(gemm(&a, &b).unwrap()))
    });
    group.bench_function("naive", |bch| {
        bch.iter(|| black_box(gemm_naive(&a, &b).unwrap()))
    });
    group.bench_function("tf32", |bch| {
        bch.iter(|| black_box(gemm_tf32(&a, &b).unwrap()))
    });
    group.finish();

    // The update GEMMs of GCN layer 1 on Cora: forward `X·W` and the
    // weight gradient `Xᵀ·dY`, with 2708 nodes, 1433 features, hidden 16.
    let x = init::uniform(2708, 1433, -1.0, 1.0, 5);
    let w = init::uniform(1433, 16, -1.0, 1.0, 6);
    let dy = init::uniform(2708, 16, -1.0, 1.0, 7);
    let mut group = c.benchmark_group("gemm_cora_update");
    group.sample_size(15);
    group.bench_function("xw_2708x1433x16", |bch| {
        bch.iter(|| black_box(gemm(black_box(&x), black_box(&w)).unwrap()))
    });
    group.bench_function("xt_dy_1433x2708x16", |bch| {
        bch.iter(|| black_box(gemm_at_b(black_box(&x), black_box(&dy)).unwrap()))
    });
    group.finish();

    // The input gradient `dY·Wᵀ` of AGNN's output layer on PPI ÷16, with
    // 3559 nodes, hidden 32 and 121 classes.
    let dy = init::uniform(3559, 121, -1.0, 1.0, 8);
    let w = init::uniform(32, 121, -1.0, 1.0, 9);
    let mut group = c.benchmark_group("gemm_ppi_input_grad");
    group.sample_size(15);
    group.bench_function("dy_wt_3559x121x32", |bch| {
        bch.iter(|| black_box(gemm_a_bt(black_box(&dy), black_box(&w)).unwrap()))
    });
    group.finish();

    let ta = init::uniform(16, 8, -1.0, 1.0, 3);
    let tb = init::uniform(8, 16, -1.0, 1.0, 4);
    let a: [f32; 128] = ta.as_slice().try_into().unwrap();
    let b: [f32; 128] = tb.as_slice().try_into().unwrap();
    c.bench_function("wmma_mma_m16n16k8", |bch| {
        bch.iter(|| {
            let mut acc = [0.0f32; 256];
            mma_m16n16k8(&mut acc, black_box(&a), black_box(&b));
            black_box(acc)
        })
    });
}

criterion_group!(benches, bench_gemm);
criterion_main!(benches);

//! Roofline timing analysis: turns [`KernelStats`] into simulated time.
//!
//! The model takes the maximum over independent hardware pipes — CUDA-core
//! arithmetic, tensor-core arithmetic, instruction issue, shared-memory
//! throughput, DRAM bandwidth, L2 bandwidth — plus an *exposed memory
//! latency* term: the sum of per-transaction latencies divided by the
//! in-flight request capacity implied by achieved occupancy. Low-occupancy
//! or low-intensity sparse kernels (the paper's §3.1 diagnosis of cuSPARSE
//! SpMM) end up latency-bound; well-staged TCU kernels end up bandwidth- or
//! tensor-bound. A fixed launch overhead charges each kernel, which is what
//! penalizes frameworks that issue many small kernels.

use crate::device::DeviceSpec;
use crate::occupancy::occupancy;
use crate::stats::{KernelReport, KernelStats, PipeCycles};

/// Fixed cost of launching a kernel, in device cycles (≈3 µs at 1.7 GHz —
/// driver + grid scheduling).
pub const LAUNCH_OVERHEAD_CYCLES: f64 = 5_000.0;

/// Atomic units the L2 ROPs retire per SM per cycle.
const ATOMICS_PER_SM_CYCLE: f64 = 2.0;

/// Analyzes one kernel launch.
pub fn analyze(device: &DeviceSpec, stats: &KernelStats) -> KernelReport {
    let occ = occupancy(
        device,
        stats.num_blocks.max(1),
        stats.block_size.max(32),
        stats.shared_mem_per_block,
        stats.regs_per_thread.max(32),
    );
    // SMs that actually receive work.
    let parallel_sms = (stats.num_blocks.max(1) as f64).min(device.num_sms as f64);

    // --- Throughput pipes -------------------------------------------------
    // CUDA cores: FMA retires 2 FLOPs per lane-cycle; int/address ALU ops
    // share the same issue bandwidth on Ampere (FP32+INT dual-issue halves
    // this in reality; folding INT at full lane rate is a wash for ordering).
    let lane_cycles = stats.fp32_flops as f64 / 2.0 + stats.int_ops as f64;
    let cuda_core = lane_cycles / (device.fp32_lanes_per_sm as f64 * parallel_sms);

    let tensor_core = stats.tcu_flops as f64
        / (device.tcu_flops_per_cycle as f64 * device.tcu_per_sm as f64 * parallel_sms);

    let issue = stats.warp_instructions as f64 / (device.schedulers_per_sm as f64 * parallel_sms);

    // Shared memory: one warp-wide transaction per SM per cycle.
    let shared = stats.shared_transactions as f64 / parallel_sms;

    // --- Memory system -----------------------------------------------------
    let dram_bandwidth = stats.dram_bytes() as f64 / device.dram_bytes_per_cycle();
    let l2_bytes = (stats.l2_hits + stats.l2_misses) as f64 * crate::cache::SECTOR_BYTES as f64
        + stats.dram_write_bytes as f64;
    let l2_bandwidth = l2_bytes / device.l2_bytes_per_cycle();

    // Exposed latency: long-latency transaction time divided by in-flight
    // capacity. L1 hits are excluded — their ~30-cycle latency pipelines
    // under even modest occupancy; L2 hits and DRAM fetches are what stall
    // warps. In-flight capacity is resident warps × per-warp MLP, capped by
    // the SMs' outstanding-request (MSHR) depth. This is the term that makes
    // irregular low-occupancy kernels slow even when bandwidth is idle.
    let total_latency = stats.l2_hits as f64 * device.l2_latency_cycles as f64
        + stats.l2_misses as f64 * device.dram_latency_cycles as f64
        + stats.atomic_ops as f64 * device.l2_latency_cycles as f64;
    // `achieved` is averaged over every SM (a grid smaller than the device
    // leaves some idle), so it scales by the SM count, not by the busy SMs.
    let resident_warps =
        (occ.achieved * device.max_warps_per_sm as f64 * device.num_sms as f64).max(1.0);
    let in_flight = (resident_warps * device.mlp_per_warp as f64)
        .min(parallel_sms * device.max_outstanding_per_sm as f64)
        .max(1.0);
    let memory_latency = total_latency / in_flight;

    // Atomic throughput (serialization at the L2 ROPs).
    let atomic_tp = stats.atomic_ops as f64 / (ATOMICS_PER_SM_CYCLE * parallel_sms);

    let pipes = PipeCycles {
        cuda_core,
        tensor_core,
        dram_bandwidth,
        l2_bandwidth,
        memory_latency: memory_latency + atomic_tp,
        issue,
        shared,
    };

    let candidates = [
        ("cuda-core", pipes.cuda_core),
        ("tensor-core", pipes.tensor_core),
        ("dram-bandwidth", pipes.dram_bandwidth),
        ("l2-bandwidth", pipes.l2_bandwidth),
        ("memory-latency", pipes.memory_latency),
        ("issue", pipes.issue),
        ("shared-memory", pipes.shared),
    ];
    let (bound_by, max_cycles) =
        candidates
            .iter()
            .fold(("launch-overhead", 0.0_f64), |acc, &(n, c)| {
                if c > acc.1 {
                    (n, c)
                } else {
                    acc
                }
            });

    let cycles = max_cycles + LAUNCH_OVERHEAD_CYCLES;
    KernelReport {
        time_ms: device.cycles_to_ms(cycles),
        cycles,
        occupancy: occ.achieved,
        l1_hit_rate: stats.l1_hit_rate(),
        bound_by: bound_by.to_string(),
        pipe_cycles: pipes,
        stats: stats.clone(),
    }
}

/// Simulated time of a dense GEMM of shape `m×k·k×n` executed with a
/// cuBLAS-class kernel, *without* functional execution.
///
/// Used for the GNN *Update* phase (dense `X·W`), whose cost is standard and
/// whose values the framework computes on the CPU anyway: FLOPs at the given
/// pipe's efficiency plus mandatory traffic, roofline-combined. `on_tcu`
/// selects tensor-core (cublasSgemmEX/TF-32) vs CUDA-core execution.
pub fn dense_gemm_report(
    device: &DeviceSpec,
    m: usize,
    k: usize,
    n: usize,
    on_tcu: bool,
) -> KernelReport {
    let flops = 2.0 * m as f64 * k as f64 * n as f64;
    // cuBLAS sustains ~85% of peak on large square shapes; skinny output
    // panels (the GNN update's n = 16..32) run split-K kernels that keep
    // the device busy but lose tile efficiency.
    let smallest = m.min(n).max(1) as f64;
    let eff = (0.85 * (smallest / 128.0).min(1.0)).max(0.20);
    let peak = if on_tcu {
        device.tcu_flops_per_cycle_total()
    } else {
        device.fp32_flops_per_cycle()
    };
    let compute_cycles = flops / (eff * peak);

    // Mandatory traffic: read A and B, write C once (tiled reuse).
    let read_bytes = 4.0 * (m as f64 * k as f64 + k as f64 * n as f64);
    let write_bytes = 4.0 * m as f64 * n as f64;
    let mem_cycles = (read_bytes + write_bytes) / device.dram_bytes_per_cycle();

    let cycles = compute_cycles.max(mem_cycles) + LAUNCH_OVERHEAD_CYCLES;
    let bound_by = if compute_cycles > mem_cycles {
        if on_tcu {
            "tensor-core"
        } else {
            "cuda-core"
        }
    } else {
        "dram-bandwidth"
    };

    let mut stats = KernelStats {
        // Split-K fills the device even for skinny outputs.
        num_blocks: ((m.div_ceil(64) * n.div_ceil(64)) as u64).max(2 * device.num_sms as u64),
        block_size: 256,
        shared_mem_per_block: 32 * 1024,
        regs_per_thread: 64,
        warp_instructions: (flops / 512.0) as u64,
        gl_load_transactions: (read_bytes / 32.0) as u64,
        gl_store_transactions: (write_bytes / 32.0) as u64,
        dram_read_bytes: read_bytes as u64,
        dram_write_bytes: write_bytes as u64,
        ..Default::default()
    };
    if on_tcu {
        stats.tcu_flops = flops as u64;
        stats.tcu_mma_instructions = (flops / 4096.0) as u64;
    } else {
        stats.fp32_flops = flops as u64;
    }
    KernelReport {
        time_ms: device.cycles_to_ms(cycles),
        cycles,
        occupancy: 0.5,
        l1_hit_rate: 0.8,
        bound_by: bound_by.to_string(),
        pipe_cycles: crate::stats::PipeCycles {
            cuda_core: if on_tcu { 0.0 } else { compute_cycles },
            tensor_core: if on_tcu { compute_cycles } else { 0.0 },
            dram_bandwidth: mem_cycles,
            ..Default::default()
        },
        stats,
    }
}

/// Simulated time of a streaming elementwise kernel that reads
/// `read_bytes` and writes `write_bytes` with trivial arithmetic — the
/// degree-normalization scalings, activation functions, permutation
/// gathers and materialization passes GNN frameworks launch between the
/// sparse kernels. Bandwidth-bound with full launch overhead.
pub fn stream_pass_report(device: &DeviceSpec, read_bytes: u64, write_bytes: u64) -> KernelReport {
    let elems = ((read_bytes + write_bytes) / 4).max(1);
    let stats = KernelStats {
        num_blocks: elems.div_ceil(1024).max(1),
        block_size: 256,
        warp_instructions: elems.div_ceil(32) * 2,
        fp32_flops: elems,
        gl_load_transactions: read_bytes.div_ceil(32),
        l2_misses: read_bytes.div_ceil(32),
        dram_read_bytes: read_bytes,
        gl_store_transactions: write_bytes.div_ceil(32),
        dram_write_bytes: write_bytes,
        ..Default::default()
    };
    analyze(device, &stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> DeviceSpec {
        DeviceSpec::rtx3090()
    }

    #[test]
    fn stream_pass_is_bandwidth_bound_at_scale() {
        let r = stream_pass_report(&dev(), 468_000_000, 468_000_000);
        assert!((r.time_ms - 1.0).abs() < 0.4, "{}", r.time_ms);
        let tiny = stream_pass_report(&dev(), 1024, 1024);
        assert!(tiny.cycles >= LAUNCH_OVERHEAD_CYCLES);
    }

    #[test]
    fn a_small_grid_keeps_every_block_in_flight() {
        // The same misses per block on 6 blocks and on one full wave: each
        // block's warps stay resident either way, so the small grid hides
        // latency exactly as well.
        let grid = |blocks: u64| KernelStats {
            num_blocks: blocks,
            block_size: 256,
            l2_misses: blocks * 64,
            ..Default::default()
        };
        let small = analyze(&dev(), &grid(6)).pipe_cycles.memory_latency;
        let full = analyze(&dev(), &grid(82)).pipe_cycles.memory_latency;
        assert!((small - full).abs() <= 1e-9 * full, "{small} vs {full}");
    }

    #[test]
    fn compute_bound_kernel_times_near_peak() {
        // 35.6 TFLOPS worth of FMA for 1 ms, perfectly parallel.
        let stats = KernelStats {
            num_blocks: 10_000,
            block_size: 256,
            fp32_flops: 35_600_000_000, // 1 ms at peak
            warp_instructions: 35_600_000_000 / 64,
            ..Default::default()
        };
        let r = analyze(&dev(), &stats);
        assert_eq!(r.bound_by, "cuda-core");
        assert!((r.time_ms - 1.0).abs() < 0.2, "time {}", r.time_ms);
    }

    #[test]
    fn tcu_outruns_cuda_core_for_same_flops() {
        let mk = |tcu: bool| {
            let mut s = KernelStats {
                num_blocks: 10_000,
                block_size: 256,
                ..Default::default()
            };
            if tcu {
                s.tcu_flops = 10_000_000_000;
                s.tcu_mma_instructions = s.tcu_flops / 4096;
                s.warp_instructions = s.tcu_mma_instructions;
            } else {
                s.fp32_flops = 10_000_000_000;
                s.warp_instructions = s.fp32_flops / 64;
            }
            analyze(&dev(), &s)
        };
        let (t_tcu, t_cuda) = (mk(true).time_ms, mk(false).time_ms);
        // On GA102 the TF-32 TCU peak ≈ FP32 peak, but TCU needs ~64× fewer
        // instructions; with issue pressure folded in, TCU should not lose.
        assert!(t_tcu <= t_cuda * 1.05, "tcu {t_tcu} vs cuda {t_cuda}");
    }

    #[test]
    fn bandwidth_bound_kernel() {
        // Move 936 MB with trivial compute: ~1 ms at 936 GB/s.
        let stats = KernelStats {
            num_blocks: 50_000,
            block_size: 256,
            dram_read_bytes: 936_000_000,
            l2_misses: 936_000_000 / 32,
            warp_instructions: 1000,
            ..Default::default()
        };
        let r = analyze(&dev(), &stats);
        assert_eq!(r.bound_by, "dram-bandwidth");
        assert!((r.time_ms - 1.0).abs() < 0.3, "time {}", r.time_ms);
    }

    #[test]
    fn low_occupancy_exposes_latency() {
        // Same scattered loads; tiny grid vs large grid.
        let base = KernelStats {
            block_size: 128,
            l2_misses: 200_000,
            gl_load_transactions: 200_000,
            warp_instructions: 10_000,
            ..Default::default()
        };
        let small = KernelStats {
            num_blocks: 20,
            ..base.clone()
        };
        let large = KernelStats {
            num_blocks: 20_000,
            ..base
        };
        let t_small = analyze(&dev(), &small).time_ms;
        let t_large = analyze(&dev(), &large).time_ms;
        assert!(
            t_small > 3.0 * t_large,
            "low occupancy should be slower: {t_small} vs {t_large}"
        );
    }

    #[test]
    fn atomics_serialize() {
        let mk = |atomics: u64| {
            analyze(
                &dev(),
                &KernelStats {
                    num_blocks: 5_000,
                    block_size: 256,
                    atomic_ops: atomics,
                    warp_instructions: 10_000,
                    ..Default::default()
                },
            )
            .time_ms
        };
        assert!(mk(10_000_000) > 2.0 * mk(100_000));
    }

    #[test]
    fn launch_overhead_floors_tiny_kernels() {
        let r = analyze(
            &dev(),
            &KernelStats {
                num_blocks: 1,
                block_size: 32,
                warp_instructions: 10,
                ..Default::default()
            },
        );
        assert!(r.cycles >= LAUNCH_OVERHEAD_CYCLES);
        assert!(r.time_ms > 0.0);
    }

    #[test]
    fn dense_gemm_large_square_near_peak() {
        // 4096³ GEMM: 137 GFLOP. At ~80% of 35.6 TFLOPS ⇒ ~4.8 ms.
        let r = dense_gemm_report(&dev(), 4096, 4096, 4096, false);
        assert!(
            (3.0..8.0).contains(&r.time_ms),
            "4096^3 GEMM time {}",
            r.time_ms
        );
        let r_tcu = dense_gemm_report(&dev(), 4096, 4096, 4096, true);
        assert!(r_tcu.time_ms <= r.time_ms * 1.05);
    }

    #[test]
    fn dense_gemm_skinny_is_inefficient() {
        // N=16 panel: efficiency clamps low, time >> flops/peak.
        let r = dense_gemm_report(&dev(), 100_000, 128, 16, false);
        let ideal_ms = 2.0 * 100_000.0 * 128.0 * 16.0 / 35.6e12 * 1e3;
        assert!(r.time_ms > 2.0 * ideal_ms);
    }
}

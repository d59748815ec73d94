//! CUDA occupancy calculation.
//!
//! Replicates the standard occupancy calculator: resident blocks per SM are
//! limited by the block-count cap, thread capacity, shared memory and
//! registers; occupancy is resident warps over the SM's warp capacity.
//! Table 1's "Occ." column and the latency-hiding term of the cost model
//! both come from here.

use crate::device::DeviceSpec;

/// Result of the occupancy calculation for one launch configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Occupancy {
    /// Thread blocks resident per SM.
    pub blocks_per_sm: u32,
    /// Warps resident per SM.
    pub warps_per_sm: u32,
    /// `warps_per_sm / max_warps_per_sm`, the theoretical occupancy.
    pub theoretical: f64,
    /// Occupancy adjusted for grids too small to fill the device.
    pub achieved: f64,
    /// Which resource limited residency.
    pub limiter: Limiter,
}

/// The resource that capped blocks-per-SM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Limiter {
    /// Hardware cap on resident blocks.
    BlockSlots,
    /// Thread/warp capacity.
    Threads,
    /// Shared-memory capacity.
    SharedMemory,
    /// Register file capacity.
    Registers,
    /// The grid itself has too few blocks.
    GridSize,
}

/// Computes occupancy for a launch of `num_blocks` blocks of `block_size`
/// threads using `smem_per_block` bytes and `regs_per_thread` registers.
///
/// `block_size` of zero is treated as one warp.
pub fn occupancy(
    device: &DeviceSpec,
    num_blocks: u64,
    block_size: u32,
    smem_per_block: usize,
    regs_per_thread: u32,
) -> Occupancy {
    let block_size = block_size.max(1).min(device.max_threads_per_block);
    let warps_per_block = block_size.div_ceil(device.warp_size);

    let by_slots = device.max_blocks_per_sm;
    let by_threads = device.max_warps_per_sm / warps_per_block;
    let by_smem = device
        .shared_mem_per_sm
        .checked_div(smem_per_block)
        .map_or(u32::MAX, |b| b as u32);
    let regs_per_block = regs_per_thread.max(16) * block_size;
    let by_regs = device
        .registers_per_sm
        .checked_div(regs_per_block)
        .unwrap_or(u32::MAX);

    let mut blocks_per_sm = by_slots.min(by_threads).min(by_smem).min(by_regs);
    let mut limiter = if blocks_per_sm == by_threads {
        Limiter::Threads
    } else if blocks_per_sm == by_slots {
        Limiter::BlockSlots
    } else if blocks_per_sm == by_smem {
        Limiter::SharedMemory
    } else {
        Limiter::Registers
    };
    if blocks_per_sm == 0 {
        // A single block larger than an SM's capacity still runs alone.
        blocks_per_sm = 1;
    }

    // A grid smaller than one wave cannot fill the device.
    let avg_blocks_per_sm_from_grid = num_blocks as f64 / device.num_sms as f64;
    if avg_blocks_per_sm_from_grid < blocks_per_sm as f64 {
        limiter = Limiter::GridSize;
    }

    let warps_per_sm = blocks_per_sm * warps_per_block;
    let theoretical = f64::from(warps_per_sm) / f64::from(device.max_warps_per_sm);
    let resident = avg_blocks_per_sm_from_grid.min(blocks_per_sm as f64);
    let achieved = (resident * f64::from(warps_per_block) / f64::from(device.max_warps_per_sm))
        .clamp(0.0, 1.0)
        .max(1e-4);

    Occupancy {
        blocks_per_sm,
        warps_per_sm,
        theoretical,
        achieved,
        limiter,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> DeviceSpec {
        DeviceSpec::rtx3090()
    }

    #[test]
    fn full_occupancy_with_small_blocks() {
        // 256-thread blocks, no smem, few regs: 48 warps need 6 blocks of 8
        // warps — within the 16-block cap, so occupancy is 1.0.
        let o = occupancy(&dev(), 100_000, 256, 0, 32);
        assert_eq!(o.warps_per_sm, 48);
        assert!((o.theoretical - 1.0).abs() < 1e-12);
        assert!((o.achieved - 1.0).abs() < 1e-12);
    }

    #[test]
    fn shared_memory_limits_blocks() {
        // 40 KB per block over 100 KB SM: 2 blocks resident.
        let o = occupancy(&dev(), 100_000, 128, 40 * 1024, 32);
        assert_eq!(o.blocks_per_sm, 2);
        assert_eq!(o.limiter, Limiter::SharedMemory);
        assert_eq!(o.warps_per_sm, 8);
    }

    #[test]
    fn registers_limit_blocks() {
        // 255 regs/thread × 512 threads > 64 K regs: one block per SM.
        let o = occupancy(&dev(), 100_000, 512, 0, 255);
        assert_eq!(o.blocks_per_sm, 1);
        assert_eq!(o.limiter, Limiter::Registers);
    }

    #[test]
    fn tiny_grid_caps_achieved() {
        // 82 SMs but only 41 blocks: half the device is idle.
        let o = occupancy(&dev(), 41, 256, 0, 32);
        assert_eq!(o.limiter, Limiter::GridSize);
        assert!(o.achieved < o.theoretical);
        // 0.5 block/SM × 8 warps / 48 max ≈ 0.083.
        assert!((o.achieved - 41.0 / 82.0 * 8.0 / 48.0).abs() < 1e-9);
    }

    #[test]
    fn block_slot_cap_applies_to_tiny_blocks() {
        // 32-thread blocks: 16-block cap ⇒ 16 warps of 48 ⇒ 1/3 occupancy.
        let o = occupancy(&dev(), 1_000_000, 32, 0, 32);
        assert_eq!(o.blocks_per_sm, 16);
        assert!((o.theoretical - 16.0 / 48.0).abs() < 1e-9);
    }

    #[test]
    fn achieved_never_zero() {
        let o = occupancy(&dev(), 1, 32, 0, 32);
        assert!(o.achieved > 0.0);
    }
}

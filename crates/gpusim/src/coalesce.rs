//! Warp-level memory coalescing.
//!
//! A warp issues one memory instruction with up to 32 lane addresses; the
//! hardware merges them into the minimal set of 32-byte sectors. Consecutive
//! 4-byte lane accesses coalesce 8:1; fully scattered accesses degrade to one
//! sector per lane — the "highly irregular memory access" the paper blames
//! for cuSPARSE SpMM's poor memory performance (§3.1).

use crate::cache::SECTOR_BYTES;

/// Groups lane byte-addresses into unique 32-byte sector base addresses.
///
/// Returns sorted, deduplicated sector bases. The number of returned sectors
/// is the number of memory transactions this warp instruction costs.
pub fn coalesce(addresses: &[u64]) -> Vec<u64> {
    let mut sectors: Vec<u64> = addresses
        .iter()
        .map(|a| (a / SECTOR_BYTES) * SECTOR_BYTES)
        .collect();
    sectors.sort_unstable();
    sectors.dedup();
    sectors
}

/// The 32-byte sectors a dense run of `count` elements of `elem_bytes`
/// starting at `base` touches, in ascending order — the unit-stride fast
/// path. The sectors are walked arithmetically, so nothing is allocated;
/// `len()` is the transaction count without walking at all.
pub fn sector_span(base: u64, count: usize, elem_bytes: usize) -> SectorSpan {
    let first = (base / SECTOR_BYTES) * SECTOR_BYTES;
    let remaining = if count == 0 {
        0
    } else {
        (base + (count * elem_bytes) as u64 - first).div_ceil(SECTOR_BYTES)
    };
    SectorSpan {
        next: first,
        remaining,
    }
}

/// Iterator over the sector bases of a contiguous run (see
/// [`sector_span`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectorSpan {
    next: u64,
    remaining: u64,
}

impl Iterator for SectorSpan {
    type Item = u64;

    #[inline]
    fn next(&mut self) -> Option<u64> {
        if self.remaining == 0 {
            return None;
        }
        let sector = self.next;
        self.next += SECTOR_BYTES;
        self.remaining -= 1;
        Some(sector)
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining as usize, Some(self.remaining as usize))
    }
}

impl ExactSizeIterator for SectorSpan {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_stride_coalesces_8_to_1() {
        // 32 lanes × f32 at consecutive addresses = 128 B = 4 sectors.
        let addrs: Vec<u64> = (0..32).map(|i| 1024 + i * 4).collect();
        assert_eq!(coalesce(&addrs).len(), 4);
    }

    #[test]
    fn scattered_access_one_sector_per_lane() {
        let addrs: Vec<u64> = (0..32).map(|i| i * 4096).collect();
        assert_eq!(coalesce(&addrs).len(), 32);
    }

    #[test]
    fn duplicate_lane_addresses_merge() {
        let addrs = vec![100u64; 32];
        assert_eq!(coalesce(&addrs).len(), 1);
    }

    #[test]
    fn misaligned_run_spills_into_extra_sector() {
        // 32 f32 starting at byte 16: spans 16..144 → sectors 0,32,64,96,128.
        let addrs: Vec<u64> = (0..32).map(|i| 16 + i * 4).collect();
        assert_eq!(coalesce(&addrs).len(), 5);
    }

    #[test]
    fn sector_span_matches_general_path() {
        for &(base, count) in &[(0u64, 32usize), (16, 32), (100, 7), (0, 0)] {
            let addrs: Vec<u64> = (0..count).map(|i| base + (i * 4) as u64).collect();
            let span = sector_span(base, count, 4);
            assert_eq!(
                span.len(),
                coalesce(&addrs).len(),
                "base {base} count {count}"
            );
            assert_eq!(
                span.collect::<Vec<_>>(),
                coalesce(&addrs),
                "base {base} count {count}"
            );
        }
    }
}

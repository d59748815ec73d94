//! Set-associative LRU cache simulator.
//!
//! Two instances model the memory hierarchy: a per-SM-capacity L1 that the
//! launch harness resets at thread-block boundaries (consecutive blocks land
//! on different SMs, so a block inherits no L1 state), and a device-wide L2
//! that persists across the whole kernel. Accesses are 32-byte sectors, the
//! granularity Ampere fetches from L2/DRAM.

/// Cache line (sector) size in bytes. Ampere moves 32 B sectors.
pub const SECTOR_BYTES: u64 = 32;

/// Outcome of a cache probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// Tag present.
    Hit,
    /// Tag absent; line has been filled.
    Miss,
}

/// A set-associative cache with LRU replacement over 32-byte sectors.
///
/// Tags live in one flat `num_sets × ways` array; each set's occupied
/// prefix is kept in most-recently-used-first order. A set whose stamp is
/// older than the cache's epoch is empty, so [`Cache::flush`] — run at
/// every thread-block boundary for the L1 — is one counter bump instead of
/// a walk over every set.
#[derive(Debug, Clone)]
pub struct Cache {
    /// `num_sets × ways` tags; set `s` owns `tags[s*ways..(s+1)*ways]`.
    tags: Vec<u64>,
    /// Per-set occupancy and the epoch it is valid for.
    sets: Vec<SetMeta>,
    epoch: u64,
    num_sets: u64,
    set_bits: u32,
    ways: usize,
    hits: u64,
    misses: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct SetMeta {
    /// Epoch in which `len` was last written; older means empty.
    stamp: u64,
    /// Occupied ways (≤ `ways`), MRU first.
    len: usize,
}

impl Cache {
    /// Creates a cache of `capacity_bytes` with `associativity` ways.
    ///
    /// The set count is rounded up to a power of two so set indexing is a
    /// mask; a tiny capacity degenerates to a single set.
    pub fn new(capacity_bytes: usize, associativity: usize) -> Self {
        let lines = capacity_bytes as u64 / SECTOR_BYTES;
        let ways = associativity.max(1);
        let num_sets = (lines / ways as u64).max(1).next_power_of_two();
        Cache {
            tags: vec![0; num_sets as usize * ways],
            sets: vec![SetMeta::default(); num_sets as usize],
            epoch: 1,
            num_sets,
            set_bits: num_sets.trailing_zeros(),
            ways,
            hits: 0,
            misses: 0,
        }
    }

    /// Standard L1 configuration: 4-way over the given capacity.
    pub fn l1(capacity_bytes: usize) -> Self {
        Cache::new(capacity_bytes, 4)
    }

    /// Standard L2 configuration: 16-way over the given capacity.
    pub fn l2(capacity_bytes: usize) -> Self {
        Cache::new(capacity_bytes, 16)
    }

    /// Probes (and on miss, fills) the sector containing `addr`.
    #[inline]
    pub fn access(&mut self, addr: u64) -> Probe {
        let line = addr / SECTOR_BYTES;
        let set_idx = (line & (self.num_sets - 1)) as usize;
        let tag = line >> self.set_bits;
        let meta = &mut self.sets[set_idx];
        if meta.stamp != self.epoch {
            meta.stamp = self.epoch;
            meta.len = 0;
        }
        let base = set_idx * self.ways;
        let set = &mut self.tags[base..base + self.ways];
        let probe = match set[..meta.len].iter().position(|&t| t == tag) {
            Some(pos) => {
                // Move to MRU position.
                set.copy_within(0..pos, 1);
                self.hits += 1;
                Probe::Hit
            }
            None => {
                // Shift everything down one way; the LRU tag falls off a
                // full set.
                let kept = meta.len.min(self.ways - 1);
                set.copy_within(0..kept, 1);
                meta.len = kept + 1;
                self.misses += 1;
                Probe::Miss
            }
        };
        set[0] = tag;
        probe
    }

    /// Number of ways.
    pub fn associativity(&self) -> usize {
        self.ways
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.num_sets as usize * self.ways * SECTOR_BYTES as usize
    }

    /// Invalidates all lines, keeping hit/miss counters.
    pub fn flush(&mut self) {
        self.epoch += 1;
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit rate in `[0, 1]`; 0 if no accesses.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Resets counters and contents.
    pub fn reset(&mut self) {
        self.flush();
        self.hits = 0;
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeat_access_hits() {
        let mut c = Cache::new(4096, 4);
        assert_eq!(c.access(0), Probe::Miss);
        assert_eq!(c.access(0), Probe::Hit);
        assert_eq!(c.access(31), Probe::Hit, "same 32B sector");
        assert_eq!(c.access(32), Probe::Miss, "next sector");
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 2);
        assert!((c.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_oldest() {
        // 1 set × 2 ways: capacity 64 B.
        let mut c = Cache::new(64, 2);
        assert_eq!(c.num_sets, 1);
        c.access(0); // A
        c.access(64); // B
        c.access(0); // A hit, A is MRU
        assert_eq!(c.access(128), Probe::Miss); // C evicts B
        assert_eq!(c.access(0), Probe::Hit); // A survived
        assert_eq!(c.access(64), Probe::Miss); // B was evicted
    }

    #[test]
    fn working_set_larger_than_capacity_thrashes() {
        let cap = 1024;
        let mut c = Cache::new(cap, 4);
        // Stream 16× capacity twice: second pass misses everywhere (LRU).
        let span = (cap as u64) * 16;
        for pass in 0..2 {
            for a in (0..span).step_by(SECTOR_BYTES as usize) {
                c.access(a);
            }
            if pass == 0 {
                assert_eq!(c.hits(), 0);
            }
        }
        assert_eq!(c.hits(), 0, "streaming working set must thrash LRU");
    }

    #[test]
    fn working_set_within_capacity_hits_on_second_pass() {
        let mut c = Cache::new(64 * 1024, 4);
        for a in (0..32 * 1024u64).step_by(SECTOR_BYTES as usize) {
            c.access(a);
        }
        let misses_first = c.misses();
        for a in (0..32 * 1024u64).step_by(SECTOR_BYTES as usize) {
            assert_eq!(c.access(a), Probe::Hit);
        }
        assert_eq!(c.misses(), misses_first);
    }

    #[test]
    fn flush_clears_contents_not_counters() {
        let mut c = Cache::new(4096, 4);
        c.access(0);
        c.access(0);
        c.flush();
        assert_eq!(c.access(0), Probe::Miss);
        assert_eq!(c.hits(), 1);
        c.reset();
        assert_eq!(c.hits(), 0);
        assert_eq!(c.misses(), 0);
    }

    #[test]
    fn zero_capacity_always_misses_without_panicking() {
        let mut c = Cache::new(0, 4);
        for a in [0u64, 0, 32, 32] {
            // Single set, still LRU-bounded: no panic, tiny capacity.
            c.access(a);
        }
        assert!(c.misses() >= 2);
    }

    #[test]
    fn capacity_reported_rounded() {
        let c = Cache::new(128 * 1024, 4);
        assert!(c.capacity_bytes() >= 128 * 1024);
        assert_eq!(c.associativity(), 4);
    }
}

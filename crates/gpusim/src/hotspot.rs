//! Host-side hotspot profiler: where does *wall-clock* time go while the
//! simulator runs its blocks?
//!
//! Everything else in this repo accounts **simulated** GPU milliseconds;
//! this module accounts the **host** nanoseconds spent producing them.
//! It times the two phases every simulated block has (DESIGN §11): the
//! body against the block's private L1 ([`HotPhase::BlockBody`]) and the
//! replay of its L1 misses through the shared L2 ([`HotPhase::L2Replay`]).
//! A block's scopes are coarse enough that the timer's own cost is small
//! beside what they measure.
//!
//! Design constraints:
//!
//! - **Single branch when disabled.** [`scope`] reads one relaxed atomic;
//!   when off it returns a guard holding `None` and the `Drop` does
//!   nothing. No `Instant::now()`, no TLS touch.
//! - **No locks on the hot path.** Each thread accumulates into a
//!   thread-local sheet; sheets drain into a global accumulator only when
//!   a pool worker finishes its share of a launch ([`flush_thread`]) or
//!   when [`take_report`] flushes the calling thread.
//! - **Reconciliation by construction.** Every scope names its block id
//!   and adds its elapsed nanoseconds to its phase total *and* to that
//!   block's accumulator in the same thread-local sheet, so
//!   `Σ per-phase ns == Σ per-window ns` exactly — the host-side mirror
//!   of the cost↔trace invariant.
//!
//! The accumulator is process-global (like the simulator's `TCG_THREADS`
//! handling): enable, run the workload, then [`take_report`] drains
//! everything recorded since the last drain.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The two phases of a simulated block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HotPhase {
    /// Phase 1: the block's body against its private L1, flushed first.
    BlockBody = 0,
    /// Phase 2: the replay of the block's L1-miss log through the shared
    /// L2 when it retires, in block order, in-order launches included.
    L2Replay = 1,
}

impl HotPhase {
    /// Number of phases (array extent for per-phase accumulators).
    pub const COUNT: usize = 2;

    /// All phases, in enum order.
    pub fn all() -> [HotPhase; HotPhase::COUNT] {
        [HotPhase::BlockBody, HotPhase::L2Replay]
    }

    /// Stable snake_case label (used in collapsed stacks and tables).
    pub fn label(self) -> &'static str {
        match self {
            HotPhase::BlockBody => "block_body",
            HotPhase::L2Replay => "l2_replay",
        }
    }

    /// Index into per-phase accumulator arrays (the discriminant).
    pub fn idx(self) -> usize {
        self as usize
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Mean host cost of one empty [`scope`], as `f64` bits (0 = never
/// calibrated).
static SCOPE_COST_NS: AtomicU64 = AtomicU64::new(0);

/// Turns hotspot timing on or off process-wide. Turning it on also
/// calibrates the timer: the mean cost of an empty [`scope`] is measured
/// and reported alongside every [`HotspotReport`], so phases whose per-hit
/// time is close to it can be read as measurement-dominated.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
    if on {
        SCOPE_COST_NS.store(calibrate_scope_ns().to_bits(), Ordering::Relaxed);
    }
}

/// Mean host nanoseconds one empty [`scope`] costs, measured by the last
/// [`set_enabled`]`(true)` (0 if timing was never enabled).
pub fn scope_cost_ns() -> f64 {
    f64::from_bits(SCOPE_COST_NS.load(Ordering::Relaxed))
}

/// Times a run of empty scopes on the calling thread against an empty
/// sheet, then swaps the thread's own sheet back in and drops the
/// calibration's samples.
fn calibrate_scope_ns() -> f64 {
    const ROUNDS: u32 = 20_000;
    let saved = SHEET.replace(Sheet::new());
    let start = Instant::now();
    for _ in 0..ROUNDS {
        let guard = scope(HotPhase::BlockBody, 0);
        std::hint::black_box(&guard);
    }
    let mean = start.elapsed().as_nanos() as f64 / f64::from(ROUNDS);
    // Empty the calibration's sheet so that dropping it flushes nothing.
    let mut samples = SHEET.replace(saved);
    samples.phases = WorkerPhases::default();
    samples.windows.clear();
    mean
}

/// Whether hotspot timing is on (one relaxed load — the disabled-path
/// cost the overhead guard benchmarks).
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Per-block attribution, keyed by block id (a row window for the SGT
/// kernels), summed over every launch.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct WindowAcc {
    /// Host nanoseconds spent in this block's scopes.
    pub host_ns: u64,
    /// Simulated nanoseconds the cost model charged this block.
    pub sim_ns: f64,
}

/// One worker's per-phase totals.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct WorkerPhases {
    /// Nanoseconds per [`HotPhase`] (indexed by discriminant).
    pub phase_ns: [u64; HotPhase::COUNT],
    /// Scope entries per [`HotPhase`].
    pub phase_hits: [u64; HotPhase::COUNT],
}

struct Sheet {
    worker: u64,
    phases: WorkerPhases,
    windows: BTreeMap<u64, WindowAcc>,
}

impl Sheet {
    const fn new() -> Sheet {
        Sheet {
            worker: 0,
            phases: WorkerPhases {
                phase_ns: [0; HotPhase::COUNT],
                phase_hits: [0; HotPhase::COUNT],
            },
            windows: BTreeMap::new(),
        }
    }

    /// Drains everything into the global accumulator, leaving the sheet
    /// empty (safe to call again from the TLS destructor).
    fn flush(&mut self) {
        let has_phases = self.phases.phase_hits.iter().any(|&h| h > 0);
        if !has_phases && self.windows.is_empty() {
            return;
        }
        let mut global = lock_global();
        if has_phases {
            let w = global.workers.entry(self.worker).or_default();
            for i in 0..HotPhase::COUNT {
                w.phase_ns[i] += self.phases.phase_ns[i];
                w.phase_hits[i] += self.phases.phase_hits[i];
            }
            self.phases = WorkerPhases::default();
        }
        for (id, acc) in std::mem::take(&mut self.windows) {
            let sum = global.windows.entry(id).or_default();
            sum.host_ns += acc.host_ns;
            sum.sim_ns += acc.sim_ns;
        }
    }
}

impl Drop for Sheet {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static SHEET: RefCell<Sheet> = const { RefCell::new(Sheet::new()) };
}

#[derive(Debug, Default)]
struct GlobalAccum {
    workers: BTreeMap<u64, WorkerPhases>,
    windows: BTreeMap<u64, WindowAcc>,
}

static GLOBAL: Mutex<GlobalAccum> = Mutex::new(GlobalAccum {
    workers: BTreeMap::new(),
    windows: BTreeMap::new(),
});

fn lock_global() -> std::sync::MutexGuard<'static, GlobalAccum> {
    GLOBAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// A scoped wall-clock timer; records into the thread-local sheet on drop.
#[must_use = "a dropped-immediately scope measures nothing"]
pub struct HotScope {
    phase: HotPhase,
    block_id: u64,
    start: Option<Instant>,
}

/// Opens a timing scope for `phase` of block `block_id`. When hotspot
/// profiling is disabled this is one atomic load and a `None`.
#[inline(always)]
pub fn scope(phase: HotPhase, block_id: u64) -> HotScope {
    HotScope {
        phase,
        block_id,
        start: if enabled() {
            Some(Instant::now())
        } else {
            None
        },
    }
}

impl Drop for HotScope {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let ns = start.elapsed().as_nanos() as u64;
            SHEET.with(|s| {
                let mut s = s.borrow_mut();
                s.phases.phase_ns[self.phase.idx()] += ns;
                s.phases.phase_hits[self.phase.idx()] += 1;
                s.windows.entry(self.block_id).or_default().host_ns += ns;
            });
        }
    }
}

/// Names the calling thread's worker id (0 = main, `i+1` = pool worker
/// `i`). Cheap; no-op when disabled.
pub fn set_worker(id: u64) {
    if !enabled() {
        return;
    }
    SHEET.with(|s| s.borrow_mut().worker = id);
}

/// Adds the cost model's simulated nanoseconds for block `block_id`.
pub fn add_block_sim_ns(block_id: u64, sim_ns: f64) {
    if !enabled() {
        return;
    }
    SHEET.with(|s| {
        s.borrow_mut().windows.entry(block_id).or_default().sim_ns += sim_ns;
    });
}

/// Everything recorded since the last drain.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct HotspotReport {
    /// Per-worker per-phase host time (worker 0 = main thread).
    pub workers: BTreeMap<u64, WorkerPhases>,
    /// Per-block attribution, keyed by block id.
    pub windows: BTreeMap<u64, WindowAcc>,
    /// Mean host cost of one empty scope ([`scope_cost_ns`]) when the
    /// report was taken; 0 when uncalibrated.
    pub scope_cost_ns: f64,
}

impl HotspotReport {
    /// `Σ` host ns over every worker and phase.
    pub fn total_phase_ns(&self) -> u64 {
        self.workers
            .values()
            .map(|w| w.phase_ns.iter().sum::<u64>())
            .sum()
    }

    /// `Σ` host ns over every window.
    pub fn total_window_ns(&self) -> u64 {
        self.windows.values().map(|w| w.host_ns).sum()
    }

    /// Per-phase `(phase, ns, hits)` summed over workers, ranked by ns
    /// descending (ties broken by enum order for determinism).
    pub fn ranked_phases(&self) -> Vec<(HotPhase, u64, u64)> {
        let mut rows: Vec<(HotPhase, u64, u64)> = HotPhase::all()
            .into_iter()
            .map(|p| {
                let (mut ns, mut hits) = (0u64, 0u64);
                for w in self.workers.values() {
                    ns += w.phase_ns[p.idx()];
                    hits += w.phase_hits[p.idx()];
                }
                (p, ns, hits)
            })
            .collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        rows
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.workers.is_empty() && self.windows.is_empty()
    }
}

/// Drains the calling thread's sheet into the global accumulator. A pool
/// worker calls this before it returns: a scoped join can return before
/// the thread's locals are destroyed, so leaving it to the sheet's `Drop`
/// could land a launch's samples in a later report or in none.
pub fn flush_thread() {
    if enabled() {
        SHEET.with(|s| s.borrow_mut().flush());
    }
}

/// Flushes the calling thread's sheet and drains the global accumulator.
///
/// Pool workers flush before any `Launcher::launch*` returns, so after a
/// workload completes this sees every thread's contribution.
pub fn take_report() -> HotspotReport {
    SHEET.with(|s| s.borrow_mut().flush());
    let mut global = lock_global();
    HotspotReport {
        workers: std::mem::take(&mut global.workers),
        windows: std::mem::take(&mut global.windows),
        scope_cost_ns: scope_cost_ns(),
    }
}

/// Held by unit tests that switch timing on, or that need it to stay
/// off (the launch memo is bypassed while it is on).
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One self-contained test: the global accumulator is process-wide, so
    /// enable→record→drain must happen inside a single test body. Block ids
    /// no launch in this binary uses keep concurrent tests' samples apart.
    #[test]
    fn scopes_reconcile_with_blocks_and_disabled_path_records_nothing() {
        let _lock = test_lock();
        // Disabled: scopes are inert.
        set_enabled(false);
        {
            let _s = scope(HotPhase::BlockBody, 7_000_001);
        }
        add_block_sim_ns(7_000_001, 9.0);

        set_enabled(true);
        let _ = take_report(); // drop anything a concurrent test left behind
        assert!(scope_cost_ns() > 0.0, "enabling calibrates the timer");
        set_worker(3);
        {
            let _s = scope(HotPhase::L2Replay, 7_000_007);
            std::hint::black_box(0u64);
        }
        add_block_sim_ns(7_000_007, 1500.0);
        {
            let _s = scope(HotPhase::BlockBody, 7_000_008);
        }
        let report = take_report();
        set_worker(0);
        set_enabled(false);

        // The invariant the `tcgnn profile --hotspots` table prints.
        assert_eq!(report.total_phase_ns(), report.total_window_ns());
        assert!(!report.windows.contains_key(&7_000_001));
        assert_eq!(report.windows[&7_000_007].sim_ns, 1500.0);
        assert!(report.windows.contains_key(&7_000_008));
        let worker = report.workers.get(&3).expect("worker 3 recorded");
        assert_eq!(worker.phase_hits, [1, 1]);
    }
}

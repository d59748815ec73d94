//! Host-side hotspot profiler: where does *wall-clock* time go inside the
//! simulator's interpreter loop?
//!
//! Everything else in this repo accounts **simulated** GPU milliseconds;
//! this module accounts the **host** nanoseconds spent producing them —
//! the measurement substrate for the "make the hot loop 5x faster"
//! roadmap item and for the hybrid TCU/CUDA-core dispatcher, which needs
//! per-row-window cost telemetry to learn its decision threshold.
//!
//! Design constraints (this code sits *inside* the loops it measures):
//!
//! - **Single branch when disabled.** [`scope`] reads one relaxed atomic;
//!   when off it returns a guard holding `None` and the `Drop` does
//!   nothing. No `Instant::now()`, no TLS touch.
//! - **No locks on the hot path.** Each thread accumulates into a
//!   thread-local sheet; sheets drain into a global accumulator only when
//!   a pool worker finishes its share of a launch ([`flush_thread`]) or
//!   when [`take_report`] flushes the calling thread.
//! - **Reconciliation by construction.** Every scope's elapsed
//!   nanoseconds are added to its phase total *and* to the current
//!   row-window accumulator in the same thread-local sheet, so
//!   `Σ per-phase ns == Σ per-window ns` exactly — the host-side mirror
//!   of PR 1's cost↔trace invariant. Time measured outside any window
//!   lands in the [`OUTSIDE_WINDOW`] bucket so the sums still balance.
//!
//! The accumulator is process-global (like the simulator's `TCG_THREADS`
//! handling): enable, run the workload, then [`take_report`] drains
//! everything recorded since the last drain.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Window id used for time recorded while no row window is open.
pub const OUTSIDE_WINDOW: u64 = u64::MAX;

/// The interpreter phases worth timing — the candidates for the 5x PR.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HotPhase {
    /// Sector sort/dedup in warp-wide loads, stores, and atomics.
    Coalesce = 0,
    /// L1 probe loops (per-sector cache walks) of a block's body.
    CacheProbe = 1,
    /// The L2 probes: every launch's replay of each block's L1-miss log
    /// through the shared L2, in block order, in-order launches included.
    L2Replay = 2,
}

impl HotPhase {
    /// Number of phases (array extent for per-phase accumulators).
    pub const COUNT: usize = 3;

    /// All phases, in enum order.
    pub fn all() -> [HotPhase; HotPhase::COUNT] {
        [HotPhase::Coalesce, HotPhase::CacheProbe, HotPhase::L2Replay]
    }

    /// Stable snake_case label (used in collapsed stacks and tables).
    pub fn label(self) -> &'static str {
        match self {
            HotPhase::Coalesce => "coalesce",
            HotPhase::CacheProbe => "cache_probe",
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

/// Times a run of empty scopes on the calling thread, then restores the
/// thread's sheet so the calibration leaves no samples behind.
fn calibrate_scope_ns() -> f64 {
    const ROUNDS: u32 = 20_000;
    let saved = SHEET.with(|s| {
        let s = s.borrow();
        (s.phases, s.window_ns)
    });
    let start = Instant::now();
    for _ in 0..ROUNDS {
        let guard = scope(HotPhase::Coalesce);
        std::hint::black_box(&guard);
    }
    let mean = start.elapsed().as_nanos() as f64 / f64::from(ROUNDS);
    SHEET.with(|s| {
        let mut s = s.borrow_mut();
        (s.phases, s.window_ns) = saved;
    });
    mean
}

/// Whether hotspot timing is on (one relaxed load — the disabled-path
/// cost the overhead guard benchmarks).
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Per-row-window attribution: what the hybrid dispatcher trains on.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct WindowAcc {
    /// Host nanoseconds spent in instrumented scopes for this window.
    pub host_ns: u64,
    /// Simulated nanoseconds the cost model charged this window's block.
    pub sim_ns: f64,
    /// Non-zeros the window's TC blocks cover.
    pub nnz: u64,
    /// Distinct source columns after SGT condensation.
    pub distinct_cols: u64,
}

impl WindowAcc {
    fn merge(&mut self, other: &WindowAcc) {
        self.host_ns += other.host_ns;
        self.sim_ns += other.sim_ns;
        // Shape facts, not accumulators: the same window can be visited by
        // a worker (host time) and the main thread (sim replay) — take the
        // max so double annotation never double-counts.
        self.nnz = self.nnz.max(other.nnz);
        self.distinct_cols = self.distinct_cols.max(other.distinct_cols);
    }
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
    window: u64,
    window_ns: u64,
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
            window: OUTSIDE_WINDOW,
            window_ns: 0,
            windows: BTreeMap::new(),
        }
    }

    /// Moves pending `window_ns` into the windows map (entry for the
    /// currently open window).
    fn settle_window(&mut self) {
        if self.window_ns > 0 {
            self.windows.entry(self.window).or_default().host_ns += self.window_ns;
            self.window_ns = 0;
        }
    }

    /// Drains everything into the global accumulator, leaving the sheet
    /// empty (safe to call again from the TLS destructor).
    fn flush(&mut self) {
        self.settle_window();
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
            global.windows.entry(id).or_default().merge(&acc);
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
    start: Option<Instant>,
}

/// Opens a timing scope for `phase`. When hotspot profiling is disabled
/// this is one atomic load and a `None`.
#[inline(always)]
pub fn scope(phase: HotPhase) -> HotScope {
    HotScope {
        phase,
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
                s.window_ns += ns;
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

/// Opens row window `id`: subsequent scope time on this thread is
/// attributed to it until [`end_window`] or the next `begin_window`.
pub fn begin_window(id: u64) {
    if !enabled() {
        return;
    }
    SHEET.with(|s| {
        let mut s = s.borrow_mut();
        s.settle_window();
        s.window = id;
    });
}

/// Closes the current row window; time falls back to [`OUTSIDE_WINDOW`].
pub fn end_window() {
    if !enabled() {
        return;
    }
    SHEET.with(|s| {
        let mut s = s.borrow_mut();
        s.settle_window();
        s.window = OUTSIDE_WINDOW;
    });
}

/// Records the current window's shape (nnz covered, distinct SGT columns).
pub fn annotate_window(nnz: u64, distinct_cols: u64) {
    if !enabled() {
        return;
    }
    SHEET.with(|s| {
        let mut s = s.borrow_mut();
        let id = s.window;
        let acc = s.windows.entry(id).or_default();
        acc.nnz = acc.nnz.max(nnz);
        acc.distinct_cols = acc.distinct_cols.max(distinct_cols);
    });
}

/// Adds the cost model's simulated nanoseconds for the current window.
pub fn add_window_sim_ns(sim_ns: f64) {
    if !enabled() {
        return;
    }
    SHEET.with(|s| {
        let mut s = s.borrow_mut();
        let id = s.window;
        s.windows.entry(id).or_default().sim_ns += sim_ns;
    });
}

/// Everything recorded since the last drain.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct HotspotReport {
    /// Per-worker per-phase host time (worker 0 = main thread).
    pub workers: BTreeMap<u64, WorkerPhases>,
    /// Per-row-window attribution ([`OUTSIDE_WINDOW`] = unattributed).
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

    /// `Σ` host ns over every window (incl. [`OUTSIDE_WINDOW`]).
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
    /// enable→record→drain must happen inside a single test body.
    #[test]
    fn scopes_reconcile_with_windows_and_disabled_path_records_nothing() {
        let _lock = test_lock();
        // Disabled: scopes are inert.
        set_enabled(false);
        {
            let _s = scope(HotPhase::Coalesce);
        }
        begin_window(1);
        annotate_window(9, 9);
        end_window();

        set_enabled(true);
        let _ = take_report(); // drop anything a concurrent test left behind
        assert!(scope_cost_ns() > 0.0, "enabling calibrates the timer");
        set_worker(3);
        begin_window(7);
        {
            let _s = scope(HotPhase::L2Replay);
            std::hint::black_box(0u64);
        }
        annotate_window(42, 5);
        add_window_sim_ns(1500.0);
        end_window();
        {
            let _s = scope(HotPhase::CacheProbe); // outside any window
        }
        let report = take_report();
        set_enabled(false);

        // The invariant the `tcgnn profile --hotspots` table prints.
        assert_eq!(report.total_phase_ns(), report.total_window_ns());
        let w7 = report.windows.get(&7).expect("window 7 recorded");
        assert_eq!((w7.nnz, w7.distinct_cols), (42, 5));
        assert_eq!(w7.sim_ns, 1500.0);
        let worker = report.workers.get(&3).expect("worker 3 recorded");
        assert_eq!(worker.phase_hits[HotPhase::L2Replay as usize], 1);
        assert_eq!(worker.phase_hits[HotPhase::CacheProbe as usize], 1);
        assert!(report.windows.contains_key(&OUTSIDE_WINDOW));

        // Drained: a second take is empty (modulo concurrent tests).
        // (Not asserted — other tests in this binary may be recording.)
    }
}

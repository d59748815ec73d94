//! Exporters for the host-side hotspot profiler in
//! [`tcg_gpusim::hotspot`].
//!
//! The gpusim layer measures where *host* wall-clock time goes while the
//! simulator runs its blocks — each block's body and its L2 replay —
//! attributed both per phase and per block id (a row window for the SGT
//! kernels). This module renders a [`HotspotReport`] as
//!
//! - a flamegraph-ready collapsed-stack file (`inferno` / `flamegraph.pl`
//!   folded format: `frame;frame;frame count`, count in nanoseconds),
//! - a ranked per-phase hotspot table with a reconciliation line proving
//!   that per-phase totals equal per-window totals, and
//! - a per-window attribution CSV (window id, host ns, simulated ns) for
//!   offline correlation of host cost against simulated kernel cost.
//!
//! Reconciliation holds *by construction*: every timed scope adds its
//! elapsed nanoseconds to its phase total and to its block's accumulator
//! in the same thread-local sheet, so the two sums are equal exactly
//! (integer nanoseconds, no float drift).

use std::io;
use std::path::{Path, PathBuf};

use tcg_gpusim::hotspot::{HotPhase, HotspotReport};

/// Renders the report in the collapsed-stack ("folded") format consumed
/// by `flamegraph.pl` and <https://www.speedscope.app>: one line per
/// stack, `tcgnn;worker-N;phase count`, where the count is nanoseconds.
///
/// Worker 0 is the main thread (sequential launches); workers 1..N are
/// the `TCG_THREADS` pool. Zero-time frames are omitted.
pub fn collapsed_stacks(report: &HotspotReport) -> String {
    let mut out = String::new();
    for (worker, phases) in &report.workers {
        let frame = if *worker == 0 {
            "main".to_string()
        } else {
            format!("worker-{worker}")
        };
        for phase in HotPhase::all() {
            let ns = phases.phase_ns[phase.idx()];
            if ns > 0 {
                out.push_str(&format!("tcgnn;{frame};{} {ns}\n", phase.label()));
            }
        }
    }
    out
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Phases whose mean time per hit is under this many empty-scope costs are
/// flagged as measurement-dominated in [`hotspot_table`].
pub const MEASUREMENT_DOMINATED_FACTOR: f64 = 3.0;

/// Renders the ranked hotspot table: the calibrated timer cost, per-phase
/// host time (descending, with share and hit counts, flagging phases the
/// timer dominates), the hottest row windows by host time, and the
/// reconciliation line asserting `sum(phases) == sum(windows)`.
pub fn hotspot_table(report: &HotspotReport) -> String {
    let mut out = String::new();
    if report.is_empty() {
        out.push_str("Host hotspots — no samples (was TCG_PROFILE=hotspot set?)\n");
        return out;
    }
    let phase_total = report.total_phase_ns();
    let window_total = report.total_window_ns();
    out.push_str(&format!(
        "Host hotspots — {} across {} worker(s), {} row window(s)\n",
        fmt_ns(phase_total),
        report.workers.len(),
        report.windows.len(),
    ));
    // Each hit pays one scope's own timer cost; a phase whose per-hit time
    // is within a few scope costs mostly measures the timer.
    let floor_ns = MEASUREMENT_DOMINATED_FACTOR * report.scope_cost_ns;
    if report.scope_cost_ns > 0.0 {
        out.push_str(&format!(
            "timer: empty scope {:.1}ns; * = under {MEASUREMENT_DOMINATED_FACTOR}x that per hit \
             (measurement-dominated)\n",
            report.scope_cost_ns,
        ));
    }
    out.push_str(&format!(
        "{:<16}{:>12}{:>8}{:>12}{:>14}\n",
        "phase", "host", "share", "hits", "ns/hit"
    ));
    for (phase, ns, hits) in report.ranked_phases() {
        if ns == 0 && hits == 0 {
            continue;
        }
        let share = if phase_total > 0 {
            100.0 * ns as f64 / phase_total as f64
        } else {
            0.0
        };
        let per_hit = ns.checked_div(hits).unwrap_or(0);
        let flag = if hits > 0 && (per_hit as f64) < floor_ns {
            " *"
        } else {
            ""
        };
        out.push_str(&format!(
            "{:<16}{:>12}{:>7.1}%{:>12}{:>14}{flag}\n",
            phase.label(),
            fmt_ns(ns),
            share,
            hits,
            fmt_ns(per_hit),
        ));
    }
    // Hottest row windows: where the host actually spent its time, next to
    // what the cost model says the GPU would have spent there.
    let mut hot: Vec<(&u64, &tcg_gpusim::WindowAcc)> = report.windows.iter().collect();
    hot.sort_by(|a, b| b.1.host_ns.cmp(&a.1.host_ns).then(a.0.cmp(b.0)));
    if !hot.is_empty() {
        out.push_str(&format!(
            "\ntop row windows by host time (of {}):\n",
            hot.len()
        ));
        out.push_str(&format!("{:<10}{:>12}{:>12}\n", "window", "host", "sim"));
        for (id, acc) in hot.iter().take(10) {
            out.push_str(&format!(
                "{:<10}{:>12}{:>12}\n",
                id,
                fmt_ns(acc.host_ns),
                fmt_ns(acc.sim_ns as u64),
            ));
        }
    }
    let verdict = if phase_total == window_total {
        "OK"
    } else {
        "MISMATCH"
    };
    out.push_str(&format!(
        "\nreconciliation: phases {phase_total} ns == windows {window_total} ns ({verdict})\n"
    ));
    out
}

/// Renders the per-window attribution as CSV: `window,host_ns,sim_ns`.
pub fn windows_csv(report: &HotspotReport) -> String {
    let mut out = String::from("window,host_ns,sim_ns\n");
    for (id, acc) in &report.windows {
        out.push_str(&format!("{id},{},{:.0}\n", acc.host_ns, acc.sim_ns));
    }
    out
}

/// Paths written by [`write_hotspot_artifacts`].
#[derive(Debug, Clone)]
pub struct HotspotArtifacts {
    /// The collapsed-stack flamegraph input (`<prefix>.folded`).
    pub folded_path: PathBuf,
    /// The ranked hotspot table (`<prefix>.hotspots.txt`).
    pub table_path: PathBuf,
    /// The per-window attribution CSV (`<prefix>.windows.csv`).
    pub windows_path: PathBuf,
}

/// Writes all three hotspot artifacts under `dir`, creating it if needed.
pub fn write_hotspot_artifacts(
    report: &HotspotReport,
    dir: &Path,
    prefix: &str,
) -> io::Result<HotspotArtifacts> {
    std::fs::create_dir_all(dir)?;
    let artifacts = HotspotArtifacts {
        folded_path: dir.join(format!("{prefix}.folded")),
        table_path: dir.join(format!("{prefix}.hotspots.txt")),
        windows_path: dir.join(format!("{prefix}.windows.csv")),
    };
    std::fs::write(&artifacts.folded_path, collapsed_stacks(report))?;
    std::fs::write(&artifacts.table_path, hotspot_table(report))?;
    std::fs::write(&artifacts.windows_path, windows_csv(report))?;
    Ok(artifacts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcg_gpusim::hotspot::HotPhase;
    use tcg_gpusim::{WindowAcc, WorkerPhases};

    fn sample_report() -> HotspotReport {
        let mut report = HotspotReport::default();
        let mut main = WorkerPhases::default();
        main.phase_ns[HotPhase::BlockBody.idx()] = 60_000;
        main.phase_hits[HotPhase::BlockBody.idx()] = 30;
        main.phase_ns[HotPhase::L2Replay.idx()] = 1_500_000;
        main.phase_hits[HotPhase::L2Replay.idx()] = 50;
        report.workers.insert(0, main);
        let mut w1 = WorkerPhases::default();
        w1.phase_ns[HotPhase::BlockBody.idx()] = 440_000;
        w1.phase_hits[HotPhase::BlockBody.idx()] = 11;
        report.workers.insert(1, w1);
        report.windows.insert(
            3,
            WindowAcc {
                host_ns: 1_700_000,
                sim_ns: 2_000_000.0,
            },
        );
        report.windows.insert(
            5,
            WindowAcc {
                host_ns: 300_000,
                sim_ns: 90_000.0,
            },
        );
        report.scope_cost_ns = 5000.0;
        report
    }

    #[test]
    fn collapsed_stacks_are_folded_format_with_ns_counts() {
        let folded = collapsed_stacks(&sample_report());
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines.contains(&"tcgnn;main;l2_replay 1500000"));
        assert!(lines.contains(&"tcgnn;main;block_body 60000"));
        assert!(lines.contains(&"tcgnn;worker-1;block_body 440000"));
        for line in lines {
            let (stack, count) = line.rsplit_once(' ').unwrap();
            assert_eq!(stack.split(';').count(), 3);
            count.parse::<u64>().unwrap();
        }
    }

    #[test]
    fn table_ranks_phases_and_reconciles() {
        let report = sample_report();
        let table = hotspot_table(&report);
        // Descending by host ns: l2_replay first.
        let replay = table.find("l2_replay").unwrap();
        let body = table.find("block_body").unwrap();
        assert!(replay < body);
        assert!(table.contains("top row windows"));
        // 60k + 1.5M + 440k phases == 1.7M + 300k windows == 2M.
        assert!(table.contains("reconciliation: phases 2000000 ns == windows 2000000 ns (OK)"));
    }

    #[test]
    fn table_reports_timer_cost_and_flags_measurement_dominated_phases() {
        let table = hotspot_table(&sample_report());
        assert!(table.contains("timer: empty scope 5000.0ns"));
        let row = |label: &str| table.lines().find(|l| l.starts_with(label)).unwrap();
        // block_body: 500us over 41 hits, about 12us/hit < 3 x 5us.
        assert!(row("block_body").ends_with(" *"));
        assert!(!row("l2_replay").ends_with('*'));
        // Uncalibrated reports print no timer line and flag nothing.
        let mut report = sample_report();
        report.scope_cost_ns = 0.0;
        let table = hotspot_table(&report);
        assert!(!table.contains("timer:") && !table.contains(" *"));
    }

    #[test]
    fn phases_are_the_two_block_phases_with_folded_safe_labels() {
        let labels: Vec<&str> = HotPhase::all().iter().map(|p| p.label()).collect();
        assert_eq!(labels, ["block_body", "l2_replay"]);
        for (i, phase) in HotPhase::all().into_iter().enumerate() {
            assert_eq!(phase.idx(), i);
            // A collapsed-stack frame: no `;` separators, no spaces.
            let frame_safe = |b: u8| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_';
            assert!(phase.label().bytes().all(frame_safe), "{}", phase.label());
        }
    }

    #[test]
    fn empty_report_renders_a_hint_not_a_panic() {
        let table = hotspot_table(&HotspotReport::default());
        assert!(table.contains("no samples"));
        assert!(collapsed_stacks(&HotspotReport::default()).is_empty());
    }

    #[test]
    fn windows_csv_lists_every_window() {
        let csv = windows_csv(&sample_report());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(
            lines,
            [
                "window,host_ns,sim_ns",
                "3,1700000,2000000",
                "5,300000,90000"
            ]
        );
    }

    #[test]
    fn write_hotspot_artifacts_creates_all_three_files() {
        let dir = std::env::temp_dir().join("tcg-profile-test-hotspots");
        let arts =
            write_hotspot_artifacts(&sample_report(), &dir, "unit").expect("writable temp dir");
        for path in [&arts.folded_path, &arts.table_path, &arts.windows_path] {
            assert!(path.exists(), "{} missing", path.display());
            assert!(std::fs::metadata(path).unwrap().len() > 0);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

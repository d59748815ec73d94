//! `tcg-profile` — structured tracing and metrics for the simulated GPU.
//!
//! The execution model in `tcg-gpusim` already produces an nsight-grade
//! [`KernelReport`](tcg_gpusim::KernelReport) for every kernel launch;
//! until now those reports were summed into per-phase totals and dropped.
//! This crate keeps them: a [`Profiler`] records one [`KernelEvent`] per
//! cost contribution (kernel launches, framework passes, host-side work
//! such as SGT preprocessing), aggregates them into a
//! [`MetricsRegistry`] of monotonic counters and streaming latency
//! histograms, and exports
//!
//! - a Chrome-trace / Perfetto JSON timeline of the *simulated* GPU stream
//!   (open it at <https://ui.perfetto.dev>), one track per pipeline phase,
//! - a JSON metrics dump (counters + p50/p95/p99 per kernel), and
//! - an ASCII per-kernel table in the spirit of `nsight-compute` output
//!   (launches, time, DRAM bytes, shared-memory transactions, TCU MMAs).
//!
//! Two observability extensions ride on the same recorder:
//!
//! - **Request-scoped tracing.** A serve dispatcher tags events with the
//!   trace ids of the requests they serve ([`Profiler::set_trace`]) and
//!   records per-request [`RequestSpan`] trees that export as Perfetto
//!   async spans.
//! - **Host hotspot export.** The [`hotspot`] module renders the gpusim
//!   host-side wall-clock profiler
//!   ([`tcg_gpusim::hotspot`]), which times each simulated block's body
//!   and L2 replay, as a flamegraph-ready collapsed-stack file and a ranked
//!   per-phase table with per-block attribution.
//!
//! # Invariant: events partition the cost model
//!
//! Every simulated millisecond that enters a
//! `tcg_gnn::Cost` is recorded as **exactly one** event whose
//! [`Phase`] matches the `Cost` field it lands in. Summing the durations
//! of all [`Phase::Aggregation`] events therefore reproduces a training
//! run's aggregation cost to the last floating-point bit — the property
//! the integration tests in the root crate assert.
//!
//! # Overhead
//!
//! Profiling is opt-in per [`Engine`](../tcg_gnn/struct.Engine.html) via an
//! `Option<SharedProfiler>`: when no profiler is attached the hot path is a
//! single `Option` discriminant check — no allocation, no locking.

mod event;
mod export;
mod histogram;
pub mod hotspot;
mod profiler;
mod registry;

pub use event::{EventKind, KernelEvent, Phase};
pub use export::{chrome_trace_json, metrics_json, nsight_table, write_artifacts, Artifacts};
pub use histogram::StreamingHistogram;
pub use hotspot::{collapsed_stacks, hotspot_table, write_hotspot_artifacts, HotspotArtifacts};
pub use profiler::{shared, EpochRollup, Profiler, RequestSpan, SharedProfiler, StreamSpanEvent};
pub use registry::MetricsRegistry;

/// Name of the environment variable the experiment binaries consult to
/// decide whether to attach a profiler (`TCG_PROFILE=1` enables it).
pub const PROFILE_ENV_VAR: &str = "TCG_PROFILE";

/// What `TCG_PROFILE` asks for. One shared parser so the CLI, the bench
/// binaries, and the serve path agree on the matrix:
///
/// | value                       | level     | behavior                              |
/// |-----------------------------|-----------|---------------------------------------|
/// | unset, `0`, `off`, `false`  | `Off`     | no profiler attached                  |
/// | `1`, `true`, `trace`        | `Trace`   | full event trace + registry           |
/// | `metrics`                   | `Metrics` | registry + phase totals, events dropped |
/// | `hotspot`                   | `Hotspot` | `Trace` + host-side wall-clock timers |
///
/// Only `tcgnn serve` arms the host timers at `Hotspot` (and writes their
/// report); elsewhere the level traces like `Trace`.
///
/// Unrecognized values keep the historical truthiness behavior and map to
/// [`ProfileLevel::Trace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProfileLevel {
    /// Profiling disabled.
    Off,
    /// Full event tracing (every kernel/span event retained).
    Trace,
    /// Aggregates only: counters, histograms, phase totals; no event list.
    Metrics,
    /// Full tracing plus the gpusim host-side hotspot timers.
    Hotspot,
}

impl ProfileLevel {
    /// Parses a `TCG_PROFILE` value. Never fails: unknown strings enable
    /// tracing, matching the old "any truthy value" contract.
    pub fn parse(value: &str) -> ProfileLevel {
        match value.trim().to_ascii_lowercase().as_str() {
            "" | "0" | "off" | "false" => ProfileLevel::Off,
            "metrics" => ProfileLevel::Metrics,
            "hotspot" | "hotspots" => ProfileLevel::Hotspot,
            _ => ProfileLevel::Trace,
        }
    }

    /// The level requested via [`PROFILE_ENV_VAR`] (`Off` when unset).
    pub fn from_env() -> ProfileLevel {
        match std::env::var(PROFILE_ENV_VAR) {
            Ok(v) => ProfileLevel::parse(&v),
            Err(_) => ProfileLevel::Off,
        }
    }

    /// Whether any profiling is enabled at this level.
    pub fn enabled(self) -> bool {
        self != ProfileLevel::Off
    }

    /// Whether individual events should be retained (vs aggregates only).
    pub fn retains_events(self) -> bool {
        matches!(self, ProfileLevel::Trace | ProfileLevel::Hotspot)
    }

    /// Whether the gpusim host-side hotspot timers should be armed.
    pub fn hotspots(self) -> bool {
        self == ProfileLevel::Hotspot
    }

    /// Stable lowercase label.
    pub fn label(self) -> &'static str {
        match self {
            ProfileLevel::Off => "off",
            ProfileLevel::Trace => "trace",
            ProfileLevel::Metrics => "metrics",
            ProfileLevel::Hotspot => "hotspot",
        }
    }

    /// A profiler appropriate for this level, or `None` when `Off`.
    pub fn profiler(self, backend: &str) -> Option<Profiler> {
        match self {
            ProfileLevel::Off => None,
            ProfileLevel::Metrics => Some(Profiler::new_metrics_only(backend)),
            ProfileLevel::Trace | ProfileLevel::Hotspot => Some(Profiler::new(backend)),
        }
    }
}

impl std::fmt::Display for ProfileLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_level_parser_covers_the_matrix() {
        for off in ["", "0", "off", "OFF", "false", "  off  "] {
            assert_eq!(ProfileLevel::parse(off), ProfileLevel::Off, "{off:?}");
        }
        for trace in ["1", "true", "trace", "TRACE", "yes", "anything"] {
            assert_eq!(ProfileLevel::parse(trace), ProfileLevel::Trace, "{trace:?}");
        }
        assert_eq!(ProfileLevel::parse("metrics"), ProfileLevel::Metrics);
        assert_eq!(ProfileLevel::parse("Hotspot"), ProfileLevel::Hotspot);
        assert_eq!(ProfileLevel::parse("hotspots"), ProfileLevel::Hotspot);

        assert!(!ProfileLevel::Off.enabled());
        assert!(ProfileLevel::Metrics.enabled());
        assert!(ProfileLevel::Trace.retains_events());
        assert!(ProfileLevel::Hotspot.retains_events());
        assert!(!ProfileLevel::Metrics.retains_events());
        assert!(ProfileLevel::Hotspot.hotspots());
        assert!(!ProfileLevel::Trace.hotspots());
        assert!(ProfileLevel::Off.profiler("x").is_none());
        assert!(!ProfileLevel::Metrics
            .profiler("x")
            .unwrap()
            .retains_events());
        assert!(ProfileLevel::Hotspot
            .profiler("x")
            .unwrap()
            .retains_events());
    }
}

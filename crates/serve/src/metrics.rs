//! RED/SLO metrics for the serving layer: Rate, Errors, Duration — plus
//! saturation (queue depth) and cache efficiency — rendered as Prometheus
//! text exposition (`tcgnn serve --metrics <path>`) and as the `tcgnn top`
//! ASCII dashboard.
//!
//! Everything derives from a [`ServeReport`] and its id-ordered response
//! list, so the output is as deterministic as the serve run itself: no
//! wall-clock values, no sampling jitter.

use std::collections::BTreeMap;

use tcg_profile::StreamingHistogram;

use crate::request::{Outcome, Response};
use crate::server::ServeReport;

/// A RED registry folded over responses in id order: cumulative counters
/// and a cumulative latency histogram.
#[derive(Debug, Clone, Default)]
pub struct RedMetrics {
    /// Requests observed.
    pub requests: u64,
    /// Answered within deadline (or with none set).
    pub on_time: u64,
    /// Answered after their deadline.
    pub late: u64,
    /// Shed at admission.
    pub shed: u64,
    /// Cancelled at a checkpoint boundary after their deadline died.
    pub cancelled: u64,
    /// Cumulative latency distribution over answered requests.
    pub latency: StreamingHistogram,
}

impl RedMetrics {
    /// Folds one response in.
    pub fn observe(&mut self, response: &Response) {
        self.requests += 1;
        match &response.outcome {
            Outcome::Served { .. } => self.on_time += 1,
            Outcome::Late { .. } => self.late += 1,
            Outcome::Shed { .. } => self.shed += 1,
            Outcome::Cancelled { .. } => self.cancelled += 1,
        }
        if let Some(ms) = response.outcome.latency_ms() {
            self.latency.record(ms);
        }
    }

    /// Requests that produced an answer.
    pub fn answered(&self) -> u64 {
        self.on_time + self.late
    }

    /// Error counts by taxonomy label, alphabetical.
    pub fn errors(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("cancelled", self.cancelled),
            ("deadline_exceeded", self.late),
            ("queue_full", self.shed),
        ]
    }

    /// Builds the registry from a finished report's id-ordered responses.
    pub fn from_report(report: &ServeReport) -> Self {
        let mut red = RedMetrics::default();
        for r in &report.responses {
            red.observe(r);
        }
        red
    }
}

fn metric(out: &mut String, name: &str, kind: &str, help: &str, samples: &[(String, f64)]) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
    for (labels, value) in samples {
        out.push_str(&format!("{name}{labels} {value}\n"));
    }
}

fn plain(value: f64) -> Vec<(String, f64)> {
    vec![(String::new(), value)]
}

/// Renders the report as Prometheus text exposition (format 0.0.4): the
/// RED counters, the error taxonomy, latency quantiles as a summary,
/// queue saturation, cache efficiency, fault accounting, and per-stream
/// utilization.
pub fn prometheus_text(report: &ServeReport) -> String {
    let red = RedMetrics::from_report(report);
    let mut out = String::new();
    metric(
        &mut out,
        "tcg_serve_requests_total",
        "counter",
        "Requests in the trace.",
        &plain(report.total_requests as f64),
    );
    metric(
        &mut out,
        "tcg_serve_answered_total",
        "counter",
        "Requests answered (on time or late).",
        &plain(report.answered as f64),
    );
    metric(
        &mut out,
        "tcg_serve_failed_total",
        "counter",
        "Requests that errored terminally.",
        &plain(report.failed as f64),
    );
    metric(
        &mut out,
        "tcg_serve_errors_total",
        "counter",
        "Requests by error taxonomy (TcgError variant).",
        &red.errors()
            .iter()
            .map(|(label, count)| (format!("{{error=\"{label}\"}}"), *count as f64))
            .collect::<Vec<_>>(),
    );
    metric(
        &mut out,
        "tcg_serve_throughput_rps",
        "gauge",
        "Answered requests per simulated second.",
        &plain(report.throughput_rps),
    );
    metric(
        &mut out,
        "tcg_serve_makespan_ms",
        "gauge",
        "Simulated milliseconds until the last stream drained.",
        &plain(report.makespan_ms),
    );
    metric(
        &mut out,
        "tcg_serve_latency_ms",
        "summary",
        "Request latency over answered requests, simulated ms.",
        &[
            ("{quantile=\"0.5\"}".to_string(), report.latency.p50()),
            ("{quantile=\"0.95\"}".to_string(), report.latency.p95()),
            ("{quantile=\"0.99\"}".to_string(), report.latency.p99()),
        ],
    );
    out.push_str(&format!(
        "tcg_serve_latency_ms_sum {}\ntcg_serve_latency_ms_count {}\n",
        report.latency.sum(),
        report.latency.count()
    ));
    metric(
        &mut out,
        "tcg_serve_batches_total",
        "counter",
        "Batched forward passes executed.",
        &plain(report.batches as f64),
    );
    metric(
        &mut out,
        "tcg_serve_mean_batch_size",
        "gauge",
        "Mean requests per batch.",
        &plain(report.mean_batch_size),
    );
    metric(
        &mut out,
        "tcg_serve_queue_depth_max",
        "gauge",
        "Deepest admission-queue occupancy observed.",
        &plain(report.queue.max as f64),
    );
    metric(
        &mut out,
        "tcg_serve_queue_depth_mean",
        "gauge",
        "Mean admission-queue occupancy over arrivals.",
        &plain(report.queue.mean()),
    );
    metric(
        &mut out,
        "tcg_serve_cache_hit_ratio",
        "gauge",
        "SGT translation-cache hit ratio.",
        &plain(report.cache.hit_rate()),
    );
    metric(
        &mut out,
        "tcg_serve_cache_events_total",
        "counter",
        "SGT translation-cache events.",
        &[
            ("{event=\"hit\"}".to_string(), report.cache.hits as f64),
            ("{event=\"miss\"}".to_string(), report.cache.misses as f64),
            (
                "{event=\"eviction\"}".to_string(),
                report.cache.evictions as f64,
            ),
        ],
    );
    metric(
        &mut out,
        "tcg_serve_cache_poison_total",
        "counter",
        "Poisoned translation-cache entries detected and recovered.",
        &[
            (
                "{event=\"detected\"}".to_string(),
                report.cache.poison_detected as f64,
            ),
            (
                "{event=\"recovered\"}".to_string(),
                report.cache.poison_recovered as f64,
            ),
        ],
    );
    // Resilience families are emitted unconditionally (zeros when the
    // layer is off) so scrape schemas stay stable across configs.
    let rs = report.resilience.unwrap_or_default();
    metric(
        &mut out,
        "tcg_serve_cancelled_total",
        "counter",
        "Requests cancelled at a checkpoint boundary, by stage.",
        &[
            (
                "{stage=\"pre_translate\"}".to_string(),
                rs.cancelled_pre_translate as f64,
            ),
            (
                "{stage=\"pre_launch\"}".to_string(),
                rs.cancelled_pre_launch as f64,
            ),
            (
                "{stage=\"kernel_boundary\"}".to_string(),
                rs.cancelled_kernel_boundary as f64,
            ),
        ],
    );
    metric(
        &mut out,
        "tcg_serve_breaker_events_total",
        "counter",
        "Circuit-breaker events summed over streams.",
        &[
            ("{event=\"opened\"}".to_string(), rs.breaker.opened as f64),
            (
                "{event=\"reopened\"}".to_string(),
                rs.breaker.reopened as f64,
            ),
            (
                "{event=\"half_open_probe\"}".to_string(),
                rs.breaker.half_open_probes as f64,
            ),
            ("{event=\"closed\"}".to_string(), rs.breaker.closed as f64),
            (
                "{event=\"rerouted_batch\"}".to_string(),
                rs.breaker.rerouted_batches as f64,
            ),
        ],
    );
    metric(
        &mut out,
        "tcg_serve_breaker_transitions_total",
        "counter",
        "Circuit-breaker state transitions summed over streams.",
        &plain(rs.breaker_transitions as f64),
    );
    metric(
        &mut out,
        "tcg_serve_brownout_max_level",
        "gauge",
        "Highest brownout ladder level reached.",
        &plain(rs.brownout.max_level as f64),
    );
    metric(
        &mut out,
        "tcg_serve_brownout_shed_total",
        "counter",
        "Requests shed by the brownout ladder, by priority.",
        &[
            (
                "{priority=\"low\"}".to_string(),
                rs.brownout.shed_low as f64,
            ),
            (
                "{priority=\"normal\"}".to_string(),
                rs.brownout.shed_normal as f64,
            ),
        ],
    );
    metric(
        &mut out,
        "tcg_serve_mutation_total",
        "counter",
        "Graph mutations by disposition.",
        &[
            (
                "{disposition=\"applied\"}".to_string(),
                report.mutations.applied as f64,
            ),
            (
                "{disposition=\"rejected\"}".to_string(),
                report.mutations.rejected as f64,
            ),
        ],
    );
    metric(
        &mut out,
        "tcg_serve_mutation_windows_retranslated_total",
        "counter",
        "Row windows retranslated by delta cache resolutions.",
        &plain(report.mutations.windows_touched as f64),
    );
    metric(
        &mut out,
        "tcg_serve_mutation_windows_preserved_total",
        "counter",
        "Row windows spliced unchanged by delta cache resolutions.",
        &plain(report.mutations.windows_preserved as f64),
    );
    metric(
        &mut out,
        "tcg_serve_mutation_delta_ms_total",
        "counter",
        "Modeled milliseconds paid for delta retranslations.",
        &plain(report.mutations.delta_translate_ms),
    );
    metric(
        &mut out,
        "tcg_serve_faults_total",
        "counter",
        "Injected device faults by kind.",
        &[
            (
                "{kind=\"launch_failure\"}".to_string(),
                report.faults.launch_failures as f64,
            ),
            (
                "{kind=\"smem_overcommit\"}".to_string(),
                report.faults.smem_overcommits as f64,
            ),
            (
                "{kind=\"device_oom\"}".to_string(),
                report.faults.device_ooms as f64,
            ),
            (
                "{kind=\"ecc_flip\"}".to_string(),
                report.faults.ecc_flips as f64,
            ),
        ],
    );
    metric(
        &mut out,
        "tcg_serve_stream_busy_ms",
        "gauge",
        "Summed execution milliseconds per stream.",
        &report
            .per_stream
            .iter()
            .map(|st| (format!("{{stream=\"{}\"}}", st.stream), st.busy_ms))
            .collect::<Vec<_>>(),
    );
    out
}

/// Parses Prometheus text exposition back into `name{labels} -> value`.
///
/// Strict enough for CI schema checks: every non-comment line must be
/// `<name>[{labels}] <float>`, names must match
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`, and values must parse as finite floats.
pub fn parse_prometheus(text: &str) -> Result<BTreeMap<String, f64>, String> {
    let mut out = BTreeMap::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no value: {line:?}", lineno + 1))?;
        let name = series.split('{').next().unwrap_or("");
        let mut chars = name.chars();
        let head_ok = chars
            .next()
            .map(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
            .unwrap_or(false);
        if !head_ok || !chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':') {
            return Err(format!("line {}: bad metric name {name:?}", lineno + 1));
        }
        if series.contains('{') && !series.ends_with('}') {
            return Err(format!(
                "line {}: unterminated labels: {series:?}",
                lineno + 1
            ));
        }
        let value: f64 = value
            .parse()
            .map_err(|_| format!("line {}: bad value {value:?}", lineno + 1))?;
        if !value.is_finite() {
            return Err(format!("line {}: non-finite value", lineno + 1));
        }
        out.insert(series.to_string(), value);
    }
    if out.is_empty() {
        return Err("no samples".into());
    }
    Ok(out)
}

/// Renders the `tcgnn top` ASCII dashboard: RED at a glance.
pub fn render_top(report: &ServeReport) -> String {
    let red = RedMetrics::from_report(report);
    let mut out = String::new();
    out.push_str(&format!(
        "tcgnn top — {} {} | {} stream(s)\n",
        report.backend, report.model, report.streams
    ));
    out.push_str(&format!(
        "  requests  {:>6} total | {} answered | {} on-time | {} late | {} shed | {} cancelled | {} failed\n",
        report.total_requests,
        report.answered,
        report.on_time,
        report.late,
        report.shed,
        report.cancelled,
        report.failed
    ));
    out.push_str(&format!(
        "  rate      {:>9.1} req/s over {:.1} ms makespan, {} batches (mean size {:.2})\n",
        report.throughput_rps, report.makespan_ms, report.batches, report.mean_batch_size
    ));
    out.push_str(&format!(
        "  latency   p50 {:.3} ms | p95 {:.3} ms | p99 {:.3} ms | max {:.3} ms\n",
        report.latency.p50(),
        report.latency.p95(),
        report.latency.p99(),
        report.latency.max()
    ));
    let errs: Vec<String> = red
        .errors()
        .iter()
        .map(|(label, count)| format!("{label} {count}"))
        .collect();
    out.push_str(&format!("  errors    {}\n", errs.join(" | ")));
    out.push_str(&format!(
        "  queue     depth max {} | mean {:.2} ({} samples)\n",
        report.queue.max,
        report.queue.mean(),
        report.queue.samples
    ));
    out.push_str(&format!(
        "  sgt cache {}h/{}m ({:.1}% hit) | {:.2} ms paid | {:.2} ms saved\n",
        report.cache.hits,
        report.cache.misses,
        report.cache.hit_rate() * 100.0,
        report.cache.translation_ms_paid,
        report.cache.translation_ms_saved
    ));
    out.push_str(&format!(
        "  faults    {} injected | {} retried | {} degraded\n",
        report.faults.total_injected(),
        report.faults.retried,
        report.faults.degraded
    ));
    if let Some(rs) = &report.resilience {
        out.push_str(&format!(
            "  resil.    breaker {} opened / {} rerouted | brownout L{} max ({} low + {} normal shed) | {} poison recovered\n",
            rs.breaker.opened,
            rs.breaker.rerouted_batches,
            rs.brownout.max_level,
            rs.brownout.shed_low,
            rs.brownout.shed_normal,
            report.cache.poison_recovered
        ));
    }
    for st in &report.per_stream {
        out.push_str(&format!(
            "  stream {}  {:>4} launches | {:>10.2} ms busy | drained at {:.2} ms\n",
            st.stream, st.launches, st.busy_ms, st.end_ms
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{CancelStage, ShedReason};
    use crate::server::QueueDepth;
    use tcg_fault::FaultReport;

    fn sample_report() -> ServeReport {
        let responses = vec![
            Response {
                id: 0,
                outcome: Outcome::Served {
                    class: 1,
                    latency_ms: 2.0,
                },
            },
            Response {
                id: 1,
                outcome: Outcome::Late {
                    class: 0,
                    latency_ms: 9.0,
                    deadline_ms: 5.0,
                },
            },
            Response {
                id: 2,
                outcome: Outcome::Shed {
                    reason: ShedReason::QueueFull { capacity: 4 },
                },
            },
            Response {
                id: 3,
                outcome: Outcome::Served {
                    class: 2,
                    latency_ms: 4.0,
                },
            },
            Response {
                id: 4,
                outcome: Outcome::Cancelled {
                    stage: CancelStage::PreLaunch,
                    deadline_ms: 5.0,
                    cancelled_at_ms: 6.0,
                },
            },
        ];
        let mut latency = StreamingHistogram::new();
        for ms in [2.0, 9.0, 4.0] {
            latency.record(ms);
        }
        let mut queue = QueueDepth::default();
        for d in [1, 3, 4, 2] {
            queue.sample(d);
        }
        ServeReport {
            backend: "TC-GNN",
            model: "gcn",
            streams: 2,
            devices: 1,
            partitioner: "none",
            halo_bytes: 0,
            transfer_ms: 0.0,
            total_requests: 5,
            answered: 3,
            on_time: 2,
            late: 1,
            shed: 1,
            cancelled: 1,
            failed: 0,
            batches: 2,
            mean_batch_size: 1.5,
            makespan_ms: 20.0,
            throughput_rps: 150.0,
            latency,
            mutations: crate::server::MutationSummary::default(),
            graph_versions: Vec::new(),
            cache: crate::cache::CacheStats {
                hits: 1,
                misses: 1,
                evictions: 0,
                translation_ms_paid: 3.0,
                translation_ms_saved: 3.0,
                poison_detected: 1,
                poison_recovered: 1,
                ..Default::default()
            },
            faults: FaultReport::default(),
            queue,
            per_stream: vec![
                crate::server::StreamSummary {
                    stream: 0,
                    launches: 1,
                    busy_ms: 6.0,
                    end_ms: 18.0,
                },
                crate::server::StreamSummary {
                    stream: 1,
                    launches: 1,
                    busy_ms: 5.0,
                    end_ms: 20.0,
                },
            ],
            resilience: Some(crate::resilience::ResilienceSummary {
                cancelled_pre_launch: 1,
                ..Default::default()
            }),
            responses,
        }
    }

    #[test]
    fn red_metrics_fold_the_error_taxonomy() {
        let red = RedMetrics::from_report(&sample_report());
        assert_eq!(red.requests, 5);
        assert_eq!(red.answered(), 3);
        assert_eq!(
            red.errors(),
            vec![
                ("cancelled", 1),
                ("deadline_exceeded", 1),
                ("queue_full", 1)
            ]
        );
        // The cumulative histogram sees all three answers.
        assert_eq!(red.latency.count(), 3);
    }

    #[test]
    fn prometheus_text_is_schema_valid_and_carries_the_red_series() {
        let text = prometheus_text(&sample_report());
        let samples = parse_prometheus(&text).expect("schema-valid exposition");
        assert_eq!(samples["tcg_serve_requests_total"], 5.0);
        assert_eq!(samples["tcg_serve_answered_total"], 3.0);
        assert_eq!(samples["tcg_serve_errors_total{error=\"queue_full\"}"], 1.0);
        assert_eq!(
            samples["tcg_serve_errors_total{error=\"deadline_exceeded\"}"],
            1.0
        );
        assert_eq!(samples["tcg_serve_errors_total{error=\"cancelled\"}"], 1.0);
        assert_eq!(
            samples["tcg_serve_cancelled_total{stage=\"pre_launch\"}"],
            1.0
        );
        assert_eq!(
            samples["tcg_serve_cancelled_total{stage=\"kernel_boundary\"}"],
            0.0
        );
        assert_eq!(
            samples["tcg_serve_cache_poison_total{event=\"recovered\"}"],
            1.0
        );
        assert_eq!(
            samples["tcg_serve_breaker_events_total{event=\"opened\"}"],
            0.0
        );
        assert_eq!(
            samples["tcg_serve_brownout_shed_total{priority=\"low\"}"],
            0.0
        );
        assert_eq!(samples["tcg_serve_latency_ms_count"], 3.0);
        assert_eq!(samples["tcg_serve_queue_depth_max"], 4.0);
        assert_eq!(samples["tcg_serve_cache_hit_ratio"], 0.5);
        assert_eq!(samples["tcg_serve_stream_busy_ms{stream=\"1\"}"], 5.0);
        // HELP/TYPE precede every family.
        for family in [
            "tcg_serve_requests_total",
            "tcg_serve_errors_total",
            "tcg_serve_latency_ms",
        ] {
            assert!(text.contains(&format!("# HELP {family} ")));
            assert!(text.contains(&format!("# TYPE {family} ")));
        }
        // Deterministic.
        assert_eq!(text, prometheus_text(&sample_report()));
    }

    #[test]
    fn parse_prometheus_rejects_malformed_input() {
        assert!(parse_prometheus("").is_err());
        assert!(parse_prometheus("novalue\n").is_err());
        assert!(parse_prometheus("9bad_name 1\n").is_err());
        assert!(parse_prometheus("m{unterminated 1\n").is_err());
        assert!(parse_prometheus("m NaN\n").is_err());
        assert!(parse_prometheus("ok_metric 1.5\n").is_ok());
    }

    #[test]
    fn top_dashboard_mentions_every_red_row() {
        let top = render_top(&sample_report());
        for needle in [
            "requests",
            "rate",
            "latency",
            "errors",
            "queue",
            "sgt cache",
            "faults",
            "stream 0",
            "stream 1",
            "deadline_exceeded 1",
            "queue_full 1",
            "cancelled 1",
            "resil.",
            "1 poison recovered",
        ] {
            assert!(top.contains(needle), "missing {needle:?} in:\n{top}");
        }
    }
}

//! Serve-side failure containment: deadline cancellation, per-backend
//! circuit breaking, and brownout overload control.
//!
//! Everything here is deterministic under the virtual-time/seed regime the
//! server already guarantees: the brownout ladder is a pure function of the
//! arrival trace (queue depth and dispatch-time queue waits, never
//! execution timing on another stream), the breaker folds the per-stream
//! fault schedule (itself seeded), and retry jitter hashes the fault seed.
//! Chaos serve runs with resilience enabled are byte-identical across
//! repeats and thread counts.

use tcg_fault::{BreakerConfig, BreakerStats};
use tcg_profile::StreamingHistogram;

use crate::batcher::Batcher;
use crate::request::Priority;

/// Brownout (graduated load-shedding) configuration. Levels:
///
/// | level | trigger (queue fraction) | action |
/// |-------|--------------------------|--------|
/// | 1     | `shrink_at`              | shrink `max_batch` by `shrink_factor` |
/// | 2     | `shed_low_at`            | … and shed [`Priority::Low`] arrivals |
/// | 3     | `shed_all_at`            | … and shed everything non-critical |
///
/// Triggers are fractions of the admission queue's capacity. On top of the
/// depth trigger, a dispatch-time queue-wait p99 above `wait_p99_ms`
/// escalates the ladder one level (capped at 3) — sustained latency
/// pressure browns out even when depth alone looks tolerable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BrownoutConfig {
    /// Queue fraction at which batches shrink (level 1).
    pub shrink_at: f64,
    /// Queue fraction at which low-priority arrivals shed (level 2).
    pub shed_low_at: f64,
    /// Queue fraction at which all non-critical arrivals shed (level 3).
    pub shed_all_at: f64,
    /// Divisor applied to `max_batch` at level ≥ 1 (clamped to ≥ 1).
    pub shrink_factor: usize,
    /// Dispatch-time queue-wait p99 (virtual ms) that escalates one level.
    pub wait_p99_ms: f64,
}

impl Default for BrownoutConfig {
    fn default() -> Self {
        BrownoutConfig {
            shrink_at: 0.5,
            shed_low_at: 0.75,
            shed_all_at: 0.9,
            shrink_factor: 2,
            wait_p99_ms: 8.0,
        }
    }
}

/// Brownout accounting for the serve report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BrownoutStats {
    /// Ladder level changes over the trace.
    pub level_changes: u64,
    /// Highest level reached.
    pub max_level: u8,
    /// Low-priority requests shed by the ladder.
    pub shed_low: u64,
    /// Normal-priority requests shed at level 3.
    pub shed_normal: u64,
}

/// The dispatcher-side brownout controller: tracks the ladder level from
/// queue depth and dispatch-time waits, resizes the batcher, and decides
/// per-arrival shedding. Purely trace-driven.
#[derive(Debug)]
pub(crate) struct BrownoutController {
    cfg: BrownoutConfig,
    base_max_batch: usize,
    capacity: usize,
    level: u8,
    waits: StreamingHistogram,
    stats: BrownoutStats,
}

impl BrownoutController {
    pub(crate) fn new(cfg: BrownoutConfig, base_max_batch: usize, capacity: usize) -> Self {
        BrownoutController {
            cfg,
            base_max_batch: base_max_batch.max(1),
            capacity: capacity.max(1),
            level: 0,
            waits: StreamingHistogram::new(),
            stats: BrownoutStats::default(),
        }
    }

    /// Feeds one dispatch-time queue wait (batch close minus request
    /// arrival) into the p99 escalation signal.
    pub(crate) fn observe_wait(&mut self, wait_ms: f64) {
        self.waits.record(wait_ms);
    }

    /// Recomputes the ladder level from the queue occupancy, retargeting
    /// the batcher's size trigger on level changes. Returns the level now
    /// in force.
    pub(crate) fn update(&mut self, pending: usize, batcher: &mut Batcher) -> u8 {
        let frac = pending as f64 / self.capacity as f64;
        let mut level = if frac >= self.cfg.shed_all_at {
            3
        } else if frac >= self.cfg.shed_low_at {
            2
        } else if frac >= self.cfg.shrink_at {
            1
        } else {
            0
        };
        if self.waits.count() > 0 && self.waits.p99() > self.cfg.wait_p99_ms {
            level = (level + 1).min(3);
        }
        if level != self.level {
            self.level = level;
            self.stats.level_changes += 1;
            self.stats.max_level = self.stats.max_level.max(level);
            let target = if level >= 1 {
                (self.base_max_batch / self.cfg.shrink_factor.max(1)).max(1)
            } else {
                self.base_max_batch
            };
            batcher.set_max_batch(target);
        }
        level
    }

    /// Whether the ladder sheds an arrival of `priority` at the current
    /// level (recording the shed when it does).
    pub(crate) fn should_shed(&mut self, priority: Priority) -> bool {
        match (self.level, priority) {
            (level, Priority::Low) if level >= 2 => {
                self.stats.shed_low += 1;
                true
            }
            (level, Priority::Normal) if level >= 3 => {
                self.stats.shed_normal += 1;
                true
            }
            _ => false,
        }
    }

    /// The current ladder level.
    pub(crate) fn level(&self) -> u8 {
        self.level
    }

    pub(crate) fn stats(&self) -> BrownoutStats {
        self.stats
    }
}

/// The resilience layer's configuration. `ServeConfig::resilience = None`
/// resolves to `ResilienceConfig::off()`, in which every policy is a
/// no-op; `Some(default)` turns every pillar on.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceConfig {
    /// Cancel dead-deadline requests at checkpoint boundaries
    /// (pre-translate, pre-launch, between kernel launches) instead of
    /// executing them to a Late outcome.
    pub deadline_cancellation: bool,
    /// Per-(device, backend) circuit breaker; `None` disables breaking.
    pub breaker: Option<BreakerConfig>,
    /// Brownout shedding ladder; `None` keeps the binary queue-full shed.
    pub brownout: Option<BrownoutConfig>,
    /// Jitter fraction for engine retry backoff (seeded from the fault
    /// seed; 0 keeps the deterministic jitter-free exponential schedule).
    pub retry_jitter_frac: f64,
    /// Spot-check every `n`th translation-cache hit with the full
    /// `validate()` pass (0 = checksum verification only).
    pub spot_check_every: u64,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            deadline_cancellation: true,
            breaker: Some(BreakerConfig::default()),
            brownout: Some(BrownoutConfig::default()),
            retry_jitter_frac: 0.25,
            spot_check_every: 8,
        }
    }
}

impl ResilienceConfig {
    /// Every policy off — what `ServeConfig::resilience = None` resolves
    /// to: no deadline culling, breaker, brownout or retry jitter.
    pub(crate) fn off() -> Self {
        ResilienceConfig {
            deadline_cancellation: false,
            breaker: None,
            brownout: None,
            retry_jitter_frac: 0.0,
            spot_check_every: 0,
        }
    }
}

/// Aggregated resilience accounting in the serve report.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ResilienceSummary {
    /// Requests cancelled before their batch's translation was resolved.
    pub cancelled_pre_translate: usize,
    /// Requests cancelled after batch formation, before any launch.
    pub cancelled_pre_launch: usize,
    /// Requests cancelled between kernel launches mid-batch.
    pub cancelled_kernel_boundary: usize,
    /// Brownout ladder accounting.
    pub brownout: BrownoutStats,
    /// Circuit-breaker counters summed over every stream.
    pub breaker: BreakerStats,
    /// Breaker state transitions summed over every stream.
    pub breaker_transitions: usize,
}

impl ResilienceSummary {
    /// Total cancelled requests across all stages.
    pub fn cancelled(&self) -> usize {
        self.cancelled_pre_translate + self.cancelled_pre_launch + self.cancelled_kernel_boundary
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batcher::BatchPolicy;

    #[test]
    fn ladder_levels_follow_queue_depth() {
        let mut b = Batcher::new(BatchPolicy {
            max_batch: 8,
            max_delay_ms: 1.0,
        });
        let mut c = BrownoutController::new(BrownoutConfig::default(), 8, 100);
        assert_eq!(c.update(10, &mut b), 0);
        assert_eq!(b.policy().max_batch, 8);
        assert_eq!(c.update(50, &mut b), 1);
        assert_eq!(b.policy().max_batch, 4, "level 1 shrinks batches");
        assert_eq!(c.update(75, &mut b), 2);
        assert!(c.should_shed(Priority::Low));
        assert!(!c.should_shed(Priority::Normal));
        assert_eq!(c.update(95, &mut b), 3);
        assert!(c.should_shed(Priority::Normal));
        assert!(!c.should_shed(Priority::Critical), "critical never sheds");
        assert_eq!(c.update(0, &mut b), 0);
        assert_eq!(b.policy().max_batch, 8, "recovery restores the batch size");
        let s = c.stats();
        assert_eq!(s.max_level, 3);
        assert_eq!(s.level_changes, 4);
        assert_eq!((s.shed_low, s.shed_normal), (1, 1));
    }

    #[test]
    fn wait_p99_escalates_one_level() {
        let mut b = Batcher::new(BatchPolicy {
            max_batch: 8,
            max_delay_ms: 1.0,
        });
        let mut c = BrownoutController::new(
            BrownoutConfig {
                wait_p99_ms: 1.0,
                ..BrownoutConfig::default()
            },
            8,
            100,
        );
        for _ in 0..100 {
            c.observe_wait(5.0);
        }
        assert_eq!(c.update(10, &mut b), 1, "latency pressure escalates");
        assert_eq!(c.update(95, &mut b), 3, "escalation caps at 3");
        assert_eq!(c.level(), 3);
    }
}

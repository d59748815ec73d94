//! Deterministic fault injection for the simulated GPU stack.
//!
//! Real deployments of hybrid sparse kernels must tolerate transient device
//! faults: launches fail, allocations spuriously run out, tensor-core
//! accumulators pick up ECC-uncorrectable bit flips. This crate provides the
//! three pieces the rest of the workspace threads through:
//!
//! - [`TcgError`], the unified error taxonomy. It subsumes the graph layer's
//!   [`GraphError`] and the kernel layer's dimension/capacity errors, and
//!   adds variants for every injectable device fault, so a fallible call
//!   anywhere in the stack reports *one* typed error instead of panicking.
//! - [`FaultPlan`], a seeded, counter-based RNG plus per-site probabilities.
//!   The launcher consults it at each injection point ([`FaultSite`]); the
//!   same seed and workload always yields the same fault schedule, which is
//!   what makes chaos tests and `FaultReport` comparisons byte-exact.
//! - [`FaultReport`], the per-engine accounting of injected / retried /
//!   degraded counts surfaced through `TrainResult`.
//!
//! Nothing here depends on the simulator; `gpusim` depends on this crate,
//! not the other way round.

use serde::{Deserialize, Serialize};
use tcg_graph::GraphError;

/// A point in the simulated GPU where a fault can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultSite {
    /// The kernel launch itself fails (driver-level transient).
    KernelLaunch,
    /// The launch is reported as exceeding the SM's shared-memory carve-out.
    SmemOvercommit,
    /// A device allocation (tile staging buffer) reports out-of-memory.
    DeviceOom,
    /// An ECC-uncorrectable bit flip lands in a WMMA accumulator fragment
    /// and surfaces as NaN in the kernel output.
    EccBitFlip,
}

impl FaultSite {
    /// All sites, in the order used by `FaultPlan`'s counters.
    pub fn all() -> [FaultSite; 4] {
        [
            FaultSite::KernelLaunch,
            FaultSite::SmemOvercommit,
            FaultSite::DeviceOom,
            FaultSite::EccBitFlip,
        ]
    }

    /// Stable lowercase label used in profile events and reports.
    pub fn label(&self) -> &'static str {
        match self {
            FaultSite::KernelLaunch => "launch_fail",
            FaultSite::SmemOvercommit => "smem_overcommit",
            FaultSite::DeviceOom => "device_oom",
            FaultSite::EccBitFlip => "ecc_bit_flip",
        }
    }

    fn index(&self) -> usize {
        match self {
            FaultSite::KernelLaunch => 0,
            FaultSite::SmemOvercommit => 1,
            FaultSite::DeviceOom => 2,
            FaultSite::EccBitFlip => 3,
        }
    }
}

/// The unified error taxonomy of the stack.
///
/// Variants split into three families:
///
/// - **wrapped lower layers**: [`TcgError::Graph`];
/// - **caller mistakes** (not recoverable by retry or fallback):
///   [`TcgError::DimMismatch`], [`TcgError::MemoryExceeded`],
///   [`TcgError::CorruptMeta`], [`TcgError::InvalidInput`];
/// - **device faults** (injected or genuine; candidates for retry and
///   TCU→CUDA-core degradation): [`TcgError::LaunchFailed`],
///   [`TcgError::SmemOvercommit`], [`TcgError::DeviceOom`],
///   [`TcgError::EccCorruption`];
/// - **admission outcomes** (request-level, raised by the serving layer, not
///   device faults): [`TcgError::QueueFull`], [`TcgError::DeadlineExceeded`],
///   [`TcgError::Cancelled`].
#[derive(Debug, Clone, PartialEq)]
pub enum TcgError {
    /// A graph-layer error (I/O, malformed CSR, unknown dataset).
    Graph(GraphError),
    /// Operand dimensions disagree.
    DimMismatch {
        /// Which quantity mismatched.
        what: &'static str,
        /// Expected extent.
        expected: usize,
        /// Actual extent.
        actual: usize,
    },
    /// A kernel's working set exceeds modeled device capacity.
    MemoryExceeded {
        /// Bytes the kernel needs resident.
        required_bytes: u128,
        /// Bytes the device offers.
        capacity_bytes: u128,
    },
    /// SGT translation metadata failed validation against its source graph.
    CorruptMeta {
        /// Which invariant failed.
        what: &'static str,
        /// Human-readable specifics (indices, extents).
        detail: String,
    },
    /// An API precondition was violated (e.g. an asymmetric graph handed to
    /// an aggregation engine).
    InvalidInput {
        /// Which precondition failed.
        what: &'static str,
        /// Human-readable specifics.
        detail: String,
    },
    /// A kernel launch failed (transient; retry may succeed).
    LaunchFailed {
        /// Kernel name, for reports and traces.
        kernel: &'static str,
    },
    /// A launch requested more shared memory than the SM can carve out.
    SmemOvercommit {
        /// Shared-memory bytes requested per block.
        requested_bytes: usize,
        /// The device's per-SM limit.
        limit_bytes: usize,
    },
    /// A device allocation failed (transient; retry may succeed).
    DeviceOom {
        /// Bytes requested.
        requested_bytes: usize,
    },
    /// ECC-uncorrectable corruption was detected in a kernel's output.
    EccCorruption {
        /// Kernel name whose output is poisoned.
        kernel: &'static str,
        /// Number of corrupted accumulator fragments.
        faults: u64,
    },
    /// An admission queue is at capacity; the request was shed (backpressure).
    QueueFull {
        /// The queue's bounded capacity.
        capacity: usize,
    },
    /// A request finished after its deadline and its result was discarded.
    DeadlineExceeded {
        /// The per-request deadline, in simulated milliseconds.
        deadline_ms: f64,
        /// The latency actually observed, in simulated milliseconds.
        observed_ms: f64,
    },
    /// A request was cancelled at a checkpoint boundary because its deadline
    /// was already dead — no further translation or launch work was paid.
    Cancelled {
        /// The checkpoint stage that observed the dead deadline
        /// (`"pre_translate"`, `"pre_launch"`, `"kernel_boundary"`).
        stage: &'static str,
        /// The per-request deadline, in simulated milliseconds.
        deadline_ms: f64,
    },
}

impl TcgError {
    /// Whether a bounded retry of the same operation can plausibly succeed.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            TcgError::LaunchFailed { .. } | TcgError::DeviceOom { .. }
        )
    }

    /// The injection site this error corresponds to, when it is a device
    /// fault. `None` for caller mistakes, which no retry or fallback fixes.
    pub fn site(&self) -> Option<FaultSite> {
        match self {
            TcgError::LaunchFailed { .. } => Some(FaultSite::KernelLaunch),
            TcgError::SmemOvercommit { .. } => Some(FaultSite::SmemOvercommit),
            TcgError::DeviceOom { .. } => Some(FaultSite::DeviceOom),
            TcgError::EccCorruption { .. } => Some(FaultSite::EccBitFlip),
            _ => None,
        }
    }

    /// Whether this is a device fault, i.e. a candidate for graceful
    /// degradation to the CUDA-core path.
    pub fn is_device_fault(&self) -> bool {
        self.site().is_some()
    }
}

impl std::fmt::Display for TcgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TcgError::Graph(e) => write!(f, "graph error: {e}"),
            TcgError::DimMismatch {
                what,
                expected,
                actual,
            } => write!(
                f,
                "dimension mismatch on {what}: expected {expected}, got {actual}"
            ),
            TcgError::MemoryExceeded {
                required_bytes,
                capacity_bytes,
            } => write!(
                f,
                "working set of {required_bytes} B exceeds device capacity {capacity_bytes} B"
            ),
            TcgError::CorruptMeta { what, detail } => {
                write!(f, "corrupt SGT metadata ({what}): {detail}")
            }
            TcgError::InvalidInput { what, detail } => {
                write!(f, "invalid input ({what}): {detail}")
            }
            TcgError::LaunchFailed { kernel } => {
                write!(f, "kernel launch failed: {kernel}")
            }
            TcgError::SmemOvercommit {
                requested_bytes,
                limit_bytes,
            } => write!(
                f,
                "shared memory overcommit: requested {requested_bytes} B, SM limit {limit_bytes} B"
            ),
            TcgError::DeviceOom { requested_bytes } => {
                write!(f, "device out of memory allocating {requested_bytes} B")
            }
            TcgError::EccCorruption { kernel, faults } => {
                write!(
                    f,
                    "ECC corruption in {kernel} output ({faults} fragment(s))"
                )
            }
            TcgError::QueueFull { capacity } => {
                write!(f, "admission queue full (capacity {capacity})")
            }
            TcgError::DeadlineExceeded {
                deadline_ms,
                observed_ms,
            } => write!(
                f,
                "deadline exceeded: {observed_ms:.3} ms observed against a {deadline_ms:.3} ms budget"
            ),
            TcgError::Cancelled { stage, deadline_ms } => write!(
                f,
                "cancelled at {stage}: {deadline_ms:.3} ms deadline already dead"
            ),
        }
    }
}

impl std::error::Error for TcgError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TcgError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GraphError> for TcgError {
    fn from(e: GraphError) -> Self {
        TcgError::Graph(e)
    }
}

/// Per-site fault probabilities, each in `[0, 1]` per consultation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Probability a kernel launch fails.
    pub launch_rate: f64,
    /// Probability a launch is reported as shared-memory overcommitted.
    pub smem_rate: f64,
    /// Probability a device allocation reports OOM.
    pub oom_rate: f64,
    /// Probability a launch arms an ECC bit flip in a WMMA accumulator.
    pub ecc_rate: f64,
}

impl FaultConfig {
    /// All sites disabled.
    pub fn none() -> Self {
        FaultConfig {
            launch_rate: 0.0,
            smem_rate: 0.0,
            oom_rate: 0.0,
            ecc_rate: 0.0,
        }
    }

    /// The same rate at every site.
    pub fn uniform(rate: f64) -> Self {
        FaultConfig {
            launch_rate: rate,
            smem_rate: rate,
            oom_rate: rate,
            ecc_rate: rate,
        }
    }

    fn rate(&self, site: FaultSite) -> f64 {
        match site {
            FaultSite::KernelLaunch => self.launch_rate,
            FaultSite::SmemOvercommit => self.smem_rate,
            FaultSite::DeviceOom => self.oom_rate,
            FaultSite::EccBitFlip => self.ecc_rate,
        }
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::none()
    }
}

/// Seed used when `TCG_FAULT_SEED` is not set.
pub const DEFAULT_FAULT_SEED: u64 = 42;

/// A deterministic fault schedule: seeded counter-based RNG plus per-site
/// probabilities and injection accounting.
///
/// Each consultation ([`FaultPlan::roll`]) for a site with a non-zero rate
/// consumes exactly one RNG draw; sites with a zero rate consume none, and a
/// suppressed plan consumes none. Because the simulator is single-stream,
/// the sequence of consultations — and therefore the fault schedule — is a
/// pure function of the seed, the config, and the workload.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    config: FaultConfig,
    draws: u64,
    injected: [u64; 4],
    suppressed: bool,
}

impl FaultPlan {
    /// A plan rolling with `config`'s rates under `seed`.
    pub fn new(seed: u64, config: FaultConfig) -> Self {
        FaultPlan {
            seed,
            config,
            draws: 0,
            injected: [0; 4],
            suppressed: false,
        }
    }

    /// Builds a plan from `TCG_FAULT_SEED` / `TCG_FAULT_RATE`.
    ///
    /// Returns `None` unless `TCG_FAULT_RATE` is set to a positive
    /// probability, which is applied uniformly to all sites. The seed
    /// defaults to [`DEFAULT_FAULT_SEED`].
    pub fn from_env() -> Option<Self> {
        let rate: f64 = std::env::var("TCG_FAULT_RATE").ok()?.trim().parse().ok()?;
        if !rate.is_finite() || rate <= 0.0 {
            return None;
        }
        let seed = std::env::var("TCG_FAULT_SEED")
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(DEFAULT_FAULT_SEED);
        Some(FaultPlan::new(seed, FaultConfig::uniform(rate.min(1.0))))
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The per-site rates.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Counter-based SplitMix64: draw `i` is a pure function of `(seed, i)`.
    fn next_draw(&mut self) -> u64 {
        let mut z = self
            .seed
            .wrapping_add(self.draws.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        self.draws += 1;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Consults the plan at `site`. Returns `true` when a fault should be
    /// injected, and (for all sites except [`FaultSite::EccBitFlip`], whose
    /// injection only counts if a tensor-core op actually consumes it)
    /// records the injection.
    pub fn roll(&mut self, site: FaultSite) -> bool {
        if self.suppressed {
            return false;
        }
        let rate = self.config.rate(site);
        if rate <= 0.0 {
            return false;
        }
        let draw = self.next_draw();
        // Top 53 bits → a uniform f64 in [0, 1).
        let hit = ((draw >> 11) as f64) / ((1u64 << 53) as f64) < rate;
        if hit && site != FaultSite::EccBitFlip {
            self.injected[site.index()] += 1;
        }
        hit
    }

    /// Records `n` ECC flips actually consumed by tensor-core ops. Armed
    /// flips that no WMMA op consumed (e.g. a CUDA-core kernel) are not
    /// injections and must not be recorded.
    pub fn note_ecc_consumed(&mut self, n: u64) {
        self.injected[FaultSite::EccBitFlip.index()] += n;
    }

    /// Suppresses (or re-enables) injection. While suppressed, rolls return
    /// `false` without consuming RNG draws — the fallback/replay path runs
    /// fault-free without perturbing the schedule.
    pub fn set_suppressed(&mut self, on: bool) {
        self.suppressed = on;
    }

    /// Whether injection is currently suppressed.
    pub fn is_suppressed(&self) -> bool {
        self.suppressed
    }

    /// Number of faults injected at `site` so far.
    pub fn injected(&self, site: FaultSite) -> u64 {
        self.injected[site.index()]
    }

    /// Total faults injected across all sites.
    pub fn total_injected(&self) -> u64 {
        self.injected.iter().sum()
    }

    /// RNG draws consumed so far (a determinism fingerprint).
    pub fn draws(&self) -> u64 {
        self.draws
    }
}

/// Per-engine fault accounting: what was injected, what was retried, what
/// fell back to the CUDA-core path. `Serialize` + `PartialEq` so chaos tests
/// can require byte-identical reports across repeated runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultReport {
    /// Injected kernel-launch failures.
    pub launch_failures: u64,
    /// Injected shared-memory overcommits.
    pub smem_overcommits: u64,
    /// Injected device-OOM allocations.
    pub device_ooms: u64,
    /// ECC bit flips consumed by tensor-core ops.
    pub ecc_flips: u64,
    /// Retry attempts made for transient faults.
    pub retried: u64,
    /// Operations that degraded to the CUDA-core fallback path.
    pub degraded: u64,
}

impl FaultReport {
    /// Total injected faults across all sites.
    pub fn total_injected(&self) -> u64 {
        self.launch_failures + self.smem_overcommits + self.device_ooms + self.ecc_flips
    }

    /// Builds the injected half of a report from a plan's counters.
    pub fn from_plan(plan: &FaultPlan) -> Self {
        FaultReport {
            launch_failures: plan.injected(FaultSite::KernelLaunch),
            smem_overcommits: plan.injected(FaultSite::SmemOvercommit),
            device_ooms: plan.injected(FaultSite::DeviceOom),
            ecc_flips: plan.injected(FaultSite::EccBitFlip),
            retried: 0,
            degraded: 0,
        }
    }

    /// Sums another report's counters into this one (per-engine merge).
    pub fn absorb(&mut self, other: &FaultReport) {
        self.launch_failures += other.launch_failures;
        self.smem_overcommits += other.smem_overcommits;
        self.device_ooms += other.device_ooms;
        self.ecc_flips += other.ecc_flips;
        self.retried += other.retried;
        self.degraded += other.degraded;
    }
}

/// Seeded exponential-backoff retry policy with optional deterministic
/// jitter.
///
/// The delay for a given `(sequence, attempt)` pair is a *pure function* of
/// the policy's fields — no hidden RNG state is consumed — so retry timing
/// is bit-reproducible regardless of thread count or interleaving. The
/// jitter hash reuses the SplitMix64 mix that drives [`FaultPlan`], keyed by
/// `(seed, sequence, attempt)`.
///
/// With the default `multiplier = 2.0` and `jitter_frac = 0.0`, attempts 1
/// and 2 produce `base_ms` and `2 * base_ms` — bit-identical to the linear
/// `backoff_ms * attempt` schedule the engine used before this policy
/// existed, so default-recovery chaos timings are unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Delay of the first retry, in simulated milliseconds.
    pub base_ms: f64,
    /// Growth factor per further attempt (exponential backoff).
    pub multiplier: f64,
    /// Jitter amplitude as a fraction of the computed delay, in `[0, 1]`.
    /// Zero disables jitter entirely.
    pub jitter_frac: f64,
    /// Seed for the deterministic jitter hash (conventionally the fault
    /// seed, so chaos schedules and retry timing share one knob).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            base_ms: 0.05,
            multiplier: 2.0,
            jitter_frac: 0.0,
            seed: DEFAULT_FAULT_SEED,
        }
    }
}

impl RetryPolicy {
    /// Returns this policy with jitter enabled at `frac` of the delay.
    pub fn with_jitter(mut self, frac: f64, seed: u64) -> Self {
        self.jitter_frac = frac.clamp(0.0, 1.0);
        self.seed = seed;
        self
    }

    /// SplitMix64 finalizer — same mix as [`FaultPlan`]'s counter RNG.
    fn mix(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// The backoff delay before retry `attempt` (1-based) of logical retry
    /// number `sequence`. Pure in all arguments: calling it twice — or from
    /// eight threads — yields bit-identical results.
    pub fn delay_ms(&self, sequence: u64, attempt: u32) -> f64 {
        if attempt == 0 {
            return 0.0;
        }
        let exp = self.base_ms * self.multiplier.powi(attempt as i32 - 1);
        if self.jitter_frac <= 0.0 {
            return exp;
        }
        let h = Self::mix(
            self.seed
                .wrapping_add(sequence.wrapping_mul(0x9e37_79b9_7f4a_7c15))
                .wrapping_add(u64::from(attempt).wrapping_mul(0xd1b5_4a32_d192_ed03)),
        );
        // Top 53 bits → uniform in [0, 1); jitter scales the delay into
        // [1 - frac, 1 + frac) around the exponential schedule.
        let u = ((h >> 11) as f64) / ((1u64 << 53) as f64);
        exp * (1.0 - self.jitter_frac + 2.0 * self.jitter_frac * u)
    }
}

// ---------------------------------------------------------------------------
// Circuit breaker
// ---------------------------------------------------------------------------

/// Breaker tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BreakerConfig {
    /// Consecutive faulted batches that trip the breaker open.
    pub failure_threshold: u32,
    /// Virtual milliseconds an open breaker waits before letting one
    /// half-open probe through.
    pub cooldown_ms: f64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 2,
            cooldown_ms: 5.0,
        }
    }
}

/// The breaker's state machine position.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BreakerState {
    /// Healthy: work routes to the primary (TCU) path.
    Closed {
        /// Consecutive faulted batches observed so far.
        consecutive_failures: u32,
    },
    /// Tripped: whole batches route to the fallback path until the cooldown
    /// expires on the virtual clock.
    Open {
        /// Virtual time at which a half-open probe is allowed.
        until_ms: f64,
    },
    /// Cooldown expired: the next batch probes the primary path; a fault
    /// re-opens, a clean batch closes.
    HalfOpen,
}

impl BreakerState {
    /// Stable lowercase label for traces and metrics.
    pub fn label(&self) -> &'static str {
        match self {
            BreakerState::Closed { .. } => "closed",
            BreakerState::Open { .. } => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }
}

/// Where the breaker routed a unit of work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerRoute {
    /// The primary (TCU) path.
    Primary,
    /// The degraded (CUDA-core) fallback path.
    Fallback,
}

/// One recorded state transition, timestamped on the virtual clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerTransition {
    /// Virtual time of the transition.
    pub at_ms: f64,
    /// Label of the state left ("closed" / "open" / "half_open").
    pub from: &'static str,
    /// Label of the state entered.
    pub to: &'static str,
}

/// Aggregate breaker accounting for reports and metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BreakerStats {
    /// Closed→open trips.
    pub opened: u64,
    /// Half-open probes that faulted and re-opened the breaker.
    pub reopened: u64,
    /// Open→half-open probe admissions.
    pub half_open_probes: u64,
    /// Transitions back to closed (successful probes).
    pub closed: u64,
    /// Whole batches routed to the fallback path while open.
    pub rerouted_batches: u64,
}

impl BreakerStats {
    /// Sums another breaker's counters into this one (per-stream merge).
    pub fn absorb(&mut self, other: &BreakerStats) {
        self.opened += other.opened;
        self.reopened += other.reopened;
        self.half_open_probes += other.half_open_probes;
        self.closed += other.closed;
        self.rerouted_batches += other.rerouted_batches;
    }
}

/// A per-(device, backend) circuit breaker over consecutive device faults.
///
/// Deterministic by construction: the state after any prefix of
/// `(now_ms, faulted)` observations is a pure fold of that prefix — there is
/// no wall-clock or RNG input — so chaos serve runs stay byte-identical.
///
/// Protocol per batch: call [`CircuitBreaker::route`] with the batch's
/// virtual start time to learn where to run it (this is where an expired
/// cooldown moves open→half-open); run it; then call
/// [`CircuitBreaker::on_result`] with whether the batch suffered device
/// faults. Batches routed to [`BreakerRoute::Fallback`] should report
/// `faulted = false` — the fallback path is fault-suppressed and says
/// nothing about primary-path health.
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: BreakerState,
    stats: BreakerStats,
    transitions: Vec<BreakerTransition>,
}

impl CircuitBreaker {
    /// A closed breaker with `config`'s thresholds.
    pub fn new(config: BreakerConfig) -> Self {
        CircuitBreaker {
            config,
            state: BreakerState::Closed {
                consecutive_failures: 0,
            },
            stats: BreakerStats::default(),
            transitions: Vec::new(),
        }
    }

    /// The current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Aggregate counters so far.
    pub fn stats(&self) -> &BreakerStats {
        &self.stats
    }

    /// Every state transition so far, in virtual-time order.
    pub fn transitions(&self) -> &[BreakerTransition] {
        &self.transitions
    }

    fn transition(&mut self, at_ms: f64, to: BreakerState) {
        self.transitions.push(BreakerTransition {
            at_ms,
            from: self.state.label(),
            to: to.label(),
        });
        self.state = to;
    }

    /// Routes a unit of work starting at virtual time `now_ms`. An open
    /// breaker whose cooldown has expired transitions to half-open here and
    /// admits the work as a probe; an open breaker still cooling down routes
    /// to the fallback (counted in
    /// [`BreakerStats::rerouted_batches`]).
    pub fn route(&mut self, now_ms: f64) -> BreakerRoute {
        match self.state {
            BreakerState::Closed { .. } => BreakerRoute::Primary,
            BreakerState::Open { until_ms } if now_ms >= until_ms => {
                self.stats.half_open_probes += 1;
                self.transition(now_ms, BreakerState::HalfOpen);
                BreakerRoute::Primary
            }
            BreakerState::Open { .. } => {
                self.stats.rerouted_batches += 1;
                BreakerRoute::Fallback
            }
            BreakerState::HalfOpen => BreakerRoute::Primary,
        }
    }

    /// Records the outcome of the unit of work admitted at `now_ms`:
    /// `faulted` is whether it suffered any device fault on the primary
    /// path. Only meaningful for work routed to [`BreakerRoute::Primary`];
    /// fallback batches should report `faulted = false`.
    pub fn on_result(&mut self, now_ms: f64, faulted: bool) {
        match self.state {
            BreakerState::Closed {
                consecutive_failures,
            } => {
                if faulted {
                    let n = consecutive_failures + 1;
                    if n >= self.config.failure_threshold {
                        self.stats.opened += 1;
                        self.transition(
                            now_ms,
                            BreakerState::Open {
                                until_ms: now_ms + self.config.cooldown_ms,
                            },
                        );
                    } else {
                        self.state = BreakerState::Closed {
                            consecutive_failures: n,
                        };
                    }
                } else if consecutive_failures != 0 {
                    self.state = BreakerState::Closed {
                        consecutive_failures: 0,
                    };
                }
            }
            BreakerState::HalfOpen => {
                if faulted {
                    self.stats.reopened += 1;
                    self.transition(
                        now_ms,
                        BreakerState::Open {
                            until_ms: now_ms + self.config.cooldown_ms,
                        },
                    );
                } else {
                    self.stats.closed += 1;
                    self.transition(
                        now_ms,
                        BreakerState::Closed {
                            consecutive_failures: 0,
                        },
                    );
                }
            }
            // A result observed while open can only come from a fallback
            // batch; it says nothing about primary health.
            BreakerState::Open { .. } => {}
        }
    }
}

#[cfg(test)]
impl TcgError {
    fn source_is_graph(&self) -> bool {
        use std::error::Error;
        self.source().is_some()
    }
}

/// Whether `TCG_VERIFY=1` is set. Every fast path then also runs its slow
/// reference and checks that the two agree: a launch-memo hit against a
/// full simulation, a spliced translation against the full validate, an
/// engine advance against a fresh build's checks.
pub fn verify_requested() -> bool {
    std::env::var("TCG_VERIFY").is_ok_and(|v| v == "1")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let mut a = FaultPlan::new(7, FaultConfig::uniform(0.3));
        let mut b = FaultPlan::new(7, FaultConfig::uniform(0.3));
        let sa: Vec<bool> = (0..200).map(|_| a.roll(FaultSite::KernelLaunch)).collect();
        let sb: Vec<bool> = (0..200).map(|_| b.roll(FaultSite::KernelLaunch)).collect();
        assert_eq!(sa, sb);
        assert_eq!(
            a.injected(FaultSite::KernelLaunch),
            b.injected(FaultSite::KernelLaunch)
        );
        assert!(a.total_injected() > 0);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = FaultPlan::new(1, FaultConfig::uniform(0.5));
        let mut b = FaultPlan::new(2, FaultConfig::uniform(0.5));
        let sa: Vec<bool> = (0..64).map(|_| a.roll(FaultSite::DeviceOom)).collect();
        let sb: Vec<bool> = (0..64).map(|_| b.roll(FaultSite::DeviceOom)).collect();
        assert_ne!(sa, sb);
    }

    #[test]
    fn rates_are_roughly_respected() {
        let mut p = FaultPlan::new(99, FaultConfig::uniform(0.25));
        let hits = (0..10_000)
            .filter(|_| p.roll(FaultSite::KernelLaunch))
            .count();
        assert!((2000..3000).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn zero_rate_sites_consume_no_draws() {
        let mut p = FaultPlan::new(3, FaultConfig::none());
        for _ in 0..100 {
            assert!(!p.roll(FaultSite::SmemOvercommit));
        }
        assert_eq!(p.draws(), 0);
        assert_eq!(p.total_injected(), 0);
    }

    #[test]
    fn suppression_skips_rolls_entirely() {
        let cfg = FaultConfig::uniform(1.0);
        let mut p = FaultPlan::new(11, cfg);
        assert!(p.roll(FaultSite::KernelLaunch));
        p.set_suppressed(true);
        assert!(!p.roll(FaultSite::KernelLaunch));
        assert_eq!(p.draws(), 1, "suppressed rolls must not consume draws");
        p.set_suppressed(false);
        assert!(p.roll(FaultSite::KernelLaunch));
        assert_eq!(p.injected(FaultSite::KernelLaunch), 2);
    }

    #[test]
    fn ecc_rolls_count_only_on_consumption() {
        let mut p = FaultPlan::new(5, FaultConfig::uniform(1.0));
        assert!(p.roll(FaultSite::EccBitFlip));
        assert_eq!(p.injected(FaultSite::EccBitFlip), 0);
        p.note_ecc_consumed(1);
        assert_eq!(p.injected(FaultSite::EccBitFlip), 1);
    }

    #[test]
    fn error_taxonomy_classification() {
        let launch = TcgError::LaunchFailed { kernel: "spmm" };
        let oom = TcgError::DeviceOom {
            requested_bytes: 1024,
        };
        let smem = TcgError::SmemOvercommit {
            requested_bytes: 1 << 20,
            limit_bytes: 100 << 10,
        };
        let ecc = TcgError::EccCorruption {
            kernel: "spmm",
            faults: 1,
        };
        let dim = TcgError::DimMismatch {
            what: "edge values",
            expected: 10,
            actual: 9,
        };
        assert!(launch.is_transient() && oom.is_transient());
        assert!(!smem.is_transient() && !ecc.is_transient() && !dim.is_transient());
        assert_eq!(launch.site(), Some(FaultSite::KernelLaunch));
        assert_eq!(smem.site(), Some(FaultSite::SmemOvercommit));
        assert_eq!(oom.site(), Some(FaultSite::DeviceOom));
        assert_eq!(ecc.site(), Some(FaultSite::EccBitFlip));
        assert_eq!(dim.site(), None);
        assert!(!dim.is_device_fault());
        let ge: TcgError = GraphError::UnknownDataset { name: "x".into() }.into();
        assert!(matches!(ge, TcgError::Graph(_)));
        assert!(ge.source_is_graph());
    }

    #[test]
    fn display_is_informative() {
        let e = TcgError::CorruptMeta {
            what: "edge_to_col",
            detail: "edge 7 maps to column 99 of 8".into(),
        };
        let s = format!("{e}");
        assert!(s.contains("edge_to_col") && s.contains("edge 7"));
    }

    #[test]
    fn retry_policy_default_matches_legacy_linear_schedule() {
        // Attempts 1 and 2 must reproduce the old `backoff_ms * attempt`
        // schedule bit-for-bit so default-recovery chaos timings hold.
        let p = RetryPolicy::default();
        assert_eq!(p.delay_ms(0, 1).to_bits(), (0.05f64).to_bits());
        assert_eq!(p.delay_ms(0, 2).to_bits(), (0.10f64).to_bits());
        assert_eq!(p.delay_ms(7, 1), p.delay_ms(123, 1), "no jitter by default");
    }

    #[test]
    fn retry_policy_jitter_is_pure_and_bounded() {
        let p = RetryPolicy::default().with_jitter(0.5, 42);
        for seq in 0..50u64 {
            for attempt in 1..4u32 {
                let a = p.delay_ms(seq, attempt);
                let b = p.delay_ms(seq, attempt);
                assert_eq!(a.to_bits(), b.to_bits(), "delay must be pure");
                let exp = 0.05 * 2f64.powi(attempt as i32 - 1);
                assert!(a >= exp * 0.5 - 1e-12 && a < exp * 1.5 + 1e-12);
            }
        }
        // Jitter actually varies across sequences.
        let d: std::collections::BTreeSet<u64> =
            (0..50).map(|s| p.delay_ms(s, 1).to_bits()).collect();
        assert!(d.len() > 1, "jitter should spread delays");
    }

    #[test]
    fn breaker_trips_cools_down_probes_and_closes() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 2,
            cooldown_ms: 5.0,
        });
        assert_eq!(b.route(0.0), BreakerRoute::Primary);
        b.on_result(0.0, true);
        assert_eq!(b.route(1.0), BreakerRoute::Primary);
        b.on_result(1.0, true); // second consecutive fault → open
        assert!(matches!(b.state(), BreakerState::Open { .. }));
        assert_eq!(b.route(2.0), BreakerRoute::Fallback, "cooling down");
        assert_eq!(b.route(6.1), BreakerRoute::Primary, "half-open probe");
        assert!(matches!(b.state(), BreakerState::HalfOpen));
        b.on_result(6.1, false); // probe clean → closed
        assert!(matches!(
            b.state(),
            BreakerState::Closed {
                consecutive_failures: 0
            }
        ));
        let s = b.stats();
        assert_eq!(
            (
                s.opened,
                s.half_open_probes,
                s.closed,
                s.reopened,
                s.rerouted_batches
            ),
            (1, 1, 1, 0, 1)
        );
        assert_eq!(b.transitions().len(), 3);
    }

    #[test]
    fn breaker_faulted_probe_reopens() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 1,
            cooldown_ms: 2.0,
        });
        b.on_result(0.0, true);
        assert!(matches!(b.state(), BreakerState::Open { .. }));
        assert_eq!(b.route(3.0), BreakerRoute::Primary);
        b.on_result(3.0, true); // probe faulted → reopen
        assert!(matches!(b.state(), BreakerState::Open { until_ms } if until_ms == 5.0));
        assert_eq!(b.stats().reopened, 1);
    }

    #[test]
    fn breaker_clean_batches_reset_consecutive_count() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 2,
            cooldown_ms: 5.0,
        });
        b.on_result(0.0, true);
        b.on_result(1.0, false); // resets the streak
        b.on_result(2.0, true);
        assert!(
            matches!(b.state(), BreakerState::Closed { .. }),
            "non-consecutive faults must not trip the breaker"
        );
    }

    #[test]
    fn cancelled_error_classification_and_display() {
        let c = TcgError::Cancelled {
            stage: "pre_launch",
            deadline_ms: 3.5,
        };
        assert!(!c.is_transient());
        assert_eq!(c.site(), None);
        assert!(!c.is_device_fault());
        let s = format!("{c}");
        assert!(s.contains("pre_launch") && s.contains("3.500"));
    }

    #[test]
    fn report_totals_and_from_plan() {
        let mut p = FaultPlan::new(13, FaultConfig::uniform(1.0));
        p.roll(FaultSite::KernelLaunch);
        p.roll(FaultSite::DeviceOom);
        p.roll(FaultSite::EccBitFlip);
        p.note_ecc_consumed(1);
        let r = FaultReport::from_plan(&p);
        assert_eq!(r.launch_failures, 1);
        assert_eq!(r.device_ooms, 1);
        assert_eq!(r.ecc_flips, 1);
        assert_eq!(r.total_injected(), 3);
    }

    #[test]
    fn fault_report_absorb_sums_every_field() {
        let report = |n: [u64; 6]| {
            let [launch_failures, smem_overcommits, device_ooms, ecc_flips, retried, degraded] = n;
            FaultReport {
                launch_failures,
                smem_overcommits,
                device_ooms,
                ecc_flips,
                retried,
                degraded,
            }
        };
        let mut sum = report([1, 2, 3, 4, 5, 6]);
        sum.absorb(&report([10, 20, 30, 40, 50, 60]));
        assert_eq!(sum, report([11, 22, 33, 44, 55, 66]));
    }
}

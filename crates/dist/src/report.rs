//! The report of a sharded run.

use tcg_gpusim::StreamSpan;

/// Metrics of one sharded run: everything a multi-device engine executed
/// since its previous report.
#[derive(Debug, Clone, Default)]
pub struct DistReport {
    /// Devices in the run (including empty shards).
    pub devices: usize,
    /// Partitioner name (`"contiguous"` / `"greedy"`).
    pub partitioner: &'static str,
    /// End-to-end simulated time: when the last stream of the last device
    /// drains.
    pub makespan_ms: f64,
    /// Per-device drain time.
    pub per_device_ms: Vec<f64>,
    /// Per-device busy time on the compute stream.
    pub compute_busy_ms: Vec<f64>,
    /// Per-device busy time on the halo-exchange stream.
    pub comm_busy_ms: Vec<f64>,
    /// Rows each device gathers from peers (per exchange).
    pub halo_rows: Vec<usize>,
    /// Bytes each device pulled over the link, summed over the run's
    /// exchanges.
    pub halo_bytes: Vec<u64>,
    /// Total bytes the interconnect model priced (reconciles with
    /// `halo_bytes`).
    pub transfer_bytes_priced: u64,
    /// Total simulated interconnect time across devices and exchanges.
    pub transfer_ms: f64,
    /// Directed edges crossing shard boundaries.
    pub cut_edges: usize,
    /// Edges executed per device.
    pub shard_nnz: Vec<usize>,
    /// Output rows owned per device.
    pub owned_rows: Vec<usize>,
    /// Every device stream's timeline as `(stream id, spans)`, on the
    /// device-strided ids of `StreamSet::for_device` — ready for
    /// `Profiler::record_stream_span`.
    pub timelines: Vec<(u32, Vec<StreamSpan>)>,
}

impl DistReport {
    /// Busy compute time summed over devices.
    pub fn total_compute_busy_ms(&self) -> f64 {
        self.compute_busy_ms.iter().sum()
    }

    /// Total halo bytes across devices (must equal
    /// [`DistReport::transfer_bytes_priced`]).
    pub fn total_halo_bytes(&self) -> u64 {
        self.halo_bytes.iter().sum()
    }
}

//! CUDA-style streams over the simulated cost model.
//!
//! Real GPU streams are hardware FIFOs: launches within one stream serialize,
//! launches on different streams may overlap. The simulator has no hardware
//! clock, so a [`Stream`] carries its own *virtual* timeline in simulated
//! milliseconds: a launch placed on a stream starts at the later of the work's
//! ready time and the stream's previous completion, and advances the stream's
//! clock by the launch's cost-model duration. A [`StreamSet`] groups the
//! per-stream timelines of one device so a multi-threaded serving layer can
//! interleave work across streams and still produce a deterministic,
//! reproducible schedule.
//!
//! Nothing here touches the functional half of the simulator — kernels still
//! run to completion synchronously on the calling thread. Streams only decide
//! *where on the simulated clock* that work lands, which is exactly the part
//! the Perfetto export and the serving latency figures consume.

/// One launch interval placed on a stream's virtual timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamSpan {
    /// Label carried into traces (kernel or batch name).
    pub name: String,
    /// Start of the interval on the simulated clock, in milliseconds.
    pub start_ms: f64,
    /// Duration of the interval, in milliseconds.
    pub dur_ms: f64,
}

impl StreamSpan {
    /// End of the interval on the simulated clock.
    pub fn end_ms(&self) -> f64 {
        self.start_ms + self.dur_ms
    }
}

/// A single in-order execution queue with a virtual clock.
#[derive(Debug, Clone)]
pub struct Stream {
    id: u32,
    now_ms: f64,
    busy_ms: f64,
    spans: Vec<StreamSpan>,
}

impl Stream {
    /// A fresh stream whose clock sits at time zero.
    pub fn new(id: u32) -> Self {
        Stream {
            id,
            now_ms: 0.0,
            busy_ms: 0.0,
            spans: Vec::new(),
        }
    }

    /// The stream's identifier (trace track number).
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The stream's current clock: when its last launch completes.
    pub fn now_ms(&self) -> f64 {
        self.now_ms
    }

    /// Total busy time accumulated on this stream.
    pub fn busy_ms(&self) -> f64 {
        self.busy_ms
    }

    /// Number of launches placed on this stream.
    pub fn launches(&self) -> usize {
        self.spans.len()
    }

    /// The recorded launch intervals, in issue order.
    pub fn spans(&self) -> &[StreamSpan] {
        &self.spans
    }

    /// Place a launch of `dur_ms` that becomes ready at `ready_ms`.
    ///
    /// In-order semantics: the launch starts at
    /// `max(ready_ms, previous completion)` and the stream clock advances to
    /// its end. Returns `(start_ms, end_ms)`.
    pub fn launch_at(&mut self, name: &str, ready_ms: f64, dur_ms: f64) -> (f64, f64) {
        let start = if ready_ms > self.now_ms {
            ready_ms
        } else {
            self.now_ms
        };
        let end = start + dur_ms;
        self.spans.push(StreamSpan {
            name: name.to_string(),
            start_ms: start,
            dur_ms,
        });
        self.now_ms = end;
        self.busy_ms += dur_ms;
        (start, end)
    }
}

/// Id stride between devices for [`StreamSet::for_device`]: stream id
/// `d * DEVICE_STREAM_STRIDE + k` is stream `k` of simulated device `d`.
pub const DEVICE_STREAM_STRIDE: usize = 100;

/// A fixed set of streams on one simulated device.
#[derive(Debug, Clone)]
pub struct StreamSet {
    streams: Vec<Stream>,
}

impl StreamSet {
    /// `count` fresh streams scoped to simulated device `device_id`, with
    /// globally unique ids `device_id * DEVICE_STREAM_STRIDE + 0..count`.
    /// At least one stream is always created; a zero-stream device cannot
    /// execute anything.
    ///
    /// Multi-device executors give each shard its own `StreamSet`; the
    /// strided ids keep the per-device timelines on distinct trace tracks
    /// (the Perfetto exporter renders ids ≥ stride as `devN/stream-K`).
    pub fn for_device(device_id: usize, count: usize) -> Self {
        let count = count.max(1);
        assert!(
            count <= DEVICE_STREAM_STRIDE,
            "per-device stream ids would collide with device {}",
            device_id + 1
        );
        let base = (device_id * DEVICE_STREAM_STRIDE) as u32;
        StreamSet {
            streams: (base..base + count as u32).map(Stream::new).collect(),
        }
    }

    /// The streams, indexed by id.
    pub fn streams(&self) -> &[Stream] {
        &self.streams
    }

    /// Mutable access to stream `id`.
    ///
    /// Ids are contiguous from the set's base, `device_id *
    /// DEVICE_STREAM_STRIDE`, so lookup is base-relative.
    pub fn stream_mut(&mut self, id: u32) -> &mut Stream {
        let base = self.streams[0].id;
        &mut self.streams[(id - base) as usize]
    }

    /// The simulated time at which every stream has drained.
    pub fn sync_all_ms(&self) -> f64 {
        self.streams
            .iter()
            .fold(0.0, |acc, s| if s.now_ms > acc { s.now_ms } else { acc })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn launches_serialize_within_a_stream() {
        let mut s = Stream::new(0);
        let (a0, a1) = s.launch_at("k0", 0.0, 2.0);
        assert_eq!((a0, a1), (0.0, 2.0));
        // Ready before the stream drains: queued behind the previous launch.
        let (b0, b1) = s.launch_at("k1", 1.0, 3.0);
        assert_eq!((b0, b1), (2.0, 5.0));
        // Ready after the stream drains: starts at its ready time (gap).
        let (c0, c1) = s.launch_at("k2", 9.0, 1.0);
        assert_eq!((c0, c1), (9.0, 10.0));
        assert_eq!(s.now_ms(), 10.0);
        assert_eq!(s.busy_ms(), 6.0);
        assert_eq!(s.launches(), 3);
    }

    #[test]
    fn streams_overlap_across_the_set() {
        let mut set = StreamSet::for_device(0, 2);
        set.stream_mut(0).launch_at("a", 0.0, 4.0);
        set.stream_mut(1).launch_at("b", 0.0, 3.0);
        // Both ran concurrently on the virtual clock.
        assert_eq!(set.streams()[0].spans()[0].start_ms, 0.0);
        assert_eq!(set.streams()[1].spans()[0].start_ms, 0.0);
        assert_eq!(set.sync_all_ms(), 4.0);
    }

    #[test]
    fn zero_stream_set_is_promoted_to_one() {
        let set = StreamSet::for_device(0, 0);
        assert_eq!(set.streams().len(), 1);
    }

    #[test]
    fn device_scoped_sets_stride_ids_and_stay_addressable() {
        let mut set = StreamSet::for_device(3, 2);
        assert_eq!(set.streams()[0].id(), 300);
        assert_eq!(set.streams()[1].id(), 301);
        // stream_mut resolves global ids.
        set.stream_mut(300).launch_at("a", 0.0, 5.0);
        set.stream_mut(301).launch_at("b", 0.0, 1.0);
        assert_eq!(set.sync_all_ms(), 5.0);
        // Device 0's ids start at 0.
        assert_eq!(StreamSet::for_device(0, 2).streams()[0].id(), 0);
    }
}

//! The multi-device backend of [`Engine`]: each non-empty shard runs every
//! op on its *device engine*, a one-device [`Engine`] over the shard-local
//! graph with normalizations sliced from the global ones. An op that reads
//! neighbor rows first waits for every compute stream and pulls its halo
//! on the device's comm stream; other ops run without synchronizing. An op
//! costs its share of the makespan (how far it moved the last device's
//! drain time); timelines accumulate until [`Engine::take_dist_report`].
//! DESIGN.md §14 has the full model.

use std::sync::Arc;

use tcg_dist::{DistReport, Partitioner, Shard};
use tcg_fault::{FaultPlan, FaultReport, TcgError};
use tcg_gpusim::stream::DEVICE_STREAM_STRIDE;
use tcg_gpusim::{interconnect, DeviceSpec, StreamSet};
use tcg_graph::CsrGraph;

use super::{Backend, Device, Engine, Exec, Norms};

/// Stream offsets within a device's [`StreamSet`].
const COMPUTE: u32 = 0;
const COMM: u32 = 1;

/// One device: its shard, the engine running on the shard-local graph,
/// and its stream timelines.
struct DeviceState {
    shard: Shard,
    engine: Engine,
    streams: StreamSet,
}

/// The device states of a sharded engine and the open run's accounting.
pub(super) struct ShardSet {
    device: DeviceSpec,
    partitioner: Partitioner,
    states: Vec<DeviceState>,
    /// The open run's report: the shards' static facts plus the exchanges
    /// so far; [`ShardSet::take_report`] adds the timelines.
    open: DistReport,
    /// Per-op makespan shares, while the launch log is on.
    launch_log: Option<Vec<f64>>,
}

impl ShardSet {
    /// Partitions `csr` across `devices` copies of `device` and builds each
    /// shard's device engine (SGT runs once per shard).
    pub(super) fn build(
        csr: &CsrGraph,
        norms: &Norms,
        backend: Backend,
        device: &DeviceSpec,
        threads: usize,
        devices: usize,
        partitioner: Partitioner,
    ) -> Result<ShardSet, TcgError> {
        let partition = partitioner.partition(csr, devices);
        debug_assert!(partition.validate(csr).is_ok());
        let states: Vec<DeviceState> = (0..devices)
            .map(|d| {
                let (shard, local) = Shard::build(csr, &partition, d);
                let dev = Device::build(backend, &local, device, threads, None)?;
                let engine = Engine::assemble(
                    backend,
                    Arc::new(local),
                    norms.for_shard(csr, &shard),
                    Exec::Single(Box::new(dev)),
                );
                let streams = StreamSet::for_device(d, 2);
                Ok(DeviceState {
                    shard,
                    engine,
                    streams,
                })
            })
            .collect::<Result<_, TcgError>>()?;
        let shards = || states.iter().map(|s| &s.shard);
        let open = DistReport {
            devices,
            partitioner: partitioner.name(),
            halo_rows: shards().map(|s| s.halo_rows).collect(),
            halo_bytes: vec![0; devices],
            cut_edges: partition.cut_edges(csr),
            shard_nnz: shards().map(Shard::nnz).collect(),
            owned_rows: shards().map(|s| s.owned_rows).collect(),
            ..DistReport::default()
        };
        Ok(ShardSet {
            device: device.clone(),
            partitioner,
            states,
            open,
            launch_log: None,
        })
    }

    /// A shard set over `csr` (whose norms are `norms`) with this one's
    /// device, partitioner, device count, thread count and launch-log
    /// setting: the graph repartitioned and every shard retranslated.
    pub(super) fn rebuilt(
        &self,
        csr: &CsrGraph,
        norms: &Norms,
        backend: Backend,
    ) -> Result<ShardSet, TcgError> {
        let mut set = ShardSet::build(
            csr,
            norms,
            backend,
            &self.device,
            self.threads(),
            self.states.len(),
            self.partitioner,
        )?;
        set.set_launch_log(self.launch_log.is_some());
        Ok(set)
    }

    /// The device engines, in device order.
    pub(super) fn engines(&self) -> impl Iterator<Item = &Engine> {
        self.states.iter().map(|s| &s.engine)
    }

    /// Worker threads each device engine fans block bodies over.
    pub(super) fn threads(&self) -> usize {
        self.states[0].engine.threads()
    }

    /// Mutable device engines, in device order.
    pub(super) fn engines_mut(&mut self) -> impl Iterator<Item = &mut Engine> {
        self.states.iter_mut().map(|s| &mut s.engine)
    }

    /// When the last stream of the last device drains.
    fn makespan(&self) -> f64 {
        self.states
            .iter()
            .map(|s| s.streams.sync_all_ms())
            .fold(0.0, f64::max)
    }

    /// Runs one op on every non-empty shard — `op` executes it on the
    /// shard's device engine and returns that device's milliseconds — and
    /// returns the op's share of the makespan. A nonzero `halo_dim` marks
    /// an op that reads that many columns of neighbor rows: it waits at the
    /// barrier and exchanges halos first.
    pub(super) fn run(
        &mut self,
        name: &str,
        halo_dim: usize,
        mut op: impl FnMut(&mut Engine, &Shard) -> Result<f64, TcgError>,
    ) -> Result<f64, TcgError> {
        let before = self.makespan();
        let active = || self.states.iter().filter(|s| !s.shard.is_empty());
        // PCIe-style shared fabrics serialize the all-to-all at the root
        // complex; a switched NVLink mesh keeps full per-device ingress.
        let contenders = if self.device.link_shared {
            active().count()
        } else {
            1
        };
        let barrier = active()
            .map(|s| s.streams.streams()[COMPUTE as usize].now_ms())
            .fold(0.0, f64::max);
        for st in self.states.iter_mut().filter(|s| !s.shard.is_empty()) {
            let base = (st.shard.device_id * DEVICE_STREAM_STRIDE) as u32;
            let mut ready = 0.0;
            if halo_dim > 0 {
                let bytes = st.shard.halo_bytes(halo_dim);
                let transfer = interconnect::transfer_report(&self.device, bytes, contenders);
                let comm = st.streams.stream_mut(base + COMM);
                ready = comm.launch_at("halo_exchange", barrier, transfer.time_ms).1;
                self.open.halo_bytes[st.shard.device_id] += bytes;
                self.open.transfer_bytes_priced += transfer.stats.dram_write_bytes;
                self.open.transfer_ms += transfer.time_ms;
            }
            let ms = op(&mut st.engine, &st.shard)?;
            st.streams
                .stream_mut(base + COMPUTE)
                .launch_at(name, ready, ms);
        }
        let share = self.makespan() - before;
        if let Some(log) = &mut self.launch_log {
            log.push(share);
        }
        Ok(share)
    }

    /// Closes the run: reports everything since the previous report and
    /// restarts every device timeline. Launchers stay warm (persistent
    /// L2), which only affects modeled cost, deterministically.
    pub(super) fn take_report(&mut self) -> DistReport {
        let fresh = DistReport {
            halo_bytes: vec![0; self.states.len()],
            transfer_bytes_priced: 0,
            transfer_ms: 0.0,
            ..self.open.clone()
        };
        let mut r = std::mem::replace(&mut self.open, fresh);
        let streams: Vec<StreamSet> = (self.states.iter_mut().enumerate())
            .map(|(d, s)| std::mem::replace(&mut s.streams, StreamSet::for_device(d, 2)))
            .collect();
        let busy = |k: u32| {
            streams
                .iter()
                .map(|s| s.streams()[k as usize].busy_ms())
                .collect()
        };
        r.per_device_ms = streams.iter().map(StreamSet::sync_all_ms).collect();
        r.makespan_ms = r.per_device_ms.iter().copied().fold(0.0, f64::max);
        (r.compute_busy_ms, r.comm_busy_ms) = (busy(COMPUTE), busy(COMM));
        r.timelines = (streams.iter().flat_map(StreamSet::streams))
            .map(|st| (st.id(), st.spans().to_vec()))
            .collect();
        r
    }

    /// Gives device 0 `plan` unchanged and every other device a plan of
    /// the same rates under its own derived seed, so adding devices never
    /// reorders device 0's fault schedule.
    pub(super) fn attach_fault_plan(&mut self, plan: FaultPlan) {
        for (d, st) in self.states.iter_mut().enumerate().skip(1) {
            let seed = plan
                .seed()
                .wrapping_add((d as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            st.engine
                .attach_fault_plan(FaultPlan::new(seed, *plan.config()));
        }
        self.states[0].engine.attach_fault_plan(plan);
    }

    /// Device 0's fault plan (the one the engine was given).
    pub(super) fn fault_plan(&self) -> Option<&FaultPlan> {
        self.states[0].engine.fault_plan()
    }

    /// Fault accounting summed over devices.
    pub(super) fn fault_report(&self) -> FaultReport {
        let mut r = FaultReport::default();
        for eng in self.engines() {
            r.absorb(&eng.fault_report());
        }
        r
    }

    /// Turns the per-op launch log on or off.
    pub(super) fn set_launch_log(&mut self, on: bool) {
        self.launch_log = on.then(Vec::new);
    }

    /// Drains the per-op makespan shares (empty when the log is off).
    pub(super) fn take_launch_log(&mut self) -> Vec<f64> {
        self.launch_log
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Adam;
    use crate::{GcnModel, TrainableModel};
    use tcg_graph::gen;
    use tcg_profile::Phase;
    use tcg_tensor::{init, DenseMatrix};

    fn engine(g: &CsrGraph, devices: usize, p: Partitioner) -> Engine {
        Engine::builder(g.clone())
            .backend(Backend::TcGnn)
            .device(DeviceSpec::a100())
            .threads(1)
            .devices(devices)
            .partitioner(p)
            .build()
            .expect("graph is symmetric")
    }

    fn logits(
        g: &CsrGraph,
        devices: usize,
        p: Partitioner,
        model: &GcnModel,
        x: &DenseMatrix,
    ) -> (DenseMatrix, Option<DistReport>) {
        let mut eng = engine(g, devices, p);
        let (logits, _) = model.infer(&mut eng, x);
        (logits, eng.take_dist_report())
    }

    #[test]
    fn two_device_forward_is_bitwise_identical() {
        let g = gen::rmat_default(600, 5000, 11).unwrap();
        let model = GcnModel::new(12, 16, 5, 3);
        let x = init::uniform(g.num_nodes(), 12, -1.0, 1.0, 4);
        let (want, _) = logits(&g, 1, Partitioner::Contiguous, &model, &x);
        for p in [Partitioner::Contiguous, Partitioner::GreedyEdgeCut] {
            let (got, rep) = logits(&g, 2, p, &model, &x);
            let rep = rep.expect("sharded engines report");
            assert_eq!(got.as_slice(), want.as_slice(), "partitioner {p:?}");
            assert_eq!(rep.devices, 2);
            assert!(rep.makespan_ms > 0.0);
        }
    }

    #[test]
    fn report_reconciles_halo_traffic_with_the_interconnect_model() {
        let g = gen::rmat_default(512, 4000, 5).unwrap();
        // l1 (8→16) aggregates first at dim 8; l2 (16→4) updates first and
        // aggregates at dim 4.
        let model = GcnModel::new(8, 16, 4, 1);
        let x = init::uniform(g.num_nodes(), 8, -1.0, 1.0, 2);
        let (_, rep) = logits(&g, 4, Partitioner::GreedyEdgeCut, &model, &x);
        let rep = rep.unwrap();
        assert_eq!(rep.transfer_bytes_priced, rep.total_halo_bytes());
        // Two aggregations at dims 8 and 4 ⇒ bytes = halo_rows * (8+4) * 4.
        for d in 0..4 {
            assert_eq!(rep.halo_bytes[d], rep.halo_rows[d] as u64 * 12 * 4);
        }
        assert!(rep.transfer_ms > 0.0);
        assert!(rep.cut_edges > 0);
    }

    #[test]
    fn op_costs_sum_to_the_makespan() {
        let g = gen::rmat_default(512, 4000, 5).unwrap();
        let model = GcnModel::new(8, 16, 4, 1);
        let x = init::uniform(g.num_nodes(), 8, -1.0, 1.0, 2);
        let mut eng = engine(&g, 4, Partitioner::Contiguous);
        let (_, cost) = model.infer(&mut eng, &x);
        let rep = eng.take_dist_report().unwrap();
        let ulps = (cost.total_ms() - rep.makespan_ms).abs() / f64::EPSILON / rep.makespan_ms;
        assert!(ulps < 16.0, "{} vs {}", cost.total_ms(), rep.makespan_ms);
    }

    #[test]
    fn update_first_layer_shards_identically() {
        // in > hidden forces l1 into update-first; halo carries the hidden
        // dim only.
        let g = gen::community(400, 3200, 12, 40, 9).unwrap();
        let model = GcnModel::new(32, 8, 4, 7);
        assert!(!model.l1.aggregate_first());
        let x = init::uniform(g.num_nodes(), 32, -1.0, 1.0, 5);
        let (want, _) = logits(&g, 1, Partitioner::Contiguous, &model, &x);
        let (got, rep) = logits(&g, 4, Partitioner::Contiguous, &model, &x);
        assert_eq!(got.as_slice(), want.as_slice());
        let rep = rep.unwrap();
        // Aggregations at dim 8 (l1 post-GEMM) and dim 4 (l2 pre-GEMM).
        for d in 0..4 {
            assert_eq!(rep.halo_bytes[d], rep.halo_rows[d] as u64 * 12 * 4);
        }
    }

    #[test]
    fn more_devices_than_windows_skips_empty_shards() {
        let g = gen::erdos_renyi(20, 100, 3).unwrap(); // 2 windows
        let model = GcnModel::new(6, 8, 3, 2);
        let x = init::uniform(g.num_nodes(), 6, -1.0, 1.0, 1);
        let (want, _) = logits(&g, 1, Partitioner::Contiguous, &model, &x);
        let (got, rep) = logits(&g, 8, Partitioner::Contiguous, &model, &x);
        assert_eq!(got.as_slice(), want.as_slice());
        // Only the two devices owning a window ever launch anything.
        let rep = rep.unwrap();
        let owners: Vec<bool> = rep.owned_rows.iter().map(|&r| r > 0).collect();
        assert_eq!(owners.iter().filter(|&&o| o).count(), 2);
        for (d, &t) in rep.per_device_ms.iter().enumerate() {
            assert_eq!(t > 0.0, owners[d], "device {d}");
        }
    }

    #[test]
    fn one_device_engine_holds_no_shards_and_reports_nothing() {
        let g = gen::rmat_default(300, 2500, 8).unwrap();
        let mut eng = engine(&g, 1, Partitioner::GreedyEdgeCut);
        assert!(matches!(eng.exec, Exec::Single(_)));
        let x = init::uniform(g.num_nodes(), 10, -1.0, 1.0, 9);
        GcnModel::new(10, 16, 4, 6).infer(&mut eng, &x);
        assert!(eng.take_dist_report().is_none());
    }

    #[test]
    fn timelines_land_on_device_strided_tracks_and_restart_per_report() {
        let g = gen::rmat_default(256, 2000, 4).unwrap();
        let model = GcnModel::new(8, 8, 4, 2);
        let x = init::uniform(g.num_nodes(), 8, -1.0, 1.0, 3);
        let mut eng = engine(&g, 2, Partitioner::Contiguous);
        model.infer(&mut eng, &x);
        let first = eng.take_dist_report().unwrap();
        let ids: Vec<u32> = first.timelines.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![0, 1, 100, 101]);
        // Both devices ran compute work and a halo exchange.
        assert!(first.timelines.iter().all(|(_, s)| !s.is_empty()));
        // The second run starts from idle timelines: each stream holds only
        // its own spans, and the first halo exchange leaves at t = 0 again.
        model.infer(&mut eng, &x);
        let second = eng.take_dist_report().unwrap();
        for ((_, a), (_, b)) in first.timelines.iter().zip(&second.timelines) {
            assert_eq!(a.len(), b.len());
        }
        assert_eq!(second.timelines[1].1[0].name, "halo_exchange");
        assert_eq!(second.timelines[1].1[0].start_ms, 0.0);
        assert_eq!(second.halo_bytes, first.halo_bytes);
    }

    #[test]
    fn optimizer_step_charges_every_device_the_whole_pass() {
        // 83 parameters on an 83-node graph: a parameter pass whose length
        // is a multiple of the node count is still not a node-row pass.
        let g = gen::erdos_renyi(83, 400, 5).unwrap();
        let model = GcnModel::new(6, 8, 3, 1);
        let (l1, l2) = (&model.l1, &model.l2);
        assert_eq!(l1.w.len() + l1.b.len() + l2.w.len() + l2.b.len(), 83);
        let x = init::uniform(g.num_nodes(), 6, -1.0, 1.0, 2);
        let step_ms = |devices| {
            let mut eng = engine(&g, devices, Partitioner::Contiguous);
            let fwd = model.forward(&mut eng, &x);
            let (grads, _) = model.backward(&mut eng, &fwd.cache, &fwd.out);
            // Restart the device timelines so the step's share is its own.
            eng.take_dist_report();
            let mut model = model.clone();
            model.apply_grads(&mut eng, &mut Adam::new(0.01), &grads)
        };
        assert_eq!(step_ms(4), step_ms(1));
    }

    #[test]
    fn edge_passes_charge_each_device_its_shard_edges() {
        let g = gen::rmat_default(512, 4000, 5).unwrap();
        let mut eng = engine(&g, 4, Partitioner::GreedyEdgeCut);
        let Exec::Sharded(set) = &mut eng.exec else {
            unreachable!("four devices shard");
        };
        let slowest = (set.engines_mut())
            .map(|dev| dev.edge_elementwise_ms("scale", Phase::Aggregation, 1, 1))
            .fold(0.0, f64::max);
        // From idle timelines the op's share is the slowest device's pass
        // over its own shard's edges.
        assert_eq!(
            eng.edge_elementwise_ms("scale", Phase::Aggregation, 1, 1),
            slowest
        );
    }

    #[test]
    fn sharded_build_rejects_an_asymmetric_graph() {
        let asym = CsrGraph::from_raw(3, vec![0, 1, 1, 1], vec![1]).unwrap();
        let built = Engine::builder(asym).devices(2).build();
        assert!(matches!(built, Err(TcgError::InvalidInput { .. })));
    }

    #[test]
    fn zero_devices_is_invalid_input() {
        let g = gen::rmat_default(128, 800, 2).unwrap();
        let built = Engine::builder(g).devices(0).build();
        assert!(matches!(built, Err(TcgError::InvalidInput { .. })));
    }

    #[test]
    fn wrong_feature_rows_are_a_dim_mismatch_on_every_sharded_op() {
        let g = gen::rmat_default(128, 800, 2).unwrap();
        let mut eng = engine(&g, 2, Partitioner::Contiguous);
        let short = init::uniform(g.num_nodes() - 1, 4, -1.0, 1.0, 1);
        let dim = |r: Result<(), TcgError>| matches!(r, Err(TcgError::DimMismatch { .. }));
        assert!(dim(eng.gcn_aggregate(&short).map(drop)));
        assert!(dim(eng.spmm(&short, None).map(drop)));
        assert!(dim(eng.sddmm(&short, &short).map(drop)));
        assert!(dim(eng.fused_attention(&short, &short, 1.0).map(drop)));
        assert!(dim(eng.edge_softmax(&[1.0]).map(drop)));
    }
}

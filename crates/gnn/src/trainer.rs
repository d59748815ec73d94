//! End-to-end training loops with per-phase simulated timing — the
//! measurement harness behind the paper's Table 1 and Figure 6.

use tcg_fault::FaultReport;
use tcg_graph::Dataset;
use tcg_profile::Phase;
use tcg_tensor::DenseMatrix;

use crate::engine::{Cost, Engine};
use crate::forward::Forward;
use crate::loss::masked_cross_entropy;
use crate::model::{AgnnModel, GcnModel, GinModel, SageModel};
use crate::optim::Adam;
use crate::receptive::Demand;

/// Opens epoch `epoch` on the engine's profiler, if one is attached, so
/// every event the epoch records carries its index.
fn prof_begin_epoch(eng: &Engine, epoch: u32) {
    if let Some(p) = eng.profiler() {
        p.write().expect("profiler lock").begin_epoch(epoch);
    }
}

/// Closes the current profiler epoch, folding its events into a rollup
/// that cross-checks against the pushed [`EpochStats`].
fn prof_finish_epoch(eng: &Engine) {
    if let Some(p) = eng.profiler() {
        p.write().expect("profiler lock").finish_epoch();
    }
}

/// Training hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    /// Hidden dimension (paper: 16 for GCN, 32 for AGNN).
    pub hidden: usize,
    /// Propagation layers for AGNN (paper: 4). GCN is fixed at 2 layers.
    pub layers: usize,
    /// Training epochs.
    pub epochs: u32,
    /// Adam learning rate.
    pub lr: f32,
    /// Parameter initialization seed.
    pub seed: u64,
}

impl TrainConfig {
    /// The paper's GCN setting: 2 layers, 16 hidden.
    pub fn gcn_paper() -> Self {
        TrainConfig {
            hidden: 16,
            layers: 2,
            epochs: 10,
            lr: 0.01,
            seed: 42,
        }
    }

    /// The paper's AGNN setting: 4 layers, 32 hidden.
    pub fn agnn_paper() -> Self {
        TrainConfig {
            hidden: 32,
            layers: 4,
            epochs: 10,
            lr: 0.01,
            seed: 42,
        }
    }

    /// Same config with a different epoch count.
    pub fn with_epochs(mut self, epochs: u32) -> Self {
        self.epochs = epochs;
        self
    }
}

/// Per-epoch measurements.
#[derive(Debug, Clone, Copy)]
pub struct EpochStats {
    /// Mean training loss.
    pub loss: f64,
    /// Training-split accuracy.
    pub train_accuracy: f64,
    /// Simulated GPU cost of the epoch, split by phase.
    pub cost: Cost,
}

/// Result of one training run.
#[derive(Debug, Clone)]
pub struct TrainResult {
    /// Backend label.
    pub backend: &'static str,
    /// Per-epoch stats.
    pub epochs: Vec<EpochStats>,
    /// One-time preprocessing (SGT) in modeled ms.
    pub preprocessing_ms: f64,
    /// Fault accounting: injections, retries, degradations. All zeros for a
    /// fault-free run.
    pub fault_report: FaultReport,
    /// Epochs whose state was rolled back to the last checkpoint and
    /// replayed on the fallback path after a poisoned loss/gradient.
    pub epochs_rolled_back: u32,
}

impl TrainResult {
    /// Mean per-epoch cost.
    pub fn avg_epoch_cost(&self) -> Cost {
        let n = self.epochs.len().max(1) as f64;
        let sum = self
            .epochs
            .iter()
            .fold(Cost::default(), |acc, e| acc + e.cost);
        Cost {
            aggregation_ms: sum.aggregation_ms / n,
            update_ms: sum.update_ms / n,
            other_ms: sum.other_ms / n,
        }
    }

    /// Mean simulated milliseconds per epoch.
    pub fn avg_epoch_ms(&self) -> f64 {
        self.avg_epoch_cost().total_ms()
    }

    /// Total simulated time including preprocessing.
    pub fn total_ms(&self) -> f64 {
        self.preprocessing_ms + self.epochs.iter().map(|e| e.cost.total_ms()).sum::<f64>()
    }

    /// Fraction of epoch time spent in sparse aggregation (Table 1's
    /// "Aggr. %").
    pub fn aggregation_fraction(&self) -> f64 {
        let c = self.avg_epoch_cost();
        if c.total_ms() == 0.0 {
            0.0
        } else {
            c.aggregation_ms / c.total_ms()
        }
    }

    /// Final epoch's training accuracy.
    pub fn final_accuracy(&self) -> f64 {
        self.epochs.last().map_or(0.0, |e| e.train_accuracy)
    }

    /// First epoch's loss minus last epoch's loss (positive = learning).
    pub fn loss_drop(&self) -> f64 {
        match (self.epochs.first(), self.epochs.last()) {
            (Some(f), Some(l)) => f.loss - l.loss,
            _ => 0.0,
        }
    }
}

/// The one model interface: a forward pass over a receptive-field
/// [`Demand`], backward from the logits gradient, and one optimizer step.
/// Training's `forward` and serving's `infer`/`infer_targets` are provided
/// here once, as that pass at full or targeted demand.
///
/// The cache borrows the caller's input for `'x`, as a framework's autograd
/// keeps a layer input by reference: at full demand the first layer's
/// cache holds `x` itself, never a copy, and a targeted pass's cache owns
/// the rows it gathered.
///
/// `Clone` is the checkpoint mechanism — under an attached fault plan the
/// loop snapshots `(model, optimizer)` at each epoch boundary and restores
/// the pair if the epoch's loss or gradients come back poisoned.
pub trait TrainableModel: Clone {
    /// Intermediate activations the backward pass needs, borrowing the
    /// model input for `'x`.
    type Cache<'x>;
    /// Parameter gradients produced by the backward pass.
    type Grads;

    /// Number of aggregation layers: the receptive-field hops between a
    /// target's logits and the input features.
    fn depth(&self) -> usize;

    /// The model's one forward pass, each layer under its share of
    /// `demand`; full demand is the training forward.
    fn pass<'x>(
        &self,
        eng: &mut Engine,
        x: &'x DenseMatrix,
        demand: &Demand,
    ) -> Forward<Self::Cache<'x>>;

    /// Forward pass to logits.
    fn forward<'x>(&self, eng: &mut Engine, x: &'x DenseMatrix) -> Forward<Self::Cache<'x>> {
        self.pass(eng, x, &Demand::full())
    }

    /// Inference-only forward to logits: [`TrainableModel::forward`]'s
    /// pass, kernels and simulated cost, with the backward state dropped —
    /// the frozen-model path an inference server runs per batch.
    fn infer(&self, eng: &mut Engine, x: &DenseMatrix) -> (DenseMatrix, Cost) {
        let f = self.forward(eng, x);
        (f.out, f.cost)
    }

    /// Inference of the logit rows `targets` only: each layer computes just
    /// the row windows its receptive field needs (see [`crate::receptive`]).
    /// Target rows are bitwise [`TrainableModel::infer`]'s; other rows are
    /// zero unless the engine computes every window.
    fn infer_targets(
        &self,
        eng: &mut Engine,
        x: &DenseMatrix,
        targets: &[usize],
    ) -> (DenseMatrix, Cost) {
        let demand = Demand::for_targets(eng, targets, self.depth());
        let f = self.pass(eng, x, &demand);
        (f.out, f.cost)
    }

    /// Backward pass from the logits gradient.
    fn backward(
        &self,
        eng: &mut Engine,
        cache: &Self::Cache<'_>,
        dlogits: &DenseMatrix,
    ) -> (Self::Grads, Cost);

    /// Applies one Adam step; returns the optimizer's simulated cost.
    fn apply_grads(&mut self, eng: &mut Engine, adam: &mut Adam, grads: &Self::Grads) -> Cost;

    /// Whether no parameter has been contaminated by NaN/Inf — consulted
    /// after the optimizer step when a fault plan is active, because an ECC
    /// flip in a *backward* aggregation poisons gradients rather than
    /// logits.
    fn params_finite(&self) -> bool;
}

/// Outcome of one epoch attempt.
struct EpochAttempt {
    loss: f64,
    accuracy: f64,
    cost: Cost,
    /// Loss or gradients contained NaN/Inf — an unrecovered ECC flip.
    poisoned: bool,
}

/// Runs one training epoch. When the loss or the logits gradient carries
/// NaN/Inf (an ECC flip that slipped past the engine's scan), the epoch
/// aborts *before* the optimizer step so parameters are never contaminated.
fn run_epoch<M: TrainableModel>(
    eng: &mut Engine,
    ds: &Dataset,
    model: &mut M,
    adam: &mut Adam,
) -> EpochAttempt {
    let (logits, cache, fwd) = model.forward(eng, &ds.features).into_parts();
    let lo = masked_cross_entropy(&logits, &ds.labels, &ds.train_mask);
    let loss_ms = eng.elementwise_tagged_ms("loss", Phase::Other, logits.len(), 2, 1);
    let poisoned = !lo.loss.is_finite()
        || logits.as_slice().iter().any(|v| !v.is_finite())
        || lo.dlogits.as_slice().iter().any(|v| !v.is_finite());
    if poisoned {
        return EpochAttempt {
            loss: lo.loss,
            accuracy: lo.accuracy,
            cost: fwd + Cost::other(loss_ms),
            poisoned: true,
        };
    }
    let (grads, bwd) = model.backward(eng, &cache, &lo.dlogits);
    let opt = model.apply_grads(eng, adam, &grads);
    // A flip in a backward aggregation contaminates parameters, not this
    // epoch's logits; catch it here so the *next* epoch never runs on NaN
    // weights. Checked only under a fault plan — fault-free runs skip the
    // scan entirely.
    let poisoned = eng.fault_plan().is_some() && !model.params_finite();
    EpochAttempt {
        loss: lo.loss,
        accuracy: lo.accuracy,
        cost: fwd + bwd + opt + Cost::other(loss_ms),
        poisoned,
    }
}

/// The generic training loop: per-epoch checkpointing and poisoned-epoch
/// rollback activate only when the engine carries a fault plan, so a
/// fault-free run does no extra cloning and records no extra events.
pub fn train_model<M: TrainableModel>(
    eng: &mut Engine,
    ds: &Dataset,
    cfg: TrainConfig,
    model: M,
) -> TrainResult {
    train_model_returning(eng, ds, cfg, model).1
}

/// [`train_model`] that also hands back the trained parameters — the entry
/// point for callers that freeze the model afterwards (e.g. a serving
/// session).
pub fn train_model_returning<M: TrainableModel>(
    eng: &mut Engine,
    ds: &Dataset,
    cfg: TrainConfig,
    mut model: M,
) -> (M, TrainResult) {
    let mut adam = Adam::new(cfg.lr);
    let mut epochs = Vec::with_capacity(cfg.epochs as usize);
    let mut epochs_rolled_back = 0u32;
    let resilient = eng.fault_plan().is_some();
    for epoch in 0..cfg.epochs {
        let checkpoint = if resilient {
            Some((model.clone(), adam.clone()))
        } else {
            None
        };
        prof_begin_epoch(eng, epoch);
        let mut attempt = run_epoch(eng, ds, &mut model, &mut adam);
        if attempt.poisoned {
            if let Some((m0, a0)) = checkpoint {
                // Drop the contaminated epoch's state and replay it on
                // the CUDA-core fallback path with injection suppressed;
                // RNG draws are untouched, so later epochs see the exact
                // fault schedule they would have seen anyway.
                model = m0;
                adam = a0;
                epochs_rolled_back += 1;
                let wasted = attempt.cost;
                eng.set_forced_fallback(true);
                attempt = run_epoch(eng, ds, &mut model, &mut adam);
                eng.set_forced_fallback(false);
                attempt.cost += wasted;
            }
        }
        prof_finish_epoch(eng);
        epochs.push(EpochStats {
            loss: attempt.loss,
            train_accuracy: attempt.accuracy,
            cost: attempt.cost,
        });
    }
    let result = TrainResult {
        backend: eng.backend().name(),
        epochs,
        preprocessing_ms: eng.preprocessing_ms(),
        fault_report: eng.fault_report(),
        epochs_rolled_back,
    };
    (model, result)
}

/// Trains the paper's 2-layer GCN on `ds` using `eng`'s backend.
pub fn train_gcn(eng: &mut Engine, ds: &Dataset, cfg: TrainConfig) -> TrainResult {
    let model = GcnModel::new(ds.spec.feat_dim, cfg.hidden, ds.spec.num_classes, cfg.seed);
    train_model(eng, ds, cfg, model)
}

/// Trains the paper's 4-layer AGNN on `ds` using `eng`'s backend.
pub fn train_agnn(eng: &mut Engine, ds: &Dataset, cfg: TrainConfig) -> TrainResult {
    let model = AgnnModel::new(
        ds.spec.feat_dim,
        cfg.hidden,
        ds.spec.num_classes,
        cfg.layers,
        cfg.seed,
    );
    train_model(eng, ds, cfg, model)
}

/// Trains a 2-layer GraphSAGE (mean aggregator) on `ds`.
pub fn train_sage(eng: &mut Engine, ds: &Dataset, cfg: TrainConfig) -> TrainResult {
    let model = SageModel::new(ds.spec.feat_dim, cfg.hidden, ds.spec.num_classes, cfg.seed);
    train_model(eng, ds, cfg, model)
}

/// Trains a 2-layer GIN on `ds`.
pub fn train_gin(eng: &mut Engine, ds: &Dataset, cfg: TrainConfig) -> TrainResult {
    let model = GinModel::new(ds.spec.feat_dim, cfg.hidden, ds.spec.num_classes, cfg.seed);
    train_model(eng, ds, cfg, model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Backend;
    use tcg_gpusim::DeviceSpec;
    use tcg_graph::datasets::{DatasetSpec, GraphClass};

    fn tiny_dataset() -> Dataset {
        DatasetSpec {
            name: "tiny-cora",
            class: GraphClass::TypeI,
            num_nodes: 300,
            num_edges: 2400,
            feat_dim: 32,
            num_classes: 4,
        }
        .materialize(7)
        .unwrap()
    }

    #[test]
    fn gcn_training_learns() {
        let ds = tiny_dataset();
        let mut eng = Engine::builder(ds.graph.clone())
            .backend(Backend::TcGnn)
            .device(DeviceSpec::rtx3090())
            .build()
            .expect("graph is symmetric");
        let cfg = TrainConfig {
            hidden: 16,
            layers: 2,
            epochs: 30,
            lr: 0.02,
            seed: 1,
        };
        let result = train_gcn(&mut eng, &ds, cfg);
        assert!(
            result.loss_drop() > 0.1,
            "loss should fall: {:?}",
            result.loss_drop()
        );
        assert!(
            result.final_accuracy() > 1.5 / 4.0,
            "accuracy above chance: {}",
            result.final_accuracy()
        );
        assert!(result.avg_epoch_ms() > 0.0);
        assert!(result.aggregation_fraction() > 0.0);
    }

    #[test]
    fn agnn_training_learns() {
        let ds = tiny_dataset();
        let mut eng = Engine::builder(ds.graph.clone())
            .backend(Backend::DglLike)
            .device(DeviceSpec::rtx3090())
            .build()
            .expect("graph is symmetric");
        let cfg = TrainConfig {
            hidden: 16,
            layers: 2,
            epochs: 25,
            lr: 0.02,
            seed: 2,
        };
        let result = train_agnn(&mut eng, &ds, cfg);
        assert!(
            result.loss_drop() > 0.05,
            "loss drop {}",
            result.loss_drop()
        );
        assert!(result.final_accuracy() > 1.2 / 4.0);
    }

    #[test]
    fn backends_converge_to_similar_losses() {
        let ds = tiny_dataset();
        let cfg = TrainConfig {
            hidden: 8,
            layers: 2,
            epochs: 10,
            lr: 0.02,
            seed: 3,
        };
        let mut losses = Vec::new();
        for b in Backend::all() {
            let mut eng = Engine::builder(ds.graph.clone())
                .backend(b)
                .device(DeviceSpec::rtx3090())
                .build()
                .expect("graph is symmetric");
            let r = train_gcn(&mut eng, &ds, cfg);
            losses.push(r.epochs.last().unwrap().loss);
        }
        for l in &losses[1..] {
            assert!(
                (l - losses[0]).abs() < 0.05,
                "backends should train identically: {losses:?}"
            );
        }
    }

    #[test]
    fn aggregation_dominates_epoch_time() {
        // Table 1's headline: aggregation takes the majority of GCN epoch
        // time even though Type I feature dims are large — measured at Cora
        // scale (scaled 2× down to keep the test fast).
        let ds = tcg_graph::datasets::spec_by_name("Cora")
            .unwrap()
            .scaled(2)
            .materialize(11)
            .unwrap();
        let mut eng = Engine::builder(ds.graph.clone())
            .backend(Backend::DglLike)
            .device(DeviceSpec::rtx3090())
            .build()
            .expect("graph is symmetric");
        let r = train_gcn(&mut eng, &ds, TrainConfig::gcn_paper().with_epochs(2));
        assert!(
            r.aggregation_fraction() > 0.4,
            "aggregation fraction {}",
            r.aggregation_fraction()
        );
    }

    #[test]
    fn sage_and_gin_training_learn() {
        let ds = tiny_dataset();
        let cfg = TrainConfig {
            hidden: 16,
            layers: 2,
            epochs: 30,
            lr: 0.02,
            seed: 9,
        };
        let mut eng = Engine::builder(ds.graph.clone())
            .backend(Backend::TcGnn)
            .device(DeviceSpec::rtx3090())
            .build()
            .expect("graph is symmetric");
        let sage = train_sage(&mut eng, &ds, cfg);
        assert!(
            sage.loss_drop() > 0.1,
            "sage loss drop {}",
            sage.loss_drop()
        );
        assert!(sage.final_accuracy() > 1.5 / 4.0);
        let mut eng = Engine::builder(ds.graph.clone())
            .backend(Backend::DglLike)
            .device(DeviceSpec::rtx3090())
            .build()
            .expect("graph is symmetric");
        let gin = train_gin(&mut eng, &ds, cfg);
        assert!(gin.loss_drop() > 0.1, "gin loss drop {}", gin.loss_drop());
        assert!(gin.final_accuracy() > 1.5 / 4.0);
    }

    #[test]
    fn resilient_training_rolls_back_poisoned_epochs() {
        use crate::engine::RecoveryPolicy;
        use tcg_fault::{FaultConfig, FaultPlan};
        let ds = tiny_dataset();
        let cfg = TrainConfig {
            hidden: 16,
            layers: 2,
            epochs: 8,
            lr: 0.02,
            seed: 4,
        };
        let run = || {
            let mut eng = Engine::builder(ds.graph.clone())
                .backend(Backend::TcGnn)
                .device(DeviceSpec::rtx3090())
                .build()
                .expect("graph is symmetric");
            eng.attach_fault_plan(FaultPlan::new(
                13,
                FaultConfig {
                    ecc_rate: 0.4,
                    ..FaultConfig::none()
                },
            ));
            // Scan off: flips reach the trainer as NaN, exercising the
            // checkpoint/rollback path rather than the engine's fallback.
            eng.set_recovery_policy(RecoveryPolicy {
                ecc_scan: false,
                ..RecoveryPolicy::default()
            });
            train_gcn(&mut eng, &ds, cfg)
        };
        let r1 = run();
        assert!(
            r1.epochs_rolled_back > 0,
            "expected poisoned epochs at ecc_rate 0.4: {:?}",
            r1.fault_report
        );
        // Replayed epochs land on the fallback path, so every recorded
        // loss is finite and parameters were never contaminated.
        assert!(r1.epochs.iter().all(|e| e.loss.is_finite()));
        assert!(r1.loss_drop() > 0.0, "training still learns under faults");
        // The whole fault trajectory is deterministic.
        let r2 = run();
        assert_eq!(r1.epochs_rolled_back, r2.epochs_rolled_back);
        assert_eq!(r1.fault_report, r2.fault_report);
        for (a, b) in r1.epochs.iter().zip(&r2.epochs) {
            assert_eq!(a.loss, b.loss);
        }
    }

    #[test]
    fn fault_free_run_reports_zero_faults() {
        let ds = tiny_dataset();
        let mut eng = Engine::builder(ds.graph.clone())
            .backend(Backend::TcGnn)
            .device(DeviceSpec::rtx3090())
            .build()
            .expect("graph is symmetric");
        let r = train_gcn(&mut eng, &ds, TrainConfig::gcn_paper().with_epochs(2));
        assert_eq!(r.fault_report.total_injected(), 0);
        assert_eq!(r.fault_report.retried, 0);
        assert_eq!(r.fault_report.degraded, 0);
        assert_eq!(r.epochs_rolled_back, 0);
    }

    #[test]
    fn tcgnn_not_slower_than_dgl_per_epoch() {
        let ds = tiny_dataset();
        let cfg = TrainConfig::gcn_paper().with_epochs(2);
        let mut e1 = Engine::builder(ds.graph.clone())
            .backend(Backend::DglLike)
            .device(DeviceSpec::rtx3090())
            .build()
            .expect("graph is symmetric");
        let dgl = train_gcn(&mut e1, &ds, cfg);
        let mut e2 = Engine::builder(ds.graph.clone())
            .backend(Backend::TcGnn)
            .device(DeviceSpec::rtx3090())
            .build()
            .expect("graph is symmetric");
        let tc = train_gcn(&mut e2, &ds, cfg);
        assert!(
            tc.avg_epoch_ms() < dgl.avg_epoch_ms(),
            "TC-GNN {} ms vs DGL {} ms",
            tc.avg_epoch_ms(),
            dgl.avg_epoch_ms()
        );
    }
}

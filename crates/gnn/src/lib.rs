//! End-to-end GNN framework over the simulated GPU — the paper's
//! "framework level".
//!
//! The paper integrates TC-GNN into PyTorch and compares end-to-end
//! *training* against DGL and PyTorch-Geometric (its Figure 6). This crate
//! plays the PyTorch role: [`engine::Engine`] binds a graph to one of four
//! aggregation backends —
//!
//! - [`engine::Backend::DglLike`]: cuSPARSE-class CSR SpMM / per-edge SDDMM
//!   plus DGL's framework behaviour (runtime degree-normalization passes,
//!   three-kernel edge softmax);
//! - [`engine::Backend::PygLike`]: torch-scatter aggregation (edge-parallel
//!   atomics) plus PyG's materialization of per-edge feature intermediates;
//! - [`engine::Backend::TcGnn`]: the paper's kernels over a one-time SGT
//!   translation, normalization folded into edge values, fused edge softmax;
//! - [`engine::Backend::Hybrid`]: per-row-window dispatch between the
//!   TC-GNN tensor-core body and the CUDA-core body, one mixed launch per
//!   op.
//!
//! On top of the engine sit [`layers`] (GCN, AGNN, GraphSAGE, GIN and a
//! linear layer, with hand-derived backward passes verified against finite
//! differences in the tests), the four [`model`]s, [`loss`],
//! [`optim::Adam`], and [`trainer`]. Each model implements
//! [`TrainableModel`] once; the trait provides its training `forward` and
//! its serving `infer`/`infer_targets` over the model's one pass. A pass's
//! backward state borrows the caller's input features rather than copying
//! them, as PyTorch's autograd keeps a layer input by reference. The
//! trainer runs full training loops and attributes simulated GPU
//! milliseconds to the aggregation / update / other phases — the split
//! behind the paper's Table 1 and the end-to-end numbers behind Figure 6.

pub mod engine;
pub mod forward;
pub mod layers;
pub mod loss;
pub mod model;
pub mod optim;
pub mod receptive;
pub mod trainer;

pub use engine::{Backend, Cost, Engine, EngineBuilder, RecoveryPolicy};
pub use forward::Forward;
pub use model::{AgnnModel, GcnModel, GinModel, SageModel};
pub use receptive::{Demand, LayerDemand, WindowSet};
pub use trainer::{
    train_agnn, train_gcn, train_gin, train_model, train_model_returning, train_sage, TrainConfig,
    TrainResult, TrainableModel,
};

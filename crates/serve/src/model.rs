//! The frozen-model wrapper a session serves.

use tcg_gnn::{AgnnModel, Cost, Engine, GcnModel, GinModel, SageModel, TrainableModel};
use tcg_tensor::DenseMatrix;

/// A trained model frozen for inference — one variant per architecture the
/// stack trains. All variants expose the inference-only forward path (no
/// gradient buffers are allocated anywhere beneath this call).
#[derive(Debug, Clone)]
pub enum ServableModel {
    /// 2-layer GCN.
    Gcn(GcnModel),
    /// AGNN with its propagation stack.
    Agnn(AgnnModel),
    /// 2-layer GraphSAGE.
    Sage(SageModel),
    /// 2-layer GIN.
    Gin(GinModel),
}

impl ServableModel {
    /// Architecture label for reports.
    pub fn kind(&self) -> &'static str {
        match self {
            ServableModel::Gcn(_) => "gcn",
            ServableModel::Agnn(_) => "agnn",
            ServableModel::Sage(_) => "sage",
            ServableModel::Gin(_) => "gin",
        }
    }

    /// Full-graph inference to logits: `(logits, simulated cost)`.
    pub fn infer(&self, eng: &mut Engine, x: &DenseMatrix) -> (DenseMatrix, Cost) {
        match self {
            ServableModel::Gcn(m) => m.infer(eng, x),
            ServableModel::Agnn(m) => m.infer(eng, x),
            ServableModel::Sage(m) => m.infer(eng, x),
            ServableModel::Gin(m) => m.infer(eng, x),
        }
    }

    /// Inference of the logit rows `targets` only — the row windows their
    /// receptive field needs, layer by layer (`tcg_gnn::receptive`). The
    /// target rows are bitwise [`ServableModel::infer`]'s; what a batch
    /// runs.
    pub fn infer_targets(
        &self,
        eng: &mut Engine,
        x: &DenseMatrix,
        targets: &[usize],
    ) -> (DenseMatrix, Cost) {
        match self {
            ServableModel::Gcn(m) => m.infer_targets(eng, x, targets),
            ServableModel::Agnn(m) => m.infer_targets(eng, x, targets),
            ServableModel::Sage(m) => m.infer_targets(eng, x, targets),
            ServableModel::Gin(m) => m.infer_targets(eng, x, targets),
        }
    }
}

//! The common forward-pass vocabulary: every layer and model forward
//! returns a [`Forward`] value instead of an ad-hoc 3-tuple.

use tcg_tensor::DenseMatrix;

use crate::engine::Cost;

/// Result of a forward pass: the output activations, the state the
/// backward pass needs, and the simulated cost of the kernels launched.
///
/// Named fields replace the old `(DenseMatrix, Cache, Cost)` tuples so
/// call sites can't transpose cache and cost (both were frequently
/// ignored with `_`, which hid such bugs), and so adding a field later is
/// not a breaking change at every destructuring site.
#[derive(Debug, Clone)]
pub struct Forward<C> {
    /// Output activations (`num_nodes × out_dim`).
    pub out: DenseMatrix,
    /// Saved forward state consumed by the backward pass.
    pub cache: C,
    /// Simulated GPU cost of the pass, split by phase.
    pub cost: Cost,
}

impl<C> Forward<C> {
    /// Bundles the three results of a forward pass.
    pub fn new(out: DenseMatrix, cache: C, cost: Cost) -> Self {
        Forward { out, cache, cost }
    }

    /// Splits back into `(out, cache, cost)` for callers that want to
    /// destructure all three in one `let`.
    pub fn into_parts(self) -> (DenseMatrix, C, Cost) {
        (self.out, self.cache, self.cost)
    }
}

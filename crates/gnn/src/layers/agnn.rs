//! Attention-based GNN propagation layer (Thekumparampil et al.).
//!
//! `P = softmax_row(β · cos(x_v, x_u))` over edges, then `Y = P·X`. This is
//! the model whose aggregation needs *both* SDDMM (edge attention values,
//! the paper's Equation 3) and value-weighted SpMM — the workload behind
//! the paper's AGNN columns in Figure 6.

use tcg_profile::Phase;
use tcg_tensor::{ops, DenseMatrix};

use crate::engine::{Cost, Engine};
use crate::forward::Forward;
use crate::receptive::{gather_owned, spread, LayerDemand};

/// One AGNN propagation layer; the only parameter is the scalar `β`.
#[derive(Debug, Clone)]
pub struct AgnnLayer {
    /// Attention temperature.
    pub beta: f32,
}

/// Saved forward state for backward.
#[derive(Debug, Clone)]
pub struct AgnnCache {
    x: DenseMatrix,
    x_hat: DenseMatrix,
    norms: Vec<f32>,
    cos: Vec<f32>,
    p: Vec<f32>,
}

/// Parameter gradients.
#[derive(Debug, Clone, Copy)]
pub struct AgnnGrads {
    /// `∂L/∂β`.
    pub dbeta: f32,
}

impl AgnnLayer {
    /// Creates a layer with `β = 1`.
    pub fn new() -> Self {
        AgnnLayer { beta: 1.0 }
    }

    /// Forward pass under a receptive-field demand: `x` holds the rows of
    /// `d.input` and the result the rows of `d.output`, compact (see
    /// [`crate::receptive`]). The normalization runs on those input rows
    /// only; the attention needs a translating backend (the unfused path is
    /// always full demand). [`LayerDemand::FULL`] is the training forward;
    /// the cache serves backward only then.
    pub fn forward(&self, eng: &mut Engine, x: &DenseMatrix, d: LayerDemand) -> Forward<AgnnCache> {
        let mut cost = Cost::default();
        // Row-normalize for cosine similarity (one elementwise kernel).
        let mut x_hat = x.clone();
        let norms = ops::l2_normalize_rows(&mut x_hat);
        cost += Cost::other(eng.elementwise_ms(x.len(), 1, 1));

        // Attention pipeline: TC-GNN fuses SDDMM → β-scale → softmax →
        // weighted SpMM into one launch; the framework backends run the
        // stages as separate ops (what DGL/PyG actually do).
        let (y, cos, p) = if eng.supports_fused_attention() {
            let (xa, xv) = (spread(d.input, &x_hat), spread(d.input, x));
            let (y, cos, p, ms) = eng
                .fused_attention_on(&xa, &xv, self.beta, d.output)
                .expect("dims agree");
            cost += Cost::agg(ms);
            (gather_owned(d.output, y), cos, p)
        } else {
            let (cos, sddmm_ms) = eng.sddmm(&x_hat, &x_hat).expect("dims agree");
            cost += Cost::agg(sddmm_ms);
            let s: Vec<f32> = cos.iter().map(|c| self.beta * c).collect();
            // The β scaling is part of the attention pipeline, so it is
            // charged (and traced) as aggregation, not generic elementwise.
            cost += Cost::agg(eng.edge_elementwise_ms("attn_beta_scale", Phase::Aggregation, 1, 1));
            let (p, softmax_ms) = eng.edge_softmax(&s).expect("value count matches edges");
            cost += Cost::agg(softmax_ms);
            let (y, spmm_ms) = eng.spmm(x, Some(&p)).expect("dims agree");
            cost += Cost::agg(spmm_ms);
            (y, cos, p)
        };

        Forward::new(
            y,
            AgnnCache {
                x: x.clone(),
                x_hat,
                norms,
                cos,
                p,
            },
            cost,
        )
    }

    /// Backward pass: given `dY` returns `(dX, grads, cost)`.
    pub fn backward(
        &self,
        eng: &mut Engine,
        cache: &AgnnCache,
        dy: &DenseMatrix,
    ) -> (DenseMatrix, AgnnGrads, Cost) {
        let mut cost = Cost::default();

        // Direct path: Y = P X ⇒ dX += Pᵀ dY.
        let (mut dx, ms) = eng.spmm_t(dy, Some(&cache.p)).expect("dims agree");
        cost += Cost::agg(ms);

        // Attention path: dP[e=(v,u)] = dY[v] · X[u] — an SDDMM.
        let (dp, ms) = eng.sddmm(dy, &cache.x).expect("dims agree");
        cost += Cost::agg(ms);

        // Softmax backward.
        let (de, ms) = eng.edge_softmax_backward(&cache.p, &dp);
        cost += Cost::agg(ms);

        // dβ and dcos.
        let dbeta: f32 = de.iter().zip(&cache.cos).map(|(d, c)| d * c).sum();
        let dcos: Vec<f32> = de.iter().map(|d| self.beta * d).collect();
        cost += Cost::agg(eng.edge_elementwise_ms("attn_dbeta_dcos", Phase::Aggregation, 2, 1));

        // cos[e=(v,u)] = x̂_v · x̂_u ⇒ dx̂_v += Σ_u dcos·x̂_u (SpMM) and
        // dx̂_u += Σ_v dcos·x̂_v (transposed SpMM).
        let (mut dx_hat, ms) = eng.spmm(&cache.x_hat, Some(&dcos)).expect("dims agree");
        cost += Cost::agg(ms);
        let (dx_hat_t, ms) = eng.spmm_t(&cache.x_hat, Some(&dcos)).expect("dims agree");
        cost += Cost::agg(ms);
        dx_hat.add_assign(&dx_hat_t).expect("same shape");

        // Normalization backward: x̂ = x/‖x‖ ⇒
        // dx += (dx̂ − x̂ (x̂·dx̂)) / ‖x‖ row-wise.
        for v in 0..dx.rows() {
            let n = cache.norms[v];
            if n == 0.0 {
                continue;
            }
            let xh = cache.x_hat.row(v);
            let dh = dx_hat.row(v);
            let dot: f32 = xh.iter().zip(dh).map(|(a, b)| a * b).sum();
            let drow = dx.row_mut(v);
            for ((dv, &dhv), &xhv) in drow.iter_mut().zip(dh).zip(xh) {
                *dv += (dhv - xhv * dot) / n;
            }
        }
        cost += Cost::other(eng.elementwise_ms(dx.len(), 3, 1));

        (dx, AgnnGrads { dbeta }, cost)
    }
}

impl Default for AgnnLayer {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Backend, Engine};
    use tcg_gpusim::DeviceSpec;
    use tcg_graph::gen;
    use tcg_tensor::init;

    fn engine(backend: Backend) -> Engine {
        let g = gen::erdos_renyi(40, 260, 1).unwrap();
        Engine::builder(g)
            .backend(backend)
            .device(DeviceSpec::rtx3090())
            .build()
            .expect("graph is symmetric")
    }

    #[test]
    fn forward_is_a_convex_combination_when_beta_zero() {
        // β = 0 ⇒ uniform attention ⇒ y_v = mean of neighbors' x.
        let mut eng = engine(Backend::DglLike);
        let layer = AgnnLayer { beta: 0.0 };
        let x = init::uniform(40, 6, -1.0, 1.0, 2);
        let (y, _, _) = layer.forward(&mut eng, &x, LayerDemand::FULL).into_parts();
        let g = eng.graph().clone();
        for v in 0..g.num_nodes() {
            let ns = g.neighbors(v);
            if ns.is_empty() {
                continue;
            }
            for j in 0..6 {
                let mean: f32 =
                    ns.iter().map(|&u| x.get(u as usize, j)).sum::<f32>() / ns.len() as f32;
                assert!((y.get(v, j) - mean).abs() < 1e-2, "node {v} dim {j}");
            }
        }
    }

    #[test]
    fn backends_agree_on_forward() {
        let layer = AgnnLayer { beta: 1.3 };
        let x = init::uniform(40, 8, -1.0, 1.0, 3);
        let mut outs = Vec::new();
        for b in Backend::all() {
            let mut eng = engine(b);
            let (y, _, cost) = layer.forward(&mut eng, &x, LayerDemand::FULL).into_parts();
            assert!(cost.aggregation_ms > 0.0);
            outs.push(y);
        }
        for y in &outs[1..] {
            assert!(y.max_abs_diff(&outs[0]).unwrap() < 0.05);
        }
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut eng = engine(Backend::DglLike);
        let layer = AgnnLayer { beta: 0.8 };
        let x = init::uniform(40, 5, -1.0, 1.0, 4);
        let (y, cache, _) = layer.forward(&mut eng, &x, LayerDemand::FULL).into_parts();
        // Loss = Σ y²/2 ⇒ dy = y.
        let (dx, grads, _) = layer.backward(&mut eng, &cache, &y);

        let loss = |l: &AgnnLayer, xx: &DenseMatrix, e: &mut Engine| -> f64 {
            let (yy, _, _) = l.forward(e, xx, LayerDemand::FULL).into_parts();
            yy.as_slice()
                .iter()
                .map(|v| (*v as f64).powi(2))
                .sum::<f64>()
                / 2.0
        };
        let eps = 1e-2_f32;

        // dβ.
        let lp = AgnnLayer {
            beta: layer.beta + eps,
        };
        let lm = AgnnLayer {
            beta: layer.beta - eps,
        };
        let fd = (loss(&lp, &x, &mut eng) - loss(&lm, &x, &mut eng)) / (2.0 * eps as f64);
        assert!(
            (fd - grads.dbeta as f64).abs() < 0.05 * (1.0 + fd.abs()),
            "dbeta: fd {fd} vs analytic {}",
            grads.dbeta
        );

        // dx at several positions.
        for &(v, j) in &[(3usize, 0usize), (10, 4), (25, 2)] {
            let mut xp = x.clone();
            xp.set(v, j, xp.get(v, j) + eps);
            let mut xm = x.clone();
            xm.set(v, j, xm.get(v, j) - eps);
            let fd =
                (loss(&layer, &xp, &mut eng) - loss(&layer, &xm, &mut eng)) / (2.0 * eps as f64);
            let an = dx.get(v, j) as f64;
            assert!(
                (fd - an).abs() < 0.08 * (1.0 + an.abs().max(fd.abs())),
                "dx[{v},{j}]: fd {fd} vs analytic {an}"
            );
        }
    }

    #[test]
    fn attention_rows_are_probabilities() {
        let mut eng = engine(Backend::TcGnn);
        let layer = AgnnLayer { beta: 2.0 };
        let x = init::uniform(40, 6, -1.0, 1.0, 5);
        let (_, cache, _) = layer.forward(&mut eng, &x, LayerDemand::FULL).into_parts();
        let g = eng.graph();
        for v in 0..g.num_nodes() {
            let (lo, hi) = (g.node_pointer()[v], g.node_pointer()[v + 1]);
            if hi > lo {
                let s: f32 = cache.p[lo..hi].iter().sum();
                assert!((s - 1.0).abs() < 1e-5);
            }
        }
    }
}

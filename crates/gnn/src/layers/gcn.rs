//! Graph Convolutional Network layer (Kipf & Welling).
//!
//! `Y = Â X W` with `Â = D^{-1/2} A D^{-1/2}`, computed in whichever order
//! is cheaper — exactly DGL's `GraphConv` heuristic: when `in_dim >
//! out_dim` the weight multiply runs first so aggregation happens on the
//! smaller dimension; otherwise aggregation runs first. Gradients mirror
//! the chosen order and reuse the same backend aggregation (`Âᵀ = Â`).

use std::borrow::Cow;

use tcg_tensor::{init, ops, DenseMatrix};

use crate::engine::{Cost, Engine};
use crate::forward::Forward;
use crate::receptive::{gather_owned, spread, LayerDemand};

/// One GCN layer.
#[derive(Debug, Clone)]
pub struct GcnLayer {
    /// Weight matrix `in_dim × out_dim`.
    pub w: DenseMatrix,
    /// Bias `out_dim`.
    pub b: Vec<f32>,
}

/// Which operand order the forward pass used (DGL's heuristic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Order {
    /// `Y = (Â X)·W + b` — aggregation on the input dimension.
    AggregateFirst,
    /// `Y = Â(X·W) + b` — aggregation on the output dimension.
    UpdateFirst,
}

/// Saved forward state for backward, borrowing the layer input for `'x`.
#[derive(Debug, Clone)]
pub struct GcnCache<'x> {
    order: Order,
    /// `Â X` (aggregate-first) or `X` itself, as handed in (update-first).
    pub(crate) saved: Cow<'x, DenseMatrix>,
}

/// Parameter gradients.
#[derive(Debug, Clone)]
pub struct GcnGrads {
    /// `∂L/∂W`.
    pub dw: DenseMatrix,
    /// `∂L/∂b`.
    pub db: Vec<f32>,
}

impl GcnLayer {
    /// Xavier-initialized layer.
    pub fn new(in_dim: usize, out_dim: usize, seed: u64) -> Self {
        GcnLayer {
            w: init::xavier_uniform(in_dim, out_dim, seed),
            b: vec![0.0; out_dim],
        }
    }

    fn order(&self) -> Order {
        if self.aggregate_first() {
            Order::AggregateFirst
        } else {
            Order::UpdateFirst
        }
    }

    /// Whether the forward pass aggregates before the weight multiply
    /// (DGL's `GraphConv` heuristic: aggregate first unless `in_dim >
    /// out_dim`). Public so callers that replay the layer op by op can
    /// keep the exact op order of [`GcnLayer::forward`].
    pub fn aggregate_first(&self) -> bool {
        self.w.rows() <= self.w.cols()
    }

    /// Forward pass under a receptive-field demand: `x` holds the rows of
    /// `d.input` and the result the rows of `d.output`, compact (see
    /// [`crate::receptive`]), and every dense op runs on those rows only.
    /// [`LayerDemand::FULL`] is the training forward; the cache serves
    /// backward only then. The update-first cache keeps `x` as handed in:
    /// a borrowed input stays borrowed.
    pub fn forward<'x>(
        &self,
        eng: &mut Engine,
        x: Cow<'x, DenseMatrix>,
        d: LayerDemand,
    ) -> Forward<GcnCache<'x>> {
        match self.order() {
            Order::AggregateFirst => {
                let (h_agg, agg_ms) = eng
                    .gcn_aggregate_on(&spread(d.input, &x), d.output)
                    .expect("graph and x dims agree");
                let h_agg = gather_owned(d.output, h_agg);
                let (mut y, gemm_ms) = eng.linear(&h_agg, &self.w);
                ops::add_bias_inplace(&mut y, &self.b).expect("bias length matches out_dim");
                let bias_ms = eng.elementwise_ms(y.len(), 1, 1);
                Forward::new(
                    y,
                    GcnCache {
                        order: Order::AggregateFirst,
                        saved: Cow::Owned(h_agg),
                    },
                    Cost::agg(agg_ms) + Cost::update(gemm_ms) + Cost::other(bias_ms),
                )
            }
            Order::UpdateFirst => {
                let (mut h, gemm_ms) = eng.linear(&x, &self.w);
                ops::add_bias_inplace(&mut h, &self.b).expect("bias length matches out_dim");
                let bias_ms = eng.elementwise_ms(h.len(), 1, 1);
                let (y, agg_ms) = eng
                    .gcn_aggregate_on(&spread(d.input, &h), d.output)
                    .expect("dims agree");
                Forward::new(
                    gather_owned(d.output, y),
                    GcnCache {
                        order: Order::UpdateFirst,
                        saved: x,
                    },
                    Cost::update(gemm_ms) + Cost::other(bias_ms) + Cost::agg(agg_ms),
                )
            }
        }
    }

    /// Backward pass: given `dY` returns `(dX, grads, cost)`.
    ///
    /// Input layers pass `needs_dx = false` to skip the input-gradient
    /// GEMM/aggregation, as real frameworks do.
    pub fn backward(
        &self,
        eng: &mut Engine,
        cache: &GcnCache<'_>,
        dy: &DenseMatrix,
        needs_dx: bool,
    ) -> (Option<DenseMatrix>, GcnGrads, Cost) {
        match cache.order {
            Order::AggregateFirst => {
                // Y = (ÂX)W + b: dW = (ÂX)ᵀ dY, db = colsum(dY),
                // dX = Â (dY Wᵀ).
                let (dw, ms1) = eng.linear_at_b(&cache.saved, dy);
                let db = ops::column_sums(dy);
                let db_ms = eng.elementwise_ms(dy.len(), 1, 0);
                let mut cost = Cost::update(ms1) + Cost::other(db_ms);
                let dx = if needs_dx {
                    let (dh, ms2) = eng.linear_a_bt(dy, &self.w);
                    let (dx, agg_ms) = eng.gcn_aggregate(&dh).expect("dims agree");
                    cost += Cost::update(ms2) + Cost::agg(agg_ms);
                    Some(dx)
                } else {
                    None
                };
                (dx, GcnGrads { dw, db }, cost)
            }
            Order::UpdateFirst => {
                // Y = Â(XW + b): dH = Â dY; dW = Xᵀ dH; db = colsum(dH);
                // dX = dH Wᵀ.
                let (dh, agg_ms) = eng.gcn_aggregate(dy).expect("dims agree");
                let (dw, ms1) = eng.linear_at_b(&cache.saved, &dh);
                let db = ops::column_sums(&dh);
                let db_ms = eng.elementwise_ms(dh.len(), 1, 0);
                let mut cost = Cost::agg(agg_ms) + Cost::update(ms1) + Cost::other(db_ms);
                let dx = if needs_dx {
                    let (dx, ms2) = eng.linear_a_bt(&dh, &self.w);
                    cost += Cost::update(ms2);
                    Some(dx)
                } else {
                    None
                };
                (dx, GcnGrads { dw, db }, cost)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Backend, Engine};
    use tcg_gpusim::DeviceSpec;
    use tcg_graph::gen;

    fn engine(backend: Backend) -> Engine {
        let g = gen::erdos_renyi(48, 300, 1).unwrap();
        Engine::builder(g)
            .backend(backend)
            .device(DeviceSpec::rtx3090())
            .build()
            .expect("graph is symmetric")
    }

    #[test]
    fn order_follows_dgl_heuristic() {
        assert_eq!(GcnLayer::new(128, 16, 1).order(), Order::UpdateFirst);
        assert_eq!(GcnLayer::new(16, 64, 1).order(), Order::AggregateFirst);
        assert_eq!(GcnLayer::new(16, 16, 1).order(), Order::AggregateFirst);
    }

    #[test]
    fn both_orders_compute_the_same_function() {
        // Â(XW) = (ÂX)W: force each order via layer shapes around a square
        // weight by constructing transposed variants.
        let mut eng = engine(Backend::DglLike);
        let x = init::uniform(48, 6, -1.0, 1.0, 2);
        // in < out: aggregate-first.
        let wide = GcnLayer::new(6, 9, 3);
        // in > out with the numerically identical weight: build by hand.
        let (y_wide, _, _) = wide
            .forward(&mut eng, Cow::Borrowed(&x), LayerDemand::FULL)
            .into_parts();
        // Manually compute Â(X·W) and compare.
        let (h, _) = eng.linear(&x, &wide.w);
        let (y_manual, _) = eng.gcn_aggregate(&h).unwrap();
        assert!(y_wide.max_abs_diff(&y_manual).unwrap() < 2e-2);
    }

    #[test]
    fn forward_shapes_and_cost_split() {
        let mut eng = engine(Backend::TcGnn);
        let layer = GcnLayer::new(6, 4, 1);
        let x = init::uniform(48, 6, -1.0, 1.0, 2);
        let (y, _, cost) = layer
            .forward(&mut eng, Cow::Borrowed(&x), LayerDemand::FULL)
            .into_parts();
        assert_eq!(y.shape(), (48, 4));
        assert!(cost.aggregation_ms > 0.0);
        assert!(cost.update_ms > 0.0);
    }

    #[test]
    fn backends_produce_same_forward() {
        let layer = GcnLayer::new(5, 3, 3);
        let x = init::uniform(48, 5, -1.0, 1.0, 4);
        let mut outs = Vec::new();
        for b in Backend::all() {
            let mut eng = engine(b);
            let (y, _, _) = layer
                .forward(&mut eng, Cow::Borrowed(&x), LayerDemand::FULL)
                .into_parts();
            outs.push(y);
        }
        for y in &outs[1..] {
            assert!(y.max_abs_diff(&outs[0]).unwrap() < 0.02);
        }
    }

    #[test]
    fn skipping_dx_returns_none_and_costs_less() {
        let mut eng = engine(Backend::DglLike);
        let layer = GcnLayer::new(4, 3, 5);
        let x = init::uniform(48, 4, -1.0, 1.0, 6);
        let (y, cache, _) = layer
            .forward(&mut eng, Cow::Borrowed(&x), LayerDemand::FULL)
            .into_parts();
        let (dx_some, _, cost_full) = layer.backward(&mut eng, &cache, &y, true);
        let (dx_none, _, cost_skip) = layer.backward(&mut eng, &cache, &y, false);
        assert!(dx_some.is_some());
        assert!(dx_none.is_none());
        assert!(cost_skip.total_ms() < cost_full.total_ms());
    }

    fn check_gradients(layer: &GcnLayer, eng: &mut Engine) {
        let x = init::uniform(48, layer.w.rows(), -1.0, 1.0, 6);
        let (y, cache, _) = layer
            .forward(eng, Cow::Borrowed(&x), LayerDemand::FULL)
            .into_parts();
        // Loss = Σ y² / 2 ⇒ dy = y.
        let (dx, grads, _) = layer.backward(eng, &cache, &y, true);
        let dx = dx.unwrap();
        let loss = |l: &GcnLayer, xx: &DenseMatrix, e: &mut Engine| -> f64 {
            let (yy, _, _) = l
                .forward(e, Cow::Borrowed(xx), LayerDemand::FULL)
                .into_parts();
            yy.as_slice()
                .iter()
                .map(|v| (*v as f64).powi(2))
                .sum::<f64>()
                / 2.0
        };
        let eps = 1e-3_f32;
        for &(i, j) in &[(0usize, 0usize), (2, 1), (1, 2)] {
            let i = i.min(layer.w.rows() - 1);
            let j = j.min(layer.w.cols() - 1);
            let mut lp = layer.clone();
            lp.w.set(i, j, lp.w.get(i, j) + eps);
            let mut lm = layer.clone();
            lm.w.set(i, j, lm.w.get(i, j) - eps);
            let fd = (loss(&lp, &x, eng) - loss(&lm, &x, eng)) / (2.0 * eps as f64);
            let an = grads.dw.get(i, j) as f64;
            assert!(
                (fd - an).abs() < 0.05 * (1.0 + an.abs()),
                "dW[{i},{j}]: fd {fd} vs analytic {an}"
            );
        }
        for j in 0..layer.w.cols() {
            let mut lp = layer.clone();
            lp.b[j] += eps;
            let mut lm = layer.clone();
            lm.b[j] -= eps;
            let fd = (loss(&lp, &x, eng) - loss(&lm, &x, eng)) / (2.0 * eps as f64);
            let an = grads.db[j] as f64;
            assert!((fd - an).abs() < 0.05 * (1.0 + an.abs()), "db[{j}]");
        }
        let mut xp = x.clone();
        xp.set(7, 2, xp.get(7, 2) + eps);
        let mut xm = x.clone();
        xm.set(7, 2, xm.get(7, 2) - eps);
        let fd = (loss(layer, &xp, eng) - loss(layer, &xm, eng)) / (2.0 * eps as f64);
        let an = dx.get(7, 2) as f64;
        assert!(
            (fd - an).abs() < 0.05 * (1.0 + an.abs()),
            "dx: fd {fd} vs {an}"
        );
    }

    #[test]
    fn gradients_match_finite_differences_aggregate_first() {
        let mut eng = engine(Backend::DglLike);
        check_gradients(&GcnLayer::new(4, 6, 5), &mut eng);
    }

    #[test]
    fn gradients_match_finite_differences_update_first() {
        let mut eng = engine(Backend::DglLike);
        check_gradients(&GcnLayer::new(6, 3, 5), &mut eng);
    }
}

//! GraphSAGE layer (Hamilton et al.) with the mean aggregator.
//!
//! `Y = X·W_self + mean(N(v))·W_neigh + b`. The paper names GraphSAGE as a
//! direct beneficiary of accelerating GCN-style aggregation (§6,
//! "improving the performance of GCN will also benefit a broad range of
//! GNNs, such as GraphSAGE"); this layer exercises the engine's
//! mean-normalized aggregation path.

use std::borrow::Cow;

use tcg_tensor::{init, ops, DenseMatrix};

use crate::engine::{Cost, Engine};
use crate::forward::Forward;
use crate::receptive::{gather_owned, spread, LayerDemand};

/// One GraphSAGE (mean) layer.
#[derive(Debug, Clone)]
pub struct SageLayer {
    /// Self-connection weight, `in_dim × out_dim`.
    pub w_self: DenseMatrix,
    /// Neighbor-aggregate weight, `in_dim × out_dim`.
    pub w_neigh: DenseMatrix,
    /// Bias, `out_dim`.
    pub b: Vec<f32>,
}

/// Saved forward state, borrowing the layer input for `'x`.
#[derive(Debug, Clone)]
pub struct SageCache<'x> {
    /// The self term's input rows: `x` as handed in at full demand.
    pub(crate) x: Cow<'x, DenseMatrix>,
    mean: DenseMatrix,
}

/// Parameter gradients.
#[derive(Debug, Clone)]
pub struct SageGrads {
    /// `∂L/∂W_self`.
    pub dw_self: DenseMatrix,
    /// `∂L/∂W_neigh`.
    pub dw_neigh: DenseMatrix,
    /// `∂L/∂b`.
    pub db: Vec<f32>,
}

impl SageLayer {
    /// Xavier-initialized layer.
    pub fn new(in_dim: usize, out_dim: usize, seed: u64) -> Self {
        SageLayer {
            w_self: init::xavier_uniform(in_dim, out_dim, seed),
            w_neigh: init::xavier_uniform(in_dim, out_dim, seed ^ 0xa5a5),
            b: vec![0.0; out_dim],
        }
    }

    /// Forward pass under a receptive-field demand: `x` holds the rows of
    /// `d.input` and the result the rows of `d.output`, compact (see
    /// [`crate::receptive`]). Both GEMMs run on the output rows only.
    /// [`LayerDemand::FULL`] is the training forward; the cache serves
    /// backward only then, and keeps `x` as handed in.
    pub fn forward<'x>(
        &self,
        eng: &mut Engine,
        x: Cow<'x, DenseMatrix>,
        d: LayerDemand,
    ) -> Forward<SageCache<'x>> {
        let x_full = spread(d.input, &x);
        let (mean, agg_ms) = eng
            .mean_aggregate_on(&x_full, d.output)
            .expect("dims agree");
        let mean = gather_owned(d.output, mean);
        // The self term's rows; with no output set `x` is already all of
        // them (an input set implies an output set).
        let x = match d.output {
            None => x,
            Some(set) => Cow::Owned(set.gather(&x_full)),
        };
        let (mut y, ms1) = eng.linear(&x, &self.w_self);
        let (y2, ms2) = eng.linear(&mean, &self.w_neigh);
        y.add_assign(&y2).expect("same shape");
        ops::add_bias_inplace(&mut y, &self.b).expect("bias length");
        let ew_ms = eng.elementwise_ms(y.len(), 2, 1);
        Forward::new(
            y,
            SageCache { x, mean },
            Cost::agg(agg_ms) + Cost::update(ms1 + ms2) + Cost::other(ew_ms),
        )
    }

    /// Backward pass.
    pub fn backward(
        &self,
        eng: &mut Engine,
        cache: &SageCache<'_>,
        dy: &DenseMatrix,
        needs_dx: bool,
    ) -> (Option<DenseMatrix>, SageGrads, Cost) {
        let (dw_self, ms1) = eng.linear_at_b(&cache.x, dy);
        let (dw_neigh, ms2) = eng.linear_at_b(&cache.mean, dy);
        let db = ops::column_sums(dy);
        let db_ms = eng.elementwise_ms(dy.len(), 1, 0);
        let mut cost = Cost::update(ms1 + ms2) + Cost::other(db_ms);
        let dx = if needs_dx {
            let (mut dx, ms3) = eng.linear_a_bt(dy, &self.w_self);
            let (dmean, ms4) = eng.linear_a_bt(dy, &self.w_neigh);
            let (dx_agg, agg_ms) = eng.mean_aggregate_t(&dmean).expect("dims agree");
            dx.add_assign(&dx_agg).expect("same shape");
            cost += Cost::update(ms3 + ms4)
                + Cost::agg(agg_ms)
                + Cost::other(eng.elementwise_ms(dx.len(), 2, 1));
            Some(dx)
        } else {
            None
        };
        (
            dx,
            SageGrads {
                dw_self,
                dw_neigh,
                db,
            },
            cost,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Backend, Engine};
    use tcg_gpusim::DeviceSpec;
    use tcg_graph::gen;

    fn engine(backend: Backend) -> Engine {
        let g = gen::erdos_renyi(44, 280, 1).unwrap();
        Engine::builder(g)
            .backend(backend)
            .device(DeviceSpec::rtx3090())
            .build()
            .expect("graph is symmetric")
    }

    #[test]
    fn forward_shapes_and_backend_agreement() {
        let layer = SageLayer::new(5, 4, 2);
        let x = init::uniform(44, 5, -1.0, 1.0, 3);
        let mut outs = Vec::new();
        for b in Backend::all() {
            let mut eng = engine(b);
            let (y, _, cost) = layer
                .forward(&mut eng, Cow::Borrowed(&x), LayerDemand::FULL)
                .into_parts();
            assert_eq!(y.shape(), (44, 4));
            assert!(cost.aggregation_ms > 0.0 && cost.update_ms > 0.0);
            outs.push(y);
        }
        for y in &outs[1..] {
            assert!(y.max_abs_diff(&outs[0]).unwrap() < 0.02);
        }
    }

    #[test]
    fn isolated_node_uses_only_self_path() {
        // A node with no neighbors: mean term is zero.
        let g = tcg_graph::CsrGraph::from_raw(3, vec![0, 1, 2, 2], vec![1, 0]).unwrap();
        let mut eng = Engine::builder(g)
            .backend(Backend::DglLike)
            .device(DeviceSpec::rtx3090())
            .build()
            .expect("graph is symmetric");
        let layer = SageLayer::new(2, 2, 4);
        let x = init::uniform(3, 2, -1.0, 1.0, 5);
        let (y, _, _) = layer
            .forward(&mut eng, Cow::Borrowed(&x), LayerDemand::FULL)
            .into_parts();
        let expect = tcg_tensor::gemm::gemm(&x, &layer.w_self).unwrap();
        for j in 0..2 {
            assert!((y.get(2, j) - expect.get(2, j)).abs() < 1e-4);
        }
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut eng = engine(Backend::DglLike);
        let layer = SageLayer::new(4, 3, 6);
        let x = init::uniform(44, 4, -1.0, 1.0, 7);
        let (y, cache, _) = layer
            .forward(&mut eng, Cow::Borrowed(&x), LayerDemand::FULL)
            .into_parts();
        let (dx, grads, _) = layer.backward(&mut eng, &cache, &y, true);
        let dx = dx.unwrap();
        let loss = |l: &SageLayer, xx: &DenseMatrix, e: &mut Engine| -> f64 {
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
        for &(i, j) in &[(0usize, 0usize), (3, 2), (1, 1)] {
            for which in 0..2 {
                let mut lp = layer.clone();
                let mut lm = layer.clone();
                let (wp, wm) = if which == 0 {
                    (&mut lp.w_self, &mut lm.w_self)
                } else {
                    (&mut lp.w_neigh, &mut lm.w_neigh)
                };
                wp.set(i, j, wp.get(i, j) + eps);
                wm.set(i, j, wm.get(i, j) - eps);
                let fd = (loss(&lp, &x, &mut eng) - loss(&lm, &x, &mut eng)) / (2.0 * eps as f64);
                let an = if which == 0 {
                    grads.dw_self.get(i, j)
                } else {
                    grads.dw_neigh.get(i, j)
                } as f64;
                assert!(
                    (fd - an).abs() < 0.05 * (1.0 + an.abs()),
                    "w{which}[{i},{j}]: fd {fd} vs {an}"
                );
            }
        }
        let mut xp = x.clone();
        xp.set(9, 1, xp.get(9, 1) + eps);
        let mut xm = x.clone();
        xm.set(9, 1, xm.get(9, 1) - eps);
        let fd = (loss(&layer, &xp, &mut eng) - loss(&layer, &xm, &mut eng)) / (2.0 * eps as f64);
        let an = dx.get(9, 1) as f64;
        assert!(
            (fd - an).abs() < 0.05 * (1.0 + an.abs()),
            "dx: fd {fd} vs {an}"
        );
    }
}

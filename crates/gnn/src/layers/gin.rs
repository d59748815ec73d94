//! Graph Isomorphism Network layer (Xu et al.).
//!
//! `Y = MLP((1 + ε)·X + Σ_{u∈N(v)} X_u)` — sum aggregation (plain
//! unweighted SpMM, the simplest workload the paper's kernels serve) with a
//! trainable `ε` and a two-layer MLP update. GIN is the other model the
//! paper's §2.1 names as using pure adjacency aggregation.

use std::borrow::Cow;

use tcg_profile::Phase;
use tcg_tensor::{init, ops, DenseMatrix};

use crate::engine::{Cost, Engine};
use crate::forward::Forward;
use crate::receptive::{gather_owned, spread, LayerDemand};

/// One GIN layer.
#[derive(Debug, Clone)]
pub struct GinLayer {
    /// Self-weight scalar offset (the paper-trainable ε).
    pub eps: f32,
    /// MLP first weight, `in_dim × hidden`.
    pub w1: DenseMatrix,
    /// MLP first bias.
    pub b1: Vec<f32>,
    /// MLP second weight, `hidden × out_dim`.
    pub w2: DenseMatrix,
    /// MLP second bias.
    pub b2: Vec<f32>,
}

/// Saved forward state, borrowing the layer input for `'x`.
#[derive(Debug, Clone)]
pub struct GinCache<'x> {
    /// The self term's input rows: `x` as handed in at full demand.
    pub(crate) x: Cow<'x, DenseMatrix>,
    h: DenseMatrix,
    z1: DenseMatrix,
    a1: DenseMatrix,
}

/// Parameter gradients.
#[derive(Debug, Clone)]
pub struct GinGrads {
    /// `∂L/∂ε`.
    pub deps: f32,
    /// `∂L/∂W1`.
    pub dw1: DenseMatrix,
    /// `∂L/∂b1`.
    pub db1: Vec<f32>,
    /// `∂L/∂W2`.
    pub dw2: DenseMatrix,
    /// `∂L/∂b2`.
    pub db2: Vec<f32>,
}

impl GinLayer {
    /// Xavier-initialized layer with `ε = 0`.
    pub fn new(in_dim: usize, hidden: usize, out_dim: usize, seed: u64) -> Self {
        GinLayer {
            eps: 0.0,
            w1: init::xavier_uniform(in_dim, hidden, seed),
            b1: vec![0.0; hidden],
            w2: init::xavier_uniform(hidden, out_dim, seed ^ 0x61_6e),
            b2: vec![0.0; out_dim],
        }
    }

    /// Forward pass under a receptive-field demand: `x` holds the rows of
    /// `d.input` and the result the rows of `d.output`, compact (see
    /// [`crate::receptive`]). The self term and the MLP run on the output
    /// rows only. [`LayerDemand::FULL`] is the training forward; the cache
    /// serves backward only then, and keeps `x` as handed in.
    pub fn forward<'x>(
        &self,
        eng: &mut Engine,
        x: Cow<'x, DenseMatrix>,
        d: LayerDemand,
    ) -> Forward<GinCache<'x>> {
        let x_full = spread(d.input, &x);
        let (h, agg_ms) = eng.sum_aggregate_on(&x_full, d.output).expect("dims agree");
        let mut h = gather_owned(d.output, h);
        // The self term's rows; with no output set `x` is already all of
        // them (an input set implies an output set).
        let x = match d.output {
            None => x,
            Some(set) => Cow::Owned(set.gather(&x_full)),
        };
        for (hv, xv) in h.as_mut_slice().iter_mut().zip(x.as_slice()) {
            *hv += (1.0 + self.eps) * xv;
        }
        let mut cost = Cost::agg(agg_ms) + Cost::other(eng.elementwise_ms(h.len(), 2, 1));
        let (mut z1, ms1) = eng.linear(&h, &self.w1);
        ops::add_bias_inplace(&mut z1, &self.b1).expect("bias length");
        let a1 = ops::relu(&z1);
        // Bias add and ReLU are two separate launches; recording them as
        // two events keeps the trace exact (`a + a == a * 2.0` in IEEE).
        cost += Cost::update(ms1)
            + Cost::other(
                eng.elementwise_tagged_ms("bias_add", Phase::Other, z1.len(), 1, 1)
                    + eng.elementwise_tagged_ms("relu", Phase::Other, z1.len(), 1, 1),
            );
        let (mut y, ms2) = eng.linear(&a1, &self.w2);
        ops::add_bias_inplace(&mut y, &self.b2).expect("bias length");
        cost += Cost::update(ms2) + Cost::other(eng.elementwise_ms(y.len(), 1, 1));
        Forward::new(y, GinCache { x, h, z1, a1 }, cost)
    }

    /// Backward pass.
    pub fn backward(
        &self,
        eng: &mut Engine,
        cache: &GinCache<'_>,
        dy: &DenseMatrix,
        needs_dx: bool,
    ) -> (Option<DenseMatrix>, GinGrads, Cost) {
        // MLP backward.
        let (dw2, ms1) = eng.linear_at_b(&cache.a1, dy);
        let db2 = ops::column_sums(dy);
        let (da1, ms2) = eng.linear_a_bt(dy, &self.w2);
        let dz1 = ops::relu_backward(&cache.z1, &da1).expect("same shape");
        let (dw1, ms3) = eng.linear_at_b(&cache.h, &dz1);
        let db1 = ops::column_sums(&dz1);
        let (dh, ms4) = eng.linear_a_bt(&dz1, &self.w1);
        // ReLU backward + bias-gradient reduction: two launches, two events.
        let mut cost = Cost::update(ms1 + ms2 + ms3 + ms4)
            + Cost::other(
                eng.elementwise_tagged_ms("relu_backward", Phase::Other, dz1.len(), 2, 1)
                    + eng.elementwise_tagged_ms("bias_grad", Phase::Other, dz1.len(), 2, 1),
            );

        // dε = Σ dh ⊙ x.
        let deps: f32 = dh
            .as_slice()
            .iter()
            .zip(cache.x.as_slice())
            .map(|(a, b)| a * b)
            .sum();
        cost += Cost::other(eng.elementwise_ms(dh.len(), 2, 0));

        let dx = if needs_dx {
            // dx = (1+ε)·dh + Aᵀ dh (A symmetric, unweighted).
            let (mut dx, agg_ms) = eng.sum_aggregate(&dh).expect("dims agree");
            for (dv, hv) in dx.as_mut_slice().iter_mut().zip(dh.as_slice()) {
                *dv += (1.0 + self.eps) * hv;
            }
            cost += Cost::agg(agg_ms) + Cost::other(eng.elementwise_ms(dx.len(), 2, 1));
            Some(dx)
        } else {
            None
        };
        (
            dx,
            GinGrads {
                deps,
                dw1,
                db1,
                dw2,
                db2,
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
        let g = gen::erdos_renyi(40, 240, 1).unwrap();
        Engine::builder(g)
            .backend(backend)
            .device(DeviceSpec::rtx3090())
            .build()
            .expect("graph is symmetric")
    }

    #[test]
    fn forward_shapes_and_backend_agreement() {
        let layer = GinLayer::new(5, 8, 4, 2);
        let x = init::uniform(40, 5, -1.0, 1.0, 3);
        let mut outs = Vec::new();
        for b in Backend::all() {
            let mut eng = engine(b);
            let (y, _, cost) = layer
                .forward(&mut eng, Cow::Borrowed(&x), LayerDemand::FULL)
                .into_parts();
            assert_eq!(y.shape(), (40, 4));
            assert!(cost.aggregation_ms > 0.0 && cost.update_ms > 0.0);
            outs.push(y);
        }
        for y in &outs[1..] {
            assert!(y.max_abs_diff(&outs[0]).unwrap() < 0.02);
        }
    }

    #[test]
    fn epsilon_scales_self_contribution() {
        // With no edges, h = (1+ε)x exactly.
        let g = tcg_graph::CsrGraph::from_raw(4, vec![0; 5], vec![]).unwrap();
        let mut eng = Engine::builder(g)
            .backend(Backend::TcGnn)
            .device(DeviceSpec::rtx3090())
            .build()
            .expect("graph is symmetric");
        let mut layer = GinLayer::new(3, 4, 2, 5);
        layer.eps = 1.0;
        let x = init::uniform(4, 3, -1.0, 1.0, 6);
        let (_, cache, _) = layer
            .forward(&mut eng, Cow::Borrowed(&x), LayerDemand::FULL)
            .into_parts();
        for (h, xv) in cache.h.as_slice().iter().zip(x.as_slice()) {
            assert!((h - 2.0 * xv).abs() < 1e-5);
        }
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut eng = engine(Backend::DglLike);
        let layer = GinLayer::new(4, 6, 3, 7);
        let x = init::uniform(40, 4, -1.0, 1.0, 8);
        let (y, cache, _) = layer
            .forward(&mut eng, Cow::Borrowed(&x), LayerDemand::FULL)
            .into_parts();
        let (dx, grads, _) = layer.backward(&mut eng, &cache, &y, true);
        let dx = dx.unwrap();
        let loss = |l: &GinLayer, xx: &DenseMatrix, e: &mut Engine| -> f64 {
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

        // dε.
        let mut lp = layer.clone();
        lp.eps += eps;
        let mut lm = layer.clone();
        lm.eps -= eps;
        let fd = (loss(&lp, &x, &mut eng) - loss(&lm, &x, &mut eng)) / (2.0 * eps as f64);
        assert!(
            (fd - grads.deps as f64).abs() < 0.05 * (1.0 + fd.abs()),
            "deps: fd {fd} vs {}",
            grads.deps
        );

        // dW1, dW2 spot checks.
        for &(i, j) in &[(0usize, 0usize), (3, 4)] {
            let mut lp = layer.clone();
            lp.w1.set(i, j, lp.w1.get(i, j) + eps);
            let mut lm = layer.clone();
            lm.w1.set(i, j, lm.w1.get(i, j) - eps);
            let fd = (loss(&lp, &x, &mut eng) - loss(&lm, &x, &mut eng)) / (2.0 * eps as f64);
            let an = grads.dw1.get(i, j) as f64;
            assert!((fd - an).abs() < 0.05 * (1.0 + an.abs()), "dW1[{i},{j}]");
        }
        for &(i, j) in &[(0usize, 0usize), (5, 2)] {
            let mut lp = layer.clone();
            lp.w2.set(i, j, lp.w2.get(i, j) + eps);
            let mut lm = layer.clone();
            lm.w2.set(i, j, lm.w2.get(i, j) - eps);
            let fd = (loss(&lp, &x, &mut eng) - loss(&lm, &x, &mut eng)) / (2.0 * eps as f64);
            let an = grads.dw2.get(i, j) as f64;
            assert!((fd - an).abs() < 0.05 * (1.0 + an.abs()), "dW2[{i},{j}]");
        }

        // dx spot check.
        let mut xp = x.clone();
        xp.set(11, 2, xp.get(11, 2) + eps);
        let mut xm = x.clone();
        xm.set(11, 2, xm.get(11, 2) - eps);
        let fd = (loss(&layer, &xp, &mut eng) - loss(&layer, &xm, &mut eng)) / (2.0 * eps as f64);
        let an = dx.get(11, 2) as f64;
        assert!(
            (fd - an).abs() < 0.05 * (1.0 + an.abs()),
            "dx: fd {fd} vs {an}"
        );
    }
}

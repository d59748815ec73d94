//! Fully-connected layer (the GNN *Update* function `w·a + b`).

use std::borrow::Cow;

use tcg_tensor::{init, ops, DenseMatrix};

use crate::engine::{Cost, Engine};
use crate::forward::Forward;

/// A dense layer `y = x·W + b`.
#[derive(Debug, Clone)]
pub struct Linear {
    /// Weight matrix, `in_dim × out_dim`.
    pub w: DenseMatrix,
    /// Bias vector, `out_dim`.
    pub b: Vec<f32>,
}

/// Saved activations for the backward pass: the input as handed in,
/// borrowed for `'x` when it was borrowed.
#[derive(Debug, Clone)]
pub struct LinearCache<'x> {
    pub(crate) x: Cow<'x, DenseMatrix>,
}

/// Parameter gradients of a [`Linear`].
#[derive(Debug, Clone)]
pub struct LinearGrads {
    /// `∂L/∂W`.
    pub dw: DenseMatrix,
    /// `∂L/∂b`.
    pub db: Vec<f32>,
}

impl Linear {
    /// Xavier-initialized layer.
    pub fn new(in_dim: usize, out_dim: usize, seed: u64) -> Self {
        Linear {
            w: init::xavier_uniform(in_dim, out_dim, seed),
            b: vec![0.0; out_dim],
        }
    }

    /// Forward: `y = x·W + b`. The cache keeps `x` as handed in.
    pub fn forward<'x>(
        &self,
        eng: &mut Engine,
        x: Cow<'x, DenseMatrix>,
    ) -> Forward<LinearCache<'x>> {
        let (mut y, gemm_ms) = eng.linear(&x, &self.w);
        ops::add_bias_inplace(&mut y, &self.b).expect("bias length matches out_dim");
        let bias_ms = eng.elementwise_ms(y.len(), 1, 1);
        Forward::new(
            y,
            LinearCache { x },
            Cost::update(gemm_ms) + Cost::other(bias_ms),
        )
    }

    /// Backward: given `dy`, returns `(dx, grads, cost)`. Input layers pass
    /// `needs_dx = false` to skip the `dY·Wᵀ` GEMM entirely.
    pub fn backward(
        &self,
        eng: &mut Engine,
        cache: &LinearCache<'_>,
        dy: &DenseMatrix,
        needs_dx: bool,
    ) -> (Option<DenseMatrix>, LinearGrads, Cost) {
        let (dw, ms1) = eng.linear_at_b(&cache.x, dy);
        let db = ops::column_sums(dy);
        let db_ms = eng.elementwise_ms(dy.len(), 1, 0);
        let mut cost = Cost::update(ms1) + Cost::other(db_ms);
        let dx = if needs_dx {
            let (dx, ms2) = eng.linear_a_bt(dy, &self.w);
            cost += Cost::update(ms2);
            Some(dx)
        } else {
            None
        };
        (dx, LinearGrads { dw, db }, cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Backend;
    use tcg_gpusim::DeviceSpec;
    use tcg_graph::gen;

    fn engine() -> Engine {
        let g = gen::erdos_renyi(64, 400, 1).unwrap();
        Engine::builder(g)
            .backend(Backend::DglLike)
            .device(DeviceSpec::rtx3090())
            .build()
            .expect("graph is symmetric")
    }

    #[test]
    fn forward_applies_bias() {
        let mut eng = engine();
        let mut layer = Linear::new(4, 3, 1);
        layer.b = vec![1.0, 2.0, 3.0];
        let x = DenseMatrix::zeros(64, 4);
        let (y, _, cost) = layer.forward(&mut eng, Cow::Borrowed(&x)).into_parts();
        assert_eq!(y.row(0), &[1.0, 2.0, 3.0]);
        assert!(cost.update_ms > 0.0 && cost.other_ms > 0.0);
    }

    #[test]
    fn backward_matches_finite_differences() {
        let mut eng = engine();
        let layer = Linear::new(3, 2, 2);
        let x = init::uniform(64, 3, -1.0, 1.0, 3);
        // Loss = sum(y^2)/2 so dy = y.
        let (y, cache, _) = layer.forward(&mut eng, Cow::Borrowed(&x)).into_parts();
        let (dx, grads, _) = layer.backward(&mut eng, &cache, &y, true);
        let dx = dx.unwrap();

        let loss = |l: &Linear, xx: &DenseMatrix, e: &mut Engine| -> f64 {
            let (yy, _, _) = l.forward(e, Cow::Borrowed(xx)).into_parts();
            yy.as_slice()
                .iter()
                .map(|v| (*v as f64).powi(2))
                .sum::<f64>()
                / 2.0
        };
        let eps = 1e-3_f32;
        // Check dW at a few entries.
        for &(i, j) in &[(0usize, 0usize), (2, 1), (1, 0)] {
            let mut lp = layer.clone();
            lp.w.set(i, j, lp.w.get(i, j) + eps);
            let mut lm = layer.clone();
            lm.w.set(i, j, lm.w.get(i, j) - eps);
            let fd = (loss(&lp, &x, &mut eng) - loss(&lm, &x, &mut eng)) / (2.0 * eps as f64);
            let an = grads.dw.get(i, j) as f64;
            assert!(
                (fd - an).abs() < 0.05 * (1.0 + an.abs()),
                "dW[{i},{j}]: fd {fd} vs {an}"
            );
        }
        // Check db.
        for j in 0..2 {
            let mut lp = layer.clone();
            lp.b[j] += eps;
            let mut lm = layer.clone();
            lm.b[j] -= eps;
            let fd = (loss(&lp, &x, &mut eng) - loss(&lm, &x, &mut eng)) / (2.0 * eps as f64);
            let an = grads.db[j] as f64;
            assert!(
                (fd - an).abs() < 0.05 * (1.0 + an.abs()),
                "db[{j}]: fd {fd} vs {an}"
            );
        }
        // Check dx at one entry.
        let mut xp = x.clone();
        xp.set(5, 1, xp.get(5, 1) + eps);
        let mut xm = x.clone();
        xm.set(5, 1, xm.get(5, 1) - eps);
        let fd = (loss(&layer, &xp, &mut eng) - loss(&layer, &xm, &mut eng)) / (2.0 * eps as f64);
        let an = dx.get(5, 1) as f64;
        assert!(
            (fd - an).abs() < 0.05 * (1.0 + an.abs()),
            "dx: fd {fd} vs {an}"
        );
    }
}

//! The paper's two benchmark models — GCN (2 layers, 16 hidden) and AGNN
//! (4 propagation layers, 32 hidden) — plus the GraphSAGE and GIN models
//! §6's "benefit a broad range of GNNs" argument covers.

use std::borrow::Cow;

use tcg_profile::Phase;
use tcg_tensor::{ops, DenseMatrix};

use crate::engine::{Cost, Engine};
use crate::forward::Forward;
use crate::layers::agnn::{AgnnCache, AgnnGrads, AgnnLayer};
use crate::layers::gcn::{GcnCache, GcnGrads, GcnLayer};
use crate::layers::gin::{GinCache, GinGrads, GinLayer};
use crate::layers::linear::{Linear, LinearCache, LinearGrads};
use crate::layers::sage::{SageCache, SageGrads, SageLayer};
use crate::optim::Adam;
use crate::receptive::{gather, spread_owned, Demand};
use crate::trainer::TrainableModel;

/// Tags subsequent profiler events with a model-layer index (no-op when
/// the engine has no profiler attached).
fn prof_set_layer(eng: &Engine, layer: Option<u32>) {
    if let Some(p) = eng.profiler() {
        p.write().expect("profiler lock").set_layer(layer);
    }
}

/// Whether every value of a weight matrix is finite.
fn mat_finite(m: &DenseMatrix) -> bool {
    m.as_slice().iter().all(|v| v.is_finite())
}

/// Whether every value of a bias vector is finite.
fn vec_finite(v: &[f32]) -> bool {
    v.iter().all(|x| x.is_finite())
}

/// Graph Convolutional Network: `GCN(in→hidden) → ReLU → GCN(hidden→out)`.
#[derive(Debug, Clone)]
pub struct GcnModel {
    /// First graph convolution.
    pub l1: GcnLayer,
    /// Second graph convolution (classifier head).
    pub l2: GcnLayer,
}

/// Forward state of [`GcnModel`], borrowing the model input for `'x`.
pub struct GcnModelCache<'x> {
    c1: GcnCache<'x>,
    h1: DenseMatrix,
    c2: GcnCache<'x>,
}

/// Gradients of [`GcnModel`].
pub struct GcnModelGrads {
    g1: GcnGrads,
    g2: GcnGrads,
}

impl GcnModel {
    /// Builds the paper's GCN configuration for a dataset shape.
    pub fn new(in_dim: usize, hidden: usize, num_classes: usize, seed: u64) -> Self {
        GcnModel {
            l1: GcnLayer::new(in_dim, hidden, seed),
            l2: GcnLayer::new(hidden, num_classes, seed ^ 0x9e37),
        }
    }
}

impl TrainableModel for GcnModel {
    type Cache<'x> = GcnModelCache<'x>;
    type Grads = GcnModelGrads;

    fn depth(&self) -> usize {
        2
    }

    fn pass<'x>(
        &self,
        eng: &mut Engine,
        x: &'x DenseMatrix,
        demand: &Demand,
    ) -> Forward<GcnModelCache<'x>> {
        prof_set_layer(eng, Some(0));
        let (z1, c1, cost1) = self
            .l1
            .forward(eng, gather(demand.input(), x), demand.layer(1))
            .into_parts();
        let h1 = ops::relu(&z1);
        let relu_ms = eng.elementwise_tagged_ms("relu", Phase::Other, h1.len(), 1, 1);
        prof_set_layer(eng, Some(1));
        let (logits, c2, cost2) = self
            .l2
            .forward(eng, Cow::Owned(h1), demand.layer(2))
            .into_parts();
        prof_set_layer(eng, None);
        Forward::new(
            spread_owned(demand.output(), logits),
            GcnModelCache {
                c1,
                h1: z1, // pre-activation saved for the ReLU mask
                c2,
            },
            cost1 + cost2 + Cost::other(relu_ms),
        )
    }

    fn backward(
        &self,
        eng: &mut Engine,
        cache: &GcnModelCache<'_>,
        dlogits: &DenseMatrix,
    ) -> (GcnModelGrads, Cost) {
        prof_set_layer(eng, Some(1));
        let (dh1, g2, cost2) = self.l2.backward(eng, &cache.c2, dlogits, true);
        let dh1 = dh1.expect("hidden layer needs dx");
        let dz1 = ops::relu_backward(&cache.h1, &dh1).expect("same shape");
        let relu_ms = eng.elementwise_tagged_ms("relu_backward", Phase::Other, dz1.len(), 2, 1);
        prof_set_layer(eng, Some(0));
        // Input layer: no dX needed (features are not trained).
        let (_, g1, cost1) = self.l1.backward(eng, &cache.c1, &dz1, false);
        prof_set_layer(eng, None);
        (
            GcnModelGrads { g1, g2 },
            cost1 + cost2 + Cost::other(relu_ms),
        )
    }

    fn apply_grads(&mut self, eng: &mut Engine, adam: &mut Adam, grads: &GcnModelGrads) -> Cost {
        let n_params: usize = self.l1.w.len() + self.l1.b.len() + self.l2.w.len() + self.l2.b.len();
        adam.step(&mut [
            (self.l1.w.as_mut_slice(), grads.g1.dw.as_slice()),
            (self.l1.b.as_mut_slice(), &grads.g1.db),
            (self.l2.w.as_mut_slice(), grads.g2.dw.as_slice()),
            (self.l2.b.as_mut_slice(), &grads.g2.db),
        ]);
        Cost::other(eng.optimizer_step_ms(n_params))
    }

    fn params_finite(&self) -> bool {
        mat_finite(&self.l1.w)
            && vec_finite(&self.l1.b)
            && mat_finite(&self.l2.w)
            && vec_finite(&self.l2.b)
    }
}

/// AGNN: `Linear(in→hidden) → ReLU → k × propagation → Linear(hidden→out)`.
#[derive(Debug, Clone)]
pub struct AgnnModel {
    /// Input embedding layer.
    pub lin_in: Linear,
    /// Attention propagation layers.
    pub props: Vec<AgnnLayer>,
    /// Classifier head.
    pub lin_out: Linear,
}

/// Forward state of [`AgnnModel`], borrowing the model input for `'x`.
pub struct AgnnModelCache<'x> {
    cin: LinearCache<'x>,
    z0: DenseMatrix,
    prop_caches: Vec<AgnnCache>,
    cout: LinearCache<'x>,
}

/// Gradients of [`AgnnModel`].
pub struct AgnnModelGrads {
    gin: LinearGrads,
    gprops: Vec<AgnnGrads>,
    gout: LinearGrads,
}

impl AgnnModel {
    /// Builds the paper's AGNN configuration (`layers` propagation layers).
    pub fn new(in_dim: usize, hidden: usize, num_classes: usize, layers: usize, seed: u64) -> Self {
        AgnnModel {
            lin_in: Linear::new(in_dim, hidden, seed),
            props: (0..layers).map(|_| AgnnLayer::new()).collect(),
            lin_out: Linear::new(hidden, num_classes, seed ^ 0x51ab),
        }
    }
}

impl TrainableModel for AgnnModel {
    type Cache<'x> = AgnnModelCache<'x>;
    type Grads = AgnnModelGrads;

    /// Each propagation layer is one receptive-field hop; the linear
    /// layers run on the rows of the hop next to them.
    fn depth(&self) -> usize {
        self.props.len()
    }

    /// Only `lin_in` borrows its input. The propagation layers and
    /// `lin_out` copy their hidden inputs into their caches: moving those
    /// activations in instead raised `agnn-ppi`'s peak RSS, which glibc's
    /// dynamic mmap threshold sets there rather than the live bytes
    /// (DESIGN.md §9).
    fn pass<'x>(
        &self,
        eng: &mut Engine,
        x: &'x DenseMatrix,
        demand: &Demand,
    ) -> Forward<AgnnModelCache<'x>> {
        prof_set_layer(eng, Some(0));
        let (z0, cin, mut cost) = self
            .lin_in
            .forward(eng, gather(demand.input(), x))
            .into_parts();
        let mut h = ops::relu(&z0);
        cost += Cost::other(eng.elementwise_tagged_ms("relu", Phase::Other, h.len(), 1, 1));
        let mut prop_caches = Vec::with_capacity(self.props.len());
        for (i, prop) in self.props.iter().enumerate() {
            prof_set_layer(eng, Some(i as u32 + 1));
            let (h_next, cache, c) = prop.forward(eng, &h, demand.layer(i + 1)).into_parts();
            prop_caches.push(cache);
            cost += c;
            h = h_next;
        }
        prof_set_layer(eng, Some(self.props.len() as u32 + 1));
        let (logits, cout, c) = self
            .lin_out
            .forward(eng, Cow::Owned(h.clone()))
            .into_parts();
        prof_set_layer(eng, None);
        cost += c;
        Forward::new(
            spread_owned(demand.output(), logits),
            AgnnModelCache {
                cin,
                z0,
                prop_caches,
                cout,
            },
            cost,
        )
    }

    fn backward(
        &self,
        eng: &mut Engine,
        cache: &AgnnModelCache<'_>,
        dlogits: &DenseMatrix,
    ) -> (AgnnModelGrads, Cost) {
        prof_set_layer(eng, Some(self.props.len() as u32 + 1));
        let (dh, gout, mut cost) = self.lin_out.backward(eng, &cache.cout, dlogits, true);
        let mut dh = dh.expect("hidden layer needs dx");
        let mut gprops = vec![AgnnGrads { dbeta: 0.0 }; self.props.len()];
        for (i, prop) in self.props.iter().enumerate().rev() {
            prof_set_layer(eng, Some(i as u32 + 1));
            let (dx, g, c) = prop.backward(eng, &cache.prop_caches[i], &dh);
            gprops[i] = g;
            cost += c;
            dh = dx;
        }
        prof_set_layer(eng, Some(0));
        let dz0 = ops::relu_backward(&cache.z0, &dh).expect("same shape");
        cost +=
            Cost::other(eng.elementwise_tagged_ms("relu_backward", Phase::Other, dz0.len(), 2, 1));
        // Input layer: features are not trained, skip dX.
        let (_, gin, c) = self.lin_in.backward(eng, &cache.cin, &dz0, false);
        prof_set_layer(eng, None);
        cost += c;
        (AgnnModelGrads { gin, gprops, gout }, cost)
    }

    fn apply_grads(&mut self, eng: &mut Engine, adam: &mut Adam, grads: &AgnnModelGrads) -> Cost {
        let mut betas: Vec<f32> = self.props.iter().map(|p| p.beta).collect();
        let dbetas: Vec<f32> = grads.gprops.iter().map(|g| g.dbeta).collect();
        let n_params = self.lin_in.w.len()
            + self.lin_in.b.len()
            + self.lin_out.w.len()
            + self.lin_out.b.len()
            + betas.len();
        adam.step(&mut [
            (self.lin_in.w.as_mut_slice(), grads.gin.dw.as_slice()),
            (self.lin_in.b.as_mut_slice(), &grads.gin.db),
            (self.lin_out.w.as_mut_slice(), grads.gout.dw.as_slice()),
            (self.lin_out.b.as_mut_slice(), &grads.gout.db),
            (&mut betas, &dbetas),
        ]);
        for (p, b) in self.props.iter_mut().zip(betas) {
            p.beta = b;
        }
        Cost::other(eng.optimizer_step_ms(n_params))
    }

    fn params_finite(&self) -> bool {
        mat_finite(&self.lin_in.w)
            && vec_finite(&self.lin_in.b)
            && mat_finite(&self.lin_out.w)
            && vec_finite(&self.lin_out.b)
            && self.props.iter().all(|p| p.beta.is_finite())
    }
}

/// GraphSAGE: `SAGE(in→hidden) → ReLU → SAGE(hidden→out)`.
#[derive(Debug, Clone)]
pub struct SageModel {
    /// First SAGE layer.
    pub l1: SageLayer,
    /// Classifier SAGE layer.
    pub l2: SageLayer,
}

/// Forward state of [`SageModel`], borrowing the model input for `'x`.
pub struct SageModelCache<'x> {
    c1: SageCache<'x>,
    z1: DenseMatrix,
    c2: SageCache<'x>,
}

/// Gradients of [`SageModel`].
pub struct SageModelGrads {
    g1: SageGrads,
    g2: SageGrads,
}

impl SageModel {
    /// Builds a 2-layer GraphSAGE.
    pub fn new(in_dim: usize, hidden: usize, num_classes: usize, seed: u64) -> Self {
        SageModel {
            l1: SageLayer::new(in_dim, hidden, seed),
            l2: SageLayer::new(hidden, num_classes, seed ^ 0x5a6e),
        }
    }
}

impl TrainableModel for SageModel {
    type Cache<'x> = SageModelCache<'x>;
    type Grads = SageModelGrads;

    fn depth(&self) -> usize {
        2
    }

    fn pass<'x>(
        &self,
        eng: &mut Engine,
        x: &'x DenseMatrix,
        demand: &Demand,
    ) -> Forward<SageModelCache<'x>> {
        prof_set_layer(eng, Some(0));
        let (z1, c1, cost1) = self
            .l1
            .forward(eng, gather(demand.input(), x), demand.layer(1))
            .into_parts();
        let h1 = ops::relu(&z1);
        let relu_ms = eng.elementwise_tagged_ms("relu", Phase::Other, h1.len(), 1, 1);
        prof_set_layer(eng, Some(1));
        let (logits, c2, cost2) = self
            .l2
            .forward(eng, Cow::Owned(h1), demand.layer(2))
            .into_parts();
        prof_set_layer(eng, None);
        Forward::new(
            spread_owned(demand.output(), logits),
            SageModelCache { c1, z1, c2 },
            cost1 + cost2 + Cost::other(relu_ms),
        )
    }

    fn backward(
        &self,
        eng: &mut Engine,
        cache: &SageModelCache<'_>,
        dlogits: &DenseMatrix,
    ) -> (SageModelGrads, Cost) {
        prof_set_layer(eng, Some(1));
        let (dh1, g2, cost2) = self.l2.backward(eng, &cache.c2, dlogits, true);
        let dh1 = dh1.expect("hidden layer needs dx");
        let dz1 = ops::relu_backward(&cache.z1, &dh1).expect("same shape");
        let relu_ms = eng.elementwise_tagged_ms("relu_backward", Phase::Other, dz1.len(), 2, 1);
        prof_set_layer(eng, Some(0));
        let (_, g1, cost1) = self.l1.backward(eng, &cache.c1, &dz1, false);
        prof_set_layer(eng, None);
        (
            SageModelGrads { g1, g2 },
            cost1 + cost2 + Cost::other(relu_ms),
        )
    }

    fn apply_grads(&mut self, eng: &mut Engine, adam: &mut Adam, grads: &SageModelGrads) -> Cost {
        let n_params =
            self.l1.w_self.len() * 2 + self.l1.b.len() + self.l2.w_self.len() * 2 + self.l2.b.len();
        adam.step(&mut [
            (self.l1.w_self.as_mut_slice(), grads.g1.dw_self.as_slice()),
            (self.l1.w_neigh.as_mut_slice(), grads.g1.dw_neigh.as_slice()),
            (self.l1.b.as_mut_slice(), &grads.g1.db),
            (self.l2.w_self.as_mut_slice(), grads.g2.dw_self.as_slice()),
            (self.l2.w_neigh.as_mut_slice(), grads.g2.dw_neigh.as_slice()),
            (self.l2.b.as_mut_slice(), &grads.g2.db),
        ]);
        Cost::other(eng.optimizer_step_ms(n_params))
    }

    fn params_finite(&self) -> bool {
        [&self.l1, &self.l2]
            .iter()
            .all(|l| mat_finite(&l.w_self) && mat_finite(&l.w_neigh) && vec_finite(&l.b))
    }
}

/// GIN: `GIN(in→hidden) → GIN(hidden→out)` (each layer carries its own MLP
/// with a ReLU inside, so no extra activation between layers).
#[derive(Debug, Clone)]
pub struct GinModel {
    /// First GIN layer.
    pub l1: GinLayer,
    /// Classifier GIN layer.
    pub l2: GinLayer,
}

/// Forward state of [`GinModel`], borrowing the model input for `'x`.
pub struct GinModelCache<'x> {
    c1: GinCache<'x>,
    c2: GinCache<'x>,
}

/// Gradients of [`GinModel`].
pub struct GinModelGrads {
    g1: GinGrads,
    g2: GinGrads,
}

impl GinModel {
    /// Builds a 2-layer GIN with MLP hidden width = `hidden`.
    pub fn new(in_dim: usize, hidden: usize, num_classes: usize, seed: u64) -> Self {
        GinModel {
            l1: GinLayer::new(in_dim, hidden, hidden, seed),
            l2: GinLayer::new(hidden, hidden, num_classes, seed ^ 0x6169),
        }
    }
}

impl TrainableModel for GinModel {
    type Cache<'x> = GinModelCache<'x>;
    type Grads = GinModelGrads;

    fn depth(&self) -> usize {
        2
    }

    fn pass<'x>(
        &self,
        eng: &mut Engine,
        x: &'x DenseMatrix,
        demand: &Demand,
    ) -> Forward<GinModelCache<'x>> {
        prof_set_layer(eng, Some(0));
        let (h1, c1, cost1) = self
            .l1
            .forward(eng, gather(demand.input(), x), demand.layer(1))
            .into_parts();
        prof_set_layer(eng, Some(1));
        let (logits, c2, cost2) = self
            .l2
            .forward(eng, Cow::Owned(h1), demand.layer(2))
            .into_parts();
        prof_set_layer(eng, None);
        Forward::new(
            spread_owned(demand.output(), logits),
            GinModelCache { c1, c2 },
            cost1 + cost2,
        )
    }

    fn backward(
        &self,
        eng: &mut Engine,
        cache: &GinModelCache<'_>,
        dlogits: &DenseMatrix,
    ) -> (GinModelGrads, Cost) {
        prof_set_layer(eng, Some(1));
        let (dh1, g2, cost2) = self.l2.backward(eng, &cache.c2, dlogits, true);
        let dh1 = dh1.expect("hidden layer needs dx");
        prof_set_layer(eng, Some(0));
        let (_, g1, cost1) = self.l1.backward(eng, &cache.c1, &dh1, false);
        prof_set_layer(eng, None);
        (GinModelGrads { g1, g2 }, cost1 + cost2)
    }

    fn apply_grads(&mut self, eng: &mut Engine, adam: &mut Adam, grads: &GinModelGrads) -> Cost {
        let mut eps = [self.l1.eps, self.l2.eps];
        let deps = [grads.g1.deps, grads.g2.deps];
        let n_params = self.l1.w1.len()
            + self.l1.w2.len()
            + self.l2.w1.len()
            + self.l2.w2.len()
            + self.l1.b1.len()
            + self.l1.b2.len()
            + self.l2.b1.len()
            + self.l2.b2.len()
            + 2;
        adam.step(&mut [
            (self.l1.w1.as_mut_slice(), grads.g1.dw1.as_slice()),
            (self.l1.b1.as_mut_slice(), &grads.g1.db1),
            (self.l1.w2.as_mut_slice(), grads.g1.dw2.as_slice()),
            (self.l1.b2.as_mut_slice(), &grads.g1.db2),
            (self.l2.w1.as_mut_slice(), grads.g2.dw1.as_slice()),
            (self.l2.b1.as_mut_slice(), &grads.g2.db1),
            (self.l2.w2.as_mut_slice(), grads.g2.dw2.as_slice()),
            (self.l2.b2.as_mut_slice(), &grads.g2.db2),
            (&mut eps, &deps),
        ]);
        self.l1.eps = eps[0];
        self.l2.eps = eps[1];
        Cost::other(eng.optimizer_step_ms(n_params))
    }

    fn params_finite(&self) -> bool {
        [&self.l1, &self.l2].iter().all(|l| {
            l.eps.is_finite()
                && mat_finite(&l.w1)
                && vec_finite(&l.b1)
                && mat_finite(&l.w2)
                && vec_finite(&l.b2)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Backend;
    use tcg_gpusim::DeviceSpec;
    use tcg_graph::gen;
    use tcg_tensor::init;

    fn engine() -> Engine {
        let g = gen::erdos_renyi(60, 400, 1).unwrap();
        Engine::builder(g)
            .backend(Backend::TcGnn)
            .device(DeviceSpec::rtx3090())
            .build()
            .expect("graph is symmetric")
    }

    #[test]
    fn gcn_model_shapes() {
        let mut eng = engine();
        let model = GcnModel::new(10, 16, 4, 1);
        let x = init::uniform(60, 10, -1.0, 1.0, 2);
        let (logits, cache, cost) = model.forward(&mut eng, &x).into_parts();
        assert_eq!(logits.shape(), (60, 4));
        assert!(cost.aggregation_ms > 0.0 && cost.update_ms > 0.0);
        let dl = init::uniform(60, 4, -0.1, 0.1, 3);
        let (grads, bcost) = model.backward(&mut eng, &cache, &dl);
        assert_eq!(grads.g1.dw.shape(), (10, 16));
        assert_eq!(grads.g2.dw.shape(), (16, 4));
        assert!(bcost.aggregation_ms > 0.0);
    }

    #[test]
    fn agnn_model_shapes() {
        let mut eng = engine();
        let model = AgnnModel::new(8, 32, 5, 4, 1);
        let x = init::uniform(60, 8, -1.0, 1.0, 2);
        let (logits, cache, cost) = model.forward(&mut eng, &x).into_parts();
        assert_eq!(logits.shape(), (60, 5));
        assert!(cost.aggregation_ms > 0.0);
        let dl = init::uniform(60, 5, -0.1, 0.1, 3);
        let (grads, _) = model.backward(&mut eng, &cache, &dl);
        assert_eq!(grads.gprops.len(), 4);
        assert_eq!(grads.gin.dw.shape(), (8, 32));
        assert_eq!(grads.gout.dw.shape(), (32, 5));
    }

    #[test]
    fn sage_model_shapes() {
        let mut eng = engine();
        let model = SageModel::new(9, 12, 5, 1);
        let x = init::uniform(60, 9, -1.0, 1.0, 2);
        let (logits, cache, cost) = model.forward(&mut eng, &x).into_parts();
        assert_eq!(logits.shape(), (60, 5));
        assert!(cost.aggregation_ms > 0.0);
        let (grads, _) = model.backward(&mut eng, &cache, &logits);
        assert_eq!(grads.g1.dw_self.shape(), (9, 12));
        assert_eq!(grads.g2.dw_neigh.shape(), (12, 5));
    }

    #[test]
    fn gin_model_shapes() {
        let mut eng = engine();
        let model = GinModel::new(7, 10, 4, 1);
        let x = init::uniform(60, 7, -1.0, 1.0, 2);
        let (logits, cache, cost) = model.forward(&mut eng, &x).into_parts();
        assert_eq!(logits.shape(), (60, 4));
        assert!(cost.aggregation_ms > 0.0);
        let (grads, _) = model.backward(&mut eng, &cache, &logits);
        assert_eq!(grads.g1.dw1.shape(), (7, 10));
        assert_eq!(grads.g2.dw2.shape(), (10, 4));
    }

    /// Inference must agree with the training forward bit-for-bit and
    /// millisecond-for-millisecond: the same kernels run in the same order.
    /// Fresh engines per pass: the launcher's L2 simulator persists across
    /// launches, so reusing one engine would make the second pass's cost
    /// reflect a warm cache rather than a code difference.
    fn assert_infer_matches_forward<M: TrainableModel>(
        model: &M,
        x: &DenseMatrix,
        backend: Backend,
    ) {
        let fresh = || {
            let g = gen::erdos_renyi(60, 400, 1).unwrap();
            Engine::builder(g)
                .backend(backend)
                .device(DeviceSpec::rtx3090())
                .build()
                .expect("graph is symmetric")
        };
        let (fwd, _, fcost) = model.forward(&mut fresh(), x).into_parts();
        let (inf, icost) = model.infer(&mut fresh(), x);
        assert_eq!(fwd.as_slice(), inf.as_slice());
        assert_eq!(fcost.total_ms(), icost.total_ms());
    }

    #[test]
    fn infer_matches_forward_logits_and_cost() {
        let x8 = init::uniform(60, 8, -1.0, 1.0, 2);
        let x10 = init::uniform(60, 10, -1.0, 1.0, 2);
        for backend in Backend::all() {
            assert_infer_matches_forward(&GcnModel::new(10, 16, 4, 1), &x10, backend);
            assert_infer_matches_forward(&AgnnModel::new(8, 32, 5, 2, 1), &x8, backend);
            assert_infer_matches_forward(&SageModel::new(8, 12, 5, 1), &x8, backend);
            assert_infer_matches_forward(&GinModel::new(8, 10, 4, 1), &x8, backend);
        }
    }

    /// The first layer's cache keeps the caller's features `x`, not a copy,
    /// at full demand, and owns exactly the rows it reads on a targeted
    /// one: the input set's rows for an update first (GCN, AGNN's
    /// `lin_in`), the first layer's own rows for a self term (SAGE, GIN).
    /// `saved` reads the first layer's cached input.
    fn assert_first_layer_borrows<'x, M: TrainableModel>(
        model: &M,
        x: &'x DenseMatrix,
        saved: impl Fn(&M::Cache<'x>) -> Cow<'x, DenseMatrix>,
        self_term: bool,
    ) {
        let g = gen::watts_strogatz(x.rows(), 4, 0.0, 1).unwrap();
        let mut eng = Engine::builder(g)
            .backend(Backend::TcGnn)
            .build()
            .expect("graph is symmetric");
        let full = saved(&model.forward(&mut eng, x).cache);
        assert_eq!(full.as_slice().as_ptr(), x.as_slice().as_ptr());

        let demand = Demand::for_targets(&eng, &[0], model.depth());
        let d = demand.layer(1);
        let rows = if self_term { d.output } else { d.input };
        let rows = rows.expect("a ring lattice's two hops are not every window");
        match saved(&model.pass(&mut eng, x, &demand).cache) {
            Cow::Owned(m) => assert_eq!(m, rows.gather(x)),
            Cow::Borrowed(_) => panic!("a targeted pass borrowed the full features"),
        }
    }

    #[test]
    fn first_layer_caches_borrow_the_features() {
        let x = init::uniform(400, 20, -1.0, 1.0, 2);
        let gcn = GcnModel::new(20, 16, 4, 1);
        assert_first_layer_borrows(&gcn, &x, |c| c.c1.saved.clone(), false);
        let agnn = AgnnModel::new(20, 8, 4, 2, 1);
        assert_first_layer_borrows(&agnn, &x, |c| c.cin.x.clone(), false);
        let sage = SageModel::new(20, 8, 4, 1);
        assert_first_layer_borrows(&sage, &x, |c| c.c1.x.clone(), true);
        let gin = GinModel::new(20, 8, 4, 1);
        assert_first_layer_borrows(&gin, &x, |c| c.c1.x.clone(), true);
    }

    #[test]
    fn apply_grads_changes_parameters() {
        let mut eng = engine();
        let mut model = GcnModel::new(6, 8, 3, 4);
        let x = init::uniform(60, 6, -1.0, 1.0, 5);
        let (logits, cache, _) = model.forward(&mut eng, &x).into_parts();
        let (grads, _) = model.backward(&mut eng, &cache, &logits);
        let before = model.l1.w.clone();
        let mut adam = Adam::new(0.01);
        let cost = model.apply_grads(&mut eng, &mut adam, &grads);
        assert!(cost.other_ms > 0.0);
        assert_ne!(model.l1.w, before);
    }
}

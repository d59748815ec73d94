//! Pins the bits training produces.
//!
//! Each case trains one model on one backend over one oracle graph family
//! with `train_model_returning`, then serves the trained model. It hashes
//! three things with FNV-1a:
//!
//! - every epoch's loss bits and `Cost` bits;
//! - the trained model's `infer` logit bits and cost bits;
//! - its `infer_targets` logit bits and cost bits for a fixed target set.
//!
//! The cases cover GCN, AGNN, GraphSAGE and GIN on TC-GNN, hybrid, DGL and
//! PyG, over two oracle families, plus one GCN sharded over two devices. A
//! mismatch prints the current table, so an intentional change can
//! re-record it.

use tc_gnn::gnn::{
    train_model_returning, AgnnModel, Backend, Cost, Engine, GcnModel, GinModel, SageModel,
    TrainConfig, TrainableModel,
};
use tc_gnn::graph::{CsrGraph, Dataset, DatasetSpec, GraphClass};
use tc_gnn::oracle::Family;
use tc_gnn::serve::ServableModel;
use tc_gnn::tensor::{init, DenseMatrix};

/// `case train-hash infer-hash targets-hash`, the hashes in hex.
const PINS: &[&str] = &[
    "gcn/TC-GNN/power-law 2e40f633e347f491 40b824cf8fc805e9 370f794412cbf75f",
    "agnn/TC-GNN/power-law 6064969848bf7335 0cb140d19a7008eb 583bf1c7d5b33af1",
    "sage/TC-GNN/power-law f368aad8d1921c10 4508f3b4228d19ad 76f026b093211e9b",
    "gin/TC-GNN/power-law 68f7e044e0b1685f 2cb973a8fbf5ed05 7bac7415c232c3f7",
    "gcn/Hybrid/power-law 209fc074ca033044 87dd66b9fcb25db8 d1e587db4273df13",
    "agnn/Hybrid/power-law eb428dad8a706b74 1f7c53af5d182803 a25532550a815e95",
    "sage/Hybrid/power-law f368aad8d1921c10 4508f3b4228d19ad 76f026b093211e9b",
    "gin/Hybrid/power-law 68f7e044e0b1685f 2cb973a8fbf5ed05 7bac7415c232c3f7",
    "gcn/DGL/power-law ae1c0a6981437cd7 6d5da3e2d60a1952 6d5da3e2d60a1952",
    "agnn/DGL/power-law 4f348850709cb206 c8ac83161dbc6287 c8ac83161dbc6287",
    "sage/DGL/power-law 9b384a859a257f0d 99d4ece792b26c4b 99d4ece792b26c4b",
    "gin/DGL/power-law 8173f47862a4396b 8d0477a11633e8fc 8d0477a11633e8fc",
    "gcn/PyG/power-law 34c49fa809bcfb37 dc1db1ac089329c7 dc1db1ac089329c7",
    "agnn/PyG/power-law f5b51b942e058f14 c72dec2879a2c84b c72dec2879a2c84b",
    "sage/PyG/power-law 4206aa5a06edc375 33db3fa148b3853e 33db3fa148b3853e",
    "gin/PyG/power-law d1a732e6fe6591c4 cdef9591a8d729d2 cdef9591a8d729d2",
    "gcn/TC-GNN/window-straddle 8f4693757eb75072 2c626b4a9a144c2b ad4b9655f21e9cf6",
    "agnn/TC-GNN/window-straddle 53f7206c2d8b1540 2a55cbeb6e008dd6 33fe91eee665cbf1",
    "sage/TC-GNN/window-straddle 3333c3fff7923c0a 85434ae754f4c99e 9be0c1651e239157",
    "gin/TC-GNN/window-straddle d9aa175b4cd853d4 575faf6e4016efd2 ebb2554115b23dbe",
    "gcn/Hybrid/window-straddle 8f4693757eb75072 2c626b4a9a144c2b ad4b9655f21e9cf6",
    "agnn/Hybrid/window-straddle 53f7206c2d8b1540 2a55cbeb6e008dd6 33fe91eee665cbf1",
    "sage/Hybrid/window-straddle 3333c3fff7923c0a 85434ae754f4c99e 9be0c1651e239157",
    "gin/Hybrid/window-straddle d9aa175b4cd853d4 575faf6e4016efd2 ebb2554115b23dbe",
    "gcn/DGL/window-straddle 23b574377206ec3c 81150c365a50909f 81150c365a50909f",
    "agnn/DGL/window-straddle 02caef1949b62318 db84fa0c7fce2920 db84fa0c7fce2920",
    "sage/DGL/window-straddle c366333871513afa 6b6cdbecfd75a0dd 6b6cdbecfd75a0dd",
    "gin/DGL/window-straddle 89edc4571fbab5a2 6391bbe76ed2fadc 6391bbe76ed2fadc",
    "gcn/PyG/window-straddle f33a28f85142bd4d d7bfbad6fe570eaf d7bfbad6fe570eaf",
    "agnn/PyG/window-straddle aec785507d9666fb da06c96801c44c4b da06c96801c44c4b",
    "sage/PyG/window-straddle 7ac0142d87fbb08a 87ad3aa5213e16d0 87ad3aa5213e16d0",
    "gin/PyG/window-straddle 5cdb9fd4cc69bcf7 4044c7b707b57dd4 4044c7b707b57dd4",
    "gcn/TC-GNN/power-law/2-devices 392e86851c26e8f9 c35aeebf927f5dcb 3d75706d78352d2b",
];

const DIM: usize = 12;
const CLASSES: usize = 4;
const FAMILIES: [(Family, u64); 2] = [(Family::PowerLaw, 3), (Family::WindowStraddle, 5)];
const BACKENDS: [Backend; 4] = [
    Backend::TcGnn,
    Backend::Hybrid,
    Backend::DglLike,
    Backend::PygLike,
];

fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .flat_map(u64::to_le_bytes)
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
        })
}

fn cost_words(c: Cost) -> [u64; 3] {
    [c.aggregation_ms, c.update_ms, c.other_ms].map(f64::to_bits)
}

/// A dataset over `family`'s graph: uniform features, labels striped
/// across row windows, two thirds of the nodes in the training split.
fn dataset(family: Family, seed: u64) -> Dataset {
    let graph = family.generate(seed);
    let n = graph.num_nodes();
    Dataset {
        spec: DatasetSpec {
            name: family.name(),
            class: GraphClass::TypeIII,
            num_nodes: n,
            num_edges: graph.num_edges(),
            feat_dim: DIM,
            num_classes: CLASSES,
        },
        features: init::uniform(n, DIM, -1.0, 1.0, seed ^ 0x7a),
        labels: (0..n)
            .map(|v| ((v * 7 + v / 16) % CLASSES) as u32)
            .collect(),
        train_mask: (0..n).map(|v| v % 3 != 1).collect(),
        graph,
    }
}

fn engine(g: &CsrGraph, backend: Backend, devices: usize) -> Engine {
    Engine::builder(g.clone())
        .backend(backend)
        .devices(devices)
        .build()
        .expect("oracle families are symmetric")
}

/// Trains `model` on `eng`, serves it on the same engine, and returns the
/// case's pin line.
fn pin<M: TrainableModel>(
    case: &str,
    eng: &mut Engine,
    ds: &Dataset,
    model: M,
    frozen: fn(M) -> ServableModel,
) -> String {
    let cfg = TrainConfig {
        hidden: 16,
        layers: 2,
        epochs: 3,
        lr: 0.01,
        seed: 7,
    };
    let (trained, result) = train_model_returning(eng, ds, cfg, model);
    let train = fnv(result
        .epochs
        .iter()
        .flat_map(|e| std::iter::once(e.loss.to_bits()).chain(cost_words(e.cost))));
    let model = frozen(trained);
    let hash = |(logits, cost): (DenseMatrix, Cost)| {
        let bits = logits.as_slice().iter().map(|v| u64::from(v.to_bits()));
        fnv(bits.chain(cost_words(cost)))
    };
    let infer = hash(model.infer(eng, &ds.features));
    let targets: Vec<usize> = (0..ds.num_nodes()).step_by(23).collect();
    let targeted = hash(model.infer_targets(eng, &ds.features, &targets));
    format!("{case} {train:016x} {infer:016x} {targeted:016x}")
}

fn pins() -> Vec<String> {
    let mut out = Vec::new();
    for (family, seed) in FAMILIES {
        let ds = dataset(family, seed);
        for backend in BACKENDS {
            let case = |model: &str| format!("{model}/{}/{}", backend.name(), family.name());
            let eng = || engine(&ds.graph, backend, 1);
            out.push(pin(
                &case("gcn"),
                &mut eng(),
                &ds,
                GcnModel::new(DIM, 16, CLASSES, 7),
                ServableModel::Gcn,
            ));
            out.push(pin(
                &case("agnn"),
                &mut eng(),
                &ds,
                AgnnModel::new(DIM, 16, CLASSES, 2, 7),
                ServableModel::Agnn,
            ));
            out.push(pin(
                &case("sage"),
                &mut eng(),
                &ds,
                SageModel::new(DIM, 16, CLASSES, 7),
                ServableModel::Sage,
            ));
            out.push(pin(
                &case("gin"),
                &mut eng(),
                &ds,
                GinModel::new(DIM, 16, CLASSES, 7),
                ServableModel::Gin,
            ));
        }
    }
    let (family, seed) = FAMILIES[0];
    let ds = dataset(family, seed);
    out.push(pin(
        &format!("gcn/{}/{}/2-devices", Backend::TcGnn.name(), family.name()),
        &mut engine(&ds.graph, Backend::TcGnn, 2),
        &ds,
        GcnModel::new(DIM, 16, CLASSES, 7),
        ServableModel::Gcn,
    ));
    out
}

#[test]
fn training_matches_pinned_bits() {
    let actual = pins();
    let drifted: Vec<&String> = actual
        .iter()
        .filter(|p| !PINS.contains(&p.as_str()))
        .collect();
    assert!(
        drifted.is_empty() && actual.len() == PINS.len(),
        "training bits drifted in {} case(s); current table:\n{}",
        drifted.len(),
        actual
            .iter()
            .map(|p| format!("    \"{p}\","))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

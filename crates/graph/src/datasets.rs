//! The paper's Table 4 dataset registry, backed by synthetic generators.
//!
//! Every entry reproduces the published node count, edge count, feature
//! dimension and class count. Structure per class:
//!
//! - **Type I** (Citeseer, Cora, Pubmed, PPI): citation-style preferential
//!   attachment with locality (dense feature dim, few nodes);
//! - **Type II** (PROTEINS_full, OVCAR-8H, Yeast, DD, YeastH): disjoint
//!   unions of small dense components — the PyG graph-kernel collections;
//! - **Type III** (amazon0505, artist, com-amazon, soc-BlogCatalog,
//!   amazon0601): large R-MAT power-law graphs.
//!
//! Features are generated from per-class centroids plus noise and labels are
//! locally correlated, so GNN training on these stand-ins actually learns
//! (integration tests assert above-chance accuracy); this matters because the
//! paper's Figure 6 measures *end-to-end training*.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};
use tcg_tensor::DenseMatrix;

use crate::{gen, CsrGraph, GraphError, Result};

/// The paper's dataset taxonomy (Table 4's "Type" column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GraphClass {
    /// Small citation-style graphs with high-dimensional features.
    TypeI,
    /// Sets of small dense subgraphs, intra-graph edges only.
    TypeII,
    /// Large, highly irregular power-law graphs.
    TypeIII,
}

impl std::fmt::Display for GraphClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphClass::TypeI => write!(f, "I"),
            GraphClass::TypeII => write!(f, "II"),
            GraphClass::TypeIII => write!(f, "III"),
        }
    }
}

/// A Table 4 row: everything needed to materialize a synthetic stand-in.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetSpec {
    /// Dataset name as printed in the paper.
    pub name: &'static str,
    /// Structural class.
    pub class: GraphClass,
    /// Target node count (exact).
    pub num_nodes: usize,
    /// Target directed edge count (approximate: generators land within a few
    /// percent after dedup).
    pub num_edges: usize,
    /// Node feature dimension.
    pub feat_dim: usize,
    /// Number of label classes.
    pub num_classes: usize,
}

/// A materialized dataset: graph + features + labels + split masks.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// The originating spec.
    pub spec: DatasetSpec,
    /// Symmetric adjacency in CSR.
    pub graph: CsrGraph,
    /// `num_nodes × feat_dim` node features.
    pub features: DenseMatrix,
    /// Per-node class label.
    pub labels: Vec<u32>,
    /// Training-node mask.
    pub train_mask: Vec<bool>,
}

/// All 14 rows of the paper's Table 4.
pub const TABLE4: [DatasetSpec; 14] = [
    DatasetSpec {
        name: "Citeseer",
        class: GraphClass::TypeI,
        num_nodes: 3_327,
        num_edges: 9_464,
        feat_dim: 3_703,
        num_classes: 6,
    },
    DatasetSpec {
        name: "Cora",
        class: GraphClass::TypeI,
        num_nodes: 2_708,
        num_edges: 10_858,
        feat_dim: 1_433,
        num_classes: 7,
    },
    DatasetSpec {
        name: "Pubmed",
        class: GraphClass::TypeI,
        num_nodes: 19_717,
        num_edges: 88_676,
        feat_dim: 500,
        num_classes: 3,
    },
    DatasetSpec {
        name: "PPI",
        class: GraphClass::TypeI,
        num_nodes: 56_944,
        num_edges: 818_716,
        feat_dim: 50,
        num_classes: 121,
    },
    DatasetSpec {
        name: "PROTEINS_full",
        class: GraphClass::TypeII,
        num_nodes: 43_471,
        num_edges: 162_088,
        feat_dim: 29,
        num_classes: 2,
    },
    DatasetSpec {
        name: "OVCAR-8H",
        class: GraphClass::TypeII,
        num_nodes: 1_890_931,
        num_edges: 3_946_402,
        feat_dim: 66,
        num_classes: 2,
    },
    DatasetSpec {
        name: "Yeast",
        class: GraphClass::TypeII,
        num_nodes: 1_714_644,
        num_edges: 3_636_546,
        feat_dim: 74,
        num_classes: 2,
    },
    DatasetSpec {
        name: "DD",
        class: GraphClass::TypeII,
        num_nodes: 334_925,
        num_edges: 1_686_092,
        feat_dim: 89,
        num_classes: 2,
    },
    DatasetSpec {
        name: "YeastH",
        class: GraphClass::TypeII,
        num_nodes: 3_139_988,
        num_edges: 6_487_230,
        feat_dim: 75,
        num_classes: 2,
    },
    DatasetSpec {
        name: "amazon0505",
        class: GraphClass::TypeIII,
        num_nodes: 410_236,
        num_edges: 4_878_875,
        feat_dim: 96,
        num_classes: 22,
    },
    DatasetSpec {
        name: "artist",
        class: GraphClass::TypeIII,
        num_nodes: 50_515,
        num_edges: 1_638_396,
        feat_dim: 100,
        num_classes: 12,
    },
    DatasetSpec {
        name: "com-amazon",
        class: GraphClass::TypeIII,
        num_nodes: 334_863,
        num_edges: 1_851_744,
        feat_dim: 96,
        num_classes: 22,
    },
    DatasetSpec {
        name: "soc-BlogCatalog",
        class: GraphClass::TypeIII,
        num_nodes: 88_784,
        num_edges: 2_093_195,
        feat_dim: 128,
        num_classes: 39,
    },
    DatasetSpec {
        name: "amazon0601",
        class: GraphClass::TypeIII,
        num_nodes: 403_394,
        num_edges: 3_387_388,
        feat_dim: 96,
        num_classes: 22,
    },
];

/// Looks a spec up by its paper name (case-insensitive).
pub fn spec_by_name(name: &str) -> Result<&'static DatasetSpec> {
    TABLE4
        .iter()
        .find(|s| s.name.eq_ignore_ascii_case(name))
        .ok_or_else(|| GraphError::UnknownDataset { name: name.into() })
}

/// The subset the paper's Table 1 profiles (Cora, Citeseer, Pubmed).
pub fn table1_specs() -> Vec<&'static DatasetSpec> {
    ["Cora", "Citeseer", "Pubmed"]
        .iter()
        .map(|n| spec_by_name(n).expect("registry contains Table 1 datasets"))
        .collect()
}

/// The subset the paper's Table 2 inspects (OVCAR-8H, Yeast, DD).
pub fn table2_specs() -> Vec<&'static DatasetSpec> {
    ["OVCAR-8H", "Yeast", "DD"]
        .iter()
        .map(|n| spec_by_name(n).expect("registry contains Table 2 datasets"))
        .collect()
}

/// The Type III subset used by Table 5 / tSparse & Triton comparison.
pub fn type3_specs() -> Vec<&'static DatasetSpec> {
    TABLE4
        .iter()
        .filter(|s| s.class == GraphClass::TypeIII)
        .collect()
}

impl DatasetSpec {
    /// Returns a copy scaled down by `factor` (nodes and edges divided,
    /// feature dim preserved). Used by tests and criterion benches so
    /// wall-clock stays sane on small machines; `factor = 1` is the paper
    /// configuration.
    pub fn scaled(&self, factor: usize) -> DatasetSpec {
        let f = factor.max(1);
        DatasetSpec {
            num_nodes: (self.num_nodes / f).max(64),
            num_edges: (self.num_edges / f).max(256),
            ..self.clone()
        }
    }

    /// Component size bounds for Type II generation: chosen so the average
    /// matches graph-kernel collections (tens of nodes per small graph).
    fn component_bounds(&self) -> (usize, usize) {
        (16, 48)
    }

    /// Generates the graph topology only.
    pub fn generate_graph(&self, seed: u64) -> Result<CsrGraph> {
        match self.class {
            GraphClass::TypeI => gen::citation(self.num_nodes, self.num_edges, seed),
            GraphClass::TypeII => {
                let (lo, hi) = self.component_bounds();
                gen::community(self.num_nodes, self.num_edges, lo, hi, seed)
            }
            GraphClass::TypeIII => gen::rmat_default(self.num_nodes, self.num_edges, seed),
        }
    }

    /// Materializes graph + features + labels + split.
    ///
    /// Labels are assigned from contiguous regions (Type I/III) or generator
    /// components (Type II) with 10% uniform noise; features are class
    /// centroids plus uniform noise so that aggregation over homophilous
    /// neighborhoods is genuinely informative.
    pub fn materialize(&self, seed: u64) -> Result<Dataset> {
        let graph = self.generate_graph(seed)?;
        let n = self.num_nodes;
        let k = self.num_classes.max(2);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_1abe15);

        // Label assignment.
        let mut labels = vec![0u32; n];
        match self.class {
            GraphClass::TypeII => {
                let (lo, hi) = self.component_bounds();
                let starts = gen::community_partition(n, lo, hi, seed);
                for c in 0..starts.len() - 1 {
                    let lab = (c % k) as u32;
                    labels[starts[c]..starts[c + 1]].fill(lab);
                }
            }
            _ => {
                // Regions must be wider than the citation generator's
                // locality window (n/20) for edges to stay homophilous.
                let chunk = (n / (k * 2)).max(1);
                for (v, l) in labels.iter_mut().enumerate() {
                    *l = ((v / chunk) % k) as u32;
                }
            }
        }
        for l in labels.iter_mut() {
            if rng.random::<f64>() < 0.10 {
                *l = rng.random_range(0..k) as u32;
            }
        }

        // Class centroids in feature space; features = centroid + noise.
        let d = self.feat_dim;
        let mut centroids = DenseMatrix::zeros(k, d);
        for c in 0..k {
            for j in 0..d {
                centroids.set(c, j, rng.random_range(-1.0..1.0));
            }
        }
        let mut features = DenseMatrix::zeros(n, d);
        for (v, &lab) in labels.iter().enumerate() {
            let cen = centroids.row(lab as usize).to_vec();
            let row = features.row_mut(v);
            for (j, f) in row.iter_mut().enumerate() {
                *f = 0.6 * cen[j] + rng.random_range(-0.5..0.5);
            }
        }

        // 30% train split, deterministic.
        let train_mask: Vec<bool> = (0..n).map(|_| rng.random::<f64>() < 0.3).collect();

        Ok(Dataset {
            spec: self.clone(),
            graph,
            features,
            labels,
            train_mask,
        })
    }
}

impl Dataset {
    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.graph.num_edges()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_matches_paper_counts() {
        assert_eq!(TABLE4.len(), 14);
        let cora = spec_by_name("cora").unwrap();
        assert_eq!(cora.num_nodes, 2708);
        assert_eq!(cora.feat_dim, 1433);
        assert_eq!(cora.num_classes, 7);
        assert!(spec_by_name("nope").is_err());
        assert_eq!(table1_specs().len(), 3);
        assert_eq!(table2_specs().len(), 3);
        assert_eq!(type3_specs().len(), 5);
    }

    #[test]
    fn scaled_reduces_but_keeps_dims() {
        let s = spec_by_name("Pubmed").unwrap().scaled(10);
        assert_eq!(s.num_nodes, 1971);
        assert_eq!(s.feat_dim, 500);
    }

    #[test]
    fn materialize_small_dataset() {
        let spec = spec_by_name("Cora").unwrap().scaled(4);
        let ds = spec.materialize(42).unwrap();
        assert_eq!(ds.num_nodes(), spec.num_nodes);
        assert_eq!(ds.features.shape(), (spec.num_nodes, spec.feat_dim));
        assert_eq!(ds.labels.len(), spec.num_nodes);
        assert!(ds.labels.iter().all(|&l| (l as usize) < spec.num_classes));
        let frac = ds.train_mask.iter().filter(|&&m| m).count() as f64 / spec.num_nodes as f64;
        assert!((0.2..0.4).contains(&frac), "train fraction {frac}");
        assert!(ds.graph.is_symmetric());
    }

    #[test]
    fn materialize_is_deterministic() {
        let spec = spec_by_name("Cora").unwrap().scaled(8);
        let a = spec.materialize(1).unwrap();
        let b = spec.materialize(1).unwrap();
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.features, b.features);
    }

    #[test]
    fn type2_labels_constant_within_component() {
        let spec = DatasetSpec {
            name: "mini-kernel",
            class: GraphClass::TypeII,
            num_nodes: 600,
            num_edges: 4000,
            feat_dim: 8,
            num_classes: 2,
        };
        let ds = spec.materialize(5).unwrap();
        // Most edges should connect same-label nodes (10% noise allowed).
        let same = ds
            .graph
            .iter_edges()
            .filter(|&(s, d)| ds.labels[s as usize] == ds.labels[d as usize])
            .count();
        let frac = same as f64 / ds.num_edges() as f64;
        assert!(frac > 0.7, "homophily too low: {frac}");
    }

    #[test]
    fn homophily_holds_for_type1() {
        let spec = spec_by_name("Cora").unwrap().scaled(4);
        let ds = spec.materialize(3).unwrap();
        let same = ds
            .graph
            .iter_edges()
            .filter(|&(s, d)| ds.labels[s as usize] == ds.labels[d as usize])
            .count();
        let frac = same as f64 / ds.num_edges() as f64;
        assert!(frac > 0.4, "citation homophily too low: {frac}");
    }
}

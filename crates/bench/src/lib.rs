//! Shared machinery for the experiment binaries.
//!
//! Each table/figure of the paper has one binary in `src/bin/`; this
//! library provides the pieces they share: dataset materialization with a
//! scale policy, the figure-6 sweep (run once, consumed by `fig6a` and
//! `fig6b`), markdown-ish table printing, and JSON result persistence
//! under `results/`.
//!
//! # Scale policy
//!
//! The paper's largest datasets (YeastH: 3.1 M nodes / 6.5 M edges) are
//! expensive to *functionally* simulate on a laptop-class host, so Type II
//! and Type III datasets are scaled down by [`DEFAULT_SCALE`] by default
//! (node and edge counts divided; feature dims, class counts and structure
//! preserved). Set `TCG_SCALE=1` for paper-exact sizes or any other
//! divisor to trade fidelity for speed. Simulated *speedups* are scale-
//! robust because every backend sees the same graph.

use std::io::Write as _;
use std::path::PathBuf;

use serde::{Deserialize, Serialize, Value};
use tcg_gnn::{train_agnn, train_gcn, Backend, Engine, TrainConfig};
use tcg_gpusim::DeviceSpec;
use tcg_graph::datasets::{DatasetSpec, GraphClass, TABLE4};
use tcg_graph::Dataset;
use tcg_profile::{ProfileLevel, SharedProfiler};

pub mod sentinel;

/// Default divisor applied to Type II / Type III dataset sizes.
pub const DEFAULT_SCALE: usize = 8;

/// Seed used by every experiment for dataset materialization.
pub const DATASET_SEED: u64 = 20230710;

/// The scale divisor for a dataset class, honoring `TCG_SCALE`.
pub fn scale_for(class: GraphClass) -> usize {
    if let Ok(v) = std::env::var("TCG_SCALE") {
        if let Ok(s) = v.parse::<usize>() {
            return s.max(1);
        }
    }
    match class {
        GraphClass::TypeI => 1,
        _ => DEFAULT_SCALE,
    }
}

/// Materializes a Table 4 dataset under the scale policy.
pub fn load_dataset(spec: &DatasetSpec) -> Dataset {
    let scaled = spec.scaled(scale_for(spec.class));
    scaled
        .materialize(DATASET_SEED)
        .expect("synthetic dataset materialization cannot fail")
}

/// Simulated device used by all experiments (the paper's RTX 3090).
pub fn device() -> DeviceSpec {
    DeviceSpec::rtx3090()
}

/// Number of epochs the end-to-end experiments run (per-epoch cost is
/// deterministic, so a single epoch suffices for timing; two are run so a
/// regression in epoch-to-epoch state would surface).
pub const E2E_EPOCHS: u32 = 2;

/// One dataset's end-to-end result across all backends and both models.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig6Row {
    /// Dataset name.
    pub dataset: String,
    /// Dataset class (I/II/III).
    pub class: String,
    /// Nodes actually simulated (after scaling).
    pub num_nodes: usize,
    /// Edges actually simulated.
    pub num_edges: usize,
    /// Average epoch ms per backend for GCN: [DGL, PyG, TC-GNN].
    pub gcn_epoch_ms: [f64; 3],
    /// Average epoch ms per backend for AGNN: [DGL, PyG, TC-GNN].
    pub agnn_epoch_ms: [f64; 3],
}

impl Fig6Row {
    /// GCN speedup of TC-GNN over the given baseline index (0 = DGL, 1 = PyG).
    pub fn gcn_speedup(&self, baseline: usize) -> f64 {
        self.gcn_epoch_ms[baseline] / self.gcn_epoch_ms[2]
    }

    /// AGNN speedup of TC-GNN over the given baseline index.
    pub fn agnn_speedup(&self, baseline: usize) -> f64 {
        self.agnn_epoch_ms[baseline] / self.agnn_epoch_ms[2]
    }
}

/// Runs the full Figure 6 sweep: every Table 4 dataset, both models, all
/// three backends. `quick` restricts to one dataset per class (used by the
/// integration tests).
pub fn run_fig6(quick: bool) -> Vec<Fig6Row> {
    let specs: Vec<&DatasetSpec> = if quick {
        vec![&TABLE4[1], &TABLE4[4], &TABLE4[10]]
    } else {
        TABLE4.iter().collect()
    };
    let mut rows = Vec::new();
    for spec in specs {
        let ds = load_dataset(spec);
        eprintln!(
            "  [fig6] {} ({} nodes, {} edges)...",
            spec.name,
            ds.num_nodes(),
            ds.num_edges()
        );
        let mut gcn = [0.0; 3];
        let mut agnn = [0.0; 3];
        for (i, b) in [Backend::DglLike, Backend::PygLike, Backend::TcGnn]
            .iter()
            .enumerate()
        {
            let mut eng = engine(*b, &ds);
            let r = train_gcn(
                &mut eng,
                &ds,
                TrainConfig::gcn_paper().with_epochs(E2E_EPOCHS),
            );
            gcn[i] = r.avg_epoch_ms();
            let mut eng = engine(*b, &ds);
            let r = train_agnn(
                &mut eng,
                &ds,
                TrainConfig::agnn_paper().with_epochs(E2E_EPOCHS),
            );
            agnn[i] = r.avg_epoch_ms();
        }
        rows.push(Fig6Row {
            dataset: spec.name.to_string(),
            class: spec.class.to_string(),
            num_nodes: ds.num_nodes(),
            num_edges: ds.num_edges(),
            gcn_epoch_ms: gcn,
            agnn_epoch_ms: agnn,
        });
    }
    rows
}

/// Loads a previously saved Figure 6 sweep (written by the `fig6a`
/// binary), so `fig6b` does not redo the multi-minute computation. Returns
/// `None` when no result file exists.
pub fn try_load_fig6() -> Option<Vec<Fig6Row>> {
    let bytes = std::fs::read(results_path("fig6a")).ok()?;
    serde_json::from_slice(&bytes).ok()
}

/// Geometric mean of an iterator of ratios.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for v in values {
        if v > 0.0 {
            log_sum += v.ln();
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        (log_sum / n as f64).exp()
    }
}

/// Arithmetic mean (the paper reports arithmetic averages of speedups).
pub fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.into_iter().collect();
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Renders an aligned text table.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let parts: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect();
        println!("| {} |", parts.join(" | "));
    };
    line(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    line(&sep);
    for row in rows {
        line(row);
    }
}

/// The directory result files land in: `TCG_RESULTS_DIR` when set, else
/// `results/` relative to the working directory. Every bench binary and
/// the sentinel resolve paths through here, so redirecting one env var
/// redirects the whole suite (the CI sentinel uses this for its synthetic
/// regression check).
pub fn results_dir() -> PathBuf {
    match std::env::var("TCG_RESULTS_DIR") {
        Ok(d) if !d.is_empty() => PathBuf::from(d),
        _ => PathBuf::from("results"),
    }
}

/// Path of the JSON result file `name` (no extension) under
/// [`results_dir`].
pub fn results_path(name: &str) -> PathBuf {
    results_dir().join(format!("{name}.json"))
}

/// Provenance stamp for benchmark result files: the git revision the
/// numbers were produced at, the effective worker-thread count, the
/// host's core count, and the execution topology (device count +
/// partitioner) — the facts needed to judge whether a baseline comparison
/// is apples-to-apples. Single-device benches stamp `devices: 1`,
/// `partitioner: "none"`.
pub fn run_meta() -> Value {
    run_meta_dist(1, "none")
}

/// [`run_meta`] for multi-device benches: stamps the sharded topology the
/// numbers were produced under.
pub fn run_meta_dist(devices: usize, partitioner: &str) -> Value {
    let git_rev = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    Value::Object(vec![
        ("git_rev".to_string(), Value::Str(git_rev)),
        (
            "threads".to_string(),
            Value::UInt(tcg_gpusim::threads_from_env() as u128),
        ),
        ("host_cores".to_string(), Value::UInt(host_cores as u128)),
        ("devices".to_string(), Value::UInt(devices as u128)),
        (
            "partitioner".to_string(),
            Value::Str(partitioner.to_string()),
        ),
    ])
}

/// Writes a JSON result file under [`results_dir`].
pub fn save_json<T: Serialize>(name: &str, value: &T) {
    let dir = results_dir();
    std::fs::create_dir_all(&dir).ok();
    let path = results_path(name);
    match std::fs::File::create(&path) {
        Ok(mut f) => {
            let s = serde_json::to_string_pretty(value).expect("serializable");
            f.write_all(s.as_bytes()).ok();
            eprintln!("  [saved {}]", path.display());
        }
        Err(e) => eprintln!("  [warn: could not write {}: {e}]", path.display()),
    }
}

/// A fresh [`SharedProfiler`] labeled for `backend` at the level requested
/// via `TCG_PROFILE` (`Off` → `None`; `metrics` → aggregates only). It
/// never arms the host hotspot timers: `tcgnn profile --hotspots` and
/// `tcgnn serve` do, and write their report.
pub fn maybe_profiler(backend: Backend) -> Option<SharedProfiler> {
    ProfileLevel::from_env()
        .profiler(backend.name())
        .map(|p| std::sync::Arc::new(std::sync::RwLock::new(p)))
}

/// Writes the profiler's trace/metrics/kernel-table artifacts under
/// [`results_dir`] as `<prefix>.trace.json`, `<prefix>.metrics.json`,
/// `<prefix>.kernels.txt`.
pub fn save_profile_artifacts(profiler: &SharedProfiler, prefix: &str) {
    let p = profiler.read().expect("profiler lock");
    match tcg_profile::write_artifacts(&p, &results_dir(), prefix) {
        Ok(a) => eprintln!(
            "  [profile: {} + metrics + kernel table]",
            a.trace_path.display()
        ),
        Err(e) => eprintln!("  [warn: could not write profile artifacts for {prefix}: {e}]"),
    }
}

/// Lowercase alphanumeric-and-dash version of a dataset name, for use in
/// artifact file names.
pub fn artifact_slug(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '-'
            }
        })
        .collect()
}

/// Builds an engine for a benchmark dataset; thread count follows
/// `TCG_THREADS` via the builder default. Benchmark graphs are symmetric
/// by construction, so failure here is a programming error.
pub fn engine(backend: Backend, ds: &Dataset) -> Engine {
    Engine::builder(ds.graph.clone())
        .backend(backend)
        .device(device())
        .build()
        .expect("benchmark graphs are symmetric")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_and_mean() {
        assert!((geomean([2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((mean([1.0, 3.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean([]), 0.0);
        assert_eq!(mean([]), 0.0);
    }

    #[test]
    fn scale_policy_defaults() {
        // Without TCG_SCALE set, Type I is unscaled, others divided.
        if std::env::var("TCG_SCALE").is_err() {
            assert_eq!(scale_for(GraphClass::TypeI), 1);
            assert_eq!(scale_for(GraphClass::TypeII), DEFAULT_SCALE);
        }
    }

    #[test]
    fn quick_fig6_produces_sane_speedups() {
        let rows = run_fig6(true);
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(r.gcn_epoch_ms.iter().all(|&m| m > 0.0));
            assert!(r.agnn_epoch_ms.iter().all(|&m| m > 0.0));
            assert!(
                r.gcn_speedup(0) > 0.8,
                "{}: TC-GNN should not lose badly to DGL on GCN ({:.2})",
                r.dataset,
                r.gcn_speedup(0)
            );
        }
        let avg = mean(rows.iter().map(|r| r.gcn_speedup(0)));
        assert!(avg > 1.0, "average GCN speedup over DGL: {avg:.2}");
    }
}

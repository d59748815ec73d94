//! Graph (de)serialization: JSON snapshots, SNAP-style edge lists, and
//! MatrixMarket files.
//!
//! JSON carries graph topology for experiment reproducibility. The text
//! formats let the library consume *real* datasets — the paper's Type III
//! graphs are all published as SNAP edge lists, and graph-kernel datasets
//! commonly ship as MatrixMarket — so a user with the originals can swap
//! out the synthetic stand-ins. Feature matrices are never serialized with
//! graphs (they can be hundreds of megabytes and are regenerated
//! deterministically from `(spec, seed)`).

use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

use crate::{CooGraph, CsrGraph, GraphError, NodeId, Result};

/// Ceiling on the bytes of the node pointer (`n + 1` offsets) a text
/// loader will allocate. A single corrupted id (one flipped high bit in
/// `src dst`), or a size line that declares far more nodes than its
/// entries use, would otherwise allocate gigabytes before any structural
/// validation runs; past this bound the file is treated as malformed.
const MAX_NODE_POINTER_BYTES: usize = 64 << 20;

/// The node count whose node pointer fills [`MAX_NODE_POINTER_BYTES`]:
/// 8,388,607 nodes with 8-byte offsets, against 410,236 for the largest
/// registry dataset.
const MAX_TEXT_NODES: usize = MAX_NODE_POINTER_BYTES / std::mem::size_of::<usize>() - 1;

/// Saves a CSR graph as JSON.
pub fn save_csr(graph: &CsrGraph, path: &Path) -> Result<()> {
    let file = File::create(path)?;
    serde_json::to_writer(BufWriter::new(file), graph)?;
    Ok(())
}

/// Loads a CSR graph from JSON and re-validates its invariants.
pub fn load_csr(path: &Path) -> Result<CsrGraph> {
    let file = File::open(path)?;
    let g: CsrGraph = serde_json::from_reader(BufReader::new(file))?;
    // Serde restores fields blindly; re-run the structural validation so a
    // hand-edited file cannot smuggle a malformed graph into the kernels.
    CsrGraph::from_raw(
        g.num_nodes(),
        g.node_pointer().to_vec(),
        g.edge_list().to_vec(),
    )
}

/// Loads a SNAP-style edge list: one `src dst` pair per line, `#`- or `%`-
/// prefixed comment lines ignored, node ids zero-based.
///
/// The node count is `max id + 1`. With `symmetrize`, the reverse of every
/// edge is added (SNAP graphs are directed crawls; GNN training uses the
/// undirected version, as the paper does). Self loops and duplicate edges
/// are removed either way.
pub fn load_edge_list(path: &Path, symmetrize: bool) -> Result<CsrGraph> {
    let file = File::open(path)?;
    let mut pairs: Vec<(NodeId, NodeId)> = Vec::new();
    let mut max_id: u64 = 0;
    for (lineno, line) in BufReader::new(file).lines().enumerate() {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let parse = |tok: Option<&str>| -> Result<u64> {
            tok.and_then(|s| s.parse::<u64>().ok())
                .ok_or_else(|| GraphError::Io {
                    message: format!("malformed edge at line {}", lineno + 1),
                })
        };
        let a = parse(it.next())?;
        let b = parse(it.next())?;
        if a > u64::from(NodeId::MAX) || b > u64::from(NodeId::MAX) {
            return Err(GraphError::Io {
                message: format!("node id too large at line {}", lineno + 1),
            });
        }
        max_id = max_id.max(a).max(b);
        if a != b {
            pairs.push((a as NodeId, b as NodeId));
        }
    }
    let n = if pairs.is_empty() {
        0
    } else {
        max_id as usize + 1
    };
    if n > MAX_TEXT_NODES {
        return Err(GraphError::Io {
            message: format!("node id {max_id} exceeds the loader bound of {MAX_TEXT_NODES} nodes"),
        });
    }
    let mut coo = CooGraph::new(n);
    for (a, b) in pairs {
        coo.push_edge(a, b);
    }
    if symmetrize {
        coo.symmetrize();
    }
    coo.into_csr()
}

/// Writes a graph as a SNAP-style edge list (with a header comment).
pub fn save_edge_list(graph: &CsrGraph, path: &Path) -> Result<()> {
    let file = File::create(path)?;
    let mut w = BufWriter::new(file);
    writeln!(
        w,
        "# Nodes: {} Edges: {}",
        graph.num_nodes(),
        graph.num_edges()
    )?;
    for (s, d) in graph.iter_edges() {
        writeln!(w, "{s}\t{d}")?;
    }
    Ok(())
}

/// Loads a MatrixMarket `coordinate` file as a graph (1-based indices;
/// `pattern` or `real` fields; `general` or `symmetric` layouts).
///
/// Values of `real` entries are discarded — the adjacency structure is what
/// GNN aggregation consumes; weights belong to the runtime edge-value
/// arrays.
pub fn load_matrix_market(path: &Path) -> Result<CsrGraph> {
    let file = File::open(path)?;
    let mut lines = BufReader::new(file).lines();

    let header = lines.next().transpose()?.unwrap_or_default();
    if !header.starts_with("%%MatrixMarket") {
        return Err(GraphError::Io {
            message: "missing MatrixMarket header".into(),
        });
    }
    let lower = header.to_ascii_lowercase();
    if !lower.contains("coordinate") {
        return Err(GraphError::Io {
            message: "only coordinate-format MatrixMarket is supported".into(),
        });
    }
    let symmetric = lower.contains("symmetric");

    // Skip comments, read the size line.
    let mut size_line = String::new();
    for line in lines.by_ref() {
        let line = line?;
        if !line.trim_start().starts_with('%') && !line.trim().is_empty() {
            size_line = line;
            break;
        }
    }
    let dims: Vec<usize> = size_line
        .split_whitespace()
        .filter_map(|t| t.parse().ok())
        .collect();
    if dims.len() < 3 {
        return Err(GraphError::Io {
            message: "malformed MatrixMarket size line".into(),
        });
    }
    let n = dims[0].max(dims[1]);
    if n > MAX_TEXT_NODES {
        return Err(GraphError::Io {
            message: format!(
                "size line declares {n} nodes, above the loader bound of {MAX_TEXT_NODES}"
            ),
        });
    }
    let declared_nnz = dims[2];

    let mut coo = CooGraph::new(n);
    let mut entries = 0usize;
    for line in lines {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let (a, b) = match (
            it.next().and_then(|s| s.parse::<usize>().ok()),
            it.next().and_then(|s| s.parse::<usize>().ok()),
        ) {
            (Some(a), Some(b)) if a >= 1 && b >= 1 && a <= n && b <= n => (a - 1, b - 1),
            _ => {
                return Err(GraphError::Io {
                    message: format!("malformed MatrixMarket entry: {t}"),
                })
            }
        };
        entries += 1;
        if a != b {
            coo.push_edge(a as NodeId, b as NodeId);
            if symmetric {
                coo.push_edge(b as NodeId, a as NodeId);
            }
        }
    }
    // A truncated download silently drops trailing entry lines; the size
    // line is the ground truth, so any disagreement means a damaged file.
    if entries != declared_nnz {
        return Err(GraphError::Io {
            message: format!("size line declares {declared_nnz} entries, file has {entries}"),
        });
    }
    coo.into_csr()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("tcg_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn roundtrip_preserves_graph() {
        let g = gen::erdos_renyi(200, 1500, 5).unwrap();
        let path = tmp("g.json");
        save_csr(&g, &path).unwrap();
        let g2 = load_csr(&path).unwrap();
        assert_eq!(g, g2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_rejects_tampered_file() {
        let path = tmp("bad.json");
        // node_pointer claims 2 edges but edge_list has 1: must be rejected.
        std::fs::write(
            &path,
            r#"{"num_nodes":2,"node_pointer":[0,2,2],"edge_list":[1]}"#,
        )
        .unwrap();
        assert!(load_csr(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_missing_file_errors() {
        assert!(load_csr(Path::new("/nonexistent/graph.json")).is_err());
    }

    #[test]
    fn edge_list_roundtrip() {
        let g = gen::rmat_default(128, 1000, 6).unwrap();
        let path = tmp("g.txt");
        save_edge_list(&g, &path).unwrap();
        let g2 = load_edge_list(&path, false).unwrap();
        // Node count can differ if the max id is isolated; edges must match.
        let e1: Vec<_> = g.iter_edges().collect();
        let e2: Vec<_> = g2.iter_edges().collect();
        assert_eq!(e1, e2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn edge_list_parses_comments_and_symmetrizes() {
        let path = tmp("snap.txt");
        std::fs::write(&path, "# SNAP header\n% other comment\n0 1\n1\t2\n2 2\n").unwrap();
        let g = load_edge_list(&path, true).unwrap();
        assert_eq!(g.num_nodes(), 3);
        // (0,1),(1,0),(1,2),(2,1); self loop (2,2) dropped.
        assert_eq!(g.num_edges(), 4);
        assert!(g.is_symmetric());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn edge_list_rejects_garbage() {
        let path = tmp("garbage.txt");
        std::fs::write(&path, "0 1\nfoo bar\n").unwrap();
        assert!(load_edge_list(&path, false).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn matrix_market_general_and_symmetric() {
        let path = tmp("m.mtx");
        std::fs::write(
            &path,
            "%%MatrixMarket matrix coordinate pattern symmetric\n% comment\n4 4 3\n1 2\n3 4\n2 2\n",
        )
        .unwrap();
        let g = load_matrix_market(&path).unwrap();
        assert_eq!(g.num_nodes(), 4);
        // (0,1),(1,0),(2,3),(3,2); diagonal (2,2) dropped.
        assert_eq!(g.num_edges(), 4);
        assert!(g.is_symmetric());
        std::fs::remove_file(&path).ok();

        let path2 = tmp("m2.mtx");
        std::fs::write(
            &path2,
            "%%MatrixMarket matrix coordinate real general\n3 3 2\n1 2 0.5\n2 3 1.5\n",
        )
        .unwrap();
        let g2 = load_matrix_market(&path2).unwrap();
        assert_eq!(g2.num_edges(), 2);
        assert!(!g2.is_symmetric());
        std::fs::remove_file(&path2).ok();
    }

    #[test]
    fn matrix_market_rejects_bad_files() {
        let path = tmp("bad.mtx");
        std::fs::write(&path, "not a header\n3 3 1\n1 2\n").unwrap();
        assert!(load_matrix_market(&path).is_err());
        std::fs::write(
            &path,
            "%%MatrixMarket matrix coordinate pattern general\n3 3 1\n9 9\n",
        )
        .unwrap();
        assert!(load_matrix_market(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn edge_list_rejects_absurd_node_id() {
        // One flipped high bit in an id must not trigger a multi-gigabyte
        // allocation; the loader reports the file as malformed instead.
        let path = tmp("bigid.txt");
        std::fs::write(&path, "0 1\n2 1099511627776\n").unwrap();
        let err = load_edge_list(&path, false).unwrap_err();
        assert!(matches!(err, GraphError::Io { .. }), "got {err:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn matrix_market_rejects_truncated_file() {
        // Size line promises 4 entries, the file was cut off after 2.
        let path = tmp("trunc.mtx");
        std::fs::write(
            &path,
            "%%MatrixMarket matrix coordinate pattern general\n5 5 4\n1 2\n2 3\n",
        )
        .unwrap();
        let err = load_matrix_market(&path).unwrap_err();
        match err {
            GraphError::Io { message } => {
                assert!(message.contains("declares 4"), "{message}")
            }
            other => panic!("expected Io error, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn matrix_market_rejects_absurd_dims() {
        let path = tmp("bigdims.mtx");
        std::fs::write(
            &path,
            "%%MatrixMarket matrix coordinate pattern general\n999999999999 3 1\n1 2\n",
        )
        .unwrap();
        assert!(load_matrix_market(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn edge_list_rejects_one_node_past_the_bound() {
        let path = tmp("pastbound.txt");
        std::fs::write(&path, format!("0 {MAX_TEXT_NODES}\n")).unwrap();
        let err = load_edge_list(&path, false).unwrap_err();
        assert!(matches!(err, GraphError::Io { .. }), "got {err:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn matrix_market_rejects_one_node_past_the_bound() {
        let path = tmp("pastbound.mtx");
        let n = MAX_TEXT_NODES + 1;
        std::fs::write(
            &path,
            format!("%%MatrixMarket matrix coordinate pattern general\n{n} {n} 1\n1 2\n"),
        )
        .unwrap();
        let err = load_matrix_market(&path).unwrap_err();
        assert!(matches!(err, GraphError::Io { .. }), "got {err:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_edge_list_gives_empty_graph() {
        let path = tmp("empty.txt");
        std::fs::write(&path, "# nothing here\n").unwrap();
        let g = load_edge_list(&path, true).unwrap();
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
        std::fs::remove_file(&path).ok();
    }
}

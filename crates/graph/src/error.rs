//! Error types for graph construction and validation.

use std::fmt;

/// Errors produced while building or validating graphs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge endpoint referenced a node id `>= num_nodes`.
    NodeOutOfRange {
        /// The offending node id.
        node: u32,
        /// The declared node count.
        num_nodes: usize,
    },
    /// A CSR `node_pointer` array was malformed (wrong length, non-monotone,
    /// or final entry not equal to the edge count).
    MalformedNodePointer {
        /// Human-readable description of the violation.
        reason: String,
    },
    /// The adjacency rows were required to be sorted but were not.
    UnsortedRow {
        /// Row (source node) where the violation was found.
        row: usize,
    },
    /// A duplicate edge was found where duplicates are disallowed.
    DuplicateEdge {
        /// Source node.
        src: u32,
        /// Destination node.
        dst: u32,
    },
    /// An edit removed an edge the graph does not have.
    MissingEdge {
        /// Source node.
        src: u32,
        /// Destination node.
        dst: u32,
    },
    /// Dataset materialization was asked for an unknown dataset name.
    UnknownDataset {
        /// The name that failed to resolve.
        name: String,
    },
    /// An IO or serialization failure while loading/saving a graph.
    Io {
        /// Underlying error message.
        message: String,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, num_nodes } => {
                write!(f, "node id {node} out of range for {num_nodes} nodes")
            }
            GraphError::MalformedNodePointer { reason } => {
                write!(f, "malformed node_pointer: {reason}")
            }
            GraphError::UnsortedRow { row } => {
                write!(f, "adjacency row {row} is not sorted")
            }
            GraphError::DuplicateEdge { src, dst } => {
                write!(f, "duplicate edge ({src}, {dst})")
            }
            GraphError::MissingEdge { src, dst } => {
                write!(f, "missing edge ({src}, {dst})")
            }
            GraphError::UnknownDataset { name } => {
                write!(f, "unknown dataset: {name}")
            }
            GraphError::Io { message } => write!(f, "io error: {message}"),
        }
    }
}

impl std::error::Error for GraphError {}

impl From<std::io::Error> for GraphError {
    fn from(e: std::io::Error) -> Self {
        GraphError::Io {
            message: e.to_string(),
        }
    }
}

impl From<serde_json::Error> for GraphError {
    fn from(e: serde_json::Error) -> Self {
        GraphError::Io {
            message: e.to_string(),
        }
    }
}

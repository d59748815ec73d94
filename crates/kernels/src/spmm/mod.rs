//! Neighbor-aggregation (SpMM) kernels.

pub mod bspmm;
pub mod cusparse;
pub mod dense;
pub mod gespmm;
pub mod hybrid;
pub mod scatter;
pub mod tcgnn;
pub(crate) mod tiling;
pub mod triton;
pub mod tsparse;

pub use bspmm::{BlockedEllSpmm, CondensedEllSpmm};
pub use cusparse::CusparseCsrSpmm;
pub use dense::DenseGemmSpmm;
pub use gespmm::GeSpmm;
pub use hybrid::HybridSpmm;
pub use scatter::ScatterGatherSpmm;
pub use tcgnn::TcgnnSpmm;
pub use triton::TritonBlockSparseSpmm;
pub use tsparse::TsparseLikeSpmm;

//! Sparse matrix formats and kernels for pruned-network sparsity levels.
//!
//! Stands in for cuSPARSE and Sputnik (Gale et al., SC 2020) in the
//! reproduction: the paper's Fig. 1 compares dense GEMM against these
//! sparse libraries at 80–95% sparsity and finds dense 6–22× faster,
//! which motivates SAMO's "compute dense, store compressed" design.
//!
//! * [`formats`] — COO (with linearized 1-D `u32` indices, paper
//!   Sec. III-B) and CSR, with validated invariants,
//! * [`kernels`] — spMM (row-parallel and Sputnik-style nnz-balanced
//!   row-splitting) and sDDMM,
//! * [`nm`] — 2:4 structured format and SIMD spMM over the fixed
//!   2-of-4 pattern (DESIGN.md §11).

pub mod formats;
pub mod kernels;
pub mod nm;

pub use formats::{random_sparse, Coo, Csr};
pub use kernels::{sddmm, spmm, spmm_f16, spmm_reference, spmm_row_split};
pub use nm::{spmm_nm24, spmm_nm24_with_tier, Nm24};

//! Sparse compute kernels: spMM and sDDMM.
//!
//! These are the CPU analogues of the GPU kernels the paper benchmarks in
//! Fig. 1 (cuSPARSE, Sputnik). A fully-connected layer `Y = X · Wᵀ` with a
//! pruned weight `W` can be computed as
//!
//! * spMM — `Y ᵀ = W_sparse · Xᵀ` (forward pass and input-gradient),
//! * sDDMM — `dW = (dYᵀ · X) ⊙ mask`, sampled at the nonzero positions
//!   only (weight-gradient of a sparse layer).
//!
//! Two spMM variants are provided: a straightforward row-parallel kernel,
//! and a *row-splitting* kernel in the spirit of Sputnik (Gale et al., SC
//! 2020) / merge-based spMM (Yang et al.), which balances work by
//! assigning an equal number of *nonzeros* (not rows) to each task.

use crate::formats::Csr;
use tensor::pool::{par_parts_mut, par_rows_mut, ThreadPool};

/// spMM: `C = A_sparse · B`, where `A` is `m × k` CSR, `B` is dense
/// row-major `k × n`, `C` is dense row-major `m × n` (overwritten).
///
/// Row-parallel: each task owns a contiguous range of output rows.
pub fn spmm(a: &Csr, b: &[f32], n: usize, c: &mut [f32]) {
    if !begin_spmm(a, b, n, c) {
        return;
    }
    par_rows_mut(c, n, 1, |offset, c_rows| spmm_rows(a, b, n, offset / n, c_rows));
}

/// Checks the operand sizes; `false` when C is empty.
fn begin_spmm(a: &Csr, b: &[f32], n: usize, c: &[f32]) -> bool {
    assert_eq!(b.len(), a.cols * n, "B must be k x n");
    assert_eq!(c.len(), a.rows * n, "C must be m x n");
    !c.is_empty()
}

/// Rows `r0..` of `A_sparse · B` into `c_rows`, as many as it holds.
fn spmm_rows(a: &Csr, b: &[f32], n: usize, r0: usize, c_rows: &mut [f32]) {
    for (local, crow) in c_rows.chunks_mut(n).enumerate() {
        crow.fill(0.0);
        let r = r0 + local;
        for idx in a.row_ptr[r] as usize..a.row_ptr[r + 1] as usize {
            let aval = a.values[idx];
            let col = a.col_idx[idx] as usize;
            for (cv, &bv) in crow.iter_mut().zip(&b[col * n..col * n + n]) {
                *cv += aval * bv;
            }
        }
    }
}

/// Work partition boundaries that split `nnz` roughly equally while
/// respecting row alignment (a row is never split across tasks).
fn balanced_row_splits(a: &Csr, tasks: usize) -> Vec<usize> {
    let nnz = a.nnz();
    let per_task = nnz.div_ceil(tasks.max(1)).max(1);
    let mut splits = vec![0usize];
    let mut next_target = per_task;
    for r in 0..a.rows {
        if (a.row_ptr[r + 1] as usize) >= next_target && r + 1 < a.rows {
            splits.push(r + 1);
            next_target = a.row_ptr[r + 1] as usize + per_task;
        }
    }
    splits.push(a.rows);
    splits
}

/// spMM with Sputnik-style load balancing: tasks are assigned contiguous
/// row ranges containing an approximately equal number of nonzeros, so a
/// few heavy rows cannot serialize the computation.
pub fn spmm_row_split(a: &Csr, b: &[f32], n: usize, c: &mut [f32]) {
    if !begin_spmm(a, b, n, c) {
        return;
    }
    let splits = balanced_row_splits(a, ThreadPool::global().workers() * 4);
    par_parts_mut(c, splits[1..].iter().map(|r| r * n), |_, offset, c_rows| {
        spmm_rows(a, b, n, offset / n, c_rows)
    });
}

/// sDDMM: sampled dense–dense matrix multiplication.
///
/// For each stored position `(r, c)` of the `m × k` sparsity `pattern`,
/// computes `out[pos] = Σ_p A[r, p] · B[c, p]` where `A` is `m × n`
/// dense and `B` is `k × n` dense (i.e. `A · Bᵀ` sampled at the pattern).
/// This is the backward-pass kernel for the weight gradient of a sparse
/// fully-connected layer.
pub fn sddmm(pattern: &Csr, a: &[f32], b: &[f32], n: usize, out: &mut [f32]) {
    assert_eq!(a.len(), pattern.rows * n, "A must be m x n");
    assert_eq!(b.len(), pattern.cols * n, "B must be k x n");
    assert_eq!(out.len(), pattern.nnz(), "out must have one slot per nonzero");
    // A task's rows own a contiguous run of nonzeros (`row_ptr` is
    // monotone), so `out` is cut where the rows are.
    let splits = balanced_row_splits(pattern, ThreadPool::global().workers() * 4);
    let nnz_ends = splits[1..].iter().map(|&r| pattern.row_ptr[r] as usize);
    par_parts_mut(out, nnz_ends, |task, _, out_chunk| {
        let mut slots = out_chunk.iter_mut();
        for r in splits[task]..splits[task + 1] {
            let arow = &a[r * n..r * n + n];
            for idx in pattern.row_ptr[r] as usize..pattern.row_ptr[r + 1] as usize {
                let col = pattern.col_idx[idx] as usize;
                let brow = &b[col * n..col * n + n];
                let mut acc = 0.0f32;
                for (&x, &y) in arow.iter().zip(brow) {
                    acc += x * y;
                }
                *slots.next().expect("one slot per nonzero of the task's rows") = acc;
            }
        }
    });
}

/// Reference spMM used to validate both parallel kernels.
// TEST-API: the sparse proptests and this module's tests hold `spmm` and `spmm_row_split` to it.
pub fn spmm_reference(a: &Csr, b: &[f32], n: usize, c: &mut [f32]) {
    assert_eq!(c.len(), a.rows * n);
    c.fill(0.0);
    for r in 0..a.rows {
        for (col, v) in a.row(r) {
            for j in 0..n {
                c[r * n + j] += v * b[col as usize * n + j];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formats::{random_sparse, Coo, Csr};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tensor::gemm::matmul;

    fn rand_vec(rng: &mut StdRng, len: usize) -> Vec<f32> {
        (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    fn assert_close(a: &[f32], b: &[f32], tol: f32) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() <= tol * (1.0 + x.abs()), "at {i}: {x} vs {y}");
        }
    }

    #[test]
    fn spmm_matches_dense_gemm() {
        let mut rng = StdRng::seed_from_u64(1);
        for &(m, k, n, sp) in &[(7, 9, 5, 0.5), (33, 64, 17, 0.9), (128, 128, 32, 0.8)] {
            let coo = random_sparse(m, k, sp, rng.gen());
            let csr = coo.to_csr();
            let b = rand_vec(&mut rng, k * n);
            let mut c = vec![f32::NAN; m * n];
            spmm(&csr, &b, n, &mut c);

            let dense_a = coo.to_dense();
            let mut cref = vec![0.0f32; m * n];
            matmul(m, n, k, &dense_a, &b, &mut cref);
            assert_close(&c, &cref, 1e-4);
        }
    }

    #[test]
    fn spmm_row_split_matches_reference() {
        let mut rng = StdRng::seed_from_u64(2);
        for &(m, k, n, sp) in &[(5, 5, 3, 0.0), (64, 96, 24, 0.9), (200, 50, 8, 0.95)] {
            let csr = random_sparse(m, k, sp, rng.gen()).to_csr();
            let b = rand_vec(&mut rng, k * n);
            let mut c1 = vec![f32::NAN; m * n];
            let mut c2 = vec![0.0f32; m * n];
            spmm_row_split(&csr, &b, n, &mut c1);
            spmm_reference(&csr, &b, n, &mut c2);
            assert_close(&c1, &c2, 1e-4);
        }
    }

    #[test]
    fn spmm_handles_skewed_rows() {
        // One row holds almost all nonzeros — the case row-splitting is for.
        let mut dense = vec![0.0f32; 64 * 64];
        for j in 0..64 {
            dense[5 * 64 + j] = j as f32 + 1.0; // heavy row 5
        }
        dense[63 * 64 + 1] = 7.0;
        let csr = Csr::from_dense(&dense, 64, 64);
        let mut rng = StdRng::seed_from_u64(3);
        let b = rand_vec(&mut rng, 64 * 16);
        let mut c1 = vec![0.0f32; 64 * 16];
        let mut c2 = vec![0.0f32; 64 * 16];
        spmm_row_split(&csr, &b, 16, &mut c1);
        spmm_reference(&csr, &b, 16, &mut c2);
        assert_close(&c1, &c2, 1e-5);
    }

    #[test]
    fn spmm_empty_matrix_zeroes_output() {
        let csr = Coo { rows: 4, cols: 4, indices: vec![], values: vec![] }.to_csr();
        let b = vec![1.0f32; 16];
        let mut c = vec![f32::NAN; 16];
        spmm(&csr, &b, 4, &mut c);
        assert!(c.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn sddmm_matches_masked_dense() {
        let mut rng = StdRng::seed_from_u64(4);
        for &(m, k, n, sp) in &[(6, 8, 4, 0.5), (40, 32, 16, 0.9)] {
            let pattern = random_sparse(m, k, sp, rng.gen()).to_csr();
            let a = rand_vec(&mut rng, m * n);
            let b = rand_vec(&mut rng, k * n);
            let mut out = vec![f32::NAN; pattern.nnz()];
            sddmm(&pattern, &a, &b, n, &mut out);

            // Reference: full A · B^T then sample.
            let mut full = vec![0.0f32; m * k];
            tensor::gemm::matmul_nt(m, k, n, &a, &b, &mut full);
            let mut cursor = 0;
            for r in 0..m {
                for (col, _) in pattern.row(r) {
                    let want = full[r * k + col as usize];
                    let got = out[cursor];
                    assert!((want - got).abs() <= 1e-4 * (1.0 + want.abs()));
                    cursor += 1;
                }
            }
            assert_eq!(cursor, pattern.nnz());
        }
    }

    #[test]
    fn sddmm_empty_pattern() {
        let pattern = Coo { rows: 3, cols: 3, indices: vec![], values: vec![] }.to_csr();
        let mut out: Vec<f32> = vec![];
        sddmm(&pattern, &[0.0; 6], &[0.0; 6], 2, &mut out);
    }

    #[test]
    fn balanced_splits_cover_all_rows() {
        let csr = random_sparse(100, 50, 0.9, 9).to_csr();
        let splits = balanced_row_splits(&csr, 8);
        assert_eq!(*splits.first().unwrap(), 0);
        assert_eq!(*splits.last().unwrap(), 100);
        assert!(splits.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn balanced_splits_distribute_nnz() {
        // 1000 nonzeros spread over rows; each task's nnz should be
        // within 2x of ideal.
        let csr = random_sparse(200, 100, 0.95, 10).to_csr();
        let tasks = 8;
        let splits = balanced_row_splits(&csr, tasks);
        let ideal = csr.nnz() as f64 / tasks as f64;
        for w in splits.windows(2) {
            let nnz = (csr.row_ptr[w[1]] - csr.row_ptr[w[0]]) as f64;
            assert!(nnz <= 2.5 * ideal + 100.0, "task nnz {nnz} vs ideal {ideal}");
        }
    }
}

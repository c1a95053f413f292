//! Parallel elementwise and reduction kernels on `f32` slices.
//!
//! These are the building blocks for both the optimizer steps (which the
//! paper runs as *dense elementwise kernels over compressed tensors*,
//! Sec. III-C) and the layer forward/backward passes.

use crate::f16::F16;
use crate::pool::{par_chunks_mut, par_ranges, par_rows_mut};
use crate::simd;
use std::sync::atomic::{AtomicU64, Ordering};

/// Minimum slice length before a kernel bothers going parallel.
const PAR_THRESHOLD: usize = 16 * 1024;

/// `y[i] += alpha * x[i]`.
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len());
    par_chunks_mut(y, PAR_THRESHOLD, |offset, chunk| {
        let xs = &x[offset..offset + chunk.len()];
        for (yi, &xi) in chunk.iter_mut().zip(xs) {
            *yi += alpha * xi;
        }
    });
}

/// `x[i] *= alpha`.
pub fn scale(alpha: f32, x: &mut [f32]) {
    par_chunks_mut(x, PAR_THRESHOLD, |_, chunk| {
        for v in chunk {
            *v *= alpha;
        }
    });
}

/// `out[i] = a[i] + b[i]`.
pub fn add(a: &[f32], b: &[f32], out: &mut [f32]) {
    assert_eq!(a.len(), b.len());
    assert_eq!(a.len(), out.len());
    par_chunks_mut(out, PAR_THRESHOLD, |offset, chunk| {
        for (i, v) in chunk.iter_mut().enumerate() {
            *v = a[offset + i] + b[offset + i];
        }
    });
}

/// Dot product `Σ a[i]·b[i]` with parallel tree reduction.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len());
    if a.len() < PAR_THRESHOLD {
        return a.iter().zip(b).map(|(x, y)| x * y).sum();
    }
    // Accumulate partial sums atomically as f64 bit patterns; the chunk
    // count is small (≤ 2×workers) so contention is negligible.
    let acc = AtomicU64::new(0f64.to_bits());
    par_ranges(a.len(), PAR_THRESHOLD, |s, e| {
        let partial: f64 = a[s..e].iter().zip(&b[s..e]).map(|(x, y)| (*x as f64) * (*y as f64)).sum();
        let mut cur = acc.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + partial).to_bits();
            match acc.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
    });
    f64::from_bits(acc.load(Ordering::Relaxed)) as f32
}

/// Sum of all elements (f64 accumulation for stability).
pub fn sum(x: &[f32]) -> f32 {
    if x.len() < PAR_THRESHOLD {
        return x.iter().map(|&v| v as f64).sum::<f64>() as f32;
    }
    let acc = AtomicU64::new(0f64.to_bits());
    par_ranges(x.len(), PAR_THRESHOLD, |s, e| {
        let partial: f64 = x[s..e].iter().map(|&v| v as f64).sum();
        let mut cur = acc.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + partial).to_bits();
            match acc.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
    });
    f64::from_bits(acc.load(Ordering::Relaxed)) as f32
}

/// Numerically stable softmax over each row of a row-major `rows × cols`
/// matrix, in place. A row that holds a NaN (or `+∞`) comes out all NaN.
pub fn softmax_rows(data: &mut [f32], rows: usize, cols: usize) {
    assert_eq!(data.len(), rows * cols);
    if rows == 0 || cols == 0 {
        return;
    }
    let tier = simd::active();
    par_rows_mut(data, cols, PAR_THRESHOLD.div_ceil(cols), |_, chunk| {
        for row in chunk.chunks_mut(cols) {
            let max = row.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
            simd::exp_sub_tier(tier, row, max);
            // Summed in storage order on either tier.
            let denom: f32 = row.iter().sum();
            let inv = 1.0 / denom;
            for v in row.iter_mut() {
                *v *= inv;
            }
        }
    });
}

/// `y[i] = gelu(x[i])` (tanh approximation; see [`simd::gelu_tier`]).
pub fn gelu(x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len());
    let tier = simd::active();
    par_chunks_mut(y, PAR_THRESHOLD, |offset, chunk| {
        simd::gelu_tier(tier, &x[offset..offset + chunk.len()], chunk);
    });
}

/// `d[i] *= gelu′(x[i])`: GELU's backward, in place on the gradient.
pub fn gelu_grad_mul(x: &[f32], d: &mut [f32]) {
    assert_eq!(x.len(), d.len());
    let tier = simd::active();
    par_chunks_mut(d, PAR_THRESHOLD, |offset, chunk| {
        simd::gelu_grad_mul_tier(tier, &x[offset..offset + chunk.len()], chunk);
    });
}

/// Argmax of each row of a row-major `rows × cols` matrix (ties broken
/// by the lowest index). Used by classification accuracy metrics.
pub fn argmax_rows(data: &[f32], rows: usize, cols: usize) -> Vec<usize> {
    assert_eq!(data.len(), rows * cols);
    assert!(cols > 0 || rows == 0);
    data.chunks(cols)
        .map(|row| {
            let mut best = 0usize;
            for (i, &v) in row.iter().enumerate() {
                if v > row[best] {
                    best = i;
                }
            }
            best
        })
        .collect()
}

/// Widens a half-precision slice into an existing f32 buffer (parallel,
/// table-based — see [`crate::f16::to_f32_table`]).
pub fn widen_into(src: &[F16], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len());
    par_chunks_mut(dst, PAR_THRESHOLD, |offset, chunk| {
        crate::f16::widen_slice(&src[offset..offset + chunk.len()], chunk);
    });
}

/// Rounds an f32 slice into an existing half-precision buffer (parallel,
/// vectorizable — see [`crate::f16::narrow_slice`]).
pub fn narrow_into(src: &[f32], dst: &mut [F16]) {
    assert_eq!(src.len(), dst.len());
    par_chunks_mut(dst, PAR_THRESHOLD, |offset, chunk| {
        crate::f16::narrow_slice(&src[offset..offset + chunk.len()], chunk);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axpy_basic() {
        let x = vec![1.0f32, 2.0, 3.0];
        let mut y = vec![10.0f32, 20.0, 30.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, vec![12.0, 24.0, 36.0]);
    }

    #[test]
    fn axpy_large_parallel_path() {
        let n = 100_000;
        let x = vec![1.0f32; n];
        let mut y = vec![0.5f32; n];
        axpy(0.5, &x, &mut y);
        assert!(y.iter().all(|&v| v == 1.0));
    }

    #[test]
    fn scale_and_add() {
        let mut x = vec![2.0f32; 10];
        scale(3.0, &mut x);
        assert!(x.iter().all(|&v| v == 6.0));
        let a = vec![1.0f32; 4];
        let b = vec![2.0f32; 4];
        let mut out = vec![0.0f32; 4];
        add(&a, &b, &mut out);
        assert_eq!(out, vec![3.0; 4]);
    }

    #[test]
    fn dot_and_sum_small_and_large() {
        let a = vec![1.0f32, 2.0, 3.0];
        let b = vec![4.0f32, 5.0, 6.0];
        assert_eq!(dot(&a, &b), 32.0);
        assert_eq!(sum(&a), 6.0);

        let n = 200_000;
        let ones = vec![1.0f32; n];
        assert_eq!(sum(&ones), n as f32);
        assert_eq!(dot(&ones, &ones), n as f32);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut data = vec![1.0f32, 2.0, 3.0, -1.0, 0.0, 1.0];
        softmax_rows(&mut data, 2, 3);
        for row in data.chunks(3) {
            let s: f32 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
            assert!(row.windows(2).all(|w| w[0] < w[1])); // increasing logits
        }
    }

    #[test]
    fn softmax_is_shift_invariant_and_stable() {
        let mut a = vec![1000.0f32, 1001.0, 1002.0];
        softmax_rows(&mut a, 1, 3);
        let mut b = vec![0.0f32, 1.0, 2.0];
        softmax_rows(&mut b, 1, 3);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-6);
            assert!(x.is_finite());
        }
    }

    #[test]
    fn argmax_rows_basic() {
        let data = vec![1.0f32, 5.0, 2.0, 9.0, 0.0, -1.0];
        assert_eq!(argmax_rows(&data, 2, 3), vec![1, 0]);
        // Ties pick the first occurrence.
        assert_eq!(argmax_rows(&[3.0, 3.0, 3.0], 1, 3), vec![0]);
        assert!(argmax_rows(&[], 0, 3).is_empty());
    }

    #[test]
    fn widen_narrow_roundtrip() {
        let src: Vec<F16> = (0..1000).map(|i| F16::from_f32(i as f32 * 0.25)).collect();
        let mut wide = vec![0.0f32; 1000];
        widen_into(&src, &mut wide);
        let mut back = vec![F16::ZERO; 1000];
        narrow_into(&wide, &mut back);
        assert_eq!(src, back);
    }
}

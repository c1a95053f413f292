//! `matmul_tn_row_blocks`: the streamed weight-gradient product. Every
//! block must hold the bits `matmul_tn_acc` leaves in a zeroed buffer
//! (`matmul_tn`'s chain, with a `-0.0` underflow read as `+0.0`), each row
//! exactly once, whatever the shape — and moving `matmul_tn_acc`'s long-`k`
//! path onto the same block product must not have changed its results.
//! The suite runs under `SAMO_SIMD=off` and the default tier in CI; the
//! expectation is computed on both tiers explicitly.

use std::sync::Mutex;
use tensor::gemm::{matmul_tn, matmul_tn_acc, matmul_tn_row_blocks, sgemm_with_tier};
use tensor::simd::Tier;

/// The deepest single k-block of the kernel (`KC` in `tensor::gemm`).
const KC: usize = 256;

/// Values in [-1, 1) from a small LCG, with about a quarter exact zeros;
/// with `zero_col_every > 0`, four columns in every so many are all zero
/// — whole row groups of the transposed operand, so the zero skips fire.
fn operand(rows: usize, cols: usize, seed: u64, zero_col_every: usize) -> Vec<f32> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = || {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (s >> 33) as u32
    };
    let mut v = Vec::with_capacity(rows * cols);
    for _ in 0..rows {
        for c in 0..cols {
            let r = next();
            let zero = r % 4 == 0 || (zero_col_every > 0 && c % zero_col_every < 4);
            v.push(if zero { 0.0 } else { (r >> 8) as f32 / (1u32 << 23) as f32 - 1.0 });
        }
    }
    v
}

/// Assembles the product from its blocks, checking that every row arrives
/// exactly once and that blocks are `n` wide.
fn assemble(m: usize, n: usize, k: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
    let out = Mutex::new((vec![f32::NAN; m * n], vec![0u32; m]));
    matmul_tn_row_blocks(m, n, k, a, b, |r0, r1, block| {
        assert!(r0 < r1 && r1 <= m, "rows {r0}..{r1} of {m}");
        assert!(r1 - r0 <= 64, "a block is at most MC rows");
        assert_eq!(block.len(), (r1 - r0) * n);
        let mut g = out.lock().unwrap();
        g.0[r0 * n..r1 * n].copy_from_slice(block);
        for seen in &mut g.1[r0..r1] {
            *seen += 1;
        }
    });
    let (product, seen) = out.into_inner().unwrap();
    assert!(seen.iter().all(|&c| c == 1), "every row exactly once: {seen:?}");
    product
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|f| f.to_bits()).collect()
}

#[test]
fn row_blocks_are_bitwise_matmul_tn_into_zeros() {
    for &m in &[1usize, 3, 63, 64, 65, 200] {
        for &n in &[1usize, 15, 17, 33] {
            for &k in &[0usize, 1, 4, KC, KC + 1] {
                // A is k × m: zero *columns* of A are zero rows of Aᵀ, four
                // in a row so a whole MR row group skips.
                let a = operand(k, m, (m * 131 + n * 7 + k) as u64, 11);
                let b = operand(k, n, (m + n * 977 + k * 13) as u64, 0);
                let got = assemble(m, n, k, &a, &b);
                for tier in [Tier::Scalar, Tier::Avx2] {
                    let mut want = vec![f32::NAN; m * n];
                    sgemm_with_tier(tier, true, false, m, n, k, 1.0, &a, m, &b, n, 0.0, &mut want, n);
                    // In range these operands never underflow, so the
                    // `+0.0` the entry adds changes no bit.
                    assert_eq!(bits(&got), bits(&want), "{m}x{n}x{k} vs matmul_tn on {tier:?}");
                }
                let mut acc = vec![0.0f32; m * n];
                matmul_tn_acc(m, n, k, &a, &b, &mut acc);
                assert_eq!(bits(&got), bits(&acc), "{m}x{n}x{k} vs matmul_tn_acc into zeros");
            }
        }
    }
}

#[test]
fn an_underflow_reads_as_it_does_in_a_zeroed_gradient() {
    // (-tiny)·tiny underflows to -0.0 in the chain; accumulated into a
    // zeroed buffer it reads +0.0, and so must the block — in one k-block
    // and beyond it.
    for &k in &[2usize, KC + 3] {
        let (m, n) = (5, 9);
        let mut a = vec![0.0f32; k * m];
        let mut b = vec![0.0f32; k * n];
        a[0] = -1e-30; // A[0, 0]
        b[0] = 1e-30; // B[0, 0]
        // An ordinary product beside it, in another row group: a step the
        // group of row 0 does not skip would add `0·0` and lose the sign.
        a[m + 4] = 0.5; // A[1, 4]
        b[n + 2] = -3.0; // B[1, 2]
        let got = assemble(m, n, k, &a, &b);
        let mut product = vec![f32::NAN; m * n];
        matmul_tn(m, n, k, &a, &b, &mut product);
        assert_eq!(product[0].to_bits(), (-0.0f32).to_bits(), "the bare chain keeps -0.0");
        let mut acc = vec![0.0f32; m * n];
        matmul_tn_acc(m, n, k, &a, &b, &mut acc);
        assert_eq!(acc[0].to_bits(), 0, "a zeroed gradient reads +0.0");
        assert_eq!(bits(&got), bits(&acc), "k = {k}");
        assert_eq!(got[4 * n + 2], -1.5);
    }
}

#[test]
fn long_k_accumulation_is_still_product_then_add() {
    // `matmul_tn_acc` beyond one k-block (and at k = 0) goes through the
    // same block product: onto zeros, onto values, onto a -0.0.
    for &(m, n, k) in &[(3usize, 17usize, KC + 1), (70, 33, 2 * KC + 5), (130, 8, 0)] {
        let a = operand(k, m, 5, 11);
        let b = operand(k, n, 6, 0);
        let mut product = vec![0.0f32; m * n];
        matmul_tn(m, n, k, &a, &b, &mut product);
        let mut c = operand(m, n, 7, 0);
        c[1] = -0.0;
        let want: Vec<f32> = c.iter().zip(&product).map(|(c, t)| c + t).collect();
        matmul_tn_acc(m, n, k, &a, &b, &mut c);
        assert_eq!(bits(&c), bits(&want), "{m}x{n}x{k}");
    }
}

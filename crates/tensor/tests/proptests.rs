//! Property-based tests for the dense substrate.

use proptest::prelude::*;
use tensor::f16::F16;
use tensor::gemm::{matmul_tn, matmul_tn_acc, sgemm, sgemm_reference, sgemm_with_tier};
use tensor::ops;
use tensor::simd::Tier;

fn close(a: f32, b: f32, tol: f32) -> bool {
    (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
}

/// The rounding contract of `sgemm`, element by element, as the kernel
/// has computed it since the SIMD tier landed: C is scaled by beta, then
/// every element runs one chain of fused multiply-adds over `p`
/// ascending, with alpha folded into A (exactly `a` when A is read
/// untransposed at alpha = 1) and `p` skipped where a whole row group's
/// A values are zero. Rows group in fours from every 64th row; the up to
/// three rows left over at the end are groups of one.
#[allow(clippy::too_many_arguments)]
fn sgemm_chain_oracle(
    ta: bool,
    tb: bool,
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    beta: f32,
    c: &mut [f32],
    ldc: usize,
) {
    let a_at = |i: usize, p: usize| {
        let v = if ta { a[p * lda + i] } else { a[i * lda + p] };
        if !ta && alpha == 1.0 {
            v
        } else {
            alpha * v
        }
    };
    let mut g0 = 0;
    while g0 < m {
        let panel_end = (g0 / 64 * 64 + 64).min(m);
        let g1 = if g0 + 4 <= panel_end { g0 + 4 } else { g0 + 1 };
        for i in g0..g1 {
            for j in 0..n {
                let cv = &mut c[i * ldc + j];
                if beta == 0.0 {
                    *cv = 0.0;
                } else if beta != 1.0 {
                    *cv *= beta;
                }
                if alpha == 0.0 {
                    continue;
                }
                for p in 0..k {
                    if (g0..g1).all(|r| a_at(r, p) == 0.0) {
                        continue;
                    }
                    let bv = if tb { b[j * ldb + p] } else { b[p * ldb + j] };
                    *cv = a_at(i, p).mul_add(bv, *cv);
                }
            }
        }
        g0 = g1;
    }
}

fn assert_same_bits(got: &[f32], want: &[f32], what: &str) -> Result<(), TestCaseError> {
    for (i, (x, y)) in got.iter().zip(want).enumerate() {
        prop_assert_eq!(x.to_bits(), y.to_bits(), "{} diverges at {}: {} vs {}", what, i, x, y);
    }
    Ok(())
}

/// Values in [-1, 1) with exact zeros sprinkled in, so the zero skips fire.
fn sparse_matrix(rng: &mut rand::rngs::StdRng, len: usize) -> Vec<f32> {
    use rand::Rng;
    let mut draw = |_| if rng.gen_range(0..4) == 0 { 0.0 } else { rng.gen_range(-1.0..1.0) };
    (0..len).map(&mut draw).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Thin GEMMs keep the kernel's bits: all four transpose
    /// combinations, `m` in 1..=9 (row groups of four and one to three
    /// remainder rows), `n` and `k` off the 16-column tile and the
    /// 256-deep block, strided operands, both tiers.
    #[test]
    fn thin_gemm_is_bitwise_the_fma_chain(
        m in 1usize..10,
        n in 1usize..70,
        k_pick in 0usize..80,
        pad in 0usize..3,
        seed in any::<u64>(),
    ) {
        use rand::SeedableRng;
        // Either well inside one 256-deep block or straddling its edge.
        let k = if k_pick < 40 { k_pick + 1 } else { k_pick + 210 };
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for (ta, tb) in [(false, false), (false, true), (true, false), (true, true)] {
            let (ar, ac) = if ta { (k, m) } else { (m, k) };
            let (br, bc) = if tb { (n, k) } else { (k, n) };
            let (lda, ldb, ldc) = (ac + pad, bc + 2 * pad, n + pad);
            let mut a = sparse_matrix(&mut rng, ar * lda);
            // A whole zero column of op(A), so full row groups skip too.
            for i in 0..m {
                a[if ta { i } else { i * lda }] = 0.0;
            }
            let b = sparse_matrix(&mut rng, br * ldb);
            let c0 = sparse_matrix(&mut rng, m * ldc);
            for (alpha, beta) in [(1.0f32, 0.0f32), (1.0, 1.0), (-0.75, 1.0)] {
                let mut want = c0.clone();
                sgemm_chain_oracle(ta, tb, m, n, k, alpha, &a, lda, &b, ldb, beta, &mut want, ldc);
                for tier in [Tier::Scalar, Tier::Avx2] {
                    let mut got = c0.clone();
                    sgemm_with_tier(
                        tier, ta, tb, m, n, k, alpha, &a, lda, &b, ldb, beta, &mut got, ldc,
                    );
                    let what = format!("{tier:?} ta={ta} tb={tb} {m}x{n}x{k} beta={beta}");
                    assert_same_bits(&got, &want, &what)?;
                }
            }
        }
    }

    /// `matmul_tn_acc` rounds as the product into a zeroed temporary
    /// followed by an add — onto a zero C, onto a non-zero C, within one
    /// row panel and across several, with `k` inside one block and beyond.
    #[test]
    fn matmul_tn_acc_is_bitwise_product_then_add(
        m in 1usize..150,
        n in 1usize..40,
        k_pick in 0usize..16,
        onto_zero in any::<bool>(),
        seed in any::<u64>(),
    ) {
        use rand::SeedableRng;
        let k = if k_pick < 12 { k_pick + 1 } else { k_pick + 243 };
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = sparse_matrix(&mut rng, k * m);
        let b = sparse_matrix(&mut rng, k * n);
        let mut got = if onto_zero { vec![0.0; m * n] } else { sparse_matrix(&mut rng, m * n) };
        let mut want = got.clone();
        let mut product = vec![0.0f32; m * n];
        matmul_tn(m, n, k, &a, &b, &mut product);
        for (w, &t) in want.iter_mut().zip(&product) {
            *w += t;
        }
        matmul_tn_acc(m, n, k, &a, &b, &mut got);
        assert_same_bits(&got, &want, &format!("{m}x{n}x{k}"))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The blocked parallel GEMM must agree with the naive reference for
    /// arbitrary shapes, transposes and scaling factors.
    #[test]
    fn gemm_matches_reference(
        m in 1usize..48,
        n in 1usize..48,
        k in 1usize..48,
        ta in any::<bool>(),
        tb in any::<bool>(),
        alpha in -2.0f32..2.0,
        beta in -2.0f32..2.0,
        seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let (ar, ac) = if ta { (k, m) } else { (m, k) };
        let (br, bc) = if tb { (n, k) } else { (k, n) };
        let a: Vec<f32> = (0..ar * ac).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let b: Vec<f32> = (0..br * bc).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let c0: Vec<f32> = (0..m * n).map(|_| rng.gen_range(-1.0..1.0)).collect();

        let mut c1 = c0.clone();
        let mut c2 = c0.clone();
        sgemm(ta, tb, m, n, k, alpha, &a, ac, &b, bc, beta, &mut c1, n);
        sgemm_reference(ta, tb, m, n, k, alpha, &a, ac, &b, bc, beta, &mut c2, n);
        for (x, y) in c1.iter().zip(&c2) {
            prop_assert!(close(*x, *y, 1e-4), "{x} vs {y}");
        }
    }

    /// f32 -> f16 -> f32 must be the identity for every value that is
    /// exactly representable in binary16.
    #[test]
    fn f16_roundtrip_representable(bits in any::<u16>()) {
        let h = F16::from_bits(bits);
        if h.is_nan() {
            prop_assert!(F16::from_f32(h.to_f32()).is_nan());
        } else {
            prop_assert_eq!(F16::from_f32(h.to_f32()).to_bits(), bits);
        }
    }

    /// Conversion must round to one of the two nearest representable
    /// neighbours (never further away).
    #[test]
    fn f16_conversion_is_nearest(v in -70000.0f32..70000.0) {
        let h = F16::from_f32(v);
        if h.is_finite() {
            let back = h.to_f32();
            // The gap between adjacent f16 values around `back`:
            let ulp = {
                let next = F16::from_bits(h.to_bits().wrapping_add(1));
                if next.is_finite() { (next.to_f32() - back).abs() } else { 32.0 }
            };
            prop_assert!((back - v).abs() <= ulp, "v={v} back={back} ulp={ulp}");
        } else {
            // Overflow to infinity only happens beyond the halfway point
            // between MAX and the next (unrepresentable) value.
            prop_assert!(v.abs() >= 65520.0, "v={v} mapped to infinity");
        }
    }

    /// Monotonicity: conversion preserves (non-strict) order.
    #[test]
    fn f16_conversion_monotone(a in -70000.0f32..70000.0, b in -70000.0f32..70000.0) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let hl = F16::from_f32(lo).to_f32();
        let hh = F16::from_f32(hi).to_f32();
        prop_assert!(hl <= hh, "{lo} -> {hl}, {hi} -> {hh}");
    }

    /// axpy is linear: axpy(a, x, y) == y + a*x elementwise.
    #[test]
    fn axpy_is_linear(
        alpha in -4.0f32..4.0,
        data in proptest::collection::vec((-10.0f32..10.0, -10.0f32..10.0), 1..200),
    ) {
        let x: Vec<f32> = data.iter().map(|p| p.0).collect();
        let mut y: Vec<f32> = data.iter().map(|p| p.1).collect();
        let expect: Vec<f32> = data.iter().map(|p| p.1 + alpha * p.0).collect();
        ops::axpy(alpha, &x, &mut y);
        for (got, want) in y.iter().zip(&expect) {
            prop_assert!(close(*got, *want, 1e-6));
        }
    }

    /// softmax rows always sum to 1 and are in (0, 1].
    #[test]
    fn softmax_rows_normalized(
        rows in 1usize..6,
        cols in 1usize..20,
        seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut data: Vec<f32> = (0..rows * cols).map(|_| rng.gen_range(-30.0..30.0)).collect();
        ops::softmax_rows(&mut data, rows, cols);
        for row in data.chunks(cols) {
            let s: f32 = row.iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-4, "row sum {s}");
            prop_assert!(row.iter().all(|&v| v > 0.0 && v <= 1.0 + 1e-6));
        }
    }

    /// Parallel sum/dot agree with sequential f64 accumulation.
    #[test]
    fn sum_and_dot_match_sequential(v in proptest::collection::vec(-100.0f32..100.0, 0..400)) {
        let seq_sum: f64 = v.iter().map(|&x| x as f64).sum();
        prop_assert!(close(ops::sum(&v), seq_sum as f32, 1e-5));
        let seq_dot: f64 = v.iter().map(|&x| (x as f64) * (x as f64)).sum();
        prop_assert!(close(ops::dot(&v, &v), seq_dot as f32, 1e-5));
    }
}

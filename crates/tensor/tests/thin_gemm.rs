//! The pack-free `A · B` of a few rows (`gemm_thin` behind `sgemm`): every
//! output bit must be the packed product's — `f32` and half-precision B,
//! one row to two full row groups and the strip after them, odd `n` and
//! `k` (masked tiles, a short last visit), `alpha` folded or not, `beta`
//! zeroing, keeping and scaling a pre-filled C, B and C inside wider
//! rows, zero row groups in A (the skip must fire for the same rows) and
//! non-finite values in B behind them — on both tiers, and through the
//! dispatching entry. The suite runs under `SAMO_SIMD=off` and the
//! default tier, `SAMO_THREADS=1` and the default pool in CI.

use tensor::f16::{narrow_slice, to_f32_table, F16};
use tensor::gemm::{sgemm, sgemm_on_path, GemmElem, Path};
use tensor::simd::Tier;

/// Values in [-2, 2) from a small LCG. With `zero_groups`, columns
/// `8..16` of every 24 are zero in rows 0..4 and columns `16..24` in
/// every row: a `p` the first row group skips alone, and one every tile
/// of the strip skips.
fn operand(rows: usize, cols: usize, seed: u64, zero_groups: bool) -> Vec<f32> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut v = Vec::with_capacity(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let zero = zero_groups && (c % 24 >= 16 || (c % 24 >= 8 && r < 4));
            v.push(if zero { 0.0 } else { (s >> 40) as f32 / (1u32 << 22) as f32 - 2.0 });
        }
    }
    v
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|f| f.to_bits()).collect()
}

type Dims = (usize, usize, usize);

#[allow(clippy::too_many_arguments)]
fn run<B: GemmElem>(
    path: Path,
    tier: Tier,
    (m, n, k): Dims,
    (alpha, beta): (f32, f32),
    a: &[f32],
    b: &[B],
    ldb: usize,
    c: &mut [f32],
    ldc: usize,
) {
    sgemm_on_path(path, tier, false, false, m, n, k, alpha, a, k, b, ldb, beta, c, ldc);
}

#[test]
fn the_thin_product_is_the_packed_product_bit_for_bit() {
    let table = to_f32_table();
    for m in (1usize..=9).chain([12, 17]) {
        for &n in &[1usize, 7, 16, 21, 40] {
            for &k in &[1usize, 5, 8, 13, 27, 263] {
                let (ldb, ldc) = (n + 3, n + 2);
                let seed = (m * 1009 + n * 131 + k * 7) as u64;
                // B inside rows `ldb` long, the padding poisoned so a
                // stray read shows; row 17 non-finite where A's column 17
                // is zero for every row (skipped) and row 9 where it is
                // zero for the first group only (NaN in the rows below).
                let mut b16 = vec![F16::NAN; k * ldb];
                let vals = operand(k, n, seed, false);
                for (row, vals) in b16.chunks_mut(ldb).zip(vals.chunks(n)) {
                    narrow_slice(vals, &mut row[..n]);
                }
                for (p, h) in [(17, F16::INFINITY), (9, F16::NAN)] {
                    if p < k {
                        b16[p * ldb + n / 2] = h;
                    }
                }
                let b32: Vec<f32> = b16.iter().map(|h| table[h.0 as usize]).collect();
                let a = operand(m, k, seed + 1, true);
                let mut c0 = vec![f32::NAN; (m - 1) * ldc + n];
                for (row, vals) in c0.chunks_mut(ldc).zip(operand(m, n, seed + 2, false).chunks(n)) {
                    row[..n].copy_from_slice(vals);
                }
                for scale in [(1.0f32, 0.0f32), (0.5, 1.0), (1.0, 0.5)] {
                    let mut want = c0.clone();
                    run(Path::Packed, Tier::Scalar, (m, n, k), scale, &a, &b32, ldb, &mut want, ldc);
                    for tier in [Tier::Scalar, Tier::Avx2] {
                        let what = format!("{m}x{n}x{k}, (alpha, beta) {scale:?}, {tier:?}");
                        let (mut packed, mut t32, mut t16) = (c0.clone(), c0.clone(), c0.clone());
                        run(Path::Packed, tier, (m, n, k), scale, &a, &b16, ldb, &mut packed, ldc);
                        run(Path::PackFree, tier, (m, n, k), scale, &a, &b32, ldb, &mut t32, ldc);
                        run(Path::PackFree, tier, (m, n, k), scale, &a, &b16, ldb, &mut t16, ldc);
                        assert_eq!(bits(&packed), bits(&want), "packed, f16 B: {what}");
                        assert_eq!(bits(&t32), bits(&want), "thin, f32 B: {what}");
                        assert_eq!(bits(&t16), bits(&want), "thin, f16 B: {what}");
                    }
                    let mut got = c0.clone();
                    sgemm(false, false, m, n, k, scale.0, &a, k, &b16, ldb, scale.1, &mut got, ldc);
                    assert_eq!(bits(&got), bits(&want), "dispatched: {m}x{n}x{k}, {scale:?}");
                }
            }
        }
    }
}

#[test]
fn alpha_that_underflows_a_row_group_skips_it_on_both_paths() {
    // `alpha · a` is what the skip tests: a group whose folded values all
    // underflow to zero must leave C alone even against an infinite B.
    let (m, n, k) = (8usize, 19usize, 11usize);
    let mut a = operand(m, k, 3, false);
    for row in a.chunks_mut(k).take(4) {
        row.fill(1e-30);
    }
    let mut b = operand(k, n, 4, false);
    b[5 * n + 3] = f32::INFINITY;
    let c0 = operand(m, n, 5, false);
    for tier in [Tier::Scalar, Tier::Avx2] {
        let (mut packed, mut thin) = (c0.clone(), c0.clone());
        run(Path::Packed, tier, (m, n, k), (1e-30, 1.0), &a, &b, n, &mut packed, n);
        run(Path::PackFree, tier, (m, n, k), (1e-30, 1.0), &a, &b, n, &mut thin, n);
        assert_eq!(bits(&thin), bits(&packed), "{tier:?}");
        assert_eq!(bits(&thin[..4 * n]), bits(&c0[..4 * n]), "the underflowed group adds nothing");
        assert!(thin[4 * n + 3].is_infinite(), "the live group meets the infinity");
    }
}

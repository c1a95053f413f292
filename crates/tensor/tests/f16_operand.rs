//! `sgemm` with a half-precision B: the pack step widens `θ16` while it
//! packs, so every output bit must be that of the f32 GEMM on the widened
//! copy — both layouts of B, thin and full row groups, columns off the
//! 16-wide tile, `k` off the 8-row transpose strip and across the 256-deep
//! k-block, a leading dimension wider than the matrix, zero rows in A (the
//! skip must fire alike) — on both tiers, and through the dispatching
//! entry. The suite runs under `SAMO_SIMD=off` and the default tier in CI.

use tensor::f16::{narrow_slice, to_f32_table, F16};
use tensor::gemm::{sgemm, sgemm_with_tier};
use tensor::simd::{narrow_slice_tier, Tier};

/// Values in [-2, 2) from a small LCG; with `zero_rows`, rows 4..8 of
/// every eight are all zero — whole register row groups, and the single
/// remainder row of `m = 5`.
fn operand(rows: usize, cols: usize, seed: u64, zero_rows: bool) -> Vec<f32> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut v = Vec::with_capacity(rows * cols);
    for r in 0..rows {
        for _ in 0..cols {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let zero = zero_rows && r % 8 >= 4;
            v.push(if zero { 0.0 } else { (s >> 40) as f32 / (1u32 << 22) as f32 - 2.0 });
        }
    }
    v
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|f| f.to_bits()).collect()
}

#[test]
fn a_half_precision_b_multiplies_like_its_widened_copy() {
    let table = to_f32_table();
    for &m in &[1usize, 3, 4, 5, 32] {
        for &n in &[1usize, 16, 21, 40] {
            for &k in &[1usize, 7, 8, 13, 256, 263] {
                for transb in [false, true] {
                    // B as stored: `rows × cols` inside rows `ldb` long,
                    // the padding poisoned so a stray read shows.
                    let (rows, cols) = if transb { (n, k) } else { (k, n) };
                    let ldb = cols + 3;
                    let seed = (m * 1009 + n * 131 + k * 7) as u64 + u64::from(transb);
                    let mut b16 = vec![F16::NAN; rows * ldb];
                    let vals = operand(rows, cols, seed, false);
                    for (row, vals) in b16.chunks_mut(ldb).zip(vals.chunks(cols)) {
                        narrow_slice(vals, &mut row[..cols]);
                    }
                    let b32: Vec<f32> = b16.iter().map(|h| table[h.0 as usize]).collect();
                    let a = operand(m, k, seed + 1, true);
                    let c0 = operand(m, n, seed + 2, false);
                    let run32 = |tier, c: &mut [f32]| {
                        sgemm_with_tier(tier, false, transb, m, n, k, 0.75, &a, k, &b32, ldb, 0.5, c, n)
                    };
                    let run16 = |tier, c: &mut [f32]| {
                        sgemm_with_tier(tier, false, transb, m, n, k, 0.75, &a, k, &b16, ldb, 0.5, c, n)
                    };
                    let mut want = c0.clone();
                    run32(Tier::Scalar, &mut want);
                    for tier in [Tier::Scalar, Tier::Avx2] {
                        let (mut c32, mut c16) = (c0.clone(), c0.clone());
                        run32(tier, &mut c32);
                        run16(tier, &mut c16);
                        let what = format!("{m}x{n}x{k}, transb {transb}, {tier:?}");
                        assert_eq!(bits(&c32), bits(&want), "f32 B across tiers: {what}");
                        assert_eq!(bits(&c16), bits(&want), "f16 B: {what}");
                    }
                    let mut c16 = c0.clone();
                    sgemm(false, transb, m, n, k, 0.75, &a, k, &b16, ldb, 0.5, &mut c16, n);
                    assert_eq!(bits(&c16), bits(&want), "dispatched: {m}x{n}x{k}, transb {transb}");
                }
            }
        }
    }
}

#[test]
fn every_half_but_a_signalling_nan_reaches_the_product_as_its_table_entry() {
    // `1 · b − 0` is `b` to the bit (a quiet NaN keeps its payload), so a
    // one-hot A reads the packed panel back out: B row `p` as stored for
    // the row-copy pack, B column `p` for the in-register transpose.
    let table = to_f32_table();
    let halves: Vec<F16> = (0..=u16::MAX).map(F16::from_bits).collect();
    let signalling = |h: F16| h.is_nan() && h.0 & 0x0200 == 0;
    let (n, k) = (8192usize, 8usize);
    for tier in [Tier::Scalar, Tier::Avx2] {
        for transb in [false, true] {
            for p in 0..k {
                let mut a = [0.0f32; 8];
                a[p] = 1.0;
                let mut c = vec![-0.0f32; n];
                let ldb = if transb { k } else { n };
                sgemm_with_tier(tier, false, transb, 1, n, k, 1.0, &a, k, &halves, ldb, 1.0, &mut c, n);
                for (j, got) in c.iter().enumerate() {
                    let h = if transb { halves[j * k + p] } else { halves[p * n + j] };
                    if signalling(h) {
                        assert!(got.is_nan(), "{:#06x} stays a NaN", h.0);
                    } else {
                        let want = table[h.0 as usize].to_bits();
                        assert_eq!(got.to_bits(), want, "{:#06x}, {tier:?}, transb {transb}", h.0);
                    }
                }
            }
        }
    }
}

#[test]
fn narrowing_never_yields_a_signalling_nan() {
    // Why the one place the hardware widen and the table disagree cannot
    // matter: every half a kernel stores came out of one of these, and
    // they set the quiet bit of every NaN. All 2²⁴ − 2 f32 NaN patterns.
    let quiet = |h: F16| h.is_nan() && h.0 & 0x0200 != 0;
    let mut nans = Vec::with_capacity(1 << 16);
    let mut out = vec![F16::ZERO; 1 << 16];
    for hi in 0u32..1 << 8 {
        nans.clear();
        for lo in 0u32..1 << 16 {
            let mant = (hi << 16 | lo) & 0x007F_FFFF;
            let sign = (hi >> 7) << 31;
            if mant != 0 {
                nans.push(f32::from_bits(sign | 0x7F80_0000 | mant));
            }
        }
        for &x in &nans {
            assert!(quiet(F16::from_f32(x)), "from_f32({:#010x})", x.to_bits());
            assert!(quiet(F16::from_f32_fast(x)), "from_f32_fast({:#010x})", x.to_bits());
        }
        for tier in [Tier::Scalar, Tier::Avx2] {
            narrow_slice_tier(tier, &nans, &mut out[..nans.len()]);
            assert!(out[..nans.len()].iter().all(|&h| quiet(h)), "narrow_slice on {tier:?}");
        }
    }
}

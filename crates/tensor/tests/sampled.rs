//! The sampled path of `matmul_tn_kept`: `Aᵀ·B` computed at its kept
//! positions only. Every kept half, and the overflow verdict, must be what
//! gathering and narrowing `matmul_tn_row_blocks`' blocks gives
//! (`gather_narrow_finite` — the pair the planner trades it for): batches
//! of one row to past a row group and a fat one, output rows off the MR
//! group (single-row groups), input columns off the vector (scalar
//! tails), masks from empty over one value to dense, an all-zero row
//! group in A behind a non-finite B (the skip), products that underflow
//! to `-0.0` (the `+ 0.0`), and `±∞` / NaN in either operand — on both
//! tiers. The suite runs under `SAMO_SIMD=off` and the default tier,
//! `SAMO_THREADS=1` and the default pool in CI.

use std::sync::Mutex;
use tensor::f16::F16;
use tensor::gemm::{matmul_tn_kept_on_path, matmul_tn_row_blocks, plan, Op, Path};
use tensor::simd::{gather_narrow_finite, Tier};

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u32 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (self.0 >> 33) as u32
    }
    /// A value in [-scale, scale).
    fn value(&mut self, scale: f32) -> f32 {
        ((self.next() >> 8) as f32 / (1u32 << 23) as f32 - 1.0) * scale
    }
}

/// `rows × cols` values in [-scale, scale), a sixth of them `±0.0`.
fn operand(rows: usize, cols: usize, scale: f32, seed: u64) -> Vec<f32> {
    let mut g = Lcg(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    (0..rows * cols)
        .map(|_| match g.next() % 12 {
            0 => 0.0,
            1 => -0.0,
            _ => g.value(scale),
        })
        .collect()
}

/// About `density` of `0..numel`, ascending; `density >= 1` keeps all.
fn kept(numel: usize, density: f64, seed: u64) -> Vec<u32> {
    let mut g = Lcg(seed | 1);
    (0..numel as u32).filter(|_| density >= 1.0 || (g.next() as f64) < density * (1u64 << 31) as f64).collect()
}

/// The reference: the whole product block by block, its kept positions
/// gathered and narrowed while each block is hot.
fn by_blocks(tier: Tier, m: usize, n: usize, k: usize, a: &[f32], b: &[f32], idx: &[u32]) -> (Vec<u16>, bool) {
    let state = Mutex::new((vec![F16::from_f32(-3.0); idx.len()], true));
    matmul_tn_row_blocks(m, n, k, a, b, |r0, r1, block| {
        let (lo, hi) = (r0 * n, r1 * n);
        let s = idx.partition_point(|&i| (i as usize) < lo);
        let e = s + idx[s..].partition_point(|&i| (i as usize) < hi);
        let mut g = state.lock().unwrap();
        let finite = gather_narrow_finite(tier, block, lo as u32, &idx[s..e], &mut g.0[s..e]);
        g.1 &= finite;
    });
    let (halves, finite) = state.into_inner().unwrap();
    (halves.iter().map(|h| h.0).collect(), finite)
}

fn sampled(tier: Tier, m: usize, n: usize, k: usize, a: &[f32], b: &[f32], idx: &[u32]) -> (Vec<u16>, bool) {
    // Stale values everywhere: every kept position must be overwritten.
    let mut out = vec![F16::from_f32(-3.0); idx.len()];
    let finite = matmul_tn_kept_on_path(Path::Sampled, tier, m, n, k, a, b, idx, &mut out);
    (out.iter().map(|h| h.0).collect(), finite)
}

fn assert_same(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], idx: &[u32], what: &str) -> bool {
    let want = by_blocks(Tier::Scalar, m, n, k, a, b, idx);
    for tier in [Tier::Scalar, Tier::Avx2] {
        assert_eq!(by_blocks(tier, m, n, k, a, b, idx), want, "blocks across tiers: {what}");
        assert_eq!(sampled(tier, m, n, k, a, b, idx), want, "sampled on {tier:?}: {what}");
    }
    want.1
}

#[test]
fn sampled_is_the_gathered_block_product_bit_for_bit() {
    // (out, in): off the row group and off the vector; two row blocks.
    for &(m, n) in &[(7usize, 5usize), (10, 19), (70, 33)] {
        let numel = m * n;
        let masks: Vec<(&str, Vec<u32>)> = vec![
            ("empty", Vec::new()),
            ("one value", vec![(numel / 2) as u32]),
            ("0.1", kept(numel, 0.1, 3)),
            ("0.5", kept(numel, 0.5, 4)),
            ("dense", kept(numel, 1.0, 5)),
        ];
        for k in (0usize..=9).chain([32]) {
            let seed = (m * 131 + n * 7 + k) as u64;
            // Gradient-sized products; then ones that underflow (f32
            // subnormals and signed zeros, all +0.0 or subnormal halves).
            for (scale, kind) in [(50.0f32, "ordinary"), (1e-22, "underflowing")] {
                let mut a = operand(k, m, scale, seed);
                let b = operand(k, n, scale, seed + 1);
                // Output rows 4..8 — one whole MR group — see only zeros.
                for row in a.chunks_mut(m) {
                    row[4..m.min(8)].fill(0.0);
                }
                for (name, idx) in &masks {
                    let finite = assert_same(m, n, k, &a, &b, idx, &format!("{m}x{n}x{k}, {name}, {kind}"));
                    assert!(finite, "{m}x{n}x{k}, {name}, {kind}: finite operands of this size stay finite");
                }
            }
        }
    }
}

#[test]
fn non_finite_operands_give_the_verdict_of_the_blocks() {
    let (m, n) = (10usize, 19usize);
    // Half the positions, and all of the rows and columns planted below.
    let random = kept(m * n, 0.5, 9);
    let planted = |i: usize| [3, 4, n - 1].contains(&(i % n)) || [1, 2, 5, 9].contains(&(i / n));
    let idx: Vec<u32> = (0..(m * n) as u32).filter(|&i| planted(i as usize) || random.contains(&i)).collect();
    for k in [1usize, 4, 9] {
        let a0 = {
            let mut a = operand(k, m, 2.0, k as u64);
            for row in a.chunks_mut(m) {
                row[4..8].fill(0.0);
            }
            a
        };
        let b0 = operand(k, n, 2.0, 50 + k as u64);
        // (what, column of A's last row, of B's, value, the verdict if known)
        type Plant = (&'static str, Option<usize>, Option<usize>, f32, Option<bool>);
        let plants: [Plant; 7] = [
            ("inf in B, every row meets it but the zero group", None, Some(3), f32::INFINITY, Some(false)),
            ("-inf in B", None, Some(4), f32::NEG_INFINITY, Some(false)),
            ("NaN in B", None, Some(n - 1), f32::NAN, Some(false)),
            ("inf in A", Some(2), None, f32::INFINITY, Some(false)),
            ("NaN in A", Some(9), None, f32::NAN, Some(false)),
            ("NaN in the zero group of A wakes it", Some(5), None, f32::NAN, Some(false)),
            ("f16 overflow", Some(1), None, 1e9, None),
        ];
        for (what, in_a, in_b, v, fails) in plants {
            let (mut a, mut b) = (a0.clone(), b0.clone());
            if let Some(col) = in_a {
                a[(k - 1) * m + col] = v;
            }
            if let Some(col) = in_b {
                b[(k - 1) * n + col] = v;
            }
            let finite = assert_same(m, n, k, &a, &b, &idx, &format!("k = {k}: {what}"));
            if let Some(want) = fails {
                assert_eq!(finite, want, "k = {k}: {what}");
            }
        }
        // The zero group skips a non-finite B: rows 4..8 alone are kept.
        let group: Vec<u32> = idx.iter().copied().filter(|&i| (4 * n..8 * n).contains(&(i as usize))).collect();
        let mut b = b0.clone();
        b[3] = f32::INFINITY;
        assert!(assert_same(m, n, k, &a0, &b, &group, "skipped group"), "k = {k}: 0·∞ never happens");
    }
}

#[test]
fn the_dispatch_reads_rows_times_density() {
    // 4 rows at p = 0.9 sample; a fat batch at the same density is
    // transposed, and a thin one at a dense mask keeps the blocks.
    let sampled_pays = |k, nnz, numel| plan(Op::Tn, k, nnz, numel) == Path::Sampled;
    assert!(sampled_pays(4, 419_430, 2048 * 2048));
    assert_eq!(plan(Op::Tn, 64, 419_430, 2048 * 2048), Path::Transposed);
    assert!(!sampled_pays(8, 2048 * 2048 / 2, 2048 * 2048));
    assert!(sampled_pays(2, 2048 * 2048, 2048 * 2048));
    assert!(sampled_pays(8, 0, 1));
    assert_eq!(plan(Op::Tn, 256, 0, 1), Path::Transposed, "one whole k-block");
    assert_eq!(plan(Op::Tn, 257, 0, 1), Path::RowBlocks, "past one k-block");
}

#[test]
#[should_panic(expected = "out of bounds")]
fn an_index_below_its_predecessors_row_is_refused() {
    let (a, b) = (vec![1.0f32; 8], vec![1.0f32; 8]);
    let mut out = vec![F16::ZERO; 2];
    matmul_tn_kept_on_path(Path::Sampled, Tier::Scalar, 4, 4, 2, &a, &b, &[9, 3], &mut out);
}

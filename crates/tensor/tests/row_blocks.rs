//! `matmul_tn_row_blocks`: the streamed weight-gradient product. Every
//! block must hold the bits `matmul_tn_acc` leaves in a zeroed buffer
//! (`matmul_tn`'s chain, with a `-0.0` underflow read as `+0.0`), each row
//! exactly once, whatever the shape — and moving `matmul_tn_acc`'s long-`k`
//! path onto the same block product must not have changed its results.
//! The row-block path of `matmul_tn_kept`, which gathers each block's kept
//! positions into `∇θ16` as it leaves the product, must leave the bits and
//! the overflow flag of one gather over the assembled gradient, and
//! `matmul_tn_sum_narrow`, which sums several products block by block,
//! the halves of the gradient `matmul_tn_acc` accumulates from them.
//! The suite runs under `SAMO_SIMD=off` and the default tier in CI; the
//! expectation is computed on both tiers explicitly.

use std::sync::Mutex;
use tensor::f16::F16;
use tensor::gemm::{
    matmul_tn, matmul_tn_acc, matmul_tn_kept_on_path, matmul_tn_row_blocks, matmul_tn_sum_narrow, sgemm_with_tier, Path,
};
use tensor::simd::{gather_narrow_finite, Tier};
use tensor::Tensor;

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

#[test]
fn summed_blocks_narrow_to_the_halves_of_the_accumulated_gradient() {
    // Microbatches of differing depth — one k-block, a long one, none —
    // summed oldest first into zeros, as `matmul_tn_acc` leaves them in a
    // zeroed gradient, narrowed: over one panel, a panel cut inside a row
    // group, and three panels.
    for &(m, n) in &[(1usize, 1usize), (5, 33), (64, 17), (70, 9), (130, 20)] {
        for ks in [&[][..], &[4], &[3, KC + 2, 0, 1], &[KC, KC]] {
            let products: Vec<(Tensor, Tensor)> = ks
                .iter()
                .enumerate()
                .map(|(p, &k)| {
                    let seed = (m * 7 + n + 31 * p) as u64;
                    (Tensor::from_vec(&[k, m], operand(k, m, seed, 11)), Tensor::from_vec(&[k, n], operand(k, n, seed + 1, 0)))
                })
                .collect();
            let mut acc = vec![0.0f32; m * n];
            for (a, b) in &products {
                matmul_tn_acc(m, n, a.rows(), a.as_slice(), b.as_slice(), &mut acc);
            }
            let mut got = vec![F16::from_f32(f32::NAN); m * n];
            matmul_tn_sum_narrow(m, n, &products, &mut got);
            let want: Vec<u16> = acc.iter().map(|&g| F16::from_f32(g).0).collect();
            assert_eq!(got.iter().map(|h| h.0).collect::<Vec<_>>(), want, "{m}x{n}, k = {ks:?}");
        }
    }
}

/// About `density` of `0..numel`, ascending; `density >= 1` keeps all.
fn kept(numel: usize, density: f64, seed: u64) -> Vec<u32> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = || {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (s >> 33) as f64 / (1u64 << 31) as f64
    };
    (0..numel as u32).filter(|_| density >= 1.0 || next() < density).collect()
}

/// `dW = dyᵀ·x` over `k = 4` rows: row 0 an ordinary rank-one gradient,
/// rows 1..4 zero but for the plants, each `(position, value)` of `dW` one
/// product of its own row — `±∞` as `1e20 · ±1e20`, which overflows f32.
/// A NaN needs a NaN operand: `1 · NaN`, which also reaches the rows of the
/// position's MR group in its column (`0 · NaN`, the step not skipped).
fn planted(rows: usize, cols: usize, plants: &[(usize, f32)]) -> (Vec<f32>, Vec<f32>) {
    let (mut dy, mut x) = (vec![0.0f32; 4 * rows], vec![0.0f32; 4 * cols]);
    for (i, d) in dy[..rows].iter_mut().enumerate() {
        *d = ((i * 31) % 97) as f32 * 0.37 - 17.0;
    }
    for (j, v) in x[..cols].iter_mut().enumerate() {
        *v = ((j * 17) % 89) as f32 * 0.11 - 4.5;
    }
    for (p, &(at, v)) in (1..).zip(plants) {
        let (a, b) = if v.is_infinite() { (1e20, 1e20f32.copysign(v)) } else { (1.0, v) };
        dy[p * rows + at / cols] = a;
        x[p * cols + at % cols] = b;
    }
    (dy, x)
}

/// The rows that skip a step of `dW` together with row `i`: its MR group,
/// cut from the start of its 64-row panel — full groups while they fit,
/// single rows after.
fn row_group(rows: usize, i: usize) -> std::ops::Range<usize> {
    let g = i / 64 * 64 + i % 64 / 4 * 4;
    if g + 4 <= rows.min(i / 64 * 64 + 64) {
        g..g + 4
    } else {
        i..i + 1
    }
}

#[test]
fn row_blocks_compress_to_the_bits_of_the_fused_kernel() {
    // Every place the 64-row panel cut can fall: inside a row group, at the
    // end of one panel, one row past it, and three panels — the last
    // shape's "empty rows" mask keeps nothing in the middle one.
    let cols = 33usize;
    for rows in [1usize, 7, 64, 65, 70, 130] {
        let numel = rows * cols;
        // Random masks from dense to empty, and one with whole rows unkept
        // (rows 3..40 and 64..128 hold nothing, row 40 its last column only).
        let mut masks: Vec<(String, Vec<u32>)> =
            [1.0, 0.5, 0.1, 0.0].iter().map(|&d| (format!("density {d}"), kept(numel, d, 5))).collect();
        let unkept = |i: usize| (3 * cols..41 * cols - 1).contains(&i) || (64..128).contains(&(i / cols));
        masks.push(("empty rows".into(), (0..numel as u32).filter(|&i| !unkept(i as usize) && i % 3 != 1).collect()));
        for (name, idx) in &masks {
            let is_kept = |i: usize| idx.binary_search(&(i as u32)).is_ok();
            let inside = |k: usize| idx.get(k * idx.len() / 7).map(|&i| i as usize);
            let outside = (0..numel).find(|&i| !is_kept(i));
            // A NaN outside whose whole row group is outside in its column.
            let nan_outside = (0..numel).find(|&i| row_group(rows, i / cols).all(|r| !is_kept(r * cols + i % cols)));
            // (what, positions of dW and values to plant)
            let mut plants: Vec<(String, Vec<(usize, f32)>)> = vec![("finite".into(), Vec::new())];
            if let (Some(a), Some(b), Some(c)) = (inside(1), inside(3), inside(6)) {
                plants.push(("inf inside".into(), vec![(a, f32::INFINITY)]));
                plants.push(("-inf and NaN inside".into(), vec![(b, f32::NEG_INFINITY), (c, f32::NAN)]));
                plants.push(("f16 overflow inside".into(), vec![(a, 1e9)]));
            }
            if let (Some(o), Some(q)) = (outside, nan_outside) {
                // Never stored, so never seen: the verdict stays finite.
                let plant = vec![(o, f32::INFINITY), (q, f32::NAN), (o, 1e9)];
                plants.push(("inf, NaN and f16 overflow outside".into(), plant));
            }
            for (what, plant) in &plants {
                let (dy, x) = planted(rows, cols, plant);
                let mut dense = vec![0.0f32; numel];
                matmul_tn_acc(rows, cols, 4, &dy, &x, &mut dense);
                for tier in [Tier::Scalar, Tier::Avx2] {
                    let ctx = format!("{rows} rows, {name}, {what}, {tier:?}");
                    let mut want = vec![F16::ZERO; idx.len()];
                    let want_finite = gather_narrow_finite(tier, &dense, 0, idx, &mut want);
                    // Stale values everywhere: every kept position must be overwritten.
                    let mut got = vec![F16::from_f32(-3.0); idx.len()];
                    let finite = matmul_tn_kept_on_path(Path::RowBlocks, tier, rows, cols, 4, &dy, &x, idx, &mut got);
                    assert!(got.iter().zip(&want).all(|(g, w)| g.0 == w.0), "∇θ16: {ctx}");
                    assert_eq!(finite, want_finite, "overflow flag: {ctx}");
                    assert_eq!(finite, !plant.iter().any(|&(at, _)| is_kept(at)), "the verdict: {ctx}");
                }
            }
        }
    }
}

#[test]
fn past_one_k_block_the_transposed_path_keeps_the_bits_of_the_row_blocks() {
    // The row blocks carry each chain across k-blocks; the transposed path
    // runs it over every step at once. Both must narrow to the fused
    // compress of `matmul_tn_acc`'s gradient, flag included: zero row
    // groups (the skip), a `-0.0` underflow at a kept position, one MR
    // group dead over steps 250..262 with `∞` in B behind it at step 256.
    let cols = 33usize;
    for &(rows, k) in &[(70usize, KC + 1), (64, 512), (13, 1000)] {
        let numel = rows * cols;
        let mut dy = operand(k, rows, (rows * 3 + k) as u64, 11);
        let mut x = operand(k, cols, (rows + k * 5) as u64, 0);
        for p in 250..k.min(262) {
            dy[p * rows + 4..p * rows + 8].fill(0.0);
        }
        x[256 * cols + 2] = f32::INFINITY;
        // Row 0, column 0: one product, `-1e-30 · 1e-30`, which underflows.
        for p in 0..k {
            dy[p * rows] = 0.0;
        }
        dy[0] = -1e-30;
        x[0] = 1e-30;
        for density in [1.0, 0.5, 0.1] {
            let mut idx = kept(numel, density, 7);
            if idx.first() != Some(&0) {
                idx.insert(0, 0);
            }
            let mut dense = vec![0.0f32; numel];
            matmul_tn_acc(rows, cols, k, &dy, &x, &mut dense);
            assert_eq!(dense[0].to_bits(), 0, "a zeroed gradient reads +0.0");
            for tier in [Tier::Scalar, Tier::Avx2] {
                let ctx = format!("{rows} rows, k = {k}, density {density}, {tier:?}");
                let mut want = vec![F16::ZERO; idx.len()];
                let want_finite = gather_narrow_finite(tier, &dense, 0, &idx, &mut want);
                for path in [Path::RowBlocks, Path::Transposed] {
                    let mut got = vec![F16::from_f32(-3.0); idx.len()];
                    let finite = matmul_tn_kept_on_path(path, tier, rows, cols, k, &dy, &x, &idx, &mut got);
                    assert!(got.iter().zip(&want).all(|(g, w)| g.0 == w.0), "∇θ16 on {path:?}: {ctx}");
                    assert_eq!(finite, want_finite, "overflow flag on {path:?}: {ctx}");
                }
            }
        }
    }
}

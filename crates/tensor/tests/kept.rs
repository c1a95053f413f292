//! `sgemm_kept`: `x·Wᵀ` and `dy·W` over the kept weights of a half-precision
//! W only. Every output bit must be `sgemm`'s on the same W — both
//! `transb`; rows that cross the MR groups, the pack-free cut and the MC
//! panels; `k` across `KC`; masks from empty to dense; an A with zero row
//! groups, a zero row, signed zeros and subnormals, and a non-finite A (the
//! `sgemm` fallback); a W with `-0` at pruned positions, zeros at kept
//! ones and `±∞` at kept ones (the dense-chain fallback) — on both tiers,
//! on the kept path and through the dispatching entry. The suite runs
//! under `SAMO_SIMD=off` and the default tier, `SAMO_THREADS=1` and the
//! default pool in CI.

use tensor::f16::F16;
use tensor::gemm::{plan, sgemm_kept, sgemm_kept_on_path, sgemm_with_tier, Op, Path};
use tensor::simd::Tier;

struct Lcg(u64);

impl Lcg {
    fn new(seed: u64) -> Lcg {
        Lcg(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }
    fn next(&mut self) -> u32 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (self.0 >> 33) as u32
    }
    /// A value in [-2, 2).
    fn value(&mut self) -> f32 {
        (self.next() >> 8) as f32 / (1u32 << 21) as f32 - 2.0
    }
}

/// `m × k` activations: a sixth `±0`, a twelfth subnormal, rows 4..8 (one
/// MR group) zero at every third column, row 9 zero throughout.
fn activations(m: usize, k: usize, seed: u64) -> Vec<f32> {
    let mut g = Lcg::new(seed);
    let mut a = Vec::with_capacity(m * k);
    for i in 0..m {
        for p in 0..k {
            let v = match g.next() % 12 {
                0 => 0.0,
                1 => -0.0,
                2 => g.value() * 1e-39,
                _ => g.value(),
            };
            let zero = i == 9 || ((4..8).contains(&i) && p % 3 == 0);
            a.push(if zero { 0.0 } else { v });
        }
    }
    a
}

/// A `rows × cols` weight of which about `density` is kept: the kept
/// positions ascending, and the weight with `±0` everywhere else — a
/// twentieth of the kept values zero too.
fn weight(rows: usize, cols: usize, density: f64, seed: u64) -> (Vec<u32>, Vec<F16>) {
    let mut g = Lcg::new(seed);
    let mut idx = Vec::new();
    let mut w = Vec::with_capacity(rows * cols);
    for e in 0..rows * cols {
        let keep = density >= 1.0 || (g.next() as f64) < density * (1u64 << 31) as f64;
        let v = g.value();
        w.push(match (keep, g.next() % 20) {
            (true, 0) => F16::ZERO,
            (true, _) => F16::from_f32(v),
            (false, r) if r < 10 => F16::from_f32(-0.0),
            (false, _) => F16::ZERO,
        });
        if keep {
            idx.push(e as u32);
        }
    }
    (idx, w)
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|f| f.to_bits()).collect()
}

/// Asserts the kept product — forced on both tiers, and dispatched — is
/// `sgemm`'s on both tiers, and returns it.
#[allow(clippy::too_many_arguments)]
fn assert_same(transb: bool, m: usize, n: usize, k: usize, a: &[f32], w: &[F16], idx: &[u32], what: &str) -> Vec<f32> {
    let ldb = if transb { k } else { n };
    let run_dense = |tier| {
        let mut c = vec![f32::NAN; m * n];
        sgemm_with_tier(tier, false, transb, m, n, k, 1.0, a, k, w, ldb, 0.0, &mut c, n);
        c
    };
    let want = run_dense(Tier::Scalar);
    assert_eq!(bits(&run_dense(Tier::Avx2)), bits(&want), "sgemm across tiers: {what}");
    for tier in [Tier::Scalar, Tier::Avx2] {
        let mut c = vec![f32::NAN; m * n];
        sgemm_kept_on_path(Path::Kept, tier, transb, m, n, k, a, w, idx, &mut c);
        assert_eq!(bits(&c), bits(&want), "kept on {tier:?}: {what}");
    }
    let mut c = vec![f32::NAN; m * n];
    sgemm_kept(transb, m, n, k, a, w, idx, &mut c);
    assert_eq!(bits(&c), bits(&want), "dispatched: {what}");
    want
}

#[test]
fn the_kept_product_is_sgemm_bit_for_bit() {
    for transb in [true, false] {
        for &m in &[1usize, 3, 4, 5, 8, 9, 32, 63, 64, 65, 130] {
            // (n, k): off the tile and the vector; k past one KC block.
            for &(n, k) in &[(13usize, 37usize), (40, 5), (11, 300)] {
                for (d, &density) in [0.0, 0.05, 0.1, 0.5, 1.0].iter().enumerate() {
                    let seed = (m * 1009 + n * 131 + k * 7 + d) as u64;
                    let a = activations(m, k, seed);
                    let (rows, cols) = if transb { (n, k) } else { (k, n) };
                    let (idx, w) = weight(rows, cols, density, seed + 1);
                    let what = format!("transb {transb}, {m}x{n}x{k}, density {density}");
                    let c = assert_same(transb, m, n, k, &a, &w, &idx, &what);
                    if m > 9 && density > 0.0 {
                        assert!(c[9 * n..10 * n].iter().all(|v| v.to_bits() == 0), "the zero row: {what}");
                    }
                }
            }
        }
    }
}

#[test]
fn non_finite_operands_give_sgemm_s_bits() {
    let (n, k) = (21usize, 50usize);
    for transb in [true, false] {
        for &m in &[4usize, 9, 33] {
            let (rows, cols) = if transb { (n, k) } else { (k, n) };
            let (idx, w0) = weight(rows, cols, 0.3, m as u64);
            let a0 = activations(m, k, 40 + m as u64);
            // ±∞ at kept positions: a NaN where a zero of A meets one, an
            // ∞ where a finite value does, skipped behind a zero group.
            let mut w = w0.clone();
            for (t, &e) in idx.iter().enumerate().filter(|(t, _)| t % 17 == 3) {
                w[e as usize] = if t % 2 == 0 { F16::INFINITY } else { F16::NEG_INFINITY };
            }
            assert_same(transb, m, n, k, &a0, &w, &idx, &format!("∞ in W, transb {transb}, m {m}"));
            // One non-finite value of A sends the product to `sgemm`.
            for v in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN] {
                let mut a = a0.clone();
                a[(m - 1) * k + k / 2] = v;
                assert_same(transb, m, n, k, &a, &w0, &idx, &format!("{v} in A, transb {transb}, m {m}"));
            }
        }
    }
}

#[test]
fn products_that_cancel_or_underflow_take_the_dense_chain_s_sign() {
    // Tiny operands whose kept chain ends at `±0` or underflows: the sign
    // of a zero is the one thing the pruned steps can change.
    let (n, k) = (16usize, 24usize);
    for transb in [true, false] {
        for &m in &[1usize, 4, 6, 8, 12] {
            let (rows, cols) = if transb { (n, k) } else { (k, n) };
            let (idx, mut w) = weight(rows, cols, 0.5, 7 + m as u64);
            for h in w.iter_mut().filter(|h| h.0 & 0x7fff != 0) {
                *h = F16::from_f32(if h.to_f32() > 0.0 { 6e-5 } else { -6e-5 });
            }
            let mut g = Lcg::new(m as u64);
            let a: Vec<f32> = (0..m * k).map(|_| g.value() * 4e-42).collect();
            let c = assert_same(transb, m, n, k, &a, &w, &idx, &format!("underflow, transb {transb}, m {m}"));
            assert!(c.iter().any(|v| v.to_bits() == 0x8000_0000), "some output is -0: transb {transb}, m {m}");
        }
    }
}

#[test]
fn the_cut_reads_rows_and_density() {
    // `pipe2_mlp`'s shape at p = 0.9 takes both products, `dp2_tcp_wide`'s
    // four rows the forward only, `dp2_tcp_deep`'s one row neither; a
    // mask past a fifth kept keeps `sgemm`.
    let (numel, nnz) = (512 * 512, 26_214);
    let kept_pays = |rows, nnz, numel, transb| plan(if transb { Op::Nt } else { Op::Nn }, rows, nnz, numel) == Path::Kept;
    assert!(kept_pays(32, nnz, numel, true) && kept_pays(32, nnz, numel, false));
    assert!(kept_pays(4, nnz, numel, true) && !kept_pays(4, nnz, numel, false));
    assert!(kept_pays(5, nnz, numel, false) && kept_pays(2, nnz, numel, true));
    assert!(!kept_pays(1, nnz, numel, true) && !kept_pays(1, nnz, numel, false));
    assert!(kept_pays(32, numel / 5, numel, true) && !kept_pays(32, numel / 5 + 1, numel, true));
    assert!(!kept_pays(64, numel / 2, numel, false));
}

#[test]
#[should_panic(expected = "ascend")]
fn indices_out_of_order_are_refused() {
    let (a, w) = (vec![1.0f32; 8], vec![F16::ONE; 16]);
    let mut c = vec![0.0f32; 8];
    sgemm_kept_on_path(Path::Kept, Tier::Scalar, true, 2, 4, 4, &a, &w, &[9, 3], &mut c);
}

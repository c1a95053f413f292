//! The elementwise transcendental kernels (`gelu`, `gelu_grad_mul`,
//! `exp_sub`): the AVX2 tier against its scalar twin bit for bit — every
//! tail length, and a sweep across all f32 bit patterns with ±0,
//! subnormals, ±∞ and NaN payloads — and both against f64 references
//! within the bounds DESIGN.md §11 states. `softmax_rows` rides along: it
//! is `exp_sub`'s one caller. Runs under `SAMO_SIMD=off` and the default
//! tier in CI; the `*_tier` entry points pin each side whatever the
//! process-wide tier is.

use tensor::ops::softmax_rows;
use tensor::simd::{exp_sub_tier, gelu_grad_mul_tier, gelu_tier, Tier};

const SPECIALS: [u32; 14] = [
    0x0000_0000, // +0
    0x8000_0000, // -0
    0x0000_0001, // smallest subnormal
    0x807F_FFFF, // largest negative subnormal
    0x0080_0000, // smallest normal
    0x7F7F_FFFF, // f32::MAX
    0xFF7F_FFFF, // f32::MIN
    0x7F80_0000, // +inf
    0xFF80_0000, // -inf
    0x7FC0_0000, // quiet NaN
    0xFFC0_0000, // negative quiet NaN
    0x7F80_0001, // signalling NaN, low payload
    0xFFBF_FFFF, // negative signalling NaN, full payload
    0x7FC1_2345, // quiet NaN with a payload
];

/// Every 4093rd bit pattern of the 2³² (4093 is prime, so every exponent
/// and both signs are visited at many mantissas) and the specials.
fn pattern_sweep() -> Vec<f32> {
    (0..=u32::MAX).step_by(4093).chain(SPECIALS).map(f32::from_bits).collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|f| f.to_bits()).collect()
}

/// Runs the three kernels over `x` on `tier`: `(gelu, d·gelu′, exp(x − max))`.
fn run(tier: Tier, x: &[f32], d: &[f32], max: f32) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let mut y = vec![f32::NAN; x.len()];
    gelu_tier(tier, x, &mut y);
    let mut g = d.to_vec();
    gelu_grad_mul_tier(tier, x, &mut g);
    let mut e = x.to_vec();
    exp_sub_tier(tier, &mut e, max);
    (y, g, e)
}

fn assert_tiers_agree(x: &[f32], d: &[f32], max: f32) {
    let (ys, gs, es) = run(Tier::Scalar, x, d, max);
    let (yv, gv, ev) = run(Tier::Avx2, x, d, max);
    for (i, &xi) in x.iter().enumerate() {
        let at = format!("x = {xi:e} ({:#010x}), len {}", xi.to_bits(), x.len());
        assert_eq!(ys[i].to_bits(), yv[i].to_bits(), "gelu, {at}");
        assert_eq!(gs[i].to_bits(), gv[i].to_bits(), "gelu_grad_mul, {at}");
        assert_eq!(es[i].to_bits(), ev[i].to_bits(), "exp_sub (max {max:e}), {at}");
    }
}

#[test]
fn tiers_agree_bitwise_on_every_tail_length() {
    // 0..=33 covers no vector, whole vectors, and every remainder 1..=7
    // after one, two and four of them.
    for len in 0..=33usize {
        let x: Vec<f32> = (0..len).map(|i| (i as f32 - 13.0) * 0.37 + len as f32 * 0.01).collect();
        let d: Vec<f32> = (0..len).map(|i| 1.0 - i as f32 * 0.125).collect();
        assert_tiers_agree(&x, &d, 4.5);
    }
    // The specials at every position of a vector and of its tail.
    for shift in 0..8 {
        let mut x = vec![0.25f32; shift];
        x.extend(SPECIALS.map(f32::from_bits));
        assert_tiers_agree(&x, &vec![-1.5; x.len()], 0.0);
    }
}

#[test]
fn tiers_agree_bitwise_over_a_sweep_of_all_bit_patterns() {
    let x = pattern_sweep();
    assert!(x.len() > 1_000_000);
    let ones = vec![1.0f32; x.len()];
    assert_tiers_agree(&x, &ones, 0.0);
    // A softmax subtracts the row maximum, whatever it is: a large one, a
    // −∞ (an all-masked row: −∞ − −∞ is NaN), a NaN.
    for max in [80.0, -3.0e38, f32::NEG_INFINITY, f32::INFINITY, f32::NAN] {
        let (mut es, mut ev) = (x.clone(), x.clone());
        exp_sub_tier(Tier::Scalar, &mut es, max);
        exp_sub_tier(Tier::Avx2, &mut ev, max);
        assert_eq!(bits(&es), bits(&ev), "exp_sub with max {max:e}");
    }
}

fn tanh_u(x: f64) -> f64 {
    (2.0 / std::f64::consts::PI).sqrt() * (x + 0.044715 * x * x * x)
}

fn gelu_ref(x: f64) -> f64 {
    0.5 * x * (1.0 + tanh_u(x).tanh())
}

fn gelu_grad_ref(x: f64) -> f64 {
    let t = tanh_u(x).tanh();
    let du = (2.0 / std::f64::consts::PI).sqrt() * (1.0 + 3.0 * 0.044715 * x * x);
    0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du
}

#[test]
fn gelu_and_its_gradient_match_f64_references() {
    // A dense grid where the function bends, and every finite pattern of
    // the sweep whose cube stays finite (beyond, `u` saturates and the
    // reference's `0 · ∞` is not a number to compare with).
    let mut x: Vec<f32> = (-120_000..=120_000).map(|i| i as f32 * 1e-4).collect();
    x.extend(pattern_sweep().into_iter().filter(|v| v.abs() < 1e12));
    let ones = vec![1.0f32; x.len()];
    for tier in [Tier::Scalar, Tier::Avx2] {
        let (y, g, _) = run(tier, &x, &ones, 0.0);
        let (mut worst_y, mut worst_g) = (0.0f64, 0.0f64);
        for ((&xi, &yi), &gi) in x.iter().zip(&y).zip(&g) {
            let xf = xi as f64;
            let scale = xf.abs().max(1.0);
            let ey = (yi as f64 - gelu_ref(xf)).abs() / scale;
            let eg = (gi as f64 - gelu_grad_ref(xf)).abs();
            assert!(ey <= 2e-7, "{tier:?}: gelu({xi:e}) = {yi:e}, off by {ey:e}·max(|x|, 1)");
            assert!(eg <= 2.5e-6, "{tier:?}: gelu'({xi:e}) = {gi:e}, off by {eg:e}");
            worst_y = worst_y.max(ey);
            worst_g = worst_g.max(eg);
        }
        println!("{tier:?}: worst gelu error {worst_y:.3e}·max(|x|, 1), gelu' {worst_g:.3e}");
    }
}

#[test]
fn gelu_fixed_points_and_non_finite_inputs() {
    for tier in [Tier::Scalar, Tier::Avx2] {
        let x = [0.0f32, -0.0, 1.0, 30.0, -30.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
        let (y, g, _) = run(tier, &x, &[1.0; 8], 0.0);
        assert_eq!(y[0].to_bits(), 0.0f32.to_bits(), "gelu(0) is exactly 0");
        assert_eq!(y[1], 0.0);
        assert!((y[2] - 0.841_192).abs() < 1e-6);
        // Saturated: the identity on the right, zero on the left.
        assert_eq!((y[3], g[3]), (30.0, 1.0));
        assert_eq!((y[4], g[4]), (0.0, 0.0));
        // The limits libm's tanh gives the same formula.
        assert_eq!(y[5], f32::INFINITY);
        assert!(y[6].is_nan() && y[7].is_nan());
        // A non-finite activation must reach the gradient: the loss
        // scaler's overflow verdict reads it there.
        assert!(g[5].is_nan() && g[6].is_nan() && g[7].is_nan());
        assert_eq!(g[0], 0.5);
    }
}

#[test]
fn exp_sub_matches_f64_exp() {
    let x: Vec<f32> = (-880_000..=0).map(|i| i as f32 * 1e-4).collect();
    for tier in [Tier::Scalar, Tier::Avx2] {
        for max in [0.0f32, 3.25] {
            let mut e: Vec<f32> = x.iter().map(|v| v + max).collect();
            let arg: Vec<f64> = e.iter().map(|&v| v as f64 - max as f64).collect();
            exp_sub_tier(tier, &mut e, max);
            for (&a, &ei) in arg.iter().zip(&e) {
                let want = a.exp();
                if a < -87.0 {
                    // Gradual underflow, then exactly zero.
                    assert!((ei as f64 - want).abs() < 1e-37, "{tier:?}: exp({a})");
                } else {
                    let rel = (ei as f64 - want).abs() / want;
                    assert!(rel <= 2e-7, "{tier:?}: exp({a}) = {ei:e}, relative error {rel:e}");
                }
            }
        }
        let mut masked = [f32::NEG_INFINITY, -87.8, -1e30, 0.0];
        exp_sub_tier(tier, &mut masked, 0.0);
        assert_eq!(bits(&masked), bits(&[0.0, 0.0, 0.0, 1.0]));
    }
}

#[test]
fn softmax_rows_are_distributions_for_every_width() {
    // Widths across the vector tail lengths; rows sum to 1 and follow the
    // f64 softmax.
    for cols in 1..=33usize {
        let rows = 3;
        let logits: Vec<f32> =
            (0..rows * cols).map(|i| ((i * 37 % 101) as f32 - 50.0) * 0.21).collect();
        let mut p = logits.clone();
        softmax_rows(&mut p, rows, cols);
        for (row, src) in p.chunks(cols).zip(logits.chunks(cols)) {
            assert!((row.iter().sum::<f32>() - 1.0).abs() < 1e-6, "cols {cols}");
            let max = src.iter().cloned().fold(f32::MIN, f32::max) as f64;
            let denom: f64 = src.iter().map(|&v| (v as f64 - max).exp()).sum();
            for (&got, &v) in row.iter().zip(src) {
                assert!((got as f64 - (v as f64 - max).exp() / denom).abs() < 1e-6);
            }
        }
    }
}

#[test]
fn softmax_is_shift_invariant() {
    let base: Vec<f32> = (0..19).map(|i| (i as f32 * 0.77).sin() * 4.0).collect();
    let mut want = base.clone();
    softmax_rows(&mut want, 1, 19);
    for shift in [-1000.0f32, 64.0, 1000.0] {
        let mut got: Vec<f32> = base.iter().map(|v| v + shift).collect();
        softmax_rows(&mut got, 1, 19);
        for (g, w) in got.iter().zip(&want) {
            // The shift itself rounds the logits: ulp(1000) = 6e-5.
            assert!(g.is_finite() && (g - w).abs() < 2e-4, "shift {shift}: {g} vs {w}");
        }
    }
}

#[test]
fn softmax_of_a_row_holding_a_nan_is_nan() {
    // Not a silently finite distribution: the loss scaler has to see it.
    for cols in [1usize, 5, 8, 13, 32] {
        for at in [0, cols / 2, cols - 1] {
            let mut data: Vec<f32> = (0..2 * cols).map(|i| i as f32 * 0.1).collect();
            data[at] = f32::NAN;
            softmax_rows(&mut data, 2, cols);
            assert!(data[..cols].iter().all(|v| v.is_nan()), "cols {cols}, NaN at {at}");
            // The other row is untouched by it.
            assert!((data[cols..].iter().sum::<f32>() - 1.0).abs() < 1e-6);
        }
    }
    // An all-masked row has no maximum to subtract.
    let mut masked = vec![f32::NEG_INFINITY; 4];
    softmax_rows(&mut masked, 1, 4);
    assert!(masked.iter().all(|v| v.is_nan()));
}

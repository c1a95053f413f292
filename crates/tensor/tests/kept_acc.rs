//! The weight gradient summed at its kept positions. `matmul_tn_kept_acc`
//! must leave at every kept position the bits `matmul_tn_acc` leaves there
//! in a dense gradient, round after round (one to eight microbatches), on
//! each path the planner can pick for `Aᵀ·B` — `Transposed`, `Sampled` and
//! `RowBlocks` — on both tiers; and `matmul_tn_kept` must give one set of
//! halves and one overflow flag on all three, those of the fused compress
//! of the dense product. Rows 1–64 (off the eight lanes of the transposed
//! kernel and off the MR groups), a whole k-block of 256, and past it —
//! 257, 512 and 1000 rows, where `Sampled` (one k-block) drops out and the
//! row blocks carry their chains across k-blocks; output rows
//! off the row group and columns off the vector; rows of `dy` and whole MR
//! groups that are zero (the skip, in front of non-finite `x`); `±∞`, NaN
//! and `−0.0` in either operand; products that underflow; sums that start
//! from zeros or from values that include `−0.0`. CI runs the suite on the
//! default tier and under `SAMO_SIMD=off`, where every dispatch takes the
//! scalar twin the AVX2 kernels are held to.

mod partly_live;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tensor::f16::F16;
use tensor::gemm::{
    matmul_tn_acc, matmul_tn_kept, matmul_tn_kept_acc, matmul_tn_kept_acc_on_path, matmul_tn_kept_on_path, plan, Op,
    Path,
};
use tensor::simd::{gather_narrow_finite, Tier};

const PATHS: [Path; 3] = [Path::Transposed, Path::Sampled, Path::RowBlocks];
const TIERS: [Tier; 2] = [Tier::Scalar, Tier::Avx2];

/// `rows × cols` values of magnitude below `scale`, a sixth of them `±0.0`.
fn operand(rng: &mut StdRng, rows: usize, cols: usize, scale: f32) -> Vec<f32> {
    (0..rows * cols)
        .map(|_| match rng.gen_range(0..12) {
            0 => 0.0,
            1 => -0.0,
            _ => rng.gen_range(-1.0f32..1.0) * scale,
        })
        .collect()
}

/// About `density` of `0..numel`, ascending.
fn kept(rng: &mut StdRng, numel: usize, density: f64) -> Vec<u32> {
    (0..numel as u32).filter(|_| rng.gen_range(0.0..1.0) < density).collect()
}

/// What one microbatch brings: `dy` (`k × m`) and `x` (`k × n`), with
/// something planted. `plant` picks it: nothing, a zero row of `dy`, an MR
/// group of output rows zero in every row of `dy` with an infinity in `x`
/// behind it, or one of `∞`, `−∞`, NaN, `−0.0` in `dy` or in `x`.
fn microbatch(rng: &mut StdRng, (m, n, k): (usize, usize, usize), scale: f32, plant: u32) -> (Vec<f32>, Vec<f32>) {
    let (mut dy, mut x) = (operand(rng, k, m, scale), operand(rng, k, n, scale));
    let specials = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN, -0.0];
    match plant {
        1 => {
            let p = rng.gen_range(0..k);
            dy[p * m..(p + 1) * m].fill(0.0);
        }
        2 => {
            let g = rng.gen_range(0..m.div_ceil(4)) * 4;
            for row in dy.chunks_mut(m) {
                row[g..(g + 4).min(m)].fill(0.0);
            }
            let p = rng.gen_range(0..k);
            x[p * n + rng.gen_range(0..n)] = f32::INFINITY;
        }
        3..=6 => dy[rng.gen_range(0..k * m)] = specials[plant as usize - 3],
        7..=10 => x[rng.gen_range(0..k * n)] = specials[plant as usize - 7],
        _ => {}
    }
    (dy, x)
}

/// The first kept position where `got` and `want` differ, for the report.
/// Two NaNs are the same sum: where a NaN sum meets a NaN chain, which of
/// the two payloads an addition keeps is the compiler's choice (`fadd`
/// commutes) in the dense gradient as much as here.
fn first_diff(got: &[f32], want: &[u32]) -> Option<(usize, f32, f32)> {
    let same = |g: f32, w: f32| g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan());
    let at = got.iter().zip(want).position(|(&g, &w)| !same(g, f32::from_bits(w)))?;
    Some((at, got[at], f32::from_bits(want[at])))
}

/// The whole contract for one shape, mask and run of microbatches: every
/// round, every path and tier — pinned and planned — sums to the dense
/// gradient's bits at the kept positions, and narrows each microbatch to
/// the fused compress's halves and flag. `Sampled` takes one k-block only.
fn check(
    (m, n, k): (usize, usize, usize),
    idx: &[u32],
    start: &[f32],
    rounds: &[(Vec<f32>, Vec<f32>)],
) -> Result<(), TestCaseError> {
    // The dense gradient holds the starting sums at the kept positions.
    let mut dense = vec![0.0f32; m * n];
    for (&i, &s) in idx.iter().zip(start) {
        dense[i as usize] = s;
    }
    let mut sums: Vec<Vec<f32>> = vec![start.to_vec(); PATHS.len() * TIERS.len() + 1];
    for (round, (dy, x)) in rounds.iter().enumerate() {
        matmul_tn_acc(m, n, k, dy, x, &mut dense);
        let want: Vec<u32> = idx.iter().map(|&i| dense[i as usize].to_bits()).collect();
        let (pinned, planned) = sums.split_at_mut(PATHS.len() * TIERS.len());
        matmul_tn_kept_acc(m, n, k, dy, x, idx, &mut planned[0]);
        let diff = first_diff(&planned[0], &want);
        prop_assert!(diff.is_none(), "planned sum, round {}: {:?}", round, diff);
        let cases = paths(k).flat_map(|p| TIERS.map(|t| (p, t)));
        for ((path, tier), sum) in cases.zip(pinned) {
            matmul_tn_kept_acc_on_path(path, tier, m, n, k, dy, x, idx, sum);
            let diff = first_diff(sum, &want);
            prop_assert!(diff.is_none(), "{:?} sum on {:?}, round {}: {:?}", path, tier, round, diff);
        }

        // This microbatch alone, narrowed: the fused compress of the dense
        // product accumulated into zeros.
        let mut product = vec![0.0f32; m * n];
        matmul_tn_acc(m, n, k, dy, x, &mut product);
        let mut halves = vec![F16::ZERO; idx.len()];
        let finite = gather_narrow_finite(Tier::Scalar, &product, 0, idx, &mut halves);
        let mut got = vec![F16::from_f32(-3.0); idx.len()];
        prop_assert_eq!(matmul_tn_kept(m, n, k, dy, x, idx, &mut got), finite, "planned flag, round {}", round);
        prop_assert_eq!(&got, &halves, "planned halves, round {}", round);
        for path in paths(k) {
            for tier in TIERS {
                got.fill(F16::from_f32(-3.0));
                let flag = matmul_tn_kept_on_path(path, tier, m, n, k, dy, x, idx, &mut got);
                prop_assert_eq!(flag, finite, "{:?} flag on {:?}, round {}", path, tier, round);
                prop_assert_eq!(&got, &halves, "{:?} halves on {:?}, round {}", path, tier, round);
            }
        }
    }
    Ok(())
}

/// The paths of a product `k` rows deep.
fn paths(k: usize) -> impl Iterator<Item = Path> {
    PATHS.into_iter().filter(move |&p| p != Path::Sampled || k <= 256)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn kept_sums_are_the_dense_gradient_at_the_index_on_every_path(
        m in 1usize..72,
        n in 1usize..40,
        k in 1usize..65,
        density_pick in 0usize..5,
        rounds in 1usize..9,
        prefilled in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let density = [0.0, 0.05, 0.1, 0.5, 1.0][density_pick];
        let idx = kept(&mut rng, m * n, density);
        // Ordinary magnitudes, gradients that overflow the half range, and
        // products that underflow to signed zeros and subnormals.
        let scale = [1.0f32, 300.0, 1e-22][rng.gen_range(0..3)];
        let start = if prefilled { operand(&mut rng, 1, idx.len(), 4.0) } else { vec![0.0; idx.len()] };
        let batches: Vec<_> = (0..rounds).map(|_| {
            let plant = rng.gen_range(0..16);
            microbatch(&mut rng, (m, n, k), scale, plant)
        }).collect();
        check((m, n, k), &idx, &start, &batches)?;
    }
}

#[test]
fn a_whole_k_block_and_the_pipeline_shape_hold_too() {
    let mut rng = StdRng::seed_from_u64(7);
    // 256 rows, the deepest the chained paths take; then `pipe2_mlp`'s
    // 32 rows of a 512-wide layer at p = 0.9 over its eight microbatches.
    for ((m, n, k), rounds) in [((37, 29, 256), 3), ((512, 64, 32), 8)] {
        let idx = kept(&mut rng, m * n, 0.1);
        let batches: Vec<_> = (0..rounds).map(|r| microbatch(&mut rng, (m, n, k), 1.0, r as u32 % 3)).collect();
        check((m, n, k), &idx, &vec![0.0; idx.len()], &batches).unwrap();
    }
    assert_eq!(plan(Op::Tn, 32, 26_214, 512 * 512), Path::Transposed, "pipe2_mlp's dW is transposed");
}

#[test]
fn past_one_k_block_the_transposed_sums_are_the_dense_gradient() {
    // One step past a k-block, `gpt_single`'s 512 rows and 1000: ordinary
    // and underflowing products (`−0.0` chains), sums from zeros and from
    // values with `−0.0`, each microbatch's plant; then partly live groups
    // with one MR group dead over steps 250..262 — its block of eight
    // astride step 256 — and `∞` in `x` behind it.
    let mut rng = StdRng::seed_from_u64(13);
    for (m, n, k) in [(37, 29, 257), (64, 33, 512), (19, 24, 1000)] {
        for scale in [1.0f32, 1e-22] {
            let idx = kept(&mut rng, m * n, 0.1);
            let start = operand(&mut rng, 1, idx.len(), 4.0);
            let batches: Vec<_> = (0..3).map(|r| microbatch(&mut rng, (m, n, k), scale, [0, 2, 5][r])).collect();
            check((m, n, k), &idx, &start, &batches).unwrap();
            let (mut dy, mut x) = partly_live::operands(m, n, k, scale, true, rng.gen());
            for p in 250..k.min(262) {
                dy[p * m + 4..p * m + 8].fill(0.0);
            }
            x[256 * n + 5] = f32::INFINITY;
            check((m, n, k), &idx, &start, &[(dy, x)]).unwrap();
        }
        assert_eq!(plan(Op::Tn, k, (m * n) / 10, m * n), Path::Transposed, "{k} rows at p = 0.9 are transposed");
    }
}

#[test]
fn an_empty_index_is_no_work_on_any_path() {
    // No position, so no chain: not even B's transpose. Operands that
    // would poison any product, and a flag that stays finite.
    let (m, n, k) = (8, 8, 600);
    let (a, b) = (vec![f32::NAN; k * m], vec![f32::INFINITY; k * n]);
    assert_eq!(plan(Op::Tn, k, 0, m * n), Path::Transposed);
    assert!(matmul_tn_kept(m, n, k, &a, &b, &[], &mut []));
    matmul_tn_kept_acc(m, n, k, &a, &b, &[], &mut []);
    for path in paths(k) {
        for tier in TIERS {
            assert!(matmul_tn_kept_on_path(path, tier, m, n, k, &a, &b, &[], &mut []), "{path:?} on {tier:?}");
        }
    }
}

#[test]
fn partly_live_row_groups_sum_and_narrow_to_the_dense_gradient() {
    // Row groups dead at scattered steps, rows zero where their group is
    // live, non-finite B exactly at dead steps, signed zeros and products
    // that underflow, from sums that include `−0.0`: the partly live
    // blocks behind a ReLU, up to `pipe2_mlp`'s shape over its eight
    // microbatches.
    let mut rng = StdRng::seed_from_u64(11);
    for ((m, n, k), rounds) in [((12, 40, 9), 3), ((37, 24, 32), 3), ((64, 33, 17), 3), ((512, 64, 32), 8)] {
        for (scale, non_finite) in [(1.0f32, false), (1.0, true), (1e-22, false), (1e-22, true)] {
            let idx = kept(&mut rng, m * n, 0.3);
            let start = operand(&mut rng, 1, idx.len(), 4.0);
            let batches: Vec<_> =
                (0..rounds).map(|_| partly_live::operands(m, n, k, scale, non_finite, rng.gen())).collect();
            check((m, n, k), &idx, &start, &batches).unwrap();
        }
    }
}

#[test]
#[should_panic(expected = "out of bounds")]
fn an_index_below_its_predecessors_row_is_refused_by_the_transposed_path() {
    let (a, b) = (vec![1.0f32; 32], vec![1.0f32; 32]);
    let mut acc = vec![0.0f32; 2];
    matmul_tn_kept_acc_on_path(Path::Transposed, Tier::Scalar, 4, 4, 8, &a, &b, &[9, 3], &mut acc);
}

//! The fused SAMO step (`compress_grad_fused` + `optimizer_step_owned`,
//! and for shards `scatter_gathered`) must be **bitwise identical** to
//! the three-phase reference of `samo::reference` (`compress_grad` +
//! `grads_non_finite` + `optimizer_step_shard` + `install_gathered` +
//! `dense_f32_params`): same θ32, θ16, ∇θ16, ∇θ32, optimizer state and
//! dense fp32 compute view, same overflow verdict — on a full state and
//! on every shard of `d ∈ {2, 3}` ranks (where the reference all-reduces
//! `∇θ16` and a fused rank is handed the mean on its own range only, as
//! the reduce-scatter leaves it), for Adam and SGD-momentum, across
//! multiple steps, at any sparsity including the fully dense (p = 0) and
//! fully pruned (p = 1) extremes and fewer survivors than ranks, and
//! with non-finite gradients injected — alternately at a kept and at a
//! pruned position. One input is a matrix large enough that the kernel
//! pool cuts both fused kernels into several tasks, between two
//! compressed positions in the middle of a row.
//!
//! Adam's fused pass has an AVX2 tier (`tensor::simd::adam_sweep_vector`:
//! whole groups of eight positions of a task's range, the scalar loop
//! finishing the tail) and the three-phase reference has none, so on the
//! default tier every comparison here is vector against scalar and under
//! `SAMO_SIMD=off` scalar against scalar — CI runs both, each on one and
//! on the default number of kernel threads. One test aims at the lanes,
//! with both tiers pinned in one process: every owned length from nothing
//! to four vectors and a tail, gradients at the edges of half precision,
//! the f32 view held and released.

use nn::mixed::{OptState, Optimizer};
use nn::optim::{AdamConfig, SgdConfig};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use samo::reference::{compress_grad, grads_non_finite, install_gathered, optimizer_step_shard, to_full_layer};
use samo::SamoLayerState;
use tensor::f16::F16;
use tensor::simd::Tier;

fn adam() -> Optimizer {
    Optimizer::Adam(AdamConfig {
        lr: 0.02,
        weight_decay: 0.01,
        ..Default::default()
    })
}

fn sgd() -> Optimizer {
    Optimizer::Sgd(SgdConfig {
        lr: 0.05,
        momentum: 0.9,
        weight_decay: 0.001,
    })
}

fn bits16(v: &[F16]) -> Vec<u16> {
    v.iter().map(|h| h.0).collect()
}

fn bits32(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn assert_os_eq(a: &OptState, b: &OptState) -> Result<(), TestCaseError> {
    match (a, b) {
        (OptState::Adam(x), OptState::Adam(y)) => {
            prop_assert_eq!(bits32(&x.m), bits32(&y.m));
            prop_assert_eq!(bits32(&x.v), bits32(&y.v));
            prop_assert_eq!(x.step, y.step);
        }
        (OptState::Sgd(x), OptState::Sgd(y)) => {
            prop_assert_eq!(bits32(&x.velocity), bits32(&y.velocity));
        }
        _ => prop_assert!(false, "optimizer state kind mismatch"),
    }
    Ok(())
}

/// Drives both paths on `d` ranks from identical initial state and
/// per-rank gradients and asserts bit-equality of everything after every
/// step. Every third step optionally injects a non-finite gradient on
/// one rank to exercise the group verdict and the skip path: at a kept
/// position, then at a pruned one (which nobody may notice), and so on.
fn assert_fused_matches_reference(
    opt: Optimizer,
    shape: &[usize],
    sparsity: f64,
    d: usize,
    steps: usize,
    seed: u64,
    inject_overflow: bool,
) -> Result<(), TestCaseError> {
    let numel: usize = shape.iter().product();
    let mask = prune::random_prune(shape, sparsity, seed);
    let kept = mask.to_bools();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xF05E);
    let init: Vec<f32> = (0..numel).map(|_| rng.gen_range(-2.0f32..2.0)).collect();

    let mut fused: Vec<SamoLayerState> = (0..d)
        .map(|r| SamoLayerState::from_params_sharded(&init, mask.clone(), &opt, r, d))
        .collect();
    let mut refr = fused.clone();
    // The fused kernel's dense output buffers: each starts as the shared
    // dense view (zero at pruned positions, per its precondition) and is
    // updated in place by scatter alone afterwards.
    let mut dense: Vec<Vec<f32>> = fused.iter().map(|st| st.dense_f32_params()).collect();
    let inv_loss_scale = 1.0f32 / 8.0;

    for step in 0..steps {
        let mut all_finite = true;
        for r in 0..d {
            let mut grads: Vec<f32> = (0..numel).map(|_| rng.gen_range(-4.0f32..4.0)).collect();
            if inject_overflow && step % 3 == 1 && r == step % d {
                // The first position from a random one on that is kept
                // (even injections) or pruned (odd ones), if there is one.
                let (nth, from) = (step / 3, rng.gen_range(0..numel));
                let at = (from..numel).chain(0..from).find(|&i| kept[i] == (nth % 2 == 0));
                let value = if nth / 2 % 2 == 0 { f32::INFINITY } else { f32::NAN };
                grads[at.unwrap_or(from)] = value;
            }
            let finite = fused[r].compress_grad_fused(&grads);
            compress_grad(&mut refr[r], &grads);
            prop_assert_eq!(finite, !grads_non_finite(&refr[r]), "rank {} step {}", r, step);
            prop_assert_eq!(bits16(&fused[r].grad16), bits16(&refr[r].grad16));
            all_finite &= finite;
        }

        // The reference all-reduces; a fused rank gets the mean on its
        // owned range only and keeps its local values elsewhere.
        let mut bufs: Vec<&mut [F16]> = refr.iter_mut().map(|st| &mut st.grad16[..]).collect();
        comms::reference::allreduce_mean_f16(&mut bufs).expect("one layout");
        for (f, r) in fused.iter_mut().zip(&refr) {
            let (lo, hi) = f.shard_range();
            f.grad16[lo..hi].copy_from_slice(&r.grad16[lo..hi]);
        }
        // The AND of the ranks' local flags is the verdict a scan of the
        // reduced bits reaches.
        let reduced_finite = !refr.iter().any(grads_non_finite);
        prop_assert_eq!(all_finite, reduced_finite, "verdict diverged at step {}", step);

        if all_finite {
            // Mirrors the engine: apply only when all finite.
            let mut gathered = vec![F16::ZERO; mask.nnz()];
            let mut gathered_ref = gathered.clone();
            for r in 0..d {
                let (lo, hi) = fused[r].shard_range();
                let mine = fused[r].optimizer_step_owned(&opt, inv_loss_scale, &mut dense[r]);
                let shard16 = optimizer_step_shard(&mut refr[r], &opt, inv_loss_scale);
                if d == 1 {
                    prop_assert!(mine.is_empty(), "a full state gathers nothing");
                } else {
                    prop_assert_eq!(bits16(&mine), bits16(&shard16));
                    gathered[lo..hi].copy_from_slice(&mine);
                }
                gathered_ref[lo..hi].copy_from_slice(&shard16);
            }
            for r in 0..d {
                fused[r].scatter_gathered(&gathered, &mut dense[r]);
                install_gathered(&mut refr[r], &gathered_ref);
                let dense_ref = refr[r].dense_f32_params();
                prop_assert_eq!(bits32(&fused[r].theta32), bits32(&refr[r].theta32));
                prop_assert_eq!(bits16(&fused[r].theta16), bits16(&refr[r].theta16));
                prop_assert_eq!(bits32(&fused[r].grad32), bits32(&refr[r].grad32));
                prop_assert_eq!(bits32(&dense[r]), bits32(&dense_ref));
                assert_os_eq(&fused[r].os, &refr[r].os)?;
            }
        }

        // A checkpoint assembles ∇θ16 from each owner's range, so the
        // ranks' differing local values elsewhere never reach it.
        let full = to_full_layer(&fused.iter().collect::<Vec<_>>());
        let full_ref = to_full_layer(&refr.iter().collect::<Vec<_>>());
        prop_assert_eq!(bits16(&full.grad16), bits16(&full_ref.grad16));
        prop_assert_eq!(bits32(&full.theta32), bits32(&full_ref.theta32));
        prop_assert_eq!(bits16(&full.theta16), bits16(&full_ref.theta16));
        assert_os_eq(&full.os, &full_ref.os)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn fused_step_equals_three_phase_adam(
        numel in 1usize..600,
        sparsity in 0.0f64..1.0,
        d in 1usize..4,
        seed in any::<u64>(),
    ) {
        assert_fused_matches_reference(adam(), &[numel], sparsity, d, 6, seed, false)?;
    }

    #[test]
    fn fused_step_equals_three_phase_sgd(
        numel in 1usize..600,
        sparsity in 0.0f64..1.0,
        d in 1usize..4,
        seed in any::<u64>(),
    ) {
        assert_fused_matches_reference(sgd(), &[numel], sparsity, d, 6, seed, false)?;
    }

    #[test]
    fn fused_step_equals_three_phase_with_overflows(
        numel in 1usize..400,
        sparsity in 0.0f64..1.0,
        d in 1usize..4,
        seed in any::<u64>(),
    ) {
        assert_fused_matches_reference(adam(), &[numel], sparsity, d, 9, seed, true)?;
        assert_fused_matches_reference(sgd(), &[numel], sparsity, d, 9, seed, true)?;
    }
}

/// The mask extremes deserve explicit coverage: p = 0 keeps every
/// parameter (compressed length == numel), p = 1 keeps none (every
/// kernel is a no-op over an empty index set), and a handful of
/// survivors leaves some of three ranks an empty range (`nnz < d`). So
/// does the other end: a 131 × 1021 matrix keeping ≈ 94 k values is
/// more than two pool chunks at the step kernels' 32 k granularity, so
/// on a pool with more than one worker `∇θ16` and a full state's owned
/// range are cut between two compressed positions — which, with every
/// row keeping its own ≈ 715 values, lie inside a row — and the pieces
/// run on different threads; its six steps inject an `inf` once at a
/// kept and once at a pruned position.
#[test]
fn fused_step_handles_dense_empty_and_thinner_than_the_group_masks() {
    for opt in [adam(), sgd()] {
        for d in 1..=3 {
            for (numel, sparsity) in [(193, 0.0), (193, 1.0), (5, 0.6), (3, 0.5)] {
                assert_fused_matches_reference(opt.clone(), &[numel], sparsity, d, 5, 42, true)
                    .expect("fused/reference divergence at a mask extreme");
            }
        }
        for d in 1..=2 {
            assert_fused_matches_reference(opt.clone(), &[131, 1021], 0.3, d, 6, 7, true)
                .expect("fused/reference divergence on a mask the pool cuts mid-row");
        }
    }
}

/// The vector sweep against the scalar reference where lanes could
/// differ: owned ranges of 0..=33 positions (no vector, whole vectors,
/// every tail), full and as two shards, with the model's f32 view held
/// (`VIEW`) and released, over 20 consecutive steps so moments, bias
/// corrections and weights all move — on gradients that are zero, `±0`,
/// subnormal and the largest and smallest normal halves, scaled down by
/// a loss scale that makes f32 subnormals of the small ones.
#[test]
fn the_vector_sweep_is_the_scalar_sweep_lane_for_lane() {
    let edge = [0x0000u16, 0x8000, 0x0001, 0x83FF, 0x0400, 0x7BFF, 0xFBFF, 0x3C00, 0xB555, 0x2E66];
    for opt in [adam(), Optimizer::Adam(AdamConfig::default())] {
        for nnz in 0usize..=33 {
            // Every other position kept, so the scatter has gaps to skip.
            let numel = 2 * nnz + 3;
            let mask = prune::Mask::new(&[numel], (0..nnz as u32).map(|j| 2 * j + 1).collect());
            let init: Vec<f32> = (0..numel).map(|i| (i as f32 - nnz as f32) * 0.37).collect();
            for d in 1..=2usize {
                for held in [true, false] {
                    let mut fused: Vec<SamoLayerState> = (0..d)
                        .map(|r| SamoLayerState::from_params_sharded(&init, mask.clone(), &opt, r, d))
                        .collect();
                    let mut refr = fused.clone();
                    let mut scalar = fused.clone();
                    let view = |st: &SamoLayerState| if held { st.dense_f32_params() } else { Vec::new() };
                    let mut dense: Vec<Vec<f32>> = fused.iter().map(view).collect();
                    let mut dense_scalar = dense.clone();
                    for step in 0..20usize {
                        let inv_loss_scale = if step % 2 == 0 { 1.0 / 1024.0 } else { 1e-30 };
                        let grads: Vec<F16> =
                            (0..nnz).map(|j| F16::from_bits(edge[(j * 7 + step * 3) % edge.len()])).collect();
                        let mut gathered = vec![F16::ZERO; nnz];
                        for r in 0..d {
                            fused[r].grad16.copy_from_slice(&grads);
                            refr[r].grad16.copy_from_slice(&grads);
                            let (lo, hi) = fused[r].shard_range();
                            let mine =
                                fused[r].optimizer_step_owned_on(Tier::Avx2, &opt, inv_loss_scale, &mut dense[r]);
                            let shard16 = optimizer_step_shard(&mut refr[r], &opt, inv_loss_scale);
                            assert_eq!(mine.len(), if d == 1 { 0 } else { hi - lo });
                            scalar[r].grad16.copy_from_slice(&grads);
                            let view = &mut dense_scalar[r];
                            let mine_scalar = scalar[r].optimizer_step_owned_on(Tier::Scalar, &opt, inv_loss_scale, view);
                            assert_eq!(bits16(&mine_scalar), bits16(&mine), "payload across tiers");
                            gathered[lo..hi].copy_from_slice(&shard16);
                            if d > 1 {
                                assert_eq!(bits16(&mine), bits16(&shard16), "payload");
                            }
                        }
                        for r in 0..d {
                            fused[r].scatter_gathered(&gathered, &mut dense[r]);
                            scalar[r].scatter_gathered(&gathered, &mut dense_scalar[r]);
                            assert_eq!(bits32(&dense_scalar[r]), bits32(&dense[r]), "view across tiers");
                            assert_eq!(bits32(&scalar[r].theta32), bits32(&fused[r].theta32), "θ32 across tiers");
                            install_gathered(&mut refr[r], &gathered);
                            let ctx = format!("nnz {nnz}, rank {r} of {d}, view held {held}, step {step}");
                            assert_eq!(bits32(&fused[r].theta32), bits32(&refr[r].theta32), "θ32: {ctx}");
                            assert_eq!(bits16(&fused[r].theta16), bits16(&refr[r].theta16), "θ16: {ctx}");
                            assert_eq!(bits32(&fused[r].grad32), bits32(&refr[r].grad32), "∇θ32: {ctx}");
                            assert_os_eq(&fused[r].os, &refr[r].os).expect(&ctx);
                            if held {
                                assert_eq!(bits32(&dense[r]), bits32(&refr[r].dense_f32_params()), "view: {ctx}");
                            } else {
                                assert!(dense[r].is_empty(), "a released view stays released");
                            }
                        }
                    }
                }
            }
        }
    }
}

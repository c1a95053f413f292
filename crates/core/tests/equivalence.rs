//! The reproduction's core correctness theorem:
//!
//! **SAMO training is numerically identical to dense masked
//! mixed-precision training.**
//!
//! The paper validates its implementation end-to-end (Fig. 4, matching
//! perplexity curves). Here we prove the stronger statement directly: for
//! the same pruned network, data and hyperparameters, the SAMO trainer
//! (compressed model state) and the dense masked baseline produce
//! *bit-identical* fp32 master parameters after any number of steps, for
//! both Adam and SGD. Matching Fig. 4 curves follow a fortiori.

use nn::layer::{Layer, Sequential};
use nn::linear::Linear;
use nn::loss::mse;
use nn::mixed::Optimizer;
use nn::optim::{AdamConfig, SgdConfig};
use proptest::prelude::*;
use prune::Mask;
use samo::compressed::compress;
use samo::reference::DenseMaskedTrainer;
use samo::trainer::SamoTrainer;
use tensor::f16::F16;
use tensor::Tensor;

fn build_model(in_dim: usize, hidden: usize, out_dim: usize, seed: u64) -> Sequential {
    Sequential::new()
        .push(Linear::new(in_dim, hidden, true, seed))
        .push(nn::activations::Gelu::new())
        .push(Linear::new(hidden, out_dim, true, seed + 1))
}

fn masks_for(model: &Sequential, sparsity: f64, seed: u64) -> Vec<Mask> {
    model
        .params()
        .iter()
        .enumerate()
        .map(|(i, p)| {
            if p.value.shape().len() >= 2 {
                prune::random_prune(p.value.shape(), sparsity, seed + i as u64)
            } else {
                Mask::dense(p.value.shape()) // biases stay dense
            }
        })
        .collect()
}

/// Runs `steps` of training with both trainers on identical models/data
/// and asserts bitwise-equal master parameters throughout.
fn assert_equivalent(
    opt: Optimizer,
    sparsity: f64,
    steps: usize,
    seed: u64,
) -> Result<(), TestCaseError> {
    let (in_dim, hidden, out_dim, batch) = (5, 8, 3, 6);
    let mut model_samo = build_model(in_dim, hidden, out_dim, seed);
    let mut model_dense = build_model(in_dim, hidden, out_dim, seed);
    let masks = masks_for(&model_samo, sparsity, seed + 100);

    let mut samo_tr = SamoTrainer::new(&mut model_samo, masks.clone(), opt.clone());
    let mut dense_tr = DenseMaskedTrainer::new(&mut model_dense, masks.clone(), opt);

    // After init, both models hold identical pruned fp16-rounded params:
    // SAMO's weights as the lent θ16, the dense baseline's as f32.
    for (a, b) in model_samo.params().iter().zip(model_dense.params()) {
        prop_assert_eq!(&a.f32_view()[..], b.value.as_slice());
    }

    for step in 0..steps {
        let x = Tensor::randn(&[batch, in_dim], 1.0, seed + 1000 + step as u64);
        let target = Tensor::randn(&[batch, out_dim], 1.0, seed + 2000 + step as u64);

        let y1 = model_samo.forward(&x);
        let (_, mut dy1) = mse(&y1, &target);
        tensor::ops::scale(samo_tr.loss_scale(), dy1.as_mut_slice());
        model_samo.backward(&dy1);
        samo_tr.step(&mut model_samo);

        let y2 = model_dense.forward(&x);
        let (_, mut dy2) = mse(&y2, &target);
        tensor::ops::scale(dense_tr.loss_scale(), dy2.as_mut_slice());
        model_dense.backward(&dy2);
        dense_tr.step(&mut model_dense);

        // Compressed θ32 must equal the compressed view of the dense θ32.
        for ((samo_layer, (dense_state, mask)), _) in samo_tr
            .layers
            .iter()
            .zip(&dense_tr.layers)
            .zip(0..)
        {
            let dense_c = compress(&dense_state.theta32, mask);
            prop_assert_eq!(
                &samo_layer.theta32,
                &dense_c,
                "θ32 diverged at step {}",
                step
            );
        }
        // And the compute models see identical parameters.
        for (a, b) in model_samo.params().iter().zip(model_dense.params()) {
            prop_assert_eq!(&a.f32_view()[..], b.value.as_slice());
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn samo_equals_dense_masked_adam(
        sparsity in 0.0f64..0.95,
        seed in any::<u64>(),
    ) {
        let opt = Optimizer::Adam(AdamConfig { lr: 0.01, weight_decay: 0.01, ..Default::default() });
        assert_equivalent(opt, sparsity, 5, seed)?;
    }

    #[test]
    fn samo_equals_dense_masked_sgd(
        sparsity in 0.0f64..0.95,
        seed in any::<u64>(),
    ) {
        let opt = Optimizer::Sgd(SgdConfig { lr: 0.05, momentum: 0.9, weight_decay: 0.0 });
        assert_equivalent(opt, sparsity, 5, seed)?;
    }

    /// compress/expand identities on random data and masks.
    #[test]
    fn expand_compress_identities(
        numel in 1usize..500,
        sparsity in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let mask = prune::random_prune(&[numel], sparsity, seed);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xFACE);
        let dense: Vec<f32> = (0..numel).map(|_| rng.gen_range(-10.0f32..10.0)).collect();

        // expand ∘ compress = mask
        let roundtrip = samo::expand(&compress(&dense, &mask), &mask);
        let mut masked = dense.clone();
        mask.apply(&mut masked);
        prop_assert_eq!(roundtrip, masked);

        // compress ∘ expand = identity on compressed data
        let values: Vec<f32> = (0..mask.nnz()).map(|_| rng.gen_range(-10.0f32..10.0)).collect();
        let back = compress(&samo::expand(&values, &mask), &mask);
        prop_assert_eq!(back, values);
    }

    /// Measured bytes of a live SamoTrainer match the Sec. III-D formula
    /// exactly, for any sparsity.
    #[test]
    fn measured_memory_matches_analytic_model(
        sparsity in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let phi = 4096usize;
        let mut model = Linear::from_weights(Tensor::randn(&[64, 64], 1.0, seed), None);
        let mask = prune::random_prune(&[64, 64], sparsity, seed);
        let nnz = mask.nnz() as u64;
        let tr = SamoTrainer::new(&mut model, vec![mask], Optimizer::Adam(AdamConfig::default()));
        // Formula in terms of exact nnz (avoids rounding of p·φ):
        // peak = 2φ (θ16) + (4+4+2+4+8+2)·nnz (ind, θ32, ∇θ16, ∇θ32, os, temp)
        prop_assert_eq!(tr.model_state_bytes(true), 2 * phi as u64 + 24 * nnz);
        prop_assert_eq!(tr.model_state_bytes(false), 2 * phi as u64 + 22 * nnz);
    }
}

/// Deterministic long-run equivalence (more steps than the proptest).
#[test]
fn long_run_equivalence_adam() {
    let opt = Optimizer::Adam(AdamConfig {
        lr: 0.02,
        ..Default::default()
    });
    assert_equivalent(opt, 0.9, 40, 424242).unwrap();
}

/// Two microbatches' backward passes before each step: on the first step
/// and on a step a schedule updates on they add into the dense gradient,
/// on every other step into the kept sums the trainer lends — and either
/// way SAMO trains the dense masked baseline's bits, whose gradient is
/// always dense. Under a schedule the baseline takes each mask the
/// trainer moved to before its own step, as the remap does: a regrown
/// position enters with zero moments, a dead one is zero at once.
fn assert_microbatches_equivalent(schedule: Option<prune::MaskSchedule>, steps: u64) {
    let (in_dim, hidden, out_dim, rows) = (6, 10, 4, 3);
    let opt = Optimizer::Adam(AdamConfig { lr: 0.01, weight_decay: 0.01, ..Default::default() });
    let mut model_samo = build_model(in_dim, hidden, out_dim, 151);
    let mut model_dense = build_model(in_dim, hidden, out_dim, 151);
    let masks = masks_for(&model_samo, 0.6, 152);
    let mut samo_tr = SamoTrainer::new(&mut model_samo, masks.clone(), opt.clone());
    let mut dense_tr = DenseMaskedTrainer::new(&mut model_dense, masks, opt);
    let updates = |t: u64| schedule.as_ref().is_some_and(|s| s.is_update_step(t));
    let lent_want = (1..steps).filter(|&t| !updates(t)).count();
    if let Some(s) = schedule.clone() {
        samo_tr.set_mask_schedule(s).expect("a new trainer lends no sums");
    }
    let mut lent_steps = 0;
    for step in 0..steps {
        lent_steps += usize::from(model_samo.params()[0].grad_sums().is_some());
        for k in 0..2 {
            let seed = 7000 + 10 * step + k;
            let x = Tensor::randn(&[rows, in_dim], 1.0, seed);
            let target = Tensor::randn(&[rows, out_dim], 1.0, seed + 5);
            for (model, scale) in [(&mut model_samo, samo_tr.loss_scale()), (&mut model_dense, dense_tr.loss_scale())] {
                let y = model.forward(&x);
                let (_, mut dy) = mse(&y, &target);
                tensor::ops::scale(scale, dy.as_mut_slice());
                model.backward(&dy);
            }
        }
        samo_tr.step(&mut model_samo);
        let layers = samo_tr.layers.iter().zip(&mut dense_tr.layers);
        for ((samo_layer, (dense_state, mask)), p) in layers.zip(model_dense.params_mut()) {
            if samo_layer.mask() == mask {
                continue;
            }
            let (old, new) = (mask.to_bools(), samo_layer.mask().to_bools());
            let nn::mixed::OptState::Adam(adam) = &mut dense_state.os else { unreachable!() };
            for i in 0..new.len() {
                match (old[i], new[i]) {
                    (false, true) => (adam.m[i], adam.v[i]) = (0.0, 0.0),
                    // Dead whether or not the step is applied.
                    (true, false) => {
                        (dense_state.theta32[i], dense_state.theta16[i]) = (0.0, F16::ZERO);
                        p.value.as_mut_slice()[i] = 0.0;
                    }
                    _ => {}
                }
            }
            *mask = samo_layer.mask().clone();
        }
        dense_tr.step(&mut model_dense);

        for (samo_layer, (dense_state, mask)) in samo_tr.layers.iter().zip(&dense_tr.layers) {
            let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            let dense_c = compress(&dense_state.theta32, mask);
            assert_eq!(bits(&samo_layer.theta32), bits(&dense_c), "θ32 diverged at step {step}");
        }
        for (a, b) in model_samo.params().iter().zip(model_dense.params()) {
            assert_eq!(&a.f32_view()[..], b.value.as_slice(), "{} at step {step}", a.name);
        }
    }
    assert_eq!(lent_steps, lent_want, "steps that ran on the lent sums");
    assert!(samo_tr.remap_events() >= u64::from(updates(0)) * 3, "the masks must move");
}

#[test]
fn microbatches_on_lent_sums_equal_dense_masked_static() {
    assert_microbatches_equivalent(None, 8);
}

#[test]
fn microbatches_on_lent_sums_equal_dense_masked_across_remaps() {
    let schedule = prune::MaskSchedule::MomentumPruneRegrow(prune::MomentumPruneRegrow::new(
        vec![(0, 0.6), (6, 0.85), (12, 0.4)],
        3,
        0.1,
    ));
    assert_microbatches_equivalent(Some(schedule), 16);
}

//! Cross-crate integration tests: the full prune → SAMO → train path on
//! the real tiny GPT, including the SAMO ≡ dense-masked equivalence at
//! transformer scale and data-parallel gradient synchronization on
//! compressed tensors.

use models::tiny::{TinyGpt, TinyGptConfig};
use nn::data::Corpus;
use nn::layer::Layer;
use nn::loss::cross_entropy;
use nn::mixed::Optimizer;
use nn::optim::AdamConfig;
use prune::Mask;
use rand::SeedableRng;
use samo::compressed::compress;
use comms::reference::allreduce_mean_f16;
use samo::reference::{compress_grad, DenseMaskedTrainer};
use samo::trainer::SamoTrainer;

fn tiny_cfg() -> TinyGptConfig {
    TinyGptConfig {
        vocab: nn::data::VOCAB,
        seq: 16,
        dim: 32,
        heads: 4,
        layers: 2,
    }
}

fn masks_for(model: &TinyGpt, sparsity: f64) -> Vec<Mask> {
    model
        .params()
        .iter()
        .map(|p| {
            let shape = p.value.shape().to_vec();
            if shape.len() >= 2 && p.numel() >= 512 {
                prune::magnitude_prune(p.value.as_slice(), &shape, sparsity)
            } else {
                Mask::dense(&shape)
            }
        })
        .collect()
}

fn adam() -> Optimizer {
    Optimizer::Adam(AdamConfig {
        lr: 5e-3,
        ..Default::default()
    })
}

/// The core correctness theorem, on a full transformer: SAMO training of
/// the pruned tiny GPT is bit-identical (in θ32) to dense masked
/// training with the same masks, data and optimizer.
#[test]
fn samo_equals_dense_masked_on_transformer() {
    let cfg = tiny_cfg();
    let mut m1 = TinyGpt::new(cfg, 21);
    let mut m2 = TinyGpt::new(cfg, 21);
    let masks = masks_for(&m1, 0.9);

    let mut samo_tr = SamoTrainer::new(&mut m1, masks.clone(), adam());
    let mut dense_tr = DenseMaskedTrainer::new(&mut m2, masks, adam());

    let corpus = Corpus::generate(4000, 3);
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    for step in 0..6 {
        let (x, y) = corpus.sample_batch(4, cfg.seq, &mut rng);

        let logits = m1.forward_ids(&x, 4, cfg.seq);
        let (_, mut d) = cross_entropy(&logits, &y);
        tensor::ops::scale(samo_tr.loss_scale(), d.as_mut_slice());
        m1.backward(&d);
        samo_tr.step(&mut m1);

        let logits = m2.forward_ids(&x, 4, cfg.seq);
        let (_, mut d) = cross_entropy(&logits, &y);
        tensor::ops::scale(dense_tr.loss_scale(), d.as_mut_slice());
        m2.backward(&d);
        dense_tr.step(&mut m2);

        for (i, (samo_layer, (dense_state, mask))) in
            samo_tr.layers.iter().zip(&dense_tr.layers).enumerate()
        {
            let dense_compressed = compress(&dense_state.theta32, mask);
            assert_eq!(
                samo_layer.theta32, dense_compressed,
                "θ32 diverged at step {step}, param {i}"
            );
        }
        for (a, b) in m1.params().iter().zip(m2.params()) {
            assert_eq!(&a.f32_view()[..], b.value.as_slice(), "{} diverged", a.name);
        }
    }
}

/// Short SAMO training of the pruned tiny GPT must reduce perplexity —
/// the end-to-end "it actually learns" check.
#[test]
fn pruned_samo_training_learns() {
    let cfg = tiny_cfg();
    let mut model = TinyGpt::new(cfg, 13);
    let masks = masks_for(&model, 0.8);
    let mut tr = SamoTrainer::new(&mut model, masks, adam());

    let corpus = Corpus::generate(20_000, 9);
    let val = corpus.validation_batches(8, cfg.seq, 2);
    let eval = |m: &mut TinyGpt| {
        let mut total = 0.0f32;
        for (x, y) in &val {
            let logits = m.forward_ids(x, 8, cfg.seq);
            total += cross_entropy(&logits, y).0;
        }
        total / val.len() as f32
    };

    let before = eval(&mut model);
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    for _ in 0..80 {
        let (x, y) = corpus.sample_batch(8, cfg.seq, &mut rng);
        let logits = model.forward_ids(&x, 8, cfg.seq);
        let (_, mut d) = cross_entropy(&logits, &y);
        tensor::ops::scale(tr.loss_scale(), d.as_mut_slice());
        model.backward(&d);
        tr.step(&mut model);
    }
    let after = eval(&mut model);
    assert!(
        after < before - 0.05,
        "val loss did not improve: {before} -> {after}"
    );
    assert!(tr.steps_taken() >= 75, "most steps should apply");
}

/// Data parallelism on compressed gradients: two replicas that each see
/// half the batch and all-reduce their compressed ∇θ16 must produce the
/// same update as one replica seeing the full batch (whose gradient is
/// the mean of the halves).
#[test]
fn data_parallel_compressed_allreduce_matches_single_gpu() {
    let cfg = tiny_cfg();
    let masks = masks_for(&TinyGpt::new(cfg, 5), 0.75);

    // Replicas with identical initial state.
    let mut r1 = TinyGpt::new(cfg, 5);
    let mut r2 = TinyGpt::new(cfg, 5);
    let mut single = TinyGpt::new(cfg, 5);
    let mut tr1 = SamoTrainer::new(&mut r1, masks.clone(), adam());
    let mut tr2 = SamoTrainer::new(&mut r2, masks.clone(), adam());
    let mut tr_single = SamoTrainer::new(&mut single, masks, adam());

    let corpus = Corpus::generate(4000, 4);
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let (x1, y1) = corpus.sample_batch(2, cfg.seq, &mut rng);
    let (x2, y2) = corpus.sample_batch(2, cfg.seq, &mut rng);

    // Replica shards: each computes its local gradient. Use loss scale 1
    // so the fp16 comparison below is about the all-reduce, not about
    // scaler dynamics (a 2^16 scale overflows some of these gradients,
    // which in real training simply triggers a skipped step).
    let scale = 1.0f32;

    let logits = r1.forward_ids(&x1, 2, cfg.seq);
    let (_, mut d) = cross_entropy(&logits, &y1);
    tensor::ops::scale(scale, d.as_mut_slice());
    r1.backward(&d);
    for (p, st) in r1.params_mut().into_iter().zip(&mut tr1.layers) {
        compress_grad(st, p.grad.as_slice());
    }

    let logits = r2.forward_ids(&x2, 2, cfg.seq);
    let (_, mut d) = cross_entropy(&logits, &y2);
    tensor::ops::scale(scale, d.as_mut_slice());
    r2.backward(&d);
    for (p, st) in r2.params_mut().into_iter().zip(&mut tr2.layers) {
        compress_grad(st, p.grad.as_slice());
    }

    // All-reduce each layer's compressed fp16 gradients across replicas.
    for (l1, l2) in tr1.layers.iter_mut().zip(&mut tr2.layers) {
        let mut bufs: Vec<&mut [tensor::f16::F16]> = vec![&mut l1.grad16, &mut l2.grad16];
        allreduce_mean_f16(&mut bufs).unwrap();
    }

    // Single GPU computing the concatenated batch: its gradient is the
    // mean of the shard gradients (cross_entropy divides by N).
    let x_all: Vec<usize> = x1.iter().chain(&x2).copied().collect();
    let y_all: Vec<usize> = y1.iter().chain(&y2).copied().collect();
    let logits = single.forward_ids(&x_all, 4, cfg.seq);
    let (_, mut d) = cross_entropy(&logits, &y_all);
    tensor::ops::scale(scale, d.as_mut_slice());
    single.backward(&d);
    for (p, st) in single.params_mut().into_iter().zip(&mut tr_single.layers) {
        compress_grad(st, p.grad.as_slice());
    }

    // The all-reduced replica gradients must match the single-GPU
    // gradients to fp16 rounding of the averaging.
    for (i, (l1, ls)) in tr1.layers.iter().zip(&tr_single.layers).enumerate() {
        for (j, (a, b)) in l1.grad16.iter().zip(&ls.grad16).enumerate() {
            let (av, bv) = (a.to_f32(), b.to_f32());
            assert!(
                (av - bv).abs() <= 2e-2 * scale * (1.0 + av.abs().max(bv.abs()) / scale),
                "layer {i} grad {j}: replica-mean {av} vs single {bv}"
            );
        }
    }
}

/// Memory accounting across a whole model: the SAMO trainer's measured
/// bytes equal `2φ + 24·nnz` exactly, and undercut the dense trainer.
#[test]
fn whole_model_memory_accounting() {
    let cfg = tiny_cfg();
    let mut model = TinyGpt::new(cfg, 8);
    let masks = masks_for(&model, 0.9);
    let nnz: u64 = masks.iter().map(|m| m.nnz() as u64).sum();
    let phi: u64 = masks.iter().map(|m| m.numel() as u64).sum();
    let tr = SamoTrainer::new(&mut model, masks, adam());
    assert_eq!(tr.model_state_bytes(true), 2 * phi + 24 * nnz);

    let mut dense_model = TinyGpt::new(cfg, 8);
    let dense_masks: Vec<Mask> = dense_model
        .params()
        .iter()
        .map(|p| Mask::dense(p.value.shape()))
        .collect();
    let dense_tr = DenseMaskedTrainer::new(&mut dense_model, dense_masks, adam());
    assert_eq!(dense_tr.model_state_bytes(), 20 * phi);
    assert!(tr.model_state_bytes(true) < dense_tr.model_state_bytes() / 2);
}

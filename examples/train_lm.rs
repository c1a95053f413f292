//! Trains the tiny GPT on the synthetic corpus twice — dense, and pruned
//! to 90% with SAMO — and prints both validation-perplexity curves (the
//! paper's Fig. 4 statistical-efficiency experiment, scaled to a laptop).
//!
//! ```sh
//! cargo run --release --example train_lm [iterations]
//! ```

use models::tiny::{TinyGpt, TinyGptConfig};
use nn::data::Corpus;
use nn::layer::Layer;
use nn::loss::cross_entropy;
use nn::mixed::Optimizer;
use nn::optim::AdamConfig;
use prune::Mask;
use rand::SeedableRng;
use samo::reference::DenseMaskedTrainer;
use samo::trainer::SamoTrainer;

const BATCH: usize = 16;

fn masks_at(model: &TinyGpt, sparsity: f64) -> Vec<Mask> {
    model
        .params()
        .iter()
        .map(|p| {
            let shape = p.value.shape().to_vec();
            if shape.len() >= 2 && p.numel() >= 1024 {
                prune::magnitude_prune(p.value.as_slice(), &shape, sparsity)
            } else {
                Mask::dense(&shape)
            }
        })
        .collect()
}

fn validate(model: &mut TinyGpt, val: &[(Vec<usize>, Vec<usize>)], seq: usize) -> f32 {
    let mut total = 0.0f32;
    for (x, y) in val {
        let logits = model.forward_ids(x, BATCH, seq);
        let (loss, _) = cross_entropy(&logits, y);
        total += loss;
    }
    (total / val.len() as f32).exp()
}

fn main() {
    let iters: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(400);
    let cfg = TinyGptConfig {
        vocab: nn::data::VOCAB,
        seq: 32,
        dim: 64,
        heads: 4,
        layers: 2,
    };
    let corpus = Corpus::generate(60_000, 11);
    let val = corpus.validation_batches(BATCH, cfg.seq, 4);
    let opt = Optimizer::Adam(AdamConfig {
        lr: 1e-2,
        ..Default::default()
    });

    let mut dense_model = TinyGpt::new(cfg, 7);
    let dense_masks: Vec<Mask> = dense_model
        .params()
        .iter()
        .map(|p| Mask::dense(p.value.shape()))
        .collect();
    let mut dense_tr = DenseMaskedTrainer::new(&mut dense_model, dense_masks, opt.clone());

    let mut samo_model = TinyGpt::new(cfg, 7);
    let masks = masks_at(&samo_model, 0.9);
    let kept: usize = masks.iter().map(|m| m.nnz()).sum();
    let total: usize = masks.iter().map(|m| m.numel()).sum();
    let mut samo_tr = SamoTrainer::new(&mut samo_model, masks, opt);

    println!(
        "tiny GPT: {total} params; pruned run keeps {kept} ({:.1}% sparsity)",
        100.0 * (1.0 - kept as f64 / total as f64)
    );
    println!(
        "model state: dense {} KB vs SAMO {} KB\n",
        dense_tr.model_state_bytes() / 1024,
        samo_tr.model_state_bytes(true) / 1024
    );

    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    println!("{:>6}  {:>12}  {:>12}", "iter", "dense ppl", "SAMO ppl");
    for it in 0..=iters {
        if it % 25 == 0 {
            println!(
                "{:>6}  {:>12.3}  {:>12.3}",
                it,
                validate(&mut dense_model, &val, cfg.seq),
                validate(&mut samo_model, &val, cfg.seq)
            );
        }
        if it == iters {
            break;
        }
        let (x, y) = corpus.sample_batch(BATCH, cfg.seq, &mut rng);
        for (model, tr_scale, is_dense) in [
            (&mut dense_model, dense_tr.loss_scale(), true),
            (&mut samo_model, samo_tr.loss_scale(), false),
        ] {
            let logits = model.forward_ids(&x, BATCH, cfg.seq);
            let (_, mut d) = cross_entropy(&logits, &y);
            tensor::ops::scale(tr_scale, d.as_mut_slice());
            model.backward(&d);
            if is_dense {
                dense_tr.step(model);
            } else {
                samo_tr.step(model);
            }
        }
    }
    println!("\nBoth curves should descend together (paper Fig. 4: the pruned");
    println!("network trained with SAMO matches the dense network's perplexity).");
}

//! The training side of the serving tests and benches: a deterministic
//! toy-MLP trainer that publishes checkpoints the server hot-reloads.
//!
//! The serving runtime never trains; its whole input surface is the
//! checkpoint directory and the `{prefix}.published` marker. This
//! harness stands in for the training job on the other side of that
//! contract: it builds the repo's toy MLP (alternating `Linear` /
//! `Gelu`, 50%-magnitude-pruned weights, dense biases — the same shape
//! `model::build_model` reconstructs), trains it with a real
//! [`SamoTrainer`] on seeded synthetic regression batches, and
//! publishes through [`CheckpointManager::save_and_publish`] — the
//! atomic tmp + fsync + rename discipline the torn-publish tests pin
//! down. Tests drive [`TrainPublisher::publish_after`] repeatedly to
//! stage the multi-generation reloads, then call
//! [`TrainPublisher::oracle_outputs`] to precompute, per published
//! step, the bitwise reply a correct server must produce.

use crate::model::{build_model, Backend};
use nn::layer::{Layer, Sequential};
use nn::mixed::Optimizer;
use nn::optim::AdamConfig;
use nn::{Gelu, Linear};
use prune::Mask;
use samo::{CheckpointConfig, CheckpointManager, SamoTrainer};
use std::path::{Path, PathBuf};
use tensor::Tensor;

/// The repo-default optimizer; serving assumes it when parsing
/// checkpoints (see `ServeConfig::opt`).
pub fn adam() -> Optimizer {
    Optimizer::Adam(AdamConfig::default())
}

/// The toy MLP: `dims = [in, hidden.., out]`, GELU between linears.
pub fn toy_model(dims: &[usize], seed: u64) -> Sequential {
    assert!(dims.len() >= 2, "dims needs at least [in, out]");
    let mut seq = Sequential::new();
    for (i, w) in dims.windows(2).enumerate() {
        seq = seq.push(Linear::new(w[0], w[1], true, seed + i as u64));
        if i + 2 < dims.len() {
            seq = seq.push(Gelu::new());
        }
    }
    seq
}

/// 50% magnitude pruning on weights, dense biases — the paper's
/// pruned-network setting, and what makes the checkpoint compressible.
pub fn toy_masks(model: &Sequential) -> Vec<Mask> {
    model
        .params()
        .iter()
        .map(|p| {
            let shape = p.value.shape();
            if shape.len() >= 2 {
                prune::magnitude_prune(p.value.as_slice(), shape, 0.5)
            } else {
                Mask::dense(shape)
            }
        })
        .collect()
}

/// A training job that publishes checkpoints for a serving endpoint.
pub struct TrainPublisher {
    model: Sequential,
    trainer: SamoTrainer,
    mgr: CheckpointManager,
    dims: Vec<usize>,
    seed: u64,
}

impl TrainPublisher {
    /// Creates the toy model and a checkpoint manager rooted at `dir`
    /// (prefix `ckpt`, the serving default). Nothing is published yet.
    pub fn new(dir: &Path, dims: &[usize], seed: u64) -> Result<TrainPublisher, String> {
        let mut model = toy_model(dims, seed);
        let masks = toy_masks(&model);
        let trainer = SamoTrainer::new(&mut model, masks, adam());
        let mgr = CheckpointManager::new(CheckpointConfig::new(dir))?;
        Ok(TrainPublisher {
            model,
            trainer,
            mgr,
            dims: dims.to_vec(),
            seed,
        })
    }

    fn batch_for(&self, step: u64) -> (Tensor, Tensor) {
        // INVARIANT: `new` built the model from these `dims` through
        // `toy_model`, which asserts there are at least two.
        let (d_in, d_out) = (self.dims[0], *self.dims.last().unwrap());
        let seed = self.seed.wrapping_mul(31).wrapping_add(1000 + step);
        (
            Tensor::randn(&[8, d_in], 1.0, seed),
            Tensor::randn(&[8, d_out], 1.0, seed + 10_000),
        )
    }

    /// Trains `steps` more optimizer steps and atomically publishes the
    /// resulting checkpoint. Returns `(step, path)` of the publish.
    pub fn publish_after(&mut self, steps: usize) -> Result<(u64, PathBuf), String> {
        for _ in 0..steps {
            let step = self.trainer.steps_taken() + self.trainer.steps_skipped();
            let (x, target) = self.batch_for(step);
            let y = self.model.forward(&x);
            let n = y.numel() as f32;
            let mut dy = Tensor::from_vec(
                y.shape(),
                y.as_slice()
                    .iter()
                    .zip(target.as_slice())
                    .map(|(yi, ti)| 2.0 * (yi - ti) / n)
                    .collect(),
            );
            tensor::ops::scale(self.trainer.loss_scale(), dy.as_mut_slice());
            self.model.backward(&dy);
            self.trainer.step(&mut self.model);
        }
        let step = self.trainer.steps_taken();
        let path = self.mgr.save_and_publish(step, &self.trainer.save())?;
        Ok((step, path))
    }

    /// The bitwise reply a correct server must produce for `probe` at
    /// the checkpoint it is currently serving: loads the published
    /// file exactly as the server does and runs the same
    /// `infer_batch(1)` the replica runs.
    pub fn oracle_outputs(
        &self,
        path: &Path,
        step: u64,
        backend: Backend,
        probe: &[f32],
    ) -> Result<Vec<f32>, String> {
        let loaded = crate::model::load_verified(path, step, &adam())?;
        let mut built = build_model(&loaded.states, backend)?;
        let mut out = Vec::new();
        built.seq.infer_batch(probe, 1, built.in_features, &mut out);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publishes_loadable_checkpoints_that_advance() {
        let dir = std::env::temp_dir().join(format!("samo-serve-harness-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut pub_ = TrainPublisher::new(&dir, &[8, 16, 4], 3).unwrap();
        let (s1, p1) = pub_.publish_after(2).unwrap();
        let (s2, p2) = pub_.publish_after(3).unwrap();
        assert!(s2 > s1, "steps advance: {s1} -> {s2}");
        let probe = vec![0.5; 8];
        let o1 = pub_.oracle_outputs(&p1, s1, Backend::Dense, &probe).unwrap();
        let o2 = pub_.oracle_outputs(&p2, s2, Backend::Dense, &probe).unwrap();
        assert_eq!(o1.len(), 4);
        let same = o1.iter().zip(&o2).all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(!same, "training must actually change the served function");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

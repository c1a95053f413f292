//! Activation checkpointing (Chen et al., "Training Deep Nets with
//! Sublinear Memory Cost") — cited by the paper as one of AxoNN's
//! memory techniques (Sec. II-E), and the reason our simulator models
//! the backward pass as 3× the forward (1 recompute + 2 backward).
//!
//! A [`Checkpoint`] wrapper stores only the *input* of its inner module
//! during the forward pass, dropping all internal activation caches; at
//! backward time it recomputes the forward to rebuild them, then runs the
//! real backward. Gradients are identical to the un-checkpointed module
//! (tested), while held activation memory drops to one input tensor.

use crate::layer::Layer;
use crate::param::Parameter;
use tensor::Tensor;

/// Wraps a module with activation checkpointing.
pub struct Checkpoint<L: Layer> {
    inner: L,
    saved_input: Option<Tensor>,
}

impl<L: Layer> Checkpoint<L> {
    /// Wraps `inner`.
    pub fn new(inner: L) -> Checkpoint<L> {
        Checkpoint {
            inner,
            saved_input: None,
        }
    }

    /// Access the wrapped module.
    pub fn inner(&self) -> &L {
        &self.inner
    }
}

impl<L: Layer> Layer for Checkpoint<L> {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let y = self.inner.forward(x);
        // The memory trade: drop everything the inner module cached and
        // keep only the boundary input.
        self.inner.clear_caches();
        self.saved_input = Some(x.clone());
        y
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let x = self
            .saved_input
            .take()
            .expect("backward before forward");
        // Recompute the forward pass to rebuild activation caches.
        let _ = self.inner.forward(&x);
        self.inner.backward(dy)
    }

    fn params(&self) -> Vec<&Parameter> {
        self.inner.params()
    }

    fn params_mut(&mut self) -> Vec<&mut Parameter> {
        self.inner.params_mut()
    }

    fn clear_caches(&mut self) {
        self.saved_input = None;
        self.inner.clear_caches();
    }

    fn cached_bytes(&self) -> usize {
        self.saved_input.as_ref().map_or(0, |t| t.numel() * 4) + self.inner.cached_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activations::Gelu;
    use crate::layer::Sequential;
    use crate::linear::Linear;
    use crate::norm::LayerNorm;

    fn mlp(seed: u64) -> Sequential {
        Sequential::new()
            .push(Linear::new(8, 32, true, seed))
            .push(Gelu::new())
            .push(LayerNorm::new(32))
            .push(Linear::new(32, 8, true, seed + 1))
    }

    #[test]
    fn gradients_identical_to_uncheckpointed() {
        let x = Tensor::randn(&[4, 8], 1.0, 3);
        let dy = Tensor::randn(&[4, 8], 1.0, 4);

        let mut plain = mlp(7);
        let y1 = plain.forward(&x);
        let dx1 = plain.backward(&dy);

        let mut ckpt = Checkpoint::new(mlp(7));
        let y2 = ckpt.forward(&x);
        let dx2 = ckpt.backward(&dy);

        assert_eq!(y1, y2, "forward outputs must match");
        assert_eq!(dx1, dx2, "input gradients must match");
        for (a, b) in plain.params().iter().zip(ckpt.params()) {
            assert_eq!(a.grad.as_slice(), b.grad.as_slice(), "{} grads differ", a.name);
        }
    }

    #[test]
    fn checkpoint_drops_inner_activations() {
        let x = Tensor::randn(&[16, 8], 1.0, 5);

        let mut plain = mlp(9);
        plain.forward(&x);
        let plain_cached = plain.cached_bytes();
        assert!(plain_cached > 0, "uncheckpointed module must cache activations");

        let mut ckpt = Checkpoint::new(mlp(9));
        ckpt.forward(&x);
        let ckpt_cached = ckpt.cached_bytes();
        // Checkpoint keeps only the input: 16×8 f32 = 512 bytes.
        assert_eq!(ckpt_cached, 16 * 8 * 4);
        assert!(
            ckpt_cached < plain_cached / 3,
            "checkpointing should slash cached bytes: {ckpt_cached} vs {plain_cached}"
        );
    }

    #[test]
    fn training_through_checkpoint_converges() {
        use crate::loss::mse;
        use crate::optim::{sgd_step, SgdConfig, SgdState};
        let mut model = Checkpoint::new(mlp(11));
        let x = Tensor::randn(&[8, 8], 1.0, 12);
        let target = Tensor::from_vec(&[8, 8], x.as_slice().iter().map(|v| -v).collect());
        let cfg = SgdConfig {
            lr: 0.05,
            momentum: 0.9,
            weight_decay: 0.0,
        };
        let mut states: Vec<SgdState> =
            model.params().iter().map(|p| SgdState::new(p.numel())).collect();
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..150 {
            let y = model.forward(&x);
            let (loss, dy) = mse(&y, &target);
            model.backward(&dy);
            for (p, st) in model.params_mut().into_iter().zip(&mut states) {
                let g = p.grad.as_slice().to_vec();
                sgd_step(&cfg, st, p.value.as_mut_slice(), &g);
                p.zero_grad();
            }
            first.get_or_insert(loss);
            last = loss;
        }
        assert!(last < first.unwrap() * 0.2, "{:?} -> {last}", first);
    }

    #[test]
    fn clear_caches_resets_everything() {
        let mut ckpt = Checkpoint::new(mlp(13));
        ckpt.forward(&Tensor::randn(&[2, 8], 1.0, 14));
        assert!(ckpt.cached_bytes() > 0);
        ckpt.clear_caches();
        assert_eq!(ckpt.cached_bytes(), 0);
    }
}

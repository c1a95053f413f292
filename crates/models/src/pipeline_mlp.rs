//! Uniform-stage MLP for the inter-layer pipeline bubble benchmark.
//!
//! AxoNN's Eq. 7 bubble model assumes every pipeline stage costs the
//! same per microbatch; `repro pipeline` cross-checks the *measured*
//! bubble fraction of the threaded pipeline runtime against that
//! closed form, so it needs a model whose contiguous stage blocks are
//! exactly uniform. [`uniform_pipeline_mlp`] builds `stages` identical
//! `Linear(width × width, no bias) → ReLU` blocks: splitting `2·stages`
//! layers into `stages` contiguous segments puts one identical
//! Linear+ReLU pair on every stage.
//!
//! [`uniform_pipeline_mlp_delayed`] additionally pads every stage with
//! a [`StageDelay`], pinning the per-microbatch cost to a calibrated
//! sleep. Eq. 7 presumes stages *compute concurrently*; real kernels
//! only do that when the host has at least one core per stage, so a
//! wall-clock bubble measurement built on real GEMM time silently
//! degrades into a core-count benchmark on small machines (overlapping
//! stages timeshare cores and every slice's wall time inflates).
//! Sleeping threads overlap exactly regardless of core count, so the
//! delayed model isolates the property under test — the runtime's
//! message-driven 1F1B schedule — from host topology.

use nn::activations::Relu;
use nn::layer::{CacheSlot, Layer, Sequential};
use nn::linear::Linear;
use nn::param::Parameter;
use prune::Mask;
use std::time::Duration;
use tensor::Tensor;

/// `stages` identical `Linear(width, width, bias = false) → ReLU`
/// blocks (`2·stages` layers, one weight matrix per stage). Weights are
/// seeded per stage from `seed` so the model is reproducible.
pub fn uniform_pipeline_mlp(stages: usize, width: usize, seed: u64) -> Sequential {
    assert!(stages >= 1, "need at least one stage");
    let mut m = Sequential::new();
    for s in 0..stages {
        m = m.push(Linear::new(width, width, false, seed + s as u64)).push(Relu::new());
    }
    m
}

/// A parameterless identity layer with a fixed wall-clock cost: forward
/// sleeps `fwd`, backward sleeps `bwd`. Stands in for a stage's heavy
/// compute in scheduling benchmarks — sleeps overlap across stage
/// threads even on a single-core host, which real kernels cannot (see
/// the module doc). Activation recomputation replays the forward sleep,
/// exactly like it would replay real compute.
pub struct StageDelay {
    fwd: Duration,
    bwd: Duration,
}

impl StageDelay {
    /// A delay layer costing `fwd` per forward and `bwd` per backward.
    pub fn new(fwd: Duration, bwd: Duration) -> StageDelay {
        StageDelay { fwd, bwd }
    }
}

impl Layer for StageDelay {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        std::thread::sleep(self.fwd);
        x.clone()
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        std::thread::sleep(self.bwd);
        dy.clone()
    }

    fn params(&self) -> Vec<&Parameter> {
        Vec::new()
    }

    fn params_mut(&mut self) -> Vec<&mut Parameter> {
        Vec::new()
    }

    fn swap_caches(&mut self, _slot: &mut CacheSlot) -> bool {
        true
    }
}

/// [`uniform_pipeline_mlp`] with every stage padded to a fixed
/// per-microbatch cost: `stages` identical `Linear → ReLU → StageDelay`
/// blocks (`3·stages` layers, still one weight matrix per stage).
pub fn uniform_pipeline_mlp_delayed(
    stages: usize,
    width: usize,
    seed: u64,
    fwd_delay: Duration,
    bwd_delay: Duration,
) -> Sequential {
    assert!(stages >= 1, "need at least one stage");
    let mut m = Sequential::new();
    for s in 0..stages {
        m = m
            .push(Linear::new(width, width, false, seed + s as u64))
            .push(Relu::new())
            .push(StageDelay::new(fwd_delay, bwd_delay));
    }
    m
}

/// Magnitude-prunes every weight of a [`uniform_pipeline_mlp`] to the
/// given sparsity — the SAMO state the pipeline runtime shards is
/// compressed against these masks.
pub fn uniform_pipeline_masks(model: &Sequential, sparsity: f64) -> Vec<Mask> {
    model
        .params()
        .iter()
        .map(|p| prune::magnitude_prune(p.value.as_slice(), p.value.shape(), sparsity))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_uniform_blocks_one_weight_per_stage() {
        let m = uniform_pipeline_mlp(3, 8, 42);
        assert_eq!(m.len(), 6, "two layers per stage");
        assert_eq!(m.params().len(), 3, "one weight matrix per stage");
        for p in m.params() {
            assert_eq!(p.value.shape(), &[8, 8]);
        }
        let mut m = m;
        let y = m.forward(&Tensor::randn(&[5, 8], 1.0, 7));
        assert_eq!(y.shape(), &[5, 8], "width is preserved end to end");
    }

    #[test]
    fn stage_delay_is_a_timed_identity() {
        let d = Duration::from_millis(2);
        let mut m = uniform_pipeline_mlp_delayed(2, 8, 42, d, d);
        assert_eq!(m.len(), 6, "three layers per stage");
        assert_eq!(m.params().len(), 2, "delay layers add no parameters");
        let x = Tensor::randn(&[3, 8], 1.0, 5);
        let t0 = std::time::Instant::now();
        let y = m.forward(&x);
        assert!(t0.elapsed() >= 2 * d, "both stage delays must run");
        assert_eq!(y.shape(), &[3, 8]);
        // The delay layer itself passes data through untouched.
        let mut lone = StageDelay::new(Duration::ZERO, Duration::ZERO);
        assert_eq!(lone.forward(&x).as_slice(), x.as_slice());
        assert_eq!(lone.backward(&x).as_slice(), x.as_slice());
    }

    #[test]
    fn masks_hit_requested_sparsity_per_weight() {
        let m = uniform_pipeline_mlp(2, 16, 1);
        let masks = uniform_pipeline_masks(&m, 0.75);
        assert_eq!(masks.len(), 2);
        for mask in &masks {
            assert_eq!(mask.nnz(), 64, "75% of 256 pruned");
        }
    }
}

//! Pointwise activation layers.

use crate::layer::{CacheSlot, Layer};
use crate::param::Parameter;
use tensor::Tensor;

/// Rectified linear unit.
pub struct Relu {
    cached_input: Option<Tensor>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Relu {
        Relu { cached_input: None }
    }
}

impl Default for Relu {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for Relu {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let mut y = x.clone();
        for v in y.as_mut_slice() {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
        self.cached_input = Some(x.clone());
        y
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let x = self.cached_input.take().expect("backward before forward");
        let mut dx = dy.clone();
        for (d, &xi) in dx.as_mut_slice().iter_mut().zip(x.as_slice()) {
            if xi <= 0.0 {
                *d = 0.0;
            }
        }
        dx
    }

    fn infer_batch(&mut self, x: &[f32], batch: usize, in_cols: usize, out: &mut Vec<f32>) -> usize {
        assert_eq!(x.len(), batch * in_cols, "input slice/shape mismatch");
        out.clear();
        out.extend(x.iter().map(|&v| if v < 0.0 { 0.0 } else { v }));
        in_cols
    }

    fn params(&self) -> Vec<&Parameter> {
        vec![]
    }

    fn params_mut(&mut self) -> Vec<&mut Parameter> {
        vec![]
    }

    fn clear_caches(&mut self) {
        self.cached_input = None;
    }

    fn cached_bytes(&self) -> usize {
        self.cached_input.as_ref().map_or(0, |t| t.numel() * 4)
    }

    fn swap_caches(&mut self, slot: &mut CacheSlot) -> bool {
        slot.swap(&mut self.cached_input);
        true
    }
}

/// Gaussian error linear unit (tanh approximation, as used by GPT-style
/// transformers). Training, serving and every runtime compute it with the
/// one vector kernel, [`tensor::ops::gelu`] and its gradient twin.
pub struct Gelu {
    cached_input: Option<Tensor>,
}

const SQRT_2_OVER_PI: f32 = 0.797_884_6;
const GELU_C: f32 = 0.044_715;

/// The GELU formula (tanh approximation) over libm's `tanh`: the
/// reference the layer's kernel is held to, not what the layer runs.
pub fn gelu_scalar(x: f32) -> f32 {
    0.5 * x * (1.0 + (SQRT_2_OVER_PI * (x + GELU_C * x * x * x)).tanh())
}

/// Derivative of [`gelu_scalar`], over libm's `tanh` likewise.
pub fn gelu_grad_scalar(x: f32) -> f32 {
    let u = SQRT_2_OVER_PI * (x + GELU_C * x * x * x);
    let t = u.tanh();
    let du = SQRT_2_OVER_PI * (1.0 + 3.0 * GELU_C * x * x);
    0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du
}

impl Gelu {
    /// Creates a GELU layer.
    pub fn new() -> Gelu {
        Gelu { cached_input: None }
    }
}

impl Default for Gelu {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for Gelu {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let mut y = Tensor::zeros(x.shape());
        tensor::ops::gelu(x.as_slice(), y.as_mut_slice());
        self.cached_input = Some(x.clone());
        y
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let x = self.cached_input.take().expect("backward before forward");
        let mut dx = dy.clone();
        tensor::ops::gelu_grad_mul(x.as_slice(), dx.as_mut_slice());
        dx
    }

    fn infer_batch(&mut self, x: &[f32], batch: usize, in_cols: usize, out: &mut Vec<f32>) -> usize {
        assert_eq!(x.len(), batch * in_cols, "input slice/shape mismatch");
        // `forward`'s kernel, so a served reply has a training forward's bits.
        out.resize(x.len(), 0.0);
        tensor::ops::gelu(x, out);
        in_cols
    }

    fn params(&self) -> Vec<&Parameter> {
        vec![]
    }

    fn params_mut(&mut self) -> Vec<&mut Parameter> {
        vec![]
    }

    fn clear_caches(&mut self) {
        self.cached_input = None;
    }

    fn cached_bytes(&self) -> usize {
        self.cached_input.as_ref().map_or(0, |t| t.numel() * 4)
    }

    fn swap_caches(&mut self, slot: &mut CacheSlot) -> bool {
        slot.swap(&mut self.cached_input);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_forward_backward() {
        let mut r = Relu::new();
        let x = Tensor::from_vec(&[4], vec![-1.0, 0.0, 2.0, -3.0]);
        let y = r.forward(&x);
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0, 0.0]);
        let dx = r.backward(&Tensor::from_vec(&[4], vec![1.0, 1.0, 1.0, 1.0]));
        assert_eq!(dx.as_slice(), &[0.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn gelu_known_values() {
        assert!((gelu_scalar(0.0)).abs() < 1e-7);
        // GELU(x) -> x for large x, -> 0 for very negative x.
        assert!((gelu_scalar(10.0) - 10.0).abs() < 1e-3);
        assert!(gelu_scalar(-10.0).abs() < 1e-3);
        // Known value: gelu(1.0) ≈ 0.8412
        assert!((gelu_scalar(1.0) - 0.8412).abs() < 1e-3);
    }

    #[test]
    fn gelu_grad_matches_finite_difference() {
        for &x in &[-3.0f32, -1.0, -0.1, 0.0, 0.5, 1.0, 2.5] {
            let eps = 1e-3;
            let fd = (gelu_scalar(x + eps) - gelu_scalar(x - eps)) / (2.0 * eps);
            let an = gelu_grad_scalar(x);
            assert!((fd - an).abs() < 1e-3, "x={x}: fd={fd} an={an}");
        }
    }

    #[test]
    fn gelu_layer_applies_chain_rule() {
        let mut g = Gelu::new();
        let x = Tensor::from_vec(&[2], vec![0.5, -0.5]);
        let _y = g.forward(&x);
        let dx = g.backward(&Tensor::from_vec(&[2], vec![2.0, 2.0]));
        assert!((dx.as_slice()[0] - 2.0 * gelu_grad_scalar(0.5)).abs() < 1e-6);
        assert!((dx.as_slice()[1] - 2.0 * gelu_grad_scalar(-0.5)).abs() < 1e-6);
    }

    #[test]
    fn gelu_layer_tracks_the_libm_reference() {
        // The layer runs the vector kernel; `gelu_scalar` over libm is
        // what it is held to. Both carry f32 rounding next to |tanh| = 1.
        let xs: Vec<f32> = (-1000..=1000).map(|i| i as f32 * 0.01).collect();
        let x = Tensor::from_vec(&[xs.len()], xs.clone());
        let mut g = Gelu::new();
        let y = g.forward(&x);
        let dx = g.backward(&Tensor::full(&[xs.len()], 1.0));
        for (i, &xi) in xs.iter().enumerate() {
            let (ey, eg) = (y.as_slice()[i] - gelu_scalar(xi), dx.as_slice()[i] - gelu_grad_scalar(xi));
            assert!(ey.abs() <= 5e-7 * xi.abs().max(1.0), "gelu({xi}) off by {ey:e}");
            assert!(eg.abs() <= 4e-6, "gelu'({xi}) off by {eg:e}");
        }
        // Serving computes what training computed, bit for bit.
        let mut out = vec![7.0; 3];
        assert_eq!(g.infer_batch(&xs, 1, xs.len(), &mut out), xs.len());
        assert_eq!(out, y.as_slice());
    }

    #[test]
    fn activations_have_no_params() {
        assert_eq!(Relu::new().params().len(), 0);
        assert_eq!(Gelu::new().params().len(), 0);
    }
}

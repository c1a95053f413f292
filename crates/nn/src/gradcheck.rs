//! Finite-difference gradient checking for [`Layer`] implementations.
//!
//! Every hand-written backward pass in this crate is validated against
//! central differences through a scalar probe loss — the standard way to
//! prove an autograd implementation correct without a reference framework.

use crate::layer::Layer;
use tensor::Tensor;

/// Result of a gradient check: the worst relative error observed over
/// input and parameter gradients.
#[derive(Debug, Clone, Copy)]
pub struct GradCheckReport {
    pub max_input_err: f32,
    pub max_param_err: f32,
}

impl GradCheckReport {
    /// True if both errors are below `tol`.
    // TEST-API: the layers' gradient checks read their report with it.
    pub fn passes(&self, tol: f32) -> bool {
        self.max_input_err < tol && self.max_param_err < tol
    }
}

fn rel_err(analytic: f32, numeric: f32) -> f32 {
    (analytic - numeric).abs() / (1.0 + analytic.abs().max(numeric.abs()))
}

/// Probe loss: `L(y) = Σ w_i · y_i` with fixed pseudo-random weights, so
/// `dL/dy = w` exercises all output positions with distinct values.
fn probe_weights(numel: usize) -> Vec<f32> {
    (0..numel)
        .map(|i| {
            // Deterministic, irregular, O(1) weights in [-1, 1].
            
            ((i as u64).wrapping_mul(2654435761) % 1000) as f32 / 500.0 - 1.0
        })
        .collect()
}

fn probe_loss(y: &Tensor, w: &[f32]) -> f32 {
    y.as_slice().iter().zip(w).map(|(a, b)| a * b).sum()
}

/// Checks `layer`'s backward pass at input `x` by central differences
/// with step `eps`, probing at most `max_checks` coordinates of the input
/// and of each parameter (strided to cover the tensor).
// TEST-API: the layers' tests check every backward by finite differences.
pub fn check_layer<L: Layer>(
    layer: &mut L,
    x: &Tensor,
    eps: f32,
    max_checks: usize,
) -> GradCheckReport {
    // Analytic gradients.
    layer.zero_grad();
    let y = layer.forward(x);
    let w = probe_weights(y.numel());
    let dy = Tensor::from_vec(y.shape(), w.clone());
    let dx = layer.backward(&dy);
    let analytic_param_grads: Vec<Vec<f32>> = layer
        .params()
        .iter()
        .map(|p| p.grad.as_slice().to_vec())
        .collect();

    // Numeric input gradient.
    let mut max_input_err = 0.0f32;
    let n = x.numel();
    let stride = (n / max_checks.max(1)).max(1);
    let mut xp = x.clone();
    for i in (0..n).step_by(stride) {
        let orig = xp.as_slice()[i];
        xp.as_mut_slice()[i] = orig + eps;
        let lp = probe_loss(&layer.forward(&xp), &w);
        xp.as_mut_slice()[i] = orig - eps;
        let lm = probe_loss(&layer.forward(&xp), &w);
        xp.as_mut_slice()[i] = orig;
        let fd = (lp - lm) / (2.0 * eps);
        max_input_err = max_input_err.max(rel_err(dx.as_slice()[i], fd));
    }

    // Numeric parameter gradients.
    let mut max_param_err = 0.0f32;
    let param_count = analytic_param_grads.len();
    // Indexing (not iterating) `analytic_param_grads`: the loop body
    // needs `layer` mutably, which an iterator borrow would block.
    #[allow(clippy::needless_range_loop)]
    for pi in 0..param_count {
        let numel = layer.params()[pi].numel();
        let stride = (numel / max_checks.max(1)).max(1);
        for i in (0..numel).step_by(stride) {
            let orig = layer.params()[pi].value.as_slice()[i];
            layer.params_mut()[pi].value.as_mut_slice()[i] = orig + eps;
            let lp = probe_loss(&layer.forward(x), &w);
            layer.params_mut()[pi].value.as_mut_slice()[i] = orig - eps;
            let lm = probe_loss(&layer.forward(x), &w);
            layer.params_mut()[pi].value.as_mut_slice()[i] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            max_param_err = max_param_err.max(rel_err(analytic_param_grads[pi][i], fd));
        }
    }

    GradCheckReport {
        max_input_err,
        max_param_err,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activations::{Gelu, Relu};
    use crate::attention::CausalSelfAttention;
    use crate::conv::Conv2d;
    use crate::layer::Sequential;
    use crate::linear::Linear;
    use crate::norm::LayerNorm;

    const TOL: f32 = 2e-2;
    const EPS: f32 = 1e-2;

    #[test]
    fn linear_gradients() {
        let mut l = Linear::new(7, 5, true, 42);
        let x = Tensor::randn(&[4, 7], 1.0, 1);
        let report = check_layer(&mut l, &x, EPS, 64);
        assert!(report.passes(TOL), "{report:?}");
    }

    #[test]
    fn gelu_gradients() {
        let mut g = Gelu::new();
        let x = Tensor::randn(&[3, 9], 1.0, 2);
        let report = check_layer(&mut g, &x, EPS, 64);
        assert!(report.passes(TOL), "{report:?}");
    }

    #[test]
    fn relu_gradients_away_from_kink() {
        // Shift inputs away from 0 where ReLU is non-differentiable.
        let mut x = Tensor::randn(&[3, 9], 1.0, 3);
        for v in x.as_mut_slice() {
            if v.abs() < 0.1 {
                *v += 0.2;
            }
        }
        let mut r = Relu::new();
        let report = check_layer(&mut r, &x, 1e-3, 64);
        assert!(report.passes(TOL), "{report:?}");
    }

    #[test]
    fn layernorm_gradients() {
        let mut ln = LayerNorm::new(8);
        let x = Tensor::randn(&[3, 8], 1.0, 4);
        let report = check_layer(&mut ln, &x, EPS, 64);
        assert!(report.passes(TOL), "{report:?}");
    }

    #[test]
    fn attention_gradients() {
        let mut attn = CausalSelfAttention::new(8, 2, 5);
        let x = Tensor::randn(&[2, 4, 8], 0.7, 6);
        let report = check_layer(&mut attn, &x, EPS, 48);
        assert!(report.passes(TOL), "{report:?}");
    }

    #[test]
    fn conv_gradients() {
        let mut conv = Conv2d::new(2, 3, 3, 2, 1, true, 7);
        let x = Tensor::randn(&[2, 2, 5, 5], 1.0, 8);
        let report = check_layer(&mut conv, &x, EPS, 48);
        assert!(report.passes(TOL), "{report:?}");
    }

    #[test]
    fn sequential_mlp_gradients() {
        let model = Sequential::new()
            .push(Linear::new(6, 10, true, 9))
            .push(Gelu::new())
            .push(LayerNorm::new(10))
            .push(Linear::new(10, 4, true, 10));
        let mut model = model;
        let x = Tensor::randn(&[3, 6], 1.0, 11);
        let report = check_layer(&mut model, &x, EPS, 48);
        assert!(report.passes(TOL), "{report:?}");
    }
}

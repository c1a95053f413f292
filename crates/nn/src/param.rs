//! Trainable parameters.
//!
//! A parameter's dense gradient is the one model-state tensor the paper
//! never keeps: `∇θ16` is stored compressed and the dense product is a
//! temporary (Sec. III-C). A runtime that consumes a gradient as the
//! layer produces it ([`crate::layer::GradSink`]) therefore *releases*
//! the accumulator ([`Parameter::release_grad`]): `grad` is then an empty
//! tensor, clearing it is a no-op, and whoever next needs a dense
//! gradient gets a fresh zeroed one from [`Parameter::dense_grad`].
//! [`resident_param_bytes`] is the ruler for what a model still holds.

use crate::layer::Layer;
use tensor::Tensor;

/// A trainable tensor together with its gradient accumulator.
#[derive(Clone, Debug)]
pub struct Parameter {
    /// Human-readable identifier (e.g. `"blocks.0.attn.qkv.weight"`).
    pub name: String,
    /// Current value.
    pub value: Tensor,
    /// Gradient of the loss w.r.t. `value`; accumulated by `backward`.
    /// Empty while released, see [`Self::release_grad`].
    pub grad: Tensor,
}

impl Parameter {
    /// Creates a parameter with a zeroed gradient of the same shape.
    pub fn new(name: impl Into<String>, value: Tensor) -> Parameter {
        let grad = Tensor::zeros(value.shape());
        Parameter {
            name: name.into(),
            value,
            grad,
        }
    }

    /// Number of scalar parameters.
    pub fn numel(&self) -> usize {
        self.value.numel()
    }

    /// Clears the gradient accumulator (nothing to clear while released).
    pub fn zero_grad(&mut self) {
        self.grad.as_mut_slice().fill(0.0);
    }

    /// Gives the dense gradient buffer back: the gradient of this
    /// parameter is consumed as it is produced and nothing reads `grad`.
    pub fn release_grad(&mut self) {
        if self.grad.numel() != 0 {
            self.grad = Tensor::zeros(&[0]);
        }
    }

    /// The dense gradient accumulator, for a writer: a released one comes
    /// back zeroed, in the shape of `value`.
    pub fn dense_grad(&mut self) -> &mut Tensor {
        if self.grad.numel() != self.value.numel() {
            self.grad = Tensor::zeros(self.value.shape());
        }
        &mut self.grad
    }

    /// Accumulates `delta` into the gradient.
    pub fn accumulate_grad(&mut self, delta: &[f32]) {
        tensor::ops::axpy(1.0, delta, self.dense_grad().as_mut_slice());
    }
}

/// Bytes of the f32 buffers `model`'s parameters hold right now, as
/// `(values, grads)`: the two dense shadows a process keeps next to the
/// compressed model state. Buffer lengths, not capacities or pages — a
/// released gradient counts zero.
pub fn resident_param_bytes(model: &impl Layer) -> (usize, usize) {
    model.params().iter().fold((0, 0), |(v, g), p| {
        (v + 4 * p.value.numel(), g + 4 * p.grad.numel())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_parameter_has_zero_grad() {
        let p = Parameter::new("w", Tensor::full(&[2, 3], 1.5));
        assert_eq!(p.numel(), 6);
        assert!(p.grad.as_slice().iter().all(|&g| g == 0.0));
        assert_eq!(p.grad.shape(), p.value.shape());
    }

    #[test]
    fn grad_accumulates_and_clears() {
        let mut p = Parameter::new("w", Tensor::zeros(&[4]));
        p.accumulate_grad(&[1.0, 2.0, 3.0, 4.0]);
        p.accumulate_grad(&[1.0, 1.0, 1.0, 1.0]);
        assert_eq!(p.grad.as_slice(), &[2.0, 3.0, 4.0, 5.0]);
        p.zero_grad();
        assert!(p.grad.as_slice().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn a_released_grad_is_empty_and_comes_back_zeroed_on_demand() {
        let mut p = Parameter::new("w", Tensor::full(&[2, 3], 1.0));
        p.accumulate_grad(&[1.0; 6]);
        p.release_grad();
        assert_eq!(p.grad.numel(), 0);
        p.zero_grad(); // nothing to clear
        p.release_grad(); // already gone
        assert_eq!(p.grad.numel(), 0);
        p.accumulate_grad(&[2.0; 6]);
        assert_eq!(p.grad.shape(), &[2, 3]);
        assert_eq!(p.grad.as_slice(), &[2.0; 6], "materialised from zeros, not the old sum");
    }

    #[test]
    fn resident_bytes_count_live_buffers() {
        let mut l = crate::linear::Linear::new(8, 4, true, 0);
        assert_eq!(resident_param_bytes(&l), (4 * 36, 4 * 36));
        l.weight_mut().release_grad();
        assert_eq!(resident_param_bytes(&l), (4 * 36, 4 * 4), "the bias gradient is left");
    }
}

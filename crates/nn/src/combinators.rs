//! Layer combinators: residual connections and shape adapters.

use crate::layer::{CacheSlot, Layer};
use crate::param::Parameter;
use tensor::Tensor;

/// Residual wrapper: `y = x + inner(x)` (identity shortcut). The inner
/// module must preserve shape.
pub struct Residual<L: Layer> {
    inner: L,
}

impl<L: Layer> Residual<L> {
    /// Wraps `inner` with an identity shortcut.
    pub fn new(inner: L) -> Residual<L> {
        Residual { inner }
    }

    /// Access the wrapped module.
    pub fn inner(&self) -> &L {
        &self.inner
    }
}

impl<L: Layer> Layer for Residual<L> {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let mut y = self.inner.forward(x);
        assert_eq!(y.shape(), x.shape(), "residual branch must preserve shape");
        tensor::ops::axpy(1.0, x.as_slice(), y.as_mut_slice());
        y
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let mut dx = self.inner.backward(dy);
        tensor::ops::axpy(1.0, dy.as_slice(), dx.as_mut_slice());
        dx
    }

    fn params(&self) -> Vec<&Parameter> {
        self.inner.params()
    }

    fn params_mut(&mut self) -> Vec<&mut Parameter> {
        self.inner.params_mut()
    }

    fn clear_caches(&mut self) {
        self.inner.clear_caches();
    }

    fn cached_bytes(&self) -> usize {
        self.inner.cached_bytes()
    }

    fn swap_caches(&mut self, slot: &mut CacheSlot) -> bool {
        self.inner.swap_caches(slot)
    }
}

/// Flattens `[B, ...]` to `[B, prod(...)]` (e.g. between conv stacks and
/// linear classifiers).
pub struct Flatten {
    cached_shape: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates the adapter.
    pub fn new() -> Flatten {
        Flatten { cached_shape: None }
    }
}

impl Default for Flatten {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for Flatten {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let shape = x.shape().to_vec();
        assert!(!shape.is_empty());
        let batch = shape[0];
        let rest: usize = shape[1..].iter().product();
        self.cached_shape = Some(shape);
        x.clone().reshape(&[batch, rest])
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let shape = self.cached_shape.take().expect("backward before forward");
        dy.clone().reshape(&shape)
    }

    fn params(&self) -> Vec<&Parameter> {
        vec![]
    }

    fn params_mut(&mut self) -> Vec<&mut Parameter> {
        vec![]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::Linear;

    #[test]
    fn residual_adds_identity() {
        // inner = Linear with weight 2·I: y = x + 2x = 3x.
        let mut w = Tensor::zeros(&[3, 3]);
        for i in 0..3 {
            w.as_mut_slice()[i * 3 + i] = 2.0;
        }
        let mut r = Residual::new(Linear::from_weights(w, None));
        let x = Tensor::from_vec(&[1, 3], vec![1.0, -2.0, 0.5]);
        let y = r.forward(&x);
        assert_eq!(y.as_slice(), &[3.0, -6.0, 1.5]);
        // Backward: dx = dy + Wᵀdy = 3·dy.
        let dx = r.backward(&Tensor::from_vec(&[1, 3], vec![1.0, 1.0, 1.0]));
        assert_eq!(dx.as_slice(), &[3.0, 3.0, 3.0]);
    }

    #[test]
    fn residual_gradcheck() {
        let mut r = Residual::new(Linear::new(5, 5, true, 3));
        let x = Tensor::randn(&[4, 5], 1.0, 4);
        let report = crate::gradcheck::check_layer(&mut r, &x, 1e-2, 32);
        assert!(report.passes(2e-2), "{report:?}");
    }

    #[test]
    #[should_panic(expected = "preserve shape")]
    fn residual_rejects_shape_change() {
        let mut r = Residual::new(Linear::new(4, 8, false, 0));
        r.forward(&Tensor::zeros(&[2, 4]));
    }

    #[test]
    fn flatten_roundtrip() {
        let mut f = Flatten::new();
        let x = Tensor::randn(&[2, 3, 4, 5], 1.0, 1);
        let y = f.forward(&x);
        assert_eq!(y.shape(), &[2, 60]);
        let dx = f.backward(&y);
        assert_eq!(dx.shape(), &[2, 3, 4, 5]);
        assert_eq!(dx.as_slice(), x.as_slice());
    }

    #[test]
    fn residual_cache_accounting_delegates() {
        let mut r = Residual::new(Linear::new(4, 4, false, 2));
        assert_eq!(r.cached_bytes(), 0);
        r.forward(&Tensor::zeros(&[3, 4]));
        assert_eq!(r.cached_bytes(), 3 * 4 * 4);
        r.clear_caches();
        assert_eq!(r.cached_bytes(), 0);
    }
}

//! A simple owned, row-major, dense tensor.
//!
//! The training stack in this workspace deliberately uses flat `f32`/`F16`
//! buffers plus explicit shapes (no strides, no views): every kernel is a
//! function over slices, which keeps the data layout transparent for the
//! memory accounting the paper's Sec. III is about.

use crate::f16::F16;
use crate::gemm;
use rand::distributions::Distribution;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Dense row-major `f32` tensor with an explicit shape.
#[derive(Clone, Debug, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// All-zeros tensor of the given shape.
    pub fn zeros(shape: &[usize]) -> Tensor {
        let numel = shape.iter().product();
        Tensor {
            shape: shape.to_vec(),
            data: vec![0.0; numel],
        }
    }

    /// Tensor filled with a constant.
    pub fn full(shape: &[usize], value: f32) -> Tensor {
        let numel = shape.iter().product();
        Tensor {
            shape: shape.to_vec(),
            data: vec![value; numel],
        }
    }

    /// Builds a tensor from an existing buffer.
    ///
    /// # Panics
    /// Panics if `data.len()` does not match the product of `shape`.
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Tensor {
        let numel: usize = shape.iter().product();
        assert_eq!(
            numel,
            data.len(),
            "shape {shape:?} wants {numel} elements, got {}",
            data.len()
        );
        Tensor {
            shape: shape.to_vec(),
            data,
        }
    }

    /// I.i.d. normal entries with the given std (mean 0), from a seeded RNG.
    pub fn randn(shape: &[usize], std: f32, seed: u64) -> Tensor {
        let numel: usize = shape.iter().product();
        let mut rng = StdRng::seed_from_u64(seed);
        let dist = rand::distributions::Uniform::new(0.0f32, 1.0f32);
        // Box–Muller from uniform pairs: avoids needing rand_distr.
        let mut data = Vec::with_capacity(numel);
        while data.len() < numel {
            let u1: f32 = dist.sample(&mut rng).max(1e-12);
            let u2: f32 = dist.sample(&mut rng);
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data.push(r * theta.cos() * std);
            if data.len() < numel {
                data.push(r * theta.sin() * std);
            }
        }
        Tensor {
            shape: shape.to_vec(),
            data,
        }
    }

    /// Kaiming-uniform initialization for a weight of shape
    /// `[fan_out, fan_in, ...]`: U(-b, b) with `b = sqrt(6 / fan_in)`.
    pub fn kaiming_uniform(shape: &[usize], seed: u64) -> Tensor {
        assert!(shape.len() >= 2, "kaiming init needs at least 2-D shape");
        let fan_in: usize = shape[1..].iter().product();
        let bound = (6.0 / fan_in as f32).sqrt();
        let numel: usize = shape.iter().product();
        let mut rng = StdRng::seed_from_u64(seed);
        let data = (0..numel).map(|_| rng.gen_range(-bound..bound)).collect();
        Tensor {
            shape: shape.to_vec(),
            data,
        }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Elements held: the product of the shape, or zero once
    /// [`Self::release`]d.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Gives the buffer back to the allocator and keeps the shape: the
    /// values live elsewhere (a SAMO-managed weight computes from the
    /// dense `θ16`) and whoever needs them here again builds a fresh
    /// tensor of [`Self::shape`].
    pub fn release(&mut self) {
        self.data = Vec::new();
    }

    /// Number of rows when viewed as 2-D (product of all but last dim).
    pub fn rows(&self) -> usize {
        if self.shape.is_empty() {
            1
        } else {
            self.shape[..self.shape.len() - 1].iter().product()
        }
    }

    /// Number of columns when viewed as 2-D (last dim).
    pub fn cols(&self) -> usize {
        *self.shape.last().unwrap_or(&1)
    }

    /// Borrow the underlying buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrow the underlying buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// The underlying buffer, moved out: no copy.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Returns a reshaped copy sharing the same element order.
    ///
    /// # Panics
    /// Panics if the new shape has a different element count.
    pub fn reshape(mut self, shape: &[usize]) -> Tensor {
        let numel: usize = shape.iter().product();
        assert_eq!(numel, self.data.len(), "reshape element count mismatch");
        self.shape = shape.to_vec();
        self
    }

    /// Matrix product `self · other` for 2-D-viewable tensors.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let (m, k) = (self.rows(), self.cols());
        let (k2, n) = (other.rows(), other.cols());
        assert_eq!(k, k2, "matmul inner dims mismatch: {k} vs {k2}");
        let mut out = Tensor::zeros(&[m, n]);
        gemm::matmul(m, n, k, &self.data, &other.data, &mut out.data);
        out
    }

    /// Builds an f32 tensor from half-precision data.
    pub fn from_f16(shape: &[usize], data: &[F16]) -> Tensor {
        let numel: usize = shape.iter().product();
        assert_eq!(numel, data.len());
        Tensor {
            shape: shape.to_vec(),
            data: data.iter().map(|v| v.to_f32()).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let t = Tensor::zeros(&[2, 3]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.numel(), 6);
        assert_eq!(t.rows(), 2);
        assert_eq!(t.cols(), 3);
        assert!(t.as_slice().iter().all(|&v| v == 0.0));

        let f = Tensor::full(&[4], 2.5);
        assert!(f.as_slice().iter().all(|&v| v == 2.5));
    }

    #[test]
    fn rows_cols_of_3d() {
        let t = Tensor::zeros(&[2, 3, 4]);
        assert_eq!(t.rows(), 6);
        assert_eq!(t.cols(), 4);
    }

    #[test]
    #[should_panic(expected = "shape")]
    fn from_vec_rejects_bad_length() {
        Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn randn_is_deterministic_and_plausible() {
        let a = Tensor::randn(&[1000], 1.0, 42);
        let b = Tensor::randn(&[1000], 1.0, 42);
        assert_eq!(a, b);
        let mean: f32 = a.as_slice().iter().sum::<f32>() / 1000.0;
        let var: f32 = a.as_slice().iter().map(|v| (v - mean).powi(2)).sum::<f32>() / 1000.0;
        assert!(mean.abs() < 0.15, "mean {mean}");
        assert!((var - 1.0).abs() < 0.25, "var {var}");
    }

    #[test]
    fn kaiming_bound_respected() {
        let t = Tensor::kaiming_uniform(&[16, 64], 1);
        let bound = (6.0f32 / 64.0).sqrt();
        assert!(t.as_slice().iter().all(|v| v.abs() <= bound));
        // Not degenerate:
        assert!(t.as_slice().iter().any(|v| v.abs() > bound * 0.5));
    }

    #[test]
    fn matmul_small() {
        let a = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let b = Tensor::from_vec(&[2, 2], vec![5.0, 6.0, 7.0, 8.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn reshape_preserves_data() {
        let a = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = a.clone().reshape(&[3, 2]);
        assert_eq!(b.shape(), &[3, 2]);
        assert_eq!(b.as_slice(), a.as_slice());
    }

    #[test]
    fn f16_roundtrip_of_representable() {
        let a = Tensor::from_vec(&[3], vec![0.5, -2.0, 1024.0]);
        let h = crate::f16::f32_slice_to_f16(a.as_slice());
        let back = Tensor::from_f16(&[3], &h);
        assert_eq!(back.as_slice(), a.as_slice());
    }
}

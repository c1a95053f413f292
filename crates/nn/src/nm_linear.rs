//! A fully-connected layer computing with the 2:4 *structured* sparse
//! kernel — the counterpart to [`crate::sparse_linear`]'s unstructured
//! CSR baseline. Where Fig. 1 of the paper shows unstructured sparse
//! kernels losing to dense GEMM at pruned-network sparsities, the fixed
//! 2-of-4 pattern admits a branch-free SIMD inner loop
//! ([`sparse::spmm_nm24`], DESIGN.md §11) that can actually win at 50%.
//!
//! Inference-only: SAMO trains with dense fp16 kernels (Sec. III); this
//! layer is the deployment path for a model pruned with
//! [`prune::nm_prune_24`].

use crate::layer::Layer;
use crate::param::Parameter;
use sparse::{spmm_nm24, Nm24};
use tensor::Tensor;

/// Affine map `y = x · Wᵀ + b` with `W` (`[out_features, in_features]`,
/// `in_features % 4 == 0`) stored in 2:4 structured form.
pub struct NmLinear {
    weight: Nm24,
    bias: Option<Tensor>,
    /// Transpose scratch for [`Layer::infer_batch`] (`xᵀ` in, `yᵀ` out):
    /// warm after the first batch, reused allocation-free thereafter.
    xt: Vec<f32>,
    yt: Vec<f32>,
}

impl NmLinear {
    /// Compresses a dense weight under a 2:4 keep-mask (e.g.
    /// `prune::nm_prune_24(..).to_bools()`); panics if the mask is not a
    /// true 2-of-4 pattern.
    pub fn from_dense_masked(weight: &Tensor, keep: &[bool], bias: Option<Tensor>) -> NmLinear {
        assert_eq!(weight.shape().len(), 2);
        let (out_f, in_f) = (weight.shape()[0], weight.shape()[1]);
        if let Some(b) = &bias {
            assert_eq!(b.numel(), out_f);
        }
        NmLinear {
            weight: Nm24::from_dense_masked(weight.as_slice(), out_f, in_f, keep),
            bias,
            xt: Vec::new(),
            yt: Vec::new(),
        }
    }

    /// Compresses a dense weight with the default magnitude top-2-of-4
    /// rule.
    pub fn from_dense(weight: &Tensor, bias: Option<Tensor>) -> NmLinear {
        assert_eq!(weight.shape().len(), 2);
        let (out_f, in_f) = (weight.shape()[0], weight.shape()[1]);
        if let Some(b) = &bias {
            assert_eq!(b.numel(), out_f);
        }
        NmLinear {
            weight: Nm24::from_dense(weight.as_slice(), out_f, in_f),
            bias,
            xt: Vec::new(),
            yt: Vec::new(),
        }
    }

    pub fn in_features(&self) -> usize {
        self.weight.cols()
    }

    pub fn out_features(&self) -> usize {
        self.weight.rows()
    }

    /// The structured weight.
    pub fn weight(&self) -> &Nm24 {
        &self.weight
    }
}

impl Layer for NmLinear {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let batch = x.rows();
        let (out_f, in_f) = (self.weight.rows(), self.weight.cols());
        assert_eq!(x.cols(), in_f, "input feature mismatch");
        // yᵀ = W_2:4 · xᵀ (same transpose dance as SparseLinear — the
        // structured kernel also wants the reduction contiguous in B).
        let mut xt = vec![0.0f32; x.numel()];
        for r in 0..batch {
            for c in 0..in_f {
                xt[c * batch + r] = x.as_slice()[r * in_f + c];
            }
        }
        let mut yt = vec![0.0f32; out_f * batch];
        spmm_nm24(&self.weight, &xt, batch, &mut yt);
        let mut y = Tensor::zeros(&[batch, out_f]);
        for o in 0..out_f {
            for r in 0..batch {
                y.as_mut_slice()[r * out_f + o] = yt[o * batch + r];
            }
        }
        if let Some(b) = &self.bias {
            let bs = b.as_slice();
            for row in y.as_mut_slice().chunks_mut(out_f) {
                for (v, &bv) in row.iter_mut().zip(bs) {
                    *v += bv;
                }
            }
        }
        y
    }

    fn infer_batch(&mut self, x: &[f32], batch: usize, in_cols: usize, out: &mut Vec<f32>) -> usize {
        let (out_f, in_f) = (self.weight.rows(), self.weight.cols());
        assert_eq!(in_cols, in_f, "input feature mismatch");
        assert_eq!(x.len(), batch * in_f, "input slice/shape mismatch");
        // Same transpose dance as `forward`, but through warm scratch.
        self.xt.clear();
        self.xt.resize(batch * in_f, 0.0);
        for r in 0..batch {
            for c in 0..in_f {
                self.xt[c * batch + r] = x[r * in_f + c];
            }
        }
        self.yt.clear();
        self.yt.resize(out_f * batch, 0.0);
        spmm_nm24(&self.weight, &self.xt, batch, &mut self.yt);
        out.clear();
        out.resize(batch * out_f, 0.0);
        for o in 0..out_f {
            for r in 0..batch {
                out[r * out_f + o] = self.yt[o * batch + r];
            }
        }
        if let Some(b) = &self.bias {
            let bs = b.as_slice();
            for row in out.chunks_mut(out_f) {
                for (v, &bv) in row.iter_mut().zip(bs) {
                    *v += bv;
                }
            }
        }
        out_f
    }

    fn backward(&mut self, _dy: &Tensor) -> Tensor {
        panic!("NmLinear is inference-only: no backward pass");
    }

    fn params(&self) -> Vec<&Parameter> {
        Vec::new()
    }

    fn params_mut(&mut self) -> Vec<&mut Parameter> {
        Vec::new()
    }

    fn for_each_param_mut(&mut self, _f: &mut dyn FnMut(&mut Parameter)) {}

    fn clear_caches(&mut self) {}

    fn cached_bytes(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::Linear;

    #[test]
    fn forward_matches_masked_dense() {
        let (out_f, in_f, batch) = (9usize, 16usize, 6usize);
        let w = Tensor::randn(&[out_f, in_f], 1.0, 31);
        let mask = prune::nm_prune_24(w.as_slice(), out_f, in_f);
        let bias = Tensor::randn(&[out_f], 0.5, 32);
        let mut nl = NmLinear::from_dense_masked(&w, &mask.to_bools(), Some(bias.clone()));
        assert_eq!(nl.weight().nnz(), out_f * in_f / 2);
        let mut masked = w.as_slice().to_vec();
        mask.apply(&mut masked);
        let mut dl = Linear::from_weights(Tensor::from_vec(&[out_f, in_f], masked), Some(bias));
        let x = Tensor::randn(&[batch, in_f], 1.0, 33);
        let yn = nl.forward(&x);
        let yd = dl.forward(&x);
        for (a, b) in yn.as_slice().iter().zip(yd.as_slice()) {
            assert!((a - b).abs() < 1e-4 * (1.0 + b.abs()), "{a} vs {b}");
        }
    }

    #[test]
    fn infer_batch_matches_forward_bitwise() {
        let (out_f, in_f, batch) = (9usize, 16usize, 6usize);
        let w = Tensor::randn(&[out_f, in_f], 1.0, 51);
        let bias = Tensor::randn(&[out_f], 0.5, 52);
        let mut nl = NmLinear::from_dense(&w, Some(bias));
        let x = Tensor::randn(&[batch, in_f], 1.0, 53);
        let y = nl.forward(&x);
        let mut out = Vec::new();
        for _ in 0..2 {
            let cols = nl.infer_batch(x.as_slice(), batch, in_f, &mut out);
            assert_eq!(cols, out_f);
            assert_eq!(out.as_slice(), y.as_slice(), "infer path must be bitwise forward");
        }
    }

    #[test]
    fn default_constructor_matches_magnitude_mask() {
        let w = Tensor::randn(&[4, 8], 1.0, 41);
        let mask = prune::nm_prune_24(w.as_slice(), 4, 8);
        let a = NmLinear::from_dense(&w, None);
        let b = NmLinear::from_dense_masked(&w, &mask.to_bools(), None);
        assert_eq!(a.weight().to_dense(), b.weight().to_dense());
    }
}

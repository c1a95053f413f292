//! A fully-connected layer computing with *sparse* kernels — the
//! Sputnik-integrated-into-AxoNN baseline of the paper's evaluation,
//! made concrete: the pruned weight matrix is stored CSR, the forward
//! and input-gradient passes run spMM, and the weight gradient is a
//! sampled dense–dense product (sDDMM) evaluated only at unpruned
//! positions.
//!
//! This is the road the paper shows *not* to take (Fig. 1): on GPUs,
//! these kernels lose to dense GEMM at pruned-network sparsities. Having
//! the layer real lets the reproduction (a) verify the sparse math is
//! exactly the masked dense math, and (b) benchmark the two honestly on
//! CPU (`repro bench`'s `spmm_csr_256` row against `sgemm_256_*`).

use crate::layer::Layer;
use crate::param::Parameter;
use sparse::{sddmm, spmm, Csr};
use tensor::Tensor;

/// Affine map `y = x · Wᵀ + b` with a CSR weight of shape
/// `[out_features, in_features]`; only the stored (unpruned) weights are
/// trainable.
pub struct SparseLinear {
    weight: Csr,
    /// Gradient w.r.t. the stored nonzero values, in CSR value order.
    weight_grad: Vec<f32>,
    bias: Option<Parameter>,
    cached_input: Option<Tensor>,
}

impl SparseLinear {
    /// Builds the layer from a dense weight and a sparsity mask applied
    /// to it (entries outside the mask are dropped).
    pub fn from_dense_masked(weight: &Tensor, mask: &prune::Mask, bias: Option<Tensor>) -> SparseLinear {
        assert_eq!(weight.shape().len(), 2);
        assert_eq!(weight.numel(), mask.numel());
        let (out_f, in_f) = (weight.shape()[0], weight.shape()[1]);
        let mut masked = weight.as_slice().to_vec();
        mask.apply(&mut masked);
        // Build CSR from the mask pattern (keeping explicit zeros that
        // happen to be unpruned — their positions are trainable).
        let keep = mask.to_bools();
        let coo = sparse::Coo::from_dense_where(&masked, out_f, in_f, |i, _| keep[i]);
        let weight = coo.to_csr();
        if let Some(b) = &bias {
            assert_eq!(b.numel(), out_f);
        }
        let nnz = weight.nnz();
        SparseLinear {
            weight,
            weight_grad: vec![0.0; nnz],
            bias: bias.map(|b| Parameter::new("sparse_linear.bias", b)),
            cached_input: None,
        }
    }

    /// Input dimensionality.
    pub fn in_features(&self) -> usize {
        self.weight.cols
    }

    /// Output dimensionality.
    pub fn out_features(&self) -> usize {
        self.weight.rows
    }

    /// The CSR weight matrix.
    pub fn weight(&self) -> &Csr {
        &self.weight
    }

    /// Gradient of the stored nonzero weights (CSR value order).
    pub fn weight_grad(&self) -> &[f32] {
        &self.weight_grad
    }

    /// Applies a plain SGD update to the stored weights and bias, and
    /// clears gradients (sparse baseline training loop).
    pub fn sgd_update(&mut self, lr: f32) {
        for (w, g) in self.weight.values.iter_mut().zip(&self.weight_grad) {
            *w -= lr * g;
        }
        self.weight_grad.fill(0.0);
        if let Some(b) = &mut self.bias {
            let grads = b.grad.as_slice().to_vec();
            for (v, g) in b.value.as_mut_slice().iter_mut().zip(grads) {
                *v -= lr * g;
            }
            b.zero_grad();
        }
    }
}

impl Layer for SparseLinear {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let batch = x.rows();
        assert_eq!(x.cols(), self.weight.cols, "input feature mismatch");
        // yᵀ = W_sparse · xᵀ: compute y (batch × out) via spMM on the
        // transposed view — spmm produces (out × batch), so run it into
        // a scratch and transpose. (The GPU kernels do this natively.)
        let mut yt = vec![0.0f32; self.weight.rows * batch];
        // B := xᵀ is (in × batch); build it once.
        let mut xt = vec![0.0f32; x.numel()];
        for r in 0..batch {
            for c in 0..self.weight.cols {
                xt[c * batch + r] = x.as_slice()[r * self.weight.cols + c];
            }
        }
        spmm(&self.weight, &xt, batch, &mut yt);
        let mut y = Tensor::zeros(&[batch, self.weight.rows]);
        for o in 0..self.weight.rows {
            for r in 0..batch {
                y.as_mut_slice()[r * self.weight.rows + o] = yt[o * batch + r];
            }
        }
        if let Some(b) = &self.bias {
            let bs = b.value.as_slice();
            for row in y.as_mut_slice().chunks_mut(self.weight.rows) {
                for (v, &bv) in row.iter_mut().zip(bs) {
                    *v += bv;
                }
            }
        }
        self.cached_input = Some(x.clone());
        y
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let x = self.cached_input.take().expect("backward before forward");
        let batch = x.rows();
        let (out_f, in_f) = (self.weight.rows, self.weight.cols);
        assert_eq!(dy.rows(), batch);
        assert_eq!(dy.cols(), out_f);

        // dW (sampled at the sparsity pattern) = (dyᵀ · x) ⊙ pattern:
        // sDDMM with A = dyᵀ rows ↔ pattern rows (out), B = xᵀ rows ↔
        // pattern cols (in), inner dimension = batch.
        let mut dyt = vec![0.0f32; out_f * batch];
        for r in 0..batch {
            for o in 0..out_f {
                dyt[o * batch + r] = dy.as_slice()[r * out_f + o];
            }
        }
        let mut xt = vec![0.0f32; in_f * batch];
        for r in 0..batch {
            for c in 0..in_f {
                xt[c * batch + r] = x.as_slice()[r * in_f + c];
            }
        }
        let mut dw = vec![0.0f32; self.weight.nnz()];
        sddmm(&self.weight, &dyt, &xt, batch, &mut dw);
        for (acc, d) in self.weight_grad.iter_mut().zip(dw) {
            *acc += d;
        }

        if let Some(b) = &mut self.bias {
            let gb = b.grad.as_mut_slice();
            for row in dy.as_slice().chunks(out_f) {
                for (g, &d) in gb.iter_mut().zip(row) {
                    *g += d;
                }
            }
        }

        // dx = dy · W: dxᵀ = Wᵀ · dyᵀ — use spMM on the transposed
        // pattern. Build Wᵀ CSR once per backward (the GPU baseline
        // keeps both orientations resident).
        let wt = self.weight.to_coo();
        let mut t_entries: Vec<(u32, f32)> = Vec::with_capacity(wt.nnz());
        for (&i, &v) in wt.indices.iter().zip(&wt.values) {
            let (r, c) = (i as usize / in_f, i as usize % in_f);
            t_entries.push(((c * out_f + r) as u32, v));
        }
        t_entries.sort_unstable_by_key(|&(i, _)| i);
        let wt_coo = sparse::Coo {
            rows: in_f,
            cols: out_f,
            indices: t_entries.iter().map(|&(i, _)| i).collect(),
            values: t_entries.iter().map(|&(_, v)| v).collect(),
        };
        let wt_csr = wt_coo.to_csr();
        let mut dxt = vec![0.0f32; in_f * batch];
        spmm(&wt_csr, &dyt, batch, &mut dxt);
        let mut dx = Tensor::zeros(&[batch, in_f]);
        for c in 0..in_f {
            for r in 0..batch {
                dx.as_mut_slice()[r * in_f + c] = dxt[c * batch + r];
            }
        }
        dx
    }

    fn params(&self) -> Vec<&Parameter> {
        self.bias.iter().collect()
    }

    fn params_mut(&mut self) -> Vec<&mut Parameter> {
        self.bias.iter_mut().collect()
    }

    fn for_each_param_mut(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        if let Some(b) = &mut self.bias {
            f(b);
        }
    }

    fn clear_caches(&mut self) {
        self.cached_input = None;
    }

    fn cached_bytes(&self) -> usize {
        self.cached_input.as_ref().map_or(0, |t| t.numel() * 4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::Linear;

    fn setup(seed: u64, sparsity: f64) -> (SparseLinear, Linear, prune::Mask) {
        let (out_f, in_f) = (12usize, 10usize);
        let w = Tensor::randn(&[out_f, in_f], 1.0, seed);
        let mask = prune::magnitude_prune(w.as_slice(), &[out_f, in_f], sparsity);
        let bias = Tensor::randn(&[out_f], 0.5, seed + 1);

        let sparse_layer = SparseLinear::from_dense_masked(&w, &mask, Some(bias.clone()));
        // Dense reference: same masked weights.
        let mut masked = w.as_slice().to_vec();
        mask.apply(&mut masked);
        let dense_layer =
            Linear::from_weights(Tensor::from_vec(&[out_f, in_f], masked), Some(bias));
        (sparse_layer, dense_layer, mask)
    }

    #[test]
    fn forward_matches_masked_dense() {
        let (mut sl, mut dl, _) = setup(1, 0.8);
        let x = Tensor::randn(&[5, 10], 1.0, 2);
        let ys = sl.forward(&x);
        let yd = dl.forward(&x);
        for (a, b) in ys.as_slice().iter().zip(yd.as_slice()) {
            assert!((a - b).abs() < 1e-4 * (1.0 + b.abs()), "{a} vs {b}");
        }
    }

    #[test]
    fn backward_matches_masked_dense() {
        let (mut sl, mut dl, mask) = setup(3, 0.7);
        let x = Tensor::randn(&[6, 10], 1.0, 4);
        let dy = Tensor::randn(&[6, 12], 1.0, 5);
        sl.forward(&x);
        dl.forward(&x);
        let dxs = sl.backward(&dy);
        let dxd = dl.backward(&dy);
        // Input gradients identical (pruned weights are zero in both).
        for (a, b) in dxs.as_slice().iter().zip(dxd.as_slice()) {
            assert!((a - b).abs() < 1e-4 * (1.0 + b.abs()), "{a} vs {b}");
        }
        // Weight gradients: sparse grad equals the dense grad sampled at
        // the mask, in CSR order.
        let dense_grad = dl.params()[0].grad.as_slice();
        let keep = mask.to_bools();
        let mut cursor = 0usize;
        for (i, &k) in keep.iter().enumerate() {
            if k {
                let got = sl.weight_grad()[cursor];
                let want = dense_grad[i];
                assert!((got - want).abs() < 1e-4 * (1.0 + want.abs()), "{got} vs {want}");
                cursor += 1;
            }
        }
        assert_eq!(cursor, sl.weight().nnz());
        // Bias gradients identical.
        assert_eq!(sl.params()[0].grad.as_slice(), dl.params()[1].grad.as_slice());
    }

    #[test]
    fn sparse_training_tracks_dense_training() {
        // Train both layers with the same SGD steps: trajectories match.
        let (mut sl, mut dl, mask) = setup(7, 0.75);
        let lr = 0.05f32;
        for step in 0..10 {
            let x = Tensor::randn(&[4, 10], 1.0, 100 + step);
            let target = Tensor::randn(&[4, 12], 1.0, 200 + step);
            let ys = sl.forward(&x);
            let yd = dl.forward(&x);
            let (_, ds) = crate::loss::mse(&ys, &target);
            let (_, dd) = crate::loss::mse(&yd, &target);
            sl.backward(&ds);
            dl.backward(&dd);
            sl.sgd_update(lr);
            // Dense: mask the gradient, step, re-mask.
            let p = &mut dl.params_mut()[0];
            let mut g = p.grad.as_slice().to_vec();
            mask.apply(&mut g);
            for (w, gv) in p.value.as_mut_slice().iter_mut().zip(&g) {
                *w -= lr * gv;
            }
            p.zero_grad();
            let pb = &mut dl.params_mut()[1];
            let gb = pb.grad.as_slice().to_vec();
            for (v, gv) in pb.value.as_mut_slice().iter_mut().zip(&gb) {
                *v -= lr * gv;
            }
            pb.zero_grad();
        }
        // Final weights agree at the unpruned positions.
        let dense_w = dl.params()[0].value.as_slice();
        let sparse_dense = sl.weight().to_dense();
        for (a, b) in sparse_dense.iter().zip(dense_w) {
            assert!((a - b).abs() < 1e-3 * (1.0 + b.abs()), "{a} vs {b}");
        }
    }

    #[test]
    fn unpruned_zero_weights_are_trainable() {
        // An unpruned position whose initial value is exactly 0 must
        // still receive gradient (it is part of the subnetwork).
        let w = Tensor::zeros(&[2, 2]);
        let mask = prune::Mask::new(&[2, 2], vec![0, 3]);
        let mut sl = SparseLinear::from_dense_masked(&w, &mask, None);
        assert_eq!(sl.weight().nnz(), 2, "explicit zeros kept");
        let x = Tensor::from_vec(&[1, 2], vec![1.0, 1.0]);
        sl.forward(&x);
        sl.backward(&Tensor::from_vec(&[1, 2], vec![1.0, 1.0]));
        assert!(sl.weight_grad().iter().all(|&g| g != 0.0));
    }
}

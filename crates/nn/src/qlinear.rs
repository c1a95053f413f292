//! Int8 inference linear layer over [`tensor::qgemm`].
//!
//! Weights are quantized **once** at construction (per-output-channel
//! symmetric scales, the torchao recipe); activations are quantized
//! per-row on the fly inside the forward. This is the inference-only
//! endpoint of DESIGN.md §11's int8 tier — there is no backward, because
//! training stays in the paper's fp16/fp32 mixed-precision regime.

use crate::layer::Layer;
use crate::param::Parameter;
use tensor::qgemm::{qgemm_i8_with_tier, quantize_rows_i8_into, PackedBi8, QuantizedActs};
use tensor::simd;
use tensor::Tensor;

/// Affine map `y = x · Wᵀ + b` with `W` stored int8-quantized
/// (`[out_features, in_features]` at construction, packed transposed for
/// the GEMM).
pub struct QuantLinear {
    packed: PackedBi8,
    bias: Option<Tensor>,
    in_features: usize,
    out_features: usize,
    /// Activation-quantization scratch for [`Layer::infer_batch`]: warm
    /// after the first batch, reused allocation-free thereafter.
    acts: QuantizedActs,
}

impl QuantLinear {
    /// Quantizes a dense `[out_features, in_features]` weight.
    pub fn from_weights(weight: &Tensor, bias: Option<Tensor>) -> QuantLinear {
        assert_eq!(weight.shape().len(), 2);
        let (out_f, in_f) = (weight.shape()[0], weight.shape()[1]);
        if let Some(b) = &bias {
            assert_eq!(b.numel(), out_f);
        }
        // The GEMM computes C = A · B with B of shape k × n, so pack Wᵀ
        // (in × out); its per-column scales are per-output-channel.
        let w = weight.as_slice();
        let mut wt = vec![0.0f32; in_f * out_f];
        for o in 0..out_f {
            for i in 0..in_f {
                wt[i * out_f + o] = w[o * in_f + i];
            }
        }
        QuantLinear {
            packed: PackedBi8::pack(&wt, in_f, out_f),
            bias,
            in_features: in_f,
            out_features: out_f,
            acts: QuantizedActs::default(),
        }
    }

    pub fn in_features(&self) -> usize {
        self.in_features
    }

    pub fn out_features(&self) -> usize {
        self.out_features
    }
}

impl Layer for QuantLinear {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let batch = x.rows();
        assert_eq!(x.cols(), self.in_features, "input feature mismatch");
        let mut y = Tensor::zeros(&[batch, self.out_features]);
        tensor::qgemm::qgemm_dyn(simd::active(), x.as_slice(), batch, &self.packed, y.as_mut_slice());
        if let Some(b) = &self.bias {
            let bs = b.as_slice();
            for row in y.as_mut_slice().chunks_mut(self.out_features) {
                for (v, &bv) in row.iter_mut().zip(bs) {
                    *v += bv;
                }
            }
        }
        y
    }

    fn infer_batch(&mut self, x: &[f32], batch: usize, in_cols: usize, out: &mut Vec<f32>) -> usize {
        assert_eq!(in_cols, self.in_features, "input feature mismatch");
        assert_eq!(x.len(), batch * in_cols, "input slice/shape mismatch");
        let tier = simd::active();
        quantize_rows_i8_into(tier, x, batch, self.in_features, &mut self.acts);
        out.clear();
        out.resize(batch * self.out_features, 0.0);
        qgemm_i8_with_tier(tier, &self.acts, &self.packed, out);
        if let Some(b) = &self.bias {
            let bs = b.as_slice();
            for row in out.chunks_mut(self.out_features) {
                for (v, &bv) in row.iter_mut().zip(bs) {
                    *v += bv;
                }
            }
        }
        self.out_features
    }

    fn backward(&mut self, _dy: &Tensor) -> Tensor {
        panic!("QuantLinear is inference-only: no backward pass");
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
    use tensor::qgemm::{error_bound, quantize_rows_i8};

    /// A priori error bound on `|y - y_f32|` per output element, for one
    /// input row: the sum of the quantization half-ulp cross-terms over
    /// the reduction (DESIGN.md §11).
    fn output_error_bound(ql: &QuantLinear, x_row: &[f32]) -> Vec<f64> {
        assert_eq!(x_row.len(), ql.in_features);
        let q = quantize_rows_i8(x_row, 1, ql.in_features);
        let wt = ql.packed.dequantize();
        (0..ql.out_features)
            .map(|o| {
                let col = (0..ql.in_features).map(|i| wt[i * ql.out_features + o]);
                error_bound(x_row, col, q.scales[0], ql.packed.scales[o])
            })
            .collect()
    }

    #[test]
    fn forward_within_quantization_error_bound_of_dense() {
        let (out_f, in_f, batch) = (12usize, 33usize, 5usize);
        let w = Tensor::randn(&[out_f, in_f], 1.0, 11);
        let bias = Tensor::randn(&[out_f], 0.5, 12);
        let mut ql = QuantLinear::from_weights(&w, Some(bias.clone()));
        let mut dl = Linear::from_weights(w, Some(bias));
        let x = Tensor::randn(&[batch, in_f], 1.0, 13);
        let yq = ql.forward(&x);
        let yd = dl.forward(&x);
        for r in 0..batch {
            let bounds = output_error_bound(&ql, &x.as_slice()[r * in_f..(r + 1) * in_f]);
            for (o, bound) in bounds.iter().enumerate() {
                let (a, b) = (yq.as_slice()[r * out_f + o], yd.as_slice()[r * out_f + o]);
                let err = (a - b).abs() as f64;
                assert!(
                    err <= bound * 1.0001 + 1e-5,
                    "row {r} out {o}: |{a} - {b}| = {err} > bound {bound}"
                );
            }
        }
    }

    #[test]
    fn infer_batch_matches_forward_bitwise() {
        let (out_f, in_f, batch) = (12usize, 33usize, 5usize);
        let w = Tensor::randn(&[out_f, in_f], 1.0, 21);
        let bias = Tensor::randn(&[out_f], 0.5, 22);
        let mut ql = QuantLinear::from_weights(&w, Some(bias));
        let x = Tensor::randn(&[batch, in_f], 1.0, 23);
        let y = ql.forward(&x);
        let mut out = Vec::new();
        for _ in 0..2 {
            let cols = ql.infer_batch(x.as_slice(), batch, in_f, &mut out);
            assert_eq!(cols, out_f);
            assert_eq!(out.as_slice(), y.as_slice(), "infer path must be bitwise forward");
        }
    }

    #[test]
    fn shapes_and_zero_bias() {
        let w = Tensor::randn(&[3, 7], 1.0, 1);
        let mut ql = QuantLinear::from_weights(&w, None);
        assert_eq!(ql.in_features(), 7);
        assert_eq!(ql.out_features(), 3);
        let y = ql.forward(&Tensor::randn(&[2, 7], 1.0, 2));
        assert_eq!(y.shape(), &[2, 3]);
    }

    #[test]
    #[should_panic(expected = "inference-only")]
    fn backward_panics() {
        let w = Tensor::randn(&[2, 2], 1.0, 1);
        let mut ql = QuantLinear::from_weights(&w, None);
        ql.backward(&Tensor::zeros(&[1, 2]));
    }
}

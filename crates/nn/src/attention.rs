//! Multi-head causal self-attention (Vaswani et al.), the core block of
//! the GPT-3-style models in the paper's Table I.

use crate::layer::Layer;
use crate::linear::Linear;
use crate::param::Parameter;
use tensor::gemm::sgemm;
use tensor::ops::softmax_rows;
use tensor::Tensor;

/// Multi-head self-attention with a causal (lower-triangular) mask.
///
/// Input/output shape is `[B, T, C]`. Internally: fused QKV projection
/// `C → 3C`, per-head scaled dot-product attention, and an output
/// projection `C → C`. No head is ever copied out of the fused buffer:
/// q, k and v of head `h` in batch `b` are `[T, hd]` views into it with
/// leading dimension `3C`, which is all a GEMM operand needs to be, and
/// the per-head products land where the next layer reads them.
pub struct CausalSelfAttention {
    qkv: Linear,
    proj: Linear,
    heads: usize,
    dim: usize,
    cache: Option<AttnCache>,
}

struct AttnCache {
    batch: usize,
    seq: usize,
    /// `[B*T, 3C]` output of the QKV projection.
    qkv_out: Tensor,
    /// Attention probabilities, `[B, H, T, T]`.
    probs: Vec<f32>,
}

impl CausalSelfAttention {
    /// Creates an attention block with `heads` heads over model dim `dim`.
    pub fn new(dim: usize, heads: usize, seed: u64) -> CausalSelfAttention {
        assert!(dim.is_multiple_of(heads), "dim must be divisible by heads");
        CausalSelfAttention {
            qkv: Linear::new(dim, 3 * dim, true, seed),
            proj: Linear::new(dim, dim, true, seed.wrapping_add(1)),
            heads,
            dim,
            cache: None,
        }
    }

    /// Head count.
    pub fn heads(&self) -> usize {
        self.heads
    }

    /// Where head `h` of batch `b` starts in a `[B*T, 3C]` buffer: its q
    /// rows there, k at `+ C`, v at `+ 2C`, each `hd` wide.
    fn head_at(&self, b: usize, h: usize, seq: usize) -> usize {
        b * seq * 3 * self.dim + h * (self.dim / self.heads)
    }
}

impl Layer for CausalSelfAttention {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let shape = x.shape();
        assert_eq!(shape.len(), 3, "attention expects [B, T, C]");
        let (batch, seq, c) = (shape[0], shape[1], shape[2]);
        assert_eq!(c, self.dim);
        let (hd, ld) = (c / self.heads, 3 * c);
        let scale = 1.0 / (hd as f32).sqrt();

        let flat = x.clone().reshape(&[batch * seq, c]);
        let qkv_out = self.qkv.forward(&flat);
        let qkv = qkv_out.as_slice();

        let mut att_out = Tensor::zeros(&[batch * seq, c]);
        let mut probs = vec![0.0f32; batch * self.heads * seq * seq];
        for b in 0..batch {
            for h in 0..self.heads {
                let at = self.head_at(b, h, seq);
                let p = &mut probs[(b * self.heads + h) * seq * seq..][..seq * seq];
                // scores = q · kᵀ / √hd
                sgemm(false, true, seq, seq, hd, scale, &qkv[at..], ld, &qkv[at + c..], ld, 0.0, p, seq);
                // Causal mask: position i may not attend to j > i.
                for i in 0..seq {
                    p[i * seq + i + 1..(i + 1) * seq].fill(f32::NEG_INFINITY);
                }
                softmax_rows(p, seq, seq);
                // out = probs · v, into this head's columns of `att_out`.
                let out = &mut att_out.as_mut_slice()[b * seq * c + h * hd..];
                sgemm(false, false, seq, hd, seq, 1.0, p, seq, &qkv[at + 2 * c..], ld, 0.0, out, c);
            }
        }

        let y = self.proj.forward(&att_out);
        self.cache = Some(AttnCache { batch, seq, qkv_out, probs });
        y.reshape(&[batch, seq, c])
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let cache = self.cache.take().expect("backward before forward");
        let (batch, seq) = (cache.batch, cache.seq);
        let c = self.dim;
        let (hd, ld) = (c / self.heads, 3 * c);
        let scale = 1.0 / (hd as f32).sqrt();

        let dflat = dy.clone().reshape(&[batch * seq, c]);
        let d_att_out = self.proj.backward(&dflat);
        let qkv = cache.qkv_out.as_slice();

        // Every element of `dqkv` is written once, by the product that
        // owns it; `ds` is the one `[T, T]` scratch of the whole pass.
        let mut dqkv = Tensor::zeros(&[batch * seq, ld]);
        let mut ds = vec![0.0f32; seq * seq];
        for b in 0..batch {
            for h in 0..self.heads {
                let at = self.head_at(b, h, seq);
                let p = &cache.probs[(b * self.heads + h) * seq * seq..][..seq * seq];
                let dout = &d_att_out.as_slice()[b * seq * c + h * hd..];
                let d = dqkv.as_mut_slice();

                // dV = probsᵀ · dOut
                sgemm(true, false, seq, hd, seq, 1.0, p, seq, dout, c, 0.0, &mut d[at + 2 * c..], ld);
                // dProbs = dOut · vᵀ
                sgemm(false, true, seq, seq, hd, 1.0, dout, c, &qkv[at + 2 * c..], ld, 0.0, &mut ds, seq);
                // Softmax backward per row, in place: ds = p ⊙ (dp − Σ dp⊙p) / √hd.
                for (prow, drow) in p.chunks(seq).zip(ds.chunks_mut(seq)) {
                    let dot: f32 = prow.iter().zip(drow.iter()).map(|(p, d)| p * d).sum();
                    for (d, &p) in drow.iter_mut().zip(prow) {
                        *d = p * (*d - dot) * scale;
                    }
                }
                // dq = dScores · k; dk = dScoresᵀ · q.
                sgemm(false, false, seq, hd, seq, 1.0, &ds, seq, &qkv[at + c..], ld, 0.0, &mut d[at..], ld);
                sgemm(true, false, seq, hd, seq, 1.0, &ds, seq, &qkv[at..], ld, 0.0, &mut d[at + c..], ld);
            }
        }

        self.qkv.backward(&dqkv).reshape(&[batch, seq, c])
    }

    fn params(&self) -> Vec<&Parameter> {
        let mut v = self.qkv.params();
        v.extend(self.proj.params());
        v
    }

    fn params_mut(&mut self) -> Vec<&mut Parameter> {
        let mut v = self.qkv.params_mut();
        v.extend(self.proj.params_mut());
        v
    }

    fn for_each_param_mut(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        self.qkv.for_each_param_mut(f);
        self.proj.for_each_param_mut(f);
    }

    fn clear_caches(&mut self) {
        self.cache = None;
        self.qkv.clear_caches();
        self.proj.clear_caches();
    }

    fn cached_bytes(&self) -> usize {
        let own = self.cache.as_ref().map_or(0, |c| (c.qkv_out.numel() + c.probs.len()) * 4);
        own + self.qkv.cached_bytes() + self.proj.cached_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_shape_matches_input() {
        let mut attn = CausalSelfAttention::new(8, 2, 0);
        let x = Tensor::randn(&[2, 5, 8], 1.0, 1);
        let y = attn.forward(&x);
        assert_eq!(y.shape(), &[2, 5, 8]);
    }

    #[test]
    fn causality_first_token_ignores_future() {
        // Changing tokens t >= 1 must not change output at t = 0.
        let mut attn = CausalSelfAttention::new(8, 2, 3);
        let x1 = Tensor::randn(&[1, 4, 8], 1.0, 10);
        let mut x2 = x1.clone();
        for v in &mut x2.as_mut_slice()[8..] {
            *v += 1.0; // perturb tokens 1..3
        }
        let y1 = attn.forward(&x1);
        let y2 = attn.forward(&x2);
        for j in 0..8 {
            assert!(
                (y1.as_slice()[j] - y2.as_slice()[j]).abs() < 1e-5,
                "token 0 output changed: future leaked"
            );
        }
    }

    #[test]
    fn probs_rows_are_causal_distributions() {
        let mut attn = CausalSelfAttention::new(4, 1, 5);
        let x = Tensor::randn(&[1, 3, 4], 1.0, 6);
        attn.forward(&x);
        let cache = attn.cache.as_ref().unwrap();
        let probs = &cache.probs;
        // Row i: entries j > i are exactly zero, row sums to 1.
        for i in 0..3 {
            let row = &probs[i * 3..(i + 1) * 3];
            for (j, &p) in row.iter().enumerate() {
                if j > i {
                    assert_eq!(p, 0.0, "future prob nonzero at ({i},{j})");
                }
            }
            assert!((row.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn backward_produces_input_grad_of_right_shape() {
        let mut attn = CausalSelfAttention::new(8, 2, 7);
        let x = Tensor::randn(&[2, 3, 8], 0.5, 8);
        let _y = attn.forward(&x);
        let dy = Tensor::randn(&[2, 3, 8], 1.0, 9);
        let dx = attn.backward(&dy);
        assert_eq!(dx.shape(), &[2, 3, 8]);
        assert!(dx.as_slice().iter().any(|&v| v != 0.0));
        // All parameters received gradients.
        for p in attn.params() {
            assert!(p.grad.as_slice().iter().any(|&v| v != 0.0), "{} grad empty", p.name);
        }
    }

    #[test]
    fn single_token_attends_to_itself() {
        let mut attn = CausalSelfAttention::new(4, 1, 11);
        let x = Tensor::randn(&[1, 1, 4], 1.0, 12);
        let y = attn.forward(&x);
        assert_eq!(y.shape(), &[1, 1, 4]);
        let cache = attn.cache.as_ref().unwrap();
        assert_eq!(cache.probs, vec![1.0]);
    }
}

//! 2-D batch normalization (Ioffe & Szegedy) — a required substrate for
//! the VGG/WideResnet models, and the tensor You et al.'s Early-Bird
//! Tickets algorithm prunes on: channels are ranked by their BN scale
//! factor γ.

use crate::layer::Layer;
use crate::param::Parameter;
use tensor::Tensor;

/// Batch normalization over `[B, C, H, W]`, normalizing per channel
/// across batch and spatial dimensions, with learned scale γ and shift β
/// and running statistics for inference.
pub struct BatchNorm2d {
    gamma: Parameter,
    beta: Parameter,
    channels: usize,
    eps: f32,
    momentum: f32,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    training: bool,
    cache: Option<BnCache>,
}

struct BnCache {
    xhat: Tensor,
    inv_std: Vec<f32>,
    shape: Vec<usize>,
}

impl BatchNorm2d {
    /// Creates a BatchNorm over `channels` feature maps.
    pub fn new(channels: usize) -> BatchNorm2d {
        BatchNorm2d {
            gamma: Parameter::new("bn.gamma", Tensor::full(&[channels], 1.0)),
            beta: Parameter::new("bn.beta", Tensor::zeros(&[channels])),
            channels,
            eps: 1e-5,
            momentum: 0.1,
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            training: true,
            cache: None,
        }
    }

    /// Switches between training (batch statistics) and inference
    /// (running statistics) modes.
    pub fn set_training(&mut self, training: bool) {
        self.training = training;
    }

    /// Running mean (inference statistics).
    pub fn running_mean(&self) -> &[f32] {
        &self.running_mean
    }

    /// Running variance (inference statistics).
    pub fn running_var(&self) -> &[f32] {
        &self.running_var
    }
}

impl Layer for BatchNorm2d {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let shape = x.shape().to_vec();
        assert_eq!(shape.len(), 4, "batchnorm expects [B, C, H, W]");
        let (b, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
        assert_eq!(c, self.channels);
        let spatial = h * w;
        let count = (b * spatial) as f32;

        let mut y = Tensor::zeros(&shape);
        let mut xhat = Tensor::zeros(&shape);
        let mut inv_std = vec![0.0f32; c];
        let gs = self.gamma.value.as_slice();
        let bs = self.beta.value.as_slice();

        for ch in 0..c {
            let (mean, var) = if self.training {
                let mut sum = 0.0f64;
                let mut sq = 0.0f64;
                for bi in 0..b {
                    let base = (bi * c + ch) * spatial;
                    for &v in &x.as_slice()[base..base + spatial] {
                        sum += v as f64;
                        sq += (v as f64) * (v as f64);
                    }
                }
                let mean = (sum / count as f64) as f32;
                let var = (sq / count as f64) as f32 - mean * mean;
                // Update running stats (biased variance, PyTorch default
                // uses unbiased for running; keep biased for simplicity,
                // consistent between train and eval of this module).
                self.running_mean[ch] =
                    (1.0 - self.momentum) * self.running_mean[ch] + self.momentum * mean;
                self.running_var[ch] =
                    (1.0 - self.momentum) * self.running_var[ch] + self.momentum * var;
                (mean, var)
            } else {
                (self.running_mean[ch], self.running_var[ch])
            };
            let istd = 1.0 / (var + self.eps).sqrt();
            inv_std[ch] = istd;
            for bi in 0..b {
                let base = (bi * c + ch) * spatial;
                let xs = &x.as_slice()[base..base + spatial];
                let xh = &mut xhat.as_mut_slice()[base..base + spatial];
                let ys = &mut y.as_mut_slice()[base..base + spatial];
                for i in 0..spatial {
                    xh[i] = (xs[i] - mean) * istd;
                    ys[i] = gs[ch] * xh[i] + bs[ch];
                }
            }
        }
        self.cache = Some(BnCache {
            xhat,
            inv_std,
            shape,
        });
        y
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let cache = self.cache.take().expect("backward before forward");
        let (b, c, h, w) = (
            cache.shape[0],
            cache.shape[1],
            cache.shape[2],
            cache.shape[3],
        );
        let spatial = h * w;
        let count = (b * spatial) as f32;
        assert_eq!(dy.shape(), &cache.shape[..]);

        let gs = self.gamma.value.as_slice();
        let dgamma = self.gamma.grad.as_mut_slice();
        let dbeta = self.beta.grad.as_mut_slice();
        let mut dx = Tensor::zeros(&cache.shape);

        for ch in 0..c {
            // Reductions over the normalization set.
            let mut sum_dy = 0.0f64;
            let mut sum_dy_xhat = 0.0f64;
            for bi in 0..b {
                let base = (bi * c + ch) * spatial;
                let dys = &dy.as_slice()[base..base + spatial];
                let xhs = &cache.xhat.as_slice()[base..base + spatial];
                for i in 0..spatial {
                    sum_dy += dys[i] as f64;
                    sum_dy_xhat += (dys[i] * xhs[i]) as f64;
                }
            }
            dgamma[ch] += sum_dy_xhat as f32;
            dbeta[ch] += sum_dy as f32;
            let m1 = sum_dy as f32 / count;
            let m2 = sum_dy_xhat as f32 / count;
            let g_istd = gs[ch] * cache.inv_std[ch];
            for bi in 0..b {
                let base = (bi * c + ch) * spatial;
                let dys = &dy.as_slice()[base..base + spatial];
                let xhs = &cache.xhat.as_slice()[base..base + spatial];
                let dxs = &mut dx.as_mut_slice()[base..base + spatial];
                for i in 0..spatial {
                    dxs[i] = g_istd * (dys[i] - m1 - xhs[i] * m2);
                }
            }
        }
        dx
    }

    fn params(&self) -> Vec<&Parameter> {
        vec![&self.gamma, &self.beta]
    }

    fn params_mut(&mut self) -> Vec<&mut Parameter> {
        vec![&mut self.gamma, &mut self.beta]
    }

    fn for_each_param_mut(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }

    fn clear_caches(&mut self) {
        self.cache = None;
    }

    fn cached_bytes(&self) -> usize {
        self.cache
            .as_ref()
            .map_or(0, |c| c.xhat.numel() * 4 + c.inv_std.len() * 4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalizes_per_channel() {
        let mut bn = BatchNorm2d::new(2);
        // Channel 0: values around 10; channel 1: around -5.
        let mut data = vec![0.0f32; 2 * 2 * 2 * 2];
        for bi in 0..2 {
            for i in 0..4 {
                data[(bi * 2) * 4 + i] = 10.0 + i as f32;
                data[(bi * 2 + 1) * 4 + i] = -5.0 - i as f32;
            }
        }
        let x = Tensor::from_vec(&[2, 2, 2, 2], data);
        let y = bn.forward(&x);
        // Each channel of the output has ~zero mean, ~unit variance.
        for ch in 0..2 {
            let mut vals = Vec::new();
            for bi in 0..2 {
                let base = (bi * 2 + ch) * 4;
                vals.extend_from_slice(&y.as_slice()[base..base + 4]);
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>()
                / vals.len() as f32;
            assert!(mean.abs() < 1e-5, "ch {ch} mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "ch {ch} var {var}");
        }
    }

    #[test]
    fn running_stats_converge_to_batch_stats() {
        let mut bn = BatchNorm2d::new(1);
        let x = Tensor::from_vec(&[1, 1, 2, 2], vec![4.0, 6.0, 4.0, 6.0]);
        for _ in 0..200 {
            bn.forward(&x);
        }
        assert!((bn.running_mean()[0] - 5.0).abs() < 1e-3);
        assert!((bn.running_var()[0] - 1.0).abs() < 1e-3);
    }

    #[test]
    fn eval_mode_uses_running_stats() {
        let mut bn = BatchNorm2d::new(1);
        let x = Tensor::from_vec(&[1, 1, 1, 2], vec![4.0, 6.0]);
        for _ in 0..300 {
            bn.forward(&x);
        }
        bn.set_training(false);
        // In eval mode, a constant input equal to the running mean maps
        // to ~0 (then γ=1, β=0 leaves it).
        let probe = Tensor::from_vec(&[1, 1, 1, 2], vec![5.0, 5.0]);
        let y = bn.forward(&probe);
        assert!(y.as_slice().iter().all(|v| v.abs() < 1e-2), "{:?}", y.as_slice());
    }

    #[test]
    fn gradcheck_batchnorm() {
        let mut bn = BatchNorm2d::new(3);
        let x = Tensor::randn(&[2, 3, 2, 2], 1.0, 4);
        let report = crate::gradcheck::check_layer(&mut bn, &x, 1e-2, 48);
        assert!(report.passes(3e-2), "{report:?}");
    }
}

//! A real, trainable, CPU-scale convolutional network — the substitution
//! for the VGG-19 / WideResnet-101 training runs (paper Fig. 5): same
//! layer vocabulary (Conv → BatchNorm → ReLU → MaxPool stacks with a
//! linear classifier), three orders of magnitude smaller, trained on a
//! synthetic shape-classification task.

use nn::activations::Relu;
use nn::batchnorm::BatchNorm2d;
use nn::conv::Conv2d;
use nn::layer::Layer;
use nn::linear::Linear;
use nn::param::Parameter;
use nn::pool2d::{GlobalAvgPool, MaxPool2d};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tensor::Tensor;

/// Number of classes in the synthetic vision task.
pub const CNN_CLASSES: usize = 4;

/// VGG-flavoured tiny CNN: two Conv-BN-ReLU-Pool blocks, global average
/// pooling and a linear head. Input `[B, 1, 16, 16]`, output logits
/// `[B, 4]`.
pub struct TinyCnn {
    conv1: Conv2d,
    bn1: BatchNorm2d,
    relu1: Relu,
    pool1: MaxPool2d,
    conv2: Conv2d,
    bn2: BatchNorm2d,
    relu2: Relu,
    pool2: MaxPool2d,
    gap: GlobalAvgPool,
    head: Linear,
}

impl TinyCnn {
    /// Builds the model with seeded initialization.
    pub fn new(seed: u64) -> TinyCnn {
        TinyCnn {
            conv1: Conv2d::new(1, 8, 3, 1, 1, false, seed),
            bn1: BatchNorm2d::new(8),
            relu1: Relu::new(),
            pool1: MaxPool2d::new(2),
            conv2: Conv2d::new(8, 16, 3, 1, 1, false, seed + 1),
            bn2: BatchNorm2d::new(16),
            relu2: Relu::new(),
            pool2: MaxPool2d::new(2),
            gap: GlobalAvgPool::new(),
            head: Linear::new(16, CNN_CLASSES, true, seed + 2),
        }
    }

    /// Switch BatchNorm train/eval mode.
    pub fn set_training(&mut self, training: bool) {
        self.bn1.set_training(training);
        self.bn2.set_training(training);
    }
}

impl Layer for TinyCnn {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let h = self.conv1.forward(x);
        let h = self.bn1.forward(&h);
        let h = self.relu1.forward(&h);
        let h = self.pool1.forward(&h);
        let h = self.conv2.forward(&h);
        let h = self.bn2.forward(&h);
        let h = self.relu2.forward(&h);
        let h = self.pool2.forward(&h);
        let h = self.gap.forward(&h);
        self.head.forward(&h)
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let d = self.head.backward(dy);
        let d = self.gap.backward(&d);
        let d = self.pool2.backward(&d);
        let d = self.relu2.backward(&d);
        let d = self.bn2.backward(&d);
        let d = self.conv2.backward(&d);
        let d = self.pool1.backward(&d);
        let d = self.relu1.backward(&d);
        let d = self.bn1.backward(&d);
        self.conv1.backward(&d)
    }

    fn params(&self) -> Vec<&Parameter> {
        let mut v = self.conv1.params();
        v.extend(self.bn1.params());
        v.extend(self.conv2.params());
        v.extend(self.bn2.params());
        v.extend(self.head.params());
        v
    }

    fn params_mut(&mut self) -> Vec<&mut Parameter> {
        let mut v = self.conv1.params_mut();
        v.extend(self.bn1.params_mut());
        v.extend(self.conv2.params_mut());
        v.extend(self.bn2.params_mut());
        v.extend(self.head.params_mut());
        v
    }

    fn for_each_param_mut(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        self.conv1.for_each_param_mut(f);
        self.bn1.for_each_param_mut(f);
        self.conv2.for_each_param_mut(f);
        self.bn2.for_each_param_mut(f);
        self.head.for_each_param_mut(f);
    }

    fn clear_caches(&mut self) {
        self.conv1.clear_caches();
        self.bn1.clear_caches();
        self.relu1.clear_caches();
        self.pool1.clear_caches();
        self.conv2.clear_caches();
        self.bn2.clear_caches();
        self.relu2.clear_caches();
        self.pool2.clear_caches();
        self.head.clear_caches();
    }

    fn cached_bytes(&self) -> usize {
        self.conv1.cached_bytes()
            + self.bn1.cached_bytes()
            + self.relu1.cached_bytes()
            + self.pool1.cached_bytes()
            + self.conv2.cached_bytes()
            + self.bn2.cached_bytes()
            + self.relu2.cached_bytes()
            + self.pool2.cached_bytes()
            + self.head.cached_bytes()
    }
}

/// Synthetic 16×16 grayscale shape dataset with 4 classes:
/// 0 = horizontal bar, 1 = vertical bar, 2 = centered square outline,
/// 3 = diagonal stripe. Noisy positions/levels make it non-trivial but
/// cleanly learnable.
pub struct ShapeDataset {
    rng: StdRng,
}

impl ShapeDataset {
    /// Creates a seeded dataset sampler.
    pub fn new(seed: u64) -> ShapeDataset {
        ShapeDataset {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Samples `batch` labelled images; returns `([B,1,16,16], labels)`.
    pub fn sample(&mut self, batch: usize) -> (Tensor, Vec<usize>) {
        let mut data = vec![0.0f32; batch * 256];
        let mut labels = Vec::with_capacity(batch);
        for b in 0..batch {
            let class = self.rng.gen_range(0..CNN_CLASSES);
            let img = &mut data[b * 256..(b + 1) * 256];
            // Background noise.
            for v in img.iter_mut() {
                *v = self.rng.gen_range(-0.1..0.1);
            }
            let level = self.rng.gen_range(0.8..1.2);
            match class {
                0 => {
                    let row = self.rng.gen_range(3..13);
                    for j in 0..16 {
                        img[row * 16 + j] += level;
                    }
                }
                1 => {
                    let col = self.rng.gen_range(3..13);
                    for i in 0..16 {
                        img[i * 16 + col] += level;
                    }
                }
                2 => {
                    let (top, left, size) = (4usize, 4usize, 8usize);
                    for k in 0..size {
                        img[top * 16 + left + k] += level;
                        img[(top + size - 1) * 16 + left + k] += level;
                        img[(top + k) * 16 + left] += level;
                        img[(top + k) * 16 + left + size - 1] += level;
                    }
                }
                _ => {
                    let off = self.rng.gen_range(0..4);
                    for i in 0..16 {
                        let j = (i + off) % 16;
                        img[i * 16 + j] += level;
                    }
                }
            }
            labels.push(class);
        }
        (Tensor::from_vec(&[batch, 1, 16, 16], data), labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nn::loss::cross_entropy;
    use nn::optim::{sgd_step, SgdConfig, SgdState};

    #[test]
    fn forward_shape() {
        let mut cnn = TinyCnn::new(0);
        let mut ds = ShapeDataset::new(1);
        let (x, _) = ds.sample(3);
        let y = cnn.forward(&x);
        assert_eq!(y.shape(), &[3, CNN_CLASSES]);
        assert!(y.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn dataset_is_deterministic_and_labeled() {
        let (x1, l1) = ShapeDataset::new(7).sample(8);
        let (x2, l2) = ShapeDataset::new(7).sample(8);
        assert_eq!(x1, x2);
        assert_eq!(l1, l2);
        assert!(l1.iter().all(|&c| c < CNN_CLASSES));
    }

    #[test]
    fn cnn_learns_shapes() {
        let mut cnn = TinyCnn::new(3);
        let mut ds = ShapeDataset::new(4);
        let cfg = SgdConfig {
            lr: 0.05,
            momentum: 0.9,
            weight_decay: 0.0,
        };
        let mut states: Vec<SgdState> =
            cnn.params().iter().map(|p| SgdState::new(p.numel())).collect();

        let mut first = None;
        let mut last = 0.0;
        for _ in 0..60 {
            let (x, labels) = ds.sample(16);
            let logits = cnn.forward(&x);
            let (loss, dlogits) = cross_entropy(&logits, &labels);
            cnn.backward(&dlogits);
            for (p, st) in cnn.params_mut().into_iter().zip(&mut states) {
                let g = p.grad.as_slice().to_vec();
                sgd_step(&cfg, st, p.value.as_mut_slice(), &g);
                p.zero_grad();
            }
            first.get_or_insert(loss);
            last = loss;
        }
        assert!(
            last < first.unwrap() * 0.6,
            "CNN loss did not drop: {:?} -> {last}",
            first
        );

        // Accuracy on fresh samples should beat chance clearly.
        cnn.set_training(false);
        let (x, labels) = ds.sample(64);
        let logits = cnn.forward(&x);
        let mut correct = 0;
        for (row, &label) in logits.as_slice().chunks(CNN_CLASSES).zip(&labels) {
            let pred = row
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .unwrap()
                .0;
            if pred == label {
                correct += 1;
            }
        }
        assert!(correct > 30, "accuracy {correct}/64 too low");
    }

    #[test]
    fn cache_accounting_tracks_forward() {
        let mut cnn = TinyCnn::new(6);
        assert_eq!(cnn.cached_bytes(), 0);
        let (x, _) = ShapeDataset::new(7).sample(2);
        cnn.forward(&x);
        assert!(cnn.cached_bytes() > 0);
        cnn.clear_caches();
        assert_eq!(cnn.cached_bytes(), 0);
    }
}

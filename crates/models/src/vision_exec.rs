//! Executable nano-scale versions of the paper's two CNN families
//! (Table I: VGG-19 and WideResnet-101), built from the real layer
//! substrate — same structural patterns, laptop-scale widths. These are
//! the models the `early_bird`-style pruning + SAMO pipeline runs on for
//! real, standing in for the 125–145M-parameter originals.

use nn::activations::Relu;
use nn::batchnorm::BatchNorm2d;
use nn::combinators::{Flatten, Residual};
use nn::conv::Conv2d;
use nn::layer::Sequential;
use nn::linear::Linear;
use nn::pool2d::{GlobalAvgPool, MaxPool2d};

use crate::tiny_cnn::CNN_CLASSES;

/// VGG-pattern nano model for 16×16 single-channel input:
/// [Conv-BN-ReLU ×2, MaxPool] ×2, Flatten, FC — the conv-stack +
/// big-classifier shape that makes VGG communication-heavy relative to
/// its compute in Fig. 5.
pub fn build_vgg_nano(seed: u64) -> Sequential {
    if telemetry::enabled() {
        telemetry::global().counter("models.built").inc();
    }
    Sequential::new()
        .push(Conv2d::new(1, 8, 3, 1, 1, false, seed))
        .push(BatchNorm2d::new(8))
        .push(Relu::new())
        .push(Conv2d::new(8, 8, 3, 1, 1, false, seed + 1))
        .push(BatchNorm2d::new(8))
        .push(Relu::new())
        .push(MaxPool2d::new(2))
        .push(Conv2d::new(8, 16, 3, 1, 1, false, seed + 2))
        .push(BatchNorm2d::new(16))
        .push(Relu::new())
        .push(Conv2d::new(16, 16, 3, 1, 1, false, seed + 3))
        .push(BatchNorm2d::new(16))
        .push(Relu::new())
        .push(MaxPool2d::new(2))
        .push(Flatten::new())
        .push(Linear::new(16 * 4 * 4, 64, true, seed + 4))
        .push(Relu::new())
        .push(Linear::new(64, CNN_CLASSES, true, seed + 5))
}

/// One pre-activation-free residual block: `x + Conv-BN-ReLU-Conv-BN(x)`.
fn residual_block(channels: usize, seed: u64) -> Residual<Sequential> {
    Residual::new(
        Sequential::new()
            .push(Conv2d::new(channels, channels, 3, 1, 1, false, seed))
            .push(BatchNorm2d::new(channels))
            .push(Relu::new())
            .push(Conv2d::new(channels, channels, 3, 1, 1, false, seed + 1))
            .push(BatchNorm2d::new(channels)),
    )
}

/// WideResnet-pattern nano model: stem conv, two residual blocks, global
/// average pooling, linear head — the residual + GAP shape that makes
/// WideResnet compute-heavy relative to its parameter count.
pub fn build_resnet_nano(seed: u64) -> Sequential {
    if telemetry::enabled() {
        telemetry::global().counter("models.built").inc();
    }
    Sequential::new()
        .push(Conv2d::new(1, 12, 3, 1, 1, false, seed))
        .push(BatchNorm2d::new(12))
        .push(Relu::new())
        .push(residual_block(12, seed + 10))
        .push(MaxPool2d::new(2))
        .push(residual_block(12, seed + 20))
        .push(GlobalAvgPool::new())
        .push(Linear::new(12, CNN_CLASSES, true, seed + 30))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tiny_cnn::ShapeDataset;
    use nn::layer::Layer;
    use nn::loss::cross_entropy;
    use nn::mixed::Optimizer;
    use nn::optim::SgdConfig;
    use nn::param::Parameter;
    use samo::trainer::SamoTrainer;
    use tensor::Tensor;

    /// Forward helper asserting the expected logits shape.
    fn classify(model: &mut Sequential, images: &Tensor) -> Tensor {
        let batch = images.shape()[0];
        let logits = model.forward(images);
        assert_eq!(logits.shape(), &[batch, CNN_CLASSES]);
        logits
    }

    /// Per-parameter pruning masks for a nano model at `sparsity`,
    /// pruning conv/linear weight matrices and keeping BN/bias dense.
    fn nano_masks(model: &Sequential, sparsity: f64) -> Vec<prune::Mask> {
        let mask = |p: &&Parameter| match p.value.shape() {
            shape if shape.len() >= 2 && p.numel() >= 256 => {
                prune::magnitude_prune(p.value.as_slice(), shape, sparsity)
            }
            shape => prune::Mask::dense(shape),
        };
        model.params().iter().map(mask).collect()
    }

    #[test]
    fn vgg_nano_shapes_and_structure() {
        let mut m = build_vgg_nano(1);
        let (x, _) = ShapeDataset::new(2).sample(3);
        let logits = classify(&mut m, &x);
        assert!(logits.as_slice().iter().all(|v| v.is_finite()));
        // VGG pattern: the classifier holds most parameters.
        let total = m.num_params();
        let fc_params = 16 * 4 * 4 * 64 + 64 + 64 * CNN_CLASSES + CNN_CLASSES;
        assert!(fc_params * 2 > total, "classifier should dominate ({fc_params}/{total})");
    }

    #[test]
    fn resnet_nano_shapes_and_structure() {
        let mut m = build_resnet_nano(3);
        let (x, _) = ShapeDataset::new(4).sample(2);
        let logits = classify(&mut m, &x);
        assert!(logits.as_slice().iter().all(|v| v.is_finite()));
        // ResNet pattern: the head is tiny relative to the trunk.
        let head = 12 * CNN_CLASSES + CNN_CLASSES;
        assert!(head * 10 < m.num_params());
    }

    #[test]
    fn both_nanos_train_with_samo() {
        for (name, mut model) in [
            ("vgg_nano", build_vgg_nano(5)),
            ("resnet_nano", build_resnet_nano(6)),
        ] {
            let masks = nano_masks(&model, 0.6);
            let mut tr = SamoTrainer::new(
                &mut model,
                masks,
                Optimizer::Sgd(SgdConfig {
                    lr: 0.03,
                    momentum: 0.9,
                    weight_decay: 0.0,
                }),
            );
            tr.scaler = nn::mixed::LossScaler::new(128.0);
            let mut ds = ShapeDataset::new(7);
            let mut first = None;
            let mut last = 0.0;
            for _ in 0..50 {
                let (x, labels) = ds.sample(16);
                let logits = model.forward(&x);
                let (loss, mut d) = cross_entropy(&logits, &labels);
                tensor::ops::scale(tr.loss_scale(), d.as_mut_slice());
                model.backward(&d);
                tr.step(&mut model);
                first.get_or_insert(loss);
                last = loss;
            }
            assert!(
                last < first.unwrap() * 0.75,
                "{name}: loss {first:?} -> {last}"
            );
            // Accuracy above chance on fresh data.
            let (x, labels) = ShapeDataset::new(70).sample(64);
            let logits = classify(&mut model, &x);
            let preds = tensor::ops::argmax_rows(logits.as_slice(), 64, CNN_CLASSES);
            let correct = preds.iter().zip(&labels).filter(|(p, l)| p == l).count();
            assert!(correct > 24, "{name}: accuracy {correct}/64");
        }
    }

    #[test]
    fn residual_blocks_preserve_gradients() {
        // A deep stack of residual blocks must not kill gradient flow:
        // input gradient stays within a few orders of the output grad.
        let mut m = Sequential::new()
            .push(Conv2d::new(1, 8, 3, 1, 1, false, 9))
            .push(residual_block(8, 10))
            .push(residual_block(8, 20))
            .push(residual_block(8, 30))
            .push(residual_block(8, 40));
        let x = Tensor::randn(&[2, 1, 8, 8], 1.0, 11);
        m.forward(&x);
        let dy = Tensor::full(&[2, 8, 8, 8], 1.0);
        let dx = m.backward(&dy);
        let gnorm: f32 = dx.as_slice().iter().map(|v| v * v).sum::<f32>().sqrt();
        assert!(gnorm > 1e-2, "vanishing gradient through residuals: {gnorm}");
        assert!(gnorm.is_finite());
    }
}

//! Integration: ZeRO-sharded data-parallel SAMO on a real CNN — the
//! whole reproduction stack in one test (conv/batchnorm/pool substrate,
//! BN-scale pruning, compressed all-reduce, sharded optimizer).

use models::tiny_cnn::{ShapeDataset, TinyCnn, CNN_CLASSES};
use nn::layer::Layer;
use nn::loss::cross_entropy;
use nn::mixed::{LossScaler, Optimizer};
use nn::optim::SgdConfig;
use prune::Mask;
use samo::reference::DataParallelSamo;

fn masks_for(cnn: &TinyCnn) -> Vec<Mask> {
    cnn.params()
        .iter()
        .map(|p| {
            if p.value.shape().len() >= 2 && p.numel() >= 256 {
                prune::magnitude_prune(p.value.as_slice(), p.value.shape(), 0.6)
            } else {
                Mask::dense(p.value.shape())
            }
        })
        .collect()
}

#[test]
fn two_rank_samo_cnn_learns_shapes() {
    let opt = Optimizer::Sgd(SgdConfig {
        lr: 0.05,
        momentum: 0.9,
        weight_decay: 0.0,
    });
    let masks = masks_for(&TinyCnn::new(2));
    let mut dp = DataParallelSamo::new(vec![TinyCnn::new(2), TinyCnn::new(2)], masks, opt);
    dp.set_scaler(LossScaler::new(128.0));

    let mut ds0 = ShapeDataset::new(10);
    let mut ds1 = ShapeDataset::new(11);
    for _ in 0..80 {
        for (r, ds) in [(0usize, &mut ds0), (1usize, &mut ds1)] {
            let scale = dp.loss_scale();
            let (x, labels) = ds.sample(8);
            let m = dp.replica_mut(r);
            let logits = m.forward(&x);
            let (_, mut d) = cross_entropy(&logits, &labels);
            tensor::ops::scale(scale, d.as_mut_slice());
            m.backward(&d);
        }
        dp.step();
    }
    assert!(dp.steps_taken() >= 70, "most steps applied: {}", dp.steps_taken());

    // Both replicas agree bitwise and classify well above chance.
    let mut eval_ds = ShapeDataset::new(99);
    let (x, labels) = eval_ds.sample(64);
    let logits0 = {
        let m = dp.replica_mut(0);
        m.set_training(false);
        m.forward(&x)
    };
    let logits1 = {
        let m = dp.replica_mut(1);
        m.set_training(false);
        m.forward(&x)
    };
    // BN running stats saw different shards, so relax to parameters:
    // the *parameters* must be identical across ranks.
    let p0: Vec<Vec<f32>> = dp.replica_mut(0).params().iter().map(|p| p.value.as_slice().to_vec()).collect();
    let p1: Vec<Vec<f32>> = dp.replica_mut(1).params().iter().map(|p| p.value.as_slice().to_vec()).collect();
    assert_eq!(p0, p1, "rank parameters diverged");

    let acc = |logits: &tensor::Tensor| {
        tensor::ops::argmax_rows(logits.as_slice(), 64, CNN_CLASSES)
            .iter()
            .zip(&labels)
            .filter(|(p, l)| p == l)
            .count()
    };
    let a0 = acc(&logits0);
    assert!(a0 > 30, "accuracy {a0}/64 too low");
    let _ = logits1;
}

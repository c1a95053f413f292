//! A weight's gradient is never a dense `m × n` buffer once the first
//! step is over, a mask update's included: under a schedule that updates
//! every other step, a single worker, a 1×2 data-parallel group and a
//! 2×2 pipeline hold no non-empty `grad` for a 2-D weight after any
//! backward (the single worker's, which its caller runs) or step from
//! step 1 on. After an update step the gradient bytes a model holds are
//! its biases' and — a single worker's, lent for the next step — the
//! `4·nnz` of the kept sums.

use nn::layer::{Layer, Sequential};
use nn::linear::Linear;
use nn::loss::mse;
use nn::mixed::Optimizer;
use nn::optim::AdamConfig;
use nn::param::resident_param_bytes;
use prune::{Mask, MaskSchedule, MomentumPruneRegrow};
use samo::pipeline::{PipelineConfig, ThreadedPipelineSamo};
use samo::threaded::ThreadedDataParallelSamo;
use samo::SamoTrainer;
use tensor::Tensor;

const DIMS: [usize; 4] = [6, 12, 10, 4];
const ROWS: usize = 3;
const STEPS: u64 = 9;

/// Three `Linear`s with biases: five layers, so each of two stages has
/// weights.
fn model() -> Sequential {
    let mut m = Sequential::new();
    for (i, w) in DIMS.windows(2).enumerate() {
        m = m.push(Linear::new(w[0], w[1], true, 70 + i as u64));
        if i + 2 < DIMS.len() {
            m = m.push(nn::activations::Relu::new());
        }
    }
    m
}

fn masks(m: &Sequential) -> Vec<Mask> {
    let mask = |p: &&nn::Parameter| match p.value.shape() {
        shape @ [_, _] => prune::magnitude_prune(p.value.as_slice(), shape, 0.5),
        shape => Mask::dense(shape),
    };
    m.params().iter().map(mask).collect()
}

/// Updates at t = 0, 2, 4, 6 and 8, sparsifying then densifying.
fn schedule() -> MaskSchedule {
    MaskSchedule::MomentumPruneRegrow(MomentumPruneRegrow::new(vec![(0, 0.5), (4, 0.75), (8, 0.4)], 2, 0.1))
}

fn adam() -> Optimizer {
    Optimizer::Adam(AdamConfig { lr: 0.01, ..Default::default() })
}

fn batch(step: u64, mb: usize) -> (Tensor, Tensor) {
    let seed = 900 + 10 * step + mb as u64;
    (Tensor::randn(&[ROWS, DIMS[0]], 1.0, seed), Tensor::randn(&[ROWS, DIMS[3]], 1.0, seed + 5))
}

fn loss_grad(y: &Tensor, target: &Tensor, scale: f32) -> Tensor {
    let (_, mut dy) = mse(y, target);
    tensor::ops::scale(scale, dy.as_mut_slice());
    dy
}

/// The 2-D parameters of `m` that hold a dense gradient: `(index, len)`.
fn dense_weight_grads(m: &Sequential) -> Vec<(usize, usize)> {
    let params = m.params();
    let dense = params.iter().enumerate().filter(|(_, p)| p.value.shape().len() == 2 && p.grad.numel() > 0);
    dense.map(|(i, p)| (i, p.grad.numel())).collect()
}

/// The bias elements of `m`: the one dense gradient it keeps.
fn bias_numel(m: &Sequential) -> usize {
    m.params().iter().filter(|p| p.value.shape().len() == 1).map(|p| p.numel()).sum()
}

#[test]
fn a_single_worker_forms_no_dense_weight_gradient_after_its_first_step() {
    let mut m = model();
    let masks = masks(&m);
    let mut tr = SamoTrainer::new(&mut m, masks, adam());
    tr.set_mask_schedule(schedule()).expect("a fresh trainer takes any schedule");
    let biases = bias_numel(&m);
    for step in 0..STEPS {
        for mb in 0..2 {
            let (x, target) = batch(step, mb);
            let y = m.forward(&x);
            m.backward(&loss_grad(&y, &target, tr.loss_scale()));
            if step > 0 {
                assert_eq!(dense_weight_grads(&m), [], "after backward {mb} of step {step}");
            }
        }
        let update = schedule().is_update_step(step);
        tr.step(&mut m);
        assert_eq!(dense_weight_grads(&m), [], "after step {step}");
        if update {
            let nnz: usize = tr.layers.iter().filter(|l| l.mask().shape().len() == 2).map(|l| l.nnz()).sum();
            let want = (4 * biases, 4 * (biases + nnz));
            assert_eq!(resident_param_bytes(&m), want, "values and gradients after update step {step}");
        }
    }
    assert!(tr.remap_events() >= 3, "the schedule must move the masks");
}

#[test]
fn a_group_of_two_forms_no_dense_weight_gradient() {
    let replicas = vec![model(), model()];
    let masks = masks(&replicas[0]);
    let mut th = ThreadedDataParallelSamo::new(replicas, masks, adam());
    th.set_mask_schedule(schedule());
    for step in 0..STEPS {
        let fwd = move |rank: usize, m: &mut Sequential, scale: f32| {
            let (x, target) = batch(step, rank);
            loss_grad(&m.forward(&x), &target, scale)
        };
        th.step(fwd).expect("healthy mesh");
        for r in 0..2 {
            let (held, grads, biases) =
                th.with_rank(r, |m, _| (dense_weight_grads(m), resident_param_bytes(m).1, bias_numel(m)));
            assert_eq!(held, [], "rank {r} after step {step}");
            assert_eq!(grads, 4 * biases, "rank {r}'s gradient bytes after step {step}");
        }
    }
}

#[test]
fn a_two_by_two_pipeline_forms_no_dense_weight_gradient() {
    let cfg = PipelineConfig { g_data: 2, ..PipelineConfig::new(2, 3, ROWS) };
    let replicas = vec![model(), model()];
    let masks = masks(&replicas[0]);
    let mut pp = ThreadedPipelineSamo::new(replicas, masks, adam(), cfg);
    pp.set_mask_schedule(schedule());
    for step in 0..STEPS {
        let input = move |d: usize, mb: usize| batch(step, 3 * d + mb).0;
        let seed = move |d: usize, mb: usize, y: &Tensor, scale: f32| loss_grad(y, &batch(step, 3 * d + mb).1, scale);
        pp.step(input, seed).expect("healthy meshes");
        for (stage, d) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
            let (held, grads, biases) =
                pp.with_rank(stage, d, |m, _| (dense_weight_grads(m), resident_param_bytes(m).1, bias_numel(m)));
            assert_eq!(held, [], "stage {stage}, replica {d} after step {step}");
            assert_eq!(grads, 4 * biases, "stage {stage}, replica {d}'s gradient bytes after step {step}");
        }
    }
}

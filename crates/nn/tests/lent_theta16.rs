//! A `Linear` whose weight is a lent `θ16`: with its f32 `value` released
//! and the half-precision weights moved into the parameter (an unpruned
//! one with the index of all its positions), the layer must
//! return — bit for bit — the `y`, `dx`, bias gradient and the operands of
//! the streamed `dW` of the same layer computing from the widened f32
//! `value`; and with the `θ16` moved back out and the value restored it is
//! the f32 layer again. The same holds for a pruned `θ16` lent with its
//! mask's index, whose products run over the kept weights, and the index
//! leaves with the `θ16`. Runs under `SAMO_SIMD=off` and the default tier
//! in CI.

use nn::activations::Relu;
use nn::layer::{GradSink, Layer, Sequential};
use nn::linear::Linear;
use nn::param::{resident_param_bytes, Parameter};
use std::sync::Arc;
use tensor::f16::{f16_slice_to_f32, f32_slice_to_f16, F16};
use tensor::Tensor;

/// Takes every 2-D gradient as the operands of its product and keeps
/// them: parameter, batch rows, `dy`, `x`.
#[derive(Default)]
struct Operands(Vec<(usize, usize, Vec<u32>, Vec<u32>)>);

impl GradSink for Operands {
    fn ready(&mut self, _off: usize, _params: &[&Parameter]) {}
    fn take_product(&mut self, index: usize, rows: usize, dy: &[f32], x: &[f32]) -> bool {
        self.0.push((index, rows, bits(dy), bits(x)));
        true
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|f| f.to_bits()).collect()
}

/// Rounds every weight matrix of `model` to half precision in place — what
/// a SAMO engine leaves in `value` — and returns the halves.
fn round_weights(model: &mut impl Layer) -> Vec<Vec<F16>> {
    let mut halves = Vec::new();
    for p in model.params_mut().into_iter().filter(|p| p.accepts_theta16) {
        let h = f32_slice_to_f16(p.value.as_slice());
        p.value.as_mut_slice().copy_from_slice(&f16_slice_to_f32(&h));
        halves.push(h);
    }
    halves
}

/// The index of every weight matrix of `model` that keeps all of it.
fn whole(model: &mut impl Layer) -> Vec<Arc<Vec<u32>>> {
    let weights = model.params_mut().into_iter().filter(|p| p.accepts_theta16);
    weights.map(|p| Arc::new((0..p.numel() as u32).collect())).collect()
}

/// Releases the f32 weights and lends `halves` in their place, each with
/// its index (`lend`), or widens the values back in and takes the halves
/// home — as a runtime does.
fn lend(model: &mut impl Layer, halves: &mut [Vec<F16>], indices: &[Arc<Vec<u32>>], lend: bool) {
    model.for_each_param_mut(&mut |p| if lend { p.release_value() } else { p.widen_value() });
    let weights = model.params_mut().into_iter().filter(|p| p.accepts_theta16);
    for ((p, home), index) in weights.zip(halves).zip(indices) {
        p.lend_theta16(home, Arc::clone(index), lend);
    }
    // No parameter holds an index without the θ16 it describes.
    assert!(model.params().iter().all(|p| p.index().is_none() == p.theta16.is_empty()));
}

fn mlp(seed: u64) -> Sequential {
    // 37 and 21 are off the register tile and the transpose strip.
    Sequential::new()
        .push(Linear::new(37, 70, true, seed))
        .push(Relu::new())
        .push(Linear::new(70, 21, false, seed + 1))
}

/// Everything one training pass of `model` produces.
type Pass = (Vec<u32>, Vec<u32>, Vec<Vec<u32>>, Vec<(usize, usize, Vec<u32>, Vec<u32>)>);

fn pass(model: &mut Sequential, x: &Tensor, dy: &Tensor) -> Pass {
    let y = model.forward(x);
    let mut sink = Operands::default();
    let dx = model.backward_into(dy, &mut sink);
    let bias_grads = model.params().into_iter().filter(|p| !p.accepts_theta16);
    let bias_grads = bias_grads.map(|p| bits(p.grad.as_slice())).collect();
    (bits(y.as_slice()), bits(dx.as_slice()), bias_grads, sink.0)
}

#[test]
fn a_lent_theta16_computes_what_the_widened_value_does() {
    // One row, a thin group, a full group plus one, and a batch past one
    // k-block.
    for &batch in &[1usize, 4, 5, 300] {
        let x = Tensor::randn(&[batch, 37], 1.0, 10 + batch as u64);
        let dy = Tensor::randn(&[batch, 21], 1.0, 20 + batch as u64);

        let mut widened = mlp(3);
        round_weights(&mut widened);
        let want = pass(&mut widened, &x, &dy);
        assert_eq!(want.3.len(), 2, "both weights streamed");

        let mut lent = mlp(3);
        let mut halves = round_weights(&mut lent);
        let indices = whole(&mut lent);
        lend(&mut lent, &mut halves, &indices, true);
        assert!(halves.iter().all(Vec::is_empty), "moved, not copied");
        let (biases, weights) = (70, 37 * 70 + 70 * 21);
        assert_eq!(lent.num_params(), weights + biases, "a released value still counts");
        assert_eq!(resident_param_bytes(&lent).0, 4 * biases, "no f32 weight is held");
        assert_eq!(pass(&mut lent, &x, &dy), want, "batch {batch}");
        // A second pass accumulates the bias gradient like the f32 layer.
        assert_eq!(pass(&mut lent, &x, &dy), pass(&mut widened, &x, &dy), "batch {batch}, again");
        assert_eq!(resident_param_bytes(&lent).0, 4 * biases, "nothing was widened on the side");

        // Taken back: the layer is the f32 layer again.
        lend(&mut lent, &mut halves, &indices, false);
        assert_eq!(halves.iter().map(Vec::len).sum::<usize>(), weights, "θ16 is home");
        assert_eq!(resident_param_bytes(&lent).0, 4 * (weights + biases));
        assert_eq!(pass(&mut lent, &x, &dy), pass(&mut widened, &x, &dy), "batch {batch}, f32 again");
    }
}

#[test]
fn a_lent_index_computes_what_the_widened_value_does() {
    // A pruned θ16 lent with its mask's index: the products run over the
    // kept weights where that pays — both from five rows, neither at one
    // — and must leave every bit of the f32 layer's pass.
    let prune_weights = |model: &mut Sequential| -> Vec<Arc<Vec<u32>>> {
        let weights = model.params_mut().into_iter().filter(|p| p.accepts_theta16);
        let masks = weights.enumerate().map(|(i, p)| {
            let mask = prune::random_prune(p.value.shape(), 0.9, 40 + i as u64);
            mask.apply(p.value.as_mut_slice());
            mask.indices().clone()
        });
        masks.collect()
    };
    for &batch in &[1usize, 5, 32, 70] {
        let x = Tensor::randn(&[batch, 37], 1.0, 30 + batch as u64);
        let dy = Tensor::randn(&[batch, 21], 1.0, 50 + batch as u64);

        let mut widened = mlp(5);
        prune_weights(&mut widened);
        round_weights(&mut widened);
        let want = pass(&mut widened, &x, &dy);

        let mut lent = mlp(5);
        let indices = prune_weights(&mut lent);
        let mut halves = round_weights(&mut lent);
        lend(&mut lent, &mut halves, &indices, true);
        assert!(lent.params().iter().all(|p| p.index().is_some() == p.accepts_theta16));
        assert_eq!(pass(&mut lent, &x, &dy), want, "batch {batch}");

        // The index goes home with θ16.
        lend(&mut lent, &mut halves, &indices, false);
        assert!(lent.params().iter().all(|p| p.index().is_none() && p.theta16.is_empty()));
        assert!(indices.iter().all(|i| Arc::strong_count(i) == 1), "no parameter keeps a reference");
        assert_eq!(pass(&mut lent, &x, &dy), pass(&mut widened, &x, &dy), "batch {batch}, f32 again");
    }
}

#[test]
fn only_linear_weights_declare_themselves() {
    let model = mlp(1);
    let accepts: Vec<bool> = model.params().iter().map(|p| p.accepts_theta16).collect();
    assert_eq!(accepts, [true, false, true], "weight, bias, weight");
    assert!(model.params().iter().all(|p| p.theta16.is_empty()), "nothing is lent at rest");
}

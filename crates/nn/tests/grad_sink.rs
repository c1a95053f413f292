//! `Layer::backward_into` a `GradSink` that takes weight gradients as the
//! operands of their product: the streamed backward must be the plain
//! backward bit for bit — same `dx`, same bias gradient, `dyᵀ·x` of the
//! operands it hands over carrying the bits a zeroed `grad` would have
//! accumulated — while the dense `weight.grad` is never touched. Which
//! product a sink runs on them is its own business (`samo`'s tests hold
//! its two to the same bits). Runs under `SAMO_SIMD=off` and the default
//! tier in CI.

use nn::activations::Relu;
use nn::layer::{GradSink, Layer, Sequential};
use nn::linear::Linear;
use nn::param::Parameter;
use tensor::gemm::matmul_tn_acc;
use tensor::Tensor;

/// Takes the products of the parameters in `wants`, multiplying each out
/// into a dense matrix; records every call in order.
#[derive(Default)]
struct Products {
    wants: Vec<usize>,
    /// A parameter's index, its batch rows, and `dyᵀ·x` into zeros.
    taken: Vec<(usize, usize, Vec<f32>)>,
    asked: Vec<usize>,
    ready: Vec<(usize, Vec<String>)>,
}

impl GradSink for Products {
    fn ready(&mut self, off: usize, params: &[&Parameter]) {
        self.ready.push((off, params.iter().map(|p| p.name.clone()).collect()));
    }
    fn take_product(&mut self, index: usize, rows: usize, dy: &[f32], x: &[f32]) -> bool {
        self.asked.push(index);
        if !self.wants.contains(&index) {
            return false;
        }
        let (out, inp) = (dy.len() / rows, x.len() / rows);
        let mut dense = vec![0.0f32; out * inp];
        matmul_tn_acc(out, inp, rows, dy, x, &mut dense);
        self.taken.push((index, rows, dense));
        true
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|f| f.to_bits()).collect()
}

#[test]
fn streamed_linear_is_the_plain_backward_without_the_dense_gradient() {
    // A batch inside one k-block and one beyond it.
    for &batch in &[5usize, 300] {
        let x = Tensor::randn(&[batch, 37], 1.0, 10);
        let dy = Tensor::randn(&[batch, 70], 1.0, 20);
        let mut plain = Linear::new(37, 70, true, 3);
        plain.forward(&x);
        let dx_plain = plain.backward(&dy);

        let mut streamed = Linear::new(37, 70, true, 3);
        // A sentinel the streamed path must leave alone.
        streamed.weight_mut().grad.as_mut_slice().fill(7.0);
        streamed.forward(&x);
        let mut sink = Products { wants: vec![0], ..Default::default() };
        let dx = streamed.backward_into(&dy, &mut sink);

        assert_eq!(bits(dx.as_slice()), bits(dx_plain.as_slice()), "dx");
        assert_eq!(sink.asked, vec![0], "only the weight is offered as a product");
        let names = vec!["linear.weight".to_string(), "linear.bias".to_string()];
        assert_eq!(sink.ready, vec![(0, names)], "ready once, weight then bias");
        let (plain_p, streamed_p) = (plain.params(), streamed.params());
        assert_eq!(bits(streamed_p[1].grad.as_slice()), bits(plain_p[1].grad.as_slice()), "db");
        assert!(streamed_p[0].grad.as_slice().iter().all(|&g| g == 7.0), "weight.grad untouched");
        assert_eq!(sink.taken.len(), 1, "offered once");
        assert_eq!(sink.taken[0].1, batch, "every batch row handed over");
        assert_eq!(bits(&sink.taken[0].2), bits(plain_p[0].grad.as_slice()), "dW, batch {batch}");
    }
}

#[test]
fn a_released_gradient_comes_back_for_a_plain_backward() {
    let x = Tensor::randn(&[4, 6], 1.0, 1);
    let dy = Tensor::randn(&[4, 3], 1.0, 2);
    let mut reference = Linear::new(6, 3, true, 5);
    reference.forward(&x);
    reference.backward(&dy);

    let mut l = Linear::new(6, 3, true, 5);
    l.weight_mut().release_grad();
    l.zero_grad(); // a no-op on the released weight gradient
    assert_eq!(l.params()[0].grad.numel(), 0);
    l.forward(&x);
    l.backward(&dy);
    assert_eq!(bits(l.params()[0].grad.as_slice()), bits(reference.params()[0].grad.as_slice()));
}

#[test]
fn sequential_shifts_product_indices_like_ready_offsets() {
    let build = || {
        Sequential::new()
            .push(Linear::new(4, 3, true, 1))
            .push(Relu::new())
            .push(Linear::new(3, 2, false, 2))
    };
    let x = Tensor::randn(&[5, 4], 1.0, 3);
    let dy = Tensor::randn(&[5, 2], 1.0, 4);
    let mut plain = build();
    plain.forward(&x);
    let dx_plain = plain.backward(&dy);

    // Take the last Linear's weight (parameter 2) as a product, decline
    // the first one's (parameter 0).
    let mut model = build();
    model.forward(&x);
    let mut sink = Products { wants: vec![2], ..Default::default() };
    let dx = model.backward_into(&dy, &mut sink);
    assert_eq!(bits(dx.as_slice()), bits(dx_plain.as_slice()));
    assert_eq!(sink.asked, vec![2, 0], "each weight offered under its params() index");
    let groups: Vec<(usize, usize)> = sink.ready.iter().map(|(o, n)| (*o, n.len())).collect();
    assert_eq!(groups, vec![(2, 1), (2, 0), (0, 2)]);
    let taken = sink.taken;
    assert_eq!(taken.len(), 1);
    assert_eq!(taken[0].0, 2);
    let (want, got) = (plain.params(), model.params());
    assert_eq!(bits(&taken[0].2), bits(want[2].grad.as_slice()), "streamed dW");
    assert!(got[2].grad.as_slice().iter().all(|&g| g == 0.0), "its dense grad untouched");
    assert_eq!(bits(got[0].grad.as_slice()), bits(want[0].grad.as_slice()), "declined: dense");
    assert_eq!(bits(got[1].grad.as_slice()), bits(want[1].grad.as_slice()));
}

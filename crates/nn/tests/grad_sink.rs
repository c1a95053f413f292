//! `Layer::backward_into` a `GradSink` that takes weight gradients as row
//! blocks: the streamed backward must be the plain backward bit for bit —
//! same `dx`, same bias gradient, the weight gradient's rows carrying the
//! bits a zeroed `grad` would have accumulated — while the dense
//! `weight.grad` is never touched. Runs under `SAMO_SIMD=off` and the
//! default tier in CI.

use nn::activations::Relu;
use nn::layer::{GradSink, Layer, Sequential};
use nn::linear::Linear;
use nn::param::Parameter;
use std::sync::Mutex;
use tensor::Tensor;

/// A parameter's index, its gradient assembled from row blocks, and how
/// often each row arrived.
type Taken = (usize, Vec<f32>, Vec<u32>);

/// Takes the rows of the parameters in `wants`, assembling each into a
/// dense matrix; records every call in order.
#[derive(Default)]
struct Rows {
    wants: Vec<usize>,
    taken: Mutex<Vec<Taken>>,
    asked: Vec<usize>,
    ready: Vec<(usize, Vec<String>)>,
}

impl GradSink for Rows {
    fn ready(&mut self, off: usize, params: &[&Parameter]) {
        self.ready.push((off, params.iter().map(|p| p.name.clone()).collect()));
    }
    fn takes_rows(&mut self, index: usize) -> bool {
        self.asked.push(index);
        self.wants.contains(&index)
    }
    fn rows(&self, index: usize, row0: usize, row1: usize, block: &[f32]) {
        let mut taken = self.taken.lock().unwrap();
        let cols = block.len() / (row1 - row0);
        let at = match taken.iter().position(|t| t.0 == index) {
            Some(at) => at,
            None => {
                taken.push((index, Vec::new(), Vec::new()));
                taken.len() - 1
            }
        };
        let (_, dense, seen) = &mut taken[at];
        if dense.len() < row1 * cols {
            dense.resize(row1 * cols, f32::NAN);
            seen.resize(row1, 0);
        }
        dense[row0 * cols..row1 * cols].copy_from_slice(block);
        for s in &mut seen[row0..row1] {
            *s += 1;
        }
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|f| f.to_bits()).collect()
}

#[test]
fn streamed_linear_is_the_plain_backward_without_the_dense_gradient() {
    // 70 output rows: two row blocks; a batch inside one k-block and one
    // beyond it.
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
        let mut sink = Rows { wants: vec![0], ..Default::default() };
        let dx = streamed.backward_into(&dy, &mut sink);

        assert_eq!(bits(dx.as_slice()), bits(dx_plain.as_slice()), "dx");
        assert_eq!(sink.asked, vec![0], "only the weight is offered as rows");
        let names = vec!["linear.weight".to_string(), "linear.bias".to_string()];
        assert_eq!(sink.ready, vec![(0, names)], "ready once, weight then bias");
        let (plain_p, streamed_p) = (plain.params(), streamed.params());
        assert_eq!(bits(streamed_p[1].grad.as_slice()), bits(plain_p[1].grad.as_slice()), "db");
        assert!(streamed_p[0].grad.as_slice().iter().all(|&g| g == 7.0), "weight.grad untouched");
        let taken = sink.taken.into_inner().unwrap();
        assert_eq!(taken.len(), 1);
        assert!(taken[0].2.iter().all(|&c| c == 1), "every row exactly once");
        assert_eq!(bits(&taken[0].1), bits(plain_p[0].grad.as_slice()), "dW rows, batch {batch}");
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
fn sequential_shifts_row_indices_like_ready_offsets() {
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

    // Take the last Linear's weight (parameter 2) as rows, decline the
    // first one's (parameter 0).
    let mut model = build();
    model.forward(&x);
    let mut sink = Rows { wants: vec![2], ..Default::default() };
    let dx = model.backward_into(&dy, &mut sink);
    assert_eq!(bits(dx.as_slice()), bits(dx_plain.as_slice()));
    assert_eq!(sink.asked, vec![2, 0], "each weight offered under its params() index");
    let groups: Vec<(usize, usize)> = sink.ready.iter().map(|(o, n)| (*o, n.len())).collect();
    assert_eq!(groups, vec![(2, 1), (2, 0), (0, 2)]);
    let taken = sink.taken.into_inner().unwrap();
    assert_eq!(taken.len(), 1);
    assert_eq!(taken[0].0, 2);
    let (want, got) = (plain.params(), model.params());
    assert_eq!(bits(&taken[0].1), bits(want[2].grad.as_slice()), "streamed dW");
    assert!(got[2].grad.as_slice().iter().all(|&g| g == 0.0), "its dense grad untouched");
    assert_eq!(bits(got[0].grad.as_slice()), bits(want[0].grad.as_slice()), "declined: dense");
    assert_eq!(bits(got[1].grad.as_slice()), bits(want[1].grad.as_slice()));
}

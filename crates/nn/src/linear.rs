//! Fully-connected layer — the workload of the paper's Fig. 1.
//!
//! The weight is the GEMM's B operand in both products that read it
//! (`y = x · Wᵀ`, `dx = dy · W`), and the GEMM reads B from `f32` or from
//! half precision alike, to the same bits. So the layer declares
//! [`Parameter::accepts_theta16`] and multiplies by whichever form of the
//! weight it finds: the dense `θ16` a SAMO trainer lent — for its step,
//! or between steps when the caller runs the passes; the paper's one
//! dense tensor, no f32 copy of it anywhere — or, for an unmanaged model
//! or a serving replica, the f32 `value`. A lent `θ16` comes with its
//! mask's index, so the two products may skip the pruned weights
//! ([`tensor::gemm::sgemm_kept`] — still the same bits).
//!
//! The third product, `dW = dyᵀ · x`, is the sink's to choose: once the
//! bias gradient and `dx` are computed, the layer hands `dy` and the
//! input it cached over by value ([`GradSink::take_product`]). Without a
//! sink, or for one that hands them back, the layer adds the product at
//! the kept positions alone into the sums a SAMO trainer lent beside the
//! index ([`Parameter::kept_grad_target`],
//! [`tensor::gemm::matmul_tn_kept_acc`] — the bits the dense gradient
//! would hold there), and into the dense `grad` only while none are lent:
//! for an unmanaged model, or the step a mask update ranks it.

use crate::layer::{CacheSlot, GradSink, Layer};
use crate::param::Parameter;
use tensor::gemm::{matmul_tn_acc, matmul_tn_kept_acc, sgemm, sgemm_kept};
use tensor::Tensor;

/// Affine map `y = x · Wᵀ + b`, weights stored `[out_features, in_features]`
/// (the PyTorch convention the paper's FC benchmark uses).
pub struct Linear {
    weight: Parameter,
    bias: Option<Parameter>,
    in_features: usize,
    out_features: usize,
    cached_input: Option<Tensor>,
}

impl Linear {
    /// Kaiming-uniform initialized layer.
    pub fn new(in_features: usize, out_features: usize, bias: bool, seed: u64) -> Linear {
        let weight = Tensor::kaiming_uniform(&[out_features, in_features], seed);
        Linear::from_weights(weight, bias.then(|| Tensor::zeros(&[out_features])))
    }

    /// Builds a layer from explicit weights (tests, pruning experiments).
    pub fn from_weights(weight: Tensor, bias: Option<Tensor>) -> Linear {
        assert_eq!(weight.shape().len(), 2);
        let out_features = weight.shape()[0];
        let in_features = weight.shape()[1];
        if let Some(b) = &bias {
            assert_eq!(b.numel(), out_features);
        }
        let mut weight = Parameter::new("linear.weight", weight);
        weight.accepts_theta16 = true;
        Linear {
            weight,
            bias: bias.map(|b| Parameter::new("linear.bias", b)),
            in_features,
            out_features,
            cached_input: None,
        }
    }

    /// Input dimensionality.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output dimensionality.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Direct access to the weight parameter (pruning hooks).
    // TEST-API: `zero_alloc`, `grad_sink` and `param` reach the weight to lend θ16 or drop its gradient.
    pub fn weight_mut(&mut self) -> &mut Parameter {
        &mut self.weight
    }

    /// `c = a · Wᵀ` (`transb`: `rows × in` by `in × out`, the forward
    /// product) or `c = a · W` (`rows × out` by `out × in`, the input
    /// gradient), from the lent `θ16` and its index when there is one —
    /// over whichever of its weights `sgemm_kept` finds it pays to read —
    /// and from the f32 `value` otherwise: the same bits.
    fn times_weight(&self, transb: bool, rows: usize, a: &[f32], c: &mut [f32]) {
        let (n, k) = match transb {
            true => (self.out_features, self.in_features),
            false => (self.in_features, self.out_features),
        };
        let (w, ldb) = (&self.weight, self.in_features);
        match w.index() {
            Some(idx) => sgemm_kept(transb, rows, n, k, a, &w.theta16, idx, c),
            None => sgemm(false, transb, rows, n, k, 1.0, a, k, w.value.as_slice(), ldb, 0.0, c, n),
        }
    }

    /// `dW += dyᵀ · x` (out×batch · batch×in = out×in): into the lent
    /// kept sums, at the kept positions only, and into the dense gradient
    /// (materialised if it was released) only while none are lent. No
    /// dW-sized temporary either way.
    fn accumulate_dw(&mut self, dy: &Tensor, x: &Tensor) {
        let (m, n, rows, dy, x) = (self.out_features, self.in_features, x.rows(), dy.as_slice(), x.as_slice());
        match self.weight.kept_grad_target() {
            Some((idx, sums)) => matmul_tn_kept_acc(m, n, rows, dy, x, idx, sums),
            None => matmul_tn_acc(m, n, rows, dy, x, self.weight.dense_grad().as_mut_slice()),
        }
    }

    /// The input `forward` cached for the backward of `dy`.
    fn take_input(&mut self, dy: &Tensor) -> Tensor {
        let x = self
            .cached_input
            .take()
            .expect("backward called before forward");
        assert_eq!(dy.rows(), x.rows());
        assert_eq!(dy.cols(), self.out_features);
        x
    }

    /// The bias gradient, and `dx = dy · W` (batch×out · out×in).
    fn bias_and_dx(&mut self, dy: &Tensor) -> Tensor {
        if let Some(b) = &mut self.bias {
            let gb = b.dense_grad().as_mut_slice();
            for row in dy.as_slice().chunks(self.out_features) {
                for (g, &d) in gb.iter_mut().zip(row) {
                    *g += d;
                }
            }
        }
        let mut dx = Tensor::zeros(&[dy.rows(), self.in_features]);
        self.times_weight(false, dy.rows(), dy.as_slice(), dx.as_mut_slice());
        dx
    }
}

impl Layer for Linear {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let batch = x.rows();
        assert_eq!(
            x.cols(),
            self.in_features,
            "linear expected {} input features, got {}",
            self.in_features,
            x.cols()
        );
        let mut y = Tensor::zeros(&[batch, self.out_features]);
        // y = x (batch×in) · Wᵀ (in×out)
        self.times_weight(true, batch, x.as_slice(), y.as_mut_slice());
        if let Some(b) = &self.bias {
            let bs = b.value.as_slice();
            for row in y.as_mut_slice().chunks_mut(self.out_features) {
                for (v, &bv) in row.iter_mut().zip(bs) {
                    *v += bv;
                }
            }
        }
        self.cached_input = Some(x.clone());
        y
    }

    fn infer_batch(&mut self, x: &[f32], batch: usize, in_cols: usize, out: &mut Vec<f32>) -> usize {
        assert_eq!(in_cols, self.in_features, "input feature mismatch");
        assert_eq!(x.len(), batch * in_cols, "input slice/shape mismatch");
        out.clear();
        out.resize(batch * self.out_features, 0.0);
        self.times_weight(true, batch, x, out);
        if let Some(b) = &self.bias {
            let bs = b.value.as_slice();
            for row in out.chunks_mut(self.out_features) {
                for (v, &bv) in row.iter_mut().zip(bs) {
                    *v += bv;
                }
            }
        }
        self.out_features
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let x = self.take_input(dy);
        self.accumulate_dw(dy, &x);
        self.bias_and_dx(dy)
    }

    fn backward_into(&mut self, dy: Tensor, sink: &mut dyn GradSink) -> Tensor {
        let x = self.take_input(&dy);
        let dx = self.bias_and_dx(&dy);
        // Both operands move on: nothing here reads them any more.
        if let Err((dy, x)) = sink.take_product(0, dy, x) {
            self.accumulate_dw(&dy, &x);
        }
        // Stack slices, not `params()`: a streamed backward adds no
        // allocation to the plain one.
        match &self.bias {
            Some(b) => sink.ready(0, &[&self.weight, b]),
            None => sink.ready(0, &[&self.weight]),
        }
        dx
    }

    fn params(&self) -> Vec<&Parameter> {
        let mut v = vec![&self.weight];
        if let Some(b) = &self.bias {
            v.push(b);
        }
        v
    }

    fn params_mut(&mut self) -> Vec<&mut Parameter> {
        let mut v = vec![&mut self.weight];
        if let Some(b) = &mut self.bias {
            v.push(b);
        }
        v
    }

    fn for_each_param_mut(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        f(&mut self.weight);
        if let Some(b) = &mut self.bias {
            f(b);
        }
    }

    fn clear_caches(&mut self) {
        self.cached_input = None;
    }

    fn cached_bytes(&self) -> usize {
        self.cached_input.as_ref().map_or(0, |t| t.numel() * 4)
    }

    fn swap_caches(&mut self, slot: &mut CacheSlot) -> bool {
        slot.swap(&mut self.cached_input);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_known_values() {
        // W = [[1, 2], [3, 4]], b = [10, 20], x = [1, 1]
        let w = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let b = Tensor::from_vec(&[2], vec![10.0, 20.0]);
        let mut l = Linear::from_weights(w, Some(b));
        let y = l.forward(&Tensor::from_vec(&[1, 2], vec![1.0, 1.0]));
        assert_eq!(y.as_slice(), &[13.0, 27.0]);
    }

    #[test]
    fn backward_shapes_and_grads() {
        let w = Tensor::from_vec(&[2, 3], vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0]);
        let mut l = Linear::from_weights(w, Some(Tensor::zeros(&[2])));
        let x = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let _y = l.forward(&x);
        let dy = Tensor::from_vec(&[2, 2], vec![1.0, 0.0, 0.0, 1.0]);
        let dx = l.backward(&dy);
        assert_eq!(dx.shape(), &[2, 3]);
        // dx = dy · W: row0 = W row0 = [1,0,0]; row1 = W row1 = [0,1,0]
        assert_eq!(dx.as_slice(), &[1.0, 0.0, 0.0, 0.0, 1.0, 0.0]);
        // dW = dyᵀ x = [[1,2,3],[4,5,6]]
        assert_eq!(l.weight.grad.as_slice(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        // db = column sums of dy = [1, 1]
        assert_eq!(l.params()[1].grad.as_slice(), &[1.0, 1.0]);
    }

    #[test]
    fn grad_accumulates_across_steps() {
        let w = Tensor::from_vec(&[1, 1], vec![2.0]);
        let mut l = Linear::from_weights(w, None);
        for _ in 0..3 {
            let x = Tensor::from_vec(&[1, 1], vec![1.0]);
            l.forward(&x);
            l.backward(&Tensor::from_vec(&[1, 1], vec![1.0]));
        }
        assert_eq!(l.weight.grad.as_slice(), &[3.0]);
        l.zero_grad();
        assert_eq!(l.weight.grad.as_slice(), &[0.0]);
    }

    #[test]
    fn forward_backward_keep_the_bits_of_product_then_add() {
        // What the layer computed while dW still went through a dW-sized
        // temporary: y = x·Wᵀ, grad += (dyᵀ·x into zeros), dx = dy·W.
        // Round 0 accumulates onto a zero gradient, round 1 onto that.
        use tensor::gemm::{matmul, matmul_nt, matmul_tn};
        let (inf, outf, batch) = (37, 70, 5);
        let mut l = Linear::new(inf, outf, false, 3);
        let w = l.weight.value.as_slice().to_vec();
        let mut grad_ref = vec![0.0f32; outf * inf];
        for round in 0..2u64 {
            let x = Tensor::randn(&[batch, inf], 1.0, 10 + round);
            let dy = Tensor::randn(&[batch, outf], 1.0, 20 + round);
            let y = l.forward(&x);
            let dx = l.backward(&dy);

            let mut y_ref = vec![0.0f32; batch * outf];
            matmul_nt(batch, outf, inf, x.as_slice(), &w, &mut y_ref);
            let mut dw = vec![0.0f32; outf * inf];
            matmul_tn(outf, inf, batch, dy.as_slice(), x.as_slice(), &mut dw);
            for (g, &d) in grad_ref.iter_mut().zip(&dw) {
                *g += d;
            }
            let mut dx_ref = vec![0.0f32; batch * inf];
            matmul(batch, inf, outf, dy.as_slice(), &w, &mut dx_ref);

            let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(y.as_slice()), bits(&y_ref), "y, round {round}");
            assert_eq!(bits(dx.as_slice()), bits(&dx_ref), "dx, round {round}");
            assert_eq!(bits(l.weight.grad.as_slice()), bits(&grad_ref), "dW, round {round}");
        }
    }

    #[test]
    #[should_panic(expected = "backward called before forward")]
    fn backward_without_forward_panics() {
        let mut l = Linear::new(2, 2, false, 0);
        l.backward(&Tensor::zeros(&[1, 2]));
    }

    #[test]
    fn param_count() {
        let l = Linear::new(10, 5, true, 0);
        assert_eq!(l.num_params(), 55);
        let l2 = Linear::new(10, 5, false, 0);
        assert_eq!(l2.num_params(), 50);
    }
}

//! The layer abstraction: modules with hand-written backward passes.
//!
//! Besides the plain `backward`, which accumulates into every
//! parameter's dense `grad`, a layer runs [`Layer::backward_into`] a
//! [`GradSink`]: the hook a data-parallel runtime uses to take each
//! gradient the moment it is final — and, for a weight matrix, before it
//! exists: the layer hands the sink the operands of `dW = dyᵀ·x` and the
//! sink decides how much of the product to compute, so that the dense
//! gradient of the paper's Sec. III-C ("we never have to store the
//! uncompressed gradients") need not be a tensor, a row block, or even
//! computed where it is pruned.

use crate::param::Parameter;
use tensor::Tensor;

/// Where [`Layer::backward_into`] delivers parameter gradients.
///
/// Indices and offsets count parameters in the [`Layer::params`] order of
/// the layer the sink was handed to; containers shift them for their
/// children.
pub trait GradSink {
    /// The parameters `params`, starting at index `offset`, have their
    /// final gradient: in `grad`, or — for one whose product this sink
    /// took — wherever [`Self::take_product`] put it. Fires once per
    /// parameter, in reverse execution order.
    fn ready(&mut self, offset: usize, params: &[&Parameter]);

    /// The one way to take a 2-D gradient early. A layer whose parameter
    /// `index` (`out × in`) has the gradient `dyᵀ · x` — `dy` the
    /// `rows × out` gradient of its output, `x` the `rows × in` input it
    /// cached, both row-major — offers the operands before it computes
    /// anything. On `true` the sink has taken the gradient, whichever
    /// product it chose to run, with the bits accumulating `dyᵀ · x` into
    /// a zeroed `grad` would leave wherever it kept them, and the layer
    /// leaves `grad` untouched; on `false` (the default) the layer
    /// accumulates the product into `grad` itself. Either way the
    /// parameter's [`Self::ready`] follows.
    fn take_product(&mut self, _index: usize, _rows: usize, _dy: &[f32], _x: &[f32]) -> bool {
        false
    }
}

/// A sink as a child whose parameters start at `off` sees it.
struct Shifted<'a> {
    sink: &'a mut dyn GradSink,
    off: usize,
}

impl GradSink for Shifted<'_> {
    fn ready(&mut self, offset: usize, params: &[&Parameter]) {
        self.sink.ready(self.off + offset, params);
    }
    fn take_product(&mut self, index: usize, rows: usize, dy: &[f32], x: &[f32]) -> bool {
        self.sink.take_product(self.off + index, rows, dy, x)
    }
}

/// A caller-held set of forward caches, one cell per cache of every leaf
/// layer in execution order. A pipeline stage keeps one per microbatch in
/// flight beyond the live one, so a backward finds the activations its
/// forward left instead of recomputing them. The cells are created by the
/// first exchange; after that one moves tensors and allocates nothing.
#[derive(Default)]
pub struct CacheSlot {
    cells: Vec<Option<Tensor>>,
    /// Next cell a leaf takes during an exchange.
    at: usize,
}

impl CacheSlot {
    /// Swaps `layer`'s forward caches with this slot's: the layer takes
    /// what the slot held (nothing, or the caches an earlier exchange
    /// parked here) and the slot takes what `forward` left — moved, never
    /// copied. Exchange after one forward and again before the matching
    /// backward, and other inputs can run through the layer in between.
    /// `false`, with layer and slot untouched, if any layer inside
    /// declines ([`Layer::swap_caches`]).
    pub fn exchange(&mut self, layer: &mut dyn Layer) -> bool {
        self.at = 0;
        layer.swap_caches(self)
    }

    /// [`Layer::swap_caches`] of a leaf: swaps one of its caches with the
    /// slot's next cell.
    pub fn swap(&mut self, cache: &mut Option<Tensor>) {
        if self.at == self.cells.len() {
            self.cells.push(None);
        }
        std::mem::swap(cache, &mut self.cells[self.at]);
        self.at += 1;
    }

    /// Bytes of activations parked here.
    pub fn bytes(&self) -> usize {
        self.cells.iter().flatten().map(|t| t.numel() * 4).sum()
    }
}

/// A differentiable module.
///
/// `forward` caches whatever it needs; `backward` consumes that cache,
/// accumulates parameter gradients, and returns the gradient w.r.t. the
/// layer input. Layers are stateful between one forward and the matching
/// backward (standard define-by-run training-step usage).
pub trait Layer {
    /// Computes the layer output and caches activations for backward.
    fn forward(&mut self, x: &Tensor) -> Tensor;

    /// Given `d(loss)/d(output)`, accumulates parameter gradients and
    /// returns `d(loss)/d(input)`.
    fn backward(&mut self, dy: &Tensor) -> Tensor;

    /// Immutable views of the layer's parameters (possibly empty).
    fn params(&self) -> Vec<&Parameter>;

    /// Mutable views of the layer's parameters.
    fn params_mut(&mut self) -> Vec<&mut Parameter>;

    /// Visits every parameter mutably, in the same order as
    /// [`Self::params_mut`], without materializing a `Vec`. The training
    /// hot loop uses this traversal; the default routes through
    /// `params_mut` (one allocation per call), so parameter-bearing
    /// layers and containers override it to keep `SamoTrainer::step`
    /// allocation-free (asserted by `tests/zero_alloc.rs`).
    fn for_each_param_mut(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        for p in self.params_mut() {
            f(p);
        }
    }

    /// Zeroes all parameter gradients.
    fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    /// Total scalar parameter count.
    fn num_params(&self) -> usize {
        self.params().iter().map(|p| p.numel()).sum()
    }

    /// Drops any activations cached by `forward` (after this, `backward`
    /// requires a fresh forward). Used by activation checkpointing.
    fn clear_caches(&mut self) {}

    /// Bytes of activation cache currently held for backward — the
    /// memory that activation checkpointing trades for recomputation.
    fn cached_bytes(&self) -> usize {
        0
    }

    /// The layer's half of [`CacheSlot::exchange`]: [`CacheSlot::swap`]
    /// on every forward cache, always in the same order; a container asks
    /// its children in execution order. Returns `false` — layer and slot
    /// untouched — from a layer that cannot hand its caches over (the
    /// default); whoever wanted them back then runs `forward` again. A
    /// layer that caches nothing accepts by doing nothing.
    fn swap_caches(&mut self, _slot: &mut CacheSlot) -> bool {
        false
    }

    /// Inference-only batched forward into a caller-provided buffer:
    /// reads `batch` row-major rows of `in_cols` features from `x`,
    /// writes `batch × out_cols` outputs into `out` (cleared and
    /// refilled in place, so a warm buffer is reused without touching
    /// the allocator), and returns `out_cols`. Unlike [`Self::forward`]
    /// this never caches activations — it is the serving path, where no
    /// backward follows. The default routes through `forward` (one
    /// tensor allocation per layer per call); the layers the serving
    /// runtime composes (`Linear`, `NmLinear`, `QuantLinear`, the
    /// activations, and `Sequential` itself) override it with
    /// scratch-reusing kernels that are allocation-free once warm,
    /// asserted by `tests/zero_alloc.rs`.
    fn infer_batch(&mut self, x: &[f32], batch: usize, in_cols: usize, out: &mut Vec<f32>) -> usize {
        assert!(batch > 0, "infer_batch needs at least one row");
        let y = self.forward(&Tensor::from_vec(&[batch, in_cols], x.to_vec()));
        let out_cols = y.numel() / batch;
        out.clear();
        out.extend_from_slice(y.as_slice());
        self.clear_caches();
        out_cols
    }

    /// Backward into a gradient sink, the hook data-parallel trainers use
    /// to overlap the reduction with the rest of backward and to compress
    /// a weight gradient instead of storing it: [`GradSink::ready`] fires
    /// as soon as a group of parameters has its final gradient. Leaf
    /// layers get the default (a plain backward, then the whole layer
    /// ready, every gradient dense); containers override it to forward
    /// the sink to each child, in reverse execution order, and layers
    /// whose weight gradient is one product offer the sink its operands
    /// ([`GradSink::take_product`]).
    fn backward_into(&mut self, dy: &Tensor, sink: &mut dyn GradSink) -> Tensor {
        let dx = self.backward(dy);
        sink.ready(0, &self.params());
        dx
    }
}

/// A straight-through composition of layers.
///
/// Children are `Send` so a whole model can move onto a worker thread —
/// the thread-per-rank data-parallel runtime owns one replica per rank.
pub struct Sequential {
    layers: Vec<Box<dyn Layer + Send>>,
    /// Ping-pong buffers for [`Layer::infer_batch`]: activations bounce
    /// between these two, so a whole-model inference pass reuses the
    /// same warm storage on every batch.
    infer_a: Vec<f32>,
    infer_b: Vec<f32>,
}

impl Sequential {
    /// Creates an empty container.
    pub fn new() -> Sequential {
        Sequential {
            layers: Vec::new(),
            infer_a: Vec::new(),
            infer_b: Vec::new(),
        }
    }

    /// Appends a layer (builder style).
    pub fn push(mut self, layer: impl Layer + Send + 'static) -> Sequential {
        self.layers.push(Box::new(layer));
        self
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True if the container holds no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Decomposes the container into its owned layers, in forward order.
    /// The pipeline runtime uses this to partition one model into
    /// contiguous stage blocks that move onto different stage threads.
    pub fn into_layers(self) -> Vec<Box<dyn Layer + Send>> {
        self.layers
    }

    /// Rebuilds a container from owned layers (inverse of
    /// [`Self::into_layers`]); layer order is preserved.
    pub fn from_layers(layers: Vec<Box<dyn Layer + Send>>) -> Sequential {
        Sequential {
            layers,
            infer_a: Vec::new(),
            infer_b: Vec::new(),
        }
    }
}

impl Default for Sequential {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for Sequential {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let mut cur = x.clone();
        for layer in &mut self.layers {
            cur = layer.forward(&cur);
        }
        cur
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let mut cur = dy.clone();
        for layer in self.layers.iter_mut().rev() {
            cur = layer.backward(&cur);
        }
        cur
    }

    fn params(&self) -> Vec<&Parameter> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }

    fn params_mut(&mut self) -> Vec<&mut Parameter> {
        self.layers.iter_mut().flat_map(|l| l.params_mut()).collect()
    }

    fn for_each_param_mut(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        for l in &mut self.layers {
            l.for_each_param_mut(f);
        }
    }

    fn clear_caches(&mut self) {
        for l in &mut self.layers {
            l.clear_caches();
        }
    }

    fn cached_bytes(&self) -> usize {
        self.layers.iter().map(|l| l.cached_bytes()).sum()
    }

    fn swap_caches(&mut self, slot: &mut CacheSlot) -> bool {
        let start = slot.at;
        let Some(declined) = self.layers.iter_mut().position(|l| !l.swap_caches(slot)) else {
            return true;
        };
        // A swap is its own inverse: undo the children that accepted.
        slot.at = start;
        for l in &mut self.layers[..declined] {
            l.swap_caches(slot);
        }
        slot.at = start;
        false
    }

    fn infer_batch(&mut self, x: &[f32], batch: usize, in_cols: usize, out: &mut Vec<f32>) -> usize {
        assert!(batch > 0, "infer_batch needs at least one row");
        assert_eq!(x.len(), batch * in_cols, "input slice/shape mismatch");
        // Take the ping-pong buffers out of `self` so the layers (also
        // borrowed from `self`) can fill them; put them back warm.
        let mut a = std::mem::take(&mut self.infer_a);
        let mut b = std::mem::take(&mut self.infer_b);
        a.clear();
        a.extend_from_slice(x);
        let mut cols = in_cols;
        for layer in &mut self.layers {
            cols = layer.infer_batch(&a, batch, cols, &mut b);
            std::mem::swap(&mut a, &mut b);
        }
        out.clear();
        out.extend_from_slice(&a);
        self.infer_a = a;
        self.infer_b = b;
        cols
    }

    fn backward_into(&mut self, dy: &Tensor, sink: &mut dyn GradSink) -> Tensor {
        // Children finish their gradients in reverse execution order;
        // each sees the sink shifted by its parameter offset in
        // `params()` order, so the caller can start reducing a child's
        // gradients while earlier (in forward order) children are still
        // running backward.
        let offsets: Vec<usize> = self
            .layers
            .iter()
            .scan(0usize, |off, l| {
                let at = *off;
                *off += l.params().len();
                Some(at)
            })
            .collect();
        let mut cur = dy.clone();
        for (layer, &off) in self.layers.iter_mut().zip(&offsets).rev() {
            cur = layer.backward_into(&cur, &mut Shifted { sink: &mut *sink, off });
        }
        cur
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::Linear;

    /// A sink that takes no product and records the `ready` groups.
    struct Groups(Vec<(usize, usize)>);

    impl GradSink for Groups {
        fn ready(&mut self, off: usize, params: &[&Parameter]) {
            self.0.push((off, params.len()));
        }
    }

    #[test]
    fn backward_into_fires_per_child_in_reverse_order() {
        let build = || {
            Sequential::new()
                .push(Linear::new(4, 3, true, 1))
                .push(crate::activations::Relu::new())
                .push(Linear::new(3, 2, false, 2))
        };
        let x = Tensor::randn(&[5, 4], 1.0, 3);
        let dy = Tensor::randn(&[5, 2], 1.0, 4);

        let mut plain = build();
        plain.forward(&x);
        let dx_plain = plain.backward(&dy);

        let mut hooked = build();
        hooked.forward(&x);
        let mut groups = Groups(Vec::new());
        let dx_hooked = hooked.backward_into(&dy, &mut groups);

        assert_eq!(dx_plain.as_slice(), dx_hooked.as_slice(), "hook must not change math");
        // Reverse execution order: last Linear (params 2..3), Relu
        // (no params), first Linear (params 0..2). Offsets index into
        // `params()` order; every parameter is reported exactly once.
        assert_eq!(groups.0, vec![(2, 1), (2, 0), (0, 2)]);
        // A sink that declines the product finds every gradient dense.
        for (p, q) in plain.params().iter().zip(hooked.params()) {
            assert_eq!(p.grad.as_slice(), q.grad.as_slice(), "{}", p.name);
        }
    }

    /// A layer that keeps the default `swap_caches`: it declines.
    struct Keeps(Linear);

    impl Layer for Keeps {
        fn forward(&mut self, x: &Tensor) -> Tensor {
            self.0.forward(x)
        }
        fn backward(&mut self, dy: &Tensor) -> Tensor {
            self.0.backward(dy)
        }
        fn params(&self) -> Vec<&Parameter> {
            self.0.params()
        }
        fn params_mut(&mut self) -> Vec<&mut Parameter> {
            self.0.params_mut()
        }
        fn cached_bytes(&self) -> usize {
            self.0.cached_bytes()
        }
    }

    /// `forward(a); park; forward(b); backward(b); unpark; backward(a)`
    /// leaves the bits of `forward(a); backward(a)` after the same `b`
    /// round, and the cached bytes travel with the exchange.
    #[test]
    fn parked_caches_come_back_bit_for_bit() {
        use crate::activations::{Gelu, Relu};
        use crate::combinators::Residual;
        type Build = fn() -> Box<dyn Layer>;
        let builds: [(&str, Build); 5] = [
            ("linear", || Box::new(Linear::new(4, 4, true, 1))),
            ("relu", || Box::new(Relu::new())),
            ("gelu", || Box::new(Gelu::new())),
            ("residual", || Box::new(Residual::new(Linear::new(4, 4, false, 2)))),
            ("sequential", || {
                let inner = Sequential::new().push(Linear::new(4, 4, true, 3)).push(Gelu::new());
                Box::new(Sequential::new().push(inner).push(Relu::new()).push(Linear::new(4, 4, false, 4)))
            }),
        ];
        let [a, b, dya, dyb] = [5, 6, 7, 8].map(|seed| Tensor::randn(&[3, 4], 1.0, seed));
        let grads = |l: &dyn Layer| -> Vec<Vec<u32>> {
            let bits = |p: &&Parameter| p.grad.as_slice().iter().map(|g| g.to_bits()).collect();
            l.params().iter().map(bits).collect()
        };
        for (name, build) in builds {
            let mut plain = build();
            plain.forward(&b);
            plain.backward(&dyb);
            plain.forward(&a);
            let dx_plain = plain.backward(&dya);

            let mut parked = build();
            let mut slot = CacheSlot::default();
            parked.forward(&a);
            let held = parked.cached_bytes();
            assert!(slot.exchange(parked.as_mut()), "{name} accepts");
            assert_eq!((parked.cached_bytes(), slot.bytes()), (0, held), "{name}: bytes moved out");
            parked.forward(&b);
            parked.backward(&dyb);
            assert!(slot.exchange(parked.as_mut()));
            assert_eq!((parked.cached_bytes(), slot.bytes()), (held, 0), "{name}: bytes moved back");
            let dx_parked = parked.backward(&dya);

            assert_eq!(dx_plain.as_slice(), dx_parked.as_slice(), "{name}: dx");
            assert_eq!(grads(plain.as_ref()), grads(parked.as_ref()), "{name}: gradients");
        }
    }

    #[test]
    fn one_declining_layer_declines_for_the_block_and_moves_nothing() {
        let mut block = Sequential::new()
            .push(Linear::new(4, 4, true, 1))
            .push(crate::activations::Relu::new())
            .push(Keeps(Linear::new(4, 4, false, 2)));
        let x = Tensor::randn(&[3, 4], 1.0, 3);
        block.forward(&x);
        let held = block.cached_bytes();
        let mut slot = CacheSlot::default();
        assert!(!slot.exchange(&mut block));
        assert_eq!((block.cached_bytes(), slot.bytes()), (held, 0));
        // The caches that went out and came back still serve a backward.
        block.backward(&Tensor::randn(&[3, 4], 1.0, 4));
    }

    #[test]
    fn infer_batch_matches_forward_bitwise() {
        let mut model = Sequential::new()
            .push(Linear::new(6, 8, true, 1))
            .push(crate::activations::Gelu::new())
            .push(Linear::new(8, 3, true, 2))
            .push(crate::activations::Relu::new());
        let x = Tensor::randn(&[4, 6], 1.0, 3);
        let y = model.forward(&x);
        model.clear_caches();
        let mut out = Vec::new();
        // Twice: the second call exercises the warm ping-pong scratch.
        for _ in 0..2 {
            let cols = model.infer_batch(x.as_slice(), 4, 6, &mut out);
            assert_eq!(cols, 3);
            assert_eq!(out.as_slice(), y.as_slice(), "infer path must be bitwise forward");
        }
    }
}

//! Trainable parameters.
//!
//! A parameter's dense gradient is the one model-state tensor the paper
//! never keeps: `∇θ16` is stored compressed and the dense product is a
//! temporary (Sec. III-C). A runtime that consumes a gradient as the
//! layer produces it ([`crate::layer::GradSink`]) therefore *releases*
//! the accumulator ([`Parameter::release_grad`]): `grad` is then an empty
//! tensor, clearing it is a no-op, and whoever next needs a dense
//! gradient gets a fresh zeroed one from [`Parameter::dense_grad`].
//!
//! The f32 `value` is the other: the paper's one dense tensor is `θ16`,
//! kept dense "so that the forward and backward passes can use fast dense
//! kernels", and an f32 widening of it exists only for kernels that
//! multiply f32 slices. A layer whose kernels read half precision
//! directly declares it ([`Parameter::accepts_theta16`] — `Linear`); a
//! runtime that drives the compute itself then releases `value`
//! ([`Tensor::release`]: the shape stays, [`Parameter::numel`] keeps
//! answering) and *lends* its `θ16` for the compute window
//! ([`Parameter::theta16`], a `Vec` moved in and back out — one buffer,
//! one owner at a time). Nothing is configured: a layer computes from
//! the `θ16` it finds lent, and from `value` otherwise.
//! [`resident_param_bytes`] is the ruler for what a model still holds.
//!
//! The lend carries the positions of `θ16` that are kept — its mask's
//! shared index — so a layer may multiply by the kept weights alone. The
//! index comes and goes with the `θ16` it describes, in the same call, so
//! a parameter never holds one without the other.
//!
//! A runtime whose caller runs backward may lend one more buffer beside
//! them, the target of the weight gradient ([`Parameter::grad_target`]):
//! its kept sums ([`Parameter::lend_grad_sums`]), one f32 per position of
//! the index, where a layer that offers its gradient's product adds it at
//! the kept positions only; or, for a step that ranks the gradient at
//! every position, a log of the products' operands
//! ([`Parameter::lend_grad_log`]), where the layer appends them. While
//! either is lent the dense `grad` is released. They go home before their
//! index.

use crate::layer::Layer;
use std::borrow::Cow;
use std::sync::Arc;
use tensor::f16::F16;
use tensor::Tensor;

/// A trainable tensor together with its gradient accumulator.
#[derive(Clone, Debug)]
pub struct Parameter {
    /// Human-readable identifier (e.g. `"blocks.0.attn.qkv.weight"`).
    pub name: String,
    /// Current value, f32. Released — its shape, no elements — while a
    /// runtime that lends `theta16` manages the parameter.
    pub value: Tensor,
    /// Gradient of the loss w.r.t. `value`; accumulated by `backward`.
    /// Empty while released, see [`Self::release_grad`].
    pub grad: Tensor,
    /// The dense half-precision value, while the runtime that owns it
    /// lends it for forward and backward; empty otherwise.
    pub theta16: Vec<F16>,
    /// Set by the layer that owns the parameter: it computes from a lent
    /// `theta16`, so a runtime may release `value`.
    pub accepts_theta16: bool,
    /// The kept positions of the lent `theta16` (every other one is
    /// zero), lent with it; `None` while no `theta16` is lent.
    index: Option<Arc<Vec<u32>>>,
    /// The weight gradient at the positions of `index`, while a runtime
    /// lends it as the target of backward; `None` otherwise.
    grad_sums: Option<Vec<f32>>,
    /// The operands `(dy, x)` of the weight gradient's products, oldest
    /// first, while a runtime lends the log as the target of backward;
    /// `None` otherwise.
    grad_log: Option<Vec<(Tensor, Tensor)>>,
}

/// Where a layer that offers its weight gradient's product `dyᵀ·x` puts
/// it ([`Parameter::grad_target`]).
pub enum GradTarget<'a> {
    /// The lent index and the kept sums beside it: the product is added
    /// at the kept positions.
    Kept(&'a [u32], &'a mut [f32]),
    /// The lent operand log: `dy` and `x` are appended.
    Log(&'a mut Vec<(Tensor, Tensor)>),
    /// Nothing lent: the dense `grad`, materialised if released.
    Dense(&'a mut Tensor),
}

impl Parameter {
    /// Creates a parameter with a zeroed gradient of the same shape.
    pub fn new(name: impl Into<String>, value: Tensor) -> Parameter {
        let grad = Tensor::zeros(value.shape());
        Parameter {
            name: name.into(),
            value,
            grad,
            theta16: Vec::new(),
            accepts_theta16: false,
            index: None,
            grad_sums: None,
            grad_log: None,
        }
    }

    /// Number of scalar parameters, whether or not `value` is held.
    pub fn numel(&self) -> usize {
        self.value.shape().iter().product()
    }

    /// Whether `value` holds the elements its shape describes — `false`
    /// once released to a runtime that lends `theta16` instead.
    pub fn holds_value(&self) -> bool {
        self.value.numel() == self.numel()
    }

    /// Gives the f32 buffer back if the owning layer computes from a lent
    /// `theta16`: the parameter's training form under a runtime that
    /// drives forward and backward itself. A no-op for any other.
    pub fn release_value(&mut self) {
        if self.accepts_theta16 {
            self.value.release();
        }
    }

    /// The f32 value for a reader that leaves the parameter as it is: the
    /// held `value`, or the lent `theta16` widened into a fresh buffer.
    /// Unlike [`Self::widen_value`], the parameter keeps computing from
    /// whichever form it had.
    // TEST-API: the equivalence tests read a lent weight's values with it.
    pub fn f32_view(&self) -> Cow<'_, [f32]> {
        match self.holds_value() {
            true => Cow::Borrowed(self.value.as_slice()),
            false => Cow::Owned(tensor::f16::f16_slice_to_f32(&self.theta16)),
        }
    }

    /// Undoes [`Self::release_value`] for a reader of `value`: a released
    /// value comes back as the `theta16` it is lent, widened. Sticky: the
    /// layer computes from the f32 `value` from then on.
    pub fn widen_value(&mut self) {
        if !self.holds_value() {
            let widened = tensor::f16::f16_slice_to_f32(&self.theta16);
            self.value = Tensor::from_vec(self.value.shape(), widened);
        }
    }

    /// Moves the dense half-precision value between `home` — its owner's
    /// buffer — and `theta16`: in (`lend`) if the parameter holds no f32
    /// value, for a compute window; back out otherwise. One buffer, one
    /// owner at a time: a `Vec` swap, no copy, and no move at all when it
    /// is where it should be already. `index` — the kept positions of
    /// `θ16`, ascending, every position outside it zero — is held while
    /// `θ16` is and dropped with it.
    pub fn lend_theta16(&mut self, home: &mut Vec<F16>, index: Arc<Vec<u32>>, lend: bool) {
        debug_assert!(lend || self.grad_sums.is_none() && self.grad_log.is_none(), "a gradient target goes home before its index");
        let wanted_here = lend && !self.holds_value();
        if wanted_here == self.theta16.is_empty() {
            std::mem::swap(&mut self.theta16, home);
        }
        self.index = (!self.theta16.is_empty()).then_some(index);
    }

    /// The index lent with `theta16`, while one is lent.
    pub fn index(&self) -> Option<&[u32]> {
        self.index.as_deref().map(Vec::as_slice)
    }

    /// Moves the weight gradient's kept sums between `home` — one f32 per
    /// position of the lent index, zeroed by their owner — and the
    /// parameter: in (`lend`) while an index is lent, where they are the
    /// target of backward and the dense `grad` is released; back out
    /// otherwise. A `Vec` move, no copy; a no-op where they already are.
    pub fn lend_grad_sums(&mut self, home: &mut Vec<f32>, lend: bool) {
        debug_assert!(!lend || self.grad_sums.is_some() || home.len() == self.index().map_or(0, <[u32]>::len));
        let lend = lend && self.index.is_some();
        if move_lent(&mut self.grad_sums, home, lend) {
            self.release_grad();
        }
    }

    /// Moves a log of the weight gradient's products between `home` —
    /// empty, kept by its owner — and the parameter, as
    /// [`Self::lend_grad_sums`] moves the sums: in (`lend`) while an index
    /// is lent, where a layer that offers its product appends the operands
    /// and the dense `grad` is released; back out otherwise, with them.
    pub fn lend_grad_log(&mut self, home: &mut Vec<(Tensor, Tensor)>, lend: bool) {
        let lend = lend && self.index.is_some();
        if move_lent(&mut self.grad_log, home, lend) {
            self.release_grad();
        }
    }

    /// The lent kept sums, while they are lent.
    pub fn grad_sums(&self) -> Option<&[f32]> {
        self.grad_sums.as_deref()
    }

    /// The lent operand log, while it is lent.
    pub fn grad_log(&self) -> Option<&[(Tensor, Tensor)]> {
        self.grad_log.as_deref()
    }

    /// Where the weight gradient's product goes: the lent kept sums, the
    /// lent log, or — while neither is — the dense `grad`.
    pub fn grad_target(&mut self) -> GradTarget<'_> {
        if self.grad_sums.is_none() && self.grad_log.is_none() {
            return GradTarget::Dense(self.dense_grad());
        }
        match (self.index.as_deref(), &mut self.grad_sums, &mut self.grad_log) {
            (Some(idx), Some(sums), _) => GradTarget::Kept(idx, sums),
            (_, _, Some(log)) => GradTarget::Log(log),
            _ => unreachable!("sums are lent only beside an index"),
        }
    }

    /// Clears the gradient accumulator (nothing to clear while released).
    pub fn zero_grad(&mut self) {
        self.grad.as_mut_slice().fill(0.0);
    }

    /// Gives the dense gradient buffer back: the gradient of this
    /// parameter is consumed as it is produced and nothing reads `grad`.
    pub fn release_grad(&mut self) {
        if self.grad.numel() != 0 {
            self.grad = Tensor::zeros(&[0]);
        }
    }

    /// The dense gradient accumulator, for a writer: a released one comes
    /// back zeroed, in the shape of `value`.
    pub fn dense_grad(&mut self) -> &mut Tensor {
        if self.grad.numel() != self.numel() {
            self.grad = Tensor::zeros(self.value.shape());
        }
        &mut self.grad
    }

    /// Accumulates `delta` into the gradient.
    pub fn accumulate_grad(&mut self, delta: &[f32]) {
        tensor::ops::axpy(1.0, delta, self.dense_grad().as_mut_slice());
    }
}

/// Bytes of the f32 buffers `model`'s parameters hold right now, as
/// `(values, grads)`: the two dense shadows a process keeps next to the
/// compressed model state, and the lent kept sums and operand logs among
/// the gradients.
/// Buffer lengths, not capacities or pages — a released value or
/// gradient counts zero.
// TEST-API: the rulers of what a rank keeps in f32 (`streamed_grad`, `no_dense_weight_grad`, `telemetry_integration`).
pub fn resident_param_bytes(model: &impl Layer) -> (usize, usize) {
    model.params().iter().fold((0, 0), |(v, g), p| {
        let sums = p.grad_sums().map_or(0, <[f32]>::len);
        let log: usize = p.grad_log().unwrap_or_default().iter().map(|(dy, x)| dy.numel() + x.numel()).sum();
        (v + 4 * p.value.numel(), g + 4 * (p.grad.numel() + sums + log))
    })
}

/// Moves a lent buffer between its owner's `home` and the parameter's
/// `slot`: in if `lend` and not there yet, home if not `lend`. A `Vec`
/// move, no copy. Returns whether it went in.
fn move_lent<T: Default>(slot: &mut Option<T>, home: &mut T, lend: bool) -> bool {
    match (lend, slot.is_some()) {
        (true, false) => *slot = Some(std::mem::take(home)),
        (false, true) => *home = slot.take().expect("a lent buffer is there"),
        _ => return false,
    }
    lend
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_parameter_has_zero_grad() {
        let p = Parameter::new("w", Tensor::full(&[2, 3], 1.5));
        assert_eq!(p.numel(), 6);
        assert!(p.grad.as_slice().iter().all(|&g| g == 0.0));
        assert_eq!(p.grad.shape(), p.value.shape());
    }

    #[test]
    fn grad_accumulates_and_clears() {
        let mut p = Parameter::new("w", Tensor::zeros(&[4]));
        p.accumulate_grad(&[1.0, 2.0, 3.0, 4.0]);
        p.accumulate_grad(&[1.0, 1.0, 1.0, 1.0]);
        assert_eq!(p.grad.as_slice(), &[2.0, 3.0, 4.0, 5.0]);
        p.zero_grad();
        assert!(p.grad.as_slice().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn a_released_grad_is_empty_and_comes_back_zeroed_on_demand() {
        let mut p = Parameter::new("w", Tensor::full(&[2, 3], 1.0));
        p.accumulate_grad(&[1.0; 6]);
        p.release_grad();
        assert_eq!(p.grad.numel(), 0);
        p.zero_grad(); // nothing to clear
        p.release_grad(); // already gone
        assert_eq!(p.grad.numel(), 0);
        p.accumulate_grad(&[2.0; 6]);
        assert_eq!(p.grad.shape(), &[2, 3]);
        assert_eq!(p.grad.as_slice(), &[2.0; 6], "materialised from zeros, not the old sum");
    }

    #[test]
    fn resident_bytes_count_live_buffers() {
        let mut l = crate::linear::Linear::new(8, 4, true, 0);
        assert_eq!(resident_param_bytes(&l), (4 * 36, 4 * 36));
        l.weight_mut().release_grad();
        assert_eq!(resident_param_bytes(&l), (4 * 36, 4 * 4), "the bias gradient is left");
        l.for_each_param_mut(&mut |p| p.release_value());
        assert_eq!(resident_param_bytes(&l), (4 * 4, 4 * 4), "a bias computes from its f32 value");
        let w = l.weight_mut();
        assert!(!w.holds_value());
        assert_eq!((w.numel(), w.value.shape()), (32, &[4, 8][..]), "the shape still answers");
        w.accumulate_grad(&[1.0; 32]);
        assert_eq!(w.grad.shape(), &[4, 8], "a dense gradient comes back in that shape");
    }

    #[test]
    fn theta16_moves_into_a_released_parameter_and_back_without_a_copy() {
        let mut l = crate::linear::Linear::new(8, 4, true, 0);
        let mut home: Vec<F16> = (0..32).map(|i| F16::from_f32(i as f32)).collect();
        let buffer = home.as_ptr();
        let index = Arc::new((0..32).collect::<Vec<u32>>());
        let w = l.weight_mut();
        w.lend_theta16(&mut home, Arc::clone(&index), true);
        assert!(w.theta16.is_empty() && home.len() == 32, "a held value borrows nothing");
        assert!(w.index().is_none(), "nor its index");
        w.release_value();
        for _ in 0..2 {
            w.lend_theta16(&mut home, Arc::clone(&index), true); // the second call finds it lent
            assert!(home.is_empty());
            assert_eq!((w.theta16.len(), w.theta16.as_ptr()), (32, buffer));
            assert_eq!(w.index(), Some(&index[..]), "the index comes with it");
        }
        for _ in 0..2 {
            w.lend_theta16(&mut home, Arc::clone(&index), false);
            assert!(w.theta16.is_empty() && w.index().is_none());
            assert_eq!((home.len(), home.as_ptr()), (32, buffer));
        }
        assert_eq!(Arc::strong_count(&index), 1, "and goes with it");
        // A reader of `value` gets it widened from what is lent: a view
        // leaves the lend in place, `widen_value` ends it. θ16 goes home
        // whatever the value's state, and a held value stays put.
        w.lend_theta16(&mut home, Arc::clone(&index), true);
        assert_eq!(w.f32_view()[31], 31.0);
        assert!(!w.holds_value() && w.theta16.len() == 32, "a view leaves θ16 lent");
        w.widen_value();
        assert!(matches!(w.f32_view(), Cow::Borrowed(_)), "a held value is read in place");
        assert_eq!(w.value.as_slice()[31], 31.0);
        w.lend_theta16(&mut home, Arc::clone(&index), false);
        assert_eq!((w.theta16.len(), home.as_ptr()), (0, buffer));
        assert!(w.index().is_none());
        let held = w.value.as_slice().as_ptr();
        w.widen_value();
        assert_eq!(w.value.as_slice().as_ptr(), held, "a held value is left alone");
    }
}

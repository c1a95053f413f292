//! SAMO model state: the paper's core data structure (Sec. III).
//!
//! Per layer, SAMO keeps the half-precision compute parameters `θ16`
//! **dense** (so forward/backward use dense kernels) and every other
//! model-state tensor **compressed** against one shared linearized index
//! tensor:
//!
//! | tensor   | storage     | size      |
//! |----------|-------------|-----------|
//! | `θ16`    | dense       | `2φ` B    |
//! | `ind`    | shared      | `4fφ` B   |
//! | `θ32`    | compressed  | `4fφ` B   |
//! | `∇θ16`   | compressed  | `2fφ` B   |
//! | `∇θ32`   | compressed  | `4fφ` B   |
//! | `os`     | compressed  | `8fφ` B   |
//!
//! The dense `∇θ16` is not in the table: the paper compresses it "at the
//! granularity of a layer ... so that we never have to store the
//! uncompressed gradients for the entire model" (Sec. III-C).
//! [`SamoLayerState::compress_grad_fused`] is that, for a runtime whose
//! caller ran backward into a dense gradient;
//! [`SamoLayerState::compress_grad_product`] takes the operands of
//! `dW = dyᵀ·x` instead, for a runtime that drives backward itself:
//! `tensor::gemm` computes that gradient at the shared index, and no
//! layer's dense gradient exists.
//!
//! `θ16` is dense "so that the forward and backward passes can use fast
//! dense kernels", and it is the model's weight itself: for a compute
//! window — a step's, or the time between a caller-driven trainer's
//! steps — the engine moves `theta16` into the parameter whose layer
//! multiplies by it (`crate::engine`, module docs) and this state holds
//! an empty `Vec` until it is moved back. The state stays its one owner:
//! the byte count charges `2φ` for it wherever it is, and every
//! constructor, kernel and remap here expects `theta16` home — the kernel
//! that scatters into it asserts so (an empty one would read as nothing
//! to write). A checkpoint never reads it: `θ16` is rebuilt from `θ32`.
//! The model's f32 widening
//! of `θ16` — `dense_out` of the step kernels,
//! [`SamoLayerState::write_dense_f32_params_into`] — is written where the
//! model keeps one; a parameter that computes from the lent `θ16` has
//! released it and passes an empty slice.
//!
//! # ZeRO-style sharding — an extension beyond the paper
//!
//! The paper compares against DeepSpeed's ZeRO optimizer (Rajbhandari et
//! al.), which shards optimizer state across data-parallel ranks, but
//! never composes the two ideas. They compose naturally: of `d` ranks,
//! each holds the full dense `θ16`, the full index and an `nnz`-long
//! `∇θ16` (the reduction's input), but only its contiguous range
//! `[lo, hi)` of the compressed `θ32`, `∇θ32` and `os`. Per rank that is
//! `M = 2φ + 6fφ + 18fφ/d` ([`crate::memory::m_samo_zero_bytes`]); at
//! `d = 1` the range is the whole compressed space and the state is
//! byte for byte the paper's. The gradient ring reduce-scatters, so
//! after it a rank's `∇θ16` holds the group mean on its own range only
//! (its local values elsewhere); the rank runs the fused step on that
//! range ([`SamoLayerState::optimizer_step_owned`]), and the updated
//! compressed fp16 ranges are all-gathered and scattered through `ind`
//! into every rank's `θ16` ([`SamoLayerState::scatter_gathered`]).
//! [`crate::reference::optimizer_step_shard`] and
//! [`crate::reference::install_gathered`] are the three-phase reference
//! of the same step.

use crate::compressed::{compress, expand_over_zeroed, Scatter};
use crate::memory::SamoBreakdown;
use nn::mixed::{OptState, Optimizer};
use nn::optim::{adam_bias_corrections, adam_update, sgd_update, AdamConfig, AdamState, SgdState};
use prune::Mask;
use std::borrow::Cow;
use std::sync::atomic::{AtomicBool, Ordering};
use tensor::f16::{to_f32_table, F16};
use tensor::pool::{par_chunks_mut, SplitMut};
use tensor::gemm;
use tensor::simd::{self, AdamArrays, AdamLanes, SweepTargets, Tier};

/// Pool granularity of the fused step kernels, in compressed positions:
/// enough work per chunk that fork–join overhead stays negligible.
const STEP_MIN_CHUNK: usize = 32 * 1024;

/// SAMO-compressed mixed-precision model state for one layer: shard
/// `shard_id` of `num_shards` of the fp32 tensors (the whole compressed
/// space when `num_shards == 1`).
#[derive(Clone, Debug)]
pub struct SamoLayerState {
    /// Crate-visible so the oracle (`crate::reference`) can read the
    /// index while it writes `θ16` or `∇θ16`.
    pub(crate) mask: Mask,
    shard_id: usize,
    num_shards: usize,
    /// Dense fp16 parameters — zeros explicitly present at pruned
    /// positions so dense kernels apply directly. Full on every shard.
    pub theta16: Vec<F16>,
    /// Compressed fp32 master parameters over the owned range.
    pub theta32: Vec<f32>,
    /// Compressed fp16 gradients (length = nnz on every shard: the
    /// input to the reduction, which on a shard leaves the mean on the
    /// owned range only).
    pub grad16: Vec<F16>,
    /// Compressed fp32 gradients over the owned range.
    pub grad32: Vec<f32>,
    /// Compressed optimizer state over the owned range.
    pub os: OptState,
}

/// What a checkpoint carries of one state — its range of `θ32` and of
/// `∇θ16`, and its optimizer state — borrowed in place, or owned to leave
/// the thread that holds the state. A layer's ranges, in shard order,
/// concatenate to the arrays a full state would hold.
pub(crate) struct OwnedRange<'a> {
    pub theta32: Cow<'a, [f32]>,
    pub grad16: Cow<'a, [F16]>,
    pub os: Cow<'a, OptState>,
}

impl OwnedRange<'_> {
    pub(crate) fn into_owned(self) -> OwnedRange<'static> {
        OwnedRange {
            theta32: Cow::Owned(self.theta32.into_owned()),
            grad16: Cow::Owned(self.grad16.into_owned()),
            os: Cow::Owned(self.os.into_owned()),
        }
    }
}

/// The per-parameter arrays of an optimizer state: Adam's `m` and `v`,
/// SGD's velocity.
pub(crate) fn os_arrays(os: &OptState) -> [Option<&Vec<f32>>; 2] {
    match os {
        OptState::Adam(a) => [Some(&a.m), Some(&a.v)],
        OptState::Sgd(s) => [Some(&s.velocity), None],
    }
}

/// Mutable counterpart of [`os_arrays`].
pub(crate) fn os_arrays_mut(os: &mut OptState) -> [Option<&mut Vec<f32>>; 2] {
    match os {
        OptState::Adam(a) => [Some(&mut a.m), Some(&mut a.v)],
        OptState::Sgd(s) => [Some(&mut s.velocity), None],
    }
}

/// The dense `θ16` of a full compressed `θ32`: narrow, then expand.
fn dense_theta16(theta32: &[f32], mask: &Mask) -> Vec<F16> {
    let mut temp16 = vec![F16::ZERO; theta32.len()];
    tensor::f16::narrow_slice(theta32, &mut temp16);
    let mut theta16 = vec![F16::ZERO; mask.numel()];
    expand_over_zeroed(&temp16, mask, &mut theta16);
    theta16
}

/// What one task of the fused optimizer pass writes, as the pool cuts it
/// from the owned range: its positions of `θ32` and `∇θ32`; of the
/// model's f32 widening of `θ16`, where the model keeps one, and of `θ16`
/// itself, both behind `ind`; and of the updated range for the other
/// ranks, where there are any.
type Owned<'a> = (
    (&'a mut [f32], &'a mut [f32]),
    (Option<Scatter<'a, f32>>, (Scatter<'a, F16>, Option<&'a mut [F16]>)),
);

/// The fused optimizer pass over one task's positions: `grad16` are their
/// reduced gradients, `os` walks the optimizer's arrays over them, and
/// `update(os[k], θ32[k], ∇θ32[k])` is the optimizer at one.
fn sweep<I: Iterator>(
    grad16: &[F16],
    inv_loss_scale: f32,
    owned: Owned<'_>,
    os: I,
    update: &impl Fn(I::Item, &mut f32, f32),
) {
    match owned.1.0.is_some() {
        true => sweep_as::<true, I>(grad16, inv_loss_scale, owned, os, update),
        false => sweep_as::<false, I>(grad16, inv_loss_scale, owned, os, update),
    }
}

/// The AVX2 tier of the Adam [`sweep`] over the leading whole vectors of
/// one task's positions ([`simd::adam_sweep_vector`]): how many it did —
/// none on the scalar tier — for the scalar loop to finish from.
fn adam_vector(
    tier: Tier,
    adam: &AdamLanes,
    inv_loss_scale: f32,
    grad16: &[F16],
    ((theta32, grad32), (view, (theta16, payload))): &mut Owned<'_>,
    (m, v): (&mut [f32], &mut [f32]),
) -> usize {
    let (ind, base, theta16) = theta16.parts();
    let view = view.as_mut().map(|view| view.parts().2);
    let targets = SweepTargets { ind, base, theta16, view, payload: payload.as_deref_mut() };
    let arrays = AdamArrays { grad16, theta32, grad32, m, v };
    simd::adam_sweep_vector(tier, adam, inv_loss_scale, arrays, targets)
}

/// [`sweep`] itself; `VIEW` says the f32 view is there to be written next
/// to `θ16`. One loop per form: testing for the view per element cost the
/// trainers that keep it 4–5 % of a step.
fn sweep_as<const VIEW: bool, I: Iterator>(
    grad16: &[F16],
    inv_loss_scale: f32,
    ((theta32, grad32), (view, (mut theta16, payload))): Owned<'_>,
    os: I,
    update: &impl Fn(I::Item, &mut f32, f32),
) {
    let table = to_f32_table();
    // Stand-ins that are never written for what is not there.
    let mut view = view.unwrap_or_else(|| Scatter::new(&[], Default::default()));
    let payload = payload.unwrap_or_default();
    let fp32 = theta32.iter_mut().zip(grad32.iter_mut()).zip(os);
    for (k, ((&i, g16), ((p, g32), os))) in theta16.ind.iter().zip(grad16).zip(fp32).enumerate() {
        let g = table[g16.0 as usize] * inv_loss_scale;
        *g32 = g;
        update(os, p, g);
        let h = F16::from_f32_fast(*p);
        theta16.put(i, h);
        if VIEW {
            view.put(i, table[h.0 as usize]);
        }
        if let Some(slot) = payload.get_mut(k) {
            *slot = h;
        }
    }
}

impl SamoLayerState {
    /// Builds the full (unsharded) state from dense fp32 parameter values
    /// and a pruning mask. Values at pruned positions are discarded (set
    /// to zero in the dense θ16, absent in compressed tensors).
    pub fn from_params(values: &[f32], mask: Mask, opt: &Optimizer) -> SamoLayerState {
        SamoLayerState::from_params_sharded(values, mask, opt, 0, 1)
    }

    /// Builds shard `shard_id` of `num_shards` from dense parameter
    /// values and the pruning mask.
    pub fn from_params_sharded(
        values: &[f32],
        mask: Mask,
        opt: &Optimizer,
        shard_id: usize,
        num_shards: usize,
    ) -> SamoLayerState {
        assert!(shard_id < num_shards, "shard {shard_id} of {num_shards}");
        assert_eq!(values.len(), mask.numel());
        let compressed = compress(values, &mask);
        let (lo, hi) = comms::segment(compressed.len(), shard_id, num_shards);
        SamoLayerState {
            theta16: dense_theta16(&compressed, &mask),
            theta32: compressed[lo..hi].to_vec(),
            grad16: vec![F16::ZERO; compressed.len()],
            grad32: vec![0.0; hi - lo],
            os: OptState::new(opt, hi - lo),
            mask,
            shard_id,
            num_shards,
        }
    }

    /// Reassembles a full state from checkpointed parts (see
    /// `crate::serialize`): the dense θ16 is reconstructed from the
    /// compressed θ32, and ∇θ32 is transient (rebuilt on the next step).
    pub(crate) fn from_parts(
        mask: Mask,
        theta32: Vec<f32>,
        grad16: Vec<F16>,
        os: OptState,
    ) -> SamoLayerState {
        assert_eq!(theta32.len(), mask.nnz());
        assert_eq!(grad16.len(), mask.nnz());
        SamoLayerState {
            theta16: dense_theta16(&theta32, &mask),
            grad32: vec![0.0; theta32.len()],
            theta32,
            grad16,
            os,
            mask,
            shard_id: 0,
            num_shards: 1,
        }
    }

    /// Cuts a full state (e.g. one loaded from a checkpoint) down to
    /// shard `shard_id` of `num_shards` — the recovery path of a lost
    /// rank, and the re-shard after a mask change. Exactly inverts
    /// [`crate::reference::to_full_layer`]; `num_shards == 1` returns `self`.
    pub fn into_shard(mut self, shard_id: usize, num_shards: usize) -> SamoLayerState {
        assert_eq!(self.num_shards, 1, "only a full state can be sharded");
        assert!(shard_id < num_shards, "shard {shard_id} of {num_shards}");
        if num_shards > 1 {
            let (lo, hi) = comms::segment(self.nnz(), shard_id, num_shards);
            self.theta32 = self.theta32[lo..hi].to_vec();
            self.grad32 = vec![0.0; hi - lo];
            for a in os_arrays_mut(&mut self.os).into_iter().flatten() {
                *a = a[lo..hi].to_vec();
            }
            (self.shard_id, self.num_shards) = (shard_id, num_shards);
        }
        self
    }

    /// This shard's fp32 arrays in wire order: `θ32`, then the optimizer
    /// moments — one rank's contribution to [`Self::full_from_shards`].
    pub(crate) fn shard_arrays(&self) -> Vec<&[f32]> {
        let moments = os_arrays(&self.os).into_iter().flatten();
        std::iter::once(&self.theta32)
            .chain(moments)
            .map(Vec::as_slice)
            .collect()
    }

    /// Rebuilds the full state from every rank's [`Self::shard_arrays`],
    /// in rank order: the shards are contiguous and partition the
    /// compressed space, so concatenation recovers exactly the state an
    /// unsharded layer would hold. `self` supplies the mask, Adam's step
    /// count and `∇θ16` — this rank's, so the mean only on its own range:
    /// enough for the remap path, whose next compress overwrites `∇θ16`
    /// anyway; [`crate::reference::to_full_layer`] assembles the
    /// checkpointed one.
    pub(crate) fn full_from_shards(&self, shards: &[Vec<&[f32]>]) -> SamoLayerState {
        let cat = |a: usize| -> Vec<f32> { shards.iter().flat_map(|s| s[a]).copied().collect() };
        let os = match &self.os {
            OptState::Adam(st) => OptState::Adam(AdamState {
                m: cat(1),
                v: cat(2),
                step: st.step,
            }),
            OptState::Sgd(_) => OptState::Sgd(SgdState { velocity: cat(1) }),
        };
        SamoLayerState::from_parts(self.mask.clone(), cat(0), self.grad16.clone(), os)
    }

    /// What a checkpoint carries of this state, borrowed. After a
    /// reduce-scatter a rank holds the reduced `∇θ16` on its own range
    /// only, so that too is taken from its owner.
    pub(crate) fn owned_range(&self) -> OwnedRange<'_> {
        let (lo, hi) = self.shard_range();
        OwnedRange {
            theta32: Cow::Borrowed(&self.theta32),
            grad16: Cow::Borrowed(&self.grad16[lo..hi]),
            os: Cow::Borrowed(&self.os),
        }
    }

    /// `(shard_id, num_shards)`.
    pub fn shard(&self) -> (usize, usize) {
        (self.shard_id, self.num_shards)
    }

    /// Whether this state owns only part of the compressed range.
    pub fn is_sharded(&self) -> bool {
        self.num_shards > 1
    }

    /// This shard's bounds `[lo, hi)` within the compressed space.
    pub fn shard_range(&self) -> (usize, usize) {
        comms::segment(self.nnz(), self.shard_id, self.num_shards)
    }

    /// Length of every shard's range, in rank order (the all-gather's
    /// `counts`).
    pub fn shard_counts(&self) -> Vec<usize> {
        (0..self.num_shards)
            .map(|r| comms::segment(self.nnz(), r, self.num_shards))
            .map(|(lo, hi)| hi - lo)
            .collect()
    }

    /// The layer's pruning mask.
    pub fn mask(&self) -> &Mask {
        &self.mask
    }

    /// Total parameter count φ (including pruned).
    pub fn numel(&self) -> usize {
        self.mask.numel()
    }

    /// Unpruned parameter count fφ.
    pub fn nnz(&self) -> usize {
        self.mask.nnz()
    }

    /// Fused step kernel (a): gather + f16-round + overflow-detect in one
    /// parallel pass over `nnz`. Equivalent to
    /// [`crate::reference::compress_grad`] followed by
    /// [`crate::reference::grads_non_finite`] (bitwise-identical `∇θ16`,
    /// property tested against that three-phase oracle), but reads the
    /// dense gradient once and never re-scans the compressed buffer.
    ///
    /// Returns `true` when every stored gradient is finite (i.e. `false`
    /// signals loss-scale overflow). `∇θ16` is cut into one run of
    /// compressed positions per pool task, and every run goes through
    /// [`tensor::simd::gather_narrow_finite`], so on AVX2 hardware the
    /// gather + round + finiteness check are all vectorized; the scalar
    /// tier is bitwise identical, so the checkpoint determinism oracles
    /// hold regardless of `SAMO_SIMD`.
    pub fn compress_grad_fused(&mut self, dense_scaled_grad: &[f32]) -> bool {
        assert_eq!(dense_scaled_grad.len(), self.numel());
        let (ind, grad16) = self.compress_target();
        let tier = simd::active();
        let all_finite = AtomicBool::new(true);
        par_chunks_mut(grad16, STEP_MIN_CHUNK, |s, out| {
            let run = &ind[s..s + out.len()];
            if !simd::gather_narrow_finite(tier, dense_scaled_grad, 0, run, out) {
                all_finite.store(false, Ordering::Relaxed);
            }
        });
        all_finite.into_inner()
    }

    /// [`Self::compress_grad_fused`] of a weight gradient `dW = dyᵀ·x`
    /// that is never assembled: `dy` is `rows × out`, `x` is `rows × in`,
    /// the state's mask `out × in`. This is "compression ... at the
    /// granularity of a layer ... so that we never have to store the
    /// uncompressed gradients" (Sec. III-C) taken one step further: the
    /// product is computed at the shared index straight into `∇θ16`
    /// ([`gemm::matmul_tn_kept`], which picks how), so not even one layer's
    /// dense gradient exists. `∇θ16` and the returned overflow flag are
    /// those of the fused kernel on `matmul_tn_acc`'s product into zeros.
    pub fn compress_grad_product(&mut self, rows: usize, dy: &[f32], x: &[f32]) -> bool {
        let &[m, n] = self.mask.shape() else { panic!("a product's gradient is a matrix") };
        let (ind, grad16) = self.compress_target();
        gemm::matmul_tn_kept(m, n, rows, dy, x, ind, grad16)
    }

    /// Adds the product of [`Self::compress_grad_product`] into `sums`,
    /// `nnz` f32s at the shared index ([`gemm::matmul_tn_kept_acc`]), which
    /// start from zeros when empty: the bits the dense gradient holds
    /// there after the same microbatches.
    pub(crate) fn accumulate_grad_product(&self, rows: usize, dy: &[f32], x: &[f32], sums: &mut Vec<f32>) {
        let &[m, n] = self.mask.shape() else { panic!("a product's gradient is a matrix") };
        sums.resize(self.nnz(), 0.0);
        gemm::matmul_tn_kept_acc(m, n, rows, dy, x, self.mask.indices(), sums);
    }

    /// [`Self::compress_grad_product`] of a gradient whose earlier
    /// microbatches `sums` holds ([`Self::accumulate_grad_product`]): the
    /// product is added and the sums compressed ([`Self::compress_sums`]).
    pub(crate) fn compress_grad_sum(&mut self, rows: usize, dy: &[f32], x: &[f32], sums: &mut Vec<f32>) -> bool {
        self.accumulate_grad_product(rows, dy, x, sums);
        self.compress_sums(sums)
    }

    /// Narrows a weight gradient's kept sums — `nnz` f32s at the shared
    /// index, each the bits the dense gradient holds there — into `∇θ16`,
    /// with the bits and the overflow flag of [`Self::compress_grad_fused`]
    /// on that dense gradient, and empties them for the next step.
    pub(crate) fn compress_sums(&mut self, sums: &mut Vec<f32>) -> bool {
        let (tier, all_finite) = (simd::active(), AtomicBool::new(true));
        par_chunks_mut(self.compress_target().1, STEP_MIN_CHUNK, |s, out| {
            if !simd::narrow_sum_finite(tier, &sums[s..s + out.len()], out) {
                all_finite.store(false, Ordering::Relaxed);
            }
        });
        sums.clear();
        all_finite.into_inner()
    }

    /// The index, and `∇θ16` at its full length for a compress to write.
    /// The resize is a no-op unless a failed step's ring kept the buffer:
    /// every value is overwritten by a whole compress anyway.
    fn compress_target(&mut self) -> (&[u32], &mut [F16]) {
        self.grad16.resize(self.mask.nnz(), F16::ZERO);
        (self.mask.indices(), &mut self.grad16)
    }

    /// Fused step kernel (b): upscale + optimizer + downcast +
    /// scatter-into-θ16 in one parallel pass over the owned range,
    /// writing the model's dense f32 parameter view into `dense_out` in
    /// place — where the model keeps one: a parameter that computes from
    /// the lent `θ16` has released it, `dense_out` is then empty and `θ16`
    /// is all the pass writes. Equivalent to
    /// [`crate::reference::optimizer_step`] followed by copying
    /// [`Self::dense_f32_params`] out (bitwise for
    /// `θ32`/`∇θ32`/`os`, exact for `θ16` — property tested against that
    /// oracle), without the dense `Vec` per layer per step.
    ///
    /// Adam's pass has an AVX2 tier ([`simd::adam_sweep_vector`]): eight
    /// positions' widen, unscale, moments, update and narrow in registers,
    /// then eight scattered stores — 2.4× the scalar loop on a shard of
    /// 210 k values (`optimizer_sweep_210k` in `repro bench`; EXPERIMENTS.md,
    /// PR 24). Its lanes are the scalar loop's bits: `adam_update` is
    /// multiplications, additions, divisions and a square root, each
    /// correctly rounded by IEEE 754 in either form, none fused, in one
    /// order (DESIGN.md §11). The scalar loop runs the tail, the
    /// `SAMO_SIMD=off` tier and SGD, and is the oracle of the other.
    ///
    /// Precondition: `dense_out` (if held) and `θ16` are already zero at
    /// every pruned position. Both are only ever produced by this type's
    /// constructors or step kernels, which maintain that invariant, so
    /// only the unpruned positions need to be rewritten here.
    ///
    /// Returns the updated compressed fp16 range when other ranks need
    /// it — a shard's contribution to the parameter all-gather, written
    /// by the same pass ([`Self::scatter_gathered`] installs the other
    /// ranks'); empty, and allocation-free, at `d = 1`.
    pub fn optimizer_step_owned(
        &mut self,
        opt: &Optimizer,
        inv_loss_scale: f32,
        dense_out: &mut [f32],
    ) -> Vec<F16> {
        self.optimizer_step_owned_on(simd::active(), opt, inv_loss_scale, dense_out)
    }

    /// [`Self::optimizer_step_owned`] with Adam's pass pinned to a tier —
    /// for the tests that hold the two tiers to the same bits and the
    /// benchmark that times one against the other.
    #[doc(hidden)]
    pub fn optimizer_step_owned_on(
        &mut self,
        tier: Tier,
        opt: &Optimizer,
        inv_loss_scale: f32,
        dense_out: &mut [f32],
    ) -> Vec<F16> {
        assert!(dense_out.is_empty() || dense_out.len() == self.numel());
        assert_eq!(self.theta16.len(), self.numel(), "θ16 is on loan");
        let (lo, hi) = self.shard_range();
        let mut payload = vec![F16::ZERO; if self.is_sharded() { hi - lo } else { 0 }];
        let SamoLayerState { mask, theta16, theta32, grad16, grad32, os, .. } = self;
        // A short array would end the pass early.
        let owned = [Some(&*theta32), Some(&*grad32)].into_iter().chain(os_arrays(os));
        assert!(owned.flatten().all(|a| a.len() == hi - lo), "shard arrays must span the range");
        let (ind, grad16) = (&mask.indices()[lo..hi], &grad16[lo..hi]);
        let view = (!dense_out.is_empty()).then(|| Scatter::new(ind, dense_out));
        let wire = (!payload.is_empty()).then_some(&mut payload[..]);
        let owned: Owned = ((theta32, grad32), (view, (Scatter::new(ind, theta16), wire)));
        match (os, opt) {
            (OptState::Adam(st), Optimizer::Adam(cfg)) => {
                st.step += 1;
                let (bc1, bc2) = adam_bias_corrections(cfg, st.step);
                let update = |(m, v): (_, _), p: &mut _, g| adam_update(cfg, bc1, bc2, m, v, p, g);
                let AdamConfig { lr, beta1, beta2, eps, weight_decay } = *cfg;
                let adam = AdamLanes { lr, beta1, beta2, eps, weight_decay, bias_corrections: (bc1, bc2) };
                let moments = (&mut st.m[..], &mut st.v[..]);
                par_chunks_mut((owned, moments), STEP_MIN_CHUNK, |s, (mut owned, (m, v))| {
                    let grad16 = &grad16[s..s + m.len()];
                    let done = adam_vector(tier, &adam, inv_loss_scale, grad16, &mut owned, (&mut *m, &mut *v));
                    let (_, (owned, (m, v))) = (owned, (m, v)).split_at(done);
                    sweep(&grad16[done..], inv_loss_scale, owned, m.iter_mut().zip(v), &update)
                });
            }
            (OptState::Sgd(st), Optimizer::Sgd(cfg)) => {
                let update = |vel: &mut _, p: &mut _, g| sgd_update(cfg, vel, p, g);
                par_chunks_mut((owned, &mut st.velocity[..]), STEP_MIN_CHUNK, |s, (owned, vel)| {
                    sweep(&grad16[s..], inv_loss_scale, owned, vel.iter_mut(), &update)
                });
            }
            _ => panic!("optimizer/optimizer-state kind mismatch"),
        }
        payload
    }

    /// [`Self::optimizer_step_owned`] without its return value — the whole
    /// step of a state that owns the compressed range (a single worker).
    pub fn optimizer_step_fused(
        &mut self,
        opt: &Optimizer,
        inv_loss_scale: f32,
        dense_out: &mut [f32],
    ) {
        self.optimizer_step_owned(opt, inv_loss_scale, dense_out);
    }

    /// Completes a shard's fused step: scatters the *other* ranks' ranges
    /// of the all-gathered compressed fp16 parameters through `ind` into
    /// `θ16` and — unless it is empty, as there — the model's f32 view
    /// (the owned range was written by [`Self::optimizer_step_owned`]).
    /// Pruned positions are not touched: they are zero already, see the
    /// precondition there.
    pub fn scatter_gathered(&mut self, full_compressed16: &[F16], dense_out: &mut [f32]) {
        assert_eq!(full_compressed16.len(), self.mask.nnz());
        assert!(dense_out.is_empty() || dense_out.len() == self.numel());
        let (lo, hi) = self.shard_range();
        let (ind, table) = (self.mask.indices(), to_f32_table());
        for range in [0..lo, hi..ind.len()] {
            for (&i, &h) in ind[range.clone()].iter().zip(&full_compressed16[range]) {
                self.theta16[i as usize] = h;
                // An empty view has no element to write.
                if let Some(v) = dense_out.get_mut(i as usize) {
                    *v = table[h.0 as usize];
                }
            }
        }
    }

    /// Byte-exact measurement of the model-state storage this shard
    /// holds, matching [`SamoBreakdown`]. `include_temp` adds the
    /// transient downcast copy (peak vs steady usage).
    pub fn measured_bytes(&self, include_temp: bool) -> u64 {
        let b = self.breakdown();
        if include_temp {
            b.peak_bytes()
        } else {
            b.steady_bytes()
        }
    }

    /// Component breakdown from the live data structures. `θ16` counts
    /// `2φ` wherever it is: lent to the model, the buffer is still this
    /// state's.
    pub fn breakdown(&self) -> SamoBreakdown {
        SamoBreakdown {
            theta16: (self.numel() * 2) as u64,
            index: self.mask.index_bytes() as u64,
            theta32: (self.theta32.len() * 4) as u64,
            grad16: (self.grad16.len() * 2) as u64,
            grad32: (self.grad32.len() * 4) as u64,
            optimizer: self.os.bytes() as u64,
            downcast_temp: (self.theta32.len() * 2) as u64,
        }
    }

    /// Dense fp32 view of the current parameters (for loading into a
    /// compute layer): widened θ16, zeros at pruned positions.
    pub fn dense_f32_params(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.theta16.len()];
        self.write_dense_f32_params_into(&mut out);
        out
    }

    /// Writes the dense fp32 parameter view directly into an existing
    /// buffer (table-based widen, no allocation) — used by the trainer's
    /// build/restore paths instead of round-tripping through
    /// [`Self::dense_f32_params`]. Like the step kernels, it takes the
    /// view the model has: nothing to write into an empty (released) one.
    pub fn write_dense_f32_params_into(&self, out: &mut [f32]) {
        if !out.is_empty() {
            assert_eq!(out.len(), self.theta16.len());
            tensor::ops::widen_into(&self.theta16, out);
        }
    }

    /// Reserves worst-case (dense) capacity on every compressed buffer so
    /// subsequent [`Self::remap_compressed_state`] calls never reallocate
    /// whichever direction the mask moves. Called once when a
    /// [`RemapScratch`] is built; byte accounting is length-based, so the
    /// steady-state memory model is unaffected.
    fn reserve_remap_headroom(&mut self) {
        let numel = self.numel();
        self.theta32
            .reserve(numel.saturating_sub(self.theta32.len()));
        self.grad16.reserve(numel.saturating_sub(self.grad16.len()));
        self.grad32.reserve(numel.saturating_sub(self.grad32.len()));
        for a in os_arrays_mut(&mut self.os).into_iter().flatten() {
            a.reserve(numel.saturating_sub(a.len()));
        }
    }

    /// Migrates the compressed state from the current mask to `new_mask`
    /// in a single merge pass over the two sorted index lists:
    ///
    /// * **surviving** indices (in both masks) copy `θ32`/`∇θ16`/`∇θ32`
    ///   and the optimizer moments to their new compressed position;
    /// * **newborn** indices (only in `new_mask`) initialize the master
    ///   weight from the dense `θ16` view (zero under the pruned-zeros
    ///   invariant) with zero moments and zero gradient;
    /// * **dead** indices (only in the old mask) drop their compressed
    ///   state and are zeroed in the dense `θ16`.
    ///
    /// The Adam step count is preserved (bias correction keeps its
    /// schedule; newborns simply enter with zero moments, exactly as in
    /// Dettmers & Zettlemoyer's regrowth). The new buffers are staged in
    /// `scratch` and swapped in, so with a warm [`RemapScratch`] the
    /// kernel performs **zero heap allocations** (asserted by
    /// `tests/zero_alloc.rs`). Returns the retired mask so callers can
    /// control where its refcount drop happens. Shard bounds depend on
    /// `nnz`, so a sharded layer is gathered, remapped whole and cut
    /// again (`crate::engine`); this kernel takes full states only.
    pub fn remap_compressed_state(&mut self, new_mask: Mask, scratch: &mut RemapScratch) -> Mask {
        assert_eq!(
            new_mask.shape(),
            self.mask.shape(),
            "remap must preserve the tensor shape"
        );
        assert_eq!(self.num_shards, 1, "remap needs the whole compressed range");
        assert_eq!(
            std::mem::discriminant(&self.os),
            std::mem::discriminant(&scratch.os),
            "optimizer-state kind mismatch between layer and scratch"
        );
        let new_nnz = new_mask.nnz();
        let table = to_f32_table();
        let SamoLayerState { mask, theta16, theta32, grad16, grad32, os, .. } = self;
        let old_ind = mask.indices();
        let new_ind = new_mask.indices();

        scratch.theta32.clear();
        scratch.theta32.resize(new_nnz, 0.0);
        scratch.grad16.clear();
        scratch.grad16.resize(new_nnz, F16::ZERO);
        scratch.grad32.clear();
        scratch.grad32.resize(new_nnz, 0.0);
        let old_os = os_arrays(os);
        let mut new_os = os_arrays_mut(&mut scratch.os);
        for a in new_os.iter_mut().flatten() {
            a.clear();
            a.resize(new_nnz, 0.0);
        }

        // Two-pointer merge over the sorted index sets. Schedule
        // transitions keep most indices (sparsify/densify move only the
        // delta; churn swaps a small fraction), so survivors arrive in
        // long runs of equal indices: detect each run once, then move it
        // with `copy_from_slice` (memcpy) across all five arrays instead
        // of per-element branchy copies.
        let old_ind: &[u32] = old_ind.as_slice();
        let new_ind: &[u32] = new_ind.as_slice();
        let (mut i, mut j) = (0usize, 0usize);
        while i < old_ind.len() && j < new_nnz {
            let o = old_ind[i];
            let n = new_ind[j];
            if o == n {
                let max = (old_ind.len() - i).min(new_nnz - j);
                let mut run = 1;
                while run < max && old_ind[i + run] == new_ind[j + run] {
                    run += 1;
                }
                scratch.theta32[j..j + run].copy_from_slice(&theta32[i..i + run]);
                scratch.grad16[j..j + run].copy_from_slice(&grad16[i..i + run]);
                scratch.grad32[j..j + run].copy_from_slice(&grad32[i..i + run]);
                for (o, n) in old_os.iter().zip(&mut new_os) {
                    if let (Some(o), Some(n)) = (o, n) {
                        n[j..j + run].copy_from_slice(&o[i..i + run]);
                    }
                }
                i += run;
                j += run;
            } else if o < n {
                // Death run: every old index below `n` is dead.
                while i < old_ind.len() && old_ind[i] < n {
                    theta16[old_ind[i] as usize] = F16::ZERO;
                    i += 1;
                }
            } else {
                // Birth run: every new index below `o` is a newborn.
                while j < new_nnz && new_ind[j] < o {
                    scratch.theta32[j] = table[theta16[new_ind[j] as usize].0 as usize];
                    j += 1;
                }
            }
        }
        // Tails: one side exhausted, the rest is pure deaths or births.
        for &o in &old_ind[i..] {
            theta16[o as usize] = F16::ZERO;
        }
        for &n in &new_ind[j..] {
            scratch.theta32[j] = table[theta16[n as usize].0 as usize];
            j += 1;
        }

        std::mem::swap(theta32, &mut scratch.theta32);
        std::mem::swap(grad16, &mut scratch.grad16);
        std::mem::swap(grad32, &mut scratch.grad32);
        let staged = os_arrays_mut(&mut scratch.os);
        for (a, s) in os_arrays_mut(os).into_iter().zip(staged) {
            if let (Some(a), Some(s)) = (a, s) {
                std::mem::swap(a, s);
            }
        }
        std::mem::replace(mask, new_mask)
    }
}

/// Pre-sized staging buffers for [`SamoLayerState::remap_compressed_state`]:
/// every vector carries worst-case (dense) capacity so remapping in either
/// direction — sparsify or densify — stays allocation-free. The buffer
/// swap means the retired compressed tensors become the next remap's
/// staging area, so one scratch per layer amortizes forever.
#[derive(Debug)]
pub struct RemapScratch {
    theta32: Vec<f32>,
    grad16: Vec<F16>,
    grad32: Vec<f32>,
    os: OptState,
}

impl RemapScratch {
    /// Builds scratch matched to `layer`'s optimizer-state kind and also
    /// reserves remap headroom on the layer's own buffers (both sides of
    /// the swap must carry dense capacity).
    pub fn for_layer(layer: &mut SamoLayerState, opt: &Optimizer) -> RemapScratch {
        let numel = layer.numel();
        layer.reserve_remap_headroom();
        let mut os = OptState::new(opt, 0);
        for a in os_arrays_mut(&mut os).into_iter().flatten() {
            a.reserve(numel);
        }
        RemapScratch {
            theta32: Vec::with_capacity(numel),
            grad16: Vec::with_capacity(numel),
            grad32: Vec::with_capacity(numel),
            os,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nn::optim::AdamConfig;

    fn adam() -> Optimizer {
        Optimizer::Adam(AdamConfig {
            lr: 0.1,
            ..Default::default()
        })
    }

    fn mask_half() -> Mask {
        Mask::new(&[8], vec![1, 3, 4, 6])
    }

    #[test]
    fn construction_zeroes_pruned_theta16() {
        let values: Vec<f32> = (1..=8).map(|i| i as f32).collect();
        let st = SamoLayerState::from_params(&values, mask_half(), &adam());
        assert_eq!(st.nnz(), 4);
        assert_eq!(st.theta32, vec![2.0, 4.0, 5.0, 7.0]);
        let dense = st.dense_f32_params();
        assert_eq!(dense, vec![0.0, 2.0, 0.0, 4.0, 5.0, 0.0, 7.0, 0.0]);
    }

    #[test]
    fn measured_bytes_match_formula() {
        let phi = 10_000usize;
        let mask = prune::random_prune(&[phi], 0.9, 3);
        let nnz = mask.nnz();
        let st = SamoLayerState::from_params(&vec![0.5; phi], mask, &adam());
        let b = st.breakdown();
        assert_eq!(b, SamoBreakdown::new(phi as u64, nnz as u64));
        assert_eq!(
            st.measured_bytes(true),
            crate::memory::m_samo_bytes(phi as u64, 0.9)
        );
    }

    /// Steps a layer a few times so θ32, the moments, and the step count
    /// are all nonzero before a remap exercises them.
    fn warmed_layer(opt: &Optimizer) -> SamoLayerState {
        let values: Vec<f32> = (1..=8).map(|i| i as f32 * 0.1).collect();
        let mut st = SamoLayerState::from_params(&values, mask_half(), opt);
        for k in 0..3 {
            let grads: Vec<f32> = (0..8).map(|i| (i as f32 + k as f32) * 0.01).collect();
            crate::reference::compress_grad(&mut st, &grads);
            crate::reference::optimizer_step(&mut st, opt, 1.0);
        }
        st
    }

    #[test]
    fn remap_copies_survivors_drops_dead_births_newborns() {
        let opt = adam();
        let mut st = warmed_layer(&opt);
        let before = st.clone();
        // Old mask {1,3,4,6} -> new mask {3,4,5,7}: survivors {3,4},
        // dead {1,6}, newborn {5,7}.
        let new_mask = Mask::new(&[8], vec![3, 4, 5, 7]);
        let mut scratch = RemapScratch::for_layer(&mut st, &opt);
        let retired = st.remap_compressed_state(new_mask.clone(), &mut scratch);
        assert_eq!(retired, before.mask().clone());
        assert_eq!(st.mask(), &new_mask);
        assert_eq!(st.nnz(), 4);

        let (om, ov, nm, nv) = match (&before.os, &st.os) {
            (OptState::Adam(o), OptState::Adam(n)) => {
                assert_eq!(o.step, n.step, "Adam step schedule preserved");
                (&o.m, &o.v, &n.m, &n.v)
            }
            _ => unreachable!(),
        };
        // Survivors: old compressed slot 1 (dense 3) -> new slot 0, old
        // slot 2 (dense 4) -> new slot 1. Bitwise copies everywhere.
        for (new_j, old_j) in [(0usize, 1usize), (1, 2)] {
            assert_eq!(st.theta32[new_j].to_bits(), before.theta32[old_j].to_bits());
            assert_eq!(st.grad16[new_j].0, before.grad16[old_j].0);
            assert_eq!(st.grad32[new_j].to_bits(), before.grad32[old_j].to_bits());
            assert_eq!(nm[new_j].to_bits(), om[old_j].to_bits());
            assert_eq!(nv[new_j].to_bits(), ov[old_j].to_bits());
        }
        // Newborns (dense 5, 7 -> new slots 2, 3): zero master (the dense
        // θ16 was zero there), zero moments, zero gradient.
        for j in [2usize, 3] {
            assert_eq!(st.theta32[j], 0.0);
            assert_eq!(st.grad16[j].0, 0);
            assert_eq!(st.grad32[j], 0.0);
            assert_eq!(nm[j], 0.0);
            assert_eq!(nv[j], 0.0);
        }
        // Dense θ16: dead positions zeroed, survivors untouched, the
        // pruned-zeros invariant holds everywhere.
        for i in 0..8usize {
            if [3usize, 4].contains(&i) {
                assert_eq!(st.theta16[i].0, before.theta16[i].0, "survivor {i} moved");
            } else {
                assert_eq!(st.theta16[i].0, 0, "position {i} must be zero");
            }
        }
    }

    #[test]
    fn remap_matches_from_params_for_fresh_positions() {
        // Remapping a *fresh* (never-stepped) layer to any mask must give
        // exactly what building from the dense view with that mask gives.
        let opt = adam();
        let values: Vec<f32> = (1..=8).map(|i| i as f32 * 0.25).collect();
        let mut st = SamoLayerState::from_params(&values, mask_half(), &opt);
        let dense = st.dense_f32_params();
        let new_mask = Mask::new(&[8], vec![1, 2, 4]);
        let mut scratch = RemapScratch::for_layer(&mut st, &opt);
        st.remap_compressed_state(new_mask.clone(), &mut scratch);
        let oracle = SamoLayerState::from_params(&dense, new_mask, &opt);
        assert_eq!(st.theta32, oracle.theta32);
        assert_eq!(
            st.theta16.iter().map(|h| h.0).collect::<Vec<_>>(),
            oracle.theta16.iter().map(|h| h.0).collect::<Vec<_>>()
        );
    }

    #[test]
    fn remap_to_same_mask_is_identity() {
        let opt = adam();
        let mut st = warmed_layer(&opt);
        let before = st.clone();
        let mut scratch = RemapScratch::for_layer(&mut st, &opt);
        st.remap_compressed_state(before.mask().clone(), &mut scratch);
        assert_eq!(st.theta32, before.theta32);
        assert_eq!(st.grad32, before.grad32);
        assert_eq!(
            st.grad16.iter().map(|h| h.0).collect::<Vec<_>>(),
            before.grad16.iter().map(|h| h.0).collect::<Vec<_>>()
        );
        match (&st.os, &before.os) {
            (OptState::Adam(a), OptState::Adam(b)) => {
                assert_eq!(a.m, b.m);
                assert_eq!(a.v, b.v);
                assert_eq!(a.step, b.step);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn remap_densify_then_sparsify_roundtrip_keeps_survivor_state() {
        // Densify {1,3,4,6} -> all 8, then sparsify back: surviving
        // master weights and moments must ride through both remaps.
        let opt = adam();
        let mut st = warmed_layer(&opt);
        let before = st.clone();
        let mut scratch = RemapScratch::for_layer(&mut st, &opt);
        st.remap_compressed_state(Mask::dense(&[8]), &mut scratch);
        assert_eq!(st.nnz(), 8);
        st.remap_compressed_state(mask_half(), &mut scratch);
        assert_eq!(st.nnz(), 4);
        assert_eq!(st.theta32, before.theta32);
        match (&st.os, &before.os) {
            (OptState::Adam(a), OptState::Adam(b)) => {
                assert_eq!(a.m, b.m);
                assert_eq!(a.v, b.v);
            }
            _ => unreachable!(),
        }
        for i in 0..8usize {
            assert_eq!(st.theta16[i].0, before.theta16[i].0);
        }
    }

    #[test]
    fn remap_works_for_sgd_state() {
        let opt = Optimizer::Sgd(nn::optim::SgdConfig {
            lr: 0.1,
            momentum: 0.9,
            weight_decay: 0.0,
        });
        let mut st = warmed_layer(&opt);
        let before = st.clone();
        let new_mask = Mask::new(&[8], vec![1, 3, 5]);
        let mut scratch = RemapScratch::for_layer(&mut st, &opt);
        st.remap_compressed_state(new_mask, &mut scratch);
        match (&st.os, &before.os) {
            (OptState::Sgd(n), OptState::Sgd(o)) => {
                // Survivors 1 (old slot 0) and 3 (old slot 1); newborn 5.
                assert_eq!(n.velocity[0].to_bits(), o.velocity[0].to_bits());
                assert_eq!(n.velocity[1].to_bits(), o.velocity[1].to_bits());
                assert_eq!(n.velocity[2], 0.0);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    #[should_panic(expected = "shape")]
    fn remap_rejects_shape_change() {
        let opt = adam();
        let mut st = SamoLayerState::from_params(&[0.0; 8], mask_half(), &opt);
        let mut scratch = RemapScratch::for_layer(&mut st, &opt);
        st.remap_compressed_state(Mask::dense(&[4]), &mut scratch);
    }

    #[test]
    fn fewer_survivors_than_ranks_leaves_trailing_shards_empty() {
        let st = SamoLayerState::from_params_sharded(
            &[1.0; 8],
            Mask::new(&[8], vec![0, 2, 5]),
            &adam(),
            4,
            5,
        );
        assert_eq!(st.shard_range(), (3, 3));
        assert!(st.theta32.is_empty());
        assert_eq!(st.shard_counts(), vec![1, 1, 1, 0, 0]);
    }

    #[test]
    fn shard_bytes_match_the_zero_formula_and_d1_is_the_full_state() {
        let (phi, d) = (50_000usize, 4usize);
        let mask = prune::random_prune(&[phi], 0.9, 1);
        let nnz = mask.nnz() as u64;
        let values = vec![0.1; phi];
        let mut sharded_total = 0u64;
        for r in 0..d {
            let st = SamoLayerState::from_params_sharded(&values, mask.clone(), &adam(), r, d);
            // Per rank: 2φ + (4+2)·nnz + (4+4+8+2)·shard.
            let (lo, hi) = st.shard_range();
            let expect = 2 * phi as u64 + 6 * nnz + 18 * (hi - lo) as u64;
            assert_eq!(st.measured_bytes(true), expect, "rank {r}");
            sharded_total += 18 * (hi - lo) as u64;
        }
        assert_eq!(sharded_total, 18 * nnz, "shards cover everything once");
        let one = SamoLayerState::from_params_sharded(&values, mask.clone(), &adam(), 0, 1);
        let full = SamoLayerState::from_params(&values, mask, &adam());
        assert_eq!(one.breakdown(), full.breakdown());
        assert_eq!(one.measured_bytes(true), crate::memory::m_samo_bytes(phi as u64, 0.9));
    }
}

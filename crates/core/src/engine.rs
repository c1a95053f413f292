//! The one per-rank SAMO training step, behind every runtime.
//!
//! The paper's contribution is one per-layer data structure
//! ([`SamoLayerState`]) and one step over it: compress → reduce →
//! verdict → optimizer → expand. [`StepEngine`] is that step for one
//! rank; a rank of a group holds the group's [`Communicator`], over
//! which its compressed `∇θ16` becomes the group mean, and a single
//! worker holds none. What varies between runtimes is only who
//! drives it:
//!
//! * [`crate::SamoTrainer`] calls `step(model)` after the caller's
//!   backward — an inline loop over the parameters
//!   (`reduce_after_backward`). Between steps it lends each weight a
//!   target for its gradient beside `θ16` and the index
//!   (`lend_grad_target`), and the dense `grad` stays released: the kept
//!   sums, where the caller's backward adds `dyᵀ·x` at the kept positions
//!   alone (`tensor::gemm::matmul_tn_kept_acc`) and the step narrows them
//!   into `∇θ16` (`SamoLayerState::compress_sums`, the tail the last W
//!   ends with); or, before a step the schedule updates on, a log of the
//!   products' operands, which the step runs as a W once it has ranked
//!   them. Not for the first step, whose schedule may still be installed:
//!   nothing is lent there, and its backward forms the dense gradient;
//! * [`crate::pipeline::StageRank`], the one rank of the `G_inter ×
//!   G_data` grid — one per thread of the one group, [`crate::RankGroup`]
//!   (as [`crate::ThreadedPipelineSamo`] or, at one stage,
//!   [`crate::ThreadedDataParallelSamo`]), and one per process of
//!   `samo-launch` — splits every microbatch's backward in two
//!   (the B/W split of Qi et al., *Zero Bubble Pipeline Parallelism*). B
//!   (`backward_deferred`) computes `dx` and the dense gradients of
//!   biases and norms; each weight's `dW = dyᵀ·x` is only recorded — the
//!   layer hands its operands over, and the queued W owns them until it
//!   runs (`Defer`): no copy. W (`run_w`), which the scheduler runs where
//!   the stage would otherwise sleep, sums the products at the kept
//!   positions into an `nnz`-long f32 accumulator per weight
//!   (`tensor::gemm::matmul_tn_kept_acc`), oldest microbatch first, and
//!   frees each operand once its product has run; the last microbatch's
//!   W finishes the sums into `∇θ16` — at one microbatch, the product
//!   straight into `∇θ16` ([`SamoLayerState::compress_grad_product`]):
//!   the paper compresses "at the granularity of a layer ... so that we
//!   never have to store the uncompressed gradients for the entire model"
//!   (Sec. III-C) — and buckets every gradient, the rings overlapping the
//!   rest of it. So a weight's dense gradient never exists, a
//!   dynamic-sparsity update step's included: its Bs log their products'
//!   operands instead of queueing Ws, and the epilogue runs
//!   `reduce_after_backward` instead of `finish_reduce`. There, for every
//!   runtime, `maybe_remap` streams each layer's grow score from its log
//!   (`tensor::gemm::matmul_tn_sum_narrow`: row block by row block, into
//!   halves), ranks and remaps, and the compress runs the logged products
//!   as the ordinary W at the new index. A pipeline stage agrees on the
//!   overflow verdict across stages between the reduction and `apply`.
//!
//! `θ16` *is* the weight: a parameter whose layer computes from half
//! precision (`Parameter::accepts_theta16` — `Linear`) holds no f32
//! `value` while it trains (`Parameter::release_value`), and for a
//! compute window the state's `theta16` buffer is moved into the
//! parameter and back (`StepEngine::lend_theta16`: a `Vec` swap, one
//! buffer, one owner at a time). The window of the rank, which owns its
//! model, is its step's schedule — every F, B and W — and it brings `θ16`
//! home when the schedule ends, before the reduction and `apply`,
//! whether or not the schedule failed. So everything outside
//! their step (`save`, `restore`, remap, the inspection hook) finds
//! `theta16` where it always was; the inspection hook additionally widens
//! the values for its closure (`Parameter::widen_value`).
//! [`crate::SamoTrainer`]'s caller runs forward and backward, so its
//! window is the time *between* steps: `new` releases and lends, `step`
//! brings `θ16` (and the gradient sums) home for the remap, compress and
//! optimizer and lends them again, and `restore` leaves `θ16` where it
//! found it and the sums out only if they were, by the rule of the end
//! of a step. No runtime keeps the f32 view; the independent
//! oracle of the lent products is `crate::reference`, which multiplies
//! f32 weights.
//!
//! Every state runs the same fused pair
//! ([`SamoLayerState::compress_grad_fused`] — or its product form — and
//! [`SamoLayerState::optimizer_step_owned`]) on the range it owns. An
//! engine is sharded iff it has a group: rank `r` of `G` owns
//! shard `r`, reduce-scatters `∇θ16` (it needs the mean on its own range
//! alone) and all-gathers the updated fp16 parameters — together the
//! `2·(G−1)/G·fφ·2 B` of a ring all-reduce. A shard then holds reduced
//! bits on its own range only, so the group agrees on the overflow
//! verdict with one flag gather per step (`finish_reduce`).
//!
//! The compressed gradients travel in buckets: parameter groups join the
//! open bucket in the order backward finishes them, and the bucket starts
//! one ring for all of them once it holds `BUCKET_BYTES` (64 KiB) of f16, or
//! when backward ends. A bucket is one message a hop, not one per
//! parameter; each part keeps its own segments, so the sums, the shards
//! and the bits are those of a ring per parameter (DESIGN.md §12).
//!
//! After backward, a collective is sent as soon as its input exists and
//! the rank blocks once for all of them: the flag leaves beside the ring
//! tail, before `finish_reduce` waits for it, and each bucket's parameter
//! gather leaves as soon as its last optimizer pass ends, before `apply`
//! waits for any of them. The ids, messages and bytes are those of the
//! blocking order; only the waits moved.
//!
//! Every rank times its step on one phase clock, the engine's
//! `telemetry::ledger::Ledger`: the runtime opens the window, the
//! runtime and the engine charge `f`, `b`, `w`, `send`, `wait`, `remap`,
//! `compress`, `reduce`, `optimizer` and `gather` where each runs — a
//! ring pumped inside a W is `reduce`, the innermost phase — and
//! `StepEngine::end_step` closes it. The phases sum to the window, which
//! is the step's only clock: its start sits on the trace clock, so the
//! pipeline's trace slices are ledger marks too.
//!
//! A step has one record, `telemetry::StepEvent`, built by one function,
//! `StepEngine::step_event`: the same record for every runtime, told
//! apart by `runtime`, placed by the rank's grid place `(stage, data)` and
//! carrying the ledger's split itself. Rank `(0, 0)` reports it: with
//! telemetry on it writes the event's line. A rank thread hands its event
//! to its group, and a `samo-launch` worker writes it to its events file.
//!
//! [`crate::reference::DataParallelSamo`], the sequential oracle the
//! threaded runtimes are compared with, keeps its own step and shares
//! only the construction, checkpoint and telemetry helpers at the bottom
//! of this file.

use crate::serialize::{load_checkpoint, save_checkpoint, TrainerMeta};
use crate::state::{RemapScratch, SamoLayerState};
use crate::trainer::{formula_state_bytes, samo_allreduce_bytes, samo_ring_allreduce_bytes};
use comms::{CommsError, Communicator};
use nn::layer::{GradSink, Layer};
use nn::mixed::{LossScaler, LossScalerState, Optimizer};
use nn::param::Parameter;
use prune::{Mask, MaskSchedule};
use std::sync::Arc;
use telemetry::ledger::{Ledger, Phase, Split};
use tensor::f16::F16;
use tensor::{ops, Tensor};

/// The f16 bytes a gradient bucket collects before its ring starts. Below
/// this a message costs its header, a syscall and a wake-up more than its
/// bytes, so small layers share one; a layer past it is a bucket of its
/// own (its bias riding along), which keeps a large model's rings
/// overlapped with the rest of backward. DESIGN.md §20 has the
/// measurement it is cut from.
const BUCKET_BYTES: usize = 64 << 10;

/// A mask schedule a single worker refused
/// ([`crate::SamoTrainer::set_mask_schedule`]): it fires at `step`, the
/// next one, and the kept sums are lent for that step's backward, so the
/// products its grow score ranks at every position would not be logged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleRefused {
    /// The update step the schedule would have ranked without a gradient.
    pub step: u64,
}

/// SAMO training state of one rank for a whole model (or pipeline stage):
/// one compressed layer state per parameter tensor, the loss scaler, the
/// step counters, and (optionally) a dynamic-sparsity [`MaskSchedule`]
/// with its per-layer remap scratch.
pub struct StepEngine {
    pub layers: Vec<SamoLayerState>,
    pub opt: Optimizer,
    pub scaler: LossScaler,
    /// The group's communicator, over which the compressed gradients
    /// become the group mean; `None` on a single worker, whose local
    /// gradient is the mean.
    pub(crate) group: Option<Communicator>,
    steps_taken: u64,
    steps_skipped: u64,
    schedule: Option<MaskSchedule>,
    remap_scratch: Vec<RemapScratch>,
    /// A mask update's grow score, one layer at a time, as long as the
    /// largest layer: the gradient in f16 — streamed from its logged
    /// products, or a bias's narrowed — what the group's ring agrees on,
    /// ranked as it is beside the layer's `θ16`.
    remap_score16: Vec<F16>,
    remap_events: u64,
    /// This step's gradient buckets in ring start order: each ring's id
    /// and its parameters in the order they joined. The ids are
    /// consecutive, so a ring's bucket is `id − first id`.
    buckets: Vec<(u64, Vec<usize>)>,
    /// Parameters compressed since the last bucket started.
    open: Vec<usize>,
    /// AND of the fused compress kernels' overflow flags this step.
    local_finite: bool,
    /// Parameters whose gradient's product the engine took: they keep no
    /// dense `grad` between steps (`apply`).
    streamed: Vec<bool>,
    /// Per parameter, the weight gradient at the kept positions: `nnz`
    /// f32 sums of a pipeline step's earlier microbatches, or of a single
    /// worker's backward once its lent target comes home; empty
    /// otherwise, and while lent. A transient, not model state.
    dw_sums: Vec<Vec<f32>>,
    /// Per parameter, a mask update's weight gradient as the operands of
    /// its products, oldest first — a single worker's lent log come home,
    /// or a pipeline step's Bs — until the step runs them at the new
    /// index; empty otherwise, and while lent.
    dw_log: Vec<Vec<(Tensor, Tensor)>>,
    /// Whether a gradient target is lent to the model
    /// ([`Self::lend_grad_target`]).
    pub(crate) grads_lent: bool,
    /// A pipeline step's deferred Ws, oldest first: the one a B just
    /// recorded and, until it runs, at most one before it.
    w_queue: Vec<Deferred>,
    /// What differs between the runtimes' reports: the `runtime` of their
    /// step events — `samo`, `samo_dp_rank` or `samo_pipeline` (the
    /// oracle's is `samo_dp`). The phases of the ledger are the same for
    /// all.
    runtime: &'static str,
    /// The rank's place in the grid, `(stage, data)`: `(0, group rank)`
    /// until a pipeline names the stage. Rank `(0, 0)` reports.
    pub(crate) place: (usize, usize),
    /// The last step's verdict and the loss scale it ran at.
    verdict: (bool, f32),
    /// This rank's phase clock; a runtime opens its window per step.
    pub(crate) ledger: Ledger,
}

impl StepEngine {
    /// Builds the rank's state from the model's current parameters and
    /// one mask per parameter tensor (in `model.params()` order): the
    /// full state, or — in a group — this rank's shard of the group's.
    /// The model's parameters are pruned in place, and a parameter whose
    /// layer computes from half precision releases its f32 `value`: it
    /// computes from the `θ16` the engine lends.
    pub(crate) fn build(
        model: &mut impl Layer,
        masks: &[Mask],
        opt: Optimizer,
        group: Option<Communicator>,
        runtime: &'static str,
    ) -> StepEngine {
        let (rank, world) = group.as_ref().map_or((0, 1), |c| (c.rank(), c.world()));
        let layers = build_layers(model, masks, &opt, rank, world);
        model.for_each_param_mut(&mut |p| p.release_value());
        StepEngine {
            layers,
            streamed: vec![false; masks.len()],
            dw_sums: vec![Vec::new(); masks.len()],
            dw_log: vec![Vec::new(); masks.len()],
            grads_lent: false,
            w_queue: Vec::with_capacity(2),
            opt,
            scaler: LossScaler::default(),
            group,
            steps_taken: 0,
            steps_skipped: 0,
            schedule: None,
            remap_scratch: Vec::new(),
            remap_score16: Vec::new(),
            remap_events: 0,
            buckets: Vec::new(),
            open: Vec::new(),
            local_finite: true,
            runtime,
            place: (0, rank),
            verdict: (false, 0.0),
            ledger: Ledger::default(),
        }
    }

    /// A group rank's communicator, for the runtime's own collectives.
    pub(crate) fn comm(&self) -> &Communicator {
        self.group.as_ref().expect("a rank's engine is built with its group")
    }

    /// Mutable counterpart of [`Self::comm`].
    pub(crate) fn comm_mut(&mut self) -> &mut Communicator {
        self.group.as_mut().expect("a rank's engine is built with its group")
    }

    /// Installs a dynamic-sparsity schedule: on every schedule update
    /// step the masks are recomputed and the compressed state remapped
    /// in place before the new gradient is compressed. Every rank of a
    /// group must install the same schedule before the same step.
    /// Pre-sizes one [`RemapScratch`] per layer and the grow score's
    /// staging, so the only allocation of an update step that scales with
    /// a layer is its new mask's index vector.
    pub(crate) fn install_schedule(&mut self, schedule: MaskSchedule) {
        self.prime_remap_scratch();
        self.schedule = Some(schedule);
    }

    fn prime_remap_scratch(&mut self) {
        let opt = &self.opt;
        self.remap_scratch = self
            .layers
            .iter_mut()
            .map(|l| RemapScratch::for_layer(l, opt))
            .collect();
        let largest = self.layers.iter().map(|l| l.numel()).max().unwrap_or(0);
        self.remap_score16 = vec![F16::ZERO; largest];
    }

    /// The installed dynamic-sparsity schedule, if any.
    pub fn mask_schedule(&self) -> Option<&MaskSchedule> {
        self.schedule.as_ref()
    }

    /// Number of steps at which at least one layer's mask actually moved.
    pub fn remap_events(&self) -> u64 {
        self.remap_events
    }

    /// The deterministic step index `t` the schedule is evaluated at:
    /// applied plus skipped steps, so every rank of a data-parallel
    /// group (which agrees on the skip verdict bitwise) agrees on the
    /// remap timeline too.
    pub fn step_index(&self) -> u64 {
        self.steps_taken + self.steps_skipped
    }

    /// Whether the schedule fires at the step about to run.
    pub(crate) fn is_update_step(&self) -> bool {
        let t = self.step_index();
        self.schedule.as_ref().is_some_and(|s| s.is_update_step(t))
    }

    /// Total parameters φ across all layers.
    pub fn numel(&self) -> usize {
        self.layers.iter().map(|l| l.numel()).sum()
    }

    /// Unpruned parameters fφ.
    pub fn nnz(&self) -> usize {
        self.layers.iter().map(|l| l.nnz()).sum()
    }

    /// Measured model-state bytes this rank holds (peak includes the
    /// downcast temp).
    pub fn model_state_bytes(&self, peak: bool) -> u64 {
        self.layers.iter().map(|l| l.measured_bytes(peak)).sum()
    }

    /// Steps applied (not skipped by the loss scaler).
    pub fn steps_taken(&self) -> u64 {
        self.steps_taken
    }

    /// Steps skipped due to gradient overflow (every rank of a group
    /// skips together — they agree on the verdict, see `finish_reduce`).
    pub fn steps_skipped(&self) -> u64 {
        self.steps_skipped
    }

    /// Current loss scale to multiply the loss by before backward.
    pub fn loss_scale(&self) -> f32 {
        self.scaler.scale()
    }

    /// The trainer-level state a v2 checkpoint carries.
    pub(crate) fn meta(&self) -> TrainerMeta {
        trainer_meta(&self.scaler, self.steps_taken, self.steps_skipped)
    }

    /// Serializes the compressed training state (see `crate::serialize`
    /// for the v2 format) including the loss-scaler state and step
    /// counters, so a resumed run continues the exact scaling schedule.
    /// The compute model is *not* included — θ16 is reconstructible from
    /// the checkpoint via [`Self::restore`]. The layers must be
    /// unsharded; a group's rank saves collectively
    /// ([`crate::pipeline::StageRank::save`]).
    pub fn save(&self) -> bytes::Bytes {
        save_checkpoint(&self.layers, &self.meta())
    }

    /// Restores a checkpoint produced by any runtime's `save` into this
    /// trainer and writes the reconstructed parameters into `model`: into
    /// its f32 views, and — where `θ16` was lent — the new `θ16`, lent in
    /// its place. The model/mask structure must match what was saved. The
    /// loss-scaler state and step counters are restored too. Purely
    /// local: no collective runs.
    pub fn restore(&mut self, checkpoint: &[u8], model: &mut impl Layer) -> Result<(), String> {
        self.restore_slice(checkpoint, model, 0, self.layers.len())
    }

    /// [`Self::restore`] for the rank that holds layers
    /// `off..off + self.layers.len()` of a `total`-layer model (a
    /// pipeline stage).
    pub(crate) fn restore_slice(
        &mut self,
        checkpoint: &[u8],
        model: &mut impl Layer,
        off: usize,
        total: usize,
    ) -> Result<(), String> {
        let (mut layers, meta) = load_checkpoint(checkpoint, &self.opt)?;
        check_structure(&self.layers, &layers, off, total)?;
        let mine = layers.drain(off..off + self.layers.len());
        // `θ16` goes home to be replaced with its state, and back out only
        // if it was out: a parameter that still held the old one would
        // keep it through a re-lend, which never moves a held buffer. The
        // gradient targets go home with it.
        let lent = self.layers.iter().any(|st| st.theta16.len() != st.numel());
        let grads_lent = self.grads_lent;
        self.lend_theta16(model, false);
        let installed = install_layers(&mut self.layers, mine, model);
        self.lend_theta16(model, lent);
        installed?;
        if self.schedule.is_some() {
            // The restored layers are fresh allocations without remap
            // headroom; rebuild the scratch (and re-reserve) so future
            // remap events stay allocation-free.
            self.prime_remap_scratch();
        }
        apply_meta(
            meta,
            &mut self.scaler,
            &mut self.steps_taken,
            &mut self.steps_skipped,
        );
        // Whatever a failed step left behind.
        self.buckets.clear();
        self.open.clear();
        self.dw_sums.iter_mut().for_each(Vec::clear);
        self.dw_log.iter_mut().for_each(Vec::clear);
        self.w_queue.clear();
        self.local_finite = true;
        // The target goes out again by the rule of the end of a step.
        if grads_lent {
            self.lend_grad_target(model, true);
        }
        Ok(())
    }

    /// Compresses parameter `pi`'s freshly produced dense (loss-scaled)
    /// gradient into `∇θ16` — unless its product was compressed already
    /// (`None`, by the last W), or its logged products or its kept sums,
    /// home from a lend, are the gradient — and, in a group, adds it to the
    /// open bucket.
    fn compress_param(&mut self, pi: usize, grad: Option<&[f32]>) {
        match grad {
            Some(_) if !self.dw_log[pi].is_empty() => self.run_log(pi),
            Some(grad) if self.dw_sums[pi].is_empty() => {
                self.local_finite &= self.layers[pi].compress_grad_fused(grad);
            }
            Some(_) => {
                self.local_finite &= self.layers[pi].compress_sums(&mut self.dw_sums[pi]);
                self.streamed[pi] = true;
            }
            None => self.streamed[pi] = true,
        }
        if self.group.is_some() {
            self.open.push(pi);
        }
    }

    /// Runs parameter `pi`'s logged products as the ordinary W at the
    /// index the step ends on, oldest first, each operand freed once its
    /// product has run.
    fn run_log(&mut self, pi: usize) {
        let mut log = std::mem::take(&mut self.dw_log[pi]);
        let n = log.len();
        for (k, (dy, x)) in log.drain(..).enumerate() {
            self.w_product(pi, &dy, &x, k + 1 == n);
        }
        self.dw_log[pi] = log;
    }

    /// One product `dyᵀ·x` of parameter `pi`'s weight gradient: added into
    /// its kept sums or — `last` — finishing them into `∇θ16`, and alone
    /// computed straight into it.
    fn w_product(&mut self, pi: usize, dy: &Tensor, x: &Tensor, last: bool) {
        let (st, sums) = (&mut self.layers[pi], &mut self.dw_sums[pi]);
        let (rows, dy, x) = (dy.rows(), dy.as_slice(), x.as_slice());
        if !last {
            return st.accumulate_grad_product(rows, dy, x, sums);
        }
        self.local_finite &= match sums.is_empty() {
            true => st.compress_grad_product(rows, dy, x),
            false => st.compress_grad_sum(rows, dy, x, sums),
        };
        self.streamed[pi] = true;
    }

    /// Compresses the freshly final parameters `off..` — from their dense
    /// gradient, but for `took`, whose product was compressed already —
    /// into the open bucket, starts it if full, and pumps the rings.
    fn compress_ready(&mut self, off: usize, params: &[&Parameter], took: Option<usize>) -> Result<(), CommsError> {
        for (i, p) in params.iter().enumerate() {
            let dense = (took != Some(off + i)).then(|| p.grad.as_slice());
            self.compress_param(off + i, dense);
        }
        self.start_bucket(false).and_then(|()| self.pump())
    }

    /// Starts the open bucket's ring once it holds [`BUCKET_BYTES`] of
    /// f16, or — at the end of backward, `all` — whatever it holds. Ring
    /// ids and bucket layouts line up across ranks because every rank
    /// visits parameters in the same order.
    fn start_bucket(&mut self, all: bool) -> Result<(), CommsError> {
        let Some(comm) = self.group.as_mut() else {
            return Ok(());
        };
        let bytes: usize = self.open.iter().map(|&pi| 2 * self.layers[pi].grad16.len()).sum();
        if self.open.is_empty() || !all && bytes < BUCKET_BYTES {
            return Ok(());
        }
        // The ring takes the buffers and `finish_reduce` puts them back:
        // no copy in either direction (a failed step loses them; the next
        // compress or restore re-creates them).
        let parts = self.open.iter().map(|&pi| std::mem::take(&mut self.layers[pi].grad16));
        self.ledger.enter(Phase::Reduce);
        let id = comm.reduce_scatter_start(parts.collect());
        self.ledger.exit(Phase::Reduce);
        self.buckets.push((id?, std::mem::take(&mut self.open)));
        Ok(())
    }

    /// Makes progress on the in-flight reductions without blocking.
    fn pump(&mut self) -> Result<(), CommsError> {
        let Some(comm) = self.group.as_mut() else {
            return Ok(());
        };
        self.ledger.enter(Phase::Reduce);
        let res = comm.ring_pump();
        self.ledger.exit(Phase::Reduce);
        res
    }

    /// Moves `θ16` of every parameter that holds no f32 view from its
    /// layer state into the parameter (`lend`) for a compute window, with
    /// the mask's shared index beside it, or every lent one back home —
    /// after the gradient targets lent beside that index. Idempotent either
    /// way; allocation-free. A lend after a remap carries the new index.
    pub(crate) fn lend_theta16(&mut self, model: &mut impl Layer, lend: bool) {
        if !lend {
            self.lend_grad_target(model, false);
        }
        let mut layers = self.layers.iter_mut();
        model.for_each_param_mut(&mut |p| {
            let st = layers.next().expect("one state per parameter");
            let index = Arc::clone(st.mask().indices());
            p.lend_theta16(&mut st.theta16, index, lend);
        });
    }

    /// Lends every parameter that holds a lent `θ16` the target of its
    /// gradient for the next backward (`lend`), or brings every lent one
    /// home, summed or logged. Before a step the schedule updates on it is
    /// a log of the products' operands — the grow score ranks the
    /// gradient at every position; before any other, for a parameter that
    /// keeps a position, the kept sums: `nnz` zeros, sized with
    /// `reserve_exact`, so a remap that densifies grows them once by the
    /// new index and never doubles them. Idempotent either way;
    /// allocation-free unless `nnz` grew.
    pub(crate) fn lend_grad_target(&mut self, model: &mut impl Layer, lend: bool) {
        let log = lend && self.is_update_step();
        let mut homes = self.layers.iter().zip(self.dw_sums.iter_mut().zip(&mut self.dw_log));
        model.for_each_param_mut(&mut |p| {
            let (st, (sums, ops)) = homes.next().expect("one state per parameter");
            let here = lend && !log && p.index().is_some() && st.nnz() > 0;
            if here && p.grad_sums().is_none() {
                sums.clear();
                sums.reserve_exact(st.nnz());
                sums.resize(st.nnz(), 0.0);
            }
            p.lend_grad_sums(sums, here);
            p.lend_grad_log(ops, log);
        });
        self.grads_lent = lend;
    }

    /// A microbatch's B: backward computes `d(loss)/d(input)`, which it
    /// returns, and accumulates every dense gradient into `grad`, while a
    /// weight matrix whose layer offers its gradient's product hands its
    /// operands to a W ([`Defer`]), queued behind at most one older W.
    /// `last` marks the step's final microbatch, whose W also compresses
    /// and buckets every gradient ([`Self::run_w`]). On a mask-update step
    /// the Ws wait for the epilogue: every product's operands are logged
    /// for [`Self::reduce_after_backward`] to rank, then run at the new
    /// index, compress and reduce.
    pub(crate) fn backward_deferred(&mut self, model: &mut impl Layer, dy: Tensor, last: bool) -> Tensor {
        assert!(self.w_queue.len() < 2, "a B queues its W behind at most one older W");
        let mut events = Vec::new();
        let dx = model.backward_into(dy, &mut Defer { events: &mut events });
        if self.is_update_step() {
            for e in events {
                if let WEvent::Product { index, dy, x } = e {
                    self.dw_log[index].push((dy, x));
                }
            }
        } else if last || events.iter().any(|e| matches!(e, WEvent::Product { .. })) {
            // A W with no product to run and nothing to compress is no W.
            self.w_queue.push(Deferred { events, last });
        }
        dx
    }

    /// Pipeline Ws queued and not yet run.
    #[cfg(test)]
    pub(crate) fn w_pending(&self) -> usize {
        self.w_queue.len()
    }

    /// Bytes of operands the queued Ws and a mask update's log hold: `dy`
    /// and `x` of every weight.
    pub(crate) fn w_bytes(&self) -> usize {
        let held = |e: &WEvent| match e {
            WEvent::Product { dy, x, .. } => 4 * (dy.numel() + x.numel()),
            WEvent::Ready { .. } => 0,
        };
        let logged: usize = self.dw_log.iter().flatten().map(|(dy, x)| 4 * (dy.numel() + x.numel())).sum();
        self.w_queue.iter().flat_map(|w| &w.events).map(held).sum::<usize>() + logged
    }

    /// Runs the oldest queued W, if any, and returns whether one ran: each
    /// weight's product added into its kept sums — or, on the step's last
    /// microbatch, finishing them into `∇θ16`, every gradient joining the
    /// open bucket in the order backward reported it, and the last
    /// bucket's ring started.
    pub(crate) fn run_w(&mut self, model: &impl Layer) -> Result<bool, CommsError> {
        if self.w_queue.is_empty() {
            return Ok(false);
        }
        let w = self.w_queue.remove(0);
        let params = if w.last { model.params() } else { Vec::new() };
        let mut took = None;
        // Each operand is freed as soon as its product has run.
        for e in w.events {
            match e {
                WEvent::Product { index, dy, x } => {
                    self.w_product(index, &dy, &x, w.last);
                    took = w.last.then_some(index);
                }
                WEvent::Ready { off, n } if w.last => {
                    self.compress_ready(off, &params[off..off + n], took.take())?;
                }
                WEvent::Ready { .. } => {}
            }
        }
        if w.last {
            self.start_bucket(true)?;
        }
        Ok(true)
    }

    /// The collectives of a step whose backward has already run: the
    /// dynamic-sparsity remap if the schedule fires, then compress every
    /// parameter in order into buckets and reduce them. The allocation-free
    /// `for_each_param_mut` traversal (not `params_mut`, which builds a
    /// `Vec`) keeps a single worker's whole step off the heap. Returns
    /// the overflow verdict input, see [`Self::finish_reduce`].
    pub(crate) fn reduce_after_backward(
        &mut self,
        model: &mut impl Layer,
    ) -> Result<bool, CommsError> {
        self.maybe_remap(model)?;
        self.ledger.enter(Phase::Compress);
        let (mut i, mut res) = (0, Ok(()));
        model.for_each_param_mut(&mut |p| {
            if res.is_ok() {
                self.compress_param(i, Some(p.grad.as_slice()));
                res = self.start_bucket(false).and_then(|()| self.pump());
            }
            i += 1;
        });
        self.ledger.exit(Phase::Compress);
        res?;
        self.start_bucket(true)?;
        assert_eq!(i, self.layers.len());
        self.finish_reduce()
    }

    /// Completes every reduction started this step, installs the means
    /// and returns whether the group's gradients are all finite. The
    /// exact mean of finite f16 values is no larger than the largest of
    /// them, so a reduced value is non-finite iff some rank's input at
    /// that position was: the verdict is the AND over ranks of the flag
    /// each rank's fused compress already produced. That flag is final
    /// before the ring tail, so it goes out first, beside the tail, and is
    /// collected after the means are installed. A single worker's flag
    /// is the verdict.
    pub(crate) fn finish_reduce(&mut self) -> Result<bool, CommsError> {
        self.ledger.enter(Phase::Reduce);
        let verdict = self.reduce_verdict();
        self.ledger.exit(Phase::Reduce);
        verdict
    }

    fn reduce_verdict(&mut self) -> Result<bool, CommsError> {
        let local = std::mem::replace(&mut self.local_finite, true);
        let Some(comm) = self.group.as_mut() else {
            return Ok(local);
        };
        let verdict = comm.all_true_start(local)?;
        comm.ring_finish_charged(&mut self.ledger)?;
        let first = self.buckets.first().map_or(0, |&(id, _)| id);
        for (id, parts) in comm.take_completed() {
            let started = id
                .checked_sub(first)
                .and_then(|k| self.buckets.get(k as usize));
            let Some((_, params)) = started.filter(|(rid, ps)| *rid == id && ps.len() == parts.len()) else {
                return Err(CommsError::Mismatch(format!(
                    "completed ring {id} was not started by this step"
                )));
            };
            for (&pi, reduced) in params.iter().zip(parts) {
                self.layers[pi].grad16 = reduced;
            }
        }
        comm.all_true_finish(verdict)
    }

    /// The rest of the step once the group agrees whether the reduced
    /// gradients are `finite`: the loss-scaler verdict, then — unless it
    /// skips — the fused optimizer pass on the owned range (which also
    /// writes `θ16` and, where the model keeps one, its f32 view there),
    /// bucket by bucket in a group ([`Self::step_buckets`]). Then dense
    /// gradients are zeroed (streamed ones released) and the counters
    /// advanced. Returns `false` if the step was skipped.
    pub(crate) fn apply(
        &mut self,
        model: &mut impl Layer,
        finite: bool,
    ) -> Result<bool, CommsError> {
        let scale = self.scaler.scale();
        let proceed = self.scaler.check_and_update(finite);
        if proceed {
            self.ledger.enter(Phase::Optimizer);
            let inv_scale = 1.0 / scale;
            let stepped = if self.group.as_ref().is_some_and(|c| c.world() > 1) {
                self.step_buckets(model, inv_scale)
            } else {
                // Full states — a single worker, a group of one: nothing
                // to gather, no allocation.
                let (mut layers, opt) = (self.layers.iter_mut(), &self.opt);
                model.for_each_param_mut(&mut |p| {
                    let st = layers.next().expect("one state per parameter");
                    st.optimizer_step_owned(opt, inv_scale, p.value.as_mut_slice());
                });
                Ok(())
            };
            self.ledger.exit(Phase::Optimizer);
            stepped?;
            self.steps_taken += 1;
        } else {
            self.steps_skipped += 1;
        }
        self.buckets.clear();
        // A dense arrival is cleared for the next backward to accumulate
        // into; a streamed parameter has no use for the buffer — released
        // already, or materialised for this step by a plain backward.
        let mut streamed = self.streamed.iter();
        model.for_each_param_mut(&mut |p| match streamed.next() {
            Some(true) => p.release_grad(),
            _ => p.zero_grad(),
        });
        Ok(proceed)
    }

    /// Whether this rank reports for its group: rank `(0, 0)`.
    fn reports(&self) -> bool {
        self.place == (0, 0)
    }

    /// Closes the step's window on the ledger, keeps the verdict, run at
    /// loss scale `scale_used`, for [`Self::step_event`] and returns
    /// `applied`. When this rank reports and telemetry is on, it writes
    /// the step's event line too.
    pub(crate) fn end_step(&mut self, applied: bool, scale_used: f32) -> bool {
        self.ledger.stop();
        self.verdict = (applied, scale_used);
        if self.reports() && telemetry::enabled() {
            telemetry::jsonl::emit_line(&self.step_event().to_json());
        }
        applied
    }

    /// The step this rank last ended, as its one record: the verdict and
    /// state after it, the rank's place, and its ledger's window, split
    /// and hidden communication. Built on demand, not per step: a rank
    /// thread asks with telemetry on, a `samo-launch` worker always.
    pub fn step_event(&self) -> telemetry::StepEvent {
        let world = self.group.as_ref().map(Communicator::world);
        let (stage, data) = self.place;
        let split = self.ledger.split();
        telemetry::StepEvent {
            stage: stage as u64,
            data: data as u64,
            ..step_event(self.runtime, self.verdict, self.meta(), &self.layers, &self.opt, world, split)
        }
    }

    /// The optimizer passes of a group's step, bucket by bucket in ring
    /// order. A bucket's parameter all-gather starts as soon as its last
    /// pass ends — one message a hop for all of its shards — so the
    /// gathers travel while the later passes run; a second sweep waits for
    /// them in the same order and scatters the other ranks' ranges, one
    /// bucket's gathered buffers alive at a time.
    fn step_buckets(&mut self, model: &mut impl Layer, inv_scale: f32) -> Result<(), CommsError> {
        let (layers, opt, buckets) = (&mut self.layers, &self.opt, &self.buckets);
        let comm = group(self.group.as_mut())?;
        let mut params = model.params_mut();
        let bucketed: usize = buckets.iter().map(|(_, b)| b.len()).sum();
        if bucketed != layers.len() || params.len() != layers.len() {
            return Err(CommsError::Mismatch(format!(
                "{bucketed} of {} parameters were reduced this step",
                layers.len()
            )));
        }
        let mut gathers = Vec::with_capacity(buckets.len());
        for (_, bucket) in buckets {
            let (mut mine, mut counts) = (Vec::new(), Vec::new());
            for &pi in bucket {
                mine.push(layers[pi].optimizer_step_owned(opt, inv_scale, params[pi].value.as_mut_slice()));
                counts.push(layers[pi].shard_counts());
            }
            self.ledger.enter(Phase::Gather);
            let started = comm.all_gather_f16_start(mine, &counts);
            self.ledger.exit(Phase::Gather);
            gathers.push(started?);
        }
        for ((_, bucket), started) in buckets.iter().zip(gathers) {
            self.ledger.enter(Phase::Gather);
            let gathered = comm.all_gather_f16_finish(started);
            self.ledger.exit(Phase::Gather);
            for (&pi, full) in bucket.iter().zip(gathered?) {
                layers[pi].scatter_gathered(&full, params[pi].value.as_mut_slice());
            }
        }
        Ok(())
    }

    /// Completes a training step after `model` has run forward/backward
    /// with the loss multiplied by [`Self::loss_scale`].
    pub(crate) fn step_after_backward(
        &mut self,
        model: &mut impl Layer,
    ) -> Result<bool, CommsError> {
        let finite = self.reduce_after_backward(model)?;
        self.apply(model, finite)
    }

    /// Dynamic-sparsity hook: if the schedule fires at the current step
    /// index, recompute each layer's mask from `θ16` and the *grow score*
    /// — the gradient in f16 ([`grow_score`]), mean-reduced across the
    /// group, i.e. exactly the values a compressed ring would agree on, so
    /// every runtime ranks regrowth candidates identically and no mask
    /// broadcast is needed — ranked on those halves with no f32 copy, and
    /// remap the compressed state in place. Runs before the
    /// compress/verdict phase so the new mask's gradient slots are filled
    /// by the normal compress whether or not the scaler skips the step:
    /// the remap timeline is a pure function of the step index. When any
    /// mask changes, every rank bumps the comms epoch in lockstep: the
    /// compressed-gradient bucket layout is renegotiated and stale-epoch
    /// buckets are dropped on receive.
    fn maybe_remap(&mut self, model: &mut impl Layer) -> Result<(), CommsError> {
        let t = self.step_index();
        let Some(sched) = self
            .schedule
            .as_ref()
            .filter(|s| s.is_update_step(t))
            .cloned()
        else {
            return Ok(());
        };
        self.ledger.enter(Phase::Remap);
        let (layers, scratch, logs) = (&mut self.layers, &mut self.remap_scratch, &self.dw_log);
        let (score16, group) = (&mut self.remap_score16, &mut self.group);
        let (mut i, mut moved, mut res) = (0, false, Ok(()));
        model.for_each_param_mut(&mut |p| {
            let (layer, sc, log) = (&mut layers[i], &mut scratch[i], &logs[i]);
            i += 1;
            if res.is_err() {
                return;
            }
            let dense16 = &mut score16[..layer.numel()];
            grow_score(log, p, dense16);
            if let Some(comm) = group.as_mut() {
                res = comm.allreduce_mean_f16(dense16);
                if res.is_err() {
                    return;
                }
            }
            // The weights are `θ16` — home here, and the same bits as any
            // f32 view the model holds.
            let new_mask = sched.next_mask(t, &layer.theta16, dense16, layer.mask());
            if &new_mask != layer.mask() {
                res = remap_layer(layer, new_mask, sc, group.as_mut());
                layer.write_dense_f32_params_into(p.value.as_mut_slice());
                moved = true;
            }
        });
        self.ledger.exit(Phase::Remap);
        res?;
        assert_eq!(i, self.layers.len());
        if moved {
            self.remap_events += 1;
            if let Some(comm) = self.group.as_mut() {
                comm.bump_epoch();
            }
        }
        Ok(())
    }
}

/// One microbatch's W, as its B left it: the operands of every taken
/// product and the order backward reported the parameters in.
struct Deferred {
    events: Vec<WEvent>,
    /// The step's last microbatch: its W compresses and buckets.
    last: bool,
}

/// What backward reported, in order: a product's operands, which the W
/// owns, or parameters `off..off + n` final.
enum WEvent {
    Product { index: usize, dy: Tensor, x: Tensor },
    Ready { off: usize, n: usize },
}

/// The gradient sink of [`StepEngine::backward_deferred`]: a weight
/// gradient's operands move into the W, and every gradient's `ready` is
/// noted for the last microbatch's W to bucket in the same order.
struct Defer<'a> {
    events: &'a mut Vec<WEvent>,
}

impl GradSink for Defer<'_> {
    fn ready(&mut self, off: usize, params: &[&Parameter]) {
        self.events.push(WEvent::Ready { off, n: params.len() });
    }

    fn take_product(&mut self, index: usize, dy: Tensor, x: Tensor) -> Result<(), (Tensor, Tensor)> {
        self.events.push(WEvent::Product { index, dy, x });
        Ok(())
    }
}

/// A mask update's grow score of parameter `p` into `out`, its `numel`
/// halves: the sum of its logged products (`log`), streamed row block by
/// row block and narrowed — no `m × n` f32 buffer — or, for a parameter
/// that logged none (a bias, a norm, a weight on a trainer's first step),
/// its dense gradient narrowed.
fn grow_score(log: &[(Tensor, Tensor)], p: &Parameter, out: &mut [F16]) {
    match (log, p.value.shape()) {
        ([], _) => ops::narrow_into(p.grad.as_slice(), out),
        (_, &[m, n]) => tensor::gemm::matmul_tn_sum_narrow(m, n, log, out),
        _ => panic!("a logged gradient is a matrix's"),
    }
}

/// The communicator a sharded state's collectives need.
fn group<C>(comm: Option<C>) -> Result<C, CommsError> {
    comm.ok_or_else(|| CommsError::Mismatch("a sharded state has no group to gather from".into()))
}

/// Moves one layer's compressed state onto `new_mask`. A full state is
/// remapped in place. A shard's bounds depend on `nnz`, so surviving
/// values migrate between ranks: the full state is gathered
/// ([`gather_full`]), remapped, and cut again under the new bounds.
fn remap_layer(
    layer: &mut SamoLayerState,
    new_mask: Mask,
    scratch: &mut RemapScratch,
    comm: Option<&mut Communicator>,
) -> Result<(), CommsError> {
    if !layer.is_sharded() {
        layer.remap_compressed_state(new_mask, scratch);
        return Ok(());
    }
    let mut full = gather_full(layer, group(comm)?)?;
    full.remap_compressed_state(new_mask, scratch);
    let (shard_id, num_shards) = layer.shard();
    *layer = full.into_shard(shard_id, num_shards);
    Ok(())
}

/// A shard's full fp32 state, reassembled from every rank's
/// `[θ32 | os]` segment over [`Communicator::all_gather_f32`]; `∇θ16` is
/// this rank's. The one gather behind a remap and a group's `save`.
pub(crate) fn gather_full(
    layer: &SamoLayerState,
    comm: &mut Communicator,
) -> Result<SamoLayerState, CommsError> {
    let mine = layer.shard_arrays();
    let arrays = mine.len();
    let lens = layer.shard_counts();
    let counts: Vec<usize> = lens.iter().map(|n| n * arrays).collect();
    let gathered = comm.all_gather_f32(&mine.concat(), &counts)?;
    let mut rest = &gathered[..];
    let shards: Vec<Vec<&[f32]>> = lens
        .iter()
        .map(|&n| {
            let (seg, tail) = rest.split_at(n * arrays);
            rest = tail;
            (0..arrays).map(|a| &seg[a * n..(a + 1) * n]).collect()
        })
        .collect();
    Ok(layer.full_from_shards(&shards))
}

/// One compressed layer state per parameter tensor of `model` (in
/// `model.params()` order), as shard `shard_id` of `num_shards`. The
/// model's parameters are pruned in place: the (pruned, fp16-rounded)
/// values are loaded back into the compute model — forward/backward run
/// on widened θ16.
pub(crate) fn build_layers(
    model: &mut impl Layer,
    masks: &[Mask],
    opt: &Optimizer,
    shard_id: usize,
    num_shards: usize,
) -> Vec<SamoLayerState> {
    let params = model.params_mut();
    assert_eq!(
        params.len(),
        masks.len(),
        "need exactly one mask per parameter tensor"
    );
    params
        .into_iter()
        .zip(masks)
        .map(|(p, mask)| {
            assert_eq!(
                p.numel(),
                mask.numel(),
                "mask shape mismatch for {}",
                p.name
            );
            let st = SamoLayerState::from_params_sharded(
                p.value.as_slice(),
                mask.clone(),
                opt,
                shard_id,
                num_shards,
            );
            st.write_dense_f32_params_into(p.value.as_mut_slice());
            st
        })
        .collect()
}

/// Panics unless every replica holds the same parameters as the first —
/// data-parallel groups start from identical replicas.
pub(crate) fn assert_replicas_agree<M: Layer>(replicas: &[M]) {
    let first = replicas
        .first()
        .expect("a group needs at least one replica")
        .params();
    for (r, m) in replicas.iter().enumerate().skip(1) {
        let params = m.params();
        assert_eq!(
            params.len(),
            first.len(),
            "replica {r} parameter count differs"
        );
        for (p, expect) in params.iter().zip(&first) {
            assert_eq!(
                p.value.as_slice(),
                expect.value.as_slice(),
                "replica {r} differs at init ({})",
                p.name
            );
        }
    }
}

/// Checks a loaded checkpoint against the runtime it is restored into:
/// exactly `total` layers, and the mask shapes of the layers
/// `off..off + have.len()` this rank holds.
pub(crate) fn check_structure(
    have: &[SamoLayerState],
    checkpoint: &[SamoLayerState],
    off: usize,
    total: usize,
) -> Result<(), String> {
    if checkpoint.len() != total {
        return Err(format!(
            "checkpoint has {} layers, trainer has {total}",
            checkpoint.len()
        ));
    }
    for (new, old) in checkpoint[off..].iter().zip(have) {
        if new.mask().shape() != old.mask().shape() {
            return Err("checkpoint mask shape mismatch".into());
        }
    }
    Ok(())
}

/// Replaces each of `states` by the matching full checkpoint layer, cut
/// to the shard the state held, and writes the reconstructed parameters
/// into `model` where it keeps an f32 view (gradients zeroed).
pub(crate) fn install_layers(
    states: &mut [SamoLayerState],
    layers: impl Iterator<Item = SamoLayerState>,
    model: &mut impl Layer,
) -> Result<(), String> {
    for ((st, layer), p) in states.iter_mut().zip(layers).zip(model.params_mut()) {
        if p.numel() != layer.numel() {
            return Err(format!("parameter {} size mismatch", p.name));
        }
        let (shard_id, num_shards) = st.shard();
        *st = layer.into_shard(shard_id, num_shards);
        st.write_dense_f32_params_into(p.value.as_mut_slice());
        p.zero_grad();
    }
    Ok(())
}

/// The trainer-level state a v2 checkpoint carries.
pub(crate) fn trainer_meta(
    scaler: &LossScaler,
    steps_taken: u64,
    steps_skipped: u64,
) -> TrainerMeta {
    let snap = scaler.snapshot();
    TrainerMeta {
        loss_scale: snap.scale,
        good_steps: snap.good_steps,
        steps_taken,
        steps_skipped,
    }
}

/// Inverse of [`trainer_meta`].
pub(crate) fn apply_meta(
    meta: TrainerMeta,
    scaler: &mut LossScaler,
    steps_taken: &mut u64,
    steps_skipped: &mut u64,
) {
    scaler.restore_state(LossScalerState {
        scale: meta.loss_scale,
        good_steps: meta.good_steps,
    });
    *steps_taken = meta.steps_taken;
    *steps_skipped = meta.steps_skipped;
}

/// The record of one completed step of one rank holding `layers`, at
/// place `(0, 0)`, as its ledger charged it (`split`): what every SAMO
/// runtime's event shares. `verdict` is whether it applied and at which
/// loss scale, `meta` the state *after* it. A rank in a ring group of
/// `world` moves the ring byte model; a single worker reports the flat
/// payload a data-parallel step would move, Eq. 9.
pub(crate) fn step_event(
    runtime: &'static str,
    (applied, scale_used): (bool, f32),
    meta: TrainerMeta,
    layers: &[SamoLayerState],
    opt: &Optimizer,
    world: Option<usize>,
    split: Split,
) -> telemetry::StepEvent {
    let numel = layers.iter().map(|l| l.numel()).sum::<usize>() as u64;
    let nnz = layers.iter().map(|l| l.nnz()).sum::<usize>() as u64;
    // Shards carry per-rank remainders; the paper's closed form holds
    // for a state that owns the whole compressed range.
    let unsharded = !layers.iter().any(SamoLayerState::is_sharded);
    telemetry::StepEvent {
        runtime,
        step: (meta.steps_taken + meta.steps_skipped).saturating_sub(1),
        applied,
        loss_scale: scale_used,
        steps_taken: meta.steps_taken,
        steps_skipped: meta.steps_skipped,
        numel,
        nnz,
        model_state_bytes: layers.iter().map(|l| l.measured_bytes(true)).sum(),
        formula_state_bytes: unsharded.then(|| formula_state_bytes(opt, numel, nnz)),
        allreduce_bytes: world.map_or(samo_allreduce_bytes(nnz), |w| samo_ring_allreduce_bytes(nnz, w as u64)),
        split,
        ..Default::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SamoTrainer;
    use nn::activations::Relu;
    use nn::layer::Sequential;
    use nn::linear::Linear;
    use nn::loss::mse;
    use nn::optim::AdamConfig;

    /// Microbatches per step and rows per microbatch.
    const M: usize = 3;
    const ROWS: usize = 3;
    /// `dy` and `x` of both weights for one microbatch, in bytes.
    const W_BYTES: usize = 4 * ROWS * ((6 + 8) + (8 + 4));

    fn model() -> Sequential {
        Sequential::new()
            .push(Linear::new(6, 8, true, 3))
            .push(Relu::new())
            .push(Linear::new(8, 4, true, 4))
    }

    fn masks() -> Vec<Mask> {
        let mask = |p: &&Parameter| match p.value.shape() {
            shape @ [_, _] => prune::magnitude_prune(p.value.as_slice(), shape, 0.5),
            shape => Mask::dense(shape),
        };
        model().params().iter().map(mask).collect()
    }

    fn opt() -> Optimizer {
        Optimizer::Adam(AdamConfig { lr: 0.01, ..Default::default() })
    }

    fn loss_grad(model: &mut Sequential, step: u64, k: usize, scale: f32) -> Tensor {
        let seed = 100 * step + k as u64;
        let y = model.forward(&Tensor::randn(&[ROWS, 6], 1.0, seed));
        let (_, mut dy) = mse(&y, &Tensor::randn(&[ROWS, 4], 1.0, seed + 50));
        ops::scale(scale, dy.as_mut_slice());
        dy
    }

    fn oracle_step(trainer: &mut SamoTrainer, model: &mut Sequential, step: u64) {
        for k in 0..M {
            let dy = loss_grad(model, step, k, trainer.loss_scale());
            model.backward(&dy);
        }
        trainer.step(model);
    }

    /// A one-stage pipeline step: a B per microbatch, and its W either at
    /// once or — `lag` — only once the next B has queued behind it, the
    /// most a stage ever holds. Returns the most W bytes held.
    fn deferred_step(e: &mut StepEngine, model: &mut Sequential, step: u64, lag: bool) -> usize {
        e.lend_theta16(model, true);
        let mut held = 0;
        for k in 0..M {
            let dy = loss_grad(model, step, k, e.loss_scale());
            e.backward_deferred(model, dy, k + 1 == M);
            held = held.max(e.w_bytes());
            while e.w_pending() > usize::from(lag && k + 1 < M) {
                assert!(e.run_w(model).unwrap());
            }
        }
        e.lend_theta16(model, false);
        let finite = e.finish_reduce().unwrap();
        e.apply(model, finite).unwrap();
        held
    }

    /// Ws deferred behind their Bs leave the checkpoint bytes of the
    /// plain backward, hold one microbatch's operands (two while a B
    /// queues behind an older W), and hold nothing once the step is over.
    #[test]
    fn deferred_ws_match_the_trainer_bitwise() {
        let mut oracle_model = model();
        let mut oracle = SamoTrainer::new(&mut oracle_model, masks(), opt());
        let mut m = model();
        let mut e = StepEngine::build(&mut m, &masks(), opt(), None, "samo");
        for step in 0..6u64 {
            oracle_step(&mut oracle, &mut oracle_model, step);
            let lag = step % 2 == 1;
            let held = deferred_step(&mut e, &mut m, step, lag);
            assert_eq!(e.save().as_ref(), oracle.save().as_ref(), "step {step}");
            assert_eq!(held, if lag { 2 * W_BYTES } else { W_BYTES }, "step {step}");
            assert_eq!((e.w_pending(), e.w_bytes()), (0, 0), "step {step}");
        }
    }

    /// A step that fails with Ws queued and sums half summed leaves
    /// nothing behind once the checkpoint is restored: the replay is the
    /// trainer's, byte for byte.
    #[test]
    fn restore_drops_queued_ws_and_their_sums() {
        let mut oracle_model = model();
        let mut oracle = SamoTrainer::new(&mut oracle_model, masks(), opt());
        let mut m = model();
        let mut e = StepEngine::build(&mut m, &masks(), opt(), None, "samo");
        oracle_step(&mut oracle, &mut oracle_model, 0);
        deferred_step(&mut e, &mut m, 0, false);
        let checkpoint = e.save();

        // Step 1 breaks off after two Bs: W of microbatch 0 summed, W of 1
        // queued, θ16 still lent.
        e.lend_theta16(&mut m, true);
        for k in 0..2 {
            let dy = loss_grad(&mut m, 1, k, e.loss_scale());
            e.backward_deferred(&mut m, dy, false);
        }
        assert!(e.run_w(&m).unwrap());
        assert!(e.dw_sums.iter().any(|s| !s.is_empty()) && e.w_pending() == 1 && e.w_bytes() > 0);
        e.restore(&checkpoint, &mut m).unwrap();
        assert_eq!((e.w_pending(), e.w_bytes()), (0, 0));
        assert!(e.dw_sums.iter().all(Vec::is_empty));

        for step in 1..3u64 {
            oracle_step(&mut oracle, &mut oracle_model, step);
            deferred_step(&mut e, &mut m, step, true);
            assert_eq!(e.save().as_ref(), oracle.save().as_ref(), "replayed step {step}");
        }
    }
}

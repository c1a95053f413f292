//! Thread-per-stage inter-layer (pipeline) SAMO training over the real
//! message-passing runtime in the `comms` crate — the hybrid
//! `G_inter × G_data` decomposition of AxoNN (paper Sec. III) running
//! on OS threads instead of the event-driven simulator in `axonn-sim`.
//!
//! A [`Sequential`] model is partitioned into `G_inter` contiguous
//! stage blocks ([`comms::segment_bounds`] over the layer list, the
//! same split the simulator and the analytic model use). Each of the
//! `G_inter × G_data` ranks — a [`StageRank`], the one rank type — owns
//! one stage block of one data replica on its own thread of the one
//! group, [`RankGroup`] (here as [`ThreadedPipelineSamo`]), plus two
//! communicator endpoints:
//!
//! * a **pipeline mesh** per data replica (`world = G_inter`) carrying
//!   boundary activations forward and activation-gradients backward as
//!   tagged p2p messages ([`comms::Communicator::send_p2p`]), and the
//!   per-step cross-stage overflow verdict;
//! * a **data mesh** per stage (`world = G_data`) running the
//!   compressed-`∇θ16` chunked ring reduce-scatter, the overflow-flag
//!   gather and the sharded parameter all-gather — the stage's
//!   [`StepEngine`]. At one stage the group is the data-parallel runtime
//!   ([`crate::ThreadedDataParallelSamo`] builds that point over whole
//!   replicas): its ranks have no pipeline mesh.
//!
//! # Scheduling
//!
//! Which op a stage runs next is decided in one place: [`Schedule`], a
//! pure state machine that `axonn-sim`'s simulator runs too, on modelled
//! durations instead of wall time. It is message-driven with **backward
//! preferred over forward** (AxoNN's rule), and every stage keeps a
//! window of at most `max_in_flight` microbatches forwarded and not yet
//! through B.
//!
//! A microbatch's backward is split in two, as in Qi et al., *Zero Bubble
//! Pipeline Parallelism* (arXiv 2401.10241): **B** computes `dx` — all the
//! upstream stage waits for — and the dense gradients of biases and
//! norms, and sends `dx` at once; **W**, every weight's `dW = dyᵀ·x`, runs
//! later from the operands B handed over (`StepEngine::backward_deferred`):
//! the `dy` B received or produced, and the input the layer cached, moved.
//! The order is **B > F > W > sleep**: a W runs where the stage would
//! otherwise sleep, with one bound — after B of microbatch `k` sends its
//! `dx`, every W older than `k` runs. So between ops a stage holds at
//! most one microbatch's W operands, and for the moment between a B and
//! that catch-up, two. Bs and Ws each execute in strict microbatch order,
//! so gradient accumulation order — and therefore every f32 sum — matches
//! the single-process trainer exactly. The step ends once the last
//! microbatch's W has run.
//!
//! The rank loop receives — one `try_recv_p2p` per link, for the next
//! microbatch that link delivers — tells the machine what arrived, and
//! executes what [`Schedule::next`] returns. With nothing to run the rank
//! **sleeps** in [`Communicator::wait_any`] on exactly the links the
//! machine names — downstream for the next gradient, upstream too while
//! the window has room — and the neighbour's send wakes it. The wait's
//! deadline is the rank's progress deadline, so a silent neighbour is a
//! typed timeout out of the same call.
//!
//! # The activation stash
//!
//! A layer's activation caches hold one microbatch, a stage has up to
//! `max_in_flight` of them forwarded and not yet retired. Before a forward
//! would overwrite the caches of a microbatch still in flight the stage
//! parks them in a [`CacheSlot`] (`Layer::swap_caches`: moved, not
//! copied), and its backward swaps them back in — at most
//! `(max_in_flight − 1) × cached_bytes(block)` parked per stage, and no
//! forward runs twice. A block with a layer that declines the swap keeps
//! the boundary input of every microbatch in flight instead and re-runs
//! its forward from it just in time (classic activation recomputation).
//! The last stage needs neither: under backward priority its backward
//! always immediately follows the matching forward.
//! [`PipelineConfig::force_recompute`] forces the recompute everywhere,
//! which makes per-stage work uniform — the pipeline bench uses it to
//! compare the measured bubble against Eq. 7. The operands a B hands to
//! its W — a Linear's input cache leaves the layer with them — are
//! counted apart from the stash ([`StageStats::w_bytes_peak`]).
//!
//! Every B runs through the engine's [`Layer::backward_into`] hook. A
//! weight's gradient exists only at its kept positions: each
//! microbatch's W but the last adds its product into the engine's
//! `nnz`-long sums, and the **last** one finishes them into `∇θ16`, each
//! parameter bucket's ring starting on the data mesh as soon as its
//! gradients are final — the all-reduce overlaps the rest of that W. On
//! a dynamic-sparsity update step ([`RankGroup::set_mask_schedule`])
//! the Bs log every product's operands and queue no W: the epilogue
//! streams the grow score from the logs, remaps, runs them as Ws at the
//! new index, compresses and reduces on each stage's data mesh, whose
//! masks are the stage's own.
//!
//! # Bitwise equivalence with the single-process trainer
//!
//! For any `(G_inter, G_data)` and any thread timing, checkpoint bytes
//! equal a single-process [`crate::SamoTrainer`] driven with the same
//! microbatches step for step, mask updates included
//! (`tests/pipeline_threaded.rs` at the repository root, and
//! `tests/pipeline_jitter.rs` under seeded link jitter, which moves where
//! the Ws land):
//! forward/backward compose the same deterministic kernels, backward
//! order per parameter is microbatch order everywhere, recomputation
//! reproduces identical activations (stage blocks must be
//! recompute-safe, i.e. forward twice ≡ forward once — true of every
//! stateless layer), the ring mean is the exact-f64-sum rounding which
//! is the identity at `G_data = 1` and exact for identical replicas,
//! and the sharded optimizer path is bitwise-equal to the fused
//! single-process kernels (`crate::state` tests).
//!
//! # Failure handling
//!
//! A killed or cut stage surfaces as a bounded step `Err` — every wait
//! of the scheduler loop ends at the rank's progress deadline, so a
//! silent neighbour can never hang the group. The group then refuses further
//! steps (poisoned) until [`RankGroup::restore`] reloads a
//! checkpoint on every rank, bumps both mesh epochs (discarding stale
//! in-flight traffic) and barriers the group back together.

use crate::engine::{assert_replicas_agree, gather_full, StepEngine};
use crate::serialize::save_checkpoint;
use crate::threaded::RankGroup;
use comms::{CommsError, Communicator, Transport as _};
use nn::layer::{CacheSlot, Layer, Sequential};
use nn::mixed::Optimizer;
use prune::{Mask, MaskSchedule};
use std::time::Duration;
use telemetry::json::Json;
use telemetry::ledger::Phase;
use telemetry::trace::{self, lane};
use tensor::Tensor;

/// Pipeline decomposition and scheduling knobs.
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// Pipeline depth: number of contiguous stage blocks.
    pub g_inter: usize,
    /// Data-parallel width: replicas per stage.
    pub g_data: usize,
    /// Microbatches per training step (the paper's `M = B/(mbs·G_data)`).
    pub microbatches: usize,
    /// Rows per microbatch — boundary tensors travel flat over the
    /// wire and are reshaped to `[mb_rows, features]` on arrival.
    pub mb_rows: usize,
    /// Activation-memory cap: at most this many microbatches may be
    /// in flight (forwarded but not yet retired by backward) per stage.
    pub max_in_flight: usize,
    /// Progress deadline of the per-rank scheduler and deadline of
    /// every collective — a dead neighbour surfaces as `Err` within it.
    pub timeout: Duration,
    /// Recompute the stage forward before *every* backward, even when
    /// the activation cache is still valid. Keeps per-stage work
    /// uniform for the Eq. 7 bubble cross-check.
    pub force_recompute: bool,
}

impl PipelineConfig {
    /// A conservative default: `g_inter` stages, no data parallelism,
    /// `2·g_inter` microbatches, cap at pipeline depth.
    pub fn new(g_inter: usize, microbatches: usize, mb_rows: usize) -> PipelineConfig {
        PipelineConfig {
            g_inter,
            g_data: 1,
            microbatches,
            mb_rows,
            max_in_flight: g_inter.max(1),
            timeout: comms::collectives::DEFAULT_TIMEOUT,
            force_recompute: false,
        }
    }
}

/// Per-rank scheduler statistics, cumulative across steps. The seconds
/// are laps of the rank's ledger (`telemetry::ledger`), summed.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageStats {
    /// Seconds spent in stage forward compute (initial passes).
    pub fwd_s: f64,
    /// Seconds spent in backward compute, including any recompute and
    /// every W.
    pub bwd_s: f64,
    /// Seconds of `bwd_s` spent in the deferred weight gradients (Ws).
    pub w_s: f64,
    /// Seconds asleep waiting for a neighbour's message — the bubble.
    pub wait_s: f64,
    /// Wall seconds inside the scheduler loop (excludes the collective
    /// epilogue), summed over steps: `fwd_s + bwd_s + wait_s` plus the
    /// scheduler's own overhead (polls, the input and loss closures, the
    /// sends). `1 − (fwd_s+bwd_s)/sched_wall_s` is this rank's measured
    /// bubble fraction.
    pub sched_wall_s: f64,
    /// Just-in-time activation recomputations performed.
    pub recomputes: u64,
    /// Most activation bytes ever parked in the stash at once.
    pub stash_bytes_peak: u64,
    /// Most bytes of W operands (`dy` and `x` per deferred weight) ever
    /// held at once.
    pub w_bytes_peak: u64,
    /// When this rank's scheduler loop last started/ended: ledger marks,
    /// in microseconds on the shared trace clock
    /// ([`telemetry::clock::now_us`]) — the bubble bench reconstructs the
    /// step makespan across ranks from these (`max(end) − min(start)`
    /// over the group).
    pub last_sched_start_us: f64,
    /// See [`Self::last_sched_start_us`].
    pub last_sched_end_us: f64,
    /// Bytes this rank pushed into its pipeline-mesh links.
    pub pipe_wire_bytes: u64,
    /// Bytes this rank pushed into its data-mesh links.
    pub data_wire_bytes: u64,
    /// Messages lost to injected faults on either mesh.
    pub msgs_dropped: u64,
}

/// One op of a stage on microbatch `mb`: its forward, its **B** (`dx`,
/// sent upstream at once) or its **W** (the weight gradients B deferred).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    F(usize),
    B(usize),
    W(usize),
}

/// A boundary message reaching a stage: microbatch `mb`'s activation from
/// upstream, or its activation-gradient from downstream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Msg {
    Act(usize),
    Grad(usize),
}

/// What a stage does next, by [`Schedule::next`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Next {
    Run(Op),
    /// Nothing can run until a message comes over a named link:
    /// downstream with the next gradient, upstream with the next
    /// activation.
    Wait { downstream: bool, upstream: bool },
    Done,
}

/// One stage's schedule for one step, the one place a pipeline
/// scheduling decision is made: the rank loop runs it on wall time, and
/// `axonn-sim` on modelled durations. It is told what arrived
/// ([`Self::arrived`]) and what ran ([`Self::done`]), and says what runs
/// next ([`Self::next`]).
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    microbatches: usize,
    max_in_flight: usize,
    last: bool,
    /// Fs, Bs and Ws done; each kind runs in microbatch order.
    fwd: usize,
    bwd: usize,
    wgt: usize,
    /// Activations and gradients arrived, in microbatch order (stage 0's
    /// inputs are all local).
    acts: usize,
    grads: usize,
}

impl Schedule {
    /// Stage `stage` of `stages`, before its first op.
    pub fn new(stage: usize, stages: usize, microbatches: usize, max_in_flight: usize) -> Schedule {
        assert!(stage < stages && microbatches >= 1);
        assert!(max_in_flight >= 1, "max_in_flight must admit one microbatch");
        Schedule {
            microbatches,
            max_in_flight,
            last: stage + 1 == stages,
            fwd: 0,
            bwd: 0,
            wgt: 0,
            acts: if stage == 0 { microbatches } else { 0 },
            grads: 0,
        }
    }

    /// The next activation and the next gradient this stage receives, as
    /// far as each is still to come over its link.
    pub fn expected(&self) -> [Option<Msg>; 2] {
        let m = self.microbatches;
        [
            (self.acts < m).then_some(Msg::Act(self.acts)),
            (!self.last && self.grads < m).then_some(Msg::Grad(self.grads)),
        ]
    }

    /// Records an arrival; each link delivers in microbatch order.
    pub fn arrived(&mut self, msg: Msg) {
        assert!(self.expected().contains(&Some(msg)), "{msg:?} out of order");
        match msg {
            Msg::Act(_) => self.acts += 1,
            Msg::Grad(_) => self.grads += 1,
        }
    }

    /// The rule, in order: a W while more than one is pending (the
    /// catch-up after a B), then B, then F inside the window, then W,
    /// then wait.
    pub fn next(&self) -> Next {
        let m = self.microbatches;
        let pending = self.bwd - self.wgt;
        // The last stage's loss is local: its forward is its gradient.
        let grads = if self.last { self.fwd } else { self.grads };
        let admits = self.fwd < m && self.fwd < self.bwd + self.max_in_flight;
        if pending > 1 {
            Next::Run(Op::W(self.wgt))
        } else if self.bwd < grads {
            Next::Run(Op::B(self.bwd))
        } else if admits && self.fwd < self.acts {
            Next::Run(Op::F(self.fwd))
        } else if pending > 0 {
            Next::Run(Op::W(self.wgt))
        } else if self.wgt == m {
            Next::Done
        } else {
            // Stage 0 has every input: a window with room has run its F.
            Next::Wait { downstream: !self.last, upstream: admits }
        }
    }

    /// Records that `op`, which [`Self::next`] returned, has run.
    pub fn done(&mut self, op: Op) {
        let (count, mb) = match op {
            Op::F(mb) => (&mut self.fwd, mb),
            Op::B(mb) => (&mut self.bwd, mb),
            Op::W(mb) => (&mut self.wgt, mb),
        };
        assert_eq!(*count, mb, "{op:?} out of microbatch order");
        *count += 1;
    }
}

const DIR_ACT: u64 = 0;
const DIR_GRAD: u64 = 1;

/// Tag id for one boundary message: microbatch in the high bits, the
/// direction (activation vs gradient) in bit 0. The training step goes
/// in the tag's separate `step` field, so ids never collide across
/// steps, microbatches, or directions within an epoch.
fn p2p_id(mb: usize, dir: u64) -> u64 {
    ((mb as u64) << 1) | dir
}

/// What one step is told to do, per `(data_idx, microbatch)`: stage 0's
/// input, and the last stage's scaled loss seed from its output. At one
/// stage a one-stage rank's step closure is both: it runs the forward and
/// returns the seed.
pub(crate) enum Job<'a, M> {
    Split(
        &'a (dyn Fn(usize, usize) -> Tensor + Send + Sync),
        &'a (dyn Fn(usize, usize, &Tensor, f32) -> Tensor + Send + Sync),
    ),
    Whole(&'a dyn Fn(usize, &mut M, f32) -> Tensor),
}

/// The one rank of AxoNN's `G_inter × G_data` grid: a stage of a data
/// replica — its engine's place `(stage, data)` — with its block of the
/// model and the [`StepEngine`] training it, sharded over the stage's
/// data mesh. [`RankGroup`] runs one per thread at every grid point; at
/// one stage and one microbatch `samo-launch` runs one per process, over
/// the endpoint of [`comms::bootstrap_tcp`]. [`Self::step`], [`Self::save`]
/// and [`Self::restore`] are collective: every rank of the group calls
/// them together.
pub struct StageRank<M> {
    cfg: PipelineConfig,
    /// Global trace lane (`tid`) of this rank: unique across every
    /// pipeline group of the process, shared by the rank's stage
    /// slices ([`lane::PIPELINE`]: every forward/backward it executes,
    /// plus the step window) and both communicators' comms slices, on
    /// one clock, so stage compute and ring traffic line up.
    lane: u64,
    /// Index of this stage's first parameter in whole-model order, and
    /// the whole model's parameter count.
    param_off: usize,
    params_total: usize,
    pub(crate) block: M,
    /// The stage's state and step, reducing over the data mesh of this
    /// stage (rank = its data replica).
    pub(crate) engine: StepEngine,
    /// Pipeline mesh of this data replica; rank = stage. A one-stage rank
    /// outside a pipeline has none.
    pipe: Option<Communicator>,
    stats: StageStats,
    /// Boundary input per in-flight microbatch: what a recompute starts
    /// from, so kept only while the stage is not `stashing`.
    input_stash: Vec<Option<Tensor>>,
    /// Which microbatch the block's own activation caches belong to: the
    /// last one forwarded, until its backward.
    cache_mb: Option<usize>,
    /// Parked caches of microbatch `mb`, at `mb % max_in_flight`.
    slots: Vec<CacheSlot>,
    /// Whether this step parks caches instead of recomputing them.
    stashing: bool,
    /// This stage's schedule before a step's first op.
    schedule: Schedule,
}

impl<M: Layer> StageRank<M> {
    /// A one-stage rank: builds shard `comm.rank()` of the group's state
    /// from this rank's replica — every rank's is the same — and one mask
    /// per parameter tensor. From here on `θ16` is the weight: the
    /// replica's `Linear`s hold no f32 `value` and compute from what the
    /// engine lends for each step.
    pub fn new(model: M, masks: &[Mask], opt: Optimizer, comm: Communicator) -> Self {
        let (place, one_stage) = ((0, comm.rank()), PipelineConfig::new(1, 1, 0));
        Self::build(model, masks, (0, masks.len()), opt, one_stage, place, (comm, None))
    }

    /// Every rank's one builder: stage `place.0` of data replica `place.1`
    /// in `cfg`'s grid, training `block` under its `masks` — the model's
    /// parameters from `params.0` on, of `params.1` — sharded over its
    /// stage's data mesh `links.0`; `links.1` is its replica's pipeline
    /// mesh, which a one-stage rank has none of. The grid names the
    /// runtime its steps report as: `samo_dp_rank` at one stage,
    /// `samo_pipeline` deeper.
    pub(crate) fn build(
        mut block: M,
        masks: &[Mask],
        params: (usize, usize),
        opt: Optimizer,
        cfg: PipelineConfig,
        place: (usize, usize),
        (data, pipe): (Communicator, Option<Communicator>),
    ) -> Self {
        let runtime = if cfg.g_inter == 1 { "samo_dp_rank" } else { "samo_pipeline" };
        let lane = data.trace_lane();
        let mut engine = StepEngine::build(&mut block, masks, opt, Some(data), runtime);
        // Its place in the grid: rank (0, 0) reports for the group.
        engine.place = place;
        StageRank {
            lane,
            param_off: params.0,
            params_total: params.1,
            block,
            engine,
            pipe,
            stats: StageStats::default(),
            input_stash: Vec::new(),
            cache_mb: None,
            slots: (0..cfg.max_in_flight).map(|_| CacheSlot::default()).collect(),
            stashing: false,
            schedule: Schedule::new(place.0, cfg.g_inter, cfg.microbatches, cfg.max_in_flight),
            cfg,
        }
    }

    /// The engine: step counters, loss scale, state bytes, remap events.
    pub fn engine(&self) -> &StepEngine {
        &self.engine
    }

    /// The data mesh's communicator — for broadcasts and barriers around
    /// the steps.
    pub fn comm_mut(&mut self) -> &mut Communicator {
        self.engine.comm_mut()
    }

    /// Installs a dynamic-sparsity schedule; every rank installs the same
    /// one before the same step.
    pub fn set_mask_schedule(&mut self, schedule: MaskSchedule) {
        self.engine.install_schedule(schedule);
    }

    /// One training step of a one-stage rank: `f(rank, model, loss_scale)`
    /// runs forward and returns the scaled output gradient — the
    /// schedule's F — then B and W, whose last bucket's ring the epilogue
    /// finishes, and the fused step on the owned range starts each
    /// bucket's parameter all-gather as its last pass ends. `Ok(false)` if
    /// skipped on overflow; `Err` if a collective failed — the
    /// communicator then refuses every collective (`Poisoned`) until
    /// [`Self::restore`] or a rank rebuilt on a new one.
    pub fn step(&mut self, f: impl FnOnce(usize, &mut M, f32) -> Tensor) -> Result<bool, CommsError> {
        let f = std::cell::Cell::new(Some(f));
        let once = |rank, model: &mut M, scale| f.take().expect("one microbatch, one F")(rank, model, scale);
        self.run(&Job::Whole(&once))
    }

    /// Runs the group's next step, numbered by the engine's step index as
    /// every rank numbers it: the schedule, then the collective epilogue.
    /// The call is the ledger's window, and — traced, on a pipeline — the
    /// "step" slice recorded on completion.
    pub(crate) fn run(&mut self, job: &Job<'_, M>) -> Result<bool, CommsError> {
        let step = self.engine.step_index() as u32;
        self.engine.ledger.start();
        let scale_used = self.engine.loss_scale();
        self.input_stash.clear();
        self.input_stash.resize_with(self.cfg.microbatches, || None);
        self.cache_mb = None;
        // One verdict a step, before any microbatch depends on it: a swap
        // with an empty slot moves nothing and tells whether the block can.
        self.stashing = !self.cfg.force_recompute && self.slots[0].exchange(&mut self.block);
        // The compute window: every microbatch's forward and backward runs
        // from the lent θ16, which is home again before the epilogue — or
        // the error.
        self.engine.lend_theta16(&mut self.block, true);
        let scheduled = self.run_schedule(job, step, scale_used);
        self.engine.lend_theta16(&mut self.block, false);
        scheduled?;

        // Collective epilogue: finish the overlapped rings — or, on a mask
        // update, whose Bs logged the products, rank them, remap, run them
        // at the new index, compress and reduce — install the reduced
        // gradients and agree on this stage's overflow flag across its data
        // replicas, then across stages — one f16 flag per stage; every
        // stage of this replica sees the same flags, and replicas agree
        // because each stage's flag is already its data group's, so every
        // rank's scaler stays in lockstep — then step the owned range and
        // all-gather parameters.
        let stage_finite = match self.engine.is_update_step() {
            true => self.engine.reduce_after_backward(&mut self.block)?,
            false => self.engine.finish_reduce()?,
        };
        let finite = match &mut self.pipe {
            Some(pipe) => {
                self.engine.ledger.enter(Phase::Reduce);
                let finite = pipe.all_true(stage_finite);
                self.engine.ledger.exit(Phase::Reduce);
                finite?
            }
            None => stage_finite,
        };
        let applied = self.engine.apply(&mut self.block, finite)?;
        if self.pipe.is_some() && telemetry::enabled() {
            self.finish_step_telemetry(step);
        }
        Ok(self.engine.end_step(applied, scale_used))
    }

    /// The step's schedule: receives, and runs what [`Schedule::next`]
    /// returns until the last W has run.
    fn run_schedule(&mut self, job: &Job<'_, M>, step: u32, scale_used: f32) -> Result<(), CommsError> {
        let (s, d) = self.engine.place;
        let sched0 = self.engine.ledger.mark();
        self.stats.last_sched_start_us = self.engine.ledger.trace_us(sched0);
        let mut sched = self.schedule;
        // A link's next message, received and not yet consumed; on the
        // last stage `dy_in` is the loss gradient of the output it just
        // made, which its B runs next.
        let (mut x_in, mut dy_in) = (None, None);
        let mut last_progress = sched0;
        loop {
            for msg in sched.expected().into_iter().flatten() {
                let (peer, id, held) = match msg {
                    Msg::Act(mb) => (s - 1, p2p_id(mb, DIR_ACT), &mut x_in),
                    Msg::Grad(mb) => (s + 1, p2p_id(mb, DIR_GRAD), &mut dy_in),
                };
                if held.is_none() {
                    if let Some(v) = self.pipe_mut().try_recv_p2p(peer, id, step)? {
                        *held = Some(self.tensor_from_wire(v)?);
                        sched.arrived(msg);
                    }
                }
            }
            let op = match sched.next() {
                Next::Run(op) => op,
                Next::Done => break,
                Next::Wait { downstream, upstream } => {
                    // Sleep until a neighbour can end the wait. A neighbour
                    // silent past the progress deadline is the wait's typed
                    // timeout, and a timed-out wait slice. Nothing needs
                    // pumping meanwhile: the first ring starts inside the
                    // last W, which ends the loop.
                    debug_assert_eq!(self.engine.comm().rings_in_flight(), 0);
                    let links = [s + 1, s.wrapping_sub(1)];
                    let links = &links[usize::from(!downstream)..1 + usize::from(upstream)];
                    let ledger = &mut self.engine.ledger;
                    let deadline = ledger.at(last_progress) + self.cfg.timeout;
                    ledger.enter(Phase::Wait);
                    let pipe = self.pipe.as_mut().expect("a stage that waits has neighbours");
                    let woken = pipe.wait_any(links, deadline, || {
                        format!("sched wait (mb {}f/{}b)", sched.fwd, sched.bwd)
                    });
                    ledger.exit(Phase::Wait);
                    woken?;
                    continue;
                }
            };
            match (op, job) {
                (Op::F(mb), Job::Split(input, loss_grad)) => {
                    // Stage 0 reads its input; every other stage has one in hand.
                    let x = x_in.take().unwrap_or_else(|| input(d, mb));
                    if let Some(y) = self.forward_mb(mb, x, step)? {
                        dy_in = Some(loss_grad(d, mb, &y, scale_used));
                    }
                }
                (Op::F(mb), Job::Whole(f)) => {
                    self.engine.ledger.enter(Phase::F);
                    dy_in = Some(f(d, &mut self.block, scale_used));
                    self.end_op(Phase::F, mb, true);
                    self.cache_mb = Some(mb);
                }
                (Op::B(mb), _) => {
                    let last_mb = mb + 1 == self.cfg.microbatches;
                    self.backward_mb(mb, dy_in.take().expect("dy in hand"), last_mb, step)?;
                }
                (Op::W(mb), _) => self.weight_mb(mb)?,
            }
            sched.done(op);
            last_progress = self.engine.ledger.mark();
        }
        let ledger = &mut self.engine.ledger;
        let end = ledger.mark();
        self.stats.sched_wall_s += (end - sched0) as f64 / 1e9;
        self.stats.last_sched_end_us = ledger.trace_us(end);
        let split = ledger.split();
        self.stats.fwd_s += split.secs(Phase::F);
        self.stats.bwd_s += split.secs(Phase::B) + split.secs(Phase::W);
        self.stats.w_s += split.secs(Phase::W);
        self.stats.wait_s += split.secs(Phase::Wait);
        Ok(())
    }

    /// Reloads a checkpoint written by any runtime at any world size —
    /// this rank's stage slice of it, cut to its shard — then rejoins the
    /// group behind barriers on fresh comms epochs, which discard stale
    /// in-flight traffic: every rank restores together, so epochs advance
    /// in lockstep, and the barriers run pipe-then-data on every rank over
    /// disjoint meshes, so no ordering deadlock.
    pub fn restore(&mut self, checkpoint: &[u8]) -> Result<(), String> {
        let (off, total) = (self.param_off, self.params_total);
        self.engine.restore_slice(checkpoint, &mut self.block, off, total)?;
        if let Some(pipe) = &mut self.pipe {
            pipe.bump_epoch();
            pipe.barrier()
                .map_err(|e| format!("post-restore pipeline barrier failed: {e}"))?;
        }
        let data = self.engine.comm_mut();
        data.bump_epoch();
        data.barrier()
            .map_err(|e| format!("post-restore data barrier failed: {e}"))
    }

    /// Serializes a one-stage group's state as one v2 checkpoint: on every
    /// rank, the bytes a [`crate::SamoTrainer`] in the same state saves.
    /// Per layer, the `[θ32 | moments]` segments are gathered as a remap
    /// gathers them, and the owned `∇θ16` ranges with one f16 all-gather,
    /// so each rank holds a full state for the call. `Err` on a dead peer;
    /// a rank whose step failed has nothing consistent to save and is
    /// refused (`Poisoned`): restore first.
    pub fn save(&mut self) -> Result<bytes::Bytes, CommsError> {
        self.save_if(true).map(|ckpt| ckpt.expect("a rank that writes serializes"))
    }

    /// [`Self::save`] on the rank that `writes` the checkpoint: every rank
    /// joins the gathers, and only that one keeps the full layers and
    /// serializes them; the others get `None`.
    pub fn save_if(&mut self, writes: bool) -> Result<Option<bytes::Bytes>, CommsError> {
        let comm = self.engine.group.as_mut().expect("a rank's engine is built with its group");
        let mut full = Vec::with_capacity(if writes { self.engine.layers.len() } else { 0 });
        for st in &self.engine.layers {
            let mut layer = gather_full(st, comm)?;
            let (lo, hi) = st.shard_range();
            layer.grad16 = comm.all_gather_f16(&st.grad16[lo..hi], &st.shard_counts())?;
            if writes {
                full.push(layer);
            }
        }
        Ok(writes.then(|| save_checkpoint(&full, &self.engine.meta())))
    }

    /// The scheduler's statistics and both meshes' wire counters.
    pub(crate) fn stats(&self) -> StageStats {
        let data = self.engine.comm().transport();
        let pipe = self.pipe.as_ref().map(|p| p.transport());
        StageStats {
            pipe_wire_bytes: pipe.map_or(0, |p| p.bytes_sent()),
            data_wire_bytes: data.bytes_sent(),
            msgs_dropped: pipe.map_or(0, |p| p.msgs_dropped()) + data.msgs_dropped(),
            ..self.stats
        }
    }

    fn pipe_mut(&mut self) -> &mut Communicator {
        self.pipe.as_mut().expect("a stage with neighbours has a pipeline mesh")
    }

    fn tensor_from_wire(&self, v: Vec<f32>) -> Result<Tensor, CommsError> {
        let rows = self.cfg.mb_rows;
        if rows == 0 || !v.len().is_multiple_of(rows) {
            return Err(CommsError::Mismatch(format!(
                "boundary payload of {} values does not divide into {rows} rows",
                v.len()
            )));
        }
        let cols = v.len() / rows;
        Ok(Tensor::from_vec(&[rows, cols], v))
    }

    /// Telemetry tail of a completed step: records this rank's step
    /// window slice. Only called when telemetry is enabled and the step
    /// reached a verdict (error paths skip it — a dead rank's wait slices
    /// still tell the story).
    fn finish_step_telemetry(&mut self, step: u32) {
        let ledger = &mut self.engine.ledger;
        let (win0, dur_us) = (ledger.trace_us(0), ledger.mark() as f64 * 1e-3);
        // The step window on this rank's row, around its F/B/W slices and
        // its comms lane; the group id (lane base) keeps same-numbered
        // steps of two groups apart in a merged trace.
        let (s, d) = self.engine.place;
        let group = self.lane - (d * self.cfg.g_inter + s) as u64;
        trace::slice(lane::PIPELINE, self.lane, "pipeline", win0, dur_us, || {
            let uint = |k: &str, v: u64| (k.to_string(), Json::UInt(v));
            (
                "step".into(),
                vec![uint("step", u64::from(step)), uint("group", group)],
            )
        });
    }

    /// Closes `phase`, microbatch `mb`'s F, B or W, on the ledger and —
    /// traced, and if it `ran` — records it as a slice on this rank's lane.
    fn end_op(&mut self, phase: Phase, mb: usize, ran: bool) {
        let ledger = &mut self.engine.ledger;
        let lap = ledger.exit(phase);
        if ran && self.pipe.is_some() && telemetry::enabled() {
            let (ts, lap_us) = (ledger.trace_us(ledger.charged_ns() - lap), lap as f64 * 1e-3);
            trace::slice(lane::PIPELINE, self.lane, "pipeline", ts, lap_us, || {
                let kind = phase.name().to_uppercase();
                (format!("{kind}{mb}"), vec![("mb".into(), Json::UInt(mb as u64))])
            });
        }
    }

    /// The slot microbatch `mb`'s caches park in, swapped with the block's.
    fn swap_slot(&mut self, mb: usize) {
        let slot = mb % self.slots.len();
        self.slots[slot].exchange(&mut self.block);
    }

    /// F of microbatch `mb`: its output is sent downstream, or returned
    /// on the last stage.
    fn forward_mb(&mut self, mb: usize, x: Tensor, step: u32) -> Result<Option<Tensor>, CommsError> {
        self.engine.ledger.enter(Phase::F);
        if let (true, Some(in_flight)) = (self.stashing, self.cache_mb) {
            // The block's caches belong to a microbatch not yet retired:
            // park them before this forward overwrites them.
            self.swap_slot(in_flight);
            let parked: usize = self.slots.iter().map(CacheSlot::bytes).sum();
            self.stats.stash_bytes_peak = self.stats.stash_bytes_peak.max(parked as u64);
        }
        let y = self.block.forward(&x);
        self.end_op(Phase::F, mb, true);
        self.cache_mb = Some(mb);
        if !self.stashing {
            self.input_stash[mb] = Some(x);
        }
        let stage = self.engine.place.0;
        if stage + 1 == self.cfg.g_inter {
            return Ok(Some(y));
        }
        self.send(stage + 1, p2p_id(mb, DIR_ACT), step, y)?;
        Ok(None)
    }

    /// Hands a boundary tensor to pipeline neighbour `to`, charged to
    /// `send`.
    fn send(&mut self, to: usize, id: u64, step: u32, t: Tensor) -> Result<(), CommsError> {
        self.engine.ledger.enter(Phase::Send);
        let sent = self.pipe_mut().send_p2p(to, id, step, t.into_vec());
        self.engine.ledger.exit(Phase::Send);
        sent
    }

    /// B of microbatch `mb`: `dx`, sent upstream at once.
    fn backward_mb(
        &mut self,
        mb: usize,
        dy: Tensor,
        last_mb: bool,
        step: u32,
    ) -> Result<(), CommsError> {
        self.engine.ledger.enter(Phase::B);
        let parked = self.stashing && self.cache_mb != Some(mb);
        if parked {
            // Trade the newest microbatch's caches for this one's; they
            // come back once this backward has consumed its own.
            self.swap_slot(mb);
        } else if !self.stashing {
            let x = self.input_stash[mb].take();
            if self.cfg.force_recompute || self.cache_mb != Some(mb) {
                // The activation caches belong to a different microbatch:
                // re-run the stage forward from the stashed boundary input.
                // Parameters are unchanged within a step, so the recompute
                // reproduces the original activations bit for bit.
                let _ = self.block.forward(&x.expect("boundary input stashed"));
                self.stats.recomputes += 1;
            }
        }
        // B: `dx` and the dense gradients; the weights' products wait for
        // their W.
        let dx = self.engine.backward_deferred(&mut self.block, dy, last_mb);
        let held = self.engine.w_bytes() as u64;
        self.stats.w_bytes_peak = self.stats.w_bytes_peak.max(held);
        if parked {
            self.swap_slot(mb);
        } else {
            self.cache_mb = None;
        }
        self.end_op(Phase::B, mb, true);
        let stage = self.engine.place.0;
        if stage > 0 {
            self.send(stage - 1, p2p_id(mb, DIR_GRAD), step, dx)?;
        }
        Ok(())
    }

    /// W of microbatch `mb`: the engine's oldest queued W, if B queued one.
    fn weight_mb(&mut self, mb: usize) -> Result<(), CommsError> {
        self.engine.ledger.enter(Phase::W);
        let ran = self.engine.run_w(&self.block);
        self.end_op(Phase::W, mb, matches!(ran, Ok(true)));
        ran.map(drop)
    }
}

/// The hybrid `G_inter × G_data` SAMO group of [`Sequential`] stage
/// blocks: every rank is an OS thread owning one stage block of one data
/// replica, boundary tensors move as tagged p2p messages over each
/// replica's pipeline mesh, and gradients ride the compressed ring
/// all-reduce within each stage's data mesh. The one group
/// ([`RankGroup`]) at `Sequential`; at one stage it is the runtime
/// [`crate::ThreadedDataParallelSamo`] runs, and at every grid point it
/// is bitwise-equivalent to [`crate::SamoTrainer`].
pub type ThreadedPipelineSamo = RankGroup<Sequential>;

impl ThreadedPipelineSamo {
    /// Builds the group from `g_data` identically initialized model
    /// replicas (consumed and partitioned into `g_inter` stage blocks
    /// each, [`comms::segment_bounds`] over the layer list) and one mask
    /// per parameter tensor, then spawns one thread per `(stage,
    /// data_idx)` rank.
    pub fn new(
        replicas: Vec<Sequential>,
        masks: Vec<Mask>,
        opt: Optimizer,
        cfg: PipelineConfig,
    ) -> ThreadedPipelineSamo {
        let (g_inter, g_data) = (cfg.g_inter, cfg.g_data);
        assert_eq!(replicas.len(), g_data, "one model replica per data rank");
        assert!(g_inter >= 1 && g_data >= 1 && cfg.microbatches >= 1, "a grid needs a stage, a replica and a microbatch");
        let n_layers = replicas[0].len();
        assert!(n_layers >= g_inter, "cannot split {n_layers} layers into {g_inter} stages");
        for (r, m) in replicas.iter().enumerate() {
            assert_eq!(m.len(), n_layers, "replica {r} layer count differs");
        }
        assert_replicas_agree(&replicas);
        assert_eq!(replicas[0].params().len(), masks.len(), "one mask per parameter");
        let bounds = comms::segment_bounds(n_layers, g_inter);
        let mut blocks = Vec::with_capacity(g_inter * g_data);
        for replica in replicas {
            let mut layers = replica.into_layers();
            // Split back-to-front so earlier bounds stay valid.
            let back_to_front: Vec<_> = bounds.iter().rev().map(|&(lo, _)| layers.split_off(lo)).collect();
            blocks.extend(back_to_front.into_iter().rev().map(Sequential::from_layers));
        }
        RankGroup::build(blocks, &masks, opt, cfg, None)
    }
}

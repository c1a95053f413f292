//! Thread-per-stage inter-layer (pipeline) SAMO training over the real
//! message-passing runtime in the `comms` crate — the hybrid
//! `G_inter × G_data` decomposition of AxoNN (paper Sec. III) running
//! on OS threads instead of the event-driven simulator in `axonn-sim`.
//!
//! A [`Sequential`] model is partitioned into `G_inter` contiguous
//! stage blocks ([`comms::segment_bounds`] over the layer list, the
//! same split the simulator and the analytic model use). Each of the
//! `G_inter × G_data` ranks owns one stage block of one data replica
//! on its own thread, plus two communicator endpoints:
//!
//! * a **pipeline mesh** per data replica (`world = G_inter`) carrying
//!   boundary activations forward and activation-gradients backward as
//!   tagged p2p messages ([`comms::Communicator::send_p2p`]), and the
//!   per-step cross-stage overflow verdict;
//! * a **data mesh** per stage (`world = G_data`) running the
//!   compressed-`∇θ16` chunked ring reduce-scatter, the overflow-flag
//!   gather and the sharded parameter all-gather — the stage's
//!   [`StepEngine`], exactly as in [`crate::ThreadedDataParallelSamo`],
//!   whose thread protocol (`RankGroup`) this runtime shares. What this
//!   file adds is the 1F1B scheduler.
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
//! gradients are final — the all-reduce overlaps the rest of that W.
//!
//! # Bitwise equivalence with the single-process trainer
//!
//! For any `(G_inter, G_data)` and any thread timing, checkpoint bytes
//! equal a single-process [`crate::SamoTrainer`] driven with the same
//! microbatches step for step (`tests/pipeline_threaded.rs` at the
//! repository root, and `tests/pipeline_jitter.rs` under seeded link
//! jitter, which moves where the Ws land):
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
//! steps (poisoned) until [`ThreadedPipelineSamo::restore`] reloads a
//! checkpoint on every rank, bumps both mesh epochs (discarding stale
//! in-flight traffic) and barriers the group back together.

use crate::engine::{assert_replicas_agree, Ring, StepEngine, PIPELINE};
use crate::state::SamoLayerState;
use crate::threaded::{RankGroup, RankWorker};
use comms::{CommsError, Communicator, FaultController, InProcTransport, Transport};
use nn::layer::{CacheSlot, Layer, Sequential};
use nn::mixed::{LossScaler, Optimizer};
use prune::Mask;
use std::sync::Arc;
use std::time::Duration;
use telemetry::clock::now_us;
use telemetry::json::Json;
use telemetry::ledger::Phase;
use telemetry::trace::{self, lane};
use tensor::Tensor;

/// Produces stage 0's boundary input for `(data_idx, microbatch)`.
pub type InputFn = Arc<dyn Fn(usize, usize) -> Tensor + Send + Sync>;

/// Given the last stage's output for `(data_idx, microbatch)` and the
/// current loss scale, returns the **scaled** output gradient
/// `d(scale·loss)/d(output)` seeding backward.
pub type LossGradFn = Arc<dyn Fn(usize, usize, &Tensor, f32) -> Tensor + Send + Sync>;

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
    /// When this rank's scheduler loop last started/ended, microseconds
    /// on the shared comms-trace clock ([`now_us`]) — the
    /// bubble bench reconstructs the step makespan across ranks from
    /// these (`max(end) − min(start)` over the group).
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

/// What one pipelined step is told to do.
#[derive(Clone)]
pub(crate) struct StepJob {
    pub input: InputFn,
    pub loss_grad: LossGradFn,
    pub step: u32,
}

/// Everything one `(stage, data_idx)` rank thread owns.
struct StageRank {
    stage: usize,
    data_idx: usize,
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
    block: Sequential,
    /// The stage's state and step, reducing over the data mesh of this
    /// stage (rank = data_idx).
    engine: StepEngine<Ring<InProcTransport>>,
    /// Pipeline mesh of this data replica; rank = stage.
    pipe: Communicator<InProcTransport>,
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

impl RankWorker for StageRank {
    type Model = Sequential;
    type Transport = InProcTransport;
    type Job = StepJob;
    type Stats = StageStats;

    fn parts(&mut self) -> (&mut Sequential, &mut StepEngine<Ring<InProcTransport>>) {
        (&mut self.block, &mut self.engine)
    }

    fn step(&mut self, job: &StepJob) -> Result<bool, CommsError> {
        // The call is the ledger's window, and — traced — the "step"
        // slice recorded on completion, which covers the scheduler loop
        // plus the collective epilogue.
        self.engine.ledger.start();
        let win0 = telemetry::enabled().then(now_us);
        let m = self.cfg.microbatches;
        let s = self.stage;
        let step = job.step;
        let scale_used = self.engine.loss_scale();
        self.input_stash.clear();
        self.input_stash.resize_with(m, || None);
        self.cache_mb = None;
        // One verdict a step, before any microbatch depends on it: a swap
        // with an empty slot moves nothing and tells whether the block can.
        self.stashing = !self.cfg.force_recompute && self.slots[0].exchange(&mut self.block);
        // The compute window: every microbatch's forward and backward runs
        // from the lent θ16 — home again before the epilogue, or, if the
        // schedule fails, before the rank loop reports it.
        self.engine.lend_theta16(&mut self.block, true);

        // The schedule decides, the loop receives and executes.
        self.stats.last_sched_start_us = now_us();
        let sched0 = self.engine.ledger.mark();
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
                    if let Some(v) = self.pipe.try_recv_p2p(peer, id, step)? {
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
                    debug_assert_eq!(self.engine.reducer.0.rings_in_flight(), 0);
                    let links = [s + 1, s.wrapping_sub(1)];
                    let links = &links[usize::from(!downstream)..1 + usize::from(upstream)];
                    let ledger = &mut self.engine.ledger;
                    let deadline = ledger.at(last_progress) + self.cfg.timeout;
                    ledger.enter(Phase::Wait);
                    let woken = self.pipe.wait_any(links, deadline, || {
                        format!("sched wait (mb {}f/{}b)", sched.fwd, sched.bwd)
                    });
                    ledger.exit(Phase::Wait);
                    woken?;
                    continue;
                }
            };
            match op {
                Op::F(mb) => {
                    // Stage 0 reads its input; every other stage has one in hand.
                    let x = x_in.take().unwrap_or_else(|| (job.input)(self.data_idx, mb));
                    if let Some(y) = self.forward_mb(mb, x, step)? {
                        dy_in = Some((job.loss_grad)(self.data_idx, mb, &y, scale_used));
                    }
                }
                Op::B(mb) => self.backward_mb(mb, dy_in.take().expect("dy in hand"), mb + 1 == m, step)?,
                Op::W(mb) => self.weight_mb(mb)?,
            }
            sched.done(op);
            last_progress = self.engine.ledger.mark();
        }
        self.stats.sched_wall_s += (self.engine.ledger.mark() - sched0) as f64 / 1e9;
        self.stats.last_sched_end_us = now_us();
        let split = self.engine.ledger.split();
        self.stats.fwd_s += split.secs(Phase::F);
        self.stats.bwd_s += split.secs(Phase::B) + split.secs(Phase::W);
        self.stats.w_s += split.secs(Phase::W);
        self.stats.wait_s += split.secs(Phase::Wait);
        self.engine.lend_theta16(&mut self.block, false);

        // Collective epilogue: finish the overlapped rings, install the
        // reduced gradients and agree on this stage's overflow flag
        // across its data replicas (`finish_reduce`), then across stages
        // — one f16 flag per stage; every stage of this replica sees the
        // same flags, and replicas agree because each stage's flag is
        // already its data group's, so every rank's scaler stays in
        // lockstep — then step the owned range and all-gather parameters.
        let stage_finite = self.engine.finish_reduce()?;
        self.engine.ledger.enter(Phase::Reduce);
        let finite = self.pipe.all_true(stage_finite);
        self.engine.ledger.exit(Phase::Reduce);
        let applied = self.engine.apply(&mut self.block, finite?)?;
        if let Some(w0) = win0 {
            self.finish_step_telemetry(step, w0);
        }
        Ok(self.engine.end_step(&self.block, applied, scale_used))
    }

    /// Reloads this rank's stage slice of a full checkpoint, then
    /// rejoins both meshes on fresh epochs.
    fn restore(&mut self, checkpoint: &[u8]) -> Result<(), String> {
        self.engine.restore_slice(
            checkpoint,
            &mut self.block,
            self.param_off,
            self.params_total,
        )?;
        // Discard stale in-flight traffic on both meshes and
        // re-synchronize: every rank restores together, so epochs
        // advance in lockstep; the barriers run pipe-then-data on every
        // rank, and the meshes are disjoint, so no ordering deadlock.
        let data = &mut self.engine.reducer.0;
        self.pipe.bump_epoch();
        data.bump_epoch();
        self.pipe
            .barrier()
            .map_err(|e| format!("post-restore pipeline barrier failed: {e}"))?;
        data.barrier()
            .map_err(|e| format!("post-restore data barrier failed: {e}"))
    }

    fn stats(&self) -> StageStats {
        let (pipe, data) = (self.pipe.transport(), self.engine.reducer.0.transport());
        StageStats {
            pipe_wire_bytes: pipe.bytes_sent(),
            data_wire_bytes: data.bytes_sent(),
            msgs_dropped: pipe.msgs_dropped() + data.msgs_dropped(),
            ..self.stats
        }
    }
}

impl StageRank {
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
    /// window slice and the stash's peak. Only called when telemetry is
    /// enabled and the step reached a verdict (error paths skip it — a
    /// dead rank's wait slices still tell the story).
    fn finish_step_telemetry(&mut self, step: u32, win0: f64) {
        let reg = telemetry::global();
        reg.gauge("samo.pipeline.stash_bytes_peak").set_max(self.stats.stash_bytes_peak as f64);
        let now = now_us();
        let dur_us = (now - win0).max(0.0);
        // The step window on this rank's row, around its F/B/W slices and
        // its comms lane; the group id (lane base) keeps same-numbered
        // steps of two groups apart in a merged trace.
        let group = self.lane - (self.data_idx * self.cfg.g_inter + self.stage) as u64;
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
        let lap_us = self.engine.ledger.exit(phase) as f64 * 1e-3;
        if ran && telemetry::enabled() {
            let ts = (now_us() - lap_us).max(0.0);
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
        if self.stage + 1 == self.cfg.g_inter {
            return Ok(Some(y));
        }
        self.send(self.stage + 1, p2p_id(mb, DIR_ACT), step, y)?;
        Ok(None)
    }

    /// Hands a boundary tensor to pipeline neighbour `to`, charged to
    /// `send`.
    fn send(&mut self, to: usize, id: u64, step: u32, t: Tensor) -> Result<(), CommsError> {
        self.engine.ledger.enter(Phase::Send);
        let sent = self.pipe.send_p2p(to, id, step, t.into_vec());
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
            let x = self.input_stash[mb].take().expect("boundary input stashed");
            if self.cfg.force_recompute || self.cache_mb != Some(mb) {
                // The activation caches belong to a different microbatch:
                // re-run the stage forward from the stashed boundary input.
                // Parameters are unchanged within a step, so the recompute
                // reproduces the original activations bit for bit.
                let _ = self.block.forward(&x);
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
        if self.stage > 0 {
            self.send(self.stage - 1, p2p_id(mb, DIR_GRAD), step, dx)?;
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

/// A hybrid `G_inter × G_data` SAMO group: every rank is an OS thread
/// owning one pipeline-stage block of one data replica, boundary
/// tensors move as tagged p2p messages, and gradients ride the
/// compressed ring all-reduce within each data-parallel group. Peer of
/// [`crate::ThreadedDataParallelSamo`] (which is the `G_inter = 1`
/// special case) and bitwise-equivalent to [`crate::SamoTrainer`].
pub struct ThreadedPipelineSamo {
    cfg: PipelineConfig,
    /// Rank `data_idx · g_inter + stage`.
    pub(crate) group: RankGroup<Sequential, StepJob, StageStats>,
    /// One fault controller per data replica's pipeline mesh.
    pipe_faults: Vec<Arc<FaultController>>,
    /// One fault controller per stage's data mesh.
    data_faults: Vec<Arc<FaultController>>,
    step_seq: u32,
}

/// One in-process mesh of `world` endpoints per fault controller, each
/// endpoint to be taken by the rank that owns it.
fn meshes(faults: &[Arc<FaultController>], world: usize) -> Vec<Vec<Option<InProcTransport>>> {
    faults
        .iter()
        .map(|f| {
            InProcTransport::mesh_with_faults(world, Arc::clone(f))
                .into_iter()
                .map(Some)
                .collect()
        })
        .collect()
}

impl ThreadedPipelineSamo {
    /// Builds the group from `g_data` identically initialized model
    /// replicas (consumed and partitioned into `g_inter` stage blocks
    /// each) and one mask per parameter tensor, then spawns one thread
    /// per `(stage, data_idx)` rank.
    pub fn new(
        replicas: Vec<Sequential>,
        masks: Vec<Mask>,
        opt: Optimizer,
        cfg: PipelineConfig,
    ) -> ThreadedPipelineSamo {
        assert_eq!(
            replicas.len(),
            cfg.g_data,
            "one model replica per data rank"
        );
        assert!(cfg.g_inter >= 1 && cfg.g_data >= 1);
        assert!(cfg.microbatches >= 1, "need at least one microbatch");
        let n_layers = replicas[0].len();
        assert!(
            n_layers >= cfg.g_inter,
            "cannot split {n_layers} layers into {} stages",
            cfg.g_inter
        );
        for (r, m) in replicas.iter().enumerate() {
            assert_eq!(m.len(), n_layers, "replica {r} layer count differs");
        }
        assert_replicas_agree(&replicas);
        assert_eq!(
            replicas[0].params().len(),
            masks.len(),
            "one mask per parameter"
        );

        // Meshes: one pipeline ring per data replica, one data ring per
        // stage. Each rank takes endpoint [stage] of its replica's pipe
        // mesh and endpoint [data_idx] of its stage's data mesh.
        let new_faults = |n| {
            (0..n)
                .map(|_| Arc::new(FaultController::new()))
                .collect::<Vec<_>>()
        };
        let (pipe_faults, data_faults) = (new_faults(cfg.g_data), new_faults(cfg.g_inter));
        let mut pipe_meshes = meshes(&pipe_faults, cfg.g_inter);
        let mut data_meshes = meshes(&data_faults, cfg.g_data);

        let bounds = comms::segment_bounds(n_layers, cfg.g_inter);
        // Trace lanes are process-global so two groups alive in one
        // session (e.g. the bench sweeping pipeline depths) never share
        // a `tid` row in the combined trace.
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT_LANE: AtomicU64 = AtomicU64::new(0);
        let lane_base = NEXT_LANE.fetch_add((cfg.g_inter * cfg.g_data) as u64, Ordering::Relaxed);
        let mut workers = Vec::with_capacity(cfg.g_inter * cfg.g_data);
        for (data_idx, replica) in replicas.into_iter().enumerate() {
            let mut layers = replica.into_layers();
            // Split back-to-front so earlier bounds stay valid.
            let mut blocks: Vec<Sequential> = Vec::with_capacity(cfg.g_inter);
            for &(lo, _hi) in bounds.iter().rev() {
                blocks.push(Sequential::from_layers(layers.split_off(lo)));
            }
            blocks.reverse();
            let mut param_off = 0usize;
            for (stage, mut block) in blocks.into_iter().enumerate() {
                let n_params = block.params().len();
                let pipe_t = pipe_meshes[data_idx][stage].take().expect("pipe endpoint");
                let data_t = data_meshes[stage][data_idx].take().expect("data endpoint");
                let lane = lane_base + (data_idx * cfg.g_inter + stage) as u64;
                let comm = |t| {
                    Communicator::new(t)
                        .with_timeout(cfg.timeout)
                        .with_trace_lane(lane)
                };
                let mut engine = StepEngine::build(
                    &mut block,
                    &masks[param_off..param_off + n_params],
                    opt.clone(),
                    Ring(comm(data_t)),
                    &PIPELINE,
                );
                // Rank (0,0) reports for the group.
                engine.reports &= stage == 0;
                let rk = StageRank {
                    stage,
                    data_idx,
                    cfg: cfg.clone(),
                    lane,
                    param_off,
                    params_total: masks.len(),
                    block,
                    engine,
                    pipe: comm(pipe_t),
                    stats: StageStats::default(),
                    input_stash: Vec::new(),
                    cache_mb: None,
                    slots: (0..cfg.max_in_flight).map(|_| CacheSlot::default()).collect(),
                    stashing: false,
                    schedule: Schedule::new(stage, cfg.g_inter, cfg.microbatches, cfg.max_in_flight),
                };
                param_off += n_params;
                workers.push((format!("samo-pp-s{stage}d{data_idx}"), rk));
            }
        }
        ThreadedPipelineSamo {
            group: RankGroup::spawn(workers, cfg.g_inter),
            cfg,
            pipe_faults,
            data_faults,
            step_seq: 0,
        }
    }

    /// Pipeline depth.
    pub fn g_inter(&self) -> usize {
        self.cfg.g_inter
    }

    /// Data-parallel width.
    pub fn g_data(&self) -> usize {
        self.cfg.g_data
    }

    /// Fault injection handles, one per data replica's pipeline mesh
    /// (index = `data_idx`; ranks within it are stage indices).
    pub fn pipe_faults(&self) -> &[Arc<FaultController>] {
        &self.pipe_faults
    }

    /// Fault injection handles, one per stage's data mesh
    /// (index = `stage`; ranks within it are data indices).
    pub fn data_faults(&self) -> &[Arc<FaultController>] {
        &self.data_faults
    }

    /// Current loss scale (the loss-gradient closure receives it).
    pub fn loss_scale(&self) -> f32 {
        self.group.meta.loss_scale
    }

    /// Applied steps.
    pub fn steps_taken(&self) -> u64 {
        self.group.meta.steps_taken
    }

    /// Steps skipped on gradient overflow (all ranks skip together).
    pub fn steps_skipped(&self) -> u64 {
        self.group.meta.steps_skipped
    }

    /// Total parameters φ (per replica).
    pub fn numel(&self) -> usize {
        self.group.numel
    }

    /// Unpruned parameters fφ (per replica).
    pub fn nnz(&self) -> usize {
        self.group.nnz
    }

    /// Replaces the loss scaler on every rank (and the mirror).
    pub fn set_scaler(&mut self, scaler: LossScaler) {
        self.group.set_scaler(scaler);
    }

    /// Runs one pipelined training step. `input(data_idx, mb)` feeds
    /// stage 0; `loss_grad(data_idx, mb, y, scale)` turns the last
    /// stage's output into the scaled backward seed. Returns `Ok(true)`
    /// if applied, `Ok(false)` if skipped on overflow, `Err` if any
    /// rank failed (the group then needs [`Self::restore`]).
    pub fn step(
        &mut self,
        input: impl Fn(usize, usize) -> Tensor + Send + Sync + 'static,
        loss_grad: impl Fn(usize, usize, &Tensor, f32) -> Tensor + Send + Sync + 'static,
    ) -> Result<bool, String> {
        let step = self.step_seq;
        self.step_seq = self.step_seq.wrapping_add(1);
        let job = StepJob { input: Arc::new(input), loss_grad: Arc::new(loss_grad), step };
        self.group.step(job, step)
    }

    /// Serializes the group as one topology-independent v2 checkpoint:
    /// shards are gathered across data ranks and stage slices
    /// concatenated in model order, so the bytes equal what a
    /// single-process [`crate::SamoTrainer`] in the same state saves.
    pub fn save(&mut self) -> bytes::Bytes {
        self.group.save()
    }

    /// Restores a checkpoint on every rank and re-synchronizes the
    /// group (fresh epochs on both meshes + barriers). The recovery
    /// path after a failed step: heal the faulted links first.
    pub fn restore(&mut self, checkpoint: &[u8]) -> Result<(), String> {
        self.group.restore(checkpoint)
    }

    /// Per-rank scheduler statistics in rank order
    /// (`data_idx · g_inter + stage`).
    pub fn stage_stats(&mut self) -> Vec<StageStats> {
        self.group.stats()
    }

    /// Runs `f` on rank `(stage, data_idx)`'s thread with exclusive
    /// access to its stage block and sharded states.
    pub fn with_rank<R, F>(&mut self, stage: usize, data_idx: usize, f: F) -> R
    where
        R: Send + 'static,
        F: FnOnce(&mut Sequential, &[SamoLayerState]) -> R + Send + 'static,
    {
        self.group.with_rank(data_idx * self.cfg.g_inter + stage, f)
    }
}

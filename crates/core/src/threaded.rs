//! The rank-thread group: AxoNN's `G_inter × G_data` grid (paper
//! Sec. III) run one OS thread per point over the real message-passing
//! collectives of the `comms` crate. [`RankGroup`] is the one group type
//! for every grid point: one path builds each rank — the grid's one rank,
//! [`StageRank`] — from its block, its masks, its place and its endpoints,
//! and the group spawns their threads, mirrors the state they agree on
//! and steps, saves and restores them together.
//! [`crate::ThreadedPipelineSamo`] is the group of `Sequential` stage
//! blocks at any point of the grid; [`ThreadedDataParallelSamo`] is its
//! 1×G point over whole replicas of any model, on an in-process mesh or
//! the caller's endpoints. `samo-launch` runs the same rank one per
//! process. At one stage the grid has no pipeline mesh, and its ranks
//! report as `samo_dp_rank`; deeper, as `samo_pipeline`.
//!
//! Where [`crate::reference::DataParallelSamo`] loops over replicas
//! inside one thread and reduces gradients with the sequential oracle,
//! every rank here owns its block and a [`crate::engine::StepEngine`] —
//! sharded optimizer state, loss-scaler copy, and a [`comms::Communicator`]
//! endpoint of its stage's data mesh, in-process or TCP. Gradients
//! move through the chunked **ring reduce-scatter** (a shard needs the
//! mean on its own range only; the parameter all-gather after the
//! optimizer is the other half of an all-reduce's volume). A one-stage
//! step runs F (the step closure), B, which
//! hands each `Linear` weight's operands to a W, and W, which computes
//! the gradient at the shared index straight into `∇θ16` and starts each
//! bucket's ring as its gradients are final, overlapping the rest of W.
//! So a rank holds no dense gradient for a weight matrix, not even on a
//! dynamic-sparsity update step, whose B logs every product for the
//! epilogue to rank and then run. And because the rank owns its block,
//! the dense `θ16` is the block's weight: a `Linear` holds no f32
//! `value` while the rank trains and multiplies by the `θ16` its engine
//! lends for the step's F, B and W (`crate::engine`, module docs). Only the
//! inspection hook ([`RankGroup::with_rank`]) shows its
//! closure widened values, for the length of the call.
//! A thread group saves by copying each rank's owned ranges off its
//! thread; a process rank saves collectively ([`StageRank::save`]).
//!
//! # Bitwise equivalence with the in-process trainer
//!
//! The ring computes the same exact-f64-sum mean as
//! [`comms::reference::allreduce_mean_f16`], which is also what the
//! in-process trainer calls — so both runtimes take bitwise-identical
//! optimizer steps from identical seeds, regardless of thread timing
//! (`tests/data_parallel_threaded.rs` at the repository root asserts this).
//!
//! Loss-scale decisions cost one one-element flag per rank per step, sent
//! before the rank waits for the ring tail and collected after the means
//! are installed, so it costs no round trip of its own. After the
//! reduce-scatter a rank holds reduced bits on its own range only, so no
//! rank can scan them all. It does not need to: the exact mean of
//! finite f16 values is at most the largest of them in magnitude and so
//! cannot overflow, while a `±inf` or NaN input makes the sum — and the
//! mean — non-finite; a reduced value is therefore non-finite iff some
//! rank's *input* at that position was, which is the flag each rank's
//! fused compress already returns. The AND of those flags over the group
//! is the verdict a scan of every reduced bit would reach (a rank's local
//! flag and its owned reduced range say the same thing twice), and every
//! scaler replica applies it in lockstep. Because the flag depends on no
//! reduced bit, it can leave before the rings end (`crates/comms/tests/
//! ring_oracle.rs` checks the fact against the oracle). The parameter
//! all-gathers likewise leave one per bucket as its last optimizer pass
//! ends, and the rank then waits for them together.
//!
//! # Failure handling
//!
//! Injected link faults ([`RankGroup::pipe_faults`],
//! [`RankGroup::data_faults`]) surface as a step `Err` within the
//! communicator timeout — never a hang. A failed group refuses further
//! steps (poisoned) until [`RankGroup::restore`] reloads a
//! checkpoint on every rank, bumps the comms epochs (discarding stale
//! in-flight traffic), and barriers the group back together. A process
//! rank's peer that dies surfaces the same way, or sooner through the
//! TCP heartbeat (`PeerDead`) or the socket's EOF (`Closed`); the
//! survivors rendezvous again and rebuild their ranks on the new
//! communicator, and [`StageRank::restore`] rejoins them.

use crate::engine::{assert_replicas_agree, trainer_meta};
use crate::pipeline::{Job, PipelineConfig, StageRank, StageStats};
use crate::serialize::{save_ranges, TrainerMeta};
use crate::state::SamoLayerState;
use crate::trainer::samo_ring_allreduce_bytes;
use comms::{CommsError, Communicator, Endpoint, FaultController, Transport as _};
use nn::layer::Layer;
use nn::mixed::{LossScaler, Optimizer};
use prune::{Mask, MaskSchedule};
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use telemetry::json::Json;
use telemetry::StepEvent;
use tensor::Tensor;

/// Per-rank transport statistics, via [`ThreadedDataParallelSamo::comm_stats`].
#[derive(Debug, Clone, Copy)]
pub struct CommStats {
    /// Bytes actually pushed into this rank's links (headers included).
    pub wire_bytes: u64,
    /// Modeled f16 ring volume (`2·(G−1)/G · fφ · 2B` per step): the
    /// reduce-scatter of `∇θ16` plus the all-gather of `θ16`.
    pub model_allreduce_bytes: u64,
    /// Messages lost to injected faults on this rank's outgoing links.
    pub msgs_dropped: u64,
}

/// A rank whose busy time in a step (`Split::busy_us`) exceeds this
/// multiple of the group's lower median is reported as a straggler in the group's
/// `mesh_metrics` line. Step durations cannot tell: the collectives hold
/// every rank of a group in lockstep.
pub const STRAGGLER_FACTOR: f64 = 1.5;

/// What a rank thread reports back after a step (and after a restore):
/// the verdict, its trainer-level state — identical on every rank, and
/// what the calling thread mirrors — its unpruned parameter count,
/// which a dynamic-sparsity remap changes, and, with telemetry on, the
/// step's event (none for a restore).
pub(crate) struct StepOutcome {
    pub applied: bool,
    pub meta: TrainerMeta,
    pub nnz: usize,
    pub event: Option<StepEvent>,
}

/// A step as the group hands it to every rank.
pub(crate) type StepCall<M> = Arc<dyn Fn(&mut StageRank<M>) -> Result<bool, CommsError> + Send + Sync>;

/// Anything else a rank thread is asked: it runs there and replies on its
/// own channel.
type Call<M> = Box<dyn FnOnce(&mut StageRank<M>) + Send>;

enum Cmd<M> {
    Step(StepCall<M>),
    Restore(Arc<[u8]>),
    Call(Call<M>),
}

/// A rank thread: serves commands until the group drops its channel,
/// answering each step and restore with its outcome. A rank whose step
/// failed refuses further steps (poisoned) until a restore succeeds.
fn rank_loop<M: Layer>(mut rank: StageRank<M>, rx: Receiver<Cmd<M>>, tx: Sender<Result<StepOutcome, String>>) {
    let outcome = |rank: &StageRank<M>, applied, event| StepOutcome {
        applied,
        meta: rank.engine.meta(),
        nnz: rank.engine.nnz(),
        event,
    };
    let mut poisoned = false;
    while let Ok(cmd) = rx.recv() {
        let done = match cmd {
            Cmd::Step(_) if poisoned => Err(CommsError::Poisoned.to_string()),
            Cmd::Step(job) => {
                let stepped = job(&mut rank);
                poisoned = stepped.is_err();
                let event = || telemetry::enabled().then(|| rank.engine.step_event());
                stepped.map(|applied| outcome(&rank, applied, event())).map_err(|e| e.to_string())
            }
            Cmd::Restore(ck) => rank.restore(&ck).map(|()| {
                poisoned = false;
                outcome(&rank, false, None)
            }),
            Cmd::Call(f) => {
                f(&mut rank);
                continue;
            }
        };
        if tx.send(done).is_err() {
            return;
        }
    }
}

/// The one group of rank threads, for every point of the `G_inter ×
/// G_data` grid: one OS thread per [`StageRank`] — rank `d·g_inter + s`
/// is stage `s` of data replica `d` — plus the calling thread's mirror of
/// the state every rank agrees on. Typed by the model `M` its ranks
/// train, not by the wire they talk over. Built as
/// [`crate::ThreadedPipelineSamo`] (`Sequential` stage blocks, any grid
/// point) or inside [`ThreadedDataParallelSamo`] (whole replicas, 1×G);
/// either way it steps bitwise-equal to [`crate::SamoTrainer`] and, at
/// one stage, to [`crate::reference::DataParallelSamo`].
pub struct RankGroup<M> {
    cmd: Vec<Sender<Cmd<M>>>,
    resp: Vec<Receiver<Result<StepOutcome, String>>>,
    handles: Vec<JoinHandle<()>>,
    g_inter: usize,
    g_data: usize,
    /// What every rank reported after the last step or restore.
    meta: TrainerMeta,
    /// Total parameters φ (per replica).
    numel: usize,
    /// Unpruned parameters fφ (per replica).
    nnz: usize,
    /// One fault controller per data replica's pipeline mesh; none at one
    /// stage, which has no pipeline mesh.
    pipe_faults: Vec<Arc<FaultController>>,
    /// One fault controller per stage's data mesh.
    data_faults: Vec<Arc<FaultController>>,
}

impl<M: Layer + Send + 'static> RankGroup<M> {
    /// Builds `cfg`'s grid over `blocks` — rank `d·g_inter + s`'s at that
    /// index — and one mask per parameter of the whole model, and spawns
    /// one named thread per rank, in rank order. Each stage's data mesh is
    /// in-process unless `data` brings a one-stage grid's endpoints, in
    /// rank order, with the controller they were built with; each
    /// replica's pipeline mesh is in-process. Trace lanes are
    /// process-global, so two groups alive at once never share a `tid`
    /// row in the combined trace.
    pub(crate) fn build(
        blocks: Vec<M>,
        masks: &[Mask],
        opt: Optimizer,
        cfg: PipelineConfig,
        data: Option<(Vec<Endpoint>, Arc<FaultController>)>,
    ) -> RankGroup<M> {
        let (g_inter, g_data, ranks) = (cfg.g_inter, cfg.g_data, blocks.len());
        assert_eq!(ranks, g_inter * g_data, "one block per rank of the grid");
        let in_process = |meshes: usize, world: usize| {
            let faults: Vec<_> = (0..meshes).map(|_| Arc::new(FaultController::new())).collect();
            let mesh = |f: &Arc<_>| Endpoint::mesh_with_faults(world, Arc::clone(f)).into_iter().map(Some).collect();
            let ends: Vec<Vec<_>> = faults.iter().map(mesh).collect();
            (faults, ends)
        };
        // Rank (s, d) takes endpoint [d] of stage s's data mesh and
        // endpoint [s] of replica d's pipeline mesh.
        let (data_faults, mut data_ends) = match data {
            Some((ends, faults)) => (vec![faults], vec![ends.into_iter().map(Some).collect()]),
            None => in_process(g_inter, g_data),
        };
        let (pipe_faults, mut pipe_ends) = in_process(if g_inter > 1 { g_data } else { 0 }, g_inter);
        static NEXT_LANE: AtomicU64 = AtomicU64::new(0);
        let lane_base = NEXT_LANE.fetch_add(ranks as u64, Ordering::Relaxed);
        let mut group = RankGroup {
            cmd: Vec::with_capacity(ranks),
            resp: Vec::with_capacity(ranks),
            handles: Vec::with_capacity(ranks),
            g_inter,
            g_data,
            meta: trainer_meta(&LossScaler::default(), 0, 0),
            numel: 0,
            nnz: 0,
            pipe_faults,
            data_faults,
        };
        let mut param_off = 0;
        for (i, block) in blocks.into_iter().enumerate() {
            let (s, d) = (i % g_inter, i / g_inter);
            let comm = |t: Option<Endpoint>| {
                let t = t.expect("one endpoint per rank and mesh");
                Communicator::new(t).with_timeout(cfg.timeout).with_trace_lane(lane_base + i as u64)
            };
            let links = (comm(data_ends[s][d].take()), pipe_ends.get_mut(d).map(|e| comm(e[s].take())));
            if s == 0 {
                param_off = 0;
            }
            let n = block.params().len();
            let stage_masks = masks.get(param_off..param_off + n).expect("one mask per parameter");
            let params = (param_off, masks.len());
            let rank = StageRank::build(block, stage_masks, params, opt.clone(), cfg.clone(), (s, d), links);
            param_off += n;
            if d == 0 {
                // The stages of replica 0 make up one whole model.
                group.numel += rank.engine.numel();
                group.nnz += rank.engine.nnz();
            }
            let (ctx, crx) = channel();
            let (rtx, rrx) = channel();
            let run = move || rank_loop(rank, crx, rtx);
            group.handles.push(
                std::thread::Builder::new()
                    .name(format!("samo-rank-s{s}d{d}"))
                    .spawn(run)
                    .expect("spawn rank thread"),
            );
            group.cmd.push(ctx);
            group.resp.push(rrx);
        }
        group
    }

    /// Names rank `i` in error messages by its place.
    fn label(&self, i: usize) -> String {
        format!("stage {} (data {})", i % self.g_inter, i / self.g_inter)
    }

    /// Runs a step or a restore on every rank — concurrently, as the
    /// collectives inside require — joins the errors of the ranks that
    /// failed, and mirrors what the others reported. Returns every rank's
    /// outcome, in rank order.
    fn run(&mut self, cmd: impl Fn() -> Cmd<M>) -> Result<Vec<StepOutcome>, String> {
        for tx in &self.cmd {
            let _ = tx.send(cmd());
        }
        let mut outcomes = Vec::with_capacity(self.cmd.len());
        let mut errors = Vec::new();
        for (i, rx) in self.resp.iter().enumerate() {
            match rx.recv() {
                Ok(Ok(o)) => outcomes.push(o),
                Ok(Err(e)) => errors.push(format!("{}: {e}", self.label(i))),
                Err(_) => errors.push(format!("{}: thread died", self.label(i))),
            }
        }
        if !errors.is_empty() {
            return Err(errors.join("; "));
        }
        let first = &outcomes[0];
        debug_assert!(
            outcomes
                .iter()
                .all(|o| (o.applied, o.meta) == (first.applied, first.meta)),
            "ranks must agree on the step verdict"
        );
        self.meta = first.meta;
        // A dynamic-sparsity remap may have changed the masks.
        self.nnz = outcomes[..self.g_inter].iter().map(|o| o.nnz).sum();
        Ok(outcomes)
    }

    /// Runs `job` as one training step on every rank; `Err` if any rank's
    /// collective failed (the group then needs [`Self::restore`]). With
    /// telemetry on, the ranks' step events become the `mesh_metrics` line
    /// of the step, numbered as the ranks' engines number it.
    fn run_step(&mut self, job: StepCall<M>) -> Result<bool, String> {
        let index = self.meta.steps_taken + self.meta.steps_skipped;
        let outcomes = self.run(|| Cmd::Step(Arc::clone(&job)))?;
        let events: Option<Vec<&StepEvent>> = outcomes.iter().map(|o| o.event.as_ref()).collect();
        if let Some(events) = events {
            telemetry::jsonl::emit_line(&mesh_metrics(index as u32, &events));
        }
        Ok(outcomes[0].applied)
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
        self.run_step(Arc::new(move |rank: &mut StageRank<M>| rank.run(&Job::Split(&input, &loss_grad))))
    }

    /// Restores a checkpoint written by any runtime at any grid point on
    /// every rank and re-synchronizes the group (fresh epochs on every
    /// mesh + barriers). This is the recovery path after a failed step:
    /// heal the faulted links first, then restore.
    pub fn restore(&mut self, checkpoint: &[u8]) -> Result<(), String> {
        let ck: Arc<[u8]> = checkpoint.into();
        self.run(|| Cmd::Restore(Arc::clone(&ck))).map(|_| ())
    }

    /// Number of rank threads, `g_inter · g_data`.
    pub fn world_size(&self) -> usize {
        self.cmd.len()
    }

    /// Current loss scale (multiply the loss before backward — the step
    /// and loss-gradient closures receive it).
    pub fn loss_scale(&self) -> f32 {
        self.meta.loss_scale
    }

    /// Applied steps.
    pub fn steps_taken(&self) -> u64 {
        self.meta.steps_taken
    }

    /// Steps skipped on gradient overflow (every rank skips together).
    pub fn steps_skipped(&self) -> u64 {
        self.meta.steps_skipped
    }

    /// Total parameters φ (per replica).
    pub fn numel(&self) -> usize {
        self.numel
    }

    /// Unpruned parameters fφ (per replica).
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Fault injection handles, one per data replica's pipeline mesh
    /// (index = `data_idx`; ranks within it are stage indices). Empty at
    /// one stage.
    pub fn pipe_faults(&self) -> &[Arc<FaultController>] {
        &self.pipe_faults
    }

    /// Fault injection handles, one per stage's data mesh (index =
    /// `stage`; ranks within it are data indices).
    pub fn data_faults(&self) -> &[Arc<FaultController>] {
        &self.data_faults
    }

    /// Replaces the loss scaler on every rank (and the mirror).
    pub fn set_scaler(&mut self, scaler: LossScaler) {
        self.meta = trainer_meta(&scaler, self.meta.steps_taken, self.meta.steps_skipped);
        self.each(move |rank| rank.engine.scaler = scaler.clone());
    }

    /// Installs a dynamic-sparsity [`MaskSchedule`] on every rank. Masks
    /// are per layer, so an update step's remap stays inside each stage's
    /// data group: its Bs log the products (the grow score streams from
    /// them), and the epilogue remaps, runs them at the new index,
    /// compresses and reduces on a fresh epoch of the stage's data mesh —
    /// the ranks recompute the masks from identical reduced bits, with no
    /// broadcast, and the trajectory stays bitwise identical to a
    /// [`crate::SamoTrainer`] driven by the same schedule.
    // TEST-API: `dynamic_sparsity`, `pipeline_threaded` and `pipeline_jitter` train a group with dynamic sparsity.
    pub fn set_mask_schedule(&mut self, schedule: MaskSchedule) {
        self.each(move |rank| rank.set_mask_schedule(schedule.clone()));
    }

    /// Per-rank scheduler statistics in rank order
    /// (`data_idx · g_inter + stage`).
    pub fn stage_stats(&self) -> Vec<StageStats> {
        self.each(|rank| rank.stats())
    }

    /// The runtime each rank's steps report as (a step record's
    /// `runtime`), in rank order: the grid names it, not the constructor.
    // TEST-API: `pipeline_threaded` checks that both constructors' 1×G groups report as one runtime.
    pub fn runtimes(&self) -> Vec<&'static str> {
        self.each(|rank| rank.engine.step_event().runtime)
    }

    /// Posts `f` to rank `i`'s thread; its reply comes on the receiver.
    fn post<R: Send + 'static>(&self, i: usize, f: impl FnOnce(&mut StageRank<M>) -> R + Send + 'static) -> Receiver<R> {
        let (tx, rx) = channel();
        let _ = self.cmd[i].send(Cmd::Call(Box::new(move |rank| {
            let _ = tx.send(f(rank));
        })));
        rx
    }

    /// Runs `f` on every rank's thread, all at once, and returns the
    /// replies in rank order.
    fn each<R: Send + 'static>(&self, f: impl Fn(&mut StageRank<M>) -> R + Clone + Send + 'static) -> Vec<R> {
        let replies: Vec<_> = (0..self.cmd.len()).map(|i| self.post(i, f.clone())).collect();
        replies.iter().map(|rx| rx.recv().expect("rank thread died")).collect()
    }

    /// Serializes the group as one topology-independent v2 checkpoint:
    /// each layer's owned ranges are gathered across the data-parallel
    /// ranks that hold it and the stages' layers concatenated in model
    /// order, so the bytes equal what a single-process
    /// [`crate::SamoTrainer`] in the same state saves — a checkpoint
    /// written at one grid point restores into any other. Only what the
    /// checkpoint carries is copied off the rank threads (`14 B` per
    /// kept value in all): no dense `θ16`, no index. A group whose step
    /// failed has no consistent state to save (its rings kept `∇θ16`):
    /// restore first.
    pub fn save(&self) -> bytes::Bytes {
        let mut ranks = self.each(|rank| {
            let layers = rank.engine.layers.iter();
            let owned = layers.map(|l| (l.mask().clone(), l.owned_range().into_owned()));
            owned.collect::<Vec<_>>().into_iter()
        });
        let mut layers = Vec::new();
        for stage in 0..self.g_inter {
            while let Some((mask, first)) = ranks[stage].next() {
                let rest = (1..self.g_data).map(|d| ranks[d * self.g_inter + stage].next());
                let rest = rest.map(|l| l.expect("every replica holds the same layers").1);
                layers.push((mask, std::iter::once(first).chain(rest).collect()));
            }
        }
        save_ranges(&layers, &self.meta)
    }

    /// Runs `f` on rank `(stage, data_idx)`'s thread with exclusive access
    /// to its block and layer states, and returns the result — the
    /// inspection hook tests use to compare bits across runtimes. The
    /// block's `value`s are current for the call (the widened `θ16`, a
    /// transient `4φ` bytes, released again after it): a step closure
    /// sees the training form instead. Panics on a place outside the grid.
    pub fn with_rank<R, F>(&self, stage: usize, data_idx: usize, f: F) -> R
    where
        R: Send + 'static,
        F: FnOnce(&mut M, &[SamoLayerState]) -> R + Send + 'static,
    {
        let (g_inter, g_data) = (self.g_inter, self.g_data);
        assert!(
            stage < g_inter && data_idx < g_data,
            "no rank at stage {stage} (data {data_idx}) of a {g_inter}×{g_data} grid"
        );
        let inspect = move |rank: &mut StageRank<M>| {
            let (model, engine) = (&mut rank.block, &mut rank.engine);
            // `value`s current for the closure: widened from θ16, which
            // is home again before the closure sees the states.
            engine.lend_theta16(model, true);
            model.for_each_param_mut(&mut |p| p.widen_value());
            engine.lend_theta16(model, false);
            let out = f(model, &engine.layers);
            model.for_each_param_mut(&mut |p| p.release_value());
            out
        };
        let rank = data_idx * g_inter + stage;
        self.post(rank, inspect).recv().expect("rank thread died during inspect")
    }
}

/// One group step's `mesh_metrics` line: every rank's step event in rank
/// order, the median and largest of their windows, and the stragglers,
/// each warned of too — a rank whose busy time (`Split::busy_us`) exceeds
/// [`STRAGGLER_FACTOR`] × the lower median of the group's.
fn mesh_metrics(step: u32, events: &[&StepEvent]) -> Json {
    let lower_median = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[(v.len() - 1) / 2]
    };
    let busy = lower_median(events.iter().map(|ev| ev.split.busy_us()).collect());
    let median = lower_median(events.iter().map(|ev| ev.split.window_us()).collect());
    let max = events.iter().map(|ev| ev.split.window_us()).fold(0.0, f64::max);
    let mut stragglers = Vec::new();
    for ev in events.iter().filter(|_| events.len() > 1) {
        let busy_us = ev.split.busy_us();
        if busy_us > STRAGGLER_FACTOR * busy {
            let (stage, data) = (ev.stage, ev.data);
            telemetry::log_warn!(
                "straggler: stage {stage} (data {data}) step {step} computed {busy_us:.0}us ({:.2}x the group's lower median)",
                busy_us / busy
            );
            stragglers.push(Json::Obj(vec![
                ("stage".into(), Json::UInt(stage)),
                ("data".into(), Json::UInt(data)),
                ("ratio".into(), Json::Num(busy_us / busy)),
            ]));
        }
    }
    Json::Obj(vec![
        ("kind".into(), Json::from("mesh_metrics")),
        ("step".into(), Json::UInt(u64::from(step))),
        ("ranks".into(), Json::UInt(events.len() as u64)),
        ("median_us".into(), Json::Num(median)),
        ("max_us".into(), Json::Num(max)),
        ("per_rank".into(), Json::Arr(events.iter().map(|ev| ev.to_json()).collect())),
        ("stragglers".into(), Json::Arr(stragglers)),
    ])
}

impl<M> Drop for RankGroup<M> {

    fn drop(&mut self) {
        // A closed channel is the shutdown message.
        self.cmd.clear();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// The 1×G point of the grid over whole replicas of any model: a
/// [`RankGroup`] of one-stage ranks, each stepped by one closure, whose
/// gradients move through the `comms` ring reduce-scatter. It derefs to
/// its group for everything but the members below. Drop-in peer of
/// [`crate::reference::DataParallelSamo`] (same step semantics, same bits).
pub struct ThreadedDataParallelSamo<M: Layer + Send + 'static> {
    group: RankGroup<M>,
    allreduce_bytes: u64,
}

impl<M: Layer + Send + 'static> Deref for ThreadedDataParallelSamo<M> {
    type Target = RankGroup<M>;

    fn deref(&self) -> &RankGroup<M> {
        &self.group
    }
}

impl<M: Layer + Send + 'static> DerefMut for ThreadedDataParallelSamo<M> {
    fn deref_mut(&mut self) -> &mut RankGroup<M> {
        &mut self.group
    }
}

impl<M: Layer + Send + 'static> ThreadedDataParallelSamo<M> {
    /// Builds the group from identically initialized replicas and one
    /// mask per parameter tensor, and spawns one thread per rank.
    pub fn new(replicas: Vec<M>, masks: Vec<Mask>, opt: Optimizer) -> ThreadedDataParallelSamo<M> {
        Self::with_comm_timeout(replicas, masks, opt, comms::collectives::DEFAULT_TIMEOUT)
    }

    /// Like [`Self::new`] with an explicit collective deadline (tests
    /// with injected faults want a short one).
    pub fn with_comm_timeout(
        replicas: Vec<M>,
        masks: Vec<Mask>,
        opt: Optimizer,
        timeout: Duration,
    ) -> ThreadedDataParallelSamo<M> {
        Self::over(replicas, &masks, opt, timeout, None)
    }

    /// Builds the group over caller-supplied endpoints — the same rank
    /// threads and collectives over whatever wire they were built on
    /// (e.g. loopback [`Endpoint::local_mesh`] sockets, proving the
    /// runtime is wire-agnostic bit for bit). `transports[r]` must
    /// report rank `r`, and `faults` must be the controller those
    /// endpoints were built with, so that [`Self::faults`] steers them.
    pub fn with_transports(
        replicas: Vec<M>,
        masks: Vec<Mask>,
        opt: Optimizer,
        timeout: Duration,
        transports: Vec<Endpoint>,
        faults: Arc<FaultController>,
    ) -> ThreadedDataParallelSamo<M> {
        assert_eq!(transports.len(), replicas.len(), "one transport endpoint per replica");
        for (r, t) in transports.iter().enumerate() {
            assert_eq!(t.rank(), r, "transport endpoints must arrive in rank order");
            let foreign = "`faults` must be the controller the endpoints were built with";
            assert!(Arc::ptr_eq(&faults, t.faults()), "rank {r}: {foreign}");
        }
        Self::over(replicas, &masks, opt, timeout, Some((transports, faults)))
    }

    /// The 1×G grid of `replicas` over `data`'s endpoints, or in process.
    fn over(
        replicas: Vec<M>,
        masks: &[Mask],
        opt: Optimizer,
        timeout: Duration,
        data: Option<(Vec<Endpoint>, Arc<FaultController>)>,
    ) -> ThreadedDataParallelSamo<M> {
        assert_replicas_agree(&replicas);
        let cfg = PipelineConfig { g_data: replicas.len(), timeout, ..PipelineConfig::new(1, 1, 0) };
        let group = RankGroup::build(replicas, masks, opt, cfg, data);
        ThreadedDataParallelSamo { group, allreduce_bytes: 0 }
    }

    /// Fault injection handle for every link of the mesh.
    pub fn faults(&self) -> &Arc<FaultController> {
        &self.group.data_faults[0]
    }

    /// Cumulative modeled ring all-reduce bytes, same formula as
    /// [`crate::reference::DataParallelSamo::allreduce_bytes`].
    pub fn allreduce_bytes(&self) -> u64 {
        self.allreduce_bytes
    }

    /// Runs one concurrent training step: every rank thread executes
    /// `f(rank, model, loss_scale)` (forward + scaled backward seed), B,
    /// then W with each bucket's ring reduce-scatter started inside it,
    /// the fused step on the owned range, and the parameter all-gathers,
    /// each started as its bucket's last pass ends. Returns `Ok(true)` if applied, `Ok(false)` if
    /// skipped on overflow, and `Err` if any rank's collective failed
    /// (the group then needs [`RankGroup::restore`]).
    pub fn step(
        &mut self,
        f: impl Fn(usize, &mut M, f32) -> Tensor + Send + Sync + 'static,
    ) -> Result<bool, String> {
        let applied = self.group.run_step(Arc::new(move |rank: &mut StageRank<M>| rank.step(&f)))?;
        self.allreduce_bytes += samo_ring_allreduce_bytes(self.nnz() as u64, self.world_size() as u64);
        Ok(applied)
    }

    /// Per-rank transport statistics (wire bytes, modeled ring bytes,
    /// fault-dropped messages), in rank order.
    pub fn comm_stats(&self) -> Vec<CommStats> {
        self.group.each(|rank| {
            let comm = rank.engine.comm();
            CommStats {
                wire_bytes: comm.transport().bytes_sent(),
                model_allreduce_bytes: comm.model_allreduce_bytes(),
                msgs_dropped: comm.transport().msgs_dropped(),
            }
        })
    }

    /// Runs `f` on rank `rank`'s thread: [`RankGroup::with_rank`] at its
    /// one stage.
    pub fn with_rank<R, F>(&self, rank: usize, f: F) -> R
    where
        R: Send + 'static,
        F: FnOnce(&mut M, &[SamoLayerState]) -> R + Send + 'static,
    {
        self.group.with_rank(0, rank, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::ThreadedPipelineSamo;
    use nn::layer::Sequential;
    use nn::linear::Linear;
    use nn::loss::mse;
    use nn::optim::AdamConfig;
    use std::sync::Mutex;
    use std::time::Instant;
    use telemetry::ledger::{Phase, Split};

    const WIDTH: usize = 8;
    const DELAY: Duration = Duration::from_millis(3);

    fn adam() -> Optimizer {
        Optimizer::Adam(AdamConfig::default())
    }

    /// Scaled `d(mse)/d(y)` against a fixed target.
    fn loss_grad(y: &Tensor, scale: f32) -> Tensor {
        let (_, mut dy) = mse(y, &Tensor::randn(y.shape(), 1.0, 4));
        tensor::ops::scale(scale, dy.as_mut_slice());
        dy
    }

    /// Each rank's place, ledger split and step call as the test's own
    /// clock timed it, in microseconds.
    type Rulers = Arc<Mutex<Vec<((usize, usize), Split, f64)>>>;

    /// `step` as a group step whose every call the test times itself.
    fn timed<M: Layer + 'static>(
        rulers: &Rulers,
        step: impl Fn(&mut StageRank<M>) -> Result<bool, CommsError> + Send + Sync + 'static,
    ) -> StepCall<M> {
        let rulers = Arc::clone(rulers);
        Arc::new(move |rank: &mut StageRank<M>| {
            let t0 = Instant::now();
            let stepped = step(rank);
            let dur_us = t0.elapsed().as_secs_f64() * 1e6;
            let ruled = (rank.engine.place, rank.engine.ledger.split(), dur_us);
            rulers.lock().expect("no rank panics holding the rulers").push(ruled);
            stepped
        })
    }

    /// Every rank's phases sum to its ledger window, and the window is
    /// the test's own ruler of the rank's step call within 1 %. Returns
    /// the ranks' splits.
    fn assert_windows_match_dur(rulers: &Rulers, ranks: usize) -> Vec<Split> {
        let ruled: Vec<_> = rulers.lock().expect("no rank panicked").drain(..).collect();
        assert_eq!(ruled.len(), ranks);
        for &(place, split, dur_us) in &ruled {
            let sum: u64 = Phase::ALL.iter().map(|&p| split.ns(p)).sum();
            let window_us = split.window_us();
            assert_eq!(sum as f64 / 1e3, window_us, "{place:?}: {split:?}");
            let off = (window_us - dur_us).abs() / dur_us;
            assert!(off <= 0.01, "{place:?}: window {window_us:.1}us vs dur {dur_us:.1}us");
        }
        ruled.into_iter().map(|(_, split, _)| split).collect()
    }

    /// Four ranks' planted splits, placed `(stage, data)`: rank 1 waits
    /// and idles far longer than the rest and computes no longer; rank 2's
    /// extra time is a remap, rank 3's an optimizer pass.
    fn planted_group() -> Vec<StepEvent> {
        let base = [1_234_567, 2_345_678, 345_679, 12_345, 456_789, 0, 98_765, 543_210, 210_987, 87_654, 7_654];
        let idle = [1_300_001, 2_400_003, 400_005, 11_111, 9_876_543, 0, 90_001, 600_007, 200_003, 80_009, 6_000_001];
        let (mut remap, mut optimizer) = (base, base);
        remap[Phase::Remap as usize] = 6_000_000;
        optimizer[Phase::Optimizer as usize] = 6_500_000;
        let splits = [(base, 321_098), (idle, 0), (remap, 321_098), (optimizer, 1)];
        let places = [(0, 0), (1, 0), (0, 1), (1, 1)];
        let event = |(&(stage, data), &(ns, hidden)): (&(u64, u64), &_)| StepEvent {
            runtime: "samo_dp_rank",
            step: 5,
            stage,
            data,
            applied: true,
            loss_scale: 1024.0,
            steps_taken: 6,
            numel: 100,
            nnz: 10,
            model_state_bytes: 440,
            allreduce_bytes: 20,
            split: Split::planted(ns, hidden),
            ..StepEvent::default()
        };
        places.iter().zip(&splits).map(event).collect()
    }

    /// A straggler has more busy time, whichever busy phase holds it — a
    /// remap or an optimizer pass as much as F, B or W — and waiting or
    /// unaccounted time makes none. The line reads as it did when the
    /// rule matched phase names: every rank's record, then these numbers.
    #[test]
    fn stragglers_are_busy_longer_by_the_ledgers_rule() {
        let events = planted_group();
        let line = mesh_metrics(5, &events.iter().collect::<Vec<_>>()).render();
        let per_rank = Json::Arr(events.iter().map(StepEvent::to_json).collect()).render();
        let head = r#"{"kind":"mesh_metrics","step":5,"ranks":4,"median_us":11343.328,"max_us":20957.684,"per_rank":"#;
        let tail = concat!(
            r#","stragglers":[{"stage":0,"data":1,"ratio":2.331582161601799},"#,
            r#"{"stage":1,"data":1,"ratio":2.3974163630039365}]}"#
        );
        assert_eq!(line, format!("{head}{per_rank}{tail}"));
    }

    #[test]
    fn every_data_parallel_rank_charges_its_whole_step() {
        let replicas = (0..3).map(|_| Linear::new(WIDTH, WIDTH, true, 1)).collect::<Vec<_>>();
        let prune = |p: &&nn::Parameter| prune::magnitude_prune(p.value.as_slice(), p.value.shape(), 0.5);
        let masks = replicas[0].params().iter().map(prune).collect();
        let mut dp = ThreadedDataParallelSamo::new(replicas, masks, adam());
        let rulers = Rulers::default();
        let job = timed(&rulers, |rank: &mut StageRank<Linear>| {
            rank.step(|_, m: &mut Linear, scale| {
                std::thread::sleep(DELAY);
                loss_grad(&m.forward(&Tensor::randn(&[4, WIDTH], 1.0, 3)), scale)
            })
        });
        for _ in 0..2 {
            dp.run_step(Arc::clone(&job)).expect("healthy mesh");
            let splits = assert_windows_match_dur(&rulers, 3);
            assert!(splits.iter().all(|s| s.ns(Phase::F) >= DELAY.as_nanos() as u64));
        }
    }

    #[test]
    fn a_ring_that_sleeps_on_a_slow_peer_charges_a_wait() {
        // Two ranks; in one group every message from rank 1 to rank 0 is
        // held for `DELAY`. Rank 0's ring sleeps on it: a wait, inside the
        // reduce, and not a bit of the state moves.
        let group = || {
            let replicas = (0..2).map(|_| Linear::new(WIDTH, WIDTH, true, 1)).collect::<Vec<_>>();
            let prune = |p: &&nn::Parameter| prune::magnitude_prune(p.value.as_slice(), p.value.shape(), 0.5);
            let masks = replicas[0].params().iter().map(prune).collect();
            ThreadedDataParallelSamo::new(replicas, masks, adam())
        };
        let (mut calm, mut slow) = (group(), group());
        slow.data_faults()[0].delay_link(1, 0, DELAY);
        let rulers = Rulers::default();
        let job = |rulers: &Rulers| {
            timed(rulers, |rank: &mut StageRank<Linear>| {
                rank.step(|_, m: &mut Linear, scale| loss_grad(&m.forward(&Tensor::randn(&[4, WIDTH], 1.0, 3)), scale))
            })
        };
        for _ in 0..2 {
            calm.run_step(job(&Rulers::default())).expect("healthy mesh");
            slow.run_step(job(&rulers)).expect("a slow link is not a dead one");
            let splits = assert_windows_match_dur(&rulers, 2);
            assert!(splits.iter().any(|s| s.ns(Phase::Wait) >= DELAY.as_nanos() as u64), "{splits:?}");
        }
        let crc = |g: &ThreadedDataParallelSamo<Linear>| crate::serialize::crc32(&g.save());
        assert_eq!(crc(&slow), crc(&calm), "the wait moves no bit of the state");
    }

    #[test]
    fn every_pipeline_rank_charges_its_whole_step() {
        let model = || models::uniform_pipeline_mlp_delayed(2, WIDTH, 7, DELAY, DELAY);
        let masks = models::uniform_pipeline_masks(&model(), 0.5);
        let cfg = PipelineConfig { g_data: 2, ..PipelineConfig::new(2, 4, 4) };
        let mut pp = ThreadedPipelineSamo::new(vec![model(), model()], masks, adam(), cfg);
        let rulers = Rulers::default();
        for _ in 0..2 {
            let input = |_: usize, mb: usize| Tensor::randn(&[4, WIDTH], 1.0, mb as u64);
            let seed = |_: usize, _: usize, y: &Tensor, scale: f32| loss_grad(y, scale);
            let job = timed(&rulers, move |rank: &mut StageRank<Sequential>| rank.run(&Job::Split(&input, &seed)));
            pp.run_step(job).expect("healthy pipeline");
            for s in assert_windows_match_dur(&rulers, 4) {
                assert!(s.ns(Phase::F) >= 4 * DELAY.as_nanos() as u64, "{s:?}");
                assert!(s.ns(Phase::Wait) > 0, "a stage of two waits: {s:?}");
            }
        }
    }
}

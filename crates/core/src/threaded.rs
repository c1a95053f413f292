//! Data-parallel SAMO training over the real message-passing collectives
//! runtime in the `comms` crate: the one data-parallel rank,
//! [`DataParallelRank`], run one per OS thread by
//! [`ThreadedDataParallelSamo`] and one per process by `samo-launch`.
//!
//! Where [`crate::reference::DataParallelSamo`] loops over replicas
//! inside one thread and reduces gradients with the sequential oracle,
//! every rank here owns its replica and a [`StepEngine`] — sharded
//! optimizer state, loss-scaler copy, and a [`comms::Communicator`]
//! endpoint of an in-process mesh or a TCP one. Gradients
//! move through the chunked **ring reduce-scatter** (a shard needs the
//! mean on its own range only; the parameter all-gather after the
//! optimizer is the other half of an all-reduce's volume), and the
//! reduction is started per gradient bucket from inside backward
//! ([`Layer::backward_into`] the engine's gradient sink), so
//! communication overlaps the rest of the backward pass exactly as on a
//! real cluster. The rank drives backward itself, so it can also take a
//! `Linear`'s weight gradient from the operands of its product: it is
//! computed at the shared index straight into `∇θ16`, and a rank holds
//! no dense gradient for a weight matrix between steps — only on a
//! dynamic-sparsity update step, whose plain backward materialises them
//! as the grow score. And because the rank owns its replica, the dense
//! `θ16` is the replica's weight: a `Linear` holds no f32 `value` while
//! the rank trains and multiplies by the `θ16` its engine lends for the
//! step closure and backward (`crate::engine`, module docs). Only the
//! inspection hook ([`ThreadedDataParallelSamo::with_rank`]) shows its
//! closure widened values, for the length of the call. The thread
//! protocol, `RankGroup`, is shared with [`crate::ThreadedPipelineSamo`].
//! A thread group saves by copying each rank's owned ranges off its
//! thread; a process rank saves collectively ([`DataParallelRank::save`]).
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
//! Injected link faults ([`ThreadedDataParallelSamo::faults`]) surface
//! as a step `Err` within the communicator timeout — never a hang. A
//! failed group refuses further steps (poisoned) until
//! [`ThreadedDataParallelSamo::restore`] reloads a
//! checkpoint on every rank, bumps the comms epoch (discarding stale
//! in-flight traffic), and barriers the group back together. A process
//! rank's peer that dies surfaces the same way, or sooner through the
//! TCP heartbeat (`PeerDead`) or the socket's EOF (`Closed`); the
//! survivors rendezvous again and rebuild their ranks on the new
//! communicator, and [`DataParallelRank::restore`] rejoins them.

use crate::engine::{assert_replicas_agree, gather_full, trainer_meta, StepEngine, DP_THREADED};
use crate::serialize::{save_checkpoint, save_ranges, TrainerMeta};
use crate::state::{OwnedRange, SamoLayerState};
use crate::trainer::samo_ring_allreduce_bytes;
use comms::{CommsError, Communicator, Endpoint, FaultController, Transport as _};
use nn::layer::Layer;
use nn::mixed::{LossScaler, Optimizer};
use prune::{Mask, MaskSchedule};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use telemetry::json::Json;
use telemetry::ledger::{Phase, Split};
use tensor::Tensor;

/// The per-step work a rank thread runs before the collective phase:
/// forward on this rank's batch, loss, and backward seed — returns the
/// **scaled** output gradient `d(scale·loss)/d(output)` for backward.
pub type StepFn<M> = Arc<dyn Fn(usize, &mut M, f32) -> Tensor + Send + Sync>;

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

/// A rank whose compute time in a step exceeds this multiple of the
/// group's lower median is reported as a straggler in the group's
/// `mesh_metrics` line. Step durations cannot tell: the collectives hold
/// every rank of a group in lockstep.
pub const STRAGGLER_FACTOR: f64 = 1.5;

/// The phases of a rank's ledger it computes in, rather than talks or
/// waits.
const COMPUTE: [Phase; 6] = [Phase::F, Phase::B, Phase::W, Phase::Compress, Phase::Optimizer, Phase::Remap];

/// What a rank thread reports back after a step (and after a restore):
/// the verdict, its trainer-level state — identical on every rank, and
/// what the calling thread mirrors — its unpruned parameter count,
/// which a dynamic-sparsity remap changes, how long the step took and
/// where that time went.
pub(crate) struct StepOutcome {
    pub applied: bool,
    pub meta: TrainerMeta,
    pub nnz: usize,
    /// The step's wall time on the rank's thread (0 for a restore).
    pub dur_us: f64,
    /// The rank's phase split of the step (of the last one, for a restore).
    pub split: Split,
}

/// What [`RankGroup`] needs of the state a rank thread owns.
pub(crate) trait RankWorker: Send + 'static {
    type Model: Layer;
    /// What one step is told to do.
    type Job: Clone + Send + 'static;
    type Stats: Send + 'static;
    /// The compute model and the engine training it.
    fn parts(&mut self) -> (&mut Self::Model, &mut StepEngine);
    /// Runs one training step; `Ok(false)` if skipped on overflow.
    fn step(&mut self, job: &Self::Job) -> Result<bool, CommsError>;
    /// Reloads the rank's part of a full checkpoint, then rejoins the
    /// group on fresh comms epochs.
    fn restore(&mut self, checkpoint: &[u8]) -> Result<(), String>;
    fn stats(&self) -> Self::Stats;
}

type InspectFn<M> = Box<dyn FnOnce(&mut M, &[SamoLayerState]) + Send>;

enum Cmd<M, J> {
    Step(J),
    Restore(Arc<[u8]>),
    SetScaler(LossScaler),
    SetSchedule(MaskSchedule),
    Stats,
    Save,
    Inspect(InspectFn<M>),
}

enum Resp<S> {
    /// A step's or a restore's result.
    Done(Result<StepOutcome, String>),
    Stats(S),
    /// Per layer, what a checkpoint carries of this rank's state: the
    /// mask (shared, not copied) and copies of the owned ranges.
    Saved(Vec<(Mask, OwnedRange<'static>)>),
    Ack,
}

/// A rank thread: serves commands until the group drops its channel.
/// A rank whose step failed refuses further steps (poisoned) until a
/// restore succeeds.
fn rank_loop<W: RankWorker>(
    mut w: W,
    rx: Receiver<Cmd<W::Model, W::Job>>,
    tx: Sender<Resp<W::Stats>>,
) {
    let outcome = |w: &mut W, applied, dur_us| {
        let engine = w.parts().1;
        StepOutcome {
            applied,
            meta: engine.meta(),
            nnz: engine.nnz(),
            dur_us,
            split: engine.ledger.split(),
        }
    };
    let mut poisoned = false;
    while let Ok(cmd) = rx.recv() {
        let resp = match cmd {
            Cmd::Step(_) if poisoned => Resp::Done(Err(CommsError::Poisoned.to_string())),
            Cmd::Step(job) => {
                let t0 = Instant::now();
                match w.step(&job) {
                    Ok(applied) => {
                        let dur_us = t0.elapsed().as_secs_f64() * 1e6;
                        Resp::Done(Ok(outcome(&mut w, applied, dur_us)))
                    }
                    Err(e) => {
                        poisoned = true;
                        // A pipeline schedule that ended in `Err` left θ16 lent.
                        let (model, engine) = w.parts();
                        engine.lend_theta16(model, false);
                        Resp::Done(Err(e.to_string()))
                    }
                }
            }
            Cmd::Restore(ck) => Resp::Done(w.restore(&ck).map(|()| {
                poisoned = false;
                outcome(&mut w, false, 0.0)
            })),
            Cmd::SetScaler(s) => {
                w.parts().1.scaler = s;
                Resp::Ack
            }
            Cmd::SetSchedule(s) => {
                w.parts().1.install_schedule(s);
                Resp::Ack
            }
            Cmd::Stats => Resp::Stats(w.stats()),
            Cmd::Save => {
                let layers = w.parts().1.layers.iter();
                Resp::Saved(layers.map(|l| (l.mask().clone(), l.owned_range().into_owned())).collect())
            }
            Cmd::Inspect(f) => {
                let (model, engine) = w.parts();
                // `value`s current for the closure: widened from θ16, which
                // is home again before the closure sees the states.
                engine.lend_theta16(model, true);
                model.for_each_param_mut(&mut |p| p.widen_value());
                engine.lend_theta16(model, false);
                f(model, &engine.layers);
                model.for_each_param_mut(&mut |p| p.release_value());
                Resp::Ack
            }
        };
        if tx.send(resp).is_err() {
            return;
        }
    }
}

/// One OS thread per rank plus the calling thread's mirror of the state
/// every rank agrees on. Typed by what crosses the channels — the
/// model `M`, the step job `J` and the per-rank stats `S` — not by the
/// transport the rank threads talk over.
pub(crate) struct RankGroup<M, J, S> {
    cmd: Vec<Sender<Cmd<M, J>>>,
    resp: Vec<Receiver<Resp<S>>>,
    handles: Vec<JoinHandle<()>>,
    /// Pipeline depth: rank `i` is stage `i % g_inter` of data replica
    /// `i / g_inter` (1 for plain data parallelism).
    g_inter: usize,
    pub meta: TrainerMeta,
    /// Total parameters φ (per replica).
    pub numel: usize,
    /// Unpruned parameters fφ (per replica).
    pub nnz: usize,
    /// Rolling per-rank step durations `(sum_us, samples)`, in rank order.
    dur_stats: Vec<(f64, u64)>,
}

impl<M: 'static, J: Clone + Send + 'static, S: Send + 'static> RankGroup<M, J, S> {
    /// Spawns one named thread per worker, in rank order.
    pub fn spawn<W>(workers: Vec<(String, W)>, g_inter: usize) -> RankGroup<M, J, S>
    where
        W: RankWorker<Model = M, Job = J, Stats = S>,
    {
        let mut group = RankGroup {
            cmd: Vec::with_capacity(workers.len()),
            resp: Vec::with_capacity(workers.len()),
            handles: Vec::with_capacity(workers.len()),
            g_inter,
            meta: trainer_meta(&LossScaler::default(), 0, 0),
            numel: 0,
            nnz: 0,
            dur_stats: vec![(0.0, 0); workers.len()],
        };
        for (i, (name, mut worker)) in workers.into_iter().enumerate() {
            if i < g_inter {
                // The stages of replica 0 make up one whole model.
                let engine = worker.parts().1;
                group.numel += engine.numel();
                group.nnz += engine.nnz();
            }
            let (ctx, crx) = channel();
            let (rtx, rrx) = channel();
            let run = move || rank_loop(worker, crx, rtx);
            group.handles.push(
                std::thread::Builder::new()
                    .name(name)
                    .spawn(run)
                    .expect("spawn rank thread"),
            );
            group.cmd.push(ctx);
            group.resp.push(rrx);
        }
        group
    }

    /// Names rank `i` in error messages.
    fn label(&self, i: usize) -> String {
        if self.g_inter == 1 {
            format!("rank {i}")
        } else {
            format!("stage {} (data {})", i % self.g_inter, i / self.g_inter)
        }
    }

    /// Sends every rank its command, then collects every reply: the
    /// ranks run concurrently, as the collectives inside require.
    /// `None` marks a rank whose thread died.
    fn broadcast(&self, cmd: impl Fn() -> Cmd<M, J>) -> Vec<Option<Resp<S>>> {
        for tx in &self.cmd {
            let _ = tx.send(cmd());
        }
        self.resp.iter().map(|rx| rx.recv().ok()).collect()
    }

    /// Runs a step or a restore on every rank, joins the errors of the
    /// ranks that failed, and mirrors what the others reported. Returns
    /// every rank's outcome, in rank order.
    fn run(&mut self, cmd: impl Fn() -> Cmd<M, J>) -> Result<Vec<StepOutcome>, String> {
        let mut outcomes = Vec::with_capacity(self.cmd.len());
        let mut errors = Vec::new();
        for (i, resp) in self.broadcast(cmd).into_iter().enumerate() {
            match resp {
                Some(Resp::Done(Ok(o))) => outcomes.push(o),
                Some(Resp::Done(Err(e))) => errors.push(format!("{}: {e}", self.label(i))),
                Some(_) => errors.push(format!("{}: protocol confusion", self.label(i))),
                None => errors.push(format!("{}: thread died", self.label(i))),
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

    /// One training step on every rank; `Err` if any rank's collective
    /// failed (the group then needs [`Self::restore`]). With telemetry
    /// on, the ranks' step durations become the `mesh_metrics` line of
    /// step `index`.
    pub fn step(&mut self, job: J, index: u32) -> Result<bool, String> {
        let outcomes = self.run(|| Cmd::Step(job.clone()))?;
        if telemetry::enabled() {
            self.emit_mesh_metrics(index, &outcomes);
        }
        Ok(outcomes[0].applied)
    }

    /// Folds one step's per-rank durations into the rolling means, warns
    /// on stragglers (compute time above [`STRAGGLER_FACTOR`] × the lower
    /// median of the group's) and writes one `mesh_metrics` line to the
    /// metrics jsonl stream, each rank's entry with its ledger's phase
    /// split. A rank is named by `rank`, or by `stage` and `data` in a
    /// pipeline.
    fn emit_mesh_metrics(&mut self, step: u32, outcomes: &[StepOutcome]) {
        let g_inter = self.g_inter;
        let lower_median = |mut v: Vec<f64>| {
            v.sort_by(f64::total_cmp);
            v[(v.len() - 1) / 2]
        };
        let compute = |o: &StepOutcome| COMPUTE.iter().map(|&p| o.split.secs(p)).sum::<f64>() * 1e6;
        let busy = lower_median(outcomes.iter().map(compute).collect());
        let median = lower_median(outcomes.iter().map(|o| o.dur_us).collect());
        let max = outcomes.iter().map(|o| o.dur_us).fold(0.0, f64::max);
        let id = |i: usize| -> Vec<(String, Json)> {
            let uint = |k: &str, v: usize| (k.to_string(), Json::UInt(v as u64));
            if g_inter == 1 {
                vec![uint("rank", i)]
            } else {
                vec![uint("stage", i % g_inter), uint("data", i / g_inter)]
            }
        };
        let mut per_rank = Vec::with_capacity(outcomes.len());
        let mut stragglers = Vec::new();
        for (i, (o, cell)) in outcomes.iter().zip(&mut self.dur_stats).enumerate() {
            let dur = o.dur_us;
            cell.0 += dur;
            cell.1 += 1;
            let mut obj = id(i);
            obj.push(("dur_us".into(), Json::Num(dur)));
            obj.push(("mean_us".into(), Json::Num(cell.0 / cell.1 as f64)));
            obj.push(("window_us".into(), Json::Num(o.split.window_ns() as f64 / 1e3)));
            for p in Phase::ALL {
                obj.push((format!("t_{}", p.name()), Json::Num(o.split.secs(p))));
            }
            obj.push(("hidden_comm_s".into(), Json::Num(o.split.hidden_ns() as f64 / 1e9)));
            per_rank.push(Json::Obj(obj));
            let busy_us = compute(o);
            if outcomes.len() > 1 && busy_us > STRAGGLER_FACTOR * busy {
                let mut obj = id(i);
                telemetry::log_warn!(
                    "straggler: {} step {step} computed {busy_us:.0}us ({:.2}x the group's lower median)",
                    Json::Obj(obj.clone()).render(),
                    busy_us / busy
                );
                obj.push(("ratio".into(), Json::Num(busy_us / busy)));
                stragglers.push(Json::Obj(obj));
            }
        }
        telemetry::jsonl::emit_line(&Json::Obj(vec![
            ("kind".into(), Json::from("mesh_metrics")),
            ("step".into(), Json::UInt(u64::from(step))),
            ("ranks".into(), Json::UInt(outcomes.len() as u64)),
            ("median_us".into(), Json::Num(median)),
            ("max_us".into(), Json::Num(max)),
            ("per_rank".into(), Json::Arr(per_rank)),
            ("stragglers".into(), Json::Arr(stragglers)),
        ]));
    }

    /// Restores a checkpoint on every rank and re-synchronizes the
    /// group (fresh comms epochs + barriers). This is the recovery path
    /// after a failed step: heal the faulted links first, then restore.
    pub fn restore(&mut self, checkpoint: &[u8]) -> Result<(), String> {
        let ck: Arc<[u8]> = checkpoint.into();
        self.run(|| Cmd::Restore(Arc::clone(&ck))).map(|_| ())
    }

    /// Replaces the loss scaler on every rank (and the mirror).
    pub fn set_scaler(&mut self, scaler: LossScaler) {
        self.meta = trainer_meta(&scaler, self.meta.steps_taken, self.meta.steps_skipped);
        self.acked(|| Cmd::SetScaler(scaler.clone()));
    }

    /// Installs a dynamic-sparsity schedule on every rank.
    pub fn set_mask_schedule(&mut self, schedule: MaskSchedule) {
        self.acked(|| Cmd::SetSchedule(schedule.clone()));
    }

    /// Every rank's reply to `cmd`, in rank order, as `pick` reads it.
    fn collect<X>(
        &self,
        cmd: impl Fn() -> Cmd<M, J>,
        pick: impl Fn(Resp<S>) -> Option<X>,
    ) -> Vec<X> {
        let replies = self.broadcast(cmd).into_iter();
        replies.map(|r| r.and_then(&pick).expect("rank thread died")).collect()
    }

    fn acked(&self, cmd: impl Fn() -> Cmd<M, J>) {
        self.collect(cmd, |r| matches!(r, Resp::Ack).then_some(()));
    }

    /// Every rank's stats, in rank order.
    pub fn stats(&self) -> Vec<S> {
        self.collect(|| Cmd::Stats, |r| match r {
            Resp::Stats(stats) => Some(stats),
            _ => None,
        })
    }

    /// Serializes the group as one topology-independent v2 checkpoint:
    /// each layer's owned ranges are gathered across the data-parallel
    /// ranks that hold it and the stages' layers concatenated in model
    /// order, so the bytes equal what a single-process
    /// [`crate::SamoTrainer`] in the same state saves — a checkpoint
    /// written at one world size restores into any other. Only what the
    /// checkpoint carries is copied off the rank threads (`14 B` per
    /// kept value in all): no dense `θ16`, no index. A group whose step
    /// failed has no consistent state to save (its rings kept `∇θ16`):
    /// restore first.
    pub fn save(&self) -> bytes::Bytes {
        let mut ranks = self.collect(|| Cmd::Save, |r| match r {
            Resp::Saved(layers) => Some(layers.into_iter()),
            _ => None,
        });
        let g_data = ranks.len() / self.g_inter;
        let mut layers = Vec::new();
        for stage in 0..self.g_inter {
            while let Some((mask, first)) = ranks[stage].next() {
                let rest = (1..g_data).map(|d| ranks[d * self.g_inter + stage].next());
                let rest = rest.map(|l| l.expect("every replica holds the same layers").1);
                layers.push((mask, std::iter::once(first).chain(rest).collect()));
            }
        }
        save_ranges(&layers, &self.meta)
    }

    /// Runs `f` on rank `i`'s thread with exclusive access to its model
    /// and layer states, and returns the result — the inspection hook
    /// tests use to compare bits across runtimes. The model's `value`s
    /// are current for the call (the widened `θ16`, released again after
    /// it): a step closure sees the training form instead.
    pub fn with_rank<R, F>(&self, i: usize, f: F) -> R
    where
        R: Send + 'static,
        F: FnOnce(&mut M, &[SamoLayerState]) -> R + Send + 'static,
    {
        let (tx, rx) = channel();
        self.cmd[i]
            .send(Cmd::Inspect(Box::new(move |model, layers| {
                let _ = tx.send(f(model, layers));
            })))
            .expect("rank thread alive");
        let out = rx.recv().expect("inspect reply");
        assert!(
            matches!(self.resp[i].recv(), Ok(Resp::Ack)),
            "rank thread died during inspect"
        );
        out
    }
}

impl<M, J, S> Drop for RankGroup<M, J, S> {
    fn drop(&mut self) {
        // A closed channel is the shutdown message.
        self.cmd.clear();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// One rank of a data-parallel group: its replica and the sharded
/// [`StepEngine`] training it — the one data-parallel rank.
/// [`ThreadedDataParallelSamo`] runs one per rank thread; `samo-launch`
/// runs one per process, over the endpoint of [`comms::bootstrap_tcp`].
/// [`Self::step`], [`Self::save`] and [`Self::restore`] are collective:
/// every rank of the group calls them together.
pub struct DataParallelRank<M: Layer> {
    model: M,
    engine: StepEngine,
}

impl<M: Layer> DataParallelRank<M> {
    /// Builds shard `comm.rank()` of the group's state from this rank's
    /// replica — every rank's is the same — and one mask per parameter
    /// tensor. From here on `θ16` is the weight: the replica's `Linear`s
    /// hold no f32 `value` and compute from what the engine lends for
    /// each step.
    pub fn new(mut model: M, masks: &[Mask], opt: Optimizer, comm: Communicator) -> Self {
        let engine = StepEngine::build(&mut model, masks, opt, Some(comm), &DP_THREADED);
        DataParallelRank { model, engine }
    }

    /// The engine: step counters, loss scale, state bytes, remap events.
    pub fn engine(&self) -> &StepEngine {
        &self.engine
    }

    /// The communicator — for broadcasts and barriers around the steps.
    pub fn comm_mut(&mut self) -> &mut Communicator {
        self.engine.comm_mut()
    }

    /// Installs a dynamic-sparsity schedule; every rank installs the same
    /// one before the same step.
    pub fn set_mask_schedule(&mut self, schedule: MaskSchedule) {
        self.engine.install_schedule(schedule);
    }

    /// One training step: `f(rank, model, loss_scale)` runs forward and
    /// returns the scaled output gradient, then backward starts each
    /// gradient bucket's ring reduce-scatter from inside it, and the fused
    /// step on the owned range starts each bucket's parameter all-gather
    /// as its last pass ends. `Ok(false)` if skipped on overflow; `Err` if a
    /// collective failed — the communicator then refuses every collective
    /// (`Poisoned`) until [`Self::restore`] or a rank rebuilt on a new one.
    pub fn step(&mut self, f: impl FnOnce(usize, &mut M, f32) -> Tensor) -> Result<bool, CommsError> {
        // The call is the ledger's window: the closure is `f`, backward
        // `b` (its ring pumps `reduce`), the engine charges the rest.
        let scale = self.engine.loss_scale();
        let engine = &mut self.engine;
        engine.ledger.start();
        // The compute window: forward and backward run from the lent θ16,
        // which is home again before the collectives — or the error.
        engine.lend_theta16(&mut self.model, true);
        engine.ledger.enter(Phase::F);
        let dy = f(engine.comm().rank(), &mut self.model, scale);
        engine.ledger.exit(Phase::F);
        let finite = if engine.is_update_step() {
            // Dynamic-sparsity update step: the masks, and with them the
            // compressed bucket layout, are renegotiated from the final
            // gradients — run a plain backward, then the engine's inline
            // remap → compress → reduce.
            engine.ledger.enter(Phase::B);
            let _ = self.model.backward(&dy);
            engine.ledger.exit(Phase::B);
            engine.lend_theta16(&mut self.model, false);
            engine.reduce_after_backward(&mut self.model)?
        } else {
            engine.ledger.enter(Phase::B);
            let backward = engine.backward_overlapped(&mut self.model, dy);
            engine.ledger.exit(Phase::B);
            engine.lend_theta16(&mut self.model, false);
            backward?;
            engine.finish_reduce()?
        };
        let applied = engine.apply(&mut self.model, finite)?;
        Ok(engine.end_step(&self.model, applied, scale))
    }

    /// Reloads a checkpoint written by any runtime at any world size, cut
    /// to this rank's shard, then rejoins the group behind a barrier on a
    /// fresh comms epoch, which discards stale in-flight traffic: every
    /// rank restores together, so the epochs advance in lockstep.
    pub fn restore(&mut self, checkpoint: &[u8]) -> Result<(), String> {
        self.engine.restore(checkpoint, &mut self.model)?;
        let comm = self.engine.comm_mut();
        comm.bump_epoch();
        comm.barrier()
            .map_err(|e| format!("post-restore barrier failed: {e}"))
    }

    /// Serializes the group's state as one v2 checkpoint: on every rank,
    /// the bytes a [`crate::SamoTrainer`] in the same state saves. Per
    /// layer, the `[θ32 | moments]` segments are gathered as a remap
    /// gathers them, and the owned `∇θ16` ranges with one f16 all-gather,
    /// so each rank holds a full state for the call. `Err` on a dead peer;
    /// a rank whose step failed has nothing consistent to save and is
    /// refused (`Poisoned`): restore first.
    pub fn save(&mut self) -> Result<bytes::Bytes, CommsError> {
        let comm = self.engine.group.as_mut().expect("a rank's engine is built with its group");
        let mut full = Vec::with_capacity(self.engine.layers.len());
        for st in &self.engine.layers {
            let mut layer = gather_full(st, comm)?;
            let (lo, hi) = st.shard_range();
            layer.grad16 = comm.all_gather_f16(&st.grad16[lo..hi], &st.shard_counts())?;
            full.push(layer);
        }
        Ok(save_checkpoint(&full, &self.engine.meta()))
    }
}

impl<M: Layer + Send + 'static> RankWorker for DataParallelRank<M> {
    type Model = M;
    type Job = StepFn<M>;
    type Stats = CommStats;

    fn parts(&mut self) -> (&mut M, &mut StepEngine) {
        (&mut self.model, &mut self.engine)
    }

    fn step(&mut self, f: &StepFn<M>) -> Result<bool, CommsError> {
        DataParallelRank::step(self, &**f)
    }

    fn restore(&mut self, checkpoint: &[u8]) -> Result<(), String> {
        DataParallelRank::restore(self, checkpoint)
    }

    fn stats(&self) -> CommStats {
        let comm = self.engine.comm();
        CommStats {
            wire_bytes: comm.transport().bytes_sent(),
            model_allreduce_bytes: comm.model_allreduce_bytes(),
            msgs_dropped: comm.transport().msgs_dropped(),
        }
    }
}

/// A data-parallel SAMO group where every rank is a real OS thread and
/// gradients move through the `comms` ring reduce-scatter. Drop-in peer of
/// [`crate::reference::DataParallelSamo`] (same step semantics, same bits).
pub struct ThreadedDataParallelSamo<M: Layer + Send + 'static> {
    group: RankGroup<M, StepFn<M>, CommStats>,
    faults: Arc<FaultController>,
    allreduce_bytes: u64,
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
        let faults = Arc::new(FaultController::new());
        let mesh = Endpoint::mesh_with_faults(replicas.len(), Arc::clone(&faults));
        Self::with_transports(replicas, masks, opt, timeout, mesh, faults)
    }

    /// Builds the group over caller-supplied endpoints — the same rank
    /// threads and collectives over whatever wire they were built on
    /// (e.g. loopback [`Endpoint::local_mesh`] sockets, proving the
    /// runtime is wire-agnostic bit for bit). `transports[r]` must
    /// report rank `r`; `faults` should be the controller those
    /// endpoints were built with so [`Self::faults`] still steers them.
    pub fn with_transports(
        replicas: Vec<M>,
        masks: Vec<Mask>,
        opt: Optimizer,
        timeout: Duration,
        transports: Vec<Endpoint>,
        faults: Arc<FaultController>,
    ) -> ThreadedDataParallelSamo<M> {
        assert_eq!(
            transports.len(),
            replicas.len(),
            "one transport endpoint per replica"
        );
        assert_replicas_agree(&replicas);
        let workers = replicas
            .into_iter()
            .zip(transports)
            .enumerate()
            .map(|(rank, (model, t))| {
                assert_eq!(
                    t.rank(),
                    rank,
                    "transport endpoints must arrive in rank order"
                );
                let comm = Communicator::new(t).with_timeout(timeout);
                let rk = DataParallelRank::new(model, &masks, opt.clone(), comm);
                (format!("samo-dp-rank{rank}"), rk)
            })
            .collect();
        ThreadedDataParallelSamo {
            group: RankGroup::spawn(workers, 1),
            faults,
            allreduce_bytes: 0,
        }
    }

    /// Number of rank threads.
    pub fn world_size(&self) -> usize {
        self.group.cmd.len()
    }

    /// Fault injection handle for every link of the mesh.
    pub fn faults(&self) -> &Arc<FaultController> {
        &self.faults
    }

    /// Current loss scale (multiply the loss before backward — the
    /// step closure receives it as its third argument).
    pub fn loss_scale(&self) -> f32 {
        self.group.meta.loss_scale
    }

    /// Applied steps.
    pub fn steps_taken(&self) -> u64 {
        self.group.meta.steps_taken
    }

    /// Steps skipped on gradient overflow (every rank skips together).
    pub fn steps_skipped(&self) -> u64 {
        self.group.meta.steps_skipped
    }

    /// Cumulative modeled ring all-reduce bytes, same formula as
    /// [`crate::reference::DataParallelSamo::allreduce_bytes`].
    pub fn allreduce_bytes(&self) -> u64 {
        self.allreduce_bytes
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

    /// Installs a dynamic-sparsity [`MaskSchedule`] on every rank. At
    /// each schedule update step the ranks recompute the masks from
    /// identical reduced bits (no broadcast needed), migrate the
    /// sharded compressed state, and renegotiate the compressed-
    /// gradient bucket layout on a fresh comms epoch — the trajectory
    /// stays bitwise identical to a [`crate::SamoTrainer`] driven by
    /// the same schedule on replicated data.
    pub fn set_mask_schedule(&mut self, schedule: MaskSchedule) {
        self.group.set_mask_schedule(schedule);
    }

    /// Runs one concurrent training step: every rank thread executes
    /// `f(rank, model, loss_scale)` (forward + scaled backward seed),
    /// backward with overlapped ring reduce-scatter, the fused step on
    /// the owned range, and the parameter all-gathers, each started as its
    /// bucket's last pass ends. Returns `Ok(true)` if applied, `Ok(false)` if
    /// skipped on overflow, and `Err` if any rank's collective failed
    /// (the group then needs [`Self::restore`]).
    pub fn step(
        &mut self,
        f: impl Fn(usize, &mut M, f32) -> Tensor + Send + Sync + 'static,
    ) -> Result<bool, String> {
        let index = self.group.meta.steps_taken + self.group.meta.steps_skipped;
        let applied = self.group.step(Arc::new(f), index as u32)?;
        self.allreduce_bytes +=
            samo_ring_allreduce_bytes(self.group.nnz as u64, self.world_size() as u64);
        Ok(applied)
    }

    /// Serializes the group as one rank-count-independent v2 checkpoint
    /// (same format as [`crate::reference::DataParallelSamo::save`]).
    pub fn save(&mut self) -> bytes::Bytes {
        self.group.save()
    }

    /// Restores a checkpoint on every rank and re-synchronizes the
    /// group (fresh comms epoch + barrier). This is the recovery path
    /// after a failed step: heal the faulted links first, then restore.
    pub fn restore(&mut self, checkpoint: &[u8]) -> Result<(), String> {
        self.group.restore(checkpoint)
    }

    /// Per-rank transport statistics (wire bytes, modeled ring bytes,
    /// fault-dropped messages), in rank order.
    pub fn comm_stats(&mut self) -> Vec<CommStats> {
        self.group.stats()
    }

    /// Runs `f` on rank `rank`'s thread with exclusive access to its
    /// replica and sharded states, and returns the result — the
    /// inspection hook tests use to compare bits across runtimes. For the
    /// call the replica's `value`s are the widened `θ16` (a transient
    /// `4φ` bytes); inside a step closure the weights hold none.
    pub fn with_rank<R, F>(&mut self, rank: usize, f: F) -> R
    where
        R: Send + 'static,
        F: FnOnce(&mut M, &[SamoLayerState]) -> R + Send + 'static,
    {
        self.group.with_rank(rank, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{PipelineConfig, StepJob, ThreadedPipelineSamo};
    use nn::linear::Linear;
    use nn::loss::mse;
    use nn::optim::AdamConfig;

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

    /// Every rank's phases sum to its ledger window, and the window is
    /// the rank loop's own ruler of the step, `dur_us`, within 1 %.
    fn assert_windows_match_dur(outcomes: &[StepOutcome]) {
        for (r, o) in outcomes.iter().enumerate() {
            let sum: u64 = Phase::ALL.iter().map(|&p| o.split.ns(p)).sum();
            assert_eq!(sum, o.split.window_ns(), "rank {r}: {:?}", o.split);
            let window_us = o.split.window_ns() as f64 * 1e-3;
            let off = (window_us - o.dur_us).abs() / o.dur_us;
            assert!(off <= 0.01, "rank {r}: window {window_us:.1}us vs dur {:.1}us", o.dur_us);
        }
    }

    #[test]
    fn every_data_parallel_rank_charges_its_whole_step() {
        let replicas = (0..3).map(|_| Linear::new(WIDTH, WIDTH, true, 1)).collect::<Vec<_>>();
        let prune = |p: &&nn::Parameter| prune::magnitude_prune(p.value.as_slice(), p.value.shape(), 0.5);
        let masks = replicas[0].params().iter().map(prune).collect();
        let mut dp = ThreadedDataParallelSamo::new(replicas, masks, adam());
        let job: StepFn<Linear> = Arc::new(|_, m: &mut Linear, scale| {
            std::thread::sleep(DELAY);
            loss_grad(&m.forward(&Tensor::randn(&[4, WIDTH], 1.0, 3)), scale)
        });
        for _ in 0..2 {
            let outcomes = dp.group.run(|| Cmd::Step(Arc::clone(&job))).expect("healthy mesh");
            assert_windows_match_dur(&outcomes);
            assert!(outcomes.iter().all(|o| o.split.ns(Phase::F) >= DELAY.as_nanos() as u64));
        }
    }

    #[test]
    fn every_pipeline_rank_charges_its_whole_step() {
        let model = || models::uniform_pipeline_mlp_delayed(2, WIDTH, 7, DELAY, DELAY);
        let masks = models::uniform_pipeline_masks(&model(), 0.5);
        let cfg = PipelineConfig { g_data: 2, ..PipelineConfig::new(2, 4, 4) };
        let mut pp = ThreadedPipelineSamo::new(vec![model(), model()], masks, adam(), cfg);
        for step in 0..2 {
            let job = StepJob {
                input: Arc::new(|_, mb| Tensor::randn(&[4, WIDTH], 1.0, mb as u64)),
                loss_grad: Arc::new(|_, _, y, scale| loss_grad(y, scale)),
                step,
            };
            let outcomes = pp.group.run(|| Cmd::Step(job.clone())).expect("healthy pipeline");
            assert_windows_match_dur(&outcomes);
            for o in &outcomes {
                assert!(o.split.ns(Phase::F) >= 4 * DELAY.as_nanos() as u64, "{:?}", o.split);
                assert!(o.split.ns(Phase::Wait) > 0, "a stage of two waits: {:?}", o.split);
            }
        }
    }
}

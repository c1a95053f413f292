//! `dp2_tcp_wide` and `dp2_tcp_deep`: two-rank data parallelism with
//! ZeRO-sharded SAMO state over loopback TCP — the same layers of the
//! stack used two ways. Wide moves a few ~1 MB messages per step (bytes
//! bound); deep moves many ~3 KB ones (latency bound). A change that
//! helps one message size at the cost of the other shows as a loss here.

use super::{adam, magnitude_masks, run_training, Ctx, Outcome, Training};
use crate::metrics::Values;
use crate::schedule::derive_seed;
use crate::spans::{median_ms, Recorder, Span, SpanId};
use crate::stats::percentile;
use comms::TcpTransport;
use nn::layer::{Layer, Sequential};
use nn::loss::mse;
use samo::data_parallel::DataParallelSamo;
use samo::sharded::ShardedSamoLayerState;
use samo::threaded::{CommStats, ThreadedDataParallelSamo};
use serve::harness::toy_model;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use tensor::Tensor;

const WORLD: usize = 2;
const SPARSITY: f64 = 0.9;
/// Steps whose checkpoint bytes are compared with the sequential oracle.
const ORACLE_PREFIX: u64 = 3;

/// What differs between the two workloads.
struct Shape {
    dims: &'static [usize],
    rows_per_rank: usize,
    warmup_steps: u64,
    /// Steps per second on the reference box at `SAMO_THREADS=1`.
    steps_per_second: f64,
}

const WIDE: Shape = Shape {
    dims: &[256, 2048, 2048, 256],
    rows_per_rank: 4,
    warmup_steps: 6,
    steps_per_second: 14.0,
};
const DEEP: Shape = Shape {
    dims: &[
        128, 128, 128, 128, 128, 128, 128, 128, 128, 128, 128, 128, 128,
    ],
    rows_per_rank: 1,
    warmup_steps: 60,
    steps_per_second: 190.0,
};

pub fn run_wide(ctx: &Ctx) -> Result<Outcome, String> {
    run_training::<DpTcp<0>>(ctx, WIDE.steps_per_second, 1, 1)
}

pub fn run_deep(ctx: &Ctx) -> Result<Outcome, String> {
    run_training::<DpTcp<1>>(ctx, DEEP.steps_per_second, 1, 1)
}

/// One rank's time stamps inside the step closure.
struct RankTiming {
    rank: usize,
    loss: f32,
    /// Closure start, batch ready, forward done, loss and seed done.
    at: [Instant; 4],
}

/// `WHICH` selects the shape: 0 wide, 1 deep.
pub struct DpTcp<const WHICH: usize> {
    dp: ThreadedDataParallelSamo<Sequential>,
    seed: u64,
    /// Steps taken so far, warm-up included: the batch index.
    next_step: u64,
    timings: Arc<Mutex<Vec<RankTiming>>>,
    /// Checkpoint bytes after each of the first [`ORACLE_PREFIX`] steps.
    prefix: Vec<Vec<u8>>,
    window_base: Vec<CommStats>,
    skew_ms: Vec<f64>,
}

fn shape(which: usize) -> &'static Shape {
    if which == 0 {
        &WIDE
    } else {
        &DEEP
    }
}

/// Rank `rank`'s batch of global step `step`: a pure function of the seed.
fn batch(seed: u64, sh: &Shape, step: u64, rank: usize) -> (Tensor, Tensor) {
    let s = derive_seed(seed, 1_000 + step * WORLD as u64 + rank as u64);
    let (d_in, d_out) = (sh.dims[0], sh.dims[sh.dims.len() - 1]);
    (
        Tensor::randn(&[sh.rows_per_rank, d_in], 1.0, s),
        Tensor::randn(&[sh.rows_per_rank, d_out], 1.0, s ^ 0x5EED),
    )
}

fn replicas(seed: u64, sh: &Shape) -> Vec<Sequential> {
    (0..WORLD)
        .map(|_| toy_model(sh.dims, derive_seed(seed, 1)))
        .collect()
}

fn rank_state_bytes(states: &[ShardedSamoLayerState]) -> u64 {
    states.iter().map(|s| s.measured_bytes(true)).sum()
}

impl<const WHICH: usize> DpTcp<WHICH> {
    /// A counter's growth since the window started, summed over ranks.
    fn window_delta(&mut self, f: fn(&CommStats) -> u64) -> u64 {
        self.dp
            .comm_stats()
            .iter()
            .zip(&self.window_base)
            .map(|(a, b)| f(a) - f(b))
            .sum()
    }
}

impl<const WHICH: usize> Training for DpTcp<WHICH> {
    fn bring_up(ctx: &Ctx) -> Result<Self, String> {
        let sh = shape(WHICH);
        let reps = replicas(ctx.seed, sh);
        let masks = magnitude_masks(&reps[0], SPARSITY, 1024);
        let mesh = TcpTransport::local_mesh(WORLD).map_err(|e| format!("loopback mesh: {e}"))?;
        let faults = Arc::clone(mesh[0].faults());
        let dp = ThreadedDataParallelSamo::with_transports(
            reps,
            masks,
            adam(1e-3),
            comms::collectives::DEFAULT_TIMEOUT,
            mesh,
            faults,
        );
        let mut w = DpTcp {
            dp,
            seed: ctx.seed,
            next_step: 0,
            timings: Arc::new(Mutex::new(Vec::new())),
            prefix: Vec::new(),
            window_base: Vec::new(),
            skew_ms: Vec::new(),
        };
        for i in 0..sh.warmup_steps.max(ORACLE_PREFIX) {
            w.step(i, &Recorder::off(), None)?;
            if i < ORACLE_PREFIX {
                w.prefix.push(w.dp.save().as_ref().to_vec());
            }
        }
        Ok(w)
    }

    fn step(&mut self, step: u64, rec: &Recorder, parent: Option<SpanId>) -> Result<f32, String> {
        let sh = shape(WHICH);
        let (seed, global) = (self.seed, self.next_step);
        self.next_step += 1;
        let timings = Arc::clone(&self.timings);
        self.dp.step(move |rank, m, scale| {
            let t0 = Instant::now();
            let (x, target) = batch(seed, sh, global, rank);
            let t1 = Instant::now();
            let y = m.forward(&x);
            let t2 = Instant::now();
            let (loss, mut dy) = mse(&y, &target);
            tensor::ops::scale(scale, dy.as_mut_slice());
            let t3 = Instant::now();
            timings
                .lock()
                .expect("no rank panics while holding the lock")
                .push(RankTiming {
                    rank,
                    loss,
                    at: [t0, t1, t2, t3],
                });
            dy
        })?;
        let done_us = rec.now_us();
        let ranks = std::mem::take(
            &mut *self
                .timings
                .lock()
                .expect("no rank panics while holding the lock"),
        );
        let loss = ranks.iter().map(|r| r.loss).sum::<f32>() / ranks.len().max(1) as f32;
        if rec.enabled() {
            // Only the slower rank's closure blocks the step: it alone
            // hangs under the step span, the other is a root of its lane.
            let slowest = ranks.iter().max_by_key(|r| r.at[3]).map(|r| r.rank);
            for r in &ranks {
                let lane = r.rank as u32 + 1;
                let at = r.at.map(|t| rec.at_us(t));
                let under = if Some(r.rank) == slowest {
                    parent
                } else {
                    None
                };
                let closure = rec.record("bench.rank_closure", lane, step, under, at[0], at[3]);
                rec.record("bench.batch", lane, step, closure, at[0], at[1]);
                rec.record("nn.forward", lane, step, closure, at[1], at[2]);
                rec.record("nn.loss", lane, step, closure, at[2], at[3]);
            }
            let ends: Vec<f64> = ranks.iter().map(|r| rec.at_us(r.at[3])).collect();
            let last = ends.iter().copied().fold(f64::MIN, f64::max);
            let first = ends.iter().copied().fold(f64::MAX, f64::min);
            rec.record("core.dp_post_forward", 0, step, parent, last, done_us);
            self.skew_ms.push((last - first) / 1e3);
        }
        Ok(loss)
    }

    fn window_start(&mut self) {
        self.window_base = self.dp.comm_stats();
        self.skew_ms.clear();
    }

    fn layer_metrics(&mut self, spans: &[Span], steps: u64, v: &mut Values) {
        v.set(
            "core.dp_post_forward_ms_p50",
            median_ms(spans, "core.dp_post_forward"),
        );
        if !self.skew_ms.is_empty() {
            v.set("core.dp_rank_skew_ms_p50", percentile(&self.skew_ms, 0.5));
        }
        let wire = self.window_delta(|s| s.wire_bytes) as f64 / steps as f64;
        let model = self.window_delta(|s| s.model_allreduce_bytes) as f64 / steps as f64;
        v.set("comms.wire_bytes_per_step", wire);
        v.set("comms.model_allreduce_bytes_per_step", model);
        v.set(
            "comms.wire_overhead_ratio",
            if model > 0.0 { wire / model } else { 0.0 },
        );
        v.set(
            "comms.msgs_dropped",
            self.window_delta(|s| s.msgs_dropped) as f64,
        );
        v.set(
            "core.state_bytes",
            self.dp.with_rank(0, |_, st| rank_state_bytes(st)) as f64,
        );
        v.set("core.nnz", self.dp.nnz() as f64);
    }

    fn state_bytes_per_param(&mut self) -> f64 {
        let worst = (0..WORLD)
            .map(|r| self.dp.with_rank(r, |_, st| rank_state_bytes(st)))
            .max()
            .unwrap_or(0);
        worst as f64 / self.dp.numel() as f64
    }

    fn wire_bytes(&mut self) -> Option<u64> {
        Some(self.window_delta(|s| s.wire_bytes))
    }

    fn probes(ctx: &Ctx, budget_s: f64, v: &mut Values) -> Result<(), String> {
        if WHICH == 0 {
            crate::probes::dp2_tcp_wide(ctx, budget_s, v)
        } else {
            crate::probes::dp2_tcp_deep(ctx, budget_s, v)
        }
    }

    fn finish(mut self, _ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
        let sh = shape(WHICH);
        // Per rank: 2φ + (4+2)·nnz + 18·shard; the closed form rounds the
        // shard per model, the state per layer, hence one element of slack
        // per parameter tensor.
        let (phi, nnz) = (self.dp.numel() as u64, self.dp.nnz() as u64);
        let formula = samo::m_samo_zero_bytes(phi, 1.0 - nnz as f64 / phi as f64, WORLD as u64);
        for r in 0..WORLD {
            let (measured, tensors) = self
                .dp
                .with_rank(r, |_, st| (rank_state_bytes(st), st.len() as u64));
            out.check(measured.abs_diff(formula) <= 18 * tensors, || {
                format!(
                    "rank {r}: measured state {measured} B vs 2phi+6f.phi+18f.phi/d = {formula} B"
                )
            });
        }
        let param_crcs = |dp: &mut ThreadedDataParallelSamo<Sequential>, r: usize| {
            dp.with_rank(r, |m, _| {
                m.params()
                    .iter()
                    .map(|p| {
                        let bytes: Vec<u8> = p
                            .value
                            .as_slice()
                            .iter()
                            .flat_map(|v| v.to_le_bytes())
                            .collect();
                        samo::serialize::crc32(&bytes)
                    })
                    .collect::<Vec<u32>>()
            })
        };
        let (p0, p1) = (param_crcs(&mut self.dp, 0), param_crcs(&mut self.dp, 1));
        out.check(p0 == p1, || {
            "the two ranks ended with different parameters".to_string()
        });
        out.state_crc = samo::serialize::crc32(&self.dp.save());

        // The sequential in-process oracle on the same seed and batches.
        let prefix = std::mem::take(&mut self.prefix);
        let seed = self.seed;
        drop(self);
        let reps = replicas(seed, sh);
        let masks = magnitude_masks(&reps[0], SPARSITY, 1024);
        let mut oracle = DataParallelSamo::new(reps, masks, adam(1e-3));
        for (i, want) in prefix.iter().enumerate() {
            for r in 0..WORLD {
                let scale = oracle.loss_scale();
                let (x, target) = batch(seed, sh, i as u64, r);
                let m = oracle.replica_mut(r);
                let y = m.forward(&x);
                let (_, mut dy) = mse(&y, &target);
                tensor::ops::scale(scale, dy.as_mut_slice());
                m.backward(&dy);
            }
            oracle.step();
            out.check(oracle.save().as_ref() == want.as_slice(), || {
                format!(
                    "step {i}: checkpoint bytes differ from the sequential DataParallelSamo oracle"
                )
            });
        }
        Ok(())
    }
}

//! `pipe2_mlp`: inter-layer parallelism, the paper's second half. A
//! uniform four-block MLP runs as two pipeline stages with real GEMMs over
//! the in-process mesh, so the 1F1B scheduler, the p2p activation and
//! gradient messages and the per-stage epilogue do the work and TCP is
//! bypassed entirely.

use super::{adam, run_training, Ctx, Outcome, Training};
use crate::metrics::Values;
use crate::schedule::derive_seed;
use crate::spans::{median_ms, Recorder, Span, SpanId};
use models::{uniform_pipeline_masks, uniform_pipeline_mlp};
use nn::layer::{Layer, Sequential};
use nn::loss::mse;
use samo::pipeline::{PipelineConfig, StageStats, ThreadedPipelineSamo};
use samo::trainer::formula_state_bytes;
use samo::SamoTrainer;
use std::sync::{Arc, Mutex};
use tensor::Tensor;

const BLOCKS: usize = 4;
const WIDTH: usize = 512;
const STAGES: usize = 2;
const MICROBATCHES: usize = 8;
const MB_ROWS: usize = 32;
const SPARSITY: f64 = 0.9;
const WARMUP_STEPS: u64 = 6;
const ORACLE_PREFIX: u64 = 3;
/// Distinct microbatches, generated at bring-up so that drawing normals is
/// not part of a stage's measured work; microbatch `k` of the run is
/// entry `k % POOL`.
const POOL: usize = 64;
/// Steps per second on the reference box at `SAMO_THREADS=1`.
pub const STEPS_PER_SECOND: f64 = 15.0;

pub struct Pipe2Mlp {
    pp: ThreadedPipelineSamo,
    seed: u64,
    next_step: u64,
    pool: Arc<Vec<(Tensor, Tensor)>>,
    loss_sum: Arc<Mutex<f32>>,
    prefix: Vec<Vec<u8>>,
    window_base: Vec<StageStats>,
    prev: Vec<StageStats>,
    /// Recorder clock minus the runtime's trace clock, microseconds.
    clock_offset_us: f64,
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    run_training::<Pipe2Mlp>(ctx, STEPS_PER_SECOND, 1, 1)
}

fn model(seed: u64) -> Sequential {
    uniform_pipeline_mlp(BLOCKS, WIDTH, derive_seed(seed, 1))
}

fn pool(seed: u64) -> Vec<(Tensor, Tensor)> {
    (0..POOL as u64)
        .map(|k| {
            let s = derive_seed(seed, 1_000 + k);
            (
                Tensor::randn(&[MB_ROWS, WIDTH], 1.0, s),
                Tensor::randn(&[MB_ROWS, WIDTH], 1.0, s ^ 0x5EED),
            )
        })
        .collect()
}

fn pool_index(step: u64, mb: usize) -> usize {
    ((step * MICROBATCHES as u64 + mb as u64) % POOL as u64) as usize
}

fn stage_state_bytes(pp: &mut ThreadedPipelineSamo) -> u64 {
    (0..STAGES)
        .map(|s| {
            pp.with_rank(s, 0, |_, st| {
                st.iter().map(|l| l.measured_bytes(true)).sum::<u64>()
            })
        })
        .sum()
}

impl Training for Pipe2Mlp {
    fn bring_up(ctx: &Ctx) -> Result<Pipe2Mlp, String> {
        let m = model(ctx.seed);
        let masks = uniform_pipeline_masks(&m, SPARSITY);
        let cfg = PipelineConfig {
            g_inter: STAGES,
            g_data: 1,
            microbatches: MICROBATCHES,
            mb_rows: MB_ROWS,
            max_in_flight: 2,
            timeout: comms::collectives::DEFAULT_TIMEOUT,
            force_recompute: false,
        };
        let mut w = Pipe2Mlp {
            pp: ThreadedPipelineSamo::new(vec![m], masks, adam(1e-3), cfg),
            seed: ctx.seed,
            next_step: 0,
            pool: Arc::new(pool(ctx.seed)),
            loss_sum: Arc::new(Mutex::new(0.0)),
            prefix: Vec::new(),
            window_base: Vec::new(),
            prev: Vec::new(),
            clock_offset_us: 0.0,
        };
        for i in 0..WARMUP_STEPS.max(ORACLE_PREFIX) {
            w.step(i, &Recorder::off(), None)?;
            if i < ORACLE_PREFIX {
                w.prefix.push(w.pp.save().as_ref().to_vec());
            }
        }
        Ok(w)
    }

    fn step(
        &mut self,
        _step: u64,
        _rec: &Recorder,
        _parent: Option<SpanId>,
    ) -> Result<f32, String> {
        let global = self.next_step;
        self.next_step += 1;
        let (inputs, targets) = (Arc::clone(&self.pool), Arc::clone(&self.pool));
        let loss_sum = Arc::clone(&self.loss_sum);
        self.pp.step(
            move |_data_idx, mb| inputs[pool_index(global, mb)].0.clone(),
            move |_data_idx, mb, y, scale| {
                let (loss, mut dy) = mse(y, &targets[pool_index(global, mb)].1);
                tensor::ops::scale(scale, dy.as_mut_slice());
                *loss_sum
                    .lock()
                    .expect("no stage panics while holding the lock") += loss;
                dy
            },
        )?;
        let sum = std::mem::take(
            &mut *self
                .loss_sum
                .lock()
                .expect("no stage panics while holding the lock"),
        );
        Ok(sum / MICROBATCHES as f32)
    }

    fn window_start(&mut self) {
        self.window_base = self.pp.stage_stats();
    }

    fn traced_block_start(&mut self) {
        self.prev = self.pp.stage_stats();
    }

    /// The runtime keeps per-stage scheduler counters; their per-step
    /// deltas become spans. A stage's scheduler window is placed where the
    /// runtime's clock says it ran; its compute is one span of the measured
    /// forward-plus-backward duration placed at the window's start (the
    /// counters give durations, not positions). Only the stage whose
    /// window ends last blocks the step and hangs under the step span.
    fn after_traced_step(&mut self, step: u64, rec: &Recorder, span: Option<SpanId>) {
        if self.clock_offset_us == 0.0 {
            self.clock_offset_us = rec.now_us() - comms::trace::now_us();
        }
        let now = self.pp.stage_stats();
        let Some((_, step_end)) = rec.bounds_us(span) else {
            return;
        };
        let critical = (0..STAGES).max_by(|&a, &b| {
            now[a]
                .last_sched_end_us
                .total_cmp(&now[b].last_sched_end_us)
        });
        for (s, (cur, prev)) in now.iter().zip(&self.prev).enumerate() {
            let lane = s as u32 + 1;
            let start = cur.last_sched_start_us + self.clock_offset_us;
            let end = cur.last_sched_end_us + self.clock_offset_us;
            let busy_us = ((cur.fwd_s - prev.fwd_s) + (cur.bwd_s - prev.bwd_s)) * 1e6;
            let under = if Some(s) == critical { span } else { None };
            let sched = rec.record("core.pipeline.sched", lane, step, under, start, end);
            rec.record(
                "nn.stage_compute",
                lane,
                step,
                sched,
                start,
                (start + busy_us).min(end),
            );
            if Some(s) == critical {
                rec.record(
                    "core.pipeline.epilogue",
                    0,
                    step,
                    span,
                    end,
                    step_end.max(end),
                );
            }
        }
        self.prev = now;
    }

    fn layer_metrics(&mut self, spans: &[Span], steps: u64, v: &mut Values) {
        let wire = self.wire_bytes().unwrap_or(0);
        let now = self.pp.stage_stats();
        let per_mb = (steps as usize * MICROBATCHES * STAGES) as f64;
        let d = |f: fn(&StageStats) -> f64| -> Vec<f64> {
            now.iter()
                .zip(&self.window_base)
                .map(|(a, b)| f(a) - f(b))
                .collect()
        };
        let (fwd, bwd, wall) = (d(|s| s.fwd_s), d(|s| s.bwd_s), d(|s| s.sched_wall_s));
        v.set(
            "core.pipeline.fwd_ms_per_mb",
            fwd.iter().sum::<f64>() * 1e3 / per_mb,
        );
        v.set(
            "core.pipeline.bwd_ms_per_mb",
            bwd.iter().sum::<f64>() * 1e3 / per_mb,
        );
        let idle = (0..STAGES)
            .map(|s| 1.0 - (fwd[s] + bwd[s]) / wall[s])
            .fold(0.0, f64::max);
        v.set("core.pipeline.idle_share", idle);
        v.set(
            "core.pipeline.recomputes",
            d(|s| s.recomputes as f64).iter().sum(),
        );
        v.set(
            "core.pipeline.epilogue_ms_p50",
            median_ms(spans, "core.pipeline.epilogue"),
        );
        v.set("comms.wire_bytes_per_step", wire as f64 / steps as f64);
        v.set(
            "comms.msgs_dropped",
            d(|s| s.msgs_dropped as f64).iter().sum(),
        );
        v.set("core.state_bytes", stage_state_bytes(&mut self.pp) as f64);
        v.set("core.nnz", self.pp.nnz() as f64);
    }

    fn state_bytes_per_param(&mut self) -> f64 {
        stage_state_bytes(&mut self.pp) as f64 / self.pp.numel() as f64
    }

    fn wire_bytes(&mut self) -> Option<u64> {
        let now = self.pp.stage_stats();
        Some(
            now.iter()
                .zip(&self.window_base)
                .map(|(a, b)| {
                    (a.pipe_wire_bytes + a.data_wire_bytes)
                        - (b.pipe_wire_bytes + b.data_wire_bytes)
                })
                .sum(),
        )
    }

    fn probes(ctx: &Ctx, budget_s: f64, v: &mut Values) -> Result<(), String> {
        crate::probes::pipe2_mlp(ctx, budget_s, v)
    }

    fn finish(mut self, _ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
        // With one data rank per stage nothing is sharded, so the stages
        // together hold exactly the single-process closed form.
        let measured = stage_state_bytes(&mut self.pp);
        let formula =
            formula_state_bytes(&adam(1e-3), self.pp.numel() as u64, self.pp.nnz() as u64);
        out.check(measured == formula, || {
            format!("stages hold {measured} B of state, 24(1-p)phi+2phi = {formula} B")
        });
        out.state_crc = samo::serialize::crc32(&self.pp.save());

        // The oracle of tests/pipeline_threaded.rs: the same microbatches
        // accumulated sequentially on the whole model under SamoTrainer.
        let mut m = model(self.seed);
        let masks = uniform_pipeline_masks(&m, SPARSITY);
        let mut oracle = SamoTrainer::new(&mut m, masks, adam(1e-3));
        for (i, want) in self.prefix.iter().enumerate() {
            let scale = oracle.loss_scale();
            for mb in 0..MICROBATCHES {
                let (x, target) = &self.pool[pool_index(i as u64, mb)];
                let y = m.forward(x);
                let (_, mut dy) = mse(&y, target);
                tensor::ops::scale(scale, dy.as_mut_slice());
                m.backward(&dy);
            }
            oracle.step(&mut m);
            out.check(oracle.save().as_ref() == want.as_slice(), || {
                format!(
                    "step {i}: checkpoint bytes differ from the single-process SamoTrainer oracle"
                )
            });
        }
        Ok(())
    }
}

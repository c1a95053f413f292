//! `dyn_ckpt`: the "writes beside reads" workload for `core::state`. The
//! compressed state the other workloads only step through is here
//! re-indexed by a prune-and-regrow mask trajectory that sparsifies and
//! then densifies (Dettmers & Zettlemoyer treat the mask as a trajectory),
//! and serialized, fsynced and published between remaps — so a state
//! layout that speeds the step but slows remap, save or restore loses here.

use super::{adam, magnitude_masks, run_training, Ctx, Outcome, Training};
use crate::metrics::Values;
use crate::schedule::derive_seed;
use crate::spans::{durations_ms, median_ms, Recorder, Span, SpanId};
use crate::stats::percentile;
use nn::layer::{Layer, Sequential};
use nn::loss::mse;
use prune::{MaskSchedule, MomentumPruneRegrow};
use samo::trainer::formula_state_bytes;
use samo::{CheckpointConfig, CheckpointManager, SamoTrainer};
use serve::harness::toy_model;
use std::time::Instant;
use tensor::Tensor;

const DIMS: &[usize] = &[256, 1024, 1024, 256];
const BATCH: usize = 4;
/// Mask updates fire every `PERIOD` steps; checkpoints are written half a
/// period later, so the two stalls land on different steps.
const PERIOD: u64 = 16;
const WARMUP_STEPS: u64 = PERIOD;
const SWAP_FRACTION: f64 = 0.1;
/// Sparsity at the start, the midpoint and the end of the run.
const TRAJECTORY: [f64; 3] = [0.90, 0.95, 0.85];
/// Steps per second on the reference box at `SAMO_THREADS=1`, remap and
/// checkpoint steps averaged in.
pub const STEPS_PER_SECOND: f64 = 28.0;

pub struct DynCkpt {
    model: Sequential,
    trainer: SamoTrainer,
    mgr: CheckpointManager,
    seed: u64,
    last_saved: Option<std::path::PathBuf>,
    last_save_bytes: usize,
    /// Traced steps on which the mask moved, in step order.
    remapped: Vec<bool>,
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    run_training::<DynCkpt>(ctx, STEPS_PER_SECOND, 2 * PERIOD, PERIOD as usize)
}

fn build(seed: u64, total_steps: u64) -> (Sequential, SamoTrainer) {
    let mut model = toy_model(DIMS, derive_seed(seed, 1));
    let masks = magnitude_masks(&model, TRAJECTORY[0], 1024);
    let mut trainer = SamoTrainer::new(&mut model, masks, adam(1e-3));
    // Knots in trainer steps, warm-up included: the last update lands on
    // the last period boundary of the run.
    let end = total_steps;
    trainer.set_mask_schedule(MaskSchedule::MomentumPruneRegrow(MomentumPruneRegrow::new(
        vec![
            (0, TRAJECTORY[0]),
            (end / 2, TRAJECTORY[1]),
            (end, TRAJECTORY[2]),
        ],
        PERIOD,
        SWAP_FRACTION,
    )));
    (model, trainer)
}

fn batch(seed: u64, step: u64) -> (Tensor, Tensor) {
    let s = derive_seed(seed, 1_000 + step);
    (
        Tensor::randn(&[BATCH, DIMS[0]], 1.0, s),
        Tensor::randn(&[BATCH, DIMS[DIMS.len() - 1]], 1.0, s ^ 0x5EED),
    )
}

impl Training for DynCkpt {
    fn bring_up(ctx: &Ctx) -> Result<DynCkpt, String> {
        let total = ctx.window_steps(STEPS_PER_SECOND, 2 * PERIOD);
        let (model, trainer) = build(ctx.seed, total);
        let dir = ctx.run_dir.join("dyn_ckpt");
        let _ = std::fs::remove_dir_all(&dir);
        let mut w = DynCkpt {
            model,
            trainer,
            mgr: CheckpointManager::new(CheckpointConfig::new(dir))?,
            seed: ctx.seed,
            last_saved: None,
            last_save_bytes: 0,
            remapped: Vec::new(),
        };
        for i in 0..WARMUP_STEPS {
            w.step(i, &Recorder::off(), None)?;
        }
        Ok(w)
    }

    fn step(&mut self, step: u64, rec: &Recorder, parent: Option<SpanId>) -> Result<f32, String> {
        let t = self.trainer.step_index();
        let (x, target) = rec.time("bench.batch", 0, step, parent, || batch(self.seed, t));
        let y = rec.time("nn.forward", 0, step, parent, || self.model.forward(&x));
        let (loss, mut dy) = rec.time("nn.loss", 0, step, parent, || mse(&y, &target));
        tensor::ops::scale(self.trainer.loss_scale(), dy.as_mut_slice());
        rec.time("nn.backward", 0, step, parent, || self.model.backward(&dy));
        let remaps = self.trainer.remap_events();
        rec.time("core.trainer_step", 0, step, parent, || {
            self.trainer.step(&mut self.model)
        });
        if rec.enabled() {
            self.remapped.push(self.trainer.remap_events() > remaps);
        }
        if t % PERIOD == PERIOD / 2 {
            let bytes = rec.time("core.serialize.save", 0, step, parent, || {
                self.trainer.save()
            });
            self.last_save_bytes = bytes.len();
            let path = rec.time("core.checkpoint.save_and_publish", 0, step, parent, || {
                self.mgr
                    .save_and_publish(self.trainer.steps_taken(), &bytes)
            })?;
            self.last_saved = Some(path);
        }
        Ok(loss)
    }

    fn layer_metrics(&mut self, spans: &[Span], _steps: u64, v: &mut Values) {
        let trainer_ms = durations_ms(spans, "core.trainer_step");
        let of = |remap: bool| -> Vec<f64> {
            trainer_ms
                .iter()
                .zip(&self.remapped)
                .filter(|(_, &r)| r == remap)
                .map(|(&ms, _)| ms)
                .collect()
        };
        let (plain, remap) = (of(false), of(true));
        if !plain.is_empty() && !remap.is_empty() {
            v.set("core.trainer_step_ms_p50", percentile(&plain, 0.5));
            v.set("core.remap_step_ms_p50", percentile(&remap, 0.5));
            v.set(
                "core.remap_stall_ms_p50",
                percentile(&remap, 0.5) - percentile(&plain, 0.5),
            );
        }
        v.set("core.remap_events", remap.len() as f64);
        v.set(
            "core.serialize.save_ms_p50",
            median_ms(spans, "core.serialize.save"),
        );
        v.set(
            "core.checkpoint.save_and_publish_ms_p50",
            median_ms(spans, "core.checkpoint.save_and_publish"),
        );
        v.set("core.serialize.bytes", self.last_save_bytes as f64);
        v.set(
            "core.state_bytes",
            self.trainer.model_state_bytes(true) as f64,
        );
        v.set("core.nnz", self.trainer.nnz() as f64);
    }

    fn state_bytes_per_param(&mut self) -> f64 {
        self.trainer.model_state_bytes(true) as f64 / self.trainer.numel() as f64
    }

    fn probes(ctx: &Ctx, budget_s: f64, v: &mut Values) -> Result<(), String> {
        crate::probes::dyn_ckpt(ctx, budget_s, v)
    }

    fn finish(self, ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
        let tr = &self.trainer;
        let formula = formula_state_bytes(&tr.opt, tr.numel() as u64, tr.nnz() as u64);
        out.check(tr.model_state_bytes(true) == formula, || {
            format!(
                "measured state {} B != 24(1-p)phi+2phi = {formula} B after the last remap",
                tr.model_state_bytes(true)
            )
        });
        out.state_crc = samo::serialize::crc32(&tr.save());

        // The last published file, restored into a fresh trainer, must
        // re-save to the same bytes.
        let path = self
            .last_saved
            .as_ref()
            .ok_or("no checkpoint was written")?;
        let on_disk = std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let total = ctx.window_steps(STEPS_PER_SECOND, 2 * PERIOD);
        let (mut fresh_model, mut fresh) = build(self.seed, total);
        let t0 = Instant::now();
        let restored = fresh.restore(&on_disk, &mut fresh_model);
        let restore_ms = t0.elapsed().as_secs_f64() * 1e3;
        out.check(
            restored.is_ok() && fresh.save().as_ref() == on_disk.as_slice(),
            || {
                format!(
                    "a fresh trainer restored from {} does not re-save it ({restored:?})",
                    path.display()
                )
            },
        );
        if ctx.traced {
            out.values.set("core.restore_ms", restore_ms);
        }
        Ok(())
    }
}

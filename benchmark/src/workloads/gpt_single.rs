//! `gpt_single`: TinyGpt under `SamoTrainer` — the compute-bound,
//! single-worker baseline. `nn`/`tensor` forward and backward do almost
//! all of the work and `core`/`comms` almost none, so GEMM, attention or
//! sparse-training changes show here and state or comms changes must not.

use super::{adam, magnitude_masks, run_training, Ctx, Outcome, Training};
use crate::metrics::Values;
use crate::schedule::{derive_seed, SplitMix64};
use crate::spans::{Recorder, SpanId};
use models::tiny::{TinyGpt, TinyGptConfig};
use nn::data::Corpus;
use nn::layer::Layer;
use nn::loss::cross_entropy;
use samo::trainer::formula_state_bytes;
use samo::SamoTrainer;

const BATCH: usize = 16;
const CONFIG: TinyGptConfig = TinyGptConfig {
    vocab: nn::data::VOCAB,
    seq: 32,
    dim: 64,
    heads: 4,
    layers: 2,
};
const SPARSITY: f64 = 0.9;
const WARMUP_STEPS: u64 = 10;
/// Steps per second on the reference box at `SAMO_THREADS=1`.
pub const STEPS_PER_SECOND: f64 = 30.0;

pub struct GptSingle {
    model: TinyGpt,
    trainer: SamoTrainer,
    corpus: Corpus,
    batches: SplitMix64,
    seed: u64,
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    run_training::<GptSingle>(ctx, STEPS_PER_SECOND, 1, 1)
}

fn build(seed: u64) -> (TinyGpt, SamoTrainer) {
    let mut model = TinyGpt::new(CONFIG, derive_seed(seed, 1));
    let masks = magnitude_masks(&model, SPARSITY, 1024);
    let trainer = SamoTrainer::new(&mut model, masks, adam(1e-2));
    (model, trainer)
}

impl GptSingle {
    fn batch(&mut self) -> (Vec<usize>, Vec<usize>) {
        let tokens = self.corpus.tokens();
        let mut x = Vec::with_capacity(BATCH * CONFIG.seq);
        let mut y = Vec::with_capacity(BATCH * CONFIG.seq);
        for _ in 0..BATCH {
            let start = self.batches.below(tokens.len() - CONFIG.seq - 1);
            x.extend(
                tokens[start..start + CONFIG.seq]
                    .iter()
                    .map(|&t| t as usize),
            );
            y.extend(
                tokens[start + 1..start + CONFIG.seq + 1]
                    .iter()
                    .map(|&t| t as usize),
            );
        }
        (x, y)
    }
}

impl Training for GptSingle {
    fn bring_up(ctx: &Ctx) -> Result<GptSingle, String> {
        let (model, trainer) = build(ctx.seed);
        let mut w = GptSingle {
            model,
            trainer,
            corpus: Corpus::generate(60_000, derive_seed(ctx.seed, 2)),
            batches: SplitMix64::new(derive_seed(ctx.seed, 3)),
            seed: ctx.seed,
        };
        for i in 0..WARMUP_STEPS {
            w.step(i, &Recorder::off(), None)?;
        }
        Ok(w)
    }

    fn step(&mut self, step: u64, rec: &Recorder, parent: Option<SpanId>) -> Result<f32, String> {
        let (x, y) = rec.time("bench.batch", 0, step, parent, || self.batch());
        let logits = rec.time("nn.forward", 0, step, parent, || {
            self.model.forward_ids(&x, BATCH, CONFIG.seq)
        });
        let (loss, mut d) = rec.time("nn.loss", 0, step, parent, || cross_entropy(&logits, &y));
        tensor::ops::scale(self.trainer.loss_scale(), d.as_mut_slice());
        rec.time("nn.backward", 0, step, parent, || self.model.backward(&d));
        rec.time("core.trainer_step", 0, step, parent, || {
            self.trainer.step(&mut self.model)
        });
        Ok(loss)
    }

    fn layer_metrics(&mut self, _spans: &[crate::spans::Span], _steps: u64, v: &mut Values) {
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
        crate::probes::gpt_single(ctx, budget_s, v)
    }

    fn finish(self, _ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
        let tr = &self.trainer;
        let formula = formula_state_bytes(&tr.opt, tr.numel() as u64, tr.nnz() as u64);
        out.check(tr.model_state_bytes(true) == formula, || {
            format!(
                "measured state {} B != 24(1-p)phi+2phi = {formula} B",
                tr.model_state_bytes(true)
            )
        });
        let saved = tr.save();
        out.state_crc = samo::serialize::crc32(&saved);
        let (mut fresh_model, mut fresh) = build(self.seed);
        let restored = fresh.restore(&saved, &mut fresh_model);
        out.check(restored.is_ok() && fresh.save() == saved, || {
            format!("a fresh trainer restored from the last checkpoint does not re-save it ({restored:?})")
        });
        Ok(())
    }
}

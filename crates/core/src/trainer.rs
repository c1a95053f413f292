//! Single-worker training: [`SamoTrainer`] — the step engine with no
//! group to reduce over — plus the closed forms of the model-state memory and of
//! the compressed data-parallel gradient all-reduce (paper Sec. IV-A).
//! The dense masked baseline it must be numerically equivalent to is
//! [`crate::reference::DenseMaskedTrainer`].

use crate::engine::{ScheduleRefused, StepEngine};
use nn::layer::Layer;
use nn::mixed::Optimizer;
use prune::{Mask, MaskSchedule};

/// SAMO training state for a whole model on one worker: the
/// [`StepEngine`] with no group. `new`, `set_mask_schedule` and `step`
/// are the single worker's; the rest is every engine's.
pub type SamoTrainer = StepEngine;

impl StepEngine {
    /// Builds the trainer from a model's current parameters and one mask
    /// per parameter tensor (in `model.params()` order). The model's
    /// parameters are immediately pruned in place, and a parameter whose
    /// layer computes from half precision gives up its f32 `value` and
    /// computes from the lent `θ16` and its index from here on (read it
    /// with [`nn::Parameter::f32_view`]).
    pub fn new(model: &mut impl Layer, masks: Vec<Mask>, opt: Optimizer) -> SamoTrainer {
        let mut tr = StepEngine::build(model, &masks, opt, None, "samo");
        tr.lend_theta16(model, true);
        tr
    }

    /// Installs a dynamic-sparsity schedule, as a rank does
    /// ([`crate::StageRank::set_mask_schedule`]). Refused if it
    /// fires at the next step while the kept sums are lent for that
    /// step's backward: the gradient its grow score ranks at every
    /// position would never be logged. A schedule installed before the
    /// first step, or one that fires later, is taken.
    pub fn set_mask_schedule(&mut self, schedule: MaskSchedule) -> Result<(), ScheduleRefused> {
        let step = self.step_index();
        // What is lent follows the installed schedule: the sums unless it
        // updates at the next step.
        let sums_lent = self.grads_lent && !self.is_update_step();
        if sums_lent && schedule.is_update_step(step) {
            return Err(ScheduleRefused { step });
        }
        self.install_schedule(schedule);
        Ok(())
    }

    /// Completes a training step after `model` has run forward/backward
    /// with the loss multiplied by [`Self::loss_scale`]: brings the lent
    /// `θ16`, index and gradient target home, remaps if the mask schedule
    /// fires, then runs the two fused single-pass kernels — compress with
    /// overflow detection (the sums narrowed, the logged products run at
    /// the new index, [`crate::SamoLayerState::compress_grad_fused`] for a
    /// dense gradient), then upscale + optimizer + downcast + scatter into
    /// `θ16` and whatever f32 views the model still holds
    /// ([`crate::SamoLayerState::optimizer_step_fused`]) — and lends `θ16`
    /// again with the current index, and beside it a target for the next
    /// backward: zeroed kept sums, or a log of the products' operands if
    /// the schedule updates at the next step. Returns `false` if the step
    /// was skipped.
    ///
    /// The steady-state path performs no heap allocation: the lends are
    /// `Vec` moves, both kernels work in place, and the skipped-step path
    /// only zeroes gradients (asserted by `tests/zero_alloc.rs`).
    ///
    /// The call is the window of the engine's ledger: the remap, compress
    /// and optimizer are charged to their phases, the rest to `other`.
    /// With telemetry enabled one [`telemetry::StepEvent`] line is
    /// appended to `metrics.jsonl`; disabled, the overhead is an atomic
    /// load and a clock read per phase.
    pub fn step(&mut self, model: &mut impl Layer) -> bool {
        let scale = self.loss_scale();
        self.ledger.start();
        self.lend_theta16(model, false);
        let applied = self.step_after_backward(model).expect("a single worker runs no collective");
        self.lend_theta16(model, true);
        self.lend_grad_target(model, true);
        self.end_step(applied, scale)
    }
}

/// Closed-form peak SAMO model-state bytes for `phi` parameters with
/// `nnz` kept: the paper's `2φ + 24·nnz` for Adam (Eq. 2's `24fφ + 2φ`
/// at exact integer granularity) and `2φ + 20·nnz` for SGD with
/// momentum. Matches [`SamoTrainer::model_state_bytes`] exactly.
pub fn formula_state_bytes(opt: &Optimizer, phi: u64, nnz: u64) -> u64 {
    match opt {
        Optimizer::Adam(_) => 2 * phi + 24 * nnz,
        Optimizer::Sgd(_) => 2 * phi + 20 * nnz,
    }
}

/// Message bytes of a dense fp16 gradient all-reduce for `phi` params
/// (flat payload model, Eq. 9: every parameter crosses the wire once).
pub fn dense_allreduce_bytes(phi: u64) -> u64 {
    2 * phi
}

/// Message bytes of SAMO's compressed all-reduce: only `fφ` values move.
pub fn samo_allreduce_bytes(nnz: u64) -> u64 {
    2 * nnz
}

/// Per-rank wire bytes of SAMO's compressed fp16 ring all-reduce across
/// `world` ranks: `2·(G−1)/G · fφ` values of 2 bytes (reduce-scatter
/// plus all-gather, each moving `(G−1)/G` of the buffer) — the ring
/// factor of a dense all-reduce over the `fφ` surviving coordinates, so
/// the compressed/dense ratio stays `f` at every world size.
pub fn samo_ring_allreduce_bytes(nnz: u64, world: u64) -> u64 {
    comms::ring_allreduce_model_bytes(nnz, world, 2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::DenseMaskedTrainer;
    use comms::reference::allreduce_mean_f16;
    use nn::linear::Linear;
    use nn::loss::mse;
    use nn::optim::AdamConfig;
    use tensor::f16::F16;
    use tensor::Tensor;

    fn adam() -> Optimizer {
        Optimizer::Adam(AdamConfig {
            lr: 0.05,
            ..Default::default()
        })
    }

    #[test]
    fn trainer_prunes_model_at_init() {
        let mut model = Linear::new(8, 8, false, 1);
        let mask = prune::random_prune(&[8, 8], 0.75, 2);
        let trainer = SamoTrainer::new(&mut model, vec![mask.clone()], adam());
        assert_eq!(trainer.nnz(), 16);
        let w = model.params()[0].f32_view();
        let zeros = w.iter().filter(|&&v| v == 0.0).count();
        assert_eq!(zeros, 48);
    }

    #[test]
    fn new_leaves_f32_values_only_where_a_layer_cannot_take_theta16() {
        // Built, never run: the layers need not compose.
        let mut model = nn::layer::Sequential::new()
            .push(nn::Embedding::new(10, 8, 80))
            .push(nn::norm::LayerNorm::new(8))
            .push(Linear::new(8, 16, true, 81))
            .push(Linear::new(16, 4, false, 82));
        let masks = model
            .params()
            .iter()
            .map(|p| Mask::dense(p.value.shape()))
            .collect();
        let f32_only: usize = model
            .params()
            .iter()
            .filter(|p| !p.accepts_theta16)
            .map(|p| 4 * p.numel())
            .sum();
        assert_eq!(
            f32_only,
            4 * (80 + 8 + 8 + 16),
            "the table, γ, β and one bias"
        );
        let _tr = SamoTrainer::new(&mut model, masks, adam());
        assert_eq!(nn::param::resident_param_bytes(&model).0, f32_only);
        for p in model.params() {
            assert_eq!(
                p.index().is_some(),
                p.accepts_theta16,
                "{}: θ16 is lent with its index",
                p.name
            );
        }
    }

    #[test]
    fn training_reduces_loss_on_regression() {
        // y = x * 0.5 target; a pruned linear layer must still fit it on
        // its unpruned coordinates.
        let mut model = Linear::new(4, 4, true, 3);
        let masks = vec![
            prune::random_prune(&[4, 4], 0.5, 4),
            Mask::dense(&[4]), // keep bias dense
        ];
        let mut trainer = SamoTrainer::new(&mut model, masks, adam());
        let x = Tensor::randn(&[16, 4], 1.0, 5);
        let target = Tensor::from_vec(&[16, 4], x.as_slice().iter().map(|v| v * 0.5).collect());

        let mut first_loss = None;
        let mut last_loss = 0.0;
        for _ in 0..150 {
            let y = model.forward(&x);
            let (loss, mut dy) = mse(&y, &target);
            tensor::ops::scale(trainer.loss_scale(), dy.as_mut_slice());
            model.backward(&dy);
            trainer.step(&mut model);
            first_loss.get_or_insert(loss);
            last_loss = loss;
        }
        assert!(
            last_loss < first_loss.unwrap() * 0.3,
            "loss {} -> {last_loss}",
            first_loss.unwrap()
        );
        assert!(trainer.steps_taken() > 100);
    }

    #[test]
    fn pruned_positions_never_move() {
        let mut model = Linear::new(6, 6, false, 7);
        let mask = prune::random_prune(&[6, 6], 0.8, 8);
        let pruned_positions: Vec<usize> = {
            let keep = mask.to_bools();
            (0..36).filter(|&i| !keep[i]).collect()
        };
        let mut trainer = SamoTrainer::new(&mut model, vec![mask], adam());
        let x = Tensor::randn(&[8, 6], 1.0, 9);
        let target = Tensor::randn(&[8, 6], 1.0, 10);
        for _ in 0..20 {
            let y = model.forward(&x);
            let (_, mut dy) = mse(&y, &target);
            tensor::ops::scale(trainer.loss_scale(), dy.as_mut_slice());
            model.backward(&dy);
            trainer.step(&mut model);
        }
        let w = model.params()[0].f32_view();
        for &i in &pruned_positions {
            assert_eq!(w[i], 0.0, "pruned weight {i} moved");
        }
    }

    #[test]
    fn overflow_skips_step_and_backs_off_scale() {
        let mut model = Linear::new(2, 2, false, 11);
        let mut trainer = SamoTrainer::new(&mut model, vec![Mask::dense(&[2, 2])], adam());
        let before = model.params()[0].f32_view().into_owned();
        let scale_before = trainer.loss_scale();
        // Poison the gradient.
        model.params_mut()[0]
            .grad
            .as_mut_slice()
            .copy_from_slice(&[f32::INFINITY, 0.0, 0.0, 0.0]);
        let applied = trainer.step(&mut model);
        assert!(!applied);
        assert_eq!(model.params()[0].f32_view(), before);
        assert!(trainer.loss_scale() < scale_before);
        assert_eq!(trainer.steps_skipped(), 1);
    }

    #[test]
    fn memory_vs_dense_baseline() {
        let phi = 50_000usize;
        let p = 0.9;
        let mask = prune::random_prune(&[phi], p, 12);

        let mut m1 = Linear::from_weights(Tensor::zeros(&[phi / 100, 100]), None);
        let samo = SamoTrainer::new(&mut m1, vec![mask.clone()], adam());
        let mut m2 = Linear::from_weights(Tensor::zeros(&[phi / 100, 100]), None);
        let dense = DenseMaskedTrainer::new(&mut m2, vec![mask], adam());

        assert_eq!(dense.model_state_bytes(), 20 * phi as u64);
        assert_eq!(
            samo.model_state_bytes(true),
            crate::memory::m_samo_bytes(phi as u64, p)
        );
        let saving = 1.0 - samo.model_state_bytes(true) as f64 / dense.model_state_bytes() as f64;
        assert!((saving - 0.78).abs() < 0.01, "saving {saving}");
    }

    #[test]
    fn microbatch_accumulation_equals_full_batch() {
        // AxoNN processes a batch as pipelined microbatches whose
        // gradients accumulate before the optimizer step (Sec. II-E);
        // SAMO compresses only at step time, so accumulating two
        // half-batches must equal one full-batch step exactly.
        let make = || {
            let mut m = Linear::new(6, 6, false, 41);
            let masks = vec![prune::random_prune(&[6, 6], 0.5, 42)];
            let t = SamoTrainer::new(&mut m, masks, adam());
            (m, t)
        };
        let x1 = Tensor::randn(&[3, 6], 1.0, 43);
        let x2 = Tensor::randn(&[3, 6], 1.0, 44);
        let t1 = Tensor::randn(&[3, 6], 1.0, 45);
        let t2 = Tensor::randn(&[3, 6], 1.0, 46);

        // Microbatched: two forward/backward passes, one step. Use sum
        // (not mean) losses so accumulation is the exact full-batch
        // gradient.
        let (mut m_micro, mut tr_micro) = make();
        for (x, t) in [(&x1, &t1), (&x2, &t2)] {
            let y = m_micro.forward(x);
            let (_, mut dy) = mse(&y, t);
            // Undo mse's 1/N and apply the loss scale: dy · N · scale.
            tensor::ops::scale(tr_micro.loss_scale() * y.numel() as f32, dy.as_mut_slice());
            m_micro.backward(&dy);
        }
        tr_micro.step(&mut m_micro);

        // Full batch: concatenated inputs, one forward/backward.
        let (mut m_full, mut tr_full) = make();
        let xall = Tensor::from_vec(
            &[6, 6],
            x1.as_slice().iter().chain(x2.as_slice()).copied().collect(),
        );
        let tall = Tensor::from_vec(
            &[6, 6],
            t1.as_slice().iter().chain(t2.as_slice()).copied().collect(),
        );
        let y = m_full.forward(&xall);
        let (_, mut dy) = mse(&y, &tall);
        tensor::ops::scale(tr_full.loss_scale() * y.numel() as f32, dy.as_mut_slice());
        m_full.backward(&dy);
        tr_full.step(&mut m_full);

        for (a, b) in tr_micro.layers.iter().zip(&tr_full.layers) {
            for (x, y) in a.theta32.iter().zip(&b.theta32) {
                assert!(
                    (x - y).abs() < 2e-2 * (1.0 + x.abs()),
                    "accumulated {x} vs full-batch {y}"
                );
            }
        }
    }

    #[test]
    fn mask_schedule_remaps_and_memory_tracks_the_trajectory() {
        use prune::{MaskSchedule, MomentumPruneRegrow};
        let mut model = Linear::new(12, 12, false, 71);
        let phi = 144u64;
        // Trajectory sparsifies 0.5 -> 0.9 then densifies back to 0.25.
        let traj = MomentumPruneRegrow::new(vec![(0, 0.5), (6, 0.9), (12, 0.25)], 3, 0.1);
        let start = prune::magnitude_prune(
            model.params()[0].value.as_slice(),
            &[12, 12],
            traj.sparsity_at(0),
        );
        let mut tr = SamoTrainer::new(&mut model, vec![start], adam());
        tr.set_mask_schedule(MaskSchedule::MomentumPruneRegrow(traj.clone())).unwrap();

        let x = Tensor::randn(&[8, 12], 1.0, 72);
        let target = Tensor::randn(&[8, 12], 1.0, 73);
        let mut seen_nnz = std::collections::BTreeSet::new();
        for _ in 0..14 {
            let t = tr.step_index();
            let y = model.forward(&x);
            let (_, mut dy) = mse(&y, &target);
            tensor::ops::scale(tr.loss_scale(), dy.as_mut_slice());
            model.backward(&dy);
            tr.step(&mut model);
            if traj.is_update_step(t) {
                let want = ((1.0 - traj.sparsity_at(t)) * phi as f64).round() as usize;
                assert_eq!(tr.nnz(), want, "nnz off trajectory at t = {t}");
            }
            seen_nnz.insert(tr.nnz());
            // Memory follows 24(1 − p(t))φ + 2φ as p evolves.
            assert_eq!(
                tr.model_state_bytes(true),
                formula_state_bytes(&tr.opt, phi, tr.nnz() as u64)
            );
            // Dense view invariant: pruned positions are exactly zero.
            let keep = tr.layers[0].mask().to_bools();
            for (i, &w) in model.params()[0].f32_view().iter().enumerate() {
                if !keep[i] {
                    assert_eq!(w, 0.0, "pruned weight {i} nonzero after remap");
                }
            }
        }
        assert!(
            tr.remap_events() >= 3,
            "expected >= 3 mask changes, saw {}",
            tr.remap_events()
        );
        assert!(seen_nnz.len() >= 3, "mask never moved: {seen_nnz:?}");
        // Final phase densified: more survivors than the start.
        assert_eq!(tr.nnz(), ((1.0 - 0.25) * phi as f64).round() as usize);
    }

    #[test]
    fn trainer_save_restore_resumes_identically() {
        let make = || {
            let mut model = Linear::new(8, 8, true, 21);
            let masks = vec![
                prune::random_prune(&[8, 8], 0.75, 22),
                Mask::dense(&[8]),
            ];
            let tr = SamoTrainer::new(&mut model, masks, adam());
            (model, tr)
        };
        let (mut model, mut tr) = make();
        let x = Tensor::randn(&[4, 8], 1.0, 23);
        let target = Tensor::randn(&[4, 8], 1.0, 24);
        let train_step = |m: &mut Linear, t: &mut SamoTrainer| {
            let y = m.forward(&x);
            let (_, mut dy) = mse(&y, &target);
            tensor::ops::scale(t.loss_scale(), dy.as_mut_slice());
            m.backward(&dy);
            t.step(m);
        };
        for _ in 0..4 {
            train_step(&mut model, &mut tr);
        }
        let checkpoint = tr.save();

        // Continue live.
        for _ in 0..3 {
            train_step(&mut model, &mut tr);
        }

        // Restore into a fresh trainer/model and replay.
        let (mut model2, mut tr2) = make();
        tr2.restore(&checkpoint, &mut model2).unwrap();
        assert_eq!(model.params().len(), model2.params().len());
        for _ in 0..3 {
            train_step(&mut model2, &mut tr2);
        }
        assert_eq!(views(&model), views(&model2));
    }

    /// Every parameter's f32 value, read without ending a lend.
    fn views(model: &impl Layer) -> Vec<Vec<f32>> {
        model
            .params()
            .iter()
            .map(|p| p.f32_view().into_owned())
            .collect()
    }

    /// A restore into a trainer that has stepped — whose model computes
    /// from a lent `θ16` holding newer weights than the checkpoint —
    /// replays bit for bit: the lent weights are the checkpoint's, not the
    /// ones the model held.
    #[test]
    fn restore_into_a_stepped_trainer_replays_bitwise() {
        let mut model = Linear::new(16, 12, true, 91);
        let masks = vec![prune::random_prune(&[12, 16], 0.8, 92), Mask::dense(&[12])];
        let mut tr = SamoTrainer::new(&mut model, masks, adam());
        let train_step = |m: &mut Linear, t: &mut SamoTrainer, s: u64| {
            let y = m.forward(&Tensor::randn(&[4, 16], 1.0, 93 + s));
            let (_, mut dy) = mse(&y, &Tensor::randn(&[4, 12], 1.0, 193 + s));
            tensor::ops::scale(t.loss_scale(), dy.as_mut_slice());
            m.backward(&dy);
            t.step(m);
            (views(m), t.save())
        };
        for s in 0..3 {
            train_step(&mut model, &mut tr, s);
        }
        let ckpt = tr.save();
        let live: Vec<_> = (3..6).map(|s| train_step(&mut model, &mut tr, s)).collect();

        tr.restore(&ckpt, &mut model).unwrap();
        let replayed: Vec<_> = (3..6).map(|s| train_step(&mut model, &mut tr, s)).collect();
        assert!(
            replayed == live,
            "a restore into a stepped trainer diverged from the live run"
        );
    }

    /// Between steps the weight is the lent `θ16` with its index; the
    /// kept products it runs give the bits of the f32 products over the
    /// widened weight, forward and input gradient alike.
    #[test]
    fn lent_forward_and_backward_equal_the_widened_f32_bitwise() {
        // 8 rows at p = 0.9: the kept products (tests/zero_alloc.rs pins
        // the planner's choice for this shape).
        let mut model = Linear::new(96, 128, true, 95);
        let masks = vec![
            prune::random_prune(&[128, 96], 0.9, 96),
            Mask::dense(&[128]),
        ];
        let mut tr = SamoTrainer::new(&mut model, masks, adam());
        let (x, target) = (
            Tensor::randn(&[8, 96], 1.0, 97),
            Tensor::randn(&[8, 128], 1.0, 98),
        );
        let pass = |m: &mut Linear| {
            let y = m.forward(&x);
            let dx = m.backward(&mse(&y, &target).1);
            let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            (bits(&y), bits(&dx))
        };
        pass(&mut model);
        tr.step(&mut model);
        assert!(
            model.params()[0].index().is_some(),
            "θ16 is lent with its index"
        );
        let lent = pass(&mut model);
        model.for_each_param_mut(&mut |p| p.widen_value());
        tr.lend_theta16(&mut model, false);
        assert!(
            model.params()[0].index().is_none(),
            "the widened f32 value is held"
        );
        assert!(pass(&mut model) == lent, "lent and f32 products differ");
    }

    #[test]
    fn state_bytes_count_theta16_wherever_it_is() {
        let mut model = Linear::new(16, 16, true, 99);
        let masks = vec![
            prune::random_prune(&[16, 16], 0.75, 100),
            Mask::dense(&[16]),
        ];
        let mut tr = SamoTrainer::new(&mut model, masks, adam());
        let lent = (tr.model_state_bytes(true), tr.model_state_bytes(false));
        assert!(tr.layers[0].theta16.is_empty(), "the weight's θ16 is lent");
        tr.lend_theta16(&mut model, false);
        assert_eq!(tr.layers[0].theta16.len(), 256);
        assert_eq!(
            (tr.model_state_bytes(true), tr.model_state_bytes(false)),
            lent
        );
        assert_eq!(
            lent.0,
            formula_state_bytes(&tr.opt, tr.numel() as u64, tr.nnz() as u64)
        );
    }

    #[test]
    fn restore_rejects_structural_mismatch() {
        let mut m1 = Linear::new(4, 4, false, 31);
        let tr1 = SamoTrainer::new(&mut m1, vec![Mask::dense(&[4, 4])], adam());
        let ckpt = tr1.save();

        let mut m2 = Linear::new(6, 6, false, 32);
        let mut tr2 = SamoTrainer::new(&mut m2, vec![Mask::dense(&[6, 6])], adam());
        assert!(tr2.restore(&ckpt, &mut m2).is_err());
    }

    #[test]
    fn allreduce_mean_is_elementwise_mean() {
        let mut a = vec![F16::from_f32(1.0), F16::from_f32(4.0)];
        let mut b = vec![F16::from_f32(3.0), F16::from_f32(0.0)];
        {
            let mut bufs: Vec<&mut [F16]> = vec![&mut a, &mut b];
            allreduce_mean_f16(&mut bufs).unwrap();
        }
        assert_eq!(a[0].to_f32(), 2.0);
        assert_eq!(a[1].to_f32(), 2.0);
        assert_eq!(b[0].to_f32(), 2.0);
        assert_eq!(b[1].to_f32(), 2.0);
    }

    #[test]
    fn allreduce_on_compressed_equals_compress_of_allreduce() {
        use crate::compressed::{compress, expand};
        let mask = prune::random_prune(&[64], 0.8, 13);
        let d1: Vec<F16> = (0..64).map(|i| F16::from_f32(i as f32 * 0.5)).collect();
        let d2: Vec<F16> = (0..64).map(|i| F16::from_f32(32.0 - i as f32)).collect();

        // Path A: compress then all-reduce.
        let mut c1 = compress(&d1, &mask);
        let mut c2 = compress(&d2, &mask);
        {
            let mut bufs: Vec<&mut [F16]> = vec![&mut c1, &mut c2];
            allreduce_mean_f16(&mut bufs).unwrap();
        }

        // Path B: all-reduce dense then compress.
        let mut e1 = expand(&compress(&d1, &mask), &mask);
        let mut e2 = expand(&compress(&d2, &mask), &mask);
        {
            let mut bufs: Vec<&mut [F16]> = vec![&mut e1, &mut e2];
            allreduce_mean_f16(&mut bufs).unwrap();
        }
        let cref = compress(&e1, &mask);
        assert_eq!(c1, cref);
    }

    #[test]
    fn allreduce_rejects_degenerate_inputs() {
        // Empty replica set: nothing to reduce, explicit no-op.
        let mut none: Vec<&mut [F16]> = vec![];
        assert!(allreduce_mean_f16(&mut none).is_ok());

        // Mismatched compressed layouts are a collective error.
        let mut a = vec![F16::from_f32(1.0); 4];
        let mut b = vec![F16::from_f32(1.0); 3];
        let a_before = a.clone();
        let mut bufs: Vec<&mut [F16]> = vec![&mut a, &mut b];
        let err = allreduce_mean_f16(&mut bufs).unwrap_err().to_string();
        assert!(err.contains("length mismatch"), "{err}");
        assert_eq!(a, a_before, "failed allreduce must not write");
    }

    #[test]
    fn save_restores_scaler_state_and_counters() {
        let mut model = Linear::new(4, 4, false, 61);
        let mut tr = SamoTrainer::new(&mut model, vec![Mask::dense(&[4, 4])], adam());
        // Force one skip (backoff) and a couple of good steps.
        model.params_mut()[0].grad.as_mut_slice()[0] = f32::INFINITY;
        tr.step(&mut model);
        for _ in 0..2 {
            plant_grad(&mut model, 0.01);
            tr.step(&mut model);
        }
        assert_eq!(tr.steps_taken(), 2);
        assert_eq!(tr.steps_skipped(), 1);
        let scale = tr.loss_scale();
        let ckpt = tr.save();

        let mut model2 = Linear::new(4, 4, false, 62);
        let mut tr2 = SamoTrainer::new(&mut model2, vec![Mask::dense(&[4, 4])], adam());
        tr2.restore(&ckpt, &mut model2).unwrap();
        assert_eq!(tr2.steps_taken(), 2);
        assert_eq!(tr2.steps_skipped(), 1);
        assert_eq!(tr2.loss_scale(), scale);
        assert_eq!(tr2.scaler.snapshot(), tr.scaler.snapshot());
    }

    /// Sets the weight gradient the next step applies to `g` everywhere:
    /// the lent kept sums, or the dense gradient while none are lent.
    fn plant_grad(model: &mut Linear, g: f32) {
        match model.weight_mut().grad_target() {
            nn::param::GradTarget::Kept(_, sums) => sums.fill(g),
            nn::param::GradTarget::Log(_) => unreachable!("no schedule is installed"),
            nn::param::GradTarget::Dense(grad) => grad.as_mut_slice().fill(g),
        }
    }

    /// One forward and backward of `model` on batch `seed`, loss-scaled.
    fn fwd_bwd(model: &mut Linear, tr: &SamoTrainer, seed: u64) {
        let (inf, outf) = (model.in_features(), model.out_features());
        let y = model.forward(&Tensor::randn(&[4, inf], 1.0, seed));
        let (_, mut dy) = mse(&y, &Tensor::randn(&[4, outf], 1.0, seed + 500));
        tensor::ops::scale(tr.loss_scale(), dy.as_mut_slice());
        model.backward(&dy);
    }

    /// A new trainer lends no gradient sums — a schedule may still come
    /// — and takes any schedule. A stepped one lends them for the next
    /// step, so a schedule that fires there is refused and none is
    /// installed, while one that fires later is taken, and for the step it
    /// updates on the trainer lends a log instead: its backward logs the
    /// products the grow score ranks, and no dense weight gradient is
    /// formed. A restore that finds a target lent sends one out again by
    /// the same rule.
    #[test]
    fn a_schedule_that_fires_at_a_lent_step_is_refused() {
        use prune::MomentumPruneRegrow;
        let schedule = |knots| MaskSchedule::MomentumPruneRegrow(MomentumPruneRegrow::new(knots, 3, 0.1));
        let make = || {
            let mut model = Linear::new(12, 10, true, 111);
            let masks = vec![prune::random_prune(&[10, 12], 0.5, 112), Mask::dense(&[10])];
            let tr = SamoTrainer::new(&mut model, masks, adam());
            (model, tr)
        };
        let (mut fresh_model, mut fresh) = make();
        assert!(fresh_model.params()[0].grad_sums().is_none());
        assert_eq!(fresh.set_mask_schedule(schedule(vec![(0, 0.5), (6, 0.8)])), Ok(()));
        fwd_bwd(&mut fresh_model, &fresh, 0);
        fresh.step(&mut fresh_model);
        assert_eq!(fresh.remap_events(), 1, "the dense gradient of step 0 ranked the regrowth");

        let (mut model, mut tr) = make();
        fwd_bwd(&mut model, &tr, 0);
        tr.step(&mut model);
        let kept = tr.layers[0].nnz();
        assert_eq!(model.params()[0].grad_sums().map(<[f32]>::len), Some(kept), "lent for step 1");
        let refused = tr.set_mask_schedule(schedule(vec![(1, 0.5), (7, 0.8)]));
        assert_eq!(refused, Err(ScheduleRefused { step: 1 }));
        assert!(tr.mask_schedule().is_none(), "a refused schedule is not installed");
        assert_eq!(tr.set_mask_schedule(schedule(vec![(3, 0.5), (9, 0.8)])), Ok(()));
        for t in 1..4u64 {
            let w = &model.params()[0];
            let (sums, log) = (w.grad_sums().is_some(), w.grad_log().map(<[_]>::len));
            assert_eq!((sums, log), (t != 3, (t == 3).then_some(0)), "step {t}: the sums, or the log if it updates");
            fwd_bwd(&mut model, &tr, t);
            let w = &model.params()[0];
            assert_eq!((w.grad.numel(), w.grad_log().map(<[_]>::len)), (0, log.map(|_| 1)), "step {t}");
            tr.step(&mut model);
        }
        assert_eq!(tr.remap_events(), 1);
        assert!(model.params()[0].grad_sums().is_some(), "step 4 does not update");

        // Lent sums a restore finds go out again, zeroed — unless the
        // checkpoint's next step updates.
        let (at1, at3) = {
            let (mut m, mut t) = make();
            t.set_mask_schedule(schedule(vec![(3, 0.5), (9, 0.8)])).unwrap();
            let mut saved = Vec::new();
            for s in 0..3 {
                fwd_bwd(&mut m, &t, s);
                t.step(&mut m);
                saved.push(t.save());
            }
            (saved[0].clone(), saved[2].clone())
        };
        fwd_bwd(&mut model, &tr, 4);
        tr.restore(&at1, &mut model).unwrap();
        assert_eq!(model.params()[0].grad_sums(), Some(&vec![0.0; kept][..]), "zeroed for step 1");
        tr.restore(&at3, &mut model).unwrap();
        assert!(model.params()[0].grad_sums().is_none(), "step 3 updates");
        assert_eq!(model.params()[0].grad_log().map(<[_]>::len), Some(0), "its log goes out, empty");
    }

    /// The gradient bytes a single worker holds between steps are the
    /// biases' dense gradients and the `4·nnz` of the kept sums, no dense
    /// weight gradient; home, the sums are kept warm and lent again.
    #[test]
    fn resident_bytes_count_the_lent_sums_wherever_they_are() {
        let mut model = Linear::new(16, 16, true, 131);
        let masks = vec![prune::random_prune(&[16, 16], 0.75, 132), Mask::dense(&[16])];
        let mut tr = SamoTrainer::new(&mut model, masks, adam());
        for t in 0..2 {
            fwd_bwd(&mut model, &tr, t);
            tr.step(&mut model);
        }
        let nnz = tr.layers[0].nnz();
        assert_eq!(nn::param::resident_param_bytes(&model), (4 * 16, 4 * 16 + 4 * nnz));
        tr.lend_grad_target(&mut model, false);
        assert_eq!(nn::param::resident_param_bytes(&model), (4 * 16, 4 * 16));
        tr.lend_grad_target(&mut model, true);
        assert_eq!(nn::param::resident_param_bytes(&model), (4 * 16, 4 * 16 + 4 * nnz), "lent again");
    }

    #[test]
    fn allreduce_message_sizes() {
        assert_eq!(dense_allreduce_bytes(1000), 2000);
        assert_eq!(samo_allreduce_bytes(100), 200);
        // 10x reduction at 90% sparsity.
        assert_eq!(dense_allreduce_bytes(1000) / samo_allreduce_bytes(100), 10);
    }

    #[test]
    fn ring_allreduce_message_sizes() {
        // Ring factor 2·(G−1)/G of the fp16 payload, degenerate at G≤1.
        assert_eq!(samo_ring_allreduce_bytes(100, 1), 0);
        assert_eq!(samo_ring_allreduce_bytes(100, 2), 200); // = flat model at G=2
        assert_eq!(samo_ring_allreduce_bytes(100, 4), 300);

        // Compressed/dense ratio ≈ 1/f = nnz/φ at every world size: the
        // ring factor cancels (satellite check for Eq. 9 at density
        // f = 0.1 → a 10× wire-volume reduction).
        for world in [2u64, 3, 4, 8] {
            let dense = comms::ring_allreduce_model_bytes(1000, world, 2) as f64;
            let samo = samo_ring_allreduce_bytes(100, world) as f64;
            let ratio = samo / dense;
            // Within 1%: integer byte counts truncate when G ∤ 2·n·(G−1).
            assert!(
                (ratio - 0.1).abs() < 1e-3,
                "world {world}: compressed/dense = {ratio}, want 1/f = 0.1"
            );
        }
    }
}

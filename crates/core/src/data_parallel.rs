//! In-process data-parallel SAMO training with ZeRO-style sharding —
//! the full runtime the paper's Sec. IV-A describes (compressed gradient
//! all-reduce across `G_data` replicas), composed with the sharded
//! optimizer extension of [`crate::state`].
//!
//! This is the **sequential oracle** the threaded runtimes are compared
//! with, bit for bit: it loops over the replicas inside one thread,
//! reduces with the exact-sum reference
//! ([`comms::reference::allreduce_mean_f16`]) and steps with the
//! three-phase reference kernels. It therefore keeps its own step,
//! independent of `crate::engine`, and shares only the engine's
//! construction, checkpoint and telemetry helpers.
//!
//! Each rank holds a full replica of the compute model (dense θ16), the
//! full compressed fp16 gradient, and *its shard* of the fp32/optimizer
//! state. One training step:
//!
//! 1. every rank runs forward/backward on its batch shard (caller),
//! 2. the compressed `∇θ16` are all-reduced (mean) across ranks,
//! 3. every rank applies the optimizer to its own shard,
//! 4. the updated compressed fp16 parameters are all-gathered and
//!    expanded into every replica's dense θ16.

use crate::engine::{
    apply_meta, assert_replicas_agree, build_layers, check_structure, count_recovery,
    install_layers, record_step, trainer_meta, DP,
};
use crate::serialize::{load_checkpoint, save_checkpoint};
use crate::state::SamoLayerState;
use crate::trainer::{allreduce_mean_f16, samo_ring_allreduce_bytes};
use nn::layer::Layer;
use nn::mixed::{LossScaler, Optimizer};
use prune::Mask;
use tensor::f16::F16;

/// A group of data-parallel ranks training one pruned model with SAMO.
pub struct DataParallelSamo<M: Layer> {
    replicas: Vec<M>,
    /// `[rank][param]` sharded states.
    states: Vec<Vec<SamoLayerState>>,
    opt: Optimizer,
    scaler: LossScaler,
    steps_taken: u64,
    steps_skipped: u64,
    /// Cumulative compressed-gradient bytes moved through the all-reduce.
    allreduce_bytes: u64,
}

impl<M: Layer> DataParallelSamo<M> {
    /// Builds the group from identically initialized replicas (their
    /// parameters must match — this is checked) and one mask per
    /// parameter tensor.
    pub fn new(mut replicas: Vec<M>, masks: Vec<Mask>, opt: Optimizer) -> DataParallelSamo<M> {
        // A data-parallel group of zero ranks has no defined collective
        // semantics; misconfiguration is a programming error, caught here
        // rather than as an index panic deep inside `step()`.
        assert_replicas_agree(&replicas);
        let d = replicas.len();
        let states = replicas
            .iter_mut()
            .enumerate()
            .map(|(rank, model)| build_layers(model, &masks, &opt, rank, d))
            .collect();
        DataParallelSamo {
            replicas,
            states,
            opt,
            scaler: LossScaler::default(),
            steps_taken: 0,
            steps_skipped: 0,
            allreduce_bytes: 0,
        }
    }

    /// Number of data-parallel ranks.
    pub fn world_size(&self) -> usize {
        self.replicas.len()
    }

    /// Replaces the loss scaler (e.g. a lower initial scale for models
    /// whose raw gradients approach the fp16 range).
    pub fn set_scaler(&mut self, scaler: LossScaler) {
        self.scaler = scaler;
    }

    /// Mutable access to rank `r`'s model for forward/backward.
    pub fn replica_mut(&mut self, r: usize) -> &mut M {
        &mut self.replicas[r]
    }

    /// Current loss scale (multiply the loss before backward).
    pub fn loss_scale(&self) -> f32 {
        self.scaler.scale()
    }

    /// Applied steps.
    pub fn steps_taken(&self) -> u64 {
        self.steps_taken
    }

    /// Steps skipped on gradient overflow (every rank skips together).
    pub fn steps_skipped(&self) -> u64 {
        self.steps_skipped
    }

    /// Cumulative compressed-gradient bytes this group has moved through
    /// its all-reduce: the ring formula `2·(G−1)/G · fφ` fp16 values per
    /// step (skipped steps included, since the collective runs before
    /// the overflow check). At G = 2 this equals the old flat `2·fφ`.
    pub fn allreduce_bytes(&self) -> u64 {
        self.allreduce_bytes
    }

    /// Total parameters φ (per replica).
    pub fn numel(&self) -> usize {
        self.states[0].iter().map(|s| s.numel()).sum()
    }

    /// Unpruned parameters fφ (per replica).
    pub fn nnz(&self) -> usize {
        self.states[0].iter().map(|s| s.nnz()).sum()
    }

    /// Completes a step after every replica has run forward/backward
    /// with the scaled loss: compress → all-reduce → shard-step →
    /// all-gather → expand. Returns `false` if skipped on overflow.
    pub fn step(&mut self) -> bool {
        let tel = telemetry::enabled();
        let d = self.replicas.len();
        let nparams = self.states[0].len();
        let mut phases = Vec::new();

        // 1. Compress each rank's gradients.
        let sp = tel.then(|| telemetry::span("samo.step.compress"));
        for (model, rank_states) in self.replicas.iter_mut().zip(&mut self.states) {
            for (p, st) in model.params_mut().into_iter().zip(rank_states.iter_mut()) {
                st.compress_grad(p.grad.as_slice());
            }
        }
        phases.extend(sp.map(|sp| ("compress", sp.finish())));

        // 2. All-reduce (mean) the compressed fp16 gradients per param.
        let sp = tel.then(|| telemetry::span("samo.step.reduce"));
        for pi in 0..nparams {
            let mut bufs: Vec<&mut [F16]> = Vec::with_capacity(d);
            // Split-borrow across ranks.
            let mut rest: &mut [Vec<SamoLayerState>] = &mut self.states;
            while let Some((head, tail)) = rest.split_first_mut() {
                bufs.push(&mut head[pi].grad16);
                rest = tail;
            }
            allreduce_mean_f16(&mut bufs)
                .expect("replica gradient buffers share one layout by construction");
        }
        phases.extend(sp.map(|sp| ("reduce", sp.finish())));
        // The collective has run by now whether or not the step applies.
        // Accounted with the bandwidth-optimal ring formula
        // `2·(G−1)/G · fφ` values — what a real ring all-reduce moves
        // per rank (and what `comms` implements), not the flat `fφ`
        // payload model.
        self.allreduce_bytes += samo_ring_allreduce_bytes(self.nnz() as u64, d as u64);

        // Overflow check on the reduced gradients.
        let finite = !self
            .states
            .iter()
            .flatten()
            .any(SamoLayerState::grads_non_finite);
        let scale = self.scaler.scale();
        let proceed = self.scaler.check_and_update(finite);
        if proceed {
            // 3–4. Each rank steps its shard; gather shards per parameter.
            let sp = tel.then(|| telemetry::span("samo.step.optimizer"));
            for pi in 0..nparams {
                let nnz = self.states[0][pi].grad16.len();
                let mut gathered = vec![F16::ZERO; nnz];
                for rank_states in &mut self.states {
                    let st = &mut rank_states[pi];
                    let shard16 = st.optimizer_step_shard(&self.opt, 1.0 / scale);
                    let (lo, hi) = st.shard_range();
                    gathered[lo..hi].copy_from_slice(&shard16);
                }
                for rank_states in &mut self.states {
                    rank_states[pi].install_gathered(&gathered);
                }
            }
            // 5. Write the updated dense parameters into every replica.
            for (model, rank_states) in self.replicas.iter_mut().zip(&self.states) {
                for (p, st) in model.params_mut().into_iter().zip(rank_states) {
                    st.write_dense_f32_params_into(p.value.as_mut_slice());
                    p.zero_grad();
                }
            }
            phases.extend(sp.map(|sp| ("optimizer", sp.finish())));
            self.steps_taken += 1;
        } else {
            for model in &mut self.replicas {
                model.zero_grad();
            }
            self.steps_skipped += 1;
        }
        if tel {
            record_step(
                &DP,
                proceed,
                scale,
                self.meta(),
                &self.states[0],
                &self.opt,
                Some(d),
                phases,
            );
        }
        proceed
    }

    fn meta(&self) -> crate::TrainerMeta {
        trainer_meta(&self.scaler, self.steps_taken, self.steps_skipped)
    }

    /// Serializes the group's training state as one v2 checkpoint: the
    /// per-rank shards are gathered back into full compressed layers (a
    /// rank-count-independent layout — a checkpoint written at `d = 4`
    /// restores into any world size), plus the loss-scaler state and
    /// step counters.
    pub fn save(&self) -> bytes::Bytes {
        let layers: Vec<SamoLayerState> = (0..self.states[0].len())
            .map(|pi| {
                let ranks: Vec<&SamoLayerState> = self.states.iter().map(|rs| &rs[pi]).collect();
                SamoLayerState::to_full_layer(&ranks)
            })
            .collect();
        save_checkpoint(&layers, &self.meta())
    }

    /// Restores a checkpoint produced by [`Self::save`] into the whole
    /// group: every rank's shards are re-sliced from the full layers and
    /// every replica's dense parameters rewritten, so the group resumes
    /// bitwise identically. The group's structure (parameter count, mask
    /// shapes) must match what was saved; the world size may differ.
    pub fn restore(&mut self, checkpoint: &[u8]) -> Result<(), String> {
        let (layers, meta) = load_checkpoint(checkpoint, &self.opt)?;
        check_structure(&self.states[0], &layers, 0, self.states[0].len())?;
        for (model, rank_states) in self.replicas.iter_mut().zip(&mut self.states) {
            install_layers(rank_states, layers.iter().cloned(), model)?;
        }
        apply_meta(
            meta,
            &mut self.scaler,
            &mut self.steps_taken,
            &mut self.steps_skipped,
        );
        count_recovery();
        Ok(())
    }

    /// Reconstructs a single failed rank from a checkpoint taken at the
    /// group's current step, leaving the surviving ranks untouched. The
    /// rebuilt rank is bitwise identical to one that never failed (same
    /// θ16/∇θ16/θ32-shard/optimizer shard), which
    /// [`Self::rank_failure_drill`] verifies.
    pub fn restore_rank(&mut self, rank: usize, checkpoint: &[u8]) -> Result<(), String> {
        if rank >= self.replicas.len() {
            return Err(format!(
                "rank {rank} out of range for world size {}",
                self.replicas.len()
            ));
        }
        let (layers, _) = load_checkpoint(checkpoint, &self.opt)?;
        check_structure(&self.states[0], &layers, 0, self.states[0].len())?;
        install_layers(
            &mut self.states[rank],
            layers.into_iter(),
            &mut self.replicas[rank],
        )?;
        if telemetry::enabled() {
            telemetry::global()
                .counter("samo.ckpt.rank_recoveries")
                .inc();
        }
        Ok(())
    }

    /// Fault drill: checkpoints the group, destroys rank `rank`'s state
    /// (scrambling its parameters and shards, as a lost node would),
    /// reconstructs it from the checkpoint, and verifies bitwise
    /// resynchronization against a surviving rank. Returns the
    /// checkpoint size in bytes on success; any mismatch is an `Err`
    /// naming the first diverging tensor.
    pub fn rank_failure_drill(&mut self, rank: usize) -> Result<usize, String> {
        if self.replicas.len() < 2 {
            return Err("drill needs at least two ranks (one must survive)".into());
        }
        if rank >= self.replicas.len() {
            return Err(format!(
                "rank {rank} out of range for world size {}",
                self.replicas.len()
            ));
        }
        let checkpoint = self.save();
        telemetry::log_info!(
            "rank_failure_drill: dropping rank {rank}, checkpoint {} bytes",
            checkpoint.len()
        );

        // Simulate the failure: wipe the rank's model and shards.
        for p in self.replicas[rank].params_mut() {
            p.value.as_mut_slice().fill(f32::NAN);
            p.zero_grad();
        }
        for st in &mut self.states[rank] {
            st.theta16.fill(tensor::f16::F16::from_f32(f32::NAN));
            st.grad16.fill(tensor::f16::F16::from_f32(f32::NAN));
            st.theta32.fill(f32::NAN);
        }

        self.restore_rank(rank, &checkpoint)?;

        // Prove bitwise resynchronization against a surviving rank.
        let witness = if rank == 0 { 1 } else { 0 };
        for (pi, (a, b)) in self.states[rank]
            .iter()
            .zip(&self.states[witness])
            .enumerate()
        {
            if a.theta16 != b.theta16 {
                return Err(format!("param {pi}: θ16 diverged after rank recovery"));
            }
            if a.grad16 != b.grad16 {
                return Err(format!("param {pi}: ∇θ16 diverged after rank recovery"));
            }
        }
        let restored: Vec<Vec<f32>> = self.replicas[rank]
            .params()
            .iter()
            .map(|p| p.value.as_slice().to_vec())
            .collect();
        for (p, want) in self.replicas[witness].params().iter().zip(&restored) {
            if p.value.as_slice() != &want[..] {
                return Err(format!(
                    "parameter {}: replica diverged after rank recovery",
                    p.name
                ));
            }
        }
        Ok(checkpoint.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nn::layer::Sequential;
    use nn::linear::Linear;
    use nn::loss::mse;
    use nn::optim::AdamConfig;
    use tensor::Tensor;

    fn model(seed: u64) -> Sequential {
        Sequential::new()
            .push(Linear::new(6, 12, true, seed))
            .push(nn::activations::Gelu::new())
            .push(Linear::new(12, 6, true, seed + 1))
    }

    fn masks(m: &Sequential) -> Vec<Mask> {
        m.params()
            .iter()
            .map(|p| {
                if p.value.shape().len() >= 2 {
                    prune::magnitude_prune(p.value.as_slice(), p.value.shape(), 0.7)
                } else {
                    Mask::dense(p.value.shape())
                }
            })
            .collect()
    }

    fn adam() -> Optimizer {
        Optimizer::Adam(AdamConfig {
            lr: 1e-2,
            ..Default::default()
        })
    }

    #[test]
    fn replicas_stay_bitwise_synchronized() {
        let masks = masks(&model(5));
        let mut dp = DataParallelSamo::new(vec![model(5), model(5), model(5)], masks, adam());
        dp.set_scaler(LossScaler::new(256.0));
        for step in 0..6 {
            for r in 0..dp.world_size() {
                let scale = dp.loss_scale();
                let x = Tensor::randn(&[4, 6], 1.0, 100 + (step * 3 + r) as u64);
                let t = Tensor::randn(&[4, 6], 1.0, 200 + (step * 3 + r) as u64);
                let m = dp.replica_mut(r);
                let y = m.forward(&x);
                let (_, mut dy) = mse(&y, &t);
                tensor::ops::scale(scale, dy.as_mut_slice());
                m.backward(&dy);
            }
            assert!(dp.step());
            // All replicas bitwise identical after the step.
            let reference: Vec<Vec<f32>> = dp.replicas[0]
                .params()
                .iter()
                .map(|p| p.value.as_slice().to_vec())
                .collect();
            for r in 1..dp.world_size() {
                for (p, want) in dp.replicas[r].params().iter().zip(&reference) {
                    assert_eq!(p.value.as_slice(), &want[..], "step {step} rank {r}");
                }
            }
        }
        assert_eq!(dp.steps_taken(), 6);
    }

    #[test]
    fn matches_single_rank_samo_trainer() {
        // d = 1 sharded data-parallel ≡ the plain SamoTrainer, bitwise.
        use crate::trainer::SamoTrainer;
        let masks_dp = masks(&model(9));
        let mut dp = DataParallelSamo::new(vec![model(9)], masks_dp, adam());
        dp.set_scaler(LossScaler::new(256.0));
        let mut plain_model = model(9);
        let masks_plain = masks(&model(9));
        let mut plain = SamoTrainer::new(&mut plain_model, masks_plain, adam());
        plain.scaler = LossScaler::new(256.0);

        for step in 0..5 {
            let x = Tensor::randn(&[4, 6], 1.0, 300 + step);
            let t = Tensor::randn(&[4, 6], 1.0, 400 + step);

            let scale = dp.loss_scale();
            let m = dp.replica_mut(0);
            let y = m.forward(&x);
            let (_, mut dy) = mse(&y, &t);
            tensor::ops::scale(scale, dy.as_mut_slice());
            m.backward(&dy);
            dp.step();

            let y = plain_model.forward(&x);
            let (_, mut dy) = mse(&y, &t);
            tensor::ops::scale(plain.loss_scale(), dy.as_mut_slice());
            plain_model.backward(&dy);
            plain.step(&mut plain_model);

            for (a, b) in dp.replicas[0].params().iter().zip(plain_model.params()) {
                assert_eq!(a.value.as_slice(), b.value.as_slice(), "step {step}");
            }
        }
    }

    #[test]
    fn overflow_skips_and_keeps_ranks_aligned() {
        let masks2 = masks(&model(11));
        let mut dp = DataParallelSamo::new(vec![model(11), model(11)], masks2, adam());
        // Poison one rank's gradient; the reduced gradient overflows and
        // every rank must skip.
        let before: Vec<Vec<f32>> = dp.replicas[0]
            .params()
            .iter()
            .map(|p| p.value.as_slice().to_vec())
            .collect();
        dp.replica_mut(0).params_mut()[0]
            .grad
            .as_mut_slice()
            .fill(f32::INFINITY);
        assert!(!dp.step());
        for (p, want) in dp.replicas[1].params().iter().zip(&before) {
            assert_eq!(p.value.as_slice(), &want[..]);
        }
        assert_eq!(dp.steps_taken(), 0);
        assert_eq!(dp.steps_skipped(), 1);
        // The all-reduce ran before the overflow was detected, so its
        // bytes still count: 2·fφ for one step.
        assert_eq!(dp.allreduce_bytes(), 2 * dp.nnz() as u64);
    }

    fn drive_step(dp: &mut DataParallelSamo<Sequential>, step: usize) {
        for r in 0..dp.world_size() {
            let scale = dp.loss_scale();
            let x = Tensor::randn(&[4, 6], 1.0, 700 + (step * 8 + r) as u64);
            let t = Tensor::randn(&[4, 6], 1.0, 800 + (step * 8 + r) as u64);
            let m = dp.replica_mut(r);
            let y = m.forward(&x);
            let (_, mut dy) = mse(&y, &t);
            tensor::ops::scale(scale, dy.as_mut_slice());
            m.backward(&dy);
        }
        dp.step();
    }

    #[test]
    fn group_save_restore_resumes_identically() {
        let build = || {
            let masks3 = masks(&model(17));
            let mut dp =
                DataParallelSamo::new(vec![model(17), model(17), model(17)], masks3, adam());
            dp.set_scaler(LossScaler::new(256.0));
            dp
        };
        let mut live = build();
        for s in 0..3 {
            drive_step(&mut live, s);
        }
        let ckpt = live.save();

        // Continue live.
        for s in 3..6 {
            drive_step(&mut live, s);
        }

        // Restore into a fresh group and replay the same steps.
        let mut resumed = build();
        resumed.restore(&ckpt).unwrap();
        assert_eq!(resumed.steps_taken(), 3);
        assert_eq!(resumed.loss_scale(), 256.0);
        for s in 3..6 {
            drive_step(&mut resumed, s);
        }
        for r in 0..live.world_size() {
            for (a, b) in live.replicas[r]
                .params()
                .iter()
                .zip(resumed.replicas[r].params())
            {
                assert_eq!(
                    a.value.as_slice(),
                    b.value.as_slice(),
                    "rank {r} {}",
                    a.name
                );
            }
        }
    }

    #[test]
    fn checkpoint_restores_across_world_sizes() {
        // A d=3 checkpoint restores into a d=2 group (rank-count
        // independent layout) and continues identically to a single-rank
        // restore of the same bytes.
        let masks3 = masks(&model(19));
        let mut dp3 = DataParallelSamo::new(vec![model(19), model(19), model(19)], masks3, adam());
        dp3.set_scaler(LossScaler::new(128.0));
        for s in 0..2 {
            drive_step(&mut dp3, s);
        }
        let ckpt = dp3.save();

        let masks2 = masks(&model(19));
        let mut dp2 = DataParallelSamo::new(vec![model(19), model(19)], masks2, adam());
        dp2.restore(&ckpt).unwrap();
        assert_eq!(dp2.steps_taken(), dp3.steps_taken());
        for (a, b) in dp2.replicas[0]
            .params()
            .iter()
            .zip(dp3.replicas[0].params())
        {
            assert_eq!(a.value.as_slice(), b.value.as_slice(), "{}", a.name);
        }
    }

    #[test]
    fn rank_failure_drill_resynchronizes_bitwise() {
        let masks3 = masks(&model(23));
        let mut dp = DataParallelSamo::new(vec![model(23), model(23), model(23)], masks3, adam());
        dp.set_scaler(LossScaler::new(256.0));
        for s in 0..3 {
            drive_step(&mut dp, s);
        }
        let bytes = dp.rank_failure_drill(1).unwrap();
        assert!(bytes > 0);
        // The group keeps training in lockstep after the recovery.
        for s in 3..6 {
            drive_step(&mut dp, s);
        }
        let reference: Vec<Vec<f32>> = dp.replicas[0]
            .params()
            .iter()
            .map(|p| p.value.as_slice().to_vec())
            .collect();
        for r in 1..dp.world_size() {
            for (p, want) in dp.replicas[r].params().iter().zip(&reference) {
                assert_eq!(p.value.as_slice(), &want[..], "rank {r} {}", p.name);
            }
        }
        assert_eq!(dp.steps_taken(), 6);
    }

    #[test]
    fn drill_rejects_degenerate_groups() {
        let masks1 = masks(&model(27));
        let mut dp = DataParallelSamo::new(vec![model(27)], masks1, adam());
        assert!(dp.rank_failure_drill(0).is_err(), "needs a surviving rank");
        let ckpt = dp.save();
        let err = dp.restore_rank(5, &ckpt).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
    }

    #[test]
    fn restore_rejects_corrupt_checkpoint() {
        let masks2 = masks(&model(29));
        let mut dp = DataParallelSamo::new(vec![model(29), model(29)], masks2, adam());
        let mut bad = dp.save().to_vec();
        let n = bad.len();
        bad[n / 2] ^= 0x10;
        assert!(dp.restore(&bad).is_err());
    }

    #[test]
    fn allreduce_bytes_accumulate_per_step() {
        let masks2 = masks(&model(13));
        let mut dp = DataParallelSamo::new(vec![model(13), model(13)], masks2, adam());
        dp.set_scaler(LossScaler::new(128.0));
        assert_eq!(dp.allreduce_bytes(), 0);
        let per_step = 2 * dp.nnz() as u64;
        for step in 0..3 {
            for r in 0..dp.world_size() {
                let scale = dp.loss_scale();
                let x = Tensor::randn(&[4, 6], 1.0, 500 + (step * 2 + r) as u64);
                let t = Tensor::randn(&[4, 6], 1.0, 600 + (step * 2 + r) as u64);
                let m = dp.replica_mut(r);
                let y = m.forward(&x);
                let (_, mut dy) = mse(&y, &t);
                tensor::ops::scale(scale, dy.as_mut_slice());
                m.backward(&dy);
            }
            dp.step();
        }
        assert_eq!(dp.allreduce_bytes(), 3 * per_step);
        assert_eq!(dp.steps_taken() + dp.steps_skipped(), 3);
        // φ and fφ agree with the underlying masks.
        assert!(dp.nnz() < dp.numel());
    }
}

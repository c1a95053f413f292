//! What a correct SAMO step is: the oracle every fused kernel and every
//! runtime is byte-checked against. Nothing a runtime executes lives
//! here — the module has the role `comms::reference`, the sequential
//! all-reduce the ring is checked against, has for the collectives.
//!
//! * The three-phase step of the paper (Sec. III-C) over one
//!   [`SamoLayerState`]: [`compress_grad`] and [`grads_non_finite`] for
//!   the backward pass, then [`optimizer_step_shard`] — upscale
//!   `∇θ16 → ∇θ32`, the optimizer on the compressed `θ32`, downcast — and
//!   [`install_gathered`], the expand into the dense `θ16`;
//!   [`optimizer_step`] is the two on a full state. The fused kernels
//!   `SamoLayerState::{compress_grad_fused, optimizer_step_owned,
//!   scatter_gathered}` are property-tested against them
//!   (`tests/fused_step.rs`).
//! * [`DataParallelSamo`], the sequential in-process data-parallel group
//!   the threaded runtimes are compared with, bit for bit: it loops over
//!   the replicas inside one thread, reduces with
//!   [`comms::reference::allreduce_mean_f16`] and steps with the
//!   three-phase kernels. It therefore keeps its own step, independent of
//!   `crate::engine`, mask updates included, and shares only the engine's
//!   construction, checkpoint and telemetry helpers; [`to_full_layer`]
//!   gathers its shards for a checkpoint or a remap.
//! * [`DenseMaskedTrainer`], the dense mixed-precision baseline SAMO
//!   must reproduce bit for bit on `θ32` — the reproduction's core
//!   correctness theorem — and its closed form
//!   [`dense_formula_state_bytes`].

use crate::compressed::expand_into;
use crate::engine::{
    apply_meta, assert_replicas_agree, build_layers, check_structure, install_layers, step_event,
    trainer_meta,
};
use crate::serialize::{load_checkpoint, save_checkpoint};
use crate::state::{os_arrays_mut, RemapScratch, SamoLayerState};
use crate::trainer::{dense_allreduce_bytes, samo_ring_allreduce_bytes};
use nn::layer::Layer;
use nn::mixed::{DenseMixedState, LossScaler, OptState, Optimizer};
use prune::{Mask, MaskSchedule};
use telemetry::ledger::{Ledger, Phase};
use tensor::f16::F16;

/// Compresses a freshly produced dense (loss-scaled) fp32 gradient
/// into `∇θ16` — done "at the granularity of a layer ... so that we
/// never have to store the uncompressed gradients for the entire
/// model" (Sec. III-C, backward pass).
pub fn compress_grad(st: &mut SamoLayerState, dense_scaled_grad: &[f32]) {
    assert_eq!(dense_scaled_grad.len(), st.numel());
    let ind = st.mask.indices();
    for (g16, &i) in st.grad16.iter_mut().zip(ind.iter()) {
        *g16 = F16::from_f32(dense_scaled_grad[i as usize]);
    }
}

/// True if any stored fp16 gradient is non-finite (loss-scaler check).
pub fn grads_non_finite(st: &SamoLayerState) -> bool {
    st.grad16.iter().any(|g| !g.is_finite())
}

/// The three-phase SAMO optimizer step (Sec. III-C) over the owned
/// range, returning the updated *compressed fp16* range — the
/// payload of the parameter all-gather:
///
/// 1. upscale `∇θ16 → ∇θ32` directly on compressed tensors,
/// 2. run the optimizer on compressed `θ32` with dense elementwise
///    kernels,
/// 3. downcast: make a compressed fp16 copy of `θ32` (the `2fφ/d`
///    transient of the memory model).
///
/// [`install_gathered`] completes the step by expanding every rank's
/// copy through `ind` into the dense `θ16`. Together they are the
/// reference [`SamoLayerState::optimizer_step_owned`] and
/// [`SamoLayerState::scatter_gathered`] are tested against, and the step
/// of [`DataParallelSamo`].
pub fn optimizer_step_shard(st: &mut SamoLayerState, opt: &Optimizer, inv_loss_scale: f32) -> Vec<F16> {
    let (lo, hi) = st.shard_range();
    for (g32, g16) in st.grad32.iter_mut().zip(&st.grad16[lo..hi]) {
        *g32 = g16.to_f32() * inv_loss_scale;
    }
    st.os.step(opt, &mut st.theta32, &st.grad32);
    st.theta32.iter().map(|&v| F16::from_f32(v)).collect()
}

/// Installs the all-gathered compressed fp16 parameters (every
/// rank's range, concatenated) and expands them into the dense θ16.
pub fn install_gathered(st: &mut SamoLayerState, full_compressed16: &[F16]) {
    assert_eq!(full_compressed16.len(), st.mask.nnz());
    expand_into(full_compressed16, &st.mask, &mut st.theta16);
}

/// The whole three-phase step on a full state — the reference path
/// the fused kernels are property-tested against; the training hot
/// loop uses [`SamoLayerState::compress_grad_fused`] and
/// [`SamoLayerState::optimizer_step_fused`] instead.
pub fn optimizer_step(st: &mut SamoLayerState, opt: &Optimizer, inv_loss_scale: f32) {
    assert_eq!(st.shard().1, 1, "a shard's step needs the all-gather");
    let temp16 = optimizer_step_shard(st, opt, inv_loss_scale);
    install_gathered(st, &temp16);
}

/// Reassembles the full compressed layer state for one parameter
/// from every rank's shard, for checkpointing. `ranks` must hold one
/// state per rank, in rank order, all for the same parameter tensor.
pub fn to_full_layer(ranks: &[&SamoLayerState]) -> SamoLayerState {
    let first = ranks.first().expect("need at least one shard");
    assert_eq!(ranks.len(), first.shard().1, "one state per rank");
    for (r, st) in ranks.iter().enumerate() {
        assert_eq!(st.shard().0, r, "ranks must be in order");
        assert_eq!(st.mask, first.mask, "shards of different tensors");
    }
    let shards: Vec<_> = ranks.iter().map(|st| st.shard_arrays()).collect();
    let mut full = first.full_from_shards(&shards);
    // After a reduce-scatter a rank holds the reduced `∇θ16` on its
    // own range only, so that too is assembled from the owners.
    for st in ranks {
        let (lo, hi) = st.shard_range();
        full.grad16[lo..hi].copy_from_slice(&st.grad16[lo..hi]);
    }
    full
}

/// A group of data-parallel ranks training one pruned model with SAMO —
/// the full runtime the paper's Sec. IV-A describes (compressed gradient
/// all-reduce across `G_data` replicas), composed with the ZeRO-style
/// sharded optimizer of `crate::state`.
///
/// Each rank holds a full replica of the compute model (dense θ16), the
/// full compressed fp16 gradient, and *its shard* of the fp32/optimizer
/// state. One training step:
///
/// 1. every rank runs forward/backward on its batch shard (caller),
/// 2. the compressed `∇θ16` are all-reduced (mean) across ranks,
/// 3. every rank applies the optimizer to its own shard,
/// 4. the updated compressed fp16 parameters are all-gathered and
///    expanded into every replica's dense θ16.
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
    /// The dynamic-sparsity schedule, if any ([`Self::set_mask_schedule`]).
    schedule: Option<MaskSchedule>,
    /// The step timer: a step's window, charged `remap`, `compress`,
    /// `reduce` and `optimizer` where they run.
    ledger: Ledger,
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
            schedule: None,
            ledger: Ledger::default(),
        }
    }

    /// Installs a dynamic-sparsity schedule. On an update step, before
    /// compressing, each parameter's grow score is the exact mean of the
    /// replicas' dense gradients narrowed to f16, ranked beside `θ16`
    /// ([`MaskSchedule::next_mask`]); a moved mask remaps the gathered
    /// state, cuts it into shards again and rewrites every replica.
    // TEST-API: `pipeline_threaded` holds the runtimes' mask updates to it.
    pub fn set_mask_schedule(&mut self, schedule: MaskSchedule) {
        self.schedule = Some(schedule);
    }

    /// The mask update of step `t`, if the schedule fires there.
    fn remap(&mut self, t: u64) {
        let Some(sched) = self.schedule.as_ref().filter(|s| s.is_update_step(t)) else {
            return;
        };
        self.ledger.enter(Phase::Remap);
        let d = self.replicas.len();
        for pi in 0..self.states[0].len() {
            let narrow = |m: &mut M| m.params_mut()[pi].grad.as_slice().iter().map(|&g| F16::from_f32(g)).collect();
            let mut scores: Vec<Vec<F16>> = self.replicas.iter_mut().map(narrow).collect();
            let mut bufs: Vec<&mut [F16]> = scores.iter_mut().map(|v| &mut v[..]).collect();
            comms::reference::allreduce_mean_f16(&mut bufs).expect("replica gradients share one layout");
            let st = &self.states[0][pi];
            let new_mask = sched.next_mask(t, &st.theta16, &scores[0], &st.mask);
            if new_mask == st.mask {
                continue;
            }
            let mut full = to_full_layer(&self.states.iter().map(|rs| &rs[pi]).collect::<Vec<_>>());
            let mut scratch = RemapScratch::for_layer(&mut full, &self.opt);
            full.remap_compressed_state(new_mask, &mut scratch);
            for (r, (rs, model)) in self.states.iter_mut().zip(&mut self.replicas).enumerate() {
                rs[pi] = full.clone().into_shard(r, d);
                rs[pi].write_dense_f32_params_into(model.params_mut()[pi].value.as_mut_slice());
            }
        }
        self.ledger.exit(Phase::Remap);
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
        let d = self.replicas.len();
        let nparams = self.states[0].len();
        self.ledger.start();

        // 0. A mask update, if the schedule fires at this step.
        self.remap(self.steps_taken + self.steps_skipped);

        // 1. Compress each rank's gradients.
        self.ledger.enter(Phase::Compress);
        for (model, rank_states) in self.replicas.iter_mut().zip(&mut self.states) {
            for (p, st) in model.params_mut().into_iter().zip(rank_states.iter_mut()) {
                compress_grad(st, p.grad.as_slice());
            }
        }
        self.ledger.exit(Phase::Compress);

        // 2. All-reduce (mean) the compressed fp16 gradients per param.
        self.ledger.enter(Phase::Reduce);
        for pi in 0..nparams {
            let mut bufs: Vec<&mut [F16]> = self.states.iter_mut().map(|rs| &mut rs[pi].grad16[..]).collect();
            comms::reference::allreduce_mean_f16(&mut bufs)
                .expect("replica gradient buffers share one layout by construction");
        }
        self.ledger.exit(Phase::Reduce);
        // The collective has run by now whether or not the step applies.
        // Accounted with the bandwidth-optimal ring formula
        // `2·(G−1)/G · fφ` values — what a real ring all-reduce moves
        // per rank (and what `comms` implements), not the flat `fφ`
        // payload model.
        self.allreduce_bytes += samo_ring_allreduce_bytes(self.nnz() as u64, d as u64);

        // Overflow check on the reduced gradients.
        let finite = !self.states.iter().flatten().any(grads_non_finite);
        let scale = self.scaler.scale();
        let proceed = self.scaler.check_and_update(finite);
        if proceed {
            // 3–4. Each rank steps its shard; gather shards per parameter.
            self.ledger.enter(Phase::Optimizer);
            for pi in 0..nparams {
                let nnz = self.states[0][pi].grad16.len();
                let mut gathered = vec![F16::ZERO; nnz];
                for rank_states in &mut self.states {
                    let st = &mut rank_states[pi];
                    let shard16 = optimizer_step_shard(st, &self.opt, 1.0 / scale);
                    let (lo, hi) = st.shard_range();
                    gathered[lo..hi].copy_from_slice(&shard16);
                }
                for rank_states in &mut self.states {
                    install_gathered(&mut rank_states[pi], &gathered);
                }
            }
            // 5. Write the updated dense parameters into every replica.
            for (model, rank_states) in self.replicas.iter_mut().zip(&self.states) {
                for (p, st) in model.params_mut().into_iter().zip(rank_states) {
                    st.write_dense_f32_params_into(p.value.as_mut_slice());
                    p.zero_grad();
                }
            }
            self.ledger.exit(Phase::Optimizer);
            self.steps_taken += 1;
        } else {
            for model in &mut self.replicas {
                model.zero_grad();
            }
            self.steps_skipped += 1;
        }
        self.ledger.stop();
        if telemetry::enabled() {
            let split = self.ledger.split();
            let ev = step_event("samo_dp", (proceed, scale), self.meta(), &self.states[0], &self.opt, Some(d), split);
            telemetry::jsonl::emit_line(&ev.to_json());
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
                to_full_layer(&ranks)
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
        Ok(())
    }

    /// Fault drill: checkpoints the group, destroys rank `rank`'s state
    /// (NaN in its parameters, `θ16`, `∇θ16`, `θ32`, `∇θ32` and optimizer
    /// moments, Adam's step count scrambled, as a lost node would leave
    /// them), reconstructs it from the checkpoint, and verifies it
    /// bitwise: `θ16`, `∇θ16` and the parameters against a surviving rank,
    /// and the rank's own `θ32` range, moments and step — which no other
    /// rank holds — against the checkpoint cut to its shard. Returns the
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
            st.theta16.fill(F16::from_f32(f32::NAN));
            st.grad16.fill(F16::from_f32(f32::NAN));
            st.theta32.fill(f32::NAN);
            st.grad32.fill(f32::NAN);
            for a in os_arrays_mut(&mut st.os).into_iter().flatten() {
                a.fill(f32::NAN);
            }
            if let OptState::Adam(a) = &mut st.os {
                a.step = u64::MAX;
            }
        }

        self.restore_rank(rank, &checkpoint)?;

        // Prove bitwise resynchronization against a surviving rank.
        let witness = if rank == 0 { 1 } else { 0 };
        for (pi, (a, b)) in self.states[rank].iter().zip(&self.states[witness]).enumerate() {
            if a.theta16 != b.theta16 {
                return Err(format!("param {pi}: θ16 diverged after rank recovery"));
            }
            if a.grad16 != b.grad16 {
                return Err(format!("param {pi}: ∇θ16 diverged after rank recovery"));
            }
        }
        for (p, q) in self.replicas[rank].params().iter().zip(self.replicas[witness].params()) {
            if p.value.as_slice() != q.value.as_slice() {
                return Err(format!("parameter {}: replica diverged after rank recovery", p.name));
            }
        }
        // What only this rank holds — its θ32 range and optimizer state —
        // against the checkpoint cut to its shard.
        let (layers, _) = load_checkpoint(&checkpoint, &self.opt)?;
        let step = |os: &OptState| match os { OptState::Adam(a) => Some(a.step), OptState::Sgd(_) => None };
        for (pi, (st, layer)) in self.states[rank].iter().zip(layers).enumerate() {
            let want = layer.into_shard(rank, self.replicas.len());
            let arrays = st.shard_arrays().into_iter().zip(want.shard_arrays());
            for ((a, b), name) in arrays.zip(["θ32", "m / velocity", "v"]) {
                if !a.iter().map(|x| x.to_bits()).eq(b.iter().map(|x| x.to_bits())) {
                    return Err(format!("param {pi}: {name} diverged after rank recovery"));
                }
            }
            if step(&st.os) != step(&want.os) {
                return Err(format!("param {pi}: Adam's step diverged after rank recovery"));
            }
        }
        Ok(checkpoint.len())
    }
}

/// Closed-form dense mixed-precision model-state bytes: `20φ` (Adam) or
/// `16φ` (SGD). Matches [`DenseMaskedTrainer::model_state_bytes`].
pub fn dense_formula_state_bytes(opt: &Optimizer, phi: u64) -> u64 {
    match opt {
        Optimizer::Adam(_) => 20 * phi,
        Optimizer::Sgd(_) => 16 * phi,
    }
}

/// Dense mixed-precision baseline with gradient masking: trains exactly
/// the same subnetwork as SAMO but stores everything dense (`M_default`).
/// SAMO must reproduce this trainer's trajectory bit-for-bit on θ32 —
/// that equivalence is the reproduction's core correctness theorem.
pub struct DenseMaskedTrainer {
    pub layers: Vec<(DenseMixedState, Mask)>,
    pub opt: Optimizer,
    pub scaler: LossScaler,
    steps_taken: u64,
    steps_skipped: u64,
    /// The step timer: masking the gradients is its `compress`.
    ledger: Ledger,
}

impl DenseMaskedTrainer {
    /// Mirrors [`crate::SamoTrainer::new`] with dense storage.
    pub fn new(model: &mut impl Layer, masks: Vec<Mask>, opt: Optimizer) -> DenseMaskedTrainer {
        let params = model.params_mut();
        assert_eq!(params.len(), masks.len());
        let mut layers = Vec::with_capacity(params.len());
        for (p, mask) in params.into_iter().zip(masks) {
            let mut masked = p.value.as_slice().to_vec();
            mask.apply(&mut masked);
            let st = DenseMixedState::from_params(&masked, &opt);
            // Load fp16-rounded pruned params into the compute model.
            let dense: Vec<f32> = st.theta16.iter().map(|v| v.to_f32()).collect();
            p.value.as_mut_slice().copy_from_slice(&dense);
            layers.push((st, mask));
        }
        DenseMaskedTrainer {
            layers,
            opt,
            scaler: LossScaler::default(),
            steps_taken: 0,
            steps_skipped: 0,
            ledger: Ledger::default(),
        }
    }

    /// Current loss scale.
    pub fn loss_scale(&self) -> f32 {
        self.scaler.scale()
    }

    /// Measured model-state bytes (20φ for Adam).
    pub fn model_state_bytes(&self) -> u64 {
        self.layers.iter().map(|(st, _)| st.bytes() as u64).sum()
    }

    /// Total parameters φ across all layers.
    pub fn numel(&self) -> usize {
        self.layers.iter().map(|(_, m)| m.numel()).sum()
    }

    /// Unpruned parameters fφ.
    pub fn nnz(&self) -> usize {
        self.layers.iter().map(|(_, m)| m.nnz()).sum()
    }

    /// Steps applied (not skipped by the loss scaler).
    pub fn steps_taken(&self) -> u64 {
        self.steps_taken
    }

    /// Steps skipped due to gradient overflow.
    pub fn steps_skipped(&self) -> u64 {
        self.steps_skipped
    }

    /// Dense counterpart of [`crate::SamoTrainer::step`]: masks gradients
    /// (the subnetwork constraint), runs the dense optimizer, re-masks
    /// parameters, writes back.
    pub fn step(&mut self, model: &mut impl Layer) -> bool {
        self.ledger.start();
        let params = model.params_mut();
        assert_eq!(params.len(), self.layers.len());
        self.ledger.enter(Phase::Compress);
        for (p, (st, mask)) in params.iter().zip(&mut self.layers) {
            let mut g = p.grad.as_slice().to_vec();
            mask.apply(&mut g);
            st.set_grad_from_f32(&g);
        }
        self.ledger.exit(Phase::Compress);
        let finite = !self
            .layers
            .iter()
            .any(|(st, _)| st.grad16.iter().any(|g| !g.is_finite()));
        let scale = self.scaler.scale();
        let proceed = self.scaler.check_and_update(finite);
        if proceed {
            self.ledger.enter(Phase::Optimizer);
            for (p, (st, mask)) in params.into_iter().zip(&mut self.layers) {
                st.optimizer_step(&self.opt, 1.0 / scale);
                // Keep pruned positions exactly zero (masked subnetwork
                // training; weight decay would otherwise leave them 0
                // anyway since they start at 0 with 0 grad, but we pin
                // them for exactness).
                let mut t32 = st.theta32.clone();
                mask.apply(&mut t32);
                st.theta32.copy_from_slice(&t32);
                tensor::ops::narrow_into(&st.theta32, &mut st.theta16);
                let dense: Vec<f32> = st.theta16.iter().map(|v| v.to_f32()).collect();
                p.value.as_mut_slice().copy_from_slice(&dense);
                p.zero_grad();
            }
            self.ledger.exit(Phase::Optimizer);
            self.steps_taken += 1;
        } else {
            for p in params {
                p.zero_grad();
            }
            self.steps_skipped += 1;
        }
        self.ledger.stop();
        if telemetry::enabled() {
            self.record_step(proceed, scale);
        }
        proceed
    }

    /// Cold path: the same step record every SAMO runtime writes, under
    /// `runtime: "dense_masked"`.
    fn record_step(&self, applied: bool, scale_used: f32) {
        let numel = self.numel() as u64;
        let ev = telemetry::StepEvent {
            runtime: "dense_masked",
            step: self.steps_taken + self.steps_skipped - 1,
            applied,
            loss_scale: scale_used,
            steps_taken: self.steps_taken,
            steps_skipped: self.steps_skipped,
            numel,
            nnz: self.nnz() as u64,
            model_state_bytes: self.model_state_bytes(),
            formula_state_bytes: Some(dense_formula_state_bytes(&self.opt, numel)),
            allreduce_bytes: dense_allreduce_bytes(numel),
            split: self.ledger.split(),
            ..Default::default()
        };
        telemetry::jsonl::emit_line(&ev.to_json());
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

    fn adam() -> Optimizer {
        Optimizer::Adam(AdamConfig {
            lr: 0.1,
            ..Default::default()
        })
    }

    fn mask_half() -> Mask {
        Mask::new(&[8], vec![1, 3, 4, 6])
    }

    #[test]
    fn compress_grad_picks_unpruned_positions() {
        let values = vec![1.0f32; 8];
        let mut st = SamoLayerState::from_params(&values, mask_half(), &adam());
        let grads: Vec<f32> = (10..18).map(|i| i as f32).collect();
        compress_grad(&mut st, &grads);
        let g: Vec<f32> = st.grad16.iter().map(|v| v.to_f32()).collect();
        assert_eq!(g, vec![11.0, 13.0, 14.0, 16.0]);
    }

    #[test]
    fn optimizer_step_keeps_pruned_params_zero() {
        let values: Vec<f32> = (1..=8).map(|i| i as f32).collect();
        let mut st = SamoLayerState::from_params(&values, mask_half(), &adam());
        compress_grad(&mut st, &[1.0f32; 8]);
        optimizer_step(&mut st, &adam(), 1.0);
        let dense = st.dense_f32_params();
        for (i, &v) in dense.iter().enumerate() {
            if [1usize, 3, 4, 6].contains(&i) {
                assert!(v != 0.0 && v < (i + 1) as f32, "unpruned moved down");
            } else {
                assert_eq!(v, 0.0, "pruned stayed zero");
            }
        }
    }

    #[test]
    fn non_finite_grad_detection() {
        let mut st = SamoLayerState::from_params(&[1.0; 8], mask_half(), &adam());
        compress_grad(&mut st, &[0.0; 8]);
        assert!(!grads_non_finite(&st));
        let mut grads = vec![0.0f32; 8];
        grads[3] = f32::INFINITY; // position 3 is unpruned
        compress_grad(&mut st, &grads);
        assert!(grads_non_finite(&st));
        // Overflow at a *pruned* position is invisible — it is never stored.
        let mut grads2 = vec![0.0f32; 8];
        grads2[0] = f32::INFINITY; // position 0 is pruned
        compress_grad(&mut st, &grads2);
        assert!(!grads_non_finite(&st));
    }

    #[test]
    fn loss_scale_is_divided_out() {
        let opt = Optimizer::Sgd(nn::optim::SgdConfig {
            lr: 1.0,
            momentum: 0.0,
            weight_decay: 0.0,
        });
        let mask = Mask::dense(&[2]);
        let mut st = SamoLayerState::from_params(&[0.0, 0.0], mask, &opt);
        let scale = 256.0;
        compress_grad(&mut st, &[0.5 * scale, -0.25 * scale]);
        optimizer_step(&mut st, &opt, 1.0 / scale);
        assert!((st.theta32[0] + 0.5).abs() < 1e-3);
        assert!((st.theta32[1] - 0.25).abs() < 1e-3);
    }

    /// A 1-D layer of `phi` parameters at 70% sparsity, one state per
    /// shard, after `steps` rounds of compress → shard step → all-gather
    /// on gradients every rank agrees on.
    fn stepped_shards(phi: usize, d: usize, steps: usize) -> (SamoLayerState, Vec<SamoLayerState>) {
        let opt = adam();
        let mask = prune::random_prune(&[phi], 0.7, 2);
        let values: Vec<f32> = (0..phi).map(|i| ((i * 31 % 97) as f32 - 48.0) * 0.01).collect();
        let mut reference = SamoLayerState::from_params(&values, mask.clone(), &opt);
        let mut ranks: Vec<SamoLayerState> = (0..d)
            .map(|r| SamoLayerState::from_params_sharded(&values, mask.clone(), &opt, r, d))
            .collect();
        for step in 0..steps {
            let grads: Vec<f32> =
                (0..phi).map(|i| ((i + step * 13) % 29) as f32 * 0.01 - 0.14).collect();
            compress_grad(&mut reference, &grads);
            optimizer_step(&mut reference, &opt, 1.0);
            let mut gathered = vec![F16::ZERO; mask.nnz()];
            for rank in ranks.iter_mut() {
                compress_grad(rank, &grads);
                let shard16 = optimizer_step_shard(rank, &opt, 1.0);
                let (lo, hi) = rank.shard_range();
                gathered[lo..hi].copy_from_slice(&shard16);
            }
            for (r, rank) in ranks.iter_mut().enumerate() {
                install_gathered(rank, &gathered);
                // The extension's correctness theorem: every rank's dense
                // θ16 and its θ32 range equal the unsharded trajectory.
                assert_eq!(rank.theta16, reference.theta16, "rank {r} diverged at step {step}");
                let (lo, hi) = rank.shard_range();
                assert_eq!(&rank.theta32[..], &reference.theta32[lo..hi]);
            }
        }
        (reference, ranks)
    }

    #[test]
    fn sharded_training_equals_unsharded() {
        stepped_shards(257, 3, 5); // 257 is deliberately not divisible by 3
    }

    #[test]
    fn concat_of_shards_inverts_slicing() {
        let (reference, ranks) = stepped_shards(131, 4, 3);
        let refs: Vec<&SamoLayerState> = ranks.iter().collect();
        let full = to_full_layer(&refs);
        assert_eq!(full.shard(), (0, 1));
        assert_eq!(full.theta32, reference.theta32);
        assert_eq!(full.theta16, reference.theta16);
        for (r, orig) in ranks.iter().enumerate() {
            let rebuilt = full.clone().into_shard(r, 4);
            assert_eq!(rebuilt.shard_range(), orig.shard_range());
            assert_eq!(rebuilt.theta16, orig.theta16, "rank {r} θ16");
            assert_eq!(rebuilt.grad16, orig.grad16, "rank {r} ∇θ16");
            assert_eq!(rebuilt.theta32, orig.theta32, "rank {r} θ32");
            match (&rebuilt.os, &orig.os) {
                (OptState::Adam(a), OptState::Adam(b)) => {
                    assert_eq!((a.step, &a.m, &a.v), (b.step, &b.m, &b.v));
                }
                _ => panic!("wrong optimizer state"),
            }
        }
    }

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

    fn dp_adam() -> Optimizer {
        Optimizer::Adam(AdamConfig {
            lr: 1e-2,
            ..Default::default()
        })
    }
    #[test]
    fn replicas_stay_bitwise_synchronized() {
        let masks = masks(&model(5));
        let mut dp = DataParallelSamo::new(vec![model(5), model(5), model(5)], masks, dp_adam());
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
        let mut dp = DataParallelSamo::new(vec![model(9)], masks_dp, dp_adam());
        dp.set_scaler(LossScaler::new(256.0));
        let mut plain_model = model(9);
        let masks_plain = masks(&model(9));
        let mut plain = SamoTrainer::new(&mut plain_model, masks_plain, dp_adam());
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
                assert_eq!(a.value.as_slice(), &b.f32_view()[..], "step {step}");
            }
        }
    }

    #[test]
    fn overflow_skips_and_keeps_ranks_aligned() {
        let masks2 = masks(&model(11));
        let mut dp = DataParallelSamo::new(vec![model(11), model(11)], masks2, dp_adam());
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
                DataParallelSamo::new(vec![model(17), model(17), model(17)], masks3, dp_adam());
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
        let mut dp3 = DataParallelSamo::new(vec![model(19), model(19), model(19)], masks3, dp_adam());
        dp3.set_scaler(LossScaler::new(128.0));
        for s in 0..2 {
            drive_step(&mut dp3, s);
        }
        let ckpt = dp3.save();

        let masks2 = masks(&model(19));
        let mut dp2 = DataParallelSamo::new(vec![model(19), model(19)], masks2, dp_adam());
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
        let mut dp = DataParallelSamo::new(vec![model(23), model(23), model(23)], masks3, dp_adam());
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

    /// The drill under SGD with momentum: the velocity of the lost rank's
    /// shard, which no other rank holds, comes back bit for bit.
    #[test]
    fn rank_failure_drill_restores_sgd_velocity() {
        let sgd = Optimizer::Sgd(nn::optim::SgdConfig { lr: 1e-2, momentum: 0.9, weight_decay: 1e-3 });
        let mut dp = DataParallelSamo::new(vec![model(31), model(31)], masks(&model(31)), sgd);
        dp.set_scaler(LossScaler::new(256.0));
        for s in 0..3 {
            drive_step(&mut dp, s);
        }
        let shard_bits = |dp: &DataParallelSamo<Sequential>| -> Vec<Vec<u32>> {
            let arrays = dp.states[0].iter().flat_map(|st| st.shard_arrays());
            arrays.map(|a| a.iter().map(|x| x.to_bits()).collect()).collect()
        };
        let before = shard_bits(&dp);
        for st in &dp.states[0] {
            let OptState::Sgd(s) = &st.os else { panic!("an SGD group holds velocity") };
            assert!(s.velocity.iter().any(|&v| v != 0.0), "velocity never moved");
        }
        dp.rank_failure_drill(0).unwrap();
        assert_eq!(shard_bits(&dp), before);
        drive_step(&mut dp, 3);
        assert_eq!(dp.steps_taken(), 4);
    }

    #[test]
    fn drill_rejects_degenerate_groups() {
        let masks1 = masks(&model(27));
        let mut dp = DataParallelSamo::new(vec![model(27)], masks1, dp_adam());
        assert!(dp.rank_failure_drill(0).is_err(), "needs a surviving rank");
        let ckpt = dp.save();
        let err = dp.restore_rank(5, &ckpt).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
    }

    #[test]
    fn restore_rejects_corrupt_checkpoint() {
        let masks2 = masks(&model(29));
        let mut dp = DataParallelSamo::new(vec![model(29), model(29)], masks2, dp_adam());
        let mut bad = dp.save().to_vec();
        let n = bad.len();
        bad[n / 2] ^= 0x10;
        assert!(dp.restore(&bad).is_err());
    }

    #[test]
    fn allreduce_bytes_accumulate_per_step() {
        let masks2 = masks(&model(13));
        let mut dp = DataParallelSamo::new(vec![model(13), model(13)], masks2, dp_adam());
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

//! Cross-process data-parallel SAMO: the [`StepEngine`] of one rank
//! whose gradient mean moves through a [`Communicator`] — any
//! [`Transport`], but built for [`comms::TcpTransport`] endpoints
//! living in *separate OS processes* wired by [`comms::bootstrap_tcp`].
//!
//! # Bitwise equivalence with the single-process trainer
//!
//! Each rank runs the same fused compress/optimizer kernels as
//! [`SamoTrainer`](crate::SamoTrainer) on an unsharded state; the only
//! new operation is the ring all-reduce over the compressed `∇θ16`. The
//! ring computes the exact-f64-sum mean (see the `comms` crate docs), so
//! when every rank feeds identical per-rank batches — replicated data
//! parallelism — the mean of G bitwise-identical f16 gradients is that
//! gradient again, bit for bit, and the whole distributed trajectory (θ,
//! optimizer moments, loss-scale schedule, checkpoint bytes) is bitwise
//! identical to [`SamoTrainer`](crate::SamoTrainer) on one process. That
//! identity is the oracle the `samo-launch` drill checks checkpoints
//! against: the transport is the only variable, so any divergence is a
//! transport bug.
//!
//! # Failure and recovery
//!
//! A dead peer surfaces as `Err` from `step` within the heartbeat window
//! ([`comms::CommsError::PeerDead`]) or the socket EOF
//! ([`comms::CommsError::Closed`]) — never a hang. The survivor then
//! re-rendezvouses (a fresh transport + generation), and `resync`
//! installs the new communicator, restores the agreed checkpoint, and
//! barriers the new mesh together.

use crate::engine::{Ring, StepEngine, DP};
use comms::{CommsError, Communicator, Transport};
use nn::layer::Layer;
use nn::mixed::Optimizer;
use prune::Mask;

/// A data-parallel SAMO trainer over an arbitrary transport: the
/// [`StepEngine`] with the ring reducer. One instance per rank (usually
/// one per process); `save` is local and byte-identical to
/// [`SamoTrainer::save`](crate::SamoTrainer::save) for the same
/// trajectory, which is what lets the multi-process drill diff
/// checkpoints against the single-process oracle.
pub type DistDataParallel<T> = StepEngine<Ring<T>>;

impl<T: Transport> StepEngine<Ring<T>> {
    /// Builds this rank's trainer exactly like
    /// [`SamoTrainer::new`](crate::SamoTrainer::new) (prune in place,
    /// round to f16, write widened params back) and attaches the
    /// communicator. The caller has already
    /// [`Communicator::adopt_epoch`]'d the rendezvous-agreed epoch.
    pub fn new(
        model: &mut impl Layer,
        masks: Vec<Mask>,
        opt: Optimizer,
        comm: Communicator<T>,
    ) -> DistDataParallel<T> {
        StepEngine::build(model, &masks, opt, Ring(comm), false, &DP)
    }

    /// This rank's index in the mesh.
    pub fn rank(&self) -> usize {
        self.reducer.0.rank()
    }

    /// Mesh size.
    pub fn world(&self) -> usize {
        self.reducer.0.world()
    }

    /// The communicator — for broadcasts (e.g. shipping checkpoint
    /// bytes to rejoining ranks) and barriers around the step loop.
    pub fn comm_mut(&mut self) -> &mut Communicator<T> {
        &mut self.reducer.0
    }

    /// Completes one training step after `model` ran forward/backward
    /// with the loss multiplied by [`Self::loss_scale`]. The local
    /// compressed gradients are ring-all-reduced to their mean; the
    /// overflow verdict is the AND of every rank's compress flag, agreed
    /// with one one-element gather, so every rank's loss scaler reaches
    /// the same decision — exactly the scheme the threaded runtime uses.
    /// `Err` means a collective failed (dead peer, timeout, poisoned
    /// communicator) and the group needs [`Self::resync`].
    pub fn step(&mut self, model: &mut impl Layer) -> Result<bool, CommsError> {
        self.step_after_backward(model)
    }

    /// The restore-and-resync recovery entry point: installs a freshly
    /// bootstrapped communicator (new generation, epoch already
    /// adopted by the caller), restores the agreed checkpoint, and
    /// barriers the new mesh so every rank resumes the step loop
    /// together. After a successful resync the trainer's bytes are the
    /// checkpoint's bytes — the drill re-diffs them post-kill.
    pub fn resync(
        &mut self,
        comm: Communicator<T>,
        checkpoint: &[u8],
        model: &mut impl Layer,
    ) -> Result<(), String> {
        self.reducer.0 = comm;
        self.restore(checkpoint, model)?;
        self.reducer
            .0
            .barrier()
            .map_err(|e| format!("post-resync barrier failed: {e}"))?;
        if telemetry::enabled() {
            telemetry::global().counter("samo.dist.resyncs").inc();
        }
        Ok(())
    }
}

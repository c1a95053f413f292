//! Mixed-precision training state (Micikevicius et al., ICLR 2018).
//!
//! This is the *dense baseline* the paper starts from: for each layer,
//! the model state comprises
//!
//! * `θ16`  — half-precision parameters used by forward/backward (2φ B),
//! * `∇θ16` — half-precision gradients (2φ B),
//! * `θ32`  — single-precision master parameters (4φ B),
//! * `∇θ32` — single-precision gradients (4φ B),
//! * `os`   — optimizer states, 8φ B for Adam,
//!
//! totalling `M_default = 20φ` bytes (paper Sec. III-D). SAMO (the `samo`
//! crate) replaces every piece except `θ16` with compressed storage; the
//! two implementations must produce identical training trajectories on a
//! pruned network, which is property-tested there.

use crate::optim::{adam_step, sgd_step, AdamConfig, AdamState, SgdConfig, SgdState};
use tensor::f16::F16;
use tensor::ops;

/// Which optimizer a state buffer belongs to.
#[derive(Clone, Debug)]
pub enum Optimizer {
    Adam(AdamConfig),
    Sgd(SgdConfig),
}

/// Per-tensor optimizer state.
#[derive(Clone, Debug)]
pub enum OptState {
    Adam(AdamState),
    Sgd(SgdState),
}

impl OptState {
    /// Creates zeroed state for `n` parameters under `opt`.
    pub fn new(opt: &Optimizer, n: usize) -> OptState {
        match opt {
            Optimizer::Adam(_) => OptState::Adam(AdamState::new(n)),
            Optimizer::Sgd(_) => OptState::Sgd(SgdState::new(n)),
        }
    }

    /// Bytes of optimizer state storage.
    pub fn bytes(&self) -> usize {
        match self {
            OptState::Adam(s) => s.bytes(),
            OptState::Sgd(s) => s.bytes(),
        }
    }

    /// Applies one optimizer step over flat slices.
    pub fn step(&mut self, opt: &Optimizer, params: &mut [f32], grads: &[f32]) {
        match (self, opt) {
            (OptState::Adam(s), Optimizer::Adam(cfg)) => adam_step(cfg, s, params, grads),
            (OptState::Sgd(s), Optimizer::Sgd(cfg)) => sgd_step(cfg, s, params, grads),
            _ => panic!("optimizer state/config mismatch"),
        }
    }
}

/// Dense mixed-precision model state for one layer (the `M_default`
/// layout).
#[derive(Clone, Debug)]
pub struct DenseMixedState {
    pub theta16: Vec<F16>,
    pub theta32: Vec<f32>,
    pub grad16: Vec<F16>,
    pub grad32: Vec<f32>,
    pub os: OptState,
}

impl DenseMixedState {
    /// Initializes from full-precision parameter values.
    pub fn from_params(values: &[f32], opt: &Optimizer) -> DenseMixedState {
        let theta32 = values.to_vec();
        let theta16 = values.iter().map(|&v| F16::from_f32(v)).collect();
        DenseMixedState {
            theta16,
            theta32,
            grad16: vec![F16::ZERO; values.len()],
            grad32: vec![0.0; values.len()],
            os: OptState::new(opt, values.len()),
        }
    }

    /// Parameter count φ.
    pub fn numel(&self) -> usize {
        self.theta32.len()
    }

    /// Records gradients produced by the backward pass: the (already
    /// loss-scaled) f32 gradients are narrowed into `∇θ16`, exactly as a
    /// fp16 backward pass would emit them.
    pub fn set_grad_from_f32(&mut self, scaled_grads: &[f32]) {
        ops::narrow_into(scaled_grads, &mut self.grad16);
    }

    /// The three-phase mixed-precision optimizer step (paper Sec. III-C):
    /// 1. upscale `∇θ16 → ∇θ32` (dividing out the loss scale),
    /// 2. run the optimizer on `θ32`,
    /// 3. downcast `θ32 → θ16`.
    pub fn optimizer_step(&mut self, opt: &Optimizer, inv_loss_scale: f32) {
        for (g32, g16) in self.grad32.iter_mut().zip(&self.grad16) {
            *g32 = g16.to_f32() * inv_loss_scale;
        }
        let DenseMixedState { theta32, grad32, os, .. } = self;
        os.step(opt, theta32, grad32);
        ops::narrow_into(&self.theta32, &mut self.theta16);
    }

    /// Total bytes of model state — must equal `20φ` for Adam.
    pub fn bytes(&self) -> usize {
        self.theta16.len() * 2
            + self.grad16.len() * 2
            + self.theta32.len() * 4
            + self.grad32.len() * 4
            + self.os.bytes()
    }
}

/// Dynamic loss scaler.
///
/// Scales the loss before backward so small fp16 gradients don't flush to
/// zero; on overflow (non-finite gradients) the step is skipped and the
/// scale halved; after `growth_interval` consecutive good steps the scale
/// doubles.
#[derive(Clone, Debug)]
pub struct LossScaler {
    scale: f32,
    growth_factor: f32,
    backoff_factor: f32,
    growth_interval: u32,
    good_steps: u32,
}

impl Default for LossScaler {
    fn default() -> Self {
        LossScaler {
            scale: 65536.0,
            growth_factor: 2.0,
            backoff_factor: 0.5,
            growth_interval: 2000,
            good_steps: 0,
        }
    }
}

/// Serializable snapshot of a [`LossScaler`]'s mutable state.
///
/// The growth/backoff hyper-parameters are configuration, not state, so a
/// snapshot carries only what a checkpoint must restore for the scaling
/// schedule to continue exactly where it left off.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LossScalerState {
    pub scale: f32,
    pub good_steps: u32,
}

impl LossScaler {
    /// Creates a scaler with an explicit initial scale.
    pub fn new(initial_scale: f32) -> LossScaler {
        LossScaler {
            scale: initial_scale,
            ..Default::default()
        }
    }

    /// Creates a scaler with fully explicit configuration. `growth_interval`
    /// is clamped to at least 1 so the schedule is well defined.
    // TEST-API: `fault_tolerance` builds a fast-growing scaler for its drills.
    pub fn with_config(
        initial_scale: f32,
        growth_factor: f32,
        backoff_factor: f32,
        growth_interval: u32,
    ) -> LossScaler {
        LossScaler {
            scale: initial_scale,
            growth_factor,
            backoff_factor,
            growth_interval: growth_interval.max(1),
            good_steps: 0,
        }
    }

    /// Current loss scale.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Captures the mutable state for checkpointing.
    pub fn snapshot(&self) -> LossScalerState {
        LossScalerState {
            scale: self.scale,
            good_steps: self.good_steps,
        }
    }

    /// Restores a previously captured snapshot, resuming the scaling
    /// schedule exactly (hyper-parameters are left untouched).
    pub fn restore_state(&mut self, st: LossScalerState) {
        self.scale = st.scale;
        self.good_steps = st.good_steps;
    }

    /// Checks the (scaled) f16 gradients of a step. Returns `true` if the
    /// step should proceed; on overflow returns `false` and backs off.
    pub fn check_and_update(&mut self, grads_finite: bool) -> bool {
        if grads_finite {
            self.good_steps += 1;
            if self.good_steps >= self.growth_interval {
                self.scale *= self.growth_factor;
                self.good_steps = 0;
            }
            true
        } else {
            self.scale = (self.scale * self.backoff_factor).max(1.0);
            self.good_steps = 0;
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_state_is_20_bytes_per_param() {
        let values = vec![0.5f32; 1000];
        let st = DenseMixedState::from_params(&values, &Optimizer::Adam(AdamConfig::default()));
        assert_eq!(st.bytes(), 20 * 1000);
    }

    #[test]
    fn sgd_state_is_16_bytes_per_param() {
        let values = vec![0.5f32; 100];
        let st = DenseMixedState::from_params(&values, &Optimizer::Sgd(SgdConfig::default()));
        // 2+2+4+4+4 (one momentum buffer) = 16
        assert_eq!(st.bytes(), 16 * 100);
    }

    #[test]
    fn optimizer_step_updates_both_precisions() {
        let opt = Optimizer::Adam(AdamConfig {
            lr: 0.1,
            ..Default::default()
        });
        let mut st = DenseMixedState::from_params(&[1.0, -1.0], &opt);
        st.set_grad_from_f32(&[1.0, -1.0]);
        st.optimizer_step(&opt, 1.0);
        assert!(st.theta32[0] < 1.0);
        assert!(st.theta32[1] > -1.0);
        // θ16 is the narrowed θ32.
        assert_eq!(st.theta16[0], F16::from_f32(st.theta32[0]));
        assert_eq!(st.theta16[1], F16::from_f32(st.theta32[1]));
    }

    #[test]
    fn loss_scale_divides_out() {
        let opt = Optimizer::Sgd(SgdConfig {
            lr: 1.0,
            momentum: 0.0,
            weight_decay: 0.0,
        });
        let scale = 1024.0f32;
        let mut st = DenseMixedState::from_params(&[0.0], &opt);
        st.set_grad_from_f32(&[0.5 * scale]); // backward emitted scaled grad
        st.optimizer_step(&opt, 1.0 / scale);
        assert!((st.theta32[0] + 0.5).abs() < 1e-3);
    }

    #[test]
    fn scaler_grows_and_backs_off() {
        let mut s = LossScaler {
            scale: 8.0,
            growth_factor: 2.0,
            backoff_factor: 0.5,
            growth_interval: 3,
            good_steps: 0,
        };
        assert!(s.check_and_update(true));
        assert!(s.check_and_update(true));
        assert_eq!(s.scale(), 8.0);
        assert!(s.check_and_update(true)); // third good step → grow
        assert_eq!(s.scale(), 16.0);
        assert!(!s.check_and_update(false)); // overflow → halve, skip
        assert_eq!(s.scale(), 8.0);
    }

    #[test]
    fn scaler_snapshot_roundtrip_resumes_schedule() {
        let mut a = LossScaler::with_config(8.0, 2.0, 0.5, 3);
        a.check_and_update(true);
        a.check_and_update(true);
        let snap = a.snapshot();
        assert_eq!(snap, LossScalerState { scale: 8.0, good_steps: 2 });

        let mut b = LossScaler::with_config(8.0, 2.0, 0.5, 3);
        b.restore_state(snap);
        // Both are one good step away from growth; they must stay in lockstep.
        a.check_and_update(true);
        b.check_and_update(true);
        assert_eq!(a.scale(), 16.0);
        assert_eq!(b.scale(), 16.0);
        assert_eq!(a.snapshot(), b.snapshot());
    }

    #[test]
    fn scaler_never_drops_below_one() {
        let mut s = LossScaler::new(2.0);
        for _ in 0..10 {
            s.check_and_update(false);
        }
        assert_eq!(s.scale(), 1.0);
    }

    #[test]
    fn tiny_grads_survive_scaling() {
        // 1e-6 flushes to zero in fp16 subnormal-free paths; with a 2^16
        // scale it is representable.
        let tiny = 1e-6f32;
        assert_eq!(F16::from_f32(tiny * 65536.0).to_f32() / 65536.0, {
            // representable up to f16 precision
            F16::from_f32(tiny * 65536.0).to_f32() / 65536.0
        });
        assert!(F16::from_f32(tiny * 65536.0).to_f32() > 0.0);
        // Without scaling the value underflows to a much coarser subnormal.
        let unscaled = F16::from_f32(tiny).to_f32();
        let scaled = F16::from_f32(tiny * 65536.0).to_f32() / 65536.0;
        assert!((scaled - tiny).abs() <= (unscaled - tiny).abs());
    }
}

//! Gradual pruning schedules.
//!
//! Zhu & Gupta's cubic sparsity schedule ("To prune, or not to prune"),
//! popularized by the sparsity survey of Gale et al. (the paper's
//! Ref. 20): sparsity ramps from `s_i` to `s_f` over a pruning window as
//! `s(t) = s_f + (s_i − s_f)·(1 − (t − t0)/Δ)³`, re-pruning every few
//! steps. SAMO can be applied once the final mask is frozen.

use crate::algorithms::magnitude_prune;
use crate::mask::Mask;
use crate::select::reselect;

/// Cubic sparsity ramp from `initial` to `final_sparsity` between steps
/// `begin` and `end`, updating every `frequency` steps.
#[derive(Debug, Clone, Copy)]
pub struct GradualSchedule {
    pub initial: f64,
    pub final_sparsity: f64,
    pub begin: u64,
    pub end: u64,
    pub frequency: u64,
}

impl GradualSchedule {
    /// Standard ramp: 0 → `final_sparsity` over `[begin, end]`, pruning
    /// every 100 steps.
    pub fn new(final_sparsity: f64, begin: u64, end: u64) -> GradualSchedule {
        assert!(begin < end, "pruning window must be non-empty");
        assert!((0.0..=1.0).contains(&final_sparsity));
        GradualSchedule {
            initial: 0.0,
            final_sparsity,
            begin,
            end,
            frequency: 100,
        }
    }

    /// Target sparsity at step `t` (clamped outside the window).
    pub fn sparsity_at(&self, t: u64) -> f64 {
        if t <= self.begin {
            return self.initial;
        }
        if t >= self.end {
            return self.final_sparsity;
        }
        let progress = (t - self.begin) as f64 / (self.end - self.begin) as f64;
        let remaining = (1.0 - progress).powi(3);
        self.final_sparsity + (self.initial - self.final_sparsity) * remaining
    }

    /// True on steps where the mask should be recomputed. Step `end` is
    /// always an update step even when `(end − begin)` is not a multiple
    /// of `frequency` — otherwise the applied mask never reaches
    /// `final_sparsity` on non-divisible windows.
    pub fn is_update_step(&self, t: u64) -> bool {
        t >= self.begin
            && t <= self.end
            && ((t - self.begin).is_multiple_of(self.frequency) || t == self.end)
    }

    /// Recomputes the mask at step `t` from the current weights. When
    /// the target sparsity rises, the new mask prunes survivors of
    /// `previous` only (monotone, as in iterative pruning). When the
    /// target *falls* (densification — possible once the window starts
    /// above `final_sparsity`), the deficit is honored by admitting the
    /// largest-|w| currently-pruned positions rather than silently
    /// clamping to the old survivor set. Pass `None` for the first
    /// update.
    pub fn mask_at(
        &self,
        t: u64,
        weights: &[f32],
        shape: &[usize],
        previous: Option<&Mask>,
    ) -> Mask {
        let target = self.sparsity_at(t);
        match previous {
            None => magnitude_prune(weights, shape, target),
            Some(prev) => {
                // A rising target ranks only the survivors; a falling one
                // keeps them all and admits pruned positions on top.
                let keep = ((1.0 - target) * weights.len() as f64).round() as usize;
                let admit = keep.saturating_sub(prev.nnz());
                reselect(shape, prev.indices(), (weights, keep), (weights, admit))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ramp_endpoints_and_clamping() {
        let s = GradualSchedule::new(0.9, 100, 1100);
        assert_eq!(s.sparsity_at(0), 0.0);
        assert_eq!(s.sparsity_at(100), 0.0);
        assert_eq!(s.sparsity_at(1100), 0.9);
        assert_eq!(s.sparsity_at(99999), 0.9);
    }

    #[test]
    fn ramp_is_monotone_and_cubic_shaped() {
        let s = GradualSchedule::new(0.9, 0, 1000);
        let mut prev = -1.0f64;
        for t in (0..=1000).step_by(50) {
            let v = s.sparsity_at(t);
            assert!(v >= prev, "not monotone at {t}");
            prev = v;
        }
        // Cubic: fast early, slow late — halfway point is well past
        // half the final sparsity.
        assert!(s.sparsity_at(500) > 0.9 * 0.7, "{}", s.sparsity_at(500));
    }

    #[test]
    fn update_steps_follow_frequency() {
        let s = GradualSchedule {
            initial: 0.0,
            final_sparsity: 0.5,
            begin: 10,
            end: 50,
            frequency: 10,
        };
        let updates: Vec<u64> = (0..60).filter(|&t| s.is_update_step(t)).collect();
        assert_eq!(updates, vec![10, 20, 30, 40, 50]);
    }

    #[test]
    fn masks_are_monotone_through_the_ramp() {
        let s = GradualSchedule {
            initial: 0.0,
            final_sparsity: 0.8,
            begin: 0,
            end: 400,
            frequency: 100,
        };
        let n = 200usize;
        let weights: Vec<f32> = (0..n).map(|i| ((i * 61) % 199) as f32 * 0.01).collect();
        let mut mask: Option<Mask> = None;
        let mut prev_nnz = usize::MAX;
        for t in (0..=400).step_by(100) {
            let new = s.mask_at(t, &weights, &[n], mask.as_ref());
            assert!(new.nnz() <= prev_nnz, "mask grew at {t}");
            if let Some(prev) = &mask {
                let pk = prev.to_bools();
                for (i, &k) in new.to_bools().iter().enumerate() {
                    assert!(!k || pk[i], "resurrected weight {i} at step {t}");
                }
            }
            prev_nnz = new.nnz();
            mask = Some(new);
        }
        let final_mask = mask.unwrap();
        assert_eq!(final_mask.nnz(), 40, "80% of 200 pruned");
    }

    #[test]
    #[should_panic(expected = "window")]
    fn rejects_empty_window() {
        GradualSchedule::new(0.5, 100, 100);
    }

    /// Regression: `(end − begin) % frequency != 0` used to skip the
    /// final update, so the applied mask never reached `final_sparsity`.
    #[test]
    fn end_is_always_an_update_step_on_non_divisible_windows() {
        let s = GradualSchedule {
            initial: 0.0,
            final_sparsity: 0.5,
            begin: 10,
            end: 55,
            frequency: 10,
        };
        let updates: Vec<u64> = (0..70).filter(|&t| s.is_update_step(t)).collect();
        assert_eq!(updates, vec![10, 20, 30, 40, 50, 55]);

        // Applying the mask only on update steps must reach the target.
        let n = 100usize;
        let weights: Vec<f32> = (0..n).map(|i| ((i * 37) % 97) as f32 * 0.01).collect();
        let mut mask: Option<Mask> = None;
        for t in 0..70 {
            if s.is_update_step(t) {
                mask = Some(s.mask_at(t, &weights, &[n], mask.as_ref()));
            }
        }
        assert_eq!(mask.unwrap().nnz(), 50, "final update must hit s_f = 0.5");
    }

    /// A decreasing sparsity target (densification) is honored: the new
    /// mask grows to the requested keep count by admitting the
    /// largest-|w| previously-pruned positions, instead of silently
    /// returning the old survivors.
    #[test]
    fn densification_targets_are_honored() {
        let s = GradualSchedule {
            initial: 0.9,
            final_sparsity: 0.5,
            begin: 0,
            end: 100,
            frequency: 50,
        };
        let n = 100usize;
        // 61 is coprime to 199 and n < 199, so all magnitudes are distinct.
        let weights: Vec<f32> = (0..n).map(|i| ((i * 61) % 199) as f32 * 0.01 + 0.01).collect();
        let start = s.mask_at(0, &weights, &[n], None);
        assert_eq!(start.nnz(), 10);
        let end = s.mask_at(100, &weights, &[n], Some(&start));
        assert_eq!(end.nnz(), 50, "densification must reach the target keep count");
        // Growth keeps every old survivor and admits by magnitude.
        let old = start.to_bools();
        let new = end.to_bools();
        for (i, &was) in old.iter().enumerate() {
            assert!(!was || new[i], "densification dropped survivor {i}");
        }
        let one_shot = magnitude_prune(&weights, &[n], 0.5);
        assert_eq!(end, one_shot, "static weights: grown mask == one-shot mask");
    }
}

//! Dynamic sparsity: mask schedules that evolve during training.
//!
//! SAMO (PAPER.md) freezes a lottery-ticket mask before compressing any
//! state against it, but the related work moves the mask while training
//! runs: Dettmers & Zettlemoyer's "Sparse Networks from Scratch"
//! (PAPERS.md) prunes the smallest-magnitude survivors and regrows the
//! same number of pruned positions by gradient momentum every few
//! hundred steps, and SNIPER (SNIPPETS.md §2) starts at high sparsity
//! and *densifies* toward the target. [`MomentumPruneRegrow`] covers both
//! regimes with one piecewise-linear trajectory, and [`MaskSchedule`] is
//! the interface the trainer asks whenever it may remap its compressed
//! state.
//!
//! Policies are deliberately **stateless**: the next mask is a pure
//! function of the step index, the dense weights, a grow score, and the
//! previous mask. That is what makes checkpointing trivial (the mask
//! bytes plus the step counters already in `TrainerMeta` are the entire
//! schedule state — the config is caller-provided on resume, exactly
//! like the optimizer) and what makes every data-parallel rank compute
//! bitwise-identical masks from the reduced gradient.

use crate::mask::Mask;
use crate::select::{reselect, Ranked};
use tensor::F16;

/// Momentum-style prune-and-regrow with a piecewise-linear sparsity
/// trajectory (Dettmers & Zettlemoyer, PAPERS.md).
///
/// Every `frequency` steps (and at every trajectory knot), the policy
/// prunes the smallest-|θ| survivors down to the trajectory's current
/// keep count and regrows the highest-|grow score| pruned positions —
/// the score is the dense gradient in the trainer, i.e. momentum-like
/// information about which dead weights want to move. `swap_fraction`
/// of the kept budget is additionally churned (worst survivors swapped
/// for best candidates) even when the target is flat, which is what
/// makes the mask *move* rather than merely ratchet. Because the
/// trajectory is piecewise linear between arbitrary knots, it can
/// sparsify, densify (SNIPER-style), or plateau in any order.
#[derive(Debug, Clone)]
pub struct MomentumPruneRegrow {
    /// `(step, sparsity)` knots, strictly increasing in step, each
    /// sparsity in [0, 1]. The schedule is clamped outside
    /// `[first.0, last.0]` and linearly interpolated between knots.
    pub trajectory: Vec<(u64, f64)>,
    /// Steps between mask updates inside the active window.
    pub frequency: u64,
    /// Fraction of the kept budget churned (pruned + regrown) per
    /// update, in [0, 1).
    pub swap_fraction: f64,
}

impl MomentumPruneRegrow {
    pub fn new(trajectory: Vec<(u64, f64)>, frequency: u64, swap_fraction: f64) -> Self {
        assert!(!trajectory.is_empty(), "trajectory needs at least one knot");
        assert!(frequency >= 1, "frequency must be >= 1");
        assert!(
            (0.0..1.0).contains(&swap_fraction),
            "swap_fraction must be in [0, 1)"
        );
        for pair in trajectory.windows(2) {
            assert!(
                pair[0].0 < pair[1].0,
                "trajectory knots must be strictly increasing in step"
            );
        }
        for &(_, s) in &trajectory {
            assert!((0.0..=1.0).contains(&s), "sparsity must be in [0, 1]");
        }
        MomentumPruneRegrow {
            trajectory,
            frequency,
            swap_fraction,
        }
    }

    fn begin(&self) -> u64 {
        self.trajectory.first().unwrap().0
    }

    fn end(&self) -> u64 {
        self.trajectory.last().unwrap().0
    }

    /// Piecewise-linear sparsity at step `t`, clamped outside the window.
    pub fn sparsity_at(&self, t: u64) -> f64 {
        if t <= self.begin() {
            return self.trajectory.first().unwrap().1;
        }
        if t >= self.end() {
            return self.trajectory.last().unwrap().1;
        }
        for pair in self.trajectory.windows(2) {
            let ((t0, s0), (t1, s1)) = (pair[0], pair[1]);
            if t >= t0 && t <= t1 {
                let f = (t - t0) as f64 / (t1 - t0) as f64;
                return s0 + (s1 - s0) * f;
            }
        }
        unreachable!("t inside window but between no knots")
    }

    /// Mask updates fire on the frequency grid inside the window, at
    /// every knot (phase boundaries must be applied), and always at the
    /// window end.
    pub fn is_update_step(&self, t: u64) -> bool {
        let (b, e) = (self.begin(), self.end());
        t >= b
            && t <= e
            && ((t - b).is_multiple_of(self.frequency)
                || t == e
                || self.trajectory.iter().any(|&(k, _)| k == t))
    }

    /// Computes the next mask: prune smallest-|weights| survivors to the
    /// trajectory's keep count minus the churn budget, then regrow the
    /// highest-|grow_score| pruned positions to fill the target. Halves
    /// rank as their widened values do, so either precision gives the
    /// mask of the `f32` view.
    pub fn next_mask<K: Ranked>(&self, t: u64, weights: &[K], grow_score: &[K], prev: &Mask) -> Mask {
        let numel = prev.numel();
        let keep_target =
            (((1.0 - self.sparsity_at(t)) * numel as f64).round() as usize).min(numel);

        let base_keep = keep_target.min(prev.nnz());
        let n_swap = ((self.swap_fraction * base_keep as f64).floor() as usize).min(base_keep);
        let from_candidates = (keep_target - (base_keep - n_swap)).min(numel - prev.nnz());
        // Whatever the candidates cannot supply (pool exhausted: tiny
        // layers / near-dense targets) is re-admitted from the best of
        // the just-dropped survivors, so only the two top-k sets matter.
        let from_survivors = keep_target - from_candidates;
        let (survivors, candidates) = ((weights, from_survivors), (grow_score, from_candidates));
        reselect(prev.shape(), prev.indices(), survivors, candidates)
    }
}

/// A mask-evolution policy driving dynamic sparsity in the trainer.
///
/// `is_update_step` says *when* the mask moves, `next_mask` says *what*
/// it moves to. `next_mask` is a pure function of its arguments, so any
/// process holding the same weights/scores computes the same mask —
/// the property the data-parallel runtimes rely on for bitwise
/// equivalence after a remap.
#[derive(Debug, Clone)]
pub enum MaskSchedule {
    /// Momentum prune-and-regrow over a piecewise-linear trajectory.
    MomentumPruneRegrow(MomentumPruneRegrow),
}

impl MaskSchedule {
    fn policy(&self) -> &MomentumPruneRegrow {
        let MaskSchedule::MomentumPruneRegrow(m) = self;
        m
    }

    /// True on steps where the mask should be recomputed (and the
    /// trainer should remap its compressed state).
    pub fn is_update_step(&self, t: u64) -> bool {
        self.policy().is_update_step(t)
    }

    /// Target sparsity `p(t)` at step `t` (clamped outside the window).
    pub fn sparsity_at(&self, t: u64) -> f64 {
        self.policy().sparsity_at(t)
    }

    /// Last step on which the schedule can fire.
    pub fn end(&self) -> u64 {
        self.policy().end()
    }

    /// The mask the schedule wants at step `t`, ranked on the halves the
    /// trainer holds: `weights` is `θ16` (zeros at pruned positions),
    /// `grow_score` the dense gradient narrowed to f16 and mean-reduced
    /// over the group — what a compressed ring agrees on, so every rank
    /// of a data-parallel group computes the same mask. Both slices are
    /// `numel` long.
    pub fn next_mask(&self, t: u64, weights: &[F16], grow_score: &[F16], prev: &Mask) -> Mask {
        self.policy().next_mask(t, weights, grow_score, prev)
    }
}

/// The full-sort formulation of [`MomentumPruneRegrow::next_mask`] and
/// the order it sorts by, kept as the oracle [`crate::select`] is
/// property-tested against.
#[cfg(test)]
pub(crate) mod sort_oracle {
    use super::*;

    /// Deterministic total ordering on (|score|, index): descending
    /// magnitude, ties broken by ascending index. NaN scores sort last.
    pub(crate) fn by_score_desc(score: &[f32]) -> impl Fn(&u32, &u32) -> std::cmp::Ordering + '_ {
        let key = |i: u32| {
            let s = score[i as usize];
            if s.is_nan() {
                -1.0
            } else {
                s.abs()
            }
        };
        move |&a, &b| key(b).total_cmp(&key(a)).then(a.cmp(&b))
    }

    /// The currently-pruned positions of `prev`, ascending.
    pub(crate) fn pruned_indices(prev: &Mask) -> Vec<u32> {
        let kept = prev.to_bools();
        (0..prev.numel() as u32).filter(|&i| !kept[i as usize]).collect()
    }

    /// The `k` first of `idx` under [`by_score_desc`], ascending.
    pub(crate) fn top_k(mut idx: Vec<u32>, k: usize, score: &[f32]) -> Vec<u32> {
        idx.sort_by(by_score_desc(score));
        idx.truncate(k);
        idx.sort_unstable();
        idx
    }

    pub(crate) fn next_mask(
        m: &MomentumPruneRegrow,
        t: u64,
        weights: &[f32],
        grow_score: &[f32],
        prev: &Mask,
    ) -> Mask {
        let numel = prev.numel();
        let keep_target = (((1.0 - m.sparsity_at(t)) * numel as f64).round() as usize).min(numel);
        let mut survivors: Vec<u32> = prev.indices().as_slice().to_vec();
        survivors.sort_by(by_score_desc(weights));
        let base_keep = keep_target.min(survivors.len());
        let n_swap = ((m.swap_fraction * base_keep as f64).floor() as usize).min(base_keep);
        let mut candidates = pruned_indices(prev);
        candidates.sort_by(by_score_desc(grow_score));
        let mut kept: Vec<u32> = survivors[..base_keep - n_swap].to_vec();
        let from_candidates = (keep_target - kept.len()).min(candidates.len());
        kept.extend_from_slice(&candidates[..from_candidates]);
        let mut refill = base_keep - n_swap;
        while kept.len() < keep_target {
            kept.push(survivors[refill]);
            refill += 1;
        }
        kept.sort_unstable();
        Mask::new(prev.shape(), kept)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::magnitude_prune;

    fn ramp(n: usize) -> Vec<f32> {
        (0..n).map(|i| (i + 1) as f32).collect()
    }

    fn halves(x: &[f32]) -> Vec<F16> {
        x.iter().map(|&v| F16::from_f32(v)).collect()
    }

    #[test]
    fn momentum_trajectory_interpolates_and_clamps() {
        let m = MomentumPruneRegrow::new(vec![(100, 0.5), (200, 0.9), (300, 0.7)], 25, 0.0);
        assert_eq!(m.sparsity_at(0), 0.5);
        assert_eq!(m.sparsity_at(100), 0.5);
        assert!((m.sparsity_at(150) - 0.7).abs() < 1e-12);
        assert_eq!(m.sparsity_at(200), 0.9);
        assert!((m.sparsity_at(250) - 0.8).abs() < 1e-12);
        assert_eq!(m.sparsity_at(300), 0.7);
        assert_eq!(m.sparsity_at(1000), 0.7);
    }

    #[test]
    fn momentum_updates_fire_on_grid_knots_and_end() {
        let m = MomentumPruneRegrow::new(vec![(10, 0.5), (33, 0.9), (45, 0.7)], 10, 0.0);
        let fired: Vec<u64> = (0..60).filter(|&t| m.is_update_step(t)).collect();
        // Grid from begin: 10, 20, 30, 40; knot 33; end 45.
        assert_eq!(fired, vec![10, 20, 30, 33, 40, 45]);
    }

    #[test]
    fn momentum_tracks_keep_count_both_directions() {
        let n = 100usize;
        let w: Vec<f32> = (0..n).map(|i| ((i * 61) % 199) as f32 * 0.01 + 0.01).collect();
        let score: Vec<f32> = (0..n).map(|i| ((i * 37) % 101) as f32 * 0.01).collect();
        let m = MomentumPruneRegrow::new(vec![(0, 0.5), (100, 0.9), (200, 0.4)], 50, 0.1);
        let mut mask = magnitude_prune(&w, &[n], 0.5);
        for t in 0..=200u64 {
            if m.is_update_step(t) {
                mask = m.next_mask(t, &w, &score, &mask);
                let want = ((1.0 - m.sparsity_at(t)) * n as f64).round() as usize;
                assert_eq!(mask.nnz(), want, "wrong keep count at t = {t}");
            }
        }
        assert_eq!(mask.nnz(), 60, "densified back to 0.4");
    }

    #[test]
    fn momentum_swap_churns_the_mask_at_flat_target() {
        let n = 50usize;
        let w = ramp(n);
        // Grow score strongly favors low indices (which |w| pruned).
        let score: Vec<f32> = (0..n).map(|i| (n - i) as f32).collect();
        let m = MomentumPruneRegrow::new(vec![(0, 0.5), (100, 0.5)], 50, 0.2);
        let first = m.next_mask(0, &w, &score, &magnitude_prune(&w, &[n], 0.5));
        let prev = magnitude_prune(&w, &[n], 0.5);
        assert_eq!(first.nnz(), prev.nnz(), "flat target keeps the count");
        assert!(
            first.hamming_distance(&prev) > 0,
            "swap_fraction must move the mask even at a flat target"
        );
    }

    #[test]
    fn momentum_refills_when_candidate_pool_is_exhausted() {
        // 4 weights, 3 survivors, target dense: only 1 candidate exists
        // but the churn wants to swap too — dropped survivors refill.
        let m = MomentumPruneRegrow::new(vec![(0, 0.0)], 1, 0.5);
        let prev = Mask::new(&[4], vec![0, 1, 3]);
        let mask = m.next_mask(0, &[4.0f32, 3.0, 2.0, 1.0], &[1.0; 4], &prev);
        assert_eq!(mask.nnz(), 4, "target was dense");
    }

    #[test]
    fn schedule_enum_delegates_and_densifies() {
        let n = 40usize;
        let w: Vec<f32> = (0..n).map(|i| ((i * 61) % 199) as f32 * 0.01 + 0.01).collect();
        let score: Vec<f32> = (0..n).map(|i| ((i * 37) % 101) as f32 * 0.01).collect();
        let g = MaskSchedule::MomentumPruneRegrow(MomentumPruneRegrow::new(
            vec![(0, 0.9), (100, 0.5)],
            50,
            0.0,
        ));
        assert!(g.is_update_step(0) && g.is_update_step(50) && g.is_update_step(100));
        assert!(!g.is_update_step(7) && !g.is_update_step(101));
        assert_eq!(g.end(), 100);
        assert!((g.sparsity_at(50) - 0.7).abs() < 1e-12);
        assert_eq!(g.sparsity_at(200), 0.5);
        let start = magnitude_prune(&w, &[n], 0.9);
        let (w16, score16) = (halves(&w), halves(&score));
        let mid = g.next_mask(50, &w16, &score16, &start);
        assert_eq!(mid.nnz(), 12, "downward trajectory must densify");
        let fin = g.next_mask(100, &w16, &score16, &mid);
        assert_eq!(fin.nnz(), 20);
        // Densification preserved every old survivor.
        let old = start.to_bools();
        for (i, &k) in fin.to_bools().iter().enumerate() {
            if old[i] {
                assert!(k, "survivor {i} dropped during densification");
            }
        }
    }

    #[test]
    fn next_mask_is_deterministic() {
        let n = 64usize;
        let w: Vec<f32> = (0..n).map(|i| ((i * 23) % 67) as f32 * 0.1).collect();
        let score: Vec<f32> = (0..n).map(|i| ((i * 41) % 71) as f32 * 0.1).collect();
        let m = MaskSchedule::MomentumPruneRegrow(MomentumPruneRegrow::new(
            vec![(0, 0.3), (60, 0.8)],
            20,
            0.15,
        ));
        let prev = magnitude_prune(&w, &[n], 0.3);
        let (w16, score16) = (halves(&w), halves(&score));
        let a = m.next_mask(20, &w16, &score16, &prev);
        let b = m.next_mask(20, &w16, &score16, &prev);
        assert_eq!(a, b);
    }
}

//! Iterative magnitude pruning — the original lottery-ticket procedure
//! (Frankle & Carbin, ICLR 2019): repeatedly train, prune a fraction of
//! the *remaining* weights by magnitude, and rewind.
//!
//! SAMO consumes whatever mask the pruning oracle emits; this module
//! provides the IMP schedule so the reproduction covers the LTH
//! literature the paper builds on (its references 3 and 8).

use crate::mask::Mask;
use crate::select::reselect;

/// State of an iterative magnitude pruning run.
///
/// At each round, [`IterativePruner::prune_round`] removes
/// `per_round_fraction` of the *currently surviving* weights, converging
/// geometrically towards `target_sparsity`.
pub struct IterativePruner {
    shape: Vec<usize>,
    target_sparsity: f64,
    per_round_fraction: f64,
    current: Mask,
    rounds_done: usize,
}

impl IterativePruner {
    /// Standard LTH schedule: prune 20% of survivors per round.
    pub fn new(shape: &[usize], target_sparsity: f64) -> IterativePruner {
        IterativePruner::with_rate(shape, target_sparsity, 0.2)
    }

    /// Custom per-round pruning rate in (0, 1]. `rate == 1.0` is the
    /// degenerate one-shot schedule: a single round prunes straight to
    /// the target (`min_keep` clamping stops it from emptying the mask).
    pub fn with_rate(shape: &[usize], target_sparsity: f64, rate: f64) -> IterativePruner {
        assert!((0.0..=1.0).contains(&target_sparsity));
        assert!(rate > 0.0 && rate <= 1.0, "per-round rate must be in (0, 1]");
        IterativePruner {
            shape: shape.to_vec(),
            target_sparsity,
            per_round_fraction: rate,
            current: Mask::dense(shape),
            rounds_done: 0,
        }
    }

    /// The mask after the rounds performed so far.
    pub fn mask(&self) -> &Mask {
        &self.current
    }

    /// Rounds performed.
    pub fn rounds_done(&self) -> usize {
        self.rounds_done
    }

    /// True once the target has been reached: the kept count is down to
    /// `round((1 − target) · numel)` (count-based, so float rounding of
    /// the target cannot strand the schedule one weight short).
    pub fn is_done(&self) -> bool {
        let min_keep =
            ((1.0 - self.target_sparsity) * self.current.numel() as f64).round() as usize;
        self.current.nnz() <= min_keep
    }

    /// Number of rounds the geometric schedule needs from scratch.
    ///
    /// Simulates the exact floor-and-clamp decay `prune_round` performs
    /// instead of the closed-form `⌈ln(1−target)/ln(1−rate)⌉`: the log
    /// quotient explodes on the degenerate rates (`rate == 1.0` makes
    /// `ln(0) = −∞` and the ceil'd quotient returned 0 rounds) and can
    /// disagree with integer flooring near the boundary. The counting
    /// loop terminates because `floor(k·(1−rate)) < k` for every `k ≥ 1`
    /// and `rate > 0`.
    pub fn rounds_needed(&self) -> usize {
        let numel: usize = self.shape.iter().product();
        let min_keep = ((1.0 - self.target_sparsity) * numel as f64).round() as usize;
        let mut keep = numel;
        let mut rounds = 0usize;
        while keep > min_keep {
            keep = (((keep as f64) * (1.0 - self.per_round_fraction)).floor() as usize)
                .max(min_keep);
            rounds += 1;
        }
        rounds
    }

    /// Performs one pruning round given the current (trained) weights:
    /// among the *surviving* positions, the smallest-magnitude
    /// `per_round_fraction` are additionally pruned (never resurrecting
    /// pruned weights). Returns the new mask.
    pub fn prune_round(&mut self, weights: &[f32]) -> Mask {
        let numel: usize = self.shape.iter().product();
        assert_eq!(weights.len(), numel);
        if self.is_done() {
            return self.current.clone();
        }
        let survivors = self.current.nnz();
        // Kill per_round_fraction of survivors, but never past target.
        // `floor` (not `round`): rounding up every round can make the
        // geometric decay fall short of `rounds_needed`; flooring keeps
        // the kept count ≤ numel·(1−rate)^k, which guarantees arrival.
        let min_keep = ((1.0 - self.target_sparsity) * numel as f64).round() as usize;
        let keep = ((survivors as f64) * (1.0 - self.per_round_fraction)).floor() as usize;
        let keep = keep.max(min_keep);

        // Rank only surviving positions by |w|.
        self.current =
            reselect(&self.shape, self.current.indices(), (weights, keep), (weights, 0));
        self.rounds_done += 1;
        self.current.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::magnitude_prune;

    fn ramp(n: usize) -> Vec<f32> {
        (0..n).map(|i| (i + 1) as f32).collect()
    }

    #[test]
    fn geometric_schedule_reaches_target() {
        let w = ramp(1000);
        let mut p = IterativePruner::new(&[1000], 0.9);
        let needed = p.rounds_needed();
        assert_eq!(needed, 11, "log(0.1)/log(0.8) ≈ 10.3 → 11 rounds");
        for _ in 0..needed {
            p.prune_round(&w);
        }
        assert!(p.is_done());
        assert_eq!(p.mask().nnz(), 100);
    }

    #[test]
    fn each_round_prunes_twenty_percent_of_survivors() {
        let w = ramp(1000);
        let mut p = IterativePruner::new(&[1000], 0.99);
        p.prune_round(&w);
        assert_eq!(p.mask().nnz(), 800);
        p.prune_round(&w);
        assert_eq!(p.mask().nnz(), 640);
        p.prune_round(&w);
        assert_eq!(p.mask().nnz(), 512);
    }

    #[test]
    fn never_resurrects_pruned_weights() {
        // Weight values change between rounds (training), but pruned
        // positions stay pruned even if their (stale) magnitude is large.
        let mut p = IterativePruner::with_rate(&[100], 0.9, 0.5);
        let w1 = ramp(100); // prunes indices 0..49
        p.prune_round(&w1);
        let first = p.mask().clone();
        assert_eq!(first.nnz(), 50);
        // New weights where formerly-pruned index 0 is now huge.
        let mut w2 = ramp(100);
        w2[0] = 1e9;
        p.prune_round(&w2);
        let second = p.mask();
        assert!(second.nnz() < first.nnz());
        // Index 0 must remain pruned.
        assert!(!second.to_bools()[0], "pruned weight resurrected");
        // Monotone: second mask's kept set ⊆ first's.
        let f = first.to_bools();
        for (i, &kept) in second.to_bools().iter().enumerate() {
            if kept {
                assert!(f[i], "position {i} appeared from nowhere");
            }
        }
    }

    #[test]
    fn stops_exactly_at_target() {
        let w = ramp(64);
        let mut p = IterativePruner::with_rate(&[64], 0.5, 0.4);
        p.prune_round(&w); // 64 -> 38 (40% off), min_keep 32
        p.prune_round(&w); // would be 23, clamped to 32
        assert!(p.is_done());
        assert_eq!(p.mask().nnz(), 32);
        // Further rounds are no-ops.
        let before = p.mask().clone();
        p.prune_round(&w);
        assert_eq!(p.mask(), &before);
    }

    /// Regression: `rate == 1.0` made the closed-form round count hit
    /// `ln(0) = −∞` and report 0 rounds; it is really one-shot pruning.
    #[test]
    fn rate_one_is_one_shot() {
        let w = ramp(100);
        let mut p = IterativePruner::with_rate(&[100], 0.9, 1.0);
        assert_eq!(p.rounds_needed(), 1);
        p.prune_round(&w);
        assert!(p.is_done());
        assert_eq!(p.mask().nnz(), 10);
    }

    /// `target == 1.0` no longer reports `usize::MAX`: the floor decay
    /// genuinely reaches an empty mask in finitely many rounds.
    #[test]
    fn full_sparsity_target_terminates() {
        let w = ramp(64);
        let mut p = IterativePruner::with_rate(&[64], 1.0, 0.5);
        let needed = p.rounds_needed();
        assert!(needed < usize::MAX && needed > 0, "needed = {needed}");
        for _ in 0..needed {
            p.prune_round(&w);
        }
        assert!(p.is_done());
        assert_eq!(p.mask().nnz(), 0);
    }

    #[test]
    #[should_panic(expected = "rate")]
    fn rejects_zero_rate() {
        IterativePruner::with_rate(&[10], 0.5, 0.0);
    }

    #[test]
    fn iterative_equals_one_shot_on_static_weights() {
        // When weights never change, IMP and one-shot pick the same set
        // (both are pure magnitude ranking).
        let w = ramp(200);
        let mut p = IterativePruner::new(&[200], 0.9);
        for _ in 0..p.rounds_needed() {
            p.prune_round(&w);
        }
        let one_shot = magnitude_prune(&w, &[200], 0.9);
        assert_eq!(p.mask(), &one_shot);
    }
}

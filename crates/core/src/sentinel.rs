//! Divergence detection for long training runs.
//!
//! Loss-scale overflow handling (`nn::mixed::LossScaler`) already skips
//! individual bad steps, but a genuinely diverging run — loss or
//! gradient norm exploding over many consecutive steps, or going
//! non-finite and staying there — needs a stronger response: roll back
//! to the last good checkpoint and retry with a gentler loss scale
//! (`SamoTrainer::rollback` / `DataParallelSamo::restore`). This module
//! is the detector; it owns no recovery policy itself, it just converts
//! a stream of (loss, grad-norm) observations into a [`Verdict`].
//!
//! Detection is deliberately conservative: single spikes are normal in
//! mixed-precision training (that's what the loss scaler is for), so
//! only *sustained* anomalies — `patience` consecutive suspect steps —
//! escalate to [`Verdict::Diverged`]. "Suspect" means a non-finite
//! observation, or a loss exceeding `explode_factor ×` the rolling
//! median-of-recent-history baseline.

/// Tuning knobs for the sentinel.
#[derive(Clone, Debug)]
pub struct SentinelConfig {
    /// How many recent healthy losses form the baseline (rolling window).
    pub window: usize,
    /// A loss above `explode_factor × baseline` is suspect.
    pub explode_factor: f64,
    /// A gradient norm above `grad_explode_factor × baseline-grad-norm`
    /// is suspect.
    pub grad_explode_factor: f64,
    /// Consecutive suspect steps before declaring divergence.
    pub patience: usize,
}

impl Default for SentinelConfig {
    fn default() -> Self {
        SentinelConfig {
            window: 32,
            explode_factor: 10.0,
            grad_explode_factor: 100.0,
            patience: 3,
        }
    }
}

/// The sentinel's per-step judgement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within normal bounds; the observation joined the baseline.
    Healthy,
    /// Anomalous, but not yet sustained long enough to act on.
    Suspect,
    /// `patience` consecutive suspect steps: roll back now.
    Diverged,
}

/// Watches the loss / gradient-norm stream for sustained anomalies.
#[derive(Clone, Debug)]
pub struct DivergenceSentinel {
    cfg: SentinelConfig,
    losses: Vec<f64>,
    grad_norms: Vec<f64>,
    suspect_streak: usize,
    observations: u64,
}

impl DivergenceSentinel {
    pub fn new(cfg: SentinelConfig) -> DivergenceSentinel {
        assert!(cfg.window >= 1, "baseline window must be non-empty");
        assert!(cfg.patience >= 1, "patience must be at least 1");
        DivergenceSentinel {
            cfg,
            losses: Vec::new(),
            grad_norms: Vec::new(),
            suspect_streak: 0,
            observations: 0,
        }
    }

    /// Total observations fed so far.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Current consecutive-suspect count.
    pub fn suspect_streak(&self) -> usize {
        self.suspect_streak
    }

    /// Median of a small history window (copy + sort; windows are tiny).
    fn median(xs: &[f64]) -> Option<f64> {
        if xs.is_empty() {
            return None;
        }
        let mut v = xs.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("baseline values are finite"));
        Some(v[v.len() / 2])
    }

    fn push_baseline(&mut self, loss: f64, grad_norm: f64) {
        self.losses.push(loss);
        self.grad_norms.push(grad_norm);
        if self.losses.len() > self.cfg.window {
            self.losses.remove(0);
            self.grad_norms.remove(0);
        }
    }

    /// Feeds one training step's loss and (unscaled) gradient norm;
    /// returns the verdict. Healthy observations extend the baseline;
    /// suspect ones don't (a poisoned baseline would mask the very
    /// divergence it should catch).
    pub fn observe(&mut self, loss: f64, grad_norm: f64) -> Verdict {
        self.observations += 1;
        let suspect = if !loss.is_finite() || !grad_norm.is_finite() {
            true
        } else {
            let loss_bad = Self::median(&self.losses)
                .map(|m| loss > self.cfg.explode_factor * m.max(f64::MIN_POSITIVE))
                .unwrap_or(false);
            let grad_bad = Self::median(&self.grad_norms)
                .map(|m| grad_norm > self.cfg.grad_explode_factor * m.max(f64::MIN_POSITIVE))
                .unwrap_or(false);
            loss_bad || grad_bad
        };
        if !suspect {
            self.suspect_streak = 0;
            self.push_baseline(loss, grad_norm);
            return Verdict::Healthy;
        }
        self.suspect_streak += 1;
        if self.suspect_streak >= self.cfg.patience {
            telemetry::log_info!(
                "sentinel: divergence after {} consecutive suspect steps (loss {loss}, grad norm {grad_norm})",
                self.suspect_streak
            );
            self.reset();
            Verdict::Diverged
        } else {
            Verdict::Suspect
        }
    }

    /// Clears streak and baseline — call after a rollback so stale
    /// pre-divergence history doesn't judge the replayed steps.
    pub fn reset(&mut self) {
        self.suspect_streak = 0;
        self.losses.clear();
        self.grad_norms.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sentinel(patience: usize) -> DivergenceSentinel {
        DivergenceSentinel::new(SentinelConfig {
            window: 8,
            explode_factor: 10.0,
            grad_explode_factor: 100.0,
            patience,
        })
    }

    #[test]
    fn healthy_stream_stays_healthy() {
        let mut s = sentinel(3);
        for i in 0..50 {
            let loss = 1.0 / (1.0 + i as f64 * 0.1); // decreasing
            assert_eq!(s.observe(loss, 1.0), Verdict::Healthy);
        }
        assert_eq!(s.suspect_streak(), 0);
    }

    #[test]
    fn single_spike_is_only_suspect() {
        let mut s = sentinel(3);
        for _ in 0..10 {
            s.observe(1.0, 1.0);
        }
        assert_eq!(s.observe(100.0, 1.0), Verdict::Suspect);
        // Recovery clears the streak.
        assert_eq!(s.observe(1.0, 1.0), Verdict::Healthy);
        assert_eq!(s.suspect_streak(), 0);
    }

    #[test]
    fn sustained_explosion_diverges() {
        let mut s = sentinel(3);
        for _ in 0..10 {
            s.observe(1.0, 1.0);
        }
        assert_eq!(s.observe(50.0, 1.0), Verdict::Suspect);
        assert_eq!(s.observe(500.0, 1.0), Verdict::Suspect);
        assert_eq!(s.observe(5000.0, 1.0), Verdict::Diverged);
        // Post-divergence the sentinel is reset (fresh baseline).
        assert_eq!(s.observe(1.0, 1.0), Verdict::Healthy);
    }

    #[test]
    fn non_finite_counts_as_suspect_even_without_baseline() {
        let mut s = sentinel(2);
        assert_eq!(s.observe(f64::NAN, 1.0), Verdict::Suspect);
        assert_eq!(s.observe(f64::INFINITY, 1.0), Verdict::Diverged);
    }

    #[test]
    fn gradient_explosion_detected_independently_of_loss() {
        let mut s = sentinel(2);
        for _ in 0..10 {
            s.observe(1.0, 1.0);
        }
        assert_eq!(s.observe(1.0, 1e4), Verdict::Suspect);
        assert_eq!(s.observe(1.0, 1e5), Verdict::Diverged);
    }

    #[test]
    fn suspect_steps_do_not_poison_the_baseline() {
        let mut s = sentinel(100); // never diverge in this test
        for _ in 0..10 {
            s.observe(1.0, 1.0);
        }
        // A long run of explosions...
        for _ in 0..20 {
            assert_ne!(s.observe(1000.0, 1.0), Verdict::Healthy);
        }
        // ...still compares against the healthy baseline.
        assert_eq!(s.observe(1.0, 1.0), Verdict::Healthy);
    }
}

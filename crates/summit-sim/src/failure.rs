//! Failure and straggler models for the simulated machine.
//!
//! At the paper's largest scale (2048 GPUs = 342 Summit nodes) hardware
//! failures are routine: with a per-node MTBF of, say, 5 years, the
//! *system* MTBF is `node_mtbf / n_nodes` ≈ 5.3 hours — every long run
//! sees failures, and checkpoint/restart cost becomes part of
//! time-to-solution. This module supplies the stochastic ingredients
//! deterministically (seeded, no external RNG dependency):
//!
//! * [`SplitMix64`] — a tiny, well-distributed PRNG,
//! * exponential inter-arrival sampling ([`FailureProcess`]) — the
//!   standard memoryless model for independent hardware failures,
//! * [`StragglerModel`] — per-step slowdown jitter: with probability
//!   `prob` a step takes `slowdown ×` its nominal time (transient
//!   network contention, ECC retirement stalls, OS noise).

/// SplitMix64 (Steele et al., "Fast splittable pseudorandom number
/// generators") — 64 bits of state, passes BigCrush, and is trivially
/// reproducible across platforms. Used for all failure-injection
/// randomness so simulated fault schedules are a pure function of the
/// seed.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1) with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Exponentially distributed with the given mean (inverse-CDF).
    pub fn next_exp(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "exponential mean must be positive");
        // 1 - u ∈ (0, 1] so ln never sees 0.
        -mean * (1.0 - self.next_f64()).ln()
    }
}

/// A Poisson process of hardware failures over simulated time: the
/// classic memoryless model where component lifetimes are exponential
/// with the given MTBF. For `n` identical components the system-level
/// process is again Poisson with rate `n / mtbf`.
#[derive(Clone, Debug)]
pub struct FailureProcess {
    rng: SplitMix64,
    /// System-level mean time between failures, seconds.
    system_mtbf: f64,
    /// Absolute time of the next failure, seconds.
    next_at: f64,
}

impl FailureProcess {
    /// Builds the system-level process for `units` components each with
    /// MTBF `unit_mtbf_s` seconds. `units = 0` or a non-finite/infinite
    /// MTBF yields a process that never fires.
    pub fn new(unit_mtbf_s: f64, units: usize, seed: u64) -> FailureProcess {
        let system_mtbf = if units == 0 || !unit_mtbf_s.is_finite() || unit_mtbf_s <= 0.0 {
            f64::INFINITY
        } else {
            unit_mtbf_s / units as f64
        };
        let mut rng = SplitMix64::new(seed);
        let next_at = if system_mtbf.is_finite() {
            rng.next_exp(system_mtbf)
        } else {
            f64::INFINITY
        };
        FailureProcess {
            rng,
            system_mtbf,
            next_at,
        }
    }

    /// System-level MTBF, seconds (infinite if failures are disabled).
    pub fn system_mtbf(&self) -> f64 {
        self.system_mtbf
    }

    /// Absolute simulated time of the next failure.
    pub fn peek_next(&self) -> f64 {
        self.next_at
    }

    /// Re-arms the process so the next failure falls at or after `t`.
    pub fn advance_past(&mut self, t: f64) {
        if !self.system_mtbf.is_finite() {
            return;
        }
        while self.next_at < t {
            self.next_at += self.rng.next_exp(self.system_mtbf);
        }
    }
}

/// Transient per-step slowdowns: with probability `prob` a training step
/// runs `slowdown ×` its nominal time. Models OS noise, network
/// contention, and degraded-but-alive nodes — the other half of the
/// fault model, which costs goodput without triggering recovery.
#[derive(Clone, Copy, Debug)]
pub struct StragglerModel {
    /// Per-step probability of a straggling step, in [0, 1].
    pub prob: f64,
    /// Time multiplier for a straggling step (≥ 1).
    pub slowdown: f64,
}

impl StragglerModel {
    /// No straggling at all.
    pub const NONE: StragglerModel = StragglerModel {
        prob: 0.0,
        slowdown: 1.0,
    };

    /// The multiplier for one step drawn from `rng`: `slowdown` with
    /// probability `prob`, else 1.
    pub fn sample(&self, rng: &mut SplitMix64) -> f64 {
        debug_assert!((0.0..=1.0).contains(&self.prob));
        debug_assert!(self.slowdown >= 1.0);
        if self.prob > 0.0 && rng.next_f64() < self.prob {
            self.slowdown
        } else {
            1.0
        }
    }

    /// Expected per-step slowdown factor.
    pub fn expected_factor(&self) -> f64 {
        1.0 + self.prob * (self.slowdown - 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_spread() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMix64::new(43);
        assert_ne!(SplitMix64::new(42).next_u64(), c.next_u64());
        // Uniform outputs stay in [0, 1).
        let mut r = SplitMix64::new(7);
        for _ in 0..1000 {
            let u = r.next_f64();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn exponential_mean_is_right() {
        let mut rng = SplitMix64::new(11);
        let mean = 250.0;
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| rng.next_exp(mean)).sum();
        let sample_mean = sum / n as f64;
        assert!(
            (sample_mean - mean).abs() < mean * 0.05,
            "sample mean {sample_mean}"
        );
    }

    #[test]
    fn system_mtbf_scales_inversely_with_units() {
        let p1 = FailureProcess::new(1000.0, 1, 5);
        let p100 = FailureProcess::new(1000.0, 100, 5);
        assert_eq!(p1.system_mtbf(), 1000.0);
        assert_eq!(p100.system_mtbf(), 10.0);
    }

    #[test]
    fn failure_times_are_deterministic_for_a_seed() {
        let mut a = FailureProcess::new(3600.0, 10, 99);
        let mut b = FailureProcess::new(3600.0, 10, 99);
        for _ in 0..20 {
            assert_eq!(a.peek_next(), b.peek_next());
            let t = a.peek_next() + 1.0;
            a.advance_past(t);
            b.advance_past(t);
        }
    }

    #[test]
    fn disabled_failures_never_fire() {
        for mut p in [FailureProcess::new(f64::INFINITY, 100, 1), FailureProcess::new(3600.0, 0, 1)] {
            assert_eq!(p.peek_next(), f64::INFINITY);
            p.advance_past(1e12);
            assert_eq!(p.peek_next(), f64::INFINITY);
        }
    }

    #[test]
    fn failure_count_matches_poisson_rate() {
        // Over T = 200 × MTBF, expect ~200 failures (±20%).
        let mtbf = 50.0;
        let horizon = 200.0 * mtbf;
        let mut p = FailureProcess::new(mtbf, 1, 21);
        let mut count = 0;
        let mut t = 0.0;
        while t < horizon {
            // One failure per one-second window, at most.
            t += 1.0;
            if p.peek_next() < t {
                count += 1;
                p.advance_past(t);
            }
        }
        assert!((160..=240).contains(&count), "saw {count} failures");
    }

    #[test]
    fn straggler_expectation() {
        let s = StragglerModel {
            prob: 0.1,
            slowdown: 3.0,
        };
        assert!((s.expected_factor() - 1.2).abs() < 1e-12);
        let mut rng = SplitMix64::new(17);
        let n = 50_000;
        let sum: f64 = (0..n).map(|_| s.sample(&mut rng)).sum();
        let mean = sum / n as f64;
        assert!((mean - 1.2).abs() < 0.02, "mean {mean}");
        assert_eq!(StragglerModel::NONE.sample(&mut rng), 1.0);
    }
}

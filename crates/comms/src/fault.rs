//! Per-link fault injection for in-process meshes.
//!
//! A [`FaultController`] is shared (`Arc`) by every endpoint of a mesh;
//! `send` consults it per message. Faults are *sender-side* — a cut
//! link silently discards traffic exactly like an unplugged cable, so
//! the receiver's only signal is its own timeout, which is the failure
//! mode the collectives must surface as [`crate::CommsError::Timeout`]
//! rather than a hang.
//!
//! Randomized schedules reuse `summit_sim::failure`: seeded
//! [`SplitMix64`] streams drive [`StragglerModel`] per-message delay
//! jitter, so an injected fault pattern is a pure function of the seed.

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;
use summit_sim::{SplitMix64, StragglerModel};

/// What `send` should do with one message on one link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Decision {
    /// Deliver, optionally after a delay.
    Deliver(Option<Duration>),
    /// Silently lose the message.
    Drop,
}

#[derive(Default)]
struct LinkFault {
    cut: bool,
    drop_next: u32,
    delay: Option<Duration>,
    jitter: Option<Jitter>,
}

struct Jitter {
    rng: SplitMix64,
    model: StragglerModel,
    base: Duration,
}

/// Thread-safe fault plan for every directed link `(from, to)` of a
/// mesh. Healthy links (the default) pay one mutex lock and a hash
/// lookup per send.
#[derive(Default)]
pub struct FaultController {
    links: Mutex<HashMap<(usize, usize), LinkFault>>,
}

impl FaultController {
    pub fn new() -> FaultController {
        FaultController::default()
    }

    /// The plan, whatever became of the last thread to hold it: every
    /// update is one field write or one map operation, so the map is
    /// valid at every step and a poisoned lock loses nothing.
    fn links(&self) -> MutexGuard<'_, HashMap<(usize, usize), LinkFault>> {
        self.links.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn with_link<R>(&self, from: usize, to: usize, f: impl FnOnce(&mut LinkFault) -> R) -> R {
        f(self.links().entry((from, to)).or_default())
    }

    /// Cuts the directed link: every message from `from` to `to` is lost
    /// until [`Self::heal_link`].
    pub fn cut_link(&self, from: usize, to: usize) {
        self.with_link(from, to, |l| l.cut = true);
    }

    /// Restores the link to healthy (clears every fault on it).
    pub fn heal_link(&self, from: usize, to: usize) {
        self.links().remove(&(from, to));
    }

    /// Loses the next `n` messages on the link, then heals by itself —
    /// a transient drop burst.
    pub fn drop_next(&self, from: usize, to: usize, n: u32) {
        self.with_link(from, to, |l| l.drop_next += n);
    }

    /// Adds a fixed delivery delay to every message on the link.
    // TEST-API: `tcp_transport`'s delay drill slows a link with it.
    pub fn delay_link(&self, from: usize, to: usize, delay: Duration) {
        self.with_link(from, to, |l| l.delay = Some(delay));
    }

    /// Seeded per-message jitter: each message independently straggles
    /// with probability `model.prob`, adding `model.slowdown × base` to
    /// its delivery time. Deterministic per `(seed, message index)`.
    // TEST-API: the jitter drills of `data_parallel_threaded` and the ring tests.
    pub fn jitter_link(
        &self,
        from: usize,
        to: usize,
        seed: u64,
        model: StragglerModel,
        base: Duration,
    ) {
        self.with_link(from, to, |l| {
            l.jitter = Some(Jitter { rng: SplitMix64::new(seed), model, base })
        });
    }

    /// Cuts every link in and out of `rank` — the whole node is gone.
    pub fn kill_rank(&self, rank: usize, world: usize) {
        for peer in 0..world {
            if peer != rank {
                self.cut_link(rank, peer);
                self.cut_link(peer, rank);
            }
        }
    }

    /// Heals every link in and out of `rank`.
    // TEST-API: the kill-and-restore drills heal the killed rank with it.
    pub fn heal_rank(&self, rank: usize, world: usize) {
        for peer in 0..world {
            if peer != rank {
                self.heal_link(rank, peer);
                self.heal_link(peer, rank);
            }
        }
    }

    /// Whether the directed link is currently cut, *without* consuming
    /// drop budgets or advancing jitter streams. The TCP heartbeat
    /// thread consults this (a cut link must starve the peer's liveness
    /// monitor exactly like a dead process) while leaving the
    /// per-message fault schedule untouched for data traffic — a
    /// background probe must never perturb a seeded drop/jitter plan.
    pub fn is_cut(&self, from: usize, to: usize) -> bool {
        self.links().get(&(from, to)).is_some_and(|l| l.cut)
    }

    pub(crate) fn decide(&self, from: usize, to: usize) -> Decision {
        let mut links = self.links();
        let Some(l) = links.get_mut(&(from, to)) else {
            return Decision::Deliver(None);
        };
        if l.cut {
            return Decision::Drop;
        }
        if l.drop_next > 0 {
            l.drop_next -= 1;
            return Decision::Drop;
        }
        let mut delay = l.delay;
        if let Some(j) = &mut l.jitter {
            let mult = j.model.sample(&mut j.rng);
            if mult > 1.0 {
                delay = Some(delay.unwrap_or(Duration::ZERO) + j.base.mul_f64(mult));
            }
        }
        Decision::Deliver(delay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_by_default_and_cut_heal_roundtrip() {
        let f = FaultController::new();
        assert_eq!(f.decide(0, 1), Decision::Deliver(None));
        f.cut_link(0, 1);
        assert_eq!(f.decide(0, 1), Decision::Drop);
        assert_eq!(f.decide(1, 0), Decision::Deliver(None), "directed");
        f.heal_link(0, 1);
        assert_eq!(f.decide(0, 1), Decision::Deliver(None));
    }

    #[test]
    fn drop_next_is_transient() {
        let f = FaultController::new();
        f.drop_next(2, 3, 2);
        assert_eq!(f.decide(2, 3), Decision::Drop);
        assert_eq!(f.decide(2, 3), Decision::Drop);
        assert_eq!(f.decide(2, 3), Decision::Deliver(None));
    }

    #[test]
    fn jitter_is_seed_deterministic() {
        let run = || {
            let f = FaultController::new();
            f.jitter_link(
                0,
                1,
                42,
                StragglerModel { prob: 0.5, slowdown: 3.0 },
                Duration::from_millis(10),
            );
            (0..32).map(|_| f.decide(0, 1)).collect::<Vec<_>>()
        };
        let a = run();
        assert_eq!(a, run());
        assert!(a.iter().any(|d| *d != Decision::Deliver(None)), "some straggle");
        assert!(a.contains(&Decision::Deliver(None)), "some don't");
    }

    #[test]
    fn fixed_delay_applies_to_every_message() {
        let f = FaultController::new();
        f.delay_link(0, 1, Duration::from_millis(7));
        for _ in 0..4 {
            assert_eq!(f.decide(0, 1), Decision::Deliver(Some(Duration::from_millis(7))));
        }
        // Healing clears the delay along with everything else.
        f.heal_link(0, 1);
        assert_eq!(f.decide(0, 1), Decision::Deliver(None));
    }

    #[test]
    fn delay_and_jitter_compose_additively() {
        // A straggling message on a link that also has a fixed delay
        // must pay both: base delay + slowdown × jitter base.
        let f = FaultController::new();
        f.delay_link(0, 1, Duration::from_millis(5));
        f.jitter_link(
            0,
            1,
            7,
            StragglerModel { prob: 1.0, slowdown: 2.0 },
            Duration::from_millis(10),
        );
        let Decision::Deliver(Some(d)) = f.decide(0, 1) else {
            panic!("delayed+jittered link must deliver with a delay");
        };
        assert_eq!(d, Duration::from_millis(5) + Duration::from_millis(10).mul_f64(2.0));
    }

    #[test]
    fn drop_burst_takes_priority_over_delay_then_expires() {
        let f = FaultController::new();
        f.delay_link(3, 1, Duration::from_millis(4));
        f.drop_next(3, 1, 1);
        assert_eq!(f.decide(3, 1), Decision::Drop, "drop budget first");
        assert_eq!(
            f.decide(3, 1),
            Decision::Deliver(Some(Duration::from_millis(4))),
            "delay survives the transient drop burst"
        );
    }

    #[test]
    fn is_cut_probe_does_not_consume_fault_budgets() {
        let f = FaultController::new();
        f.drop_next(0, 1, 1);
        f.jitter_link(
            2,
            3,
            9,
            StragglerModel { prob: 1.0, slowdown: 1.5 },
            Duration::from_millis(1),
        );
        // Probing must not consume the drop token or advance the RNG.
        for _ in 0..5 {
            assert!(!f.is_cut(0, 1));
            assert!(!f.is_cut(2, 3));
        }
        assert_eq!(f.decide(0, 1), Decision::Drop, "drop token still unspent");
        f.cut_link(0, 1);
        assert!(f.is_cut(0, 1));
        assert!(!f.is_cut(1, 0), "directed");
    }

    #[test]
    fn kill_rank_cuts_both_directions() {
        let f = FaultController::new();
        f.kill_rank(1, 3);
        assert_eq!(f.decide(1, 0), Decision::Drop);
        assert_eq!(f.decide(2, 1), Decision::Drop);
        assert_eq!(f.decide(0, 2), Decision::Deliver(None));
        f.heal_rank(1, 3);
        assert_eq!(f.decide(1, 0), Decision::Deliver(None));
    }
}

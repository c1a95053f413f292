//! Heartbeat-based peer failure detection for socket transports.
//!
//! Every TCP [`crate::Endpoint`] runs one background thread that pings
//! each peer every [`HeartbeatConfig::interval`] with a
//! [`crate::Kind::Heartbeat`] frame and checks the per-peer last-seen
//! clock. *Any* inbound frame refreshes the clock (data traffic counts
//! as liveness), and a peer silent for more than
//! [`HeartbeatConfig::window`] is marked dead: receives from it return
//! [`crate::CommsError::PeerDead`] immediately instead of waiting out
//! the collective deadline, so the epoch-bump/poison/heal recovery path
//! starts within the liveness window, not the timeout.
//!
//! Pings carry a wall-clock micros timestamp as their collective `id`;
//! the peer's reader answers in line (`step` 1, same `id`) and the
//! answer's age becomes the link's RTT (`Endpoint::rtt_us`).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Liveness parameters for one transport endpoint.
#[derive(Debug, Clone, Copy)]
pub struct HeartbeatConfig {
    /// Ping period, and the granularity of the liveness check.
    pub interval: Duration,
    /// Consecutive missed beats before a peer is declared dead.
    pub miss_limit: u32,
}

impl Default for HeartbeatConfig {
    fn default() -> HeartbeatConfig {
        HeartbeatConfig { interval: Duration::from_millis(100), miss_limit: 10 }
    }
}

impl HeartbeatConfig {
    /// The detection window: a peer silent for longer than
    /// `interval × miss_limit` is declared dead.
    pub fn window(&self) -> Duration {
        self.interval * self.miss_limit
    }
}

struct PeerHealth {
    /// Micros since the transport's `t0` when a frame last arrived.
    last_seen_us: AtomicU64,
    dead: AtomicBool,
    /// Last measured ping→pong round trip (0 = not measured yet).
    rtt_us: AtomicU64,
}

/// Shared liveness state: written by reader threads and the heartbeat
/// monitor, read by the transport's receive paths.
pub(crate) struct Health {
    t0: Instant,
    cfg: HeartbeatConfig,
    peers: Vec<PeerHealth>,
}

impl Health {
    pub(crate) fn new(world: usize, cfg: HeartbeatConfig) -> Health {
        Health {
            t0: Instant::now(),
            cfg,
            peers: (0..world)
                .map(|_| PeerHealth {
                    last_seen_us: AtomicU64::new(0),
                    dead: AtomicBool::new(false),
                    rtt_us: AtomicU64::new(0),
                })
                .collect(),
        }
    }

    pub(crate) fn config(&self) -> &HeartbeatConfig {
        &self.cfg
    }

    fn now_us(&self) -> u64 {
        self.t0.elapsed().as_micros() as u64
    }

    /// A frame (any kind) arrived from `peer`.
    pub(crate) fn note_seen(&self, peer: usize) {
        self.peers[peer].last_seen_us.store(self.now_us(), Ordering::Relaxed);
    }

    pub(crate) fn is_dead(&self, peer: usize) -> bool {
        self.peers[peer].dead.load(Ordering::Relaxed)
    }

    /// How long `peer` has been silent.
    pub(crate) fn silent_for(&self, peer: usize) -> Duration {
        let last = self.peers[peer].last_seen_us.load(Ordering::Relaxed);
        Duration::from_micros(self.now_us().saturating_sub(last))
    }

    /// Whether `peer` has exceeded the liveness window.
    pub(crate) fn overdue(&self, peer: usize) -> bool {
        self.silent_for(peer) > self.cfg.window()
    }

    /// Marks `peer` dead; returns `true` only for the transition (so
    /// the caller warns and counts exactly once).
    pub(crate) fn mark_dead(&self, peer: usize) -> bool {
        !self.peers[peer].dead.swap(true, Ordering::Relaxed)
    }

    pub(crate) fn record_rtt(&self, peer: usize, rtt_us: u64) {
        self.peers[peer].rtt_us.store(rtt_us, Ordering::Relaxed);
    }

    /// Last measured round trip to `peer`, if any.
    pub(crate) fn rtt_us(&self, peer: usize) -> Option<u64> {
        match self.peers[peer].rtt_us.load(Ordering::Relaxed) {
            0 => None,
            v => Some(v),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_is_interval_times_misses() {
        let cfg = HeartbeatConfig { interval: Duration::from_millis(20), miss_limit: 5 };
        assert_eq!(cfg.window(), Duration::from_millis(100));
    }

    #[test]
    fn silence_accumulates_and_note_seen_resets_it() {
        let h = Health::new(2, HeartbeatConfig { interval: Duration::from_millis(5), miss_limit: 2 });
        std::thread::sleep(Duration::from_millis(15));
        assert!(h.overdue(1), "silent past the 10ms window");
        h.note_seen(1);
        assert!(!h.overdue(1), "a frame resets the clock");
        assert!(h.silent_for(1) < Duration::from_millis(10));
    }

    #[test]
    fn mark_dead_reports_the_transition_once() {
        let h = Health::new(2, HeartbeatConfig::default());
        assert!(!h.is_dead(1));
        assert!(h.mark_dead(1), "first marking is the transition");
        assert!(!h.mark_dead(1), "second is idempotent");
        assert!(h.is_dead(1));
    }

    #[test]
    fn rtt_gauge_roundtrips() {
        let h = Health::new(2, HeartbeatConfig::default());
        assert_eq!(h.rtt_us(1), None);
        h.record_rtt(1, 420);
        assert_eq!(h.rtt_us(1), Some(420));
    }
}

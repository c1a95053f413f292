//! Per-server counters and latency accounting, shared lock-free
//! between the listener, replicas, dispatcher, and reload watcher.
//!
//! Tests run several servers in one process, so each server owns its
//! own [`Shared`] block, read through [`ServeStats`]. Latency and
//! batch-fill use `telemetry`'s bucketed [`Histogram`], with
//! microsecond bounds wide enough to resolve a p99 from tens of
//! microseconds to seconds.

use std::sync::atomic::{AtomicU64, Ordering};
use telemetry::Histogram;

/// Geometric microsecond bounds, 10 µs .. ~84 s, ratio ~1.3; bucketed
/// quantiles resolve to better than ±15%.
fn latency_bounds() -> Vec<f64> {
    let mut bounds = Vec::with_capacity(60);
    let mut v = 10.0f64;
    while v < 1e8 {
        bounds.push(v);
        v *= 1.3;
    }
    bounds
}

/// One server's live counters. All relaxed: readers want a snapshot,
/// not an ordering.
pub(crate) struct Shared {
    pub requests: AtomicU64,
    pub responses: AtomicU64,
    pub errors: AtomicU64,
    pub dropped: AtomicU64,
    pub batches: AtomicU64,
    pub reloads: AtomicU64,
    /// Published checkpoints the watcher refused: failed verification
    /// or could not be lowered.
    pub reload_rejected: AtomicU64,
    pub respawns: AtomicU64,
    pub serving_step: AtomicU64,
    /// Most recent reload blackout (first swap sent → last replica
    /// ack), in microseconds; 0 before any reload.
    pub last_blackout_us: AtomicU64,
    pub latency_us: Histogram,
    pub batch_fill: Histogram,
}

impl Shared {
    pub fn new(initial_step: u64) -> Shared {
        Shared {
            requests: AtomicU64::new(0),
            responses: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            reloads: AtomicU64::new(0),
            reload_rejected: AtomicU64::new(0),
            respawns: AtomicU64::new(0),
            serving_step: AtomicU64::new(initial_step),
            last_blackout_us: AtomicU64::new(0),
            latency_us: Histogram::with_bounds(&latency_bounds()),
            batch_fill: Histogram::with_bounds(
                &(0..12).map(|i| (1u64 << i) as f64).collect::<Vec<_>>(),
            ),
        }
    }

    pub fn snapshot(&self) -> ServeStats {
        let r = |a: &AtomicU64| a.load(Ordering::Relaxed);
        ServeStats {
            requests: r(&self.requests),
            responses: r(&self.responses),
            errors: r(&self.errors),
            dropped: r(&self.dropped),
            batches: r(&self.batches),
            reloads: r(&self.reloads),
            reload_rejected: r(&self.reload_rejected),
            respawns: r(&self.respawns),
            serving_step: r(&self.serving_step),
            last_blackout_ms: r(&self.last_blackout_us) as f64 / 1e3,
            p50_latency_ms: self.latency_us.quantile(0.5).unwrap_or(0.0) / 1e3,
            p99_latency_ms: self.latency_us.quantile(0.99).unwrap_or(0.0) / 1e3,
            mean_batch_fill: self.batch_fill.mean().unwrap_or(0.0),
        }
    }
}

/// A server's lifetime totals, reported by `Server::stop` and polled
/// mid-run by tests via `Server::stats`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeStats {
    pub requests: u64,
    pub responses: u64,
    pub errors: u64,
    /// Responses abandoned because the client hung up mid-flight.
    pub dropped: u64,
    pub batches: u64,
    pub reloads: u64,
    /// Published checkpoints refused by the reload watcher.
    pub reload_rejected: u64,
    pub respawns: u64,
    pub serving_step: u64,
    pub last_blackout_ms: f64,
    pub p50_latency_ms: f64,
    pub p99_latency_ms: f64,
    pub mean_batch_fill: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_counters_and_quantiles() {
        let sh = Shared::new(7);
        sh.requests.fetch_add(100, Ordering::Relaxed);
        sh.batches.fetch_add(10, Ordering::Relaxed);
        for _ in 0..90 {
            sh.latency_us.record(1_000.0);
        }
        for _ in 0..10 {
            sh.latency_us.record(500_000.0);
        }
        let s = sh.snapshot();
        assert_eq!((s.requests, s.batches, s.serving_step), (100, 10, 7));
        assert!(s.p50_latency_ms >= 0.5 && s.p50_latency_ms <= 2.0, "p50 {}", s.p50_latency_ms);
        assert!(s.p99_latency_ms >= 100.0, "p99 must see the tail: {}", s.p99_latency_ms);
    }
}

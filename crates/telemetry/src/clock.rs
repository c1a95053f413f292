//! The shared, resettable trace clock.
//!
//! Every live trace lane ([`crate::trace::lane`]) stamps events with
//! [`now_us`] so slices from different subsystems line up on one
//! Perfetto timeline. The clock is monotonic within a session and
//! resettable between sessions: sequential `repro` subcommands in one
//! process call [`reset`] so each trace file starts near `ts = 0`
//! instead of inheriting the previous experiment's offset.
//!
//! Implementation: a process-global `Instant` base (fixed at first use)
//! plus an atomic microsecond offset subtracted from every reading.
//! [`reset`] only stores a new offset, so readers stay lock-free — one
//! `OnceLock` fetch and one relaxed atomic load per timestamp.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

static BASE: OnceLock<Instant> = OnceLock::new();
static OFFSET_US: AtomicU64 = AtomicU64::new(0);

fn base() -> Instant {
    *BASE.get_or_init(Instant::now)
}

/// Microseconds since the current trace session began.
///
/// Monotonic between [`reset`] calls; readings taken before the first
/// `reset` are relative to process start.
pub fn now_us() -> f64 {
    let abs = base().elapsed().as_micros() as u64;
    let off = OFFSET_US.load(Ordering::Relaxed);
    abs.saturating_sub(off) as f64
}

/// Start a new trace session: subsequent [`now_us`] readings restart
/// near zero. Call between sequential experiments sharing one process
/// so their traces don't inherit each other's time offset.
pub fn reset() {
    let abs = base().elapsed().as_micros() as u64;
    OFFSET_US.store(abs, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_within_a_session() {
        let _guard = crate::registry::test_lock();
        let a = now_us();
        let b = now_us();
        assert!(b >= a);
    }

    #[test]
    fn reset_rewinds_the_session_origin() {
        let _guard = crate::registry::test_lock();
        // The base is fixed at first use: touch it before sleeping, or a
        // run where this test comes first measures the 5 ms from nothing.
        let start = now_us();
        std::thread::sleep(std::time::Duration::from_millis(5));
        let before = now_us();
        assert!(
            before >= start + 5_000.0,
            "expected ≥5ms since {start}, got {before}"
        );
        reset();
        let after = now_us();
        assert!(
            after < before,
            "reset should rewind the clock: {after} !< {before}"
        );
        // And it keeps ticking forward from the new origin.
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(now_us() >= after + 2_000.0 - 1_000.0);
    }
}

//! Workspace-wide observability with near-zero cost when disabled.
//!
//! Everything in this crate is gated on a single process-global flag that
//! instrumented call sites check with one relaxed atomic load. With the
//! flag off (the default) the hot paths of the training and simulation
//! crates pay only that load; nothing allocates, locks or writes.
//!
//! Four cooperating pieces:
//!
//! * [`registry`] — named [`Counter`]s, [`Gauge`]s and fixed-bucket
//!   [`Histogram`]s, shared through a process-global [`Registry`]
//!   (scoped registries are available for tests).
//! * [`trace`] — the one trace recorder: [`trace::slice()`] and
//!   [`trace::flow`] push into per-thread buffers on one of the live
//!   lanes ([`trace::lane`]: spans, comms, pipeline, serve),
//!   [`trace::take`] drains them, and the `chrome://tracing` / Perfetto
//!   `trace_event` exporter writes them next to the simulated pipeline
//!   schedule.
//! * [`mod@span`] — RAII wall-clock timers. Every finished span feeds a
//!   histogram (`<name>` in seconds) and becomes a slice on the spans
//!   lane.
//! * [`jsonl`] — one-line-per-training-step [`StepEvent`] records, one
//!   schema for every runtime, appended to `metrics.jsonl` under the
//!   results directory (`SAMO_RESULTS_DIR`, default `results`).
//!
//! Supporting cast: [`clock`] (the shared resettable trace clock every
//! lane stamps from) and [`ledger`] (a rank's phase clock: every
//! nanosecond of a training step charged to one phase, the split every
//! runtime's step timings read).
//!
//! Plus [`logger`], a leveled stderr logger (`SAMO_LOG=quiet|info|debug`)
//! so experiment drivers can keep stdout exclusively for machine-readable
//! tables and CSV.
//!
//! # Enabling
//!
//! ```
//! telemetry::set_enabled(true);           // programmatic
//! // or: SAMO_TELEMETRY=1 in the environment, then
//! telemetry::init_from_env();
//! ```

pub mod clock;
pub mod json;
pub mod jsonl;
pub mod ledger;
pub mod logger;
pub mod registry;
mod sink;
pub mod span;
pub mod trace;

pub use jsonl::StepEvent;
pub use registry::{global, Counter, Gauge, Histogram, Registry};
pub use span::{span, SpanGuard};
pub use trace::{FlowEvent, TraceEvent};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether telemetry is currently recording. One relaxed load — this is
/// the only cost instrumented hot paths pay when telemetry is off.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn recording on or off for the whole process.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Initialise the enable flag (and the log level) from the environment.
///
/// `SAMO_TELEMETRY=1|true|on|yes` enables recording. Idempotent: the
/// environment is consulted once per process; later calls are no-ops so
/// a programmatic [`set_enabled`] is never fought by re-reads.
pub fn init_from_env() {
    static INIT: OnceLock<()> = OnceLock::new();
    INIT.get_or_init(|| {
        if let Ok(v) = std::env::var("SAMO_TELEMETRY") {
            let v = v.to_ascii_lowercase();
            if matches!(v.as_str(), "1" | "true" | "on" | "yes") {
                set_enabled(true);
            }
        }
        logger::init_from_env();
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enable_roundtrip() {
        let _guard = crate::registry::test_lock();
        let before = enabled();
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
        set_enabled(before);
    }
}

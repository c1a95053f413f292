//! RAII wall-clock span timers.
//!
//! A [`span`] measures the wall time between its creation and its
//! [`SpanGuard::finish`] (or drop). When telemetry is enabled the
//! duration is recorded into the global histogram named after the span,
//! and the span becomes a slice on the [`lane::SPANS`] lane of the trace
//! recorder ([`crate::trace`]). When telemetry is disabled the guard is
//! inert apart from reading the clock once.

use crate::trace::{self, lane};
use std::time::Instant;

fn current_tid() -> u64 {
    // Stable small ids per thread, assigned in first-use order.
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static TID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

/// Start timing a named phase. The name becomes the histogram key, so
/// use stable dotted names (`samo.step.compress`, `repro.fig4`).
pub fn span(name: &'static str) -> SpanGuard {
    SpanGuard {
        name,
        start: Instant::now(),
        done: false,
    }
}

/// Guard returned by [`span`]; records on drop or explicit finish.
#[must_use = "a span measures until it is dropped or finished"]
pub struct SpanGuard {
    name: &'static str,
    start: Instant,
    done: bool,
}

impl SpanGuard {
    /// Stop the timer now and return the elapsed seconds. The duration
    /// is also recorded (histogram + collector) exactly as on drop.
    pub fn finish(mut self) -> f64 {
        self.record();
        self.start.elapsed().as_secs_f64()
    }

    fn record(&mut self) {
        if self.done {
            return;
        }
        self.done = true;
        if !crate::enabled() {
            return;
        }
        let dur = self.start.elapsed();
        crate::global()
            .histogram(self.name)
            .record(dur.as_secs_f64());
        // Timestamps come off the shared trace clock so span lanes line
        // up with comms/pipeline lanes: start = now − duration, clamped
        // in case a clock reset happened mid-span.
        let dur_us = dur.as_micros() as f64;
        let start_us = (crate::clock::now_us() - dur_us).max(0.0);
        trace::slice(lane::SPANS, current_tid(), "span", start_us, dur_us, || {
            (self.name.to_string(), Vec::new())
        });
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.record();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_records_histogram_and_slice_when_enabled() {
        let _guard = crate::registry::test_lock();
        let was = crate::enabled();
        crate::set_enabled(true);
        trace::take();

        let before = crate::global().histogram("test.span.unit").count();
        let s = span("test.span.unit");
        std::thread::sleep(std::time::Duration::from_millis(1));
        let secs = s.finish();
        assert!(secs >= 0.001);
        assert_eq!(
            crate::global().histogram("test.span.unit").count(),
            before + 1
        );
        let (slices, _) = trace::take();
        assert!(slices.iter().any(|e| e.name == "test.span.unit"
            && (e.pid, e.cat.as_str()) == (lane::SPANS, "span")
            && e.dur_us >= 1000.0));

        crate::set_enabled(was);
    }

    #[test]
    fn span_is_inert_when_disabled() {
        let _guard = crate::registry::test_lock();
        let was = crate::enabled();
        crate::set_enabled(false);
        trace::take();

        let before = crate::global().histogram("test.span.off").count();
        drop(span("test.span.off"));
        assert_eq!(crate::global().histogram("test.span.off").count(), before);
        assert!(trace::take().0.is_empty());

        crate::set_enabled(was);
    }
}

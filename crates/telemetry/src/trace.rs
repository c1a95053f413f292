//! The one trace recorder, and its Chrome `trace_event` JSON export.
//!
//! Every timed slice any crate records goes through [`slice()`], every
//! causal arrow through [`flow`]; [`take`] drains both. The output
//! loads directly in `chrome://tracing` or
//! [Perfetto](https://ui.perfetto.dev). Every slice is a "complete"
//! event (`ph: "X"`) with microsecond `ts`/`dur` off the shared
//! [`crate::clock`]; `pid`/`tid` pick the process/thread lanes the UI
//! renders: the [`lane`] constants.
//!
//! Alongside slices the document may carry **flow events**
//! ([`FlowEvent`], `ph: "s"`/`ph: "f"`): paired start/finish markers
//! that Perfetto renders as arrows between the slices enclosing them —
//! here, from every send to the recv it unblocked. Pairs match on
//! `cat` + `id`, and `bp: "e"` binds each endpoint to its enclosing
//! slice rather than to the next slice on the lane.
//!
//! # Recording
//!
//! [`slice()`] and [`flow`] check [`crate::enabled`] *before* running the
//! closure that builds the name and args, so a disabled call site costs
//! one relaxed load and allocates nothing, on every lane, by
//! construction. Enabled, an event is pushed into the calling thread's
//! own buffer (`ThreadLocalSink`): no cross-thread lock, and a buffer
//! outlives its thread, so a rank killed mid-drill still contributes
//! its events to [`take`]. At most [`MAX_COLLECTED_SPANS`] events are
//! held between drains; the rest are counted in
//! `telemetry.trace.dropped`.

use crate::json::Json;
use crate::registry::Counter;
use crate::sink::{Handle, ThreadLocalSink};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// The `pid` of each lane group in a combined trace: the simulated
/// schedule and the four live lanes.
pub mod lane {
    /// The simulated pipeline schedule, one `tid` per GPU — built by
    /// `axonn_sim::chrome_trace_events`, never recorded live.
    pub const SIMULATED: u64 = 0;
    /// [`mod@crate::span`] timers, one `tid` per thread.
    pub const SPANS: u64 = 1;
    /// Ring hops, sends, recv waits and their flows, one `tid` per rank.
    pub const COMMS: u64 = 2;
    /// Pipeline-runtime stage slices and step windows, one `tid` per rank.
    pub const PIPELINE: u64 = 3;
    /// Serving queue/batch/compute slices, one `tid` per replica, plus
    /// one (index = replica count) for the reload watcher.
    pub const SERVE: u64 = 4;
}

/// Events (slices plus flows) held between two [`take`]s before new ones
/// are dropped. Generous for any real run (a full `repro all --quick`
/// produces a few thousand) while bounding memory if telemetry stays on
/// in a long run that never drains.
pub const MAX_COLLECTED_SPANS: usize = 100_000;

static SLICES: ThreadLocalSink<TraceEvent> = ThreadLocalSink::new();
static FLOWS: ThreadLocalSink<FlowEvent> = ThreadLocalSink::new();
/// Events reserved or buffered; a relaxed counter, so the cap costs the
/// recording path no lock.
static HELD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static LOCAL: (Handle<TraceEvent>, Handle<FlowEvent>) = (SLICES.handle(), FLOWS.handle());
}

fn dropped() -> &'static Counter {
    static DROPPED: OnceLock<Arc<Counter>> = OnceLock::new();
    DROPPED.get_or_init(|| crate::global().counter("telemetry.trace.dropped"))
}

/// Whether an event may be recorded now: telemetry on and room under
/// the cap (a refusal for room is counted).
fn admit() -> bool {
    if !crate::enabled() {
        return false;
    }
    if HELD.fetch_add(1, Ordering::Relaxed) < MAX_COLLECTED_SPANS {
        return true;
    }
    HELD.fetch_sub(1, Ordering::Relaxed);
    dropped().inc();
    false
}

/// Records one slice on `lane`'s `tid` row. `describe` builds the name
/// and args and runs only when the event is kept.
pub fn slice(
    lane: u64,
    tid: u64,
    cat: &str,
    ts_us: f64,
    dur_us: f64,
    describe: impl FnOnce() -> (String, Vec<(String, Json)>),
) {
    if admit() {
        let (name, args) = describe();
        let ev = TraceEvent {
            name,
            cat: cat.into(),
            pid: lane,
            tid,
            ts_us,
            dur_us,
            args,
        };
        LOCAL.with(|(slices, _)| slices.lock().push(ev));
    }
}

/// Records one half of a causal arrow on `lane`'s `tid` row: the sender
/// emits `start = true` from inside its send slice, the consumer
/// `start = false` (same `cat` and `id`) from inside the slice that
/// absorbed the message. `name` runs only when the event is kept.
pub fn flow(
    lane: u64,
    tid: u64,
    cat: &str,
    ts_us: f64,
    id: u64,
    start: bool,
    name: impl FnOnce() -> String,
) {
    if admit() {
        let ev = FlowEvent {
            name: name(),
            cat: cat.into(),
            pid: lane,
            tid,
            ts_us,
            id,
            start,
        };
        LOCAL.with(|(_, flows)| flows.lock().push(ev));
    }
}

/// Drains every recorded slice and flow, including the buffers of
/// threads that have exited. Events come grouped by thread, not sorted
/// by `ts` (trace UIs sort on load).
pub fn take() -> (Vec<TraceEvent>, Vec<FlowEvent>) {
    static REPORTED: AtomicU64 = AtomicU64::new(0);
    let (slices, flows) = (SLICES.drain(), FLOWS.drain());
    HELD.fetch_sub(slices.len() + flows.len(), Ordering::Relaxed);
    let total = dropped().get();
    let new = total.saturating_sub(REPORTED.swap(total, Ordering::Relaxed));
    if new > 0 {
        crate::log_warn!("trace: {new} events dropped at the {MAX_COLLECTED_SPANS}-event cap");
    }
    (slices, flows)
}

/// One complete ("X") trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    pub name: String,
    /// Category string, used by trace UIs for filtering/colour.
    pub cat: String,
    pub pid: u64,
    pub tid: u64,
    /// Start, microseconds.
    pub ts_us: f64,
    /// Duration, microseconds.
    pub dur_us: f64,
    /// Free-form `args` shown in the UI's detail pane.
    pub args: Vec<(String, Json)>,
}

impl TraceEvent {
    pub fn to_json(&self) -> Json {
        let mut fields: Vec<(String, Json)> = vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("cat".into(), Json::Str(self.cat.clone())),
            ("ph".into(), Json::from("X")),
            ("pid".into(), Json::UInt(self.pid)),
            ("tid".into(), Json::UInt(self.tid)),
            ("ts".into(), Json::Num(self.ts_us)),
            ("dur".into(), Json::Num(self.dur_us)),
        ];
        if !self.args.is_empty() {
            fields.push(("args".into(), Json::Obj(self.args.clone())));
        }
        Json::Obj(fields)
    }
}

/// One flow event: half of a causal send→recv arrow.
///
/// Emit a `start: true` event from inside the slice doing the send and
/// a `start: false` event (same `cat`, same `id`) from inside the slice
/// that consumed the message; Perfetto draws the arrow between the two
/// enclosing slices. Ids must be unique per `cat` within a trace —
/// callers derive them by hashing the message tag plus sender.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowEvent {
    pub name: String,
    /// Category; flow pairs match on `cat` + `id`.
    pub cat: String,
    pub pid: u64,
    pub tid: u64,
    /// Timestamp, microseconds. Must fall inside the enclosing slice.
    pub ts_us: f64,
    /// Pair key: one `start` and one non-`start` event share each id.
    pub id: u64,
    /// `true` renders `ph: "s"` (flow start), `false` renders
    /// `ph: "f"` (flow finish).
    pub start: bool,
}

impl FlowEvent {
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("cat".into(), Json::Str(self.cat.clone())),
            ("ph".into(), Json::from(if self.start { "s" } else { "f" })),
            ("bp".into(), Json::from("e")),
            ("pid".into(), Json::UInt(self.pid)),
            ("tid".into(), Json::UInt(self.tid)),
            ("ts".into(), Json::Num(self.ts_us)),
            ("id".into(), Json::UInt(self.id)),
        ])
    }
}

/// The top-level trace document for a set of events.
pub fn chrome_trace_json(events: &[TraceEvent]) -> Json {
    chrome_trace_json_with_flows(events, &[])
}

/// The top-level trace document for slices plus causal flow arrows.
pub fn chrome_trace_json_with_flows(events: &[TraceEvent], flows: &[FlowEvent]) -> Json {
    let mut all: Vec<Json> = events.iter().map(TraceEvent::to_json).collect();
    all.extend(flows.iter().map(FlowEvent::to_json));
    Json::Obj(vec![
        ("traceEvents".into(), Json::Arr(all)),
        ("displayTimeUnit".into(), Json::from("ms")),
    ])
}

/// Render and write a trace document to `path`, creating parent
/// directories as needed.
pub fn write_chrome_trace(path: &Path, events: &[TraceEvent]) -> io::Result<()> {
    write_chrome_trace_with_flows(path, events, &[])
}

/// [`write_chrome_trace`], with flow arrows included in the document.
pub fn write_chrome_trace_with_flows(
    path: &Path,
    events: &[TraceEvent],
    flows: &[FlowEvent],
) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, chrome_trace_json_with_flows(events, flows).render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_renders_complete_event_fields() {
        let ev = TraceEvent {
            name: "F0".into(),
            cat: "pipeline".into(),
            pid: 0,
            tid: 2,
            ts_us: 10.5,
            dur_us: 3.25,
            args: vec![("mb".into(), Json::UInt(0))],
        };
        let s = ev.to_json().render();
        assert!(s.contains("\"ph\":\"X\""));
        assert!(s.contains("\"pid\":0"));
        assert!(s.contains("\"tid\":2"));
        assert!(s.contains("\"ts\":10.5"));
        assert!(s.contains("\"dur\":3.25"));
        assert!(s.contains("\"args\":{\"mb\":0}"));
    }

    #[test]
    fn flow_events_render_paired_phases() {
        let s = FlowEvent {
            name: "p2p".into(),
            cat: "flow".into(),
            pid: 2,
            tid: 0,
            ts_us: 10.0,
            id: 42,
            start: true,
        };
        let f = FlowEvent {
            tid: 1,
            ts_us: 20.0,
            start: false,
            ..s.clone()
        };
        let (sj, fj) = (s.to_json().render(), f.to_json().render());
        assert!(sj.contains("\"ph\":\"s\""), "{sj}");
        assert!(fj.contains("\"ph\":\"f\""), "{fj}");
        for j in [&sj, &fj] {
            assert!(j.contains("\"bp\":\"e\""), "{j}");
            assert!(j.contains("\"id\":42"), "{j}");
            assert!(!j.contains("\"dur\""), "flows carry no dur: {j}");
        }
    }

    #[test]
    fn flows_append_after_slices_in_the_document() {
        let ev = TraceEvent {
            name: "send".into(),
            cat: "comms".into(),
            pid: 2,
            tid: 0,
            ts_us: 1.0,
            dur_us: 2.0,
            args: Vec::new(),
        };
        let fl = FlowEvent {
            name: "p2p".into(),
            cat: "flow".into(),
            pid: 2,
            tid: 0,
            ts_us: 1.5,
            id: 7,
            start: true,
        };
        let doc = chrome_trace_json_with_flows(&[ev], &[fl]).render();
        let x = doc.find("\"ph\":\"X\"").unwrap();
        let s = doc.find("\"ph\":\"s\"").unwrap();
        assert!(x < s, "{doc}");
    }

    #[test]
    fn document_shape() {
        let doc = chrome_trace_json(&[]).render();
        assert_eq!(doc, r#"{"traceEvents":[],"displayTimeUnit":"ms"}"#);
    }

    /// Telemetry on for the test, the recorder drained before and after.
    fn recording<R>(f: impl FnOnce() -> R) -> R {
        let _guard = crate::registry::test_lock();
        crate::set_enabled(true);
        take();
        let out = f();
        take();
        crate::set_enabled(false);
        out
    }

    #[test]
    fn disabled_runs_no_closure_and_registers_no_buffer() {
        let _guard = crate::registry::test_lock();
        crate::set_enabled(false);
        // A fresh thread: its buffers would be registered on first use.
        let (calls, registered) = std::thread::spawn(|| {
            let before = (SLICES.registered(), FLOWS.registered());
            let calls = std::cell::Cell::new(0);
            slice(lane::SERVE, 0, "queue", 0.0, 1.0, || {
                calls.set(calls.get() + 1);
                ("never".into(), Vec::new())
            });
            flow(lane::COMMS, 0, "msg", 0.0, 1, true, || {
                calls.set(calls.get() + 1);
                "never".into()
            });
            (
                calls.get(),
                (SLICES.registered(), FLOWS.registered()) == before,
            )
        })
        .join()
        .unwrap();
        assert_eq!(
            calls, 0,
            "a disabled call site must not build its name or args"
        );
        assert!(
            registered,
            "a disabled call site must not register a buffer"
        );
        assert_eq!(HELD.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn every_lane_drains_once_with_its_pid_including_dead_threads() {
        let (slices, flows) = recording(|| {
            slice(lane::COMMS, 3, "comms", 1.0, 2.0, || {
                ("rs b0 s1".into(), Vec::new())
            });
            slice(lane::COMMS, 1, "wait", 1.0, 5.0, || {
                ("recv rank0".into(), Vec::new())
            });
            flow(lane::COMMS, 1, "msg", 2.0, 99, false, || "p2p".into());
            std::thread::spawn(|| {
                slice(lane::PIPELINE, 7, "pipeline", 1.0, 2.0, || {
                    ("F0".into(), Vec::new())
                });
                let args = vec![("id".to_string(), Json::UInt(9))];
                slice(lane::SERVE, 5, "queue", 1.0, 2.0, || {
                    ("queue req 9".into(), args)
                });
            })
            .join()
            .unwrap();
            take()
        });
        let row = |e: &TraceEvent| (e.pid, e.tid, e.cat.clone(), e.name.clone());
        let mut rows: Vec<_> = slices.iter().map(row).collect();
        rows.sort();
        let want = [
            (2, 1, "wait", "recv rank0"),
            (2, 3, "comms", "rs b0 s1"),
            (3, 7, "pipeline", "F0"),
            (4, 5, "queue", "queue req 9"),
        ];
        let want: Vec<_> = want
            .iter()
            .map(|&(p, t, c, n)| (p, t, c.to_string(), n.to_string()))
            .collect();
        assert_eq!(rows, want, "dead-thread slices survive; pid = lane");
        assert_eq!(flows.len(), 1);
        assert!((flows[0].id, flows[0].start, flows[0].cat.as_str()) == (99, false, "msg"));
        assert!(slices
            .iter()
            .any(|e| e.args == [("id".to_string(), Json::UInt(9))]));
        assert_eq!(
            HELD.load(Ordering::Relaxed),
            0,
            "a drain releases what it took"
        );
    }

    #[test]
    fn the_cap_keeps_exactly_max_events_and_counts_the_rest() {
        const EXTRA: usize = 37;
        let (kept, dropped_by) = recording(|| {
            let before = dropped().get();
            // Two exited threads and the caller share the one cap.
            let spawn = |n: usize| {
                std::thread::spawn(move || {
                    for i in 0..n {
                        slice(lane::COMMS, 0, "comms", i as f64, 1.0, || {
                            (String::new(), Vec::new())
                        });
                    }
                })
            };
            let half = MAX_COLLECTED_SPANS / 2;
            let (a, b) = (spawn(half), spawn(MAX_COLLECTED_SPANS - half - 1));
            a.join().unwrap();
            b.join().unwrap();
            flow(lane::COMMS, 0, "msg", 0.0, 1, true, String::new);
            let built = std::cell::Cell::new(0);
            for _ in 0..EXTRA {
                slice(lane::SPANS, 0, "span", 0.0, 1.0, || {
                    built.set(built.get() + 1);
                    (String::new(), Vec::new())
                });
            }
            assert_eq!(built.get(), 0, "a dropped event is never built");
            let (slices, flows) = take();
            (slices.len() + flows.len(), dropped().get() - before)
        });
        assert_eq!(kept, MAX_COLLECTED_SPANS);
        assert_eq!(dropped_by, EXTRA as u64);
        assert!(crate::global()
            .snapshot()
            .counters
            .contains_key("telemetry.trace.dropped"));
    }
}

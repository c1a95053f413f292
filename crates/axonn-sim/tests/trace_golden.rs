//! Golden test for the Chrome-trace export of a simulated pipeline
//! schedule: the trace document must contain exactly one complete event
//! per `trace_schedule` span, and the spans in each GPU lane must not
//! overlap (a GPU executes one op at a time).

use axonn_sim::pipeline::{chrome_trace_events, trace_schedule, PipelineSpec};
use summit_sim::machine::SUMMIT;

fn fig3_spec() -> PipelineSpec {
    PipelineSpec {
        stages: 3,
        microbatches: 5,
        t_fwd: vec![1.0; 3],
        t_bwd: vec![2.0; 3],
        t_w: vec![0.0; 3],
        msg_bytes: 0,
        gpu_ids: vec![0; 3],
        max_in_flight: 5,
    }
}

#[test]
fn one_complete_event_per_schedule_span() {
    let spec = fig3_spec();
    let trace = trace_schedule(&SUMMIT, &spec);
    // 5 microbatches × 3 stages × (1 fwd + 1 bwd) = 30 compute intervals.
    assert_eq!(trace.len(), 30);

    let events = chrome_trace_events(&trace);
    assert_eq!(events.len(), trace.len());

    for (ev, &(stage, start, end, label)) in events.iter().zip(&trace) {
        assert_eq!(
            ev.pid,
            telemetry::trace::lane::SIMULATED,
            "pipeline events live on pid 0"
        );
        assert_eq!(ev.tid, stage as u64, "one tid lane per GPU");
        assert!((ev.ts_us - start * 1e6).abs() < 1e-6);
        assert!((ev.dur_us - (end - start) * 1e6).abs() < 1e-6);
        assert_eq!(ev.name, if label == 'F' { "forward" } else { "backward" });
        assert_eq!(ev.cat, "pipeline");
    }

    let doc = telemetry::trace::chrome_trace_json_with_flows(&events, &[]).render();
    assert!(doc.starts_with(r#"{"traceEvents":["#));
    assert_eq!(doc.matches("\"ph\":\"X\"").count(), events.len());
    assert!(doc.contains("\"displayTimeUnit\":\"ms\""));
}

#[test]
fn no_overlapping_spans_per_gpu_lane() {
    let spec = fig3_spec();
    let events = chrome_trace_events(&trace_schedule(&SUMMIT, &spec));
    for lane in 0..spec.stages as u64 {
        let mut intervals: Vec<(f64, f64)> = events
            .iter()
            .filter(|e| e.tid == lane)
            .map(|e| (e.ts_us, e.ts_us + e.dur_us))
            .collect();
        assert!(!intervals.is_empty(), "lane {lane} has events");
        intervals.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        for w in intervals.windows(2) {
            assert!(
                w[1].0 >= w[0].1 - 1e-6,
                "lane {lane}: span starting at {} overlaps one ending at {}",
                w[1].0,
                w[0].1
            );
        }
    }
}

#[test]
fn lanes_cover_every_stage_and_durations_positive() {
    // Non-uniform stage times and nonzero messages still yield a clean,
    // per-lane-complete trace.
    let spec = PipelineSpec {
        stages: 4,
        microbatches: 6,
        t_fwd: vec![1e-3, 2e-3, 1.5e-3, 1e-3],
        t_bwd: vec![3e-3, 6e-3, 4.5e-3, 3e-3],
        t_w: vec![0.0; 4],
        msg_bytes: 1_000_000,
        gpu_ids: vec![0, 1, 2, 3],
        max_in_flight: 5,
    };
    let events = chrome_trace_events(&trace_schedule(&SUMMIT, &spec));
    assert_eq!(events.len(), spec.stages * spec.microbatches * 2);
    for lane in 0..spec.stages as u64 {
        let n = events.iter().filter(|e| e.tid == lane).count();
        assert_eq!(n, spec.microbatches * 2, "lane {lane}");
    }
    for ev in &events {
        assert!(ev.dur_us > 0.0);
        assert!(ev.ts_us >= 0.0);
    }
}

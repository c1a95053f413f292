//! Golden trace test: with telemetry enabled, a traced multi-rank run
//! produces a Chrome trace in which **every** flow start (`ph:"s"`) has
//! exactly one matching finish (`ph:"f"`) under the same id, flow pairs
//! carry the `bp:"e"` binding point, and the rendered document
//! round-trips through `telemetry::json` and the critical-path
//! analyzer.
//!
//! These strict every-flow assertions live in their own integration
//! binary on purpose: inside the crate's unit-test binary other tests
//! run concurrently, and any of them doing traffic while telemetry is
//! enabled would add unpaired flows to the shared sinks. Here the test
//! owns the whole process, so an orphan means a real bug.

use comms::{Communicator, InProcTransport};
use std::collections::HashMap;
use telemetry::trace::lane;
use tensor::f16::F16;

/// Runs a 3-rank world through every traced primitive: ring all-reduce,
/// barrier and p2p activation traffic.
fn traced_world() {
    let mesh = InProcTransport::mesh(3);
    std::thread::scope(|s| {
        for (rank, t) in mesh.into_iter().enumerate() {
            s.spawn(move || {
                let mut comm = Communicator::new(t);
                let mut buf: Vec<F16> =
                    (0..64).map(|i| F16::from_f32((rank * 64 + i) as f32 / 32.0)).collect();
                comm.allreduce_mean_f16(&mut buf).unwrap();
                comm.barrier().unwrap();
                if rank == 0 {
                    comm.send_p2p(1, 7, 0, vec![1.0, 2.0]).unwrap();
                } else if rank == 1 {
                    comm.recv_p2p(0, 7, 0).unwrap();
                }
                comm.barrier().unwrap();
            });
        }
    });
}

#[test]
fn golden_trace_pairs_every_flow_and_roundtrips() {
    let _guard = telemetry::registry::test_lock();
    let was = telemetry::enabled();
    telemetry::set_enabled(true);
    telemetry::clock::reset();
    // Drain anything a previous test in this binary left behind.
    telemetry::trace::take();

    traced_world();
    telemetry::set_enabled(was);

    // One drain holds both lanes this run touches: the collectives'
    // `comms.*` span timers (pid 1) and the comms slices (pid 2).
    let (all, flows) = telemetry::trace::take();
    let (events, spans): (Vec<_>, Vec<_>) = all.into_iter().partition(|e| e.pid == lane::COMMS);
    assert!(!events.is_empty(), "traced run must record slices");
    assert!(events.iter().all(|e| matches!(e.cat.as_str(), "comms" | "wait")), "pid 2: cat comms|wait");
    let is_span = |e: &telemetry::TraceEvent| (e.pid, e.cat.as_str()) == (lane::SPANS, "span");
    assert!(spans.iter().all(|e| is_span(e) && e.name.starts_with("comms.")), "pid 1: span timers");
    assert!(flows.iter().all(|f| f.pid == lane::COMMS && f.cat == "msg"), "flows: pid 2, cat msg");
    assert!(!flows.is_empty(), "traced run must record flows");

    // Strict pairing: every id has exactly one start and one finish.
    let mut by_id: HashMap<u64, (usize, usize)> = HashMap::new();
    for f in &flows {
        let e = by_id.entry(f.id).or_insert((0, 0));
        if f.start {
            e.0 += 1;
        } else {
            e.1 += 1;
        }
    }
    for (id, &(s, f)) in &by_id {
        assert_eq!((s, f), (1, 1), "flow id {id:#x} must pair exactly once, got {s} s / {f} f");
    }
    let starts = flows.iter().filter(|f| f.start).count();
    assert_eq!(starts, by_id.len(), "ids are unique per send");
    // 3 ranks x (2 reduce-scatter + 2 all-gather hops) + 2 barriers x 2
    // rounds x 3 sends + 1 p2p: the ring, barrier and p2p flows, and
    // nothing else.
    assert_eq!(by_id.len(), 25, "flow pairs");

    // Every flow references a slice lane that actually exists.
    let lanes: std::collections::HashSet<u64> = events.iter().map(|e| e.tid).collect();
    for f in &flows {
        assert!(lanes.contains(&f.tid), "flow on lane {} without any slice there", f.tid);
    }

    // Rendered document: binding points present and valid JSON, with
    // every drained flow in it.
    let doc = telemetry::trace::chrome_trace_json_with_flows(&events, &flows);
    let text = doc.render();
    assert!(text.contains("\"bp\":\"e\""), "flow finish events must carry bp:\"e\"");
    assert_eq!(text.matches("\"ph\":\"s\"").count(), starts);
    assert_eq!(text.matches("\"ph\":\"f\"").count(), flows.len() - starts);

    telemetry::json::Json::parse(&text).expect("trace must be valid JSON");
}

#[test]
fn timed_out_recv_leaves_exactly_one_orphan_start() {
    let _guard = telemetry::registry::test_lock();
    let was = telemetry::enabled();
    telemetry::set_enabled(true);
    telemetry::trace::take();

    // Rank 0 sends to rank 1, which never receives: the flow start is
    // recorded at the send but no finish ever appears — an orphan, not
    // an invented pair.
    let mesh = InProcTransport::mesh(2);
    std::thread::scope(|s| {
        for (rank, t) in mesh.into_iter().enumerate() {
            s.spawn(move || {
                let mut comm = Communicator::new(t);
                if rank == 0 {
                    comm.send_p2p(1, 9, 3, vec![4.0]).unwrap();
                }
                comm.barrier().unwrap();
            });
        }
    });
    telemetry::set_enabled(was);

    let (_, flows) = telemetry::trace::take();
    let starts = flows.iter().filter(|f| f.start).count();
    let finishes = flows.len() - starts;
    assert_eq!(starts, finishes + 1, "exactly the unreceived p2p is unpaired");

    // The census, from the drained flows: every id but one pairs.
    let mut by_id: HashMap<u64, (usize, usize)> = HashMap::new();
    for f in &flows {
        let e = by_id.entry(f.id).or_insert((0, 0));
        *(if f.start { &mut e.0 } else { &mut e.1 }) += 1;
    }
    let orphans: Vec<_> = by_id.values().filter(|&&p| p != (1, 1)).collect();
    assert_eq!(orphans, [&(1, 0)], "one start, never finished");
    assert_eq!(by_id.len(), starts, "ids are unique per send");
}

//! Offline critical-path and time-decomposition analysis of a merged
//! Chrome trace.
//!
//! [`analyze`] walks a trace document produced by
//! [`crate::trace::write_chrome_trace_with_flows`] — per-rank slice
//! lanes on the [`lane::COMMS`] and [`lane::PIPELINE`] pids plus
//! `ph:"s"/"f"` flow pairs — and answers "where did each training step's wall time
//! go":
//!
//! * **Decomposition** — per lane, per step, the step window is split
//!   into compute / comm / wait / idle with innermost-wins priority
//!   (ring hops pumped inside a backward slice count as comm, not
//!   compute), so the four shares sum to the window by construction.
//! * **Critical path** — a PERT longest-chain over compute and comm
//!   slices, with lane-order edges plus the causal flow edges
//!   (send → recv). The chain length is a scheduling lower bound on the
//!   step makespan; a healthy trace has `critical_path ≈ makespan`.
//! * **Comm overlap** — the fraction of communication time hidden under
//!   compute slices anywhere in the job, the quantity pipeline overlap
//!   designs (AxoNN, DeepSpeed-3D) optimise for.
//!
//! The pipeline's Eq. 7 check is not made here: `repro pipeline`
//! measures it from the scheduler's own counters, which need no trace.
//!
//! Lane convention: comms (pid 2) and pipeline (pid 3) events for one
//! rank share a `tid` (the rank's trace lane), so both contribute to
//! that rank's decomposition. Slices are attributed to the training
//! step whose `step` window (a `pipeline`-category slice named `step`
//! on pid 3) contains their start time.

use crate::json::Json;
use crate::trace::lane;

/// Per-lane share of one step window.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneShare {
    pub tid: u64,
    /// The step window length on this lane, microseconds.
    pub window_us: f64,
    pub compute_us: f64,
    pub comm_us: f64,
    pub wait_us: f64,
    pub idle_us: f64,
}

impl LaneShare {
    /// compute + comm + wait + idle; equals `window_us` by construction
    /// up to float rounding.
    pub fn total_us(&self) -> f64 {
        self.compute_us + self.comm_us + self.wait_us + self.idle_us
    }
}

/// Everything the analyzer learned about one training step.
#[derive(Debug, Clone, PartialEq)]
pub struct StepAnalysis {
    /// Window `args.group` — distinguishes concurrent or sequential
    /// pipeline groups in one process whose step counters both start at
    /// zero (e.g. the bench sweeping depths). 0 when absent.
    pub group: u64,
    pub step: u64,
    /// max window end − min window start across lanes, microseconds.
    pub makespan_us: f64,
    /// Longest dependent chain of compute+comm slices, microseconds.
    pub critical_path_us: f64,
    pub lanes: Vec<LaneShare>,
}

/// Whole-trace analysis result.
#[derive(Debug, Clone, PartialEq)]
pub struct Analysis {
    pub steps: Vec<StepAnalysis>,
    /// Fraction of total comm time overlapped by compute, 0..=1.
    pub comm_overlap_fraction: f64,
    /// Median over analyzed steps of `critical_path / makespan`
    /// (warmup step excluded when three or more steps are present).
    pub median_cp_ratio: f64,
    pub flow_starts: usize,
    pub flow_finishes: usize,
    /// Flow ids with exactly one `s` and one `f`.
    pub matched_flows: usize,
    /// Flow events whose id never found a partner (dropped messages,
    /// timed-out receives).
    pub orphan_flows: usize,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Class {
    Compute,
    Comm,
    Wait,
    Window,
    Other,
}

#[derive(Debug, Clone)]
struct Slice {
    tid: u64,
    ts: f64,
    dur: f64,
    class: Class,
    /// `args.step` when present (window slices and comms hops carry it).
    step: Option<u64>,
    /// `args.group` when present (window slices of grouped runtimes).
    group: u64,
}

impl Slice {
    fn end(&self) -> f64 {
        self.ts + self.dur
    }
}

#[derive(Debug, Clone)]
struct Flow {
    tid: u64,
    ts: f64,
    id: u64,
    start: bool,
}

fn num(j: &Json) -> Option<f64> {
    match j {
        Json::Num(n) => Some(*n),
        Json::Int(i) => Some(*i as f64),
        Json::UInt(u) => Some(*u as f64),
        _ => None,
    }
}

fn str_of(j: &Json) -> Option<&str> {
    match j {
        Json::Str(s) => Some(s),
        _ => None,
    }
}

/// Merge a list of `(start, end)` intervals into a disjoint sorted
/// union.
fn union(mut v: Vec<(f64, f64)>) -> Vec<(f64, f64)> {
    v.retain(|(a, b)| b > a);
    v.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut out: Vec<(f64, f64)> = Vec::with_capacity(v.len());
    for (a, b) in v {
        match out.last_mut() {
            Some(last) if a <= last.1 => last.1 = last.1.max(b),
            _ => out.push((a, b)),
        }
    }
    out
}

/// Clip a disjoint union to `[lo, hi]`.
fn clip(v: &[(f64, f64)], lo: f64, hi: f64) -> Vec<(f64, f64)> {
    v.iter()
        .filter_map(|&(a, b)| {
            let (a, b) = (a.max(lo), b.min(hi));
            (b > a).then_some((a, b))
        })
        .collect()
}

/// `a \ b` for disjoint sorted unions.
fn subtract(a: &[(f64, f64)], b: &[(f64, f64)]) -> Vec<(f64, f64)> {
    let mut out = Vec::new();
    for &(mut lo, hi) in a {
        for &(blo, bhi) in b {
            if bhi <= lo || blo >= hi {
                continue;
            }
            if blo > lo {
                out.push((lo, blo));
            }
            lo = lo.max(bhi);
            if lo >= hi {
                break;
            }
        }
        if hi > lo {
            out.push((lo, hi));
        }
    }
    out
}

fn intersect(a: &[(f64, f64)], b: &[(f64, f64)]) -> Vec<(f64, f64)> {
    subtract(a, &subtract(a, b))
}

fn total(v: &[(f64, f64)]) -> f64 {
    v.iter().map(|(a, b)| b - a).sum()
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn classify(pid: u64, cat: &str, name: &str) -> Class {
    match (pid, cat) {
        (_, "wait") => Class::Wait,
        (_, "comms") => Class::Comm,
        (lane::PIPELINE, "pipeline") if name == "step" => Class::Window,
        (lane::PIPELINE, "pipeline") => Class::Compute,
        _ => Class::Other,
    }
}

/// Parse and analyze a rendered trace document. Errors only on
/// malformed documents (not-JSON, missing `traceEvents`); traces
/// without step windows return an empty `steps` list.
pub fn analyze_str(text: &str) -> Result<Analysis, String> {
    analyze(&Json::parse(text)?)
}

/// Analyze a parsed trace document. See the module docs for the model.
pub fn analyze(doc: &Json) -> Result<Analysis, String> {
    let events = match doc.get("traceEvents") {
        Some(Json::Arr(v)) => v,
        _ => return Err("trace document has no traceEvents array".into()),
    };

    let mut slices: Vec<Slice> = Vec::new();
    let mut flows: Vec<Flow> = Vec::new();
    for ev in events {
        let ph = ev.get("ph").and_then(str_of).unwrap_or("");
        let pid = ev.get("pid").and_then(num).unwrap_or(-1.0) as u64;
        let tid = ev.get("tid").and_then(num).unwrap_or(0.0) as u64;
        let ts = ev.get("ts").and_then(num).unwrap_or(0.0);
        match ph {
            "X" => {
                if pid != lane::COMMS && pid != lane::PIPELINE {
                    continue;
                }
                let cat = ev.get("cat").and_then(str_of).unwrap_or("");
                let name = ev.get("name").and_then(str_of).unwrap_or("");
                let class = classify(pid, cat, name);
                if class == Class::Other {
                    continue;
                }
                slices.push(Slice {
                    tid,
                    ts,
                    dur: ev.get("dur").and_then(num).unwrap_or(0.0),
                    class,
                    step: ev
                        .get("args")
                        .and_then(|a| a.get("step"))
                        .and_then(num)
                        .map(|s| s as u64),
                    group: ev
                        .get("args")
                        .and_then(|a| a.get("group"))
                        .and_then(num)
                        .unwrap_or(0.0) as u64,
                });
            }
            "s" | "f" => {
                let id = ev
                    .get("id")
                    .and_then(num)
                    .ok_or_else(|| format!("flow event without id: {}", ev.render()))?;
                flows.push(Flow {
                    tid,
                    ts,
                    id: id as u64,
                    start: ph == "s",
                });
            }
            _ => {}
        }
    }

    // Flow pairing census (the golden-test invariant, measured here so
    // `trace-analyze` can gate on it for real runs too).
    let mut by_id: std::collections::HashMap<u64, (usize, usize)> =
        std::collections::HashMap::new();
    for f in &flows {
        let e = by_id.entry(f.id).or_insert((0, 0));
        if f.start {
            e.0 += 1;
        } else {
            e.1 += 1;
        }
    }
    let flow_starts = flows.iter().filter(|f| f.start).count();
    let flow_finishes = flows.len() - flow_starts;
    let matched_flows = by_id.values().filter(|&&(s, f)| s == 1 && f == 1).count();
    let orphan_flows = by_id
        .values()
        .map(|&(s, f)| (s + f) - 2 * s.min(f).min(1))
        .sum::<usize>();

    // Step windows: (tid, group, step) → [start, end]. Lanes are
    // globally unique, so `tid` alone resolves which group a slice
    // belongs to; the group key only keeps same-numbered steps of two
    // runtime groups from merging into one bogus makespan.
    let mut windows: Vec<(u64, u64, u64, f64, f64)> = slices
        .iter()
        .filter(|s| s.class == Class::Window)
        .filter_map(|s| s.step.map(|st| (s.tid, s.group, st, s.ts, s.end())))
        .collect();
    windows.sort_by_key(|w| (w.1, w.2, w.0));

    let step_ids: Vec<(u64, u64)> = {
        let mut v: Vec<(u64, u64)> = windows.iter().map(|w| (w.1, w.2)).collect();
        v.dedup();
        v
    };

    // Attribute a slice to the step whose window (on the slice's tid)
    // contains its start.
    let step_of = |s: &Slice| -> Option<(u64, u64)> {
        windows
            .iter()
            .find(|&&(tid, _, _, lo, hi)| tid == s.tid && s.ts >= lo && s.ts < hi)
            .map(|&(_, g, st, _, _)| (g, st))
    };

    // Global comm-overlap fraction: comm time under the union of all
    // compute slices, over total comm time.
    let compute_union = union(
        slices
            .iter()
            .filter(|s| s.class == Class::Compute)
            .map(|s| (s.ts, s.end()))
            .collect(),
    );
    let mut comm_total = 0.0;
    let mut comm_overlapped = 0.0;
    for s in slices.iter().filter(|s| s.class == Class::Comm) {
        comm_total += s.dur;
        comm_overlapped += total(&intersect(&[(s.ts, s.end())], &compute_union));
    }
    let comm_overlap_fraction = if comm_total > 0.0 {
        comm_overlapped / comm_total
    } else {
        0.0
    };

    let mut steps = Vec::new();
    for &(group, step) in &step_ids {
        let step_windows: Vec<&(u64, u64, u64, f64, f64)> = windows
            .iter()
            .filter(|w| w.1 == group && w.2 == step)
            .collect();
        let makespan_lo = step_windows.iter().map(|w| w.3).fold(f64::MAX, f64::min);
        let makespan_hi = step_windows.iter().map(|w| w.4).fold(f64::MIN, f64::max);
        let makespan_us = makespan_hi - makespan_lo;

        let in_step: Vec<&Slice> = slices
            .iter()
            .filter(|s| s.class != Class::Window && step_of(s) == Some((group, step)))
            .collect();

        // Per-lane decomposition, innermost-wins: comm ≻ compute ≻ wait.
        let mut lanes = Vec::new();
        for &&(tid, _, _, lo, hi) in &step_windows {
            let of_class = |c: Class| -> Vec<(f64, f64)> {
                clip(
                    &union(
                        in_step
                            .iter()
                            .filter(|s| s.tid == tid && s.class == c)
                            .map(|s| (s.ts, s.end()))
                            .collect(),
                    ),
                    lo,
                    hi,
                )
            };
            let comm = of_class(Class::Comm);
            let compute = subtract(&of_class(Class::Compute), &comm);
            let busy = union([comm.clone(), compute.clone()].concat());
            let wait = subtract(&of_class(Class::Wait), &busy);
            let (comm_us, compute_us, wait_us) =
                (total(&comm), total(&compute), total(&wait));
            let idle_us = (hi - lo) - comm_us - compute_us - wait_us;
            lanes.push(LaneShare {
                tid,
                window_us: hi - lo,
                compute_us,
                comm_us,
                wait_us,
                idle_us,
            });
        }
        let critical_path_us = critical_path(&in_step, &flows);
        steps.push(StepAnalysis {
            group,
            step,
            makespan_us,
            critical_path_us,
            lanes,
        });
    }

    // Medians exclude each group's warmup step when there is enough
    // data: the first step pays cold caches and first-touch allocation.
    let measured: Vec<&StepAnalysis> = {
        let mut count: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
        let mut first: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        for s in &steps {
            *count.entry(s.group).or_insert(0) += 1;
            let e = first.entry(s.group).or_insert(s.step);
            *e = (*e).min(s.step);
        }
        steps
            .iter()
            .filter(|s| count[&s.group] < 3 || s.step != first[&s.group])
            .collect()
    };
    let median_cp_ratio = median(
        measured
            .iter()
            .filter(|s| s.makespan_us > 0.0)
            .map(|s| s.critical_path_us / s.makespan_us)
            .collect(),
    );

    Ok(Analysis {
        steps,
        comm_overlap_fraction,
        median_cp_ratio,
        flow_starts,
        flow_finishes,
        matched_flows,
        orphan_flows,
    })
}

/// PERT longest chain over one step's compute+comm slices.
///
/// Edges: each slice depends on its lane predecessor (previous slice on
/// the same tid by start time) and, through matched flow pairs, on the
/// sender-side slice enclosing the flow start. Nodes are processed in
/// start-time order; every dependency starts strictly earlier, so a
/// single pass computes `cp[n] = dur(n) + max(cp[deps])`.
fn critical_path(in_step: &[&Slice], flows: &[Flow]) -> f64 {
    let mut nodes: Vec<&Slice> = in_step
        .iter()
        .copied()
        .filter(|s| matches!(s.class, Class::Compute | Class::Comm))
        .collect();
    nodes.sort_by(|a, b| a.ts.total_cmp(&b.ts));
    if nodes.is_empty() {
        return 0.0;
    }
    let lo = nodes.iter().map(|s| s.ts).fold(f64::MAX, f64::min);
    let hi = nodes.iter().map(|s| s.end()).fold(f64::MIN, f64::max);

    // Resolve each matched flow id to (source node, target node):
    // source = last node on the sender lane starting at or before the
    // flow start; target = first node on the receiver lane starting at
    // or after the flow finish (the recv's wait slice is not a node —
    // the dependency lands on whatever work the recv unblocked).
    let mut pairs: std::collections::HashMap<u64, (Option<&Flow>, Option<&Flow>)> =
        std::collections::HashMap::new();
    for f in flows.iter().filter(|f| f.ts >= lo && f.ts <= hi) {
        let e = pairs.entry(f.id).or_insert((None, None));
        if f.start {
            e.0 = e.0.or(Some(f));
        } else {
            e.1 = e.1.or(Some(f));
        }
    }
    let node_idx = |pred: &dyn Fn(&Slice) -> bool, rev: bool| -> Option<usize> {
        if rev {
            nodes.iter().rposition(|s| pred(s))
        } else {
            nodes.iter().position(|s| pred(s))
        }
    };
    let mut flow_edges: Vec<(usize, usize)> = Vec::new();
    for (s, f) in pairs.values() {
        let (Some(s), Some(f)) = (s, f) else { continue };
        let src = node_idx(&|n: &Slice| n.tid == s.tid && n.ts <= s.ts, true);
        let dst = node_idx(&|n: &Slice| n.tid == f.tid && n.ts >= f.ts, false);
        if let (Some(src), Some(dst)) = (src, dst) {
            if nodes[src].ts < nodes[dst].ts {
                flow_edges.push((src, dst));
            }
        }
    }
    flow_edges.sort_unstable();

    let mut cp = vec![0.0f64; nodes.len()];
    let mut last_on_lane: std::collections::HashMap<u64, usize> =
        std::collections::HashMap::new();
    for i in 0..nodes.len() {
        let mut best = 0.0f64;
        if let Some(&p) = last_on_lane.get(&nodes[i].tid) {
            best = best.max(cp[p]);
        }
        for &(src, dst) in &flow_edges {
            if dst == i {
                best = best.max(cp[src]);
            }
        }
        cp[i] = nodes[i].dur + best;
        last_on_lane.insert(nodes[i].tid, i);
    }
    cp.iter().copied().fold(0.0, f64::max)
}

impl Analysis {
    /// The `analysis` record `repro trace-analyze` merges into
    /// `BENCH_hotpaths.json`.
    pub fn to_json(&self) -> Json {
        let steps = self
            .steps
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("group".into(), Json::UInt(s.group)),
                    ("step".into(), Json::UInt(s.step)),
                    ("makespan_us".into(), Json::Num(s.makespan_us)),
                    ("critical_path_us".into(), Json::Num(s.critical_path_us)),
                    (
                        "lanes".into(),
                        Json::Arr(
                            s.lanes
                                .iter()
                                .map(|l| {
                                    Json::Obj(vec![
                                        ("tid".into(), Json::UInt(l.tid)),
                                        ("window_us".into(), Json::Num(l.window_us)),
                                        ("compute_us".into(), Json::Num(l.compute_us)),
                                        ("comm_us".into(), Json::Num(l.comm_us)),
                                        ("wait_us".into(), Json::Num(l.wait_us)),
                                        ("idle_us".into(), Json::Num(l.idle_us)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("schema".into(), Json::UInt(1)),
            (
                "comm_overlap_fraction".into(),
                Json::Num(self.comm_overlap_fraction),
            ),
            ("median_cp_ratio".into(), Json::Num(self.median_cp_ratio)),
            ("flow_starts".into(), Json::UInt(self.flow_starts as u64)),
            ("flow_finishes".into(), Json::UInt(self.flow_finishes as u64)),
            ("matched_flows".into(), Json::UInt(self.matched_flows as u64)),
            ("orphan_flows".into(), Json::UInt(self.orphan_flows as u64)),
            ("steps".into(), Json::Arr(steps)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{chrome_trace_json_with_flows, FlowEvent, TraceEvent};

    fn slice(pid: u64, tid: u64, cat: &str, name: &str, ts: f64, dur: f64, step: Option<u64>) -> TraceEvent {
        TraceEvent {
            name: name.into(),
            cat: cat.into(),
            pid,
            tid,
            ts_us: ts,
            dur_us: dur,
            args: step.map(|s| vec![("step".into(), Json::UInt(s))]).unwrap_or_default(),
        }
    }

    fn flow(tid: u64, ts: f64, id: u64, start: bool) -> FlowEvent {
        FlowEvent {
            name: "p2p".into(),
            cat: "flow".into(),
            pid: lane::COMMS,
            tid,
            ts_us: ts,
            id,
            start,
        }
    }

    /// Two lanes, one step. Lane 0: compute [0,40] then a 2µs send;
    /// lane 1: waits [0,50], compute [50,100]. Flow 0→1 forces the
    /// chain 40 + 2 + 50 = 92 over either lane alone (≤ 50).
    fn two_lane_doc() -> Json {
        let events = vec![
            slice(lane::PIPELINE, 0, "pipeline", "step", 0.0, 100.0, Some(1)),
            slice(lane::PIPELINE, 1, "pipeline", "step", 0.0, 100.0, Some(1)),
            slice(lane::PIPELINE, 0, "pipeline", "F0", 0.0, 40.0, None),
            slice(lane::COMMS, 0, "comms", "send", 40.0, 2.0, None),
            slice(lane::COMMS, 1, "wait", "recv", 0.0, 50.0, None),
            slice(lane::PIPELINE, 1, "pipeline", "F0", 50.0, 50.0, None),
        ];
        let flows = vec![flow(0, 41.0, 7, true), flow(1, 49.0, 7, false)];
        chrome_trace_json_with_flows(&events, &flows)
    }

    #[test]
    fn decomposition_sums_to_window() {
        let a = analyze(&two_lane_doc()).unwrap();
        assert_eq!(a.steps.len(), 1);
        let st = &a.steps[0];
        assert_eq!(st.lanes.len(), 2);
        for lane in &st.lanes {
            assert!(
                (lane.total_us() - lane.window_us).abs() < 1e-9,
                "lane {} shares {} != window {}",
                lane.tid,
                lane.total_us(),
                lane.window_us
            );
        }
        let l0 = st.lanes.iter().find(|l| l.tid == 0).unwrap();
        assert_eq!(l0.compute_us, 40.0);
        assert_eq!(l0.comm_us, 2.0);
        assert_eq!(l0.wait_us, 0.0);
        assert_eq!(l0.idle_us, 58.0);
        let l1 = st.lanes.iter().find(|l| l.tid == 1).unwrap();
        assert_eq!(l1.compute_us, 50.0);
        assert_eq!(l1.wait_us, 50.0);
    }

    #[test]
    fn critical_path_follows_the_flow_edge() {
        let a = analyze(&two_lane_doc()).unwrap();
        let st = &a.steps[0];
        assert_eq!(st.makespan_us, 100.0);
        // F0@0 (40) → send (2) ─flow→ F0@1 (50) = 92; either lane alone
        // is at most 50.
        assert_eq!(st.critical_path_us, 92.0);
    }

    #[test]
    fn flow_census_counts_matches_and_orphans() {
        let a = analyze(&two_lane_doc()).unwrap();
        assert_eq!((a.flow_starts, a.flow_finishes), (1, 1));
        assert_eq!((a.matched_flows, a.orphan_flows), (1, 0));

        let flows = vec![flow(0, 1.0, 1, true), flow(0, 2.0, 2, true), flow(1, 3.0, 2, false)];
        let doc = chrome_trace_json_with_flows(&[], &flows);
        let a = analyze(&doc).unwrap();
        assert_eq!((a.matched_flows, a.orphan_flows), (1, 1));
    }

    #[test]
    fn comm_inside_compute_counts_once_as_comm() {
        // A ring hop pumped inside a backward slice: comm wins, compute
        // loses the overlap, and the hop is fully overlapped.
        let events = vec![
            slice(lane::PIPELINE, 0, "pipeline", "step", 0.0, 100.0, Some(0)),
            slice(lane::PIPELINE, 0, "pipeline", "B0", 10.0, 60.0, None),
            slice(lane::COMMS, 0, "comms", "ring0 rs seg1", 20.0, 10.0, None),
        ];
        let a = analyze(&chrome_trace_json_with_flows(&events, &[])).unwrap();
        let lane = &a.steps[0].lanes[0];
        assert_eq!(lane.compute_us, 50.0);
        assert_eq!(lane.comm_us, 10.0);
        assert!((a.comm_overlap_fraction - 1.0).abs() < 1e-9);
    }

    #[test]
    fn groups_keep_same_numbered_steps_apart() {
        // Two sequential runtime groups whose step counters both start
        // at 0: merging their windows would report a bogus makespan
        // spanning both runs. `args.group` keeps them separate.
        let mut g0 = slice(lane::PIPELINE, 0, "pipeline", "step", 0.0, 100.0, Some(0));
        g0.args.push(("group".into(), Json::UInt(0)));
        let mut g1 = slice(lane::PIPELINE, 5, "pipeline", "step", 10_000.0, 200.0, Some(0));
        g1.args.push(("group".into(), Json::UInt(5)));
        let events = vec![
            g0,
            g1,
            slice(lane::PIPELINE, 0, "pipeline", "F0", 0.0, 80.0, None),
            slice(lane::PIPELINE, 5, "pipeline", "F0", 10_000.0, 150.0, None),
        ];
        let a = analyze(&chrome_trace_json_with_flows(&events, &[])).unwrap();
        assert_eq!(a.steps.len(), 2);
        let m: Vec<f64> = a.steps.iter().map(|s| s.makespan_us).collect();
        assert!(m.contains(&100.0) && m.contains(&200.0), "{m:?}");
        assert!(a.steps.iter().any(|s| s.group == 5 && s.critical_path_us == 150.0));
    }

    #[test]
    fn rejects_documents_without_trace_events() {
        assert!(analyze(&Json::Obj(vec![])).is_err());
        assert!(analyze_str("not json").is_err());
    }

    #[test]
    fn roundtrips_through_render_and_parse() {
        let text = two_lane_doc().render();
        let a = analyze_str(&text).unwrap();
        assert_eq!(a.steps.len(), 1);
        assert_eq!(a.matched_flows, 1);
    }
}

//! `repro trace-analyze <trace.json>` — offline causal analysis of a
//! merged Chrome trace written by `repro <exp> --trace`.
//!
//! Loads the trace through [`telemetry::critical_path`], prints where
//! each training step's wall time went (per-lane compute / comm / wait
//! / idle decomposition, critical-path length vs makespan, comm-overlap
//! fraction, flow-pairing census), cross-checks the measured pipeline
//! bubble against Eq. 7's closed form re-derived from the trace's own
//! F/B slice durations, and merges an `analysis` section into
//! `BENCH_hotpaths.json`.
//!
//! With `--gate` (what CI passes after `repro pipeline --quick
//! --trace`) the run fails unless the trace is healthy:
//!
//! * every lane's four shares sum to its step window within
//!   [`SHARE_TOLERANCE`], and the critical path never exceeds the
//!   makespan (checked here, on the per-step rows that are not recorded);
//! * the recorded section passes the `analysis` gate ([`crate::gates`]):
//!   the median critical-path ratio stays above its floor, every flow
//!   start has exactly one finish (no orphans — a healthy run drops no
//!   messages), and the measured bubble matches the Eq. 7 estimate
//!   within the tolerance `repro pipeline` applies to its
//!   scheduler-stats measurement.
//!
//! Without `--gate` everything is reported but nothing fails: traces
//! from fault drills legitimately contain orphan flows and huge waits.

use crate::gates::{self, as_f64, SHARE_TOLERANCE};
use crate::harness::{self, median};
use axonn_sim::pipeline::analytic_bubble;
use telemetry::critical_path::{analyze_str, Analysis};
use telemetry::json::Json;
use telemetry::trace::lane;

/// One pipeline group's Eq. 7 cross-check, re-derived from the trace.
struct Eq7Row {
    group: u64,
    lanes: usize,
    microbatches: usize,
    f_hat_us: f64,
    b_hat_us: f64,
    measured: f64,
    analytic: f64,
    rel_err: f64,
}

fn str_of(j: &Json) -> Option<&str> {
    match j {
        Json::Str(s) => Some(s),
        _ => None,
    }
}

/// Re-derives the Eq. 7 bubble estimate per pipeline group from the
/// raw F/B/W slices: `f̂`/`b̂` are the mean per-microbatch slice
/// durations — a microbatch's backward is its B and its W (the weight
/// gradient a stage defers to where it would otherwise sleep), so W time
/// folds into `b̂` and counts as busy — and the scheduler makespan of a
/// step is the extent of its slices (first forward start to last
/// backward end — the same quantity the pipeline bench reads from its
/// scheduler stats, without the collective epilogue the step *window*
/// also covers).
fn eq7_from_trace(doc: &Json) -> Vec<Eq7Row> {
    let Some(Json::Arr(events)) = doc.get("traceEvents") else {
        return Vec::new();
    };
    // Step windows resolve which (group, step) an F/B slice belongs to.
    struct Win {
        tid: u64,
        group: u64,
        step: u64,
        lo: f64,
        hi: f64,
    }
    let mut windows: Vec<Win> = Vec::new();
    let mut fb: Vec<(u64, f64, f64, char, u64)> = Vec::new(); // (tid, ts, dur, F/B/W, mb)
    for ev in events {
        if ev.get("ph").and_then(str_of) != Some("X")
            || ev.get("pid").and_then(as_f64) != Some(lane::PIPELINE as f64)
        {
            continue;
        }
        let name = ev.get("name").and_then(str_of).unwrap_or("");
        let tid = ev.get("tid").and_then(as_f64).unwrap_or(0.0) as u64;
        let ts = ev.get("ts").and_then(as_f64).unwrap_or(0.0);
        let dur = ev.get("dur").and_then(as_f64).unwrap_or(0.0);
        if name == "step" {
            let arg = |k: &str| ev.get("args").and_then(|a| a.get(k)).and_then(as_f64);
            if let Some(step) = arg("step") {
                windows.push(Win {
                    tid,
                    group: arg("group").unwrap_or(0.0) as u64,
                    step: step as u64,
                    lo: ts,
                    hi: ts + dur,
                });
            }
        } else if let Some((kind @ ('F' | 'B' | 'W'), mb)) = name
            .chars()
            .next()
            .zip(name.get(1..).and_then(|s| s.parse::<u64>().ok()))
        {
            fb.push((tid, ts, dur, kind, mb));
        }
    }

    let mut groups: Vec<u64> = windows.iter().map(|w| w.group).collect();
    groups.sort_unstable();
    groups.dedup();
    let mut rows = Vec::new();
    for g in groups {
        let wins: Vec<&Win> = windows.iter().filter(|w| w.group == g).collect();
        let mut lanes: Vec<u64> = wins.iter().map(|w| w.tid).collect();
        lanes.sort_unstable();
        lanes.dedup();
        let mut steps: Vec<u64> = wins.iter().map(|w| w.step).collect();
        steps.sort_unstable();
        steps.dedup();
        // Same warmup policy as the analyzer: with three or more steps,
        // the group's first step is excluded from the medians.
        let measured_steps: Vec<u64> = if steps.len() >= 3 {
            steps[1..].to_vec()
        } else {
            steps.clone()
        };
        let in_group_step = |tid: u64, ts: f64, step: u64| {
            wins.iter()
                .any(|w| w.tid == tid && w.step == step && ts >= w.lo && ts < w.hi)
        };
        let (mut f_sum, mut f_n, mut b_sum, mut b_n, mut mb_max) = (0.0, 0u64, 0.0, 0u64, 0u64);
        let mut bubbles = Vec::new();
        for &step in &measured_steps {
            let in_step: Vec<&(u64, f64, f64, char, u64)> = fb
                .iter()
                .filter(|&&(tid, ts, _, _, _)| in_group_step(tid, ts, step))
                .collect();
            if in_step.is_empty() {
                continue;
            }
            let lo = in_step.iter().map(|s| s.1).fold(f64::MAX, f64::min);
            let hi = in_step.iter().map(|s| s.1 + s.2).fold(f64::MIN, f64::max);
            let busy: f64 = in_step.iter().map(|s| s.2).sum();
            if hi > lo {
                bubbles.push(1.0 - busy / (lanes.len() as f64 * (hi - lo)));
            }
            for &&(_, _, dur, kind, mb) in &in_step {
                mb_max = mb_max.max(mb);
                match kind {
                    'F' => (f_sum, f_n) = (f_sum + dur, f_n + 1),
                    'B' => (b_sum, b_n) = (b_sum + dur, b_n + 1),
                    _ => b_sum += dur,
                }
            }
        }
        let (Some(measured), true, true) = (median(bubbles), f_n > 0, b_n > 0) else {
            continue;
        };
        let (f_hat, b_hat) = (f_sum / f_n as f64, b_sum / b_n as f64);
        let (g_inter, m) = (lanes.len(), (mb_max + 1) as usize);
        let bubble_us = analytic_bubble(g_inter as f64 * f_hat, g_inter as f64 * b_hat, g_inter);
        let analytic = bubble_us / (bubble_us + m as f64 * (f_hat + b_hat));
        rows.push(Eq7Row {
            group: g,
            lanes: g_inter,
            microbatches: m,
            f_hat_us: f_hat,
            b_hat_us: b_hat,
            measured,
            analytic,
            rel_err: (measured - analytic).abs() / analytic,
        });
    }
    rows
}

/// Runs the analysis; `gate` turns health violations into `Err`.
pub fn run(path: &str, gate: bool) -> Result<(), String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read trace {path}: {e}"))?;
    let a = analyze_str(&text)?;
    let doc = Json::parse(&text)?;

    let mut violations: Vec<String> = Vec::new();

    // ---- step table + share-sum invariant -------------------------
    let mut tab = crate::Table::new(
        "trace_steps",
        &["group", "step", "makespan_ms", "crit_path_ms", "cp_ratio", "bubble"],
    );
    for s in &a.steps {
        tab.push(vec![
            s.group.to_string(),
            s.step.to_string(),
            format!("{:.3}", s.makespan_us * 1e-3),
            format!("{:.3}", s.critical_path_us * 1e-3),
            format!("{:.3}", s.critical_path_us / s.makespan_us),
            format!("{:.4}", s.bubble_fraction),
        ]);
        for l in &s.lanes {
            let err = (l.total_us() - l.window_us).abs() / l.window_us.max(1.0);
            if err > SHARE_TOLERANCE {
                violations.push(format!(
                    "step {} lane {}: shares sum to {:.1}us vs window {:.1}us ({:.2}% off)",
                    s.step,
                    l.tid,
                    l.total_us(),
                    l.window_us,
                    err * 1e2
                ));
            }
        }
        if s.critical_path_us > s.makespan_us * (1.0 + 1e-9) {
            violations.push(format!(
                "step {}: critical path {:.1}us exceeds makespan {:.1}us",
                s.step, s.critical_path_us, s.makespan_us
            ));
        }
    }
    println!("{}", tab.render());

    // ---- per-lane decomposition (summed over analyzed steps) ------
    let mut lane_tab = crate::Table::new(
        "trace_lanes",
        &["lane", "window_ms", "compute_pct", "comm_pct", "wait_pct", "idle_pct"],
    );
    let mut lane_ids: Vec<u64> =
        a.steps.iter().flat_map(|s| s.lanes.iter().map(|l| l.tid)).collect();
    lane_ids.sort_unstable();
    lane_ids.dedup();
    for tid in lane_ids {
        let (mut w, mut c, mut k, mut wt) = (0.0, 0.0, 0.0, 0.0);
        for l in a.steps.iter().flat_map(|s| &s.lanes).filter(|l| l.tid == tid) {
            w += l.window_us;
            c += l.compute_us;
            k += l.comm_us;
            wt += l.wait_us;
        }
        let pct = |x: f64| format!("{:.1}", 100.0 * x / w.max(1e-12));
        lane_tab.push(vec![
            tid.to_string(),
            format!("{:.3}", w * 1e-3),
            pct(c),
            pct(k),
            pct(wt),
            pct(w - c - k - wt),
        ]);
    }
    println!("{}", lane_tab.render());

    // ---- flow census + overlap ------------------------------------
    println!(
        "flows: {} starts, {} finishes, {} matched pairs, {} orphans",
        a.flow_starts, a.flow_finishes, a.matched_flows, a.orphan_flows
    );
    println!("comm overlap fraction: {:.4}", a.comm_overlap_fraction);
    if !a.median_cp_ratio.is_nan() {
        println!(
            "median critical-path/makespan: {:.3}, median bubble: {:.4}",
            a.median_cp_ratio, a.median_bubble_fraction
        );
    }

    // ---- Eq. 7 cross-check ----------------------------------------
    let eq7 = eq7_from_trace(&doc);
    let mut eq7_json = Vec::new();
    if !eq7.is_empty() {
        let mut etab = crate::Table::new(
            "trace_eq7",
            &["group", "lanes", "mbs", "fwd_us_mb", "bwd_us_mb", "measured", "analytic", "rel_err"],
        );
        for r in &eq7 {
            etab.push(vec![
                r.group.to_string(),
                r.lanes.to_string(),
                r.microbatches.to_string(),
                format!("{:.1}", r.f_hat_us),
                format!("{:.1}", r.b_hat_us),
                format!("{:.4}", r.measured),
                format!("{:.4}", r.analytic),
                format!("{:.4}", r.rel_err),
            ]);
            eq7_json.push(Json::Obj(vec![
                ("group".into(), Json::UInt(r.group)),
                ("lanes".into(), Json::UInt(r.lanes as u64)),
                ("microbatches".into(), Json::UInt(r.microbatches as u64)),
                ("measured_bubble_fraction".into(), Json::Num(r.measured)),
                ("analytic_bubble_fraction".into(), Json::Num(r.analytic)),
                ("rel_err".into(), Json::Num(r.rel_err)),
            ]));
        }
        println!("{}", etab.render());
    }

    // ---- record ----------------------------------------------------
    let section = merge_section(&a, &eq7_json);
    let doc = harness::write("analysis", vec![("analysis".to_string(), section)])?;
    violations.extend(gates::check("analysis", &doc).err());

    for v in &violations {
        telemetry::log_warn!("trace-analyze: {v}");
    }
    if gate && !violations.is_empty() {
        return Err(format!(
            "trace failed {} health check(s); first: {}",
            violations.len(),
            violations[0]
        ));
    }
    Ok(())
}

fn merge_section(a: &Analysis, eq7: &[Json]) -> Json {
    let Json::Obj(mut fields) = a.to_json() else {
        unreachable!("Analysis::to_json renders an object");
    };
    // The full per-step lane breakdown is for the trace UI, not a
    // tracked diff: keep the file stable-sized by recording counts and
    // medians plus the Eq. 7 rows.
    fields.retain(|(k, _)| k != "steps");
    fields.push(("steps_analyzed".into(), Json::UInt(a.steps.len() as u64)));
    fields.push(("eq7".into(), Json::Arr(eq7.to_vec())));
    Json::Obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A W slice is backward work: busy in the measured bubble and folded
    /// into `b̂`, so the estimate does not read a stage that defers its
    /// weight gradients as idle.
    #[test]
    fn w_slices_are_busy_and_fold_into_b_hat() {
        let slice = |tid: u64, name: &str, ts: f64, dur: f64| {
            format!(
                r#"{{"ph":"X","pid":{},"tid":{tid},"name":"{name}","cat":"pipeline","ts":{ts},"dur":{dur}}}"#,
                lane::PIPELINE
            )
        };
        let mut events = Vec::new();
        // Three steps of two lanes, one microbatch each: F 10 us, B 20 us,
        // W 5 us, back to back on lane 0, then on lane 1.
        for step in 0..3u64 {
            let t0 = 1_000.0 * step as f64;
            for (tid, at) in [(0u64, t0), (1, t0 + 35.0)] {
                events.push(format!(
                    r#"{{"ph":"X","pid":{},"tid":{tid},"name":"step","cat":"pipeline","ts":{t0},"dur":500,"args":{{"step":{step},"group":0}}}}"#,
                    lane::PIPELINE
                ));
                events.push(slice(tid, "F0", at, 10.0));
                events.push(slice(tid, "B0", at + 10.0, 20.0));
                events.push(slice(tid, "W0", at + 30.0, 5.0));
            }
        }
        let doc = Json::parse(&format!(r#"{{"traceEvents":[{}]}}"#, events.join(","))).unwrap();
        let rows = eq7_from_trace(&doc);
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert_eq!((r.lanes, r.microbatches), (2, 1));
        assert_eq!((r.f_hat_us, r.b_hat_us), (10.0, 25.0));
        // Each lane is busy 35 of the 70 us the step's slices span.
        assert!((r.measured - 0.5).abs() < 1e-12, "{}", r.measured);
    }
}

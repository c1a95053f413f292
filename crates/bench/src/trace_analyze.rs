//! `repro trace-analyze <trace.json>` — offline causal analysis of a
//! merged Chrome trace written by `repro <exp> --trace`.
//!
//! Loads the trace through [`telemetry::critical_path`], prints where
//! each training step's wall time went (per-lane compute / comm / wait
//! / idle decomposition, critical-path length vs makespan, comm-overlap
//! fraction, flow-pairing census) and merges an `analysis` section into
//! `BENCH_hotpaths.json`. It answers only what a trace alone can answer:
//! the pipeline's Eq. 7 check is `repro pipeline`'s, measured from the
//! scheduler's counters ([`crate::pipeline_bench`]).
//!
//! With `--gate` (what CI passes after `repro pipeline --quick
//! --trace`) the run fails unless the trace is healthy:
//!
//! * every lane's four shares sum to its step window within
//!   [`SHARE_TOLERANCE`], and the critical path never exceeds the
//!   makespan (checked here, on the per-step rows that are not recorded);
//! * the recorded section passes the `analysis` gate ([`crate::gates`]):
//!   the median critical-path ratio stays above its floor and every flow
//!   start has exactly one finish (no orphans — a healthy run drops no
//!   messages).
//!
//! Without `--gate` everything is reported but nothing fails: traces
//! from fault drills legitimately contain orphan flows and huge waits.

use crate::gates::{self, SHARE_TOLERANCE};
use crate::harness;
use telemetry::critical_path::{analyze_str, Analysis};
use telemetry::json::Json;

/// Runs the analysis; `gate` turns health violations into `Err`.
pub fn run(path: &str, gate: bool) -> Result<(), String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read trace {path}: {e}"))?;
    let a = analyze_str(&text)?;

    let mut violations: Vec<String> = Vec::new();

    // ---- step table + share-sum invariant -------------------------
    let mut tab = crate::Table::new(
        "trace_steps",
        &["group", "step", "makespan_ms", "crit_path_ms", "cp_ratio"],
    );
    for s in &a.steps {
        tab.push(vec![
            s.group.to_string(),
            s.step.to_string(),
            format!("{:.3}", s.makespan_us * 1e-3),
            format!("{:.3}", s.critical_path_us * 1e-3),
            format!("{:.3}", s.critical_path_us / s.makespan_us),
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
        println!("median critical-path/makespan: {:.3}", a.median_cp_ratio);
    }

    // ---- record ----------------------------------------------------
    let section = merge_section(&a);
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

fn merge_section(a: &Analysis) -> Json {
    let Json::Obj(mut fields) = a.to_json() else {
        unreachable!("Analysis::to_json renders an object");
    };
    // The full per-step lane breakdown is for the trace UI, not a
    // tracked diff: keep the file stable-sized by recording counts and
    // medians.
    fields.retain(|(k, _)| k != "steps");
    fields.push(("steps_analyzed".into(), Json::UInt(a.steps.len() as u64)));
    Json::Obj(fields)
}

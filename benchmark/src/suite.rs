//! The whole set in one command: every workload untraced (end-to-end
//! metrics), then traced (per-layer ledger), each in a process of its own
//! so that peak memory, thread pools and allocator state are per workload.
//! `--check-repeat` runs the set twice in opposite orders and fails if a
//! gated metric disagrees with itself by more than its bound.

use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::runner::out_dir;
use crate::workloads::WORKLOADS;
use std::process::{Command, ExitCode, Stdio};
use telemetry::json::Json;

/// Seconds one run measures when `--seconds` is not given; `run_seconds`
/// of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 10.0;

/// What one child run printed.
struct Run {
    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    result: Json,
    /// The `info` line: `state_crc`, `failed_share`, `unresolved`, `environment`.
    info: Json,
}

impl Run {
    fn metric(&self, name: &str) -> Option<f64> {
        match self.result.get("metrics")?.get(name)?.get("value")? {
            Json::Num(v) => Some(*v),
            Json::UInt(v) => Some(*v as f64),
            Json::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    fn correct(&self) -> bool {
        self.result.get("correct") == Some(&Json::Bool(true))
    }
}

fn run_child(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<Run, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let result = lines
        .next()
        .ok_or_else(|| format!("{workload}: no output (exit {})", output.status))?;
    let result = Json::parse(result)
        .map_err(|e| format!("{workload}: result line: {e} (exit {})", output.status))?;
    let info = lines
        .find_map(|l| l.strip_prefix("info "))
        .ok_or_else(|| format!("{workload}: no info line"))
        .and_then(|l| Json::parse(l).map_err(|e| format!("{workload}: info line: {e}")))?;
    Ok(Run { result, info })
}

fn print_run(workload: &str, defs: &[MetricDef], run: &Run) {
    for d in defs {
        if let Some(v) = run.metric(d.name) {
            println!("{workload:<14} {:<44} {v:>16.6} {}", d.name, d.unit);
        }
    }
}

/// One workload of a pass: its name, its untraced run and its traced run.
type Pair = (&'static str, Run, Option<Run>);

/// One pass over the set in `order`.
fn pass(
    order: &[&'static str],
    seed: u64,
    seconds: f64,
    with_trace: bool,
) -> Result<Vec<Pair>, String> {
    let mut runs = Vec::new();
    for &w in order {
        let untraced = run_child(w, seed, seconds, false)?;
        print_run(w, END_TO_END, &untraced);
        let info = |key: &str| {
            untraced
                .info
                .get(key)
                .map_or_else(String::new, Json::render)
        };
        println!(
            "{w:<14} state_crc {} failed_share {} unresolved {}",
            info("state_crc"),
            info("failed_share"),
            info("unresolved")
        );
        runs.push((w, untraced, None));
    }
    if with_trace {
        for (w, _, traced) in &mut runs {
            let t = run_child(w, seed, seconds, true)?;
            print_run(w, PER_LAYER, &t);
            *traced = Some(t);
        }
    }
    Ok(runs)
}

fn summary(runs: &[Pair]) -> Json {
    Json::Obj(
        runs.iter()
            .map(|(w, untraced, traced)| {
                let mut fields = vec![
                    ("end_to_end".to_string(), untraced.result.clone()),
                    ("info".to_string(), untraced.info.clone()),
                ];
                if let Some(t) = traced {
                    fields.push(("per_layer".to_string(), t.result.clone()));
                }
                (w.to_string(), Json::Obj(fields))
            })
            .collect(),
    )
}

/// Gathers the per-workload ledgers the traced runs wrote into one file.
fn merge_ledgers(order: &[&'static str]) -> Result<(), String> {
    let out = out_dir();
    let mut all = Vec::new();
    for w in order {
        let path = out.join(format!("{w}.ledger.json"));
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        all.push((
            w.to_string(),
            Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?,
        ));
    }
    let path = out.join("ledger.json");
    std::fs::write(&path, Json::Obj(all).render())
        .map_err(|e| format!("write {}: {e}", path.display()))
}

/// Compares two passes metric by metric; returns how many gated metrics
/// (and state CRCs) disagree.
fn compare(a: &[Pair], b: &[Pair]) -> usize {
    let mut disagreements = 0;
    println!(
        "{:<14} {:<24} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "rel.diff", "bound"
    );
    for (w, first, _) in a {
        let Some((_, second, _)) = b.iter().find(|r| r.0 == *w) else {
            continue;
        };
        for d in END_TO_END {
            let (Some(x), Some(y)) = (first.metric(d.name), second.metric(d.name)) else {
                continue;
            };
            let rel = if x == y {
                0.0
            } else {
                (x - y).abs() / x.abs().max(y.abs())
            };
            let bad = rel > d.bound;
            disagreements += usize::from(bad);
            println!(
                "{w:<14} {:<24} {x:>14.6} {y:>14.6} {rel:>9.4} {:>7.2}{}",
                d.name,
                d.bound,
                if bad { "  DISAGREE" } else { "" }
            );
        }
        let (c1, c2) = (first.info.get("state_crc"), second.info.get("state_crc"));
        if c1 != c2 {
            disagreements += 1;
            println!("{w:<14} state_crc differs between the two runs: {c1:?} vs {c2:?}  DISAGREE");
        }
    }
    disagreements
}

pub fn run(seed: u64, seconds: f64, check_repeat: bool) -> ExitCode {
    let forward: Vec<&'static str> = WORKLOADS.iter().map(|w| w.name).collect();
    let result = (|| -> Result<bool, String> {
        let first = pass(&forward, seed, seconds, true)?;
        merge_ledgers(&forward)?;
        let path = out_dir().join("summary.json");
        std::fs::write(&path, summary(&first).render())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!(
            "wrote {} and ledger.json, <workload>.trace.json beside it",
            path.display()
        );
        let mut ok = first
            .iter()
            .all(|(_, u, t)| u.correct() && t.as_ref().is_none_or(Run::correct));
        if check_repeat {
            let backward: Vec<&'static str> = forward.iter().rev().copied().collect();
            let second = pass(&backward, seed, seconds, false)?;
            ok &= second.iter().all(|(_, u, _)| u.correct());
            ok &= compare(&first, &second) == 0;
        }
        Ok(ok)
    })();
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("samo-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

//! One run of one workload: fixed run conditions, the workload (and, in a
//! traced run, its probes), the trace and ledger files, and the result line.

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::spans::{trace_events, Ledger};
use crate::workloads::{Ctx, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use telemetry::json::Json;

/// Where traces, ledgers and summaries go: `benchmark/out` of the checkout
/// the command runs from, else beside the manifest the binary was built
/// from.
pub fn out_dir() -> PathBuf {
    let here = Path::new("benchmark");
    if here.join("Cargo.toml").is_file() {
        here.join("out")
    } else {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
    }
}

/// Removes the run's scratch directory when the run ends, however it ends.
struct RunDir(PathBuf);

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn load_average() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(-1.0)
}

/// The commit of the checkout, read from `.git` without running git; the
/// driver's checkouts are not repositories and report `unknown`.
fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).unwrap_or_else(|| "unknown".to_string()),
            None => head,
        },
        None => "unknown".to_string(),
    }
}

/// The conditions every run is measured under. `nproc` is 2 on the
/// reference box, so the kernel pool is pinned to one inline worker and
/// parallelism comes only from rank, stage and replica threads: 200
/// TinyGpt steps took 9.0, 16.6 and 15.7 s with the default two-worker
/// pool against 6.8, 7.2 and 7.7 s pinned to one. Idle-priority spinners
/// keep both cores from halting ([`crate::spin`]).
fn fix_run_conditions(run_dir: &Path) {
    // Set before the first tensor op and before any thread exists.
    std::env::set_var("SAMO_THREADS", "1");
    std::env::set_var("SAMO_RESULTS_DIR", run_dir);
    telemetry::logger::set_level(telemetry::logger::LogLevel::Quiet);
    crate::spin::start();
}

fn write_json(path: &Path, json: &Json) -> Result<(), String> {
    std::fs::write(path, json.render()).map_err(|e| format!("write {}: {e}", path.display()))
}

pub fn run_one(name: &str, seed: u64, seconds: f64, traced: bool) -> ExitCode {
    let Some(def) = WORKLOADS.iter().find(|w| w.name == name) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "samo-benchmark: unknown workload {name:?}; the workloads are {}",
            names.join(", ")
        );
        return ExitCode::from(2);
    };
    let out = out_dir();
    let run_dir = RunDir(out.join(format!("run-{}", std::process::id())));
    if let Err(e) = std::fs::create_dir_all(&run_dir.0) {
        eprintln!("samo-benchmark: create {}: {e}", run_dir.0.display());
        return ExitCode::from(2);
    }
    fix_run_conditions(&run_dir.0);
    let load_start = load_average();
    let ctx = Ctx {
        seed,
        seconds,
        traced,
        run_dir: run_dir.0.clone(),
    };

    let result = (def.run)(&ctx).and_then(|outcome| {
        if traced {
            let ledger = Ledger::build(&outcome.spans, outcome.ledger_root);
            let trace = out.join(format!("{name}.trace.json"));
            telemetry::trace::write_chrome_trace(&trace, &trace_events(&outcome.spans))
                .map_err(|e| format!("write {}: {e}", trace.display()))?;
            write_json(&out.join(format!("{name}.ledger.json")), &ledger.to_json())?;
            println!(
                "ledger: shares of the {} wall sum to {:.4} (unattributed {:.4})",
                outcome.ledger_root,
                ledger.share_sum(),
                ledger.unattributed_share()
            );
        }
        Ok(outcome)
    });
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("samo-benchmark: {name}: {e}");
            return ExitCode::from(2);
        }
    };

    let defs = if traced { PER_LAYER } else { END_TO_END };
    for note in &outcome.notes {
        println!("{name}: {note}");
    }
    for why in &outcome.unresolved {
        println!("{name}: UNRESOLVED {why}");
    }
    for failure in &outcome.oracle_failures {
        println!("{name}: FAILED {failure}");
    }
    for d in defs {
        if let Some(v) = outcome.values.get(d.name) {
            println!("{:<44} {:>16.6} {}", d.name, v, d.unit);
        }
    }
    let correct = outcome.failed == 0;
    let info = Json::Obj(vec![
        ("workload".to_string(), Json::Str(name.to_string())),
        (
            "state_crc".to_string(),
            Json::UInt(u64::from(outcome.state_crc)),
        ),
        (
            "failed_share".to_string(),
            Json::Num(outcome.failed as f64 / outcome.attempted.max(1) as f64),
        ),
        (
            "unresolved".to_string(),
            Json::Bool(!outcome.unresolved.is_empty()),
        ),
        (
            "environment".to_string(),
            Json::Obj(vec![
                ("commit".to_string(), Json::Str(commit())),
                (
                    "nproc".to_string(),
                    Json::UInt(std::thread::available_parallelism().map_or(0, |n| n.get()) as u64),
                ),
                (
                    "samo_threads".to_string(),
                    Json::UInt(tensor::pool::configured_workers() as u64),
                ),
                (
                    "spinners".to_string(),
                    Json::UInt(crate::spin::running() as u64),
                ),
                (
                    "simd".to_string(),
                    Json::Str(tensor::simd::active().name().to_string()),
                ),
                ("load_start".to_string(), Json::Num(load_start)),
                ("load_end".to_string(), Json::Num(load_average())),
                ("seed".to_string(), Json::UInt(seed)),
                ("seconds".to_string(), Json::Num(seconds)),
                ("traced".to_string(), Json::Bool(traced)),
            ]),
        ),
    ]);
    println!("info {}", info.render());
    let line = Json::Obj(vec![
        ("correct".to_string(), Json::Bool(correct)),
        (
            "attempted".to_string(),
            Json::UInt(outcome.attempted.max(1)),
        ),
        ("failed".to_string(), Json::UInt(outcome.failed)),
        ("metrics".to_string(), outcome.values.to_json(defs)),
    ]);
    println!("{}", line.render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

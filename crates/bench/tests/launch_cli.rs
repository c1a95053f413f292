//! `samo-launch`'s argument checks, checkpoint writes and events files
//! end to end: a checkpoint cadence of zero is a usage error before any
//! worker spawns, not a remainder by zero in every worker, a checkpoint
//! the disk refuses stops the worker instead of leaving recovery an older
//! file, a reused directory starts a run cold, and a running world can be
//! read from its workers' step lines.

use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};
use telemetry::json::Json;

#[test]
fn ckpt_every_zero_is_refused_before_any_worker_runs() {
    let dir = std::env::temp_dir().join(format!("samo-launch-cli-{}", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_samo-launch"))
        .args(["--world", "2", "--steps", "2", "--ckpt-every", "0", "--dir"])
        .arg(&dir)
        .output()
        .expect("samo-launch runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("--ckpt-every must be >= 1"), "{stderr}");
    assert!(!dir.exists(), "no worker directory for a refused run");
}

/// A directory squatting on rank 0's `latest` name makes the rename of
/// its first checkpoint fail: a `ckpt_write_error` line and exit 5.
#[test]
fn a_refused_checkpoint_write_is_a_worker_error() {
    let dir = std::env::temp_dir().join(format!("samo-launch-ckpt-err-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("rank0.latest.ckpt")).expect("squatting directory");
    let out = Command::new(env!("CARGO_BIN_EXE_samo-launch"))
        .args(["--world", "2", "--steps", "8", "--dir"])
        .arg(&dir)
        .output()
        .expect("samo-launch runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("rank 0 exited exit status: 5"), "{stderr}");
    let events = std::fs::read_to_string(dir.join("rank0.events")).unwrap_or_default();
    let refused = events.lines().map(|l| Json::parse(l).expect("whole lines once the worker exited"));
    let refused: Vec<Json> = refused.filter(|e| e.get("kind") == Some(&Json::from("ckpt_write_error"))).collect();
    assert_eq!(refused.len(), 1, "{events}");
    assert_eq!(refused[0].get("file"), Some(&Json::from("latest")), "{events}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A second run in the same directory is a new run: it resumes neither
/// the first run's checkpoints nor its rendezvous, and its final
/// checkpoints still equal its own oracle. Only rank 0 leaves a `latest`:
/// recovery reads no other.
#[test]
fn a_reused_directory_starts_cold() {
    let dir = std::env::temp_dir().join(format!("samo-launch-reuse-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    for steps in ["12", "8"] {
        let out = Command::new(env!("CARGO_BIN_EXE_samo-launch"))
            .args(["--world", "2", "--steps", steps, "--dir"])
            .arg(&dir)
            .output()
            .expect("samo-launch runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "--steps {steps}: {stderr}");
        assert!(stderr.contains("bitwise equal to the oracle"), "--steps {steps}: {stderr}");
        assert!(dir.join("rank0.latest.ckpt").is_file(), "--steps {steps}");
        assert!(!dir.join("rank1.latest.ckpt").exists(), "--steps {steps}: rank 1 wrote a latest");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Steps rank `rank` has done by its events file so far: one past its
/// last whole step line's index.
fn steps_done(dir: &Path, rank: usize) -> u64 {
    let body = std::fs::read_to_string(dir.join(format!("rank{rank}.events"))).unwrap_or_default();
    let steps = body.lines().filter_map(|l| Json::parse(l).ok());
    let index = |e: Json| match (e.get("kind"), e.get("step")) {
        (Some(Json::Str(kind)), Some(&Json::UInt(step))) if kind == "step" => Some(step + 1),
        _ => None,
    };
    steps.filter_map(index).max().unwrap_or(0)
}

/// A world of two read while it trains: each rank's events file gains a
/// step line a step, so a reader sees both ranks advance before the run
/// ends — with telemetry off, as here.
#[test]
fn a_running_world_shows_both_ranks_stepping() {
    let dir = std::env::temp_dir().join(format!("samo-launch-live-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut run = Command::new(env!("CARGO_BIN_EXE_samo-launch"))
        .args(["--world", "2", "--steps", "20", "--step-delay-ms", "50", "--dir"])
        .arg(&dir)
        .spawn()
        .expect("samo-launch runs");
    let deadline = Instant::now() + Duration::from_secs(60);
    let read = || [steps_done(&dir, 0), steps_done(&dir, 1)];
    let wait_for = |done: &dyn Fn([u64; 2]) -> bool| loop {
        let now = read();
        if done(now) {
            return now;
        }
        assert!(Instant::now() < deadline, "no progress past {now:?}");
        std::thread::sleep(Duration::from_millis(10));
    };
    let first = wait_for(&|s| s.iter().all(|&n| n >= 1));
    assert!(run.try_wait().expect("poll samo-launch").is_none(), "read mid-run: {first:?}");
    assert!(first.iter().all(|&n| n < 20), "read mid-run: {first:?}");
    let later = wait_for(&|s| s[0] > first[0] && s[1] > first[1]);
    assert!(run.wait().expect("samo-launch exits").success());
    assert_eq!(read(), [20, 20], "one step line a step, {first:?} then {later:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

//! `samo-launch`'s argument checks and checkpoint writes end to end: a
//! checkpoint cadence of zero is a usage error before any worker spawns,
//! not a remainder by zero in every worker, and a checkpoint the disk
//! refuses stops the worker instead of leaving recovery an older file.

use std::process::Command;

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
/// its first checkpoint fail: an `event=ckpt_write_error` line and exit 5.
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
    assert!(events.contains("event=ckpt_write_error file=latest"), "{events}");
    let _ = std::fs::remove_dir_all(&dir);
}

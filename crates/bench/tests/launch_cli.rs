//! `samo-launch`'s argument checks end to end: a checkpoint cadence of
//! zero is a usage error before any worker spawns, not a remainder by
//! zero in every worker.

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

//! `repro gate <file>…` end to end: the committed `BENCH_hotpaths.json`
//! passes, and a copy that lost a section fails naming the section —
//! what CI relies on in place of "section X was clobbered" asserts.

use std::process::Command;

const TRACKED: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hotpaths.json");

fn gate(path: &str) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["gate", path])
        .output()
        .expect("repro runs")
}

#[test]
fn committed_file_passes_and_a_missing_section_is_named() {
    let ok = gate(TRACKED);
    let stdout = String::from_utf8_lossy(&ok.stdout);
    assert!(
        ok.status.success(),
        "{stdout}{}",
        String::from_utf8_lossy(&ok.stderr)
    );
    assert!(
        stdout.contains("kernels OK") && stdout.contains("serve OK"),
        "{stdout}"
    );

    // Drop the `comms` section the way a clobbering tracker would.
    let text = std::fs::read_to_string(TRACKED).unwrap();
    let start = text
        .find("  \"comms\": {")
        .expect("tracked file has a comms section");
    let end = start + text[start..].find("\n  },\n").expect("section end") + "\n  },\n".len();
    let clobbered = std::env::temp_dir().join(format!("samo-gate-cli-{}.json", std::process::id()));
    std::fs::write(&clobbered, format!("{}{}", &text[..start], &text[end..])).unwrap();

    let bad = gate(clobbered.to_str().unwrap());
    let stderr = String::from_utf8_lossy(&bad.stderr);
    assert_eq!(bad.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("section `comms` is missing"), "{stderr}");
    let _ = std::fs::remove_file(&clobbered);
}

#[test]
fn gate_without_a_path_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("gate")
        .output()
        .expect("repro runs");
    assert_eq!(out.status.code(), Some(2));
}

//! One-line-per-training-step JSONL metric records.
//!
//! Every training runtime emits the same [`StepEvent`] per optimizer
//! step (`kind: "step"`, told apart by `runtime`); with telemetry
//! enabled each event is appended as a single JSON object line to
//! `<results>/metrics.jsonl`, where `<results>` honours
//! `SAMO_RESULTS_DIR` (default `results`). The file is truncated the
//! first time the process writes to it, so each run starts clean.

use crate::json::Json;
use parking_lot::Mutex;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::PathBuf;
use std::sync::OnceLock;

/// Everything worth recording about one training step.
///
/// `formula_state_bytes` is the paper's closed-form model-state size
/// (Adam: `2φ + 24·nnz`, SGD: `2φ + 20·nnz`); it is `None` where the
/// closed form does not apply verbatim (e.g. sharded data-parallel
/// replicas with per-rank remainders).
#[derive(Debug, Clone, PartialEq)]
pub struct StepEvent {
    /// Which runtime produced the event: `samo`, `samo_dp`,
    /// `samo_dp_threaded`, `samo_pipeline` or the dense baseline
    /// `dense_masked`. Every runtime writes the same keys.
    pub runtime: String,
    /// 0-based index of this `step()` call (applied or skipped).
    pub step: u64,
    /// False when the dynamic loss scaler skipped the update.
    pub applied: bool,
    pub loss_scale: f32,
    pub steps_taken: u64,
    pub steps_skipped: u64,
    /// Total parameter count φ.
    pub numel: u64,
    /// Parameters surviving the prune mask.
    pub nnz: u64,
    /// Measured bytes of persistent model state.
    pub model_state_bytes: u64,
    /// Closed-form model-state bytes, where the formula applies.
    pub formula_state_bytes: Option<u64>,
    /// Gradient bytes this step would move through all-reduce.
    pub allreduce_bytes: u64,
    /// `(phase name, seconds)` wall-clock timings for this step.
    pub phases: Vec<(&'static str, f64)>,
}

impl StepEvent {
    /// The JSON object written as one line.
    pub fn to_json(&self) -> Json {
        let mut fields: Vec<(String, Json)> = vec![
            ("kind".into(), Json::from("step")),
            ("runtime".into(), Json::Str(self.runtime.clone())),
            ("step".into(), Json::UInt(self.step)),
            ("applied".into(), Json::Bool(self.applied)),
            ("loss_scale".into(), Json::Num(f64::from(self.loss_scale))),
            ("steps_taken".into(), Json::UInt(self.steps_taken)),
            ("steps_skipped".into(), Json::UInt(self.steps_skipped)),
            ("numel".into(), Json::UInt(self.numel)),
            ("nnz".into(), Json::UInt(self.nnz)),
            (
                "model_state_bytes".into(),
                Json::UInt(self.model_state_bytes),
            ),
            (
                "formula_state_bytes".into(),
                match self.formula_state_bytes {
                    Some(b) => Json::UInt(b),
                    None => Json::Null,
                },
            ),
            ("allreduce_bytes".into(), Json::UInt(self.allreduce_bytes)),
        ];
        for (name, secs) in &self.phases {
            fields.push((format!("t_{name}"), Json::Num(*secs)));
        }
        Json::Obj(fields)
    }
}

/// Directory experiment outputs go to; honours `SAMO_RESULTS_DIR`.
fn results_dir() -> PathBuf {
    std::env::var_os("SAMO_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

struct Sink {
    file: Option<File>,
}

fn sink() -> &'static Mutex<Sink> {
    static SINK: OnceLock<Mutex<Sink>> = OnceLock::new();
    SINK.get_or_init(|| {
        let dir = results_dir();
        let file = fs::create_dir_all(&dir).ok().and_then(|_| {
            OpenOptions::new()
                .create(true)
                .write(true)
                .truncate(true)
                .open(dir.join("metrics.jsonl"))
                .ok()
        });
        Mutex::new(Sink { file })
    })
}

/// Append one step record to `metrics.jsonl`. No-op while telemetry is
/// disabled; I/O errors are swallowed (telemetry must never take down
/// training).
pub fn emit_step(ev: &StepEvent) {
    if !crate::enabled() {
        return;
    }
    let mut line = ev.to_json().render();
    line.push('\n');
    let mut sink = sink().lock();
    if let Some(f) = sink.file.as_mut() {
        let _ = f.write_all(line.as_bytes());
    }
}

/// Append one arbitrary JSON object as a line to `metrics.jsonl` —
/// used by the mesh metrics aggregator for records that are not
/// per-trainer [`StepEvent`]s. Same gating and error policy as
/// [`emit_step`].
pub fn emit_line(obj: &Json) {
    if !crate::enabled() {
        return;
    }
    let mut line = obj.render();
    line.push('\n');
    let mut sink = sink().lock();
    if let Some(f) = sink.file.as_mut() {
        let _ = f.write_all(line.as_bytes());
    }
}

/// Append one transport-health record (`kind: "link_event"`) to
/// `metrics.jsonl` — heartbeat misses, peers declared dead, reconnects
/// after a relaunch. `peer` is omitted for events that concern the
/// whole endpoint (e.g. a rejoin); `fields` carries event-specific
/// context such as silence duration or bootstrap generation. Same
/// gating and error policy as [`emit_step`].
pub fn emit_link_event(
    event: &str,
    rank: usize,
    peer: Option<usize>,
    fields: Vec<(String, Json)>,
) {
    if !crate::enabled() {
        return;
    }
    let mut obj: Vec<(String, Json)> = vec![
        ("kind".into(), Json::from("link_event")),
        ("event".into(), Json::from(event)),
        ("rank".into(), Json::UInt(rank as u64)),
    ];
    if let Some(p) = peer {
        obj.push(("peer".into(), Json::UInt(p as u64)));
    }
    obj.extend(fields);
    emit_line(&Json::Obj(obj));
}

/// Flush the JSONL sink. No-op while telemetry is disabled (so this
/// never opens — and truncates — the file as a side effect).
pub fn flush() {
    if !crate::enabled() {
        return;
    }
    if let Some(f) = sink().lock().file.as_mut() {
        let _ = f.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_event_serialises_all_fields() {
        let ev = StepEvent {
            runtime: "samo".into(),
            step: 3,
            applied: true,
            loss_scale: 65536.0,
            steps_taken: 4,
            steps_skipped: 0,
            numel: 100,
            nnz: 10,
            model_state_bytes: 440,
            formula_state_bytes: Some(440),
            allreduce_bytes: 20,
            phases: vec![("compress", 0.5), ("optimizer", 0.25)],
        };
        let line = ev.to_json().render();
        assert!(line.starts_with('{') && line.ends_with('}'));
        for key in [
            "\"kind\":\"step\"",
            "\"runtime\":\"samo\"",
            "\"step\":3",
            "\"applied\":true",
            "\"loss_scale\":65536",
            "\"numel\":100",
            "\"nnz\":10",
            "\"model_state_bytes\":440",
            "\"formula_state_bytes\":440",
            "\"allreduce_bytes\":20",
            "\"t_compress\":0.5",
            "\"t_optimizer\":0.25",
        ] {
            assert!(line.contains(key), "{key} missing from {line}");
        }
    }

    #[test]
    fn formula_none_serialises_as_null() {
        let ev = StepEvent {
            runtime: "samo_dp".into(),
            step: 0,
            applied: false,
            loss_scale: 2.0,
            steps_taken: 0,
            steps_skipped: 1,
            numel: 8,
            nnz: 8,
            model_state_bytes: 0,
            formula_state_bytes: None,
            allreduce_bytes: 16,
            phases: vec![],
        };
        assert!(ev
            .to_json()
            .render()
            .contains("\"formula_state_bytes\":null"));
    }
}

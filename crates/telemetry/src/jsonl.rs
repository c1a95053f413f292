//! One-line-per-training-step JSONL metric records.
//!
//! A training step has one record, the [`StepEvent`] (`kind: "step"`,
//! told apart by `runtime` and placed by `stage` and `data`), and this is
//! the one place its keys are written. With telemetry enabled the
//! reporting rank's event is appended as a single JSON object line to
//! `<results>/metrics.jsonl`, where `<results>` honours
//! `SAMO_RESULTS_DIR` (default `results`). The file is truncated the
//! first time the process writes to it, so each run starts clean. The
//! same object is a rank's entry in a group's `mesh_metrics` line and a
//! `samo-launch` worker's step line.

use crate::json::Json;
use crate::ledger::{Phase, Split};
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
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StepEvent {
    /// Which runtime produced the event: `samo`, the oracle `samo_dp`,
    /// `samo_dp_rank` (a data-parallel rank, a thread's or a process's),
    /// `samo_pipeline` or the dense baseline `dense_masked`. Every
    /// runtime writes the same keys.
    pub runtime: &'static str,
    /// 0-based index of this `step()` call (applied or skipped).
    pub step: u64,
    /// The rank's place in the `G_inter × G_data` grid: its pipeline
    /// stage and its data replica (`(0, 0)` for a single worker and the
    /// oracles).
    pub stage: u64,
    pub data: u64,
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
    /// What the rank's ledger charged the step: its window, each phase
    /// and the communication compute hid.
    pub split: Split,
}

impl StepEvent {
    /// The JSON object written as one line.
    pub fn to_json(&self) -> Json {
        let mut fields: Vec<(String, Json)> = vec![
            ("kind".into(), Json::from("step")),
            ("runtime".into(), Json::from(self.runtime)),
            ("step".into(), Json::UInt(self.step)),
            ("stage".into(), Json::UInt(self.stage)),
            ("data".into(), Json::UInt(self.data)),
            ("applied".into(), Json::Bool(self.applied)),
            ("loss_scale".into(), Json::Num(f64::from(self.loss_scale))),
            ("steps_taken".into(), Json::UInt(self.steps_taken)),
            ("steps_skipped".into(), Json::UInt(self.steps_skipped)),
            ("numel".into(), Json::UInt(self.numel)),
            ("nnz".into(), Json::UInt(self.nnz)),
            ("model_state_bytes".into(), Json::UInt(self.model_state_bytes)),
            ("formula_state_bytes".into(), self.formula_state_bytes.map_or(Json::Null, Json::UInt)),
            ("allreduce_bytes".into(), Json::UInt(self.allreduce_bytes)),
            ("window_us".into(), Json::Num(self.split.window_us())),
            ("hidden_comm_s".into(), Json::Num(self.split.hidden_ns() as f64 / 1e9)),
        ];
        for phase in Phase::ALL {
            fields.push((format!("t_{}", phase.name()), Json::Num(self.split.secs(phase))));
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

/// Append one JSON object as a line to `metrics.jsonl`: a step record
/// ([`StepEvent::to_json`]), a group's `mesh_metrics` or a link event.
/// No-op while telemetry is disabled; I/O errors are swallowed
/// (telemetry must never take down training).
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
/// gating and error policy as [`emit_line`].
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

    /// Every key, in order, with the numbers a ledger split renders to:
    /// the line as it read when the record still held a copy of its split.
    #[test]
    fn step_event_serialises_all_fields() {
        let ns = [1_234_567, 2_345_678, 345_679, 12_345, 456_789, 0, 98_765, 543_210, 210_987, 87_654, 7_654];
        let ev = StepEvent {
            runtime: "samo",
            step: 3,
            stage: 1,
            data: 2,
            applied: true,
            loss_scale: 65536.0,
            steps_taken: 4,
            steps_skipped: 0,
            numel: 100,
            nnz: 10,
            model_state_bytes: 440,
            formula_state_bytes: Some(440),
            allreduce_bytes: 20,
            split: Split::planted(ns, 321_098),
        };
        assert_eq!(
            ev.to_json().render(),
            concat!(
                r#"{"kind":"step","runtime":"samo","step":3,"stage":1,"data":2,"applied":true,"#,
                r#""loss_scale":65536,"steps_taken":4,"steps_skipped":0,"numel":100,"nnz":10,"#,
                r#""model_state_bytes":440,"formula_state_bytes":440,"allreduce_bytes":20,"#,
                r#""window_us":5343.328,"hidden_comm_s":0.000321098,"#,
                r#""t_f":0.001234567,"t_b":0.002345678,"t_w":0.000345679,"t_send":0.000012345,"#,
                r#""t_wait":0.000456789,"t_remap":0,"t_compress":0.000098765,"t_reduce":0.00054321,"#,
                r#""t_optimizer":0.000210987,"t_gather":0.000087654,"t_other":0.000007654}"#,
            )
        );
    }

    #[test]
    fn formula_none_serialises_as_null() {
        let ev = StepEvent {
            runtime: "samo_dp",
            loss_scale: 2.0,
            steps_skipped: 1,
            numel: 8,
            nnz: 8,
            allreduce_bytes: 16,
            ..StepEvent::default()
        };
        assert!(ev
            .to_json()
            .render()
            .contains("\"formula_state_bytes\":null"));
    }
}

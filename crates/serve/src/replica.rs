//! The replica pool: one OS thread per model copy, fed batches over a
//! plain mpsc channel — no async runtime, the repo's threads-and-
//! channels discipline throughout.
//!
//! Each replica owns a full [`BuiltModel`] and two reusable buffers;
//! after warmup a batch runs through `Sequential::infer_batch` with
//! **zero heap allocation in the kernels** (`tests/zero_alloc.rs` at
//! the workspace root proves this for all three backends). Commands
//! arrive strictly ordered, which is what makes hot reload atomic
//! *per replica*: a [`ReplicaCmd::Swap`] enqueued between two batches
//! is applied between those batches — a batch is never computed half
//! on the old model and half on the new.
//!
//! [`ReplicaCmd::Crash`] makes the thread return on the spot (the
//! kill-replica fault drill). The dispatcher detects the death on its
//! next send — a closed channel — respawns a fresh replica from the
//! current checkpoint snapshot, and re-sends the batch that bounced,
//! so a crash costs queued work at most, never the batch in hand.

use crate::model::BuiltModel;
use crate::protocol;
use crate::stats::Shared;
use comms::tcp::framing::FrameWriter;
use nn::Layer;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use telemetry::clock::now_us;
use telemetry::json::Json;
use telemetry::trace::{self, lane};

/// One queued inference request, carrying everything needed to answer
/// it: the reply route and the enqueue stamp on the trace clock, which
/// both its latency and its queue-wait slice are measured from.
pub(crate) struct Pending {
    pub id: u64,
    pub features: Vec<f32>,
    pub enqueued_us: f64,
    /// The write half of the client's connection, shared by every
    /// replica that answers that client. A reply it cannot take — the
    /// client hung up, or stopped reading for the writer's deadline —
    /// closes the connection and is counted dropped, not failed: the
    /// server did its work.
    pub conn: Arc<FrameWriter>,
}

/// Commands a replica consumes in order.
pub(crate) enum ReplicaCmd {
    Batch(Vec<Pending>),
    /// Swap in a new model (checkpoint `step`); ack with the replica
    /// index once applied, for the reload-blackout measurement.
    Swap(Box<BuiltModel>, u64, Sender<usize>),
    /// Fault drill: die immediately, abandoning anything still queued.
    Crash,
    Stop,
}

pub(crate) struct ReplicaHandle {
    pub tx: Sender<ReplicaCmd>,
    pub join: JoinHandle<()>,
}

pub(crate) fn spawn_replica(
    idx: usize,
    model: BuiltModel,
    step: u64,
    shared: Arc<Shared>,
) -> Result<ReplicaHandle, String> {
    let (tx, rx) = channel::<ReplicaCmd>();
    let join = std::thread::Builder::new()
        .name(format!("samo-serve-replica-{idx}"))
        .spawn(move || {
            let mut model = model;
            let mut step = step;
            let mut input: Vec<f32> = Vec::new();
            let mut output: Vec<f32> = Vec::new();
            for cmd in rx {
                match cmd {
                    ReplicaCmd::Batch(batch) => {
                        run_batch(idx, &mut model, step, batch, &shared, &mut input, &mut output);
                    }
                    ReplicaCmd::Swap(m, s, ack) => {
                        model = *m;
                        step = s;
                        let _ = ack.send(idx);
                    }
                    ReplicaCmd::Crash => return,
                    ReplicaCmd::Stop => break,
                }
            }
        })
        .map_err(|e| format!("spawn replica {idx}: {e}"))?;
    Ok(ReplicaHandle { tx, join })
}

fn run_batch(
    idx: usize,
    model: &mut BuiltModel,
    step: u64,
    batch: Vec<Pending>,
    shared: &Shared,
    input: &mut Vec<f32>,
    output: &mut Vec<f32>,
) {
    let tid = idx as u64;
    let batch_ts = now_us();
    // Shape-check first: misfits get an error reply, the rest batch.
    let mut good: Vec<Pending> = Vec::with_capacity(batch.len());
    for p in batch {
        if p.features.len() == model.in_features {
            good.push(p);
        } else {
            shared.errors.fetch_add(1, Ordering::Relaxed);
            let text = format!(
                "request {} has {} features, model takes {}",
                p.id,
                p.features.len(),
                model.in_features
            );
            let _ = p.conn.send(&protocol::error_reply(p.id, &text));
        }
    }
    let n = good.len();
    if n == 0 {
        return;
    }
    input.clear();
    for p in &good {
        input.extend_from_slice(&p.features);
        trace::slice(lane::SERVE, tid, "queue", p.enqueued_us, batch_ts - p.enqueued_us, || {
            (format!("queue req {}", p.id), vec![("id".to_string(), Json::UInt(p.id))])
        });
    }
    let compute_ts = now_us();
    let out_cols = model.seq.infer_batch(input, n, model.in_features, output);
    trace::slice(lane::SERVE, tid, "compute", compute_ts, now_us() - compute_ts, || {
        (format!("infer n={n}"), vec![("rows".to_string(), Json::UInt(n as u64))])
    });
    for (j, p) in good.iter().enumerate() {
        let out = output[j * out_cols..(j + 1) * out_cols].to_vec();
        if p.conn.send(&protocol::reply(p.id, step, out)).is_ok() {
            shared.responses.fetch_add(1, Ordering::Relaxed);
        } else {
            shared.dropped.fetch_add(1, Ordering::Relaxed);
        }
        shared.latency_us.record(now_us() - p.enqueued_us);
    }
    shared.requests.fetch_add(n as u64, Ordering::Relaxed);
    shared.batches.fetch_add(1, Ordering::Relaxed);
    shared.batch_fill.record(n as f64);
    trace::slice(lane::SERVE, tid, "batch", batch_ts, now_us() - batch_ts, || {
        let uint = |k: &str, v: u64| (k.to_string(), Json::UInt(v));
        (format!("batch n={n} step={step}"), vec![uint("rows", n as u64), uint("step", step)])
    });
}

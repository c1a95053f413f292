//! `repro tcp` — the framed loopback-TCP transport vs the in-process
//! mesh on the same chunked ring all-reduce, recorded to
//! `BENCH_hotpaths.json`.
//!
//! For each world size every rank runs on its own OS thread with its own
//! `Communicator` (`comms_bench::bench_mesh`, the loop `repro comms`
//! times), once over [`InProcTransport`] (channels, the baseline every
//! collectives number in this repo is measured on) and once over
//! [`TcpTransport::local_mesh`] (real `127.0.0.1` sockets,
//! length-prefixed frames, per-peer reader threads, heartbeats). Both
//! runs reduce the same seeded buffer, and the run **fails** unless the
//! results are bitwise identical across transports and equal to the
//! sequential exact-f64-sum oracle — the transport must never show up
//! in the arithmetic, only in the wall clock.
//!
//! Recorded per world: best-of timings for both transports, the modeled
//! f16 ring volume, and the measured TCP wire bytes (frame headers and,
//! at world 4, the f64 partials of reduce-scatter hops 1–2 included) so
//! the framing overhead stays visible. The `tcp` gate holds
//! `bitwise_equal` and the wire-byte accounting from both sides: at
//! least the model, and at world 2 — where every hop rides at f16 — at
//! most the model plus the headers.
//!
//! The `step` row times `dp2_tcp_deep`'s collectives over a 2-rank
//! loopback mesh, without the compute: the reduce-scatter of every
//! tensor's compressed gradient, then the all-gather of every rank's
//! updated half, each rank contributing its own values. Once per
//! parameter — a ring and a gather per tensor, every one started before
//! the first is finished — and once bucketed as `samo`'s step engine
//! sends them: one ring and one gather for all of them. The gate holds the
//! two to the same bits, and each to its message count: two per tensor,
//! and two.

use crate::comms_bench::{bench_mesh, seeded_buf};
use crate::harness::{self, obj, round6};
use crate::Table;
use comms::{CommsError, Communicator, InProcTransport, TcpTransport, Transport};
use std::time::Instant;
use telemetry::json::Json;
use tensor::f16::F16;

/// `dp2_tcp_deep`'s tensors: twelve 128 × 128 layers, each a weight at
/// p = 0.9 (1,638 kept values) and a dense bias (128), in step order.
const STEP_NNZ: [usize; 2] = [1638, 128];
const STEP_LAYERS: usize = 12;

fn step_tensors() -> Vec<usize> {
    (0..STEP_LAYERS).flat_map(|_| STEP_NNZ).collect()
}

/// One timed step shape: the slowest rank's best milliseconds per step,
/// the messages a rank sends per step, and rank 0's gathered tensors.
struct StepComms {
    best_ms: f64,
    msgs: u64,
    gathered: Vec<Vec<F16>>,
}

/// One step's collectives on one rank: the reduce-scatter of `grads`,
/// then the all-gather of the rank's reduced segments, as one bucket or
/// one tensor at a time. Returns every tensor's gathered mean.
fn step_collectives<T: Transport>(
    comm: &mut Communicator<T>,
    grads: &[Vec<F16>],
    bucketed: bool,
) -> Result<Vec<Vec<F16>>, CommsError> {
    let (r, g) = (comm.rank(), comm.world());
    let buckets: Vec<Vec<Vec<F16>>> = match bucketed {
        true => vec![grads.to_vec()],
        false => grads.iter().map(|t| vec![t.clone()]).collect(),
    };
    for bucket in buckets {
        comm.reduce_scatter_start(bucket)?;
    }
    comm.ring_finish()?;
    let mut done = comm.take_completed();
    done.sort_by_key(|(id, _)| *id);
    // Each bucket's reduced segments go back out as the bucket they came in.
    let mut started = Vec::with_capacity(done.len());
    for (_, reduced) in &done {
        let segs: Vec<_> = reduced.iter().map(|t| comms::segment_bounds(t.len(), g)).collect();
        let mine = reduced.iter().zip(&segs).map(|(t, s)| t[s[r].0..s[r].1].to_vec()).collect();
        let counts: Vec<Vec<usize>> = segs.iter().map(|s| s.iter().map(|(lo, hi)| hi - lo).collect()).collect();
        started.push(comm.all_gather_f16_start(mine, &counts)?);
    }
    let mut gathered = Vec::with_capacity(grads.len());
    for pending in started {
        gathered.extend(comm.all_gather_f16_finish(pending)?);
    }
    // The own range comes back zero: the values are the rank's reduced ones.
    for (full, t) in gathered.iter_mut().zip(done.iter().flat_map(|(_, parts)| parts)) {
        let (lo, hi) = comms::segment(t.len(), r, g);
        full[lo..hi].copy_from_slice(&t[lo..hi]);
    }
    Ok(gathered)
}

/// Runs `reps` steps' collectives per rank thread on a fresh loopback
/// mesh — bucketed or one tensor at a time — timed inside the threads
/// between two barriers.
fn step_sample(bucketed: bool, reps: usize) -> Result<StepComms, String> {
    let tensors = step_tensors();
    let mesh = TcpTransport::local_mesh(2).map_err(|e| format!("local_mesh(2): {e}"))?;
    let rank_run = |t: TcpTransport| -> Result<StepComms, CommsError> {
        let mut comm = Communicator::new(t);
        let r = comm.rank();
        let grads: Vec<Vec<F16>> = tensors.iter().enumerate().map(|(i, &n)| seeded_buf(r + 7 * i, n)).collect();
        let mut gathered = Vec::new();
        comm.barrier()?;
        let msgs0 = comm.transport().msgs_sent();
        let t0 = Instant::now();
        for _ in 0..reps {
            gathered = step_collectives(&mut comm, &grads, bucketed)?;
        }
        let best_ms = t0.elapsed().as_secs_f64() * 1e3 / reps as f64;
        let msgs = (comm.transport().msgs_sent() - msgs0) / reps as u64;
        comm.barrier()?;
        Ok(StepComms { best_ms, msgs, gathered })
    };
    let ranks: Vec<StepComms> = std::thread::scope(|s| {
        let handles: Vec<_> = mesh.into_iter().map(|t| s.spawn(|| rank_run(t))).collect();
        let joined = handles.into_iter().map(|h| h.join().map_err(|_| "step rank panicked".to_string()));
        joined.map(|r| r?.map_err(|e| format!("step collectives failed: {e}"))).collect::<Result<_, _>>()
    })?;
    let slowest = ranks.iter().map(|e| e.best_ms).fold(0.0, f64::max);
    let rank0 = ranks.into_iter().next().ok_or("an empty mesh")?;
    Ok(StepComms { best_ms: slowest, ..rank0 })
}

/// Best of `best_of` alternating samples of the two step shapes:
/// `[per parameter, bucketed]`.
fn step_comms(best_of: usize, reps: usize) -> Result<[StepComms; 2], String> {
    let mut best = [step_sample(false, reps)?, step_sample(true, reps)?];
    for _ in 1..best_of {
        for (bucketed, slot) in [false, true].into_iter().zip(&mut best) {
            let e = step_sample(bucketed, reps)?;
            if e.best_ms < slot.best_ms {
                *slot = e;
            }
        }
    }
    Ok(best)
}

/// The sequential oracle: exact f64 sum in rank order, one rounding.
fn oracle_mean(world: usize, n: usize) -> Vec<F16> {
    (0..n)
        .map(|i| {
            let sum: f64 = (0..world)
                .map(|r| f64::from(seeded_buf(r, n)[i].to_f32()))
                .sum();
            comms::reference::f16_mean_from_exact_sum(sum, world as f64)
        })
        .collect()
}

/// Runs the suite: worlds 2/4, in-process vs loopback TCP on the same
/// ring, bitwise cross-check against the oracle, table + CSV to
/// `results/`, the step row, and a `tcp` section merged into
/// `BENCH_hotpaths.json`.
pub fn run(quick: bool) -> Result<(), String> {
    let best_of = if quick { 3 } else { 5 };
    let reps = if quick { 20 } else { 50 };
    let n = if quick { 1 << 14 } else { 1 << 16 };
    let worlds: &[usize] = &[2, 4];

    telemetry::log_info!(
        "tcp: best-of-{best_of} x {reps} reps, n = {n} f16 per rank, loopback sockets vs channels"
    );

    let mut tab = Table::new(
        "tcp_allreduce",
        &[
            "world", "inproc_ms", "tcp_ms", "tcp_over_inproc", "model_bytes", "tcp_wire_bytes",
            "bitwise_equal",
        ],
    );
    let mut world_rows: Vec<Json> = Vec::new();
    for &world in worlds {
        let want = oracle_mean(world, n);
        let inproc = bench_mesh(
            || Ok(InProcTransport::mesh(world)),
            world,
            n,
            best_of,
            reps,
        )?;
        let tcp = bench_mesh(
            || TcpTransport::local_mesh(world).map_err(|e| format!("local_mesh({world}): {e}")),
            world,
            n,
            best_of,
            reps,
        )?;

        // The headline acceptance check, applied by the gate: the
        // transport must be invisible in the reduced bits. A mismatch is
        // a framing/ordering bug.
        let bits = |v: &[F16]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let (inproc_ok, tcp_ok) = (bits(&inproc.reduced) == bits(&want), bits(&tcp.reduced) == bits(&want));
        if !(inproc_ok && tcp_ok) {
            telemetry::log_warn!(
                "tcp: world {world}: reduced bits diverged (inproc == oracle: {inproc_ok}, tcp == oracle: {tcp_ok})"
            );
        }
        tab.push(vec![
            world.to_string(),
            format!("{:.4}", inproc.best_ms),
            format!("{:.4}", tcp.best_ms),
            format!("{:.2}x", tcp.best_ms / inproc.best_ms),
            tcp.model_bytes.to_string(),
            tcp.wire_bytes.to_string(),
            (inproc_ok && tcp_ok).to_string(),
        ]);
        world_rows.push(obj([
            ("world", Json::UInt(world as u64)),
            ("inproc_best_ms", round6(inproc.best_ms)),
            ("tcp_best_ms", round6(tcp.best_ms)),
            ("model_bytes", Json::UInt(tcp.model_bytes)),
            ("inproc_wire_bytes", Json::UInt(inproc.wire_bytes)),
            ("tcp_wire_bytes", Json::UInt(tcp.wire_bytes)),
            ("bitwise_equal", Json::Bool(inproc_ok && tcp_ok)),
        ]));
    }
    println!("{}", tab.render());
    let csv = tab.write_csv().map_err(|e| format!("write tcp CSV: {e}"))?;
    telemetry::log_info!("tcp: CSV written to {}", csv.display());

    let [per_param, bucketed] = step_comms(best_of, reps)?;
    let bitwise_equal = per_param.gathered == bucketed.gathered;
    if !bitwise_equal {
        telemetry::log_warn!("tcp: step: bucketed collectives diverged from per-parameter ones");
    }
    let tensors = step_tensors().len();
    let mut tab = Table::new("tcp_step", &["tensors", "mode", "best_ms", "msgs_per_rank", "bitwise_equal"]);
    for (mode, e) in [("per_param", &per_param), ("bucketed", &bucketed)] {
        let row = [tensors.to_string(), mode.into(), format!("{:.4}", e.best_ms), e.msgs.to_string(), bitwise_equal.to_string()];
        tab.push(row.to_vec());
    }
    println!("{}", tab.render());
    let step_row = obj([
        ("world", Json::UInt(2)),
        ("tensors", Json::UInt(tensors as u64)),
        ("per_param_best_ms", round6(per_param.best_ms)),
        ("bucketed_best_ms", round6(bucketed.best_ms)),
        ("per_param_msgs_per_rank", Json::UInt(per_param.msgs)),
        ("bucketed_msgs_per_rank", Json::UInt(bucketed.msgs)),
        ("bitwise_equal", Json::Bool(bitwise_equal)),
    ]);

    let section = obj([
        ("schema", Json::UInt(1)),
        ("quick", Json::Bool(quick)),
        ("best_of", Json::UInt(best_of as u64)),
        ("n", Json::UInt(n as u64)),
        ("worlds", Json::Arr(world_rows)),
        ("step", step_row),
    ]);
    harness::record("tcp", vec![("tcp".to_string(), section)])
}

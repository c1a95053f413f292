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
//! The `epilogue` row times `dp2_tcp_deep`'s sharded epilogue over a
//! 2-rank loopback mesh: one parameter all-gather per tensor, each rank
//! contributing its half, once blocking one gather at a time and once
//! with every gather started before the first is finished — what
//! `samo`'s step engine does. The gate holds the two to the same bits
//! and the same messages.

use crate::comms_bench::{bench_mesh, seeded_buf};
use crate::harness::{self, obj, round6};
use crate::Table;
use comms::{CommsError, Communicator, InProcTransport, TcpTransport, Transport};
use std::time::Instant;
use telemetry::json::Json;
use tensor::f16::F16;

/// `dp2_tcp_deep`'s tensors: twelve 128 × 128 layers, each a weight at
/// p = 0.9 (1,638 kept values) and a dense bias (128), in step order.
const EPILOGUE_NNZ: [usize; 2] = [1638, 128];
const EPILOGUE_LAYERS: usize = 12;

/// Each gather's `counts` — the two ranks' halves of one tensor.
fn epilogue_counts() -> Vec<[usize; 2]> {
    let halves = |n| [0, 1].map(|r| comms::segment(n, r, 2)).map(|(lo, hi)| hi - lo);
    (0..EPILOGUE_LAYERS).flat_map(|_| EPILOGUE_NNZ.map(halves)).collect()
}

/// One timed epilogue shape: the slowest rank's best milliseconds per
/// epilogue, the messages a rank sends per epilogue, and rank 0's
/// gathered buffers.
struct Epilogue {
    best_ms: f64,
    msgs: u64,
    gathered: Vec<Vec<F16>>,
}

/// Runs `reps` epilogues per rank thread on a fresh loopback mesh —
/// started-then-finished gathers when `started`, blocking ones otherwise —
/// timed inside the threads between two barriers.
fn epilogue_sample(started: bool, reps: usize) -> Result<Epilogue, String> {
    let counts = epilogue_counts();
    let mesh = TcpTransport::local_mesh(2).map_err(|e| format!("local_mesh(2): {e}"))?;
    let rank_run = |t: TcpTransport| -> Result<Epilogue, CommsError> {
        let mut comm = Communicator::new(t);
        let r = comm.rank();
        let mine: Vec<Vec<F16>> = counts.iter().map(|c| seeded_buf(r + 7, c[r])).collect();
        let lo = |c: &[usize; 2]| c[..r].iter().sum::<usize>();
        let mut gathered = Vec::new();
        comm.barrier()?;
        let msgs0 = comm.transport().msgs_sent();
        let t0 = Instant::now();
        for _ in 0..reps {
            gathered = if started {
                let pending = (mine.iter().zip(&counts))
                    .map(|(m, c)| comm.all_gather_f16_start(m.clone(), c))
                    .collect::<Result<Vec<_>, _>>()?;
                let finished = pending.into_iter().zip(mine.iter().zip(&counts));
                // The own range comes back zero: the values are the rank's own.
                finished
                    .map(|(p, (m, c))| {
                        let mut full = comm.all_gather_f16_finish(p)?;
                        full[lo(c)..lo(c) + m.len()].copy_from_slice(m);
                        Ok(full)
                    })
                    .collect::<Result<_, CommsError>>()?
            } else {
                (mine.iter().zip(&counts))
                    .map(|(m, c)| comm.all_gather_f16(m, c))
                    .collect::<Result<_, _>>()?
            };
        }
        let best_ms = t0.elapsed().as_secs_f64() * 1e3 / reps as f64;
        let msgs = (comm.transport().msgs_sent() - msgs0) / reps as u64;
        comm.barrier()?;
        Ok(Epilogue { best_ms, msgs, gathered })
    };
    let ranks: Vec<Epilogue> = std::thread::scope(|s| {
        let handles: Vec<_> = mesh.into_iter().map(|t| s.spawn(|| rank_run(t))).collect();
        let joined = handles.into_iter().map(|h| h.join().map_err(|_| "epilogue rank panicked".to_string()));
        joined.map(|r| r?.map_err(|e| format!("epilogue gather failed: {e}"))).collect::<Result<_, _>>()
    })?;
    let slowest = ranks.iter().map(|e| e.best_ms).fold(0.0, f64::max);
    let rank0 = ranks.into_iter().next().ok_or("an empty mesh")?;
    Ok(Epilogue { best_ms: slowest, ..rank0 })
}

/// Best of `best_of` alternating samples of the two epilogue shapes:
/// `[blocking, started]`.
fn epilogue(best_of: usize, reps: usize) -> Result<[Epilogue; 2], String> {
    let mut best = [epilogue_sample(false, reps)?, epilogue_sample(true, reps)?];
    for _ in 1..best_of {
        for (started, slot) in [false, true].into_iter().zip(&mut best) {
            let e = epilogue_sample(started, reps)?;
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
/// `results/`, the epilogue row, and a `tcp` section merged into
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

    let [blocking, started] = epilogue(best_of, reps)?;
    let bitwise_equal = blocking.gathered == started.gathered;
    if !bitwise_equal {
        telemetry::log_warn!("tcp: epilogue: started gathers diverged from blocking ones");
    }
    let mut tab = Table::new("tcp_epilogue", &["gathers", "mode", "best_ms", "msgs_per_rank", "bitwise_equal"]);
    for (mode, e) in [("blocking", &blocking), ("started", &started)] {
        let gathers = e.gathered.len().to_string();
        let row = [gathers, mode.into(), format!("{:.4}", e.best_ms), e.msgs.to_string(), bitwise_equal.to_string()];
        tab.push(row.to_vec());
    }
    println!("{}", tab.render());
    let epilogue_row = obj([
        ("world", Json::UInt(2)),
        ("gathers", Json::UInt(epilogue_counts().len() as u64)),
        ("blocking_best_ms", round6(blocking.best_ms)),
        ("started_best_ms", round6(started.best_ms)),
        ("blocking_msgs_per_rank", Json::UInt(blocking.msgs)),
        ("started_msgs_per_rank", Json::UInt(started.msgs)),
        ("bitwise_equal", Json::Bool(bitwise_equal)),
    ]);

    let section = obj([
        ("schema", Json::UInt(1)),
        ("quick", Json::Bool(quick)),
        ("best_of", Json::UInt(best_of as u64)),
        ("n", Json::UInt(n as u64)),
        ("worlds", Json::Arr(world_rows)),
        ("epilogue", epilogue_row),
    ]);
    harness::record("tcp", vec![("tcp".to_string(), section)])
}

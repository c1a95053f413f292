//! `repro comms` — compressed vs dense ring all-reduce over the real
//! thread-per-rank `comms` runtime, on both transports, recorded to
//! `BENCH_hotpaths.json`.
//!
//! For each world size every rank runs on its own OS thread with its own
//! [`Communicator`] (`bench_mesh`): over an in-process [`Endpoint::mesh`]
//! (channels) at worlds 2, 4 and 8, and over [`Endpoint::local_mesh`] (real
//! `127.0.0.1` sockets, length-prefixed frames, per-peer reader threads,
//! heartbeats) at worlds 2 and 4. So the number includes the real
//! synchronization cost of the chunked ring schedule (reduce-scatter +
//! all-gather), not just the arithmetic. Two buffer sizes are compared:
//!
//! * **dense** — `phi` f16 gradients, what an uncompressed data-parallel
//!   step would move, and
//! * **compressed** — `nnz = phi/10` f16 values, the SAMO compressed
//!   gradient at 90% sparsity (compression factor `f = 10`).
//!
//! The paper's claim is that the collective shrinks by the compression
//! factor: modeled ring bytes per rank are `2·(G−1)/G·n·2`, so the
//! compressed/dense byte ratio must be `1/f` up to integer truncation —
//! the `comms` gate ([`crate::gates::BYTE_RATIO_TOLERANCE`]). Every run's
//! reduced bits must equal the exact-f64-sum oracle
//! (`comms::reference::allreduce_mean_f16`): the transport must never show
//! up in the arithmetic, only in the wall clock. Wire bytes (a 16 B header
//! per message, and at world 3+ the f64 partial sums of reduce-scatter
//! hops 1..G−2 — hop 0 carries the rank's own f16 values) are recorded
//! beside the modeled f16 volume and gated from both sides: at least the
//! model, and at world 2 — where every hop rides at f16 — at most the
//! model plus the headers.
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

use crate::harness::{self, obj, round6};
use crate::Table;
use comms::{CommsError, Communicator, Endpoint, Transport as _};
use std::sync::Mutex;
use std::time::Instant;
use telemetry::json::Json;
use tensor::f16::F16;

/// Compression factor `f` at the paper's headline sparsity p = 0.9.
const COMPRESSION_FACTOR: usize = 10;

/// The transports and the worlds each is timed at.
const TRANSPORTS: [(&str, &[usize]); 2] = [("inproc", &[2, 4, 8]), ("tcp", &[2, 4])];

/// `dp2_tcp_deep`'s tensors: twelve 128 × 128 layers, each a weight at
/// p = 0.9 (1,638 kept values) and a dense bias (128), in step order.
const STEP_NNZ: [usize; 2] = [1638, 128];
const STEP_LAYERS: usize = 12;

/// One world-size measurement of a single buffer size on one transport.
struct Run {
    best_ms: f64,
    /// Modeled f16 ring volume per rank per all-reduce.
    model_bytes: u64,
    /// Measured transport bytes per rank per all-reduce (headers and, at
    /// world 3+, f64 reduce-scatter partials included).
    wire_bytes: u64,
    /// Rank 0's reduced buffer from the last sample, for bitwise checks.
    reduced: Vec<F16>,
}

/// Deterministic per-rank buffer: a spread of finite f16 values.
fn seeded_buf(rank: usize, n: usize) -> Vec<F16> {
    (0..n)
        .map(|i| {
            let x = (rank as i64 * 31 + i as i64 * 7) % 97;
            F16::from_f32(x as f32 / 16.0 - 3.0)
        })
        .collect()
}

/// What every rank holds after the all-reduce of `world` ranks'
/// `seeded_buf(rank, n)`: the sequential exact-f64-sum oracle.
fn oracle(world: usize, n: usize) -> Result<Vec<F16>, String> {
    let mut bufs: Vec<Vec<F16>> = (0..world).map(|r| seeded_buf(r, n)).collect();
    let mut views: Vec<&mut [F16]> = bufs.iter_mut().map(Vec::as_mut_slice).collect();
    comms::reference::allreduce_mean_f16(&mut views).map_err(|e| format!("oracle: {e}"))?;
    Ok(bufs.swap_remove(0))
}

/// Times `reps` chunked ring all-reduces of `n` f16 elements on `world`
/// rank threads over the wire named in [`TRANSPORTS`], `best_of`
/// samples, each on a fresh mesh. The clock runs *inside* the rank
/// threads: every rank builds its communicator and buffers, meets the
/// others at a barrier, starts its clock, reduces the same `seeded_buf`
/// inputs `reps` times and stops the clock; a closing barrier keeps
/// every endpoint up until the slowest rank is done. A sample is the
/// slowest rank's time — the collective is over when its last rank is —
/// so thread spawn, mesh and buffer set-up, reader-thread joins and
/// socket teardown are outside it, and so are both barriers' bytes.
fn bench_mesh(transport: &str, world: usize, n: usize, best_of: usize, reps: usize) -> Result<Run, String> {
    let mut run = Run { best_ms: f64::INFINITY, model_bytes: 0, wire_bytes: 0, reduced: Vec::new() };
    for _ in 0..best_of {
        let mesh = match transport {
            "tcp" => Endpoint::local_mesh(world).map_err(|e| format!("local_mesh({world}): {e}"))?,
            "inproc" => Endpoint::mesh(world),
            other => return Err(format!("no transport named {other}")),
        };
        // (model bytes, wire bytes, slowest rank's seconds)
        let totals: Mutex<(u64, u64, f64)> = Mutex::new((0, 0, 0.0));
        let rank0: Mutex<Vec<F16>> = Mutex::new(Vec::new());
        std::thread::scope(|s| -> Result<(), String> {
            let handles: Vec<_> = mesh
                .into_iter()
                .map(|t| {
                    let (totals, rank0) = (&totals, &rank0);
                    s.spawn(move || -> Result<(), CommsError> {
                        let mut comm = Communicator::new(t);
                        let rank = comm.rank();
                        let seed = seeded_buf(rank, n);
                        let mut buf = seed.clone();
                        comm.barrier()?;
                        let wire0 = comm.transport().bytes_sent();
                        let t0 = Instant::now();
                        for _ in 0..reps {
                            buf.copy_from_slice(&seed);
                            comm.allreduce_mean_f16(&mut buf)?;
                        }
                        let secs = t0.elapsed().as_secs_f64();
                        let wire = comm.transport().bytes_sent() - wire0;
                        comm.barrier()?;
                        let mut tl = totals.lock().expect("no rank panics holding the totals");
                        tl.0 += comm.model_allreduce_bytes();
                        tl.1 += wire;
                        tl.2 = tl.2.max(secs);
                        drop(tl);
                        if rank == 0 {
                            *rank0.lock().expect("only rank 0 takes this lock") = buf;
                        }
                        Ok(())
                    })
                })
                .collect();
            for h in handles {
                h.join()
                    .map_err(|_| "rank thread panicked".to_string())?
                    .map_err(|e| format!("all-reduce failed: {e}"))?;
            }
            Ok(())
        })?;
        let (model, wire, secs) = totals.into_inner().expect("rank threads joined cleanly");
        run.best_ms = run.best_ms.min(secs * 1e3 / reps as f64);
        let per_op = reps as u64 * world as u64;
        run.model_bytes = model / per_op;
        run.wire_bytes = wire / per_op;
        run.reduced = rank0.into_inner().expect("rank threads joined cleanly");
    }
    Ok(run)
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
fn step_collectives(
    comm: &mut Communicator,
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
fn step_sample(tensors: &[usize], bucketed: bool, reps: usize) -> Result<StepComms, String> {
    let mesh = Endpoint::local_mesh(2).map_err(|e| format!("local_mesh(2): {e}"))?;
    let rank_run = |t: Endpoint| -> Result<StepComms, CommsError> {
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

/// The `step` row: the best of `best_of` alternating samples of the two
/// step shapes, per parameter and bucketed.
fn step_row(best_of: usize, reps: usize) -> Result<Json, String> {
    let tensors: Vec<usize> = (0..STEP_LAYERS).flat_map(|_| STEP_NNZ).collect();
    let mut best = [step_sample(&tensors, false, reps)?, step_sample(&tensors, true, reps)?];
    for _ in 1..best_of {
        for (bucketed, slot) in [false, true].into_iter().zip(&mut best) {
            let e = step_sample(&tensors, bucketed, reps)?;
            if e.best_ms < slot.best_ms {
                *slot = e;
            }
        }
    }
    let [per_param, bucketed] = best;
    let bitwise_equal = per_param.gathered == bucketed.gathered;
    if !bitwise_equal {
        telemetry::log_warn!("comms: step: bucketed collectives diverged from per-parameter ones");
    }
    let mut tab = Table::new("comms_step", &["tensors", "mode", "best_ms", "msgs_per_rank", "bitwise_equal"]);
    for (mode, e) in [("per_param", &per_param), ("bucketed", &bucketed)] {
        let row = [tensors.len().to_string(), mode.into(), format!("{:.4}", e.best_ms), e.msgs.to_string(), bitwise_equal.to_string()];
        tab.push(row.to_vec());
    }
    println!("{}", tab.render());
    Ok(obj([
        ("world", Json::UInt(2)),
        ("tensors", Json::UInt(tensors.len() as u64)),
        ("per_param_best_ms", round6(per_param.best_ms)),
        ("bucketed_best_ms", round6(bucketed.best_ms)),
        ("per_param_msgs_per_rank", Json::UInt(per_param.msgs)),
        ("bucketed_msgs_per_rank", Json::UInt(bucketed.msgs)),
        ("bitwise_equal", Json::Bool(bitwise_equal)),
    ]))
}

/// Runs the suite: dense `phi` vs compressed `phi/f` on every transport
/// and world of `TRANSPORTS`, each run's bits against the oracle, a
/// table and CSV to `results/`, the step row, and the `comms` section
/// recorded under its gate.
pub fn run(quick: bool) -> Result<(), String> {
    let best_of = if quick { 3 } else { 5 };
    let reps = if quick { 20 } else { 50 };
    let phi = if quick { 1 << 16 } else { 1 << 18 };
    let nnz = phi / COMPRESSION_FACTOR;

    telemetry::log_info!(
        "comms: best-of-{best_of} x {reps} reps, phi = {phi}, nnz = {nnz} (f = {COMPRESSION_FACTOR}), channels and loopback sockets"
    );

    let mut tab = Table::new(
        "comms_allreduce",
        &[
            "transport", "world", "dense_ms", "compressed_ms", "dense_bytes", "compressed_bytes",
            "byte_ratio", "dense_gb_s", "compressed_gb_s", "dense_wire_bytes", "bitwise_equal",
        ],
    );
    let mut world_rows: Vec<Json> = Vec::new();
    for (transport, worlds) in TRANSPORTS {
        for &world in worlds {
            let dense = bench_mesh(transport, world, phi, best_of, reps)?;
            let comp = bench_mesh(transport, world, nnz, best_of, reps)?;

            // The transport must be invisible in the reduced bits: a
            // mismatch is a framing or ordering bug.
            let bitwise_equal = dense.reduced == oracle(world, phi)? && comp.reduced == oracle(world, nnz)?;
            if !bitwise_equal {
                telemetry::log_warn!("comms: {transport} world {world}: reduced bits diverged from the oracle");
            }
            // The headline acceptance check, applied by the gate: the
            // compressed collective moves 1/f of the dense bytes.
            let ratio = comp.model_bytes as f64 / dense.model_bytes as f64;
            let gb_s = |bytes: u64, ms: f64| bytes as f64 / (ms * 1e-3) / 1e9;
            let dense_gb_s = gb_s(dense.model_bytes, dense.best_ms);
            let comp_gb_s = gb_s(comp.model_bytes, comp.best_ms);
            tab.push(vec![
                transport.to_string(),
                world.to_string(),
                format!("{:.4}", dense.best_ms),
                format!("{:.4}", comp.best_ms),
                dense.model_bytes.to_string(),
                comp.model_bytes.to_string(),
                format!("{ratio:.4}"),
                format!("{dense_gb_s:.3}"),
                format!("{comp_gb_s:.3}"),
                dense.wire_bytes.to_string(),
                bitwise_equal.to_string(),
            ]);
            world_rows.push(obj([
                ("transport", Json::Str(transport.to_string())),
                ("world", Json::UInt(world as u64)),
                ("dense_best_ms", round6(dense.best_ms)),
                ("compressed_best_ms", round6(comp.best_ms)),
                ("dense_model_bytes", Json::UInt(dense.model_bytes)),
                ("compressed_model_bytes", Json::UInt(comp.model_bytes)),
                ("dense_wire_bytes", Json::UInt(dense.wire_bytes)),
                ("compressed_wire_bytes", Json::UInt(comp.wire_bytes)),
                ("byte_ratio", round6(ratio)),
                ("dense_gb_s", round6(dense_gb_s)),
                ("compressed_gb_s", round6(comp_gb_s)),
                ("bitwise_equal", Json::Bool(bitwise_equal)),
            ]));
        }
    }
    println!("{}", tab.render());
    let csv = tab.write_csv().map_err(|e| format!("write comms CSV: {e}"))?;
    telemetry::log_info!("comms: CSV written to {}", csv.display());

    let section = obj([
        ("schema", Json::UInt(1)),
        ("quick", Json::Bool(quick)),
        ("best_of", Json::UInt(best_of as u64)),
        ("phi", Json::UInt(phi as u64)),
        ("nnz", Json::UInt(nnz as u64)),
        ("compression_factor", Json::UInt(COMPRESSION_FACTOR as u64)),
        ("worlds", Json::Arr(world_rows)),
        ("step", step_row(best_of, reps)?),
    ]);
    harness::record("comms", vec![("comms".to_string(), section)])
}

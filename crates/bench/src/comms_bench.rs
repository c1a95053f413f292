//! `repro comms` — compressed vs dense ring all-reduce over the real
//! thread-per-rank `comms` runtime, recorded to `BENCH_hotpaths.json`.
//!
//! For each world size every rank runs on its own OS thread with its own
//! [`Communicator`] over an in-process transport mesh (`bench_mesh`,
//! which `repro tcp` reuses over real sockets), so the number
//! includes the real synchronization cost of the chunked ring schedule
//! (reduce-scatter + all-gather), not just the arithmetic. Two buffer
//! sizes are compared:
//!
//! * **dense** — `phi` f16 gradients, what an uncompressed data-parallel
//!   step would move, and
//! * **compressed** — `nnz = phi/10` f16 values, the SAMO compressed
//!   gradient at 90% sparsity (compression factor `f = 10`).
//!
//! The paper's claim is that the collective shrinks by the compression
//! factor: modeled ring bytes per rank are `2·(G−1)/G·n·2`, so the
//! compressed/dense byte ratio must be `1/f` up to integer truncation —
//! the `comms` gate ([`crate::gates::BYTE_RATIO_TOLERANCE`]). Wire bytes
//! (a 16 B header per message, and at world 3+ the f64 partial sums of
//! reduce-scatter hops 1..G−2 — hop 0 carries the rank's own f16 values)
//! are recorded alongside the modeled f16 volume so the protocol
//! overhead stays visible.

use crate::harness::{self, obj, round6};
use comms::{CommsError, Communicator, InProcTransport, Transport};
use std::sync::Mutex;
use std::time::Instant;
use telemetry::json::Json;
use tensor::f16::F16;

/// Compression factor `f` at the paper's headline sparsity p = 0.9.
const COMPRESSION_FACTOR: usize = 10;

/// One world-size measurement of a single buffer size on one transport.
pub(crate) struct Run {
    pub best_ms: f64,
    /// Modeled f16 ring volume per rank per all-reduce.
    pub model_bytes: u64,
    /// Measured transport bytes per rank per all-reduce (headers and, at
    /// world 3+, f64 reduce-scatter partials included).
    pub wire_bytes: u64,
    /// Rank 0's reduced buffer from the last sample, for bitwise checks.
    pub reduced: Vec<F16>,
}

/// Deterministic per-rank buffer: a spread of finite f16 values.
pub(crate) fn seeded_buf(rank: usize, n: usize) -> Vec<F16> {
    (0..n)
        .map(|i| {
            let x = (rank as i64 * 31 + i as i64 * 7) % 97;
            F16::from_f32(x as f32 / 16.0 - 3.0)
        })
        .collect()
}

/// Times `reps` chunked ring all-reduces of `n` f16 elements on `world`
/// rank threads over the endpoints `make_mesh` builds, `best_of`
/// samples, each on a fresh mesh. The clock runs *inside* the rank
/// threads: every rank builds its communicator and buffers, meets the
/// others at a barrier, starts its clock, reduces the same `seeded_buf`
/// inputs `reps` times and stops the clock; a closing barrier keeps
/// every endpoint up until the slowest rank is done. A sample is the
/// slowest rank's time — the collective is over when its last rank is —
/// so thread spawn, mesh and buffer set-up, reader-thread joins and
/// socket teardown are outside it, and so are both barriers' bytes.
pub(crate) fn bench_mesh<T, F>(
    make_mesh: F,
    world: usize,
    n: usize,
    best_of: usize,
    reps: usize,
) -> Result<Run, String>
where
    T: Transport + Send + 'static,
    F: Fn() -> Result<Vec<T>, String>,
{
    let mut run = Run { best_ms: f64::INFINITY, model_bytes: 0, wire_bytes: 0, reduced: Vec::new() };
    for _ in 0..best_of {
        let mesh = make_mesh()?;
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

/// Runs the suite: worlds 2/4/8, dense `phi` vs compressed `phi/f`,
/// table + CSV to `results/`, and the `comms` section recorded under its
/// gate.
pub fn run(quick: bool) -> Result<(), String> {
    let best_of = if quick { 3 } else { 5 };
    let reps = if quick { 20 } else { 50 };
    let phi = if quick { 1 << 16 } else { 1 << 18 };
    let nnz = phi / COMPRESSION_FACTOR;
    let worlds: &[usize] = &[2, 4, 8];

    telemetry::log_info!(
        "comms: best-of-{best_of} x {reps} reps, phi = {phi}, nnz = {nnz} (f = {COMPRESSION_FACTOR})"
    );

    let mut tab = crate::Table::new(
        "comms_allreduce",
        &[
            "world", "dense_ms", "compressed_ms", "dense_bytes", "compressed_bytes",
            "byte_ratio", "dense_gb_s", "compressed_gb_s",
        ],
    );
    let mut world_rows: Vec<Json> = Vec::new();
    for &world in worlds {
        let mesh = || Ok(InProcTransport::mesh(world));
        let dense = bench_mesh(mesh, world, phi, best_of, reps)?;
        let comp = bench_mesh(mesh, world, nnz, best_of, reps)?;

        // The headline acceptance check, applied by the gate: the
        // compressed collective moves 1/f of the dense bytes.
        let ratio = comp.model_bytes as f64 / dense.model_bytes as f64;
        let gb_s = |bytes: u64, ms: f64| bytes as f64 / (ms * 1e-3) / 1e9;
        let dense_gb_s = gb_s(dense.model_bytes, dense.best_ms);
        let comp_gb_s = gb_s(comp.model_bytes, comp.best_ms);
        tab.push(vec![
            world.to_string(),
            format!("{:.4}", dense.best_ms),
            format!("{:.4}", comp.best_ms),
            dense.model_bytes.to_string(),
            comp.model_bytes.to_string(),
            format!("{ratio:.4}"),
            format!("{dense_gb_s:.3}"),
            format!("{comp_gb_s:.3}"),
        ]);
        world_rows.push(obj([
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
        ]));
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
    ]);
    harness::record("comms", vec![("comms".to_string(), section)])
}

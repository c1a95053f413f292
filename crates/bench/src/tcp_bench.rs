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

use crate::comms_bench::{bench_mesh, seeded_buf};
use crate::harness::{self, obj, round6};
use crate::Table;
use comms::{InProcTransport, TcpTransport};
use telemetry::json::Json;
use tensor::f16::F16;

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
/// `results/`, and a `tcp` section merged into `BENCH_hotpaths.json`.
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

    let section = obj([
        ("schema", Json::UInt(1)),
        ("quick", Json::Bool(quick)),
        ("best_of", Json::UInt(best_of as u64)),
        ("n", Json::UInt(n as u64)),
        ("worlds", Json::Arr(world_rows)),
    ]);
    harness::record("tcp", vec![("tcp".to_string(), section)])
}

//! The f16 first ring hop and the reduce-scatter-only ring, on both
//! transports: for every world 1–5 and every length `0..=2G+3` (so
//! empty and one-element segments occur), with inputs salted with
//! `±inf`, NaNs and subnormals,
//!
//! * the all-reduce is bitwise [`comms::reference::allreduce_mean_f16`];
//! * the reduce-scatter-only ring leaves rank `r` exactly the reference
//!   mean on `segment_bounds(n, G)[r]` and its own inputs elsewhere,
//!   while other rings are in flight and rank 0 starts late enough that
//!   its neighbour's hops arrive early;
//! * each rank sends exactly the bytes of the documented hop table: f16
//!   at hop 0 and in the all-gather, f64 in between, 16 B per message.

use comms::{segment_bounds, Communicator, InProcTransport, Payload, TcpTransport, Transport};
use std::sync::Barrier;
use std::time::Duration;
use tensor::f16::F16;

/// A deterministic buffer of finite values, subnormals, zeros and (one
/// in five) `±inf` or an odd-payload NaN.
fn salted(seed: u64, n: usize) -> Vec<F16> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..n)
        .map(|_| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let r = s >> 33;
            match r % 10 {
                0 => [F16::INFINITY, F16::NEG_INFINITY][(r >> 8) as usize % 2],
                1 => F16(0x7E00 | (r >> 8) as u16 & 0x01FF),
                2 => F16((r >> 8) as u16 & 0x83FF), // subnormal or ±0
                _ => F16::from_f32((r >> 8) as f32 / (1 << 18) as f32 - 16.0),
            }
        })
        .collect()
}

fn bits(v: &[F16]) -> Vec<u16> {
    v.iter().map(|h| h.0).collect()
}

fn oracle(inputs: &[Vec<F16>]) -> Vec<F16> {
    let mut copies = inputs.to_vec();
    let mut bufs: Vec<&mut [F16]> = copies.iter_mut().map(|c| c.as_mut_slice()).collect();
    comms::reference::allreduce_mean_f16(&mut bufs).unwrap();
    copies.swap_remove(0)
}

/// Runs `f(communicator)` on one thread per endpoint; results in rank order.
fn on_ranks<T: Transport, R: Send>(
    mesh: Vec<T>,
    f: impl Fn(&mut Communicator<T>) -> R + Sync,
) -> Vec<R> {
    std::thread::scope(|s| {
        let handles: Vec<_> = mesh
            .into_iter()
            .map(|t| {
                let f = &f;
                s.spawn(move || {
                    f(&mut Communicator::new(t).with_timeout(Duration::from_secs(20)))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("rank panicked")).collect()
    })
}

/// What rank `r` of `g` sends for one ring over `n` values, from the hop
/// table in the `collectives` module docs.
fn ring_bytes(n: usize, g: usize, r: usize, scatter_only: bool) -> u64 {
    if g == 1 {
        return 0;
    }
    let segs = segment_bounds(n, g);
    let len = |seg: usize| (segs[seg % g].1 - segs[seg % g].0) as u64;
    let shift = usize::from(scatter_only);
    // Hop 0: own f16 values of segment r − shift.
    let mut bytes = Payload::HEADER_BYTES + 2 * len(r + g - shift);
    // Hops 1..=G−2: the f64 partial of the segment received one hop ago.
    for s in 1..g - 1 {
        bytes += Payload::HEADER_BYTES + 8 * len(r + 2 * g - s - shift);
    }
    if !scatter_only {
        // All-gather: the segment finalized here, then the ones received.
        for k in 0..g - 1 {
            bytes += Payload::HEADER_BYTES + 2 * len(r + 1 + g - k);
        }
    }
    bytes
}

/// The three properties on one mesh.
fn check_mesh<T: Transport>(make: impl Fn(usize) -> Vec<T>, what: &str) {
    for world in 1..=5usize {
        for n in 0..=2 * world + 3 {
            let seed = (world * 100 + n) as u64;
            let inputs: Vec<Vec<F16>> =
                (0..world).map(|r| salted(seed * 7 + r as u64, n)).collect();
            let want = oracle(&inputs);
            let side: Vec<Vec<F16>> = (0..world).map(|r| salted(seed * 13 + r as u64, 9)).collect();
            let side_want = oracle(&side);
            let ctx = format!("{what} world {world} n {n}");

            // (a) + (c): the all-reduce, alone on a fresh mesh.
            let got = on_ranks(make(world), |comm| {
                let mut buf = inputs[comm.rank()].clone();
                comm.allreduce_mean_f16(&mut buf).unwrap();
                (buf, comm.transport().bytes_sent())
            });
            for (r, (buf, sent)) in got.iter().enumerate() {
                assert_eq!(bits(buf), bits(&want), "{ctx}: all-reduce, rank {r}");
                assert_eq!(*sent, ring_bytes(n, world, r, false), "{ctx}: all-reduce bytes, rank {r}");
            }

            // (b) + (c): a reduce-scatter between two all-reduces. Rank 0
            // starts only after every other rank has posted all its first
            // hops, so its neighbour's traffic for the later rings is
            // already in flight when it pumps the first one.
            let others_started = Barrier::new(world);
            let got = on_ranks(make(world), |comm| {
                let r = comm.rank();
                if r == 0 {
                    others_started.wait();
                }
                let a = comm.ring_start(side[r].clone()).unwrap();
                comm.ring_pump().unwrap();
                let b = comm.reduce_scatter_start(inputs[r].clone()).unwrap();
                let c = comm.ring_start(side[r].clone()).unwrap();
                if r != 0 {
                    others_started.wait();
                }
                comm.ring_finish().unwrap();
                let mut done = comm.take_completed();
                done.sort_by_key(|(id, _)| *id);
                assert_eq!(done.iter().map(|d| d.0).collect::<Vec<_>>(), vec![a, b, c]);
                (done, comm.transport().bytes_sent())
            });
            let segs = segment_bounds(n, world);
            for (r, (done, sent)) in got.iter().enumerate() {
                assert_eq!(bits(&done[0].1), bits(&side_want), "{ctx}: ring before, rank {r}");
                assert_eq!(bits(&done[2].1), bits(&side_want), "{ctx}: ring after, rank {r}");
                let (lo, hi) = segs[r];
                let mut expect = inputs[r].clone();
                expect[lo..hi].copy_from_slice(&want[lo..hi]);
                if world == 1 {
                    expect = want.clone(); // one rank: NaNs are canonicalized
                }
                assert_eq!(bits(&done[1].1), bits(&expect), "{ctx}: reduce-scatter, rank {r}");
                let bytes = 2 * ring_bytes(9, world, r, false) + ring_bytes(n, world, r, true);
                assert_eq!(*sent, bytes, "{ctx}: interleaved bytes, rank {r}");
            }
        }
    }
}

#[test]
fn f16_first_hop_and_reduce_scatter_hold_on_the_inproc_mesh() {
    check_mesh(InProcTransport::mesh, "inproc");
}

#[test]
fn f16_first_hop_and_reduce_scatter_hold_over_loopback_tcp() {
    check_mesh(|world| TcpTransport::local_mesh(world).expect("loopback mesh"), "tcp");
}

/// The closed forms the issue names: at world 2 a rank sends
/// `(G−1)/G·n·2 B` plus one 16 B header per phase — nothing rides at
/// f64 — and at world 3 the one middle hop does.
#[test]
fn world_two_moves_exactly_the_modeled_f16_bytes() {
    let n = 1000;
    assert_eq!(ring_bytes(n, 2, 0, true), n as u64 / 2 * 2 + 16);
    assert_eq!(ring_bytes(n, 2, 1, false), 2 * (n as u64 / 2 * 2 + 16));
    assert_eq!(
        ring_bytes(n, 2, 0, false),
        comms::ring_allreduce_model_bytes(n as u64, 2, 2) + 2 * Payload::HEADER_BYTES
    );
    // World 3, n divisible: f16 + f64 in the reduce-scatter, 2 × f16 after.
    let seg = 999 / 3;
    assert_eq!(ring_bytes(999, 3, 2, true), (2 + 8) * seg + 2 * 16);
    assert_eq!(ring_bytes(999, 3, 2, false), (2 + 8 + 2 + 2) * seg + 4 * 16);
}

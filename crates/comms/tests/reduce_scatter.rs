//! The f16 first ring hop and the reduce-scatter, on both transports:
//! for every world 1–5 and every length `0..=2G+3` (so empty and
//! one-element segments occur), with inputs salted with `±inf`, NaNs and
//! subnormals,
//!
//! * the all-reduce is bitwise [`comms::reference::allreduce_mean_f16`];
//! * the reduce-scatter leaves rank `r` exactly the reference mean on
//!   `segment_bounds(n, G)[r]` and its own inputs elsewhere, while other
//!   rings are in flight and rank 0 starts late enough that its
//!   neighbour's hops arrive early;
//! * each rank sends exactly the bytes of the documented hop table: f16
//!   at hop 0 and in the all-gather, f64 in between, 16 B per message.
//!
//! And the grouped ring, whose bucket of parts sends one message a hop:
//! at worlds 1–8, with parts empty, shorter than `G` and longer, and two
//! buckets in flight, every part's bits are the reference's on its own
//! segments, in-process ≡ TCP, and the bytes are the hop table's with one
//! header per bucket and hop; a hop whose length is not the bucket's
//! segment sum is a typed `Mismatch` before the deadline.

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

/// What rank `r` of `g` sends for one reduce-scatter over a bucket of
/// parts `lens` long — and, with `gather`, the all-gather of the finished
/// segments after it (an all-reduce) — from the hop table in the
/// `collectives` module docs: one message per hop for the whole bucket.
fn bucket_bytes(lens: &[usize], g: usize, r: usize, gather: bool) -> u64 {
    if g == 1 {
        return 0;
    }
    let segs: Vec<_> = lens.iter().map(|&n| segment_bounds(n, g)).collect();
    let len = |seg: usize| segs.iter().map(|s| (s[seg % g].1 - s[seg % g].0) as u64).sum::<u64>();
    // Hop 0: own f16 values of segment r − 1.
    let mut bytes = Payload::HEADER_BYTES + 2 * len(r + g - 1);
    // Hops 1..=G−2: the f64 partial of the segment received one hop ago.
    for s in 1..g - 1 {
        bytes += Payload::HEADER_BYTES + 8 * len(r + 2 * g - s - 1);
    }
    if gather {
        // All-gather: the segment finalized here (segment r), then the
        // ones received.
        for k in 0..g - 1 {
            bytes += Payload::HEADER_BYTES + 2 * len(r + g - k);
        }
    }
    bytes
}

/// [`bucket_bytes`] of a one-part bucket: a ring over one buffer.
fn ring_bytes(n: usize, g: usize, r: usize, gather: bool) -> u64 {
    bucket_bytes(&[n], g, r, gather)
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
                assert_eq!(*sent, ring_bytes(n, world, r, true), "{ctx}: all-reduce bytes, rank {r}");
            }

            // (b) + (c): three reduce-scatters in flight at once. Rank 0
            // starts only after every other rank has posted all its first
            // hops, so its neighbour's traffic for the later rings is
            // already in flight when it pumps the first one.
            let others_started = Barrier::new(world);
            let got = on_ranks(make(world), |comm| {
                let r = comm.rank();
                if r == 0 {
                    others_started.wait();
                }
                let a = comm.reduce_scatter_start(vec![side[r].clone()]).unwrap();
                comm.ring_pump().unwrap();
                let b = comm.reduce_scatter_start(vec![inputs[r].clone()]).unwrap();
                let c = comm.reduce_scatter_start(vec![side[r].clone()]).unwrap();
                if r != 0 {
                    others_started.wait();
                }
                comm.ring_finish().unwrap();
                let mut done = comm.take_completed();
                done.sort_by_key(|(id, _)| *id);
                assert_eq!(done.iter().map(|d| d.0).collect::<Vec<_>>(), vec![a, b, c]);
                (done, comm.transport().bytes_sent())
            });
            // Rank r's share: the mean on its own segment, its inputs
            // elsewhere (one rank: every NaN is canonicalized).
            let scattered = |mine: &[F16], mean: &[F16], (lo, hi): (usize, usize)| {
                let mut e = if world == 1 { mean.to_vec() } else { mine.to_vec() };
                e[lo..hi].copy_from_slice(&mean[lo..hi]);
                e
            };
            let (segs, side_segs) = (segment_bounds(n, world), segment_bounds(9, world));
            for (r, (done, sent)) in got.iter().enumerate() {
                let side_expect = scattered(&side[r], &side_want, side_segs[r]);
                assert_eq!(bits(&done[0].1[0]), bits(&side_expect), "{ctx}: ring before, rank {r}");
                assert_eq!(bits(&done[2].1[0]), bits(&side_expect), "{ctx}: ring after, rank {r}");
                let expect = scattered(&inputs[r], &want, segs[r]);
                assert_eq!(bits(&done[1].1[0]), bits(&expect), "{ctx}: reduce-scatter, rank {r}");
                let bytes = 2 * ring_bytes(9, world, r, false) + ring_bytes(n, world, r, false);
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
    assert_eq!(ring_bytes(n, 2, 0, false), n as u64 / 2 * 2 + 16);
    assert_eq!(ring_bytes(n, 2, 1, true), 2 * (n as u64 / 2 * 2 + 16));
    assert_eq!(
        ring_bytes(n, 2, 0, true),
        comms::ring_allreduce_model_bytes(n as u64, 2, 2) + 2 * Payload::HEADER_BYTES
    );
    // World 3, n divisible: f16 + f64 in the reduce-scatter, 2 × f16 after.
    let seg = 999 / 3;
    assert_eq!(ring_bytes(999, 3, 2, false), (2 + 8) * seg + 2 * 16);
    assert_eq!(ring_bytes(999, 3, 2, true), (2 + 8 + 2 + 2) * seg + 4 * 16);
}

/// Part lengths of a bucket at world `g`: empty, shorter than `G`, `G`
/// itself, longer, and one of a layer's size.
fn part_lens(g: usize, salt: usize) -> Vec<usize> {
    vec![0, 1, g.saturating_sub(1), g, 2 * g + 3, 37 + salt, 0, 5]
}

/// Rank `r`'s grouped all-reduce of two buckets in flight at once: both
/// rings started before either finishes, then one bucket all-gather per
/// bucket of the rank's reduced segments. Returns the reduce-scatter
/// parts, the gathered parts (own ranges filled in), and the bytes sent.
/// A bucket: its parts.
type Bucket = Vec<Vec<F16>>;

fn grouped<T: Transport>(comm: &mut Communicator<T>, buckets: &[Bucket]) -> (Vec<Bucket>, Vec<Bucket>, u64) {
    let (r, g) = (comm.rank(), comm.world());
    let ids: Vec<u64> = buckets.iter().map(|b| comm.reduce_scatter_start(b.clone()).unwrap()).collect();
    comm.ring_pump().unwrap();
    comm.ring_finish().unwrap();
    let mut done = comm.take_completed();
    done.sort_by_key(|(id, _)| *id);
    assert_eq!(done.iter().map(|d| d.0).collect::<Vec<_>>(), ids);
    let reduced: Vec<Bucket> = done.into_iter().map(|(_, parts)| parts).collect();
    let mut gathered = Vec::new();
    let started: Vec<_> = reduced
        .iter()
        .map(|parts| {
            let segs: Vec<_> = parts.iter().map(|p| segment_bounds(p.len(), g)).collect();
            let mine = parts.iter().zip(&segs).map(|(p, s)| p[s[r].0..s[r].1].to_vec()).collect();
            let counts: Vec<Vec<usize>> = segs.iter().map(|s| s.iter().map(|(lo, hi)| hi - lo).collect()).collect();
            (comm.all_gather_f16_start(mine, &counts).unwrap(), segs)
        })
        .collect();
    for ((pending, segs), parts) in started.into_iter().zip(&reduced) {
        let mut full = comm.all_gather_f16_finish(pending).unwrap();
        for ((f, p), s) in full.iter_mut().zip(parts).zip(&segs) {
            assert!(f[s[r].0..s[r].1].iter().all(|x| x.0 == 0), "own range left zero");
            f[s[r].0..s[r].1].copy_from_slice(&p[s[r].0..s[r].1]);
        }
        gathered.push(full);
    }
    (reduced, gathered, comm.transport().bytes_sent())
}

#[test]
fn grouped_buckets_hold_every_part_to_the_reference_on_both_transports() {
    for world in 1..=8usize {
        let lens = [part_lens(world, 0), part_lens(world, 4)];
        // inputs[b][r][p]: bucket b, rank r, part p.
        let inputs: Vec<Vec<Bucket>> = (0..2)
            .map(|b| {
                (0..world)
                    .map(|r| lens[b].iter().enumerate().map(|(p, &n)| salted((world * 1000 + b * 100 + p * 10 + r) as u64, n)).collect())
                    .collect()
            })
            .collect();
        let wants: Vec<Bucket> = (0..2)
            .map(|b| {
                (0..lens[b].len())
                    .map(|p| oracle(&(0..world).map(|r| inputs[b][r][p].clone()).collect::<Vec<_>>()))
                    .collect()
            })
            .collect();
        let mine = |r: usize| [inputs[0][r].clone(), inputs[1][r].clone()];
        let inproc = on_ranks(InProcTransport::mesh(world), |comm| grouped(comm, &mine(comm.rank())));
        let mesh = TcpTransport::local_mesh(world).expect("loopback mesh");
        let tcp = on_ranks(mesh, |comm| grouped(comm, &mine(comm.rank())));
        assert_eq!(inproc, tcp, "world {world}: in-process and TCP");
        for (r, (reduced, gathered, sent)) in inproc.iter().enumerate() {
            for b in 0..2 {
                for (p, &n) in lens[b].iter().enumerate() {
                    let ctx = format!("world {world} rank {r} bucket {b} part {p} (len {n})");
                    let want = &wants[b][p];
                    // Rank r's share: the mean on its own segment, its
                    // inputs elsewhere (one rank: every NaN canonical).
                    let (lo, hi) = segment_bounds(n, world)[r];
                    let mut expect = if world == 1 { want.clone() } else { inputs[b][r][p].clone() };
                    expect[lo..hi].copy_from_slice(&want[lo..hi]);
                    assert_eq!(bits(&reduced[b][p]), bits(&expect), "{ctx}: reduce-scatter");
                    assert_eq!(bits(&gathered[b][p]), bits(want), "{ctx}: all-reduce");
                }
            }
            let bytes = bucket_bytes(&lens[0], world, r, true) + bucket_bytes(&lens[1], world, r, true);
            assert_eq!(*sent, bytes, "world {world} rank {r}: one header per bucket and hop");
        }
    }
}

/// A bucket's hop of the wrong length — ranks that disagree about a part
/// — is a typed `Mismatch`, not a panic, an out-of-range slice or a
/// timeout; the communicator refuses work after it until recovered.
#[test]
fn a_grouped_hop_of_the_wrong_length_is_a_mismatch_before_the_deadline() {
    let timeout = Duration::from_secs(5);
    // Rank 1's second part is 6 long where rank 0's is 3: every hop of
    // the ring differs from the segment sum expected, and so does every
    // hop of the gather after it.
    let got = std::thread::scope(|s| {
        let handles: Vec<_> = InProcTransport::mesh(2)
            .into_iter()
            .map(|t| {
                s.spawn(move || {
                    let mut comm = Communicator::new(t).with_timeout(timeout);
                    let r = comm.rank();
                    let second = [3, 6][r];
                    let t0 = std::time::Instant::now();
                    comm.reduce_scatter_start(vec![salted(1, 5), salted(2, second)]).unwrap();
                    let ring = comm.ring_finish();
                    comm.bump_epoch();
                    // And the second part of a gather: 1 a rank on rank 0, 2 on rank 1.
                    let counts = [vec![2, 2], vec![r + 1; 2]];
                    let mine = vec![salted(3, 2), salted(4, r + 1)];
                    let gather = comm.all_gather_f16_start(mine, &counts).and_then(|g| comm.all_gather_f16_finish(g));
                    let refused = comm.barrier();
                    (ring, gather.map(drop), refused, t0.elapsed())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("a rank panicked")).collect::<Vec<_>>()
    });
    for (r, (ring, gather, refused, took)) in got.into_iter().enumerate() {
        assert!(matches!(ring, Err(comms::CommsError::Mismatch(_))), "rank {r}: ring {ring:?}");
        assert!(matches!(gather, Err(comms::CommsError::Mismatch(_))), "rank {r}: gather {gather:?}");
        assert_eq!(refused, Err(comms::CommsError::Poisoned), "rank {r}: poisoned after");
        assert!(took < timeout, "rank {r}: {took:?}, not the deadline");
    }
}
